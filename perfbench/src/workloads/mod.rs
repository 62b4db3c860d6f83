//! The four workloads and the loops they share.

use std::time::{Duration, Instant};

use stuc::core::engine::EngineCacheStats;
use stuc::data::instance::ConstId;
use stuc::data::tid::TidInstance;

use crate::inputs::Sizes;
use crate::report::{
    count_share_of_op, median, share_of_op, EndToEnd, Latency, LayerValues, Raw, RunResult,
    SetupTimes, Tally,
};
use crate::speed::{Scale, Speedometer};
use crate::sys::process_cpu_ns;
use crate::trace::{OpSample, Tracer};

pub mod anchored;
pub mod serve_mix;
pub mod treelike;
pub mod update_mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMix,
    Anchored6k,
    TreelikeSweep,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeMix,
        Workload::Anchored6k,
        Workload::TreelikeSweep,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::Anchored6k => "anchored-6k",
            Workload::TreelikeSweep => "treelike-sweep",
            Workload::UpdateMix => "update-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per untraced run; `setup_s` is their median. A shared VM
    /// stalls for 40–110 ms about once a second, so a set-up of a few
    /// hundred milliseconds is hit by one about every third time: the
    /// shorter set-ups are repeated more often, so that the median stays
    /// clear of the stalls.
    fn setups(self) -> usize {
        match self {
            Workload::ServeMix => 15,
            Workload::Anchored6k => 3,
            Workload::TreelikeSweep => 5,
            Workload::UpdateMix => 9,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds, after set-up.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    pub sizes: Sizes,
}

impl RunConfig {
    /// A traced run sets up once: it reports no `setup_s`.
    fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            self.workload.setups()
        }
    }
}

/// The end-to-end result of a run: the metrics, with the machine's speed,
/// the tail latency and the figures as measured added to the summary.
fn end_to_end_result(
    e2e: EndToEnd,
    speed: &Speedometer,
    tally: Tally,
    mut summary: Vec<String>,
) -> Result<RunResult, String> {
    summary.push(speed.summary());
    summary.extend(e2e.tail());
    Ok(RunResult {
        metrics: e2e.metrics(&tally)?,
        tally,
        summary,
    })
}

/// Share of a traced run spent on untraced ops, for `trace.overhead` and
/// the cache hit ratios; the rest is traced.
const UNTRACED_SHARE: f64 = 0.3;

/// Runs one workload; `tracer` receives the traced run's spans.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    match cfg.workload {
        Workload::ServeMix => serve_mix::run(cfg, tracer),
        Workload::Anchored6k => anchored::run(cfg, tracer),
        Workload::TreelikeSweep => treelike::run(cfg, tracer),
        Workload::UpdateMix => update_mix::run(cfg, tracer),
    }
}

/// Probes of the machine's speed right before and right after each
/// set-up.
const SETUP_PROBES: usize = 3;

/// How often a closed loop probes the machine's speed between its ops.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Runs `setup` once and adds its time to `times`, scaled by the median
/// speed `speed` measures just before and just after it.
fn time_setup<S>(
    times: &mut SetupTimes,
    speed: &mut Speedometer,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<S, String> {
    let mut probes = speed.probe(SETUP_PROBES)?;
    let started = Instant::now();
    let state = setup()?;
    let took = started.elapsed().as_secs_f64();
    probes.extend(speed.probe(SETUP_PROBES)?);
    let scale = speed.scale_over(&probes);
    times.raw_s.push(took);
    times.scaled_s.push(took * scale.wall);
    Ok(state)
}

/// Runs `setup` `n` times and keeps the last state; returns it with the
/// seconds each set-up took.
fn repeat_setup<S>(
    n: usize,
    speed: &mut Speedometer,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut state = None;
    for _ in 0..n.max(1) {
        // Drop the previous state first, so set-ups do not stack up memory.
        drop(state.take());
        state = Some(time_setup(&mut times, speed, &mut setup)?);
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// Length of the windows the rate metrics are taken over: a shared VM's
/// speed wanders by tens of percent for a fraction of a second at a time,
/// so each rate is the median over one-second windows, not the mean over
/// the run.
const WINDOW_S: f64 = 1.0;

/// One timed op of a closed loop.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    /// When the op ended, in seconds since the loop started.
    end_s: f64,
    took_s: f64,
    cpu_ns: u64,
    /// The machine's speed around the op.
    scale: Scale,
}

/// What a single-threaded closed loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    ops: Vec<OpRecord>,
}

impl LoopStats {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Milliseconds per op as measured.
    fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.took_s * 1e3).collect()
    }

    /// Milliseconds per op at the nominal speed.
    fn scaled_latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|o| o.took_s * o.scale.wall * 1e3)
            .collect()
    }

    /// Appends another loop's ops, for a workload that runs its loop in
    /// episodes.
    fn extend(&mut self, other: LoopStats) {
        self.ops.extend(other.ops);
    }

    /// The ops grouped into one-second windows by when each op ended.
    fn windows(&self) -> Vec<Group> {
        let mut windows: Vec<Group> = Vec::new();
        for op in &self.ops {
            let w = (op.end_s / WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Group::default());
            }
            windows[w].add(op);
        }
        windows.retain(|w| w.ops > 0);
        windows
    }

    /// The ops grouped into runs of `size` consecutive ops.
    fn chunks(&self, size: usize) -> Vec<Group> {
        self.ops
            .chunks(size.max(1))
            .map(|chunk| {
                let mut group = Group::default();
                chunk.iter().for_each(|op| group.add(op));
                group
            })
            .collect()
    }

    /// The end-to-end figures of this loop, after `setups`, with the
    /// rates taken as medians over one-second windows.
    fn end_to_end(&self, setups: SetupTimes) -> EndToEnd {
        self.end_to_end_over(setups, &self.windows())
    }

    /// The end-to-end figures of this loop, after `setups`, with the
    /// rates taken as medians over `groups` of its ops.
    fn end_to_end_over(&self, setups: SetupTimes, groups: &[Group]) -> EndToEnd {
        // Ops per second of time spent inside the ops (answer checks, which
        // run between ops, excluded).
        let rates = |busy: fn(&Group) -> f64| -> f64 {
            median(
                &groups
                    .iter()
                    .map(|g| g.ops as f64 / busy(g))
                    .collect::<Vec<_>>(),
            )
        };
        let cpu_ms: Vec<f64> = groups
            .iter()
            .map(|g| g.cpu_s * 1e3 / g.ops as f64)
            .collect();
        EndToEnd {
            setups,
            latency: Latency::of(&self.scaled_latencies_ms()),
            throughput: rates(|g| g.busy_s),
            cpu_ms_per_op: median(&cpu_ms),
            raw: Raw {
                latency: Latency::of(&self.latencies_ms()),
                throughput: rates(|g| g.raw_busy_s),
            },
        }
    }
}

/// Ops, busy seconds and process CPU seconds of a group of ops, at the
/// nominal speed (and the busy seconds as measured).
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    ops: usize,
    busy_s: f64,
    raw_busy_s: f64,
    cpu_s: f64,
}

impl Group {
    fn add(&mut self, op: &OpRecord) {
        self.ops += 1;
        self.busy_s += op.took_s * op.scale.wall;
        self.raw_busy_s += op.took_s;
        self.cpu_s += op.cpu_ns as f64 / 1e9 * op.scale.cpu;
    }
}

/// Times the op inside one loop iteration; the rest of the iteration (the
/// answer check) stays outside the measurement.
#[derive(Debug, Default)]
struct Timed {
    took: Option<Duration>,
    cpu_ns: u64,
}

impl Timed {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = process_cpu_ns();
        let started = Instant::now();
        let out = f();
        self.took = Some(started.elapsed());
        self.cpu_ns = process_cpu_ns() - cpu;
        out
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many seconds.
    After(f64),
    /// After this many ops, however long they take.
    Ops(u64),
}

/// A single-threaded closed loop until `stop`. `step` runs op `i`, timing
/// the op itself through its [`Timed`] and checking the answer after it;
/// an error counts op `i` as failed. With `speed`, the machine's speed is
/// probed between ops, every [`PROBE_EVERY`] at most, and each op records
/// it; without, each op records [`Scale::ONE`].
fn closed_loop(
    stop: Stop,
    tally: &mut Tally,
    mut speed: Option<&mut Speedometer>,
    mut step: impl FnMut(u64, &mut Timed, &mut Tally) -> Result<(), String>,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let started = Instant::now();
    let more = |i: u64| match stop {
        Stop::After(seconds) => started.elapsed().as_secs_f64() < seconds,
        Stop::Ops(n) => i < n,
    };
    let mut i = 0u64;
    while more(i) {
        let scale = match speed.as_deref_mut() {
            Some(speed) => {
                speed.tick()?;
                speed.scale()
            }
            None => Scale::ONE,
        };
        let mut timed = Timed::default();
        let outcome = step(i, &mut timed, tally);
        match (outcome, timed.took) {
            (Ok(()), Some(took)) => stats.ops.push(OpRecord {
                end_s: started.elapsed().as_secs_f64(),
                took_s: took.as_secs_f64(),
                cpu_ns: timed.cpu_ns,
                scale,
            }),
            (Ok(()), None) => tally.failed(|| format!("op {i} was not timed")),
            (Err(e), _) => tally.failed(|| format!("op {i}: {e}")),
        }
        i += 1;
    }
    Ok(stats)
}

/// The traced closed loop for `seconds`, numbering ops from `first_op`.
/// `step` runs op `i` under [`Tracer::op`], checks its answer and replays
/// its layer calls; an error counts op `i` as failed.
fn traced_loop(
    seconds: f64,
    first_op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut step: impl FnMut(u64, &mut Tracer, &mut Tally) -> Result<(), String>,
) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = first_op;
    while Instant::now() < end {
        if let Err(e) = step(i, tracer, tally) {
            tally.failed(|| format!("op {i}: {e}"));
        }
        i += 1;
    }
}

/// `hits / (hits + misses)` of a cache over a stretch of ops; 1.0 when the
/// stretch looked nothing up (nothing missed).
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Cache hits and misses summed over stretches of ops.
#[derive(Debug, Clone, Copy, Default)]
struct CacheDeltas {
    lineage_hits: u64,
    lineage_misses: u64,
    decomposition_hits: u64,
    decomposition_misses: u64,
}

impl CacheDeltas {
    /// Adds the stretch between the engine's counters `before` and `after`.
    fn add(&mut self, before: &EngineCacheStats, after: &EngineCacheStats) {
        self.lineage_hits += after.lineages.hits - before.lineages.hits;
        self.lineage_misses += after.lineages.misses - before.lineages.misses;
        self.decomposition_hits += after.decompositions.hits - before.decompositions.hits;
        self.decomposition_misses += after.decompositions.misses - before.decompositions.misses;
    }

    fn set_hit_ratios(&self, layers: &mut LayerValues) {
        layers.set(
            "engine.lineage_hit_ratio",
            hit_ratio(self.lineage_hits, self.lineage_misses),
        );
        layers.set(
            "engine.decomposition_hit_ratio",
            hit_ratio(self.decomposition_hits, self.decomposition_misses),
        );
    }
}

/// Sets the cache hit ratios from the engine's counters before and after
/// the untraced ops.
fn set_hit_ratios(layers: &mut LayerValues, before: &EngineCacheStats, after: &EngineCacheStats) {
    let mut deltas = CacheDeltas::default();
    deltas.add(before, after);
    deltas.set_hit_ratios(layers);
}

/// Closed form of an anchored `h`-hop goal `R(a, x1), …, R(x(h-1), xh)` on
/// an instance whose `R` facts form an out-forest (every constant has at
/// most one incoming fact): the subtrees below distinct children are
/// disjoint sets of independent facts, so
/// `P(a, h) = 1 − Π over facts R(a, c) of (1 − p · P(c, h − 1))`.
pub struct OutForest {
    children: Vec<Vec<(usize, f64)>>,
}

impl OutForest {
    pub fn new(tid: &TidInstance) -> Result<OutForest, String> {
        let instance = tid.instance();
        let mut children = vec![Vec::new(); instance.constant_count()];
        let mut has_parent = vec![false; instance.constant_count()];
        for (id, fact) in instance.facts() {
            let [from, to] = fact.args[..] else {
                return Err(format!("fact {id:?} is not binary"));
            };
            if std::mem::replace(&mut has_parent[to.0], true) {
                return Err(format!(
                    "constant {} has two incoming facts",
                    instance.constant_name(to)
                ));
            }
            children[from.0].push((to.0, tid.probability(id)));
        }
        Ok(OutForest { children })
    }

    fn hops_from(&self, node: usize, hops: usize) -> f64 {
        if hops == 0 {
            return 1.0;
        }
        let none: f64 = self.children[node]
            .iter()
            .map(|&(child, p)| 1.0 - p * self.hops_from(child, hops - 1))
            .product();
        1.0 - none
    }

    /// `P(anchor, hops)`; 0 when the anchor is not a constant of the
    /// instance.
    pub fn hops(&self, tid: &TidInstance, anchor: &str, hops: usize) -> f64 {
        match tid.instance().find_constant(anchor) {
            Some(ConstId(c)) => self.hops_from(c, hops),
            None => 0.0,
        }
    }
}

/// Answers agree with a closed form up to float association.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12
}

/// The anchor constant of a goal `R("a", x), …`.
fn anchor_of(goal: &str) -> Result<&str, String> {
    goal.split('"')
        .nth(1)
        .ok_or_else(|| format!("goal {goal} has no anchor"))
}

/// `trace.overhead`: throughput of the traced ops over that of the
/// untraced ops of the same run (`untraced_ms`, per op), each taken as one
/// over its median op time.
fn set_overhead(layers: &mut LayerValues, untraced_ms: &[f64], samples: &[OpSample]) {
    let traced_us = median(&samples.iter().map(|s| s.op_us).collect::<Vec<_>>());
    let untraced_us = median(untraced_ms) * 1e3;
    if traced_us > 0.0 {
        layers.set("trace.overhead", untraced_us / traced_us);
    }
}

/// The traced run's summary: calls per op into each layer, and the shares
/// of the op the workloads' reasons for being there are about.
fn trace_summary(samples: &[OpSample]) -> Vec<String> {
    let calls = LayerValues::calls_per_op(samples)
        .into_iter()
        .map(|(layer, calls)| format!("{layer}={calls}"))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        format!("sampled ops {}; calls per op: {calls}", samples.len()),
        format!(
            "share of op: identity in the engine (route + cache-lookup stages) {:.4}, \
             identity replayed (fingerprint + relation_stats) {:.4}, sweep {:.4}, transport {:.4}",
            count_share_of_op(samples, "engine.identity_us"),
            share_of_op(samples, &["engine.fingerprint", "engine.relation_stats"]),
            share_of_op(samples, &["circuit.sweep"]),
            share_of_op(samples, &["serve.transport"]),
        ),
    ]
}
