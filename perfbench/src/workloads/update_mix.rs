//! `update-mix`: writes beside reads, single-threaded, on a 2,000-fact path
//! with 16 standing anchored 3-hop queries compiled in set-up. One op is
//! one `Engine::apply_update` followed by `Engine::evaluate` of four
//! standing queries (the next four, in turn). The update stream is mostly
//! re-weights, with a branch insert or its deletion every eighth op
//! (see [`crate::inputs::UpdateStream`]).
//!
//! The engine's op cost grows with the inserts and deletes it has applied
//! (see README.md, Known limits), so a run that did as many ops as fit in
//! its seconds would measure a different stretch of that growth on a
//! faster or a slower engine. The run is made of episodes instead: each is
//! the same fixed count of ops (`Sizes::update_episode_ops`) on a fresh
//! set-up, and episodes repeat until the run's seconds are up, so every
//! commit measures the same ops, however many episodes it fits.

use std::time::Instant;

use stuc::core::engine::{Representation, UpdateReport};
use stuc::data::tid::TidInstance;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Engine, EvaluationReport};

use super::{
    close, closed_loop, end_to_end_result, repeat_setup, time_setup, CacheDeltas, Group, LoopStats,
    OutForest, RunConfig, Stop, PROBE_EVERY,
};
use crate::inputs::{self, UpdateInputs, UpdateStream};
use crate::layers::{identity_us, replay_cold};
use crate::report::{median, LayerValues, RunResult, Tally};
use crate::speed::{Kernel, Speedometer};
use crate::trace::{OpScope, Tracer};

/// Standing queries evaluated per op.
const READS_PER_OP: usize = 4;

/// Full-instance identity passes one `apply_update` makes: the structural
/// fingerprint and the lineage-cache hash pair, before and after the
/// mutation.
const IDENTITY_PASSES_PER_UPDATE: usize = 4;

/// Consecutive ops the rate metrics are taken over. The groups sit at the
/// same places in every episode, so they cover the same ops on every
/// commit; the episode length is a multiple of it.
const GROUP_OPS: usize = 32;

/// Ops of the traced episode that are traced and have their layer calls
/// replayed, spread evenly over it; the ops between them run untraced.
const TRACED_OPS: u64 = 32;

struct State {
    engine: Engine,
    instance: TidInstance,
    anchors: Vec<usize>,
    queries: Vec<ConjunctiveQuery>,
    stream: UpdateStream,
}

/// Generates the path and its update stream and compiles every standing
/// query cold.
fn setup(cfg: &RunConfig) -> Result<(State, Vec<f64>), String> {
    let UpdateInputs { instance, anchors } = inputs::update(cfg.seed, &cfg.sizes);
    let stream = UpdateStream::new(cfg.seed, instance.fact_count(), &anchors);
    let engine = Engine::new();
    let queries: Vec<ConjunctiveQuery> = anchors
        .iter()
        .map(|&a| ConjunctiveQuery::parse(&UpdateInputs::query_text(a)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut cold = Vec::new();
    for q in &queries {
        let report = engine
            .evaluate(&instance, q)
            .map_err(|e| format!("cold {q:?}: {e}"))?;
        cold.push(report.probability);
    }
    let state = State {
        engine,
        instance,
        anchors,
        queries,
        stream,
    };
    Ok((state, cold))
}

/// Checks a set-up's cold answers against the closed form.
fn check_cold(state: &State, cold: &[f64], tally: &mut Tally) -> Result<(), String> {
    let forest = OutForest::new(&state.instance)?;
    for (q, &p) in cold.iter().enumerate() {
        let want = forest.hops(&state.instance, &format!("c{}", state.anchors[q]), 3);
        tally.check(close(p, want), || {
            format!("cold query {q}: {p} != closed form {want}")
        });
    }
    Ok(())
}

/// The standing queries op `i` reads.
fn reads(i: u64, count: usize) -> impl Iterator<Item = usize> {
    (0..READS_PER_OP).map(move |k| (i as usize * READS_PER_OP + k) % count)
}

/// Checks the op's answers against the closed form on the current
/// instance; the op is right only if every answer is.
fn check_answers(state: &State, i: u64, got: &[EvaluationReport], tally: &mut Tally) {
    let forest = match OutForest::new(&state.instance) {
        Ok(forest) => forest,
        Err(e) => return tally.wrong(|| format!("op {i}: {e}")),
    };
    let wrong: Vec<String> = reads(i, state.queries.len())
        .zip(got)
        .filter_map(|(q, report)| {
            let p = report.probability;
            let want = forest.hops(&state.instance, &format!("c{}", state.anchors[q]), 3);
            (!close(p, want)).then(|| format!("query {q}: {p} != closed form {want}"))
        })
        .collect();
    tally.check(wrong.is_empty(), || format!("op {i}: {}", wrong.join("; ")));
}

/// One op: the next update, then the reads. `scope`, when given, times the
/// two halves inside the op.
fn op(
    state: &mut State,
    i: u64,
    mut scope: Option<&mut OpScope>,
) -> Result<(UpdateReport, Vec<EvaluationReport>), String> {
    let State {
        engine,
        instance,
        queries,
        stream,
        ..
    } = state;
    let delta = stream.next_delta();
    let mut update = || {
        engine
            .apply_update(instance, &delta)
            .map_err(|e| e.to_string())
    };
    let report = match scope.as_deref_mut() {
        Some(s) => s.time("incr.apply_update", update)?,
        None => update()?,
    };
    let instance = &*instance;
    let read = || {
        reads(i, queries.len())
            .map(|q| {
                engine
                    .evaluate(instance, &queries[q])
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<EvaluationReport>, String>>()
    };
    let answers = match scope {
        Some(s) => s.time("incr.evaluate_after_update", read)?,
        None => read()?,
    };
    Ok((report, answers))
}

/// Replays the op's layer calls: the update's identity passes, then per
/// read the engine call, its identity pass and weights, and the cold
/// rebuild of its lineage.
fn replay(state: &State, i: u64, scope: &mut OpScope) -> Result<(), String> {
    let State {
        engine,
        instance,
        queries,
        ..
    } = state;
    for _ in 0..IDENTITY_PASSES_PER_UPDATE {
        scope.time("engine.fingerprint", || {
            std::hint::black_box(instance.fingerprint())
        });
    }
    for q in reads(i, queries.len()) {
        scope
            .time("engine.evaluate_goal", || {
                engine.evaluate(instance, &queries[q])
            })
            .map_err(|e| e.to_string())?;
        scope.time("engine.fingerprint", || {
            std::hint::black_box(instance.fingerprint())
        });
        let weights = scope
            .time("engine.weights", || instance.weights())
            .map_err(|e| e.to_string())?;
        replay_cold(scope, engine, instance, &queries[q], &weights)?;
    }
    Ok(())
}

/// One untraced episode: `ops` ops on `state`, each timed and then checked.
fn episode(
    state: &mut State,
    ops: u64,
    speed: &mut Speedometer,
    tally: &mut Tally,
) -> Result<LoopStats, String> {
    closed_loop(Stop::Ops(ops), tally, Some(speed), |i, timed, tally| {
        let (_, answers) = timed.time(|| op(state, i, None))?;
        check_answers(state, i, &answers, tally);
        Ok(())
    })
}

/// Milliseconds per op of the first and the last group of an episode.
fn growth(stats: &LoopStats) -> Option<(f64, f64)> {
    let groups = stats.chunks(GROUP_OPS);
    let ms = |g: &Group| g.busy_s / g.ops as f64 * 1e3;
    Some((ms(groups.first()?), ms(groups.last()?)))
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut speed = Speedometer::new(Kernel::Compute, PROBE_EVERY)?;
    let ((mut state, cold), mut setups) = repeat_setup(cfg.setups(), &mut speed, || setup(cfg))?;
    check_cold(&state, &cold, &mut tally)?;
    let ops = cfg.sizes.update_episode_ops;

    if !cfg.trace {
        let started = Instant::now();
        let mut stats = LoopStats::default();
        let mut first_ms = Vec::new();
        let mut last_ms = Vec::new();
        loop {
            let run = episode(&mut state, ops, &mut speed, &mut tally)?;
            if let Some((first, last)) = growth(&run) {
                first_ms.push(first);
                last_ms.push(last);
            }
            stats.extend(run);
            if started.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
            // The next episode's fresh set-up counts towards `setup_s` too.
            // The old engine goes first, so that set-ups do not stack up.
            drop(state);
            let (next, cold) = time_setup(&mut setups, &mut speed, || setup(cfg))?;
            check_cold(&next, &cold, &mut tally)?;
            state = next;
        }
        let e2e = stats.end_to_end_over(setups, &stats.chunks(GROUP_OPS));
        let summary = vec![
            format!(
                "ops {} in {} episodes of {ops} (one update and {READS_PER_OP} reads each)",
                stats.ops(),
                first_ms.len()
            ),
            // Insert/delete churn grows the engine's patched lineages (see
            // README.md, Known limits): show by how much over an episode.
            format!(
                "ms per op over the first and the last {GROUP_OPS} ops of an episode \
                 (median over episodes): {:.3} -> {:.3}",
                median(&first_ms),
                median(&last_ms)
            ),
        ];
        return end_to_end_result(e2e, &speed, tally, summary);
    }

    // One episode, with every `every`-th op traced and replayed. The stride
    // is odd, so the traced ops cycle through the reads and the inserts and
    // deletes (both repeat with even periods). The ops in between run
    // untraced: they give `trace.overhead` and the cache hit ratios (the
    // replays look up the caches too, so those are left out).
    let mut layers = LayerValues::default();
    let mut untraced_ms = Vec::new();
    let mut caches = CacheDeltas::default();
    let mut fell_back = Vec::new();
    let every = (ops / TRACED_OPS).max(1) | 1;
    for i in 0..ops {
        let outcome = if i % every != 0 {
            let before = state.engine.cache_stats();
            let started = Instant::now();
            let out = op(&mut state, i, None);
            untraced_ms.push(started.elapsed().as_secs_f64() * 1e3);
            caches.add(&before, &state.engine.cache_stats());
            out.map(|(_, answers)| check_answers(&state, i, &answers, &mut tally))
        } else {
            let (out, mut scope) = tracer.op(i, |scope| op(&mut state, i, Some(scope)));
            out.and_then(|(report, answers)| {
                check_answers(&state, i, &answers, &mut tally);
                for answer in &answers {
                    scope.count("engine.identity_us", identity_us(answer));
                }
                scope.count("incr.lineages_patched", report.lineages_patched as f64);
                fell_back.push(if report.fell_back { 1.0 } else { 0.0 });
                replay(&state, i, &mut scope)?;
                tracer.finish(scope);
                Ok(())
            })
        };
        if let Err(e) = outcome {
            tally.failed(|| format!("op {i}: {e}"));
        }
    }
    caches.set_hit_ratios(&mut layers);
    layers.from_samples(tracer.samples());
    super::set_overhead(&mut layers, &untraced_ms, tracer.samples());
    let fell_back_share = fell_back.iter().sum::<f64>() / fell_back.len().max(1) as f64;
    layers.set("incr.fell_back", fell_back_share);
    let mut summary = super::trace_summary(tracer.samples());
    summary.push(format!(
        "updates traced {}; fell back {fell_back_share:.4}; median lineages patched {}",
        fell_back.len(),
        layers.0["incr.lineages_patched"]
    ));
    Ok(RunResult {
        metrics: layers.metrics(),
        tally,
        summary,
    })
}
