//! Metric names, statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::trace::OpSample;

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports in its traced run. A
/// layer the workload's op never enters reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("serve.connect_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.rejected_503", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("lang.parse_us", "us"),
    ("lang.lower_us", "us"),
    ("lang.route_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("engine.relation_stats_us", "us"),
    ("engine.identity_us", "us"),
    ("engine.weights_us", "us"),
    ("engine.evaluate_goal_us", "us"),
    ("engine.lineage_hit_ratio", "ratio"),
    ("engine.decomposition_hit_ratio", "ratio"),
    ("graph.decomposition_for_us", "us"),
    ("graph.decompose_us", "us"),
    ("graph.width", "count"),
    ("lineage.build_us", "us"),
    ("lineage.simplify_us", "us"),
    ("lineage.gates", "count"),
    ("circuit.compile_us", "us"),
    ("circuit.plan_build_us", "us"),
    ("circuit.sweep_us", "us"),
    ("circuit.table_entries", "count"),
    ("incr.apply_update_us", "us"),
    ("incr.evaluate_after_update_us", "us"),
    ("incr.lineages_patched", "count"),
    ("incr.fell_back", "ratio"),
    ("trace.op_us", "us"),
    ("trace.sampled_ops", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Layers whose calls a warm op makes directly, one after the other: their
/// per-op sum over the op's wall time is `trace.coverage`.
pub const WARM_LEAVES: [&str; 8] = [
    "serve.transport",
    "lang.parse",
    "lang.lower",
    "lang.route",
    "engine.relation_stats",
    "engine.fingerprint",
    "engine.weights",
    "circuit.sweep",
];

/// Per-op counts reported as the median over sampled ops.
const MEDIAN_COUNTS: [&str; 5] = [
    "engine.identity_us",
    "graph.width",
    "lineage.gates",
    "circuit.table_entries",
    "incr.lineages_patched",
];

/// Nearest-rank quantile of unsorted `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ops attempted, failed (errored, refused or wrong) and wrong.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first few failures, for the summary.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn failed(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    pub fn wrong(&mut self, why: impl FnOnce() -> String) {
        self.wrong += 1;
        self.failed(why);
    }

    /// Records `ok` as a correct answer, or else a wrong one.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.wrong(why);
        }
    }

    fn note(&mut self, why: impl FnOnce() -> String) {
        if self.notes.len() < 5 {
            self.notes.push(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            self.note(|| n);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Seconds per set-up (instance build plus the cold evaluation of every
/// goal), as measured and at the nominal speed (see [`crate::speed`]).
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub raw_s: Vec<f64>,
    pub scaled_s: Vec<f64>,
}

/// Latency quantiles in milliseconds, over `ops` ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub ops: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Latency {
    pub fn of(latencies_ms: &[f64]) -> Latency {
        Latency {
            ops: latencies_ms.len(),
            p50: quantile(latencies_ms, 0.50),
            p90: quantile(latencies_ms, 0.90),
            p99: quantile(latencies_ms, 0.99),
        }
    }

    /// Each quantile as the median of that quantile over `parts` (slices
    /// of a run), the op counts summed.
    pub fn median_of(parts: &[Latency]) -> Latency {
        let of = |q: fn(&Latency) -> f64| median(&parts.iter().map(q).collect::<Vec<_>>());
        Latency {
            ops: parts.iter().map(|l| l.ops).sum(),
            p50: of(|l| l.p50),
            p90: of(|l| l.p90),
            p99: of(|l| l.p99),
        }
    }
}

/// The latency and throughput as measured, before scaling to the nominal
/// speed; printed in the summary, not metrics.
#[derive(Debug, Clone, Default)]
pub struct Raw {
    pub latency: Latency,
    pub throughput: f64,
}

/// What a workload measured with tracing off. The times are at the
/// nominal speed of [`crate::speed`]; `raw` keeps them as measured.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// The metric is the median of the scaled set-up times.
    pub setups: SetupTimes,
    pub latency: Latency,
    /// Ops completed per second.
    pub throughput: f64,
    /// Process on-CPU milliseconds per op.
    pub cpu_ms_per_op: f64,
    pub raw: Raw,
}

impl EndToEnd {
    /// The sample count, the seconds of each set-up, and the 99th
    /// percentile, printed but not a metric:
    /// on a shared 2-vCPU VM, host stalls of 40–110 ms about once a second
    /// land in the 1% tail, and the p99 of the same workload
    /// spread 0.19 to 0.44 of its median across seeds (6.9 on `serve-mix`
    /// in a spell of 30% steal), wider than any bound a regression check
    /// could use. The 90th percentile stays clear of them. Then the
    /// figures as measured.
    pub fn tail(&self) -> Vec<String> {
        let list = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        vec![
            format!(
                "latency over {} ops: p99 {:.4} ms (not a metric); set-ups (s): {}",
                self.latency.ops,
                self.latency.p99,
                list(&self.setups.scaled_s)
            ),
            format!(
                "as measured: latency p50 {:.4} p90 {:.4} ms, throughput {:.4} 1/s, \
                 set-ups (s): {}",
                self.raw.latency.p50,
                self.raw.latency.p90,
                self.raw.throughput,
                list(&self.setups.raw_s)
            ),
        ]
    }

    pub fn metrics(&self, tally: &Tally) -> Result<Vec<Metric>, String> {
        let success = if tally.attempted == 0 {
            0.0
        } else {
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64
        };
        let values = [
            median(&self.setups.scaled_s),
            self.latency.p50,
            self.latency.p90,
            self.throughput,
            self.cpu_ms_per_op,
            success,
            crate::sys::peak_rss_mb()?,
        ];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect())
    }
}

/// The per-layer values a traced run measured; every name in
/// [`PER_LAYER`] starts at 0.
#[derive(Debug, Clone)]
pub struct LayerValues(pub BTreeMap<&'static str, f64>);

impl Default for LayerValues {
    fn default() -> Self {
        LayerValues(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "undeclared layer metric {name}");
        self.0.insert(name, value);
    }

    /// Fills the span-derived metrics from the traced ops' samples: each
    /// `<layer>_us` is the median over sampled ops of the time the op's
    /// calls into `<layer>` took (summed over the calls one op makes).
    /// `trace.coverage` is the median share of the op's wall time that its
    /// direct leaf-layer calls (see [`WARM_LEAVES`]) account for.
    pub fn from_samples(&mut self, samples: &[OpSample]) {
        if samples.is_empty() {
            return;
        }
        let per_op = |layer: &str| -> Vec<f64> {
            samples
                .iter()
                .map(|s| s.layer_us.get(layer).copied().unwrap_or(0.0))
                .collect()
        };
        let names: Vec<&'static str> = self.0.keys().copied().collect();
        for name in names {
            if let Some(layer) = name.strip_suffix("_us") {
                if samples.iter().any(|s| s.layer_us.contains_key(layer)) {
                    self.0.insert(name, median(&per_op(layer)));
                }
            }
        }
        for name in MEDIAN_COUNTS {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.counts.get(name).copied())
                .collect();
            if !values.is_empty() {
                self.set(name, median(&values));
            }
        }
        self.set(
            "trace.op_us",
            median(&samples.iter().map(|s| s.op_us).collect::<Vec<_>>()),
        );
        self.set("trace.sampled_ops", samples.len() as f64);
        self.set("trace.coverage", share_of_op(samples, &WARM_LEAVES));
    }

    /// Median calls per sampled op into each layer, for the summary.
    pub fn calls_per_op(samples: &[OpSample]) -> BTreeMap<&'static str, f64> {
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in samples {
            for (&layer, &calls) in &s.calls {
                layers.entry(layer).or_default().push(calls as f64);
            }
        }
        layers.into_iter().map(|(l, v)| (l, median(&v))).collect()
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}

/// Median over sampled ops of the share of the op's wall time spent in
/// calls into `layers`.
pub fn share_of_op(samples: &[OpSample], layers: &[&str]) -> f64 {
    let shares: Vec<f64> = samples
        .iter()
        .map(|s| {
            let covered: f64 = layers
                .iter()
                .map(|l| s.layer_us.get(l).copied().unwrap_or(0.0))
                .sum();
            covered / s.op_us
        })
        .collect();
    median(&shares)
}

/// Median over sampled ops of the op's count `name` over the op's wall
/// time, for a count kept in the op's unit (microseconds).
pub fn count_share_of_op(samples: &[OpSample], name: &str) -> f64 {
    let shares: Vec<f64> = samples
        .iter()
        .map(|s| s.counts.get(name).copied().unwrap_or(0.0) / s.op_us)
        .collect();
    median(&shares)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run: the result line's fields and the human summary
/// printed above it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub summary: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                metrics.push(',');
            }
            write!(
                metrics,
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.tally.wrong == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics
        ))
    }
}
