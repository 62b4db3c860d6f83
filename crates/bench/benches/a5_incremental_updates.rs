//! A5 (ablation) — incremental updates vs cold re-evaluation.
//!
//! The incremental subsystem claims that a live engine absorbing updates
//! should *patch* its decomposition and compiled-lineage caches and pay
//! only the counting sweep per query, instead of re-running the cold
//! pipeline (decompose → lineage → compile) for the whole workload after
//! every change. This bench measures that claim on the a4 workload (80-fact
//! path TID, 64 anchored self-join queries):
//!
//! * **warm** — `Engine::apply_update` (which patches + rekeys the caches)
//!   followed by re-evaluating all 64 queries against the warm engine;
//! * **cold** — a fresh engine evaluating the same 64 queries on the
//!   mutated instance from scratch.
//!
//! Update sizes sweep 1, 8 and 64 touched facts (probability overwrites —
//! the live-traffic shape), plus a single-fact insertion (the structural
//! patch path). The `[A5]` report lines record the speedups; the
//! acceptance bar is ≥5x for single-fact updates on the 64-query workload.
//!
//! A last case times the steady state after churn: 64 insert/delete cycles
//! of a branch under 16 standing queries in turn, then one warm
//! re-weighting update plus 4 standing-query reads, against a fresh engine
//! answering the same reads. Patched lineages that kept growing with the
//! churn would show here as sweeps far costlier than a fresh compile's.

use criterion::black_box;
use stuc_bench::{criterion_config, report_value, timed, BenchSummary};
use stuc_core::engine::{Delta, Engine};
use stuc_core::workloads;
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;
use stuc_query::cq::ConjunctiveQuery;

fn batch_queries(count: usize) -> Vec<ConjunctiveQuery> {
    (0..count)
        .map(|k| {
            ConjunctiveQuery::parse(&format!("R(\"c{k}\", x), R(x, y), R(y, z)"))
                .expect("valid anchored chain query")
        })
        .collect()
}

/// Evaluates the whole workload sequentially, returning the probability sum.
fn evaluate_all(engine: &Engine, tid: &TidInstance, queries: &[ConjunctiveQuery]) -> f64 {
    queries
        .iter()
        .map(|q| engine.evaluate(tid, q).unwrap().probability)
        .sum()
}

/// A delta overwriting the probabilities of facts `0..size`, alternating
/// between two value sets so repeated applications keep changing the
/// fingerprint (each timed round is a real update).
fn reweight_delta(size: usize, round: usize) -> Delta {
    let mut delta = Delta::new();
    for i in 0..size {
        let p = if round.is_multiple_of(2) { 0.31 } else { 0.67 };
        delta = delta.set_probability(FactId(i), p + 0.001 * (i % 7) as f64);
    }
    delta
}

fn main() {
    let mut criterion = criterion_config();
    let mut summary = BenchSummary::new("a5");
    let base = workloads::path_tid(80, 0.5, 13);
    let queries = batch_queries(64);

    // Sanity: after an update, the warm engine agrees with a cold engine on
    // every query of the workload.
    {
        let engine = Engine::new();
        let mut live = base.clone();
        evaluate_all(&engine, &live, &queries);
        let report = engine
            .apply_update(&mut live, &reweight_delta(8, 0))
            .unwrap();
        assert!(!report.fell_back);
        let cold = Engine::new();
        for query in &queries {
            let warm = engine.evaluate(&live, query).unwrap().probability;
            let fresh = cold.evaluate(&live, query).unwrap().probability;
            assert!((warm - fresh).abs() < 1e-9, "{query:?}");
        }
        report_value("A5", "lineages_patched_per_update", report.lineages_patched);
    }

    // --- weight updates across sizes: warm patch+sweep vs cold pipeline.
    for &size in &[1usize, 8, 64] {
        let mut group = criterion.benchmark_group(format!("a5_update_{size}_facts"));
        // Warm: one live engine absorbs updates; every evaluation after the
        // patch is a cache hit paying only the counting sweep.
        let engine = Engine::new();
        let mut live = base.clone();
        evaluate_all(&engine, &live, &queries);
        let mut round = 0usize;
        group.bench_function("apply_update_then_resweep", |b| {
            b.iter(|| {
                round += 1;
                engine
                    .apply_update(&mut live, &reweight_delta(size, round))
                    .unwrap();
                evaluate_all(&engine, &live, &queries)
            })
        });
        // Cold: rebuild the world per update.
        let mut cold_round = 0usize;
        let mut cold_live = base.clone();
        group.bench_function("cold_pipeline", |b| {
            b.iter(|| {
                cold_round += 1;
                let mut shadow = cold_live.clone();
                use stuc_core::engine::Updatable;
                shadow
                    .apply_delta(&reweight_delta(size, cold_round))
                    .unwrap();
                cold_live = shadow;
                let fresh = Engine::builder()
                    .without_decomposition_cache()
                    .without_lineage_cache()
                    .build();
                evaluate_all(&fresh, &cold_live, &queries)
            })
        });
        group.finish();

        // Report the speedup from a separate timed comparison.
        let engine = Engine::new();
        let mut live = base.clone();
        evaluate_all(&engine, &live, &queries);
        let mut r = 0usize;
        let warm_time = timed(3, || {
            r += 1;
            engine
                .apply_update(&mut live, &reweight_delta(size, r))
                .unwrap();
            evaluate_all(&engine, &live, &queries)
        });
        let cold_time = timed(3, || {
            let fresh = Engine::builder()
                .without_decomposition_cache()
                .without_lineage_cache()
                .build();
            evaluate_all(&fresh, &live, &queries)
        });
        let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
        report_value(
            "A5",
            &format!("speedup_reweight_{size}_facts_64_queries"),
            format!("{speedup:.2}x ({cold_time:?} cold -> {warm_time:?} warm)"),
        );
        summary.record_speedup(
            &format!("reweight_{size}_facts_64_queries"),
            warm_time,
            cold_time,
        );
        if size == 1 {
            assert!(
                speedup >= 5.0,
                "single-fact updates must be ≥5x faster than cold evaluation, got {speedup:.2}x"
            );
        }
    }

    // --- single-fact insertion: the structural patch path.
    {
        let engine = Engine::new();
        let mut live = base.clone();
        evaluate_all(&engine, &live, &queries);
        let mut next = 80usize;
        let warm_time = timed(3, || {
            let delta =
                Delta::new().insert("R", &[&format!("c{next}"), &format!("c{}", next + 1)], 0.5);
            next += 1;
            let report = engine.apply_update(&mut live, &delta).unwrap();
            black_box(report.gates_rebuilt);
            evaluate_all(&engine, &live, &queries)
        });
        let cold_time = timed(3, || {
            let fresh = Engine::builder()
                .without_decomposition_cache()
                .without_lineage_cache()
                .build();
            evaluate_all(&fresh, &live, &queries)
        });
        let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
        report_value(
            "A5",
            "speedup_insert_1_fact_64_queries",
            format!("{speedup:.2}x ({cold_time:?} cold -> {warm_time:?} warm)"),
        );
        summary.record_speedup("insert_1_fact_64_queries", warm_time, cold_time);
    }

    // --- steady state after churn: does patching keep sweeps cheap?
    {
        let standing = &queries[..16];
        let engine = Engine::new();
        let mut live = base.clone();
        evaluate_all(&engine, &live, standing);
        for cycle in 0..64 {
            // A branch under the third hop of standing query `k` opens a new
            // match for it; the next update deletes it again (it is the last
            // fact, so no other fact id shifts).
            let k = cycle % standing.len();
            let branch = Delta::new().insert("R", &[&format!("c{}", k + 2), &format!("n{k}")], 0.5);
            engine.apply_update(&mut live, &branch).unwrap();
            let last = FactId(live.fact_count() - 1);
            engine
                .apply_update(&mut live, &Delta::new().delete(last))
                .unwrap();
        }
        let reads = &standing[..4];
        let cold = Engine::new();
        for query in reads {
            let warm = engine.evaluate(&live, query).unwrap().probability;
            let fresh = cold.evaluate(&live, query).unwrap().probability;
            assert!((warm - fresh).abs() < 1e-9, "{query:?} after churn");
        }
        let mut r = 0usize;
        let warm_time = timed(3, || {
            r += 1;
            engine
                .apply_update(&mut live, &reweight_delta(1, r))
                .unwrap();
            evaluate_all(&engine, &live, reads)
        });
        let cold_time = timed(3, || {
            let fresh = Engine::builder()
                .without_decomposition_cache()
                .without_lineage_cache()
                .build();
            evaluate_all(&fresh, &live, reads)
        });
        let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
        report_value(
            "A5",
            "speedup_update_4_reads_after_64_churn_cycles_16_queries",
            format!("{speedup:.2}x ({cold_time:?} cold -> {warm_time:?} warm)"),
        );
        summary.record_speedup(
            "update_4_reads_after_64_churn_cycles_16_queries",
            warm_time,
            cold_time,
        );
    }

    summary.write();
    criterion.final_summary();
}
