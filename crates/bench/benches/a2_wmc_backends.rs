//! A2 (ablation) — circuit probability back-ends: message passing over a
//! tree decomposition of the circuit vs DPLL/Shannon expansion vs naive
//! enumeration, on lineage circuits from the Theorem 1 workloads.

use criterion::BenchmarkId;
use std::sync::Arc;
use stuc_bench::{criterion_config, report_value, timed, BenchSummary};
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::dpll::DpllCounter;
use stuc_circuit::enumeration::probability_by_enumeration;
use stuc_circuit::wmc::TreewidthWmc;
use stuc_core::engine::Engine;
use stuc_core::workloads;
use stuc_graph::elimination::EliminationHeuristic;
use stuc_query::cq::ConjunctiveQuery;

fn main() {
    let mut criterion = criterion_config();
    let mut summary = BenchSummary::new("a2");
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();

    // Agreement of the three back-ends on a small lineage.
    let small_tid = workloads::path_tid(12, 0.5, 13);
    let small = engine.lineage(&small_tid, &query).unwrap();
    let weights = small_tid.fact_weights();
    let mp = TreewidthWmc::default()
        .probability(&small, &weights)
        .unwrap();
    let dp = DpllCounter::default()
        .probability(&small, &weights)
        .unwrap();
    let en = probability_by_enumeration(&small, &weights).unwrap();
    assert!((mp - dp).abs() < 1e-9 && (mp - en).abs() < 1e-9);
    report_value("A2", "agreement_probability", format!("{mp:.6}"));

    let mut group = criterion.benchmark_group("a2_wmc_backends_small");
    group.bench_function("message_passing", |b| {
        b.iter(|| {
            TreewidthWmc::default()
                .probability(&small, &weights)
                .unwrap()
        })
    });
    group.bench_function("dpll", |b| {
        b.iter(|| {
            DpllCounter::default()
                .probability(&small, &weights)
                .unwrap()
        })
    });
    group.bench_function("enumeration", |b| {
        b.iter(|| probability_by_enumeration(&small, &weights).unwrap())
    });
    group.finish();

    // Scaling: message passing and DPLL on growing path lineages
    // (enumeration is impossible beyond ~30 variables). DPLL gets a bounded
    // branch budget: at the default 10M budget a single n=50 call takes
    // ~90s, which made this bench unrunnable end to end — with the budget
    // it either answers fast or reports the give-up, and the message-passing
    // scaling (the claim under test) is measured either way.
    let mut group = criterion.benchmark_group("a2_wmc_backends_scaling");
    let budgeted_dpll = DpllCounter {
        max_branches: 50_000,
    };
    for &n in &[50usize, 150, 450] {
        let tid = workloads::path_tid(n, 0.5, 13);
        let lineage = engine.lineage(&tid, &query).unwrap();
        let w = tid.fact_weights();
        report_value(
            "A2",
            &format!("n{n}_circuit_width_estimate"),
            TreewidthWmc::default().estimated_width(&lineage),
        );
        report_value(
            "A2",
            &format!("n{n}_dpll_within_50k_branches"),
            if budgeted_dpll.probability(&lineage, &w).is_ok() {
                "yes"
            } else {
                "no (budget exhausted)"
            },
        );
        group.bench_with_input(BenchmarkId::new("message_passing", n), &n, |b, _| {
            b.iter(|| TreewidthWmc::default().probability(&lineage, &w).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dpll_50k_budget", n), &n, |b, _| {
            b.iter(|| budgeted_dpll.probability(&lineage, &w).ok())
        });
    }
    group.finish();

    // --- Planned dense sweep vs interpreted HashMap sweep, on the same
    // compiled circuit (structure shared, only the sweep differs). This is
    // the steady-state shape: weight-only re-evaluation, batch resweeps and
    // incremental-update revalidation all run exactly this sweep.
    let mut group = criterion.benchmark_group("a2_sweep_plan_vs_interpreted");
    let mut largest_speedup = 0.0f64;
    for &n in &[50usize, 150, 450] {
        let tid = workloads::path_tid(n, 0.5, 13);
        let lineage = engine.lineage(&tid, &query).unwrap();
        let w = tid.fact_weights();
        let compiled =
            CompiledCircuit::compile(Arc::new(lineage), EliminationHeuristic::MinDegree).unwrap();
        // Warm both paths (plan + arena built, decomposition cached) and
        // check agreement before timing.
        let planned = compiled.run(&w, 22).unwrap();
        let interpreted = compiled.run_interpreted(&w, 22).unwrap();
        assert!((planned.probability - interpreted.probability).abs() < 1e-9);
        let steady = compiled.run(&w, 22).unwrap();
        assert_eq!(
            steady.table_allocations, 0,
            "steady-state planned sweeps must not allocate tables"
        );
        group.bench_with_input(BenchmarkId::new("planned_dense", n), &n, |b, _| {
            b.iter(|| compiled.run(&w, 22).unwrap().probability)
        });
        group.bench_with_input(BenchmarkId::new("interpreted_hashmap", n), &n, |b, _| {
            b.iter(|| compiled.run_interpreted(&w, 22).unwrap().probability)
        });
        let planned_time = timed(5, || compiled.run(&w, 22).unwrap().probability);
        let interpreted_time = timed(5, || compiled.run_interpreted(&w, 22).unwrap().probability);
        let speedup = interpreted_time.as_secs_f64() / planned_time.as_secs_f64();
        largest_speedup = largest_speedup.max(speedup);
        report_value(
            "A2",
            &format!("n{n}_plan_speedup_over_interpreted"),
            format!("{speedup:.2}x ({interpreted_time:?} -> {planned_time:?})"),
        );
        summary.record(&format!("interpreted_sweep_n{n}"), interpreted_time);
        summary.record_speedup(
            &format!("planned_sweep_n{n}"),
            planned_time,
            interpreted_time,
        );
    }
    group.finish();
    assert!(
        largest_speedup >= 2.0,
        "planned dense sweep must be ≥2x faster than the interpreted sweep \
         on the a2 workload, best was {largest_speedup:.2}x"
    );

    // --- Warm planned sweep on the unanchored 2-hop lineage of the 288-fact
    // partial 2-tree (the treelike-sweep benchmark's main goal): a circuit
    // whose decomposition is picked by table volume, min-fill's width 14
    // over min-degree's 20.
    let tree = workloads::partial_k_tree_tid(200, 2, 0.05, 7);
    let lineage = engine.lineage(&tree, &query).unwrap();
    let w = tree.fact_weights();
    let compiled =
        CompiledCircuit::compile(Arc::new(lineage), EliminationHeuristic::MinDegree).unwrap();
    let planned = compiled.run(&w, 22).unwrap();
    let interpreted = compiled.run_interpreted(&w, 22).unwrap();
    assert!((planned.probability - interpreted.probability).abs() < 1e-9);
    let table_entries = compiled.sweep_plan().unwrap().table_entry_count();
    report_value("A2", "tree_2hop_circuit_width", planned.width);
    report_value("A2", "tree_2hop_table_entries", table_entries);
    let mut group = criterion.benchmark_group("a2_treelike_sweep");
    group.bench_function("planned_sweep_2tree_2hop", |b| {
        b.iter(|| compiled.run(&w, 22).unwrap().probability)
    });
    group.finish();
    summary.record(
        "planned_sweep_2tree_2hop",
        timed(5, || compiled.run(&w, 22).unwrap().probability),
    );

    summary.write();
    criterion.final_summary();
}
