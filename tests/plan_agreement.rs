//! Differential tests for the compiled sweep plan: the dense-table planned
//! sweep, the legacy interpreted HashMap sweep and DPLL must agree (within
//! 1e-9) on random circuits — including zero-weight variables, bags at the
//! width-budget boundary, and circuits patched by `rewire_inputs` /
//! `extend_or` — and `run_many` scenario lanes must equal per-scenario
//! `run` results exactly (bitwise). The circuit-graph decomposition the
//! plans run over is chosen by table volume, never costlier than the
//! configured heuristic's.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use stuc::circuit::builder;
use stuc::circuit::circuit::{Circuit, VarId};
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::dpll::DpllCounter;
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::circuit::weights::Weights;
use stuc::circuit::wmc::TreewidthWmc;
use stuc::core::workloads;
use stuc::graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc::graph::nice::NiceDecomposition;
use stuc::query::cq::ConjunctiveQuery;
use stuc::Engine;

const BUDGET: usize = 22;

fn compile(circuit: &Circuit) -> CompiledCircuit {
    CompiledCircuit::compile(Arc::new(circuit.clone()), EliminationHeuristic::MinDegree)
        .expect("circuit compiles")
}

/// Weights for every variable of `circuit`: pseudo-random in [0, 1], with
/// every `zero_stride`-th variable pinned to probability 0 (the planned
/// sweep's zero-skipping must not change results).
fn weights_for(circuit: &Circuit, seed: u64, zero_stride: usize) -> Weights {
    let mut weights = Weights::new();
    for (i, v) in circuit.variables().into_iter().enumerate() {
        let p = if zero_stride > 0 && i % zero_stride == 0 {
            0.0
        } else {
            // Cheap deterministic pseudo-randomness, good enough to vary.
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 * 1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        weights.set(v, p);
    }
    weights
}

fn assert_three_way_agreement(circuit: &Circuit, weights: &Weights) {
    let compiled = compile(circuit);
    let planned = compiled.run(weights, BUDGET).expect("planned sweep runs");
    let interpreted = compiled
        .run_interpreted(weights, BUDGET)
        .expect("interpreted sweep runs");
    let dpll = DpllCounter::default()
        .probability(circuit, weights)
        .expect("dpll runs");
    assert!(
        (planned.probability - interpreted.probability).abs() < 1e-9,
        "planned {} vs interpreted {}",
        planned.probability,
        interpreted.probability
    );
    assert!(
        (planned.probability - dpll).abs() < 1e-9,
        "planned {} vs dpll {dpll}",
        planned.probability
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense plan, interpreted sweep and DPLL agree on random circuits,
    /// including zero-weight variables.
    #[test]
    fn plan_interpreted_and_dpll_agree(
        vars in 2usize..9,
        internal in 2usize..18,
        seed in 0u64..1000,
        zero_stride in 0usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let weights = weights_for(&circuit, seed ^ 0xa5a5, zero_stride);
        assert_three_way_agreement(&circuit, &weights);
    }

    /// Agreement holds right at the width-budget boundary: a budget of
    /// exactly `width + 1` (the smallest that runs) answers like DPLL, and
    /// one below refuses on both sweep paths.
    #[test]
    fn width_budget_boundary_bags_agree(
        vars in 3usize..8,
        internal in 4usize..16,
        seed in 0u64..500,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let weights = weights_for(&circuit, seed, 0);
        let compiled = compile(&circuit);
        let boundary = compiled.width() + 1;
        let at = compiled.run(&weights, boundary).expect("boundary budget runs");
        let interpreted = compiled
            .run_interpreted(&weights, boundary)
            .expect("boundary budget runs interpreted");
        let dpll = DpllCounter::default().probability(&circuit, &weights).unwrap();
        prop_assert!((at.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((at.probability - dpll).abs() < 1e-9);
        if boundary > 1 {
            prop_assert!(compiled.run(&weights, boundary - 1).is_err());
            prop_assert!(compiled.run_interpreted(&weights, boundary - 1).is_err());
        }
    }

    /// Circuits patched by `rewire_inputs` (deletion: pin + renumber) keep
    /// the three-way agreement; the plan cell is re-derived for the patched
    /// gates while the decomposition is carried over.
    #[test]
    fn rewired_circuits_agree(
        vars in 3usize..8,
        internal in 3usize..14,
        seed in 0u64..500,
        pin_stride in 2usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        let _ = compiled.width(); // force the decomposition so it is carried over

        let all_vars: Vec<VarId> = circuit.variables().into_iter().collect();
        let pins: BTreeSet<VarId> = all_vars
            .iter()
            .enumerate()
            .filter(|(i, _)| i % pin_stride == 0)
            .map(|(_, &v)| v)
            .collect();
        let mut remap: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut next = 0usize;
        for &v in &all_vars {
            if !pins.contains(&v) {
                remap.insert(v, VarId(next));
                next += 1;
            }
        }
        let (patched, _) = compiled.rewire_inputs(&pins, &remap);

        let weights = {
            let mut w = Weights::new();
            for (i, &v) in patched.variables().iter().enumerate() {
                w.set(v, 0.1 + 0.8 * (i as f64 % 5.0) / 5.0);
            }
            w
        };
        let planned = patched.run(&weights, BUDGET).expect("patched plan runs");
        let interpreted = patched
            .run_interpreted(&weights, BUDGET)
            .expect("patched interpreted runs");
        let dpll = DpllCounter::default()
            .probability(patched.source(), &weights)
            .expect("dpll on patched source");
        prop_assert!((planned.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((planned.probability - dpll).abs() < 1e-9);
    }

    /// Circuits patched by `extend_or` (insertion: append the dirty cone,
    /// repair the decomposition) keep the three-way agreement.
    #[test]
    fn extended_circuits_agree(
        vars in 2usize..6,
        internal in 2usize..10,
        seed in 0u64..500,
        delta_seed in 0u64..500,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        let _ = compiled.width(); // force the decomposition so the patch repairs it
        let delta = builder::random_circuit(vars + 1, internal.min(6), delta_seed);
        let (patched, _) = match compiled.extend_or(&delta, BUDGET) {
            Ok(result) => result,
            Err(_) => return Ok(()), // repair over budget: fresh-compile fallback path
        };
        let weights = weights_for(patched.source(), seed ^ delta_seed, 3);
        let planned = patched.run(&weights, BUDGET).expect("patched plan runs");
        let interpreted = patched
            .run_interpreted(&weights, BUDGET)
            .expect("patched interpreted runs");
        let dpll = DpllCounter::default()
            .probability(patched.source(), &weights)
            .expect("dpll on patched source");
        prop_assert!((planned.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((planned.probability - dpll).abs() < 1e-9);
    }

    /// `run_many` scenario lanes are bitwise identical to per-scenario
    /// `run` calls, at any lane count.
    #[test]
    fn run_many_equals_per_scenario_runs_exactly(
        vars in 2usize..8,
        internal in 2usize..14,
        seed in 0u64..500,
        lanes in 1usize..9,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        let scenarios: Vec<Weights> = (0..lanes)
            .map(|k| weights_for(&circuit, seed.wrapping_add(k as u64 * 77), k % 3))
            .collect();
        let many = compiled.run_many(&scenarios, BUDGET).expect("lane sweep runs");
        prop_assert_eq!(many.probabilities.len(), lanes);
        for (weights, &lane) in scenarios.iter().zip(&many.probabilities) {
            let single = compiled.run(weights, BUDGET).expect("single run");
            prop_assert!(
                single.probability.to_bits() == lane.to_bits(),
                "run_many lane {} != run {}",
                lane,
                single.probability
            );
        }
    }

    /// The chosen circuit-graph decomposition never sweeps more table
    /// entries than the configured heuristic's own, the compiled plan runs
    /// over exactly that choice, and it answers like DPLL and enumeration.
    #[test]
    fn chosen_decomposition_is_no_costlier_and_agrees(
        vars in 2usize..10,
        internal in 8usize..40,
        seed in 0u64..1000,
        heuristic in 0usize..2,
    ) {
        let heuristic =
            [EliminationHeuristic::MinDegree, EliminationHeuristic::Lexicographic][heuristic];
        // Random circuits are already in prepared form (one input gate per
        // variable, fan-in at most 2), so this is the graph compile sees.
        let circuit = builder::random_circuit(vars, internal, seed);
        let graph = TreewidthWmc::circuit_graph(&circuit);
        let configured =
            NiceDecomposition::table_volume(&decompose_with_heuristic(&graph, heuristic));
        let chosen = NiceDecomposition::table_volume(&TreewidthWmc::decompose_circuit_graph(
            &graph, heuristic,
        ));
        prop_assert!(chosen <= configured, "chosen {} > configured {}", chosen, configured);

        let compiled = CompiledCircuit::compile(Arc::new(circuit.clone()), heuristic)
            .expect("circuit compiles");
        let plan = compiled.sweep_plan().expect("random circuits plan densely");
        prop_assert_eq!(plan.table_entry_count(), chosen);
        let weights = weights_for(&circuit, seed, 0);
        let planned = compiled.probability(&weights, usize::MAX).expect("planned sweep runs");
        let dpll = DpllCounter::default().probability(&circuit, &weights).expect("dpll runs");
        let brute = probability_by_enumeration(&circuit, &weights).expect("enumeration runs");
        prop_assert!((planned - dpll).abs() < 1e-9, "planned {} vs dpll {}", planned, dpll);
        prop_assert!((planned - brute).abs() < 1e-9, "planned {} vs enumeration {}", planned, brute);
    }
}

/// The unanchored 2-hop lineage of the 288-fact partial 2-tree: min-degree
/// alone decomposes its circuit graph at width 20 and 20,199,064 table
/// entries per sweep; the volume rule picks min-fill's width 14 and about
/// 1.34M entries.
#[test]
fn two_tree_two_hop_lineage_sweeps_the_cheaper_decomposition() {
    let tid = workloads::partial_k_tree_tid(200, 2, 0.05, 7);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let explanation = Engine::new().explain(&tid, &query).unwrap();
    let circuit = explanation.circuit.expect("the goal runs on a circuit");
    let sweep = circuit.sweep.expect("the circuit has a sweep plan");
    assert!(circuit.width <= 14, "width {}", circuit.width);
    assert!(
        sweep.table_entries <= 1_400_000,
        "table entries {}",
        sweep.table_entries
    );
}

/// Steady-state arena reuse is observable through the public report: the
/// first planned run warms the arena, later runs (single and lanes at the
/// same width) allocate nothing.
#[test]
fn steady_state_reports_zero_table_allocations() {
    let circuit = builder::conjunction_of_disjunctions(6, 3);
    let weights = Weights::uniform(circuit.variables(), 0.4);
    let compiled = compile(&circuit);
    let first = compiled.run(&weights, BUDGET).unwrap();
    assert!(first.table_allocations > 0, "first run warms the arena");
    for _ in 0..4 {
        let again = compiled.run(&weights, BUDGET).unwrap();
        assert_eq!(again.table_allocations, 0, "steady state must not allocate");
        assert_eq!(again.probability.to_bits(), first.probability.to_bits());
    }
    let scenarios = vec![weights.clone(), weights.clone(), weights];
    let lanes_first = compiled.run_many(&scenarios, BUDGET).unwrap();
    assert!(lanes_first.table_allocations > 0, "wider lanes regrow once");
    let lanes_again = compiled.run_many(&scenarios, BUDGET).unwrap();
    assert_eq!(lanes_again.table_allocations, 0);
}
