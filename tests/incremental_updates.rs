//! The incremental-update contract: `Engine::apply_update` is semantically
//! invisible.
//!
//! For random update sequences on every representation (TID, pc-, pcc-
//! instances, PrXML), applying a delta through the engine and then
//! evaluating must agree — within 1e-9 — with a cold engine evaluating the
//! mutated instance from scratch. This must hold on the patch paths
//! (weights-only rekey, deletion rewiring, insertion extension) *and* on
//! every forced-fallback path (tiny width budgets, opaque structural
//! changes, rebuild-class deltas).

use proptest::prelude::*;
use std::sync::Arc;
use stuc::circuit::compiled::CompiledCircuit;
use stuc::core::workloads;
use stuc::data::instance::FactId;
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::EliminationHeuristic;
use stuc::graph::generators::SplitMix64;
use stuc::incr::{Delta, Updatable};
use stuc::prxml::document::{NodeId, PrXmlDocument};
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Engine, Representation};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Evaluates on a fresh engine: no cache, no patching — the ground truth.
fn cold_probability<R: Representation + ?Sized>(representation: &R, query: &R::Query) -> f64 {
    Engine::new()
        .evaluate(representation, query)
        .unwrap()
        .probability
}

/// A random delta over the current TID state: inserts into a small constant
/// domain (so new facts actually join existing ones), deletes and
/// re-weights existing facts.
fn random_tid_delta(rng: &mut SplitMix64, tid: &TidInstance) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..1 + rng.next_below(3) {
        match rng.next_below(3) {
            0 => {
                let a = format!("c{}", rng.next_below(8));
                let b = format!("c{}", rng.next_below(8));
                let p = 0.05 + 0.9 * rng.next_f64();
                delta = delta.insert("R", &[&a, &b], p);
            }
            1 if tid.fact_count() > 1 => {
                delta = delta.delete(FactId(rng.next_below(tid.fact_count())));
            }
            _ if tid.fact_count() > 0 => {
                let p = 0.05 + 0.9 * rng.next_f64();
                delta = delta.set_probability(FactId(rng.next_below(tid.fact_count())), p);
            }
            _ => {}
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// TID: random update sequences through a warm engine agree with cold
    /// evaluation after every step, on both the circuit path (self-join)
    /// and the safe-plan path (hierarchical query).
    #[test]
    fn tid_updates_agree_with_cold_evaluation(n in 3usize..9, p in 0.2f64..0.8, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, p, seed);
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let single = ConjunctiveQuery::parse("R(x, y)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &chain).unwrap(); // warm the caches

        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        for _ in 0..4 {
            let delta = random_tid_delta(&mut rng, &live);
            let report = engine.apply_update(&mut live, &delta).unwrap();
            prop_assert_eq!(report.inserted, delta.insert_count());
            prop_assert_eq!(report.reweighted, delta.reweight_count());
            // Duplicate delete targets collapse into one deletion.
            prop_assert!(report.deleted <= delta.delete_count());
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(
                close(warm, cold_probability(&live, &chain)),
                "chain query diverged after {:?}: warm {} vs cold {}",
                delta, warm, cold_probability(&live, &chain)
            );
            let warm = engine.evaluate(&live, &single).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &single)));
        }
    }

    /// The forced-fallback regime: a width budget of 1 makes every repair
    /// refuse, so updates constantly fall back — and must stay correct.
    #[test]
    fn tid_updates_agree_under_forced_fallback(n in 3usize..7, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, 0.5, seed);
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().width_budget(1).build();
        engine.evaluate(&live, &chain).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0xABCD);
        let mut fell_back_once = false;
        for _ in 0..3 {
            let delta = random_tid_delta(&mut rng, &live);
            let report = engine.apply_update(&mut live, &delta).unwrap();
            fell_back_once |= report.fell_back;
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &chain)));
        }
        let _ = fell_back_once;
    }

    /// pc-instances: insertions extend, deletions rebuild, re-weights rekey
    /// — all of it must agree with cold evaluation.
    #[test]
    fn pc_updates_agree_with_cold_evaluation(n in 3usize..7, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, 0.5, seed).to_pc_instance();
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &chain).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0x1234);
        for _ in 0..3 {
            let mut delta = Delta::new();
            match rng.next_below(3) {
                0 => {
                    let a = format!("c{}", rng.next_below(n + 2));
                    let b = format!("c{}", rng.next_below(n + 2));
                    delta = delta.insert("R", &[&a, &b], 0.05 + 0.9 * rng.next_f64());
                }
                1 if live.instance().fact_count() > 1 => {
                    delta = delta.delete(FactId(rng.next_below(live.instance().fact_count())));
                }
                _ => {
                    let f = FactId(rng.next_below(live.instance().fact_count()));
                    delta = delta.set_probability(f, 0.05 + 0.9 * rng.next_f64());
                }
            }
            engine.apply_update(&mut live, &delta).unwrap();
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &chain)), "{:?}", delta);
        }
    }

    /// pcc-instances: the joint graph renumbers its gate vertices on
    /// insertion — the remap + repair + extension pipeline must agree.
    #[test]
    fn pcc_updates_agree_with_cold_evaluation(claims in 2usize..5, contributors in 1usize..3, seed in 0u64..500) {
        let mut live = workloads::contributor_pcc(claims, contributors, 0.8, 0.6, seed);
        let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
        let join = ConjunctiveQuery::parse("Claim(x, y), Claim(x, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &query).unwrap();
        engine.evaluate(&live, &join).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0x77);
        for step in 0..3 {
            let delta = match rng.next_below(2) {
                0 => Delta::new().insert(
                    "Claim",
                    &[&format!("entity{}", rng.next_below(claims)), &format!("newv{step}")],
                    0.05 + 0.9 * rng.next_f64(),
                ),
                _ if live.fact_count() > 1 => {
                    Delta::new().delete(FactId(rng.next_below(live.fact_count())))
                }
                _ => Delta::new().insert("Claim", &["entity0", "solo"], 0.4),
            };
            engine.apply_update(&mut live, &delta).unwrap();
            let warm = engine.evaluate(&live, &query).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &query)), "{:?}", delta);
            let warm = engine.evaluate(&live, &join).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &join)), "{:?}", delta);
        }
    }

    /// PrXML: structural edits are opaque (full rebuild path), re-weights
    /// rekey — both must agree with cold evaluation.
    #[test]
    fn prxml_updates_agree_with_cold_evaluation(seed in 0u64..500) {
        let mut live = PrXmlDocument::figure1_example();
        let musician = PrxmlQuery::LabelExists("musician".into());
        let surname = PrxmlQuery::LabelExists("surname".into());
        let engine = Engine::new();
        engine.evaluate(&live, &musician).unwrap();

        let mut rng = SplitMix64::new(seed);
        let occupation = (0..live.len())
            .find(|&i| live.label(NodeId(i)) == "occupation")
            .unwrap();
        for step in 0..3 {
            let delta = match rng.next_below(3) {
                0 => Delta::new().set_probability(FactId(occupation), 0.05 + 0.9 * rng.next_f64()),
                1 => {
                    let root = live.root().unwrap().0;
                    Delta::new().insert(&format!("extra{step}"), &[&root.to_string()], 0.5)
                }
                _ => {
                    // Detach some non-root leaf if one survives, else reweight.
                    match (0..live.len()).find(|&i| {
                        live.label(NodeId(i)).starts_with("extra")
                    }) {
                        Some(node) => Delta::new().delete(FactId(node)),
                        None => Delta::new().set_probability(FactId(occupation), 0.5),
                    }
                }
            };
            engine.apply_update(&mut live, &delta).unwrap();
            for q in [&musician, &surname] {
                let warm = engine.evaluate(&live, q).unwrap().probability;
                prop_assert!(close(warm, cold_probability(&live, q)), "{:?}", delta);
            }
        }
    }
}

#[test]
fn weights_only_update_reuses_everything() {
    let mut tid = workloads::path_tid(10, 0.5, 3);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    assert_eq!(engine.cached_lineages(), 1);

    let delta = Delta::new()
        .set_probability(FactId(0), 0.9)
        .set_probability(FactId(5), 0.1);
    let report = engine.apply_update(&mut tid, &delta).unwrap();
    assert_eq!(report.reweighted, 2);
    assert_eq!(report.gates_rebuilt, 0, "weights-only: nothing rebuilt");
    assert_eq!(report.bags_touched, 0);
    assert_eq!(report.lineages_patched, 1);
    assert_eq!(report.lineages_dropped, 0);
    assert!(!report.fell_back);
    assert_eq!(report.width_drift(), Some(0));

    // The patched entry is a real cache hit for the *mutated* instance.
    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn insertion_patches_instead_of_recompiling() {
    let mut tid = workloads::path_tid(12, 0.5, 9);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();

    // Extend the path: the new fact joins the chain at both ends.
    let delta = Delta::new().insert("R", &["c12", "c13"], 0.4);
    let report = engine.apply_update(&mut tid, &delta).unwrap();
    assert_eq!(report.inserted, 1);
    assert!(!report.fell_back, "a path extension fits every budget");
    assert!(report.gates_rebuilt > 0, "the dirty cone was appended");
    assert!(
        report.bags_touched > 0,
        "decomposition repaired, not rebuilt"
    );
    assert_eq!(report.lineages_patched, 1);

    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached, "patched lineage must serve the hit");
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn deletion_rewires_the_compiled_lineage() {
    let mut tid = workloads::path_tid(10, 0.5, 5);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();

    let report = engine
        .apply_update(&mut tid, &Delta::new().delete(FactId(4)))
        .unwrap();
    assert_eq!(report.deleted, 1);
    assert!(report.gates_rebuilt > 0, "input gates were rewired");
    assert_eq!(report.lineages_patched, 1);
    assert!(!report.fell_back);

    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn insertion_with_no_new_matches_keeps_the_circuit() {
    let mut tid = workloads::path_tid(6, 0.5, 2);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    // An isolated fact in a fresh relation adds no chain match.
    let report = engine
        .apply_update(&mut tid, &Delta::new().insert("S", &["z0", "z1"], 0.5))
        .unwrap();
    assert_eq!(report.gates_rebuilt, 0, "no new matches, no new gates");
    assert_eq!(report.lineages_patched, 1);
    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

/// Dense-table entries of one sweep over `query`'s circuit, as EXPLAIN
/// reports them.
fn swept_entries(engine: &Engine, tid: &TidInstance, query: &ConjunctiveQuery) -> usize {
    engine
        .explain(tid, query)
        .unwrap()
        .circuit
        .and_then(|circuit| circuit.sweep)
        .expect("the query sweeps a circuit")
        .table_entries
}

#[test]
fn sustained_churn_stays_correct_and_triggers_compacting_rebuilds() {
    // Alternately insert a new match and delete it again. Patches only
    // grow a compiled circuit's sweep (the repaired decomposition widens
    // with every inserted cone; deleted cones stay as constants), so the
    // engine must compact patched lineages instead of letting every sweep
    // degrade, and stay correct throughout. The second input is the
    // benchmark's update-mix in miniature: a branch under the third hop of
    // an anchored 3-hop query.
    let inputs = [
        (
            workloads::path_tid(8, 0.5, 21),
            "R(x, y), R(y, z)",
            "c3",
            15,
        ),
        (
            workloads::path_tid(40, 0.5, 7),
            "R(\"c5\", x), R(x, y), R(y, z)",
            "c7",
            64,
        ),
    ];
    for (mut tid, query, parent, cycles) in inputs {
        let query = ConjunctiveQuery::parse(query).unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        for round in 0..2 * cycles {
            let delta = if round % 2 == 0 {
                Delta::new().insert("R", &[parent, &format!("b{round}")], 0.5)
            } else {
                Delta::new().delete(FactId(tid.fact_count() - 1))
            };
            engine.apply_update(&mut tid, &delta).unwrap();
            let warm = engine.evaluate(&tid, &query).unwrap().probability;
            assert!(
                close(warm, cold_probability(&tid, &query)),
                "{query:?} round {round} diverged"
            );

            // The sweep stays within twice that of compiling the cached
            // lineage afresh: the patched decomposition cannot drift.
            let swept = swept_entries(&engine, &tid, &query);
            let lineage = engine.lineage(&tid, &query).unwrap();
            let recompiled =
                CompiledCircuit::compile(Arc::new(lineage), EliminationHeuristic::MinDegree)
                    .unwrap()
                    .sweep_plan()
                    .expect("the lineage plans densely")
                    .table_entry_count();
            assert!(
                swept <= 2 * recompiled,
                "{query:?} round {round}: sweeps {swept} table entries, a compile of its lineage {recompiled}"
            );
            // And within a constant factor of a fresh engine's. Not 2: a
            // patched lineage keeps each new match as its own disjunct where
            // the automaton lineage factors the shared facts out, and a
            // deletion leaves its cone as constants until the next compile
            // (anchored input: 145 entries against 51 after an insert and
            // 33 after the delete).
            let fresh = swept_entries(&Engine::new(), &tid, &query);
            assert!(
                swept <= 5 * fresh,
                "{query:?} round {round}: sweeps {swept} table entries, a fresh engine {fresh}"
            );
        }
    }
}

#[test]
fn rejected_deltas_leave_engine_and_instance_intact() {
    let mut tid = workloads::path_tid(5, 0.5, 1);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    let before = engine.evaluate(&tid, &query).unwrap().probability;
    let snapshot = tid.clone();

    let bad = Delta::new()
        .set_probability(FactId(0), 0.9)
        .insert("R", &["a", "b"], f64::NAN);
    assert!(engine.apply_update(&mut tid, &bad).is_err());
    assert_eq!(tid, snapshot, "rejected delta must not mutate");
    let report = engine.evaluate(&tid, &query).unwrap();
    assert!(report.lineage_cached, "caches survive a rejected delta");
    assert!(close(report.probability, before));
}

#[test]
fn evict_instance_is_targeted() {
    let tid_a = workloads::path_tid(6, 0.5, 1);
    let tid_b = workloads::path_tid(7, 0.4, 2);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid_a, &query).unwrap();
    engine.evaluate(&tid_b, &query).unwrap();
    assert_eq!(engine.cached_decompositions(), 2);
    assert_eq!(engine.cached_lineages(), 2);

    let evicted = engine.evict_instance(Representation::fingerprint(&tid_a));
    assert_eq!(evicted, 2, "one decomposition + one lineage");
    assert_eq!(engine.cached_decompositions(), 1);
    assert_eq!(engine.cached_lineages(), 1);
    // The other instance's entries still serve hits.
    assert!(engine.evaluate(&tid_b, &query).unwrap().lineage_cached);
    // Evicting an unknown fingerprint is a no-op.
    assert_eq!(engine.evict_instance(0xDEAD_BEEF), 0);
}

#[test]
fn update_log_replay_matches_live_instance_probabilities() {
    use stuc::incr::UpdateLog;
    let mut live = workloads::path_tid(6, 0.5, 11);
    let replica_base = live.clone();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&live, &query).unwrap();

    let mut log = UpdateLog::new();
    for delta in [
        Delta::new().insert("R", &["c6", "c7"], 0.3),
        Delta::new()
            .delete(FactId(2))
            .set_probability(FactId(0), 0.8),
    ] {
        // Record through the trait (the engine path applies the same delta
        // semantics; the log captures the raw application).
        let mut shadow = live.clone();
        let application = shadow.apply_delta(&delta).unwrap();
        log.record(delta.clone(), &application);
        engine.apply_update(&mut live, &delta).unwrap();
        assert_eq!(shadow, live, "engine and trait application agree");
    }
    let mut replica = replica_base;
    log.replay(&mut replica).unwrap();
    assert_eq!(replica, live);
    assert!(close(
        cold_probability(&replica, &query),
        engine.evaluate(&live, &query).unwrap().probability
    ));
}

#[test]
fn update_reports_surface_width_drift_and_fallbacks() {
    // A long-range insert on a path forces real bag growth.
    let mut tid = workloads::path_tid(12, 0.5, 4);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    let report = engine
        .apply_update(&mut tid, &Delta::new().insert("R", &["c0", "c12"], 0.5))
        .unwrap();
    assert!(report.width_before.is_some());
    assert!(report.width_after.is_some());
    assert!(report.width_drift().unwrap() >= 0);
    assert!(!report.notes.is_empty());
    assert!(close(
        engine.evaluate(&tid, &query).unwrap().probability,
        cold_probability(&tid, &query)
    ));

    // With a width budget of 1 the same update cannot be repaired.
    let mut tid = workloads::path_tid(12, 0.5, 4);
    let strict = Engine::builder().width_budget(1).build();
    strict.evaluate(&tid, &query).unwrap();
    let report = strict
        .apply_update(&mut tid, &Delta::new().insert("R", &["c0", "c12"], 0.5))
        .unwrap();
    assert!(report.fell_back, "budget 1 must force the fallback path");
    assert!(close(
        strict.evaluate(&tid, &query).unwrap().probability,
        cold_probability(&tid, &query)
    ));
}
