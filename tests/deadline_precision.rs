//! Property tests for deadline precision and budget hygiene, across all
//! four uncertain representations (TID, c-, pc-, pcc-instances):
//!
//! * an already-expired deadline trips as a typed
//!   [`StucError::DeadlineExceeded`] naming the stage, with bounded
//!   overshoot — the engine notices at its first checkpoint instead of
//!   finishing the work anyway;
//! * a random *tiny* deadline either completes exactly or trips typed —
//!   never anything in between (panic, hang, wrong answer);
//! * after any tripped run, an identical re-run on the **same** engine
//!   without a deadline is bit-identical to a fresh, never-deadlined
//!   engine — tripped runs publish nothing to the caches;
//! * a pre-raised cancel flag surfaces as [`StucError::Cancelled`] with
//!   the same no-pollution guarantee;
//! * an update applied under a deadline completes or trips typed, and the
//!   lineage it patches, compacts or drops never changes a later answer.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::data::pcc::PccInstance;
use stuc::data::tid::TidInstance;
use stuc::incr::Delta;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{CancelHandle, Engine, EvalBudget, Representation, StucError};

/// Generous bound on how long a deadline-tripped evaluation may keep
/// running past its deadline: checkpoints are bounded-interval polls, not
/// preemption, so some overshoot is inherent — but it must stay within
/// one checkpoint interval's worth of work, far below a second on these
/// tiny workloads even in debug builds.
const MAX_OVERSHOOT: Duration = Duration::from_secs(2);

fn chain() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap()
}

fn cinstance_path(n: usize) -> CInstance {
    let mut ci = CInstance::new();
    for i in 0..n {
        // Cycle a small event pool with some negation so annotations are
        // correlated and non-trivial.
        let condition = match i % 3 {
            0 => format!("e{}", i % 4),
            1 => format!("e{} & !e{}", i % 4, (i + 1) % 4),
            _ => format!("e{} & e{}", i % 4, (i + 2) % 4),
        };
        ci.add_fact_with_condition("R", &[&format!("v{i}"), &format!("v{}", i + 1)], &condition)
            .unwrap();
    }
    ci
}

/// Exercises the full deadline contract for one representation + query on
/// a fresh engine. `deadline_us` of 0 means "already expired".
fn check_deadline_contract<R>(representation: &R, query: &R::Query, deadline_us: u64)
where
    R: Representation + ?Sized,
{
    let reference = Engine::new()
        .evaluate(representation, query)
        .expect("undeadlined evaluation succeeds")
        .probability;

    let engine = Engine::new();

    // 1. An already-expired deadline must trip, typed, naming a stage,
    //    with bounded overshoot.
    let started = Instant::now();
    let expired = engine.evaluate_with_budget(
        representation,
        query,
        &EvalBudget::with_deadline(Duration::ZERO),
    );
    let overshoot = started.elapsed();
    match expired {
        Err(StucError::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty(), "trip must name the stage");
            assert!(
                overshoot < MAX_OVERSHOOT,
                "expired deadline took {overshoot:?} to surface"
            );
        }
        other => panic!("expired deadline must trip typed, got {other:?}"),
    }

    // 2. A tiny random deadline either completes exactly or trips typed.
    let budget = EvalBudget::with_deadline(Duration::from_micros(deadline_us));
    match engine.evaluate_with_budget(representation, query, &budget) {
        Ok(report) => assert_eq!(
            report.probability.to_bits(),
            reference.to_bits(),
            "a completed deadlined run must be exact"
        ),
        Err(StucError::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty());
        }
        Err(other) => panic!("only DeadlineExceeded is acceptable, got {other}"),
    }

    // 3. A pre-raised cancel flag trips as Cancelled, not DeadlineExceeded.
    let cancel = CancelHandle::new();
    cancel.cancel();
    match engine.evaluate_with_budget(
        representation,
        query,
        &EvalBudget::unlimited().cancelled_by(&cancel),
    ) {
        Err(StucError::Cancelled { stage }) => assert!(!stage.is_empty()),
        other => panic!("raised cancel flag must trip typed, got {other:?}"),
    }

    // 4. No cache pollution: the same engine, with the budget lifted, is
    //    bit-identical to the never-deadlined reference.
    let recovered = engine
        .evaluate(representation, query)
        .expect("undeadlined re-run succeeds")
        .probability;
    assert_eq!(
        recovered.to_bits(),
        reference.to_bits(),
        "tripped runs must not pollute the caches"
    );

    // 5. And the caches now being warm does not change that.
    let warm = engine
        .evaluate(representation, query)
        .expect("warm re-run succeeds")
        .probability;
    assert_eq!(warm.to_bits(), reference.to_bits());
}

/// Inserts a new match under a standing anchored query through a warm
/// `engine` under a deadline of `deadline_us` (0: already expired). The
/// insert outgrows the lineage's sweep, so a completed update compacts it
/// in place. Reads afterwards agree with a fresh engine's: bit for bit
/// when the update dropped the lineage (it tripped, or its compaction was
/// cut short), within 1e-9 when it patched it.
fn check_update_deadline_contract(engine: &Engine, n: usize, seed: u64, deadline_us: u64) {
    let query = ConjunctiveQuery::parse("R(\"c1\", x), R(x, y), R(y, z)").unwrap();
    let mut tid = workloads::path_tid(n, 0.5, seed);
    engine.evaluate(&tid, &query).unwrap();
    let delta = Delta::new().insert("R", &["c3", "branch"], 0.5);
    let budget = EvalBudget::with_deadline(Duration::from_micros(deadline_us));
    let dropped = match engine.apply_update_with_budget(&mut tid, &delta, &budget) {
        Ok(report) => report.lineages_dropped > 0,
        Err(StucError::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty(), "trip must name the stage");
            true
        }
        Err(other) => panic!("only DeadlineExceeded is acceptable, got {other}"),
    };
    assert!(deadline_us > 0 || dropped, "an expired deadline must trip");
    let fresh = Engine::new().evaluate(&tid, &query).unwrap().probability;
    let read = engine.evaluate(&tid, &query).unwrap().probability;
    if dropped {
        assert_eq!(read.to_bits(), fresh.to_bits(), "a tripped update leaked");
    } else {
        assert!((read - fresh).abs() < 1e-9, "{read} vs {fresh}");
    }
}

#[test]
fn an_update_under_an_expired_deadline_publishes_nothing() {
    check_update_deadline_contract(&Engine::new(), 12, 7, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tiny deadlines trip the update at any of its checkpoints. The
    /// structure-decomposition cache is off: a decomposition repaired
    /// before the trip is a valid entry a fresh engine does not have, and
    /// lineages rebuilt over it may differ from a fresh engine's in the
    /// last bit.
    #[test]
    fn updates_under_tiny_deadlines_leave_the_caches_exact(
        n in 6usize..14,
        seed in 0u64..1000,
        deadline_us in 0u64..1000,
    ) {
        let engine = Engine::builder().without_decomposition_cache().build();
        check_update_deadline_contract(&engine, n, seed, deadline_us);
    }

    #[test]
    fn tid_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        seed in 0u64..1000,
        deadline_us in 0u64..500,
    ) {
        let tid: TidInstance = workloads::path_tid(n, 0.5, seed);
        check_deadline_contract(&tid, &chain(), deadline_us);
    }

    #[test]
    fn cinstance_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        deadline_us in 0u64..500,
    ) {
        let ci = cinstance_path(n);
        check_deadline_contract(&ci, &chain(), deadline_us);
    }

    #[test]
    fn pcinstance_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        deadline_us in 0u64..500,
        prob in 0.1f64..0.9,
    ) {
        let ci = cinstance_path(n);
        let vars: Vec<_> = ci.events().variables().collect();
        let pc = ci.with_probabilities(stuc::circuit::weights::Weights::uniform(vars, prob));
        check_deadline_contract(&pc, &chain(), deadline_us);
    }

    #[test]
    fn pcc_deadlines_are_precise_and_cache_clean(
        claims in 3usize..8,
        contributors in 2usize..4,
        seed in 0u64..1000,
        deadline_us in 0u64..500,
    ) {
        let pcc: PccInstance =
            workloads::contributor_pcc(claims, contributors, 0.8, 0.7, seed);
        let query = ConjunctiveQuery::parse("Claim(x, y), Claim(x, z)").unwrap();
        check_deadline_contract(&pcc, &query, deadline_us);
    }
}
