//! Integration tests for the EXPLAIN subsystem: `Engine::explain` must
//! *agree* with the `EvaluationReport` of an actual run — same back-end,
//! same decomposition width, same gate count, same cache provenance — on
//! every representation and on all three outcomes (safe-plan, circuit,
//! refused). The text rendering is pinned byte-for-byte so that downstream
//! goldens (REPL session, serve transcript) stay stable.

use stuc::circuit::weights::Weights;
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{BackendKind, Engine, ExplainOutcome, QueryExplanation, StucError};

/// Asserts the explanation and a report of an actual run tell one story.
fn assert_agreement(
    explanation: &QueryExplanation,
    report: &stuc::EvaluationReport,
    context: &str,
) {
    assert_eq!(explanation.backend, report.backend, "{context}: backend");
    match &explanation.circuit {
        Some(circuit) => {
            assert_eq!(circuit.gates, report.circuit_gates, "{context}: gates");
            assert_eq!(
                circuit.decomposition_width, report.decomposition_width,
                "{context}: width"
            );
        }
        None => {
            assert_eq!(
                report.circuit_gates, 0,
                "{context}: safe plan builds no circuit"
            );
            assert_eq!(
                report.decomposition_width, None,
                "{context}: no decomposition"
            );
        }
    }
    let expected_lineage = if explanation.outcome == ExplainOutcome::SafePlan {
        "untouched"
    } else if report.lineage_cached {
        "hit"
    } else {
        "miss"
    };
    assert_eq!(
        explanation.cache.lineage.provenance, expected_lineage,
        "{context}: lineage provenance"
    );
}

#[test]
fn explanations_agree_with_reports_on_all_four_representations() {
    let engine = Engine::new();

    // TID, hierarchical query → safe plan (no circuit, caches untouched).
    let tid = workloads::path_tid(8, 0.5, 11);
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let explanation = engine.explain(&tid, &hierarchical).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::SafePlan);
    assert_eq!(explanation.stages, vec!["safe-plan"]);
    let report = engine.evaluate(&tid, &hierarchical).unwrap();
    assert_eq!(report.backend, BackendKind::SafePlan);
    assert_agreement(&explanation, &report, "tid safe plan");

    // TID, self-join → circuit. The explain warms the lineage cache, so
    // the evaluation that follows is a cache hit — and a *re*-explain
    // after the run reports that hit, matching the warm report.
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let cold = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(cold.outcome, ExplainOutcome::Circuit);
    assert_eq!(cold.cache.lineage.provenance, "miss");
    let report = engine.evaluate(&tid, &self_join).unwrap();
    assert!(
        report.lineage_cached,
        "explain should have warmed the cache"
    );
    let warm = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(warm.cache.lineage.provenance, "hit");
    assert_eq!(warm.stages, vec!["cache-lookup", "sweep"]);
    assert_agreement(&warm, &report, "tid self-join");

    // pc-instance (Table 1 with real probabilities) → circuit route.
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);
    let pc = ci.with_probabilities(weights);
    let trip = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();
    let explanation = engine.explain(&pc, &trip).unwrap();
    assert!(!explanation.safe_plan.extensional, "pc offers no safe plan");
    let report = engine.evaluate(&pc, &trip).unwrap();
    let warm = engine.explain(&pc, &trip).unwrap();
    assert_agreement(&warm, &report, "pc instance");

    // pcc-instance → circuit route.
    let pcc = workloads::contributor_pcc(5, 2, 0.7, 0.9, 9);
    let claim = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
    engine.explain(&pcc, &claim).unwrap();
    let report = engine.evaluate(&pcc, &claim).unwrap();
    let warm = engine.explain(&pcc, &claim).unwrap();
    assert_agreement(&warm, &report, "pcc instance");

    // PrXML document → circuit route.
    let doc = PrXmlDocument::figure1_example();
    let query = PrxmlQuery::LabelExists("musician".into());
    engine.explain(&doc, &query).unwrap();
    let report = engine.evaluate(&doc, &query).unwrap();
    let warm = engine.explain(&doc, &query).unwrap();
    assert_eq!(warm.representation, "prxml-document");
    assert_agreement(&warm, &report, "prxml document");
}

#[test]
fn refused_explanations_carry_the_exact_error_evaluate_returns() {
    // A pinned safe plan on a self-join: refusal, and the refusal string
    // is byte-identical to the error the evaluation raises.
    let engine = Engine::builder().backend(BackendKind::SafePlan).build();
    let tid = workloads::path_tid(6, 0.5, 3);
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let explanation = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    let error = engine.evaluate(&tid, &self_join).unwrap_err();
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );

    // A pinned safe plan on a representation with no extensional side.
    let doc = PrXmlDocument::figure1_example();
    let query = PrxmlQuery::LabelExists("musician".into());
    let explanation = engine.explain(&doc, &query).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    assert!(!explanation.safe_plan.extensional);
    let error = engine.evaluate(&doc, &query).unwrap_err();
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );

    // A pinned treewidth back-end with an impossible width budget: explain
    // predicts the WidthTooLarge refusal with the same width and limit the
    // evaluation reports.
    let tight = Engine::builder()
        .backend(BackendKind::TreewidthWmc)
        .width_budget(1)
        .build();
    let explanation = tight.explain(&tid, &self_join).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    assert_eq!(
        explanation.stages,
        vec!["cache-lookup", "decompose", "compile-lineage"],
        "the sweep never happens on a predicted refusal"
    );
    let error = tight.evaluate(&tid, &self_join).unwrap_err();
    assert!(
        matches!(error, StucError::Wmc(_)),
        "unexpected error {error}"
    );
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );
}

#[test]
fn the_text_rendering_is_deterministic_and_pinned() {
    // Fresh engine, fixed instance: the rendering must come out the same
    // every run — it feeds the REPL and serve goldens.
    let engine = Engine::new();
    let tid = workloads::path_tid(4, 0.5, 7);
    let src = "?- R(x, y), R(y, z).";
    let first = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    let again = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    assert_ne!(first, again, "the second explain sees the warmed cache");
    let third = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    assert_eq!(again, third, "warm explains are a fixed point");

    // The warm rendering, pinned byte-for-byte. `path_tid(4, ..)` has 4
    // facts and a width-1 structure graph; the self-join lineage compiles
    // to a 10-gate circuit of width 3, well inside the default budget.
    let expected = "\
explain: R(x, y), R(y, z)
representation: tid-instance (4 facts)
policy: auto
plan: circuit — backend treewidth-wmc (circuit width 3 fits the budget 22)
safe plan: extensional=yes hierarchical=yes self-join-free=no
route: route=circuit (some term is non-hierarchical or has self-joins; safe plan inapplicable)
lowering: lowered to 1 inclusion-exclusion term(s) over 1 conjunct(s)
circuit: 10 gates (10 cold), 4 variables, 9 bags, width 3 within budget 22
structure width: 1
sweep plan: 27 nodes, 181 table entries, 3 arena slots
cache: lineage=hit decomposition=hit
stages: lower, route, cache-lookup, sweep
notes:
  - route=circuit (some term is non-hierarchical or has self-joins; safe plan inapplicable)
  - lowered to 1 inclusion-exclusion term(s) over 1 conjunct(s)
  - compiled lineage served from cache
  - lineage width estimate 3 within budget 22; treewidth WMC selected
";
    assert_eq!(again, expected);
}

#[test]
fn goal_explanations_agree_with_text_evaluation_reports() {
    // The text front-end route (cost model + lowering) must match what
    // `evaluate_text` actually does, per goal, on a warmed engine.
    let engine = Engine::new();
    let tid = workloads::path_tid(6, 0.5, 13);
    let src = "?- R(x, y), R(y, z).\n?- R(x, y).";
    let reports = engine.evaluate_text(&tid, src).unwrap();
    let explanations = engine.explain_text(&tid, src).unwrap();
    assert_eq!(reports.len(), explanations.len());
    for (index, (goal, explanation)) in reports.goals.iter().zip(&explanations).enumerate() {
        assert_eq!(
            explanation.route.as_ref().map(|r| r.route),
            goal.report.route,
            "goal {index}: route"
        );
    }
    // Re-evaluate warm so the cache-provenance comparison is meaningful.
    let warm_reports = engine.evaluate_text(&tid, src).unwrap();
    let warm = engine.explain_text(&tid, src).unwrap();
    for (index, (goal, explanation)) in warm_reports.goals.iter().zip(&warm).enumerate() {
        assert_agreement(explanation, &goal.report, &format!("goal {index}"));
    }
}

/// Explains `query` on a warmed engine and checks the explanation against
/// a warm evaluation: `Refused` exactly when `evaluate` errors, with the
/// error's exact text; otherwise the same back-end, gates and width.
fn assert_explain_matches_evaluate<R: stuc::Representation + ?Sized>(
    engine: &Engine,
    representation: &R,
    query: &R::Query,
    context: &str,
) {
    let _ = engine.evaluate(representation, query);
    let explanation = engine.explain(representation, query).unwrap();
    match engine.evaluate(representation, query) {
        Err(error) => {
            assert_eq!(explanation.outcome, ExplainOutcome::Refused, "{context}");
            assert_eq!(
                explanation.refusal.as_deref(),
                Some(error.to_string().as_str()),
                "{context}: refusal text"
            );
        }
        Ok(report) => {
            assert_ne!(explanation.outcome, ExplainOutcome::Refused, "{context}");
            assert_eq!(explanation.backend, report.backend, "{context}: backend");
            let circuit = explanation.circuit.as_ref();
            assert_eq!(
                circuit.map_or(0, |c| c.gates),
                report.circuit_gates,
                "{context}: gates"
            );
            assert_eq!(
                circuit.and_then(|c| c.decomposition_width),
                report.decomposition_width,
                "{context}: decomposition width"
            );
        }
    }
}

/// The text-goal counterpart of [`assert_explain_matches_evaluate`]:
/// `explain_goal` against `evaluate_goal`, both on a warmed engine.
fn assert_goal_explain_matches_evaluate<R>(
    engine: &Engine,
    representation: &R,
    src: &str,
    context: &str,
) where
    R: stuc::Representation<Query = ConjunctiveQuery> + ?Sized,
{
    let program = stuc::lang::parse_program(src).unwrap();
    let rules = program.rules();
    let goal = &program.queries()[0].goal;
    let _ = engine.evaluate_goal(representation, goal, &rules);
    let explanation = engine.explain_goal(representation, goal, &rules).unwrap();
    match engine.evaluate_goal(representation, goal, &rules) {
        Err(error) => {
            assert_eq!(explanation.outcome, ExplainOutcome::Refused, "{context}");
            assert_eq!(
                explanation.refusal.as_deref(),
                Some(error.to_string().as_str()),
                "{context}: refusal text"
            );
        }
        Ok(evaluation) => {
            let report = &evaluation.report;
            assert_ne!(explanation.outcome, ExplainOutcome::Refused, "{context}");
            assert_eq!(explanation.backend, report.backend, "{context}: backend");
            assert_eq!(
                explanation.route.as_ref().map(|r| r.route),
                report.route,
                "{context}: route"
            );
            let circuit = explanation.circuit.as_ref();
            assert_eq!(
                circuit.map_or(0, |c| c.gates),
                report.circuit_gates,
                "{context}: gates"
            );
            assert_eq!(
                circuit.and_then(|c| c.decomposition_width),
                report.decomposition_width,
                "{context}: decomposition width"
            );
        }
    }
}

#[test]
fn explain_agrees_with_evaluate_under_every_policy_and_budget() {
    use stuc::BackendPolicy;

    let tid = workloads::path_tid(6, 0.5, 11);
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let ci = CInstance::table1_example();
    let mut weights = Weights::new();
    weights.set(ci.events().find("pods").unwrap(), 0.8);
    weights.set(ci.events().find("stoc").unwrap(), 0.3);
    let pc = ci.with_probabilities(weights);
    let trip = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();
    let doc = PrXmlDocument::figure1_example();
    let musician = PrxmlQuery::LabelExists("musician".into());

    let policies = [
        BackendPolicy::Auto,
        BackendPolicy::Fixed(BackendKind::SafePlan),
        BackendPolicy::Fixed(BackendKind::TreewidthWmc),
        BackendPolicy::Fixed(BackendKind::Dpll),
        BackendPolicy::Fixed(BackendKind::Enumeration),
    ];
    for policy in policies {
        for budget in [None, Some(1)] {
            let mut builder = Engine::builder().policy(policy);
            if let Some(budget) = budget {
                builder = builder.width_budget(budget);
            }
            let engine = builder.build();
            let context = |what: &str| format!("{policy:?}, budget {budget:?}: {what}");

            assert_explain_matches_evaluate(
                &engine,
                &tid,
                &hierarchical,
                &context("tid hierarchical"),
            );
            assert_explain_matches_evaluate(&engine, &tid, &self_join, &context("tid self-join"));
            assert_explain_matches_evaluate(&engine, &pc, &trip, &context("pc instance"));
            assert_explain_matches_evaluate(&engine, &doc, &musician, &context("prxml"));

            assert_goal_explain_matches_evaluate(
                &engine,
                &tid,
                "?- R(x, y).",
                &context("tid hierarchical goal"),
            );
            assert_goal_explain_matches_evaluate(
                &engine,
                &tid,
                "?- R(x, y), R(y, z).",
                &context("tid self-join goal"),
            );
            assert_goal_explain_matches_evaluate(
                &engine,
                &pc,
                "?- Trip(x, \"Paris_CDG\").",
                &context("pc instance goal"),
            );
        }
    }
}
