//! The traced run's layer calls: after a sampled op, the benchmark replays
//! the calls the op made into each layer's public functions, on the same
//! inputs, and times each one.
//!
//! The warm replay makes the calls a warm `Engine::evaluate_goal` makes, as
//! often as it makes them today: per goal one lowering, one
//! `relation_stats`, one route; per circuit-routed term two full-instance
//! identity passes (the route's cache probe and the lineage-cache lookup),
//! one `weights` and one sweep. The cold replay then rebuilds each circuit
//! term's compiled lineage stage by stage, which a warm op never does:
//! those layers show what set-up (and a cache miss) pays.
//!
//! These call counts are a model of the engine, written down here; they do
//! not follow the engine when it changes. [`identity_us`] does: it reads
//! the identity time from the op's own report.

use std::hint::black_box;
use std::sync::Arc;

use stuc::circuit::{CompiledCircuit, SweepArena, Weights};
use stuc::core::engine::Representation;
use stuc::data::tid::TidInstance;
use stuc::graph::{decompose_with_heuristic, EliminationHeuristic};
use stuc::lang::ast::RuleAst;
use stuc::lang::lower::lower_goal;
use stuc::lang::{parse_program, CostModel, Route};
use stuc::query::cq::ConjunctiveQuery;
use stuc::Engine;
use stuc::EvaluationReport;

use crate::trace::OpScope;

/// The engine's default elimination heuristic (`Engine::new`).
const HEURISTIC: EliminationHeuristic = EliminationHeuristic::MinDegree;

/// Microseconds one evaluation spent on instance identity, as the engine
/// timed it inside the op: its `route` stage (relation statistics and the
/// route's lineage-cache probe, which hashes the instance) plus its
/// `cache-lookup` stage (the lineage-cache key, which hashes it again).
/// Unlike the replayed `engine.fingerprint` calls, this moves when the
/// engine hashes the instance fewer or more times.
pub fn identity_us(report: &EvaluationReport) -> f64 {
    ["route", "cache-lookup"]
        .iter()
        .filter_map(|stage| report.stage_timings.get(stage))
        .map(|d| d.as_secs_f64() * 1e6)
        .sum()
}

/// Replays the warm and cold layer calls of evaluating the program `src`
/// (rules and goals) on `instance`.
pub fn replay_text(
    scope: &mut OpScope,
    engine: &Engine,
    instance: &TidInstance,
    src: &str,
) -> Result<(), String> {
    let program = scope
        .time("lang.parse", || parse_program(src))
        .map_err(|e| e.to_string())?;
    let in_scope: Vec<&RuleAst> = program.rules();
    for query in program.queries() {
        let goal = scope
            .time("engine.evaluate_goal", || {
                engine.evaluate_goal(instance, &query.goal, &in_scope)
            })
            .map_err(|e| e.to_string())?;
        let lowered = scope
            .time("lang.lower", || lower_goal(&query.goal, &in_scope))
            .map_err(|e| e.to_string())?;
        let stats = scope
            .time("engine.relation_stats", || instance.relation_stats())
            .unwrap_or_default();
        let terms: Vec<&ConjunctiveQuery> = lowered
            .terms
            .iter()
            .filter_map(|t| t.query.as_ref())
            .collect();
        // The route's cache probe hashes the instance once per term until
        // a term misses; warm, every term hits.
        let probes = if goal.report.lineage_cached {
            terms.len()
        } else {
            terms.len().min(1)
        };
        for _ in 0..probes {
            scope.time("engine.fingerprint", || black_box(instance.fingerprint()));
        }
        let cached = goal.report.lineage_cached;
        scope.time("lang.route", || {
            black_box(CostModel::default().choose(&lowered, &stats, cached))
        });
        if goal.decision.route == Route::Circuit {
            for term in terms {
                scope.time("engine.fingerprint", || black_box(instance.fingerprint()));
                let weights = scope
                    .time("engine.weights", || instance.weights())
                    .map_err(|e| e.to_string())?;
                replay_cold(scope, engine, instance, term, &weights)?;
            }
        }
    }
    Ok(())
}

/// Rebuilds the compiled lineage of `query` stage by stage and sweeps it
/// once: decomposition cache lookup, decomposition, lineage, simplification,
/// compilation (circuit-graph decomposition included), plan build, sweep.
pub fn replay_cold(
    scope: &mut OpScope,
    engine: &Engine,
    instance: &TidInstance,
    query: &ConjunctiveQuery,
    weights: &Weights,
) -> Result<(), String> {
    scope.time("graph.decomposition_for", || {
        black_box(engine.decomposition_for(instance))
    });
    let graph = instance.structure_graph();
    let decomposition = scope.time("graph.decompose", || {
        decompose_with_heuristic(&graph, HEURISTIC)
    });
    scope.count("graph.width", decomposition.width() as f64);
    let lineage = scope
        .time("lineage.build", || instance.lineage(query, &decomposition))
        .map_err(|e| e.to_string())?;
    let simplified = scope
        .time("lineage.simplify", || lineage.circuit.simplify())
        .map_err(|e| e.to_string())?;
    scope.count("lineage.gates", simplified.len() as f64);
    let compiled = scope
        .time("circuit.compile", || {
            let compiled = CompiledCircuit::compile(Arc::new(simplified), HEURISTIC)?;
            black_box(compiled.width());
            Ok::<_, stuc::circuit::circuit::CircuitError>(compiled)
        })
        .map_err(|e| e.to_string())?;
    let plan = scope
        .time("circuit.plan_build", || compiled.try_sweep_plan())
        .map_err(|e| e.to_string())?
        .cloned();
    let Some(plan) = plan else {
        return Err(format!(
            "lineage of {query:?} is too wide for a sweep plan (width {})",
            compiled.width()
        ));
    };
    scope.count("circuit.table_entries", plan.table_entry_count() as f64);
    // One untimed run sizes the arena, as the engine's warm arena is.
    let mut arena = SweepArena::new();
    plan.run(weights, &mut arena).map_err(|e| e.to_string())?;
    scope
        .time("circuit.sweep", || plan.run(weights, &mut arena))
        .map_err(|e| e.to_string())?;
    Ok(())
}
