//! The query planner: the one place the engine decides how a query runs.
//!
//! The paper makes one decision per query. A safe query takes the
//! extensional route; any other query takes the lineage route over a tree
//! decomposition, and the circuit's width decides which counting back-end
//! can run it. [`Engine::plan`] makes that decision for a programmatic
//! query and [`Engine::plan_goal`] for a textual goal, routed by the cost
//! model. Both return a plan value: the outcome (safe plan, circuit, or
//! the exact error evaluation would refuse with), the back-end, the
//! compiled lineage with its cache provenance, and the strategy notes.
//!
//! `evaluate`, `evaluate_goal` and `reevaluate_with_weights*` execute a
//! plan; `explain` and `explain_goal` render the same plan. Planning does
//! the cache lookups (and, on a miss, the compilation) that evaluation
//! needs, but never a counting sweep.

use std::sync::Arc;
use std::time::Duration;

use super::backend::{
    Backend, DpllBackend, EnumerationBackend, EvaluationTask, SafePlanBackend, TreewidthWmcBackend,
};
use super::explain::SafePlanEligibility;
use super::report::{BackendKind, BackendPolicy, EvaluationReport};
use super::representation::Representation;
use super::{CacheFlags, CompiledLineage, Engine, StucError};
use stuc_circuit::weights::Weights;
use stuc_lang::ast::{RuleAst, UnionAst};
use stuc_lang::cost::{CostModel, Route, RouteDecision};
use stuc_lang::lower::{lower_goal, LoweredGoal};
use stuc_lang::LangError;
use stuc_obs::timer::{StageRecorder, StageTimings};
use stuc_query::cq::ConjunctiveQuery;

/// The plan of one query (or of one inclusion–exclusion term of a goal).
/// Its outcome is one of three: the safe plan runs (no lineage, no
/// refusal), the counting back-end sweeps the lineage, or evaluation
/// refuses with [`QueryPlan::refusal`].
#[derive(Debug)]
pub(crate) struct QueryPlan {
    /// The compiled lineage and the caches that served it; `None` on the
    /// safe-plan route and for refusals decided before any lineage exists.
    pub(crate) lineage: Option<(Arc<CompiledLineage>, CacheFlags)>,
    /// The exact error evaluation returns instead of a probability.
    pub(crate) refusal: Option<StucError>,
    /// The back-end that runs; for a refusal, the back-end that refuses.
    pub(crate) backend: BackendKind,
    pub(crate) safe_plan: SafePlanEligibility,
    /// The strategy notes the evaluation report carries.
    pub(crate) notes: Vec<String>,
}

impl QueryPlan {
    /// A refusal before any lineage is built: the pinned safe plan cannot
    /// run the task.
    fn refused(error: StucError) -> Self {
        QueryPlan {
            lineage: None,
            refusal: Some(error),
            backend: BackendKind::SafePlan,
            safe_plan: SafePlanEligibility::unavailable(),
            notes: Vec::new(),
        }
    }

    /// The report of one evaluation that ran this plan.
    pub(crate) fn report(
        &self,
        probability: f64,
        fact_count: usize,
        wall_time: Duration,
        stage_timings: StageTimings,
    ) -> EvaluationReport {
        let (decomposition_width, circuit_gates, flags) = match &self.lineage {
            Some((entry, flags)) => (entry.decomposition_width, entry.compiled.len(), *flags),
            None => (None, 0, CacheFlags::default()),
        };
        EvaluationReport {
            probability,
            backend: self.backend,
            decomposition_width,
            circuit_gates,
            fact_count,
            wall_time,
            decomposition_cached: flags.decomposition_cached,
            lineage_cached: flags.lineage_cached,
            notes: self.notes.clone(),
            // Only goals route through the cost model; their reports are
            // folded in `Engine::evaluate_goal`.
            route: None,
            trace_id: stuc_obs::next_trace_id(),
            stage_timings,
        }
    }

    /// The pipeline stages evaluation executes, in order.
    pub(crate) fn stages(&self) -> Vec<&'static str> {
        match &self.lineage {
            Some((_, flags)) => circuit_stages(*flags, self.refusal.is_some()),
            None if self.refusal.is_some() => Vec::new(),
            None => vec!["safe-plan"],
        }
    }
}

/// The plan of one textual goal: its lowering, the cost model's route
/// with policy forcing and the missing-extensional fallback applied, and
/// one [`QueryPlan`] per inclusion–exclusion term. Planning stops at the
/// first refused term, where evaluation would stop.
#[derive(Debug)]
pub(crate) struct GoalPlan {
    pub(crate) lowered: LoweredGoal,
    pub(crate) decision: RouteDecision,
    pub(crate) terms: Vec<QueryPlan>,
    /// The goal's notes followed by every term's, deduplicated.
    pub(crate) notes: Vec<String>,
}

impl GoalPlan {
    /// The first refused term's error: evaluation returns it.
    pub(crate) fn refusal(&self) -> Option<&StucError> {
        self.terms.iter().find_map(|term| term.refusal.as_ref())
    }

    /// The goal's back-end: the safe plan, or the first term's back-end.
    pub(crate) fn backend(&self) -> BackendKind {
        match self.decision.route {
            Route::SafePlan => BackendKind::SafePlan,
            Route::Circuit => self
                .terms
                .first()
                .map_or(BackendKind::TreewidthWmc, |term| term.backend),
        }
    }

    /// The circuit terms' compiled lineages, in term order.
    pub(crate) fn lineages(&self) -> impl Iterator<Item = &(Arc<CompiledLineage>, CacheFlags)> {
        self.terms.iter().filter_map(|term| term.lineage.as_ref())
    }

    /// The cache flags of every circuit term, ANDed; `None` when no term
    /// compiled a lineage.
    pub(crate) fn cache_flags(&self) -> Option<CacheFlags> {
        self.lineages()
            .map(|(_, flags)| *flags)
            .reduce(|a, b| CacheFlags {
                decomposition_cached: a.decomposition_cached && b.decomposition_cached,
                lineage_cached: a.lineage_cached && b.lineage_cached,
            })
    }

    /// The pipeline stages evaluation executes, in order.
    pub(crate) fn stages(&self) -> Vec<&'static str> {
        let mut stages = vec!["lower", "route"];
        let refused = self.refusal().is_some();
        match (self.decision.route, self.cache_flags()) {
            (Route::SafePlan, _) if !refused => stages.push("safe-plan"),
            (Route::Circuit, Some(flags)) => stages.extend(circuit_stages(flags, refused)),
            _ => {}
        }
        stages
    }
}

fn circuit_stages(flags: CacheFlags, refused: bool) -> Vec<&'static str> {
    let mut stages = vec!["cache-lookup"];
    if !flags.lineage_cached {
        stages.extend(["decompose", "compile-lineage"]);
    }
    if !refused {
        stages.push("sweep");
    }
    stages
}

fn push_unique(notes: &mut Vec<String>, note: String) {
    if !notes.contains(&note) {
        notes.push(note);
    }
}

fn no_extensional_path(representation: &(impl Representation + ?Sized)) -> StucError {
    StucError::BackendUnsupported {
        backend: BackendKind::SafePlan.name(),
        reason: format!(
            "{} offers no extensional evaluation; only TID instances do",
            representation.kind()
        ),
    }
}

impl Engine {
    /// Plans `query` on `representation`. With `reweighting` the caller
    /// supplies its own weights, which rules the extensional safe plan out
    /// (it reads the instance's own probabilities).
    pub(crate) fn plan<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        reweighting: bool,
        rec: &mut StageRecorder,
    ) -> Result<QueryPlan, StucError> {
        const PINNED_SAFE_PLAN: BackendPolicy = BackendPolicy::Fixed(BackendKind::SafePlan);
        if reweighting {
            if self.config.policy == PINNED_SAFE_PLAN {
                return Ok(QueryPlan::refused(StucError::BackendUnsupported {
                    backend: BackendKind::SafePlan.name(),
                    reason: "weight re-evaluation runs on the lineage circuit; the extensional \
                             safe plan reads the instance's own probabilities"
                        .into(),
                }));
            }
            let safe_plan = SafePlanEligibility::unavailable();
            return self.plan_circuit(representation, query, safe_plan, Vec::new(), rec);
        }

        let safe_plan = representation
            .extensional(query)
            .map_or_else(SafePlanEligibility::unavailable, |extensional| {
                SafePlanEligibility::of(extensional.query)
            });
        let mut notes = Vec::new();
        // `hierarchical` is `None` exactly when there is no extensional path.
        match (self.config.policy, safe_plan.hierarchical) {
            (PINNED_SAFE_PLAN, None) => {
                return Ok(QueryPlan::refused(no_extensional_path(representation)));
            }
            (PINNED_SAFE_PLAN, _) => {
                return Ok(Self::plan_safe(safe_plan, notes));
            }
            (BackendPolicy::Auto, Some(true)) => match safe_plan.refusal() {
                None => {
                    notes.push("query is hierarchical; extensional safe plan selected".to_string());
                    return Ok(Self::plan_safe(safe_plan, notes));
                }
                Some(refusal) => {
                    let refusal = StucError::from(refusal);
                    notes.push(format!("safe plan refused ({refusal}); using lineage"));
                }
            },
            (BackendPolicy::Auto, Some(false)) => {
                notes.push("query is not hierarchical; extensional safe plan skipped".to_string());
            }
            _ => {}
        }
        self.plan_circuit(representation, query, safe_plan, notes, rec)
    }

    /// The extensional route: runs unless the safe plan would refuse.
    fn plan_safe(safe_plan: SafePlanEligibility, notes: Vec<String>) -> QueryPlan {
        QueryPlan {
            lineage: None,
            refusal: safe_plan.refusal().map(StucError::from),
            backend: BackendKind::SafePlan,
            safe_plan,
            notes,
        }
    }

    /// The lineage route: fetches (or builds) the compiled lineage and picks
    /// the counting back-end by the circuit's width.
    fn plan_circuit<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        safe_plan: SafePlanEligibility,
        mut notes: Vec<String>,
        rec: &mut StageRecorder,
    ) -> Result<QueryPlan, StucError> {
        let (entry, flags) = self.compiled_lineage(representation, query, rec)?;
        if flags.lineage_cached {
            notes.push("compiled lineage served from cache".to_string());
        } else if flags.decomposition_cached {
            notes.push("structure decomposition served from cache".to_string());
        }
        notes.extend(entry.build_notes.iter().cloned());

        let budget = self.config.width_budget;
        let mut refusal = None;
        let backend = match self.config.policy {
            BackendPolicy::Fixed(BackendKind::TreewidthWmc) => {
                // The sweep's own refusal check, so the plan refuses with
                // exactly the error the sweep would raise.
                if let Err(error) = entry.compiled.ensure_width(budget) {
                    refusal = Some(error.into());
                }
                BackendKind::TreewidthWmc
            }
            BackendPolicy::Fixed(BackendKind::SafePlan) => {
                unreachable!("a pinned safe plan never takes the lineage route")
            }
            BackendPolicy::Fixed(kind) => kind,
            BackendPolicy::Auto => {
                // `width()` is the decomposition width; the WMC back-end
                // refuses on bag size (width + 1), hence the strict `<`.
                let width = entry.compiled.width();
                if width < budget {
                    notes.push(format!(
                        "lineage width estimate {width} within budget {budget}; treewidth WMC selected"
                    ));
                    BackendKind::TreewidthWmc
                } else {
                    notes.push(format!(
                        "lineage width estimate {width} exceeds budget {budget}; DPLL selected"
                    ));
                    BackendKind::Dpll
                }
            }
        };
        Ok(QueryPlan {
            lineage: Some((entry, flags)),
            refusal,
            backend,
            safe_plan,
            notes,
        })
    }

    /// The cost model's route for a lowered goal, priced with the
    /// instance's relation statistics and discounted when every term's
    /// lineage is already compiled (probed without building anything).
    pub(crate) fn route_goal<R>(&self, representation: &R, lowered: &LoweredGoal) -> RouteDecision
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let stats = representation.relation_stats().unwrap_or_default();
        let cached = !lowered.terms.is_empty()
            && lowered
                .terms
                .iter()
                .filter_map(|t| t.query.as_ref())
                .all(|q| {
                    self.lineage_lookup(representation, q)
                        .is_some_and(|(_, hit)| hit.is_some())
                });
        CostModel::default().choose(lowered, &stats, cached)
    }

    /// Plans one parsed goal with `rules` in scope: lowers it, routes it
    /// with the cost model (a pinned back-end forces the route: it either
    /// runs or errors, it never silently reroutes), and plans every term on
    /// the chosen route.
    pub(crate) fn plan_goal<R>(
        &self,
        representation: &R,
        goal: &UnionAst,
        rules: &[&RuleAst],
        rec: &mut StageRecorder,
    ) -> Result<GoalPlan, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        // Safety analysis runs inside lowering, so "lower" covers both.
        let lowered = lower_goal(goal, rules).map_err(LangError::from)?;
        rec.mark("lower");
        let mut decision = self.route_goal(representation, &lowered);
        rec.mark("route");
        match self.config.policy {
            BackendPolicy::Fixed(BackendKind::SafePlan) => decision.route = Route::SafePlan,
            BackendPolicy::Fixed(_) => decision.route = Route::Circuit,
            BackendPolicy::Auto => {}
        }
        let mut notes = vec![decision.summary(), lowering_note(&lowered)];
        let queries: Vec<&ConjunctiveQuery> = lowered
            .terms
            .iter()
            .filter_map(|t| t.query.as_ref())
            .collect();

        // The safe-plan route needs the extensional fast path; when the
        // representation offers none, a pinned safe plan refuses and a
        // cost-model choice falls back to circuits.
        if decision.route == Route::SafePlan
            && queries
                .iter()
                .any(|q| representation.extensional(q).is_none())
        {
            if self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan) {
                let terms = vec![QueryPlan::refused(no_extensional_path(representation))];
                return Ok(GoalPlan {
                    lowered,
                    decision,
                    terms,
                    notes,
                });
            }
            decision.route = Route::Circuit;
            notes.push(
                "representation offers no extensional evaluation; circuit route used".to_string(),
            );
        }
        if decision.route == Route::Circuit && queries.is_empty() {
            notes.push("no satisfiable terms remained after lowering".to_string());
        }

        let mut terms = Vec::new();
        for query in queries {
            let term = match decision.route {
                Route::SafePlan => {
                    let extensional = representation
                        .extensional(query)
                        .expect("checked above: every term offers the extensional path");
                    Self::plan_safe(SafePlanEligibility::of(extensional.query), Vec::new())
                }
                Route::Circuit => {
                    stuc_fault::budget::check("inclusion-exclusion term")?;
                    rec.skip();
                    let safe_plan = SafePlanEligibility::unavailable();
                    self.plan_circuit(representation, query, safe_plan, Vec::new(), rec)?
                }
            };
            for note in &term.notes {
                push_unique(&mut notes, note.clone());
            }
            let refused = term.refusal.is_some();
            terms.push(term);
            if refused {
                break;
            }
        }
        Ok(GoalPlan {
            lowered,
            decision,
            terms,
            notes,
        })
    }

    /// Runs `plan` for its probability: the safe plan on the instance's own
    /// probabilities, or the counting back-end over the compiled lineage
    /// under `weight_override` or the instance's weights. A refused plan
    /// returns its error, on the circuit route after fetching the weights.
    pub(crate) fn run_plan<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        plan: &QueryPlan,
        weight_override: Option<&Weights>,
        rec: &mut StageRecorder,
    ) -> Result<f64, StucError> {
        let Some((entry, _)) = &plan.lineage else {
            if let Some(error) = &plan.refusal {
                return Err(error.clone());
            }
            let extensional = representation
                .extensional(query)
                .expect("the planner picks the safe plan only on the extensional path");
            let probability = SafePlanBackend.solve(&EvaluationTask::Extensional {
                tid: extensional.tid,
                query: extensional.query,
            })?;
            rec.mark("safe-plan");
            return Ok(probability);
        };
        let own_weights;
        let weights = match weight_override {
            Some(weights) => weights,
            None => {
                own_weights = representation.weights()?;
                &own_weights
            }
        };
        if let Some(error) = &plan.refusal {
            return Err(error.clone());
        }
        rec.skip();
        let probability = self
            .counting_backend(plan.backend)
            .solve(&EvaluationTask::Compiled {
                lineage: &entry.compiled,
                weights,
            })?;
        rec.mark("sweep");
        Ok(probability)
    }

    /// The configured counting back-end of `kind`.
    pub(crate) fn counting_backend(&self, kind: BackendKind) -> Box<dyn Backend> {
        match kind {
            BackendKind::TreewidthWmc => Box::new(TreewidthWmcBackend {
                heuristic: self.config.heuristic,
                max_bag_size: self.config.width_budget,
            }),
            BackendKind::Dpll => Box::new(DpllBackend {
                max_branches: self.config.dpll_max_branches,
            }),
            BackendKind::Enumeration => Box::new(EnumerationBackend),
            BackendKind::SafePlan => unreachable!("the safe plan runs no lineage circuit"),
        }
    }
}

/// A deterministic, float-free one-liner describing what lowering did —
/// golden-output friendly for the REPL.
pub(crate) fn lowering_note(lowered: &LoweredGoal) -> String {
    let mut parts = vec![format!(
        "lowered to {} inclusion-exclusion term(s) over {} conjunct(s)",
        lowered.terms.len(),
        lowered.disjunct_count
    )];
    if lowered.used_rules {
        parts.push("rules unfolded".to_string());
    }
    if lowered.has_negation {
        parts.push("ground negation expanded".to_string());
    }
    parts.join("; ")
}
