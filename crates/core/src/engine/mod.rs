//! # The unified STUC engine
//!
//! One façade over every uncertain representation and every probability
//! back-end in the workspace. The paper's claim is that a *single*
//! structural pipeline — instance → tree decomposition → automaton/lineage →
//! circuit → weighted model counting — uniformly covers tuple-independent
//! instances, c-/pc-/pcc-instances and probabilistic XML; this module is
//! that uniformity as an API:
//!
//! * [`Representation`] — what the engine needs from a representation
//!   (structure graph, lineage constructor, weights, identity). Implemented
//!   by `TidInstance`, `CInstance`, `PcInstance`, `PccInstance` and
//!   `PrXmlDocument`.
//! * [`Backend`] — one probability strategy. Four implementations:
//!   [`SafePlanBackend`], [`TreewidthWmcBackend`], [`DpllBackend`],
//!   [`EnumerationBackend`].
//! * [`Engine`] / [`EngineBuilder`] — configuration (heuristic, width
//!   budget, back-end policy, batch worker count) plus two fingerprint-keyed
//!   caches: structure decompositions per instance, and compiled lineage
//!   circuits per `(instance, query)` pair. [`Engine::evaluate`] is the
//!   single-query entry point; it returns an [`EvaluationReport`] naming the
//!   back-end that actually ran, the decomposition width, the lineage gate
//!   count and the wall time.
//! * [`Engine::evaluate_batch`] — the same pipeline over a whole query
//!   batch at once: a scoped-thread worker pool shares both caches and
//!   returns a [`BatchReport`] of per-query reports plus aggregate
//!   cache-hit and thread statistics.
//! * [`Engine::reevaluate_with_weights`] — the what-if fast path: re-runs a
//!   previously evaluated query under a different weight table, reusing the
//!   cached compiled lineage so only the counting sweep is paid.
//! * [`Engine::evaluate_text`] — the textual front-end (`stuc-lang`): a
//!   datalog/UCQ program is parsed, safety-checked and lowered to signed
//!   sums of conjunctive queries, and a cost model routes each goal to the
//!   safe plan or the compiled circuit, recorded in
//!   [`EvaluationReport::route`].
//! * [`Engine::marginals`] / [`Engine::sample_worlds`] /
//!   [`Engine::most_probable_world`] — the posterior-inference modes
//!   (`stuc-infer`): all-fact marginals in one backward sweep, exact world
//!   sampling by top-down descent, and max-product most-probable-world.
//!   All three run on the same cached compiled lineage as the counting
//!   modes and return an [`InferenceReport`].
//! * [`StucError`] — the single error enum every per-crate error converts
//!   into.
//!
//! ## Automatic strategy selection
//!
//! One planner makes the routing decision for every entry point:
//! [`Engine::evaluate`], [`Engine::evaluate_goal`] and the re-weighting
//! paths execute its plan, and [`Engine::explain`] renders the same plan.
//! Under [`BackendPolicy::Auto`] (the default), the plan:
//!
//! 1. tries the **safe plan** when the representation offers an extensional
//!    fast path (TID instances) and the query is hierarchical and
//!    self-join-free — no circuit is built at all;
//! 2. otherwise builds the lineage circuit (decomposition-guided automaton
//!    run for TIDs, match enumeration or shared-annotation extension for the
//!    other formalisms) and picks **treewidth WMC** when the circuit's
//!    estimated width fits the budget;
//! 3. otherwise picks **DPLL**, which assumes nothing about width.
//!
//! Every decision is recorded in [`EvaluationReport::notes`].
//!
//! ```
//! use stuc_core::engine::Engine;
//! use stuc_data::tid::TidInstance;
//! use stuc_query::cq::ConjunctiveQuery;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a", "b"], 0.5);
//! tid.add_fact_named("R", &["b", "c"], 0.5);
//! let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
//!
//! let engine = Engine::new();
//! let report = engine.evaluate(&tid, &query).unwrap();
//! assert!((report.probability - 0.25).abs() < 1e-9);
//! println!("computed by {}", report.backend_name());
//! ```

pub mod backend;
pub mod batch;
pub mod cache;
pub mod error;
pub mod explain;
pub(crate) mod metrics;
mod plan;
pub mod report;
pub mod representation;
pub mod text;
pub mod update;

pub use backend::{
    Backend, DpllBackend, EnumerationBackend, EvaluationTask, SafePlanBackend, TreewidthWmcBackend,
};
pub use cache::{CacheCounters, EngineCacheStats};
pub use error::StucError;
pub use explain::{
    CacheExplanation, CacheSideExplanation, CircuitExplanation, ExplainOutcome, QueryExplanation,
    RouteExplanation, SafePlanEligibility, SweepPlanStats,
};
pub use report::{BackendKind, BackendPolicy, BatchReport, EvaluationReport};
pub use representation::{ExtensionalInput, LineageOutcome, ReprKind, Representation};
pub use stuc_fault::{BudgetError, CancelHandle, EvalBudget};
pub use stuc_incr::{Delta, DeltaOp, Updatable, UpdateLog};
pub use stuc_infer::{
    InferError, InferenceReport, Marginals, MostProbableWorld, SampledWorlds, World, WorldSampler,
};
pub use stuc_obs::timer::{Stage, StageTimings};
pub use text::{GoalEvaluation, TextEvaluation};
pub use update::UpdateReport;

use cache::ShardedCache;
use metrics::{decomposition_cache_metrics, engine_metrics, lineage_cache_metrics};
use representation::{fingerprint_debug, fingerprint_debug_pair_with, FNV_OFFSET_BASIS};
use std::sync::Arc;
use std::time::Duration;
use stuc_circuit::circuit::Circuit;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::weights::Weights;
use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc_graph::TreeDecomposition;
use stuc_obs::timer::{StageRecorder, Stopwatch};
use stuc_obs::{slowlog, trace};

/// Builder for [`Engine`]: heuristic, width budget, back-end policy and
/// cache behaviour.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    heuristic: EliminationHeuristic,
    width_budget: usize,
    policy: BackendPolicy,
    cache_decompositions: bool,
    cache_lineages: bool,
    cache_capacity: usize,
    cache_shards: usize,
    batch_threads: usize,
    dpll_max_branches: u64,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            heuristic: EliminationHeuristic::MinDegree,
            width_budget: 22,
            policy: BackendPolicy::Auto,
            cache_decompositions: true,
            cache_lineages: true,
            cache_capacity: 1024,
            cache_shards: cache::DEFAULT_SHARDS,
            batch_threads: 0,
            dpll_max_branches: DpllBackend::default().max_branches,
        }
    }
}

impl EngineBuilder {
    /// Elimination heuristic for the structure-graph decomposition, and
    /// the first candidate for circuit-graph decompositions (see
    /// [`stuc_circuit::wmc::TreewidthWmc::decompose_circuit_graph`]).
    pub fn heuristic(mut self, heuristic: EliminationHeuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Bag-size budget for the treewidth back-end; wider circuits make Auto
    /// fall back to DPLL (a fixed treewidth policy fails instead).
    pub fn width_budget(mut self, budget: usize) -> Self {
        self.width_budget = budget;
        self
    }

    /// Back-end selection policy (default: [`BackendPolicy::Auto`]).
    pub fn policy(mut self, policy: BackendPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for `policy(BackendPolicy::Fixed(kind))`.
    pub fn backend(self, kind: BackendKind) -> Self {
        self.policy(BackendPolicy::Fixed(kind))
    }

    /// Branch budget of the DPLL back-end.
    pub fn dpll_max_branches(mut self, budget: u64) -> Self {
        self.dpll_max_branches = budget;
        self
    }

    /// Disables the fingerprint-keyed decomposition cache.
    pub fn without_decomposition_cache(mut self) -> Self {
        self.cache_decompositions = false;
        self
    }

    /// Disables the compiled-lineage cache: every evaluation rebuilds the
    /// lineage circuit, and [`Engine::reevaluate_with_weights`] loses its
    /// fast path (it still answers correctly, it just recompiles).
    pub fn without_lineage_cache(mut self) -> Self {
        self.cache_lineages = false;
        self
    }

    /// Maximum number of entries in each engine cache (decompositions,
    /// compiled lineages); default 1024. When a cache is full, inserting a
    /// new entry evicts the **oldest-inserted** one first (FIFO), so
    /// long-running engines serving evolving instances stay memory-bounded
    /// without manual [`Engine::clear_cache`] calls and churn cannot evict
    /// what was just cached. A capacity of 0 disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Number of lock shards in each engine cache (default 16). More shards
    /// means concurrent readers and writers on *different* fingerprints are
    /// less likely to touch the same lock; the capacity bound stays global
    /// regardless of the shard count. Clamped to at least 1.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Number of worker threads for [`Engine::evaluate_batch`]; `0` (the
    /// default) uses [`std::thread::available_parallelism`]. The count is
    /// always additionally capped by the batch size.
    pub fn batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        // A disabled cache is a capacity-0 cache: same no-storage behaviour,
        // one code path.
        let decomposition_capacity = if self.cache_decompositions {
            self.cache_capacity
        } else {
            0
        };
        let lineage_capacity = if self.cache_lineages {
            self.cache_capacity
        } else {
            0
        };
        let shards = self.cache_shards;
        Engine {
            config: self,
            cache: ShardedCache::with_metrics(
                decomposition_capacity,
                shards,
                decomposition_cache_metrics(),
            ),
            lineage_cache: ShardedCache::with_metrics(
                lineage_capacity,
                shards,
                lineage_cache_metrics(),
            ),
        }
    }
}

/// The unified evaluation engine: one `evaluate` call over every uncertain
/// representation, with pluggable and auto-selected back-ends. See the
/// [module docs](self) for the selection rules.
///
/// The engine is `Send + Sync` and cheaply shareable behind an
/// `Arc<Engine>`: both caches are [sharded, clone-on-read maps](cache)
/// whose hot path (a warm hit) takes only one shard's read lock for the
/// duration of an `Arc` clone, and whose miss path never holds any lock
/// across compilation — workers compile privately and publish under
/// first-writer-wins. [`Engine::evaluate_batch`] and the `stuc-serve`
/// worker pool both hammer one engine from many threads this way;
/// [`Engine::cache_stats`] exposes hit/miss counters so tests can prove
/// the sharing happened.
#[derive(Debug)]
pub struct Engine {
    config: EngineBuilder,
    /// Decompositions of structure graphs, keyed by representation
    /// fingerprint + heuristic. Entries are validated against the structure
    /// graph before reuse, so a fingerprint collision can never corrupt a
    /// result — it only costs a recomputation.
    cache: ShardedCache<(u64, EliminationHeuristic), Arc<TreeDecomposition>>,
    /// Compiled lineage circuits, keyed by `(instance fingerprint, query
    /// fingerprint, heuristic)`. A hit skips decomposition *and* lineage
    /// construction — probability re-evaluation under changed weights
    /// (what-if analysis, [`Engine::reevaluate_with_weights`]) pays only
    /// for the counting sweep. Entries additionally store the query's exact
    /// `Debug` rendering and a second, differently-seeded instance hash;
    /// both are checked on lookup, so a wrong reuse would need two
    /// simultaneous 64-bit hash collisions on the same query text.
    lineage_cache: ShardedCache<LineageKey, Arc<CompiledLineage>>,
}

/// Compile-time proof of the sharing contract: one `Arc<Engine>` may be
/// handed to any number of threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

/// Key of the compiled-lineage cache: instance fingerprint, query
/// fingerprint, elimination heuristic.
type LineageKey = (u64, u64, EliminationHeuristic);

/// A lineage-cache key with the exact query text and secondary instance
/// hash that a hit must match.
type LineageIdentity = (LineageKey, String, u64);

/// Offset basis of the secondary instance hash stored in lineage-cache
/// entries (the primary uses the standard FNV-1a basis).
const LINEAGE_CHECK_BASIS: u64 = 0x6c62_272e_07bb_0142;

/// A cached compiled lineage: everything about an `(instance, query)` pair
/// that does not depend on the probability weights.
#[derive(Debug)]
pub(crate) struct CompiledLineage {
    /// The compiled circuit (shared structure, cached circuit-graph
    /// decomposition).
    pub(crate) compiled: CompiledCircuit,
    /// Width of the structure-graph decomposition the lineage was built
    /// from, reported in [`EvaluationReport::decomposition_width`].
    pub(crate) decomposition_width: Option<usize>,
    /// Build-time strategy notes (e.g. an automaton-lineage fallback).
    pub(crate) build_notes: Vec<String>,
    /// Exact `Debug` rendering of the query, validated on every hit.
    pub(crate) query_repr: String,
    /// Secondary instance hash, validated on every hit.
    pub(crate) instance_check: u64,
    /// The query itself (type-erased): [`Engine::apply_update`] downcasts
    /// it back to re-derive delta lineages when the instance changes.
    pub(crate) query: Arc<dyn std::any::Any + Send + Sync>,
    /// Gate count of the circuit when it was last compiled: by a cold
    /// build, or by [`Engine::apply_update`] compacting a patched circuit
    /// in place. Reported by EXPLAIN next to the live gate count.
    pub(crate) cold_gates: usize,
    /// Dense-table volume ([`CompiledCircuit::table_volume`]) of the
    /// circuit when it was last compiled: the sweep-cost watermark. Patches
    /// only ever grow a circuit (deleted cones become constants, inserted
    /// cones are appended and the decomposition is repaired around them),
    /// so [`Engine::apply_update`] recompiles a patched circuit from its own
    /// source once its volume passes twice this watermark, keeping every
    /// sweep within a constant factor of a fresh compile's.
    pub(crate) cold_volume: usize,
}

impl CompiledLineage {
    /// A copy carrying a patched circuit and the instance's new secondary
    /// hash (and, when known, the patched structure-decomposition width).
    /// The compile watermarks carry over.
    pub(crate) fn with_patched_circuit(
        &self,
        compiled: CompiledCircuit,
        instance_check: u64,
        decomposition_width: Option<usize>,
    ) -> CompiledLineage {
        CompiledLineage {
            compiled,
            decomposition_width: decomposition_width.or(self.decomposition_width),
            build_notes: self.build_notes.clone(),
            query_repr: self.query_repr.clone(),
            instance_check,
            query: Arc::clone(&self.query),
            cold_gates: self.cold_gates,
            cold_volume: self.cold_volume,
        }
    }

    /// [`CompiledLineage::with_patched_circuit`] for a freshly compiled
    /// circuit: the compile watermarks restart from it.
    pub(crate) fn with_compiled_circuit(
        &self,
        compiled: CompiledCircuit,
        instance_check: u64,
        decomposition_width: Option<usize>,
    ) -> CompiledLineage {
        CompiledLineage {
            cold_gates: compiled.len(),
            cold_volume: compiled.table_volume(),
            ..self.with_patched_circuit(compiled, instance_check, decomposition_width)
        }
    }
}

/// The (primary, check) instance hashes of the lineage cache, computed in
/// one `Debug` pass — shared by the lookup path and the update path.
pub(crate) fn lineage_fingerprint_pair<R: Representation + ?Sized>(
    representation: &R,
) -> (u64, u64) {
    fingerprint_debug_pair_with(representation, FNV_OFFSET_BASIS, LINEAGE_CHECK_BASIS)
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default configuration (min-degree heuristic, width
    /// budget 22, automatic back-end selection, caching on).
    pub fn new() -> Engine {
        EngineBuilder::default().build()
    }

    /// An engine with default configuration that additionally switches the
    /// **process-global** span tracer on ([`stuc_obs::trace`]): every
    /// evaluation records named stage spans into the bounded ring buffer,
    /// exportable as Chrome trace-event JSON via
    /// [`stuc_obs::trace::chrome_trace_json`] (or `stuc-serve
    /// --trace-out=FILE`). The tracer outlives the engine; turn it back off
    /// with `stuc_obs::trace::set_enabled(false)`.
    pub fn with_tracing() -> Engine {
        trace::set_enabled(true);
        Engine::new()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The configured back-end policy.
    pub fn policy(&self) -> BackendPolicy {
        self.config.policy
    }

    /// Number of cached decompositions.
    pub fn cached_decompositions(&self) -> usize {
        self.cache.len()
    }

    /// Number of cached compiled lineages.
    pub fn cached_lineages(&self) -> usize {
        self.lineage_cache.len()
    }

    /// Hit/miss/entry counters of both engine caches — lifetime totals of
    /// validated hits and of misses (absent or failed-revalidation), plus
    /// lost publish races. Concurrency tests use these to prove that
    /// parallel workers actually shared compiled entries instead of each
    /// compiling privately.
    pub fn cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            decompositions: self.cache.counters(),
            lineages: self.lineage_cache.counters(),
        }
    }

    /// Drops all cached decompositions and compiled lineages.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.lineage_cache.clear();
    }

    /// Drops the cached decompositions and compiled lineages of **one**
    /// instance, identified by its [`Representation::fingerprint`] — the
    /// targeted alternative to the all-or-nothing [`Engine::clear_cache`].
    /// Returns the number of entries evicted.
    ///
    /// [`Engine::apply_update`] uses this on its fallback path: when an
    /// update cannot be patched, the stale instance's entries are evicted
    /// and rebuilt on demand instead of poisoning the caches.
    ///
    /// For the built-in representations the lineage cache shares the same
    /// instance hash, so both caches are swept; a custom
    /// [`Representation::fingerprint`] override only controls the
    /// decomposition cache.
    pub fn evict_instance(&self, fingerprint: u64) -> usize {
        self.cache.drain_matching(|key| key.0 == fingerprint).len()
            + self
                .lineage_cache
                .drain_matching(|key| key.0 == fingerprint)
                .len()
    }

    /// Evaluates a Boolean query on any [`Representation`], returning the
    /// probability together with full provenance of how it was computed.
    ///
    /// This is the one public entry point of the STUC system: TID,
    /// c-/pc-/pcc-instances and PrXML documents all go through here, with
    /// the back-end picked by the configured [`BackendPolicy`].
    pub fn evaluate<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<EvaluationReport, StucError> {
        let _span = trace::span("evaluate");
        let watch = Stopwatch::start();
        let result = self.evaluate_inner(representation, query, None);
        engine_metrics().evaluate.observe(&result, watch.elapsed());
        match &result {
            Ok(report) => {
                slowlog::global().note("evaluate", report.wall_time, report.trace_id, || {
                    format!(
                        "backend={} gates={} facts={}",
                        report.backend.name(),
                        report.circuit_gates,
                        report.fact_count
                    )
                });
            }
            Err(err) => note_eval_failure("evaluate", err, watch.elapsed()),
        }
        result
    }

    /// [`Engine::evaluate`] under a cooperative [`EvalBudget`]: the budget
    /// is installed for the calling thread and polled at bounded intervals
    /// inside every long-running stage (ordering, compilation, sweeps,
    /// branching). A tripped deadline surfaces as
    /// [`StucError::DeadlineExceeded`], a raised cancel flag as
    /// [`StucError::Cancelled`] — both name the stage that noticed. Partial
    /// artifacts of a tripped run are never published to the caches, so an
    /// identical re-run without the budget produces the exact answer.
    pub fn evaluate_with_budget<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        budget: &EvalBudget,
    ) -> Result<EvaluationReport, StucError> {
        self.budgeted(budget, || self.evaluate(representation, query))
    }

    /// Installs `budget` around `f`, records budget-check overhead into the
    /// `stuc_engine_budget_check_seconds` histogram, and counts trips.
    fn budgeted<T>(
        &self,
        budget: &EvalBudget,
        f: impl FnOnce() -> Result<T, StucError>,
    ) -> Result<T, StucError> {
        let (result, stats) = stuc_fault::budget::scope_with_stats(budget.clone(), f);
        let metrics = engine_metrics();
        metrics.budget_check_seconds.observe(stats.spent);
        match &result {
            Err(StucError::DeadlineExceeded { .. }) => metrics.deadline_exceeded.inc(),
            Err(StucError::Cancelled { .. }) => metrics.cancelled.inc(),
            _ => {}
        }
        result
    }

    /// Re-evaluates a query under a different weight table — the what-if
    /// fast path.
    ///
    /// The lineage circuit of a query depends only on the instance's *facts*
    /// and their correlation structure, never on the probabilities, so when
    /// only the weights change (sensitivity analysis, conditioning sweeps,
    /// weight-learning loops) the compiled lineage can be reused verbatim.
    /// This method looks the `(instance, query)` pair up in the engine's
    /// lineage cache — compiling it on a miss — and then runs only the
    /// counting back-end under `weights`, skipping decomposition and lineage
    /// construction entirely.
    ///
    /// `weights` must cover every event variable of the lineage; the
    /// extensional safe plan never runs here (it reads the instance's own
    /// probabilities), so the result is always computed from the circuit.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(6, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // compiles + caches the lineage
    ///
    /// // What if every fact were certain? Reuses the compiled lineage.
    /// let mut certain = tid.clone();
    /// for i in 0..certain.fact_count() {
    ///     certain.set_probability(stuc_data::instance::FactId(i), 1.0);
    /// }
    /// let report = engine
    ///     .reevaluate_with_weights(&tid, &query, &certain.fact_weights())
    ///     .unwrap();
    /// assert!(report.lineage_cached);
    /// assert!((report.probability - 1.0).abs() < 1e-9);
    /// ```
    pub fn reevaluate_with_weights<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        weights: &Weights,
    ) -> Result<EvaluationReport, StucError> {
        let _span = trace::span("reevaluate_with_weights");
        let watch = Stopwatch::start();
        let result = self.evaluate_inner(representation, query, Some(weights));
        engine_metrics()
            .reevaluate
            .observe(&result, watch.elapsed());
        result
    }

    /// Re-evaluates a query under **K** different weight tables in a single
    /// counting sweep — the multi-scenario what-if fast path.
    ///
    /// Where K calls to [`Engine::reevaluate_with_weights`] pay K cache
    /// lookups and K message-passing sweeps, this method fetches the
    /// compiled lineage once and runs the treewidth back-end's scenario
    /// lanes ([`CompiledCircuit::run_many`]): one traversal of the sweep
    /// plan with K `f64` lanes per table slot, so the structural work
    /// (masks, permutations, constraint checks) is shared by all scenarios.
    /// The per-scenario probabilities are identical to K sequential calls.
    ///
    /// One report is returned per scenario, in input order; shared fields
    /// (backend, widths, wall time of the whole call) are replicated.
    /// Back-ends without a lanes implementation (a fixed DPLL/enumeration
    /// policy, or Auto on an over-budget circuit) fall back to a sequential
    /// per-scenario loop. Like [`Engine::reevaluate_with_weights`], the
    /// extensional safe plan never runs here.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(6, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // compiles + caches the lineage
    ///
    /// // Sweep 8 what-if scenarios in one pass.
    /// let scenarios: Vec<_> = (1..=8)
    ///     .map(|k| {
    ///         let mut w = tid.clone();
    ///         for i in 0..w.fact_count() {
    ///             w.set_probability(stuc_data::instance::FactId(i), 0.1 * k as f64);
    ///         }
    ///         w.fact_weights()
    ///     })
    ///     .collect();
    /// let reports = engine
    ///     .reevaluate_with_weights_many(&tid, &query, &scenarios)
    ///     .unwrap();
    /// assert_eq!(reports.len(), 8);
    /// ```
    pub fn reevaluate_with_weights_many<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        scenarios: &[Weights],
    ) -> Result<Vec<EvaluationReport>, StucError> {
        let _span = trace::span("reevaluate_with_weights_many");
        let watch = Stopwatch::start();
        let result = self.reevaluate_many_inner(representation, query, scenarios);
        engine_metrics()
            .reevaluate
            .observe(&result, watch.elapsed());
        result
    }

    fn reevaluate_many_inner<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        scenarios: &[Weights],
    ) -> Result<Vec<EvaluationReport>, StucError> {
        if scenarios.is_empty() {
            return Ok(Vec::new());
        }
        let mut rec = StageRecorder::new();
        let mut plan = self.plan(representation, query, true, &mut rec)?;
        if let Some(error) = plan.refusal {
            return Err(error);
        }
        let (entry, _) = plan
            .lineage
            .as_ref()
            .expect("a reweighting plan takes the lineage route");
        let probabilities = if plan.backend == BackendKind::TreewidthWmc {
            plan.notes.push(format!(
                "{} scenarios evaluated in one lane sweep",
                scenarios.len()
            ));
            let many = entry
                .compiled
                .run_many(scenarios, self.config.width_budget)?;
            many.probabilities
        } else {
            // No lanes implementation for this back-end: sequential loop.
            plan.notes.push(format!(
                "{} scenarios evaluated sequentially by {} (no lane support)",
                scenarios.len(),
                plan.backend
            ));
            let backend = self.counting_backend(plan.backend);
            scenarios
                .iter()
                .map(|weights| {
                    backend.solve(&EvaluationTask::Compiled {
                        lineage: &entry.compiled,
                        weights,
                    })
                })
                .collect::<Result<Vec<f64>, StucError>>()?
        };
        rec.mark("sweep");
        let wall_time = rec.elapsed();
        let timings = rec.finish();
        Ok(probabilities
            .into_iter()
            .map(|probability| {
                plan.report(
                    probability,
                    representation.fact_count(),
                    wall_time,
                    timings.clone(),
                )
            })
            .collect())
    }

    /// Posterior marginals `P(fact | query)` of **every** fact variable, in
    /// one backward (outward) sweep over the compiled lineage — the first
    /// of the engine's three posterior-inference modes (see also
    /// [`Engine::sample_worlds`] and [`Engine::most_probable_world`]).
    ///
    /// Where n conditioned evaluations would pay n counting sweeps, the
    /// backward pass retains the upward sweep's node tables and reads off
    /// all n unnormalised marginals in a single reverse traversal: ~2–3×
    /// one WMC sweep in total. Fact variables the lineage never mentions
    /// are independent of the query and report their prior. The compiled
    /// lineage is shared with every other evaluation mode through the
    /// engine's lineage cache, so a warm what-if workload gets marginals
    /// for just the sweeps.
    ///
    /// Fails with [`StucError::Infer`] when `P(query) = 0` (the posterior
    /// is undefined) and refuses under a fixed safe-plan policy (no circuit
    /// is ever built there).
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let marginals = engine.marginals(&tid, &query).unwrap();
    /// assert_eq!(marginals.len(), tid.fact_count());
    /// // Every fact is at least as likely once we know the query holds.
    /// for (v, posterior) in marginals.iter() {
    ///     assert!(posterior + 1e-9 >= tid.fact_weights().get(v).unwrap());
    /// }
    /// assert_eq!(marginals.report.sweeps_run, 2);
    /// ```
    pub fn marginals<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<Marginals, StucError> {
        let _span = trace::span("marginals");
        let watch = Stopwatch::start();
        let result = self.inference_input(representation, query).and_then(
            |(entry, weights, lineage_cached)| {
                let mut result =
                    stuc_infer::marginals(&entry.compiled, &weights, self.config.width_budget)?;
                result.report.lineage_cached = lineage_cached;
                Ok(result)
            },
        );
        engine_metrics().marginals.observe(&result, watch.elapsed());
        result
    }

    /// Draws `count` i.i.d. possible worlds **exactly** proportional to
    /// their probability, conditioned on the query holding — no Markov
    /// chain, no rejection. One table-retaining sweep is paid up front;
    /// each world is then a cheap top-down descent. Deterministic per
    /// `seed` ([`rand::rngs::SplitMix64`]).
    ///
    /// For a long-lived sampler that amortises the sweep across many
    /// batches, use [`Engine::world_sampler`].
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let sampled = engine.sample_worlds(&tid, &query, 100, 42).unwrap();
    /// assert_eq!(sampled.worlds.len(), 100);
    /// let lineage = engine.lineage(&tid, &query).unwrap();
    /// for world in &sampled.worlds {
    ///     assert!(world.satisfies(&lineage).unwrap()); // query holds in every draw
    /// }
    /// ```
    pub fn sample_worlds<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        count: usize,
        seed: u64,
    ) -> Result<SampledWorlds, StucError> {
        let _span = trace::span("sample_worlds");
        let watch = Stopwatch::start();
        let result = self.inference_input(representation, query).and_then(
            |(entry, weights, lineage_cached)| {
                let mut result = stuc_infer::sample_worlds(
                    &entry.compiled,
                    &weights,
                    self.config.width_budget,
                    count,
                    seed,
                )?;
                result.report.lineage_cached = lineage_cached;
                Ok(result)
            },
        );
        engine_metrics()
            .sample_worlds
            .observe(&result, watch.elapsed());
        result
    }

    /// Builds a reusable exact [`WorldSampler`] for `(representation,
    /// query)`: the streaming twin of [`Engine::sample_worlds`]. The
    /// sampler owns its retained tables and RNG stream, so it keeps drawing
    /// (and replaying, given the same `seed`) without touching the engine
    /// again.
    pub fn world_sampler<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        seed: u64,
    ) -> Result<WorldSampler, StucError> {
        let _span = trace::span("world_sampler");
        let watch = Stopwatch::start();
        let result = self.inference_input(representation, query).and_then(
            |(entry, weights, lineage_cached)| {
                let mut sampler =
                    WorldSampler::new(&entry.compiled, &weights, self.config.width_budget, seed)?;
                sampler.report_mut().lineage_cached = lineage_cached;
                Ok(sampler)
            },
        );
        engine_metrics()
            .sample_worlds
            .observe(&result, watch.elapsed());
        result
    }

    /// The single most probable world in which the query holds, and its
    /// probability — the max-product (Viterbi) variant of the counting
    /// sweep, decoded by an argmax descent over the retained tables.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let mpe = engine.most_probable_world(&tid, &query).unwrap();
    /// let lineage = engine.lineage(&tid, &query).unwrap();
    /// assert!(mpe.world.satisfies(&lineage).unwrap());
    /// assert!(mpe.probability > 0.0);
    /// ```
    pub fn most_probable_world<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<MostProbableWorld, StucError> {
        let _span = trace::span("most_probable_world");
        let watch = Stopwatch::start();
        let result = self.inference_input(representation, query).and_then(
            |(entry, weights, lineage_cached)| {
                let mut result = stuc_infer::most_probable_world(
                    &entry.compiled,
                    &weights,
                    self.config.width_budget,
                )?;
                result.report.lineage_cached = lineage_cached;
                Ok(result)
            },
        );
        engine_metrics()
            .most_probable_world
            .observe(&result, watch.elapsed());
        result
    }

    /// Shared entry of the posterior-inference modes: refuse the (circuitless)
    /// fixed safe-plan policy, then fetch the compiled lineage — served from
    /// the same cache as every counting mode — and the representation's
    /// weights.
    fn inference_input<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<(Arc<CompiledLineage>, Weights, bool), StucError> {
        if self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan) {
            return Err(StucError::BackendUnsupported {
                backend: BackendKind::SafePlan.name(),
                reason: "posterior inference (marginals, sampling, most-probable-world) runs on \
                         the lineage circuit; the extensional safe plan never builds one"
                    .into(),
            });
        }
        // Inference reports carry their own sweep counters, so the stage
        // recorder here only feeds the tracer.
        let mut rec = StageRecorder::new();
        let (entry, flags) = self.compiled_lineage(representation, query, &mut rec)?;
        let weights = representation.weights()?;
        Ok((entry, weights, flags.lineage_cached))
    }

    /// Plans `query` and runs the plan: the one path of [`Engine::evaluate`]
    /// and [`Engine::reevaluate_with_weights`].
    fn evaluate_inner<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        weight_override: Option<&Weights>,
    ) -> Result<EvaluationReport, StucError> {
        // Fail fast when the caller's deadline already passed (e.g. the
        // request waited out its budget in the server's accept queue).
        stuc_fault::budget::check("evaluation start")?;
        let mut rec = StageRecorder::new();
        let plan = self.plan(representation, query, weight_override.is_some(), &mut rec)?;
        let probability = self.run_plan(representation, query, &plan, weight_override, &mut rec)?;
        Ok(plan.report(
            probability,
            representation.fact_count(),
            rec.elapsed(),
            rec.finish(),
        ))
    }

    /// Fetches the compiled lineage of `(representation, query)` from the
    /// lineage cache, or builds and caches it: structure decomposition →
    /// lineage circuit → compiled circuit.
    fn compiled_lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        rec: &mut StageRecorder,
    ) -> Result<(Arc<CompiledLineage>, CacheFlags), StucError> {
        let identity = match self.lineage_lookup(representation, query) {
            Some((_, Some(entry))) => {
                self.lineage_cache.note_hit();
                rec.mark("cache-lookup");
                // No decomposition lookup happened at all; report it as
                // served-from-cache, which is what it is morally.
                let flags = CacheFlags {
                    lineage_cached: true,
                    decomposition_cached: true,
                };
                return Ok((entry, flags));
            }
            Some((identity, None)) => {
                self.lineage_cache.note_miss();
                Some(identity)
            }
            None => None,
        };
        rec.mark("cache-lookup");
        let (decomposition, decomposition_cached) = self.decomposition_for(representation);
        rec.mark("decompose");
        // A tripped budget degrades min-fill to a cheap ordering rather than
        // erroring mid-loop; this checkpoint is where the degraded run turns
        // into the typed error (before any lineage work is attempted).
        stuc_fault::budget::check("structure decomposition")?;
        let outcome = representation.lineage(query, &decomposition)?;
        let build_notes = outcome.note.into_iter().collect();
        let compiled = self.compile_lineage(&outcome.circuit)?;
        rec.mark("compile-lineage");
        let (key, query_repr, instance_check) = match identity {
            Some((key, query_repr, instance_check)) => (Some(key), query_repr, instance_check),
            None => (None, String::new(), 0),
        };
        let cold_gates = compiled.len();
        let cold_volume = compiled.table_volume();
        let entry = Arc::new(CompiledLineage {
            compiled,
            decomposition_width: Some(decomposition.width()),
            build_notes,
            query_repr,
            instance_check,
            query: Arc::new(query.clone()),
            cold_gates,
            cold_volume,
        });
        let flags = CacheFlags {
            lineage_cached: false,
            decomposition_cached,
        };
        if let Some(key) = key {
            // Publish under first-writer-wins: if another worker compiled the
            // same pair concurrently, adopt its entry (identical semantics —
            // same instance rendering, same query text, same heuristic) so
            // every thread converges on one shared circuit.
            let (winner, won) = self.lineage_cache.publish(key, Arc::clone(&entry));
            if !won {
                if winner.query_repr == entry.query_repr
                    && winner.instance_check == entry.instance_check
                {
                    return Ok((winner, flags));
                }
                // The key is held by a fingerprint-colliding stranger (which
                // is also why the lookup above missed): replace it — our
                // entry is the one matching the live `(instance, query)`.
                self.lineage_cache.insert_replacing(key, Arc::clone(&entry));
            }
        }
        Ok((entry, flags))
    }

    /// Simplifies a lineage circuit and compiles it: the one compile step of
    /// a cold build (`compiled_lineage`) and of `apply_update`'s in-place
    /// compaction of a patched circuit.
    fn compile_lineage(&self, lineage: &Circuit) -> Result<CompiledCircuit, StucError> {
        // Constant-fold and prune before compiling: automaton-built
        // circuits carry a constant gate per decomposition node, and patched
        // ones the cones their deletions pinned to false, so the reachable
        // non-constant core can be a small fraction of the circuit, and both
        // the circuit-graph decomposition and every later counting sweep
        // shrink with it.
        let simplified = lineage.simplify()?;
        stuc_fault::budget::check("lineage construction")?;
        stuc_fault::failpoint!("lineage-compile", |m| StucError::Internal {
            message: format!("injected fault: {m}"),
        });
        let compiled = CompiledCircuit::compile(Arc::new(simplified), self.config.heuristic)?;
        // Decompose the circuit graph ahead of the checkpoint, so a compiled
        // circuit is only ever cached with its decomposition built at full
        // quality: a trip while building it surfaces here.
        compiled.width();
        stuc_fault::budget::check("lineage compilation")?;
        Ok(compiled)
    }

    /// The lineage-cache identity of `(representation, query)` and the
    /// resident entry it validly names, if any. The instance is hashed over
    /// its `Debug` rendering, not `Representation::fingerprint`: an entry
    /// cannot be re-validated structurally on a hit, so the dual hash plus
    /// the exact query text is the validation. `None` with caching off,
    /// when none of this (instance rendering included) is paid.
    pub(crate) fn lineage_lookup<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Option<(LineageIdentity, Option<Arc<CompiledLineage>>)> {
        if !self.config.cache_lineages || self.config.cache_capacity == 0 {
            return None;
        }
        let (instance_fp, instance_check) = lineage_fingerprint_pair(representation);
        let query_repr = format!("{query:?}");
        let key = (
            instance_fp,
            fingerprint_debug(&query_repr),
            self.config.heuristic,
        );
        let hit = self.lineage_cache.get(&key).filter(|entry| {
            entry.query_repr == query_repr && entry.instance_check == instance_check
        });
        Some(((key, query_repr, instance_check), hit))
    }

    /// Builds (or fetches) the lineage circuit of a query without computing
    /// its probability — for callers that want to inspect, transform or
    /// re-weight the circuit themselves. Shares the engine's lineage cache.
    pub fn lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<Circuit, StucError> {
        let mut rec = StageRecorder::new();
        let (entry, _) = self.compiled_lineage(representation, query, &mut rec)?;
        Ok(entry.compiled.source().as_ref().clone())
    }

    /// The tree decomposition of the representation's structure graph,
    /// served from the cache when the fingerprint matches a prior call.
    ///
    /// A cache hit amortizes the decomposition itself (the superlinear
    /// part), but still pays two linear passes per call: the `Debug`-based
    /// fingerprint and the structure-graph rebuild for collision-safe
    /// validation. An O(1) hit would need a content hash that each
    /// representation maintains as it changes, and the graph cached beside
    /// the decomposition; neither exists yet, so a hit costs O(instance).
    ///
    /// This is the *structure-graph* decomposition, made with the
    /// configured heuristic alone. The lineage circuits built over it pick
    /// their own circuit-graph decompositions by sweep cost
    /// ([`stuc_circuit::wmc::TreewidthWmc::decompose_circuit_graph`]).
    pub fn decomposition_for<R: Representation + ?Sized>(
        &self,
        representation: &R,
    ) -> (Arc<TreeDecomposition>, bool) {
        let graph = representation.structure_graph();
        let key = (representation.fingerprint(), self.config.heuristic);
        let mut stale_resident = false;
        if self.config.cache_decompositions {
            if let Some(cached) = self.cache.get(&key) {
                // Fingerprints are not cryptographic: re-validate the
                // cached decomposition against today's graph so a
                // collision degrades to a recomputation, never to a
                // wrong width or an invalid lineage run.
                if cached.validate(&graph).is_ok() {
                    self.cache.note_hit();
                    return (cached, true);
                }
                stale_resident = true;
            }
            self.cache.note_miss();
        }
        let decomposition = Arc::new(decompose_with_heuristic(&graph, self.config.heuristic));
        if stuc_fault::budget::tripped() {
            // The ordering may have taken the budget-tripped degraded path:
            // keep the possibly low-quality decomposition out of the cache
            // so an un-budgeted re-run rebuilds it at full quality.
            return (decomposition, false);
        }
        if stale_resident {
            // A fingerprint-colliding stranger holds the key: replace it, or
            // every future lookup would keep missing.
            self.cache.insert_replacing(key, Arc::clone(&decomposition));
            return (decomposition, false);
        }
        // First-writer-wins publish: concurrent workers that raced on the
        // same fingerprint all converge on whichever decomposition landed
        // first (any valid decomposition of the graph is equally correct).
        let (decomposition, _won) = self.cache.publish(key, decomposition);
        (decomposition, false)
    }
}

/// Which engine caches served (parts of) one evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheFlags {
    decomposition_cached: bool,
    lineage_cached: bool,
}

/// Panic-isolation boundary: runs `f`, converting a panic into
/// [`StucError::Internal`] carrying the panic payload (when it is a string)
/// and bumping `stuc_engine_panics_caught_total`. The engine's caches are
/// panic-safe by construction — entries are published atomically after being
/// fully built, and the FIFO ledger is only appended under its own
/// poison-recovering lock — so a caught panic leaves the engine usable.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> Result<T, StucError>) -> Result<T, StucError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            engine_metrics().panics_caught.inc();
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            slowlog::global()
                .note_failure("evaluate", "panic", Duration::ZERO, 0, || message.clone());
            Err(StucError::Internal { message })
        }
    }
}

/// Report a failed evaluation to the slow log: deadline trips, cancellations
/// and caught panics are outliers regardless of how quickly they died, so
/// `GET /debug/slow` should show them next to the slow successes. Other
/// error kinds (parse errors, unsafe queries…) are ordinary outcomes and are
/// not logged.
pub(crate) fn note_eval_failure(what: &'static str, err: &StucError, wall: Duration) {
    let (outcome, stage) = match err {
        StucError::DeadlineExceeded { stage } => ("deadline-exceeded", *stage),
        StucError::Cancelled { stage } => ("cancelled", *stage),
        _ => return,
    };
    slowlog::global().note_failure(what, outcome, wall, 0, || format!("stage={stage}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use stuc_query::cq::ConjunctiveQuery;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn auto_uses_safe_plan_for_hierarchical_queries() {
        let tid = workloads::rst_star_tid(4, 0.4, 3);
        let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let engine = Engine::new();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::SafePlan);
        assert_eq!(report.decomposition_width, None);
        assert_eq!(report.circuit_gates, 0);
        // Cross-check against a forced circuit back-end.
        let forced = Engine::builder().backend(BackendKind::Dpll).build();
        let reference = forced.evaluate(&tid, &query).unwrap();
        assert_eq!(reference.backend, BackendKind::Dpll);
        assert!(close(report.probability, reference.probability));
    }

    #[test]
    fn auto_uses_treewidth_for_unsafe_queries_on_narrow_data() {
        let tid = workloads::rst_path_tid(6, 0.5, 5);
        let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let engine = Engine::new();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::TreewidthWmc);
        assert!(report.decomposition_width.unwrap() <= 2);
        assert!(report.circuit_gates > 0);
        let brute = Engine::builder()
            .backend(BackendKind::Enumeration)
            .build()
            .evaluate(&tid, &query)
            .unwrap();
        assert!(close(report.probability, brute.probability));
    }

    #[test]
    fn auto_falls_back_to_dpll_when_width_budget_is_tiny() {
        let tid = workloads::path_tid(8, 0.5, 11);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().width_budget(1).build();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::Dpll);
        assert!(report.notes.iter().any(|n| n.contains("DPLL selected")));
        let reference = Engine::new().evaluate(&tid, &query).unwrap();
        assert!(close(report.probability, reference.probability));
    }

    #[test]
    fn fixed_safe_plan_refuses_unsafe_queries_and_non_tid() {
        let tid = workloads::rst_path_tid(4, 0.5, 5);
        let unsafe_query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let engine = Engine::builder().backend(BackendKind::SafePlan).build();
        assert!(matches!(
            engine.evaluate(&tid, &unsafe_query),
            Err(StucError::SafePlan(_))
        ));
        let pcc = workloads::contributor_pcc(4, 2, 0.8, 0.9, 21);
        let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
        assert!(matches!(
            engine.evaluate(&pcc, &query),
            Err(StucError::BackendUnsupported { .. })
        ));
    }

    #[test]
    fn decomposition_cache_hits_on_repeat_evaluations() {
        let tid = workloads::path_tid(10, 0.5, 7);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().backend(BackendKind::TreewidthWmc).build();
        let first = engine.evaluate(&tid, &query).unwrap();
        assert!(!first.decomposition_cached);
        assert_eq!(engine.cached_decompositions(), 1);
        let second = engine.evaluate(&tid, &query).unwrap();
        assert!(second.decomposition_cached);
        assert!(close(first.probability, second.probability));
        engine.clear_cache();
        assert_eq!(engine.cached_decompositions(), 0);
    }

    #[test]
    fn engine_is_sync_and_shareable_across_threads() {
        let engine = std::sync::Arc::new(Engine::new());
        let tid = std::sync::Arc::new(workloads::path_tid(8, 0.5, 13));
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let baseline = engine.evaluate(&*tid, &query).unwrap().probability;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let tid = std::sync::Arc::clone(&tid);
                let query = query.clone();
                std::thread::spawn(move || engine.evaluate(&*tid, &query).unwrap().probability)
            })
            .collect();
        for handle in handles {
            assert!(close(handle.join().unwrap(), baseline));
        }
    }

    fn reweight_scenarios(tid: &stuc_data::tid::TidInstance, count: usize) -> Vec<Weights> {
        (1..=count)
            .map(|k| {
                let mut shadow = tid.clone();
                for i in 0..shadow.fact_count() {
                    shadow.set_probability(
                        stuc_data::instance::FactId(i),
                        (0.07 * k as f64).min(1.0),
                    );
                }
                shadow.fact_weights()
            })
            .collect()
    }

    #[test]
    fn reevaluate_many_matches_sequential_reevaluation_exactly() {
        let tid = workloads::path_tid(10, 0.5, 7);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        let scenarios = reweight_scenarios(&tid, 5);
        let many = engine
            .reevaluate_with_weights_many(&tid, &query, &scenarios)
            .unwrap();
        assert_eq!(many.len(), 5);
        for (weights, lane) in scenarios.iter().zip(&many) {
            assert_eq!(lane.backend, BackendKind::TreewidthWmc);
            assert!(lane.notes.iter().any(|n| n.contains("one lane sweep")));
            let single = engine
                .reevaluate_with_weights(&tid, &query, weights)
                .unwrap();
            assert_eq!(
                single.probability.to_bits(),
                lane.probability.to_bits(),
                "{} vs {}",
                single.probability,
                lane.probability
            );
        }
    }

    #[test]
    fn reevaluate_many_handles_empty_and_fixed_policies() {
        let tid = workloads::path_tid(6, 0.5, 3);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        assert!(engine
            .reevaluate_with_weights_many(&tid, &query, &[])
            .unwrap()
            .is_empty());

        // A fixed DPLL policy has no lane support: sequential fallback, same
        // probabilities as one-at-a-time re-evaluation.
        let scenarios = reweight_scenarios(&tid, 3);
        let dpll = Engine::builder().backend(BackendKind::Dpll).build();
        let many = dpll
            .reevaluate_with_weights_many(&tid, &query, &scenarios)
            .unwrap();
        for (weights, lane) in scenarios.iter().zip(&many) {
            assert_eq!(lane.backend, BackendKind::Dpll);
            let single = dpll.reevaluate_with_weights(&tid, &query, weights).unwrap();
            assert!(close(single.probability, lane.probability));
        }

        // The safe plan can never serve weight overrides.
        let safe = Engine::builder().backend(BackendKind::SafePlan).build();
        assert!(matches!(
            safe.reevaluate_with_weights_many(&tid, &query, &scenarios),
            Err(StucError::BackendUnsupported { .. })
        ));
    }

    #[test]
    fn wall_time_and_fact_count_are_populated() {
        let tid = workloads::path_tid(6, 0.3, 2);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let report = Engine::new().evaluate(&tid, &query).unwrap();
        assert_eq!(report.fact_count, 6);
        assert!(report.wall_time.as_nanos() > 0);
        assert!(!report.notes.is_empty());
    }
}
