//! Compiled lineage circuits: share once, re-weight many times.
//!
//! The paper's pipeline factors query evaluation into a *structural* phase
//! (decompose the instance, run the automaton, build the lineage circuit,
//! decompose the circuit graph) and a *numerical* phase (propagate the
//! probability weights through the decomposition). Only the numerical phase
//! depends on the probabilities — so when fact probabilities change (what-if
//! analysis, conditioning, weight learning loops), everything structural can
//! be reused verbatim.
//!
//! A [`CompiledCircuit`] is that reusable structural state: the source
//! lineage circuit behind an [`Arc`] (cheap to share across threads and
//! cache entries), its normalised form for message passing, and the nice
//! tree decomposition of its circuit graph. Re-evaluating under a new
//! [`Weights`] table is a single message-passing sweep — no decomposition,
//! no circuit construction, no binarisation.

use crate::circuit::{Circuit, CircuitError, Gate, GateId, VarId};
use crate::plan::{SweepArena, SweepPlan, MAX_PLANNED_BAG};
use crate::weights::Weights;
use crate::wmc::{message_passing, TreewidthWmc, WmcError, WmcReport};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use stuc_graph::elimination::EliminationHeuristic;
use stuc_graph::graph::VertexId;
use stuc_graph::nice::NiceDecomposition;
use stuc_graph::repair::{repair_decomposition, RepairError};
use stuc_graph::TreeDecomposition;
use stuc_obs::metrics::{registry, Counter};

/// Pre-resolved global counters of the counting sweeps (`stuc_sweep_*`):
/// how many sweeps ran, how many dense-table entries they visited, and
/// whether the reusable arena actually got reused (allocations == 0) or had
/// to allocate (cold arena, or a concurrent sweep held the lock and the
/// sweep fell back to a throwaway arena).
struct SweepMetrics {
    sweeps: Arc<Counter>,
    table_entries: Arc<Counter>,
    arena_allocations: Arc<Counter>,
    arena_reuses: Arc<Counter>,
}

impl SweepMetrics {
    fn observe(&self, nice_nodes: usize, table_allocations: usize) {
        self.sweeps.inc();
        self.table_entries.add(nice_nodes as u64);
        self.arena_allocations.add(table_allocations as u64);
        if table_allocations == 0 {
            self.arena_reuses.inc();
        }
    }
}

fn sweep_metrics() -> &'static SweepMetrics {
    static METRICS: OnceLock<SweepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = registry();
        SweepMetrics {
            sweeps: reg.counter(
                "stuc_sweep_runs_total",
                "Counting sweeps over compiled circuits (single- and multi-scenario).",
            ),
            table_entries: reg.counter(
                "stuc_sweep_table_entries_total",
                "Nice-decomposition node tables visited by counting sweeps.",
            ),
            arena_allocations: reg.counter(
                "stuc_sweep_arena_allocations_total",
                "Dense sweep tables allocated (0 per sweep once arenas are warm).",
            ),
            arena_reuses: reg.counter(
                "stuc_sweep_arena_reuses_total",
                "Sweeps that ran entirely on reused arena tables (no allocation).",
            ),
        }
    })
}

/// A lineage circuit compiled for repeated probability evaluation.
///
/// Compilation runs the structural half of the treewidth back-end once:
/// input-gate deduplication, binarisation, circuit-graph construction and
/// tree decomposition. Every subsequent [`CompiledCircuit::probability`]
/// call pays only for message passing, which is what makes weight-only
/// re-evaluation (`Engine::reevaluate_with_weights`) and shared batch
/// caches cheap.
///
/// The source circuit is held behind an [`Arc`], so clones of a
/// `CompiledCircuit` (e.g. cache entries handed to worker threads) share
/// every structure instead of deep-copying gate arenas.
#[derive(Debug)]
pub struct CompiledCircuit {
    source: Arc<Circuit>,
    prepared: Circuit,
    output_gate: usize,
    variables: BTreeSet<VarId>,
    heuristic: EliminationHeuristic,
    /// The decomposition of the circuit graph, built on first use: callers
    /// that never run the treewidth back-end (a pinned DPLL engine, say)
    /// skip its cost entirely, and once built it is reused by every
    /// subsequent run. Behind an [`Arc`] so clones and input rewiring,
    /// which keep the topology, share it instead of copying it.
    structure: OnceLock<Arc<CompiledStructure>>,
    /// The flattened sweep plan over `structure`'s nice decomposition
    /// ([`SweepPlan`]), built on first counting run. `Some(None)` records
    /// that the circuit's bags are too wide to plan densely (beyond
    /// [`MAX_PLANNED_BAG`]); such circuits fall back to the interpreted
    /// sparse sweep. Invalidated (fresh cell) by the incremental patches —
    /// [`CompiledCircuit::rewire_inputs`] changes gate semantics and
    /// [`CompiledCircuit::extend_or`] changes the decomposition, so the
    /// compiled checks must be re-derived, while the carried-over
    /// *decomposition* stays valid.
    plan: OnceLock<Option<Arc<SweepPlan>>>,
    /// Reusable sweep scratch (dense tables + weight slab): steady-state
    /// repeated evaluation allocates nothing. Guarded by a mutex so the
    /// compiled circuit stays `Sync`; concurrent runs fall back to a
    /// throwaway arena instead of serializing on the lock.
    arena: Mutex<SweepArena>,
}

impl Clone for CompiledCircuit {
    fn clone(&self) -> Self {
        CompiledCircuit {
            source: Arc::clone(&self.source),
            prepared: self.prepared.clone(),
            output_gate: self.output_gate,
            variables: self.variables.clone(),
            heuristic: self.heuristic,
            structure: self.structure.clone(),
            plan: self.plan.clone(),
            // Scratch buffers are per-value: a clone starts with an empty
            // arena and warms it on its first run.
            arena: Mutex::new(SweepArena::new()),
        }
    }
}

/// The lazily-built decomposition state of a [`CompiledCircuit`].
#[derive(Debug, Clone)]
struct CompiledStructure {
    nice: NiceDecomposition,
    width: usize,
    bag_count: usize,
    /// The raw (non-nice) decomposition the nice one was derived from, kept
    /// so incremental patches ([`CompiledCircuit::extend_or`]) can repair it
    /// instead of re-decomposing the grown circuit graph.
    decomposition: TreeDecomposition,
}

stuc_errors::stuc_error! {
    /// Why an incremental circuit patch refused; the caller should fall
    /// back to a fresh compilation.
    #[derive(Clone, PartialEq)]
    pub enum PatchError {
        /// The delta circuit has no output gate.
        Circuit(CircuitError),
        /// The patched circuit-graph decomposition would exceed the bag-size
        /// budget (or failed validation).
        Repair(RepairError),
    }
    display {
        Self::Circuit(e) => "{e}",
        Self::Repair(e) => "{e}",
    }
    from {
        CircuitError => Circuit,
        RepairError => Repair,
    }
}

/// What [`CompiledCircuit::extend_or`] did: the dirty-cone size and the
/// decomposition-repair statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtendReport {
    /// Gates appended to the prepared circuit (the rebuilt cone).
    pub gates_appended: usize,
    /// Existing decomposition bags grown by the repair.
    pub bags_touched: usize,
    /// Bags added by the repair.
    pub bags_added: usize,
    /// Circuit-graph decomposition width before the patch (if built).
    pub width_before: Option<usize>,
    /// Width after the patch (if built).
    pub width_after: Option<usize>,
}

impl CompiledCircuit {
    /// Compiles `source` for repeated evaluation; its circuit graph is
    /// decomposed on first use by [`TreewidthWmc::decompose_circuit_graph`].
    /// `heuristic` is the first candidate ordering tried there, not
    /// necessarily the one used: a circuit whose sweep would be costly also
    /// tries min-fill and keeps the smaller dense-table volume.
    ///
    /// Fails with [`CircuitError::NoOutput`] if the circuit has no
    /// designated output gate. Wide circuits still compile — the width
    /// budget is checked at evaluation time, so callers (like the engine's
    /// Auto policy) can inspect [`CompiledCircuit::width`] and route wide
    /// circuits to a width-oblivious back-end instead.
    pub fn compile(
        source: Arc<Circuit>,
        heuristic: EliminationHeuristic,
    ) -> Result<Self, CircuitError> {
        source.output().ok_or(CircuitError::NoOutput)?;
        let prepared = TreewidthWmc::prepare(&source);
        let output_gate = prepared.output().ok_or(CircuitError::NoOutput)?.index();
        let variables = source.variables();
        Ok(CompiledCircuit {
            source,
            prepared,
            output_gate,
            variables,
            heuristic,
            structure: OnceLock::new(),
            plan: OnceLock::new(),
            arena: Mutex::new(SweepArena::new()),
        })
    }

    /// The circuit-graph decomposition, built on first use and memoized.
    /// One built after the ambient budget tripped may have skipped the
    /// min-fill candidate ([`TreewidthWmc::decompose_circuit_graph`]): it
    /// serves this call but is not memoized, so the next un-budgeted call
    /// builds it at full quality instead of inheriting the degraded one.
    fn structure(&self) -> Cow<'_, CompiledStructure> {
        if let Some(structure) = self.structure.get() {
            return Cow::Borrowed(structure);
        }
        let graph = TreewidthWmc::circuit_graph(&self.prepared);
        let decomposition = TreewidthWmc::decompose_circuit_graph(&graph, self.heuristic);
        let structure = CompiledStructure {
            width: decomposition.width(),
            bag_count: decomposition.bag_count(),
            nice: NiceDecomposition::from_decomposition(&decomposition),
            decomposition,
        };
        if stuc_fault::budget::tripped() {
            return Cow::Owned(structure);
        }
        Cow::Borrowed(self.structure.get_or_init(|| Arc::new(structure)))
    }

    /// The compiled sweep plan over the circuit-graph decomposition, built
    /// on first use; `None` when the bags are too wide to plan densely
    /// (beyond [`MAX_PLANNED_BAG`] — the interpreted sweep still runs for
    /// counting, but plan-based consumers like the posterior-inference
    /// subsystem in `stuc-infer` must fall back or refuse) or when a
    /// transient failure (a tripped evaluation budget, an injected fault)
    /// interrupted the build this time.
    ///
    /// Callers enforcing an evaluation-time width budget should check
    /// [`CompiledCircuit::width`] themselves — the plan only refuses beyond
    /// its own dense-table bound.
    pub fn sweep_plan(&self) -> Option<&Arc<SweepPlan>> {
        self.try_sweep_plan().ok().flatten()
    }

    /// [`CompiledCircuit::sweep_plan`] with transient failures surfaced:
    /// only a built plan or the permanent too-wide refusal is memoized. A
    /// build interrupted by a budget trip or an injected fault returns the
    /// error and leaves the cell empty, so the next call — after the
    /// deadline is lifted or the fault cleared — builds the plan normally
    /// instead of inheriting a permanently degraded sweep.
    pub fn try_sweep_plan(&self) -> Result<Option<&Arc<SweepPlan>>, WmcError> {
        if let Some(cell) = self.plan.get() {
            return Ok(cell.as_ref());
        }
        let structure = self.structure();
        if let Cow::Owned(_) = structure {
            // A degraded decomposition (see `structure`): memoize no plan
            // over it either.
            stuc_fault::budget::check("circuit decomposition")?;
        }
        if structure.width + 1 > MAX_PLANNED_BAG {
            return Ok(self.plan.get_or_init(|| None).as_ref());
        }
        let plan = SweepPlan::build(&self.prepared, &structure.nice, self.output_gate)?;
        Ok(self.plan.get_or_init(|| Some(Arc::new(plan))).as_ref())
    }

    /// The original (uncompiled) lineage circuit.
    pub fn source(&self) -> &Arc<Circuit> {
        &self.source
    }

    /// Width of the tree decomposition of the prepared circuit graph — the
    /// quantity the engine's Auto policy compares against its width budget.
    pub fn width(&self) -> usize {
        self.structure().width
    }

    /// Number of bags in the (non-nice) decomposition of the circuit graph.
    pub fn bag_count(&self) -> usize {
        self.structure().bag_count
    }

    /// Dense-table entries one sweep over the circuit-graph decomposition
    /// fills ([`NiceDecomposition::table_volume`]): the sweep's cost, and
    /// what EXPLAIN reports as the plan's `table_entries`. Unlike the gate
    /// count it is exponential in the bag sizes, so it is the measure that
    /// shows a patched circuit outgrowing a fresh compile.
    pub fn table_volume(&self) -> usize {
        NiceDecomposition::table_volume(&self.structure().decomposition)
    }

    /// Gate count of the source circuit.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True if the source circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// The event variables read by the source circuit; a weight table must
    /// cover all of them for evaluation to succeed.
    pub fn variables(&self) -> &BTreeSet<VarId> {
        &self.variables
    }

    /// The elimination heuristic compiled with: the first candidate
    /// [`TreewidthWmc::decompose_circuit_graph`] tries, not necessarily the
    /// ordering the circuit graph was decomposed with.
    pub fn heuristic(&self) -> EliminationHeuristic {
        self.heuristic
    }

    /// Rewires the input gates: variables in `pin_false` become `false`
    /// constants (the fact can never be present again — deletion), and every
    /// other input variable is renumbered through `remap` (identity when
    /// absent). Returns the patched circuit and the number of input gates
    /// rewired.
    ///
    /// Neither operation changes the circuit *topology*, so the cached
    /// circuit-graph decomposition — the superlinear part of compilation —
    /// is carried over verbatim: this is how a fact deletion patches a
    /// compiled lineage in O(circuit) instead of recompiling.
    ///
    /// `remap` must be injective on the surviving variables (the engine's
    /// deletion remap, which shifts identifiers down, is).
    pub fn rewire_inputs(
        &self,
        pin_false: &BTreeSet<VarId>,
        remap: &BTreeMap<VarId, VarId>,
    ) -> (CompiledCircuit, usize) {
        let mut rewired = 0usize;
        let rewire = |circuit: &Circuit, count: &mut usize| -> Circuit {
            let mut out = Circuit::new();
            for (_, gate) in circuit.iter() {
                let replacement = match gate {
                    Gate::Input(v) if pin_false.contains(v) => {
                        *count += 1;
                        Gate::Const(false)
                    }
                    Gate::Input(v) => match remap.get(v) {
                        Some(&to) => {
                            *count += 1;
                            Gate::Input(to)
                        }
                        None => Gate::Input(*v),
                    },
                    other => other.clone(),
                };
                // Identifiers are preserved one-to-one, so inputs need no
                // remapping; push through the arena directly.
                match replacement {
                    Gate::Input(v) => out.add_input(v),
                    Gate::Const(b) => out.add_const(b),
                    Gate::And(xs) => out.add_and(xs),
                    Gate::Or(xs) => out.add_or(xs),
                    Gate::Not(x) => out.add_not(x),
                };
            }
            if let Some(o) = circuit.output() {
                out.set_output(o);
            }
            out
        };
        let source = rewire(&self.source, &mut rewired);
        let mut prepared_rewired = 0usize;
        let prepared = rewire(&self.prepared, &mut prepared_rewired);
        let variables = source.variables();
        (
            CompiledCircuit {
                source: Arc::new(source),
                prepared,
                output_gate: self.output_gate,
                variables,
                heuristic: self.heuristic,
                // Topology is unchanged: the decomposition of the circuit
                // graph remains valid as-is.
                structure: self.structure.clone(),
                // The *plan* is not: pinned gates changed from `Input` to
                // `Const` and variables were renumbered, so the compiled
                // checks and multiplier slots of the dirty cone must be
                // re-derived. Re-planning is linear in the circuit and
                // happens lazily on the next counting run.
                plan: OnceLock::new(),
                arena: Mutex::new(SweepArena::new()),
            },
            prepared_rewired,
        )
    }

    /// Extends the compiled lineage with a delta circuit: the new output is
    /// `old_output OR delta_output`. This is the insertion patch — the delta
    /// holds the lineage of the *new* query matches only, and instead of
    /// recompiling, the appended gates (the dirty cone) are folded into the
    /// prepared circuit and the cached circuit-graph decomposition is
    /// repaired locally under the `max_bag_size` budget.
    ///
    /// Fails with [`PatchError`] when the delta has no output or the repair
    /// exceeds the budget; callers then fall back to a fresh compilation.
    pub fn extend_or(
        &self,
        delta: &Circuit,
        max_bag_size: usize,
    ) -> Result<(CompiledCircuit, ExtendReport), PatchError> {
        let delta_out = delta.output().ok_or(CircuitError::NoOutput)?;

        // New source: append the delta arena, OR the outputs.
        let mut source = self.source.as_ref().clone();
        let source_out = source.output().ok_or(CircuitError::NoOutput)?;
        let offset = source.len();
        for (_, gate) in delta.iter() {
            let shifted = match gate {
                Gate::Input(v) => Gate::Input(*v),
                Gate::Const(b) => Gate::Const(*b),
                Gate::And(xs) => Gate::And(xs.iter().map(|g| GateId(g.0 + offset)).collect()),
                Gate::Or(xs) => Gate::Or(xs.iter().map(|g| GateId(g.0 + offset)).collect()),
                Gate::Not(x) => Gate::Not(GateId(x.0 + offset)),
            };
            match shifted {
                Gate::Input(v) => source.add_input(v),
                Gate::Const(b) => source.add_const(b),
                Gate::And(xs) => source.add_and(xs),
                Gate::Or(xs) => source.add_or(xs),
                Gate::Not(x) => source.add_not(x),
            };
        }
        let new_source_out = source.add_or(vec![source_out, GateId(delta_out.0 + offset)]);
        source.set_output(new_source_out);

        // New prepared circuit: existing gates keep their identifiers (this
        // is what makes the decomposition patchable); the binarised delta is
        // appended, sharing the existing per-variable input gates.
        let mut prepared = self.prepared.clone();
        let before = prepared.len();
        let mut input_of_var: BTreeMap<VarId, GateId> = BTreeMap::new();
        for (id, gate) in prepared.iter() {
            if let Gate::Input(v) = gate {
                input_of_var.entry(*v).or_insert(id);
            }
        }
        let delta_prepared = delta.binarize();
        let delta_prepared_out = delta_prepared
            .output()
            .expect("binarize preserves the output");
        let mut map: Vec<GateId> = Vec::with_capacity(delta_prepared.len());
        for (_, gate) in delta_prepared.iter() {
            let id = match gate {
                Gate::Input(v) => *input_of_var
                    .entry(*v)
                    .or_insert_with(|| prepared.add_input(*v)),
                Gate::Const(b) => prepared.add_const(*b),
                Gate::And(xs) => {
                    let inputs = xs.iter().map(|x| map[x.0]).collect();
                    prepared.add_and(inputs)
                }
                Gate::Or(xs) => {
                    let inputs = xs.iter().map(|x| map[x.0]).collect();
                    prepared.add_or(inputs)
                }
                Gate::Not(x) => prepared.add_not(map[x.0]),
            };
            map.push(id);
        }
        let old_out = GateId(self.output_gate);
        let new_out = prepared.add_or(vec![old_out, map[delta_prepared_out.0]]);
        prepared.set_output(new_out);

        let mut report = ExtendReport {
            gates_appended: prepared.len() - before,
            ..Default::default()
        };

        // Patch the cached decomposition, if one was ever built; otherwise
        // the grown circuit simply decomposes lazily like a fresh compile.
        let structure = match self.structure.get() {
            None => OnceLock::new(),
            Some(old) => {
                report.width_before = Some(old.width);
                let graph = TreewidthWmc::circuit_graph(&prepared);
                let cliques: Vec<Vec<VertexId>> = (before..prepared.len())
                    .map(|g| {
                        let mut clique = vec![VertexId(g)];
                        clique.extend(
                            prepared
                                .gate(GateId(g))
                                .inputs()
                                .iter()
                                .map(|x| VertexId(x.0)),
                        );
                        clique
                    })
                    .collect();
                let (patched, repair) =
                    repair_decomposition(&old.decomposition, &graph, &cliques, max_bag_size)?;
                report.bags_touched = repair.bags_touched;
                report.bags_added = repair.bags_added;
                report.width_after = Some(repair.width_after);
                let lock = OnceLock::new();
                let _ = lock.set(Arc::new(CompiledStructure {
                    width: patched.width(),
                    bag_count: patched.bag_count(),
                    nice: NiceDecomposition::from_decomposition(&patched),
                    decomposition: patched,
                }));
                lock
            }
        };
        let variables = source.variables();
        Ok((
            CompiledCircuit {
                source: Arc::new(source),
                prepared,
                output_gate: new_out.0,
                variables,
                heuristic: self.heuristic,
                structure,
                // The appended dirty cone changed both the circuit and its
                // (repaired) decomposition: the plan is re-derived lazily.
                plan: OnceLock::new(),
                arena: Mutex::new(SweepArena::new()),
            },
            report,
        ))
    }

    /// Probability that the output gate is true under `weights`, refusing
    /// (like [`TreewidthWmc`]) when the cached decomposition's bag size
    /// exceeds `max_bag_size`.
    ///
    /// This is the weight-only fast path: no decomposition or circuit
    /// transformation happens here, just one message-passing sweep.
    pub fn probability(&self, weights: &Weights, max_bag_size: usize) -> Result<f64, WmcError> {
        self.run(weights, max_bag_size).map(|r| r.probability)
    }

    /// Enforces an evaluation-time width budget: refuses with
    /// [`WmcError::WidthTooLarge`] when the circuit-graph decomposition's
    /// bag size (width + 1) exceeds `max_bag_size`. The single refusal
    /// check every evaluation mode — counting, lanes, and the posterior
    /// inference in `stuc-infer` — shares.
    pub fn ensure_width(&self, max_bag_size: usize) -> Result<(), WmcError> {
        let width = self.structure().width;
        if width + 1 > max_bag_size {
            return Err(WmcError::WidthTooLarge {
                width,
                limit: max_bag_size,
            });
        }
        Ok(())
    }

    /// Like [`CompiledCircuit::probability`], but returns the full
    /// [`WmcReport`] with decomposition statistics.
    ///
    /// Runs the compiled dense-table sweep plan (built on first use, see
    /// [`crate::plan::SweepPlan`]); the sweep's scratch tables live in a
    /// reusable arena, so repeated evaluations — batch sweeps, what-if
    /// re-weighting, incremental-update revalidation — allocate nothing in
    /// steady state ([`WmcReport::table_allocations`] is 0).
    pub fn run(&self, weights: &Weights, max_bag_size: usize) -> Result<WmcReport, WmcError> {
        self.ensure_width(max_bag_size)?;
        let structure = self.structure();
        let Some(plan) = self.try_sweep_plan()?.cloned() else {
            return self.run_interpreted(weights, max_bag_size);
        };
        let (probability, table_allocations) = match self.arena.try_lock() {
            Ok(mut arena) => {
                let before = arena.allocations();
                let p = plan.run(weights, &mut arena)?;
                (p, arena.allocations() - before)
            }
            // Another thread is mid-sweep on this very value: run on a
            // throwaway arena rather than serializing the sweeps.
            Err(_) => {
                let mut arena = SweepArena::new();
                let p = plan.run(weights, &mut arena)?;
                (p, arena.allocations())
            }
        };
        sweep_metrics().observe(structure.nice.len(), table_allocations);
        Ok(WmcReport {
            probability,
            width: structure.width,
            bag_count: structure.bag_count,
            nice_node_count: structure.nice.len(),
            table_allocations,
        })
    }

    /// Like [`CompiledCircuit::run`], but forcing the legacy interpreted
    /// sweep (sparse `HashMap` tables, per-node constraint re-derivation).
    /// Kept as the reference implementation for differential testing and
    /// for the plan-vs-interpreted speedup benchmarks.
    pub fn run_interpreted(
        &self,
        weights: &Weights,
        max_bag_size: usize,
    ) -> Result<WmcReport, WmcError> {
        self.ensure_width(max_bag_size)?;
        let structure = self.structure();
        for &v in &self.variables {
            weights.weight(v, true)?;
        }
        let probability =
            message_passing(&self.prepared, weights, &structure.nice, self.output_gate)?;
        Ok(WmcReport {
            probability,
            width: structure.width,
            bag_count: structure.bag_count,
            nice_node_count: structure.nice.len(),
            table_allocations: structure.nice.len(),
        })
    }

    /// Evaluates K weight scenarios in a **single sweep**: every dense table
    /// slot carries K adjacent `f64` lanes, so the traversal, the mask
    /// permutations and the constraint checks are paid once for all K
    /// scenarios instead of once per scenario. The returned probabilities
    /// are bitwise identical to K separate [`CompiledCircuit::run`] calls.
    ///
    /// This is the engine's multi-scenario what-if fast path
    /// (`Engine::reevaluate_with_weights_many`). Falls back to K interpreted
    /// sweeps when the circuit's bags are too wide to plan.
    pub fn run_many(
        &self,
        scenarios: &[Weights],
        max_bag_size: usize,
    ) -> Result<WmcManyReport, WmcError> {
        self.ensure_width(max_bag_size)?;
        let structure = self.structure();
        let Some(plan) = self.try_sweep_plan()?.cloned() else {
            let mut probabilities = Vec::with_capacity(scenarios.len());
            for weights in scenarios {
                probabilities.push(self.run_interpreted(weights, max_bag_size)?.probability);
            }
            return Ok(WmcManyReport {
                probabilities,
                width: structure.width,
                bag_count: structure.bag_count,
                nice_node_count: structure.nice.len(),
                table_allocations: structure.nice.len() * scenarios.len(),
            });
        };
        // Lane counts are chunked: table memory is `8 << bag` bytes *per
        // lane*, so an unbounded K would multiply every dense table by the
        // scenario count. Chunks of `MAX_LANES_PER_SWEEP` keep the buffers
        // bounded while still amortizing the traversal 32-fold; each lane's
        // arithmetic order is unchanged, so results stay bitwise identical
        // to per-scenario runs at any K.
        let sweep_chunk =
            |chunk: &[Weights], arena: &mut SweepArena| -> Result<Vec<f64>, WmcError> {
                let refs: Vec<&Weights> = chunk.iter().collect();
                plan.run_many(&refs, arena)
            };
        let (probabilities, table_allocations) = match self.arena.try_lock() {
            Ok(mut arena) => {
                let before = arena.allocations();
                let mut all = Vec::with_capacity(scenarios.len());
                for chunk in scenarios.chunks(MAX_LANES_PER_SWEEP) {
                    all.extend(sweep_chunk(chunk, &mut arena)?);
                }
                (all, arena.allocations() - before)
            }
            Err(_) => {
                let mut arena = SweepArena::new();
                let mut all = Vec::with_capacity(scenarios.len());
                for chunk in scenarios.chunks(MAX_LANES_PER_SWEEP) {
                    all.extend(sweep_chunk(chunk, &mut arena)?);
                }
                (all, arena.allocations())
            }
        };
        sweep_metrics().observe(structure.nice.len(), table_allocations);
        Ok(WmcManyReport {
            probabilities,
            width: structure.width,
            bag_count: structure.bag_count,
            nice_node_count: structure.nice.len(),
            table_allocations,
        })
    }
}

/// Most scenario lanes one sweep carries; larger scenario sets are chunked
/// so dense-table memory stays bounded by `32 * 8 << bag` bytes per slot.
const MAX_LANES_PER_SWEEP: usize = 32;

/// Result of a multi-scenario sweep ([`CompiledCircuit::run_many`]): one
/// probability per input weight table, plus the shared structural
/// statistics of the single traversal that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct WmcManyReport {
    /// Probability of the output gate under each scenario, in input order.
    pub probabilities: Vec<f64>,
    /// Width of the tree decomposition used.
    pub width: usize,
    /// Number of bags in the (non-nice) decomposition.
    pub bag_count: usize,
    /// Number of nodes in the nice decomposition traversed (once, for all
    /// scenarios).
    pub nice_node_count: usize,
    /// Table buffers (re)allocated by this sweep; 0 in steady state.
    pub table_allocations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::enumeration::probability_by_enumeration;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn compiled_probability_matches_uncompiled_wmc() {
        for seed in 0..10 {
            let circuit = builder::random_circuit(8, 14, seed);
            let weights = Weights::uniform(circuit.variables(), 0.35);
            let direct = TreewidthWmc::default()
                .probability(&circuit, &weights)
                .unwrap();
            let compiled =
                CompiledCircuit::compile(Arc::new(circuit), EliminationHeuristic::MinDegree)
                    .unwrap();
            assert_close(compiled.probability(&weights, 22).unwrap(), direct);
        }
    }

    #[test]
    fn run_many_chunks_large_scenario_sets() {
        // 70 scenarios span three lane chunks; every lane must still be
        // bitwise identical to its single-scenario run.
        let circuit = builder::conjunction_of_disjunctions(4, 2);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default()).unwrap();
        let scenarios: Vec<Weights> = (0..70)
            .map(|k| Weights::uniform(circuit.variables(), (k as f64 + 1.0) / 72.0))
            .collect();
        let many = compiled.run_many(&scenarios, 22).unwrap();
        assert_eq!(many.probabilities.len(), 70);
        for (weights, &lane) in scenarios.iter().zip(&many.probabilities) {
            let single = compiled.run(weights, 22).unwrap();
            assert_eq!(single.probability.to_bits(), lane.to_bits());
        }
    }

    #[test]
    fn reweighting_reuses_the_compiled_structure() {
        let circuit = builder::conjunction_of_disjunctions(5, 2);
        let vars: Vec<VarId> = circuit.variables().into_iter().collect();
        let compiled = CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default())
            .expect("compiles");
        for p in [0.1, 0.5, 0.9] {
            let weights = Weights::uniform(vars.iter().copied(), p);
            let expected = probability_by_enumeration(&circuit, &weights).unwrap();
            assert_close(compiled.probability(&weights, 22).unwrap(), expected);
        }
    }

    #[test]
    fn a_decomposition_built_under_a_tripped_budget_is_not_memoized() {
        use stuc_fault::{budget, EvalBudget};
        use stuc_graph::elimination::decompose_with_heuristic;
        // A circuit whose cheapest decomposition is min-fill's, which a
        // tripped budget skips; small enough that building a plan polls
        // the budget at no checkpoint of its own.
        let circuit = (0..200)
            .map(|seed| builder::random_circuit(3, 6, seed))
            .find(|circuit| {
                let graph = TreewidthWmc::circuit_graph(circuit);
                let alone = decompose_with_heuristic(&graph, EliminationHeuristic::MinDegree);
                let chosen =
                    TreewidthWmc::decompose_circuit_graph(&graph, EliminationHeuristic::MinDegree);
                NiceDecomposition::table_volume(&chosen) < NiceDecomposition::table_volume(&alone)
            })
            .expect("some random circuit sweeps cheaper under min-fill");
        let heuristic = EliminationHeuristic::MinDegree;
        let fresh =
            CompiledCircuit::compile(Arc::new(circuit.clone()), heuristic).expect("compiles");
        let compiled = CompiledCircuit::compile(Arc::new(circuit), heuristic).expect("compiles");

        let expired = EvalBudget::with_deadline(std::time::Duration::ZERO);
        let degraded = budget::scope(expired.clone(), || compiled.table_volume());
        assert!(
            degraded > fresh.table_volume(),
            "the tripped build skipped min-fill"
        );
        assert!(budget::scope(expired, || compiled.try_sweep_plan()).is_err());

        // Un-budgeted, the same value decomposes and plans at full quality.
        assert_eq!(compiled.table_volume(), fresh.table_volume());
        assert_eq!(compiled.width(), fresh.width());
        assert_eq!(
            compiled.sweep_plan().map(|plan| plan.table_entry_count()),
            Some(fresh.table_volume())
        );
    }

    #[test]
    fn width_budget_is_enforced_at_evaluation_time() {
        let circuit = builder::majority_like_dense_circuit(12, 3);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit), Default::default()).expect("compiles");
        assert!(matches!(
            compiled.run(&weights, 2),
            Err(WmcError::WidthTooLarge { .. })
        ));
        // The same compiled circuit still runs under a generous budget.
        assert!(compiled.run(&weights, 64).is_ok());
    }

    #[test]
    fn missing_output_is_rejected_at_compile_time() {
        let mut circuit = Circuit::new();
        circuit.add_input(VarId(0));
        assert_eq!(
            CompiledCircuit::compile(Arc::new(circuit), Default::default()).unwrap_err(),
            CircuitError::NoOutput
        );
    }

    #[test]
    fn rewire_inputs_pins_and_renumbers_without_redecomposing() {
        // Lineage of "two consecutive facts" on a 4-fact chain:
        // (x0 & x1) | (x1 & x2) | (x2 & x3).
        let mut circuit = Circuit::new();
        let xs: Vec<_> = (0..4).map(|i| circuit.add_input(VarId(i))).collect();
        let pairs: Vec<_> = (0..3)
            .map(|i| circuit.add_and(vec![xs[i], xs[i + 1]]))
            .collect();
        let or = circuit.add_or(pairs);
        circuit.set_output(or);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit), EliminationHeuristic::MinDegree).unwrap();
        let width = compiled.width(); // force the decomposition

        // Delete fact 1: pin x1 false, shift x2 -> x1, x3 -> x2.
        let pins = BTreeSet::from([VarId(1)]);
        let remap = BTreeMap::from([(VarId(2), VarId(1)), (VarId(3), VarId(2))]);
        let (patched, rewired) = compiled.rewire_inputs(&pins, &remap);
        assert!(rewired >= 3);
        assert_eq!(patched.width(), width, "structure carried over verbatim");
        assert_eq!(
            patched.variables(),
            &BTreeSet::from([VarId(0), VarId(1), VarId(2)])
        );

        // Equivalent fresh lineage on the 3 surviving facts: only the pair
        // (old x2, old x3) = (new x1, new x2) remains.
        let mut expected = Circuit::new();
        let y1 = expected.add_input(VarId(1));
        let y2 = expected.add_input(VarId(2));
        let and = expected.add_and(vec![y1, y2]);
        expected.set_output(and);
        for p in [0.2, 0.5, 0.8] {
            let weights = Weights::uniform([VarId(0), VarId(1), VarId(2)], p);
            let want = probability_by_enumeration(&expected, &weights).unwrap();
            assert_close(patched.probability(&weights, 22).unwrap(), want);
        }
    }

    #[test]
    fn extend_or_patches_the_cached_decomposition() {
        // Old lineage: x0 & x1. Delta (new matches): x1 & x2.
        let mut old = Circuit::new();
        let x0 = old.add_input(VarId(0));
        let x1 = old.add_input(VarId(1));
        let and = old.add_and(vec![x0, x1]);
        old.set_output(and);
        let compiled =
            CompiledCircuit::compile(Arc::new(old), EliminationHeuristic::MinDegree).unwrap();
        let _ = compiled.width(); // structure is built, so the patch must repair it

        let mut delta = Circuit::new();
        let d1 = delta.add_input(VarId(1));
        let d2 = delta.add_input(VarId(2));
        let dand = delta.add_and(vec![d1, d2]);
        delta.set_output(dand);

        let (patched, report) = compiled.extend_or(&delta, 22).unwrap();
        assert!(report.gates_appended > 0);
        assert!(report.width_before.is_some() && report.width_after.is_some());

        // Agreement with the full OR circuit by enumeration.
        let mut full = Circuit::new();
        let y0 = full.add_input(VarId(0));
        let y1 = full.add_input(VarId(1));
        let y2 = full.add_input(VarId(2));
        let a = full.add_and(vec![y0, y1]);
        let b = full.add_and(vec![y1, y2]);
        let or = full.add_or(vec![a, b]);
        full.set_output(or);
        for p in [0.25, 0.5, 0.75] {
            let weights = Weights::uniform([VarId(0), VarId(1), VarId(2)], p);
            let want = probability_by_enumeration(&full, &weights).unwrap();
            assert_close(patched.probability(&weights, 22).unwrap(), want);
        }
        // Repeated extension keeps working (patch of a patch).
        let mut delta2 = Circuit::new();
        let e = delta2.add_input(VarId(3));
        delta2.set_output(e);
        let (patched2, _) = patched.extend_or(&delta2, 22).unwrap();
        let weights = Weights::uniform([VarId(0), VarId(1), VarId(2), VarId(3)], 0.5);
        // P((x0&x1)|(x1&x2)|x3) = 1 - (1 - 0.375) * 0.5 = 0.6875.
        assert_close(patched2.probability(&weights, 22).unwrap(), 0.6875);
    }

    #[test]
    fn extend_or_is_lazy_when_no_structure_was_built() {
        let mut old = Circuit::new();
        let x = old.add_input(VarId(0));
        old.set_output(x);
        let compiled = CompiledCircuit::compile(Arc::new(old), Default::default()).unwrap();
        let mut delta = Circuit::new();
        let y = delta.add_input(VarId(1));
        delta.set_output(y);
        let (patched, report) = compiled.extend_or(&delta, 22).unwrap();
        assert_eq!(report.width_before, None);
        assert_eq!(report.width_after, None);
        let weights = Weights::uniform([VarId(0), VarId(1)], 0.5);
        assert_close(patched.probability(&weights, 22).unwrap(), 0.75);
    }

    #[test]
    fn extend_or_refuses_on_budget_and_missing_output() {
        let mut old = Circuit::new();
        let x = old.add_input(VarId(0));
        old.set_output(x);
        let compiled = CompiledCircuit::compile(Arc::new(old), Default::default()).unwrap();
        let _ = compiled.width();
        let mut no_output = Circuit::new();
        no_output.add_input(VarId(1));
        assert!(matches!(
            compiled.extend_or(&no_output, 22),
            Err(PatchError::Circuit(CircuitError::NoOutput))
        ));
        // A bag-size budget of 1 cannot host the OR clique: repair refuses.
        let mut delta = Circuit::new();
        let y = delta.add_input(VarId(1));
        delta.set_output(y);
        assert!(matches!(
            compiled.extend_or(&delta, 1),
            Err(PatchError::Repair(_))
        ));
    }

    #[test]
    fn clones_share_the_source_arc() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        circuit.set_output(x);
        let compiled = CompiledCircuit::compile(Arc::new(circuit), Default::default()).unwrap();
        let clone = compiled.clone();
        assert!(Arc::ptr_eq(compiled.source(), clone.source()));
        assert_eq!(compiled.len(), 1);
        assert!(!compiled.is_empty());
        assert_eq!(compiled.variables().len(), 1);
    }
}
