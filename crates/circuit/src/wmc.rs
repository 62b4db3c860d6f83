//! Exact probability of a circuit by message passing over a tree
//! decomposition of the circuit graph.
//!
//! This is the back-end behind Theorems 1 and 2 of the paper: the lineage
//! circuit produced by running a tree automaton over a bounded-treewidth
//! instance itself has bounded treewidth, so its probability "can be computed
//! ... via standard message passing techniques" (Lauritzen–Spiegelhalter).
//!
//! Concretely, the circuit is viewed as a constraint network: every gate is a
//! Boolean variable, and every gate contributes the constraint
//! `gate ⇔ op(inputs)`. The *circuit graph* has one vertex per gate and a
//! clique over `{gate} ∪ inputs(gate)` for every gate, so every constraint
//! scope is a clique and is therefore fully contained in some bag of any tree
//! decomposition. A bottom-up dynamic program over a *nice* decomposition
//! then sums the weights of all gate assignments that respect every
//! constraint and set the output gate to true. Input-variable weights are
//! multiplied in when the corresponding gate is forgotten (or at the root),
//! so each weight is counted exactly once.
//!
//! The running time is `O(2^w · |C| · w)` for width `w`: linear in the
//! circuit for fixed treewidth, which is the tractability the paper claims.

use crate::circuit::{Circuit, CircuitError, Gate};
use crate::weights::Weights;
use std::collections::{BTreeSet, HashMap};
use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc_graph::graph::{Graph, VertexId};
use stuc_graph::nice::{NiceDecomposition, NiceNodeKind};
use stuc_graph::TreeDecomposition;

stuc_errors::stuc_error! {
    /// Errors raised by the treewidth-based weighted model counter.
    #[derive(Clone, PartialEq)]
    pub enum WmcError {
        /// The decomposition found for the circuit graph is too wide for the
        /// configured bag-size limit: the instance is not (recognisably)
        /// structurally tractable, so another back-end should be used.
        WidthTooLarge {
            /// Width of the decomposition that was found.
            width: usize,
            /// The configured bag-size limit it exceeds.
            limit: usize,
        },
        /// An underlying circuit error.
        Circuit(CircuitError),
        /// The ambient evaluation budget (deadline or cancellation) tripped
        /// during plan construction or a sweep.
        Budget(stuc_fault::BudgetError),
        /// An injected fault (only produced by armed failpoints under the
        /// `fault-injection` feature; never in production builds).
        Fault(String),
    }
    display {
        Self::WidthTooLarge { width, limit } => "circuit decomposition width {width} exceeds the configured limit {limit}",
        Self::Circuit(e) => "{e}",
        Self::Budget(e) => "{e}",
        Self::Fault(m) => "injected fault: {m}",
    }
    from {
        CircuitError => Circuit,
        stuc_fault::BudgetError => Budget,
    }
}

/// Result of a message-passing run, with structural statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WmcReport {
    /// Probability that the output gate is true.
    pub probability: f64,
    /// Width of the tree decomposition used.
    pub width: usize,
    /// Number of bags in the (non-nice) decomposition.
    pub bag_count: usize,
    /// Number of nodes in the nice decomposition actually traversed.
    pub nice_node_count: usize,
    /// Number of table buffers this run had to (re)allocate. Planned sweeps
    /// ([`crate::compiled::CompiledCircuit`]) reuse a
    /// [`crate::plan::SweepArena`] across runs, so steady-state repeated
    /// evaluation reports 0 here; the interpreted sweep allocates one table
    /// per nice node on every run.
    pub table_allocations: usize,
}

/// The treewidth-based weighted model counter ("message passing" back-end).
#[derive(Debug, Clone)]
pub struct TreewidthWmc {
    /// The first elimination heuristic tried on the circuit graph (see
    /// [`TreewidthWmc::decompose_circuit_graph`]).
    pub heuristic: EliminationHeuristic,
    /// Maximum accepted bag size (width + 1). Runs whose decomposition
    /// exceeds this produce [`WmcError::WidthTooLarge`] instead of taking
    /// exponential time unannounced.
    pub max_bag_size: usize,
}

impl Default for TreewidthWmc {
    fn default() -> Self {
        TreewidthWmc {
            heuristic: EliminationHeuristic::MinDegree,
            max_bag_size: 22,
        }
    }
}

impl TreewidthWmc {
    /// Builds the *circuit graph*: one vertex per gate, plus a clique over
    /// every gate and its inputs.
    pub fn circuit_graph(circuit: &Circuit) -> Graph {
        let mut g = Graph::with_vertices(circuit.len());
        for (id, gate) in circuit.iter() {
            let mut clique: Vec<VertexId> = vec![VertexId(id.0)];
            clique.extend(gate.inputs().iter().map(|x| VertexId(x.0)));
            g.add_clique(&clique);
        }
        g
    }

    /// Decomposes a circuit graph for the counting sweep: the one place that
    /// decides which elimination ordering a sweep's tables follow.
    ///
    /// A sweep costs its dense-table volume, the sum of `2^|bag|` over the
    /// nice nodes ([`NiceDecomposition::table_volume`], what
    /// [`crate::plan::SweepPlan::table_entry_count`] reports), so the
    /// ordering sets the exponent of every run. The graph is decomposed with
    /// `heuristic` first. When that volume exceeds `n²` for the `n`-vertex
    /// graph, the order of min-fill's own selection cost, it is also
    /// decomposed with min-fill, and the smaller volume wins (the first
    /// candidate on a tie). On the unanchored 2-hop lineage of a 288-fact
    /// partial 2-tree, min-degree gives width 20 and 20.2M entries where
    /// min-fill gives width 14 and 1.34M.
    ///
    /// Min-fill degrades to identifier order when the ambient evaluation
    /// budget trips mid-ordering. Callers memoize the result, so a min-fill
    /// candidate is never taken while the budget is tripped.
    pub fn decompose_circuit_graph(
        graph: &Graph,
        heuristic: EliminationHeuristic,
    ) -> TreeDecomposition {
        let first = decompose_with_heuristic(graph, heuristic);
        if heuristic == EliminationHeuristic::MinFill || stuc_fault::budget::tripped() {
            return first;
        }
        let n = graph.vertex_count();
        let volume = NiceDecomposition::table_volume(&first);
        if volume <= n.saturating_mul(n) {
            return first;
        }
        let min_fill = decompose_with_heuristic(graph, EliminationHeuristic::MinFill);
        if stuc_fault::budget::tripped() || NiceDecomposition::table_volume(&min_fill) >= volume {
            return first;
        }
        min_fill
    }

    /// Width of the decomposition this back-end would use for the circuit
    /// (an upper bound on the treewidth of the binarised circuit).
    pub fn estimated_width(&self, circuit: &Circuit) -> usize {
        let prepared = Self::prepare(circuit);
        let graph = Self::circuit_graph(&prepared);
        Self::decompose_circuit_graph(&graph, self.heuristic).width()
    }

    /// Normalises a circuit for the message-passing back-end: merges
    /// duplicate input gates reading the same variable (they must carry the
    /// same value and their weight must be counted exactly once) and
    /// binarises wide gates.
    pub(crate) fn prepare(circuit: &Circuit) -> Circuit {
        let mut deduped = Circuit::new();
        let mut input_of_var: std::collections::BTreeMap<
            crate::circuit::VarId,
            crate::circuit::GateId,
        > = std::collections::BTreeMap::new();
        let mut map: Vec<crate::circuit::GateId> = Vec::with_capacity(circuit.len());
        for (_, gate) in circuit.iter() {
            let id = match gate {
                Gate::Input(v) => *input_of_var
                    .entry(*v)
                    .or_insert_with(|| deduped.add_input(*v)),
                Gate::Const(b) => deduped.add_const(*b),
                Gate::And(xs) => {
                    let inputs = xs.iter().map(|x| map[x.0]).collect();
                    deduped.add_and(inputs)
                }
                Gate::Or(xs) => {
                    let inputs = xs.iter().map(|x| map[x.0]).collect();
                    deduped.add_or(inputs)
                }
                Gate::Not(x) => deduped.add_not(map[x.0]),
            };
            map.push(id);
        }
        if let Some(out) = circuit.output() {
            deduped.set_output(map[out.0]);
        }
        if deduped.max_fanin() > 2 {
            deduped.binarize()
        } else {
            deduped
        }
    }

    /// Computes the probability that the output gate is true.
    pub fn probability(&self, circuit: &Circuit, weights: &Weights) -> Result<f64, WmcError> {
        self.run(circuit, weights).map(|r| r.probability)
    }

    /// Computes the probability together with decomposition statistics.
    ///
    /// The circuit is binarised first (wide gates would otherwise force large
    /// cliques into the circuit graph) and then decomposed by
    /// [`TreewidthWmc::decompose_circuit_graph`], starting from the
    /// configured heuristic.
    pub fn run(&self, circuit: &Circuit, weights: &Weights) -> Result<WmcReport, WmcError> {
        circuit.output().ok_or(CircuitError::NoOutput)?;
        // Validate weights up front.
        for v in circuit.variables() {
            weights.weight(v, true)?;
        }
        let prepared = Self::prepare(circuit);
        let output = prepared.output().ok_or(CircuitError::NoOutput)?;
        let graph = Self::circuit_graph(&prepared);
        let td = Self::decompose_circuit_graph(&graph, self.heuristic);
        self.run_with_decomposition(&prepared, weights, &td, output.0)
    }

    /// Like [`TreewidthWmc::run`] but with a caller-provided decomposition of
    /// the circuit graph (used by Theorem 2 pipelines that already hold a
    /// joint decomposition of instance and annotations).
    pub fn run_with_decomposition(
        &self,
        circuit: &Circuit,
        weights: &Weights,
        td: &TreeDecomposition,
        output_gate: usize,
    ) -> Result<WmcReport, WmcError> {
        if td.max_bag_size() > self.max_bag_size {
            return Err(WmcError::WidthTooLarge {
                width: td.width(),
                limit: self.max_bag_size,
            });
        }
        let nice = NiceDecomposition::from_decomposition(td);
        let probability = message_passing(circuit, weights, &nice, output_gate)?;
        Ok(WmcReport {
            probability,
            width: td.width(),
            bag_count: td.bag_count(),
            nice_node_count: nice.len(),
            // The interpreted sweep allocates one hash table per nice node.
            table_allocations: nice.len(),
        })
    }
}

/// The message-passing dynamic program itself, over an already-built nice
/// decomposition of the circuit graph. Shared by [`TreewidthWmc::run`] and
/// by [`crate::compiled::CompiledCircuit::run_interpreted`].
///
/// This is the *reference* implementation: sparse `HashMap` tables, bag
/// index vectors and constraint scopes re-derived per node, weights looked
/// up in the `BTreeMap` per entry. The production sweep is the compiled
/// dense-table plan in [`crate::plan`]; differential tests assert the two
/// agree within 1e-9 on random, patched and boundary-width circuits.
pub(crate) fn message_passing(
    circuit: &Circuit,
    weights: &Weights,
    nice: &NiceDecomposition,
    output_gate: usize,
) -> Result<f64, WmcError> {
    // tables[node] maps a bag assignment (bitmask over the sorted bag) to
    // the accumulated weight of all consistent extensions below the node.
    let mut tables: Vec<HashMap<u64, f64>> = Vec::with_capacity(nice.len());

    for (idx, node) in nice.iter_bottom_up() {
        let bag: Vec<usize> = node.bag.iter().map(|v| v.index()).collect();
        let table = match &node.kind {
            NiceNodeKind::Leaf => {
                let mut t = HashMap::new();
                t.insert(0u64, 1.0);
                t
            }
            NiceNodeKind::Introduce { vertex, child } => {
                let child_node = nice.node(*child);
                let child_bag: Vec<usize> = child_node.bag.iter().map(|v| v.index()).collect();
                let v = vertex.index();
                // Constraints newly fully contained in the bag: every gate
                // g whose scope includes v and is a subset of the bag.
                let checks = constraints_to_check(circuit, &bag, v, output_gate);
                let mut t = HashMap::new();
                for (&child_mask, &weight) in &tables[*child] {
                    for value in [false, true] {
                        let mask = extend_assignment(&child_bag, child_mask, &bag, v, value);
                        if checks_pass(circuit, &bag, mask, &checks) {
                            *t.entry(mask).or_insert(0.0) += weight;
                        }
                    }
                }
                t
            }
            NiceNodeKind::Forget { vertex, child } => {
                let child_node = nice.node(*child);
                let child_bag: Vec<usize> = child_node.bag.iter().map(|v| v.index()).collect();
                let v = vertex.index();
                let multiplier = |value: bool| -> Result<f64, WmcError> {
                    match circuit.gate(crate::circuit::GateId(v)) {
                        Gate::Input(var) => Ok(weights.weight(*var, value)?),
                        _ => Ok(1.0),
                    }
                };
                let mut t = HashMap::new();
                for (&child_mask, &weight) in &tables[*child] {
                    let position = child_bag
                        .iter()
                        .position(|&g| g == v)
                        .expect("forgotten gate in child bag");
                    let value = child_mask & (1 << position) != 0;
                    let projected = project_assignment(&child_bag, child_mask, &bag);
                    let w = weight * multiplier(value)?;
                    if w != 0.0 {
                        *t.entry(projected).or_insert(0.0) += w;
                    }
                }
                t
            }
            NiceNodeKind::Join { left, right } => {
                let mut t = HashMap::new();
                let (small, large) = if tables[*left].len() <= tables[*right].len() {
                    (&tables[*left], &tables[*right])
                } else {
                    (&tables[*right], &tables[*left])
                };
                for (&mask, &wl) in small {
                    if let Some(&wr) = large.get(&mask) {
                        let w = wl * wr;
                        if w != 0.0 {
                            t.insert(mask, w);
                        }
                    }
                }
                t
            }
        };
        debug_assert_eq!(tables.len(), idx);
        tables.push(table);
    }

    // Root: sum over surviving assignments, multiplying in the weights of
    // input gates still present in the root bag.
    let root = nice.root();
    let root_bag: Vec<usize> = nice.node(root).bag.iter().map(|v| v.index()).collect();
    let mut total = 0.0;
    for (&mask, &weight) in &tables[root] {
        let mut w = weight;
        for (pos, &g) in root_bag.iter().enumerate() {
            if let Gate::Input(var) = circuit.gate(crate::circuit::GateId(g)) {
                let value = mask & (1 << pos) != 0;
                w *= weights.weight(*var, value)?;
            }
        }
        total += w;
    }
    Ok(total)
}

/// The constraints (gate ids) that must be checked when `introduced` joins a
/// bag: every gate whose scope (gate + inputs) is contained in the bag and
/// includes the introduced vertex, plus the output-gate truth requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Check {
    /// Gate semantics: `gate == op(inputs)` for the gate at this index.
    GateSemantics(usize),
    /// The designated output gate must be true.
    OutputTrue(usize),
}

fn constraints_to_check(
    circuit: &Circuit,
    bag: &[usize],
    introduced: usize,
    output_gate: usize,
) -> Vec<Check> {
    let in_bag: BTreeSet<usize> = bag.iter().copied().collect();
    let mut checks = Vec::new();
    for &g in bag {
        let gate = circuit.gate(crate::circuit::GateId(g));
        if gate.is_leaf() && g != introduced {
            // Leaf scopes are {g}; only relevant when g itself is introduced.
            continue;
        }
        let scope_contains_introduced =
            g == introduced || gate.inputs().iter().any(|x| x.0 == introduced);
        if !scope_contains_introduced {
            continue;
        }
        let scope_in_bag = gate.inputs().iter().all(|x| in_bag.contains(&x.0));
        if scope_in_bag {
            checks.push(Check::GateSemantics(g));
        }
    }
    if introduced == output_gate {
        checks.push(Check::OutputTrue(output_gate));
    }
    checks
}

fn checks_pass(circuit: &Circuit, bag: &[usize], mask: u64, checks: &[Check]) -> bool {
    let value_of = |gate: usize| -> bool {
        let pos = bag.iter().position(|&g| g == gate).expect("gate in bag");
        mask & (1 << pos) != 0
    };
    for check in checks {
        match check {
            Check::OutputTrue(g) => {
                if !value_of(*g) {
                    return false;
                }
            }
            Check::GateSemantics(g) => {
                let gate = circuit.gate(crate::circuit::GateId(*g));
                let expected = match gate {
                    Gate::Input(_) => continue, // free variable, no constraint
                    Gate::Const(b) => *b,
                    Gate::And(xs) => xs.iter().all(|x| value_of(x.0)),
                    Gate::Or(xs) => xs.iter().any(|x| value_of(x.0)),
                    Gate::Not(x) => !value_of(x.0),
                };
                if value_of(*g) != expected {
                    return false;
                }
            }
        }
    }
    true
}

/// Extends a child-bag assignment with a value for the introduced vertex,
/// re-indexed to the parent's bag ordering.
fn extend_assignment(
    child_bag: &[usize],
    child_mask: u64,
    bag: &[usize],
    introduced: usize,
    value: bool,
) -> u64 {
    let mut mask = 0u64;
    for (pos, &g) in bag.iter().enumerate() {
        let bit = if g == introduced {
            value
        } else {
            let child_pos = child_bag
                .iter()
                .position(|&x| x == g)
                .expect("gate in child bag");
            child_mask & (1 << child_pos) != 0
        };
        if bit {
            mask |= 1 << pos;
        }
    }
    mask
}

/// Projects a child-bag assignment onto the (smaller) parent bag.
fn project_assignment(child_bag: &[usize], child_mask: u64, bag: &[usize]) -> u64 {
    let mut mask = 0u64;
    for (pos, &g) in bag.iter().enumerate() {
        let child_pos = child_bag
            .iter()
            .position(|&x| x == g)
            .expect("gate in child bag");
        if child_mask & (1 << child_pos) != 0 {
            mask |= 1 << pos;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::circuit::VarId;
    use crate::dpll::DpllCounter;
    use crate::enumeration::probability_by_enumeration;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn single_variable() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        c.set_output(x);
        let mut w = Weights::new();
        w.set(VarId(0), 0.3);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.3);
    }

    #[test]
    fn negated_variable() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let nx = c.add_not(x);
        c.set_output(nx);
        let mut w = Weights::new();
        w.set(VarId(0), 0.3);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.7);
    }

    #[test]
    fn and_or_of_independent_variables() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let z = c.add_input(VarId(2));
        let and = c.add_and(vec![x, y]);
        let or = c.add_or(vec![and, z]);
        c.set_output(or);
        let w = Weights::uniform([VarId(0), VarId(1), VarId(2)], 0.5);
        // P = 1 - (1 - 0.25)(1 - 0.5) = 0.625
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.625);
    }

    #[test]
    fn constant_outputs() {
        let mut c = Circuit::new();
        let t = c.add_const(true);
        c.set_output(t);
        assert_close(
            TreewidthWmc::default()
                .probability(&c, &Weights::new())
                .unwrap(),
            1.0,
        );

        let mut c = Circuit::new();
        let f = c.add_const(false);
        c.set_output(f);
        assert_close(
            TreewidthWmc::default()
                .probability(&c, &Weights::new())
                .unwrap(),
            0.0,
        );
    }

    #[test]
    fn agrees_with_enumeration_and_dpll_on_random_circuits() {
        for seed in 0..15 {
            let c = builder::random_circuit(10, 18, seed);
            let w = Weights::uniform(c.variables(), 0.4);
            let brute = probability_by_enumeration(&c, &w).unwrap();
            let dpll = DpllCounter::default().probability(&c, &w).unwrap();
            let mp = TreewidthWmc::default().probability(&c, &w).unwrap();
            assert_close(mp, brute);
            assert_close(dpll, brute);
        }
    }

    #[test]
    fn agrees_on_monotone_chain_circuits() {
        for n in [1, 2, 5, 8] {
            let c = builder::conjunction_of_disjunctions(n, 2);
            let w = Weights::uniform(c.variables(), 0.7);
            let brute = probability_by_enumeration(&c, &w).unwrap();
            let mp = TreewidthWmc::default().probability(&c, &w).unwrap();
            assert_close(mp, brute);
        }
    }

    #[test]
    fn xor_chain_has_bounded_width_and_exact_probability() {
        // XOR chains have pathwidth 2-ish circuit graphs; P(xor of n fair coins) = 0.5.
        let c = builder::xor_chain(16);
        let w = Weights::uniform(c.variables(), 0.5);
        let report = TreewidthWmc::default().run(&c, &w).unwrap();
        assert_close(report.probability, 0.5);
        assert!(
            report.width <= 6,
            "width {} unexpectedly large",
            report.width
        );
    }

    #[test]
    fn width_limit_is_enforced() {
        let c = builder::majority_like_dense_circuit(12, 3);
        let w = Weights::uniform(c.variables(), 0.5);
        let strict = TreewidthWmc {
            max_bag_size: 2,
            ..Default::default()
        };
        assert!(matches!(
            strict.run(&c, &w),
            Err(WmcError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn shared_subcircuits_are_handled() {
        // (x AND y) appears twice: once directly, once under a NOT; the DAG
        // sharing must not break the count.
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let and = c.add_and(vec![x, y]);
        let nand = c.add_not(and);
        let or = c.add_or(vec![and, nand]);
        c.set_output(or);
        let w = Weights::uniform([VarId(0), VarId(1)], 0.5);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 1.0);
    }

    #[test]
    fn report_statistics_are_sensible() {
        let c = builder::conjunction_of_disjunctions(6, 3);
        let w = Weights::uniform(c.variables(), 0.5);
        let report = TreewidthWmc::default().run(&c, &w).unwrap();
        assert!(report.bag_count > 0);
        assert!(report.nice_node_count >= report.bag_count);
        assert!(report.probability > 0.0 && report.probability < 1.0);
    }

    #[test]
    fn probability_zero_variables_do_not_contribute() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let or = c.add_or(vec![x, y]);
        c.set_output(or);
        let mut w = Weights::new();
        w.set(VarId(0), 0.0);
        w.set(VarId(1), 0.6);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.6);
    }

    #[test]
    fn duplicate_input_gates_for_one_variable_are_merged() {
        // Two input gates reading the same variable must be forced equal and
        // weighted once: x AND (NOT x read through a second gate) is false.
        let mut c = Circuit::new();
        let x1 = c.add_input(VarId(0));
        let x2 = c.add_input(VarId(0));
        let nx2 = c.add_not(x2);
        let and = c.add_and(vec![x1, nx2]);
        c.set_output(and);
        let mut w = Weights::new();
        w.set(VarId(0), 0.5);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.0);

        // x OR (same x through another gate) has probability P(x), not 1-(1-p)².
        let mut c = Circuit::new();
        let x1 = c.add_input(VarId(0));
        let x2 = c.add_input(VarId(0));
        let or = c.add_or(vec![x1, x2]);
        c.set_output(or);
        assert_close(TreewidthWmc::default().probability(&c, &w).unwrap(), 0.5);
    }

    #[test]
    fn min_fill_heuristic_backend_agrees() {
        let c = builder::random_circuit(12, 20, 3);
        let w = Weights::uniform(c.variables(), 0.35);
        let a = TreewidthWmc {
            heuristic: EliminationHeuristic::MinFill,
            ..Default::default()
        }
        .probability(&c, &w)
        .unwrap();
        let b = TreewidthWmc::default().probability(&c, &w).unwrap();
        assert_close(a, b);
    }
}
