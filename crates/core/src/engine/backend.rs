//! The [`Backend`] trait and its four implementations.
//!
//! A back-end answers one question — "with what probability is this query
//! true?" — for a prepared [`EvaluationTask`]. The engine normalises every
//! representation to one of two task shapes: an *extensional* task (the raw
//! TID + query, for the safe-plan back-end, which never builds a circuit)
//! or a *circuit* task (lineage + weights, for the counting back-ends).

use super::error::StucError;
use super::report::BackendKind;
use stuc_circuit::circuit::Circuit;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::dpll::DpllCounter;
use stuc_circuit::enumeration::probability_by_enumeration;
use stuc_circuit::weights::Weights;
use stuc_circuit::wmc::TreewidthWmc;
use stuc_data::tid::TidInstance;
use stuc_graph::elimination::EliminationHeuristic;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::safe::safe_plan_probability;

/// A fully prepared evaluation task, normalised by the engine.
#[derive(Debug)]
pub enum EvaluationTask<'a> {
    /// The raw extensional inputs: only [`SafePlanBackend`] consumes these.
    Extensional {
        /// The tuple-independent instance to evaluate on.
        tid: &'a TidInstance,
        /// The (hierarchical, self-join-free) query to evaluate.
        query: &'a ConjunctiveQuery,
    },
    /// A lineage circuit and the probabilities of its variables: any
    /// counting back-end consumes these.
    Circuit {
        /// The lineage circuit of the query.
        lineage: &'a Circuit,
        /// Probabilities of the circuit's event variables.
        weights: &'a Weights,
    },
    /// A *compiled* lineage circuit (see
    /// [`stuc_circuit::compiled::CompiledCircuit`]) and the probabilities of
    /// its variables. Same semantics as [`EvaluationTask::Circuit`], but the
    /// treewidth back-end reuses the cached circuit-graph decomposition
    /// instead of rebuilding it — the engine's lineage cache and
    /// weight-only re-evaluation hand every counting back-end this shape.
    Compiled {
        /// The compiled lineage circuit of the query.
        lineage: &'a CompiledCircuit,
        /// Probabilities of the circuit's event variables.
        weights: &'a Weights,
    },
}

/// One probability-computation strategy.
pub trait Backend: std::fmt::Debug {
    /// Which strategy this is (named in reports and errors).
    fn kind(&self) -> BackendKind;

    /// Whether this back-end can run the given task shape at all. (A `true`
    /// here does not guarantee success — e.g. the safe-plan back-end still
    /// refuses non-hierarchical queries at [`Backend::solve`] time.)
    fn supports(&self, task: &EvaluationTask<'_>) -> bool;

    /// Computes the probability, or explains why it cannot.
    fn solve(&self, task: &EvaluationTask<'_>) -> Result<f64, StucError>;
}

/// Dalvi–Suciu extensional evaluation: independent joins and projects over
/// the relational plan. Linear-ish, but only for hierarchical self-join-free
/// CQs on TID instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct SafePlanBackend;

impl Backend for SafePlanBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SafePlan
    }

    fn supports(&self, task: &EvaluationTask<'_>) -> bool {
        matches!(task, EvaluationTask::Extensional { .. })
    }

    fn solve(&self, task: &EvaluationTask<'_>) -> Result<f64, StucError> {
        match task {
            EvaluationTask::Extensional { tid, query } => Ok(safe_plan_probability(tid, query)?),
            EvaluationTask::Circuit { .. } | EvaluationTask::Compiled { .. } => {
                Err(StucError::BackendUnsupported {
                    backend: self.kind().name(),
                    reason: "safe-plan evaluation needs the raw TID instance, not a circuit".into(),
                })
            }
        }
    }
}

/// The paper's flagship back-end: message passing over a tree decomposition
/// of the lineage circuit. Exact, and linear-time once the width is fixed.
#[derive(Debug, Clone, Copy)]
pub struct TreewidthWmcBackend {
    /// The first heuristic tried on the circuit graph (see
    /// [`TreewidthWmc::decompose_circuit_graph`]).
    pub heuristic: EliminationHeuristic,
    /// Bag-size budget: wider circuits are refused (so Auto can fall back).
    pub max_bag_size: usize,
}

impl Default for TreewidthWmcBackend {
    fn default() -> Self {
        TreewidthWmcBackend {
            heuristic: EliminationHeuristic::MinDegree,
            max_bag_size: 22,
        }
    }
}

impl TreewidthWmcBackend {
    fn counter(&self) -> TreewidthWmc {
        TreewidthWmc {
            heuristic: self.heuristic,
            max_bag_size: self.max_bag_size,
        }
    }

    /// Width of the decomposition the counter would use on this circuit.
    pub fn estimated_width(&self, circuit: &Circuit) -> usize {
        self.counter().estimated_width(circuit)
    }
}

impl Backend for TreewidthWmcBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::TreewidthWmc
    }

    fn supports(&self, task: &EvaluationTask<'_>) -> bool {
        matches!(
            task,
            EvaluationTask::Circuit { .. } | EvaluationTask::Compiled { .. }
        )
    }

    fn solve(&self, task: &EvaluationTask<'_>) -> Result<f64, StucError> {
        match task {
            EvaluationTask::Circuit { lineage, weights } => {
                Ok(self.counter().probability(lineage, weights)?)
            }
            EvaluationTask::Compiled { lineage, weights } => {
                // The compiled circuit already holds the (nice) decomposition
                // of its circuit graph: only message passing runs here.
                Ok(lineage.probability(weights, self.max_bag_size)?)
            }
            EvaluationTask::Extensional { .. } => Err(StucError::BackendUnsupported {
                backend: self.kind().name(),
                reason: "treewidth WMC runs on lineage circuits; build one first".into(),
            }),
        }
    }
}

/// Shannon expansion with constant propagation and memoisation. No width
/// assumption; the branch budget bounds runaway instances.
#[derive(Debug, Clone)]
pub struct DpllBackend {
    /// Maximum recursive branch steps before giving up.
    pub max_branches: u64,
}

impl Default for DpllBackend {
    fn default() -> Self {
        DpllBackend {
            max_branches: DpllCounter::default().max_branches,
        }
    }
}

impl Backend for DpllBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Dpll
    }

    fn supports(&self, task: &EvaluationTask<'_>) -> bool {
        matches!(
            task,
            EvaluationTask::Circuit { .. } | EvaluationTask::Compiled { .. }
        )
    }

    fn solve(&self, task: &EvaluationTask<'_>) -> Result<f64, StucError> {
        let counter = DpllCounter {
            max_branches: self.max_branches,
        };
        match task {
            EvaluationTask::Circuit { lineage, weights } => {
                Ok(counter.probability(lineage, weights)?)
            }
            EvaluationTask::Compiled { lineage, weights } => {
                Ok(counter.probability(lineage.source(), weights)?)
            }
            EvaluationTask::Extensional { .. } => Err(StucError::BackendUnsupported {
                backend: self.kind().name(),
                reason: "DPLL runs on lineage circuits; build one first".into(),
            }),
        }
    }
}

/// Ground-truth possible-world enumeration (exponential in the variable
/// count; refused above `stuc_circuit::enumeration::ENUMERATION_LIMIT`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumerationBackend;

impl Backend for EnumerationBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Enumeration
    }

    fn supports(&self, task: &EvaluationTask<'_>) -> bool {
        matches!(
            task,
            EvaluationTask::Circuit { .. } | EvaluationTask::Compiled { .. }
        )
    }

    fn solve(&self, task: &EvaluationTask<'_>) -> Result<f64, StucError> {
        match task {
            EvaluationTask::Circuit { lineage, weights } => {
                Ok(probability_by_enumeration(lineage, weights)?)
            }
            EvaluationTask::Compiled { lineage, weights } => {
                Ok(probability_by_enumeration(lineage.source(), weights)?)
            }
            EvaluationTask::Extensional { .. } => Err(StucError::BackendUnsupported {
                backend: self.kind().name(),
                reason: "enumeration runs on lineage circuits; build one first".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_circuit::circuit::VarId;

    fn single_var_task() -> (Circuit, Weights) {
        let mut circuit = Circuit::new();
        let g = circuit.add_input(VarId(0));
        circuit.set_output(g);
        let mut weights = Weights::new();
        weights.set(VarId(0), 0.3);
        (circuit, weights)
    }

    #[test]
    fn circuit_backends_agree_on_a_single_variable() {
        let (circuit, weights) = single_var_task();
        let task = EvaluationTask::Circuit {
            lineage: &circuit,
            weights: &weights,
        };
        for backend in [
            Box::new(TreewidthWmcBackend::default()) as Box<dyn Backend>,
            Box::new(DpllBackend::default()),
            Box::new(EnumerationBackend),
        ] {
            assert!(backend.supports(&task));
            let p = backend.solve(&task).unwrap();
            assert!((p - 0.3).abs() < 1e-12, "{} got {p}", backend.kind());
        }
    }

    #[test]
    fn circuit_backends_agree_on_compiled_tasks() {
        let (circuit, weights) = single_var_task();
        let compiled = CompiledCircuit::compile(
            std::sync::Arc::new(circuit),
            EliminationHeuristic::MinDegree,
        )
        .unwrap();
        let task = EvaluationTask::Compiled {
            lineage: &compiled,
            weights: &weights,
        };
        assert!(!SafePlanBackend.supports(&task));
        assert!(SafePlanBackend.solve(&task).is_err());
        for backend in [
            Box::new(TreewidthWmcBackend::default()) as Box<dyn Backend>,
            Box::new(DpllBackend::default()),
            Box::new(EnumerationBackend),
        ] {
            assert!(backend.supports(&task));
            let p = backend.solve(&task).unwrap();
            assert!((p - 0.3).abs() < 1e-12, "{} got {p}", backend.kind());
        }
    }

    #[test]
    fn safe_plan_rejects_circuit_tasks() {
        let (circuit, weights) = single_var_task();
        let task = EvaluationTask::Circuit {
            lineage: &circuit,
            weights: &weights,
        };
        assert!(!SafePlanBackend.supports(&task));
        assert!(matches!(
            SafePlanBackend.solve(&task),
            Err(StucError::BackendUnsupported {
                backend: "safe-plan",
                ..
            })
        ));
    }

    #[test]
    fn circuit_backends_reject_extensional_tasks() {
        let tid = TidInstance::new();
        let query = ConjunctiveQuery::parse("R(x)").unwrap();
        let task = EvaluationTask::Extensional {
            tid: &tid,
            query: &query,
        };
        assert!(SafePlanBackend.supports(&task));
        for backend in [
            Box::new(TreewidthWmcBackend::default()) as Box<dyn Backend>,
            Box::new(DpllBackend::default()),
            Box::new(EnumerationBackend),
        ] {
            assert!(!backend.supports(&task));
            assert!(backend.solve(&task).is_err());
        }
    }
}
