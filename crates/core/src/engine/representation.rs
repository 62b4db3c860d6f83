//! The [`Representation`] trait: what the engine needs from an uncertain
//! data representation, and its implementations for every formalism in the
//! workspace (TID, c-/pc-/pcc-instances, probabilistic XML).
//!
//! The paper's central claim is that *one* structural pipeline — instance →
//! decomposition → automaton/lineage → circuit → weighted model counting —
//! uniformly covers all of these. This trait is that claim as an interface:
//! a representation must expose its structure graph (whose treewidth is the
//! tractability parameter), a lineage-circuit constructor for its query
//! language, and the probability weights of its lineage variables.

use super::error::StucError;
use stuc_circuit::circuit::{Circuit, VarId};
use stuc_circuit::weights::Weights;
use stuc_circuit::wmc::TreewidthWmc;
use stuc_data::cinstance::{CInstance, PcInstance};
use stuc_data::pcc::PccInstance;
use stuc_data::tid::TidInstance;
use stuc_graph::graph::Graph;
use stuc_graph::TreeDecomposition;
use stuc_prxml::document::PrXmlDocument;
use stuc_prxml::queries::{query_lineage, PrxmlQuery};
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::lineage::{cinstance_lineage, pcc_lineage};

/// Which representation formalism an implementation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Tuple-independent probabilistic instance (Theorem 1).
    Tid,
    /// c-instance: facts annotated with event formulas, no probabilities.
    CInstance,
    /// pc-instance: a c-instance whose events carry probabilities.
    PcInstance,
    /// pcc-instance: facts annotated with gates of a shared circuit
    /// (Theorem 2).
    PccInstance,
    /// Probabilistic XML document (`ind`/`mux`/`cie`).
    PrXml,
}

impl ReprKind {
    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ReprKind::Tid => "tid-instance",
            ReprKind::CInstance => "c-instance",
            ReprKind::PcInstance => "pc-instance",
            ReprKind::PccInstance => "pcc-instance",
            ReprKind::PrXml => "prxml-document",
        }
    }
}

impl std::fmt::Display for ReprKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A lineage circuit plus an optional note about how it was built (e.g. a
/// fallback from the decomposition-guided construction).
#[derive(Debug, Clone)]
pub struct LineageOutcome {
    /// Circuit over the representation's event variables, true exactly in
    /// the possible worlds where the query holds.
    pub circuit: Circuit,
    /// Strategy note for the evaluation report, if anything noteworthy
    /// happened during construction.
    pub note: Option<String>,
}

impl LineageOutcome {
    fn plain(circuit: Circuit) -> Self {
        LineageOutcome {
            circuit,
            note: None,
        }
    }
}

/// The input of the extensional (safe-plan) fast path: only representations
/// that are plain TID instances with conjunctive queries offer it.
#[derive(Debug, Clone, Copy)]
pub struct ExtensionalInput<'a> {
    /// The tuple-independent instance to evaluate on.
    pub tid: &'a TidInstance,
    /// The conjunctive query to evaluate.
    pub query: &'a ConjunctiveQuery,
}

/// An uncertain data representation the engine can evaluate queries on.
///
/// Implementations exist for [`TidInstance`], [`CInstance`], [`PcInstance`],
/// [`PccInstance`] and [`PrXmlDocument`]; user-defined representations only
/// need to answer the same four questions (structure, lineage, weights,
/// identity) to plug into [`crate::engine::Engine`] unchanged.
pub trait Representation: std::fmt::Debug {
    /// The query language this representation is evaluated against. The
    /// `Debug` bound gives the engine a deterministic rendering to
    /// fingerprint queries for its compiled-lineage cache; `Clone + Send +
    /// Sync + 'static` lets the cache keep the query itself, so
    /// [`crate::engine::Engine::apply_update`] can re-derive delta lineages
    /// for every cached entry when the instance changes.
    type Query: std::fmt::Debug + Clone + Send + Sync + 'static;

    /// Which formalism this is (used in reports and error messages).
    fn kind(&self) -> ReprKind;

    /// Number of facts (or document nodes) — reported, never interpreted.
    fn fact_count(&self) -> usize;

    /// The graph whose treewidth is the representation's structural
    /// tractability parameter: the Gaifman graph for TID and c-instances,
    /// the joint instance+circuit graph for pcc-instances (Theorem 2), the
    /// presence-circuit graph for PrXML.
    fn structure_graph(&self) -> Graph;

    /// The lineage circuit of `query`: true in exactly the possible worlds
    /// where the query holds. `decomposition` is a tree decomposition of
    /// [`Representation::structure_graph`]; implementations that build the
    /// lineage by a decomposition-guided automaton run consume it, others
    /// ignore it.
    fn lineage(
        &self,
        query: &Self::Query,
        decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError>;

    /// Probabilities of the lineage variables.
    fn weights(&self) -> Result<Weights, StucError>;

    /// A structural fingerprint identifying this instance for the engine's
    /// decomposition cache. Two equal representations must fingerprint
    /// equally within one process; collisions merely cost a wrong-width
    /// cache entry, never a wrong probability, because cached decompositions
    /// are validated against the structure graph before reuse.
    ///
    /// The default equals the primary hash the lineage cache keys instances
    /// by (FNV-1a from the standard basis over the `Debug` rendering), and
    /// [`crate::engine::Engine::decomposition_for`],
    /// [`crate::engine::Engine::evict_instance`] and
    /// [`crate::engine::Engine::apply_update`] depend on that: an update
    /// hashes the instance once per side and keys both caches with it. An
    /// override keeps answers exact but gives up maintaining the
    /// decomposition cache across updates.
    fn fingerprint(&self) -> u64 {
        fingerprint_debug(self)
    }

    /// The extensional fast path, if this representation supports one.
    fn extensional<'a>(&'a self, query: &'a Self::Query) -> Option<ExtensionalInput<'a>> {
        let _ = query;
        None
    }

    /// Per-relation fact counts for the textual front-end's cost model
    /// ([`stuc_lang::cost::CostModel`]). `None` for non-relational
    /// representations, which makes the cost model fall back to zero
    /// fan-ins (and hence to the structurally-determined route).
    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        None
    }
}

/// The standard FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the `Debug` rendering: a cheap, deterministic-per-process
/// identity good enough for cache keying (see `Representation::fingerprint`).
pub(crate) fn fingerprint_debug<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    fingerprint_debug_with(value, FNV_OFFSET_BASIS)
}

/// The same FNV-1a pass from a caller-chosen offset basis. The engine's
/// lineage cache stores a second, differently-seeded hash of the instance
/// next to the primary fingerprint, so a wrong cache reuse needs two
/// simultaneous 64-bit collisions (plus identical query text) instead of
/// one.
pub(crate) fn fingerprint_debug_with<T: std::fmt::Debug + ?Sized>(value: &T, basis: u64) -> u64 {
    fingerprint_debug_pair_with(value, basis, basis).0
}

/// Two differently-seeded FNV-1a hashes computed in a *single* `Debug`
/// rendering pass — the rendering, not the hashing, is the linear cost, so
/// the lineage cache's primary + check hashes together cost one pass.
pub(crate) fn fingerprint_debug_pair_with<T: std::fmt::Debug + ?Sized>(
    value: &T,
    basis_a: u64,
    basis_b: u64,
) -> (u64, u64) {
    use std::fmt::Write;
    struct Fnv2(u64, u64);
    impl Write for Fnv2 {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
                self.1 = (self.1 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv2(basis_a, basis_b);
    let _ = write!(h, "{value:?}");
    (h.0, h.1)
}

impl Representation for TidInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::Tid
    }

    fn fact_count(&self) -> usize {
        TidInstance::fact_count(self)
    }

    fn structure_graph(&self) -> Graph {
        self.gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        // Theorem 1 construction: nondeterministic automaton run over the
        // tree decomposition, linear-time at fixed width. Falls back to the
        // match-enumeration lineage when the run refuses the query (too many
        // atoms / anchoring limits) — same circuit semantics, no width bound.
        match stuc_automata::courcelle::cq_lineage_circuit(
            self.instance(),
            decomposition,
            query,
            |f| self.fact_event(f),
        ) {
            Ok(circuit) => Ok(LineageOutcome::plain(circuit)),
            Err(refusal) => Ok(LineageOutcome {
                circuit: stuc_query::lineage::tid_lineage(self, query),
                note: Some(format!(
                    "automaton lineage refused ({refusal}); fell back to match-enumeration lineage"
                )),
            }),
        }
    }

    fn weights(&self) -> Result<Weights, StucError> {
        Ok(self.fact_weights())
    }

    fn extensional<'a>(&'a self, query: &'a ConjunctiveQuery) -> Option<ExtensionalInput<'a>> {
        Some(ExtensionalInput { tid: self, query })
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for CInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::CInstance
    }

    fn fact_count(&self) -> usize {
        self.instance().fact_count()
    }

    fn structure_graph(&self) -> Graph {
        self.instance().gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(cinstance_lineage(self, query)))
    }

    /// A plain c-instance carries no probabilities; evaluating one computes
    /// the *fraction of event valuations* satisfying the query (each event
    /// uniform at 1/2), so `probability > 0` is possibility and
    /// `probability = 1` is certainty — the c-instance questions of the
    /// paper's Table 1. Attach real probabilities with
    /// [`CInstance::with_probabilities`] to get a pc-instance instead.
    fn weights(&self) -> Result<Weights, StucError> {
        Ok(Weights::uniform(self.events().variables(), 0.5))
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PcInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PcInstance
    }

    fn fact_count(&self) -> usize {
        self.instance().fact_count()
    }

    fn structure_graph(&self) -> Graph {
        self.instance().gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(cinstance_lineage(
            self.cinstance(),
            query,
        )))
    }

    fn weights(&self) -> Result<Weights, StucError> {
        if !self.is_fully_weighted() {
            return Err(StucError::MissingProbabilities {
                representation: "pc-instance",
            });
        }
        Ok(self.probabilities().clone())
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PccInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PccInstance
    }

    fn fact_count(&self) -> usize {
        PccInstance::fact_count(self)
    }

    /// The joint instance + annotation-circuit graph, whose treewidth is the
    /// Theorem 2 parameter.
    fn structure_graph(&self) -> Graph {
        self.joint_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(pcc_lineage(self, query)))
    }

    fn weights(&self) -> Result<Weights, StucError> {
        Ok(self.probabilities().clone())
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PrXmlDocument {
    type Query = PrxmlQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PrXml
    }

    fn fact_count(&self) -> usize {
        self.len()
    }

    /// The graph of the document's presence circuit: tree-shaped documents
    /// with local uncertainty stay width-bounded, and long-range `cie`
    /// events widen it exactly as the paper's event scopes predict.
    fn structure_graph(&self) -> Graph {
        let (presence, _) = self.presence_circuit();
        TreewidthWmc::circuit_graph(&presence)
    }

    fn lineage(
        &self,
        query: &PrxmlQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(query_lineage(self, query)))
    }

    fn weights(&self) -> Result<Weights, StucError> {
        let weights = self.probabilities().clone();
        let covered: Vec<VarId> = self.variables().into_iter().collect();
        if !weights.covers(covered.iter()) {
            return Err(StucError::MissingProbabilities {
                representation: "prxml-document",
            });
        }
        Ok(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_deterministic_and_content_sensitive() {
        let mut a = TidInstance::new();
        a.add_fact_named("R", &["x", "y"], 0.5);
        let mut b = TidInstance::new();
        b.add_fact_named("R", &["x", "y"], 0.5);
        assert_eq!(
            Representation::fingerprint(&a),
            Representation::fingerprint(&b)
        );
        b.add_fact_named("R", &["y", "z"], 0.25);
        assert_ne!(
            Representation::fingerprint(&a),
            Representation::fingerprint(&b)
        );
    }

    #[test]
    fn fingerprint_is_the_lineage_caches_primary_hash() {
        fn primary_hash_agrees<R: Representation>(representation: &R) {
            assert_eq!(
                representation.fingerprint(),
                crate::engine::lineage_fingerprint_pair(representation).0,
                "{}",
                representation.kind()
            );
        }
        let tid = crate::workloads::path_tid(6, 0.5, 3);
        primary_hash_agrees(&tid);
        let mut ci = CInstance::new();
        ci.add_fact_with_condition("R", &["a", "b"], "e0 & !e1")
            .unwrap();
        ci.add_fact_with_condition("R", &["b", "c"], "e1").unwrap();
        primary_hash_agrees(&ci);
        let vars: Vec<VarId> = ci.events().variables().collect();
        primary_hash_agrees(&ci.with_probabilities(Weights::uniform(vars, 0.4)));
        primary_hash_agrees(&crate::workloads::contributor_pcc(3, 2, 0.8, 0.7, 5));
        let mut doc = PrXmlDocument::new();
        let root = doc.add_node("root");
        doc.set_root(root);
        let child = doc.add_node("a");
        doc.add_ind_child(root, child, 0.6);
        primary_hash_agrees(&doc);
    }

    #[test]
    fn tid_offers_the_extensional_path_and_cinstance_does_not() {
        let tid = TidInstance::new();
        let q = ConjunctiveQuery::parse("R(x)").unwrap();
        assert!(tid.extensional(&q).is_some());
        let ci = CInstance::new();
        assert!(Representation::extensional(&ci, &q).is_none());
    }

    #[test]
    fn repr_kind_names_are_stable() {
        assert_eq!(ReprKind::Tid.name(), "tid-instance");
        assert_eq!(ReprKind::PccInstance.to_string(), "pcc-instance");
    }
}
