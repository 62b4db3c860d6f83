//! Incremental updates: patch the caches, don't rebuild the world.
//!
//! [`Engine::apply_update`] is the write path of the engine. It applies a
//! typed [`Delta`] to the instance and then *maintains* both engine caches
//! across the mutation instead of evicting them:
//!
//! * the **decomposition cache** entry is rekeyed verbatim when the
//!   structure graph did not grow (weight changes, deletions), repaired
//!   locally through [`stuc_graph::repair`] when it grew by fact cliques,
//!   and rebuilt from scratch only when the repair would exceed the
//!   engine's width budget or the representation reports an opaque change;
//! * every **compiled-lineage cache** entry for the instance is patched
//!   according to the representation's [`LineagePatch`]: reused verbatim
//!   for weight-only deltas, input-rewired for deletions (pin + renumber,
//!   no recompilation), extended with the delta lineage of the new matches
//!   for insertions — and dropped for rebuilds the patch model does not
//!   cover.
//!
//! Patches only ever grow a circuit's sweep: a deletion leaves its cone in
//! place as constants, and an insertion's repaired decomposition widens
//! with every new cone. Each entry therefore keeps the dense-table volume
//! of its last compile as a watermark. A patched circuit whose volume
//! passes twice that watermark is recompiled in place from its own source
//! (simplification folds the pinned cones away): no pass over the instance,
//! and the entry stays warm. Every sweep thus stays within a constant
//! factor of a compile of the live lineage, however long the churn.
//!
//! The instance is hashed once on each side of the mutation: the lineage
//! cache's primary hash doubles as [`Representation::fingerprint`], which
//! keys the decomposition cache.
//!
//! The returned [`UpdateReport`] says exactly what was reused vs rebuilt,
//! so operational dashboards (and the `a5_incremental_updates` bench) can
//! watch the patch rate and the width drift.

use super::metrics::engine_metrics;
use super::{lineage_fingerprint_pair, Engine, Representation, StucError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;
use stuc_circuit::circuit::Gate;
use stuc_graph::elimination::decompose_with_heuristic;
use stuc_graph::repair::repair_decomposition;
use stuc_graph::TreeDecomposition;
use stuc_incr::{Delta, LineagePatch, LineagePatchStep, StructureImpact, Updatable};
use stuc_obs::timer::Stopwatch;
use stuc_obs::{slowlog, trace};

/// What one [`Engine::apply_update`] call reused, patched and rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateReport {
    /// Facts inserted by the delta.
    pub inserted: usize,
    /// Facts deleted by the delta.
    pub deleted: usize,
    /// Probabilities overwritten by the delta.
    pub reweighted: usize,
    /// Decomposition bags grown or added across all repairs (structure
    /// graph and circuit graphs).
    pub bags_touched: usize,
    /// Lineage gates rewired or appended across all patched circuits; 0 for
    /// a weights-only update.
    pub gates_rebuilt: usize,
    /// Width of the cached structure decomposition before the update (when
    /// one was cached).
    pub width_before: Option<usize>,
    /// Width after patching / rebuilding (when a decomposition is cached
    /// again). The difference is the update's width drift.
    pub width_after: Option<usize>,
    /// True when any patch was abandoned for a full rebuild (repair over
    /// the width budget, opaque structural change, unpatchable lineage, a
    /// failed compaction).
    pub fell_back: bool,
    /// Compiled lineages patched (or rekeyed) and kept warm, including
    /// those compacted in place.
    pub lineages_patched: usize,
    /// Compiled lineages dropped; they rebuild lazily on the next query.
    pub lineages_dropped: usize,
    /// Wall-clock time of the whole update, mutation included.
    pub wall_time: Duration,
    /// Human-readable trace of the patch decisions.
    pub notes: Vec<String>,
}

impl UpdateReport {
    /// Width drift of this update: `width_after - width_before`, when both
    /// are known. Positive drift accumulating across updates is the signal
    /// to schedule a full re-decomposition.
    pub fn width_drift(&self) -> Option<isize> {
        match (self.width_before, self.width_after) {
            (Some(before), Some(after)) => Some(after as isize - before as isize),
            _ => None,
        }
    }
}

impl Engine {
    /// Applies a [`Delta`] to the instance **and** incrementally maintains
    /// the engine's caches across the mutation: the decomposition and every
    /// compiled lineage of the instance are patched and rekeyed from the
    /// old fingerprint to the new one, falling back to targeted eviction
    /// (see [`Engine::evict_instance`]) plus lazy rebuild only where a
    /// patch is impossible or would exceed the width budget.
    ///
    /// Fact identifiers in the delta refer to the pre-update instance; see
    /// [`Delta`] for the in-transaction application order. A rejected delta
    /// (unknown fact, NaN probability, unsupported op) leaves the instance
    /// and the caches untouched.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_incr::Delta;
    /// use stuc_data::instance::FactId;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let mut tid = workloads::path_tid(8, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // caches decomposition + lineage
    ///
    /// let delta = Delta::new().set_probability(FactId(0), 0.95);
    /// let report = engine.apply_update(&mut tid, &delta).unwrap();
    /// assert_eq!(report.gates_rebuilt, 0); // weights-only: everything reused
    /// assert!(!report.fell_back);
    ///
    /// // The very next evaluation is served from the patched caches.
    /// let after = engine.evaluate(&tid, &query).unwrap();
    /// assert!(after.lineage_cached);
    /// ```
    pub fn apply_update<R>(
        &self,
        representation: &mut R,
        delta: &Delta,
    ) -> Result<UpdateReport, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        let _span = trace::span("apply_update");
        let watch = Stopwatch::start();
        let result = self.apply_update_inner(representation, delta, watch);
        engine_metrics()
            .apply_update
            .observe(&result, watch.elapsed());
        if let Ok(report) = &result {
            slowlog::global().note("apply_update", report.wall_time, 0, || {
                format!(
                    "+{} -{} ~{} patched={} dropped={}",
                    report.inserted,
                    report.deleted,
                    report.reweighted,
                    report.lineages_patched,
                    report.lineages_dropped
                )
            });
        }
        result
    }

    /// [`Engine::apply_update`] under a cooperative
    /// [`EvalBudget`](super::EvalBudget). Budget checkpoints sit between the
    /// maintenance phases (and inside the repair/patch loops they call), so
    /// a tripped deadline surfaces as
    /// [`StucError::DeadlineExceeded`](super::StucError) after the current
    /// phase completes — the instance mutation itself is never torn.
    pub fn apply_update_with_budget<R>(
        &self,
        representation: &mut R,
        delta: &Delta,
        budget: &super::EvalBudget,
    ) -> Result<UpdateReport, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        self.budgeted(budget, || self.apply_update(representation, delta))
    }

    fn apply_update_inner<R>(
        &self,
        representation: &mut R,
        delta: &Delta,
        watch: Stopwatch,
    ) -> Result<UpdateReport, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        let mut report = UpdateReport::default();

        // One identity pass per side of the mutation: the pair's primary
        // hash is `Representation::fingerprint` (the same FNV-1a pass over
        // the same rendering), so it keys the decomposition cache as well.
        let (old_fingerprint, old_check) = lineage_fingerprint_pair(representation);
        let application = representation.apply_delta(delta)?;
        let (new_fingerprint, new_check) = lineage_fingerprint_pair(representation);
        report.inserted = application.inserted.len();
        report.deleted = application.deleted;
        report.reweighted = application.reweighted;

        // Pull the instance's stale lineage entries out first — targeted
        // eviction below must not throw them away before they are patched.
        // The drain matches on the primary hash only, so entries that merely
        // *collide* with this instance (different secondary check hash) are
        // put back untouched: rekeying validates against the same dual-hash
        // discipline as a cold lookup.
        let mut stale_lineages = self
            .lineage_cache
            .drain_matching(|key| key.0 == old_fingerprint);
        let colliding: Vec<_> = {
            let (ours, theirs) = stale_lineages
                .into_iter()
                .partition(|(_, entry)| entry.instance_check == old_check);
            stale_lineages = ours;
            theirs
        };
        let old_decomposition = self.cache.get(&(old_fingerprint, self.config.heuristic));
        // Everything still keyed by the old fingerprint is now stale (other
        // heuristics, collision leftovers): evict it in one targeted sweep —
        // and only then restore the colliding strangers it must not touch.
        self.evict_instance(old_fingerprint);
        for (key, entry) in colliding {
            self.lineage_cache.insert_replacing(key, entry);
        }

        // --- decomposition maintenance -------------------------------------
        // The mutation is committed and the stale entries are already pulled
        // out: from here on a budget trip only costs cache warmth (dropped
        // entries rebuild lazily), never consistency.
        stuc_fault::budget::check("update: decomposition maintenance")?;
        if let Some(old) = old_decomposition {
            report.width_before = Some(old.width());
            let patched: Option<TreeDecomposition> = match &application.structure {
                StructureImpact::Unchanged | StructureImpact::Shrunk => {
                    report
                        .notes
                        .push("structure decomposition rekeyed unchanged".into());
                    Some((*old).clone())
                }
                StructureImpact::Grown {
                    vertex_remap,
                    new_cliques,
                } => {
                    let graph = representation.structure_graph();
                    let base = match vertex_remap {
                        Some(map) => old.remap_vertices(map),
                        None => (*old).clone(),
                    };
                    match repair_decomposition(&base, &graph, new_cliques, self.config.width_budget)
                    {
                        Ok((patched, stats)) => {
                            report.bags_touched += stats.bags_touched + stats.bags_added;
                            report.notes.push(format!(
                                "structure decomposition repaired in place ({} bags touched, {} added)",
                                stats.bags_touched, stats.bags_added
                            ));
                            Some(patched)
                        }
                        Err(refusal) => {
                            report.fell_back = true;
                            report.notes.push(format!(
                                "decomposition repair refused ({refusal}); re-decomposed from scratch"
                            ));
                            Some(decompose_with_heuristic(&graph, self.config.heuristic))
                        }
                    }
                }
                StructureImpact::Opaque => {
                    report.fell_back = true;
                    report.notes.push(
                        "structural change is opaque for this representation; re-decomposed".into(),
                    );
                    Some(decompose_with_heuristic(
                        &representation.structure_graph(),
                        self.config.heuristic,
                    ))
                }
            };
            // A fallback re-decomposition run after the budget tripped may
            // be degraded; like `decomposition_for`, never publish one.
            stuc_fault::budget::check("update: decomposition maintenance")?;
            if let Some(patched) = patched {
                report.width_after = Some(patched.width());
                self.cache
                    .insert_replacing((new_fingerprint, self.config.heuristic), Arc::new(patched));
            }
        }

        // --- compiled-lineage maintenance ----------------------------------
        let structure_width = report.width_after;
        let mut budget_gate = stuc_fault::budget::Gate::every(4);
        for (key, entry) in stale_lineages {
            budget_gate.check("update: lineage maintenance")?;
            if key.2 != self.config.heuristic {
                report.lineages_dropped += 1;
                continue;
            }
            let patched = match &application.lineage {
                LineagePatch::Rebuild => None,
                LineagePatch::Reusable => {
                    Some(entry.with_patched_circuit(entry.compiled.clone(), new_check, None))
                }
                LineagePatch::Steps(steps) => {
                    let mut compiled = entry.compiled.clone();
                    let mut alive = true;
                    for step in steps {
                        match step {
                            LineagePatchStep::RewireInputs { pin_false, remap } => {
                                let pins: BTreeSet<_> = pin_false.iter().copied().collect();
                                let map: BTreeMap<_, _> = remap.iter().copied().collect();
                                let (rewired, gates) = compiled.rewire_inputs(&pins, &map);
                                compiled = rewired;
                                report.gates_rebuilt += gates;
                            }
                            LineagePatchStep::ExtendWithNewMatches { inserted } => {
                                let Some(query) =
                                    entry.query.downcast_ref::<<R as Representation>::Query>()
                                else {
                                    alive = false;
                                    break;
                                };
                                let Some(delta_circuit) =
                                    representation.delta_lineage(query, inserted)
                                else {
                                    alive = false;
                                    break;
                                };
                                let Ok(simplified) = delta_circuit.simplify() else {
                                    alive = false;
                                    break;
                                };
                                let constant_false = simplified
                                    .output()
                                    .map(|out| matches!(simplified.gate(out), Gate::Const(false)))
                                    .unwrap_or(true);
                                if constant_false {
                                    // The insertion created no new match for
                                    // this query: the old circuit is exact.
                                    continue;
                                }
                                match compiled.extend_or(&simplified, self.config.width_budget) {
                                    Ok((extended, stats)) => {
                                        compiled = extended;
                                        report.gates_rebuilt += stats.gates_appended;
                                        report.bags_touched +=
                                            stats.bags_touched + stats.bags_added;
                                    }
                                    Err(refusal) => {
                                        report.fell_back = true;
                                        report.notes.push(format!(
                                            "lineage patch refused ({refusal}); dropped for lazy rebuild"
                                        ));
                                        alive = false;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    if !alive {
                        None
                    } else if compiled.table_volume() <= entry.cold_volume.saturating_mul(2) {
                        Some(entry.with_patched_circuit(compiled, new_check, structure_width))
                    } else {
                        // Compact in place: recompiling from its own
                        // source reads nothing of the instance, and
                        // simplification folds the pinned cones away.
                        match self.compile_lineage(compiled.source()) {
                            Ok(compacted) => {
                                report.notes.push(format!(
                                    "patched lineage outgrew twice the sweep of its last compile ({} table entries); compacted in place",
                                    entry.cold_volume
                                ));
                                Some(entry.with_compiled_circuit(
                                    compacted,
                                    new_check,
                                    structure_width,
                                ))
                            }
                            Err(refusal) => {
                                report.fell_back = true;
                                report.notes.push(format!(
                                    "lineage compaction failed ({refusal}); dropped for lazy rebuild"
                                ));
                                None
                            }
                        }
                    }
                }
            };
            match patched {
                Some(fresh) => {
                    report.lineages_patched += 1;
                    self.lineage_cache
                        .insert_replacing((new_fingerprint, key.1, key.2), Arc::new(fresh));
                }
                None => report.lineages_dropped += 1,
            }
        }
        if report.lineages_dropped > 0 && matches!(application.lineage, LineagePatch::Rebuild) {
            report.notes.push(format!(
                "{} compiled lineage(s) dropped: this update class rebuilds lineage",
                report.lineages_dropped
            ));
            report.fell_back = true;
        }

        report.wall_time = watch.elapsed();
        Ok(report)
    }
}
