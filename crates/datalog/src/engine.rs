//! The semi-naive fixpoint engine with provenance and incremental
//! maintenance.
//!
//! The engine owns the *materialized update-exchange state* of a CDSS
//! epoch: all peers' base (published) tuples, every tuple derivable through
//! the mapping program, and the provenance graph connecting them.
//!
//! Incremental behaviour — the point of the paper's provenance formulation:
//!
//! * **Insertions** enter a pending delta; [`Engine::propagate`] runs
//!   semi-naive rounds (module `join`) from the delta only, touching work
//!   proportional to the new derivations rather than the whole database.
//! * **Deletions** are decided by a well-founded derivability test over
//!   the stored provenance graph, restricted to the subgraph the deleted
//!   base tuples reach ([`Engine::remove_bases`], module `delete`) —
//!   Orchestra's approach. No rule is re-evaluated to delete.
//!
//! Every externally visible change to the materialized state is appended to
//! a change log of `(NodeId, ChangeKind)` entries
//! ([`Engine::drain_change_log`]) — update translation resolves the
//! entries it reads and packages them per transaction (the
//! `orchestra-core` crate). Nothing is resolved to values while logging.
//!
//! The engine's state comes in three parts, one per module that works on
//! it: the compiled program (module `compile`), which no round mutates;
//! the relations and the facts that the join and deletion write; and
//! each module's scratch, kept across calls.
//!
//! ## Values, symbols and membership
//!
//! Internally the engine never touches a
//! [`Value`](orchestra_relational::Value): at the API boundary
//! every tuple is interned through a [`ValueInterner`] into a [`SymTuple`]
//! of dense `u32` [`Sym`]s, and storage, indexes, joins and node interning
//! all run on integers.
//!
//! Each relation is one [`SymRel`]: a sequence-ordered table of
//! `(tuple, node)` entries with a `[Sym]` probe index per probed column
//! set, addressed by position. Membership is the [`NodeTable`] plus a
//! per-node position: the table maps every tuple ever seen to its node,
//! and keeps each live node's slot in its relation (dead nodes carry a
//! sentinel). So "is this tuple present, and what is its node?" is one
//! node-table probe, "is this node alive?" is an index lookup, and a
//! removal swaps the relation's last entry into the hole and updates that
//! entry's node.
//!
//! Symbols are process-local (insertion-ordered); everything that leaves
//! the engine — the change log, [`Engine::scan_resolved`], provenance
//! resolution — is translated back to `Value` tuples, and durable layers
//! serialize those structurally, so persisted state never depends on
//! interner ordering.

use crate::ast::Rule;
use crate::compile::Program;
use crate::delete::{self, DeleteScratch};
use crate::error::DatalogError;
use crate::join::{self, RoundScratch};
use crate::node::{NodeId, NodeTable, RelId};
use crate::provgraph::ProvGraph;
use crate::Result;
use orchestra_obs::GaugeHandle;
use orchestra_provenance::Polynomial;
use orchestra_relational::{
    DatabaseSchema, FxHashMap, Sym, SymRel, SymTuple, Tuple, ValueInterner,
};
use std::sync::Arc;

/// The deletion-propagation algorithm: there is one. The type survives
/// only as the third parameter of [`Engine::remove_base`], which the
/// repo benchmark's replay module (`loopbench/src/replay.rs`) still
/// passes; it goes when that module does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeletionAlgorithm {
    /// Orchestra's approach: test well-founded derivability over the
    /// affected region of the stored provenance graph.
    ProvenanceBased,
}

/// Did a change add or remove a tuple?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// The tuple became present.
    Added,
    /// The tuple became absent.
    Removed,
}

/// One externally visible change to the materialized state, resolved to
/// values: the element of [`Engine::drain_changes`], the resolving view
/// of the node-id change log ([`Engine::drain_change_log`]). It stays for
/// the repo benchmark's replay module (`loopbench/src/replay.rs`) and
/// tests, and goes with that module's harness change (ROADMAP item 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// Relation the tuple belongs to.
    pub relation: Arc<str>,
    /// The tuple.
    pub tuple: Tuple,
    /// Added or removed.
    pub kind: ChangeKind,
    /// The tuple's interned node id.
    pub node: NodeId,
}

/// Aggregate counters, for the experiment harness.
///
/// The hot loops bump these plain fields in place; the `orchestra-obs`
/// registry gets the difference once per `propagate` / `remove_bases`
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Semi-naive rounds executed.
    pub rounds: u64,
    /// Rule firings that produced a (possibly duplicate) head.
    pub firings: u64,
    /// Distinct derivation records added.
    pub derivations: u64,
    /// Tuples added to the materialized state.
    pub tuples_added: u64,
    /// Tuples removed from the materialized state.
    pub tuples_removed: u64,
    /// Secondary indexes built from scratch (first probe on a column set).
    pub index_builds: u64,
    /// Index probes issued by the join pipeline.
    pub index_probes: u64,
    /// Distinct values in the engine's interner.
    pub interner_symbols: u64,
    /// Intern calls answered without creating a symbol.
    pub interner_hits: u64,
    /// Labeled nulls re-invented through the integer fast path.
    pub skolem_fast_path: u64,
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, o: EngineStats) {
        self.rounds += o.rounds;
        self.firings += o.firings;
        self.derivations += o.derivations;
        self.tuples_added += o.tuples_added;
        self.tuples_removed += o.tuples_removed;
        self.index_builds += o.index_builds;
        self.index_probes += o.index_probes;
        self.interner_symbols += o.interner_symbols;
        self.interner_hits += o.interner_hits;
        self.skolem_fast_path += o.skolem_fast_path;
    }
}

/// Evaluation tunables: the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Evaluation threads. The engine evaluates on the calling thread
    /// only: `1` (or `0`, read as `1`) is accepted, and
    /// [`Engine::with_options`] refuses anything larger with
    /// [`DatalogError::SingleThreaded`]. The field stays only because the
    /// repo benchmark's replay module (`loopbench/src/replay.rs`) sets it,
    /// and goes with the next harness change to that module.
    pub threads: usize,
}

impl Default for EvalOptions {
    /// One thread.
    fn default() -> Self {
        EvalOptions { threads: 1 }
    }
}

/// This engine's share of the `engine.*` size gauges: live nodes,
/// interned nodes, derivation records and interner symbols. Dropping the
/// engine drops its share from the registry's totals. A clone registers
/// a share of its own, so two engines never write one share.
#[derive(Debug)]
struct SizeGauges([GaugeHandle; 4]);

impl SizeGauges {
    fn new() -> SizeGauges {
        SizeGauges([
            orchestra_obs::gauge("engine.live_nodes"),
            orchestra_obs::gauge("engine.interned_nodes"),
            orchestra_obs::gauge("engine.derivation_records"),
            orchestra_obs::gauge("engine.interner_symbols"),
        ])
    }
}

impl Clone for SizeGauges {
    fn clone(&self) -> SizeGauges {
        let share = SizeGauges::new();
        for (mine, theirs) in share.0.iter().zip(&self.0) {
            mine.set(theirs.get());
        }
        share
    }
}

/// What the join's firings and deletion record, beside the relations
/// themselves.
#[derive(Debug, Clone)]
pub(crate) struct Facts {
    pub(crate) interner: ValueInterner,
    /// Every tuple ever seen → its node, and each live node's position in
    /// its relation: the engine's one membership structure.
    pub(crate) nodes: NodeTable,
    pub(crate) graph: ProvGraph,
    /// Tuples inserted but not yet propagated; during `propagate`, the
    /// next round's delta.
    pub(crate) pending: Vec<(RelId, SymTuple, NodeId)>,
    /// The change log, in change order (see [`Engine::drain_change_log`]).
    pub(crate) changes: Vec<(NodeId, ChangeKind)>,
    pub(crate) stats: EngineStats,
}

impl Facts {
    /// `node`'s tuple `st` became alive at slot `pos` of `rel`: log it and
    /// queue it for the next round.
    #[inline]
    pub(crate) fn added(&mut self, rel: RelId, st: SymTuple, node: NodeId, pos: u32) {
        self.nodes.set_position(node, Some(pos));
        self.stats.tuples_added += 1;
        self.changes.push((node, ChangeKind::Added));
        self.pending.push((rel, st, node));
    }
}

// ----------------------------------------------------------------- engine

/// The provenance-annotated, incrementally maintained datalog engine.
#[derive(Debug, Clone)]
pub struct Engine {
    schema: DatabaseSchema,
    /// RelId → relation name.
    rel_names: Vec<Arc<str>>,
    /// relation name → RelId. The keys are the schema's relation names, a
    /// fixed set, so the word hasher is safe here.
    rel_ids: FxHashMap<Arc<str>, RelId>,
    program: Program,
    /// Indexed by RelId: each relation's tuples and probe indexes.
    data: Vec<SymRel<NodeId>>,
    facts: Facts,
    round: RoundScratch,
    del: DeleteScratch,
    /// Reused symbol row for API-boundary lookups.
    syms: Vec<Sym>,
    /// The slice of the stats already exported to the `orchestra-obs`
    /// registry: the hot loops keep their plain `&mut` increments (no
    /// atomics per tuple), and [`obs_flush_stats`](Self::obs_flush_stats)
    /// publishes the diff once per `propagate` / `remove_bases` call.
    mirrored: EngineStats,
    /// Set with each flush, so they read the sizes as of the last
    /// `propagate` / `remove_bases` call.
    size_gauges: SizeGauges,
}

impl Engine {
    /// Build an engine for a schema and a mapping program.
    pub fn new(schema: DatabaseSchema, rules: Vec<Rule>) -> Result<Engine> {
        Self::with_options(schema, rules, true, EvalOptions::default())
    }

    /// Build an engine with explicit evaluation tunables (the thread
    /// count).
    ///
    /// The engine always records provenance: deletion and trust read the
    /// graph. `provenance` must be `true`; `false` is refused with
    /// [`DatalogError::ProvenanceRequired`]. The parameter stays only
    /// because the repo benchmark's replay module
    /// (`loopbench/src/replay.rs`) passes it, and goes when that module
    /// does.
    ///
    /// The engine evaluates on the calling thread: `opts.threads` above 1
    /// is refused with [`DatalogError::SingleThreaded`] (`0` reads as 1).
    pub fn with_options(
        schema: DatabaseSchema,
        rules: Vec<Rule>,
        provenance: bool,
        opts: EvalOptions,
    ) -> Result<Engine> {
        if !provenance {
            return Err(DatalogError::ProvenanceRequired);
        }
        if opts.threads > 1 {
            return Err(DatalogError::SingleThreaded {
                requested: opts.threads,
            });
        }
        let mut rel_names: Vec<Arc<str>> = Vec::new();
        let mut rel_ids: FxHashMap<Arc<str>, RelId> = FxHashMap::default();
        for r in schema.relations() {
            let id = RelId(rel_names.len() as u32);
            rel_names.push(r.name_arc());
            rel_ids.insert(r.name_arc(), id);
        }
        let mut interner = ValueInterner::new();
        let program = Program::compile(&schema, &rel_ids, &mut interner, &rules)?;
        let relations = rel_names.len();
        let mut engine = Engine {
            schema,
            rel_names,
            rel_ids,
            program,
            data: (0..relations).map(|_| SymRel::new()).collect(),
            facts: Facts {
                interner,
                nodes: NodeTable::new(),
                graph: ProvGraph::new(rules.into_iter().map(|r| r.id).collect()),
                pending: Vec::new(),
                changes: Vec::new(),
                stats: EngineStats::default(),
            },
            round: RoundScratch::new(relations),
            del: DeleteScratch::default(),
            syms: Vec::new(),
            mirrored: EngineStats::default(),
            size_gauges: SizeGauges::new(),
        };
        engine.obs_flush_stats();
        Ok(engine)
    }

    /// The engine's schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The provenance graph.
    pub fn graph(&self) -> &ProvGraph {
        &self.facts.graph
    }

    /// The node table.
    pub fn nodes(&self) -> &NodeTable {
        &self.facts.nodes
    }

    /// The value interner (symbols are engine-local; see module docs).
    pub fn interner(&self) -> &ValueInterner {
        &self.facts.interner
    }

    /// Aggregate counters, including the interner's.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.facts.stats;
        let i = self.facts.interner.stats();
        s.interner_symbols = i.symbols;
        s.interner_hits = i.hits;
        s.skolem_fast_path = i.skolem_fast_path;
        s
    }

    /// Publish the counters accumulated since the last flush to the
    /// `orchestra-obs` registry as `engine.*` deltas, and set this
    /// engine's share of the size gauges. Called at build and once per
    /// propagate/deletion entry point — the hot loops never touch an
    /// atomic.
    fn obs_flush_stats(&mut self) {
        let sizes = [
            self.total_tuples(),
            self.facts.nodes.len(),
            self.facts.graph.num_derivations(),
            self.facts.interner.len(),
        ];
        for (g, n) in self.size_gauges.0.iter().zip(sizes) {
            g.set(n as i64);
        }
        let d = self.stats();
        let m = self.mirrored;
        orchestra_obs::counter!("engine.rounds", d.rounds.saturating_sub(m.rounds));
        orchestra_obs::counter!("engine.firings", d.firings.saturating_sub(m.firings));
        orchestra_obs::counter!(
            "engine.derivations",
            d.derivations.saturating_sub(m.derivations)
        );
        orchestra_obs::counter!(
            "engine.tuples_added",
            d.tuples_added.saturating_sub(m.tuples_added)
        );
        orchestra_obs::counter!(
            "engine.tuples_removed",
            d.tuples_removed.saturating_sub(m.tuples_removed)
        );
        orchestra_obs::counter!(
            "engine.index_builds",
            d.index_builds.saturating_sub(m.index_builds)
        );
        orchestra_obs::counter!(
            "engine.index_probes",
            d.index_probes.saturating_sub(m.index_probes)
        );
        self.mirrored = d;
    }

    /// The dense id of a relation, if known.
    pub fn rel_id(&self, relation: &str) -> Option<RelId> {
        self.rel_ids.get(relation).copied()
    }

    /// The interned node of `(relation, tuple)`, if both are known.
    pub fn node_id(&self, relation: &str, tuple: &Tuple) -> Option<NodeId> {
        let rel = self.rel_id(relation)?;
        let mut syms = Vec::with_capacity(tuple.values().len());
        if !self.facts.interner.get_syms(tuple, &mut syms) {
            return None;
        }
        self.facts.nodes.get(rel, &syms)
    }

    /// The `(relation name, tuple)` behind a node id.
    pub fn resolve_node(&self, node: NodeId) -> Option<(&Arc<str>, Tuple)> {
        let (rel, st) = self.facts.nodes.resolve(node)?;
        Some((
            &self.rel_names[rel.index()],
            self.facts.interner.resolve_tuple(st),
        ))
    }

    /// True iff the relation currently contains the tuple.
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        self.node_id(relation, tuple)
            .is_some_and(|n| self.facts.nodes.is_alive(n))
    }

    /// Number of alive tuples in a relation.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.rel_id(relation)
            .map_or(0, |r| self.data[r.index()].len())
    }

    /// Borrowing scan of a relation's alive tuples: interned tuples with
    /// their node ids, in the relation's deterministic sequence order (a
    /// pure function of the engine's mutation history — not insertion
    /// order once deletions happened), with **no** per-call
    /// materialization. Unknown relations yield nothing.
    pub fn scan<'e>(&'e self, relation: &str) -> impl Iterator<Item = (&'e SymTuple, NodeId)> + 'e {
        self.rel_id(relation)
            .into_iter()
            .flat_map(move |r| self.data[r.index()].entries().iter().map(|(t, n)| (t, *n)))
    }

    /// Like [`scan`](Engine::scan), resolving each tuple back to values
    /// lazily (one tuple in flight at a time — reconcile/bench read paths
    /// use this instead of cloning whole relations).
    pub fn scan_resolved<'e>(&'e self, relation: &str) -> impl Iterator<Item = Tuple> + 'e {
        self.scan(relation)
            .map(move |(st, _)| self.facts.interner.resolve_tuple(st))
    }

    /// Total alive tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.data.iter().map(SymRel::len).sum()
    }

    /// Move the change log onto the end of `out`, in change order: each
    /// entry is a node and whether its tuple became present or absent.
    /// Nothing is resolved — [`resolve_node`](Self::resolve_node), or
    /// [`nodes`](Self::nodes) and [`interner`](Self::interner), turn the
    /// entries a caller reads back into values, and a removed node
    /// resolves after its death like any other. A caller that keeps `out`
    /// across calls drains without allocating.
    pub fn drain_change_log(&mut self, out: &mut Vec<(NodeId, ChangeKind)>) {
        out.append(&mut self.facts.changes);
    }

    /// Drain the change log resolved to relation names and tuple values:
    /// the entries of [`drain_change_log`](Self::drain_change_log), in
    /// the same order. This resolving view stays for the repo
    /// benchmark's replay module (`loopbench/src/replay.rs`) and tests,
    /// and goes with that module's harness change (ROADMAP item 4).
    pub fn drain_changes(&mut self) -> Vec<Change> {
        let log = std::mem::take(&mut self.facts.changes);
        log.into_iter()
            .filter_map(|(node, kind)| {
                let (relation, tuple) = self.resolve_node(node)?;
                Some(Change {
                    relation: Arc::clone(relation),
                    tuple,
                    kind,
                    node,
                })
            })
            .collect()
    }

    /// Insert a base (published) tuple. Idempotent: re-inserting an already
    /// base tuple is a no-op. If the tuple exists only as derived, it
    /// additionally becomes base (gaining independent support). A tuple
    /// seen before, base or derived, keeps its node id.
    pub fn insert_base(&mut self, relation: &str, tuple: Tuple) -> Result<NodeId> {
        let rel_schema = self
            .schema
            .relation(relation)
            .map_err(|_| DatalogError::UnknownRelation(relation.to_string()))?;
        rel_schema.validate(&tuple)?;
        let rel = self.rel_ids[relation];
        let facts = &mut self.facts;
        let st = facts.interner.intern_tuple(&tuple);
        let node = facts.nodes.intern(rel, &st);
        if facts.graph.is_base(node) {
            return Ok(node);
        }
        facts.graph.add_base(node);
        if !facts.nodes.is_alive(node) {
            let pos = self.data[rel.index()].push(st.clone(), node);
            facts.added(rel, st, node, pos);
        }
        Ok(node)
    }

    /// Run semi-naive propagation from the pending delta to fixpoint, one
    /// round (module `join`) at a time. Returns the number of newly derived
    /// tuples.
    pub fn propagate(&mut self) -> Result<usize> {
        // A pending insert that a deletion removed before this call
        // derives nothing.
        let nodes = &self.facts.nodes;
        self.facts.pending.retain(|(_, _, n)| nodes.is_alive(*n));
        let mut new_tuples = 0;
        while !self.facts.pending.is_empty() {
            new_tuples += join::round(
                &self.program,
                &mut self.data,
                &mut self.facts,
                &mut self.round,
            );
        }
        self.obs_flush_stats();
        Ok(new_tuples)
    }

    /// Remove a base tuple and propagate the deletion — a one-element
    /// [`remove_bases`](Engine::remove_bases). Returns `true` if the tuple
    /// was a base fact. The [`DeletionAlgorithm`] parameter has one value
    /// and goes with the last caller that passes it.
    ///
    /// The tuple may remain alive if it is still derivable through the
    /// mapping program (or was independently published elsewhere).
    pub fn remove_base(
        &mut self,
        relation: &str,
        tuple: &Tuple,
        _algorithm: DeletionAlgorithm,
    ) -> Result<bool> {
        Ok(self.remove_bases(&[(relation, tuple)])? == 1)
    }

    /// Remove a set of base tuples and propagate the deletion as one set:
    /// every base mark is cleared first, then one affected closure seeded
    /// with all of them decides what dies (module `delete`). The
    /// database, the removed tuples and the counters equal removing the
    /// tuples one at a time; the change log lists the set's removals once,
    /// in one order. Returns how many of the tuples were base facts (the
    /// rest — unknown, derived-only or repeated — are skipped).
    pub fn remove_bases(&mut self, tuples: &[(&str, &Tuple)]) -> Result<usize> {
        orchestra_obs::time_histogram!("engine.delete_micros", {
            for &(relation, tuple) in tuples {
                let Some(&rel) = self.rel_ids.get(relation) else {
                    continue;
                };
                if !self.facts.interner.get_syms(tuple, &mut self.syms) {
                    continue;
                }
                let Some(node) = self.facts.nodes.get(rel, &self.syms) else {
                    continue;
                };
                if self.facts.graph.remove_base(node) {
                    self.del.seed(node);
                }
            }
            let deleted =
                delete::delete_provenance_based(&mut self.data, &mut self.facts, &mut self.del);
            if deleted > 0 {
                self.obs_flush_stats();
            }
            Ok(deleted)
        })
    }

    /// The provenance polynomial of an alive tuple (over simple proofs);
    /// `None` for a tuple that is not alive, even if it is still interned.
    pub fn provenance(&self, relation: &str, tuple: &Tuple) -> Option<Polynomial<NodeId>> {
        let node = self.node_id(relation, tuple)?;
        self.facts
            .nodes
            .is_alive(node)
            .then(|| self.facts.graph.polynomial(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Filter, Rule, Term};
    use crate::tgd::Tgd;
    use orchestra_provenance::Semiring;
    use orchestra_relational::{tuple, CmpOp, RelationSchema, Value, ValueType};
    use std::collections::BTreeSet;

    fn schema(rels: &[(&str, usize)]) -> DatabaseSchema {
        let mut db = DatabaseSchema::new("test");
        for (name, arity) in rels {
            let cols: Vec<(String, ValueType)> = (0..*arity)
                .map(|i| (format!("c{i}"), ValueType::Str))
                .collect();
            let col_refs: Vec<(&str, ValueType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            db.add_relation(RelationSchema::from_parts(*name, &col_refs).unwrap())
                .unwrap();
        }
        db
    }

    fn edge_path_rules() -> Vec<Rule> {
        // path(x,y) :- edge(x,y).  path(x,z) :- edge(x,y), path(y,z).
        let r1 = Rule::new(
            "base",
            Atom::vars("path", &["x", "y"]),
            vec![Atom::vars("edge", &["x", "y"])],
            vec![],
        )
        .unwrap();
        let r2 = Rule::new(
            "step",
            Atom::vars("path", &["x", "z"]),
            vec![
                Atom::vars("edge", &["x", "y"]),
                Atom::vars("path", &["y", "z"]),
            ],
            vec![],
        )
        .unwrap();
        vec![r1, r2]
    }

    /// A relation's alive tuples, sorted: scan order follows the
    /// engine's mutation history, so comparisons across engines sort.
    fn rows(e: &Engine, relation: &str) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = e.scan_resolved(relation).collect();
        out.sort();
        out
    }

    fn edge_path_engine() -> Engine {
        let db = schema(&[("edge", 2), ("path", 2)]);
        Engine::new(db, edge_path_rules()).unwrap()
    }

    #[test]
    fn transitive_closure() {
        let mut e = edge_path_engine();
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.insert_base("edge", tuple!["b", "c"]).unwrap();
        e.insert_base("edge", tuple!["c", "d"]).unwrap();
        e.propagate().unwrap();
        assert_eq!(e.relation_len("path"), 6);
        assert!(e.contains("path", &tuple!["a", "d"]));
        assert!(!e.contains("path", &tuple!["d", "a"]));
    }

    #[test]
    fn incremental_insert_matches_full_recompute() {
        // Build incrementally.
        let mut inc = edge_path_engine();
        inc.insert_base("edge", tuple!["a", "b"]).unwrap();
        inc.propagate().unwrap();
        inc.insert_base("edge", tuple!["b", "c"]).unwrap();
        inc.propagate().unwrap();
        inc.insert_base("edge", tuple!["c", "d"]).unwrap();
        inc.propagate().unwrap();
        // Build from scratch.
        let mut full = edge_path_engine();
        for t in [tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]] {
            full.insert_base("edge", t).unwrap();
        }
        full.propagate().unwrap();
        assert_eq!(rows(&inc, "path"), rows(&full, "path"));
    }

    #[test]
    fn join_rule_filters_and_constants() {
        // out(x) :- r(x, 'keep'), x <> 'bad'.
        use orchestra_relational::CmpOp;
        let db = schema(&[("r", 2), ("out", 1)]);
        let rule = Rule::new(
            "f",
            Atom::vars("out", &["x"]),
            vec![Atom::new("r", vec![Term::var("x"), Term::val("keep")])],
            vec![crate::ast::Filter::new(
                Term::var("x"),
                CmpOp::Ne,
                Term::val("bad"),
            )],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        e.insert_base("r", tuple!["good", "keep"]).unwrap();
        e.insert_base("r", tuple!["bad", "keep"]).unwrap();
        e.insert_base("r", tuple!["good2", "drop"]).unwrap();
        e.propagate().unwrap();
        assert_eq!(rows(&e, "out"), vec![tuple!["good"]]);
    }

    #[test]
    fn ordering_filters_resolve_values() {
        // out(x) :- r(x, y), x < y.  (non-equality filters compare values,
        // not symbols — interning must not change their semantics)
        use orchestra_relational::CmpOp;
        let db = schema(&[("r", 2), ("out", 1)]);
        let rule = Rule::new(
            "lt",
            Atom::vars("out", &["x"]),
            vec![Atom::vars("r", &["x", "y"])],
            vec![crate::ast::Filter::new(
                Term::var("x"),
                CmpOp::Lt,
                Term::var("y"),
            )],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        // Insert in an order where symbol ids disagree with value order.
        e.insert_base("r", tuple!["zz", "aa"]).unwrap(); // zz > aa: dropped
        e.insert_base("r", tuple!["aa", "zz"]).unwrap(); // aa < zz: kept
        e.propagate().unwrap();
        assert_eq!(rows(&e, "out"), vec![tuple!["aa"]]);
    }

    #[test]
    fn repeated_variable_within_one_atom() {
        // loop(x) :- edge(x, x).
        let db = schema(&[("edge", 2), ("loop", 1)]);
        let rule = Rule::new(
            "self",
            Atom::vars("loop", &["x"]),
            vec![Atom::vars("edge", &["x", "x"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        e.insert_base("edge", tuple!["a", "a"]).unwrap();
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.insert_base("edge", tuple!["b", "b"]).unwrap();
        e.propagate().unwrap();
        assert_eq!(
            rows(&e, "loop"),
            vec![tuple!["a"], tuple!["b"]],
            "only reflexive edges fire"
        );
    }

    #[test]
    fn skolem_heads_invent_labeled_nulls() {
        // The paper's split: O(org, #oid(org)) :- OPS(org, prot, seq).
        let db = schema(&[("OPS", 3), ("O", 2)]);
        let m = Tgd::new(
            "MC->A",
            vec![Atom::vars("OPS", &["org", "prot", "seq"])],
            vec![Atom::new(
                "O",
                vec![
                    Term::var("org"),
                    Term::skolem("oid", vec![Term::var("org")]),
                ],
            )],
        )
        .unwrap();
        let mut e = Engine::new(db, m.compile().unwrap()).unwrap();
        e.insert_base("OPS", tuple!["HIV", "gp120", "MRV"]).unwrap();
        e.insert_base("OPS", tuple!["HIV", "gp41", "AVG"]).unwrap();
        e.propagate().unwrap();
        // Same org twice → same labeled null → one O tuple.
        assert_eq!(e.relation_len("O"), 1);
        let o = &rows(&e, "O")[0];
        assert!(o[1].is_labeled_null());
    }

    #[test]
    fn provenance_polynomial_of_join() {
        // t(x,z) :- r(x,y), s(y,z).
        let db = schema(&[("r", 2), ("s", 2), ("t", 2)]);
        let rule = Rule::new(
            "j",
            Atom::vars("t", &["x", "z"]),
            vec![Atom::vars("r", &["x", "y"]), Atom::vars("s", &["y", "z"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        let nr = e.insert_base("r", tuple!["a", "b"]).unwrap();
        let ns = e.insert_base("s", tuple!["b", "c"]).unwrap();
        e.propagate().unwrap();
        let p = e.provenance("t", &tuple!["a", "c"]).unwrap();
        assert_eq!(p, Polynomial::var(nr).times(&Polynomial::var(ns)));
    }

    #[test]
    fn alternative_derivations_sum() {
        // t(x) :- r(x).  t(x) :- s(x).
        let db = schema(&[("r", 1), ("s", 1), ("t", 1)]);
        let r1 = Rule::new(
            "m1",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![],
        )
        .unwrap();
        let r2 = Rule::new(
            "m2",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("s", &["x"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![r1, r2]).unwrap();
        let nr = e.insert_base("r", tuple!["a"]).unwrap();
        let ns = e.insert_base("s", tuple!["a"]).unwrap();
        e.propagate().unwrap();
        let p = e.provenance("t", &tuple!["a"]).unwrap();
        assert_eq!(p, Polynomial::var(nr).plus(&Polynomial::var(ns)));
    }

    #[test]
    fn removed_tuple_has_no_provenance() {
        let mut e = edge_path_engine();
        let n = e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.propagate().unwrap();
        assert_eq!(
            e.provenance("edge", &tuple!["a", "b"]),
            Some(Polynomial::var(n))
        );
        e.remove_base(
            "edge",
            &tuple!["a", "b"],
            DeletionAlgorithm::ProvenanceBased,
        )
        .unwrap();
        // Still interned, no longer alive: no provenance, for the base
        // tuple and for what it derived.
        assert_eq!(e.node_id("edge", &tuple!["a", "b"]), Some(n));
        assert_eq!(e.provenance("edge", &tuple!["a", "b"]), None);
        assert_eq!(e.provenance("path", &tuple!["a", "b"]), None);
    }

    #[test]
    fn deletion_provenance_based_keeps_alternatives() {
        let db = schema(&[("r", 1), ("s", 1), ("t", 1)]);
        let r1 = Rule::new(
            "m1",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![],
        )
        .unwrap();
        let r2 = Rule::new(
            "m2",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("s", &["x"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![r1, r2]).unwrap();
        e.insert_base("r", tuple!["a"]).unwrap();
        e.insert_base("s", tuple!["a"]).unwrap();
        e.propagate().unwrap();
        e.remove_base("r", &tuple!["a"], DeletionAlgorithm::ProvenanceBased)
            .unwrap();
        assert!(!e.contains("r", &tuple!["a"]));
        assert!(e.contains("t", &tuple!["a"]), "alternative via s survives");
        e.remove_base("s", &tuple!["a"], DeletionAlgorithm::ProvenanceBased)
            .unwrap();
        assert!(!e.contains("t", &tuple!["a"]));
    }

    /// Deletion ends where recomputing from the surviving edges does.
    #[test]
    fn deletion_dred_matches_provenance_based() {
        let mut e = edge_path_engine();
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.insert_base("edge", tuple!["b", "c"]).unwrap();
        e.insert_base("edge", tuple!["a", "c"]).unwrap();
        e.propagate().unwrap();
        // Deleting a→b kills path a→b but not a→c (direct edge remains).
        e.remove_bases(&[("edge", &tuple!["a", "b"])]).unwrap();
        assert!(!e.contains("path", &tuple!["a", "b"]));
        assert!(e.contains("path", &tuple!["a", "c"]));
        assert!(e.contains("path", &tuple!["b", "c"]));
        let mut fresh = edge_path_engine();
        fresh.insert_base("edge", tuple!["b", "c"]).unwrap();
        fresh.insert_base("edge", tuple!["a", "c"]).unwrap();
        fresh.propagate().unwrap();
        assert_eq!(rows(&e, "path"), rows(&fresh, "path"));
        assert_eq!(rows(&e, "edge"), rows(&fresh, "edge"));
    }

    #[test]
    fn deletion_in_cycle_is_well_founded() {
        // Identity cycle between two relations.
        let db = schema(&[("A", 1), ("B", 1)]);
        let r1 = Rule::new(
            "ab",
            Atom::vars("B", &["x"]),
            vec![Atom::vars("A", &["x"])],
            vec![],
        )
        .unwrap();
        let r2 = Rule::new(
            "ba",
            Atom::vars("A", &["x"]),
            vec![Atom::vars("B", &["x"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![r1, r2]).unwrap();
        e.insert_base("A", tuple!["t"]).unwrap();
        e.propagate().unwrap();
        assert!(e.contains("B", &tuple!["t"]));
        // Removing the only base support kills both, despite the cycle.
        e.remove_bases(&[("A", &tuple!["t"])]).unwrap();
        assert!(!e.contains("A", &tuple!["t"]));
        assert!(!e.contains("B", &tuple!["t"]));
    }

    #[test]
    fn base_and_derived_tuple_survives_base_removal() {
        // t(x) :- r(x); t('a') also inserted as base.
        let db = schema(&[("r", 1), ("t", 1)]);
        let rule = Rule::new(
            "m",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        e.insert_base("r", tuple!["a"]).unwrap();
        e.insert_base("t", tuple!["a"]).unwrap();
        e.propagate().unwrap();
        // Remove the derived support; the base t('a') remains.
        e.remove_bases(&[("r", &tuple!["a"])]).unwrap();
        assert!(e.contains("t", &tuple!["a"]));
        // Remove base support too: now it dies.
        e.remove_bases(&[("t", &tuple!["a"])]).unwrap();
        assert!(!e.contains("t", &tuple!["a"]));
    }

    #[test]
    fn change_log_records_adds_and_removes() {
        let mut e = edge_path_engine();
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.propagate().unwrap();
        let ch = e.drain_changes();
        assert_eq!(ch.len(), 2); // edge + path
        assert!(ch.iter().all(|c| c.kind == ChangeKind::Added));
        e.remove_base(
            "edge",
            &tuple!["a", "b"],
            DeletionAlgorithm::ProvenanceBased,
        )
        .unwrap();
        let ch = e.drain_changes();
        assert_eq!(ch.len(), 2);
        assert!(ch.iter().all(|c| c.kind == ChangeKind::Removed));
    }

    #[test]
    fn idempotent_base_insert() {
        let mut e = edge_path_engine();
        let n1 = e.insert_base("edge", tuple!["a", "b"]).unwrap();
        let n2 = e.insert_base("edge", tuple!["a", "b"]).unwrap();
        assert_eq!(n1, n2);
        e.propagate().unwrap();
        assert_eq!(e.relation_len("edge"), 1);
        assert_eq!(e.drain_changes().len(), 2);
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        let db = schema(&[("r", 1)]);
        let bad_rel = Rule::new(
            "m",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![],
        )
        .unwrap();
        assert!(matches!(
            Engine::new(db.clone(), vec![bad_rel]),
            Err(DatalogError::UnknownRelation(_))
        ));
        let bad_arity = Rule::new(
            "m",
            Atom::vars("r", &["x"]),
            vec![Atom::vars("r", &["x", "y"])],
            vec![],
        )
        .unwrap();
        assert!(matches!(
            Engine::new(db.clone(), vec![bad_arity]),
            Err(DatalogError::ArityMismatch { .. })
        ));
        let mut ok = Engine::new(db, vec![]).unwrap();
        assert!(ok.insert_base("nope", tuple!["x"]).is_err());
    }

    fn skolem_of(function: &str, arg: Term) -> Term {
        Term::skolem(function, vec![arg])
    }

    fn refuses_misplaced_skolem(rules: Vec<Rule>) {
        let db = schema(&[("r", 1), ("t", 1)]);
        assert!(matches!(
            Engine::new(db, rules),
            Err(DatalogError::MisplacedSkolem { .. })
        ));
    }

    #[test]
    fn a_tgd_with_a_skolem_in_its_body_is_refused() {
        let body = Atom::new("r", vec![skolem_of("f", Term::var("x"))]);
        let tgd = Tgd::new("m", vec![body], vec![Atom::vars("t", &["x"])]).unwrap();
        refuses_misplaced_skolem(tgd.compile().unwrap());
    }

    #[test]
    fn a_rule_with_a_skolem_in_a_body_atom_or_filter_is_refused() {
        let body = Atom::new("r", vec![skolem_of("f", Term::var("x"))]);
        let rule = Rule::new("m", Atom::vars("t", &["x"]), vec![body], vec![]).unwrap();
        refuses_misplaced_skolem(vec![rule]);
        let filter = Filter::new(skolem_of("f", Term::var("x")), CmpOp::Eq, Term::var("x"));
        let rule = Rule::new(
            "m",
            Atom::vars("t", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![filter],
        )
        .unwrap();
        refuses_misplaced_skolem(vec![rule]);
    }

    #[test]
    fn a_rule_with_a_nested_skolem_in_its_head_is_refused() {
        let nested = skolem_of("f", skolem_of("g", Term::var("x")));
        let head = Atom::new("t", vec![nested]);
        let rule = Rule::new("m", head, vec![Atom::vars("r", &["x"])], vec![]).unwrap();
        refuses_misplaced_skolem(vec![rule]);
    }

    #[test]
    fn stats_accumulate() {
        let mut e = edge_path_engine();
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.insert_base("edge", tuple!["b", "c"]).unwrap();
        e.propagate().unwrap();
        let s = e.stats();
        assert!(s.rounds >= 2);
        assert!(s.firings >= 3);
        assert!(s.derivations >= 3);
        assert_eq!(s.tuples_added as usize, e.total_tuples());
        // Interned-engine counters: symbols for "a","b","c", probe work
        // from the recursive rule.
        assert!(s.interner_symbols >= 3);
        assert!(s.index_probes > 0);
        assert!(s.index_builds > 0);
    }

    #[test]
    fn remove_nonexistent_base_is_noop() {
        let mut e = edge_path_engine();
        assert!(!e
            .remove_base(
                "edge",
                &tuple!["x", "y"],
                DeletionAlgorithm::ProvenanceBased
            )
            .unwrap());
        // Derived tuples are not base: removing them is a no-op too.
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.propagate().unwrap();
        assert!(!e
            .remove_base(
                "path",
                &tuple!["a", "b"],
                DeletionAlgorithm::ProvenanceBased
            )
            .unwrap());
        assert!(e.contains("path", &tuple!["a", "b"]));
    }

    #[test]
    fn turning_provenance_off_is_refused() {
        let db = schema(&[("edge", 2), ("path", 2)]);
        assert_eq!(
            Engine::with_options(db, edge_path_rules(), false, EvalOptions::default()).err(),
            Some(DatalogError::ProvenanceRequired)
        );
    }

    #[test]
    fn join_order_handles_delta_at_last_atom() {
        // r3(x,z) :- r1(x,y), r2(y,z), with the delta arriving at r2: the
        // planner must start from r2 and probe r1 by index rather than
        // cross-producting r1 × r2.
        let db = schema(&[("r1", 2), ("r2", 2), ("r3", 2)]);
        let rule = Rule::new(
            "j",
            Atom::vars("r3", &["x", "z"]),
            vec![Atom::vars("r1", &["x", "y"]), Atom::vars("r2", &["y", "z"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        for i in 0..50 {
            e.insert_base("r1", tuple![format!("x{i}"), format!("y{i}")])
                .unwrap();
        }
        e.propagate().unwrap();
        // Delta at r2.
        e.insert_base("r2", tuple!["y7", "z7"]).unwrap();
        e.propagate().unwrap();
        assert_eq!(rows(&e, "r3"), vec![tuple!["x7", "z7"]]);
        // The planner probes: firings stay near the delta size, far below
        // the 50 × 1 cross product.
        assert!(e.stats().firings <= 3, "firings = {}", e.stats().firings);
    }

    #[test]
    fn churny_delete_reinsert_does_not_leak_index_buckets() {
        // Regression: removal used to leave empty Vec buckets in every
        // secondary index, so delete/reinsert churn over a moving key
        // range grew memory without bound.
        let mut e = edge_path_engine();
        // Warm the index via the recursive rule.
        e.insert_base("edge", tuple!["seed", "seed2"]).unwrap();
        e.propagate().unwrap();
        for round in 0..50i64 {
            let a = format!("a{round}");
            let b = format!("b{round}");
            e.insert_base("edge", tuple![a.clone(), b.clone()]).unwrap();
            e.propagate().unwrap();
            e.remove_base("edge", &tuple![a, b], DeletionAlgorithm::ProvenanceBased)
                .unwrap();
        }
        let edge_rel = e.rel_id("edge").unwrap();
        let path_rel = e.rel_id("path").unwrap();
        let live = e.data[edge_rel.index()].len() + e.data[path_rel.index()].len();
        let buckets =
            e.data[edge_rel.index()].index_buckets() + e.data[path_rel.index()].index_buckets();
        // Every live bucket holds at least one live tuple; emptied buckets
        // must have been dropped, so buckets can never exceed live tuples
        // summed over the (few) per-relation indexes.
        assert!(
            buckets <= live * 4,
            "index buckets leaked: {buckets} buckets for {live} live tuples"
        );
    }

    #[test]
    fn node_id_and_resolve_roundtrip() {
        let mut e = edge_path_engine();
        let n = e.insert_base("edge", tuple!["a", "b"]).unwrap();
        assert_eq!(e.node_id("edge", &tuple!["a", "b"]), Some(n));
        assert_eq!(e.node_id("edge", &tuple!["a", "zzz"]), None);
        assert_eq!(e.node_id("nope", &tuple!["a", "b"]), None);
        let (rel, t) = e.resolve_node(n).unwrap();
        assert_eq!(&**rel, "edge");
        assert_eq!(t, tuple!["a", "b"]);
    }

    #[test]
    fn plan_cache_means_no_replanning_effect_on_results() {
        // Run many delta batches through the same rule; results must be
        // identical to a fresh engine fed the same facts at once.
        let mut inc = edge_path_engine();
        for i in 0..20 {
            inc.insert_base("edge", tuple![format!("n{i}"), format!("n{}", i + 1)])
                .unwrap();
            inc.propagate().unwrap();
        }
        let mut batch = edge_path_engine();
        for i in 0..20 {
            batch
                .insert_base("edge", tuple![format!("n{i}"), format!("n{}", i + 1)])
                .unwrap();
        }
        batch.propagate().unwrap();
        assert_eq!(rows(&inc, "path"), rows(&batch, "path"));
        assert_eq!(inc.total_tuples(), batch.total_tuples());
    }

    #[test]
    fn more_than_one_thread_is_refused() {
        let db = schema(&[("edge", 2), ("path", 2)]);
        let opts = |threads| EvalOptions { threads };
        assert_eq!(
            Engine::with_options(db.clone(), edge_path_rules(), true, opts(2)).err(),
            Some(DatalogError::SingleThreaded { requested: 2 })
        );
        for threads in [0, 1] {
            let mut e =
                Engine::with_options(db.clone(), edge_path_rules(), true, opts(threads)).unwrap();
            e.insert_base("edge", tuple!["a", "b"]).unwrap();
            e.propagate().unwrap();
            assert!(e.contains("path", &tuple!["a", "b"]));
        }
    }

    /// Every derivation record, resolved to `(rule, head, body)` values
    /// so engines with different node ids compare.
    fn resolved_derivations(e: &Engine) -> BTreeSet<(String, Tuple, Vec<Tuple>)> {
        let tuple_of = |n: NodeId| e.resolve_node(n).unwrap().1;
        e.graph()
            .derivations()
            .map(|d| {
                (
                    d.rule.to_string(),
                    tuple_of(d.head),
                    d.body.iter().map(|&b| tuple_of(b)).collect(),
                )
            })
            .collect()
    }

    /// Rounds of more than a thousand delta tuples: 300 disjoint 4-cycles
    /// loaded in one `propagate` carry 1 200 tuples in every round (the
    /// edges, then the 1-, 2-, 3- and 4-hop paths). They reach the same
    /// fixpoint and record the same derivations as the same edges fed one
    /// `propagate` at a time.
    #[test]
    fn large_rounds_match_one_edge_at_a_time() {
        let edges: Vec<Tuple> = (0..300)
            .flat_map(|c| {
                (0..4).map(move |i| tuple![format!("c{c}n{i}"), format!("c{c}n{}", (i + 1) % 4)])
            })
            .collect();
        let mut batch = edge_path_engine();
        for t in &edges {
            batch.insert_base("edge", t.clone()).unwrap();
        }
        batch.propagate().unwrap();
        let mut single = edge_path_engine();
        for t in &edges {
            single.insert_base("edge", t.clone()).unwrap();
            single.propagate().unwrap();
        }
        assert_eq!(batch.relation_len("path"), 300 * 16);
        assert_eq!(batch.stats().rounds, 5);
        assert_eq!(batch.stats().tuples_added, 5 * 1200);
        assert_eq!(rows(&batch, "path"), rows(&single, "path"));
        assert_eq!(batch.stats().derivations, single.stats().derivations);
        assert_eq!(resolved_derivations(&batch), resolved_derivations(&single));
    }

    /// A Skolem program's labeled nulls resolve to the same values whether
    /// the facts arrive in one round or one at a time, and a deletion wave
    /// leaves exactly what recomputing from the surviving facts derives.
    #[test]
    fn skolem_heads_resolve_identically_in_batch_and_one_at_a_time() {
        let db = schema(&[("OPS", 3), ("O", 2), ("S", 3)]);
        let m = Tgd::new(
            "MC->A",
            vec![Atom::vars("OPS", &["org", "prot", "seq"])],
            vec![
                Atom::new(
                    "O",
                    vec![
                        Term::var("org"),
                        Term::skolem("oid", vec![Term::var("org")]),
                    ],
                ),
                Atom::new(
                    "S",
                    vec![
                        Term::skolem("oid", vec![Term::var("org")]),
                        Term::var("prot"),
                        Term::var("seq"),
                    ],
                ),
            ],
        )
        .unwrap();
        let rules = m.compile().unwrap();
        let facts: Vec<Tuple> = (0..24i64)
            .map(|i| tuple![format!("org{}", i % 5), format!("p{i}"), format!("s{i}")])
            .collect();
        let load = |facts: &[Tuple], batched: bool| {
            let mut e = Engine::new(db.clone(), rules.clone()).unwrap();
            for t in facts {
                e.insert_base("OPS", t.clone()).unwrap();
                if !batched {
                    e.propagate().unwrap();
                }
            }
            e.propagate().unwrap();
            e
        };
        let mut batch = load(&facts, true);
        let single = load(&facts, false);
        for rel in ["O", "S"] {
            assert_eq!(rows(&batch, rel), rows(&single, rel), "{rel}");
        }
        assert_eq!(batch.relation_len("O"), 5, "one null per org");
        assert_eq!(resolved_derivations(&batch), resolved_derivations(&single));
        // Delete every fact of org0 and org3 as one wave.
        let (victims, survivors): (Vec<Tuple>, Vec<Tuple>) = facts
            .iter()
            .cloned()
            .partition(|t| t[0] == Value::str("org0") || t[0] == Value::str("org3"));
        let refs: Vec<(&str, &Tuple)> = victims.iter().map(|t| ("OPS", t)).collect();
        assert_eq!(batch.remove_bases(&refs).unwrap(), victims.len());
        let fresh = load(&survivors, true);
        for rel in ["OPS", "O", "S"] {
            assert_eq!(rows(&batch, rel), rows(&fresh, rel), "{rel}");
        }
    }

    #[test]
    fn scan_is_a_borrowing_view_of_the_relation() {
        let mut e = edge_path_engine();
        for i in 0..12 {
            e.insert_base("edge", tuple![format!("n{i}"), format!("n{}", i + 1)])
                .unwrap();
        }
        e.propagate().unwrap();
        assert_eq!(e.scan("path").count(), e.relation_len("path"));
        // The resolved scan is the borrowing scan, resolved in place.
        let via_scan: Vec<Tuple> = e
            .scan("path")
            .map(|(st, _)| e.interner().resolve_tuple(st))
            .collect();
        assert_eq!(e.scan_resolved("path").collect::<Vec<_>>(), via_scan);
        assert!(via_scan.iter().all(|t| e.contains("path", t)));
        // Node ids surfaced by scan match the node table.
        for (st, node) in e.scan("edge") {
            let t = e.interner().resolve_tuple(st);
            assert_eq!(e.node_id("edge", &t), Some(node));
        }
        assert_eq!(e.scan("nope").count(), 0);
    }

    /// r(x) and its copy s(x) :- r(x).
    fn copy_engine() -> Engine {
        let db = schema(&[("r", 1), ("s", 1)]);
        let rule = Rule::new(
            "copy",
            Atom::vars("s", &["x"]),
            vec![Atom::vars("r", &["x"])],
            vec![],
        )
        .unwrap();
        Engine::new(db, vec![rule]).unwrap()
    }

    /// A removal moves its relation's last tuple into the hole; the moved
    /// tuple's node must follow it, or a later removal of that tuple
    /// takes the wrong slot (or none).
    #[test]
    fn removal_keeps_moved_positions() {
        let mut e = copy_engine();
        let names = ["a0", "a1", "a2", "a3", "a4", "a5"];
        let nodes: Vec<NodeId> = names
            .iter()
            .map(|n| e.insert_base("r", tuple![*n]).unwrap())
            .collect();
        e.propagate().unwrap();
        // From the middle, then the tuple the first removal moved (a5
        // fills a1's hole), then the one the second moved (a4 fills a3's,
        // then a5's).
        for victim in ["a1", "a3", "a5"] {
            e.remove_base("r", &tuple![victim], DeletionAlgorithm::ProvenanceBased)
                .unwrap();
        }
        assert_eq!(e.insert_base("r", tuple!["a1"]).unwrap(), nodes[1]);
        e.propagate().unwrap();
        // Swap-removal order: [a0 a5 a2 a3 a4] → [a0 a5 a2 a4] → [a0 a4 a2],
        // then a1 appended.
        let survivors = ["a0", "a4", "a2", "a1"];
        let mut fresh = copy_engine();
        for n in survivors {
            fresh.insert_base("r", tuple![n]).unwrap();
        }
        fresh.propagate().unwrap();
        for rel in ["r", "s"] {
            assert_eq!(e.relation_len(rel), survivors.len(), "{rel}");
            let scanned: Vec<Tuple> = e.scan_resolved(rel).collect();
            let expected: Vec<Tuple> = fresh.scan_resolved(rel).collect();
            assert_eq!(scanned, expected, "{rel} scan order");
            for n in names {
                let live = survivors.contains(&n);
                assert_eq!(e.contains(rel, &tuple![n]), live, "{rel}({n})");
            }
        }
        // Every live node's position still names its own tuple.
        for (st, node) in e.scan("r").chain(e.scan("s")) {
            assert_eq!(e.nodes().resolve(node).map(|(_, t)| t), Some(st));
        }
    }

    /// The unresolved change log and the resolving view list the same
    /// changes in the same order, removed nodes included.
    #[test]
    fn change_log_resolves_like_drain_changes() {
        let run = |e: &mut Engine| {
            for i in 0..5 {
                e.insert_base("edge", tuple![format!("n{i}"), format!("n{}", i + 1)])
                    .unwrap();
            }
            e.propagate().unwrap();
            let (a, b) = (tuple!["n1", "n2"], tuple!["n3", "n4"]);
            e.remove_bases(&[("edge", &a), ("edge", &b)]).unwrap();
            e.insert_base("edge", tuple!["n1", "n2"]).unwrap();
            e.propagate().unwrap();
        };
        let mut logged = edge_path_engine();
        let mut resolved = edge_path_engine();
        run(&mut logged);
        run(&mut resolved);
        let mut log = Vec::new();
        logged.drain_change_log(&mut log);
        let via_log: Vec<Change> = log
            .iter()
            .map(|&(node, kind)| {
                let (relation, tuple) = logged.resolve_node(node).unwrap();
                Change {
                    relation: Arc::clone(relation),
                    tuple,
                    kind,
                    node,
                }
            })
            .collect();
        let via_drain = resolved.drain_changes();
        assert!(via_drain.iter().any(|c| c.kind == ChangeKind::Removed));
        assert_eq!(via_log, via_drain);
        logged.drain_change_log(&mut log);
        assert_eq!(log.len(), via_drain.len(), "the log was drained");
        assert!(resolved.drain_changes().is_empty());
    }

    #[test]
    fn node_ids_follow_first_intern_order() {
        // t(x,z) :- r(x,y), s(y,z), over tuples of three relations.
        let db = schema(&[("r", 2), ("s", 2), ("t", 2)]);
        let rule = Rule::new(
            "j",
            Atom::vars("t", &["x", "z"]),
            vec![Atom::vars("r", &["x", "y"]), Atom::vars("s", &["y", "z"])],
            vec![],
        )
        .unwrap();
        let mut e = Engine::new(db, vec![rule]).unwrap();
        for i in 0..6 {
            e.insert_base("r", tuple![format!("a{i}"), format!("b{i}")])
                .unwrap();
            e.insert_base("s", tuple![format!("b{i}"), format!("c{i}")])
                .unwrap();
        }
        e.propagate().unwrap();
        let changes = e.drain_changes();
        assert_eq!(changes.len(), 18);
        for (k, c) in changes.iter().enumerate() {
            assert_eq!(c.node, NodeId(k as u32), "{c:?}");
            assert_eq!(c.node.to_string(), format!("n{k}"));
        }
    }

    /// One batched `propagate` over a Skolem tgd feeding a recursive
    /// closure, after a prelude that leaves `edge(p1, p2)` and
    /// `path(p1, p2)` interned but dead and makes `path(p2, p3)` a base
    /// fact. Pins the exact change-log order, the derivations in
    /// recording order and every counter: node ids follow first-intern
    /// order, a dead node keeps its id when re-derived, a base head only
    /// gains a derivation, and a null invented earlier in the round is a
    /// fast-path hit for the later firings that need it.
    #[test]
    fn batched_skolem_and_recursive_propagate_in_exact_order() {
        let db = schema(&[("OPS", 3), ("O", 2), ("S", 3), ("edge", 2), ("path", 2)]);
        let split = Tgd::new(
            "split",
            vec![Atom::vars("OPS", &["org", "prot", "seq"])],
            vec![
                Atom::new(
                    "O",
                    vec![
                        Term::var("org"),
                        Term::skolem("oid", vec![Term::var("org")]),
                    ],
                ),
                Atom::new(
                    "S",
                    vec![
                        Term::skolem("oid", vec![Term::var("org")]),
                        Term::var("prot"),
                        Term::var("seq"),
                    ],
                ),
            ],
        )
        .unwrap();
        let mut rules = split.compile().unwrap();
        rules.push(
            Rule::new(
                "link",
                Atom::vars("edge", &["p", "q"]),
                vec![Atom::vars("S", &["o", "p", "q"])],
                vec![],
            )
            .unwrap(),
        );
        rules.extend(edge_path_rules());
        let mut e = Engine::new(db, rules).unwrap();
        // Prelude: edge(p1, p2) and path(p1, p2) live, then die.
        e.insert_base("edge", tuple!["p1", "p2"]).unwrap();
        e.propagate().unwrap();
        e.remove_bases(&[("edge", &tuple!["p1", "p2"])]).unwrap();
        e.insert_base("path", tuple!["p2", "p3"]).unwrap();
        let mut log = Vec::new();
        e.drain_change_log(&mut log);
        // The batch: org0 twice (one null, invented once), org1 once, and
        // a base edge, so the first round joins two relations' deltas.
        for t in [
            tuple!["org0", "p1", "p2"],
            tuple!["org1", "p2", "p3"],
            tuple!["org0", "p3", "p1"],
        ] {
            e.insert_base("OPS", t).unwrap();
        }
        e.insert_base("edge", tuple!["p3", "p4"]).unwrap();
        assert_eq!(e.propagate().unwrap(), 19);
        log.clear();
        e.drain_change_log(&mut log);
        let show = |n: NodeId| {
            let (rel, t) = e.resolve_node(n).unwrap();
            format!("{n} {rel}{t}")
        };
        let changes: Vec<String> = log
            .iter()
            .map(|&(n, kind)| format!("{kind:?} {}", show(n)))
            .collect();
        let derivations: Vec<String> = e
            .graph()
            .derivations()
            .map(|d| {
                let body: Vec<String> = d.body.iter().map(|&b| show(b)).collect();
                format!("{}: {} <- {}", d.rule, show(d.head), body.join(", "))
            })
            .collect();
        assert_eq!(
            changes,
            [
                "Added n3 OPS('org0', 'p1', 'p2')",
                "Added n4 OPS('org1', 'p2', 'p3')",
                "Added n5 OPS('org0', 'p3', 'p1')",
                "Added n6 edge('p3', 'p4')",
                "Added n7 O('org0', oid('org0'))",
                "Added n8 O('org1', oid('org1'))",
                "Added n9 S(oid('org0'), 'p1', 'p2')",
                "Added n10 S(oid('org1'), 'p2', 'p3')",
                "Added n11 S(oid('org0'), 'p3', 'p1')",
                "Added n12 path('p3', 'p4')",
                "Added n0 edge('p1', 'p2')",
                "Added n13 edge('p2', 'p3')",
                "Added n14 edge('p3', 'p1')",
                "Added n1 path('p1', 'p2')",
                "Added n15 path('p3', 'p1')",
                "Added n16 path('p1', 'p3')",
                "Added n17 path('p2', 'p4')",
                "Added n18 path('p3', 'p2')",
                "Added n19 path('p2', 'p1')",
                "Added n20 path('p3', 'p3')",
                "Added n21 path('p1', 'p4')",
                "Added n22 path('p2', 'p2')",
                "Added n23 path('p1', 'p1')",
            ]
        );
        assert_eq!(
            derivations,
            [
                "base: n1 path('p1', 'p2') <- n0 edge('p1', 'p2')",
                "split#1: n7 O('org0', oid('org0')) <- n3 OPS('org0', 'p1', 'p2')",
                "split#1: n8 O('org1', oid('org1')) <- n4 OPS('org1', 'p2', 'p3')",
                "split#1: n7 O('org0', oid('org0')) <- n5 OPS('org0', 'p3', 'p1')",
                "split#2: n9 S(oid('org0'), 'p1', 'p2') <- n3 OPS('org0', 'p1', 'p2')",
                "split#2: n10 S(oid('org1'), 'p2', 'p3') <- n4 OPS('org1', 'p2', 'p3')",
                "split#2: n11 S(oid('org0'), 'p3', 'p1') <- n5 OPS('org0', 'p3', 'p1')",
                "base: n12 path('p3', 'p4') <- n6 edge('p3', 'p4')",
                "link: n0 edge('p1', 'p2') <- n9 S(oid('org0'), 'p1', 'p2')",
                "link: n13 edge('p2', 'p3') <- n10 S(oid('org1'), 'p2', 'p3')",
                "link: n14 edge('p3', 'p1') <- n11 S(oid('org0'), 'p3', 'p1')",
                "base: n2 path('p2', 'p3') <- n13 edge('p2', 'p3')",
                "base: n15 path('p3', 'p1') <- n14 edge('p3', 'p1')",
                "step: n16 path('p1', 'p3') <- n0 edge('p1', 'p2'), n2 path('p2', 'p3')",
                "step: n17 path('p2', 'p4') <- n13 edge('p2', 'p3'), n12 path('p3', 'p4')",
                "step: n18 path('p3', 'p2') <- n14 edge('p3', 'p1'), n1 path('p1', 'p2')",
                "step: n19 path('p2', 'p1') <- n13 edge('p2', 'p3'), n15 path('p3', 'p1')",
                "step: n20 path('p3', 'p3') <- n14 edge('p3', 'p1'), n16 path('p1', 'p3')",
                "step: n21 path('p1', 'p4') <- n0 edge('p1', 'p2'), n17 path('p2', 'p4')",
                "step: n22 path('p2', 'p2') <- n13 edge('p2', 'p3'), n18 path('p3', 'p2')",
                "step: n23 path('p1', 'p1') <- n0 edge('p1', 'p2'), n19 path('p2', 'p1')",
                "step: n2 path('p2', 'p3') <- n13 edge('p2', 'p3'), n20 path('p3', 'p3')",
                "step: n12 path('p3', 'p4') <- n14 edge('p3', 'p1'), n21 path('p1', 'p4')",
                "step: n1 path('p1', 'p2') <- n0 edge('p1', 'p2'), n22 path('p2', 'p2')",
                "step: n15 path('p3', 'p1') <- n14 edge('p3', 'p1'), n23 path('p1', 'p1')",
            ]
        );
        assert_eq!(
            e.stats(),
            EngineStats {
                rounds: 8,
                firings: 26,
                derivations: 25,
                tuples_added: 26,
                tuples_removed: 2,
                index_builds: 2,
                index_probes: 18,
                interner_symbols: 8,
                interner_hits: 9,
                skolem_fast_path: 4,
            }
        );
    }
}
