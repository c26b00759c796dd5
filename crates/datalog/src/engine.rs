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
//!   semi-naive evaluation from the delta only, touching work proportional
//!   to the new derivations rather than the whole database.
//! * **Deletions** are propagated by either of two algorithms
//!   ([`DeletionAlgorithm`]): the provenance-based test (restrict
//!   derivability to the affected subgraph — Orchestra's approach) or
//!   classic **DRed** (over-delete then re-derive by rule re-evaluation —
//!   the baseline), selected per call so benches can compare them
//!   (experiment E6).
//!
//! Every externally visible change to the materialized state is appended to
//! a change log ([`Engine::drain_changes`]) — update translation packages
//! those per-transaction (the `orchestra-core` crate).
//!
//! ## The interned join pipeline
//!
//! Internally the engine never touches a
//! [`Value`](orchestra_relational::Value): at the API boundary every tuple
//! is interned through a [`ValueInterner`] into a [`SymTuple`] of dense
//! `u32` [`Sym`]s, and the whole evaluation pipeline — storage, secondary
//! indexes, join probes, provenance-node interning — runs on integers:
//!
//! * **Fixed-width index keys.** Secondary indexes map `[Sym]` slices to
//!   tuple lists; probes hash a handful of words and borrow the posting
//!   list in place (no per-probe `Vec` materialization, no `Value`
//!   clones).
//! * **Cached join plans.** The greedy join order (delta atom first, then
//!   most-bound-first) depends only on `(rule, delta position)` — it is
//!   compiled **once** per rule into a [`JoinPlan`] whose steps record
//!   statically which columns to probe, which to bind, and which filters
//!   become ready; execution is a plan interpreter with zero planning or
//!   `CompiledRule` cloning per delta batch.
//! * **Borrow-based candidate iteration.** Probe results are borrowed
//!   slices into the index; scans iterate the live tuple table directly.
//!   The only steady-state allocations are the derived head tuples
//!   themselves.
//! * **Integer skolemization.** Labeled nulls invented by tgd heads go
//!   through [`ValueInterner::intern_skolem`], one hash probe over
//!   `(function, arg syms)` once a null has been invented before.
//!
//! ## Sharded, shard-parallel evaluation
//!
//! Relations are stored as [`ShardedRel`]s: hash-partitioned into a fixed
//! number of shards on the relation's **partition columns** (the probe
//! column set the compiled plans use most — its dominant join/index key),
//! with per-shard insertion-ordered tuple tables and per-shard `[Sym]`
//! probe tables. A probe that covers the partition columns touches one
//! shard; others fan out in shard order.
//!
//! Each semi-naive round proceeds in three phases:
//!
//! 1. **Plan (sequential).** The pending delta is split into per-shard
//!    frontiers; any missing indexes are built.
//! 2. **Join (parallel).** One task per `(relation, rule, delta position,
//!    shard)` runs the plan interpreter over that shard's frontier against
//!    an immutable snapshot of the round's database. Tasks are pure reads
//!    — the interner, node table, and provenance graph are untouched —
//!    and stage their rule firings (with Skolem heads unresolved) plus
//!    per-task counters in private buffers. With `threads > 1` and a
//!    large enough frontier, tasks run on a reusable [`WorkerPool`];
//!    otherwise they run inline on the calling thread — **the single-thread
//!    path is `threads = 1` of the same code**, not a second engine.
//! 3. **Merge (partitioned).** Workers route every staged firing to its
//!    head tuple's shard (the same content-based routing the relations
//!    use), so the node table, provenance graph, and relation storage —
//!    all partitioned by that routing — drain through one sink per
//!    shard the round touches, concurrently (see [`crate::merge`]). A
//!    short sequential pre-pass folds per-task counters and interns
//!    first-occurrence labeled nulls (the only interner mutation); the
//!    sinks' counters, change-log entries, and next-round deltas fold
//!    back in shard order, and one pass then splices their staged
//!    cross-shard provenance edges. Every mutation therefore happens in an order
//!    that is a pure function of the input — task order within a shard,
//!    shard order across shards — which makes the provenance graph,
//!    `NodeId` assignment (shard in the id's high bits, per-shard
//!    assignment order below), and [`Engine::drain_changes`] order
//!    identical at any thread count (pinned by the `engine_parity_props`
//!    suite).
//!
//! Symbols are process-local (insertion-ordered); everything that leaves
//! the engine — the change log, [`Engine::scan_resolved`], provenance
//! resolution — is translated back to `Value` tuples, and durable layers
//! serialize those structurally, so persisted state never depends on
//! interner ordering.

use crate::ast::{Filter, Rule, RuleId, Term};
use crate::error::DatalogError;
use crate::merge::{self, Firing, TaskOut};
use crate::node::{NodeId, NodeTable, RelId};
use crate::provgraph::ProvGraph;
use crate::Result;
use orchestra_provenance::Polynomial;
use orchestra_relational::{
    default_threads, host_parallelism, CmpOp, DatabaseSchema, Job, ShardedRel, Sym, SymTuple,
    Tuple, Value, ValueInterner, WorkerPool, DEFAULT_SHARDS,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Which deletion-propagation algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeletionAlgorithm {
    /// Orchestra's approach: test well-founded derivability over the
    /// affected region of the stored provenance graph.
    ProvenanceBased,
    /// The classic delete-and-rederive baseline: over-delete everything
    /// transitively derived through the deleted tuples by re-evaluating
    /// rules, then re-derive survivors from the remaining database.
    DRed,
}

/// Did a change add or remove a tuple?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// The tuple became present.
    Added,
    /// The tuple became absent.
    Removed,
}

/// One externally visible change to the materialized state.
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
/// Under parallel evaluation every counter stays **lost-update-safe**:
/// workers count into private per-task buffers that the merge phase folds
/// in at each round's barrier, so counts are identical at any thread
/// count (no racing increments, no atomics on the hot path).
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

/// Default minimum round size (delta tuples) before a round's join phase
/// is dispatched to the worker pool: smaller rounds run inline — identical
/// results, none of the wakeup overhead.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024;

/// Evaluation tunables: worker threads, shard count, and the parallel
/// dispatch threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Concurrent evaluation lanes (helper threads + the calling thread).
    /// `1` disables the pool entirely; results are identical either way.
    pub threads: usize,
    /// Fixed shard count for every relation's [`ShardedRel`].
    pub shards: usize,
    /// Minimum delta tuples in a round before going parallel.
    pub parallel_threshold: usize,
}

impl Default for EvalOptions {
    /// Threads default to `ORCHESTRA_EVAL_THREADS` (or the machine's
    /// available parallelism), **clamped to the host's parallelism** —
    /// oversubscribing cores never helps the deterministic pipeline and
    /// measurably regresses merge-heavy workloads (the 4/8-thread E11
    /// rows on a 2-core host). An explicit `EvalOptions { threads, .. }`
    /// is honored unclamped. Shards default to [`DEFAULT_SHARDS`].
    fn default() -> Self {
        EvalOptions {
            threads: default_threads().min(host_parallelism()).max(1),
            shards: DEFAULT_SHARDS,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }
}

/// A term compiled against a rule's dense variable numbering. Constants
/// are pre-interned, so runtime comparisons are symbol comparisons.
#[derive(Debug, Clone)]
enum Slot {
    Var(usize),
    Const(Sym),
    Skolem { function: Arc<str>, args: Vec<Slot> },
}

#[derive(Debug, Clone)]
struct CompiledAtom {
    rel: RelId,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone)]
struct CompiledFilter {
    op: CmpOp,
    /// Dense ids of the variables the filter references; the plan applies
    /// it at the earliest step after which all of them are bound.
    vars: Vec<usize>,
    left: Slot,
    right: Slot,
}

#[derive(Debug, Clone)]
struct CompiledRule {
    id: RuleId,
    head: CompiledAtom,
    body: Vec<CompiledAtom>,
    filters: Vec<CompiledFilter>,
    num_vars: usize,
}

// ------------------------------------------------------------ join plans

/// Where a probe-key symbol comes from.
#[derive(Debug, Clone)]
enum KeySrc {
    Const(Sym),
    Var(usize),
}

/// How a step obtains its candidate tuples.
#[derive(Debug, Clone)]
enum Source {
    /// The caller-supplied delta slice (first step of a delta plan).
    Delta,
    /// Full iteration of the relation's live tuples (nothing bound).
    Scan,
    /// Index probe on the statically bound columns.
    Probe {
        cols: Box<[usize]>,
        key: Box<[KeySrc]>,
        /// When the probe covers the relation's partition columns:
        /// `part[i]` is the offset of the i-th partition column inside
        /// `cols`/`key`, so the probe targets a single shard. `None` ⇒
        /// fan out across shards. Filled in by
        /// [`Engine::annotate_plans`] once partitions are chosen.
        part: Option<Box<[usize]>>,
    },
}

/// Per-column action when matching one candidate tuple.
#[derive(Debug, Clone)]
enum ColAction {
    /// Column is covered by the probe key — guaranteed to match.
    Ignore,
    /// Column must equal this constant (delta/scan steps only).
    CheckConst(Sym),
    /// First occurrence of an unbound variable: bind it.
    Bind(usize),
    /// Variable already bound (earlier step, or earlier column of this
    /// atom): must match.
    CheckVar(usize),
}

/// One step of a compiled join: which atom, how to get candidates, what to
/// do per column, and which filters become ready afterwards.
#[derive(Debug, Clone)]
struct StepPlan {
    atom: usize,
    source: Source,
    actions: Box<[ColAction]>,
    /// Variables this step binds (reset on backtrack).
    binds: Box<[usize]>,
    /// Filters whose variables are all bound once this step matched.
    filters: Box<[usize]>,
}

/// A join order plus per-step access paths, compiled once per
/// `(rule, delta position)` — execution never re-plans and never clones
/// the rule.
#[derive(Debug, Clone)]
struct JoinPlan {
    steps: Vec<StepPlan>,
    /// Body contains a Skolem slot: no tuple can ever match (mapping
    /// compilation never produces these; hand-built rules could).
    impossible: bool,
}

/// All plans for one rule: one per delta position, plus the head-seeded
/// plan used by DRed re-derivation.
#[derive(Debug, Clone)]
struct RulePlans {
    delta: Vec<JoinPlan>,
    seeded: JoinPlan,
}

impl JoinPlan {
    /// Greedy join order — the delta atom (if any) first, then repeatedly
    /// the atom with the most statically bound positions (constants +
    /// bound variables) — with every step's access path decided at compile
    /// time. `pre_bound` marks variables seeded before the join (head
    /// bindings during DRed re-derivation).
    fn build(rule: &CompiledRule, delta_pos: Option<usize>, pre_bound: &[bool]) -> JoinPlan {
        let n = rule.body.len();
        let mut bound = pre_bound.to_vec();
        let mut used = vec![false; n];
        let mut filter_done = vec![false; rule.filters.len()];
        let mut steps = Vec::with_capacity(n);
        let mut impossible = false;
        for step_i in 0..n {
            let ai = match (step_i, delta_pos) {
                (0, Some(dp)) => dp,
                _ => {
                    let mut best = usize::MAX;
                    let mut best_score = -1i64;
                    for (cand, &cand_used) in used.iter().enumerate() {
                        if cand_used {
                            continue;
                        }
                        let score = rule.body[cand]
                            .slots
                            .iter()
                            .filter(|s| match s {
                                Slot::Const(_) => true,
                                Slot::Var(v) => bound[*v],
                                Slot::Skolem { .. } => false,
                            })
                            .count() as i64;
                        if score > best_score {
                            best_score = score;
                            best = cand;
                        }
                    }
                    best
                }
            };
            used[ai] = true;
            let atom = &rule.body[ai];
            let is_delta = step_i == 0 && delta_pos.is_some();
            let bound_before = bound.clone();
            let mut probe_cols: Vec<usize> = Vec::new();
            let mut key: Vec<KeySrc> = Vec::new();
            let mut actions: Vec<ColAction> = Vec::with_capacity(atom.slots.len());
            let mut binds: Vec<usize> = Vec::new();
            for (ci, slot) in atom.slots.iter().enumerate() {
                match slot {
                    Slot::Const(s) => {
                        if is_delta {
                            actions.push(ColAction::CheckConst(*s));
                        } else {
                            probe_cols.push(ci);
                            key.push(KeySrc::Const(*s));
                            actions.push(ColAction::Ignore);
                        }
                    }
                    Slot::Var(v) => {
                        if bound_before[*v] {
                            if is_delta {
                                actions.push(ColAction::CheckVar(*v));
                            } else {
                                probe_cols.push(ci);
                                key.push(KeySrc::Var(*v));
                                actions.push(ColAction::Ignore);
                            }
                        } else if bound[*v] {
                            // Repeated within this atom: first occurrence
                            // binds, later ones compare.
                            actions.push(ColAction::CheckVar(*v));
                        } else {
                            bound[*v] = true;
                            binds.push(*v);
                            actions.push(ColAction::Bind(*v));
                        }
                    }
                    Slot::Skolem { .. } => {
                        impossible = true;
                        actions.push(ColAction::Ignore);
                    }
                }
            }
            let source = if is_delta {
                Source::Delta
            } else if probe_cols.is_empty() {
                Source::Scan
            } else {
                Source::Probe {
                    cols: probe_cols.into(),
                    key: key.into(),
                    part: None,
                }
            };
            let filters: Vec<usize> = rule
                .filters
                .iter()
                .enumerate()
                .filter(|(fi, f)| !filter_done[*fi] && f.vars.iter().all(|&v| bound[v]))
                .map(|(fi, _)| fi)
                .collect();
            for &fi in &filters {
                filter_done[fi] = true;
            }
            steps.push(StepPlan {
                atom: ai,
                source,
                actions: actions.into(),
                binds: binds.into(),
                filters: filters.into(),
            });
        }
        JoinPlan { steps, impossible }
    }
}

// ---------------------------------------------------------- plan executor

/// The plan interpreter. **Read-only** over the engine: it borrows the
/// sharded data, the rule/plan storage, and the interner immutably, so
/// any number of `Exec`s can run concurrently over disjoint delta shards.
/// All effects are staged into the [`TaskOut`] buffers.
///
/// Everything resolvable against the round's immutable snapshot is
/// resolved **in the worker**: body node ids (every body tuple is alive
/// or a delta tuple, so it was interned when it first appeared), the
/// derivation's dedup fingerprint, the head's snapshot node/liveness,
/// already-interned Skolem nulls, and the head's **target shard** — so
/// the merge phase fans out over per-shard sinks with only the
/// first-occurrence nulls left on the sequential path.
struct Exec<'a> {
    rule: &'a CompiledRule,
    plan: &'a JoinPlan,
    data: &'a [ShardedRel<NodeId>],
    delta: Option<&'a [SymTuple]>,
    interner: &'a ValueInterner,
    nodes: &'a NodeTable,
    /// Shard count shared by every partitioned structure (head routing).
    shards: usize,
    bindings: Vec<Sym>,
    body_tuples: Vec<Option<&'a SymTuple>>,
    /// One reusable probe-key buffer per step: steady-state probing
    /// allocates nothing.
    key_bufs: Vec<Vec<Sym>>,
    /// Reusable posting-list buffers for probes that fan out across
    /// shards (non-covering column sets).
    slice_bufs: Vec<Vec<&'a [SymTuple]>>,
    out: TaskOut,
}

impl<'a> Exec<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rule: &'a CompiledRule,
        plan: &'a JoinPlan,
        data: &'a [ShardedRel<NodeId>],
        delta: Option<&'a [SymTuple]>,
        interner: &'a ValueInterner,
        nodes: &'a NodeTable,
        shards: usize,
        bindings: Vec<Sym>,
    ) -> Self {
        Exec {
            body_tuples: vec![None; rule.body.len()],
            key_bufs: vec![Vec::new(); plan.steps.len()],
            slice_bufs: vec![Vec::new(); plan.steps.len()],
            out: TaskOut::default(),
            rule,
            plan,
            data,
            delta,
            interner,
            nodes,
            shards,
            bindings,
        }
    }

    fn run(&mut self) {
        if self.plan.impossible {
            return;
        }
        self.step(0);
    }

    fn step(&mut self, si: usize) {
        let plan = self.plan;
        if si == plan.steps.len() {
            self.emit();
            return;
        }
        let sp = &plan.steps[si];
        let data = self.data;
        match &sp.source {
            Source::Delta => {
                // analyze: allow(panic) -- plan selection sets Source::Delta only when run_delta supplied one
                let cands = self.delta.expect("delta plan executed without a delta");
                self.scan_candidates(si, sp, cands.iter());
            }
            Source::Scan => {
                let rd = &data[self.rule.body[sp.atom].rel.index()];
                self.scan_candidates(si, sp, rd.iter_tuples());
            }
            Source::Probe { cols, key, part } => {
                self.out.probes += 1;
                let mut buf = std::mem::take(&mut self.key_bufs[si]);
                buf.clear();
                for src in key.iter() {
                    buf.push(match src {
                        KeySrc::Const(s) => *s,
                        KeySrc::Var(v) => self.bindings[*v],
                    });
                }
                let rd = &data[self.rule.body[sp.atom].rel.index()];
                match part {
                    Some(positions) => {
                        // Covering probe: one shard owns every match.
                        let shard = rd.shard_for_key(positions, &buf);
                        let cands = rd.probe_shard(shard, cols, &buf);
                        self.key_bufs[si] = buf;
                        self.scan_candidates(si, sp, cands.iter());
                    }
                    None => {
                        // Fan out: collect per-shard posting lists, then
                        // iterate them in shard order (deterministic).
                        let mut slices = std::mem::take(&mut self.slice_bufs[si]);
                        slices.clear();
                        rd.probe_slices_into(cols, &buf, &mut slices);
                        self.key_bufs[si] = buf;
                        self.scan_candidates(si, sp, slices.iter().flat_map(|s| s.iter()));
                        self.slice_bufs[si] = slices;
                    }
                }
            }
        }
    }

    fn scan_candidates(
        &mut self,
        si: usize,
        sp: &'a StepPlan,
        cands: impl Iterator<Item = &'a SymTuple>,
    ) {
        'next_tuple: for t in cands {
            // Delta tuples are caller-supplied; everything else comes from
            // schema-validated storage.
            if t.arity() != sp.actions.len() {
                continue;
            }
            for (ci, act) in sp.actions.iter().enumerate() {
                let ok = match act {
                    ColAction::Ignore => true,
                    ColAction::CheckConst(s) => t[ci] == *s,
                    ColAction::CheckVar(v) => t[ci] == self.bindings[*v],
                    ColAction::Bind(v) => {
                        self.bindings[*v] = t[ci];
                        true
                    }
                };
                if !ok {
                    self.reset_binds(sp);
                    continue 'next_tuple;
                }
            }
            for &fi in sp.filters.iter() {
                if !self.filter_ok(fi) {
                    self.reset_binds(sp);
                    continue 'next_tuple;
                }
            }
            self.body_tuples[sp.atom] = Some(t);
            self.step(si + 1);
            self.body_tuples[sp.atom] = None;
            self.reset_binds(sp);
        }
    }

    #[inline]
    fn reset_binds(&mut self, sp: &StepPlan) {
        for &v in sp.binds.iter() {
            self.bindings[v] = Sym::NONE;
        }
    }

    fn filter_ok(&self, fi: usize) -> bool {
        let f = &self.rule.filters[fi];
        match (self.slot_sym(&f.left), self.slot_sym(&f.right)) {
            (Some(l), Some(r)) => match f.op {
                // Interning is injective: symbol equality is value equality.
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                op => op.apply(self.interner.resolve(l), self.interner.resolve(r)),
            },
            // A filter mentioning a Skolem term (hand-built rules only —
            // tgd compilation never does this): compare structurally by
            // value, which needs no interner mutation.
            _ => {
                let l = self.slot_value(&f.left);
                let r = self.slot_value(&f.right);
                f.op.apply(&l, &r)
            }
        }
    }

    /// The symbol of a slot under the current bindings; `None` for Skolem
    /// slots (their null may not have been interned yet).
    fn slot_sym(&self, slot: &Slot) -> Option<Sym> {
        match slot {
            Slot::Var(v) => Some(self.bindings[*v]),
            Slot::Const(s) => Some(*s),
            Slot::Skolem { .. } => None,
        }
    }

    /// The value of a slot under the current bindings, constructing
    /// labeled nulls structurally (read-only fallback for filters).
    fn slot_value(&self, slot: &Slot) -> Value {
        match slot {
            Slot::Var(v) => self.interner.resolve(self.bindings[*v]).clone(),
            Slot::Const(s) => self.interner.resolve(*s).clone(),
            Slot::Skolem { function, args } => Value::skolem(
                Arc::clone(function),
                args.iter().map(|a| self.slot_value(a)).collect(),
            ),
        }
    }

    /// All atoms bound: stage the head, resolve the body node ids in
    /// original rule-body order (derivation identity depends on it),
    /// precompute the dedup fingerprint, and route the firing to its head
    /// shard — all against the round's immutable snapshot.
    ///
    /// Skolem head slots resolve read-only when every null already exists
    /// in the snapshot interner (the steady state once a null has been
    /// invented); a single missing null defers the whole head to the
    /// merge's sequential Skolem pass instead.
    fn emit(&mut self) {
        let rule = self.rule;
        let mut skolems: Vec<(u32, Vec<Sym>)> = Vec::new();
        let mut head_syms: Vec<Sym> = Vec::with_capacity(rule.head.slots.len());
        for (ci, s) in rule.head.slots.iter().enumerate() {
            head_syms.push(match s {
                Slot::Var(v) => {
                    let sym = self.bindings[*v];
                    debug_assert!(!sym.is_none(), "unbound head slot");
                    sym
                }
                Slot::Const(c) => *c,
                Slot::Skolem { args, .. } => {
                    let arg_syms: Vec<Sym> = args
                        .iter()
                        // analyze: allow(panic) -- Tgd compilation rejects any skolem arg that is not a var or constant
                        .map(|a| self.slot_sym(a).expect("skolem args are vars/constants"))
                        .collect();
                    skolems.push((ci as u32, arg_syms));
                    Sym::NONE
                }
            });
        }
        if !skolems.is_empty() {
            let mut resolved: Vec<Sym> = Vec::with_capacity(skolems.len());
            let all_known = skolems.iter().all(|(ci, args)| {
                let Slot::Skolem { function, .. } = &rule.head.slots[*ci as usize] else {
                    // analyze: allow(panic) -- skolems is built by iterating exactly the head's skolem slots
                    unreachable!("staged skolem at a non-skolem head slot")
                };
                match self.interner.get_skolem(function, args) {
                    Some(sym) => {
                        resolved.push(sym);
                        true
                    }
                    None => false,
                }
            });
            if all_known {
                for ((ci, _), sym) in skolems.iter().zip(resolved) {
                    head_syms[*ci as usize] = sym;
                }
                self.out.skolem_hits += skolems.len() as u64;
                skolems.clear();
            }
        }
        let head = SymTuple::new(head_syms);
        let body_nodes: Vec<NodeId> = (0..rule.body.len())
            .map(|i| {
                // analyze: allow(panic) -- a firing is only staged after every body atom matched, binding all slots
                let t = self.body_tuples[i].expect("bound");
                let rel = rule.body[i].rel;
                // Every candidate is either alive — its node rides along
                // as the relation payload — or a delta tuple interned at
                // `insert_base` / the merge that produced it; DRed's
                // over-deletion additionally joins deltas already removed
                // from `data`, whose nodes remain in the table.
                self.data[rel.index()]
                    .get(t)
                    .or_else(|| {
                        let shard = self.data[rel.index()].shard_of(t);
                        self.nodes.get(shard, rel, t)
                    })
                    // analyze: allow(panic) -- see comment above: candidates are interned on insert or merge
                    .expect("body tuple interned")
            })
            .collect();
        let fp = crate::provgraph::derivation_fingerprint(&rule.id, &body_nodes);
        if skolems.is_empty() {
            // One probe answers both "does the head already have a node"
            // and "is it alive" as of the snapshot (dead-but-interned
            // heads read as None — the sink intern then hits the shard's
            // table, same result).
            let rd = &self.data[rule.head.rel.index()];
            let shard = rd.shard_of(&head);
            let head_node = rd.get_in(shard, &head);
            if self.out.routed.is_empty() {
                self.out.routed.resize_with(self.shards, Vec::new);
            }
            self.out.routed[shard].push(Firing {
                head,
                skolems,
                head_node,
                body_nodes,
                fp,
            });
        } else {
            self.out.unrouted.push(Firing {
                head,
                skolems,
                head_node: None,
                body_nodes,
                fp,
            });
        }
    }
}

/// Run one join task: evaluate `plan` for `rule` over `delta` against an
/// immutable database snapshot. Pure — safe to run on any thread.
#[allow(clippy::too_many_arguments)]
fn run_task(
    rule: &CompiledRule,
    plan: &JoinPlan,
    data: &[ShardedRel<NodeId>],
    interner: &ValueInterner,
    nodes: &NodeTable,
    shards: usize,
    delta: Option<&[SymTuple]>,
    bindings: Vec<Sym>,
) -> TaskOut {
    if plan.impossible {
        return TaskOut::default();
    }
    let mut exec = Exec::new(rule, plan, data, delta, interner, nodes, shards, bindings);
    exec.run();
    exec.out
}

/// Finalize a staged head: intern any deferred Skolem nulls (sequential —
/// this is the merge phase's exclusive right to mutate the interner).
fn resolve_head(interner: &mut ValueInterner, rule: &CompiledRule, firing: &Firing) -> SymTuple {
    if firing.skolems.is_empty() {
        return firing.head.clone();
    }
    let mut syms: Vec<Sym> = firing.head.syms().to_vec();
    for (ci, args) in &firing.skolems {
        let Slot::Skolem { function, .. } = &rule.head.slots[*ci as usize] else {
            // analyze: allow(panic) -- firing.skolems is built by iterating exactly the head's skolem slots
            unreachable!("staged skolem at a non-skolem head slot")
        };
        syms[*ci as usize] = interner.intern_skolem(function, args);
    }
    SymTuple::new(syms)
}

/// One join task of a round: rule × delta position × delta shard.
struct TaskSpec {
    ri: u32,
    ai: u32,
    rel: u32,
    shard: u32,
}

// ----------------------------------------------------------------- engine

/// The provenance-annotated, incrementally maintained datalog engine.
#[derive(Debug, Clone)]
pub struct Engine {
    schema: DatabaseSchema,
    rules: Vec<CompiledRule>,
    plans: Vec<RulePlans>,
    /// body relation → (rule index, body atom position), indexed by RelId.
    rules_by_body: Vec<Vec<(u32, u32)>>,
    interner: ValueInterner,
    /// RelId → relation name.
    rel_names: Vec<Arc<str>>,
    /// relation name → RelId.
    rel_ids: HashMap<Arc<str>, RelId>,
    nodes: NodeTable,
    graph: ProvGraph,
    /// Indexed by RelId: hash-partitioned storage with per-shard indexes.
    data: Vec<ShardedRel<NodeId>>,
    /// Tuples inserted but not yet propagated.
    pending: Vec<(RelId, SymTuple)>,
    changes: Vec<Change>,
    stats: EngineStats,
    /// The slice of `stats` already exported to the `orchestra-obs`
    /// registry: the hot loops keep their plain `&mut` increments (no
    /// atomics per tuple), and [`obs_flush_stats`](Self::obs_flush_stats)
    /// publishes the diff once per `propagate` / `remove_bases` call.
    mirrored: EngineStats,
    /// When false, derivations are not recorded (ablation baseline for
    /// experiment E5). Provenance-based deletion then falls back to DRed.
    track_provenance: bool,
    opts: EvalOptions,
    /// The worker pool, created by the first round that dispatches in
    /// parallel — so nothing spawns threads for workloads that never cross
    /// the parallel threshold. The slot is shared with cloned engines, and
    /// a CDSS hands every peer engine the same one.
    pool: Arc<std::sync::OnceLock<Arc<WorkerPool>>>,
}

impl Engine {
    /// Build an engine for a schema and a mapping program.
    pub fn new(schema: DatabaseSchema, rules: Vec<Rule>) -> Result<Engine> {
        Self::with_provenance(schema, rules, true)
    }

    /// Build an engine, optionally **without** provenance tracking — the
    /// ablation baseline of experiment E5. Without provenance, trust
    /// evaluation and provenance-based deletion are unavailable
    /// ([`remove_bases`](Engine::remove_bases) silently uses DRed), but
    /// insert propagation is cheaper.
    pub fn with_provenance(
        schema: DatabaseSchema,
        rules: Vec<Rule>,
        track_provenance: bool,
    ) -> Result<Engine> {
        Self::with_options(schema, rules, track_provenance, EvalOptions::default())
    }

    /// Build an engine with explicit evaluation tunables (thread count,
    /// shard count, parallel threshold).
    pub fn with_options(
        schema: DatabaseSchema,
        rules: Vec<Rule>,
        track_provenance: bool,
        opts: EvalOptions,
    ) -> Result<Engine> {
        let opts = EvalOptions {
            threads: opts.threads.max(1),
            // NodeIds pack the shard into their high bits, so the shard
            // count is bounded by the id space.
            shards: opts.shards.clamp(1, NodeId::MAX_SHARDS),
            parallel_threshold: opts.parallel_threshold,
        };
        let mut rel_names: Vec<Arc<str>> = Vec::new();
        let mut rel_ids: HashMap<Arc<str>, RelId> = HashMap::new();
        let mut arities: Vec<usize> = Vec::new();
        for r in schema.relations() {
            let id = RelId(rel_names.len() as u32);
            rel_names.push(r.name_arc());
            rel_ids.insert(r.name_arc(), id);
            arities.push(r.arity());
        }
        let mut interner = ValueInterner::new();
        let mut compiled = Vec::with_capacity(rules.len());
        let mut plans = Vec::with_capacity(rules.len());
        let mut rules_by_body: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rel_names.len()];
        for (ri, rule) in rules.into_iter().enumerate() {
            let c = Self::compile_rule(&schema, &rel_ids, &mut interner, rule)?;
            for (ai, atom) in c.body.iter().enumerate() {
                rules_by_body[atom.rel.index()].push((ri as u32, ai as u32));
            }
            plans.push(Self::build_plans(&c));
            compiled.push(c);
        }
        // Pick each relation's partition columns from the compiled plans
        // (most-probed column set), then annotate every probe step with
        // its single-shard target where the probe covers them.
        let partitions = Self::choose_partitions(&arities, &compiled, &plans);
        Self::annotate_plans(&compiled, &mut plans, &partitions);
        let data = partitions
            .iter()
            .map(|cols| ShardedRel::new(opts.shards, cols.clone()))
            .collect();
        // The node table and provenance graph partition by the same shard
        // routing as the relations, so the merge phase's per-shard sinks
        // line up across all three.
        let mut graph = ProvGraph::new();
        graph.ensure_shards(opts.shards);
        Ok(Engine {
            schema,
            rules: compiled,
            plans,
            rules_by_body,
            interner,
            rel_names,
            rel_ids,
            nodes: NodeTable::with_shards(opts.shards),
            graph,
            data,
            pending: Vec::new(),
            changes: Vec::new(),
            stats: EngineStats::default(),
            mirrored: EngineStats::default(),
            track_provenance,
            opts,
            pool: Arc::default(),
        })
    }

    /// Choose each relation's partition columns: the probe column set the
    /// compiled **delta** plans use most often (those run every round;
    /// head-seeded plans only serve DRed re-derivation and count as a
    /// fallback). Ties break on the lexicographically smallest set —
    /// deterministic. Relations never probed partition on the whole tuple.
    fn choose_partitions(
        arities: &[usize],
        rules: &[CompiledRule],
        plans: &[RulePlans],
    ) -> Vec<Vec<usize>> {
        let mut delta_counts: Vec<HashMap<Box<[usize]>, usize>> =
            vec![HashMap::new(); arities.len()];
        let mut seeded_counts: Vec<HashMap<Box<[usize]>, usize>> =
            vec![HashMap::new(); arities.len()];
        for (ri, rp) in plans.iter().enumerate() {
            let tally = |plan: &JoinPlan, counts: &mut Vec<HashMap<Box<[usize]>, usize>>| {
                for sp in &plan.steps {
                    if let Source::Probe { cols, .. } = &sp.source {
                        let rel = rules[ri].body[sp.atom].rel.index();
                        *counts[rel].entry(cols.clone()).or_insert(0) += 1;
                    }
                }
            };
            for plan in &rp.delta {
                tally(plan, &mut delta_counts);
            }
            tally(&rp.seeded, &mut seeded_counts);
        }
        let pick = |m: &HashMap<Box<[usize]>, usize>| -> Option<Vec<usize>> {
            let mut entries: Vec<(&Box<[usize]>, &usize)> = m.iter().collect();
            entries.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            entries.first().map(|(cols, _)| cols.to_vec())
        };
        (0..arities.len())
            .map(|rel| {
                pick(&delta_counts[rel])
                    .or_else(|| pick(&seeded_counts[rel]))
                    .unwrap_or_else(|| (0..arities[rel]).collect())
            })
            .collect()
    }

    /// Mark every probe step whose column set covers the target
    /// relation's partition columns with the key positions of those
    /// columns, so execution routes it to a single shard.
    fn annotate_plans(rules: &[CompiledRule], plans: &mut [RulePlans], partitions: &[Vec<usize>]) {
        for (ri, rp) in plans.iter_mut().enumerate() {
            for plan in rp.delta.iter_mut().chain(std::iter::once(&mut rp.seeded)) {
                for sp in &mut plan.steps {
                    if let Source::Probe { cols, part, .. } = &mut sp.source {
                        let rel = rules[ri].body[sp.atom].rel.index();
                        *part = partitions[rel]
                            .iter()
                            .map(|pc| cols.iter().position(|c| c == pc))
                            .collect();
                    }
                }
            }
        }
    }

    /// Compile every join plan a rule can need: one per delta position
    /// plus the head-seeded plan for DRed re-derivation. Planning happens
    /// exactly once per rule — delta batches reuse these verbatim.
    fn build_plans(rule: &CompiledRule) -> RulePlans {
        let no_seed = vec![false; rule.num_vars];
        let delta = (0..rule.body.len())
            .map(|ai| JoinPlan::build(rule, Some(ai), &no_seed))
            .collect();
        // Head-seeded: exactly the variables occurring as head Var slots
        // are bound before the join (Skolem-argument variables are not).
        let mut seed = vec![false; rule.num_vars];
        for slot in &rule.head.slots {
            if let Slot::Var(v) = slot {
                seed[*v] = true;
            }
        }
        let seeded = JoinPlan::build(rule, None, &seed);
        RulePlans { delta, seeded }
    }

    fn compile_rule(
        schema: &DatabaseSchema,
        rel_ids: &HashMap<Arc<str>, RelId>,
        interner: &mut ValueInterner,
        rule: Rule,
    ) -> Result<CompiledRule> {
        // Check relations and arities.
        let head_schema = schema
            .relation(&rule.head.relation)
            .map_err(|_| DatalogError::UnknownRelation(rule.head.relation.to_string()))?;
        if head_schema.arity() != rule.head.arity() {
            return Err(DatalogError::ArityMismatch {
                relation: rule.head.relation.to_string(),
                expected: head_schema.arity(),
                actual: rule.head.arity(),
            });
        }
        for atom in &rule.body {
            let rs = schema
                .relation(&atom.relation)
                .map_err(|_| DatalogError::UnknownRelation(atom.relation.to_string()))?;
            if rs.arity() != atom.arity() {
                return Err(DatalogError::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: rs.arity(),
                    actual: atom.arity(),
                });
            }
        }

        // Dense variable numbering in first-occurrence order.
        let mut var_ids: HashMap<Arc<str>, usize> = HashMap::new();
        for atom in &rule.body {
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    let next = var_ids.len();
                    var_ids.entry(Arc::clone(v)).or_insert(next);
                }
            }
        }
        fn compile_term(
            t: &Term,
            var_ids: &HashMap<Arc<str>, usize>,
            interner: &mut ValueInterner,
        ) -> Slot {
            match t {
                Term::Var(v) => Slot::Var(var_ids[v]),
                Term::Const(c) => Slot::Const(interner.intern(c)),
                Term::Skolem { function, args } => Slot::Skolem {
                    function: Arc::clone(function),
                    args: args
                        .iter()
                        .map(|a| match a {
                            // analyze: allow(panic) -- Tgd::new validates skolem args are flat before compilation
                            Term::Skolem { .. } => unreachable!("nested skolems rejected by Tgd"),
                            other => compile_term(other, var_ids, interner),
                        })
                        .collect(),
                },
            }
        }

        let body: Vec<CompiledAtom> = rule
            .body
            .iter()
            .map(|a| CompiledAtom {
                rel: rel_ids[&a.relation],
                slots: a
                    .terms
                    .iter()
                    .map(|t| compile_term(t, &var_ids, interner))
                    .collect(),
            })
            .collect();
        let head = CompiledAtom {
            rel: rel_ids[&rule.head.relation],
            slots: rule
                .head
                .terms
                .iter()
                .map(|t| compile_term(t, &var_ids, interner))
                .collect(),
        };
        let filters: Vec<CompiledFilter> = rule
            .filters
            .iter()
            .map(|f: &Filter| {
                let vars = f.variables().iter().map(|v| var_ids[v]).collect();
                CompiledFilter {
                    vars,
                    op: f.op,
                    left: compile_term(&f.left, &var_ids, interner),
                    right: compile_term(&f.right, &var_ids, interner),
                }
            })
            .collect();
        Ok(CompiledRule {
            id: rule.id,
            head,
            body,
            filters,
            num_vars: var_ids.len(),
        })
    }

    /// The engine's schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The provenance graph.
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// The node table.
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }

    /// The value interner (symbols are engine-local; see module docs).
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Aggregate counters, including the interner's.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let i = self.interner.stats();
        s.interner_symbols = i.symbols;
        s.interner_hits = i.hits;
        s.skolem_fast_path = i.skolem_fast_path;
        s
    }

    /// Publish the counters accumulated since the last flush to the
    /// `orchestra-obs` registry as `engine.*` deltas. Called once per
    /// propagate/deletion entry point — the hot loops never touch an
    /// atomic, so counts stay identical at any thread count.
    fn obs_flush_stats(&mut self) {
        if !orchestra_obs::ENABLED {
            return;
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

    /// The engine's evaluation tunables.
    pub fn eval_options(&self) -> EvalOptions {
        self.opts
    }

    /// The evaluation thread count.
    pub fn threads(&self) -> usize {
        self.opts.threads
    }

    /// The per-relation shard count.
    pub fn shards(&self) -> usize {
        self.opts.shards
    }

    /// Share a **lazy** pool slot with this engine: the pool is spawned
    /// only when some sharing engine first dispatches a parallel round,
    /// sized by that engine's thread count — so every engine sharing a
    /// slot must be built with the same count.
    pub fn set_shared_pool_slot(&mut self, slot: Arc<std::sync::OnceLock<Arc<WorkerPool>>>) {
        self.pool = slot;
    }

    fn ensure_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(
            self.pool
                .get_or_init(|| Arc::new(WorkerPool::new(self.opts.threads))),
        )
    }

    /// The dense id of a relation, if known.
    pub fn rel_id(&self, relation: &str) -> Option<RelId> {
        self.rel_ids.get(relation).copied()
    }

    /// The interned node of `(relation, tuple)`, if both are known.
    pub fn node_id(&self, relation: &str, tuple: &Tuple) -> Option<NodeId> {
        let rel = self.rel_id(relation)?;
        let st = self.interner.get_tuple(tuple)?;
        let shard = self.data[rel.index()].shard_of(&st);
        self.nodes.get(shard, rel, &st)
    }

    /// The `(relation name, tuple)` behind a node id.
    pub fn resolve_node(&self, node: NodeId) -> Option<(&Arc<str>, Tuple)> {
        let (rel, st) = self.nodes.resolve(node)?;
        Some((
            &self.rel_names[rel.index()],
            self.interner.resolve_tuple(st),
        ))
    }

    /// True iff the relation currently contains the tuple.
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        let Some(rel) = self.rel_id(relation) else {
            return false;
        };
        let Some(st) = self.interner.get_tuple(tuple) else {
            return false;
        };
        self.data[rel.index()].contains(&st)
    }

    /// Number of alive tuples in a relation.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.rel_id(relation)
            .map_or(0, |r| self.data[r.index()].len())
    }

    /// Borrowing per-shard scan of a relation's alive tuples: interned
    /// tuples with their node ids, in the shards' deterministic sequence
    /// order (a pure function of the engine's mutation history — not
    /// insertion order once deletions happened), with **no** per-call
    /// materialization. Unknown relations yield nothing.
    pub fn scan<'e>(&'e self, relation: &str) -> impl Iterator<Item = (&'e SymTuple, NodeId)> + 'e {
        self.rel_id(relation)
            .into_iter()
            .flat_map(move |r| self.data[r.index()].iter().map(|(t, n)| (t, *n)))
    }

    /// Like [`scan`](Engine::scan), resolving each tuple back to values
    /// lazily (one tuple in flight at a time — reconcile/bench read paths
    /// use this instead of cloning whole relations).
    pub fn scan_resolved<'e>(&'e self, relation: &str) -> impl Iterator<Item = Tuple> + 'e {
        self.scan(relation)
            .map(move |(st, _)| self.interner.resolve_tuple(st))
    }

    /// Total alive tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.data.iter().map(ShardedRel::len).sum()
    }

    /// Drain the change log.
    pub fn drain_changes(&mut self) -> Vec<Change> {
        std::mem::take(&mut self.changes)
    }

    /// Insert a base (published) tuple. Idempotent: re-inserting an already
    /// base tuple is a no-op. If the tuple exists only as derived, it
    /// additionally becomes base (gaining independent support).
    pub fn insert_base(&mut self, relation: &str, tuple: Tuple) -> Result<NodeId> {
        let rel_schema = self
            .schema
            .relation(relation)
            .map_err(|_| DatalogError::UnknownRelation(relation.to_string()))?;
        rel_schema.validate(&tuple)?;
        let rel = self.rel_ids[relation];
        let st = self.interner.intern_tuple(&tuple);
        let shard = self.data[rel.index()].shard_of(&st);
        let node = self.nodes.intern(shard, rel, &st);
        if self.graph.is_base(node) {
            return Ok(node);
        }
        self.graph.add_base(node);
        let rd = &mut self.data[rel.index()];
        if rd.insert_if_absent(st.clone(), node) {
            self.stats.tuples_added += 1;
            self.changes.push(Change {
                relation: Arc::clone(&self.rel_names[rel.index()]),
                tuple,
                kind: ChangeKind::Added,
                node,
            });
            self.pending.push((rel, st));
        }
        Ok(node)
    }

    /// Run semi-naive propagation from the pending delta to fixpoint.
    /// Returns the number of newly derived tuples.
    ///
    /// Each round joins the delta against an immutable snapshot of the
    /// round's database — shard-parallel when `threads > 1` and the
    /// round is big enough — then merges the staged firings in a fixed
    /// order (see the module docs): the fixpoint, provenance graph,
    /// node ids, change order, and stats are identical at any thread
    /// count.
    pub fn propagate(&mut self) -> Result<usize> {
        let mut delta = std::mem::take(&mut self.pending);
        // A pending insert that a deletion removed before this call
        // derives nothing.
        delta.retain(|(rel, t)| self.data[rel.index()].contains(t));
        let mut new_tuples = 0usize;
        let n_rels = self.rel_names.len();
        let shards = self.opts.shards;
        while !delta.is_empty() {
            self.stats.rounds += 1;
            // Group the delta by dense rel id, in arrival order.
            let mut by_rel: Vec<Vec<SymTuple>> = vec![Vec::new(); n_rels];
            let mut total = 0usize;
            for (r, t) in delta.drain(..) {
                by_rel[r.index()].push(t);
                total += 1;
            }
            // Per-(relation, shard) delta frontiers — but only when the
            // round is big enough that splitting can pay: below the
            // threshold each relation keeps one frontier (and one task
            // per using rule), so tiny per-transaction rounds carry no
            // per-shard task overhead. The decision depends only on the
            // round's size — never on the thread count — so grouping,
            // task order, and therefore every downstream mutation stay
            // identical at any `threads` setting.
            let sharded = shards > 1 && total >= self.opts.parallel_threshold;
            let mut frontiers: Vec<Vec<Vec<SymTuple>>> = vec![Vec::new(); n_rels];
            for (rel, tuples) in by_rel.into_iter().enumerate() {
                if tuples.is_empty() {
                    continue;
                }
                if sharded {
                    let fr = &mut frontiers[rel];
                    fr.resize(shards, Vec::new());
                    for t in tuples {
                        let s = self.data[rel].shard_of(&t);
                        fr[s].push(t);
                    }
                } else {
                    frontiers[rel] = vec![tuples];
                }
            }
            // Sequential pre-phase: build any missing indexes so the join
            // phase only reads, and lay out the round's task list in its
            // fixed (relation, rule, shard) merge order.
            let mut tasks: Vec<TaskSpec> = Vec::new();
            orchestra_obs::time_histogram!("engine.round.plan_micros", {
                let Engine {
                    rules,
                    plans,
                    rules_by_body,
                    data,
                    stats,
                    ..
                } = self;
                for (rel, fr) in frontiers.iter().enumerate() {
                    if fr.is_empty() {
                        continue;
                    }
                    for &(ri, ai) in &rules_by_body[rel] {
                        let plan = &plans[ri as usize].delta[ai as usize];
                        for sp in &plan.steps {
                            if let Source::Probe { cols, .. } = &sp.source {
                                let target = rules[ri as usize].body[sp.atom].rel.index();
                                if data[target].ensure_index(cols) {
                                    stats.index_builds += 1;
                                }
                            }
                        }
                        for (s, tuples) in fr.iter().enumerate() {
                            if !tuples.is_empty() {
                                tasks.push(TaskSpec {
                                    ri,
                                    ai,
                                    rel: rel as u32,
                                    shard: s as u32,
                                });
                            }
                        }
                    }
                }
            });
            // Join phase: run every task against the round snapshot.
            let parallel =
                self.opts.threads > 1 && tasks.len() > 1 && total >= self.opts.parallel_threshold;
            let pool = if parallel {
                Some(self.ensure_pool())
            } else {
                None
            };
            let mut outs: Vec<Option<TaskOut>> = Vec::new();
            outs.resize_with(tasks.len(), || None);
            orchestra_obs::time_histogram!("engine.round.join_micros", {
                let Engine {
                    rules,
                    plans,
                    data,
                    interner,
                    nodes,
                    ..
                } = &*self;
                let run_one = |spec: &TaskSpec| -> TaskOut {
                    let rule = &rules[spec.ri as usize];
                    run_task(
                        rule,
                        &plans[spec.ri as usize].delta[spec.ai as usize],
                        data,
                        interner,
                        nodes,
                        shards,
                        Some(&frontiers[spec.rel as usize][spec.shard as usize]),
                        vec![Sym::NONE; rule.num_vars],
                    )
                };
                match pool.as_deref() {
                    Some(pool) => {
                        let jobs: Vec<Job<'_>> = outs
                            .iter_mut()
                            .zip(&tasks)
                            .map(|(slot, spec)| {
                                Box::new(move || {
                                    *slot = Some(run_one(spec));
                                }) as Job<'_>
                            })
                            .collect();
                        pool.run(jobs);
                    }
                    None => {
                        for (slot, spec) in outs.iter_mut().zip(&tasks) {
                            *slot = Some(run_one(spec));
                        }
                    }
                }
            });
            // Merge phase, partitioned by the same routing as the data
            // and sized to the round: only the shards some firing lands
            // in get a sink. Workers already routed each firing to its
            // head's shard, so the drains below are disjoint per shard
            // and run on the pool; every processing order is fixed (task
            // order within a shard, shard order across shards) and
            // routing is a pure function of tuple content, so NodeId
            // assignment, provenance recording, inserts, the change log,
            // and the stats replay identically at any thread count.
            delta = orchestra_obs::time_histogram!("engine.round.merge_micros", {
                let track = self.track_provenance;
                let Engine {
                    rules,
                    interner,
                    nodes,
                    graph,
                    data,
                    stats,
                    changes,
                    rel_names,
                    ..
                } = self;
                // M0 — sequential pre-pass, in task order: fold the join
                // phase's private counters, intern first-occurrence
                // labeled nulls (the merge's exclusive right to mutate
                // the interner), and queue every task's non-empty shard
                // buckets on their shard: `queues[s]` holds `(task,
                // firings)` in task order, so an untouched shard's queue
                // stays empty and unallocated.
                let mut queues: Vec<Vec<(usize, Vec<Firing>)>> = Vec::new();
                queues.resize_with(shards, Vec::new);
                for (k, (spec, out)) in tasks.iter().zip(outs).enumerate() {
                    // analyze: allow(panic) -- the pool barrier completes every task before results are read
                    let mut out = out.expect("join task executed");
                    stats.index_probes += out.probes;
                    interner.note_skolem_hits(out.skolem_hits);
                    if !out.unrouted.is_empty() {
                        if out.routed.is_empty() {
                            out.routed.resize_with(shards, Vec::new);
                        }
                        let rule = &rules[spec.ri as usize];
                        let head_rel = rule.head.rel;
                        for mut firing in out.unrouted.drain(..) {
                            firing.head = resolve_head(interner, rule, &firing);
                            firing.skolems.clear();
                            let rd = &data[head_rel.index()];
                            let shard = rd.shard_of(&firing.head);
                            firing.head_node = rd.get_in(shard, &firing.head);
                            out.routed[shard].push(firing);
                        }
                    }
                    for (s, firings) in out.routed.into_iter().enumerate() {
                        if !firings.is_empty() {
                            queues[s].push((k, firings));
                        }
                    }
                }
                // M1 — one sink per touched shard drains its queue; sinks
                // run concurrently on the pool. Each sink owns shard `s`
                // of the node table, the provenance graph, and every
                // relation, so the drains never touch shared state.
                let touched: Vec<bool> = queues.iter().map(|q| !q.is_empty()).collect();
                queues.retain(|q| !q.is_empty());
                let rule_heads: Vec<(&RuleId, RelId)> = tasks
                    .iter()
                    .map(|spec| {
                        let rule = &rules[spec.ri as usize];
                        (&rule.id, rule.head.rel)
                    })
                    .collect();
                let mut sinks = merge::shard_sinks(nodes, graph, data, &touched);
                {
                    let interner = &*interner;
                    let rel_names: &[Arc<str>] = rel_names;
                    let rule_heads = &rule_heads;
                    let run_sink =
                        |sink: &mut merge::ShardSink<'_>, queue: Vec<(usize, Vec<Firing>)>| {
                            for (k, firings) in queue {
                                let (rule_id, head_rel) = rule_heads[k];
                                sink.drain_task(
                                    rule_id, head_rel, firings, track, interner, rel_names,
                                );
                            }
                        };
                    match pool.as_deref() {
                        Some(pool) if sinks.len() > 1 => {
                            let run_sink = &run_sink;
                            let jobs: Vec<Job<'_>> = sinks
                                .iter_mut()
                                .zip(queues)
                                .map(|(sink, queue)| {
                                    Box::new(move || run_sink(sink, queue)) as Job<'_>
                                })
                                .collect();
                            pool.run(jobs);
                        }
                        _ => {
                            for (sink, queue) in sinks.iter_mut().zip(queues) {
                                run_sink(sink, queue);
                            }
                        }
                    }
                }
                // M2 — sequential fold in shard order: counters, the
                // change log, the next round's delta, and the staged
                // cross-shard body edges, which one pass then splices in
                // (source shard, recording) order.
                let mut next_delta: Vec<(RelId, SymTuple)> = Vec::new();
                let mut outboxes = Vec::with_capacity(sinks.len());
                for sink in sinks {
                    stats.firings += sink.firings;
                    stats.derivations += sink.derivations;
                    stats.tuples_added += sink.tuples_added;
                    new_tuples += sink.tuples_added as usize;
                    changes.extend(sink.changes);
                    next_delta.extend(sink.next_delta);
                    outboxes.push(sink.prov.into_outbox());
                }
                graph.splice_cross_edges(outboxes.into_iter().flatten());
                next_delta
            });
        }
        self.obs_flush_stats();
        Ok(new_tuples)
    }

    /// Join one rule's body with a delta restriction at one atom position,
    /// using the plan cached at compile time. Returns
    /// `(head tuple, body node ids)` per firing — the sequential wrapper
    /// around the same plan interpreter the parallel rounds use (DRed's
    /// over-deletion closure runs through here).
    ///
    /// Delta tuples need not be present in `data` (DRed's over-deletion
    /// joins deltas that have already been removed).
    fn join_rule(
        &mut self,
        rule_idx: usize,
        delta_pos: usize,
        delta: &[SymTuple],
    ) -> Vec<(SymTuple, Vec<NodeId>)> {
        let shards = self.opts.shards;
        let Engine {
            rules,
            plans,
            data,
            nodes,
            interner,
            stats,
            ..
        } = self;
        let rule = &rules[rule_idx];
        let plan = &plans[rule_idx].delta[delta_pos];
        if plan.impossible {
            return Vec::new();
        }
        // Build any missing indexes up front so execution probes borrowed
        // slices with no further mutation of `data`.
        for sp in &plan.steps {
            if let Source::Probe { cols, .. } = &sp.source {
                if data[rule.body[sp.atom].rel.index()].ensure_index(cols) {
                    stats.index_builds += 1;
                }
            }
        }
        let out = run_task(
            rule,
            plan,
            data,
            interner,
            nodes,
            shards,
            Some(delta),
            vec![Sym::NONE; rule.num_vars],
        );
        stats.index_probes += out.probes;
        interner.note_skolem_hits(out.skolem_hits);
        out.into_firings()
            .map(|f| {
                let head = resolve_head(interner, rule, &f);
                (head, f.body_nodes)
            })
            .collect()
    }

    /// Remove a base tuple and propagate the deletion with the chosen
    /// algorithm — a one-element [`remove_bases`](Engine::remove_bases).
    /// Returns `true` if the tuple was a base fact.
    ///
    /// The tuple may remain alive if it is still derivable through the
    /// mapping program (or was independently published elsewhere).
    pub fn remove_base(
        &mut self,
        relation: &str,
        tuple: &Tuple,
        algorithm: DeletionAlgorithm,
    ) -> Result<bool> {
        Ok(self.remove_bases(&[(relation, tuple)], algorithm)? == 1)
    }

    /// Remove a set of base tuples and propagate the deletion with the
    /// chosen algorithm, as one set: every base mark is cleared first,
    /// then one affected closure (or one DRed over-deletion) seeded with
    /// all of them decides what dies. The database, the removed tuples
    /// and the counters equal removing the tuples one at a time; the
    /// change log lists the set's removals once, in one order. Returns
    /// how many of the tuples were base facts (the rest — unknown,
    /// derived-only or repeated — are skipped).
    pub fn remove_bases(
        &mut self,
        tuples: &[(&str, &Tuple)],
        algorithm: DeletionAlgorithm,
    ) -> Result<usize> {
        orchestra_obs::time_histogram!("engine.delete_micros", {
            let mut deleted: Vec<NodeId> = Vec::with_capacity(tuples.len());
            for &(relation, tuple) in tuples {
                if let Some(node) = self.node_id(relation, tuple) {
                    if self.graph.remove_base(node) {
                        deleted.push(node);
                    }
                }
            }
            if !deleted.is_empty() {
                // Without a provenance graph only rule re-evaluation can
                // decide what else must go.
                let algorithm = if self.track_provenance {
                    algorithm
                } else {
                    DeletionAlgorithm::DRed
                };
                match algorithm {
                    DeletionAlgorithm::ProvenanceBased => self.delete_provenance_based(&deleted),
                    DeletionAlgorithm::DRed => self.delete_dred(&deleted),
                }
                self.obs_flush_stats();
            }
            Ok(deleted.len())
        })
    }

    /// Provenance-based deletion: restrict attention to the subgraph
    /// forward-reachable from the deleted nodes and recompute well-founded
    /// derivability there, treating unaffected alive nodes as given.
    fn delete_provenance_based(&mut self, deleted: &[NodeId]) {
        // Affected = forward closure through derivation uses.
        let mut affected: HashSet<NodeId> = deleted.iter().copied().collect();
        let mut queue: VecDeque<NodeId> = deleted.iter().copied().collect();
        while let Some(nd) = queue.pop_front() {
            for d in self.graph.uses_of(nd) {
                if affected.insert(d.head) {
                    queue.push_back(d.head);
                }
            }
        }
        // Worklist: start from support outside the affected region and from
        // base facts inside it.
        let mut derivable: HashSet<NodeId> = HashSet::new();
        let mut wl: VecDeque<NodeId> = VecDeque::new();
        for &a in &affected {
            if self.graph.is_base(a) && derivable.insert(a) {
                wl.push_back(a);
            }
            for d in self.graph.derivations_of(a) {
                let supported = d
                    .body
                    .iter()
                    .all(|b| !affected.contains(b) && self.is_alive(*b));
                if supported && derivable.insert(a) {
                    wl.push_back(a);
                }
            }
        }
        while let Some(nd) = wl.pop_front() {
            for d in self.graph.uses_of(nd) {
                let fires = affected.contains(&d.head)
                    && !derivable.contains(&d.head)
                    && d.body.iter().all(|b| {
                        derivable.contains(b) || (!affected.contains(b) && self.is_alive(*b))
                    });
                if fires {
                    derivable.insert(d.head);
                    wl.push_back(d.head);
                }
            }
        }
        // Kill affected-but-underivable nodes, in node-id order: the
        // affected set iterates in per-instance hash order, but the change
        // log must replay identically across engines (the thread-count
        // parity property compares it verbatim).
        let mut dead: Vec<NodeId> = affected
            .iter()
            .copied()
            .filter(|a| !derivable.contains(a) && self.is_alive(*a))
            .collect();
        dead.sort_unstable();
        self.remove_nodes(&dead);
    }

    fn is_alive(&self, node: NodeId) -> bool {
        let Some((rel, tuple)) = self.nodes.resolve(node) else {
            return false;
        };
        self.data[rel.index()].get(tuple) == Some(node)
    }

    fn remove_nodes(&mut self, dead: &[NodeId]) {
        for &nd in dead {
            let Some((rel, tuple)) = self.nodes.resolve(nd) else {
                continue;
            };
            let tuple = tuple.clone();
            if self.data[rel.index()].remove(&tuple).is_some() {
                self.stats.tuples_removed += 1;
                self.changes.push(Change {
                    relation: Arc::clone(&self.rel_names[rel.index()]),
                    tuple: self.interner.resolve_tuple(&tuple),
                    kind: ChangeKind::Removed,
                    node: nd,
                });
            }
        }
    }

    /// DRed: over-delete by re-evaluating rules against deltas of the
    /// deleted tuples, then re-derive survivors from the remaining
    /// database.
    fn delete_dred(&mut self, deleted: &[NodeId]) {
        // Phase 1: over-delete. Worklist of deleted tuples; consequences
        // computed by joining each rule with the deleted tuple as delta
        // **against the pre-deletion database** (tuples are only removed
        // after the closure is complete). Joining against a database with
        // deletions already applied would miss firings in which the
        // deleted tuple occurs at *several* body positions — e.g.
        // `h(x) :- r(c), r(x)` with `r(c)` deleted: the delta at the
        // second atom needs the first atom to still see `r(c)`.
        let mut overdeleted: Vec<(RelId, SymTuple, NodeId)> = Vec::new();
        let mut over_set: HashSet<NodeId> = HashSet::new();
        let mut wl: VecDeque<(RelId, SymTuple)> = VecDeque::new();
        for &node in deleted {
            if !self.is_alive(node) || !over_set.insert(node) {
                continue;
            }
            let Some((rel, t)) = self.nodes.resolve(node) else {
                continue;
            };
            overdeleted.push((rel, t.clone(), node));
            wl.push_back((rel, t.clone()));
        }
        while let Some((rel, t)) = wl.pop_front() {
            let delta = [t];
            for k in 0..self.rules_by_body[rel.index()].len() {
                let (ri, ai) = self.rules_by_body[rel.index()][k];
                let firings = self.join_rule(ri as usize, ai as usize, &delta);
                for (head_tuple, _) in firings {
                    let head_rel = self.rules[ri as usize].head.rel;
                    let Some(node) = self.data[head_rel.index()].get(&head_tuple) else {
                        continue;
                    };
                    if over_set.insert(node) {
                        overdeleted.push((head_rel, head_tuple.clone(), node));
                        wl.push_back((head_rel, head_tuple));
                    }
                }
            }
        }
        // Apply the over-deletion.
        for (rel, t, _) in &overdeleted {
            self.data[rel.index()].remove(t);
        }

        // Phase 2: re-derive. A removed tuple comes back if it is still
        // base, or some rule derives it from the remaining database.
        // Iterate to fixpoint (re-derived tuples can support others).
        let mut revived: HashSet<NodeId> = HashSet::new();
        loop {
            let mut changed = false;
            for (rel, t, node) in &overdeleted {
                if revived.contains(node) {
                    continue;
                }
                let back = self.graph.is_base(*node) || self.rederivable(*rel, t);
                if back {
                    self.data[rel.index()].insert(t.clone(), *node);
                    revived.insert(*node);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Log removals for tuples that stayed dead.
        for (rel, t, node) in &overdeleted {
            if !revived.contains(node) {
                self.stats.tuples_removed += 1;
                self.changes.push(Change {
                    relation: Arc::clone(&self.rel_names[rel.index()]),
                    tuple: self.interner.resolve_tuple(t),
                    kind: ChangeKind::Removed,
                    node: *node,
                });
            }
        }
    }

    /// Can any rule derive `(relation, tuple)` from the current database?
    fn rederivable(&mut self, rel: RelId, tuple: &SymTuple) -> bool {
        for ri in 0..self.rules.len() {
            if self.rules[ri].head.rel != rel {
                continue;
            }
            if self.join_rule_with_head_filter(ri, tuple) {
                return true;
            }
        }
        false
    }

    /// Evaluate rule `ri` (head-seeded plan) and return whether some
    /// firing instantiates the head to exactly `target`. Head variable
    /// slots pre-seed the bindings so the join is index-driven.
    fn join_rule_with_head_filter(&mut self, ri: usize, target: &SymTuple) -> bool {
        let shards = self.opts.shards;
        let Engine {
            rules,
            plans,
            data,
            nodes,
            interner,
            stats,
            ..
        } = self;
        let rule = &rules[ri];
        let plan = &plans[ri].seeded;
        if plan.impossible || target.arity() != rule.head.slots.len() {
            return false;
        }
        let mut bindings = vec![Sym::NONE; rule.num_vars];
        // Seed bindings from head slots where possible; constants must match.
        for (i, slot) in rule.head.slots.iter().enumerate() {
            match slot {
                Slot::Const(c) => {
                    if target[i] != *c {
                        return false;
                    }
                }
                Slot::Var(v) => {
                    if bindings[*v].is_none() {
                        bindings[*v] = target[i];
                    } else if bindings[*v] != target[i] {
                        return false;
                    }
                }
                Slot::Skolem { .. } => {
                    // Skolem head slot: we don't invert it here; the join
                    // produces and the final comparison decides.
                }
            }
        }
        for sp in &plan.steps {
            if let Source::Probe { cols, .. } = &sp.source {
                if data[rule.body[sp.atom].rel.index()].ensure_index(cols) {
                    stats.index_builds += 1;
                }
            }
        }
        let out = run_task(rule, plan, data, interner, nodes, shards, None, bindings);
        stats.index_probes += out.probes;
        interner.note_skolem_hits(out.skolem_hits);
        let hit = out
            .firings()
            .any(|f| resolve_head(interner, rule, f) == *target);
        hit
    }

    /// The provenance polynomial of an alive tuple (over simple proofs).
    pub fn provenance(&self, relation: &str, tuple: &Tuple) -> Option<Polynomial<NodeId>> {
        let node = self.node_id(relation, tuple)?;
        Some(self.graph.polynomial(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Rule};
    use crate::provgraph::Derivation;
    use crate::tgd::Tgd;
    use orchestra_provenance::Semiring;
    use orchestra_relational::{tuple, RelationSchema, ValueType};

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

    #[test]
    fn deletion_dred_matches_provenance_based() {
        for algo in [DeletionAlgorithm::ProvenanceBased, DeletionAlgorithm::DRed] {
            let mut e = edge_path_engine();
            e.insert_base("edge", tuple!["a", "b"]).unwrap();
            e.insert_base("edge", tuple!["b", "c"]).unwrap();
            e.insert_base("edge", tuple!["a", "c"]).unwrap();
            e.propagate().unwrap();
            // Deleting a→b kills path a→b but not a→c (direct edge remains).
            e.remove_base("edge", &tuple!["a", "b"], algo).unwrap();
            assert!(!e.contains("path", &tuple!["a", "b"]), "{algo:?}");
            assert!(e.contains("path", &tuple!["a", "c"]), "{algo:?}");
            assert!(e.contains("path", &tuple!["b", "c"]), "{algo:?}");
        }
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
        for algo in [DeletionAlgorithm::ProvenanceBased, DeletionAlgorithm::DRed] {
            let mut e = Engine::new(db.clone(), vec![r1.clone(), r2.clone()]).unwrap();
            e.insert_base("A", tuple!["t"]).unwrap();
            e.propagate().unwrap();
            assert!(e.contains("B", &tuple!["t"]));
            // Removing the only base support kills both, despite the cycle.
            e.remove_base("A", &tuple!["t"], algo).unwrap();
            assert!(!e.contains("A", &tuple!["t"]), "{algo:?}");
            assert!(!e.contains("B", &tuple!["t"]), "{algo:?}");
        }
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
        for algo in [DeletionAlgorithm::ProvenanceBased, DeletionAlgorithm::DRed] {
            let mut e = Engine::new(db.clone(), vec![rule.clone()]).unwrap();
            e.insert_base("r", tuple!["a"]).unwrap();
            e.insert_base("t", tuple!["a"]).unwrap();
            e.propagate().unwrap();
            // Remove the derived support; the base t('a') remains.
            e.remove_base("r", &tuple!["a"], algo).unwrap();
            assert!(e.contains("t", &tuple!["a"]), "{algo:?}");
            // Remove base support too: now it dies.
            e.remove_base("t", &tuple!["a"], algo).unwrap();
            assert!(!e.contains("t", &tuple!["a"]), "{algo:?}");
        }
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
            .remove_base("edge", &tuple!["x", "y"], DeletionAlgorithm::DRed)
            .unwrap());
        // Derived tuples are not base: removing them is a no-op too.
        e.insert_base("edge", tuple!["a", "b"]).unwrap();
        e.propagate().unwrap();
        assert!(!e
            .remove_base("path", &tuple!["a", "b"], DeletionAlgorithm::DRed)
            .unwrap());
        assert!(e.contains("path", &tuple!["a", "b"]));
    }

    #[test]
    fn no_provenance_mode_matches_data_but_skips_graph() {
        let db = schema(&[("edge", 2), ("path", 2)]);
        let rules = edge_path_rules();
        let mut with = Engine::with_provenance(db.clone(), rules.clone(), true).unwrap();
        let mut without = Engine::with_provenance(db, rules, false).unwrap();
        for e in [tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]] {
            with.insert_base("edge", e.clone()).unwrap();
            without.insert_base("edge", e).unwrap();
        }
        with.propagate().unwrap();
        without.propagate().unwrap();
        assert_eq!(rows(&with, "path"), rows(&without, "path"));
        assert!(with.stats().derivations > 0);
        assert_eq!(without.stats().derivations, 0, "graph not recorded");
        // Derived tuples have empty provenance without tracking.
        let p = without.provenance("path", &tuple!["a", "b"]).unwrap();
        assert!(p.is_zero());

        // Deletion still works (falls back to DRed) and agrees with the
        // provenance-tracking engine.
        with.remove_base(
            "edge",
            &tuple!["a", "b"],
            DeletionAlgorithm::ProvenanceBased,
        )
        .unwrap();
        without
            .remove_base(
                "edge",
                &tuple!["a", "b"],
                DeletionAlgorithm::ProvenanceBased,
            )
            .unwrap();
        assert_eq!(rows(&with, "path"), rows(&without, "path"));
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

    // ------------------------------------------------ sharded / parallel

    /// Build the transitive-closure engine with explicit eval options and
    /// load a dense-ish random graph.
    fn tc_engine_with(threads: usize) -> Engine {
        let db = schema(&[("edge", 2), ("path", 2)]);
        let opts = EvalOptions {
            threads,
            shards: 8,
            // Force the parallel dispatch path even for tiny rounds so
            // the test exercises pool scheduling, not just the inline arm.
            parallel_threshold: 0,
        };
        let mut e = Engine::with_options(db, edge_path_rules(), true, opts).unwrap();
        for i in 0..48i64 {
            let a = format!("n{}", i % 13);
            let b = format!("n{}", (i * 5 + 1) % 13);
            e.insert_base("edge", tuple![a, b]).unwrap();
        }
        e
    }

    /// Everything observable about an engine after a run, in comparable
    /// form: change log (with node ids), sorted data, stats, and the full
    /// derivation list in recording order.
    fn observables(e: &mut Engine) -> (Vec<Change>, Vec<Tuple>, EngineStats, Vec<Derivation>) {
        let changes = e.drain_changes();
        let mut tuples = rows(e, "path");
        tuples.extend(rows(e, "edge"));
        let derivs: Vec<Derivation> = e.graph().derivations().cloned().collect();
        (changes, tuples, e.stats(), derivs)
    }

    #[test]
    fn parallel_evaluation_is_byte_identical_to_single_thread() {
        let mut one = tc_engine_with(1);
        one.propagate().unwrap();
        let base = observables(&mut one);
        for threads in [2usize, 4, 8] {
            let mut n = tc_engine_with(threads);
            n.propagate().unwrap();
            let got = observables(&mut n);
            assert_eq!(got.0, base.0, "change log differs at {threads} threads");
            assert_eq!(got.1, base.1, "fixpoint differs at {threads} threads");
            assert_eq!(got.2, base.2, "stats differ at {threads} threads");
            assert_eq!(got.3, base.3, "derivations differ at {threads} threads");
        }
    }

    #[test]
    fn parallel_deletions_replay_identically() {
        let run = |threads: usize| {
            let mut e = tc_engine_with(threads);
            e.propagate().unwrap();
            e.drain_changes();
            for i in [0i64, 3, 7] {
                let a = format!("n{}", i % 13);
                let b = format!("n{}", (i * 5 + 1) % 13);
                e.remove_base("edge", &tuple![a, b], DeletionAlgorithm::ProvenanceBased)
                    .unwrap();
            }
            observables(&mut e)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn skolem_heads_resolve_identically_across_threads() {
        let run = |threads: usize| {
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
            let opts = EvalOptions {
                threads,
                shards: 4,
                parallel_threshold: 0,
            };
            let mut e = Engine::with_options(db, m.compile().unwrap(), true, opts).unwrap();
            for i in 0..24i64 {
                e.insert_base(
                    "OPS",
                    tuple![format!("org{}", i % 5), format!("p{i}"), format!("s{i}")],
                )
                .unwrap();
            }
            e.propagate().unwrap();
            (e.drain_changes(), rows(&e, "O"), rows(&e, "S"), e.stats())
        };
        assert_eq!(run(1), run(8));
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

    #[test]
    fn partition_columns_follow_the_probed_key() {
        // path is probed on column 0 (by the recursive rule), edge on
        // column 1 (delta at path): the chosen partitions must make those
        // probes single-shard.
        let e = edge_path_engine();
        let path = e.rel_id("path").unwrap();
        let edge = e.rel_id("edge").unwrap();
        assert_eq!(e.data[path.index()].part_cols(), &[0]);
        assert_eq!(e.data[edge.index()].part_cols(), &[1]);
    }
}
