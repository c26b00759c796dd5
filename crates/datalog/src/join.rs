//! The join: one semi-naive round, run by a compiled-plan interpreter that
//! records each rule firing where it finds it.
//!
//! A round ([`round`]) has two phases:
//!
//! 1. **Plan.** The pending delta is grouped into one frontier per
//!    relation; any index the round's plans probe is built if missing.
//! 2. **Join.** One task per `(relation, rule, delta position)` runs the
//!    plan interpreter over that relation's frontier and records each
//!    rule firing where it finds it: the head's labeled nulls and node
//!    are interned, the derivation is recorded, and a head that is not
//!    alive is given the next slot of its relation, logged as added and
//!    queued as the next round's delta. The newborn tuples enter their
//!    relations at those slots only when the round ends, so every join
//!    of the round reads the relations as the round began. Tasks run in
//!    a fixed order and each finds its firings in a fixed order, so every
//!    mutation happens in an order that is a pure function of the input.
//!    That fixes the provenance graph's recording order, `NodeId`
//!    assignment (the n-th interned tuple is `NodeId(n)`), and the
//!    change log's order.
//!
//! The pipeline runs on integers only:
//!
//! * **Fixed-width index keys.** Secondary indexes map `[Sym]` slices to
//!   tuple lists; probes hash a handful of words and borrow the posting
//!   list in place (no per-probe `Vec` materialization, no `Value`
//!   clones).
//! * **Borrow-based candidate iteration.** Probe results are borrowed
//!   slices into the index; scans iterate the live tuple table directly.
//!   Every candidate is a `(tuple, node)` entry, so a matched body tuple
//!   brings its node id along.
//! * **Round scratch on the engine.** Frontiers, the join's bindings,
//!   probe keys and head row, and the per-relation newborn counts are
//!   kept across rounds. What a firing still allocates is what it adds:
//!   a new head's [`SymTuple`] (one allocation, built from the head row).
//!   Its node goes into the node table's open-addressed row index, and
//!   its derivation into the provenance graph's flat record, body and
//!   link arrays, all of which only grow amortized. A duplicate firing
//!   allocates nothing.
//! * **Integer skolemization.** Labeled nulls invented by tgd heads go
//!   through [`ValueInterner::intern_skolem`](orchestra_relational::ValueInterner::intern_skolem),
//!   one hash probe over `(function, arg syms)` once a null has been
//!   invented before.

use crate::compile::{
    ColAction, CompiledFilter, CompiledRule, HeadSlot, JoinPlan, Program, Source, StepPlan,
};
use crate::engine::Facts;
use crate::node::NodeId;
use orchestra_relational::{CmpOp, Sym, SymRel, SymTuple};

/// A candidate for one body atom: a live tuple with its node id — the
/// entry type of frontiers, relation tables and posting lists alike, so
/// a matched body tuple's node rides along with it.
type Entry = (SymTuple, NodeId);

/// The round's working state, kept on the engine so that a round
/// allocates only while it grows.
#[derive(Debug, Clone)]
pub(crate) struct RoundScratch {
    /// The delta grouped per relation, in arrival order.
    frontiers: Vec<Vec<Entry>>,
    join: JoinScratch,
}

impl RoundScratch {
    /// Scratch for an engine of `relations` relations.
    pub(crate) fn new(relations: usize) -> RoundScratch {
        RoundScratch {
            frontiers: vec![Vec::new(); relations],
            join: JoinScratch {
                born: vec![0; relations],
                ..JoinScratch::default()
            },
        }
    }
}

/// The join's per-task working state, reused by every task of every
/// round.
#[derive(Debug, Clone, Default)]
struct JoinScratch {
    /// Per relation, the tuples born this round: the next newborn's slot
    /// is the relation's length plus this count.
    born: Vec<u32>,
    bindings: Vec<Sym>,
    /// Node id of the tuple matched at each body atom.
    body_nodes: Vec<NodeId>,
    /// One reusable probe-key buffer per step: steady-state probing
    /// allocates nothing.
    key_bufs: Vec<Vec<Sym>>,
    /// The firing's head row, and one Skolem head slot's argument
    /// symbols.
    head: Vec<Sym>,
    skolem_args: Vec<Sym>,
}

/// Run one semi-naive round from the delta in `facts.pending`. When it
/// returns, `facts.pending` holds the tuples the round derived, already
/// in their relations: the next round's delta. Returns their count.
pub(crate) fn round(
    program: &Program,
    data: &mut [SymRel<NodeId>],
    facts: &mut Facts,
    s: &mut RoundScratch,
) -> usize {
    facts.stats.rounds += 1;
    // One frontier per relation: the delta grouped by dense rel id, in
    // arrival order. `pending` then collects the next round's delta.
    for (r, t, n) in facts.pending.drain(..) {
        s.frontiers[r.index()].push((t, n));
    }
    orchestra_obs::time_histogram!("engine.round.plan_micros", {
        for (rel, fr) in s.frontiers.iter().enumerate() {
            if fr.is_empty() {
                continue;
            }
            for &(ri, ai) in &program.rules_by_body[rel] {
                for sp in &program.plans[ri as usize][ai as usize].steps {
                    if let Source::Probe { cols, .. } = &sp.source {
                        let target = program.rules[ri as usize].body[sp.atom].rel.index();
                        if data[target].ensure_index(cols) {
                            facts.stats.index_builds += 1;
                        }
                    }
                }
            }
        }
    });
    orchestra_obs::time_histogram!("engine.round.join_micros", {
        let mut exec = Exec {
            data: &*data,
            facts: &mut *facts,
            s: &mut s.join,
        };
        for (rel, fr) in s.frontiers.iter().enumerate() {
            for &(ri, ai) in &program.rules_by_body[rel] {
                exec.run(Task {
                    ri,
                    rule: &program.rules[ri as usize],
                    plan: &program.plans[ri as usize][ai as usize],
                    delta: fr,
                });
            }
        }
    });
    // The round's newborns enter their relations at the slots the join
    // gave them.
    for (rel, st, node) in &facts.pending {
        let pos = data[rel.index()].push(st.clone(), *node);
        debug_assert_eq!(facts.nodes.position(*node), Some(pos));
    }
    s.join.born.fill(0);
    for fr in &mut s.frontiers {
        fr.clear();
    }
    facts.pending.len()
}

/// One join task's inputs: which rule (and its index, the provenance
/// graph's name for it) and plan, over which frontier.
#[derive(Clone, Copy)]
struct Task<'a> {
    ri: u32,
    rule: &'a CompiledRule,
    plan: &'a JoinPlan,
    delta: &'a [Entry],
}

/// The plan interpreter. It reads the relations (`data`) as the round
/// began and writes what each firing records into `facts`. One `Exec`
/// serves every task of a round ([`run`](Exec::run) takes the task).
struct Exec<'a> {
    data: &'a [SymRel<NodeId>],
    facts: &'a mut Facts,
    s: &'a mut JoinScratch,
}

impl<'a> Exec<'a> {
    /// Evaluate one task.
    fn run(&mut self, task: Task<'a>) {
        if task.delta.is_empty() {
            return;
        }
        let s = &mut *self.s;
        s.bindings.clear();
        s.bindings.resize(task.rule.num_vars, Sym::NONE);
        s.body_nodes.clear();
        s.body_nodes.resize(task.rule.body.len(), NodeId(0));
        if s.key_bufs.len() < task.plan.steps.len() {
            s.key_bufs.resize_with(task.plan.steps.len(), Vec::new);
        }
        self.step(task, 0);
    }

    fn step(&mut self, task: Task<'a>, si: usize) {
        let plan = task.plan;
        if si == plan.steps.len() {
            self.fire(task.ri, task.rule);
            return;
        }
        let sp = &plan.steps[si];
        let data = self.data;
        let rel = task.rule.body[sp.atom].rel.index();
        match &sp.source {
            Source::Delta => self.scan_candidates(task, si, sp, task.delta),
            Source::Scan => self.scan_candidates(task, si, sp, data[rel].entries()),
            Source::Probe { cols, key } => {
                self.facts.stats.index_probes += 1;
                let buf = &mut self.s.key_bufs[si];
                buf.clear();
                buf.extend(key.iter().map(|k| k.sym(&self.s.bindings)));
                let cands = data[rel].probe(cols, buf);
                self.scan_candidates(task, si, sp, cands);
            }
        }
    }

    fn scan_candidates(&mut self, task: Task<'a>, si: usize, sp: &'a StepPlan, cands: &'a [Entry]) {
        'next_tuple: for (t, node) in cands {
            // Every entry comes from a relation or the delta, which hold
            // only schema-validated tuples, and compilation checked every
            // atom's arity.
            debug_assert_eq!(t.arity(), sp.actions.len());
            for (ci, act) in sp.actions.iter().enumerate() {
                let ok = match act {
                    ColAction::Ignore => true,
                    ColAction::CheckConst(s) => t[ci] == *s,
                    ColAction::CheckVar(v) => t[ci] == self.s.bindings[*v],
                    ColAction::Bind(v) => {
                        self.s.bindings[*v] = t[ci];
                        true
                    }
                };
                if !ok {
                    self.reset_binds(sp);
                    continue 'next_tuple;
                }
            }
            for &fi in sp.filters.iter() {
                if !self.filter_ok(&task.rule.filters[fi]) {
                    self.reset_binds(sp);
                    continue 'next_tuple;
                }
            }
            self.s.body_nodes[sp.atom] = *node;
            self.step(task, si + 1);
            self.reset_binds(sp);
        }
    }

    #[inline]
    fn reset_binds(&mut self, sp: &StepPlan) {
        for &v in sp.binds.iter() {
            self.s.bindings[v] = Sym::NONE;
        }
    }

    fn filter_ok(&self, f: &CompiledFilter) -> bool {
        let l = f.left.sym(&self.s.bindings);
        let r = f.right.sym(&self.s.bindings);
        match f.op {
            // Interning is injective: symbol equality is value equality.
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            op => op.apply(
                self.facts.interner.resolve(l),
                self.facts.interner.resolve(r),
            ),
        }
    }

    /// All atoms bound: intern the head (its labeled nulls first, in
    /// column order), record the derivation with its body node ids in
    /// rule-body order (derivation identity depends on the order) and,
    /// if the head is not alive, give it the next slot of its relation
    /// and queue it for the next round. Propagation is insert-only: a
    /// head alive now stays alive.
    fn fire(&mut self, ri: u32, rule: &CompiledRule) {
        let (s, facts) = (&mut *self.s, &mut *self.facts);
        facts.stats.firings += 1;
        s.head.clear();
        for slot in &rule.head.slots {
            let sym = match slot {
                HeadSlot::Slot(slot) => slot.sym(&s.bindings),
                HeadSlot::Skolem { function, args } => {
                    s.skolem_args.clear();
                    s.skolem_args
                        .extend(args.iter().map(|a| a.sym(&s.bindings)));
                    facts.interner.intern_skolem(function, &s.skolem_args)
                }
            };
            debug_assert!(!sym.is_none(), "unbound head slot");
            s.head.push(sym);
        }
        let rel = rule.head.rel;
        let node = facts.nodes.intern_syms(rel, &s.head);
        if facts.graph.add_derivation(ri, node, &s.body_nodes) {
            facts.stats.derivations += 1;
        }
        if facts.nodes.is_alive(node) {
            return;
        }
        if let Some((_, st)) = facts.nodes.resolve(node) {
            let st = st.clone();
            // Relation positions are `u32` (`SymRel::push`).
            let born = &mut s.born[rel.index()];
            let pos = self.data[rel.index()].len() as u32 + *born;
            *born += 1;
            facts.added(rel, st, node, pos);
        }
    }
}
