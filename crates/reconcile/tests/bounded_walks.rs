//! Oracle test for the bounded antecedent walks: the reconciler stops
//! expanding antecedents at *settled* history (accepted, with every
//! antecedent settled) and answers "are these writers causally related?"
//! with an early-exit search that skips what settled before its target.
//! It does so over dense ids in first-seen order, holding candidates only
//! while they are open. All of it must decide exactly what the
//! full-closure algorithm decided.
//!
//! The reference below is that algorithm, kept test-side over `TxnId`s:
//! every classification walks the whole antecedent closure to the roots
//! and every relatedness check builds both writers' closures. Random
//! schedules — several priority levels, a distrusted peer pulled in as an
//! antecedent, forward references that sit as placeholders until their
//! transaction arrives, local transactions that cite deferred ones,
//! hot-key conflicts and `resolve` cascades, over five publishers or over
//! twelve with sparse sequence numbers — drive the reference and the real
//! [`Reconciler`] side by side, and after every step the outcome vectors
//! (order included), the decision of every id ever generated, `deferred()`,
//! `open_conflicts()` and the open and known counts must agree.

use orchestra_reconcile::{
    Candidate, Decision, Priority, ReconcileError, Reconciler, TrustCondition, TrustPolicy,
    DISTRUSTED,
};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, Tuple, ValueType};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update, WriteOutcome};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

type WriteSet = BTreeMap<(Arc<str>, Tuple), WriteOutcome>;
type GroupWrites = BTreeMap<(Arc<str>, Tuple), (TxnId, WriteOutcome)>;
type Result<T> = std::result::Result<T, ReconcileError>;

/// The reference's dependency graph: whole closures over `TxnId`s. A
/// cited transaction that has not arrived is a placeholder node until
/// its own insert.
#[derive(Default)]
struct Graph {
    antecedents: BTreeMap<TxnId, BTreeSet<TxnId>>,
    dependents: BTreeMap<TxnId, BTreeSet<TxnId>>,
    placeholders: BTreeSet<TxnId>,
}

impl Graph {
    fn insert(&mut self, id: &TxnId, antecedents: &BTreeSet<TxnId>) -> Result<()> {
        if self.antecedents.contains_key(id) && !self.placeholders.remove(id) {
            return Err(ReconcileError::DuplicateCandidate(id.to_string()));
        }
        for a in antecedents {
            if !self.antecedents.contains_key(a) {
                self.antecedents.insert(a.clone(), BTreeSet::new());
                self.placeholders.insert(a.clone());
            }
            self.dependents
                .entry(a.clone())
                .or_default()
                .insert(id.clone());
        }
        self.antecedents.insert(id.clone(), antecedents.clone());
        Ok(())
    }

    /// Transactions known, placeholders included.
    fn len(&self) -> usize {
        self.antecedents.len()
    }

    fn antecedents_of(&self, id: &TxnId) -> &BTreeSet<TxnId> {
        &self.antecedents[id]
    }

    fn dependents_of(&self, id: &TxnId) -> impl Iterator<Item = &TxnId> {
        self.dependents.get(id).into_iter().flatten()
    }

    /// Everything `id` transitively depends on, excluding `id`.
    fn antecedent_closure(&self, id: &TxnId) -> BTreeSet<TxnId> {
        Self::closure(id, |cur| self.antecedents_of(cur).iter().collect())
    }

    /// Everything that transitively depends on `id`, excluding `id`.
    fn dependent_closure(&self, id: &TxnId) -> BTreeSet<TxnId> {
        Self::closure(id, |cur| self.dependents_of(cur).collect())
    }

    fn closure<'a>(id: &'a TxnId, next: impl Fn(&TxnId) -> Vec<&'a TxnId>) -> BTreeSet<TxnId> {
        let mut seen: BTreeSet<TxnId> = BTreeSet::new();
        let mut queue: VecDeque<&TxnId> = VecDeque::from([id]);
        while let Some(cur) = queue.pop_front() {
            for n in next(cur) {
                if seen.insert(n.clone()) {
                    queue.push_back(n);
                }
            }
        }
        seen.remove(id);
        seen
    }
}

/// The full-closure reconciler: the algorithm before walks were bounded.
struct Reference {
    schema: DatabaseSchema,
    decisions: BTreeMap<TxnId, Decision>,
    graph: Graph,
    pool: BTreeMap<TxnId, Candidate>,
    accepted_writes: BTreeMap<(Arc<str>, Tuple), (TxnId, WriteOutcome)>,
    conflicts: Vec<(TxnId, TxnId)>,
}

enum AntecedentState {
    Rejected,
    Deferred,
    Missing,
    Ready(BTreeSet<TxnId>),
}

#[derive(Debug, PartialEq)]
struct Reconciled {
    accepted: Vec<Transaction>,
    rejected: Vec<TxnId>,
    deferred: Vec<TxnId>,
}

#[derive(Debug, PartialEq)]
struct Resolved {
    accepted: Vec<Transaction>,
    rejected: Vec<TxnId>,
}

impl Reference {
    fn new(schema: DatabaseSchema) -> Self {
        Reference {
            schema,
            decisions: BTreeMap::new(),
            graph: Graph::default(),
            pool: BTreeMap::new(),
            accepted_writes: BTreeMap::new(),
            conflicts: Vec::new(),
        }
    }

    fn write_set_of(&self, id: &TxnId) -> Result<WriteSet> {
        Ok(self.pool[id]
            .txn
            .write_set(&self.schema)?
            .into_iter()
            .collect())
    }

    /// Candidates still open: undecided (distrusted ones included) or
    /// deferred.
    fn open_candidates(&self) -> usize {
        self.pool
            .keys()
            .filter(|id| matches!(self.decisions.get(*id), None | Some(Decision::Deferred)))
            .count()
    }

    fn deferred(&self) -> Vec<TxnId> {
        self.decisions
            .iter()
            .filter(|(_, d)| **d == Decision::Deferred)
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn note_local(&mut self, txn: &Transaction) -> Result<()> {
        if self.decisions.contains_key(&txn.id) {
            return Err(ReconcileError::DuplicateCandidate(txn.id.to_string()));
        }
        self.graph.insert(&txn.id, &txn.antecedents)?;
        self.decisions.insert(txn.id.clone(), Decision::Accepted);
        for (key, outcome) in txn.write_set(&self.schema)? {
            self.accepted_writes.insert(key, (txn.id.clone(), outcome));
        }
        Ok(())
    }

    fn reconcile(
        &mut self,
        candidates: Vec<Candidate>,
        policy: &TrustPolicy,
    ) -> Result<Reconciled> {
        let mut level_map: BTreeMap<Priority, Vec<TxnId>> = BTreeMap::new();
        for c in candidates {
            let id = c.id().clone();
            if self.pool.contains_key(&id) {
                return Err(ReconcileError::DuplicateCandidate(id.to_string()));
            }
            self.graph.insert(&id, &c.txn.antecedents)?;
            let priority = policy.txn_priority(&c);
            self.pool.insert(id.clone(), c);
            if priority > DISTRUSTED {
                level_map.entry(priority).or_default().push(id);
            }
        }
        let mut out = Reconciled {
            accepted: Vec::new(),
            rejected: Vec::new(),
            deferred: Vec::new(),
        };
        for (_, ids) in level_map.into_iter().rev() {
            self.process_level(&ids, &mut out)?;
        }
        Ok(out)
    }

    fn process_level(&mut self, ids: &[TxnId], out: &mut Reconciled) -> Result<()> {
        let mut eligible: Vec<(TxnId, BTreeSet<TxnId>, GroupWrites)> = Vec::new();
        for id in ids {
            if self.decisions.contains_key(id) {
                continue;
            }
            match self.classify_antecedents(id)? {
                AntecedentState::Rejected => {
                    self.decisions.insert(id.clone(), Decision::Rejected);
                    out.rejected.push(id.clone());
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.decisions.insert(id.clone(), Decision::Deferred);
                    out.deferred.push(id.clone());
                }
                AntecedentState::Ready(group) => {
                    let writes = self.group_writes(&group)?;
                    eligible.push((id.clone(), group, writes));
                }
            }
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (ia, (_, _, wa_writes)) in eligible.iter().enumerate() {
            for (ib, (_, _, wb_writes)) in eligible.iter().enumerate().skip(ia + 1) {
                for (key, (wa, oa)) in wa_writes {
                    let Some((wb, ob)) = wb_writes.get(key) else {
                        continue;
                    };
                    if oa != ob && !self.causally_related(wa, wb)? {
                        pairs.insert((ia, ib));
                    }
                }
            }
        }
        let mut deferred_now: BTreeSet<TxnId> = BTreeSet::new();
        for (ia, ib) in pairs {
            let (a, b) = (eligible[ia].0.clone(), eligible[ib].0.clone());
            self.conflicts.push((a.clone(), b.clone()));
            deferred_now.insert(a);
            deferred_now.insert(b);
        }
        for id in &deferred_now {
            self.decisions.insert(id.clone(), Decision::Deferred);
            out.deferred.push(id.clone());
        }
        for (id, group, writes) in eligible {
            if deferred_now.contains(&id) || self.decisions.contains_key(&id) {
                continue;
            }
            if self.writes_conflict_with_history(&writes)? {
                self.decisions.insert(id.clone(), Decision::Rejected);
                out.rejected.push(id);
                continue;
            }
            self.accept_group(&group, &mut out.accepted)?;
        }
        Ok(())
    }

    /// Classification over the whole antecedent closure, in id order.
    fn classify_antecedents(&self, id: &TxnId) -> Result<AntecedentState> {
        let closure = self.graph.antecedent_closure(id);
        let mut group: BTreeSet<TxnId> = BTreeSet::from([id.clone()]);
        for ant in closure {
            match self.decisions.get(&ant) {
                Some(Decision::Rejected) => return Ok(AntecedentState::Rejected),
                Some(Decision::Deferred) => return Ok(AntecedentState::Deferred),
                Some(Decision::Accepted) => {}
                None if self.pool.contains_key(&ant) => {
                    group.insert(ant);
                }
                None => return Ok(AntecedentState::Missing),
            }
        }
        Ok(AntecedentState::Ready(group))
    }

    /// Relatedness from both writers' whole closures.
    fn causally_related(&self, a: &TxnId, b: &TxnId) -> Result<bool> {
        if a == b {
            return Ok(true);
        }
        if self.graph.antecedent_closure(a).contains(b) {
            return Ok(true);
        }
        Ok(self.graph.antecedent_closure(b).contains(a))
    }

    fn group_writes(&self, group: &BTreeSet<TxnId>) -> Result<GroupWrites> {
        let mut out: GroupWrites = BTreeMap::new();
        for id in self.topo_order(group)? {
            for (key, outcome) in self.write_set_of(&id)? {
                out.insert(key, (id.clone(), outcome));
            }
        }
        Ok(out)
    }

    fn writes_conflict_with_history(&self, writes: &GroupWrites) -> Result<bool> {
        for (key, (writer, outcome)) in writes {
            if let Some((accepted_writer, accepted_outcome)) = self.accepted_writes.get(key) {
                if outcome != accepted_outcome && !self.causally_related(writer, accepted_writer)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn accept_group(&mut self, group: &BTreeSet<TxnId>, out: &mut Vec<Transaction>) -> Result<()> {
        for id in self.topo_order(group)? {
            if self.decisions.get(&id) == Some(&Decision::Accepted) {
                continue;
            }
            self.decisions.insert(id.clone(), Decision::Accepted);
            for (key, outcome) in self.write_set_of(&id)? {
                self.accepted_writes.insert(key, (id.clone(), outcome));
            }
            out.push(self.pool[&id].txn.clone());
        }
        Ok(())
    }

    fn resolve(&mut self, winner: &TxnId) -> Result<Resolved> {
        if self.decisions.get(winner) != Some(&Decision::Deferred) {
            return Err(ReconcileError::NotDeferred(winner.to_string()));
        }
        let mut out = Resolved {
            accepted: Vec::new(),
            rejected: Vec::new(),
        };
        let mut losers: BTreeSet<TxnId> = BTreeSet::new();
        for (a, b) in &self.conflicts {
            if a == winner && self.decisions.get(b) == Some(&Decision::Deferred) {
                losers.insert(b.clone());
            } else if b == winner && self.decisions.get(a) == Some(&Decision::Deferred) {
                losers.insert(a.clone());
            }
        }
        for loser in &losers {
            self.decisions.insert(loser.clone(), Decision::Rejected);
            out.rejected.push(loser.clone());
            for d in self.graph.dependent_closure(loser) {
                match self.decisions.get(&d) {
                    Some(Decision::Deferred) | None
                        if self.pool.contains_key(&d) || self.decisions.contains_key(&d) =>
                    {
                        self.decisions.insert(d.clone(), Decision::Rejected);
                        out.rejected.push(d);
                    }
                    _ => {}
                }
            }
        }
        let decisions = &self.decisions;
        self.conflicts.retain(|(a, b)| {
            decisions.get(a) == Some(&Decision::Deferred)
                && decisions.get(b) == Some(&Decision::Deferred)
        });
        self.decisions.remove(winner);
        match self.classify_antecedents(winner)? {
            AntecedentState::Ready(group) => self.accept_group(&group, &mut out.accepted)?,
            _ => {
                self.decisions.insert(winner.clone(), Decision::Rejected);
                out.rejected.push(winner.clone());
                return Ok(out);
            }
        }
        let deferred_deps: BTreeSet<TxnId> = self
            .graph
            .dependent_closure(winner)
            .into_iter()
            .filter(|d| self.decisions.get(d) == Some(&Decision::Deferred))
            .collect();
        for dep in self.topo_order(&deferred_deps)? {
            if self.decisions.get(&dep) != Some(&Decision::Deferred) {
                continue;
            }
            self.decisions.remove(&dep);
            match self.classify_antecedents(&dep)? {
                AntecedentState::Ready(group) => {
                    let writes = self.group_writes(&group)?;
                    if self.writes_conflict_with_history(&writes)? {
                        self.decisions.insert(dep.clone(), Decision::Rejected);
                        out.rejected.push(dep);
                    } else {
                        self.accept_group(&group, &mut out.accepted)?;
                    }
                }
                AntecedentState::Rejected => {
                    self.decisions.insert(dep.clone(), Decision::Rejected);
                    out.rejected.push(dep);
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.decisions.insert(dep.clone(), Decision::Deferred);
                }
            }
        }
        Ok(out)
    }

    /// Dependency order of `subset` over edges inside it (Kahn's
    /// algorithm, ready set in id order — the reconciler's tie-break).
    fn topo_order(&self, subset: &BTreeSet<TxnId>) -> Result<Vec<TxnId>> {
        let mut in_deg: BTreeMap<&TxnId, usize> = BTreeMap::new();
        for id in subset {
            let ants = self.graph.antecedents_of(id);
            in_deg.insert(id, ants.iter().filter(|a| subset.contains(*a)).count());
        }
        let mut ready: VecDeque<&TxnId> = in_deg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(subset.len());
        while let Some(id) = ready.pop_front() {
            out.push(id.clone());
            for dep in self.graph.dependents_of(id) {
                if let Some(d) = in_deg.get_mut(dep) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push_back(dep);
                    }
                }
            }
        }
        assert_eq!(out.len(), subset.len(), "schedules are acyclic");
        Ok(out)
    }
}

fn schema() -> DatabaseSchema {
    DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap()
}

/// Who publishes, under which trust, and how their sequence numbers
/// advance.
struct Shape {
    /// Foreign publishers with their priority; 0 is distrusted: never
    /// applied on its own, only pulled in by trusted dependents.
    publishers: &'static [(&'static str, Priority)],
    /// Sequence numbers start anywhere below 2^40 and jump by up to 1000,
    /// instead of counting 1, 2, 3 …
    sparse: bool,
}

impl Shape {
    fn policy(&self) -> TrustPolicy {
        self.publishers
            .iter()
            .filter(|(_, priority)| *priority > DISTRUSTED)
            .fold(TrustPolicy::closed(), |policy, (peer, priority)| {
                policy.with(TrustCondition::peer(PeerId::new(*peer), *priority))
            })
    }
}

/// Three priority levels with two peers tied at the top (their conflicts
/// defer), a lower one (loses to accepted history), and `D` distrusted.
const FIVE: Shape = Shape {
    publishers: &[("A", 3), ("B", 3), ("C", 2), ("D", 0), ("E", 1)],
    sparse: false,
};

/// Twelve publishers whose names sort differently from the order they
/// are first seen in (`P10` < `P2`), with sparse sequence numbers: dense
/// ids follow first sight, so every tie-break must still go by `TxnId`.
const TWELVE_SPARSE: Shape = Shape {
    publishers: &[
        ("P0", 3),
        ("P1", 3),
        ("P2", 0),
        ("P3", 2),
        ("P4", 1),
        ("P5", 3),
        ("P6", 2),
        ("P7", 0),
        ("P8", 1),
        ("P9", 3),
        ("P10", 2),
        ("P11", 3),
    ],
    sparse: true,
};

fn policy() -> TrustPolicy {
    FIVE.policy()
}

/// Keys 0 and 1 are hot; the rest see occasional writes.
const KEYS: i64 = 6;

/// A random schedule, generated step by step from one seed so that each
/// step can cite whatever the previous steps created.
struct Schedule {
    rng: TestRng,
    shape: &'static Shape,
    next_seq: BTreeMap<&'static str, u64>,
    /// Every transaction id created so far (candidates, local ones and
    /// announced-but-undelivered forward references), in creation order.
    known: Vec<TxnId>,
    /// Forward references not yet delivered, with the antecedents they
    /// were given when first cited (only ids older than them, so the
    /// dependency graph stays acyclic).
    ghosts: Vec<(TxnId, BTreeSet<TxnId>)>,
}

enum Step {
    Reconcile(Vec<Candidate>),
    NoteLocal(Transaction),
    Resolve(TxnId),
}

impl Schedule {
    fn new(seed: u64, shape: &'static Shape) -> Self {
        Schedule {
            rng: TestRng::from_seed(seed),
            shape,
            next_seq: BTreeMap::new(),
            known: Vec::new(),
            ghosts: Vec::new(),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn fresh_id(&mut self, peer: &'static str) -> TxnId {
        let step = if self.shape.sparse {
            1 + self.rng.below(1000) as u64
        } else {
            1
        };
        let start = if self.shape.sparse {
            self.rng.next_u64() >> 24
        } else {
            0
        };
        let seq = self.next_seq.entry(peer).or_insert(start);
        *seq += step;
        TxnId::new(PeerId::new(peer), *seq)
    }

    fn publisher(&mut self) -> &'static str {
        let publishers = self.shape.publishers;
        publishers[self.pick(publishers.len())].0
    }

    fn updates(&mut self) -> Vec<Update> {
        (0..1 + self.pick(3))
            .map(|_| {
                let k = if self.pick(3) > 0 {
                    self.pick(2) as i64
                } else {
                    self.pick(KEYS as usize) as i64
                };
                let v = self.pick(3) as i64;
                match self.pick(4) {
                    0 => Update::delete("R", tuple![k, v]),
                    1 => Update::modify("R", tuple![k, v], tuple![k, v + 1]),
                    _ => Update::insert("R", tuple![k, v]),
                }
            })
            .collect()
    }

    /// Up to two antecedents among the ids created so far, biased toward
    /// recent ones (where the open work is).
    fn antecedents(&mut self) -> BTreeSet<TxnId> {
        let mut out = BTreeSet::new();
        for _ in 0..self.pick(3) {
            if self.known.is_empty() {
                break;
            }
            let n = self.known.len();
            let at = if self.pick(2) == 0 {
                n - 1 - self.pick(n.min(4))
            } else {
                self.pick(n)
            };
            out.insert(self.known[at].clone());
        }
        out
    }

    fn candidate(&mut self) -> Candidate {
        // Deliver a pending forward reference now and then.
        if !self.ghosts.is_empty() && self.pick(3) == 0 {
            let at = self.pick(self.ghosts.len());
            let (id, ants) = self.ghosts.remove(at);
            let updates = self.updates();
            return Candidate::from_txn(
                Transaction::new(id, Epoch::new(1), updates).with_antecedents(ants),
            );
        }
        let peer = self.publisher();
        let id = self.fresh_id(peer);
        let mut ants = self.antecedents();
        if self.pick(8) == 0 {
            // Cite a transaction that has not arrived yet: a placeholder
            // until it does (and the candidate defers as missing).
            let peer = self.publisher();
            let ghost = self.fresh_id(peer);
            let ghost_ants = self.antecedents();
            self.known.push(ghost.clone());
            self.ghosts.push((ghost.clone(), ghost_ants));
            ants.insert(ghost);
        }
        self.known.push(id.clone());
        let updates = self.updates();
        Candidate::from_txn(Transaction::new(id, Epoch::new(1), updates).with_antecedents(ants))
    }

    fn step(&mut self, deferred: &[TxnId]) -> Step {
        match self.pick(10) {
            0..=5 => {
                let n = 1 + self.pick(3);
                Step::Reconcile((0..n).map(|_| self.candidate()).collect())
            }
            6 | 7 => {
                let id = self.fresh_id("Me");
                let mut ants = self.antecedents();
                // A local transaction citing a deferred one: accepted, but
                // not settled — walks must keep looking behind it.
                if !deferred.is_empty() && self.pick(2) == 0 {
                    ants.insert(deferred[self.pick(deferred.len())].clone());
                }
                self.known.push(id.clone());
                let updates = self.updates();
                Step::NoteLocal(Transaction::new(id, Epoch::new(1), updates).with_antecedents(ants))
            }
            _ => {
                if !deferred.is_empty() && self.pick(6) > 0 {
                    Step::Resolve(deferred[self.pick(deferred.len())].clone())
                } else if !self.known.is_empty() {
                    // Usually not deferred: both must refuse alike.
                    let at = self.pick(self.known.len());
                    Step::Resolve(self.known[at].clone())
                } else {
                    Step::Reconcile(vec![self.candidate()])
                }
            }
        }
    }
}

/// Run one schedule through both reconcilers, comparing after each step.
fn run_schedule(
    seed: u64,
    steps: usize,
    shape: &'static Shape,
) -> std::result::Result<(), TestCaseError> {
    let mut schedule = Schedule::new(seed, shape);
    let policy = shape.policy();
    let mut real = Reconciler::new(schema());
    let mut reference = Reference::new(schema());
    for step in 0..steps {
        let deferred = reference.deferred();
        let ctx = format!("seed {seed}, step {step}");
        match schedule.step(&deferred) {
            Step::Reconcile(cands) => {
                let want = reference.reconcile(cands.clone(), &policy);
                let got = real.reconcile(cands, &policy).map(|o| Reconciled {
                    accepted: o.accepted,
                    rejected: o.rejected,
                    deferred: o.deferred,
                });
                prop_assert_eq!(got, want, "reconcile outcome, {}", ctx);
            }
            Step::NoteLocal(txn) => {
                let want = reference.note_local(&txn);
                let got = real.note_local(&txn);
                prop_assert_eq!(got, want, "note_local, {}", ctx);
            }
            Step::Resolve(id) => {
                let want = reference.resolve(&id);
                let got = real.resolve(&id).map(|o| Resolved {
                    accepted: o.accepted,
                    rejected: o.rejected,
                });
                prop_assert_eq!(got, want, "resolve {}, {}", id, ctx);
            }
        }
        for id in &schedule.known {
            prop_assert_eq!(
                real.decision(id),
                reference.decisions.get(id).copied(),
                "decision of {}, {}",
                id,
                ctx
            );
        }
        prop_assert_eq!(real.deferred(), reference.deferred(), "deferred, {}", ctx);
        prop_assert_eq!(
            real.open_conflicts().to_vec(),
            reference.conflicts.clone(),
            "open conflicts, {}",
            ctx
        );
        // Payloads are held for open work only; every id stays known.
        prop_assert_eq!(
            real.open_candidates(),
            reference.open_candidates(),
            "open candidates, {}",
            ctx
        );
        prop_assert_eq!(real.known_txns(), reference.graph.len(), "known, {}", ctx);
    }
    let stranger = TxnId::new(PeerId::new("Nobody"), 1);
    prop_assert_eq!(real.decision(&stranger), None, "never seen, seed {}", seed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_walks_decide_like_full_closures(seed in 0u64..u64::MAX) {
        run_schedule(seed, 40, &FIVE)?;
    }

    #[test]
    fn many_publishers_with_sparse_seqs_decide_like_full_closures(seed in 0u64..u64::MAX) {
        run_schedule(seed, 40, &TWELVE_SPARSE)?;
    }
}

/// The case a "stop at accepted" walk gets wrong: a local transaction
/// cites a deferred one, and a foreign transaction then builds on the
/// local one. The deferred antecedent two hops back must still defer it.
#[test]
fn a_local_transaction_citing_a_deferred_one_does_not_hide_it() {
    let policy = policy();
    let id = |p: &str, s| TxnId::new(PeerId::new(p), s);
    let write = |k: i64, v: i64| vec![Update::insert("R", tuple![k, v])];
    let mut real = Reconciler::new(schema());
    let mut reference = Reference::new(schema());
    // A#1 and B#1 tie on a key: both defer.
    let tied = vec![
        Candidate::from_txn(Transaction::new(id("A", 1), Epoch::new(1), write(0, 1))),
        Candidate::from_txn(Transaction::new(id("B", 1), Epoch::new(1), write(0, 2))),
    ];
    reference.reconcile(tied.clone(), &policy).unwrap();
    real.reconcile(tied, &policy).unwrap();
    assert_eq!(real.deferred(), vec![id("A", 1), id("B", 1)]);
    // The peer's own transaction builds on the deferred A#1.
    let local =
        Transaction::new(id("Me", 1), Epoch::new(1), write(3, 1)).with_antecedents([id("A", 1)]);
    reference.note_local(&local).unwrap();
    real.note_local(&local).unwrap();
    // C#1 builds on the local transaction only.
    let c = vec![Candidate::from_txn(
        Transaction::new(id("C", 1), Epoch::new(1), write(4, 1)).with_antecedents([id("Me", 1)]),
    )];
    let want = reference.reconcile(c.clone(), &policy).unwrap();
    let got = real.reconcile(c, &policy).unwrap();
    assert_eq!(want.deferred, vec![id("C", 1)]);
    assert_eq!(got.deferred, want.deferred);
    assert!(got.accepted.is_empty());
    // Resolving for A releases C#1 through the cascade in both.
    let want = reference.resolve(&id("A", 1)).unwrap();
    let got = real.resolve(&id("A", 1)).unwrap();
    assert_eq!(got.accepted, want.accepted);
    assert_eq!(got.rejected, want.rejected);
    assert_eq!(real.decision(&id("C", 1)), Some(Decision::Accepted));
}

/// Long accepted chains stay cheap to build on and still classify like
/// the reference, including a conflict with history deep in the chain.
#[test]
fn long_settled_chains_agree_with_the_reference() {
    let policy = policy();
    let mut real = Reconciler::new(schema());
    let mut reference = Reference::new(schema());
    let mut prev: Option<TxnId> = None;
    for seq in 1..=300u64 {
        let id = TxnId::new(PeerId::new("A"), seq);
        let txn = Transaction::new(
            id.clone(),
            Epoch::new(seq),
            vec![Update::insert("R", tuple![(seq % 4) as i64, seq as i64])],
        )
        .with_antecedents(prev.iter().cloned());
        let c = vec![Candidate::from_txn(txn)];
        let want = reference.reconcile(c.clone(), &policy).unwrap();
        let got = real.reconcile(c, &policy).unwrap();
        assert_eq!(got.accepted, want.accepted, "A#{seq}");
        assert_eq!(got.rejected, want.rejected, "A#{seq}");
        prev = Some(id);
    }
    // An unrelated writer of a key the chain wrote: rejected by history.
    let stray = vec![Candidate::from_txn(Transaction::new(
        TxnId::new(PeerId::new("C"), 1),
        Epoch::new(400),
        vec![Update::insert("R", tuple![1i64, -1i64])],
    ))];
    let want = reference.reconcile(stray.clone(), &policy).unwrap();
    let got = real.reconcile(stray, &policy).unwrap();
    assert_eq!(got.rejected, want.rejected);
    assert_eq!(got.rejected, vec![TxnId::new(PeerId::new("C"), 1)]);
}

/// Decided transactions leave no payload behind: after a stream of
/// accepted and rejected candidates the reconciler holds none, yet a
/// deferred candidate still resolves and its deferred dependents still
/// cascade, exactly as in the reference.
#[test]
fn decided_candidates_leave_no_payload() {
    let policy = policy();
    let id = |p: &str, s| TxnId::new(PeerId::new(p), s);
    let write = |k: i64, v: i64| vec![Update::insert("R", tuple![k, v])];
    let mut real = Reconciler::new(schema());
    let mut reference = Reference::new(schema());
    let mut both = |cands: Vec<Candidate>, real: &mut Reconciler| {
        let want = reference.reconcile(cands.clone(), &policy).unwrap();
        let got = real.reconcile(cands, &policy).unwrap();
        assert_eq!(got.accepted, want.accepted);
        assert_eq!(got.rejected, want.rejected);
        assert_eq!(got.deferred, want.deferred);
        (got, reference.open_candidates())
    };
    // A chain of 200 accepted transactions on keys 10.., each citing the
    // one before, and a stray C writer of each key it just wrote: rejected
    // against the accepted history.
    let mut prev: Option<TxnId> = None;
    for seq in 1..=200u64 {
        let a = id("A", seq);
        let chain = Transaction::new(a.clone(), Epoch::new(seq), write(10 + seq as i64, 1))
            .with_antecedents(prev.iter().cloned());
        let stray = Transaction::new(id("C", seq), Epoch::new(seq), write(10 + seq as i64, 2));
        let (out, open) = both(
            vec![Candidate::from_txn(chain), Candidate::from_txn(stray)],
            &mut real,
        );
        assert_eq!(out.accepted.len(), 1, "A#{seq}");
        assert_eq!(out.rejected, vec![id("C", seq)]);
        assert_eq!((real.open_candidates(), open), (0, 0), "after A#{seq}");
        prev = Some(a);
    }
    assert_eq!(real.known_txns(), 400);

    // A#201 and B#1 tie on key 0: both defer and stay open. B#2 builds on
    // B#1 and defers behind it; A#202 builds on A#201.
    let (out, _) = both(
        vec![
            Candidate::from_txn(
                Transaction::new(id("A", 201), Epoch::new(201), write(0, 1))
                    .with_antecedents(prev.iter().cloned()),
            ),
            Candidate::from_txn(Transaction::new(id("B", 1), Epoch::new(201), write(0, 2))),
        ],
        &mut real,
    );
    assert_eq!(out.deferred, vec![id("A", 201), id("B", 1)]);
    let (out, open) = both(
        vec![
            Candidate::from_txn(
                Transaction::new(id("B", 2), Epoch::new(202), write(1, 2))
                    .with_antecedents([id("B", 1)]),
            ),
            Candidate::from_txn(
                Transaction::new(id("A", 202), Epoch::new(202), write(2, 1))
                    .with_antecedents([id("A", 201)]),
            ),
        ],
        &mut real,
    );
    assert_eq!(out.deferred, vec![id("B", 2), id("A", 202)]);
    assert_eq!((real.open_candidates(), open), (4, 4));

    // Resolving for B accepts B#1 and cascades to B#2; A's side is
    // rejected. Nothing stays open.
    let want = reference.resolve(&id("B", 1)).unwrap();
    let got = real.resolve(&id("B", 1)).unwrap();
    assert_eq!(got.accepted, want.accepted);
    assert_eq!(got.rejected, want.rejected);
    let accepted: Vec<TxnId> = got.accepted.iter().map(|t| t.id.clone()).collect();
    assert_eq!(accepted, vec![id("B", 1), id("B", 2)]);
    assert_eq!(got.rejected, vec![id("A", 201), id("A", 202)]);
    assert_eq!(
        (real.open_candidates(), reference.open_candidates()),
        (0, 0)
    );
    assert!(real.open_conflicts().is_empty());
    for seq in 1..=200 {
        assert_eq!(real.decision(&id("A", seq)), Some(Decision::Accepted));
        assert_eq!(real.decision(&id("C", seq)), Some(Decision::Rejected));
    }
}

/// A rejection does not drop its candidate's payload before the priority
/// level is done: a group formed earlier in the level may still take the
/// rejected transaction in. Here C#1 loses to A#1's accepted write, but
/// C#2 — same level, citing both — overwrites the key and is causally
/// after A#1, so its group {C#1, C#2} applies, C#1 included, as in the
/// reference.
#[test]
fn a_group_formed_before_a_rejection_in_its_level_still_applies() {
    let policy = policy();
    let id = |p: &str, s| TxnId::new(PeerId::new(p), s);
    let write = |k: i64, v: i64| vec![Update::insert("R", tuple![k, v])];
    let mut real = Reconciler::new(schema());
    let mut reference = Reference::new(schema());
    let first = vec![Candidate::from_txn(Transaction::new(
        id("A", 1),
        Epoch::new(1),
        write(0, 0),
    ))];
    reference.reconcile(first.clone(), &policy).unwrap();
    real.reconcile(first, &policy).unwrap();
    let level = vec![
        Candidate::from_txn(Transaction::new(id("C", 1), Epoch::new(2), write(0, 1))),
        Candidate::from_txn(
            Transaction::new(id("C", 2), Epoch::new(2), write(0, 2))
                .with_antecedents([id("C", 1), id("A", 1)]),
        ),
    ];
    let want = reference.reconcile(level.clone(), &policy).unwrap();
    let got = real.reconcile(level, &policy).unwrap();
    assert_eq!(got.accepted, want.accepted);
    assert_eq!(got.rejected, want.rejected);
    assert_eq!(got.deferred, want.deferred);
    let accepted: Vec<TxnId> = got.accepted.iter().map(|t| t.id.clone()).collect();
    assert_eq!(accepted, vec![id("C", 1), id("C", 2)]);
    assert_eq!(
        real.decision(&id("C", 1)),
        reference.decisions.get(&id("C", 1)).copied()
    );
    assert_eq!(real.open_candidates(), 0);
}
