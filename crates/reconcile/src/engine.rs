//! The greedy reconciliation algorithm with deferral and manual resolution.
//!
//! Every transaction the reconciler has seen has a dense id in its
//! `DepGraph`; decisions, the settled mark and the open-candidate slot
//! are a `Vec` indexed by it. The payload — the transaction and its write
//! set — is held only while the candidate is open work: undecided
//! (distrusted ones included) or deferred. An acceptance moves the
//! transaction into the outcome and its writes into the accepted history;
//! a rejection drops it. What stays per settled transaction is its id,
//! its antecedent edges and a few bytes of state.

use crate::candidate::Candidate;
use crate::depgraph::DepGraph;
use crate::error::ReconcileError;
use crate::state::Decision;
use crate::trust::TrustPolicy;
use crate::{Priority, Result, DISTRUSTED};
use orchestra_relational::{DatabaseSchema, FxHasher};
use orchestra_updates::{Transaction, TxnId, WriteKey, WriteOutcome};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// What one reconciliation pass decided.
#[derive(Debug, Clone, Default)]
pub struct ReconcileOutcome {
    /// Transactions to apply, in dependency (topological) order. Includes
    /// distrusted antecedents pulled in by trusted dependents.
    pub accepted: Vec<Transaction>,
    /// Newly rejected transactions.
    pub rejected: Vec<TxnId>,
    /// Newly deferred transactions (await [`Reconciler::resolve`]).
    pub deferred: Vec<TxnId>,
}

/// What a manual resolution decided.
#[derive(Debug, Clone, Default)]
pub struct ResolveOutcome {
    /// Transactions to apply now, in dependency order (the winner plus its
    /// previously deferred dependents).
    pub accepted: Vec<Transaction>,
    /// Transactions rejected (the losers plus their dependents).
    pub rejected: Vec<TxnId>,
}

/// An open candidate's payload.
#[derive(Debug, Clone)]
struct Open {
    txn: Transaction,
    /// Computed once, at registration.
    writes: Vec<(WriteKey, WriteOutcome)>,
}

/// What the reconciler knows about one transaction.
#[derive(Debug, Clone, Default)]
struct TxnState {
    /// Distrusted candidates and forward references stay undecided.
    decision: Option<Decision>,
    /// Nonzero once the transaction is *settled*: accepted, with every
    /// antecedent settled when it was — so its whole antecedent closure
    /// is accepted, and since acceptance is final it stays so. The value
    /// counts settlements, so everything behind a settled transaction
    /// settled before it. Antecedent walks stop here, which bounds them by
    /// open work instead of by history. Plain "accepted" would not do: a
    /// local transaction may cite a deferred one
    /// ([`Reconciler::note_local`]).
    settled_at: u32,
    /// The payload, while the transaction is an undecided or deferred
    /// candidate.
    open: Option<Box<Open>>,
}

impl TxnState {
    fn settled(&self) -> bool {
        self.settled_at != 0
    }
}

/// Per-peer reconciliation engine. Owns the peer's persistent decision
/// state across epochs: decisions and the transaction dependency graph
/// over every transaction seen, the payloads of open candidates, accepted
/// write history, and open conflicts.
#[derive(Debug, Clone)]
pub struct Reconciler {
    schema: DatabaseSchema,
    graph: DepGraph,
    /// Indexed by dense id; as long as the graph.
    state: Vec<TxnState>,
    /// How many `state` entries hold a payload.
    open: usize,
    /// How many transactions have settled.
    settlements: u32,
    /// (relation, key) → (last accepted writer, outcome). Only probed,
    /// never walked; the keys are peer data, so std's keyed hasher.
    accepted_writes: HashMap<WriteKey, (u32, WriteOutcome)>,
    /// Open same-priority conflicts awaiting the administrator.
    conflicts: Vec<(TxnId, TxnId)>,
    /// The same pairs as dense ids, in lockstep with `conflicts`.
    conflict_nodes: Vec<(u32, u32)>,
    /// Rejected during the current pass. Their payloads are dropped when
    /// the pass ends: a group formed earlier in the same priority level
    /// may still accept one of them.
    rejected_now: Vec<u32>,
    /// Settled during the current pass. Their dependent edges are dropped
    /// when the pass ends (no dependent walk reaches a settled
    /// transaction, and no later pass orders one; within the pass,
    /// `resolve` still walks its winner's dependents).
    settled_now: Vec<u32>,
    /// Walk output scratch.
    closure: Vec<u32>,
}

impl Reconciler {
    /// A fresh reconciler for a peer with the given (local) schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        Reconciler {
            schema,
            graph: DepGraph::default(),
            state: Vec::new(),
            open: 0,
            settlements: 0,
            accepted_writes: HashMap::new(),
            conflicts: Vec::new(),
            conflict_nodes: Vec::new(),
            rejected_now: Vec::new(),
            settled_now: Vec::new(),
            closure: Vec::new(),
        }
    }

    /// The recorded decision for a transaction, if any. Distrusted
    /// candidates stay undecided.
    pub fn decision(&self, id: &TxnId) -> Option<Decision> {
        self.graph
            .get(id)
            .and_then(|n| self.state[n as usize].decision)
    }

    /// Currently deferred transactions, in id order.
    pub fn deferred(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = (0..self.state.len() as u32)
            .filter(|&n| self.decided(n) == Some(Decision::Deferred))
            .map(|n| self.graph.id(n).clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Open conflict pairs awaiting resolution.
    pub fn open_conflicts(&self) -> &[(TxnId, TxnId)] {
        &self.conflicts
    }

    /// Candidates whose transaction the reconciler holds: undecided ones
    /// (distrusted ones included) and deferred ones.
    pub fn open_candidates(&self) -> usize {
        self.open
    }

    /// Transactions the reconciler has seen: candidates, local ones, and
    /// antecedents cited before they arrived.
    pub fn known_txns(&self) -> usize {
        self.graph.len()
    }

    /// Register one of the peer's **own** published transactions: it is
    /// already applied locally, so it enters the decision state as
    /// accepted (with its writes in the accepted history) and the
    /// dependency graph as a node other peers' transactions may reference
    /// as an antecedent.
    ///
    /// Without this, a foreign transaction that modifies data this peer
    /// itself published would classify its antecedent as *missing* and be
    /// deferred forever.
    pub fn note_local(&mut self, txn: &Transaction) -> Result<()> {
        let writes = txn.write_set(&self.schema)?;
        let n = self.insert(txn)?;
        self.record_accepted(n);
        for (key, outcome) in writes {
            self.accepted_writes.insert(key, (n, outcome));
        }
        self.end_pass();
        Ok(())
    }

    /// One reconciliation pass over newly translated candidates, under the
    /// peer's trust policy (Taylor & Ives' greedy algorithm).
    pub fn reconcile(
        &mut self,
        candidates: Vec<Candidate>,
        policy: &TrustPolicy,
    ) -> Result<ReconcileOutcome> {
        // Register candidates: dependency graph + open payload.
        let mut level_map: BTreeMap<Priority, Vec<u32>> = BTreeMap::new();
        for c in candidates {
            let priority = policy.txn_priority(&c);
            let writes = c.txn.write_set(&self.schema)?;
            let n = self.insert(&c.txn)?;
            self.state[n as usize].open = Some(Box::new(Open { txn: c.txn, writes }));
            self.open += 1;
            if priority > DISTRUSTED {
                level_map.entry(priority).or_default().push(n);
            }
        }

        let mut outcome = ReconcileOutcome::default();
        // Process levels from highest to lowest priority.
        for (_priority, ns) in level_map.into_iter().rev() {
            self.process_level(&ns, &mut outcome)?;
        }
        self.end_pass();
        Ok(outcome)
    }

    /// Insert a transaction into the graph, growing the state alongside
    /// (its forward references included).
    fn insert(&mut self, txn: &Transaction) -> Result<u32> {
        let n = self.graph.insert(&txn.id, &txn.antecedents)?;
        self.state.resize_with(self.graph.len(), TxnState::default);
        Ok(n)
    }

    fn process_level(&mut self, ns: &[u32], outcome: &mut ReconcileOutcome) -> Result<()> {
        // Phase a: classify candidates by antecedent state; build groups
        // (with their net writes, computed once) for the eligible ones.
        // Group members live in one buffer, each group a range of it.
        let mut members: Vec<u32> = Vec::new();
        let mut eligible: Vec<(u32, Range<usize>, GroupWrites)> = Vec::new();
        for &n in ns {
            if self.decided(n).is_some() {
                continue; // Pulled in (or cascaded) earlier this pass.
            }
            let start = members.len();
            match self.classify_antecedents(n, &mut members) {
                AntecedentState::Rejected => {
                    self.reject(n);
                    outcome.rejected.push(self.graph.id(n).clone());
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.set(n, Decision::Deferred);
                    outcome.deferred.push(self.graph.id(n).clone());
                }
                AntecedentState::Ready => {
                    let writes = self.group_writes(&members[start..])?;
                    eligible.push((n, start..members.len(), writes));
                }
            }
        }

        // Phase b: conflicts among same-level groups → defer both (the
        // administrator must pick — paper §3). Rather than all-pairs
        // write-set comparison, sort every group's writes by key (by a
        // word hash first, which is cheaper to compare): only groups
        // writing a common key can conflict.
        let mut conflicting_pairs: Vec<(usize, usize)> = Vec::new();
        {
            let Reconciler { graph, state, .. } = &mut *self;
            // (key hash, key, eligible index, writer, outcome).
            let mut writes: Vec<(u64, &WriteKey, usize, u32, &WriteOutcome)> = Vec::new();
            for (idx, (_, _, group_writes)) in eligible.iter().enumerate() {
                for (writer, key, w_outcome) in group_writes.iter(state) {
                    let mut h = FxHasher::default();
                    key.hash(&mut h);
                    writes.push((h.finish(), key, idx, writer, w_outcome));
                }
            }
            writes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
            // Hot keys make this loop quadratic in their writer count:
            // collect conflicting index pairs and sort+dedup at the end.
            // Every writer is an undecided candidate, so each relatedness
            // walk skips settled history.
            for writers in writes.chunk_by(|a, b| a.1 == b.1) {
                for a in 0..writers.len() {
                    for b in (a + 1)..writers.len() {
                        let (_, _, ia, wa, oa) = writers[a];
                        let (_, _, ib, wb, ob) = writers[b];
                        if ia == ib || oa == ob {
                            continue;
                        }
                        if !causally_related(graph, state, wa, wb) {
                            conflicting_pairs.push((ia.min(ib), ia.max(ib)));
                        }
                    }
                }
            }
        }
        conflicting_pairs.sort_unstable();
        conflicting_pairs.dedup();
        let mut deferred_now: Vec<u32> = Vec::with_capacity(2 * conflicting_pairs.len());
        for (ia, ib) in conflicting_pairs {
            let (a, b) = (eligible[ia].0, eligible[ib].0);
            self.conflicts
                .push((self.graph.id(a).clone(), self.graph.id(b).clone()));
            self.conflict_nodes.push((a, b));
            deferred_now.extend([a, b]);
        }
        deferred_now.sort_unstable_by(|&a, &b| self.graph.cmp_ids(a, b));
        deferred_now.dedup();
        for n in deferred_now {
            self.set(n, Decision::Deferred);
            outcome.deferred.push(self.graph.id(n).clone());
        }

        // Phase c: accept survivors greedily (in candidate order from
        // phase a), rejecting those that conflict with accepted history.
        for (n, group, writes) in &eligible {
            if self.decided(*n).is_some() {
                continue; // Deferred above, or accepted in an earlier group.
            }
            if self.writes_conflict_with_history(writes) {
                self.reject(*n);
                outcome.rejected.push(self.graph.id(*n).clone());
                continue;
            }
            self.accept_group(&members[group.clone()], &mut outcome.accepted)?;
        }
        Ok(())
    }

    /// Classify a candidate by the decisions on its antecedent closure;
    /// when it is applicable, append its group (the candidate plus its
    /// undecided antecedents) to `group`.
    ///
    /// Walks only the *open* part of the closure: settled transactions
    /// are not expanded, because everything behind them is accepted —
    /// it can neither block the candidate nor join its group. The first
    /// blocker in id order decides, exactly as over the whole closure.
    fn classify_antecedents(&mut self, n: u32, group: &mut Vec<u32>) -> AntecedentState {
        let Reconciler {
            graph,
            state,
            closure,
            ..
        } = self;
        graph.antecedent_closure(n, |a| state[a as usize].settled(), closure);
        let mut blocker: Option<(u32, AntecedentState)> = None;
        for &a in closure.iter() {
            let s = &state[a as usize];
            let blocks = match s.decision {
                Some(Decision::Rejected) => AntecedentState::Rejected,
                Some(Decision::Deferred) => AntecedentState::Deferred,
                Some(Decision::Accepted) => continue, // Already applied; not in group.
                None if s.open.is_some() => continue, // Undecided candidate: pull in.
                None => AntecedentState::Missing, // Forward reference to a transaction never seen.
            };
            if blocker
                .as_ref()
                .is_none_or(|&(b, _)| graph.cmp_ids(a, b).is_lt())
            {
                blocker = Some((a, blocks));
            }
        }
        if let Some((_, blocks)) = blocker {
            return blocks;
        }
        group.push(n);
        group.extend(
            closure
                .iter()
                .filter(|&&a| state[a as usize].decision.is_none()),
        );
        AntecedentState::Ready
    }

    /// The net writes of a group: apply members in dependency order,
    /// last-writer-wins per key.
    fn group_writes(&mut self, group: &[u32]) -> Result<GroupWrites> {
        // Fast path: a singleton group (the common case) needs no
        // ordering and writes exactly its member's write set.
        if let [n] = group {
            return Ok(GroupWrites::Single(*n));
        }
        let mut order = Vec::with_capacity(group.len());
        self.graph.topo_order(group, &mut order)?;
        let mut all: Vec<(&WriteKey, u32, &WriteOutcome)> = order
            .iter()
            .flat_map(|&m| {
                writes_of(&self.state, m)
                    .iter()
                    .map(move |(key, outcome)| (key, m, outcome))
            })
            .collect();
        // Stable: a key's writers stay in dependency order, last one wins.
        all.sort_by(|a, b| a.0.cmp(b.0));
        let net = all
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|writers| writers.last())
            .map(|&(key, writer, outcome)| (key.clone(), writer, outcome.clone()))
            .collect();
        Ok(GroupWrites::Merged(net))
    }

    /// Does the group clash with the already-accepted write history?
    /// A dependent overwriting its accepted antecedent's data is fine.
    fn writes_conflict_with_history(&mut self, writes: &GroupWrites) -> bool {
        let Reconciler {
            graph,
            state,
            accepted_writes,
            ..
        } = self;
        for (writer, key, outcome) in writes.iter(state) {
            if let Some((accepted_writer, accepted_outcome)) = accepted_writes.get(key) {
                if outcome != accepted_outcome
                    && !causally_related(graph, state, writer, *accepted_writer)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Accept every member of a group, in dependency order, moving each
    /// newly accepted transaction into `accepted` and its writes into the
    /// accepted history.
    fn accept_group(&mut self, group: &[u32], accepted: &mut Vec<Transaction>) -> Result<()> {
        let mut order = Vec::with_capacity(group.len());
        self.graph.topo_order(group, &mut order)?;
        for m in order {
            if self.decided(m) == Some(Decision::Accepted) {
                continue;
            }
            self.record_accepted(m);
            if let Some(open) = self.state[m as usize].open.take() {
                self.open -= 1;
                let Open { txn, writes } = *open;
                for (key, outcome) in writes {
                    self.accepted_writes.insert(key, (m, outcome));
                }
                accepted.push(txn);
            }
        }
        Ok(())
    }

    fn decided(&self, n: u32) -> Option<Decision> {
        self.state[n as usize].decision
    }

    fn set(&mut self, n: u32, d: Decision) {
        self.state[n as usize].decision = Some(d);
    }

    fn reject(&mut self, n: u32) {
        self.set(n, Decision::Rejected);
        self.rejected_now.push(n);
    }

    /// Drop the payloads of this pass's rejections (unless a later group
    /// of the same level accepted one after all) and the dependent edges
    /// of the transactions it settled.
    fn end_pass(&mut self) {
        for n in self.rejected_now.drain(..) {
            let s = &mut self.state[n as usize];
            if s.decision == Some(Decision::Rejected) && s.open.take().is_some() {
                self.open -= 1;
            }
        }
        for n in self.settled_now.drain(..) {
            self.graph.seal(n);
        }
    }

    /// Record an acceptance, settling the transaction when all its
    /// antecedents are settled (members of a group are accepted in
    /// dependency order, so in-group antecedents come first).
    fn record_accepted(&mut self, n: u32) {
        let settled = self
            .graph
            .antecedents(n)
            .iter()
            .all(|&a| self.state[a as usize].settled());
        let s = &mut self.state[n as usize];
        s.decision = Some(Decision::Accepted);
        if settled && !s.settled() {
            self.settlements += 1;
            s.settled_at = self.settlements;
            self.settled_now.push(n);
        }
    }

    /// Manually resolve deferred conflicts in favor of `winner`.
    ///
    /// Per the paper: the winner is applied; deferred transactions that
    /// transitively depend on it are applied automatically; the losers
    /// (deferred transactions in open conflict with the winner) and all
    /// their dependents are rejected.
    pub fn resolve(&mut self, winner: &TxnId) -> Result<ResolveOutcome> {
        let deferred = Some(Decision::Deferred);
        let w = match self.graph.get(winner) {
            Some(w) if self.decided(w) == deferred => w,
            _ => return Err(ReconcileError::NotDeferred(winner.to_string())),
        };
        let mut out = ResolveOutcome::default();

        // Losers: deferred counterparts in open conflicts with the winner.
        let mut losers: Vec<u32> = Vec::new();
        for &(a, b) in &self.conflict_nodes {
            if a == w && self.decided(b) == deferred {
                losers.push(b);
            } else if b == w && self.decided(a) == deferred {
                losers.push(a);
            }
        }
        losers.sort_unstable_by(|&a, &b| self.graph.cmp_ids(a, b));
        losers.dedup();

        // Reject losers and their dependents (deferred or undecided).
        let mut deps = Vec::new();
        for loser in losers {
            self.reject(loser);
            out.rejected.push(self.graph.id(loser).clone());
            self.graph.dependent_closure(loser, &mut deps);
            deps.sort_unstable_by(|&a, &b| self.graph.cmp_ids(a, b));
            for &d in &deps {
                let s = &self.state[d as usize];
                let open_work = match s.decision {
                    Some(Decision::Deferred) => true,
                    None => s.open.is_some(),
                    _ => false,
                };
                if open_work {
                    self.reject(d);
                    out.rejected.push(self.graph.id(d).clone());
                }
            }
        }
        // Drop resolved conflict pairs.
        let state = &self.state;
        let keep: Vec<bool> = self
            .conflict_nodes
            .iter()
            .map(|&(a, b)| {
                state[a as usize].decision == deferred && state[b as usize].decision == deferred
            })
            .collect();
        let mut kept = keep.iter();
        self.conflicts.retain(|_| kept.next() == Some(&true));
        let mut kept = keep.iter();
        self.conflict_nodes.retain(|_| kept.next() == Some(&true));

        // Accept the winner (group semantics: pull undecided antecedents).
        self.state[w as usize].decision = None; // Allow classify/accept to re-run.
        let mut group = Vec::new();
        match self.classify_antecedents(w, &mut group) {
            AntecedentState::Ready => self.accept_group(&group, &mut out.accepted)?,
            _ => {
                // Antecedents rejected/missing even after resolution: the
                // administrator's choice cannot be applied.
                self.reject(w);
                out.rejected.push(winner.clone());
                self.end_pass();
                return Ok(out);
            }
        }

        // Cascade: deferred dependents of the winner, in dependency order.
        self.graph.dependent_closure(w, &mut deps);
        deps.retain(|&d| self.decided(d) == deferred);
        let mut order = Vec::with_capacity(deps.len());
        self.graph.topo_order(&deps, &mut order)?;
        for dep in order {
            if self.decided(dep) != deferred {
                continue;
            }
            self.state[dep as usize].decision = None;
            group.clear();
            match self.classify_antecedents(dep, &mut group) {
                AntecedentState::Ready => {
                    let writes = self.group_writes(&group)?;
                    if self.writes_conflict_with_history(&writes) {
                        self.reject(dep);
                        out.rejected.push(self.graph.id(dep).clone());
                    } else {
                        self.accept_group(&group, &mut out.accepted)?;
                    }
                }
                AntecedentState::Rejected => {
                    self.reject(dep);
                    out.rejected.push(self.graph.id(dep).clone());
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.set(dep, Decision::Deferred);
                }
            }
        }
        self.end_pass();
        Ok(out)
    }
}

enum AntecedentState {
    /// Some antecedent is rejected → candidate must be rejected.
    Rejected,
    /// Some antecedent is deferred → candidate must be deferred.
    Deferred,
    /// Some antecedent was never seen → cannot apply yet.
    Missing,
    /// Applicable: the group of the candidate plus undecided antecedents.
    Ready,
}

/// A group's net writes.
enum GroupWrites {
    /// A one-member group writes its member's write set, read in place.
    Single(u32),
    /// A larger group's net writes in key order: (key, last writer within
    /// the group, outcome).
    Merged(Vec<(WriteKey, u32, WriteOutcome)>),
}

impl GroupWrites {
    /// Every (writer, key, outcome).
    fn iter<'a>(
        &'a self,
        state: &'a [TxnState],
    ) -> impl Iterator<Item = (u32, &'a WriteKey, &'a WriteOutcome)> + 'a {
        let (single, merged) = match self {
            GroupWrites::Single(n) => (Some(*n), &[][..]),
            GroupWrites::Merged(net) => (None, &net[..]),
        };
        let own = single.into_iter().flat_map(move |n| {
            writes_of(state, n)
                .iter()
                .map(move |(key, outcome)| (n, key, outcome))
        });
        own.chain(
            merged
                .iter()
                .map(|(key, writer, outcome)| (*writer, key, outcome)),
        )
    }
}

/// An open candidate's write set (empty once it is decided).
fn writes_of(state: &[TxnState], n: u32) -> &[(WriteKey, WriteOutcome)] {
    state[n as usize]
        .open
        .as_deref()
        .map_or(&[], |open| &open.writes[..])
}

/// Is either transaction in the other's antecedent closure? Everything
/// behind a settled transaction settled before it, so a walk for `target`
/// neither starts from nor expands a transaction that settled before
/// `target` did — nor any settled one, when `target` is unsettled.
fn causally_related(graph: &mut DepGraph, state: &[TxnState], a: u32, b: u32) -> bool {
    let mut reaches = |from: u32, target: u32| {
        let target_at = state[target as usize].settled_at;
        let cannot_reach = |x: u32| {
            let at = state[x as usize].settled_at;
            at != 0 && (target_at == 0 || at < target_at)
        };
        !cannot_reach(from) && graph.reaches(from, target, cannot_reach)
    };
    a == b || reaches(a, b) || reaches(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust::TrustCondition;
    use orchestra_relational::{tuple, RelationSchema, ValueType};
    use orchestra_updates::{Epoch, PeerId, Update};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new("Σ2")
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "OPS",
                    &[
                        ("org", ValueType::Str),
                        ("prot", ValueType::Str),
                        ("seq", ValueType::Str),
                    ],
                    &["org", "prot"],
                )
                .unwrap(),
            )
            .unwrap()
    }

    fn txn(peer: &str, seq: u64, updates: Vec<Update>) -> Transaction {
        Transaction::new(TxnId::new(PeerId::new(peer), seq), Epoch::new(1), updates)
    }

    fn id(peer: &str, seq: u64) -> TxnId {
        TxnId::new(PeerId::new(peer), seq)
    }

    fn ins(org: &str, prot: &str, seq: &str) -> Update {
        Update::insert("OPS", tuple![org, prot, seq])
    }

    fn open_policy() -> TrustPolicy {
        TrustPolicy::open(1)
    }

    /// Crete's policy from the paper.
    fn crete_policy() -> TrustPolicy {
        TrustPolicy::closed()
            .with(TrustCondition::peer(PeerId::new("Beijing"), 2))
            .with(TrustCondition::peer(PeerId::new("Dresden"), 1))
    }

    #[test]
    fn accepts_nonconflicting_updates() {
        let mut r = Reconciler::new(schema());
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("A", 1, vec![ins("HIV", "gp120", "MRV")])),
                    Candidate::from_txn(txn("B", 1, vec![ins("HIV", "gp41", "AVG")])),
                ],
                &open_policy(),
            )
            .unwrap();
        assert_eq!(out.accepted.len(), 2);
        assert!(out.rejected.is_empty());
        assert!(out.deferred.is_empty());
        assert_eq!(r.decision(&id("A", 1)), Some(Decision::Accepted));
    }

    /// Scenario 2 (first half): higher priority wins a conflict outright.
    #[test]
    fn priority_resolves_conflict_beijing_over_dresden() {
        let mut r = Reconciler::new(schema());
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("Beijing", 1, vec![ins("HIV", "gp120", "SEQ-B")])),
                    Candidate::from_txn(txn("Dresden", 1, vec![ins("HIV", "gp120", "SEQ-D")])),
                ],
                &crete_policy(),
            )
            .unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].id, id("Beijing", 1));
        assert_eq!(out.rejected, vec![id("Dresden", 1)]);
        assert_eq!(r.decision(&id("Dresden", 1)), Some(Decision::Rejected));
    }

    /// Scenario 2 (second half): dependents of rejected txns are rejected.
    #[test]
    fn rejection_cascades_to_dependents() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![
                Candidate::from_txn(txn("Beijing", 1, vec![ins("HIV", "gp120", "SEQ-B")])),
                Candidate::from_txn(txn("Dresden", 1, vec![ins("HIV", "gp120", "SEQ-D")])),
            ],
            &crete_policy(),
        )
        .unwrap();
        // Dresden's follow-up depends on its rejected txn.
        let follow_up = Candidate::from_txn(
            txn(
                "Dresden",
                2,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "SEQ-D"],
                    tuple!["HIV", "gp120", "SEQ-D2"],
                )],
            )
            .with_antecedents([id("Dresden", 1)]),
        );
        let out = r.reconcile(vec![follow_up], &crete_policy()).unwrap();
        assert!(out.accepted.is_empty());
        assert_eq!(out.rejected, vec![id("Dresden", 2)]);
    }

    /// Scenario 3: a trusted modification pulls in its distrusted
    /// antecedent.
    #[test]
    fn trusted_dependent_pulls_distrusted_antecedent() {
        let mut r = Reconciler::new(schema());
        // Alaska inserts several data points in one transaction; Crete
        // does not trust Alaska.
        let alaska = Candidate::from_txn(txn(
            "Alaska",
            1,
            vec![ins("HIV", "gp120", "SEQ-1"), ins("HIV", "gp41", "SEQ-2")],
        ));
        let out = r.reconcile(vec![alaska], &crete_policy()).unwrap();
        assert!(out.accepted.is_empty(), "distrusted: not applied");
        assert_eq!(r.decision(&id("Alaska", 1)), None, "no decision recorded");

        // Beijing modifies one of Alaska's points.
        let beijing = Candidate::from_txn(
            txn(
                "Beijing",
                1,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "SEQ-1"],
                    tuple!["HIV", "gp120", "SEQ-1B"],
                )],
            )
            .with_antecedents([id("Alaska", 1)]),
        );
        let out = r.reconcile(vec![beijing], &crete_policy()).unwrap();
        // Both accepted, Alaska first (dependency order).
        assert_eq!(out.accepted.len(), 2);
        assert_eq!(out.accepted[0].id, id("Alaska", 1));
        assert_eq!(out.accepted[1].id, id("Beijing", 1));
        assert_eq!(r.decision(&id("Alaska", 1)), Some(Decision::Accepted));
    }

    /// Scenario 4: same-priority conflicts defer; resolution accepts the
    /// winner's chain and rejects the loser's.
    #[test]
    fn same_priority_conflict_defers_then_resolves() {
        let mut r = Reconciler::new(schema());
        // Beijing and Alaska publish conflicting updates; Dresden trusts
        // everyone equally.
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("Beijing", 1, vec![ins("HIV", "gp120", "SEQ-B")])),
                    Candidate::from_txn(txn("Alaska", 1, vec![ins("HIV", "gp120", "SEQ-A")])),
                ],
                &open_policy(),
            )
            .unwrap();
        assert!(out.accepted.is_empty());
        assert_eq!(out.deferred.len(), 2);
        assert_eq!(r.open_conflicts().len(), 1);

        // Crete publishes a modification of Beijing's update; it must be
        // deferred too (depends on a deferred txn).
        let crete = Candidate::from_txn(
            txn(
                "Crete",
                1,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "SEQ-B"],
                    tuple!["HIV", "gp120", "SEQ-C"],
                )],
            )
            .with_antecedents([id("Beijing", 1)]),
        );
        let out = r.reconcile(vec![crete], &open_policy()).unwrap();
        assert_eq!(out.deferred, vec![id("Crete", 1)]);

        // Resolve in favor of Beijing: Beijing + Crete accepted, Alaska
        // rejected.
        let res = r.resolve(&id("Beijing", 1)).unwrap();
        let accepted_ids: Vec<TxnId> = res.accepted.iter().map(|t| t.id.clone()).collect();
        assert_eq!(accepted_ids, vec![id("Beijing", 1), id("Crete", 1)]);
        assert_eq!(res.rejected, vec![id("Alaska", 1)]);
        assert!(r.open_conflicts().is_empty());
        assert_eq!(r.decision(&id("Crete", 1)), Some(Decision::Accepted));
    }

    #[test]
    fn resolve_requires_deferred() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![Candidate::from_txn(txn("A", 1, vec![ins("x", "y", "z")]))],
            &open_policy(),
        )
        .unwrap();
        assert!(matches!(
            r.resolve(&id("A", 1)),
            Err(ReconcileError::NotDeferred(_))
        ));
        assert!(matches!(
            r.resolve(&id("Z", 9)),
            Err(ReconcileError::NotDeferred(_))
        ));
    }

    #[test]
    fn duplicate_candidate_rejected() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![Candidate::from_txn(txn("A", 1, vec![ins("x", "y", "z")]))],
            &open_policy(),
        )
        .unwrap();
        assert!(matches!(
            r.reconcile(
                vec![Candidate::from_txn(txn("A", 1, vec![ins("x", "y", "z")]))],
                &open_policy()
            ),
            Err(ReconcileError::DuplicateCandidate(_))
        ));
    }

    #[test]
    fn identical_writes_do_not_conflict() {
        // Two peers publish the same tuple: compatible, both accepted.
        let mut r = Reconciler::new(schema());
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("A", 1, vec![ins("HIV", "gp120", "SAME")])),
                    Candidate::from_txn(txn("B", 1, vec![ins("HIV", "gp120", "SAME")])),
                ],
                &open_policy(),
            )
            .unwrap();
        assert_eq!(out.accepted.len(), 2);
        assert!(out.deferred.is_empty());
    }

    #[test]
    fn dependent_modification_is_not_a_conflict() {
        // B modifies A's tuple in the same batch: causally related, both
        // accepted in order.
        let mut r = Reconciler::new(schema());
        let a = Candidate::from_txn(txn("A", 1, vec![ins("HIV", "gp120", "V1")]));
        let b = Candidate::from_txn(
            txn(
                "B",
                1,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "V1"],
                    tuple!["HIV", "gp120", "V2"],
                )],
            )
            .with_antecedents([id("A", 1)]),
        );
        let out = r.reconcile(vec![a, b], &open_policy()).unwrap();
        assert_eq!(out.accepted.len(), 2);
        assert_eq!(out.accepted[0].id, id("A", 1));
        assert!(out.deferred.is_empty());
    }

    #[test]
    fn later_epoch_conflict_with_accepted_history_rejects() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![Candidate::from_txn(txn(
                "A",
                1,
                vec![ins("HIV", "gp120", "V1")],
            ))],
            &open_policy(),
        )
        .unwrap();
        // Later, B writes the same key differently with no dependency.
        let out = r
            .reconcile(
                vec![Candidate::from_txn(txn(
                    "B",
                    1,
                    vec![ins("HIV", "gp120", "V2")],
                ))],
                &open_policy(),
            )
            .unwrap();
        assert_eq!(out.rejected, vec![id("B", 1)]);
    }

    #[test]
    fn dependent_update_on_accepted_antecedent_is_applied() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![Candidate::from_txn(txn(
                "A",
                1,
                vec![ins("HIV", "gp120", "V1")],
            ))],
            &open_policy(),
        )
        .unwrap();
        let b = Candidate::from_txn(
            txn(
                "B",
                1,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "V1"],
                    tuple!["HIV", "gp120", "V2"],
                )],
            )
            .with_antecedents([id("A", 1)]),
        );
        let out = r.reconcile(vec![b], &open_policy()).unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].id, id("B", 1));
    }

    #[test]
    fn missing_antecedent_defers() {
        let mut r = Reconciler::new(schema());
        let orphan = Candidate::from_txn(
            txn("B", 2, vec![ins("HIV", "gp120", "V2")]).with_antecedents([id("Ghost", 1)]),
        );
        let out = r.reconcile(vec![orphan], &open_policy()).unwrap();
        assert_eq!(out.deferred, vec![id("B", 2)]);
    }

    #[test]
    fn deferred_dependent_still_deferred_if_other_blocker_remains() {
        let mut r = Reconciler::new(schema());
        // Two independent conflicts: (A1 vs B1) and (C1 vs D1).
        r.reconcile(
            vec![
                Candidate::from_txn(txn("A", 1, vec![ins("k1", "p", "va")])),
                Candidate::from_txn(txn("B", 1, vec![ins("k1", "p", "vb")])),
                Candidate::from_txn(txn("C", 1, vec![ins("k2", "p", "vc")])),
                Candidate::from_txn(txn("D", 1, vec![ins("k2", "p", "vd")])),
            ],
            &open_policy(),
        )
        .unwrap();
        // E depends on both deferred A1 and deferred C1.
        let e = Candidate::from_txn(
            txn("E", 1, vec![ins("k3", "p", "ve")]).with_antecedents([id("A", 1), id("C", 1)]),
        );
        r.reconcile(vec![e], &open_policy()).unwrap();
        assert_eq!(r.decision(&id("E", 1)), Some(Decision::Deferred));
        // Resolving only the first conflict leaves E deferred (C1 still is).
        let res = r.resolve(&id("A", 1)).unwrap();
        assert!(res.accepted.iter().any(|t| t.id == id("A", 1)));
        assert_eq!(r.decision(&id("E", 1)), Some(Decision::Deferred));
        // Resolving the second conflict releases E.
        let res = r.resolve(&id("C", 1)).unwrap();
        assert!(res.accepted.iter().any(|t| t.id == id("E", 1)));
    }

    #[test]
    fn resolution_rejects_losers_dependents() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![
                Candidate::from_txn(txn("A", 1, vec![ins("k", "p", "va")])),
                Candidate::from_txn(txn("B", 1, vec![ins("k", "p", "vb")])),
            ],
            &open_policy(),
        )
        .unwrap();
        // C depends on the soon-to-lose B.
        let c = Candidate::from_txn(
            txn("C", 1, vec![ins("k9", "p", "vc")]).with_antecedents([id("B", 1)]),
        );
        r.reconcile(vec![c], &open_policy()).unwrap();
        let res = r.resolve(&id("A", 1)).unwrap();
        assert!(res.rejected.contains(&id("B", 1)));
        assert!(res.rejected.contains(&id("C", 1)));
        assert_eq!(r.decision(&id("C", 1)), Some(Decision::Rejected));
    }

    #[test]
    fn three_way_same_priority_conflict_defers_all() {
        let mut r = Reconciler::new(schema());
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("A", 1, vec![ins("k", "p", "v1")])),
                    Candidate::from_txn(txn("B", 1, vec![ins("k", "p", "v2")])),
                    Candidate::from_txn(txn("C", 1, vec![ins("k", "p", "v3")])),
                ],
                &open_policy(),
            )
            .unwrap();
        assert_eq!(out.deferred.len(), 3);
        assert!(r.open_conflicts().len() >= 2);
    }

    #[test]
    fn note_local_enables_foreign_dependents() {
        let mut r = Reconciler::new(schema());
        // The peer's own published transaction.
        let local = txn("Me", 1, vec![ins("HIV", "gp120", "V1")]);
        r.note_local(&local).unwrap();
        assert_eq!(r.decision(&id("Me", 1)), Some(Decision::Accepted));
        // Registering it twice is an error.
        assert!(matches!(
            r.note_local(&local),
            Err(ReconcileError::DuplicateCandidate(_))
        ));
        // A foreign modification of the local data resolves its
        // antecedent and applies.
        let foreign = Candidate::from_txn(
            txn(
                "B",
                1,
                vec![Update::modify(
                    "OPS",
                    tuple!["HIV", "gp120", "V1"],
                    tuple!["HIV", "gp120", "V2"],
                )],
            )
            .with_antecedents([id("Me", 1)]),
        );
        let out = r.reconcile(vec![foreign], &open_policy()).unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert!(out.deferred.is_empty());
    }

    #[test]
    fn note_local_writes_guard_history() {
        let mut r = Reconciler::new(schema());
        r.note_local(&txn("Me", 1, vec![ins("HIV", "gp120", "MINE")]))
            .unwrap();
        // A causally unrelated foreign write to the same key conflicts
        // with the local data and is rejected — "selective disagreement":
        // the local instance wins.
        let foreign = Candidate::from_txn(txn("B", 1, vec![ins("HIV", "gp120", "THEIRS")]));
        let out = r.reconcile(vec![foreign], &open_policy()).unwrap();
        assert_eq!(out.rejected, vec![id("B", 1)]);
    }

    #[test]
    fn three_priority_levels_process_high_to_low() {
        use crate::trust::TrustCondition;
        let policy = TrustPolicy::closed()
            .with(TrustCondition::peer(PeerId::new("Gold"), 3))
            .with(TrustCondition::peer(PeerId::new("Silver"), 2))
            .with(TrustCondition::peer(PeerId::new("Bronze"), 1));
        let mut r = Reconciler::new(schema());
        // All three write the same key with different values.
        let out = r
            .reconcile(
                vec![
                    Candidate::from_txn(txn("Bronze", 1, vec![ins("k", "p", "bronze")])),
                    Candidate::from_txn(txn("Gold", 1, vec![ins("k", "p", "gold")])),
                    Candidate::from_txn(txn("Silver", 1, vec![ins("k", "p", "silver")])),
                ],
                &policy,
            )
            .unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].id, id("Gold", 1));
        // Both lower levels lose to accepted history — no deferrals.
        assert_eq!(out.rejected.len(), 2);
        assert!(out.deferred.is_empty());
    }

    #[test]
    fn deferred_list_and_decisions() {
        let mut r = Reconciler::new(schema());
        r.reconcile(
            vec![
                Candidate::from_txn(txn("A", 1, vec![ins("k", "p", "v1")])),
                Candidate::from_txn(txn("B", 1, vec![ins("k", "p", "v2")])),
            ],
            &open_policy(),
        )
        .unwrap();
        let deferred = r.deferred();
        assert_eq!(deferred.len(), 2);
        assert!(deferred.contains(&id("A", 1)));
    }
}
