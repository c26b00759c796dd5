//! The greedy reconciliation algorithm with deferral and manual resolution.

use crate::candidate::Candidate;
use crate::error::ReconcileError;
use crate::state::Decision;
use crate::trust::TrustPolicy;
use crate::{Priority, Result, DISTRUSTED};
use orchestra_relational::{DatabaseSchema, Tuple};
use orchestra_updates::{DepGraph, Transaction, TxnId, WriteOutcome};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// One transaction's write set: (relation, key) → final outcome.
type WriteSet = BTreeMap<(Arc<str>, Tuple), WriteOutcome>;

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

/// Per-peer reconciliation engine. Owns the peer's persistent decision
/// state across epochs: decisions, the transaction dependency graph, the
/// pool of seen candidates, accepted write history, and open conflicts.
#[derive(Debug, Clone)]
pub struct Reconciler {
    schema: DatabaseSchema,
    decisions: BTreeMap<TxnId, Decision>,
    graph: DepGraph,
    pool: BTreeMap<TxnId, Candidate>,
    /// (relation, key) → (last accepted writer, outcome).
    accepted_writes: BTreeMap<(Arc<str>, Tuple), (TxnId, WriteOutcome)>,
    /// Open same-priority conflicts awaiting the administrator.
    conflicts: Vec<(TxnId, TxnId)>,
    /// Memoized per-transaction write sets (immutable once computed: the
    /// transaction and schema never change). Saves recomputing key
    /// projections in every phase that looks at the same candidate.
    write_sets: HashMap<TxnId, Arc<WriteSet>>,
    /// *Settled* transactions: accepted, with every antecedent settled
    /// when they were — so their whole antecedent closure is accepted,
    /// and since acceptance is final it stays so. Antecedent walks stop
    /// here, which bounds them by open work instead of by history. Plain
    /// "accepted" would not do: a local transaction may cite a deferred
    /// one ([`Reconciler::note_local`]).
    settled: HashSet<TxnId>,
}

impl Reconciler {
    /// A fresh reconciler for a peer with the given (local) schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        Reconciler {
            schema,
            decisions: BTreeMap::new(),
            graph: DepGraph::new(),
            pool: BTreeMap::new(),
            accepted_writes: BTreeMap::new(),
            conflicts: Vec::new(),
            write_sets: HashMap::new(),
            settled: HashSet::new(),
        }
    }

    /// The memoized write set of a pooled candidate.
    fn write_set_of(&mut self, id: &TxnId) -> Result<Arc<WriteSet>> {
        if let Some(ws) = self.write_sets.get(id) {
            return Ok(Arc::clone(ws));
        }
        let ws = Arc::new(
            self.pool[id]
                .txn
                .write_set(&self.schema)
                .map_err(ReconcileError::from)?,
        );
        self.write_sets.insert(id.clone(), Arc::clone(&ws));
        Ok(ws)
    }

    /// The recorded decision for a transaction, if any. Distrusted
    /// candidates stay undecided.
    pub fn decision(&self, id: &TxnId) -> Option<Decision> {
        self.decisions.get(id).copied()
    }

    /// Currently deferred transactions, in id order.
    pub fn deferred(&self) -> Vec<TxnId> {
        self.decisions
            .iter()
            .filter(|(_, d)| **d == Decision::Deferred)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Open conflict pairs awaiting resolution.
    pub fn open_conflicts(&self) -> &[(TxnId, TxnId)] {
        &self.conflicts
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
        if self.decisions.contains_key(&txn.id) {
            return Err(ReconcileError::DuplicateCandidate(txn.id.to_string()));
        }
        self.graph
            .insert(txn.id.clone(), txn.antecedents.clone())
            .map_err(ReconcileError::from)?;
        self.record_accepted(txn.id.clone())?;
        let ws = txn.write_set(&self.schema).map_err(ReconcileError::from)?;
        for (key, outcome) in ws {
            self.accepted_writes.insert(key, (txn.id.clone(), outcome));
        }
        Ok(())
    }

    /// One reconciliation pass over newly translated candidates, under the
    /// peer's trust policy (Taylor & Ives' greedy algorithm).
    pub fn reconcile(
        &mut self,
        candidates: Vec<Candidate>,
        policy: &TrustPolicy,
    ) -> Result<ReconcileOutcome> {
        // Register candidates: pool + dependency graph.
        let mut level_map: BTreeMap<Priority, Vec<TxnId>> = BTreeMap::new();
        for c in candidates {
            let id = c.id().clone();
            if self.pool.contains_key(&id) {
                return Err(ReconcileError::DuplicateCandidate(id.to_string()));
            }
            self.graph
                .insert(id.clone(), c.txn.antecedents.clone())
                .map_err(ReconcileError::from)?;
            let priority = policy.txn_priority(&c);
            self.pool.insert(id.clone(), c);
            if priority > DISTRUSTED {
                level_map.entry(priority).or_default().push(id);
            }
        }

        let mut outcome = ReconcileOutcome::default();
        // Process levels from highest to lowest priority.
        for (_priority, ids) in level_map.into_iter().rev() {
            self.process_level(&ids, &mut outcome)?;
        }
        Ok(outcome)
    }

    fn process_level(&mut self, ids: &[TxnId], outcome: &mut ReconcileOutcome) -> Result<()> {
        // Phase a: classify candidates by antecedent state; build groups
        // (with their net write maps, computed once) for the eligible ones.
        let mut eligible: Vec<(TxnId, BTreeSet<TxnId>, GroupWrites)> = Vec::new();
        for id in ids {
            if self.decisions.contains_key(id) {
                continue; // Pulled in (or cascaded) earlier this pass.
            }
            match self.classify_antecedents(id)? {
                AntecedentState::Rejected => {
                    self.record(id.clone(), Decision::Rejected);
                    outcome.rejected.push(id.clone());
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.record(id.clone(), Decision::Deferred);
                    outcome.deferred.push(id.clone());
                }
                AntecedentState::Ready(group) => {
                    let writes = self.group_writes(&group)?;
                    eligible.push((id.clone(), group, writes));
                }
            }
        }

        // Phase b: conflicts among same-level groups → defer both (the
        // administrator must pick — paper §3). Rather than all-pairs
        // write-set comparison, index writers by key: only groups writing
        // a common key can conflict.
        let mut deferred_now: BTreeSet<TxnId> = BTreeSet::new();
        {
            // key → [(eligible index, writer, outcome)].
            type WritersByKey<'a> =
                BTreeMap<&'a (Arc<str>, Tuple), Vec<(usize, &'a TxnId, &'a WriteOutcome)>>;
            let mut by_key: WritersByKey<'_> = BTreeMap::new();
            for (idx, (_, _, writes)) in eligible.iter().enumerate() {
                for (key, (writer, w_outcome)) in writes {
                    by_key
                        .entry(key)
                        .or_default()
                        .push((idx, writer, w_outcome));
                }
            }
            // Hot keys make this loop quadratic in their writer count:
            // collect conflicting index pairs into a Vec and sort+dedup at
            // the end (same set and order a BTreeSet would have produced).
            // Every writer is an undecided candidate, so each relatedness
            // walk skips settled history.
            let mut conflicting_pairs: Vec<(usize, usize)> = Vec::new();
            for writers in by_key.values() {
                if writers.len() < 2 {
                    continue;
                }
                for a in 0..writers.len() {
                    for b in (a + 1)..writers.len() {
                        let (ia, wa, oa) = writers[a];
                        let (ib, wb, ob) = writers[b];
                        if ia == ib || oa == ob {
                            continue;
                        }
                        if !self.causally_related(wa, wb)? {
                            conflicting_pairs.push((ia.min(ib), ia.max(ib)));
                        }
                    }
                }
            }
            conflicting_pairs.sort_unstable();
            conflicting_pairs.dedup();
            for (ia, ib) in conflicting_pairs {
                let id_a = eligible[ia].0.clone();
                let id_b = eligible[ib].0.clone();
                self.conflicts.push((id_a.clone(), id_b.clone()));
                deferred_now.insert(id_a);
                deferred_now.insert(id_b);
            }
        }
        for id in &deferred_now {
            self.record(id.clone(), Decision::Deferred);
            outcome.deferred.push(id.clone());
        }

        // Phase c: accept survivors greedily (deterministic id order from
        // phase a), rejecting those that conflict with accepted history.
        for (id, group, writes) in eligible {
            if deferred_now.contains(&id) {
                continue;
            }
            if self.decisions.contains_key(&id) {
                continue; // Became accepted as part of an earlier group.
            }
            if self.writes_conflict_with_history(&writes)? {
                self.record(id.clone(), Decision::Rejected);
                outcome.rejected.push(id);
                continue;
            }
            self.accept_group(&group, outcome)?;
        }
        Ok(())
    }

    /// Classify a candidate by the decisions on its antecedent closure.
    ///
    /// Walks only the *open* part of the closure: settled transactions
    /// are not expanded, because everything behind them is accepted —
    /// it can neither block the candidate nor join its group. The first
    /// blocker in id order decides, exactly as over the whole closure.
    fn classify_antecedents(&self, id: &TxnId) -> Result<AntecedentState> {
        let closure = self.open_antecedents(id)?;
        let mut group: BTreeSet<TxnId> = BTreeSet::from([id.clone()]);
        for ant in closure {
            match self.decisions.get(&ant) {
                Some(Decision::Rejected) => return Ok(AntecedentState::Rejected),
                Some(Decision::Deferred) => return Ok(AntecedentState::Deferred),
                Some(Decision::Accepted) => {} // Already applied; not in group.
                None => {
                    if self.pool.contains_key(&ant) {
                        group.insert(ant); // Undecided candidate: pull in.
                    } else {
                        // Forward reference to a transaction never seen.
                        return Ok(AntecedentState::Missing);
                    }
                }
            }
        }
        Ok(AntecedentState::Ready(group))
    }

    /// The net writes of a group: apply members in dependency order,
    /// last-writer-wins per key. Returns (key → (writer, outcome)).
    fn group_writes(&mut self, group: &BTreeSet<TxnId>) -> Result<GroupWrites> {
        let mut out: GroupWrites = BTreeMap::new();
        // Fast path: singleton groups (the common case) need no
        // ordering. An empty group falls through to the general path,
        // which yields an empty write set.
        if group.len() == 1 {
            if let Some(id) = group.iter().next().cloned() {
                for (key, outcome) in self.write_set_of(&id)?.iter() {
                    out.insert(key.clone(), (id.clone(), outcome.clone()));
                }
                return Ok(out);
            }
        }
        let order = subgraph_topo_order(&self.graph, group)?;
        for id in order {
            let ws = self.write_set_of(&id)?;
            for (key, outcome) in ws.iter() {
                out.insert(key.clone(), (id.clone(), outcome.clone()));
            }
        }
        Ok(out)
    }

    /// `id`'s antecedent closure (excluding `id`) minus everything behind
    /// a settled transaction, settled ones included.
    fn open_antecedents(&self, id: &TxnId) -> Result<BTreeSet<TxnId>> {
        let mut seen: BTreeSet<TxnId> = BTreeSet::new();
        let mut queue: VecDeque<&TxnId> = VecDeque::from([id]);
        while let Some(cur) = queue.pop_front() {
            for a in self
                .graph
                .antecedents_of(cur)
                .map_err(ReconcileError::from)?
            {
                if !self.settled.contains(a) && seen.insert(a.clone()) {
                    queue.push_back(a);
                }
            }
        }
        seen.remove(id);
        Ok(seen)
    }

    /// Is `target` in `from`'s antecedent closure? A depth-first walk
    /// that stops at the first sighting. An unsettled target cannot lie
    /// behind settled history, so then settled transactions are not
    /// expanded either.
    fn reaches(&self, from: &TxnId, target: &TxnId) -> Result<bool> {
        let prune = !self.settled.contains(target);
        let mut seen: HashSet<&TxnId> = HashSet::new();
        let mut stack: Vec<&TxnId> = vec![from];
        while let Some(cur) = stack.pop() {
            for a in self
                .graph
                .antecedents_of(cur)
                .map_err(ReconcileError::from)?
            {
                if a == target {
                    return Ok(true);
                }
                if !(prune && self.settled.contains(a)) && seen.insert(a) {
                    stack.push(a);
                }
            }
        }
        Ok(false)
    }

    fn causally_related(&self, a: &TxnId, b: &TxnId) -> Result<bool> {
        Ok(a == b || self.reaches(a, b)? || self.reaches(b, a)?)
    }

    /// Does the group clash with the already-accepted write history?
    /// A dependent overwriting its accepted antecedent's data is fine.
    fn group_conflicts_with_history(&mut self, group: &BTreeSet<TxnId>) -> Result<bool> {
        let writes = self.group_writes(group)?;
        self.writes_conflict_with_history(&writes)
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

    /// Accept every member of a group, in dependency order.
    fn accept_group(
        &mut self,
        group: &BTreeSet<TxnId>,
        outcome: &mut ReconcileOutcome,
    ) -> Result<()> {
        let order = subgraph_topo_order(&self.graph, group)?;
        for id in order {
            if self.decisions.get(&id) == Some(&Decision::Accepted) {
                continue;
            }
            self.record_accepted(id.clone())?;
            let ws = self.write_set_of(&id)?;
            for (key, w_outcome) in ws.iter() {
                self.accepted_writes
                    .insert(key.clone(), (id.clone(), w_outcome.clone()));
            }
            outcome.accepted.push(self.pool[&id].txn.clone());
        }
        Ok(())
    }

    fn record(&mut self, id: TxnId, d: Decision) {
        self.decisions.insert(id, d);
    }

    /// Record an acceptance, settling the transaction when all its
    /// antecedents are settled (members of a group are accepted in
    /// dependency order, so in-group antecedents come first).
    fn record_accepted(&mut self, id: TxnId) -> Result<()> {
        let ants = self
            .graph
            .antecedents_of(&id)
            .map_err(ReconcileError::from)?;
        if ants.iter().all(|a| self.settled.contains(a)) {
            self.settled.insert(id.clone());
        }
        self.record(id, Decision::Accepted);
        Ok(())
    }

    /// Manually resolve deferred conflicts in favor of `winner`.
    ///
    /// Per the paper: the winner is applied; deferred transactions that
    /// transitively depend on it are applied automatically; the losers
    /// (deferred transactions in open conflict with the winner) and all
    /// their dependents are rejected.
    pub fn resolve(&mut self, winner: &TxnId) -> Result<ResolveOutcome> {
        if self.decisions.get(winner) != Some(&Decision::Deferred) {
            return Err(ReconcileError::NotDeferred(winner.to_string()));
        }
        let mut out = ResolveOutcome::default();

        // Losers: deferred counterparts in open conflicts with the winner.
        let mut losers: BTreeSet<TxnId> = BTreeSet::new();
        for (a, b) in &self.conflicts {
            if a == winner && self.decisions.get(b) == Some(&Decision::Deferred) {
                losers.insert(b.clone());
            } else if b == winner && self.decisions.get(a) == Some(&Decision::Deferred) {
                losers.insert(a.clone());
            }
        }

        // Reject losers and their dependents (deferred or undecided).
        for loser in &losers {
            self.record(loser.clone(), Decision::Rejected);
            out.rejected.push(loser.clone());
            let deps = self
                .graph
                .dependent_closure(loser)
                .map_err(ReconcileError::from)?;
            for d in deps {
                match self.decisions.get(&d) {
                    Some(Decision::Deferred) | None
                        if (self.pool.contains_key(&d) || self.decisions.contains_key(&d)) =>
                    {
                        self.record(d.clone(), Decision::Rejected);
                        out.rejected.push(d);
                    }
                    _ => {}
                }
            }
        }
        // Drop resolved conflict pairs.
        self.conflicts.retain(|(a, b)| {
            self.decisions.get(a) == Some(&Decision::Deferred)
                && self.decisions.get(b) == Some(&Decision::Deferred)
        });

        // Accept the winner (group semantics: pull undecided antecedents).
        self.decisions.remove(winner); // Allow classify/accept to re-run.
        match self.classify_antecedents(winner)? {
            AntecedentState::Ready(group) => {
                let mut tmp = ReconcileOutcome::default();
                self.accept_group(&group, &mut tmp)?;
                out.accepted.extend(tmp.accepted);
            }
            _ => {
                // Antecedents rejected/missing even after resolution: the
                // administrator's choice cannot be applied.
                self.record(winner.clone(), Decision::Rejected);
                out.rejected.push(winner.clone());
                return Ok(out);
            }
        }

        // Cascade: deferred dependents of the winner, in dependency order.
        let deps = self
            .graph
            .dependent_closure(winner)
            .map_err(ReconcileError::from)?;
        let deferred_deps: BTreeSet<TxnId> = deps
            .into_iter()
            .filter(|d| self.decisions.get(d) == Some(&Decision::Deferred))
            .collect();
        let order = subgraph_topo_order(&self.graph, &deferred_deps)?;
        for dep in order {
            if self.decisions.get(&dep) != Some(&Decision::Deferred) {
                continue;
            }
            self.decisions.remove(&dep);
            match self.classify_antecedents(&dep)? {
                AntecedentState::Ready(group) => {
                    if self.group_conflicts_with_history(&group)? {
                        self.record(dep.clone(), Decision::Rejected);
                        out.rejected.push(dep);
                    } else {
                        let mut tmp = ReconcileOutcome::default();
                        self.accept_group(&group, &mut tmp)?;
                        out.accepted.extend(tmp.accepted);
                    }
                }
                AntecedentState::Rejected => {
                    self.record(dep.clone(), Decision::Rejected);
                    out.rejected.push(dep);
                }
                AntecedentState::Deferred | AntecedentState::Missing => {
                    self.record(dep.clone(), Decision::Deferred);
                }
            }
        }
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
    Ready(BTreeSet<TxnId>),
}

/// A group's net writes: key → (last writer within the group, outcome).
type GroupWrites = BTreeMap<(Arc<str>, Tuple), (TxnId, WriteOutcome)>;

/// Topological order of `subset` using only dependency edges *within* the
/// subset — O(|subset| + edges) instead of ordering the whole graph.
fn subgraph_topo_order(
    graph: &orchestra_updates::DepGraph,
    subset: &BTreeSet<TxnId>,
) -> Result<Vec<TxnId>> {
    let mut in_deg: BTreeMap<&TxnId, usize> = BTreeMap::new();
    for id in subset {
        let ants = graph.antecedents_of(id).map_err(ReconcileError::from)?;
        in_deg.insert(id, ants.iter().filter(|a| subset.contains(*a)).count());
    }
    let mut ready: std::collections::VecDeque<&TxnId> = in_deg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(id, _)| *id)
        .collect();
    let mut out: Vec<TxnId> = Vec::with_capacity(subset.len());
    while let Some(id) = ready.pop_front() {
        out.push(id.clone());
        for dep in graph.dependents_of(id).map_err(ReconcileError::from)? {
            if let Some(d) = in_deg.get_mut(dep) {
                *d = d.saturating_sub(1);
                if *d == 0 {
                    ready.push_back(dep);
                }
            }
        }
    }
    if out.len() != subset.len() {
        return Err(ReconcileError::Updates(
            "dependency cycle among transactions".into(),
        ));
    }
    Ok(out)
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
