//! Trust conditions and policies.
//!
//! "It uses user preferences, encoded as trust conditions, to associate
//! numerical priorities with applicable transaction groups. These trust
//! conditions are based on predicates over the contents and provenance of
//! updates." (§3)
//!
//! Encoding: a [`TrustPolicy`] is an ordered list of [`TrustCondition`]s
//! plus a default priority. Each update's priority is the **maximum** over
//! matching conditions (or the default when none match); a transaction's
//! priority is the **minimum** over its updates — a transaction is only as
//! trusted as its least trusted write. Priority [`DISTRUSTED`] (0) means
//! the transaction is never applied on its own.
//!
//! [`DISTRUSTED`]: crate::DISTRUSTED

use crate::candidate::Candidate;
use crate::Priority;
use orchestra_relational::{Predicate, Tuple};
use orchestra_updates::PeerId;
use std::fmt;
use std::sync::Arc;

/// One trust condition: if an update matches all constraints, it is
/// eligible for `priority`.
///
/// Peer constraints come in two strengths, and the distinction matters
/// (demonstration scenarios 2 and 3 pin it down):
///
/// * [`published_by`](Self::published_by) matches the peer that
///   **published** the transaction being reconciled. Crete's "trusts only
///   Beijing and Dresden" is about publishers: a modification published by
///   Beijing is trusted even when it touches data that originated at
///   (distrusted) Alaska — the Alaska antecedent is pulled in by the
///   dependency mechanism, not by trust.
/// * [`derived_from`](Self::derived_from) matches the **deep origins** of
///   the translated update — the peers whose base data appears in its
///   provenance lineage. Use this for conditions like "trust sequence data
///   only if it was assembled from UniProt-derived tables". Note that deep
///   lineage includes *every* alternative derivation, so a condition keyed
///   on `derived_from` can match an update that is also derivable from
///   other peers' data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustCondition {
    /// Restrict to updates against this relation (`None` = any relation).
    pub relation: Option<Arc<str>>,
    /// Restrict to transactions published by this peer.
    pub published_by: Option<PeerId>,
    /// Restrict to updates whose provenance lineage includes this peer.
    pub derived_from: Option<PeerId>,
    /// Predicate over the update's *written* tuple (for deletes, the
    /// removed tuple). [`Predicate::True`] matches everything.
    pub predicate: Predicate,
    /// Priority granted when the condition matches.
    pub priority: Priority,
}

impl TrustCondition {
    /// Trust everything **published by** a peer at a priority (the paper's
    /// "Crete trusts only Beijing and Dresden").
    pub fn peer(peer: impl Into<PeerId>, priority: Priority) -> Self {
        TrustCondition {
            relation: None,
            published_by: Some(peer.into()),
            derived_from: None,
            predicate: Predicate::True,
            priority,
        }
    }

    /// Trust everything whose provenance **derives from** a peer's data.
    pub fn derived_from(peer: impl Into<PeerId>, priority: Priority) -> Self {
        TrustCondition {
            relation: None,
            published_by: None,
            derived_from: Some(peer.into()),
            predicate: Predicate::True,
            priority,
        }
    }

    /// Trust updates to one relation at a priority.
    pub fn relation(relation: impl AsRef<str>, priority: Priority) -> Self {
        TrustCondition {
            relation: Some(Arc::from(relation.as_ref())),
            published_by: None,
            derived_from: None,
            predicate: Predicate::True,
            priority,
        }
    }

    /// Trust updates matching a content predicate at a priority.
    pub fn content(relation: impl AsRef<str>, predicate: Predicate, priority: Priority) -> Self {
        TrustCondition {
            relation: Some(Arc::from(relation.as_ref())),
            published_by: None,
            derived_from: None,
            predicate,
            priority,
        }
    }

    /// Builder: additionally require a publisher.
    pub fn with_publisher(mut self, peer: impl Into<PeerId>) -> Self {
        self.published_by = Some(peer.into());
        self
    }

    /// Does this condition match an update (by relation, publisher, deep
    /// origins, and content)? Predicate evaluation errors count as
    /// non-matching: a malformed trust condition must never block
    /// reconciliation.
    pub fn matches(
        &self,
        relation: &str,
        tuple: Option<&Tuple>,
        publisher: &PeerId,
        origins: &std::collections::BTreeSet<PeerId>,
    ) -> bool {
        if let Some(rel) = &self.relation {
            if &**rel != relation {
                return false;
            }
        }
        if let Some(peer) = &self.published_by {
            if peer != publisher {
                return false;
            }
        }
        if let Some(peer) = &self.derived_from {
            if !origins.contains(peer) {
                return false;
            }
        }
        match tuple {
            Some(t) => self.predicate.eval(t).unwrap_or(false),
            // No tuple to test (should not happen: every update has a
            // written or read version) — only content-free conditions match.
            None => self.predicate == Predicate::True,
        }
    }
}

impl fmt::Display for TrustCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trust")?;
        if let Some(r) = &self.relation {
            write!(f, " {r}")?;
        }
        if let Some(p) = &self.published_by {
            write!(f, " published by {p}")?;
        }
        if let Some(p) = &self.derived_from {
            write!(f, " derived from {p}")?;
        }
        if self.predicate != Predicate::True {
            write!(f, " where {}", self.predicate)?;
        }
        write!(f, " priority {}", self.priority)
    }
}

/// A peer's trust policy: ordered conditions plus a default priority for
/// unmatched updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustPolicy {
    /// The conditions.
    pub conditions: Vec<TrustCondition>,
    /// Priority of updates matching no condition. `DISTRUSTED` by default
    /// for a closed policy (paper's Crete), or a positive value for an
    /// open one (Alaska/Beijing/Dresden trust everyone equally).
    pub default_priority: Priority,
}

impl TrustPolicy {
    /// Trust everything at one priority (the paper's Alaska, Beijing and
    /// Dresden trust all other participants equally).
    pub fn open(priority: Priority) -> Self {
        TrustPolicy {
            conditions: vec![],
            default_priority: priority,
        }
    }

    /// Trust nothing except what conditions grant (the paper's Crete).
    pub fn closed() -> Self {
        TrustPolicy {
            conditions: vec![],
            default_priority: crate::DISTRUSTED,
        }
    }

    /// Builder: add a condition.
    pub fn with(mut self, cond: TrustCondition) -> Self {
        self.conditions.push(cond);
        self
    }

    /// Priority of a single update: max over matching conditions, else the
    /// default.
    pub fn update_priority(
        &self,
        update: &orchestra_updates::Update,
        publisher: &PeerId,
        origins: &std::collections::BTreeSet<PeerId>,
    ) -> Priority {
        let tuple = update.written_version().or_else(|| update.read_version());
        let best = self
            .conditions
            .iter()
            .filter(|c| c.matches(update.relation(), tuple, publisher, origins))
            .map(|c| c.priority)
            .max();
        best.unwrap_or(self.default_priority)
    }

    /// Priority of a candidate transaction: min over its updates (an empty
    /// transaction gets the default priority) — a transaction is only as
    /// trusted as its least trusted write.
    pub fn txn_priority(&self, candidate: &Candidate) -> Priority {
        let publisher = &candidate.txn.id.peer;
        candidate
            .updates()
            .map(|(u, origins)| self.update_priority(u, publisher, origins))
            .min()
            .unwrap_or(self.default_priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{Epoch, Transaction, TxnId, Update};
    use std::collections::BTreeSet;

    fn cand(peer: &str, updates: Vec<Update>) -> Candidate {
        Candidate::from_txn(Transaction::new(
            TxnId::new(PeerId::new(peer), 1),
            Epoch::new(1),
            updates,
        ))
    }

    #[test]
    fn open_policy_trusts_everyone() {
        let p = TrustPolicy::open(1);
        let c = cand("Anyone", vec![Update::insert("OPS", tuple!["a", "b", "c"])]);
        assert_eq!(p.txn_priority(&c), 1);
    }

    #[test]
    fn closed_policy_distrusts_unknown() {
        let p = TrustPolicy::closed();
        let c = cand("Alaska", vec![Update::insert("OPS", tuple!["a", "b", "c"])]);
        assert_eq!(p.txn_priority(&c), crate::DISTRUSTED);
    }

    #[test]
    fn crete_policy_prefers_beijing_over_dresden() {
        // The paper: "Crete trusts only Beijing and Dresden (but prefers
        // Beijing to Dresden in the event of a conflict)."
        let p = TrustPolicy::closed()
            .with(TrustCondition::peer(PeerId::new("Beijing"), 2))
            .with(TrustCondition::peer(PeerId::new("Dresden"), 1));
        let from_beijing = cand(
            "Beijing",
            vec![Update::insert("OPS", tuple!["a", "b", "c"])],
        );
        let from_dresden = cand(
            "Dresden",
            vec![Update::insert("OPS", tuple!["a", "b", "c"])],
        );
        let from_alaska = cand("Alaska", vec![Update::insert("OPS", tuple!["a", "b", "c"])]);
        assert_eq!(p.txn_priority(&from_beijing), 2);
        assert_eq!(p.txn_priority(&from_dresden), 1);
        assert_eq!(p.txn_priority(&from_alaska), crate::DISTRUSTED);
    }

    #[test]
    fn content_conditions() {
        use orchestra_relational::Predicate;
        let p = TrustPolicy::closed().with(TrustCondition::content(
            "OPS",
            Predicate::col_eq(0, "HIV"),
            3,
        ));
        let hiv = cand("X", vec![Update::insert("OPS", tuple!["HIV", "p", "s"])]);
        let other = cand("X", vec![Update::insert("OPS", tuple!["Rat", "p", "s"])]);
        assert_eq!(p.txn_priority(&hiv), 3);
        assert_eq!(p.txn_priority(&other), crate::DISTRUSTED);
    }

    #[test]
    fn relation_condition_and_max_over_conditions() {
        let p = TrustPolicy::closed()
            .with(TrustCondition::relation("OPS", 1))
            .with(TrustCondition::peer(PeerId::new("Beijing"), 2));
        let c = cand(
            "Beijing",
            vec![Update::insert("OPS", tuple!["a", "b", "c"])],
        );
        // Matches both; takes the max (2).
        assert_eq!(p.txn_priority(&c), 2);
    }

    #[test]
    fn txn_priority_is_min_over_updates() {
        let p = TrustPolicy::closed().with(TrustCondition::content(
            "OPS",
            Predicate::col_eq(0, "HIV"),
            2,
        ));
        use orchestra_relational::Predicate;
        let c = cand(
            "X",
            vec![
                Update::insert("OPS", tuple!["HIV", "p", "s"]), // priority 2
                Update::insert("OPS", tuple!["Rat", "p", "s"]), // priority 0
            ],
        );
        assert_eq!(p.txn_priority(&c), crate::DISTRUSTED);
    }

    #[test]
    fn delete_updates_test_removed_tuple() {
        let p = TrustPolicy::closed().with(TrustCondition::content(
            "OPS",
            Predicate::col_eq(0, "HIV"),
            1,
        ));
        use orchestra_relational::Predicate;
        let c = cand("X", vec![Update::delete("OPS", tuple!["HIV", "p", "s"])]);
        assert_eq!(p.txn_priority(&c), 1);
    }

    #[test]
    fn condition_with_publisher_and_relation() {
        let cond = TrustCondition::relation("OPS", 2).with_publisher(PeerId::new("Beijing"));
        let origins = BTreeSet::from([PeerId::new("Beijing")]);
        assert!(cond.matches(
            "OPS",
            Some(&tuple!["a", "b", "c"]),
            &PeerId::new("Beijing"),
            &origins
        ));
        assert!(!cond.matches(
            "OPS",
            Some(&tuple!["a", "b", "c"]),
            &PeerId::new("Alaska"),
            &origins
        ));
        assert!(!cond.matches(
            "O",
            Some(&tuple!["a", "b"]),
            &PeerId::new("Beijing"),
            &origins
        ));
    }

    #[test]
    fn malformed_predicate_never_matches() {
        use orchestra_relational::Predicate;
        // Column 99 does not exist: eval errors → no match (not a panic).
        let cond = TrustCondition::content("OPS", Predicate::col_eq(99, 1), 5);
        assert!(!cond.matches(
            "OPS",
            Some(&tuple!["a", "b", "c"]),
            &PeerId::new("X"),
            &BTreeSet::from([PeerId::new("X")])
        ));
    }

    #[test]
    fn publisher_trust_ignores_deep_origins() {
        // The scenario-3 semantics: a Beijing-published update over data
        // assembled from Alaska's tables is trusted because *Beijing
        // published it* — the distrusted antecedent is handled by the
        // dependency mechanism, not by trust.
        let p = TrustPolicy::closed().with(TrustCondition::peer(PeerId::new("Beijing"), 2));
        let c = Candidate::from_updates(
            TxnId::new(PeerId::new("Beijing"), 1),
            Epoch::new(1),
            vec![crate::candidate::CandidateUpdate::new(
                Update::insert("OPS", tuple!["a", "b", "c"]),
                [PeerId::new("Alaska"), PeerId::new("Beijing")],
            )],
            BTreeSet::new(),
        );
        assert_eq!(p.txn_priority(&c), 2);
    }

    #[test]
    fn derived_from_matches_deep_origins() {
        // A condition on deep lineage matches regardless of publisher.
        let p = TrustPolicy::closed().with(TrustCondition::derived_from(PeerId::new("Beijing"), 1));
        let via_beijing = Candidate::from_updates(
            TxnId::new(PeerId::new("Alaska"), 1),
            Epoch::new(1),
            vec![crate::candidate::CandidateUpdate::new(
                Update::insert("OPS", tuple!["a", "b", "c"]),
                [PeerId::new("Alaska"), PeerId::new("Beijing")],
            )],
            BTreeSet::new(),
        );
        assert_eq!(p.txn_priority(&via_beijing), 1);
        let not_via_beijing = Candidate::from_updates(
            TxnId::new(PeerId::new("Alaska"), 2),
            Epoch::new(1),
            vec![crate::candidate::CandidateUpdate::new(
                Update::insert("OPS", tuple!["a", "b", "d"]),
                [PeerId::new("Alaska")],
            )],
            BTreeSet::new(),
        );
        assert_eq!(p.txn_priority(&not_via_beijing), crate::DISTRUSTED);
    }

    #[test]
    fn display() {
        let cond = TrustCondition::peer(PeerId::new("Beijing"), 2);
        assert_eq!(cond.to_string(), "trust published by Beijing priority 2");
        let cond = TrustCondition::derived_from(PeerId::new("Alaska"), 1);
        assert_eq!(cond.to_string(), "trust derived from Alaska priority 1");
    }
}
