//! Transactions: the CDSS unit of propagation.

use crate::clock::Epoch;
use crate::update::{Update, WriteOutcome};
use crate::Result;
use orchestra_relational::{DatabaseSchema, Tuple};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One key a transaction writes: (relation, key columns of the tuple).
pub type WriteKey = (Arc<str>, Tuple);

/// A peer identifier (the participant's name, e.g. `"Alaska"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(Arc<str>);

impl PeerId {
    /// Build a peer id from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        PeerId(Arc::from(name.as_ref()))
    }

    /// The peer's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PeerId {
    fn from(s: &str) -> Self {
        PeerId::new(s)
    }
}

/// A globally unique transaction id: origin peer plus per-peer sequence
/// number. Ordering is (peer, seq), which is only a *display* order —
/// causality lives in the antecedent sets, not in id order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId {
    /// The publishing peer.
    pub peer: PeerId,
    /// The peer-local sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Build a transaction id.
    pub fn new(peer: impl Into<PeerId>, seq: u64) -> Self {
        TxnId {
            peer: peer.into(),
            seq,
        }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.peer, self.seq)
    }
}

/// A transaction: an atomic group of updates published by one peer, plus
/// the antecedent transactions its reads depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Globally unique id.
    pub id: TxnId,
    /// The epoch in which the transaction was published.
    pub epoch: Epoch,
    /// Updates in execution order.
    pub updates: Vec<Update>,
    /// Transactions whose writes this transaction's reads/overwrites depend
    /// on. Acceptance of this transaction requires acceptance of all of
    /// them (the paper's antecedent rule).
    pub antecedents: BTreeSet<TxnId>,
}

impl Transaction {
    /// Build a transaction with no antecedents.
    pub fn new(id: TxnId, epoch: Epoch, updates: Vec<Update>) -> Self {
        Transaction {
            id,
            epoch,
            updates,
            antecedents: BTreeSet::new(),
        }
    }

    /// Builder-style antecedent addition.
    pub fn with_antecedents<I: IntoIterator<Item = TxnId>>(mut self, ants: I) -> Self {
        self.antecedents.extend(ants);
        self
    }

    /// Validate every update against the schema.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        for u in &self.updates {
            let rel = schema
                .relation(u.relation())
                .map_err(crate::error::UpdateError::from)?;
            u.validate(rel)?;
        }
        Ok(())
    }

    /// The transaction's *write set*: for each (relation, key) written, the
    /// final outcome after applying the updates in order, in key order.
    pub fn write_set(&self, schema: &DatabaseSchema) -> Result<Vec<(WriteKey, WriteOutcome)>> {
        let mut out: Vec<(WriteKey, WriteOutcome)> = Vec::with_capacity(self.updates.len());
        for u in &self.updates {
            let rel = schema
                .relation(u.relation())
                .map_err(crate::error::UpdateError::from)?;
            out.push(((Arc::clone(u.relation()), u.key(rel)), u.outcome()));
        }
        // Stable, so a key's updates stay in order: keep the last outcome.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Ok(out)
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True iff the transaction carries no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn {} @{} [", self.id, self.epoch)?;
        for (i, u) in self.updates.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, "]")?;
        if !self.antecedents.is_empty() {
            write!(f, " deps{{")?;
            for (i, a) in self.antecedents.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::{tuple, RelationSchema, ValueType};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new("T")
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "S",
                    &[("k", ValueType::Int), ("v", ValueType::Str)],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap()
    }

    fn txn(peer: &str, seq: u64, updates: Vec<Update>) -> Transaction {
        Transaction::new(TxnId::new(PeerId::new(peer), seq), Epoch::new(1), updates)
    }

    #[test]
    fn txn_id_display_and_order() {
        let a = TxnId::new(PeerId::new("Alaska"), 1);
        let b = TxnId::new(PeerId::new("Alaska"), 2);
        let c = TxnId::new(PeerId::new("Beijing"), 1);
        assert_eq!(a.to_string(), "Alaska#1");
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn write_set_takes_last_outcome_per_key() {
        let t = txn(
            "A",
            1,
            vec![
                Update::insert("S", tuple![1, "a"]),
                Update::modify("S", tuple![1, "a"], tuple![1, "b"]),
                Update::insert("S", tuple![2, "x"]),
                Update::modify("S", tuple![1, "b"], tuple![1, "c"]),
            ],
        );
        let ws = t.write_set(&schema()).unwrap();
        assert_eq!(
            ws,
            vec![
                (
                    (Arc::from("S"), tuple![1]),
                    WriteOutcome::Present(tuple![1, "c"])
                ),
                (
                    (Arc::from("S"), tuple![2]),
                    WriteOutcome::Present(tuple![2, "x"])
                ),
            ]
        );
    }

    #[test]
    fn validate_propagates_update_errors() {
        let s = schema();
        let bad = txn("A", 1, vec![Update::insert("S", tuple![1])]);
        assert!(bad.validate(&s).is_err());
        let unknown = txn("A", 1, vec![Update::insert("X", tuple![1, "a"])]);
        assert!(unknown.validate(&s).is_err());
        let ok = txn("A", 1, vec![Update::insert("S", tuple![1, "a"])]);
        assert!(ok.validate(&s).is_ok());
    }

    #[test]
    fn antecedents_builder() {
        let t = txn("A", 2, vec![]).with_antecedents([TxnId::new(PeerId::new("B"), 1)]);
        assert!(t.antecedents.contains(&TxnId::new(PeerId::new("B"), 1)));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn display_includes_deps() {
        let t = txn("A", 1, vec![Update::insert("S", tuple![1, "a"])])
            .with_antecedents([TxnId::new(PeerId::new("B"), 7)]);
        let s = t.to_string();
        assert!(s.contains("txn A#1"));
        assert!(s.contains("+S(1, 'a')"));
        assert!(s.contains("deps{B#7}"));
    }
}
