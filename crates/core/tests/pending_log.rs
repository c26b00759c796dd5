//! The pending-edit log against the design it replaced.
//!
//! A peer used to keep a second copy of its instance — the last published
//! snapshot — and `publish` found its edits by diffing one whole copy
//! against the other and pairing a deletion and an insertion of one key
//! into a modify. That design survives here as the reference: the tests
//! keep their own copy of the published state, move it the way the
//! snapshot moved (replaced by the instance after each `publish`, updated
//! by every transaction the peer accepted) — except that an explicit
//! transaction publishes only the keys it wrote — and require `publish`
//! to emit what the diff would have, update for update and in order.

use orchestra_core::Cdss;
use orchestra_datalog::Tgd;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{
    tuple, DatabaseSchema, Instance, RelationSchema, Tuple, Value, ValueType,
};
use orchestra_store::{FetchCursor, FetchPage, InMemoryStore, StoreError, StoreStats, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Two keyed relations, so relation order matters too.
const RELS: [&str; 2] = ["R", "Q"];
const KEYS: i64 = 3;

fn schema() -> DatabaseSchema {
    let mut db = DatabaseSchema::new("kv");
    for name in RELS {
        let rel = RelationSchema::from_parts_keyed(
            name,
            &[("k", ValueType::Int), ("v", ValueType::Int)],
            &["k"],
        );
        db.add_relation(rel.unwrap()).unwrap();
    }
    db
}

/// `A` is the peer under test; `B` and `C` feed it through copy mappings
/// at equal trust, so their conflicting writes defer until resolved.
fn network(store: Arc<dyn UpdateStore>) -> Cdss {
    let mut b = Cdss::builder();
    for peer in ["A", "B", "C"] {
        b = b.peer(peer, schema(), TrustPolicy::open(1));
    }
    for src in ["B", "C"] {
        for rel in RELS {
            let name = format!("{src}.{rel}->A");
            let tgd = Tgd::identity(name, format!("{src}.{rel}"), format!("A.{rel}"), 2);
            b = b.mapping(tgd.unwrap());
        }
    }
    b.build_with_shared(store).unwrap()
}

/// The old `publish`: diff `published` against `current` per relation in
/// schema order, pair same-key delete + insert into a modify (in the
/// inserted tuples' key order), then the unpaired deletes in key order.
fn diff_and_pair(published: &Instance, current: &Instance) -> Vec<Update> {
    let mut updates = Vec::new();
    for rel_schema in current.schema().relations() {
        let name = rel_schema.name();
        let old_rel = published.relation(name).unwrap();
        let new_rel = current.relation(name).unwrap();
        let mut dels_by_key: BTreeMap<Tuple, Tuple> = old_rel
            .iter()
            .filter(|t| !new_rel.contains(t))
            .map(|t| (rel_schema.key_of(t), t.clone()))
            .collect();
        for ins in new_rel.iter().filter(|t| !old_rel.contains(t)) {
            match dels_by_key.remove(&rel_schema.key_of(ins)) {
                Some(old) => updates.push(Update::modify(name, old, ins.clone())),
                None => updates.push(Update::insert(name, ins.clone())),
            }
        }
        for (_, old) in dels_by_key {
            updates.push(Update::delete(name, old));
        }
    }
    updates
}

#[derive(Debug, Clone)]
enum Edit {
    Insert,
    Upsert,
    DeleteExact,
    DeleteByKey,
    /// Put the key back to its published tuple (edit-then-revert).
    Revert,
    /// Delete the key and insert the same tuple again.
    Reinsert,
}

#[derive(Debug, Clone)]
enum Step {
    /// A local edit at `A` through `instance_mut()`.
    Local {
        edit: Edit,
        rel: usize,
        k: i64,
        v: i64,
    },
    Publish,
    /// `A` publishes an explicit transaction over `k` in both relations.
    PublishTxns {
        k: i64,
        v: i64,
        delete: bool,
    },
    /// `B` (or, less often, `C`) publishes a transaction over `k` in
    /// `rel`. One key only: whatever `A` has itself published on a key
    /// conflicts with every later remote write to it, and a wider
    /// transaction would carry that rejection over to its other keys.
    /// With `aim`, the key is one `A` has an unpublished edit on, if
    /// there is one: that is where the two kinds of change meet.
    Remote {
        c: bool,
        rel: usize,
        k: i64,
        delete: bool,
        aim: bool,
    },
    Reconcile,
    /// Resolve `A`'s first open conflict for one side or the other.
    Resolve {
        second: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let edit = prop_oneof![
        Just(Edit::Insert),
        Just(Edit::Upsert),
        Just(Edit::DeleteExact),
        Just(Edit::DeleteByKey),
        Just(Edit::Revert),
        Just(Edit::Reinsert),
    ];
    let local = || {
        (edit.clone(), 0usize..2, 0..KEYS, 0i64..3).prop_map(|(edit, rel, k, v)| Step::Local {
            edit,
            rel,
            k,
            v,
        })
    };
    let remote = || {
        (0u8..4, 0usize..2, 0..KEYS, any::<bool>(), any::<bool>()).prop_map(
            |(c, rel, k, delete, aim)| Step::Remote {
                c: c == 0,
                rel,
                k,
                delete,
                aim,
            },
        )
    };
    // Arms are drawn uniformly: repeat the common steps.
    prop_oneof![
        local(),
        local(),
        local(),
        Just(Step::Publish),
        (0..KEYS, 0i64..3, any::<bool>()).prop_map(|(k, v, delete)| Step::PublishTxns {
            k,
            v,
            delete
        }),
        remote(),
        remote(),
        remote(),
        Just(Step::Reconcile),
        Just(Step::Reconcile),
        any::<bool>().prop_map(|second| Step::Resolve { second }),
    ]
}

/// The system plus the reference's copy of `A`'s published state.
struct Harness {
    cdss: Cdss,
    a: PeerId,
    published: Instance,
    /// Remote peers write values nothing else ever writes, so a
    /// transaction translates to `A` as exactly the updates it was
    /// published with (checked on every exchange).
    fresh: i64,
}

type Check = Result<(), TestCaseError>;

impl Harness {
    fn new() -> Harness {
        Harness {
            cdss: network(Arc::new(InMemoryStore::new())),
            a: PeerId::new("A"),
            published: Instance::new(schema()),
            fresh: 1000,
        }
    }

    fn instance(&self, peer: &PeerId) -> &Instance {
        self.cdss.peer(peer).unwrap().instance()
    }

    /// Updates over the given keys that are valid against `peer`'s
    /// instance: modify or delete what is there, insert what is not.
    fn valid_updates(
        &self,
        peer: &PeerId,
        keys: &[(usize, i64)],
        v: i64,
        delete: bool,
    ) -> Vec<Update> {
        keys.iter()
            .map(|&(rel, k)| {
                let name = RELS[rel];
                let current = self.instance(peer).relation(name).unwrap();
                match current.get_by_key(&tuple![k]) {
                    None => Update::insert(name, tuple![k, v]),
                    Some(old) if delete || old[1] == Value::Int(v) => {
                        Update::delete(name, old.clone())
                    }
                    Some(old) => Update::modify(name, old.clone(), tuple![k, v]),
                }
            })
            .collect()
    }

    fn local(&mut self, edit: Edit, rel: usize, k: i64, v: i64) {
        let published = self.published.relation(RELS[rel]).unwrap();
        let published = published.get_by_key(&tuple![k]).cloned();
        let inst = self.cdss.peer_mut(&self.a).unwrap().instance_mut();
        match edit {
            // A key conflict is an error and no edit.
            Edit::Insert => drop(inst.insert(RELS[rel], tuple![k, v])),
            Edit::Upsert => drop(inst.upsert(RELS[rel], tuple![k, v]).unwrap()),
            Edit::DeleteExact => drop(inst.delete(RELS[rel], &tuple![k, v]).unwrap()),
            Edit::DeleteByKey => {
                inst.relation_mut(RELS[rel])
                    .unwrap()
                    .delete_by_key(&tuple![k]);
            }
            Edit::Revert => match published {
                Some(t) => drop(inst.upsert(RELS[rel], t).unwrap()),
                None => drop(
                    inst.relation_mut(RELS[rel])
                        .unwrap()
                        .delete_by_key(&tuple![k]),
                ),
            },
            Edit::Reinsert => {
                let rel = inst.relation_mut(RELS[rel]).unwrap();
                if let Some(t) = rel.delete_by_key(&tuple![k]) {
                    assert!(rel.insert(t).unwrap());
                }
            }
        }
    }

    fn publish(&mut self) -> Check {
        let want = diff_and_pair(&self.published, self.instance(&self.a));
        let got = match self.cdss.publish(&self.a).unwrap() {
            Some(id) => self.cdss.store().fetch(&id).unwrap().unwrap().updates,
            None => vec![],
        };
        prop_assert_eq!(got, want);
        self.published = self.instance(&self.a).clone();
        Ok(())
    }

    fn publish_txns(&mut self, k: i64, v: i64, delete: bool) {
        let updates = self.valid_updates(&self.a, &[(0, k), (1, k)], v, delete);
        self.cdss
            .publish_transactions(&self.a, vec![updates])
            .unwrap();
        // Only the keys the transaction wrote are published now: an edit
        // pending on any other key is still the next `publish`'s.
        for rel in RELS {
            let now = self.instance(&self.a).relation(rel).unwrap();
            let now = now.get_by_key(&tuple![k]).cloned();
            let published = self.published.relation_mut(rel).unwrap();
            match now {
                Some(t) => drop(published.upsert(t).unwrap()),
                None => drop(published.delete_by_key(&tuple![k])),
            }
        }
    }

    fn remote(&mut self, c: bool, rel: usize, mut k: i64, delete: bool, aim: bool) {
        let peer = PeerId::new(if c { "C" } else { "B" });
        self.fresh += 1;
        let current = self.instance(&self.a).relation(RELS[rel]).unwrap();
        let published = self.published.relation(RELS[rel]).unwrap();
        let edited: Vec<i64> = (0..KEYS)
            .filter(|k| current.get_by_key(&tuple![*k]) != published.get_by_key(&tuple![*k]))
            .collect();
        if aim && !edited.is_empty() {
            k = edited[k as usize % edited.len()];
        }
        let updates = self.valid_updates(&peer, &[(rel, k)], self.fresh, delete);
        self.cdss
            .publish_transactions(&peer, vec![updates])
            .unwrap();
    }

    /// The snapshot took every accepted update right after the instance
    /// did; the reference does the same with the transactions as archived.
    fn accept(&mut self, before: Instance, accepted: &[Transaction]) -> Check {
        let mut expect = before;
        for u in accepted.iter().flat_map(|t| &t.updates) {
            u.apply(&mut expect).unwrap();
            u.apply(&mut self.published).unwrap();
        }
        prop_assert_eq!(
            &expect,
            self.instance(&self.a),
            "translation changed an update"
        );
        Ok(())
    }

    fn reconcile(&mut self) -> Check {
        let before = self.instance(&self.a).clone();
        let report = self.cdss.reconcile(&self.a).unwrap();
        let fetch = |id: &TxnId| self.cdss.store().fetch(id).unwrap().unwrap();
        let accepted: Vec<Transaction> = report.outcome.accepted.iter().map(fetch).collect();
        self.accept(before, &accepted)
    }

    fn resolve(&mut self, second: bool) -> Check {
        let peer = self.cdss.peer(&self.a).unwrap();
        let Some((x, y)) = peer.open_conflicts().first().cloned() else {
            return Ok(());
        };
        let before = self.instance(&self.a).clone();
        let winner = if second { y } else { x };
        let report = self.cdss.resolve(&self.a, &winner).unwrap();
        self.accept(before, &report.outcome.accepted)
    }

    fn run(&mut self, step: Step) -> Check {
        match step {
            Step::Local { edit, rel, k, v } => self.local(edit, rel, k, v),
            Step::Publish => self.publish()?,
            Step::PublishTxns { k, v, delete } => self.publish_txns(k, v, delete),
            Step::Remote {
                c,
                rel,
                k,
                delete,
                aim,
            } => self.remote(c, rel, k, delete, aim),
            Step::Reconcile => self.reconcile()?,
            Step::Resolve { second } => self.resolve(second)?,
        }
        Ok(())
    }
}

proptest! {
    /// Any interleaving of local edits, both kinds of publish, remote
    /// publishes, exchanges and resolutions: `publish` emits what the
    /// snapshot diff would have.
    #[test]
    fn publish_emits_what_the_snapshot_diff_did(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let mut h = Harness::new();
        for step in steps {
            h.run(step)?;
        }
        // Whatever is left is announced once, and then nothing is.
        h.publish()?;
        prop_assert_eq!(h.cdss.publish(&h.a).unwrap(), None);
    }
}

fn updates_of(cdss: &Cdss, id: &TxnId) -> Vec<Update> {
    cdss.store().fetch(id).unwrap().unwrap().updates
}

#[test]
fn nothing_pending_publishes_nothing_and_leaves_the_clock_alone() {
    let mut cdss = network(Arc::new(InMemoryStore::new()));
    let a = PeerId::new("A");
    assert_eq!(cdss.publish(&a).unwrap(), None);
    let inst = cdss.peer_mut(&a).unwrap().instance_mut();
    inst.insert("R", tuple![1, 1]).unwrap();
    inst.delete("R", &tuple![1, 1]).unwrap();
    let epoch = cdss.current_epoch();
    assert_eq!(cdss.publish(&a).unwrap(), None);
    assert_eq!(cdss.current_epoch(), epoch);
    assert_eq!(cdss.stats().published_txns, 0);
}

/// An explicit transaction publishes only the keys it wrote: an
/// `instance_mut()` edit pending on another key is still announced by
/// the next `publish()` and reaches the peer downstream.
#[test]
fn an_explicit_transaction_leaves_edits_on_other_keys_pending() {
    let mut builder = Cdss::builder();
    for peer in ["A", "B"] {
        builder = builder.peer(peer, schema(), TrustPolicy::open(1));
    }
    let tgd = Tgd::identity("A.R->B", "A.R", "B.R", 2).unwrap();
    let store = Arc::new(InMemoryStore::new());
    let mut cdss = builder.mapping(tgd).build_with_shared(store).unwrap();
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    let inst = cdss.peer_mut(&a).unwrap().instance_mut();
    inst.insert("R", tuple![1, 10]).unwrap();
    cdss.publish_transaction(&a, vec![Update::insert("R", tuple![2, 20])])
        .unwrap();
    let id = cdss.publish(&a).unwrap().expect("R(1,10) is still pending");
    assert_eq!(
        updates_of(&cdss, &id),
        vec![Update::insert("R", tuple![1, 10])]
    );
    assert_eq!(cdss.publish(&a).unwrap(), None);
    cdss.reconcile(&b).unwrap();
    let r = cdss.peer(&b).unwrap().instance().relation("R").unwrap();
    assert_eq!(r.to_vec(), vec![tuple![1, 10], tuple![2, 20]]);
}

#[test]
fn a_local_edit_survives_an_exchange_unless_the_exchange_overwrote_its_key() {
    let mut cdss = network(Arc::new(InMemoryStore::new()));
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    let inst = cdss.peer_mut(&a).unwrap().instance_mut();
    inst.insert("R", tuple![1, 10]).unwrap();
    inst.insert("R", tuple![2, 20]).unwrap();
    // B writes key 2 (and key 3); A accepts both.
    let theirs = vec![
        Update::insert("R", tuple![2, 99]),
        Update::insert("R", tuple![3, 30]),
    ];
    cdss.publish_transaction(&b, theirs).unwrap();
    let report = cdss.reconcile(&a).unwrap();
    assert_eq!(report.outcome.accepted.len(), 1);
    let r = cdss.peer(&a).unwrap().instance().relation("R").unwrap();
    assert_eq!(
        r.to_vec(),
        vec![tuple![1, 10], tuple![2, 99], tuple![3, 30]]
    );
    // Key 1 is still A's to announce, once; key 2 was superseded and key 3
    // was never A's edit.
    let id = cdss.publish(&a).unwrap().unwrap();
    assert_eq!(
        updates_of(&cdss, &id),
        vec![Update::insert("R", tuple![1, 10])]
    );
    assert_eq!(cdss.publish(&a).unwrap(), None);
}

#[test]
fn a_remote_delete_of_the_version_an_edit_started_from_makes_the_edit_an_insert() {
    let mut cdss = network(Arc::new(InMemoryStore::new()));
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    cdss.publish_transaction(&b, vec![Update::insert("R", tuple![1, 100])])
        .unwrap();
    cdss.reconcile(&a).unwrap();
    let inst = cdss.peer_mut(&a).unwrap().instance_mut();
    inst.upsert("R", tuple![1, 5]).unwrap();
    // B deletes the tuple A's edit replaced: A accepts, there is nothing
    // left at A to delete, and the edit no longer modifies anything.
    cdss.publish_transaction(&b, vec![Update::delete("R", tuple![1, 100])])
        .unwrap();
    assert_eq!(cdss.reconcile(&a).unwrap().outcome.accepted.len(), 1);
    let r = cdss.peer(&a).unwrap().instance().relation("R").unwrap();
    assert_eq!(r.to_vec(), vec![tuple![1, 5]]);
    let id = cdss.publish(&a).unwrap().unwrap();
    assert_eq!(
        updates_of(&cdss, &id),
        vec![Update::insert("R", tuple![1, 5])]
    );
}

#[test]
fn a_peer_rebuilt_from_the_archive_has_nothing_pending() {
    let store: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    let mut lived = network(store.clone());
    lived
        .publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
        .unwrap();
    lived
        .publish_transaction(&b, vec![Update::insert("Q", tuple![2, 20])])
        .unwrap();
    lived.reconcile(&a).unwrap();
    lived
        .publish_transaction(&a, vec![Update::modify("R", tuple![1, 10], tuple![1, 11])])
        .unwrap();

    // A second system over the same archive: A's own transactions come
    // back from the store interleaved with B's, all of them public.
    let mut rebuilt = network(store);
    rebuilt.reconcile(&a).unwrap();
    assert_eq!(
        rebuilt.peer(&a).unwrap().instance(),
        lived.peer(&a).unwrap().instance()
    );
    assert_eq!(rebuilt.publish(&a).unwrap(), None);
}

/// An archive whose next `publish` fails once.
struct FailOnce {
    inner: InMemoryStore,
    fail: AtomicBool,
}

impl UpdateStore for FailOnce {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> orchestra_store::Result<()> {
        if self.fail.swap(false, Ordering::SeqCst) {
            return Err(StoreError::Unavailable {
                txn: txns[0].id.to_string(),
            });
        }
        self.inner.publish(epoch, txns)
    }
    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> orchestra_store::Result<FetchPage> {
        self.inner.fetch_page(cursor, limit)
    }
    fn fetch(&self, id: &TxnId) -> orchestra_store::Result<Option<Transaction>> {
        self.inner.fetch(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn latest_epoch(&self) -> Option<Epoch> {
        self.inner.latest_epoch()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn digest(&self) -> orchestra_store::Result<orchestra_store::StoreDigest> {
        self.inner.digest()
    }
}

#[test]
fn a_failed_publish_leaves_the_edits_pending_for_the_next_one() {
    let store = Arc::new(FailOnce {
        inner: InMemoryStore::new(),
        fail: AtomicBool::new(false),
    });
    let mut cdss = network(store.clone());
    let a = PeerId::new("A");
    cdss.publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
        .unwrap();
    let inst = cdss.peer_mut(&a).unwrap().instance_mut();
    inst.upsert("R", tuple![1, 11]).unwrap();
    inst.insert("Q", tuple![2, 20]).unwrap();
    let edits = vec![
        Update::insert("Q", tuple![2, 20]),
        Update::modify("R", tuple![1, 10], tuple![1, 11]),
    ];

    store.fail.store(true, Ordering::SeqCst);
    assert!(cdss.publish(&a).is_err());
    assert_eq!(store.len(), 1, "nothing was archived");
    assert_eq!(cdss.stats().published_txns, 1);

    let id = cdss.publish(&a).unwrap().unwrap();
    assert_eq!(updates_of(&cdss, &id), edits);
    assert_eq!(cdss.publish(&a).unwrap(), None);

    // The same rule for an explicit transaction: applied locally, refused
    // by the archive, announced by the next publish.
    store.fail.store(true, Ordering::SeqCst);
    let refused = vec![Update::delete("Q", tuple![2, 20])];
    assert!(cdss.publish_transaction(&a, refused.clone()).is_err());
    assert!(cdss
        .peer(&a)
        .unwrap()
        .instance()
        .relation("Q")
        .unwrap()
        .is_empty());
    let id = cdss.publish(&a).unwrap().unwrap();
    assert_eq!(updates_of(&cdss, &id), refused);
    assert_eq!(cdss.publish(&a).unwrap(), None);
}
