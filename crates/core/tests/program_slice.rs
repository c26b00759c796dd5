//! The sliced peer against the design it replaced.
//!
//! Every peer's translation engine used to be compiled from the combined
//! schema and the whole mapping program. That design survives here as the
//! reference: the tests keep one such engine per peer, feed it each
//! transaction when — and in the order — the peer ingests it, and require
//! of the real peer, whose engine holds only its slice of the program,
//! the same instance, the same provenance (once node ids are resolved to
//! the facts they stand for: the two engines number them differently) and
//! the same antecedents on everything it publishes.

use orchestra_core::{demo, identity_mappings, qualified_schema, qualify, Cdss, CoreError};
use orchestra_datalog::{DeletionAlgorithm, Engine, EvalOptions, NodeId, Rule, Tgd};
use orchestra_provenance::Polynomial;
use orchestra_reconcile::{Decision, TrustPolicy};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

type Check = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// Networks
// ---------------------------------------------------------------------------

/// A network description both sides are built from.
#[derive(Clone)]
struct Net {
    peers: Vec<(PeerId, DatabaseSchema, TrustPolicy)>,
    mappings: Vec<Tgd>,
}

fn kv(relations: &[&str]) -> DatabaseSchema {
    let mut db = DatabaseSchema::new("kv");
    for name in relations {
        let rel = RelationSchema::from_parts_keyed(
            name,
            &[("k", ValueType::Int), ("v", ValueType::Int)],
            &["k"],
        );
        db.add_relation(rel.unwrap()).unwrap();
    }
    db
}

fn copy(from: &str, to: &str) -> Tgd {
    Tgd::identity(format!("{from}->{to}"), from, to, 2).unwrap()
}

impl Net {
    /// Peers over `R(k, v)` at equal, open trust.
    fn of_kv(names: &[&str], mappings: Vec<Tgd>) -> Net {
        let peer = |n: &&str| (PeerId::new(n), kv(&["R"]), TrustPolicy::open(1));
        Net {
            peers: names.iter().map(peer).collect(),
            mappings,
        }
    }

    /// `P1 → P2 → … → Pn`.
    fn chain(n: usize) -> Net {
        let names: Vec<String> = (1..=n).map(|i| format!("P{i}")).collect();
        let mappings = names
            .windows(2)
            .map(|w| copy(&format!("{}.R", w[0]), &format!("{}.R", w[1])))
            .collect();
        Net::of_kv(
            &names.iter().map(String::as_str).collect::<Vec<_>>(),
            mappings,
        )
    }

    /// Spokes feeding a hub; with `both_ways` the hub feeds them back.
    fn star(spokes: usize, both_ways: bool) -> Net {
        let names: Vec<String> = (1..=spokes).map(|i| format!("S{i}")).collect();
        let mut mappings = Vec::new();
        for s in &names {
            mappings.push(copy(&format!("{s}.R"), "Hub.R"));
            if both_ways {
                mappings.push(copy("Hub.R", &format!("{s}.R")));
            }
        }
        let mut all = vec!["Hub"];
        all.extend(names.iter().map(String::as_str));
        Net::of_kv(&all, mappings)
    }

    /// `A → B → D` and `A → C → D`: two derivations of everything at `D`.
    fn diamond() -> Net {
        let mappings = vec![
            copy("A.R", "B.R"),
            copy("A.R", "C.R"),
            copy("B.R", "D.R"),
            copy("C.R", "D.R"),
        ];
        Net::of_kv(&["A", "B", "C", "D"], mappings)
    }

    /// One tgd with two heads at two peers (`A.R → B.R ∧ C.R`), then
    /// `B → D`: a compiled rule per head, needed by different peers.
    fn fan() -> Net {
        use orchestra_datalog::Atom;
        let fan = Tgd::new(
            "fan",
            vec![Atom::vars("A.R", &["k", "v"])],
            vec![
                Atom::vars("B.R", &["k", "v"]),
                Atom::vars("C.R", &["k", "v"]),
            ],
        );
        Net::of_kv(
            &["A", "B", "C", "D"],
            vec![fan.unwrap(), copy("B.R", "D.R")],
        )
    }

    /// The paper's Figure 2 network, as `demo::figure2` builds it: join
    /// and Skolem split between Σ1 and Σ2, Crete's closed policy.
    fn figure2() -> Net {
        let (s1, s2) = (demo::sigma1().unwrap(), demo::sigma2().unwrap());
        let [a, b, c, d] = ["Alaska", "Beijing", "Crete", "Dresden"].map(PeerId::new);
        let mut mappings = identity_mappings(&a, &b, &s1).unwrap();
        mappings.extend(identity_mappings(&c, &d, &s2).unwrap());
        mappings.push(demo::ma_to_c().unwrap());
        mappings.push(demo::mc_to_a().unwrap());
        Net {
            peers: vec![
                (a, s1.clone(), TrustPolicy::open(1)),
                (b, s1, TrustPolicy::open(1)),
                (c, s2.clone(), demo::crete_policy()),
                (d, s2, TrustPolicy::open(1)),
            ],
            mappings,
        }
    }

    fn build(&self, store: Arc<dyn UpdateStore>) -> Cdss {
        let mut b = Cdss::builder();
        for (id, schema, policy) in &self.peers {
            b = b.peer(id.name(), schema.clone(), policy.clone());
        }
        for tgd in &self.mappings {
            b = b.mapping(tgd.clone());
        }
        b.build_with_shared(store).unwrap()
    }

    /// Every peer's relations, qualified.
    fn combined(&self) -> DatabaseSchema {
        let mut combined = DatabaseSchema::new("cdss");
        for (id, schema, _) in &self.peers {
            for rel in qualified_schema(id, schema).unwrap() {
                combined.add_relation(rel).unwrap();
            }
        }
        combined
    }

    /// The whole compiled program.
    fn rules(&self) -> Vec<Rule> {
        let compiled = self.mappings.iter().map(|t| t.compile().unwrap());
        compiled.flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// The reference: one whole-program engine per peer
// ---------------------------------------------------------------------------

/// What a peer's translation state was before slicing: an engine over the
/// combined schema and the full rule list, the publisher of every base
/// node, and the transactions ingested so far.
struct Oracle {
    engine: Engine,
    node_txn: HashMap<NodeId, TxnId>,
    ingested: BTreeSet<TxnId>,
}

impl Oracle {
    fn new(net: &Net) -> Oracle {
        let opts = EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        };
        Oracle {
            engine: Engine::with_options(net.combined(), net.rules(), true, opts).unwrap(),
            node_txn: HashMap::new(),
            ingested: BTreeSet::new(),
        }
    }

    /// The engine half of the old `Peer::ingest_and_translate`: every
    /// update, whatever relation it is on.
    fn ingest(&mut self, txn: &Transaction) {
        let algo = DeletionAlgorithm::ProvenanceBased;
        for u in &txn.updates {
            let qrel = qualify(&txn.id.peer, u.relation());
            match u {
                Update::Insert { tuple, .. } => {
                    let node = self.engine.insert_base(&qrel, tuple.clone()).unwrap();
                    self.node_txn.insert(node, txn.id.clone());
                }
                Update::Delete { tuple, .. } => {
                    self.engine.remove_base(&qrel, tuple, algo).unwrap();
                }
                Update::Modify { old, new, .. } => {
                    self.engine.remove_base(&qrel, old, algo).unwrap();
                    let node = self.engine.insert_base(&qrel, new.clone()).unwrap();
                    self.node_txn.insert(node, txn.id.clone());
                }
            }
        }
        self.engine.propagate().unwrap();
        self.engine.drain_changes();
        self.ingested.insert(txn.id.clone());
    }

    /// The old `Peer::derive_antecedents`: publishers of the base facts
    /// in the canonical proof of each version read.
    fn antecedents(&self, peer: &PeerId, updates: &[Update]) -> BTreeSet<TxnId> {
        let mut out = BTreeSet::new();
        for u in updates {
            let Some(read) = u.read_version() else {
                continue;
            };
            let Some(node) = self.engine.node_id(&qualify(peer, u.relation()), read) else {
                continue;
            };
            let lineage = self.engine.graph().first_proof_lineage(node);
            out.extend(lineage.iter().filter_map(|b| self.node_txn.get(b).cloned()));
        }
        out
    }
}

/// A provenance polynomial with its variables resolved from engine-local
/// node ids to the facts they stand for: monomial (fact, exponent)* →
/// coefficient.
type Fact = (String, Tuple);
type Resolved = BTreeMap<Vec<(Fact, u32)>, u64>;

fn resolved(p: &Polynomial<NodeId>, fact: impl Fn(NodeId) -> Fact) -> Resolved {
    let term = |(m, c): (&orchestra_provenance::Monomial<NodeId>, u64)| {
        let mut vars: Vec<(Fact, u32)> = m.iter().map(|(n, e)| (fact(*n), e)).collect();
        vars.sort();
        (vars, c)
    };
    p.iter().map(term).collect()
}

/// The order `Cdss::reconcile` ingests one page in (`causal_order` in
/// `cdss.rs`): Kahn's algorithm over in-page antecedents, the ready queue
/// starting in (epoch, id) order and a dependent joining its back when its
/// last in-page antecedent leaves. Which of two supports of a tuple is its
/// *first* derivation — hence its canonical proof — depends on it.
fn ingest_order(txns: Vec<Transaction>) -> Vec<Transaction> {
    let mut by_id: BTreeMap<TxnId, Transaction> =
        txns.into_iter().map(|t| (t.id.clone(), t)).collect();
    let mut in_deg: BTreeMap<TxnId, usize> = BTreeMap::new();
    let mut dependents: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
    for (id, txn) in &by_id {
        let inside = txn.antecedents.iter().filter(|a| by_id.contains_key(a));
        in_deg.insert(id.clone(), inside.clone().count());
        for a in inside {
            dependents.entry(a.clone()).or_default().push(id.clone());
        }
    }
    let mut ready: Vec<TxnId> = in_deg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(id, _)| id.clone())
        .collect();
    ready.sort_by_key(|id| (by_id[id].epoch, id.clone()));
    let mut ready: VecDeque<TxnId> = ready.into();
    let mut out = Vec::new();
    while let Some(id) = ready.pop_front() {
        for d in dependents.get(&id).cloned().unwrap_or_default() {
            let deg = in_deg.get_mut(&d).unwrap();
            *deg -= 1;
            if *deg == 0 {
                ready.push_back(d);
            }
        }
        out.extend(by_id.remove(&id));
    }
    assert!(by_id.is_empty(), "published history has no causal cycle");
    out
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    /// `peer` publishes a transaction over key `a` of relation `rel`
    /// (insert what is missing, modify or delete what is there); `wide`
    /// adds an update on the next relation, `twice` a second transaction
    /// in the same batch.
    Publish {
        peer: usize,
        rel: usize,
        a: usize,
        b: usize,
        delete: bool,
        wide: bool,
        twice: bool,
    },
    Reconcile {
        peer: usize,
    },
    /// Resolve the peer's first open conflict for one side or the other.
    Resolve {
        peer: usize,
        second: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let publish = || {
        (
            (0usize..8, 0usize..3, 0usize..3, 0usize..3),
            (0u8..4, 0u8..4, 0u8..4),
        )
            .prop_map(|((peer, rel, a, b), (delete, wide, twice))| Step::Publish {
                peer,
                rel,
                a,
                b,
                delete: delete == 0,
                wide: wide == 0,
                twice: twice == 0,
            })
    };
    let reconcile = || (0usize..8).prop_map(|peer| Step::Reconcile { peer });
    // Arms are drawn uniformly: repeat the common steps.
    prop_oneof![
        publish(),
        publish(),
        publish(),
        reconcile(),
        reconcile(),
        reconcile(),
        (0usize..8, any::<bool>()).prop_map(|(peer, second)| Step::Resolve { peer, second }),
    ]
}

/// The system, and per peer the reference engine and what it has seen.
struct Harness {
    net: Net,
    cdss: Cdss,
    oracles: Vec<Oracle>,
    /// Everything published, in archive order.
    archive: Vec<Transaction>,
    /// Transactions published so far, per peer.
    seq: Vec<u64>,
    /// Peers write disjoint keys and never reuse one: nothing conflicts,
    /// every transaction is accepted, and a peer's instance must be its
    /// engine's view of its relations. Otherwise peers contend for three
    /// keys and the checks are the ones that do not depend on what
    /// reconciliation decides.
    own_keys: bool,
    /// Every tuple a peer's relation was ever seen to hold: provenance
    /// must agree on the dead ones too.
    seen: Vec<BTreeMap<String, BTreeSet<Tuple>>>,
    /// Keys handed out so far in `own_keys` mode.
    fresh: i64,
}

impl Harness {
    fn new(net: Net, own_keys: bool) -> Harness {
        let n = net.peers.len();
        Harness {
            cdss: net.build(Arc::new(InMemoryStore::new())),
            oracles: (0..n).map(|_| Oracle::new(&net)).collect(),
            archive: Vec::new(),
            seq: vec![0; n],
            own_keys,
            seen: vec![BTreeMap::new(); n],
            fresh: 0,
            net,
        }
    }

    /// An update that is valid against the peer's instance: insert what
    /// is missing, modify or delete what is there.
    fn update(&mut self, p: usize, rel: usize, a: usize, b: usize, delete: bool) -> Update {
        let (id, schema, _) = &self.net.peers[p];
        let rel = schema.relations().nth(rel % schema.len()).unwrap();
        let current = self.cdss.peer(id).unwrap().instance();
        let current = current.relation(rel.name()).unwrap();
        let (old, new) = if self.own_keys {
            // `R(k, v)` networks. Act on the `a`-th tuple the peer itself
            // inserted, or insert under a key nobody ever used: a key
            // deleted and inserted again conflicts with its own history.
            let group = 1000 * (p as i64 + 1);
            let own = |t: &&Tuple| matches!(t[0], Value::Int(k) if k / 1000 == group / 1000);
            match current.iter().filter(own).nth(a % 3) {
                Some(old) => (Some(old), tuple![old[0].clone(), b as i64]),
                None => {
                    self.fresh += 1;
                    (None, tuple![group + self.fresh, b as i64])
                }
            }
        } else {
            // Key columns are drawn from `a`, the others from `b`, three
            // values each: peers contend and joins find partners.
            let value = |(j, col): (usize, &orchestra_relational::ColumnDef)| {
                let x = (if rel.key().contains(&j) { a } else { b } + j) % 3;
                match col.ty {
                    ValueType::Int => Value::int(x as i64),
                    _ => Value::str(format!("s{x}")),
                }
            };
            let new: Tuple = rel.columns().iter().enumerate().map(value).collect();
            (current.get_by_key(&rel.key_of(&new)), new)
        };
        match old {
            None => Update::insert(rel.name(), new),
            Some(old) if delete || *old == new => Update::delete(rel.name(), old.clone()),
            Some(old) => Update::modify(rel.name(), old.clone(), new),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn publish(
        &mut self,
        p: usize,
        rel: usize,
        a: usize,
        b: usize,
        delete: bool,
        wide: bool,
        twice: bool,
    ) -> Check {
        let id = self.net.peers[p].0.clone();
        // `a`, `a + 1`, `a + 2` pick distinct keys, so every update is
        // valid against the instance as it is now.
        let mut batch = vec![vec![self.update(p, rel, a, b, delete)]];
        if wide {
            batch[0].push(self.update(p, rel + 1, a + 1, b, delete));
        }
        if twice {
            batch.push(vec![self.update(p, rel, a + 2, b, !delete)]);
        }
        // The reference goes first: antecedents from its state before
        // each transaction, as publishing derives them.
        let mut want = Vec::new();
        for updates in &batch {
            let antecedents = self.oracles[p].antecedents(&id, updates);
            self.seq[p] += 1;
            let txn_id = TxnId::new(id.clone(), self.seq[p]);
            let txn = Transaction::new(txn_id.clone(), Epoch::zero(), updates.clone());
            self.oracles[p].ingest(&txn);
            want.push((txn_id, antecedents));
        }
        let got = self.cdss.publish_transactions(&id, batch).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (got, (want_id, want_antecedents)) in got.iter().zip(want) {
            prop_assert_eq!(got, &want_id);
            let txn = self.cdss.store().fetch(got).unwrap().unwrap();
            let antecedents: BTreeSet<TxnId> = txn.antecedents.iter().cloned().collect();
            prop_assert_eq!(antecedents, want_antecedents, "antecedents of {}", got);
            self.archive.push(txn);
        }
        self.compare(p)
    }

    fn reconcile(&mut self, p: usize) -> Check {
        let id = self.net.peers[p].0.clone();
        let unseen = |t: &&Transaction| !self.oracles[p].ingested.contains(&t.id);
        let fresh: Vec<Transaction> = self.archive.iter().filter(unseen).cloned().collect();
        let peer = self.cdss.peer(&id).unwrap();
        let slice = &peer.program_slice().relations;
        let in_slice = |t: &Transaction| {
            let mut written = t.updates.iter().map(|u| qualify(&t.id.peer, u.relation()));
            written.any(|q| slice.iter().any(|r| **r == *q))
        };
        let touched = fresh.iter().any(in_slice);
        let before = peer.engine_stats();

        let report = self.cdss.reconcile(&id).unwrap();
        // A peer's own transactions were ingested when it published them.
        prop_assert_eq!(report.candidates, fresh.len());
        let peer = self.cdss.peer(&id).unwrap();
        prop_assert!(
            touched || peer.engine_stats() == before,
            "engine ran for nothing"
        );
        for txn in ingest_order(fresh) {
            if self.own_keys {
                prop_assert_eq!(peer.decision(&txn.id), Some(Decision::Accepted));
            }
            self.oracles[p].ingest(&txn);
        }
        self.compare(p)
    }

    fn resolve(&mut self, p: usize, second: bool) -> Check {
        let id = self.net.peers[p].0.clone();
        let peer = self.cdss.peer(&id).unwrap();
        let Some((x, y)) = peer.open_conflicts().first().cloned() else {
            return Ok(());
        };
        let before = peer.engine_stats();
        self.cdss
            .resolve(&id, if second { &y } else { &x })
            .unwrap();
        prop_assert_eq!(self.cdss.peer(&id).unwrap().engine_stats(), before);
        self.compare(p)
    }

    /// Peer `p` against its reference, which has ingested exactly what
    /// the peer has.
    fn compare(&mut self, p: usize) -> Check {
        let (id, schema, _) = &self.net.peers[p];
        let peer = self.cdss.peer(id).unwrap();
        let oracle = &self.oracles[p].engine;
        let fact = |found: Option<(&Arc<str>, Tuple)>| {
            let (rel, tuple) = found.expect("a polynomial names known nodes");
            (rel.to_string(), tuple)
        };
        for rel in schema.relations() {
            let qualified = qualify(id, rel.name());
            let mut view: Vec<Tuple> = oracle.scan_resolved(&qualified).collect();
            view.sort();
            let mut held = peer.instance().relation(rel.name()).unwrap().to_vec();
            held.sort();
            if self.own_keys {
                prop_assert_eq!(&held, &view, "instance of {}", &qualified);
            }
            let seen = self.seen[p].entry(qualified.clone()).or_default();
            seen.extend(view);
            seen.extend(held);
            for tuple in seen.iter() {
                let got = peer.provenance(rel.name(), tuple);
                let got = got.map(|poly| resolved(&poly, |n| fact(peer.resolve_node(n))));
                let want = oracle.provenance(&qualified, tuple);
                let want = want.map(|poly| resolved(&poly, |n| fact(oracle.resolve_node(n))));
                prop_assert_eq!(got, want, "provenance of {}{}", &qualified, tuple);
            }
        }
        Ok(())
    }

    fn run(&mut self, step: Step) -> Check {
        let n = self.net.peers.len();
        match step {
            Step::Publish {
                peer,
                rel,
                a,
                b,
                delete,
                wide,
                twice,
            } => self.publish(peer % n, rel, a, b, delete, wide, twice),
            Step::Reconcile { peer } => self.reconcile(peer % n),
            Step::Resolve { peer, second } => self.resolve(peer % n, second),
        }
    }
}

/// Run a schedule, then let everyone catch up — twice, so that what the
/// first round's reconciles led nobody to publish is seen to be nothing.
fn agrees(net: Net, own_keys: bool, steps: Vec<Step>) -> Check {
    let mut h = Harness::new(net, own_keys);
    for (i, step) in steps.iter().enumerate() {
        // The shim does not shrink: name the schedule that failed.
        let context = |e| TestCaseError::fail(format!("{e}\nat step {i} of {steps:?}"));
        h.run(step.clone()).map_err(context)?;
    }
    for _ in 0..2 {
        for p in 0..h.net.peers.len() {
            h.reconcile(p)?;
        }
    }
    Ok(())
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(step_strategy(), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chain_agrees_with_the_whole_program(own_keys: bool, steps in steps()) {
        agrees(Net::chain(4), own_keys, steps)?;
    }

    #[test]
    fn one_way_star_agrees_with_the_whole_program(own_keys: bool, steps in steps()) {
        agrees(Net::star(3, false), own_keys, steps)?;
    }

    #[test]
    fn two_way_star_agrees_with_the_whole_program(own_keys: bool, steps in steps()) {
        agrees(Net::star(3, true), own_keys, steps)?;
    }

    #[test]
    fn diamond_agrees_with_the_whole_program(own_keys: bool, steps in steps()) {
        agrees(Net::diamond(), own_keys, steps)?;
    }

    #[test]
    fn fan_agrees_with_the_whole_program(own_keys: bool, steps in steps()) {
        agrees(Net::fan(), own_keys, steps)?;
    }

    /// Join and Skolem split, a closed policy at Crete: peers contend, so
    /// the checks are provenance, antecedents and report counts.
    #[test]
    fn figure2_agrees_with_the_whole_program(steps in steps()) {
        agrees(Net::figure2(), false, steps)?;
    }
}

// ---------------------------------------------------------------------------
// Directed cases
// ---------------------------------------------------------------------------

fn slice_of(cdss: &Cdss, peer: &str) -> (Vec<String>, Vec<String>) {
    let slice = cdss.peer(&PeerId::new(peer)).unwrap().program_slice();
    (
        slice.relations.iter().map(|r| r.to_string()).collect(),
        slice.rules.iter().map(|r| r.to_string()).collect(),
    )
}

fn in_memory(net: &Net) -> Cdss {
    net.build(Arc::new(InMemoryStore::new()))
}

#[test]
fn a_chain_peer_holds_what_is_upstream_of_it() {
    let cdss = in_memory(&Net::chain(4));
    let names = ["P1.R", "P2.R", "P3.R", "P4.R"];
    let rules = ["P1.R->P2.R", "P2.R->P3.R", "P3.R->P4.R"];
    for i in 0..4 {
        let (relations, held) = slice_of(&cdss, &format!("P{}", i + 1));
        assert_eq!(relations, names[..=i]);
        assert_eq!(held, rules[..i]);
    }
}

#[test]
fn chain_engines_fire_as_many_rules_per_tuple_as_they_hold() {
    let mut cdss = in_memory(&Net::chain(4));
    let inserts = (0..25).map(|k| Update::insert("R", tuple![k, k])).collect();
    cdss.publish_transaction(&PeerId::new("P1"), inserts)
        .unwrap();
    cdss.reconcile_all().unwrap();
    for (i, id) in cdss.peer_ids().iter().enumerate() {
        let peer = cdss.peer(id).unwrap();
        assert_eq!(peer.engine_stats().firings, 25 * i as u64, "{id}");
        assert_eq!(peer.instance().relation("R").unwrap().len(), 25, "{id}");
    }
}

/// `conflict-star` and `bio-join` are two-way networks: no peer's engine
/// may differ from the one it had before slicing.
#[test]
fn where_mappings_run_both_ways_every_slice_is_the_whole_program() {
    for net in [Net::star(7, true), Net::figure2()] {
        let cdss = in_memory(&net);
        let relations: Vec<String> = net
            .combined()
            .relations()
            .map(|r| r.name().into())
            .collect();
        let rules: Vec<String> = net.rules().iter().map(|r| r.id.to_string()).collect();
        for (id, _, _) in &net.peers {
            assert_eq!(
                slice_of(&cdss, id.name()),
                (relations.clone(), rules.clone())
            );
        }
    }
    // `demo::figure2` is that network.
    let cdss = demo::figure2().unwrap();
    let (relations, rules) = slice_of(&cdss, "Crete");
    assert_eq!((relations.len(), rules.len()), (8, 12));
}

#[test]
fn a_two_headed_tgd_gives_each_peer_the_head_it_needs() {
    let cdss = in_memory(&Net::fan());
    assert_eq!(slice_of(&cdss, "A").1, Vec::<String>::new());
    assert_eq!(slice_of(&cdss, "B").1, ["fan#1"]);
    assert_eq!(
        slice_of(&cdss, "C"),
        (vec!["A.R".into(), "C.R".into()], vec!["fan#2".into()])
    );
    assert_eq!(slice_of(&cdss, "D").1, ["fan#1", "B.R->D.R"]);
}

#[test]
fn the_interest_set_is_the_union_of_the_hosted_peers_slices() {
    let cdss = in_memory(&Net::diamond());
    for hosted in [vec!["B"], vec!["B", "C"], vec!["D"], vec!["A"]] {
        let ids: Vec<PeerId> = hosted.iter().map(PeerId::new).collect();
        let union: BTreeSet<String> = hosted.iter().flat_map(|p| slice_of(&cdss, p).0).collect();
        let interest = cdss.interest_set_for(&ids).unwrap();
        assert_eq!(interest, union.into_iter().collect::<Vec<_>>());
    }
}

/// `A` holds `R` and `Q`; only `R` is mapped to `B`.
fn half_mapped() -> Net {
    let open = TrustPolicy::open(1);
    Net {
        peers: vec![
            (PeerId::new("A"), kv(&["R", "Q"]), open.clone()),
            (PeerId::new("B"), kv(&["R"]), open),
        ],
        mappings: vec![copy("A.R", "B.R")],
    }
}

#[test]
fn a_transaction_half_inside_the_slice_is_ingested_by_that_half() {
    let net = half_mapped();
    let mut cdss = in_memory(&net);
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    assert_eq!(slice_of(&cdss, "B").0, ["A.R", "B.R"]);
    let both = vec![
        Update::insert("R", tuple![1, 10]),
        Update::insert("Q", tuple![1, 11]),
    ];
    let id = cdss.publish_transaction(&a, both).unwrap();
    let report = cdss.reconcile(&b).unwrap();
    assert_eq!(
        (report.fetched, report.candidates, report.applied_updates),
        (1, 1, 1)
    );
    assert_eq!(report.outcome.accepted, std::slice::from_ref(&id));
    let peer = cdss.peer(&b).unwrap();
    assert_eq!(peer.decision(&id), Some(Decision::Accepted));
    assert_eq!(
        peer.instance().relation("R").unwrap().to_vec(),
        [tuple![1, 10]]
    );
    // `A.R(1, 10)` and the `B.R(1, 10)` it derives; `A.Q` never arrived.
    let stats = peer.engine_stats();
    assert_eq!((stats.tuples_added, stats.firings), (2, 1));
    // The whole program would have decided and applied the same.
    let mut oracle = Oracle::new(&net);
    oracle.ingest(&cdss.store().fetch(&id).unwrap().unwrap());
    assert_eq!(
        oracle.engine.scan_resolved("B.R").collect::<Vec<_>>(),
        [tuple![1, 10]]
    );
}

#[test]
fn a_transaction_outside_the_slice_is_decided_without_the_engine() {
    let mut cdss = in_memory(&half_mapped());
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    let id = cdss
        .publish_transaction(&a, vec![Update::insert("Q", tuple![2, 20])])
        .unwrap();
    let before = cdss.peer(&b).unwrap().engine_stats();
    let report = cdss.reconcile(&b).unwrap();
    // Fetched, translated to the empty candidate, accepted, nothing to
    // apply: what it always was.
    assert_eq!(
        (report.fetched, report.candidates, report.applied_updates),
        (1, 1, 0)
    );
    assert_eq!(report.outcome.accepted, std::slice::from_ref(&id));
    let peer = cdss.peer(&b).unwrap();
    assert_eq!(peer.decision(&id), Some(Decision::Accepted));
    assert_eq!(peer.engine_stats(), before);
    // Ingested all the same: the next exchange has nothing to do.
    let epoch = cdss.current_epoch();
    assert_eq!(cdss.reconcile(&b).unwrap().fetched, 0);
    assert_eq!(cdss.current_epoch(), epoch);
    // The chain head sees everyone else's history this way.
    let mut chain = in_memory(&Net::chain(3));
    let p3 = PeerId::new("P3");
    chain
        .publish_transaction(&p3, vec![Update::insert("R", tuple![1, 1])])
        .unwrap();
    let report = chain.reconcile(&PeerId::new("P1")).unwrap();
    assert_eq!((report.candidates, report.outcome.accepted.len()), (1, 1));
    assert_eq!(
        chain
            .peer(&PeerId::new("P1"))
            .unwrap()
            .engine_stats()
            .tuples_added,
        0
    );
}

#[test]
fn a_sliced_tail_rebuilt_from_the_archive_equals_the_live_one() {
    let net = Net::chain(3);
    let store: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
    let mut lived = net.build(store.clone());
    let [p1, p2, p3] = ["P1", "P2", "P3"].map(PeerId::new);
    let publish = |cdss: &mut Cdss, peer: &PeerId, update: Update| {
        cdss.publish_transaction(peer, vec![update]).unwrap()
    };
    publish(&mut lived, &p1, Update::insert("R", tuple![1, 10]));
    publish(&mut lived, &p2, Update::insert("R", tuple![2, 20]));
    lived.reconcile(&p3).unwrap();
    publish(&mut lived, &p3, Update::insert("R", tuple![3, 30]));
    publish(
        &mut lived,
        &p1,
        Update::modify("R", tuple![1, 10], tuple![1, 11]),
    );
    publish(&mut lived, &p2, Update::delete("R", tuple![2, 20]));
    lived.reconcile(&p3).unwrap();
    publish(
        &mut lived,
        &p3,
        Update::modify("R", tuple![3, 30], tuple![3, 31]),
    );

    // A second system over the same archive: the tail's own transactions
    // come back from the store interleaved with everyone else's.
    let mut rebuilt = net.build(store);
    rebuilt.reconcile(&p3).unwrap();
    let (live, again) = (lived.peer(&p3).unwrap(), rebuilt.peer(&p3).unwrap());
    assert_eq!(again.instance(), live.instance());
    assert_eq!(
        again.instance().relation("R").unwrap().to_vec(),
        [tuple![1, 11], tuple![3, 31]]
    );
    let fact = |peer: &orchestra_core::Peer, n| {
        let (rel, tuple) = peer.resolve_node(n).unwrap();
        (rel.to_string(), tuple)
    };
    for tuple in [
        tuple![1, 10],
        tuple![1, 11],
        tuple![2, 20],
        tuple![3, 30],
        tuple![3, 31],
    ] {
        let of = |peer: &orchestra_core::Peer| {
            let poly = peer.provenance("R", &tuple);
            poly.map(|poly| resolved(&poly, |n| fact(peer, n)))
        };
        assert_eq!(of(again), of(live), "provenance of {tuple}");
    }
    // Its next transaction takes the next id and reads the same history:
    // the tuple it deletes was derived from P1's second transaction.
    let next = publish(&mut rebuilt, &p3, Update::delete("R", tuple![1, 11]));
    assert_eq!(next, TxnId::new(p3.clone(), 3));
    let antecedents = rebuilt.store().fetch(&next).unwrap().unwrap().antecedents;
    assert_eq!(
        antecedents.into_iter().collect::<Vec<_>>(),
        [TxnId::new(p1.clone(), 2)]
    );
}

#[test]
fn a_mapping_into_an_undeclared_relation_fails_the_build() {
    let built = Cdss::builder()
        .peer("A", kv(&["R"]), TrustPolicy::open(1))
        .mapping(copy("A.R", "Nowhere.R"))
        .build();
    assert!(matches!(built, Err(CoreError::Datalog(_))), "{built:?}");
    let built = Cdss::builder()
        .peer("A", kv(&["R"]), TrustPolicy::open(1))
        .mapping(copy("Nowhere.R", "A.R"))
        .build();
    assert!(matches!(built, Err(CoreError::Datalog(_))), "{built:?}");
}
