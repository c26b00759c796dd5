//! Engine-semantics parity properties for the interned join pipeline.
//!
//! The interned-value refactor must be **observationally invisible**: on
//! randomized datalog programs and fact sets, the engine's fixpoint,
//! provenance, and deletion semantics must coincide with
//!
//! * a naive model-theoretic evaluator working directly on `Value`
//!   tuples (no interning, no indexes, no plans) — the "seed semantics";
//! * itself under different insertion orders (incremental vs batch),
//!   which also exercises plan-cache reuse across delta positions;
//! * provenance-based deletion against full recomputation from the
//!   surviving base facts — including Skolem-heavy programs (labeled
//!   nulls both invented and re-invented within one round) fed in
//!   batches, and a round run over the graph a set deletion left behind.

use orchestra_datalog::{Atom, Term};
use orchestra_datalog::{DeletionAlgorithm, Engine, Rule};
use orchestra_relational::{CmpOp, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

const RELS: [(&str, usize); 4] = [("r0", 1), ("r1", 2), ("r2", 2), ("r3", 1)];
const VALS: [&str; 4] = ["a", "b", "c", "d"];
const VARS: [&str; 3] = ["x", "y", "z"];

fn schema() -> DatabaseSchema {
    let mut db = DatabaseSchema::new("parity");
    for (name, arity) in RELS {
        let cols: Vec<(String, ValueType)> = (0..arity)
            .map(|i| (format!("c{i}"), ValueType::Str))
            .collect();
        let refs: Vec<(&str, ValueType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        db.add_relation(RelationSchema::from_parts(name, &refs).unwrap())
            .unwrap();
    }
    db
}

/// A random skolem-free program: every head variable occurs in the body,
/// so the rules are safe; bodies have 1–2 atoms and an occasional filter.
fn random_program(rng: &mut StdRng, n_rules: usize) -> Vec<Rule> {
    let mut rules = Vec::new();
    for ri in 0..n_rules {
        let n_body = rng.random_range(1..3usize);
        let mut body = Vec::new();
        let mut body_vars: Vec<&str> = Vec::new();
        for _ in 0..n_body {
            let (rel, arity) = RELS[rng.random_range(0..RELS.len())];
            let terms: Vec<Term> = (0..arity)
                .map(|_| {
                    if rng.random_bool(0.8) {
                        let v = VARS[rng.random_range(0..VARS.len())];
                        body_vars.push(v);
                        Term::var(v)
                    } else {
                        Term::val(VALS[rng.random_range(0..VALS.len())])
                    }
                })
                .collect();
            body.push(Atom::new(rel, terms));
        }
        let (head_rel, head_arity) = RELS[rng.random_range(0..RELS.len())];
        let head_terms: Vec<Term> = (0..head_arity)
            .map(|_| {
                if !body_vars.is_empty() && rng.random_bool(0.8) {
                    Term::var(body_vars[rng.random_range(0..body_vars.len())])
                } else {
                    Term::val(VALS[rng.random_range(0..VALS.len())])
                }
            })
            .collect();
        let filters = if !body_vars.is_empty() && rng.random_bool(0.3) {
            let v = body_vars[rng.random_range(0..body_vars.len())];
            let c = VALS[rng.random_range(0..VALS.len())];
            let op = match rng.random_range(0..3u32) {
                0 => CmpOp::Ne,
                1 => CmpOp::Lt,
                _ => CmpOp::Ge,
            };
            vec![orchestra_datalog::Filter::new(
                Term::var(v),
                op,
                Term::val(c),
            )]
        } else {
            vec![]
        };
        rules.push(
            Rule::new(
                format!("m{ri}"),
                Atom::new(head_rel, head_terms),
                body,
                filters,
            )
            .unwrap(),
        );
    }
    rules
}

/// Random base facts (relation name, tuple) over the shared value pool.
fn random_facts(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Tuple)> {
    (0..n)
        .map(|_| {
            let (rel, arity) = RELS[rng.random_range(0..RELS.len())];
            let t: Tuple = (0..arity)
                .map(|_| Value::str(VALS[rng.random_range(0..VALS.len())]))
                .collect();
            (rel, t)
        })
        .collect()
}

type Database = BTreeMap<&'static str, BTreeSet<Tuple>>;

/// The reference evaluator: naive bottom-up fixpoint directly on `Value`
/// tuples. No interning, no indexes, no plans — just the definition.
/// Skolem head terms build their labeled nulls structurally; it
/// terminates on the skolem-free and the acyclic Skolem programs below.
fn naive_fixpoint(rules: &[Rule], base: &[(&'static str, Tuple)]) -> Database {
    let mut db: Database = RELS.iter().map(|(r, _)| (*r, BTreeSet::new())).collect();
    for (rel, t) in base {
        db.get_mut(rel).unwrap().insert(t.clone());
    }
    loop {
        let mut fresh: Vec<(String, Tuple)> = Vec::new();
        for rule in rules {
            let mut bindings: HashMap<Arc<str>, Value> = HashMap::new();
            naive_join(rule, 0, &db, &mut bindings, &mut fresh);
        }
        let mut changed = false;
        for (rel, t) in fresh {
            let set = db
                .iter_mut()
                .find(|(r, _)| **r == rel.as_str())
                .map(|(_, s)| s)
                .unwrap();
            if set.insert(t) {
                changed = true;
            }
        }
        if !changed {
            return db;
        }
    }
}

fn term_value(t: &Term, bindings: &HashMap<Arc<str>, Value>) -> Value {
    match t {
        Term::Var(v) => bindings[v].clone(),
        Term::Const(c) => c.clone(),
        Term::Skolem { function, args } => Value::skolem(
            Arc::clone(function),
            args.iter().map(|a| term_value(a, bindings)).collect(),
        ),
    }
}

fn naive_join(
    rule: &Rule,
    depth: usize,
    db: &Database,
    bindings: &mut HashMap<Arc<str>, Value>,
    out: &mut Vec<(String, Tuple)>,
) {
    if depth == rule.body.len() {
        for f in &rule.filters {
            let l = term_value(&f.left, bindings);
            let r = term_value(&f.right, bindings);
            if !f.op.apply(&l, &r) {
                return;
            }
        }
        let head: Tuple = rule
            .head
            .terms
            .iter()
            .map(|t| term_value(t, bindings))
            .collect();
        out.push((rule.head.relation.to_string(), head));
        return;
    }
    let atom = &rule.body[depth];
    let tuples = &db[&*atom.relation];
    'tuples: for t in tuples {
        if t.arity() != atom.terms.len() {
            continue;
        }
        let mut bound_here: Vec<Arc<str>> = Vec::new();
        for (i, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if &t[i] != c {
                        for v in &bound_here {
                            bindings.remove(v);
                        }
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match bindings.get(v) {
                    Some(bound) => {
                        if bound != &t[i] {
                            for v in &bound_here {
                                bindings.remove(v);
                            }
                            continue 'tuples;
                        }
                    }
                    None => {
                        bindings.insert(Arc::clone(v), t[i].clone());
                        bound_here.push(Arc::clone(v));
                    }
                },
                Term::Skolem { .. } => unreachable!("body atoms carry no skolems"),
            }
        }
        naive_join(rule, depth + 1, db, bindings, out);
        for v in &bound_here {
            bindings.remove(v);
        }
    }
}

fn engine_database(e: &Engine) -> Database {
    // The borrowing scan: the same read path the reconcile/bench layers
    // use.
    RELS.iter()
        .map(|(r, _)| (*r, e.scan_resolved(r).collect()))
        .collect()
}

/// A random **Skolem-heavy** two-tier program, acyclic by construction so
/// labeled-null invention terminates: tier A maps `r0`/`r1` into `r2`
/// heads, tier B maps `r2` into `r3` heads, and every head mixes body
/// variables with Skolem terms over them. Shared argument variables make
/// distinct firings re-invent the same null — exercising both a null's
/// first invention and the integer fast path that finds it again.
fn random_skolem_program(rng: &mut StdRng, n_rules: usize) -> Vec<Rule> {
    let mut rules = Vec::new();
    for ri in 0..n_rules {
        let tier_b = rng.random_bool(0.4);
        let (brel, barity) = if tier_b {
            ("r2", 2)
        } else {
            [("r0", 1), ("r1", 2)][rng.random_range(0..2usize)]
        };
        let body_vars: Vec<&str> = (0..barity).map(|i| VARS[i % VARS.len()]).collect();
        let body = vec![Atom::new(
            brel,
            body_vars.iter().map(Term::var).collect::<Vec<_>>(),
        )];
        let (hrel, harity) = if tier_b { ("r3", 1) } else { ("r2", 2) };
        let head_terms: Vec<Term> = (0..harity)
            .map(|ci| {
                if rng.random_bool(0.5) {
                    let args: Vec<Term> = if rng.random_bool(0.8) {
                        vec![Term::var(body_vars[rng.random_range(0..body_vars.len())])]
                    } else {
                        vec![]
                    };
                    Term::skolem(format!("f{ri}_{ci}"), args)
                } else {
                    Term::var(body_vars[rng.random_range(0..body_vars.len())])
                }
            })
            .collect();
        rules
            .push(Rule::new(format!("sk{ri}"), Atom::new(hrel, head_terms), body, vec![]).unwrap());
    }
    rules
}

/// Random base facts restricted to the Skolem program's tier-A source
/// relations.
fn random_source_facts(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Tuple)> {
    (0..n)
        .map(|_| {
            let (rel, arity) = [("r0", 1), ("r1", 2)][rng.random_range(0..2usize)];
            let t: Tuple = (0..arity)
                .map(|_| Value::str(VALS[rng.random_range(0..VALS.len())]))
                .collect();
            (rel, t)
        })
        .collect()
}

/// Alive tuples with their first-proof lineages, resolved back to
/// `(relation, tuple)` form so they are comparable across engines with
/// different interner/node orderings.
fn resolved_lineages(e: &Engine) -> BTreeMap<(String, Tuple), BTreeSet<(String, Tuple)>> {
    let mut out = BTreeMap::new();
    for (rel, _) in RELS {
        // `scan` surfaces each tuple's node directly — no per-tuple
        // `node_id` lookup needed.
        for (st, node) in e.scan(rel) {
            let t = e.interner().resolve_tuple(st);
            let lineage = e
                .graph()
                .lineage(node)
                .into_iter()
                .map(|b| {
                    let (r, bt) = e.resolve_node(b).expect("resolvable");
                    (r.to_string(), bt)
                })
                .collect();
            out.insert((rel.to_string(), t), lineage);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interned evaluation computes exactly the naive model-theoretic
    /// fixpoint of the program.
    #[test]
    fn interned_fixpoint_matches_naive_semantics(
        seed in 0u64..1_000_000,
        n_rules in 1usize..5,
        n_facts in 0usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = random_program(&mut rng, n_rules);
        let facts = random_facts(&mut rng, n_facts);

        let mut engine = Engine::new(schema(), rules.clone()).unwrap();
        for (rel, t) in &facts {
            engine.insert_base(rel, t.clone()).unwrap();
        }
        engine.propagate().unwrap();

        let reference = naive_fixpoint(&rules, &facts);
        prop_assert_eq!(engine_database(&engine), reference);
    }

    /// Insertion order is irrelevant: one-at-a-time incremental
    /// propagation reaches the same fixpoint, the same number of
    /// derivation records, and the same per-tuple lineages as one batch
    /// propagation (node ids differ; everything is compared resolved).
    #[test]
    fn incremental_equals_batch_including_provenance(
        seed in 0u64..1_000_000,
        n_rules in 1usize..5,
        n_facts in 0usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = random_program(&mut rng, n_rules);
        let facts = random_facts(&mut rng, n_facts);

        let mut inc = Engine::new(schema(), rules.clone()).unwrap();
        for (rel, t) in &facts {
            inc.insert_base(rel, t.clone()).unwrap();
            inc.propagate().unwrap();
        }
        let mut batch = Engine::new(schema(), rules).unwrap();
        for (rel, t) in &facts {
            batch.insert_base(rel, t.clone()).unwrap();
        }
        batch.propagate().unwrap();

        prop_assert_eq!(engine_database(&inc), engine_database(&batch));
        prop_assert_eq!(resolved_lineages(&inc), resolved_lineages(&batch));
    }

    /// Deletion agrees with full recomputation (the naive evaluator over
    /// the surviving base facts) — including well-founded handling of
    /// derivation cycles.
    #[test]
    fn deletion_algorithms_match_recomputation(
        seed in 0u64..1_000_000,
        n_rules in 1usize..5,
        n_facts in 1usize..24,
        del_pct in 0u32..101,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = random_program(&mut rng, n_rules);
        let facts = random_facts(&mut rng, n_facts);
        // Distinct victims (remove_base is idempotent per base fact, but
        // duplicate victims would also be no-ops on the reference side).
        let victims: Vec<(&'static str, Tuple)> = {
            let uniq: BTreeSet<(&'static str, Tuple)> = facts
                .iter()
                .filter(|_| rng.random_range(0..100u32) < del_pct)
                .cloned()
                .collect();
            uniq.into_iter().collect()
        };
        let survivors: Vec<(&'static str, Tuple)> = facts
            .iter()
            .filter(|f| !victims.contains(f))
            .cloned()
            .collect();

        let mut e = Engine::new(schema(), rules.clone()).unwrap();
        for (rel, t) in &facts {
            e.insert_base(rel, t.clone()).unwrap();
        }
        e.propagate().unwrap();
        for (rel, t) in &victims {
            e.remove_base(rel, t, DeletionAlgorithm::ProvenanceBased)
                .unwrap();
        }
        let reference = naive_fixpoint(&rules, &survivors);
        prop_assert_eq!(&engine_database(&e), &reference, "deletion vs recomputation");
    }
}

#[test]
#[ignore]
fn hunt_deletion_mismatch() {
    for seed in 0u64..4000 {
        for n_rules in 1usize..5 {
            for n_facts in [4usize, 8, 12] {
                let mut rng = StdRng::seed_from_u64(seed);
                let rules = random_program(&mut rng, n_rules);
                let facts = random_facts(&mut rng, n_facts);
                let victims: Vec<(&'static str, Tuple)> = {
                    let uniq: BTreeSet<(&'static str, Tuple)> = facts
                        .iter()
                        .filter(|_| rng.random_range(0..100u32) < 50)
                        .cloned()
                        .collect();
                    uniq.into_iter().collect()
                };
                let survivors: Vec<(&'static str, Tuple)> = facts
                    .iter()
                    .filter(|f| !victims.contains(f))
                    .cloned()
                    .collect();
                let mut e = Engine::new(schema(), rules.clone()).unwrap();
                for (rel, t) in &facts {
                    e.insert_base(rel, t.clone()).unwrap();
                }
                e.propagate().unwrap();
                let refs: Vec<(&str, &Tuple)> = victims.iter().map(|(r, t)| (*r, t)).collect();
                e.remove_bases(&refs).unwrap();
                let prov = engine_database(&e);
                let reference = naive_fixpoint(&rules, &survivors);
                if prov != reference {
                    println!("MISMATCH seed={seed} n_rules={n_rules} n_facts={n_facts}");
                    for r in &rules {
                        println!("  rule: {r}");
                    }
                    println!("  facts: {facts:?}");
                    println!("  victims: {victims:?}");
                    println!("  prov:      {prov:?}");
                    println!("  reference: {reference:?}");
                    panic!("found");
                }
            }
        }
    }
    println!("no mismatch found");
}

/// One deletion scenario: a random recursive program (or, with `skolem`,
/// a Skolem-inventing one) over random base facts, plus a deletion set
/// drawn from those facts with repeats, and a few tuples that were never
/// base facts.
struct DeletionCase {
    rules: Vec<Rule>,
    facts: Vec<(&'static str, Tuple)>,
    victims: Vec<(&'static str, Tuple)>,
}

fn deletion_case(seed: u64, skolem: bool, n_rules: usize, n_facts: usize) -> DeletionCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rules, facts) = if skolem {
        let rules = random_skolem_program(&mut rng, n_rules);
        (rules, random_source_facts(&mut rng, n_facts))
    } else {
        let rules = random_program(&mut rng, n_rules);
        (rules, random_facts(&mut rng, n_facts))
    };
    let mut victims: Vec<(&'static str, Tuple)> = facts
        .iter()
        .filter(|_| rng.random_range(0..100u32) < 60)
        .cloned()
        .collect();
    if let Some(first) = victims.first().cloned() {
        victims.push(first); // A repeat is a no-op on both paths.
    }
    victims.extend(random_facts(&mut rng, 2)); // Mostly never base.
    DeletionCase {
        rules,
        facts,
        victims,
    }
}

/// Build the case's engine to fixpoint and drain its change log.
fn built_engine(case: &DeletionCase) -> Engine {
    let mut e = Engine::new(schema(), case.rules.clone()).unwrap();
    for (rel, t) in &case.facts {
        e.insert_base(rel, t.clone()).unwrap();
    }
    e.propagate().unwrap();
    e.drain_changes();
    e
}

fn victim_refs(case: &DeletionCase) -> Vec<(&str, &Tuple)> {
    case.victims.iter().map(|(r, t)| (*r, t)).collect()
}

/// The drained change log as a sorted multiset of removals (and a count
/// of anything else, which a deletion must never log).
fn removed_multiset(e: &mut Engine) -> (Vec<(String, Tuple, orchestra_datalog::NodeId)>, usize) {
    let mut removed = Vec::new();
    let mut other = 0usize;
    for ch in e.drain_changes() {
        if ch.kind == orchestra_datalog::ChangeKind::Removed {
            removed.push((ch.relation.to_string(), ch.tuple, ch.node));
        } else {
            other += 1;
        }
    }
    removed.sort();
    (removed, other)
}

/// The provenance polynomial of every alive tuple.
fn survivor_polynomials(
    e: &Engine,
) -> BTreeMap<(String, Tuple), orchestra_provenance::Polynomial<orchestra_datalog::NodeId>> {
    let mut out = BTreeMap::new();
    for (rel, _) in RELS {
        for t in e.scan_resolved(rel) {
            let poly = e.provenance(rel, &t).expect("alive tuple has a node");
            out.insert((rel.to_string(), t), poly);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Removing a set of base tuples in one `remove_bases` call equals
    /// removing them one `remove_base` at a time, over random recursive
    /// and Skolem programs: same database, same
    /// multiset of `Removed` changes, same `tuples_removed`, same count
    /// of base facts removed, and the same provenance polynomial for
    /// every survivor. Both equal recomputing from the surviving facts.
    #[test]
    fn set_deletion_equals_one_at_a_time(
        seed in 0u64..1_000_000,
        skolem in any::<bool>(),
        n_rules in 1usize..5,
        n_facts in 1usize..16,
    ) {
        let case = deletion_case(seed, skolem, n_rules, n_facts);
        let survivors = DeletionCase {
            rules: case.rules.clone(),
            facts: case
                .facts
                .iter()
                .filter(|f| !case.victims.contains(f))
                .cloned()
                .collect(),
            victims: Vec::new(),
        };
        let recomputed = engine_database(&built_engine(&survivors));
        let mut one = built_engine(&case);
        let mut one_count = 0usize;
        for (rel, t) in &case.victims {
            let removed = one
                .remove_base(rel, t, DeletionAlgorithm::ProvenanceBased)
                .unwrap();
            one_count += usize::from(removed);
        }
        let mut set = built_engine(&case);
        let set_count = set.remove_bases(&victim_refs(&case)).unwrap();

        prop_assert_eq!(set_count, one_count, "base facts removed");
        prop_assert_eq!(engine_database(&set), engine_database(&one), "database");
        prop_assert_eq!(engine_database(&set), recomputed, "recomputation");
        prop_assert_eq!(
            removed_multiset(&mut set),
            removed_multiset(&mut one),
            "removed changes"
        );
        prop_assert_eq!(
            set.stats().tuples_removed,
            one.stats().tuples_removed,
            "tuples_removed"
        );
        prop_assert_eq!(
            survivor_polynomials(&set),
            survivor_polynomials(&one),
            "survivor provenance"
        );
    }

    /// Batched propagates followed by one set deletion wave, over random
    /// recursive and Skolem programs, leave exactly the naive fixpoint of
    /// the surviving facts; re-inserting one victim then runs a round over
    /// the graph the deletion left behind and lands on the naive fixpoint
    /// again.
    #[test]
    fn batched_replay_with_deletions_matches_naive_fixpoint(
        seed in 0u64..1_000_000,
        skolem in any::<bool>(),
        n_rules in 1usize..5,
        n_facts in 1usize..30,
        n_batches in 1usize..4,
    ) {
        let case = deletion_case(seed, skolem, n_rules, n_facts);
        let mut e = Engine::new(schema(), case.rules.clone()).unwrap();
        let chunk = case.facts.len().div_ceil(n_batches);
        for batch in case.facts.chunks(chunk) {
            for (rel, t) in batch {
                e.insert_base(rel, t.clone()).unwrap();
            }
            e.propagate().unwrap();
        }
        e.remove_bases(&victim_refs(&case)).unwrap();
        let mut survivors: Vec<(&'static str, Tuple)> = case
            .facts
            .iter()
            .filter(|f| !case.victims.contains(f))
            .cloned()
            .collect();
        prop_assert_eq!(
            engine_database(&e),
            naive_fixpoint(&case.rules, &survivors),
            "after the deletion wave"
        );
        if let Some((rel, t)) = case.victims.first() {
            e.insert_base(rel, t.clone()).unwrap();
            e.propagate().unwrap();
            survivors.push((rel, t.clone()));
        }
        prop_assert_eq!(
            engine_database(&e),
            naive_fixpoint(&case.rules, &survivors),
            "after re-inserting a victim"
        );
    }
}
