//! Deterministic workload generators for the engine-level experiments
//! (E4, E9).

use orchestra_core::demo;
use orchestra_datalog::{Engine, Rule};
use orchestra_relational::{tuple, DatabaseSchema, Tuple};
use orchestra_updates::PeerId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The Figure 2 mapping program compiled against the combined qualified
/// schema — for the engine-level experiment (E4) that bypasses the CDSS.
pub fn bio_engine_parts() -> (DatabaseSchema, Vec<Rule>) {
    let s1 = demo::sigma1().unwrap();
    let s2 = demo::sigma2().unwrap();
    let mut combined = DatabaseSchema::new("cdss");
    for (peer, schema) in [
        ("Alaska", &s1),
        ("Beijing", &s1),
        ("Crete", &s2),
        ("Dresden", &s2),
    ] {
        for rel in orchestra_core::qualified_schema(&PeerId::new(peer), schema).unwrap() {
            combined.add_relation(rel).unwrap();
        }
    }
    let mut rules = Vec::new();
    for m in orchestra_core::identity_mappings(&PeerId::new("Alaska"), &PeerId::new("Beijing"), &s1)
        .unwrap()
    {
        rules.extend(m.compile().unwrap());
    }
    for m in orchestra_core::identity_mappings(&PeerId::new("Crete"), &PeerId::new("Dresden"), &s2)
        .unwrap()
    {
        rules.extend(m.compile().unwrap());
    }
    rules.extend(demo::ma_to_c().unwrap().compile().unwrap());
    rules.extend(demo::mc_to_a().unwrap().compile().unwrap());
    (combined, rules)
}

/// The base facts for `n_seqs` sequences in Alaska's qualified relations.
pub fn bio_base_facts(n_seqs: usize) -> Vec<(&'static str, Tuple)> {
    let mut out = Vec::with_capacity(n_seqs * 3);
    let mut oid = 0i64;
    let mut i = 0usize;
    while i < n_seqs {
        oid += 1;
        out.push(("Alaska.O", tuple![format!("org{oid}"), oid]));
        for j in 0..8.min(n_seqs - i) {
            let pid = (oid * 1000) + j as i64;
            out.push(("Alaska.P", tuple![format!("prot{pid}"), pid]));
            out.push(("Alaska.S", tuple![oid, pid, format!("SEQ-{oid}-{j}")]));
        }
        i += 8.min(n_seqs - i);
    }
    out
}

/// Build a warm engine loaded with `facts`.
pub fn warm_engine(
    schema: DatabaseSchema,
    rules: Vec<Rule>,
    facts: &[(&'static str, Tuple)],
) -> Engine {
    let mut e = Engine::new(schema, rules).unwrap();
    for (rel, t) in facts {
        e.insert_base(rel, t.clone()).unwrap();
    }
    e.propagate().unwrap();
    e
}

/// E9: a random provenance polynomial with `terms` monomials over
/// `vars` variables with exponents ≤ 2.
pub fn random_polynomial(
    terms: usize,
    vars: u32,
    seed: u64,
) -> orchestra_provenance::Polynomial<u32> {
    use orchestra_provenance::{Monomial, Polynomial, Semiring};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Polynomial::zero();
    for _ in 0..terms {
        let n_factors = rng.random_range(1..4usize);
        let pairs: Vec<(u32, u32)> = (0..n_factors)
            .map(|_| (rng.random_range(0..vars), rng.random_range(1..3u32)))
            .collect();
        p.plus_assign(&Polynomial::term(
            Monomial::from_pairs(pairs),
            rng.random_range(1..3u64),
        ));
    }
    p
}
