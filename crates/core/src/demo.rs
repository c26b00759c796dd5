//! The paper's Figure 2 CDSS: four bioinformatics peers.
//!
//! "Four participants (the Universities of Alaska, Beijing, Crete, and
//! Dresden) share information about reference sequences for various
//! proteins in several organisms. Alaska and Beijing assign a unique ID to
//! each organism and protein and use those to give the reference
//! sequences, giving a schema Σ1 = {O(org, oid), P(prot, pid),
//! S(oid, pid, seq)}, while Crete and Dresden do not assign IDs, giving a
//! second schema Σ2 = {OPS(org, prot, seq)}. Mappings MA↔B and MC↔D are
//! identity mappings. MA→C joins the three tables of Σ1 into the single
//! table of Σ2, while MC→A does the inverse and splits the single table of
//! Σ2 into the three tables of Σ1. Alaska, Beijing and Dresden each trust
//! all other participants equally, but Crete trusts only Beijing and
//! Dresden (but prefers Beijing to Dresden in the event of a conflict)."

use crate::cdss::Cdss;
use crate::Result;
use orchestra_datalog::{Atom, Term, Tgd};
use orchestra_reconcile::{TrustCondition, TrustPolicy};
use orchestra_relational::{DatabaseSchema, RelationSchema, ValueType};
use orchestra_updates::PeerId;
use std::sync::Arc;

/// Σ1 = {O(org, oid), P(prot, pid), S(oid, pid, seq)} — organisms and
/// proteins carry unique IDs; `S` keys sequences by (oid, pid).
pub fn sigma1() -> Result<DatabaseSchema> {
    Ok(DatabaseSchema::new("Σ1")
        .with_relation(RelationSchema::from_parts_keyed(
            "O",
            &[("org", ValueType::Str), ("oid", ValueType::Int)],
            &["oid"],
        )?)?
        .with_relation(RelationSchema::from_parts_keyed(
            "P",
            &[("prot", ValueType::Str), ("pid", ValueType::Int)],
            &["pid"],
        )?)?
        .with_relation(RelationSchema::from_parts_keyed(
            "S",
            &[
                ("oid", ValueType::Int),
                ("pid", ValueType::Int),
                ("seq", ValueType::Str),
            ],
            &["oid", "pid"],
        )?)?)
}

/// Σ2 = {OPS(org, prot, seq)} — no IDs; keyed by (org, prot).
pub fn sigma2() -> Result<DatabaseSchema> {
    Ok(
        DatabaseSchema::new("Σ2").with_relation(RelationSchema::from_parts_keyed(
            "OPS",
            &[
                ("org", ValueType::Str),
                ("prot", ValueType::Str),
                ("seq", ValueType::Str),
            ],
            &["org", "prot"],
        )?)?,
    )
}

/// `MA→C`: join Σ1's three tables into Σ2's `OPS`.
pub fn ma_to_c() -> Result<Tgd> {
    Ok(Tgd::new(
        "MA->C",
        vec![
            Atom::vars("Alaska.O", &["org", "oid"]),
            Atom::vars("Alaska.P", &["prot", "pid"]),
            Atom::vars("Alaska.S", &["oid", "pid", "seq"]),
        ],
        vec![Atom::vars("Crete.OPS", &["org", "prot", "seq"])],
    )?)
}

/// `MC→A`: split `OPS` back into Σ1, inventing IDs. Explicit Skolem terms
/// make the invented organism id a function of `org` alone (and the
/// protein id of `prot` alone), so repeated sequences for one organism
/// share one labeled null — the natural reading of the paper's GUI.
pub fn mc_to_a() -> Result<Tgd> {
    let oid = || Term::skolem("oid", vec![Term::var("org")]);
    let pid = || Term::skolem("pid", vec![Term::var("prot")]);
    Ok(Tgd::new(
        "MC->A",
        vec![Atom::vars("Crete.OPS", &["org", "prot", "seq"])],
        vec![
            Atom::new("Alaska.O", vec![Term::var("org"), oid()]),
            Atom::new("Alaska.P", vec![Term::var("prot"), pid()]),
            Atom::new("Alaska.S", vec![oid(), pid(), Term::var("seq")]),
        ],
    )?)
}

/// Crete's trust policy: only Beijing (priority 2) and Dresden (priority
/// 1) are trusted; everything else is distrusted.
pub fn crete_policy() -> TrustPolicy {
    TrustPolicy::closed()
        .with(TrustCondition::peer(PeerId::new("Beijing"), 2))
        .with(TrustCondition::peer(PeerId::new("Dresden"), 1))
}

/// Build the complete Figure 2 CDSS with the default in-memory store.
pub fn figure2() -> Result<Cdss> {
    figure2_with_store(Arc::new(orchestra_store::InMemoryStore::new()))
}

/// Build the Figure 2 CDSS over a store the caller keeps a handle on
/// (e.g. the simulated DHT, to take storage nodes down).
pub fn figure2_with_store(store: Arc<dyn orchestra_store::UpdateStore>) -> Result<Cdss> {
    let s1 = sigma1()?;
    let s2 = sigma2()?;
    Cdss::builder()
        .peer("Alaska", s1.clone(), TrustPolicy::open(1))
        .peer("Beijing", s1, TrustPolicy::open(1))
        .peer("Crete", s2.clone(), crete_policy())
        .peer("Dresden", s2, TrustPolicy::open(1))
        .identity("Alaska", "Beijing")?
        .identity("Crete", "Dresden")?
        .mapping(ma_to_c()?)
        .mapping(mc_to_a()?)
        .build_with_shared(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::Update;

    #[test]
    fn schemas_match_paper() {
        let s1 = sigma1().unwrap();
        assert_eq!(s1.len(), 3);
        assert!(s1.contains("O"));
        assert!(s1.contains("P"));
        assert!(s1.contains("S"));
        let s2 = sigma2().unwrap();
        assert_eq!(s2.len(), 1);
        assert_eq!(s2.relation("OPS").unwrap().key(), &[0, 1]);
    }

    #[test]
    fn network_builds() {
        let cdss = figure2().unwrap();
        assert_eq!(cdss.peer_ids().len(), 4);
        // 6 identity tgds (3 relations × 2 directions) + 2 for OPS + join + split.
        assert_eq!(cdss.mappings().len(), 10);
    }

    #[test]
    fn alaska_to_dresden_end_to_end() {
        // Scenario 1: "Updates made by Alaska get translated into
        // Dresden's schema and applied."
        let mut cdss = figure2().unwrap();
        let alaska = PeerId::new("Alaska");
        let dresden = PeerId::new("Dresden");
        cdss.publish_transaction(
            &alaska,
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("S", tuple![1, 2, "MRVKEKYQ"]),
            ],
        )
        .unwrap();
        let report = cdss.reconcile(&dresden).unwrap();
        assert_eq!(report.candidates, 1);
        assert_eq!(report.outcome.accepted.len(), 1);
        let ops = cdss
            .peer(&dresden)
            .unwrap()
            .instance()
            .relation("OPS")
            .unwrap();
        assert!(ops.contains(&tuple!["HIV", "gp120", "MRVKEKYQ"]));
    }

    #[test]
    fn dresden_to_alaska_invents_ids() {
        // Scenario 1 (reverse direction): Dresden's OPS rows split into
        // Σ1 with labeled-null ids at Alaska.
        let mut cdss = figure2().unwrap();
        let alaska = PeerId::new("Alaska");
        let dresden = PeerId::new("Dresden");
        cdss.publish_transaction(
            &dresden,
            vec![Update::insert("OPS", tuple!["Rat", "p53", "MEEPQSDPSV"])],
        )
        .unwrap();
        let report = cdss.reconcile(&alaska).unwrap();
        assert_eq!(report.outcome.accepted.len(), 1);
        let peer = cdss.peer(&alaska).unwrap();
        let o = peer.instance().relation("O").unwrap();
        assert_eq!(o.len(), 1);
        let o_row = o.iter().next().unwrap();
        assert_eq!(o_row[0], orchestra_relational::Value::str("Rat"));
        assert!(o_row[1].is_labeled_null(), "invented organism id");
        let s = peer.instance().relation("S").unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.iter().next().unwrap()[0].is_labeled_null());
    }
}
