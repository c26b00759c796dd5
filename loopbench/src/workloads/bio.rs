//! `bio-join`: the paper's Figure 2 network. Alaska (Σ1: organisms,
//! proteins, sequences keyed by ids) and Crete (Σ2: one wide table)
//! publish; the join mapping Σ1→Σ2 and the Skolem-inventing split Σ2→Σ1
//! make the program recursive, a fifth of the transactions delete earlier
//! entries, and Crete trusts only Beijing and Dresden.

use crate::gen::{seed_for, OpHash, Rng};
use crate::run::{archive_of, Config, Counters, Finish, Recorder, ReplaySpec, Workload};
use crate::trace::{Layer, TimedStore};
use orchestra_core::{demo, Cdss, ExchangeOptions};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::tuple;
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Proteins (and so sequences) per organism entry.
const PROTEINS: usize = 4;
/// Per publisher and cycle: this many entries inserted, one transaction
/// each, then one transaction deleting as many of the oldest entries —
/// one transaction in five deletes, and the instances stay flat.
const ENTRIES_PER_CYCLE: usize = 4;
/// Entries each publisher holds when timing starts.
const PRELOAD_ENTRIES: usize = 400;

/// One organism with its proteins and their sequences.
#[derive(Debug, Clone)]
struct Entry {
    org: String,
    oid: i64,
    /// `(prot, pid, seq)`.
    prots: Vec<(String, i64, String)>,
}

type OpsRow = (String, String, String);

/// Generates both publishers' entries and keeps the rows Σ2 peers must
/// end up with.
#[derive(Debug)]
struct BioGen {
    rng: Rng,
    next_id: i64,
    alaska: VecDeque<Entry>,
    crete: VecDeque<Entry>,
    hash: OpHash,
}

impl BioGen {
    fn new(seed: u64) -> BioGen {
        BioGen {
            rng: Rng::new(seed),
            next_id: 0,
            alaska: VecDeque::new(),
            crete: VecDeque::new(),
            hash: OpHash::default(),
        }
    }

    /// A fresh entry; `site` keeps the two publishers' names apart.
    fn entry(&mut self, site: &str) -> Entry {
        self.next_id += 1;
        let oid = self.next_id;
        let org = format!("{site}-org{oid}");
        let prots = (0..PROTEINS)
            .map(|_| {
                self.next_id += 1;
                let pid = self.next_id;
                let seq = format!("SEQ{:012x}", self.rng.below(1 << 48));
                (format!("{site}-prot{pid}"), pid, seq)
            })
            .collect();
        let e = Entry { org, oid, prots };
        self.hash.str(&e.org);
        for (prot, _, seq) in &e.prots {
            self.hash.str(prot);
            self.hash.str(seq);
        }
        e
    }

    fn insert(&mut self, at_alaska: bool) -> Entry {
        let e = self.entry(if at_alaska { "a" } else { "c" });
        if at_alaska {
            self.alaska.push_back(e.clone());
        } else {
            self.crete.push_back(e.clone());
        }
        e
    }

    fn delete_oldest(&mut self, at_alaska: bool) -> Option<Entry> {
        let e = if at_alaska {
            self.alaska.pop_front()
        } else {
            self.crete.pop_front()
        }?;
        self.hash.byte(0xde);
        self.hash.i64(e.oid);
        Some(e)
    }

    fn rows(entries: &VecDeque<Entry>) -> impl Iterator<Item = OpsRow> + '_ {
        entries.iter().flat_map(|e| {
            e.prots
                .iter()
                .map(|(prot, _, seq)| (e.org.clone(), prot.clone(), seq.clone()))
        })
    }
}

/// Σ1 updates for one of Alaska's entries.
fn sigma1_updates(e: &Entry, insert: bool) -> Vec<Update> {
    let mk = |rel: &str, t| {
        if insert {
            Update::insert(rel, t)
        } else {
            Update::delete(rel, t)
        }
    };
    let mut out = vec![mk("O", tuple![e.org.as_str(), e.oid])];
    for (prot, pid, seq) in &e.prots {
        out.push(mk("P", tuple![prot.as_str(), *pid]));
        out.push(mk("S", tuple![e.oid, *pid, seq.as_str()]));
    }
    out
}

/// Σ2 updates for one of Crete's entries.
fn sigma2_updates(e: &Entry, insert: bool) -> Vec<Update> {
    e.prots
        .iter()
        .map(|(prot, _, seq)| {
            let t = tuple![e.org.as_str(), prot.as_str(), seq.as_str()];
            if insert {
                Update::insert("OPS", t)
            } else {
                Update::delete("OPS", t)
            }
        })
        .collect()
}

fn ops_state(cdss: &Cdss, peer: &PeerId) -> BTreeSet<OpsRow> {
    let Ok(rel) = cdss
        .peer(peer)
        .and_then(|p| Ok(p.instance().relation("OPS")?))
    else {
        return BTreeSet::new();
    };
    rel.iter()
        .filter_map(|t| {
            Some((
                t[0].as_str()?.to_string(),
                t[1].as_str()?.to_string(),
                t[2].as_str()?.to_string(),
            ))
        })
        .collect()
}

pub struct Bio {
    cdss: Cdss,
    gen: BioGen,
    alaska: PeerId,
    beijing: PeerId,
    crete: PeerId,
    dresden: PeerId,
    archive: Arc<dyn UpdateStore>,
    setup_hash: u64,
}

impl Bio {
    /// `demo::figure2`'s network, built here so the engines can be pinned
    /// to one thread; then both publishers preload and everyone catches up.
    pub fn setup(cfg: &Config, rec: &mut Recorder, name: &str) -> Bio {
        let archive: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
        let store = match &cfg.tracer {
            Some(t) => TimedStore::wrap(Arc::clone(&archive), t, Layer::Store),
            None => Arc::clone(&archive),
        };
        let s1 = demo::sigma1().expect("Σ1");
        let s2 = demo::sigma2().expect("Σ2");
        let cdss = Cdss::builder()
            .eval_threads(1)
            .peer("Alaska", s1.clone(), TrustPolicy::open(1))
            .peer("Beijing", s1, TrustPolicy::open(1))
            .peer("Crete", s2.clone(), demo::crete_policy())
            .peer("Dresden", s2, TrustPolicy::open(1))
            .identity("Alaska", "Beijing")
            .and_then(|b| b.identity("Crete", "Dresden"))
            .expect("identity mappings")
            .mapping(demo::ma_to_c().expect("MA->C"))
            .mapping(demo::mc_to_a().expect("MC->A"))
            .build_with_shared(store)
            .expect("build the Figure 2 network");
        let mut w = Bio {
            cdss,
            gen: BioGen::new(seed_for(cfg.seed, name)),
            alaska: PeerId::new("Alaska"),
            beijing: PeerId::new("Beijing"),
            crete: PeerId::new("Crete"),
            dresden: PeerId::new("Dresden"),
            archive,
            setup_hash: 0,
        };
        let preload = cfg.scaled(PRELOAD_ENTRIES, 8);
        for chunk in 0..preload.div_ceil(32) {
            let n = 32.min(preload - chunk * 32);
            for at_alaska in [true, false] {
                let txns = (0..n).map(|_| w.insert_txn(at_alaska)).collect();
                let publisher = w.publisher(at_alaska);
                rec.publish(&mut w.cdss, &publisher, txns);
            }
            w.reconcile_all(rec);
        }
        for _ in 0..2 {
            w.cycle(rec);
        }
        w.setup_hash = w.gen.hash.0;
        w
    }

    fn publisher(&self, at_alaska: bool) -> PeerId {
        if at_alaska {
            self.alaska.clone()
        } else {
            self.crete.clone()
        }
    }

    fn insert_txn(&mut self, at_alaska: bool) -> Vec<Update> {
        let e = self.gen.insert(at_alaska);
        if at_alaska {
            sigma1_updates(&e, true)
        } else {
            sigma2_updates(&e, true)
        }
    }

    fn reconcile_all(&mut self, rec: &mut Recorder) {
        for p in [&self.alaska, &self.beijing, &self.crete, &self.dresden] {
            rec.reconcile(&mut self.cdss, p, ExchangeOptions::default());
        }
    }
}

impl Workload for Bio {
    fn cycle(&mut self, rec: &mut Recorder) {
        let mut batches: Vec<(PeerId, Vec<Vec<Update>>)> = Vec::new();
        for at_alaska in [true, false] {
            let mut txns: Vec<Vec<Update>> = (0..ENTRIES_PER_CYCLE)
                .map(|_| self.insert_txn(at_alaska))
                .collect();
            let doomed: Vec<Update> = (0..ENTRIES_PER_CYCLE)
                .filter_map(|_| self.gen.delete_oldest(at_alaska))
                .flat_map(|e| {
                    if at_alaska {
                        sigma1_updates(&e, false)
                    } else {
                        sigma2_updates(&e, false)
                    }
                })
                .collect();
            txns.push(doomed);
            batches.push((self.publisher(at_alaska), txns));
        }
        let start = Instant::now();
        for (peer, txns) in batches {
            rec.publish(&mut self.cdss, &peer, txns);
        }
        self.reconcile_all(rec);
        rec.converged(start);
    }

    fn counters(&self) -> Counters {
        Counters::of_cdss(&self.cdss)
    }

    fn op_hash(&self) -> u64 {
        self.setup_hash
    }

    /// Expected state, computed from the generator alone: Dresden trusts
    /// everyone, so it holds the join of Alaska's live entries plus
    /// Crete's live rows; Crete distrusts Alaska, so it holds only its
    /// own; Beijing mirrors Alaska; and Alaska holds its own entries plus
    /// one id-invented copy of every row of Crete's.
    fn finish(self: Box<Self>, rec: &mut Recorder) -> Finish {
        let crete_rows: BTreeSet<OpsRow> = BioGen::rows(&self.gen.crete).collect();
        let mut dresden_rows = crete_rows.clone();
        dresden_rows.extend(BioGen::rows(&self.gen.alaska));
        let got = ops_state(&self.cdss, &self.dresden);
        rec.check(got == dresden_rows, || {
            format!(
                "Dresden holds {} OPS rows, the op generator expects {}",
                got.len(),
                dresden_rows.len()
            )
        });
        let got = ops_state(&self.cdss, &self.crete);
        rec.check(got == crete_rows, || {
            format!(
                "Crete holds {} OPS rows, the op generator expects {} (its own only)",
                got.len(),
                crete_rows.len()
            )
        });
        // Beijing mirrors Alaska and, unlike Alaska itself, also applies
        // the id-invented copies Alaska's own rows come back as through
        // Σ2 (a publisher drops the echo of its own transaction).
        let sigma1 = |p: &PeerId| self.cdss.peer(p).map(|p| p.instance()).ok();
        let mirrored = match (sigma1(&self.alaska), sigma1(&self.beijing)) {
            (Some(a), Some(b)) => a.relations().all(|rel| {
                let theirs = b.relation(rel.schema().name());
                theirs.is_ok_and(|theirs| rel.iter().all(|t| theirs.contains(t)))
            }),
            _ => false,
        };
        rec.check(mirrored, || "Beijing lacks tuples Alaska holds".to_string());
        let sequences = self
            .cdss
            .peer(&self.alaska)
            .ok()
            .and_then(|p| Some(p.instance().relation("S").ok()?.len()))
            .unwrap_or(0);
        rec.check(sequences == dresden_rows.len(), || {
            format!(
                "Alaska holds {sequences} sequences for {} expected (own plus Crete's, ids invented)",
                dresden_rows.len()
            )
        });
        let replay = rec
            .tracer
            .is_some()
            .then(|| (ReplaySpec::of_cdss(&self.cdss), archive_of(&*self.archive)));
        Finish {
            replay,
            ..Finish::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> BioGen {
        let mut g = BioGen::new(seed);
        for _ in 0..10 {
            g.insert(true);
            g.insert(false);
        }
        for _ in 0..30 {
            for at_alaska in [true, false] {
                for _ in 0..ENTRIES_PER_CYCLE {
                    g.insert(at_alaska);
                }
                for _ in 0..ENTRIES_PER_CYCLE {
                    g.delete_oldest(at_alaska);
                }
            }
        }
        g
    }

    #[test]
    fn same_seed_same_entries_and_both_sites_stay_flat() {
        assert_eq!(run(9).hash, run(9).hash);
        assert_ne!(run(9).hash, run(10).hash);
        let g = run(9);
        assert_eq!((g.alaska.len(), g.crete.len()), (10, 10));
        assert_eq!(BioGen::rows(&g.alaska).count(), 10 * PROTEINS);
    }
}
