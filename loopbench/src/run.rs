//! The closed loop: one client calls into a `Cdss` and waits. This module
//! holds what every workload shares — the timed wrappers around the
//! calls a curator makes, the op log a traced run replays, and the
//! counters read off the public getters.

use crate::trace::{Layer, Tracer};
use orchestra_core::{Cdss, ExchangeOptions, ReconcileReport};
use orchestra_datalog::Tgd;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::DatabaseSchema;
use orchestra_updates::{PeerId, Transaction, TxnId, Update};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What a workload is built from.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Divide every size by this (1 = full size, 50 = `--smoke`).
    pub shrink: usize,
    /// Scratch directory inside the build directory (durable archives,
    /// trace files).
    pub work_dir: PathBuf,
    /// `Some` on a traced run: stores get wrapped, calls get spans.
    pub tracer: Option<Arc<Tracer>>,
}

impl Config {
    /// `n` at full size, `n / shrink` (at least `floor`) under `--smoke`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        (n / self.shrink).max(floor)
    }
}

/// One driver call, as the traced run's replay needs it.
#[derive(Debug, Clone)]
pub struct Op {
    pub call: Call,
    /// Made in a measured cycle of the timed section.
    pub timed: bool,
}

#[derive(Debug, Clone)]
pub enum Call {
    /// `peer` published the next `txns` transactions of the archive.
    Publish { peer: PeerId, txns: usize },
    /// `peer` reconciled and translated `candidates` foreign
    /// transactions (the next ones in archive order it had not seen).
    Reconcile { peer: PeerId, candidates: usize },
    /// `peer`'s administrator resolved a conflict in favour of `winner`.
    Resolve { peer: PeerId, winner: TxnId },
}

/// Samples and counts of one run. Latencies are recorded only while
/// `on` (the timed section); the op log and the totals the output checks
/// need are kept throughout.
#[derive(Debug, Default)]
pub struct Recorder {
    pub on: bool,
    pub publish_ms: Vec<f64>,
    pub reconcile_ms: Vec<f64>,
    pub converge_ms: Vec<f64>,
    /// Operations attempted / failed in the timed section.
    pub attempted: u64,
    pub failed: u64,
    /// `ReconcileReport` sums over the timed section.
    pub applied: u64,
    pub pages: u64,
    pub candidates: u64,
    pub accepted: u64,
    pub deferred: u64,
    pub rejected: u64,
    pub failures: Vec<String>,
    pub tracer: Option<Arc<Tracer>>,
    /// Every call since the archive was empty (traced runs only).
    pub oplog: Vec<Op>,
}

impl Recorder {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Recorder {
        Recorder {
            tracer,
            ..Recorder::default()
        }
    }

    fn log(&mut self, call: Call) {
        if self.tracer.is_some() {
            self.oplog.push(Op {
                call,
                timed: self.on,
            });
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// One output check, counted like an operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Run one call into `core` under a span; returns its result and
    /// its latency in ms, and counts it as attempted.
    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let span = self
            .tracer
            .as_ref()
            .and_then(|t| t.enter(Layer::Core, name));
        let t0 = Instant::now();
        let result = call();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(span);
        if self.on {
            self.attempted += 1;
        }
        (result, ms)
    }

    /// `Cdss::publish_transactions`, timed.
    pub fn publish(
        &mut self,
        cdss: &mut Cdss,
        peer: &PeerId,
        txns: Vec<Vec<Update>>,
    ) -> Option<Vec<TxnId>> {
        let n = txns.len();
        let (result, ms) = self.timed("publish", || cdss.publish_transactions(peer, txns));
        if self.on {
            self.publish_ms.push(ms);
        }
        match result {
            Ok(ids) => {
                self.log(Call::Publish {
                    peer: peer.clone(),
                    txns: n,
                });
                Some(ids)
            }
            Err(e) => {
                self.fail(format!("publish at {peer}: {e}"));
                None
            }
        }
    }

    /// `Cdss::reconcile_with`, timed. Only exchanges that found new
    /// history give a latency sample: an idle poll (a mesh node whose
    /// round pulled nothing) is not the call a curator waits on.
    pub fn reconcile(
        &mut self,
        cdss: &mut Cdss,
        peer: &PeerId,
        opts: ExchangeOptions,
    ) -> Option<ReconcileReport> {
        let (result, ms) = self.timed("reconcile", || cdss.reconcile_with(peer, opts));
        match result {
            Ok(report) => {
                if report.unreachable || report.blocked_on.is_some() {
                    self.fail(format!(
                        "reconcile at {peer}: archive unreachable or blocked"
                    ));
                }
                if self.on {
                    if report.candidates > 0 {
                        self.reconcile_ms.push(ms);
                    }
                    self.applied += report.applied_updates as u64;
                    self.pages += report.pages as u64;
                    self.candidates += report.candidates as u64;
                    self.accepted += report.outcome.accepted.len() as u64;
                    self.deferred += report.outcome.deferred.len() as u64;
                    self.rejected += report.outcome.rejected.len() as u64;
                }
                if report.candidates > 0 {
                    self.log(Call::Reconcile {
                        peer: peer.clone(),
                        candidates: report.candidates,
                    });
                }
                Some(report)
            }
            Err(e) => {
                self.fail(format!("reconcile at {peer}: {e}"));
                None
            }
        }
    }

    /// `Cdss::resolve`, timed as part of the cycle; returns the updates
    /// applied.
    pub fn resolve(&mut self, cdss: &mut Cdss, peer: &PeerId, winner: &TxnId) -> usize {
        let (result, _) = self.timed("resolve", || cdss.resolve(peer, winner));
        match result {
            Ok(report) => {
                if self.on {
                    self.applied += report.applied_updates as u64;
                    self.accepted += report.outcome.accepted.len() as u64;
                    self.rejected += report.outcome.rejected.len() as u64;
                }
                self.log(Call::Resolve {
                    peer: peer.clone(),
                    winner: winner.clone(),
                });
                report.applied_updates
            }
            Err(e) => {
                self.fail(format!("resolve {winner} at {peer}: {e}"));
                0
            }
        }
    }

    /// One exchange cycle took this long from its first publish until
    /// every peer held its updates.
    pub fn converged(&mut self, since: Instant) {
        if self.on {
            self.converge_ms.push(since.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// The monotone counts read off the public getters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    EngineRounds,
    EngineFirings,
    EngineIndexProbes,
    StorePages,
    StoreFetched,
    NetRoundTrips,
    NetBytesSent,
    NetBytesReceived,
    NetRetries,
    MeshPulls,
    MeshAbsorbed,
    MeshDuplicates,
}

const COUNTS: usize = Count::MeshDuplicates as usize + 1;

/// Counters as of some instant; the report shows timed-section deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    counts: [u64; COUNTS],
    /// The largest engine interner: a size, not a rate, so never summed
    /// or subtracted.
    pub interner_symbols: u64,
}

impl Counters {
    pub fn get(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    pub fn bump(&mut self, c: Count, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Engine counters summed over a CDSS's peers, store counters from
    /// its archive.
    pub fn of_cdss(cdss: &Cdss) -> Counters {
        let mut c = Counters::default();
        c.add_cdss(cdss, &cdss.peer_ids());
        c
    }

    /// Add the engines of `peers` (the ones a node hosts) and the
    /// archive counters of `cdss`.
    pub fn add_cdss(&mut self, cdss: &Cdss, peers: &[PeerId]) {
        for peer in peers.iter().filter_map(|id| cdss.peer(id).ok()) {
            let s = peer.engine_stats();
            self.bump(Count::EngineRounds, s.rounds);
            self.bump(Count::EngineFirings, s.firings);
            self.bump(Count::EngineIndexProbes, s.index_probes);
            self.interner_symbols = self.interner_symbols.max(s.interner_symbols);
        }
        let store = cdss.stats().store;
        self.bump(Count::StorePages, store.pages);
        self.bump(Count::StoreFetched, store.fetched);
    }

    pub fn add_net(&mut self, n: orchestra_net::NetStats) {
        self.bump(Count::NetRoundTrips, n.round_trips);
        self.bump(Count::NetBytesSent, n.bytes_sent);
        self.bump(Count::NetBytesReceived, n.bytes_received);
        self.bump(Count::NetRetries, n.transport_errors);
    }

    /// `self += other`.
    pub fn add(&mut self, other: &Counters) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.interner_symbols = self.interner_symbols.max(other.interner_symbols);
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = *self;
        for (mine, theirs) in out.counts.iter_mut().zip(earlier.counts) {
            *mine -= theirs;
        }
        out
    }
}

/// What a standalone replay needs to rebuild the translation engine and
/// the reconcilers: the declared peers and the mapping program.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    pub peers: Vec<(PeerId, DatabaseSchema, TrustPolicy)>,
    pub mappings: Vec<Tgd>,
}

impl ReplaySpec {
    pub fn of_cdss(cdss: &Cdss) -> ReplaySpec {
        let peers = cdss
            .peer_ids()
            .into_iter()
            .filter_map(|id| {
                let p = cdss.peer(&id).ok()?;
                Some((id, p.schema().clone(), p.policy().clone()))
            })
            .collect();
        ReplaySpec {
            peers,
            mappings: cdss.mappings().to_vec(),
        }
    }
}

/// What a workload hands back after its output checks.
#[derive(Debug, Default)]
pub struct Finish {
    /// Traced runs: the whole archive in `(epoch, id)` order and how to
    /// replay it.
    pub replay: Option<(ReplaySpec, Vec<Transaction>)>,
    /// `bulk-durable`: time to reopen the archive from disk.
    pub reopen_s: f64,
    /// `bulk-durable`: bytes on disk per byte of tuple payload published.
    pub disk_bytes_per_user_byte: f64,
    /// `mesh-converge`: gossip sweeps per publish, median.
    pub rounds_to_converge: f64,
}

/// One of the six workloads, built and warmed.
pub trait Workload {
    /// One exchange cycle: publish, then every receiving peer catches up.
    fn cycle(&mut self, rec: &mut Recorder);
    /// Counters as of now.
    fn counters(&self) -> Counters;
    /// Hash of the ops set-up generated (preload and warm cycles). The
    /// generator's state is a function of the seed and the ops drawn so
    /// far, so equal hashes mean equal streams from there on.
    fn op_hash(&self) -> u64;
    /// Output checks (counted into the recorder), then tear down.
    fn finish(self: Box<Self>, rec: &mut Recorder) -> Finish;
}

/// Every transaction archived in `store`, in `(epoch, id)` order.
pub fn archive_of(store: &dyn orchestra_store::UpdateStore) -> Vec<Transaction> {
    let start = orchestra_store::FetchCursor::at_epoch(orchestra_updates::Epoch::zero());
    orchestra_store::pages(store, start, orchestra_store::DEFAULT_PAGE_LIMIT)
        .filter_map(Result::ok)
        .flat_map(|page| page.txns)
        .collect()
}
