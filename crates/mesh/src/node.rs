//! [`MeshNode`]: one gossiping participant — a CDSS, its served archive,
//! a membership list, and the anti-entropy round engine.

use orchestra_core::{Cdss, CoreError, ReconcileReport};
use orchestra_net::{PeerServer, PullPage, RemoteOptions, RemoteStore, ServerOptions};
use orchestra_store::{FetchCursor, StoreDigest, StoreError, UpdateStore};
use orchestra_updates::{Epoch, PeerId, TxnId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

/// What a node declares interest in — and therefore stores and ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterestMode {
    /// Replicate only the backward closure of the hosted peers'
    /// relations over the mapping program ([`Cdss::interest_set`]):
    /// updates to any other relation can never reach a hosted instance,
    /// so they are neither stored nor shipped here.
    #[default]
    Derived,
    /// Replicate the full published history (an archival node).
    Everything,
}

/// Tunables for a [`MeshNode`].
#[derive(Debug, Clone)]
pub struct MeshOptions {
    /// Neighbors contacted per anti-entropy round.
    pub fanout: usize,
    /// Scan positions per `PullPages` request.
    pub page_limit: u64,
    /// Seed for neighbor selection — rounds are deterministic under it.
    pub seed: u64,
    /// Partial or full replication.
    pub interest: InterestMode,
    /// Client-side transport tunables for neighbor connections.
    pub remote: RemoteOptions,
    /// Tunables for the served archive.
    pub server: ServerOptions,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            fanout: 2,
            page_limit: orchestra_store::DEFAULT_PAGE_LIMIT as u64,
            seed: 0,
            interest: InterestMode::default(),
            remote: RemoteOptions::default(),
            server: ServerOptions::default(),
        }
    }
}

/// Cumulative counters for one node's gossip activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Anti-entropy rounds run.
    pub rounds: u64,
    /// Neighbor digests fetched.
    pub digests_fetched: u64,
    /// `PullPages` requests issued.
    pub pulls: u64,
    /// Transactions merged into the local archive.
    pub txns_absorbed: u64,
    /// Transactions pulled that the archive already held.
    pub duplicates: u64,
    /// Scan positions returned as skipped ids instead of payloads.
    pub skipped_positions: u64,
    /// Exchanges abandoned on a neighbor failure (cursor frozen).
    pub neighbor_failures: u64,
    /// Locally quarantined positions repaired with bytes pulled from a
    /// neighbor (re-indexed in place, not re-applied).
    pub healed: u64,
}

/// What one [`MeshNode::run_round`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Neighbors contacted this round.
    pub contacted: usize,
    /// Neighbors that failed mid-exchange (their cursors froze).
    pub failures: usize,
    /// Transactions newly merged into the local archive.
    pub absorbed: u64,
    /// Pulled transactions the archive already held.
    pub duplicates: u64,
    /// Quarantined positions repaired from pulled bytes.
    pub healed: u64,
}

/// A neighbor scan in progress: where to resume, and which sources this
/// scan has already seen a hole for (their floors freeze until the next
/// fresh scan).
#[derive(Debug)]
struct Scan {
    cursor: FetchCursor,
    broken: BTreeSet<String>,
}

/// One membership entry and everything learned from it.
struct Neighbor {
    addr: String,
    remote: RemoteStore,
    /// `Some` while a scan is mid-drain; frozen in place on a failure so
    /// the next round resumes at the gap, exactly like a reconcile
    /// cursor. `None` means the next pull starts a fresh scan at the
    /// floor — which is also how backfill absorbed *behind* a finished
    /// scan gets seen.
    scan: Option<Scan>,
    /// Per-source contiguous prefix of positions witnessed on this
    /// neighbor (shipped or skipped). Monotone; feeds the node-wide
    /// considered floors.
    floors: BTreeMap<String, u64>,
    /// Digest recorded when a scan last ran to the end: anything not
    /// beyond it is known undeliverable from this neighbor (held by us,
    /// outside our interest, or unavailable), so it never re-triggers a
    /// pull — the termination guarantee.
    drained: Option<StoreDigest>,
    failures: u64,
    last_error: Option<StoreError>,
}

/// A gossiping CDSS node: serves its own archive over TCP and runs
/// pull-based anti-entropy rounds against a few random neighbors.
pub struct MeshNode {
    name: String,
    cdss: Cdss,
    archive: Arc<dyn UpdateStore>,
    server: PeerServer,
    interest: Vec<String>,
    own_sources: Vec<PeerId>,
    neighbors: Vec<Neighbor>,
    rng: StdRng,
    /// The mixed (name-salted) seed the round RNG started from — logged
    /// by harnesses so any run is replayable.
    seed: u64,
    opts: MeshOptions,
    stats: MeshStats,
}

impl MeshNode {
    /// Wrap a CDSS in a mesh node hosting **all** of its declared peers:
    /// serve its archive on `bind` and derive the interest set from its
    /// mappings.
    pub fn start(
        name: impl Into<String>,
        cdss: Cdss,
        bind: impl std::net::ToSocketAddrs,
        opts: MeshOptions,
    ) -> std::io::Result<MeshNode> {
        let hosted = cdss.peer_ids();
        MeshNode::start_hosting(name, cdss, hosted, bind, opts)
    }

    /// Wrap a CDSS in a mesh node that **hosts** only `hosted` of its
    /// declared peers. The schema and mapping program are global
    /// knowledge — every mesh participant's CDSS declares all peers so
    /// mappings compile — but only the hosted peers publish, reconcile,
    /// and materialize instances on this node, and only their backward
    /// mapping closure is replicated here (under
    /// [`InterestMode::Derived`]).
    pub fn start_hosting(
        name: impl Into<String>,
        cdss: Cdss,
        hosted: Vec<PeerId>,
        bind: impl std::net::ToSocketAddrs,
        opts: MeshOptions,
    ) -> std::io::Result<MeshNode> {
        let name = name.into();
        let archive = cdss.shared_store();
        let server = PeerServer::bind_with(bind, Arc::clone(&archive), opts.server)?;
        let interest = match opts.interest {
            InterestMode::Derived => cdss.interest_set_for(&hosted).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?,
            InterestMode::Everything => Vec::new(),
        };
        let own_sources = hosted;
        // Distinct seeds per node even when the caller reuses one: mix
        // the node name in, deterministically.
        let mut seed = opts.seed;
        for b in name.bytes() {
            seed = seed.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
        Ok(MeshNode {
            name,
            cdss,
            archive,
            server,
            interest,
            own_sources,
            neighbors: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            opts,
            stats: MeshStats::default(),
        })
    }

    /// This node's name on the mesh.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The effective neighbor-selection seed (the configured seed mixed
    /// with the node name). Feeding it back through `MeshOptions::seed`
    /// on a node with an empty name replays this node's round choices.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The address the node's archive is served on.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The owner-qualified relations this node replicates (empty = all).
    pub fn interest(&self) -> &[String] {
        &self.interest
    }

    /// The wrapped CDSS.
    pub fn cdss(&self) -> &Cdss {
        &self.cdss
    }

    /// The wrapped CDSS, mutably — publish and reconcile through this.
    pub fn cdss_mut(&mut self) -> &mut Cdss {
        &mut self.cdss
    }

    /// The shared archive this node serves and merges into.
    pub fn archive(&self) -> &Arc<dyn UpdateStore> {
        &self.archive
    }

    /// The served archive's per-message counters.
    pub fn server_stats(&self) -> orchestra_net::ServerStats {
        self.server.stats()
    }

    /// Gossip counters.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Transport counters summed across all neighbor links.
    pub fn net_stats(&self) -> orchestra_net::NetStats {
        self.neighbors
            .iter()
            .fold(orchestra_net::NetStats::default(), |mut acc, n| {
                let ns = n.remote.net_stats();
                acc.round_trips += ns.round_trips;
                acc.connects += ns.connects;
                acc.transport_errors += ns.transport_errors;
                acc.unavailable_mapped += ns.unavailable_mapped;
                acc.bytes_sent += ns.bytes_sent;
                acc.bytes_received += ns.bytes_received;
                acc
            })
    }

    /// Add a neighbor by address (lazily dialed; duplicates ignored).
    pub fn join(&mut self, addr: impl Into<String>) -> crate::Result<()> {
        let addr = addr.into();
        if self.neighbors.iter().any(|n| n.addr == addr) {
            return Ok(());
        }
        let remote = RemoteStore::lazy_with(addr.as_str(), self.opts.remote)?;
        self.neighbors.push(Neighbor {
            addr,
            remote,
            scan: None,
            floors: BTreeMap::new(),
            drained: None,
            failures: 0,
            last_error: None,
        });
        Ok(())
    }

    /// Current membership, in join order.
    pub fn neighbors(&self) -> Vec<String> {
        self.neighbors.iter().map(|n| n.addr.clone()).collect()
    }

    /// Drop a neighbor by address — a peer that left the mesh, or a
    /// crashed one whose replacement rebinds elsewhere. Everything
    /// learned from it (frozen cursor, floors, drained digest) goes with
    /// it; the floors only ever under-approximate, so forgetting them is
    /// always sound. Returns whether the address was a member.
    pub fn leave(&mut self, addr: &str) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|n| n.addr != addr);
        self.neighbors.len() != before
    }

    /// The last error an exchange with `addr` died on, if any.
    pub fn neighbor_error(&self, addr: &str) -> Option<StoreError> {
        self.neighbors
            .iter()
            .find(|n| n.addr == addr)
            .and_then(|n| n.last_error.clone())
    }

    /// The archive position the next exchange with `addr` resumes from,
    /// if the last one froze mid-scan.
    pub fn neighbor_cursor(&self, addr: &str) -> Option<FetchCursor> {
        self.neighbors
            .iter()
            .find(|n| n.addr == addr)
            .and_then(|n| n.scan.as_ref().map(|s| s.cursor.clone()))
    }

    /// The node-wide considered floors: for each source, the longest
    /// prefix of its sequence every position of which is either stored
    /// locally or outside this node's interest. Sent as the `have`
    /// vector on pulls.
    pub fn considered(&self) -> Vec<(String, u64)> {
        let mut floors: BTreeMap<String, u64> = BTreeMap::new();
        // This node's own publishers: their entire history is local (a
        // publisher's archive holds its own dense sequence by
        // construction), so the local high-water is the floor.
        if let Ok(local) = self.archive.digest() {
            for id in &self.own_sources {
                let hw = local.source_hw(id.name());
                if hw > 0 {
                    floors.insert(id.name().to_string(), hw);
                }
            }
        }
        for n in &self.neighbors {
            for (source, f) in &n.floors {
                let e = floors.entry(source.clone()).or_insert(0);
                *e = (*e).max(*f);
            }
        }
        // A quarantined position is a local hole even though it once
        // counted toward a floor: cap each source below its lowest
        // quarantined sequence, so neighbors re-ship the payload instead
        // of skipping it as already held.
        for (_, id) in self.archive.quarantined() {
            if let Some(f) = floors.get_mut(id.peer.name()) {
                *f = (*f).min(id.seq.saturating_sub(1));
            }
        }
        floors.retain(|_, f| *f > 0);
        floors.into_iter().collect()
    }

    /// One anti-entropy round: contact `fanout` random neighbors, pull
    /// whatever their digests show we miss, merge it, and rewind the
    /// CDSS over any backfill. Neighbor failures degrade the round
    /// (cursor frozen, counted) — only a *local* archive failure errors.
    pub fn run_round(&mut self) -> crate::Result<RoundReport> {
        self.stats.rounds += 1;
        // One trace id per gossip round, propagated to every neighbor
        // over HELLO/PULL_PAGES: the remote server adopts it while
        // executing, so one cross-peer exchange stitches into one trace.
        let _trace = orchestra_obs::trace_mint();
        let _span =
            orchestra_obs::span!("mesh.round", node = &self.name, round = self.stats.rounds);
        let mut report = RoundReport::default();
        let mut span: Option<(Epoch, Epoch)> = None;
        // Quarantined positions gossip as gaps: the drained snapshots
        // said "nothing new here", but a hole opened locally since, so
        // every neighbor is worth re-scanning for the repair bytes.
        if !self.archive.quarantined().is_empty() {
            for n in &mut self.neighbors {
                n.drained = None;
            }
        }
        for i in self.pick_neighbors() {
            report.contacted += 1;
            match self.exchange_with(i, &mut span, &mut report) {
                Ok(()) => {}
                // The local archive failing to merge is this node's
                // problem, not the neighbor's: surface it.
                Err(ExchangeFail::Local(e)) => return Err(e),
                Err(ExchangeFail::Neighbor(e)) => {
                    self.neighbors[i].failures += 1;
                    self.neighbors[i].last_error = Some(e);
                    self.stats.neighbor_failures += 1;
                    report.failures += 1;
                }
            }
        }
        if let Some((lo, hi)) = span {
            self.cdss.note_absorbed(lo, hi);
        }
        Ok(report)
    }

    /// The peers hosted on this node.
    pub fn hosted(&self) -> &[PeerId] {
        &self.own_sources
    }

    /// [`run_round`](MeshNode::run_round), then reconcile every hosted
    /// peer against the merged archive.
    pub fn converge_step(
        &mut self,
    ) -> std::result::Result<(RoundReport, Vec<(PeerId, ReconcileReport)>), CoreError> {
        let round = self
            .run_round()
            .map_err(|e| CoreError::Store(e.to_string()))?;
        let mut recon = Vec::with_capacity(self.own_sources.len());
        for id in self.own_sources.clone() {
            let report = self.cdss.reconcile(&id)?;
            recon.push((id, report));
        }
        Ok((round, recon))
    }

    /// Stop serving and drop every neighbor link. The archive (and the
    /// CDSS) live on through their other handles.
    pub fn shutdown(self) -> Cdss {
        self.server.shutdown();
        self.cdss
    }

    /// Deterministically pick up to `fanout` distinct neighbor indices
    /// (partial Fisher–Yates under the node's seeded generator).
    fn pick_neighbors(&mut self) -> Vec<usize> {
        let n = self.neighbors.len();
        let k = self.opts.fanout.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for slot in 0..k {
            let pick = self.rng.random_range(slot..n);
            idx.swap(slot, pick);
        }
        idx.truncate(k);
        idx
    }

    /// Run one digest/pull exchange against neighbor `i`.
    fn exchange_with(
        &mut self,
        i: usize,
        span: &mut Option<(Epoch, Epoch)>,
        report: &mut RoundReport,
    ) -> std::result::Result<(), ExchangeFail> {
        if orchestra_fault::check("mesh.exchange").is_some() {
            // An injected round-boundary failure: the exchange degrades
            // exactly like a neighbor that dropped off mid-round.
            return Err(ExchangeFail::Neighbor(StoreError::Unavailable {
                txn: format!("<{}: injected failpoint: exchange abandoned>", self.name),
            }));
        }
        let digest = {
            let _span = orchestra_obs::span!("mesh.digest", neighbor = i);
            self.neighbors[i]
                .remote
                .digest()
                .map_err(ExchangeFail::Neighbor)?
        };
        self.stats.digests_fetched += 1;

        // A frozen mid-scan cursor always resumes; otherwise pull only
        // if the digest shows something new we could actually absorb.
        if self.neighbors[i].scan.is_none() && !self.wants(&digest, i) {
            return Ok(());
        }

        loop {
            let have = self.considered();
            let cursor = match &self.neighbors[i].scan {
                Some(s) => s.cursor.clone(),
                None => {
                    // Fresh scan from the floor, not from the top: the
                    // neighbor may have backfilled behind any previous
                    // scan's end, but only above our floors (see the
                    // crate doc, "Why the bookkeeping is sound").
                    let start = FetchCursor::at_epoch(self.scan_start(&digest, &have));
                    self.neighbors[i].scan = Some(Scan {
                        cursor: start.clone(),
                        broken: BTreeSet::new(),
                    });
                    start
                }
            };
            let mut page = {
                let _span = orchestra_obs::span!("mesh.pull", neighbor = i);
                self.neighbors[i]
                    .remote
                    .pull_pages(&cursor, self.opts.page_limit, &self.interest, &have)
                    .map_err(ExchangeFail::Neighbor)?
            };
            orchestra_obs::counter!("mesh.round.pages_pulled", 1);
            self.stats.pulls += 1;
            self.stats.skipped_positions += page.skipped.len() as u64;
            let shipped: Vec<TxnId> = page.txns.iter().map(|t| t.id.clone()).collect();
            if !page.txns.is_empty() {
                let (mut lo, mut hi) = (Epoch::zero(), Epoch::zero());
                for (k, t) in page.txns.iter().enumerate() {
                    if k == 0 || t.epoch < lo {
                        lo = t.epoch;
                    }
                    if k == 0 || t.epoch > hi {
                        hi = t.epoch;
                    }
                }
                let merged = {
                    let _span = orchestra_obs::span!("mesh.absorb", txns = page.txns.len());
                    self.archive
                        .absorb(std::mem::take(&mut page.txns))
                        .map_err(ExchangeFail::Local)?
                };
                orchestra_obs::counter!("mesh.round.txns_absorbed", merged.absorbed);
                self.stats.txns_absorbed += merged.absorbed;
                self.stats.duplicates += merged.duplicates;
                self.stats.healed += merged.healed;
                report.absorbed += merged.absorbed;
                report.duplicates += merged.duplicates;
                report.healed += merged.healed;
                // Healed positions deliberately stay out of the rewind
                // span: their bytes were applied before the quarantine,
                // so a re-apply would double-count them.
                if merged.absorbed > 0 {
                    *span = match span.take() {
                        None => Some((lo, hi)),
                        Some((a, b)) => Some((a.min(lo), b.max(hi))),
                    };
                }
            }
            // Witness the page only now that its payloads are durably
            // absorbed: advancing a floor before `absorb` succeeds
            // would — on a failed append/fsync — tell every neighbor we
            // hold positions we never stored, and the `have`-floor
            // handshake would then skip them forever.
            self.witness(i, &shipped, &page, &have);
            match page.next_cursor {
                Some(next) => {
                    if let Some(scan) = &mut self.neighbors[i].scan {
                        scan.cursor = next;
                    }
                }
                None => {
                    self.neighbors[i].scan = None;
                    self.neighbors[i].drained = Some(digest);
                    return Ok(());
                }
            }
        }
    }

    /// Does this neighbor's digest promise anything we could absorb and
    /// have not already drained from it?
    fn wants(&self, digest: &StoreDigest, i: usize) -> bool {
        let n = &self.neighbors[i];
        if self.interest.is_empty() {
            // Full replication: any source past both our considered
            // floor and the last drained snapshot.
            let considered: BTreeMap<String, u64> = self.considered().into_iter().collect();
            digest.sources.iter().any(|(source, hw)| {
                *hw > considered.get(source).copied().unwrap_or(0)
                    && n.drained.as_ref().is_none_or(|d| *hw > d.source_hw(source))
            })
        } else {
            // Partial replication: an interesting relation with more
            // transactions than we hold. Sound because per relation,
            // our holdings are a prefix of that relation's subsequence
            // of the source's dense order — so a strictly greater count
            // means the neighbor has transactions we miss.
            let local = match self.archive.digest() {
                Ok(d) => d,
                Err(_) => return false,
            };
            self.interest.iter().any(|rel| {
                let theirs = digest.relation_txns(rel);
                theirs > local.relation_txns(rel)
                    && n.drained
                        .as_ref()
                        .is_none_or(|d| theirs > d.relation_txns(rel))
            })
        }
    }

    /// The epoch a fresh scan of a neighbor advertising `digest` starts
    /// at: the lowest epoch of position `f` over every source the
    /// neighbor holds past our considered floor `f` — every position
    /// above a floor lies at or after the floor position's epoch.
    /// Zero when some such floor is zero or its position's epoch is not
    /// known locally (held elsewhere, outside our interest, or
    /// quarantined).
    fn scan_start(&self, digest: &StoreDigest, have: &[(String, u64)]) -> Epoch {
        let mut start: Option<Epoch> = None;
        for (source, hw) in &digest.sources {
            let f = floor_of(have, source);
            if *hw <= f {
                continue;
            }
            let id = TxnId::new(PeerId::new(source.as_str()), f);
            let at = match f {
                0 => None,
                _ => self.archive.fetch(&id).ok().flatten().map(|t| t.epoch),
            };
            let Some(at) = at else {
                return Epoch::zero();
            };
            start = Some(start.map_or(at, |s| s.min(at)));
        }
        start.unwrap_or_else(Epoch::zero)
    }

    /// Advance neighbor `i`'s per-source floors over one scanned page.
    /// Within a scan each source's positions arrive in increasing
    /// sequence order (dense publisher sequences aligned with epoch
    /// order), so a floor advances exactly while `floor + 1` keeps
    /// getting witnessed; a hole or an unavailable position breaks that
    /// source for the rest of the scan. Positions at or below the
    /// node-wide floor in `have` count as witnessed, so a scan that
    /// starts mid-archive does not break on the prefix it skipped.
    fn witness(&mut self, i: usize, shipped: &[TxnId], page: &PullPage, have: &[(String, u64)]) {
        let n = &mut self.neighbors[i];
        let Some(scan) = &mut n.scan else { return };
        let mut events: BTreeMap<String, Vec<(u64, bool)>> = BTreeMap::new();
        for id in shipped {
            events
                .entry(id.peer.name().to_string())
                .or_default()
                .push((id.seq, true));
        }
        for id in &page.skipped {
            events
                .entry(id.peer.name().to_string())
                .or_default()
                .push((id.seq, true));
        }
        for (_, id) in &page.unavailable {
            events
                .entry(id.peer.name().to_string())
                .or_default()
                .push((id.seq, false));
        }
        for (source, mut seqs) in events {
            if scan.broken.contains(&source) {
                continue;
            }
            seqs.sort_unstable();
            let floor = n.floors.entry(source.clone()).or_insert(0);
            *floor = (*floor).max(floor_of(have, &source));
            for (seq, witnessed) in seqs {
                if seq <= *floor {
                    continue;
                }
                if witnessed && seq == *floor + 1 {
                    *floor = seq;
                } else {
                    // A hole (the neighbor lacks floor+1) or an
                    // unavailable payload: nothing past it is provably
                    // contiguous this scan.
                    scan.broken.insert(source);
                    break;
                }
            }
        }
    }
}

impl std::fmt::Debug for MeshNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshNode")
            .field("name", &self.name)
            .field("addr", &self.addr())
            .field("interest", &self.interest)
            .field("neighbors", &self.neighbors.len())
            .finish()
    }
}

/// The floor `have` records for `source` (0 when absent).
fn floor_of(have: &[(String, u64)], source: &str) -> u64 {
    have.iter()
        .find(|(s, _)| s == source)
        .map_or(0, |(_, f)| *f)
}

/// Why an exchange stopped: the neighbor's fault (degrade and continue)
/// or ours (surface).
enum ExchangeFail {
    Neighbor(StoreError),
    Local(StoreError),
}
