//! [`RemoteStore`]: the [`UpdateStore`] trait spoken over TCP.
//!
//! A drop-in backend: `Cdss::build_with_store(Box::new(RemoteStore::…))`
//! gives a peer process the same archive a [`PeerServer`] exposes on
//! another machine. Each store keeps one connection, dialed lazily and
//! redialed after a failure; a request that fails at the transport level
//! is retried on a fresh connection up to `retries` times, at once.
//! Every transport-level failure — connect refused, timeout, connection
//! cut, checksum mismatch — maps to [`StoreError::Unavailable`], the
//! error the reconcile loop already absorbs with frozen resume cursors,
//! so a dead or flaky peer degrades an exchange instead of failing it.
//! Application-level errors (duplicate ids, stale epochs…) travel the
//! wire intact and surface exactly as a local backend would raise them.
//!
//! [`PeerServer`]: crate::PeerServer

use crate::proto::{PullPage, Request, Response, PROTOCOL_VERSION};
use orchestra_store::frame::{frame, FrameRead, FrameReader, FRAME_HEADER};
use orchestra_store::{FetchCursor, FetchPage, StoreDigest, StoreError, StoreStats, UpdateStore};
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::Mutex;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Tunables for a [`RemoteStore`].
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// How long to wait for a response frame.
    pub read_timeout: Duration,
    /// How long a request write may block.
    pub write_timeout: Duration,
    /// Extra attempts on a fresh connection after a transport failure
    /// (absorbs a flaky link or a server restart between requests).
    pub retries: usize,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retries: 1,
        }
    }
}

/// Client-side transport counters (the server's archive counters come
/// back through [`UpdateStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Request/response round trips completed.
    pub round_trips: u64,
    /// Fresh connections dialed (first use + every reconnect).
    pub connects: u64,
    /// Transport-level failures observed (before retries).
    pub transport_errors: u64,
    /// Operations that exhausted retries and were mapped to
    /// [`StoreError::Unavailable`].
    pub unavailable_mapped: u64,
    /// Frame payload bytes sent.
    pub bytes_sent: u64,
    /// Frame payload bytes received.
    pub bytes_received: u64,
}

/// Per-instance transport counters, each a handle onto the process-wide
/// `orchestra-obs` registry entry of the same `net.*` name. The handle's
/// own cell keeps [`NetStats`] per-store (the getter API is unchanged),
/// while the registry aggregates across every instance's lifetime.
#[derive(Debug)]
struct AtomicNetStats {
    round_trips: orchestra_obs::CounterHandle,
    connects: orchestra_obs::CounterHandle,
    transport_errors: orchestra_obs::CounterHandle,
    unavailable_mapped: orchestra_obs::CounterHandle,
    bytes_sent: orchestra_obs::CounterHandle,
    bytes_received: orchestra_obs::CounterHandle,
}

impl Default for AtomicNetStats {
    fn default() -> Self {
        AtomicNetStats {
            round_trips: orchestra_obs::counter("net.round_trips"),
            connects: orchestra_obs::counter("net.connects"),
            transport_errors: orchestra_obs::counter("net.transport_errors"),
            unavailable_mapped: orchestra_obs::counter("net.unavailable_mapped"),
            bytes_sent: orchestra_obs::counter("net.bytes_sent"),
            bytes_received: orchestra_obs::counter("net.bytes_received"),
        }
    }
}

impl AtomicNetStats {
    fn snapshot(&self) -> NetStats {
        NetStats {
            round_trips: self.round_trips.get(),
            connects: self.connects.get(),
            transport_errors: self.transport_errors.get(),
            unavailable_mapped: self.unavailable_mapped.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
        }
    }
}

/// An [`UpdateStore`] whose archive lives behind a [`PeerServer`] on the
/// other end of a TCP connection.
///
/// [`PeerServer`]: crate::PeerServer
pub struct RemoteStore {
    addrs: Vec<std::net::SocketAddr>,
    addr_label: String,
    opts: RemoteOptions,
    /// The one connection, after its first successful dial. A call
    /// holds the lock for its whole exchange, so requests from several
    /// threads take turns on it.
    conn: Mutex<Option<TcpStream>>,
    net: AtomicNetStats,
}

impl RemoteStore {
    /// Attach to a server, completing one eager version handshake (fails
    /// on a wrong address or a peer that does not speak
    /// [`PROTOCOL_VERSION`]). A transport failure during the handshake is
    /// retried like any request.
    pub fn connect(addr: impl std::net::ToSocketAddrs + std::fmt::Display) -> crate::Result<Self> {
        RemoteStore::connect_with(addr, RemoteOptions::default())
    }

    /// [`connect`](RemoteStore::connect) with explicit options.
    pub fn connect_with(
        addr: impl std::net::ToSocketAddrs + std::fmt::Display,
        opts: RemoteOptions,
    ) -> crate::Result<Self> {
        let store = RemoteStore::lazy_with(addr, opts)?;
        store.retrying(|_| Ok(()))?;
        Ok(store)
    }

    /// Attach without dialing: the first operation connects. Use when the
    /// server may not be up yet — the reconcile loop treats an
    /// unreachable archive as a degraded exchange, not an error.
    pub fn lazy(addr: impl std::net::ToSocketAddrs + std::fmt::Display) -> crate::Result<Self> {
        RemoteStore::lazy_with(addr, RemoteOptions::default())
    }

    /// [`lazy`](RemoteStore::lazy) with explicit options.
    pub fn lazy_with(
        addr: impl std::net::ToSocketAddrs + std::fmt::Display,
        opts: RemoteOptions,
    ) -> crate::Result<Self> {
        let addr_label = addr.to_string();
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| StoreError::InvalidConfig(format!("bad address `{addr_label}`: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(StoreError::InvalidConfig(format!(
                "address `{addr_label}` resolves to nothing"
            )));
        }
        Ok(RemoteStore {
            addrs,
            addr_label,
            opts,
            conn: Mutex::new(None),
            net: AtomicNetStats::default(),
        })
    }

    /// The address this store dials.
    pub fn addr(&self) -> &str {
        &self.addr_label
    }

    /// Client-side transport counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.snapshot()
    }

    /// Dial a fresh connection and complete the version handshake,
    /// trying every resolved address before giving up. Application-level
    /// verdicts (a server error, a version mismatch) are authoritative
    /// and end the search; transport failures move on to the next
    /// address.
    fn dial(&self) -> Result<TcpStream, StoreError> {
        let _span = orchestra_obs::span!("net.dial", addr = &self.addr_label);
        // Propagate the active trace with the handshake.
        let trace = orchestra_obs::trace_current();
        let mut last: Option<StoreError> = None;
        for addr in &self.addrs {
            let stream = match TcpStream::connect_timeout(addr, self.opts.connect_timeout) {
                Ok(s) => s,
                Err(e) => {
                    last = Some(self.transport_failure(format_args!("connect {addr} failed: {e}")));
                    continue;
                }
            };
            self.net.connects.inc();
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(self.opts.read_timeout));
            let _ = stream.set_write_timeout(Some(self.opts.write_timeout));
            let mut stream = stream;
            match self.roundtrip(
                &mut stream,
                &Request::Hello {
                    version: PROTOCOL_VERSION,
                    trace,
                },
            ) {
                Ok(Response::HelloOk { version }) if version == PROTOCOL_VERSION => {
                    return Ok(stream);
                }
                Ok(Response::HelloOk { version }) => {
                    return Err(StoreError::InvalidConfig(format!(
                        "server `{}` speaks unsupported protocol version {version}",
                        self.addr_label
                    )))
                }
                Ok(Response::Err(e)) => return Err(e),
                Ok(other) => {
                    last = Some(
                        self.transport_failure(format_args!("unexpected hello response {other:?}")),
                    );
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| self.transport_failure(format_args!("no reachable address"))))
    }

    /// Record a transport-level failure and build the `Unavailable` it
    /// maps to. The reconcile loop treats this exactly like a payload
    /// with no alive replica: freeze the cursor, retry later.
    fn transport_failure(&self, what: std::fmt::Arguments<'_>) -> StoreError {
        self.net.transport_errors.inc();
        StoreError::Unavailable {
            txn: format!("<remote {}: {what}>", self.addr_label),
        }
    }

    /// One framed request/response exchange on an established connection.
    /// Any failure is a transport failure (the caller drops the stream).
    fn roundtrip(&self, stream: &mut TcpStream, request: &Request) -> Result<Response, StoreError> {
        let mut framed = frame(&request.encode());
        match orchestra_fault::check("net.client.send") {
            #[expect(
                clippy::indexing_slicing,
                reason = "idx = FRAME_HEADER + (draw % payload_len) < framed.len() by construction"
            )]
            Some(orchestra_fault::Action::Flip) => {
                // Corrupt one payload byte after the checksum was
                // computed: the server must drop the frame (and count it
                // as a corrupt frame, not a stall).
                let payload_len = framed.len() - FRAME_HEADER;
                let idx =
                    FRAME_HEADER + orchestra_fault::draw("net.client.send") as usize % payload_len;
                framed[idx] ^= 0x01;
            }
            Some(orchestra_fault::Action::Cut) => {
                // Ship half the frame, then fail: the server sees a
                // connection cut mid-frame.
                let cut = framed.len() / 2;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "cut = framed.len() / 2 is always in bounds"
                )]
                let _ = stream.write_all(&framed[..cut]);
                let _ = stream.flush();
                return Err(self.transport_failure(format_args!("injected failpoint: send cut")));
            }
            Some(_) => return Err(self.transport_failure(format_args!("injected failpoint: send"))),
            None => {}
        }
        stream
            .write_all(&framed)
            .and_then(|()| stream.flush())
            .map_err(|e| self.transport_failure(format_args!("send failed: {e}")))?;
        self.net.bytes_sent.add(framed.len() as u64);
        if orchestra_fault::check("net.client.recv").is_some() {
            // Abandon the response in flight: to this client the exchange
            // failed, to the server it completed — the asymmetry retries
            // and the publish witness-check must absorb.
            return Err(self.transport_failure(format_args!("injected failpoint: recv")));
        }
        let payload = match FrameReader::new(&mut *stream, 0).next_frame() {
            Ok((_, FrameRead::Ok { payload, size })) => {
                self.net.bytes_received.add(size as u64);
                payload
            }
            Ok((_, FrameRead::Eof)) => {
                return Err(self.transport_failure(format_args!("connection closed by server")))
            }
            Ok((_, FrameRead::Torn)) => {
                return Err(self.transport_failure(format_args!("connection cut mid-response")))
            }
            Ok((_, FrameRead::Corrupt { reason, .. })) => {
                return Err(self.transport_failure(format_args!("corrupt response frame: {reason}")))
            }
            Err(e) => return Err(self.transport_failure(format_args!("receive failed: {e}"))),
        };
        let response = Response::decode(&payload)
            .map_err(|e| self.transport_failure(format_args!("undecodable response: {e}")))?;
        self.net.round_trips.inc();
        Ok(response)
    }

    /// Issue one request. Application-level errors (carried in
    /// [`Response::Err`]) are returned as-is by the callers and keep the
    /// connection — the server keeps it open too.
    fn call(&self, request: &Request) -> Result<Response, StoreError> {
        self.retrying(|stream| self.roundtrip(stream, request))
    }

    /// Run `op` on the cached connection, then on up to `retries + 1`
    /// freshly dialed ones until it succeeds; the connection it succeeds
    /// on is cached.
    fn retrying<T>(
        &self,
        op: impl Fn(&mut TcpStream) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut conn = self.conn.lock();
        // The cached connection may have been closed by the server's idle
        // reaper or a restart between requests; its failure is not
        // authoritative, so it costs none of the configured retries.
        if let Some(stream) = conn.as_mut() {
            if let Ok(out) = op(stream) {
                return Ok(out);
            }
            *conn = None;
        }
        let mut last: Option<StoreError> = None;
        for _ in 0..=self.opts.retries {
            let attempt = self.dial().and_then(|mut stream| {
                let out = op(&mut stream)?;
                Ok((stream, out))
            });
            match attempt {
                Ok((stream, out)) => {
                    *conn = Some(stream);
                    return Ok(out);
                }
                // A version mismatch is not transient: surface it.
                Err(e @ StoreError::InvalidConfig(_)) => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        self.net.unavailable_mapped.inc();
        Err(last.unwrap_or_else(|| self.transport_failure(format_args!("no attempt made"))))
    }

    /// Archive metadata in one round trip: `(len, latest_epoch, stats)`
    /// — what [`UpdateStore::len`], [`UpdateStore::latest_epoch`], and
    /// [`UpdateStore::stats`] each report, without paying three RPCs.
    pub fn probe(&self) -> crate::Result<(u64, Option<Epoch>, StoreStats)> {
        let request = Request::Probe;
        match self.call(&request)? {
            Response::ProbeOk {
                len,
                latest_epoch,
                stats,
            } => Ok((len, latest_epoch, stats)),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        }
    }

    /// The server archive's anti-entropy digest — epoch high-water,
    /// per-source sequence high-waters, per-relation transaction counts —
    /// in one round trip.
    pub fn digest(&self) -> crate::Result<StoreDigest> {
        let request = Request::Digest;
        match self.call(&request)? {
            Response::DigestOk(digest) => Ok(digest),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        }
    }

    /// One anti-entropy page: the server scans `limit` positions from
    /// `cursor` and ships only transactions matching `interest` (empty =
    /// everything) whose sequence exceeds the puller's `have` floor for
    /// that source; every other scanned position comes back as a skipped
    /// id so per-source prefix bookkeeping stays exact.
    pub fn pull_pages(
        &self,
        cursor: &FetchCursor,
        limit: u64,
        interest: &[String],
        have: &[(String, u64)],
    ) -> crate::Result<PullPage> {
        let request = Request::PullPages {
            cursor: cursor.clone(),
            limit,
            interest: interest.to_vec(),
            have: have.to_vec(),
            trace: orchestra_obs::trace_current(),
        };
        match self.call(&request)? {
            Response::Pages(page) => Ok(page),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        }
    }

    /// The server process's full observability snapshot — counters,
    /// gauges, latency histograms, recent spans — in one round trip.
    /// This is what `orchestra-top` polls per node.
    pub fn metrics(&self) -> crate::Result<orchestra_obs::ObsSnapshot> {
        let request = Request::Metrics;
        match self.call(&request)? {
            Response::MetricsOk(snap) => Ok(snap),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        }
    }

    fn unexpected(&self, request: &Request, response: Response) -> StoreError {
        self.transport_failure(format_args!(
            "unexpected response to {}: {response:?}",
            request.label()
        ))
    }
}

impl UpdateStore for RemoteStore {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> orchestra_store::Result<()> {
        // Kept to disambiguate a retried publish whose first attempt's
        // response was lost (below).
        let witness = txns.first().cloned();
        let request = Request::Publish { epoch, txns };
        let result = match self.call(&request)? {
            Response::PublishOk => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        };
        // Publish is retried on a fresh connection like every request,
        // but it is not idempotent: if the server committed the batch
        // and the *response* was lost, the retry answers `DuplicateTxn`
        // for a publish that actually succeeded. Disambiguate by
        // reading the batch's first transaction back — transaction ids
        // are globally unique (peer-owned sequences) and publishes are
        // atomic, so finding our exact first transaction archived means
        // the whole batch landed. A genuine conflict (different bytes
        // under the same id, or a later id reported) still errors.
        if let Err(StoreError::DuplicateTxn(dup)) = &result {
            if let Some(mut expect) = witness {
                if expect.id.to_string() == *dup {
                    expect.epoch = epoch; // The store stamps the publish epoch.
                    if let Ok(Some(archived)) = self.fetch(&expect.id) {
                        if archived == expect {
                            return Ok(());
                        }
                    }
                }
            }
        }
        result
    }

    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> orchestra_store::Result<FetchPage> {
        // With no interest and no have floor the server skips nothing, so
        // the page is the archive's own.
        let page = self.pull_pages(cursor, limit as u64, &[], &[])?;
        if !page.skipped.is_empty() {
            return Err(self.transport_failure(format_args!(
                "unexpected response to an unfiltered pull_pages: {} positions skipped",
                page.skipped.len()
            )));
        }
        Ok(FetchPage {
            txns: page.txns,
            unavailable: page.unavailable,
            next_cursor: page.next_cursor,
        })
    }

    fn fetch(&self, id: &TxnId) -> orchestra_store::Result<Option<Transaction>> {
        let request = Request::Fetch { id: id.clone() };
        match self.call(&request)? {
            Response::Txn(txn) => Ok(txn),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected(&request, other)),
        }
    }

    fn len(&self) -> usize {
        // Unreachable archive: nothing observable.
        self.probe().map_or(0, |(len, ..)| len as usize)
    }

    fn latest_epoch(&self) -> Option<Epoch> {
        self.probe().ok().and_then(|(_, latest, ..)| latest)
    }

    fn stats(&self) -> StoreStats {
        self.probe()
            .map_or_else(|_| StoreStats::default(), |(_, _, stats)| stats)
    }

    fn digest(&self) -> orchestra_store::Result<StoreDigest> {
        RemoteStore::digest(self)
    }
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("addr", &self.addr_label)
            .finish_non_exhaustive()
    }
}
