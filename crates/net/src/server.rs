//! [`PeerServer`]: expose any [`UpdateStore`] backend over TCP.
//!
//! One blocking thread per connection. The acceptor blocks in `accept`
//! and hands each connection a thread that loops — read a frame, decode,
//! execute, send — until the peer closes, breaks the protocol, a send
//! fails, or the connection sits idle past `idle_timeout`. A frame that
//! started arriving must complete within `read_timeout`. Shutdown wakes
//! the acceptor with one connect to its own address, then closes the read
//! half of every live connection: a blocked read returns EOF at once,
//! while a request already executing still writes its response.

use crate::proto::{PullPage, Request, Response, ServerCounters, PROTOCOL_VERSION};
use orchestra_store::frame::{crc32, frame, FRAME_HEADER, MAX_FRAME_LEN};
use orchestra_store::{StoreError, UpdateStore};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a [`PeerServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// An idle connection (no request in progress) is closed after this
    /// long; the client redials transparently.
    pub idle_timeout: Duration,
    /// A frame that started arriving must complete within this long, or
    /// the connection is closed.
    pub read_timeout: Duration,
    /// A response write that blocks for this long closes the connection.
    pub write_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters exposed by a [`PeerServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (any response, including errors).
    pub requests: u64,
    /// Requests answered with an [`Response::Err`].
    pub errors: u64,
    /// Connections dropped for protocol violations (bad magic, corrupt
    /// frames, mid-frame stalls).
    pub protocol_errors: u64,
    /// `DIGEST` requests served.
    pub digests_served: u64,
    /// `PULL_PAGES` requests served.
    pub pull_pages: u64,
    /// Inbound frames dropped for a checksum mismatch or an oversized
    /// length prefix — a flipped bit on the wire, not a stall. A subset
    /// of `protocol_errors`.
    pub corrupt_frames: u64,
    /// Connections closed because a frame stalled mid-transfer past
    /// `read_timeout`. A subset of `protocol_errors`.
    pub timed_out_conns: u64,
}

impl ServerStats {
    /// The per-message-type counters appended to `PROBE_OK`.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            digests_served: self.digests_served,
            pull_pages: self.pull_pages,
            corrupt_frames: self.corrupt_frames,
            timed_out_conns: self.timed_out_conns,
        }
    }
}

/// Per-server counters, each a handle onto the process-wide
/// `orchestra-obs` registry entry of the same `server.*` name: the
/// handle's own cell keeps [`ServerStats`] per-instance (the getter API
/// and the `PROBE_OK` tail are unchanged), while the registry aggregates
/// across restarts — the drift source the workspace linter flagged on
/// `PROBE_OK` is gone because both views read the same cells.
#[derive(Debug)]
struct AtomicServerStats {
    connections: orchestra_obs::CounterHandle,
    requests: orchestra_obs::CounterHandle,
    errors: orchestra_obs::CounterHandle,
    protocol_errors: orchestra_obs::CounterHandle,
    digests_served: orchestra_obs::CounterHandle,
    pull_pages: orchestra_obs::CounterHandle,
    corrupt_frames: orchestra_obs::CounterHandle,
    timed_out_conns: orchestra_obs::CounterHandle,
}

impl Default for AtomicServerStats {
    fn default() -> Self {
        AtomicServerStats {
            connections: orchestra_obs::counter("server.connections"),
            requests: orchestra_obs::counter("server.requests"),
            errors: orchestra_obs::counter("server.errors"),
            protocol_errors: orchestra_obs::counter("server.protocol_errors"),
            digests_served: orchestra_obs::counter("server.digests_served"),
            pull_pages: orchestra_obs::counter("server.pull_pages"),
            corrupt_frames: orchestra_obs::counter("server.corrupt_frames"),
            timed_out_conns: orchestra_obs::counter("server.timed_out_conns"),
        }
    }
}

impl AtomicServerStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            protocol_errors: self.protocol_errors.get(),
            digests_served: self.digests_served.get(),
            pull_pages: self.pull_pages.get(),
            corrupt_frames: self.corrupt_frames.get(),
            timed_out_conns: self.timed_out_conns.get(),
        }
    }
}

/// What the acceptor and every connection thread share.
struct Shared {
    store: Arc<dyn UpdateStore>,
    opts: ServerOptions,
    shutdown: AtomicBool,
    stats: AtomicServerStats,
}

/// A connection being served: a second handle onto its socket, so
/// shutdown can close the read half under a blocked read, and its thread.
struct Live {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// A TCP endpoint serving the [`UpdateStore`] surface of any backend —
/// in-memory, replicated, or durable. Peers on other machines attach a
/// [`RemoteStore`](crate::RemoteStore) to it and reconcile as if the
/// archive were local.
pub struct PeerServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the live connections when it exits.
    acceptor: Option<JoinHandle<Vec<Live>>>,
}

impl PeerServer {
    /// Bind with default options. Pass port 0 to let the OS pick one
    /// (read it back from [`local_addr`](PeerServer::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, store: Arc<dyn UpdateStore>) -> std::io::Result<Self> {
        PeerServer::bind_with(addr, store, ServerOptions::default())
    }

    /// Bind with explicit options.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        store: Arc<dyn UpdateStore>,
        opts: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            opts,
            shutdown: AtomicBool::new(false),
            stats: AtomicServerStats::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("orchestra-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(PeerServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every thread. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`. This cannot hang: while the
        // listener is open, the connect either lands in its backlog —
        // `accept` returns it and sees the flag — or the backlog is full,
        // and then `accept` returns a queued connection anyway, sees the
        // flag and drops the listener, which refuses the connect's next
        // SYN retransmission.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        // The acceptor owns the listener, so joining it frees the port
        // for a restart.
        let live = acceptor.join().unwrap_or_default();
        // A blocked read returns EOF at once; a request already executing
        // still writes its response, because the write half stays open.
        for conn in &live {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in live {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for PeerServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for PeerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// Accept connections until shutdown, giving each its own thread; return
/// the connections still registered.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<Live> {
    let mut live: Vec<Live> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return live;
        }
        // Release the finished connections' socket handles — before
        // looking at `accepted`, so a failed accept at the descriptor
        // limit frees what it can for the next one.
        live.retain(|conn| !conn.thread.is_finished());
        let Ok((stream, _)) = accepted else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        shared.stats.connections.inc();
        let conn_shared = Arc::clone(shared);
        // A connection that gets no thread is dropped, i.e. closed.
        if let Ok(thread) = std::thread::Builder::new()
            .name("orchestra-conn".into())
            .spawn(move || {
                let mut stream = stream;
                serve(&mut stream, &conn_shared);
                // The registry's handle keeps the socket open until the
                // next accept prunes it; close it for the peer now.
                let _ = stream.shutdown(Shutdown::Both);
            })
        {
            live.push(Live {
                stream: handle,
                thread,
            });
        }
    }
}

/// Serve one connection until it closes.
fn serve(stream: &mut TcpStream, shared: &Shared) {
    let stats = &shared.stats;
    let mut greeted = false;
    loop {
        let payload = match recv_frame(stream, &shared.opts) {
            Ok(p) => p,
            Err(Close::Quiet) => return,
            Err(Close::Corrupt) => {
                stats.protocol_errors.inc();
                stats.corrupt_frames.inc();
                return;
            }
            Err(Close::Stalled) => {
                stats.protocol_errors.inc();
                stats.timed_out_conns.inc();
                return;
            }
            Err(Close::Cut) => {
                // Shutdown closes read halves under frames still
                // arriving; that cut is ours, not the peer's violation.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    stats.protocol_errors.inc();
                }
                return;
            }
        };

        if !greeted {
            // The first frame must be a HELLO carrying our version.
            match Request::decode(&payload) {
                Ok(Request::Hello { version, .. }) if version == PROTOCOL_VERSION => {
                    if send(stream, &Response::HelloOk { version }).is_err() {
                        return;
                    }
                    greeted = true;
                }
                Ok(Request::Hello { version, .. }) => {
                    stats.protocol_errors.inc();
                    let _ = send(
                        stream,
                        &Response::Err(StoreError::InvalidConfig(format!(
                            "unsupported protocol version {version} \
                             (server speaks {PROTOCOL_VERSION})"
                        ))),
                    );
                    return;
                }
                _ => {
                    // Not a hello (or undecodable): whatever is on the
                    // other end is not an orchestra peer.
                    stats.protocol_errors.inc();
                    let _ = send(
                        stream,
                        &Response::Err(StoreError::InvalidConfig(
                            "expected HELLO as the first frame".into(),
                        )),
                    );
                    return;
                }
            }
        } else {
            let response = match Request::decode(&payload) {
                Ok(req) => {
                    // A request carrying a trace id stitches this server's
                    // work — spans recorded down in the store while it
                    // executes — into the caller's cross-peer trace.
                    let _trace = orchestra_obs::trace_adopt(req.trace());
                    execute(&*shared.store, req, stats)
                }
                Err(e) => Response::Err(StoreError::Corrupt {
                    path: "<wire>".into(),
                    offset: e.offset as u64,
                    reason: e.reason,
                }),
            };
            stats.requests.inc();
            if matches!(response, Response::Err(_)) {
                stats.errors.inc();
            }
            if send(stream, &response).is_err() {
                return;
            }
        }
    }
}

/// Why a connection stopped yielding frames — the distinction feeds the
/// transport-health counters on `PROBE_OK`.
enum Close {
    /// Nothing started arriving: the peer closed, the connection idled
    /// past `idle_timeout`, or shutdown closed it between frames.
    Quiet,
    /// The bytes arrived but were wrong: checksum mismatch or an
    /// implausible length prefix — bit rot, not a stall.
    Corrupt,
    /// A started frame stalled past `read_timeout`.
    Stalled,
    /// The connection was cut (EOF or hard I/O error) mid-frame.
    Cut,
}

/// Read the next frame: wait up to `idle_timeout` for its first byte,
/// then up to `read_timeout` for the rest.
fn recv_frame(stream: &mut TcpStream, opts: &ServerOptions) -> Result<Vec<u8>, Close> {
    let mut first = [0u8; 1];
    // `set_read_timeout` rejects a zero duration.
    let _ = stream.set_read_timeout(Some(opts.idle_timeout.max(Duration::from_millis(1))));
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Err(Close::Quiet),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Close::Quiet), // Idled out, or reset.
        }
    }
    let deadline = Instant::now() + opts.read_timeout;
    let mut rest = [0u8; FRAME_HEADER - 1];
    read_by(stream, &mut rest, deadline)?;
    let [l0] = first;
    let [l1, l2, l3, c0, c1, c2, c3] = rest;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_FRAME_LEN {
        return Err(Close::Corrupt);
    }
    let mut payload = vec![0u8; len as usize];
    read_by(stream, &mut payload, deadline)?;
    if crc32(&payload) != crc {
        return Err(Close::Corrupt);
    }
    Ok(payload)
}

/// Fill `buf` before `deadline`. Each read waits only for the time left,
/// so a client trickling bytes cannot extend the deadline.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> Result<(), Close> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Close::Stalled);
        }
        let _ = stream.set_read_timeout(Some(left));
        // analyze: allow(panic) -- the loop guard keeps filled <= buf.len()
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(Close::Cut),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {} // The deadline check above decides.
            Err(_) => return Err(Close::Cut),
        }
    }
    Ok(())
}

/// Run one request against the backing store.
fn execute(store: &dyn UpdateStore, req: Request, stats: &AtomicServerStats) -> Response {
    match req {
        // A second hello on an established connection is harmless.
        Request::Hello { .. } => Response::HelloOk {
            version: PROTOCOL_VERSION,
        },
        Request::Publish { epoch, txns } => match store.publish(epoch, txns) {
            Ok(()) => Response::PublishOk,
            Err(e) => Response::Err(e),
        },
        Request::Fetch { id } => match store.fetch(&id) {
            Ok(txn) => Response::Txn(txn),
            Err(e) => Response::Err(e),
        },
        Request::Probe => Response::ProbeOk {
            len: store.len() as u64,
            latest_epoch: store.latest_epoch(),
            stats: store.stats(),
            server: stats.snapshot().counters(),
        },
        Request::Digest => {
            stats.digests_served.inc();
            match store.digest() {
                Ok(d) => Response::DigestOk(d),
                Err(e) => Response::Err(e),
            }
        }
        Request::PullPages {
            cursor,
            limit,
            interest,
            have,
            ..
        } => {
            stats.pull_pages.inc();
            // Recorded under the caller's adopted trace id (if the
            // request carried one), so the serving side of a gossip
            // pull or an exchange's page shows up in the caller's
            // cross-peer timeline.
            let _span = orchestra_obs::span!("server.pull_pages", limit = limit);
            match store.fetch_page(&cursor, limit.min(usize::MAX as u64) as usize) {
                Ok(page) => Response::Pages(filter_pull_page(page, &interest, &have)),
                Err(e) => Response::Err(e),
            }
        }
        // The whole process shares one registry, so this answers for
        // every subsystem on the node — store, mesh, engine, fault —
        // not just this server.
        Request::Metrics => Response::MetricsOk(orchestra_obs::snapshot()),
    }
}

/// Apply a puller's interest set and per-source have floors to a scanned
/// page: matching transactions beyond the floor ship whole; everything
/// else scanned comes back as a skipped id so the puller's per-source
/// prefix bookkeeping stays exact without paying for payloads.
fn filter_pull_page(
    page: orchestra_store::FetchPage,
    interest: &[String],
    have: &[(String, u64)],
) -> PullPage {
    // A source with no entry in `have` has no floor: nothing of it is
    // held, sequence 0 included, so an unfiltered pull skips nothing.
    let held = |t: &orchestra_updates::Transaction| {
        have.iter()
            .any(|(p, hw)| p == t.id.peer.name() && t.id.seq <= *hw)
    };
    let mut out = PullPage {
        next_cursor: page.next_cursor,
        unavailable: page.unavailable,
        ..PullPage::default()
    };
    for t in page.txns {
        let wanted = interest.is_empty()
            || t.updates.iter().any(|u| {
                interest
                    .iter()
                    .any(|r| qualified_matches(r, t.id.peer.name(), u.relation()))
            });
        if held(&t) || !wanted {
            out.skipped.push(t.id);
        } else {
            out.txns.push(t);
        }
    }
    out
}

/// Does the owner-qualified interest entry `pattern`
/// (`<publisher>.<relation>`) name this update?
fn qualified_matches(pattern: &str, publisher: &str, relation: &str) -> bool {
    pattern
        .strip_prefix(publisher)
        .and_then(|rest| rest.strip_prefix('.'))
        .is_some_and(|rel| rel == relation)
}

fn send(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut framed = frame(&response.encode());
    match orchestra_fault::check("net.server.send") {
        Some(orchestra_fault::Action::Flip) => {
            // Corrupt one payload byte after the checksum was computed:
            // the client's frame reader must reject it.
            let payload_len = framed.len() - FRAME_HEADER;
            let idx =
                FRAME_HEADER + orchestra_fault::draw("net.server.send") as usize % payload_len;
            // analyze: allow(panic) -- idx = FRAME_HEADER + (draw % payload_len) < framed.len() by construction
            framed[idx] ^= 0x01;
        }
        Some(orchestra_fault::Action::Cut) => {
            // Ship half the frame, then fail: the client sees a torn
            // response and the connection closes.
            let cut = framed.len() / 2;
            // analyze: allow(panic) -- cut = framed.len() / 2 is always in bounds
            let _ = stream.write_all(&framed[..cut]);
            let _ = stream.flush();
            return Err(std::io::Error::other("injected failpoint: send cut"));
        }
        Some(_) => return Err(std::io::Error::other("injected failpoint: send failed")),
        None => {}
    }
    stream.write_all(&framed)?;
    stream.flush()
}
