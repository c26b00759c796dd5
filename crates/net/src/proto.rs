//! The `orchestra-net` wire protocol: length-prefixed, CRC32-checksummed
//! messages carrying the [`UpdateStore`] surface and the mesh
//! anti-entropy surface. There is one protocol version; `HELLO` checks it.
//!
//! Every message travels inside one frame from [`orchestra_store::frame`]
//! (`len:u32le crc:u32le payload[len]`) — the same framing the durable
//! WAL uses on disk — and transactions, cursors, and batches are encoded
//! by [`orchestra_store::durable::codec`], so a transaction's bytes are
//! identical on the wire and in the archive. See `docs/wire-protocol.md`
//! for the full layout.
//!
//! ```text
//! request  := HELLO       magic:u32le version:uvarint [trace:uvarint]
//!           | PUBLISH     batch                  (the WAL batch record)
//!           | FETCH       txn_id
//!           | PROBE
//!           | DIGEST
//!           | PULL_PAGES  cursor limit:uvarint
//!                         ni:uvarint str* nh:uvarint (peer:str hw:uvarint)*
//!                         [trace:uvarint]
//!           | METRICS
//! response := HELLO_OK    version:uvarint
//!           | PUBLISH_OK
//!           | TXN         present:u8 [txn]
//!           | PROBE_OK    len:uvarint has_latest:u8 [epoch:uvarint]
//!                         stats:7×uvarint
//!           | DIGEST_OK   digest
//!           | PAGES       n:uvarint txn* k:uvarint txn_id*
//!                         u:uvarint (epoch:uvarint txn_id)* has_next:u8 [cursor]
//!           | METRICS_OK  obs-snapshot
//!           | ERR         code:u8 fields…        (see `StoreError` table)
//! ```
//!
//! `HELLO` and `PULL_PAGES` optionally carry a nonzero **trace id** as a
//! trailing uvarint, so one cross-peer anti-entropy exchange stitches
//! into a single trace (`docs/observability.md`). The tail is appended
//! whenever a trace is active.
//!
//! [`UpdateStore`]: orchestra_store::UpdateStore

use orchestra_store::durable::codec::{
    decode_batch, encode_batch, get_cursor, get_transaction, get_txn_id, put_cursor, put_str,
    put_transaction, put_txn_id, put_uvarint, CodecError, Cursor,
};
use orchestra_store::{FetchCursor, RelationDigest, StoreDigest, StoreError, StoreStats};
use orchestra_updates::{Epoch, Transaction, TxnId};

/// The one protocol version. Both ends of a connection must speak it: a
/// server answers a `HELLO` carrying any other number with `ERR` and
/// closes, and a client rejects any other number in `HELLO_OK`.
pub const PROTOCOL_VERSION: u64 = 5;

/// Magic prefix of a HELLO payload: `"ORCN"` little-endian. A server
/// reading anything else as its first frame is talking to something that
/// is not an orchestra peer and closes the connection.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ORCN");

// Request opcodes.
const OP_HELLO: u8 = 0x01;
const OP_PUBLISH: u8 = 0x02;
const OP_FETCH: u8 = 0x04;
const OP_PROBE: u8 = 0x05;
const OP_DIGEST: u8 = 0x06;
const OP_PULL_PAGES: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
// Response opcodes (high bit set).
const OP_HELLO_OK: u8 = 0x81;
const OP_PUBLISH_OK: u8 = 0x82;
const OP_TXN: u8 = 0x84;
const OP_PROBE_OK: u8 = 0x85;
const OP_DIGEST_OK: u8 = 0x86;
const OP_PAGES: u8 = 0x88;
const OP_METRICS_OK: u8 = 0x89;
const OP_ERR: u8 = 0xee;

type Result<T> = std::result::Result<T, CodecError>;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version check; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u64,
        /// Active trace id, or 0 for none. Encoded as an optional tail
        /// (only when nonzero).
        trace: u64,
    },
    /// Archive a batch of transactions (mirrors `UpdateStore::publish`).
    Publish {
        /// The publish epoch.
        epoch: Epoch,
        /// The batch.
        txns: Vec<Transaction>,
    },
    /// One transaction by id (mirrors `UpdateStore::fetch`).
    Fetch {
        /// The wanted transaction.
        id: TxnId,
    },
    /// Archive metadata: length, latest epoch, counters — serves `len`,
    /// `latest_epoch`, and `stats` in one round trip.
    Probe,
    /// The archive's [`StoreDigest`] — the anti-entropy advertisement
    /// (mirrors `UpdateStore::digest`).
    Digest,
    /// One page of the archive (serves `UpdateStore::fetch_page` and
    /// mesh gossip): scan `limit` positions from `cursor` but ship only
    /// transactions matching `interest` whose sequence is beyond the
    /// puller's `have` floor — everything else comes back as skipped ids
    /// so the puller can advance its prefix bookkeeping without paying
    /// for payloads it holds or never wants. With both filters empty
    /// nothing is skipped.
    PullPages {
        /// Resume position.
        cursor: FetchCursor,
        /// Maximum positions to scan.
        limit: u64,
        /// Owner-qualified relations to ship (empty = ship everything).
        interest: Vec<String>,
        /// Per-source prefix floors: transactions with `seq <= hw` for
        /// their publisher are skipped, not shipped.
        have: Vec<(String, u64)>,
        /// Active trace id, or 0 for none (optional tail like HELLO's).
        trace: u64,
    },
    /// The server process's observability snapshot — every registered
    /// counter, gauge, and latency histogram plus recent spans — so an
    /// operator (or `orchestra-top`) can poll a whole cluster without
    /// touching each box.
    Metrics,
}

/// The body of a `PAGES` response: one page, filtered by interest and
/// have floors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PullPage {
    /// Shipped transactions (matched interest, beyond the have floor).
    pub txns: Vec<Transaction>,
    /// Scanned positions deliberately *not* shipped (filtered by interest
    /// or covered by the have floor), in scan order. Publishers stamp
    /// dense sequences, so these ids let the puller keep per-source
    /// prefix-completeness bookkeeping exact.
    pub skipped: Vec<TxnId>,
    /// Scanned positions whose payloads were unreachable server-side.
    pub unavailable: Vec<(Epoch, TxnId)>,
    /// Cursor for the next page, or `None` at end of archive.
    pub next_cursor: Option<FetchCursor>,
}

impl PullPage {
    /// Positions scanned by this page.
    pub fn scanned(&self) -> usize {
        self.txns.len() + self.skipped.len() + self.unavailable.len()
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// HELLO accepted.
    HelloOk {
        /// The server's protocol version ([`PROTOCOL_VERSION`]).
        version: u64,
    },
    /// Publish succeeded.
    PublishOk,
    /// A fetched transaction (or its absence).
    Txn(Option<Transaction>),
    /// Archive metadata.
    ProbeOk {
        /// Number of archived transactions.
        len: u64,
        /// Latest archived epoch, if any.
        latest_epoch: Option<Epoch>,
        /// The remote store's counters.
        stats: StoreStats,
    },
    /// The archive's digest.
    DigestOk(StoreDigest),
    /// One filtered anti-entropy page.
    Pages(PullPage),
    /// The server process's observability snapshot.
    MetricsOk(orchestra_obs::ObsSnapshot),
    /// The operation failed on the server; carries the full
    /// [`StoreError`] so the client surfaces exactly what a local
    /// backend would have returned.
    Err(StoreError),
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Request::Hello { version, trace } => {
                out.push(OP_HELLO);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                put_uvarint(&mut out, *version);
                if *trace != 0 {
                    put_uvarint(&mut out, *trace);
                }
            }
            Request::Publish { epoch, txns } => {
                out.push(OP_PUBLISH);
                // The body is byte-identical to the WAL's batch record:
                // durable and net serialize a publish the same way.
                out.extend_from_slice(&encode_batch(*epoch, txns));
            }
            Request::Fetch { id } => {
                out.push(OP_FETCH);
                put_txn_id(&mut out, id);
            }
            Request::Probe => out.push(OP_PROBE),
            Request::Digest => out.push(OP_DIGEST),
            Request::PullPages {
                cursor,
                limit,
                interest,
                have,
                trace,
            } => {
                out.push(OP_PULL_PAGES);
                put_cursor(&mut out, cursor);
                put_uvarint(&mut out, *limit);
                put_uvarint(&mut out, interest.len() as u64);
                for r in interest {
                    put_str(&mut out, r);
                }
                put_uvarint(&mut out, have.len() as u64);
                for (peer, hw) in have {
                    put_str(&mut out, peer);
                    put_uvarint(&mut out, *hw);
                }
                if *trace != 0 {
                    put_uvarint(&mut out, *trace);
                }
            }
            Request::Metrics => out.push(OP_METRICS),
        }
        out
    }

    /// Decode a frame payload; must be consumed exactly.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let req = match op {
            OP_HELLO => {
                let magic = u32::from_le_bytes(take4(&mut c)?);
                if magic != MAGIC {
                    return fail(&c, format!("bad hello magic {magic:#010x}"));
                }
                Request::Hello {
                    version: c.uvarint()?,
                    trace: get_opt_trace(&mut c)?,
                }
            }
            OP_PUBLISH => {
                let (epoch, txns) = decode_batch(rest(&mut c))?;
                return Ok(Request::Publish { epoch, txns });
            }
            OP_FETCH => Request::Fetch {
                id: get_txn_id(&mut c)?,
            },
            OP_PROBE => Request::Probe,
            OP_DIGEST => Request::Digest,
            OP_PULL_PAGES => {
                let cursor = get_cursor(&mut c)?;
                let limit = c.uvarint()?;
                let n = c.uvarint()? as usize;
                let mut interest = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    interest.push(c.str()?.to_owned());
                }
                let h = c.uvarint()? as usize;
                let mut have = Vec::with_capacity(h.min(65_536));
                for _ in 0..h {
                    let peer = c.str()?.to_owned();
                    have.push((peer, c.uvarint()?));
                }
                Request::PullPages {
                    cursor,
                    limit,
                    interest,
                    have,
                    trace: get_opt_trace(&mut c)?,
                }
            }
            OP_METRICS => Request::Metrics,
            other => return fail(&c, format!("unknown request opcode {other:#04x}")),
        };
        finish(c, req)
    }

    /// Short label for logs and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Publish { .. } => "publish",
            Request::Fetch { .. } => "fetch",
            Request::Probe => "probe",
            Request::Digest => "digest",
            Request::PullPages { .. } => "pull_pages",
            Request::Metrics => "metrics",
        }
    }

    /// The trace id this request propagates (0 = none).
    pub fn trace(&self) -> u64 {
        match self {
            Request::Hello { trace, .. } | Request::PullPages { trace, .. } => *trace,
            _ => 0,
        }
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::HelloOk { version } => {
                out.push(OP_HELLO_OK);
                put_uvarint(&mut out, *version);
            }
            Response::PublishOk => out.push(OP_PUBLISH_OK),
            Response::Txn(txn) => {
                out.push(OP_TXN);
                match txn {
                    Some(t) => {
                        out.push(1);
                        put_transaction(&mut out, t);
                    }
                    None => out.push(0),
                }
            }
            Response::ProbeOk {
                len,
                latest_epoch,
                stats,
            } => {
                out.push(OP_PROBE_OK);
                put_uvarint(&mut out, *len);
                match latest_epoch {
                    Some(ep) => {
                        out.push(1);
                        put_uvarint(&mut out, ep.value());
                    }
                    None => out.push(0),
                }
                for n in [
                    stats.published,
                    stats.fetched,
                    stats.probes,
                    stats.misses,
                    stats.pages,
                    stats.unavailable,
                    stats.degraded,
                ] {
                    put_uvarint(&mut out, n);
                }
            }
            Response::DigestOk(d) => {
                out.push(OP_DIGEST_OK);
                put_digest(&mut out, d);
            }
            Response::Pages(page) => {
                out.push(OP_PAGES);
                put_uvarint(&mut out, page.txns.len() as u64);
                for t in &page.txns {
                    put_transaction(&mut out, t);
                }
                put_uvarint(&mut out, page.skipped.len() as u64);
                for id in &page.skipped {
                    put_txn_id(&mut out, id);
                }
                put_uvarint(&mut out, page.unavailable.len() as u64);
                for (ep, id) in &page.unavailable {
                    put_uvarint(&mut out, ep.value());
                    put_txn_id(&mut out, id);
                }
                match &page.next_cursor {
                    Some(cursor) => {
                        out.push(1);
                        put_cursor(&mut out, cursor);
                    }
                    None => out.push(0),
                }
            }
            Response::MetricsOk(snap) => {
                out.push(OP_METRICS_OK);
                put_obs_snapshot(&mut out, snap);
            }
            Response::Err(e) => {
                out.push(OP_ERR);
                put_store_error(&mut out, e);
            }
        }
        out
    }

    /// Decode a frame payload; must be consumed exactly.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let resp = match op {
            OP_HELLO_OK => Response::HelloOk {
                version: c.uvarint()?,
            },
            OP_PUBLISH_OK => Response::PublishOk,
            OP_TXN => match c.u8()? {
                0 => Response::Txn(None),
                1 => Response::Txn(Some(get_transaction(&mut c)?)),
                other => return fail(&c, format!("bad txn-present flag {other}")),
            },
            OP_PROBE_OK => {
                let len = c.uvarint()?;
                let latest_epoch = match c.u8()? {
                    0 => None,
                    1 => Some(Epoch::new(c.uvarint()?)),
                    other => return fail(&c, format!("bad latest-epoch flag {other}")),
                };
                let stats = StoreStats {
                    published: c.uvarint()?,
                    fetched: c.uvarint()?,
                    probes: c.uvarint()?,
                    misses: c.uvarint()?,
                    pages: c.uvarint()?,
                    unavailable: c.uvarint()?,
                    degraded: c.uvarint()?,
                };
                Response::ProbeOk {
                    len,
                    latest_epoch,
                    stats,
                }
            }
            OP_DIGEST_OK => Response::DigestOk(get_digest(&mut c)?),
            OP_PAGES => {
                let n = c.uvarint()? as usize;
                let mut txns = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    txns.push(get_transaction(&mut c)?);
                }
                let k = c.uvarint()? as usize;
                let mut skipped = Vec::with_capacity(k.min(65_536));
                for _ in 0..k {
                    skipped.push(get_txn_id(&mut c)?);
                }
                let u = c.uvarint()? as usize;
                let mut unavailable = Vec::with_capacity(u.min(65_536));
                for _ in 0..u {
                    let ep = Epoch::new(c.uvarint()?);
                    unavailable.push((ep, get_txn_id(&mut c)?));
                }
                let next_cursor = match c.u8()? {
                    0 => None,
                    1 => Some(get_cursor(&mut c)?),
                    other => return fail(&c, format!("bad next-cursor flag {other}")),
                };
                Response::Pages(PullPage {
                    txns,
                    skipped,
                    unavailable,
                    next_cursor,
                })
            }
            OP_METRICS_OK => Response::MetricsOk(get_obs_snapshot(&mut c)?),
            OP_ERR => Response::Err(get_store_error(&mut c)?),
            other => return fail(&c, format!("unknown response opcode {other:#04x}")),
        };
        finish(c, resp)
    }
}

// Error codes on the wire (see docs/wire-protocol.md for the table).
const ERR_DUPLICATE: u8 = 0;
const ERR_UNAVAILABLE: u8 = 1;
const ERR_STALE_EPOCH: u8 = 2;
const ERR_INVALID_CONFIG: u8 = 3;
const ERR_IO: u8 = 4;
const ERR_CORRUPT: u8 = 5;

fn put_store_error(out: &mut Vec<u8>, e: &StoreError) {
    match e {
        StoreError::DuplicateTxn(id) => {
            out.push(ERR_DUPLICATE);
            put_str(out, id);
        }
        StoreError::Unavailable { txn } => {
            out.push(ERR_UNAVAILABLE);
            put_str(out, txn);
        }
        StoreError::StaleEpoch { epoch, latest } => {
            out.push(ERR_STALE_EPOCH);
            put_uvarint(out, *epoch);
            put_uvarint(out, *latest);
        }
        StoreError::InvalidConfig(msg) => {
            out.push(ERR_INVALID_CONFIG);
            put_str(out, msg);
        }
        StoreError::Io { op, path, message } => {
            out.push(ERR_IO);
            put_str(out, op);
            put_str(out, path);
            put_str(out, message);
        }
        StoreError::Corrupt {
            path,
            offset,
            reason,
        } => {
            out.push(ERR_CORRUPT);
            put_str(out, path);
            put_uvarint(out, *offset);
            put_str(out, reason);
        }
    }
}

fn get_store_error(c: &mut Cursor<'_>) -> Result<StoreError> {
    Ok(match c.u8()? {
        ERR_DUPLICATE => StoreError::DuplicateTxn(c.str()?.to_owned()),
        ERR_UNAVAILABLE => StoreError::Unavailable {
            txn: c.str()?.to_owned(),
        },
        ERR_STALE_EPOCH => StoreError::StaleEpoch {
            epoch: c.uvarint()?,
            latest: c.uvarint()?,
        },
        ERR_INVALID_CONFIG => StoreError::InvalidConfig(c.str()?.to_owned()),
        ERR_IO => StoreError::Io {
            op: c.str()?.to_owned(),
            path: c.str()?.to_owned(),
            message: c.str()?.to_owned(),
        },
        ERR_CORRUPT => StoreError::Corrupt {
            path: c.str()?.to_owned(),
            offset: c.uvarint()?,
            reason: c.str()?.to_owned(),
        },
        other => return fail(c, format!("unknown error code {other}")),
    })
}

// digest := len:uvarint has_latest:u8 [epoch:uvarint]
//           ns:uvarint (source:str hw:uvarint)*
//           nr:uvarint (name:str has_latest:u8 [epoch:uvarint] txns:uvarint)*
fn put_digest(out: &mut Vec<u8>, d: &StoreDigest) {
    put_uvarint(out, d.len);
    put_opt_epoch(out, d.latest_epoch);
    put_uvarint(out, d.sources.len() as u64);
    for (source, hw) in &d.sources {
        put_str(out, source);
        put_uvarint(out, *hw);
    }
    put_uvarint(out, d.relations.len() as u64);
    for (name, r) in &d.relations {
        put_str(out, name);
        put_opt_epoch(out, r.latest_epoch);
        put_uvarint(out, r.txns);
    }
}

fn get_digest(c: &mut Cursor<'_>) -> Result<StoreDigest> {
    let len = c.uvarint()?;
    let latest_epoch = get_opt_epoch(c)?;
    let ns = c.uvarint()? as usize;
    let mut sources = std::collections::BTreeMap::new();
    for _ in 0..ns {
        let source = c.str()?.to_owned();
        sources.insert(source, c.uvarint()?);
    }
    let nr = c.uvarint()? as usize;
    let mut relations = std::collections::BTreeMap::new();
    for _ in 0..nr {
        let name = c.str()?.to_owned();
        let latest_epoch = get_opt_epoch(c)?;
        relations.insert(
            name,
            RelationDigest {
                latest_epoch,
                txns: c.uvarint()?,
            },
        );
    }
    Ok(StoreDigest {
        len,
        latest_epoch,
        sources,
        relations,
    })
}

fn put_opt_epoch(out: &mut Vec<u8>, e: Option<Epoch>) {
    match e {
        Some(ep) => {
            out.push(1);
            put_uvarint(out, ep.value());
        }
        None => out.push(0),
    }
}

fn get_opt_epoch(c: &mut Cursor<'_>) -> Result<Option<Epoch>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Epoch::new(c.uvarint()?))),
        other => fail(c, format!("bad epoch-present flag {other}")),
    }
}

/// The optional trailing trace id on `HELLO` / `PULL_PAGES`: present iff
/// bytes remain.
fn get_opt_trace(c: &mut Cursor<'_>) -> Result<u64> {
    if c.is_empty() {
        Ok(0)
    } else {
        c.uvarint()
    }
}

// obs-snapshot := nc:uvarint (name:str v:uvarint)*
//                 ng:uvarint (name:str v:zigzag-uvarint)*
//                 nh:uvarint (name:str count:uvarint sum:uvarint
//                             nb:uvarint bucket:uvarint*)*
//                 ns:uvarint (name:str trace:uvarint start:uvarint
//                             dur:uvarint thread:uvarint seq:uvarint
//                             na:uvarint (k:str v:str)*)*
fn put_obs_snapshot(out: &mut Vec<u8>, snap: &orchestra_obs::ObsSnapshot) {
    put_uvarint(out, snap.counters.len() as u64);
    for (name, v) in &snap.counters {
        put_str(out, name);
        put_uvarint(out, *v);
    }
    put_uvarint(out, snap.gauges.len() as u64);
    for (name, v) in &snap.gauges {
        put_str(out, name);
        put_uvarint(out, zigzag(*v));
    }
    put_uvarint(out, snap.histograms.len() as u64);
    for h in &snap.histograms {
        put_str(out, &h.name);
        put_uvarint(out, h.count);
        put_uvarint(out, h.sum);
        put_uvarint(out, h.buckets.len() as u64);
        for b in &h.buckets {
            put_uvarint(out, *b);
        }
    }
    put_uvarint(out, snap.spans.len() as u64);
    for s in &snap.spans {
        put_str(out, &s.name);
        put_uvarint(out, s.trace);
        put_uvarint(out, s.start_us);
        put_uvarint(out, s.dur_us);
        put_uvarint(out, s.thread);
        put_uvarint(out, s.seq);
        put_uvarint(out, s.attrs.len() as u64);
        for (k, v) in &s.attrs {
            put_str(out, k);
            put_str(out, v);
        }
    }
}

fn get_obs_snapshot(c: &mut Cursor<'_>) -> Result<orchestra_obs::ObsSnapshot> {
    let mut snap = orchestra_obs::ObsSnapshot::default();
    let nc = c.uvarint()? as usize;
    snap.counters.reserve(nc.min(65_536));
    for _ in 0..nc {
        let name = c.str()?.to_owned();
        snap.counters.push((name, c.uvarint()?));
    }
    let ng = c.uvarint()? as usize;
    snap.gauges.reserve(ng.min(65_536));
    for _ in 0..ng {
        let name = c.str()?.to_owned();
        snap.gauges.push((name, unzigzag(c.uvarint()?)));
    }
    let nh = c.uvarint()? as usize;
    snap.histograms.reserve(nh.min(65_536));
    for _ in 0..nh {
        let name = c.str()?.to_owned();
        let count = c.uvarint()?;
        let sum = c.uvarint()?;
        let nb = c.uvarint()? as usize;
        let mut buckets = Vec::with_capacity(nb.min(65_536));
        for _ in 0..nb {
            buckets.push(c.uvarint()?);
        }
        snap.histograms.push(orchestra_obs::HistogramSnapshot {
            name,
            count,
            sum,
            buckets,
        });
    }
    let ns = c.uvarint()? as usize;
    snap.spans.reserve(ns.min(65_536));
    for _ in 0..ns {
        let name = c.str()?.to_owned();
        let trace = c.uvarint()?;
        let start_us = c.uvarint()?;
        let dur_us = c.uvarint()?;
        let thread = c.uvarint()?;
        let seq = c.uvarint()?;
        let na = c.uvarint()? as usize;
        let mut attrs = Vec::with_capacity(na.min(65_536));
        for _ in 0..na {
            let k = c.str()?.to_owned();
            attrs.push((k, c.str()?.to_owned()));
        }
        snap.spans.push(orchestra_obs::SpanSnapshot {
            name,
            trace,
            start_us,
            dur_us,
            thread,
            seq,
            attrs,
        });
    }
    Ok(snap)
}

/// Zigzag-map a signed gauge value onto the uvarint domain (small
/// magnitudes of either sign stay short on the wire).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

// --------------------------------------------------------------- helpers

fn take4(c: &mut Cursor<'_>) -> Result<[u8; 4]> {
    let mut out = [0u8; 4];
    for b in &mut out {
        *b = c.u8()?;
    }
    Ok(out)
}

/// All remaining bytes (for bodies delegated to another decoder).
fn rest<'a>(c: &mut Cursor<'a>) -> &'a [u8] {
    c.remaining()
}

fn fail<T>(c: &Cursor<'_>, reason: String) -> Result<T> {
    Err(CodecError {
        offset: c.position(),
        reason,
    })
}

fn finish<T>(c: Cursor<'_>, value: T) -> Result<T> {
    if c.is_empty() {
        Ok(value)
    } else {
        Err(CodecError {
            offset: c.position(),
            reason: "trailing bytes after message".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, Update};

    fn sample_txn(seq: u64) -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new("Alaska"), seq),
            Epoch::new(3),
            vec![Update::insert("R", tuple![1, "a"])],
        )
        .with_antecedents([TxnId::new(PeerId::new("Beijing"), 1)])
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                trace: 0,
            },
            Request::Hello {
                version: PROTOCOL_VERSION,
                trace: 0x00c0_ffee_1234_5678,
            },
            Request::Publish {
                epoch: Epoch::new(7),
                txns: vec![sample_txn(1), sample_txn(2)],
            },
            Request::PullPages {
                cursor: FetchCursor::at_txn(Epoch::new(2), TxnId::new(PeerId::new("A"), 5)),
                limit: 128,
                interest: vec![],
                have: vec![],
                trace: 0,
            },
            Request::Fetch {
                id: TxnId::new(PeerId::new("A"), 5),
            },
            Request::Probe,
            Request::Digest,
            Request::PullPages {
                cursor: FetchCursor::after_txn(Epoch::new(4), TxnId::new(PeerId::new("B"), 2)),
                limit: 256,
                interest: vec!["Alaska.R".into()],
                have: vec![("Alaska".into(), 7), ("Beijing".into(), 0)],
                trace: 0xdead_beef,
            },
            Request::PullPages {
                cursor: FetchCursor::at_epoch(Epoch::zero()),
                limit: 1,
                interest: vec![],
                have: vec![],
                trace: 0,
            },
            Request::Metrics,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{}", req.label());
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::HelloOk {
                version: PROTOCOL_VERSION,
            },
            Response::PublishOk,
            Response::Pages(PullPage {
                txns: vec![sample_txn(1)],
                skipped: vec![],
                unavailable: vec![(Epoch::new(2), TxnId::new(PeerId::new("B"), 9))],
                next_cursor: Some(FetchCursor::after_txn(
                    Epoch::new(2),
                    TxnId::new(PeerId::new("B"), 9),
                )),
            }),
            Response::Txn(Some(sample_txn(4))),
            Response::Txn(None),
            Response::ProbeOk {
                len: 42,
                latest_epoch: Some(Epoch::new(9)),
                stats: StoreStats {
                    published: 1,
                    fetched: 2,
                    probes: 3,
                    misses: 4,
                    pages: 5,
                    unavailable: 6,
                    degraded: 7,
                },
            },
            Response::ProbeOk {
                len: 0,
                latest_epoch: None,
                stats: StoreStats::default(),
            },
            Response::DigestOk(sample_digest()),
            Response::DigestOk(StoreDigest::default()),
            Response::Pages(PullPage {
                txns: vec![sample_txn(3)],
                skipped: vec![
                    TxnId::new(PeerId::new("A"), 1),
                    TxnId::new(PeerId::new("C"), 4),
                ],
                unavailable: vec![(Epoch::new(2), TxnId::new(PeerId::new("B"), 9))],
                next_cursor: Some(FetchCursor::after_txn(
                    Epoch::new(3),
                    TxnId::new(PeerId::new("Alaska"), 3),
                )),
            }),
            Response::Pages(PullPage::default()),
            Response::MetricsOk(orchestra_obs::ObsSnapshot::default()),
            Response::MetricsOk(sample_obs_snapshot()),
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    fn sample_obs_snapshot() -> orchestra_obs::ObsSnapshot {
        orchestra_obs::ObsSnapshot {
            counters: vec![
                ("mesh.round.pages_pulled".into(), 17),
                ("store.published".into(), 3),
            ],
            gauges: vec![("x.neg".into(), -2), ("x.g".into(), i64::MAX)],
            histograms: vec![orchestra_obs::HistogramSnapshot {
                name: "store.wal.fsync_micros".into(),
                count: 2,
                sum: 300,
                buckets: vec![0, 1, 1],
            }],
            spans: vec![orchestra_obs::SpanSnapshot {
                name: "mesh.round".into(),
                trace: u64::MAX,
                start_us: 12,
                dur_us: 34,
                thread: 5,
                seq: 99,
                attrs: vec![("peer".into(), "Alaska".into())],
            }],
        }
    }

    #[test]
    fn gauge_zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn sample_digest() -> StoreDigest {
        let mut d = StoreDigest::default();
        d.observe(&sample_txn(1));
        d.observe(&sample_txn(2));
        d.observe_position(Epoch::new(5), &TxnId::new(PeerId::new("Ghost"), 3));
        d
    }

    #[test]
    fn every_store_error_roundtrips() {
        let errs = [
            StoreError::DuplicateTxn("A#1".into()),
            StoreError::Unavailable { txn: "B#2".into() },
            StoreError::StaleEpoch {
                epoch: 3,
                latest: 9,
            },
            StoreError::InvalidConfig("zero nodes".into()),
            StoreError::Io {
                op: "fsync".into(),
                path: "/wal/000001.seg".into(),
                message: "disk full".into(),
            },
            StoreError::Corrupt {
                path: "/wal/000001.seg".into(),
                offset: 128,
                reason: "checksum mismatch".into(),
            },
        ];
        for e in errs {
            let bytes = Response::Err(e.clone()).encode();
            assert_eq!(Response::decode(&bytes).unwrap(), Response::Err(e));
        }
    }

    #[test]
    fn publish_body_is_the_wal_batch_record() {
        // The net bytes after the opcode are exactly the durable WAL's
        // batch record: one codec, two consumers.
        let txns = vec![sample_txn(1)];
        let wire = Request::Publish {
            epoch: Epoch::new(7),
            txns: txns.clone(),
        }
        .encode();
        assert_eq!(&wire[1..], &encode_batch(Epoch::new(7), &txns)[..]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x7f]).is_err(), "unknown opcode");
        assert!(Response::decode(&[0x01]).is_err(), "request op as response");
        // Wrong magic.
        let mut hello = Request::Hello {
            version: PROTOCOL_VERSION,
            trace: 0,
        }
        .encode();
        hello[1] ^= 0xff;
        assert!(Request::decode(&hello).is_err());
        // A PROBE_OK cut short of its store counters.
        let mut probe_ok = Response::ProbeOk {
            len: 1,
            latest_epoch: None,
            stats: StoreStats::default(),
        }
        .encode();
        probe_ok.truncate(probe_ok.len() - 2);
        assert!(Response::decode(&probe_ok).is_err());
        // Trailing bytes.
        let mut probe = Request::Probe.encode();
        probe.push(0);
        assert!(Request::decode(&probe).is_err());
    }
}
