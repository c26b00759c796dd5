//! The shared binary codec: varint/zigzag primitives and the record
//! encodings for [`Transaction`] batches and [`FetchCursor`]s. Both the
//! durable archive's on-disk files and the `orchestra-net` wire protocol
//! serialize through these functions, so a transaction's bytes are
//! identical whether they land in a WAL frame or a network frame. The
//! checksummed length-prefixed framing itself lives in
//! [`crate::frame`].
//!
//! Wire formats are deliberately dependency-free and stable:
//!
//! ```text
//! frame   := len:u32le crc:u32le payload[len]     (crc over payload)
//! payload := RECORD_BATCH epoch:uvarint count:uvarint txn*
//! txn     := peer:str seq:uvarint epoch:uvarint
//!            n_updates:uvarint update* n_ants:uvarint txn_id*
//! update  := 0 rel:str tuple            (insert)
//!          | 1 rel:str tuple            (delete)
//!          | 2 rel:str tuple tuple      (modify: old, new)
//! tuple   := arity:uvarint value*
//! value   := 0 | 1 b:u8 | 2 i:ivarint | 3 bits:u64le
//!          | 4 s:str | 5 f:str argc:uvarint value*
//! cursor  := epoch:uvarint 0            (start of epoch)
//!          | epoch:uvarint 1 txn_id     (at txn, inclusive)
//!          | epoch:uvarint 2 txn_id     (strictly after txn)
//! str     := len:uvarint utf8-bytes
//! ```

use crate::api::{CursorBound, FetchCursor};
use orchestra_relational::{Tuple, Value};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::collections::BTreeSet;
use std::fmt;

/// Record tag for a published transaction batch.
pub const RECORD_BATCH: u8 = 0x01;

/// A decoding failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset into the buffer being decoded.
    pub offset: usize,
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ------------------------------------------------------------ primitives

/// Append an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a zigzag-encoded signed varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    // zigzag: sign goes to bit 0 so small magnitudes stay short.
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked read cursor.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True iff every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Every byte not yet consumed, consuming them all — for bodies whose
    /// tail is delegated to another decoder (e.g. a wire message wrapping
    /// a batch record).
    pub fn remaining(&mut self) -> &'a [u8] {
        #[expect(
            clippy::indexing_slicing,
            reason = "pos never exceeds buf.len(): take() bounds-checks every advance"
        )]
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    fn fail<T>(&self, reason: impl Into<String>) -> Result<T> {
        Err(CodecError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self.fail(format!(
                "need {n} bytes, {} remain",
                self.buf.len() - self.pos
            ));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the length check directly above returns Err before this slice can overrun"
        )]
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[expect(
        clippy::indexing_slicing,
        reason = "take(1) returns exactly one byte or an error"
    )]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read an unsigned LEB128 varint.
    pub fn uvarint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return self.fail("uvarint overflows u64");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return self.fail("uvarint longer than 10 bytes");
            }
        }
    }

    /// Read a zigzag-encoded signed varint.
    pub fn ivarint(&mut self) -> Result<i64> {
        let z = self.uvarint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.uvarint()?;
        if len > self.buf.len() as u64 {
            return self.fail(format!("string length {len} exceeds buffer"));
        }
        let bytes = self.take(len as usize)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(e) => self.fail(format!("invalid utf8 in string: {e}")),
        }
    }
}

// ---------------------------------------------------------------- values

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            put_ivarint(out, *i);
        }
        Value::Double(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Skolem(sk) => {
            out.push(5);
            put_str(out, &sk.function);
            put_uvarint(out, sk.args.len() as u64);
            for a in &sk.args {
                put_value(out, a);
            }
        }
    }
}

/// Skolem nesting deeper than this decodes as corruption rather than
/// recursing toward a stack overflow: a CRC-valid but pathological frame
/// must surface as an error, not abort the process. Real labeled nulls
/// nest a handful of levels (one per chained tgd).
const MAX_VALUE_DEPTH: u32 = 64;

fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    get_value_at(c, 0)
}

fn get_value_at(c: &mut Cursor<'_>, depth: u32) -> Result<Value> {
    if depth > MAX_VALUE_DEPTH {
        return c.fail(format!("value nesting exceeds {MAX_VALUE_DEPTH} levels"));
    }
    match c.u8()? {
        0 => Ok(Value::Null),
        1 => match c.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => c.fail(format!("invalid bool byte {other}")),
        },
        2 => Ok(Value::Int(c.ivarint()?)),
        3 => {
            #[expect(
                clippy::expect_used,
                reason = "take(8) returned exactly 8 bytes; try_into is infallible here"
            )]
            let bits = u64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes"));
            Ok(Value::Double(f64::from_bits(bits)))
        }
        4 => Ok(Value::str(c.str()?)),
        5 => {
            let function = c.str()?.to_owned();
            let argc = c.uvarint()? as usize;
            let mut args = Vec::with_capacity(argc.min(1024));
            for _ in 0..argc {
                args.push(get_value_at(c, depth + 1)?);
            }
            Ok(Value::skolem(function, args))
        }
        other => c.fail(format!("unknown value tag {other}")),
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_uvarint(out, t.arity() as u64);
    for v in t.iter() {
        put_value(out, v);
    }
}

fn get_tuple(c: &mut Cursor<'_>) -> Result<Tuple> {
    let arity = c.uvarint()? as usize;
    let mut vals = Vec::with_capacity(arity.min(1024));
    for _ in 0..arity {
        vals.push(get_value(c)?);
    }
    Ok(Tuple::new(vals))
}

// --------------------------------------------------------------- updates

fn put_update(out: &mut Vec<u8>, u: &Update) {
    match u {
        Update::Insert { relation, tuple } => {
            out.push(0);
            put_str(out, relation);
            put_tuple(out, tuple);
        }
        Update::Delete { relation, tuple } => {
            out.push(1);
            put_str(out, relation);
            put_tuple(out, tuple);
        }
        Update::Modify { relation, old, new } => {
            out.push(2);
            put_str(out, relation);
            put_tuple(out, old);
            put_tuple(out, new);
        }
    }
}

fn get_update(c: &mut Cursor<'_>) -> Result<Update> {
    match c.u8()? {
        0 => {
            let rel = c.str()?.to_owned();
            Ok(Update::insert(rel, get_tuple(c)?))
        }
        1 => {
            let rel = c.str()?.to_owned();
            Ok(Update::delete(rel, get_tuple(c)?))
        }
        2 => {
            let rel = c.str()?.to_owned();
            let old = get_tuple(c)?;
            let new = get_tuple(c)?;
            Ok(Update::modify(rel, old, new))
        }
        other => c.fail(format!("unknown update tag {other}")),
    }
}

// ---------------------------------------------------------- transactions

/// Encode one transaction id (appended to `out`).
pub fn put_txn_id(out: &mut Vec<u8>, id: &TxnId) {
    put_str(out, id.peer.name());
    put_uvarint(out, id.seq);
}

/// Decode one transaction id.
pub fn get_txn_id(c: &mut Cursor<'_>) -> Result<TxnId> {
    let peer = c.str()?.to_owned();
    let seq = c.uvarint()?;
    Ok(TxnId::new(PeerId::new(peer), seq))
}

/// Encode one transaction (appended to `out`).
pub fn put_transaction(out: &mut Vec<u8>, t: &Transaction) {
    put_txn_id(out, &t.id);
    put_uvarint(out, t.epoch.value());
    put_uvarint(out, t.updates.len() as u64);
    for u in &t.updates {
        put_update(out, u);
    }
    put_uvarint(out, t.antecedents.len() as u64);
    for a in &t.antecedents {
        put_txn_id(out, a);
    }
}

/// Decode one transaction.
pub fn get_transaction(c: &mut Cursor<'_>) -> Result<Transaction> {
    let id = get_txn_id(c)?;
    let epoch = Epoch::new(c.uvarint()?);
    let n_updates = c.uvarint()? as usize;
    let mut updates = Vec::with_capacity(n_updates.min(4096));
    for _ in 0..n_updates {
        updates.push(get_update(c)?);
    }
    let n_ants = c.uvarint()? as usize;
    let mut antecedents = BTreeSet::new();
    for _ in 0..n_ants {
        antecedents.insert(get_txn_id(c)?);
    }
    Ok(Transaction::new(id, epoch, updates).with_antecedents(antecedents))
}

// --------------------------------------------------------------- cursors

/// Encode a [`FetchCursor`] (appended to `out`): the archive position a
/// paged exchange resumes from, stable across processes and the wire.
pub fn put_cursor(out: &mut Vec<u8>, cursor: &FetchCursor) {
    put_uvarint(out, cursor.epoch().value());
    match cursor.bound() {
        CursorBound::Start => out.push(0),
        CursorBound::At(id) => {
            out.push(1);
            put_txn_id(out, id);
        }
        CursorBound::After(id) => {
            out.push(2);
            put_txn_id(out, id);
        }
    }
}

/// Decode a [`FetchCursor`].
pub fn get_cursor(c: &mut Cursor<'_>) -> Result<FetchCursor> {
    let epoch = Epoch::new(c.uvarint()?);
    let bound = match c.u8()? {
        0 => CursorBound::Start,
        1 => CursorBound::At(get_txn_id(c)?),
        2 => CursorBound::After(get_txn_id(c)?),
        other => return c.fail(format!("unknown cursor bound tag {other}")),
    };
    Ok(FetchCursor::from_parts(epoch, bound))
}

// ----------------------------------------------------------- batch record

/// Encode a publish batch record (the only WAL record type today).
pub fn encode_batch(epoch: Epoch, txns: &[Transaction]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * txns.len() + 16);
    out.push(RECORD_BATCH);
    put_uvarint(&mut out, epoch.value());
    put_uvarint(&mut out, txns.len() as u64);
    for t in txns {
        put_transaction(&mut out, t);
    }
    out
}

/// Decode a publish batch record; the payload must be consumed exactly.
pub fn decode_batch(payload: &[u8]) -> Result<(Epoch, Vec<Transaction>)> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    if tag != RECORD_BATCH {
        return c.fail(format!("unknown record tag {tag}"));
    }
    let epoch = Epoch::new(c.uvarint()?);
    let count = c.uvarint()? as usize;
    let mut txns = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        txns.push(get_transaction(&mut c)?);
    }
    if !c.is_empty() {
        return c.fail("trailing bytes after batch record");
    }
    Ok((epoch, txns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;

    fn sample_txn() -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new("Alaska"), 7),
            Epoch::new(3),
            vec![
                Update::insert("R", tuple![1, "a"]),
                Update::modify("R", tuple![1, "a"], tuple![1, "b"]),
                Update::delete("S", tuple![2.5, false]),
            ],
        )
        .with_antecedents([
            TxnId::new(PeerId::new("Beijing"), 1),
            TxnId::new(PeerId::new("Crete"), 9),
        ])
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).uvarint().unwrap(), v);
        }
        for v in [0i64, -1, 1, 63, -64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).ivarint().unwrap(), v);
        }
    }

    #[test]
    fn transaction_roundtrip() {
        let t = sample_txn();
        let mut buf = Vec::new();
        put_transaction(&mut buf, &t);
        let mut c = Cursor::new(&buf);
        assert_eq!(get_transaction(&mut c).unwrap(), t);
        assert!(c.is_empty());
    }

    #[test]
    fn skolem_and_specials_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Double(f64::INFINITY),
            Value::skolem("f", vec![Value::skolem("g", vec![Value::Int(-5)])]),
            Value::str(""),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for v in &vals {
            assert_eq!(&get_value(&mut c).unwrap(), v);
        }
    }

    #[test]
    fn batch_roundtrip() {
        let txns = vec![sample_txn()];
        let payload = encode_batch(Epoch::new(3), &txns);
        let (ep, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(ep, Epoch::new(3));
        assert_eq!(decoded, txns);
    }

    #[test]
    fn cursor_roundtrip() {
        let id = TxnId::new(PeerId::new("Alaska"), 7);
        for cursor in [
            FetchCursor::at_epoch(Epoch::zero()),
            FetchCursor::at_epoch(Epoch::new(42)),
            FetchCursor::at_txn(Epoch::new(3), id.clone()),
            FetchCursor::after_txn(Epoch::new(3), id),
        ] {
            let mut buf = Vec::new();
            put_cursor(&mut buf, &cursor);
            let mut c = Cursor::new(&buf);
            assert_eq!(get_cursor(&mut c).unwrap(), cursor);
            assert!(c.is_empty());
        }
        // An unknown bound tag is an error, not a panic.
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 1);
        bad.push(9);
        assert!(get_cursor(&mut Cursor::new(&bad)).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_batch(&[]).is_err());
        assert!(decode_batch(&[0xff]).is_err(), "unknown tag");
        let mut payload = encode_batch(Epoch::new(1), &[sample_txn()]);
        payload.push(0);
        assert!(decode_batch(&payload).is_err(), "trailing bytes");
    }

    #[test]
    fn pathological_skolem_nesting_is_an_error_not_a_crash() {
        // A CRC-valid frame can still hold adversarial bytes: a run of
        // nested Skolem headers must decode to an error, not recurse to
        // a stack overflow.
        let mut payload = Vec::new();
        for _ in 0..100_000u32 {
            payload.push(5); // Skolem tag
            payload.push(1); // function name length 1
            payload.push(b'f');
            payload.push(1); // one argument
        }
        let mut c = Cursor::new(&payload);
        let err = get_value(&mut c).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
        // Legitimate nesting well inside the cap still decodes.
        let mut deep = Value::Int(1);
        for _ in 0..(MAX_VALUE_DEPTH / 2) {
            deep = Value::skolem("f", vec![deep]);
        }
        let mut buf = Vec::new();
        put_value(&mut buf, &deep);
        assert_eq!(get_value(&mut Cursor::new(&buf)).unwrap(), deep);
    }
}
