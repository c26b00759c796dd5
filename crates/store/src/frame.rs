//! Checksummed, length-prefixed framing shared by the durable archive's
//! on-disk files and the network wire protocol (`orchestra-net`).
//!
//! A frame is the unit of atomicity for both consumers: the WAL appends
//! one frame per publish batch (a crash mid-append leaves a torn tail
//! that recovery truncates), and the peer server/client exchange one
//! frame per request or response (a connection cut mid-frame reads as
//! torn, a flipped bit as corrupt — never as a shorter valid message).
//! Keeping the layout in one module guarantees durable and net bytes
//! stay identical:
//!
//! ```text
//! frame := len:u32le crc:u32le payload[len]     (crc over payload)
//! ```

/// Frame header size: u32 length + u32 checksum.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one frame's payload. A corrupt length prefix must not
/// drive a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

// ---------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c; // analyze: allow(panic) -- i < 256 by the enclosing loop guard
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        // analyze: allow(panic) -- index masked with & 0xff, always < 256
        c = (c >> 8) ^ CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

// ---------------------------------------------------------------- frames

/// Wrap a payload in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= u64::from(MAX_FRAME_LEN),
        "oversized frame"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The outcome of reading one frame from a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete, checksum-valid frame payload of the given total
    /// on-disk size (header + payload).
    Ok {
        /// The verified payload bytes.
        payload: Vec<u8>,
        /// Total bytes consumed from the stream.
        size: usize,
    },
    /// The stream ends exactly here — a clean end.
    Eof,
    /// The stream ends mid-frame (short header or short payload): the
    /// torn-tail signature of a crash during append, or a connection cut
    /// mid-message.
    Torn,
    /// A complete frame whose checksum (or length prefix) is invalid.
    Corrupt {
        /// Why the frame was rejected.
        reason: String,
        /// Total bytes (header + payload) the frame spans when its
        /// structure was still parseable — a lossy scanner can skip this
        /// many bytes and resynchronize at the next frame boundary.
        /// `None` when the length prefix itself is implausible: nothing
        /// past this point can be scanned.
        resync: Option<u64>,
    },
}

/// Read the frame starting at `buf[offset..]` — a thin adapter over
/// [`FrameReader`] so there is exactly one frame parser (the streaming
/// one every production path uses).
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead {
    let rest = &buf[offset.min(buf.len())..]; // analyze: allow(panic) -- offset clamped to buf.len()
    match FrameReader::new(rest, 0).next_frame() {
        Ok((_, outcome)) => outcome,
        Err(e) => FrameRead::Corrupt {
            reason: format!("read error from in-memory buffer: {e}"),
            resync: None,
        },
    }
}

/// Streaming frame iteration over any [`Read`](std::io::Read) source,
/// holding one frame in memory at a time. This is what lets a segment
/// scan verify a file frame by frame, and the network peer read one
/// message at a time off a socket.
pub struct FrameReader<R> {
    inner: R,
    offset: u64,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wrap a reader positioned at a frame boundary (`base_offset` is that
    /// position's byte offset within the file, for error reporting).
    pub fn new(inner: R, base_offset: u64) -> Self {
        FrameReader {
            inner,
            offset: base_offset,
        }
    }

    /// Byte offset of the next frame header.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read the next frame. Returns the frame's starting offset alongside
    /// the outcome; I/O errors other than clean EOF surface as `Err`.
    pub fn next_frame(&mut self) -> std::io::Result<(u64, FrameRead)> {
        let start = self.offset;
        let mut header = [0u8; FRAME_HEADER];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            0 => return Ok((start, FrameRead::Eof)),
            n if n < FRAME_HEADER => return Ok((start, FrameRead::Torn)),
            _ => {}
        }
        // analyze: allow(panic) -- 4-byte slices of the FRAME_HEADER buffer; try_into is infallible
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        // analyze: allow(panic) -- 4-byte slices of the FRAME_HEADER buffer; try_into is infallible
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Ok((
                start,
                FrameRead::Corrupt {
                    reason: format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
                    resync: None,
                },
            ));
        }
        let mut payload = vec![0u8; len as usize];
        let got = read_exact_or_eof(&mut self.inner, &mut payload)?;
        if got < payload.len() {
            return Ok((start, FrameRead::Torn));
        }
        let actual = crc32(&payload);
        if actual != crc {
            // The frame's structure parsed (the whole payload was read
            // off the stream), only the content is bad: advance past it
            // so a lossy caller can keep scanning subsequent frames.
            self.offset = start + (FRAME_HEADER + payload.len()) as u64;
            return Ok((
                start,
                FrameRead::Corrupt {
                    reason: format!(
                        "checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
                    ),
                    resync: Some((FRAME_HEADER + payload.len()) as u64),
                },
            ));
        }
        self.offset = start + (FRAME_HEADER + payload.len()) as u64;
        Ok((
            start,
            FrameRead::Ok {
                size: FRAME_HEADER + payload.len(),
                payload,
            },
        ))
    }
}

/// Fill `buf` as far as the stream allows; returns bytes read (< len only
/// at end of stream).
fn read_exact_or_eof<R: std::io::Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        // analyze: allow(panic) -- filled < buf.len() by the loop guard
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let payload = b"a payload of some bytes".to_vec();
        let framed = frame(&payload);
        match read_frame(&framed, 0) {
            FrameRead::Ok { payload: p, size } => {
                assert_eq!(p, payload);
                assert_eq!(size, framed.len());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(read_frame(&framed, framed.len()), FrameRead::Eof);
        // Every strict prefix is torn, never corrupt or ok.
        for cut in 1..framed.len() {
            assert_eq!(
                read_frame(&framed[..cut], 0),
                FrameRead::Torn,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn frame_flips_are_corrupt() {
        let framed = frame(b"sensitive bits");
        // Flip each payload byte: checksum must catch it.
        for i in FRAME_HEADER..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(read_frame(&bad, 0), FrameRead::Corrupt { .. }),
                "flipped byte {i}"
            );
        }
        // A corrupted stored-crc is also caught.
        let mut bad = framed.clone();
        bad[5] ^= 0x01;
        assert!(matches!(read_frame(&bad, 0), FrameRead::Corrupt { .. }));
        // An absurd length prefix is rejected before allocating.
        let mut bad = framed;
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&bad, 0), FrameRead::Corrupt { .. }));
    }

    #[test]
    fn frame_reader_streams_and_classifies() {
        let a = frame(b"first");
        let b = frame(b"second");
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b);
        let mut r = FrameReader::new(&bytes[..], 0);
        match r.next_frame().unwrap() {
            (0, FrameRead::Ok { payload, .. }) => assert_eq!(payload, b"first"),
            other => panic!("{other:?}"),
        }
        match r.next_frame().unwrap() {
            (off, FrameRead::Ok { payload, .. }) => {
                assert_eq!(off, a.len() as u64);
                assert_eq!(payload, b"second");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(r.next_frame().unwrap(), (_, FrameRead::Eof)));
        // Torn: stream cut mid-payload.
        let cut = &bytes[..a.len() + 9];
        let mut r = FrameReader::new(cut, 0);
        assert!(matches!(r.next_frame().unwrap(), (0, FrameRead::Ok { .. })));
        assert!(matches!(r.next_frame().unwrap(), (_, FrameRead::Torn)));
        // Corrupt: flipped byte.
        let mut bad = frame(b"x");
        bad[8] ^= 1;
        let mut r = FrameReader::new(&bad[..], 0);
        assert!(matches!(
            r.next_frame().unwrap(),
            (0, FrameRead::Corrupt { .. })
        ));
    }
}
