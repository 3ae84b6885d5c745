//! The write-ahead event log: sequence-numbered, checksummed frames,
//! appended through a [`Store`](crate::storage::Store) *before* an event is
//! acknowledged (applied).  A batch's frames are appended in one store call
//! before any of them is applied; batches split at snapshot boundaries.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! ┌─────────────┬───────────┬──────────────────┬──────────────┐
//! │ len: u32    │ seq: u64  │ payload (len B)  │ crc: u64     │
//! └─────────────┴───────────┴──────────────────┴──────────────┘
//! ```
//!
//! `payload` is the UTF-8 event name, `crc` is FNV-1a over everything
//! before it.  The read path is torn-tail tolerant: a final frame cut short
//! by a power failure (wrong length, bad checksum, or a non-monotonic
//! sequence number) ends the scan — the valid prefix is replayed and the
//! torn bytes are reported, never silently replayed.  Because the frame was
//! incomplete, its event was by construction never acknowledged
//! (append-before-ack), so dropping it loses nothing that was promised.

use fsm_dfsm::Event;

use crate::error::{DistsysError, Result};
use crate::storage::{with_store, SharedStore};

/// Fixed frame overhead: 4-byte length + 8-byte sequence + 8-byte checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8 + 8;

/// The WAL blob name for a durable-server id.
pub fn wal_name(id: &str) -> String {
    format!("{id}.wal")
}

/// One decoded log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The entry's sequence number (1-based, strictly increasing).
    pub seq: u64,
    /// The logged event.
    pub event: Event,
}

/// The result of scanning a log's bytes.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every valid entry, in log order.
    pub entries: Vec<WalEntry>,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
    /// Bytes after the valid prefix (a torn or corrupt tail), dropped.
    pub torn_tail_bytes: usize,
}

/// FNV-1a over a byte slice — the frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Encodes one frame.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut frame, seq, payload);
    frame
}

/// Encodes one frame onto the end of `buf` — the group-commit path, which
/// gathers a whole batch of frames in one reused buffer.
pub fn encode_frame_into(buf: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let start = buf.len();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = fnv1a(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Appends one event frame to the log `name` in `store`.  Returns only
/// after the store accepted the bytes — the caller may then acknowledge
/// (apply) the event.
pub fn append(store: &SharedStore, name: &str, seq: u64, event: &Event) -> Result<()> {
    let frame = encode_frame(seq, event.name().as_bytes());
    with_store(store, |s| s.append(name, &frame))
}

/// Scans raw log bytes into entries, stopping at the first malformed or
/// non-monotonic frame (everything from there on is the torn tail).
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut offset = 0usize;
    let mut last_seq = 0u64;
    while bytes.len() - offset >= FRAME_OVERHEAD {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let frame_len = FRAME_OVERHEAD + len as usize;
        if bytes.len() - offset < frame_len {
            break;
        }
        let body = &bytes[offset..offset + frame_len - 8];
        let crc = u64::from_le_bytes(
            bytes[offset + frame_len - 8..offset + frame_len]
                .try_into()
                .expect("8 bytes"),
        );
        if fnv1a(body) != crc {
            break;
        }
        let seq = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes"));
        if seq <= last_seq {
            break;
        }
        let Ok(name) = std::str::from_utf8(&body[12..]) else {
            break;
        };
        out.entries.push(WalEntry {
            seq,
            event: Event::new(name),
        });
        last_seq = seq;
        offset += frame_len;
    }
    out.valid_len = offset;
    out.torn_tail_bytes = bytes.len() - offset;
    out
}

/// Reads and scans the log `name` from `store` (an absent log scans as
/// empty).
pub fn read(store: &SharedStore, name: &str) -> Result<WalScan> {
    let bytes = with_store(store, |s| s.read(name))?.unwrap_or_default();
    Ok(scan(&bytes))
}

/// Truncates the log to `new_len` bytes — the simulator's torn-write
/// injection (modeling a power failure mid-append) and the compaction path
/// (with `new_len == 0`) share this.  Compaction keeps nothing, so it
/// writes the empty blob without reading the old one back.
pub fn truncate(store: &SharedStore, name: &str, new_len: usize) -> Result<()> {
    with_store(store, |s| {
        if new_len == 0 {
            return s.write_atomic(name, &[]);
        }
        let bytes = s.read(name)?.unwrap_or_default();
        let keep = &bytes[..new_len.min(bytes.len())];
        s.write_atomic(name, keep)
    })
}

/// Maps any of this module's errors into a storage error with log context.
pub(crate) fn corrupt(name: &str, detail: impl std::fmt::Display) -> DistsysError {
    DistsysError::Storage {
        message: format!("wal {name}: {detail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{shared, MemStore};

    fn ev(s: &str) -> Event {
        Event::new(s)
    }

    #[test]
    fn append_read_roundtrip() {
        let store = shared(MemStore::new());
        append(&store, "a.wal", 1, &ev("0")).unwrap();
        append(&store, "a.wal", 2, &ev("tick")).unwrap();
        append(&store, "a.wal", 3, &ev("1")).unwrap();
        let scan = read(&store, "a.wal").unwrap();
        assert_eq!(scan.entries.len(), 3);
        assert_eq!(scan.entries[1].seq, 2);
        assert_eq!(scan.entries[1].event.name(), "tick");
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn missing_log_scans_empty() {
        let store = shared(MemStore::new());
        let scan = read(&store, "nope.wal").unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_replayed() {
        let mut bytes = encode_frame(1, b"0");
        bytes.extend_from_slice(&encode_frame(2, b"1"));
        let full = scan(&bytes);
        assert_eq!(full.entries.len(), 2);
        // Cut the final frame anywhere: header, payload or checksum.
        for cut in full.valid_len - (FRAME_OVERHEAD + 1) + 1..bytes.len() {
            let torn = scan(&bytes[..cut]);
            assert_eq!(torn.entries.len(), 1, "cut at {cut}");
            assert_eq!(torn.entries[0].seq, 1);
            assert_eq!(torn.torn_tail_bytes, cut - torn.valid_len);
        }
    }

    #[test]
    fn corrupt_checksum_and_bad_seq_stop_the_scan() {
        let mut bytes = encode_frame(1, b"0");
        let second_start = bytes.len();
        bytes.extend_from_slice(&encode_frame(2, b"1"));
        // Flip a payload byte of the second frame: checksum mismatch.
        let mut flipped = bytes.clone();
        flipped[second_start + 12] ^= 0xFF;
        assert_eq!(scan(&flipped).entries.len(), 1);
        // A regressing sequence number also stops the scan.
        let mut regress = encode_frame(5, b"a");
        regress.extend_from_slice(&encode_frame(5, b"b"));
        assert_eq!(scan(&regress).entries.len(), 1);
    }

    #[test]
    fn truncate_shortens_the_log() {
        let store = shared(MemStore::new());
        append(&store, "t.wal", 1, &ev("0")).unwrap();
        append(&store, "t.wal", 2, &ev("1")).unwrap();
        let full = read(&store, "t.wal").unwrap();
        truncate(&store, "t.wal", full.valid_len - 3).unwrap();
        let cut = read(&store, "t.wal").unwrap();
        assert_eq!(cut.entries.len(), 1);
        assert!(cut.torn_tail_bytes > 0);
        truncate(&store, "t.wal", 0).unwrap();
        assert!(read(&store, "t.wal").unwrap().entries.is_empty());
    }
}
