//! Deterministic storage: an append-only write-ahead log and atomic
//! snapshot files over a pluggable [`Disk`].
//!
//! The protocol crates write durable state through this module only. Under
//! the simulator the backing [`Disk`] is an in-memory file model
//! ([`MemDisk`]) whose contents survive an actor's crash (the handle
//! outlives the actor) and can be wiped to model losing the disk; under the
//! threaded runtime it is a real fsync'd directory (`cicero-node`'s
//! `disk.rs`, the one OS-filesystem boundary — clippy refuses file opening
//! and fsync elsewhere exactly as it refuses the wall clock outside
//! `clock.rs`).
//!
//! # WAL format
//!
//! A log file is a sequence of frames, each
//!
//! ```text
//! [len: u32 BE] [crc32(payload): u32 BE] [payload: len bytes]
//! ```
//!
//! [`Wal::open`] recovers the longest valid prefix: it stops at the first
//! frame that is short, oversized, or fails its checksum, truncates the
//! torn tail in place, and returns the surviving payloads. It never
//! panics on corrupt input (property-tested in this module).
//!
//! A snapshot is a single frame written atomically (temp + rename under the
//! real filesystem); a corrupt or torn snapshot reads as absent.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Frames larger than this are treated as corruption, not allocation
/// requests (a torn length prefix must never OOM recovery).
const MAX_FRAME: usize = 64 << 20;

/// Byte width of a frame header.
const HEADER: usize = 8;

/// A named-file store. Implementations must make [`Disk::write_atomic`]
/// all-or-nothing and should make [`Disk::append`] durable before
/// returning; the in-memory model is trivially both.
pub trait Disk: Send {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Option<Vec<u8>>;
    /// Replaces `name` with `data`, atomically.
    fn write_atomic(&mut self, name: &str, data: &[u8]);
    /// Appends `data` to `name` (creating it if absent).
    fn append(&mut self, name: &str, data: &[u8]);
    /// Deletes `name` (no-op if absent).
    fn remove(&mut self, name: &str);
    /// Deletes everything — models losing the disk in a crash.
    fn wipe(&mut self);
}

/// A shareable handle to one node's disk. Cloned between the actor and the
/// executor so the contents survive the actor's death (crash with disk
/// intact) and can be wiped from outside (crash with disk lost).
pub type DiskHandle = Arc<Mutex<Box<dyn Disk>>>;

/// A fresh in-memory disk handle (the simulator's file model).
pub fn mem_disk() -> DiskHandle {
    Arc::new(Mutex::new(Box::new(MemDisk::default())))
}

/// Wraps any [`Disk`] into a handle.
pub fn disk_handle(disk: Box<dyn Disk>) -> DiskHandle {
    Arc::new(Mutex::new(disk))
}

/// The in-memory file model: a map of name → bytes. Deterministic and
/// seed-replayable by construction (it performs no I/O at all).
#[derive(Debug, Default)]
pub struct MemDisk {
    files: BTreeMap<String, Vec<u8>>,
}

impl Disk for MemDisk {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.files.get(name).cloned()
    }
    fn write_atomic(&mut self, name: &str, data: &[u8]) {
        self.files.insert(name.to_string(), data.to_vec());
    }
    fn append(&mut self, name: &str, data: &[u8]) {
        self.files.entry(name.to_string()).or_default().extend_from_slice(data);
    }
    fn remove(&mut self, name: &str) {
        self.files.remove(name);
    }
    fn wipe(&mut self) {
        self.files.clear();
    }
}

/// CRC-32 (IEEE 802.3 polynomial, bitwise — no table, no dependencies).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits `bytes` into valid frame payloads; returns the payloads and the
/// byte length of the valid prefix (everything past it is a torn tail).
fn scan_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= HEADER {
        let len = u32::from_be_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_be_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_FRAME || bytes.len() - pos - HEADER < len {
            break;
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        pos += HEADER + len;
    }
    (payloads, pos)
}

/// An open append-only log on one file of a [`DiskHandle`].
pub struct Wal {
    disk: DiskHandle,
    file: String,
    records: usize,
}

impl Wal {
    /// Opens (creating if absent) the log at `file`, recovering the longest
    /// valid prefix of records. A torn or corrupt tail — a partial header,
    /// a partial payload, an implausible length, a failed checksum — is
    /// truncated in place; everything before it is returned. Never panics
    /// on corrupt input.
    pub fn open(disk: DiskHandle, file: &str) -> (Wal, Vec<Vec<u8>>) {
        let bytes = disk.lock().read(file).unwrap_or_default();
        let (payloads, valid) = scan_frames(&bytes);
        if valid < bytes.len() {
            disk.lock().write_atomic(file, &bytes[..valid]);
        }
        let records = payloads.len();
        (
            Wal {
                disk,
                file: file.to_string(),
                records,
            },
            payloads,
        )
    }

    /// Appends one record (framed and checksummed).
    pub fn append(&mut self, payload: &[u8]) {
        self.disk.lock().append(&self.file, &frame(payload));
        self.records += 1;
    }

    /// Records currently in the log.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Discards every record (after their effects were captured in a
    /// snapshot).
    pub fn truncate(&mut self) {
        self.disk.lock().write_atomic(&self.file, &[]);
        self.records = 0;
    }
}

/// Atomically replaces the snapshot at `file` with one checksummed frame.
pub fn write_snapshot(disk: &DiskHandle, file: &str, payload: &[u8]) {
    disk.lock().write_atomic(file, &frame(payload));
}

/// Reads and verifies the snapshot at `file`; a missing, torn, or corrupt
/// snapshot is `None` (recovery then falls back to the WAL alone).
#[must_use]
pub fn read_snapshot(disk: &DiskHandle, file: &str) -> Option<Vec<u8>> {
    let bytes = disk.lock().read(file)?;
    let (mut payloads, valid) = scan_frames(&bytes);
    if valid != bytes.len() || payloads.len() != 1 {
        return None;
    }
    payloads.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forall;

    fn records_of(g: &mut crate::check::Gen) -> Vec<Vec<u8>> {
        let n = g.usize_in(1..6);
        (0..n).map(|_| g.bytes(40)).collect()
    }

    fn write_all(recs: &[Vec<u8>]) -> DiskHandle {
        let disk = mem_disk();
        let (mut wal, existing) = Wal::open(Arc::clone(&disk), "wal");
        assert!(existing.is_empty());
        for r in recs {
            wal.append(r);
        }
        disk
    }

    #[test]
    fn roundtrip_and_reopen() {
        let disk = write_all(&[b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()]);
        let (wal, recovered) = Wal::open(Arc::clone(&disk), "wal");
        assert_eq!(recovered, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()]);
        assert_eq!(wal.record_count(), 3);
    }

    #[test]
    fn truncate_empties_the_log() {
        let disk = write_all(&[b"one".to_vec()]);
        let (mut wal, _) = Wal::open(Arc::clone(&disk), "wal");
        wal.truncate();
        let (_, recovered) = Wal::open(disk, "wal");
        assert!(recovered.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_and_corruption() {
        let disk = mem_disk();
        write_snapshot(&disk, "snap", b"state");
        assert_eq!(read_snapshot(&disk, "snap"), Some(b"state".to_vec()));
        // Flip one payload bit: the snapshot must read as absent.
        let mut bytes = disk.lock().read("snap").unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        disk.lock().write_atomic("snap", &bytes);
        assert_eq!(read_snapshot(&disk, "snap"), None);
        assert_eq!(read_snapshot(&disk, "missing"), None);
    }

    #[test]
    fn implausible_length_is_a_torn_tail() {
        let disk = write_all(&[b"ok".to_vec()]);
        // Append a header claiming a huge payload.
        let mut junk = Vec::new();
        junk.extend_from_slice(&u32::MAX.to_be_bytes());
        junk.extend_from_slice(&0u32.to_be_bytes());
        disk.lock().append("wal", &junk);
        let (wal, recovered) = Wal::open(disk, "wal");
        assert_eq!(recovered, vec![b"ok".to_vec()]);
        assert_eq!(wal.record_count(), 1);
    }

    // Satellite: torn-write/partial-record fuzz. A write interrupted at any
    // byte, or flipped anywhere in the *last* record, must recover exactly
    // the longest valid prefix of fully written records — and never panic.
    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        forall!(cases = 300, |g| {
            let recs = records_of(g);
            let disk = write_all(&recs);
            let bytes = disk.lock().read("wal").unwrap();
            // Truncate at an arbitrary point (possibly mid-header or
            // mid-payload of any record).
            let cut = g.usize_in(0..bytes.len() + 1);
            disk.lock().write_atomic("wal", &bytes[..cut]);
            let (_, recovered) = Wal::open(Arc::clone(&disk), "wal");
            // The recovered list is the set of records whose full frame
            // fits inside the cut.
            let mut expect = Vec::new();
            let mut pos = 0usize;
            for r in &recs {
                pos += HEADER + r.len();
                if pos <= cut {
                    expect.push(r.clone());
                }
            }
            assert_eq!(recovered, expect, "cut at {cut} of {}", bytes.len());
            // Reopen after the in-place truncation: same answer, and
            // appending still works.
            let (mut wal, again) = Wal::open(Arc::clone(&disk), "wal");
            assert_eq!(again, expect);
            wal.append(b"after");
            let (_, with_tail) = Wal::open(disk, "wal");
            assert_eq!(with_tail.last().map(Vec::as_slice), Some(&b"after"[..]));
        });
    }

    #[test]
    fn bit_flip_in_last_record_drops_only_it() {
        forall!(cases = 300, |g| {
            let recs = records_of(g);
            let disk = write_all(&recs);
            let mut bytes = disk.lock().read("wal").unwrap();
            // Flip one bit somewhere inside the last record's frame.
            let last_len = recs.last().map_or(0, Vec::len) + HEADER;
            let start = bytes.len() - last_len;
            let at = start + g.usize_in(0..last_len);
            bytes[at] ^= 1 << g.usize_in(0..8);
            disk.lock().write_atomic("wal", &bytes);
            let (_, recovered) = Wal::open(disk, "wal");
            // The corrupt last record is dropped; all earlier records
            // survive intact. (A flip in the length field can only shrink
            // or overgrow the claimed payload — both stop the scan there.)
            assert!(recovered.len() < recs.len());
            assert_eq!(recovered[..], recs[..recovered.len()]);
        });
    }

    #[test]
    fn arbitrary_junk_never_panics() {
        forall!(cases = 200, |g| {
            let disk = mem_disk();
            let junk = g.bytes(200);
            disk.lock().write_atomic("wal", &junk);
            let (_, recovered) = Wal::open(Arc::clone(&disk), "wal");
            // Whatever survived decodes as valid frames by definition.
            for r in &recovered {
                assert!(r.len() <= junk.len());
            }
            disk.lock().write_atomic("snap", &g.bytes(60));
            let _ = read_snapshot(&disk, "snap");
        });
    }
}
