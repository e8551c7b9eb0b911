//! The real-filesystem [`Disk`]: one directory per controller, fsync'd
//! appends, temp-file + rename atomic replaces.
//!
//! This file is the **one OS-filesystem boundary** of the stack, exactly
//! as `clock.rs` is the one wall-clock boundary: every other crate writes
//! durable state through `substrate::storage` over a pluggable [`Disk`],
//! and only here does that trait touch `std::fs`. Clippy refuses
//! `OpenOptions`, `sync_all` and `sync_data` everywhere else (the root
//! `clippy.toml`); the three functions below that need them `#[expect]` it.
//!
//! Durability contract (what `substrate::storage::Wal` relies on):
//!
//! * [`Disk::append`] is fsync'd before returning, so an acknowledged WAL
//!   record survives power loss — a torn tail from a crash *mid-append* is
//!   fine, `Wal::open` truncates it;
//! * [`Disk::write_atomic`] goes through `name.tmp` + `rename` + directory
//!   fsync, so a reader sees either the old bytes or the new bytes, never
//!   a prefix.
//!
//! I/O errors after open are deliberately swallowed: a failed write is
//! indistinguishable from a crash before the write, which is precisely the
//! failure the checksummed log format recovers from.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use substrate::storage::{disk_handle, Disk, DiskHandle};

/// A directory-backed store for one node's durable files.
pub struct FsDisk {
    dir: PathBuf,
}

impl FsDisk {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<FsDisk> {
        std::fs::create_dir_all(dir)?;
        Ok(FsDisk {
            dir: dir.to_path_buf(),
        })
    }

    /// Opens `dir` wrapped as a shareable [`DiskHandle`].
    pub fn handle(dir: &Path) -> std::io::Result<DiskHandle> {
        Ok(disk_handle(Box::new(FsDisk::open(dir)?)))
    }

    fn path(&self, name: &str) -> PathBuf {
        // File names come from the storage layer's fixed alphabet ("wal",
        // "snapshot"); refuse anything that could escape the directory.
        assert!(
            !name.is_empty() && !name.contains(['/', '\\']) && name != "." && name != "..",
            "invalid durable file name {name:?}"
        );
        self.dir.join(name)
    }

    /// Makes a rename / unlink durable by fsyncing the directory itself.
    #[expect(clippy::disallowed_methods, reason = "the one OS-filesystem boundary")]
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl Disk for FsDisk {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(name)).ok()
    }

    #[expect(clippy::disallowed_methods, reason = "the one OS-filesystem boundary")]
    fn write_atomic(&mut self, name: &str, data: &[u8]) {
        let target = self.path(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let ok = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &target)
        })();
        if ok.is_ok() {
            self.sync_dir();
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the one OS-filesystem boundary"
    )]
    fn append(&mut self, name: &str, data: &[u8]) {
        let _ = (|| -> std::io::Result<()> {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))?;
            f.write_all(data)?;
            f.sync_all()
        })();
    }

    fn remove(&mut self, name: &str) {
        let _ = std::fs::remove_file(self.path(name));
        self.sync_dir();
    }

    fn wipe(&mut self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let _ = std::fs::remove_file(e.path());
            }
        }
        self.sync_dir();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::storage::{read_snapshot, Wal};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cicero-fsdisk-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wal_and_snapshot_survive_reopen() {
        let dir = scratch("reopen");
        {
            let disk = FsDisk::handle(&dir).expect("open");
            let (mut wal, existing) = Wal::open(disk.clone(), "wal");
            assert!(existing.is_empty());
            wal.append(b"one");
            wal.append(b"two");
            substrate::storage::write_snapshot(&disk, "snapshot", b"state");
        }
        // A fresh handle on the same directory sees everything.
        let disk = FsDisk::handle(&dir).expect("reopen");
        let (_, recovered) = Wal::open(disk.clone(), "wal");
        assert_eq!(recovered, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(read_snapshot(&disk, "snapshot"), Some(b"state".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_disk_is_truncated_and_wipe_empties() {
        let dir = scratch("torn");
        let disk = FsDisk::handle(&dir).expect("open");
        let (mut wal, _) = Wal::open(disk.clone(), "wal");
        wal.append(b"keep");
        // Simulate a crash mid-append: raw garbage after the valid frame.
        disk.lock().append("wal", &[0xFF, 0x01, 0x02]);
        let (_, recovered) = Wal::open(disk.clone(), "wal");
        assert_eq!(recovered, vec![b"keep".to_vec()]);
        disk.lock().wipe();
        let (_, after_wipe) = Wal::open(disk, "wal");
        assert!(after_wipe.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "invalid durable file name")]
    fn path_escape_is_rejected() {
        let dir = scratch("escape");
        let disk = FsDisk::open(&dir).expect("open");
        disk.read("../etc/passwd");
    }
}
