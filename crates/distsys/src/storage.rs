//! Durable storage behind the [`Environment`](crate::Environment): a small
//! byte-blob [`Store`] abstraction the write-ahead log and snapshots are
//! written through.
//!
//! The paper assumes each server's *machine description* survives on stable
//! storage (Section 2); this module extends that assumption to the durable
//! runtime state a crash-recovery deployment needs — the event log and the
//! periodic state snapshots.  Two production implementations exist:
//! [`MemStore`] (a deterministic in-memory map, used by the simulator and by
//! [`OsEnvironment`](crate::OsEnvironment) by default) and [`DirStore`]
//! (real files in a directory).  The simulator injects torn-tail writes by
//! editing the stored bytes at kill time, so the same code path exercises
//! partial-write recovery without a real power failure.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::{DistsysError, Result};

/// A named-blob store: the minimal durable interface the WAL and snapshot
/// layers need.
///
/// Names are flat identifiers (no path separators); every method is
/// synchronous and, on return, the write is considered durable — the
/// "fsync boundary" of the model.  `append` extends a blob (creating it if
/// absent), `write_atomic` replaces a blob all-or-nothing (the atomicity
/// snapshots rely on), and `read` returns the full current contents.
pub trait Store: Send {
    /// Appends `bytes` to the blob `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()>;

    /// The full contents of blob `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Replaces blob `name` with `bytes`, atomically: a reader never
    /// observes a partially written blob.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Removes blob `name` if it exists.
    fn remove(&mut self, name: &str) -> Result<()>;
}

/// The shared handle durable servers hold: thread-safe (the threaded runner
/// moves it into server threads) and cheap to clone.
pub type SharedStore = Arc<Mutex<dyn Store>>;

/// Wraps a concrete store into a [`SharedStore`] handle.
pub fn shared<S: Store + 'static>(store: S) -> SharedStore {
    Arc::new(Mutex::new(store))
}

/// Runs `f` under the store lock, mapping a poisoned lock to a storage
/// error instead of panicking the recovery path.
pub(crate) fn with_store<T>(
    store: &SharedStore,
    f: impl FnOnce(&mut dyn Store) -> Result<T>,
) -> Result<T> {
    let mut guard = store.lock().map_err(|_| DistsysError::Storage {
        message: "store lock poisoned".into(),
    })?;
    f(&mut *guard)
}

/// An in-memory store: a name → bytes map.
///
/// Fully deterministic (no I/O, no clock), which is what the simulator
/// needs, and a sensible default for [`OsEnvironment`](crate::OsEnvironment)
/// runs that only exercise the recovery *protocol* rather than real disks.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    blobs: HashMap<String, Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of blobs currently stored.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

impl Store for MemStore {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        // Look up before inserting: an append to an existing blob (every
        // WAL append after the first) allocates no key.
        match self.blobs.get_mut(name) {
            Some(blob) => blob.extend_from_slice(bytes),
            None => {
                self.blobs.insert(name.to_string(), bytes.to_vec());
            }
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.blobs.get(name).cloned())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.blobs.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<()> {
        self.blobs.remove(name);
        Ok(())
    }
}

/// A store backed by real files in one directory.
///
/// `append` opens the file in append mode; `write_atomic` writes a
/// temporary file and renames it over the target (the usual POSIX
/// atomic-replace idiom).  Blob names must be flat — no path separators.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// A store rooted at `dir`, creating the directory if needed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", &e))?;
        Ok(DirStore { dir })
    }

    fn path(&self, name: &str) -> Result<PathBuf> {
        if name.is_empty() || name.contains(['/', '\\']) {
            return Err(DistsysError::Storage {
                message: format!("invalid blob name {name:?}: names must be flat"),
            });
        }
        Ok(self.dir.join(name))
    }
}

fn io_err(op: &str, e: &std::io::Error) -> DistsysError {
    DistsysError::Storage {
        message: format!("{op}: {e}"),
    }
}

impl Store for DirStore {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open for append", &e))?;
        file.write_all(bytes).map_err(|e| io_err("append", &e))?;
        file.sync_all().map_err(|e| io_err("sync", &e))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)?) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &e)),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let tmp = self.dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, bytes).map_err(|e| io_err("write tmp", &e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename", &e))
    }

    fn remove(&mut self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn Store) {
        assert_eq!(store.read("a").unwrap(), None);
        store.append("a", b"he").unwrap();
        store.append("a", b"llo").unwrap();
        assert_eq!(store.read("a").unwrap().as_deref(), Some(&b"hello"[..]));
        store.write_atomic("a", b"bye").unwrap();
        assert_eq!(store.read("a").unwrap().as_deref(), Some(&b"bye"[..]));
        store.remove("a").unwrap();
        assert_eq!(store.read("a").unwrap(), None);
        // Removing a missing blob is fine.
        store.remove("a").unwrap();
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemStore::new();
        assert!(s.is_empty());
        exercise(&mut s);
        assert_eq!(s.len(), 0);
    }

    /// A scratch directory inside the workspace `target/` tree, so tests
    /// never write outside the repository.
    fn scratch(name: &str) -> PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/store-tests")
            .join(name)
    }

    #[test]
    fn dir_store_roundtrip() {
        let mut s = DirStore::open(scratch("dir_store_roundtrip")).unwrap();
        exercise(&mut s);
    }

    #[test]
    fn dir_store_rejects_pathy_names() {
        let mut s = DirStore::open(scratch("dir_store_names")).unwrap();
        assert!(s.append("../escape", b"x").is_err());
        assert!(s.read("a/b").is_err());
        assert!(s.write_atomic("", b"x").is_err());
    }

    #[test]
    fn shared_store_is_send_and_clones() {
        let store = shared(MemStore::new());
        let clone = Arc::clone(&store);
        with_store(&store, |s| s.append("x", b"1")).unwrap();
        let read = with_store(&clone, |s| s.read("x")).unwrap();
        assert_eq!(read.as_deref(), Some(&b"1"[..]));
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&store);
    }
}
