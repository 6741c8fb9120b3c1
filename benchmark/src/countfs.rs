//! A counting decorator over the public [`wal::Vfs`] trait: writes, bytes
//! and flushes are counted at the device boundary, without touching `wal`.
//! Installed through `StorageOptions::with_vfs`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wal::{Vfs, VfsError, VfsFile};

#[derive(Debug, Default)]
struct Counters {
    writes: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    checkpoints: AtomicU64,
}

/// A point-in-time copy of the counters; difference two to measure a phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Write calls that reached the backend.
    pub writes: u64,
    /// Bytes handed to those calls.
    pub bytes: u64,
    /// File, directory and truncate flushes.
    pub syncs: u64,
    /// Checkpoint files published (renamed into place).
    pub checkpoints: u64,
}

impl IoCounts {
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            syncs: self.syncs - earlier.syncs,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

#[derive(Debug)]
pub struct CountingFs {
    inner: Arc<dyn Vfs>,
    counters: Arc<Counters>,
}

impl CountingFs {
    pub fn new(inner: Arc<dyn Vfs>) -> Arc<CountingFs> {
        Arc::new(CountingFs {
            inner,
            counters: Arc::default(),
        })
    }

    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        IoCounts {
            writes: c.writes.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
        })
    }
}

impl Counters {
    fn wrote(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn synced(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        self.counters.wrote(buf.len());
        self.inner.write_all(buf)
    }

    fn sync_all(&mut self) -> Result<(), VfsError> {
        self.counters.synced();
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> Result<(), VfsError> {
        self.inner.set_len(len)
    }
}

impl Vfs for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        self.inner.list_dir(dir)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.counters.wrote(bytes.len());
        self.inner.write(path, bytes)
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        self.inner.create(path).map(|f| self.wrap(f))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        self.inner.open_append(path).map(|f| self.wrap(f))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<(), VfsError> {
        self.counters.synced();
        self.inner.truncate(path, len)
    }

    fn len(&self, path: &Path) -> Result<u64, VfsError> {
        self.inner.len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        let is_checkpoint = to
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| wal::checkpoint::parse_checkpoint_name(n).is_some());
        if is_checkpoint {
            self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> Result<(), VfsError> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        self.inner.remove_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), VfsError> {
        self.counters.synced();
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::instance::SpatialInstance;
    use spatial_core::region::Region;
    use wal::{BatchRecord, SimFs, SyncPolicy, Wal, WalConfig, WalOp};

    #[test]
    fn counts_what_the_log_sends_to_the_device() {
        let fs = CountingFs::new(Arc::new(SimFs::new()));
        let dir = Path::new("/db");
        let mut inst = SpatialInstance::new();
        let cfg = WalConfig::default().with_sync(SyncPolicy::PerCommit);
        let log = Wal::create_with_vfs(fs.clone(), dir, 0, &inst, cfg).unwrap();
        let created = fs.counts();
        assert_eq!(
            created.checkpoints, 1,
            "creation publishes the epoch-0 checkpoint"
        );

        let region = Region::rect_from_ints(0, 0, 2, 2);
        inst.insert("a", region.clone());
        let record = BatchRecord {
            epoch: 1,
            ops: vec![WalOp::Insert("a".into(), region)],
            changed: vec!["a".into()],
        };
        let framed = record.encode_framed().len() as u64;
        assert!(log
            .append_batch(&record, &inst)
            .unwrap()
            .maintenance
            .is_none());
        let append = fs.counts().since(&created);
        assert_eq!(
            append.bytes, framed,
            "one append writes exactly the framed record"
        );
        assert!(append.writes >= 1);
        assert_eq!(append.syncs, 1, "PerCommit flushes once per append");
        assert_eq!(append.checkpoints, 0);
    }
}
