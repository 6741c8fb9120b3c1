//! The appender: `Wal` owns a database directory, appends one framed
//! record per committed batch, rotates segments, and takes periodic
//! checkpoints.
//!
//! All mutation goes through one internal mutex, so a `&Wal` is freely
//! shared across threads. Callers who need append order to agree with
//! another order (the facade's log-before-publish protocol) serialize
//! *around* the WAL with their own lock; the WAL's mutex only protects its
//! file state.
//!
//! All I/O goes through a [`Vfs`] trait object (the OS filesystem is
//! [`RealFs`](crate::RealFs)), so
//! the same appender runs against the fault-injecting
//! [`SimFs`](crate::SimFs). The failure discipline (see the crate-level
//! "Failure model"):
//!
//! * a failed **append** leaves a possibly-torn tail past the last record
//!   boundary; the appender remembers it and truncates back to the
//!   boundary before the next append, so retrying a transiently-failed
//!   append is always safe;
//! * a failed **fsync** is fatal for this appender: the kernel may have
//!   dropped the dirty pages (fsync-gate), so the on-disk tail state is
//!   unknown and the appender refuses all further work rather than build
//!   on it — reopening the directory re-establishes a known-good tail;
//! * a failed **checkpoint or rotation** after a durable append is a
//!   *maintenance* failure: the record is safe, so the append is reported
//!   as successful with the maintenance error carried alongside
//!   ([`AppendOutcome::maintenance`]) for the caller's health accounting.

use crate::checkpoint::write_checkpoint;
use crate::error::WalError;
use crate::record::BatchRecord;
use crate::recovery::{remove_stale, scan_dir, Recovery};
use crate::segment::{encode_segment_header, segment_file_name, SEGMENT_HEADER_LEN};
use crate::vfs::{Vfs, VfsErrorKind, VfsFile};
use spatial_core::instance::SpatialInstance;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// When appended records are forced to stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// `fsync` on every append: a committed batch survives power loss.
    PerCommit,
    /// Never `fsync` (the OS flushes when it pleases). A process crash
    /// loses nothing — the page cache survives it — only a machine crash
    /// can drop the un-flushed tail.
    None,
}

/// Tunables for a log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalConfig {
    /// Durability of each append. Default: [`SyncPolicy::PerCommit`].
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes. Default: 4 MiB.
    pub segment_max_bytes: u64,
    /// Take a checkpoint (and truncate the log behind it) every this many
    /// appended records. Default: 1024.
    pub checkpoint_every_records: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync: SyncPolicy::PerCommit,
            segment_max_bytes: 4 << 20,
            checkpoint_every_records: 1024,
        }
    }
}

impl WalConfig {
    /// This config with a different sync policy.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// This config with a different checkpoint cadence.
    pub fn with_checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every_records = records.max(1);
        self
    }

    /// This config with a different segment rotation threshold.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
        self
    }
}

/// Counters for degraded-but-survivable storage events the log absorbed
/// rather than failed on.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Directory fsyncs that kept failing after transient retries and
    /// were downgraded to best-effort (narrowing the durability window of
    /// one checkpoint rename, never consistency).
    pub(crate) dir_sync_downgrades: AtomicU64,
}

impl WalStats {
    /// How many checkpoint directory fsyncs were downgraded to
    /// best-effort.
    pub fn dir_sync_downgrades(&self) -> u64 {
        self.dir_sync_downgrades.load(Ordering::Relaxed)
    }
}

/// The result of a successful append.
///
/// The record itself is durably framed in the log (to the configured
/// [`SyncPolicy`]); `maintenance` carries any *post-append* housekeeping
/// failure (checkpoint or rotation) that does not retract the append.
#[derive(Debug)]
#[must_use = "a maintenance failure must be fed into the caller's health accounting"]
pub struct AppendOutcome {
    /// A checkpoint/rotation failure that happened after the record was
    /// safely appended. `None` when housekeeping succeeded (or none was
    /// due). A fatal maintenance error means the *next* append will
    /// likely fail — callers should degrade proactively.
    pub maintenance: Option<WalError>,
}

#[derive(Debug)]
struct Appender {
    file: Box<dyn VfsFile>,
    seg_path: PathBuf,
    /// Length of the segment's valid prefix (a record boundary).
    seg_bytes: u64,
    /// A failed append may have left partial bytes past `seg_bytes`; when
    /// set, the file is truncated back to the boundary before the next
    /// write.
    dirty_tail: bool,
    /// Set when an fsync failed: the tail's durable state is unknown, so
    /// the appender refuses further work with this error.
    broken: Option<WalError>,
    head_epoch: u64,
    checkpoint_epoch: u64,
    records_since_checkpoint: u64,
    unsynced: bool,
}

/// A write-ahead log rooted at a database directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    vfs: Arc<dyn Vfs>,
    stats: WalStats,
    inner: Mutex<Appender>,
}

fn open_for_append(vfs: &dyn Vfs, path: &Path) -> Result<Box<dyn VfsFile>, WalError> {
    vfs.open_append(path)
        .map_err(|e| WalError::io(format!("open {} for append", path.display()), &e))
}

fn create_segment(
    vfs: &dyn Vfs,
    dir: &Path,
    first_epoch: u64,
) -> Result<(Box<dyn VfsFile>, PathBuf), WalError> {
    let path = dir.join(segment_file_name(first_epoch));
    let mut file = vfs
        .create(&path)
        .map_err(|e| WalError::io(format!("create segment {}", path.display()), &e))?;
    file.write_all(&encode_segment_header(first_epoch))
        .map_err(|e| WalError::io(format!("write header of {}", path.display()), &e))?;
    Ok((file, path))
}

impl Wal {
    /// Initialize a fresh database at `dir` holding `instance` as epoch
    /// `epoch`: a checkpoint of the instance plus an empty first segment.
    /// Fails with [`WalError::AlreadyExists`] if the directory already
    /// holds log files.
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        epoch: u64,
        instance: &SpatialInstance,
        cfg: WalConfig,
    ) -> Result<Wal, WalError> {
        vfs.create_dir_all(dir)
            .map_err(|e| WalError::io(format!("create dir {}", dir.display()), &e))?;
        if scan_dir(vfs.as_ref(), dir).is_ok() {
            return Err(WalError::AlreadyExists { path: dir.display().to_string() });
        }
        let stats = WalStats::default();
        write_checkpoint(vfs.as_ref(), dir, epoch, instance, &stats)?;
        let (mut file, seg_path) = create_segment(vfs.as_ref(), dir, epoch + 1)?;
        file.sync_all()
            .map_err(|e| WalError::io(format!("fsync {}", seg_path.display()), &e))?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            vfs,
            stats,
            inner: Mutex::new(Appender {
                file,
                seg_path,
                seg_bytes: SEGMENT_HEADER_LEN as u64,
                dirty_tail: false,
                broken: None,
                head_epoch: epoch,
                checkpoint_epoch: epoch,
                records_since_checkpoint: 0,
                unsynced: false,
            }),
        })
    }

    /// Open an existing database: recover the committed history, truncate
    /// any torn tail, and position the appender after the last durable
    /// record. Returns the log plus what was recovered.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        cfg: WalConfig,
    ) -> Result<(Wal, Recovery), WalError> {
        let recovery = scan_dir(vfs.as_ref(), dir)?;
        let head_epoch = recovery.head_epoch();

        let (file, seg_path, seg_bytes) = match &recovery.tail {
            Some(tail) if tail.valid_len >= SEGMENT_HEADER_LEN as u64 => {
                // Drop the torn tail so the next append starts at a record
                // boundary.
                vfs.truncate(&tail.path, tail.valid_len).map_err(|e| {
                    WalError::io(format!("truncate {}", tail.path.display()), &e)
                })?;
                let file = open_for_append(vfs.as_ref(), &tail.path)?;
                (file, tail.path.clone(), tail.valid_len)
            }
            Some(tail) => {
                // The final segment died before its header hit the disk;
                // rebuild it from scratch under the same name.
                let (file, path) = create_segment(vfs.as_ref(), dir, tail.first_epoch)?;
                (file, path, SEGMENT_HEADER_LEN as u64)
            }
            None => {
                // Crash between checkpoint rename and segment creation (or
                // the segment was lost): start the post-checkpoint segment.
                let (file, path) = create_segment(vfs.as_ref(), dir, head_epoch + 1)?;
                (file, path, SEGMENT_HEADER_LEN as u64)
            }
        };

        // A fresh open is a natural moment to sweep files an interrupted
        // checkpoint left behind.
        remove_stale(vfs.as_ref(), dir, recovery.checkpoint_epoch);

        let wal = Wal {
            dir: dir.to_path_buf(),
            cfg,
            vfs,
            stats: WalStats::default(),
            inner: Mutex::new(Appender {
                file,
                seg_path,
                seg_bytes,
                dirty_tail: false,
                broken: None,
                head_epoch,
                checkpoint_epoch: recovery.checkpoint_epoch,
                records_since_checkpoint: head_epoch - recovery.checkpoint_epoch,
                unsynced: false,
            }),
        };
        Ok((wal, recovery))
    }

    /// Read-only recovery: reconstruct the committed history without
    /// touching the files (no truncation, no appender). This is what
    /// point-in-time reopen uses — it must not disturb a live database.
    pub fn read_with_vfs(vfs: &dyn Vfs, dir: &Path) -> Result<Recovery, WalError> {
        scan_dir(vfs, dir)
    }

    /// Append one committed batch. `instance_after` is the full instance
    /// *after* the batch — used when this append triggers the periodic
    /// checkpoint, so the snapshot and truncation happen under the same
    /// lock acquisition as the append itself.
    ///
    /// The record's epoch must be exactly `head + 1`; the log refuses
    /// out-of-order appends rather than persisting a history recovery
    /// would reject.
    ///
    /// `Err` means the record is **not** acknowledged (transient append
    /// failures are safely retryable — the appender trims any torn bytes
    /// first). `Ok` means the record is in the log to the configured sync
    /// policy; see [`AppendOutcome::maintenance`] for post-append
    /// housekeeping failures.
    pub fn append_batch(
        &self,
        record: &BatchRecord,
        instance_after: &SpatialInstance,
    ) -> Result<AppendOutcome, WalError> {
        let mut app = self.lock();
        if let Some(broken) = &app.broken {
            return Err(broken.clone());
        }
        if app.dirty_tail {
            // A previous append failed partway; restore the record
            // boundary before writing anything else so the retried record
            // cannot land after torn garbage.
            let seg_bytes = app.seg_bytes;
            app.file
                .set_len(seg_bytes)
                .map_err(|e| WalError::io(format!("trim {}", app.seg_path.display()), &e))?;
            app.dirty_tail = false;
        }
        if record.epoch != app.head_epoch + 1 {
            return Err(WalError::Corrupt {
                segment: app.seg_path.display().to_string(),
                offset: app.seg_bytes,
                detail: format!(
                    "append of epoch {} but the log head is {}",
                    record.epoch, app.head_epoch
                ),
            });
        }
        let framed = record.encode_framed();
        app.dirty_tail = true;
        app.file
            .write_all(&framed)
            .map_err(|e| WalError::io(format!("append to {}", app.seg_path.display()), &e))?;
        app.dirty_tail = false;
        app.seg_bytes += framed.len() as u64;
        app.head_epoch = record.epoch;
        app.records_since_checkpoint += 1;
        app.unsynced = true;

        match self.cfg.sync {
            SyncPolicy::PerCommit => self.sync_locked(&mut app)?,
            SyncPolicy::None => {}
        }

        // From here on the record is appended (and synced per policy):
        // housekeeping failures no longer retract it.
        let maintenance = if app.records_since_checkpoint >= self.cfg.checkpoint_every_records {
            self.checkpoint_locked(&mut app, instance_after).err()
        } else if app.seg_bytes >= self.cfg.segment_max_bytes {
            self.rotate_locked(&mut app).err()
        } else {
            None
        };
        Ok(AppendOutcome { maintenance })
    }

    /// Force a checkpoint of `instance` (which must be the instance at the
    /// current head epoch), truncating the log behind it.
    pub fn checkpoint(&self, instance: &SpatialInstance) -> Result<(), WalError> {
        let mut app = self.lock();
        if let Some(broken) = &app.broken {
            return Err(broken.clone());
        }
        self.checkpoint_locked(&mut app, instance)
    }

    /// Flush any unsynced appends to stable storage, regardless of policy.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut app = self.lock();
        if let Some(broken) = &app.broken {
            return Err(broken.clone());
        }
        if app.unsynced {
            self.sync_locked(&mut app)?;
        }
        Ok(())
    }

    /// The newest logged epoch.
    pub fn head_epoch(&self) -> u64 {
        self.lock().head_epoch
    }

    /// The newest checkpoint's epoch (the oldest recoverable one).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.lock().checkpoint_epoch
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend this log runs on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Counters for storage events the log absorbed (see [`WalStats`]).
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// If an fsync failure has broken this appender, the error that broke
    /// it. A broken log refuses appends/syncs/checkpoints; reopening the
    /// directory is the only way back to a known-good tail.
    pub fn broken(&self) -> Option<WalError> {
        self.lock().broken.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Appender> {
        // The appender holds no invariant a panicking thread could break
        // mid-way that the next append would silently compound: a poisoned
        // append left, at worst, a torn tail — exactly what recovery
        // tolerates — so we continue rather than propagate the poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn sync_locked(&self, app: &mut Appender) -> Result<(), WalError> {
        if let Err(e) = app.file.sync_all() {
            // fsync-gate: a failed fsync may have *dropped* the dirty
            // pages, so the durable tail is unknown. Never retry the sync;
            // report the failure as non-transient and refuse further work
            // on this appender.
            let err = WalError::Io {
                context: format!("fsync {}", app.seg_path.display()),
                kind: VfsErrorKind::Other,
                message: format!(
                    "{} (a failed fsync may drop the unsynced tail; reopen to recover)",
                    e.message
                ),
            };
            app.broken = Some(err.clone());
            return Err(err);
        }
        app.unsynced = false;
        Ok(())
    }

    fn rotate_locked(&self, app: &mut Appender) -> Result<(), WalError> {
        // Records in the retiring segment must be durable before the log
        // moves on; rotation is rare, so this sync is cheap in aggregate.
        self.sync_locked(app)?;
        let (file, path) = create_segment(self.vfs.as_ref(), &self.dir, app.head_epoch + 1)?;
        app.file = file;
        app.seg_path = path;
        app.seg_bytes = SEGMENT_HEADER_LEN as u64;
        app.dirty_tail = false;
        Ok(())
    }

    fn checkpoint_locked(
        &self,
        app: &mut Appender,
        instance: &SpatialInstance,
    ) -> Result<(), WalError> {
        write_checkpoint(self.vfs.as_ref(), &self.dir, app.head_epoch, instance, &self.stats)?;
        app.checkpoint_epoch = app.head_epoch;
        app.records_since_checkpoint = 0;
        if let Err(e) = self.rotate_locked(app) {
            // The new checkpoint makes the current segment invisible to
            // recovery (its first epoch now predates the checkpoint), so
            // appending more records into it would silently lose them.
            // Break the appender instead; reopen recovers cleanly.
            app.broken.get_or_insert_with(|| e.clone());
            return Err(e);
        }
        remove_stale(self.vfs.as_ref(), &self.dir, app.checkpoint_epoch);
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort flush of an un-synced tail on clean shutdown; a
        // failure here is indistinguishable from a crash, which recovery
        // already handles.
        let _ = self.sync();
    }
}
