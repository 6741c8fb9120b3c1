//! The facade's side of the durability protocol: attaching a write-ahead
//! log to a database, logging each commit *before* its publish (with
//! bounded retries and read-only degradation on unsurvivable failures),
//! and replaying a log back into an instance.
//!
//! The ordering protocol lives here and in `epoch.rs` (stage 3 of the
//! commit pipeline); the on-disk format, checkpoints and torn-tail
//! recovery live in the `wal` crate. See the "Durability model" section of
//! the crate docs for the full argument.

use crate::error::{ErrorClass, TopoDbError};
use spatial_core::instance::SpatialInstance;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use wal::{BatchRecord, Vfs, Wal, WalConfig, WalError, WalOp};

/// A source of delay for retry backoff.
///
/// The default ([`SystemClock`]) really sleeps; tests inject a recording
/// clock so backoff policy is assertable without wall-clock time.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Block the calling thread for (about) `d`.
    fn sleep(&self, d: Duration);
}

/// The real clock: `std::thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Attempts per storage operation, the first included.
const MAX_ATTEMPTS: u32 = 4;

/// Backoff before the first retry; it doubles for every retry after that.
const BACKOFF: Duration = Duration::from_millis(1);

/// Everything configurable about a durable database's storage: the log
/// tunables, the storage backend, and the backoff clock. The retry budget
/// is fixed: 4 attempts per operation, 1 ms before the first retry,
/// doubling after that.
#[derive(Clone, Debug)]
pub struct StorageOptions {
    /// Write-ahead log tunables (sync policy, rotation, checkpoint
    /// cadence).
    pub wal: WalConfig,
    /// The storage backend. Default: the real filesystem.
    pub vfs: Arc<dyn Vfs>,
    /// The clock used for retry backoff. Default: really sleeps.
    pub clock: Arc<dyn Clock>,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            wal: WalConfig::default(),
            vfs: wal::RealFs::shared(),
            clock: Arc::new(SystemClock),
        }
    }
}

impl StorageOptions {
    /// This set of options on a different storage backend.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// This set of options with a different backoff clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }
}

/// Counters for the retry/degradation machinery, surfaced through
/// [`crate::Health`].
#[derive(Debug, Default)]
pub(crate) struct DurabilityCounters {
    pub(crate) transient_retries: AtomicU64,
    pub(crate) retries_exhausted: AtomicU64,
    pub(crate) degraded_rejections: AtomicU64,
    pub(crate) maintenance_errors: AtomicU64,
    pub(crate) degrade_events: AtomicU64,
}

/// A database's attachment to its write-ahead log.
///
/// Appends and checkpoints are ordered by the epoch chain's publish mutex,
/// not by a lock of their own: a commit appends under that mutex after
/// checking that the head is still its base, and only then publishes. So a
/// batch is logged exactly once, on the attempt that wins — a stale head is
/// detected *before* anything is appended, and the losing attempt rebuilds
/// and retries without having logged a byte.
pub(crate) struct Durability {
    wal: Wal,
    clock: Arc<dyn Clock>,
    /// Set exactly once, by whichever failure first proved storage
    /// unsurvivable; every later commit fails fast with this root cause.
    degraded: OnceLock<WalError>,
    pub(crate) counters: DurabilityCounters,
}

impl Durability {
    pub(crate) fn new(wal: Wal, clock: Arc<dyn Clock>) -> Durability {
        Durability {
            wal,
            clock,
            degraded: OnceLock::new(),
            counters: DurabilityCounters::default(),
        }
    }

    /// If the database has degraded to read-only, the root cause.
    pub(crate) fn degraded_cause(&self) -> Option<WalError> {
        self.degraded.get().cloned()
    }

    /// Record a commit rejected because the database was already degraded,
    /// and build the typed error for it.
    pub(crate) fn reject_degraded(&self, cause: WalError) -> TopoDbError {
        self.counters.degraded_rejections.fetch_add(1, Ordering::Relaxed);
        TopoDbError::Degraded(cause)
    }

    /// Transition to read-only degraded mode (idempotent: only the first
    /// cause is kept as the root cause) and return the typed error.
    fn degrade(&self, cause: WalError) -> TopoDbError {
        if self.degraded.set(cause).is_ok() {
            self.counters.degrade_events.fetch_add(1, Ordering::Relaxed);
        }
        TopoDbError::Degraded(self.degraded.get().expect("just set").clone())
    }

    /// Run `op`, retrying transient failures up to [`MAX_ATTEMPTS`] attempts
    /// in all (sleeping [`BACKOFF`], doubling per retry, on the injected
    /// clock). Any unsurvivable outcome — a fatal or corrupting error, or a
    /// transient one that exhausts the attempt budget — degrades the
    /// database and returns the typed [`TopoDbError::Degraded`]. Fails fast
    /// if already degraded.
    fn with_retry<T>(&self, mut op: impl FnMut() -> Result<T, WalError>) -> Result<T, TopoDbError> {
        if let Some(cause) = self.degraded_cause() {
            return Err(self.reject_degraded(cause));
        }
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => match ErrorClass::of(&e) {
                    ErrorClass::Transient if attempt + 1 < MAX_ATTEMPTS => {
                        self.counters.transient_retries.fetch_add(1, Ordering::Relaxed);
                        self.clock.sleep(BACKOFF * (1 << attempt));
                        attempt += 1;
                    }
                    class => {
                        if class == ErrorClass::Transient {
                            self.counters.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(self.degrade(e));
                    }
                },
            }
        }
    }

    /// Append one committed batch. Called under the epoch chain's publish
    /// mutex, so records arrive in exactly publish order.
    ///
    /// `Ok` means the record is durably framed in the log (to the
    /// configured sync policy) — the commit may be acknowledged. `Err` is
    /// always [`TopoDbError::Degraded`]: transient failures were retried
    /// within the fixed budget, and whatever remains has degraded the database to
    /// read-only. The commit must not publish.
    pub(crate) fn log_batch(
        &self,
        epoch: u64,
        ops: &[WalOp],
        changed: &[String],
        instance_after: &SpatialInstance,
    ) -> Result<(), TopoDbError> {
        let record = BatchRecord {
            epoch,
            ops: ops.to_vec(),
            changed: changed.to_vec(),
        };
        let outcome = self.with_retry(|| self.wal.append_batch(&record, instance_after))?;
        if let Some(m) = outcome.maintenance {
            // The record is durable, so the commit stands; but failed
            // housekeeping (checkpoint/rotation) means the log may refuse
            // the *next* append. Count it, and degrade proactively on
            // anything non-transient so later commits fail typed instead
            // of rediscovering the broken appender.
            self.counters.maintenance_errors.fetch_add(1, Ordering::Relaxed);
            if ErrorClass::of(&m) != ErrorClass::Transient {
                let _ = self.degrade(m);
            }
        }
        Ok(())
    }

    /// Force a checkpoint, with the same retry/degradation discipline as
    /// appends.
    pub(crate) fn checkpoint(&self, instance: &SpatialInstance) -> Result<(), TopoDbError> {
        self.with_retry(|| self.wal.checkpoint(instance))
    }

    /// The underlying log.
    pub(crate) fn wal(&self) -> &Wal {
        &self.wal
    }
}

/// Replay a recovered record sequence over the checkpoint instance using
/// the same `apply_ops` the live commit path uses, cross-checking each
/// record's logged changed set against the replayed one. Returns the
/// instance at the final replayed record (or the checkpoint itself if no
/// records are given).
pub(crate) fn replay(
    base: &SpatialInstance,
    records: &[BatchRecord],
) -> Result<SpatialInstance, TopoDbError> {
    let mut instance = base.clone();
    for record in records {
        let (next, changed) = crate::epoch::apply_ops(&instance, &record.ops);
        if changed != record.changed {
            return Err(TopoDbError::Durability(WalError::Corrupt {
                segment: format!("record for epoch {}", record.epoch),
                offset: 0,
                detail: format!(
                    "replay changed {:?} but the log recorded {:?}",
                    changed, record.changed
                ),
            }));
        }
        instance = next;
    }
    Ok(instance)
}
