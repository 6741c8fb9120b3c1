//! Write-ahead logging, checkpoints, and crash recovery for the
//! topological database.
//!
//! The facade (`topodb`) publishes every commit as an immutable epoch —
//! instance plus changed-name set — which is exactly the shape of a
//! replayable log record. This crate persists that sequence:
//!
//! * **Records** ([`record`]): one length-prefixed, CRC-32-checksummed
//!   record per committed batch, carrying the epoch number, the
//!   insert/remove ops with *exact* rational coordinates
//!   (numerator/denominator pairs via [`spatial_core::wire`]), and the
//!   changed-name set. Hand-rolled framing — the workspace builds offline,
//!   so there is no serde.
//! * **Segments** ([`segment`]): records append to
//!   `seg-{first_epoch:016x}.log` files that rotate at a size threshold;
//!   file-name order is epoch order.
//! * **Sync policy** ([`SyncPolicy`]): `PerCommit` fsync for full
//!   durability, or `None` for page-cache-only durability.
//! * **Checkpoints** ([`checkpoint`]): periodically the full
//!   [`spatial_core::instance::SpatialInstance`] is snapshotted
//!   (temp-file + atomic rename), the log rotates, and everything older is
//!   truncated away — bounding both replay time and disk usage.
//! * **Recovery** ([`recovery`]): reopening scans newest checkpoint + the
//!   segments after it. A *torn tail* — an incomplete final record, or a
//!   checksum-failing record with nothing after it — is silently dropped
//!   (that is the state an interrupted append legitimately leaves);
//!   any other anomaly, including a CRC mismatch mid-log, is a loud
//!   [`WalError::Corrupt`] naming the file and byte offset.
//! * **Storage backends** ([`vfs`]): every I/O site goes through the
//!   [`Vfs`] trait — [`RealFs`] (the OS filesystem) by default, or the
//!   deterministic in-memory [`SimFs`] whose seeded [`FaultPlan`] injects
//!   torn writes, failed fsyncs, `EINTR`, `ENOSPC`, and power loss at
//!   numbered I/O points ([`simfs`]).
//!
//! # Failure model
//!
//! Storage fails in qualitatively different ways, and the log reports
//! them so callers can react correctly:
//!
//! * **Transient** ([`WalError::is_transient`], `EINTR`-style
//!   [`Io`](WalError::Io) errors): the operation did not take effect and
//!   may be retried as-is. A *failed append* is always retry-safe even if
//!   bytes were torn onto the file: the appender records the damage and
//!   truncates back to the last record boundary before the next write, so
//!   a retried record can never land after garbage.
//! * **Fatal** (every other [`Io`](WalError::Io) error — `ENOSPC`,
//!   permission loss, device failure, and **any failed fsync**): the
//!   operation cannot succeed by repetition. Failed fsyncs are the sharp
//!   edge (the "fsync-gate" semantics of real kernels): the failed call
//!   may have *dropped* the dirty pages, so the durable tail is unknown
//!   and the appender [breaks](Wal::broken) — it refuses all further
//!   appends rather than build history on an unknowable base. Reopening
//!   the directory re-scans actual disk state and resumes from the last
//!   durable record.
//! * **Corrupting** ([`WalError::Corrupt`]): bytes on disk (or an
//!   attempted out-of-order append) that no crash of our own writer can
//!   produce. Never retried, never repaired silently.
//!
//! Failures *after* a record is durably appended (a periodic checkpoint
//! or segment rotation that fails) do not retract the append: they are
//! reported out-of-band in [`AppendOutcome::maintenance`], and the rare
//! case that would make future appends unrecoverable (a rotation failing
//! after its checkpoint renamed into place) breaks the appender instead
//! of losing records. Directory-fsync failures during checkpointing are
//! retried while transient, then downgraded to best-effort and counted in
//! [`WalStats::dir_sync_downgrades`] — they narrow one rename's
//! durability window, never consistency.
//!
//! The crate knows nothing about arrangements, invariants, or queries: it
//! stores and replays batches of named-region mutations. `topodb` owns the
//! protocol above it (log-before-publish ordering, replay through its own
//! rebuild path, retry/degradation policy, point-in-time reopen).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc;
pub mod error;
pub mod record;
pub mod recovery;
pub mod segment;
pub mod simfs;
pub mod testing;
pub mod vfs;
pub mod writer;

pub use error::WalError;
pub use record::{BatchRecord, WalOp};
pub use recovery::Recovery;
pub use simfs::{Fault, FaultPlan, SimFs};
pub use vfs::{RealFs, Vfs, VfsError, VfsErrorKind, VfsFile};
pub use writer::{AppendOutcome, SyncPolicy, Wal, WalConfig, WalStats};

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::instance::SpatialInstance;
    use spatial_core::region::Region;
    use std::path::Path;
    use std::sync::Arc;

    const DIR: &str = "/db";

    fn dir() -> &'static Path {
        Path::new(DIR)
    }

    fn sim() -> (SimFs, Arc<dyn Vfs>) {
        let sim = SimFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(sim.clone());
        (sim, shared)
    }

    fn create_on(vfs: &Arc<dyn Vfs>, cfg: WalConfig) -> Wal {
        Wal::create_with_vfs(Arc::clone(vfs), dir(), 0, &SpatialInstance::new(), cfg).unwrap()
    }

    fn open_on(vfs: &Arc<dyn Vfs>, cfg: WalConfig) -> (Wal, Recovery) {
        Wal::open_with_vfs(Arc::clone(vfs), dir(), cfg).unwrap()
    }

    fn region(i: u64) -> Region {
        Region::rect_from_ints(i as i64, 0, i as i64 + 2, 2)
    }

    fn batch(epoch: u64, name: &str, r: Region) -> BatchRecord {
        BatchRecord {
            epoch,
            ops: vec![WalOp::Insert(name.to_string(), r)],
            changed: vec![name.to_string()],
        }
    }

    /// Run `n` insert batches through a fresh wal, returning the final
    /// instance.
    fn commit_n(wal: &Wal, n: u64) -> SpatialInstance {
        let mut inst = SpatialInstance::new();
        for epoch in 1..=n {
            let name = format!("r{epoch}");
            inst.insert(name.clone(), region(epoch));
            let out = wal.append_batch(&batch(epoch, &name, region(epoch)), &inst).unwrap();
            assert!(out.maintenance.is_none(), "{:?}", out.maintenance);
        }
        inst
    }

    #[test]
    fn create_then_reopen_replays_everything() {
        let (_, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let inst = commit_n(&wal, 5);
        drop(wal);

        let (wal, recovery) = open_on(&vfs, WalConfig::default());
        assert_eq!(recovery.checkpoint_epoch, 0);
        assert_eq!(recovery.head_epoch(), 5);
        assert_eq!(recovery.records.len(), 5);
        assert!(!recovery.torn_tail);
        // Replaying the records over the checkpoint reproduces the final
        // instance exactly.
        let mut replayed = recovery.checkpoint_instance.clone();
        for rec in &recovery.records {
            for op in &rec.ops {
                match op {
                    WalOp::Insert(name, r) => {
                        replayed.insert(name.clone(), r.clone());
                    }
                    WalOp::Remove(name) => {
                        replayed.remove(name);
                    }
                }
            }
        }
        assert_eq!(replayed, inst);
        assert_eq!(wal.head_epoch(), 5);
    }

    #[test]
    fn real_fs_round_trip() {
        // The default backend is the OS filesystem; one end-to-end pass
        // keeps RealFs covered inside this crate (the topodb recovery
        // suites exercise it heavily on top).
        let dir = std::env::temp_dir().join(format!("wal-lib-realfs-{}", std::process::id()));
        let _ = RealFs.remove_dir_all(&dir);
        let wal = Wal::create_with_vfs(
            RealFs::shared(),
            &dir,
            0,
            &SpatialInstance::new(),
            WalConfig::default(),
        )
        .unwrap();
        commit_n(&wal, 3);
        drop(wal);
        let (_, recovery) = Wal::open_with_vfs(RealFs::shared(), &dir, WalConfig::default()).unwrap();
        assert_eq!(recovery.head_epoch(), 3);
        RealFs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_resume_after_reopen() {
        let (_, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let mut inst = commit_n(&wal, 3);
        drop(wal);

        let (wal, _) = open_on(&vfs, WalConfig::default());
        inst.insert("x", region(50));
        let out = wal.append_batch(&batch(4, "x", region(50)), &inst).unwrap();
        assert!(out.maintenance.is_none());
        drop(wal);

        let (_, recovery) = open_on(&vfs, WalConfig::default());
        assert_eq!(recovery.head_epoch(), 4);
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let (_, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let inst = commit_n(&wal, 2);
        let err = wal
            .append_batch(&BatchRecord { epoch: 2, ops: vec![], changed: vec![] }, &inst)
            .unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
        assert!(!err.is_transient());
    }

    #[test]
    fn create_refuses_existing_database() {
        let (_, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        drop(wal);
        let err = Wal::create_with_vfs(
            Arc::clone(&vfs),
            dir(),
            0,
            &SpatialInstance::new(),
            WalConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, WalError::AlreadyExists { .. }), "{err:?}");
    }

    #[test]
    fn open_of_nondatabase_is_refused() {
        let (sim, vfs) = sim();
        sim.create_dir_all(dir()).unwrap();
        let err = Wal::open_with_vfs(vfs, dir(), WalConfig::default()).unwrap_err();
        assert!(matches!(err, WalError::NotADatabase { .. }), "{err:?}");
    }

    #[test]
    fn segment_rotation_preserves_replay() {
        let (sim, vfs) = sim();
        // Tiny segments force a rotation roughly every record.
        let cfg = WalConfig::default().with_segment_max_bytes(96);
        let wal = create_on(&vfs, cfg);
        commit_n(&wal, 12);
        drop(wal);

        let segments = testing::segment_files(&sim, dir()).unwrap();
        assert!(segments.len() > 3, "expected several segments, found {segments:?}");
        let (_, recovery) = open_on(&vfs, cfg);
        assert_eq!(recovery.head_epoch(), 12);
        assert_eq!(recovery.records.len(), 12);
    }

    #[test]
    fn checkpoint_truncates_and_bounds_replay() {
        let (_, vfs) = sim();
        let cfg = WalConfig::default().with_checkpoint_every(4);
        let wal = create_on(&vfs, cfg);
        commit_n(&wal, 10);
        assert_eq!(wal.checkpoint_epoch(), 8, "periodic checkpoint at the 8th record");
        drop(wal);

        let (_, recovery) = open_on(&vfs, cfg);
        assert_eq!(recovery.checkpoint_epoch, 8);
        assert_eq!(recovery.records.len(), 2, "only post-checkpoint records replay");
        assert_eq!(recovery.head_epoch(), 10);
        // Epochs below the checkpoint are no longer recoverable.
        let err = recovery.records_up_to(3).unwrap_err();
        assert_eq!(err, WalError::UnknownEpoch { requested: 3, oldest: 8, newest: 10 });
        assert_eq!(recovery.records_up_to(9).unwrap().len(), 1);
    }

    #[test]
    fn explicit_checkpoint_and_sync() {
        let (_, vfs) = sim();
        let cfg = WalConfig::default().with_sync(SyncPolicy::None);
        let wal = create_on(&vfs, cfg);
        let inst = commit_n(&wal, 3);
        wal.sync().unwrap();
        wal.checkpoint(&inst).unwrap();
        assert_eq!(wal.checkpoint_epoch(), 3);
        drop(wal);

        let (_, recovery) = open_on(&vfs, cfg);
        assert_eq!(recovery.checkpoint_epoch, 3);
        assert_eq!(recovery.checkpoint_instance.len(), 3);
        assert!(recovery.records.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let mut inst = commit_n(&wal, 4);
        drop(wal);

        // Crash mid-append: chop the last record in half.
        let segments = testing::segment_files(&sim, dir()).unwrap();
        let seg = segments.last().unwrap();
        let bounds = testing::record_boundaries(&sim, seg).unwrap();
        let torn_at = (bounds[3] + bounds[4]) / 2;
        testing::truncate_at(&sim, seg, torn_at).unwrap();

        let (wal, recovery) = open_on(&vfs, WalConfig::default());
        assert!(recovery.torn_tail);
        assert_eq!(recovery.head_epoch(), 3, "the half-written epoch 4 is gone");
        // The torn bytes are physically gone and epoch 4 can be re-logged.
        assert_eq!(testing::file_len(&sim, seg).unwrap(), bounds[3]);
        inst.insert("again", region(9));
        let out = wal.append_batch(&batch(4, "again", region(9)), &inst).unwrap();
        assert!(out.maintenance.is_none());
        drop(wal);
        let (_, recovery) = open_on(&vfs, WalConfig::default());
        assert_eq!(recovery.head_epoch(), 4);
        assert!(!recovery.torn_tail);
    }

    #[test]
    fn mid_log_corruption_fails_with_offset() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        commit_n(&wal, 4);
        drop(wal);

        let segments = testing::segment_files(&sim, dir()).unwrap();
        let seg = segments.last().unwrap();
        let bounds = testing::record_boundaries(&sim, seg).unwrap();
        // Flip a byte inside the *second* record's payload: records follow
        // it, so this must be loud, and the error must point at the
        // record's own offset.
        let flip_at = bounds[1] + 12;
        testing::flip_byte(&sim, seg, flip_at).unwrap();
        let err = Wal::open_with_vfs(vfs, dir(), WalConfig::default()).unwrap_err();
        match err {
            WalError::Corrupt { offset, detail, .. } => {
                assert_eq!(offset, bounds[1], "error points at the corrupted record");
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn read_is_nondestructive() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        commit_n(&wal, 3);
        drop(wal);
        let segments = testing::segment_files(&sim, dir()).unwrap();
        let seg = segments.last().unwrap();
        let bounds = testing::record_boundaries(&sim, seg).unwrap();
        testing::truncate_at(&sim, seg, bounds[3] - 1).unwrap();

        let before = sim.read(seg).unwrap();
        let recovery = Wal::read_with_vfs(&*vfs, dir()).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.head_epoch(), 2);
        assert_eq!(sim.read(seg).unwrap(), before, "read-only scan must not truncate");
    }

    // ---- fault-injection behavior of the appender itself ----

    #[test]
    fn transient_append_fault_is_retryable_without_corruption() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let inst = commit_n(&wal, 2);

        // Tear the next append after 7 bytes; the error is transient.
        sim.set_plan(FaultPlan::none().fail_writes(1, Fault::Torn { keep: 7 }));
        let mut inst3 = inst.clone();
        inst3.insert("r3", region(3));
        let err = wal.append_batch(&batch(3, "r3", region(3)), &inst3).unwrap_err();
        assert!(err.is_transient(), "{err:?}");

        // The bare retry succeeds: the appender trims the torn bytes first.
        let out = wal.append_batch(&batch(3, "r3", region(3)), &inst3).unwrap();
        assert!(out.maintenance.is_none());
        drop(wal);
        let (_, recovery) = open_on(&vfs, WalConfig::default());
        assert_eq!(recovery.head_epoch(), 3);
        assert!(!recovery.torn_tail, "no torn garbage left behind the retried record");
    }

    #[test]
    fn failed_fsync_breaks_the_appender_and_loses_only_unsynced_bytes() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let inst = commit_n(&wal, 2);

        sim.set_plan(FaultPlan::none().fail_syncs(1, Fault::SyncFail));
        let mut inst3 = inst.clone();
        inst3.insert("r3", region(3));
        let err = wal.append_batch(&batch(3, "r3", region(3)), &inst3).unwrap_err();
        assert!(!err.is_transient(), "failed fsync must never be reported transient");
        assert_eq!(wal.broken(), Some(err.clone()));

        // The appender refuses further work with the same error.
        let err2 = wal.append_batch(&batch(3, "r3", region(3)), &inst3).unwrap_err();
        assert_eq!(err2, err);
        std::mem::forget(wal); // crash: Drop would try (and fail) to sync

        // Reopen sees exactly the synced prefix: epochs 1..=2.
        sim.power_cycle();
        let (_, recovery) = open_on(&vfs, WalConfig::default());
        assert_eq!(recovery.head_epoch(), 2, "the unacknowledged epoch 3 is honestly gone");
    }

    #[test]
    fn enospc_is_fatal_not_transient() {
        let (sim, vfs) = sim();
        let wal = create_on(&vfs, WalConfig::default());
        let inst = commit_n(&wal, 1);
        sim.set_plan(FaultPlan::none().fail_writes(1, Fault::NoSpace));
        let mut inst2 = inst.clone();
        inst2.insert("r2", region(2));
        let err = wal.append_batch(&batch(2, "r2", region(2)), &inst2).unwrap_err();
        assert!(matches!(err, WalError::Io { kind: VfsErrorKind::NoSpace, .. }), "{err:?}");
        assert!(!err.is_transient());
    }

    #[test]
    fn crash_fault_snapshots_only_synced_state() {
        let (sim, vfs) = sim();
        let cfg = WalConfig::default().with_sync(SyncPolicy::None);
        let wal = create_on(&vfs, cfg);
        let mut inst = commit_n(&wal, 2); // never synced under SyncPolicy::None
        wal.sync().unwrap(); // ... until now: epochs 1..=2 are durable
        inst.insert("r3", region(3));
        let out = wal.append_batch(&batch(3, "r3", region(3)), &inst).unwrap();
        assert!(out.maintenance.is_none());

        sim.set_plan(FaultPlan::none().at(sim.io_points(), Fault::Crash));
        let mut inst4 = inst.clone();
        inst4.insert("r4", region(4));
        let err = wal.append_batch(&batch(4, "r4", region(4)), &inst4).unwrap_err();
        assert!(!err.is_transient());
        assert!(sim.crashed());
        std::mem::forget(wal);

        sim.power_cycle();
        let (_, recovery) = open_on(&vfs, cfg);
        assert_eq!(recovery.head_epoch(), 2, "unsynced epoch 3 died with the machine");
    }

    #[test]
    fn fault_plans_are_deterministic_in_their_seed() {
        for seed in 0..32u64 {
            let a = format!("{:?}", FaultPlan::random(seed, 64));
            let b = format!("{:?}", FaultPlan::random(seed, 64));
            assert_eq!(a, b, "seed {seed}");
        }
        // ... and not all identical.
        let distinct: std::collections::BTreeSet<String> =
            (0..32u64).map(|s| format!("{:?}", FaultPlan::random(s, 64))).collect();
        assert!(distinct.len() > 8, "schedules should vary across seeds: {}", distinct.len());
    }
}
