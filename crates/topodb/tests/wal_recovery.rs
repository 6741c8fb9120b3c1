//! Crash-recovery differential suite: the durable database, crashed at
//! arbitrary byte offsets of its log and reopened, must be byte-identical
//! to an in-memory oracle that committed the same prefix of the workload.
//!
//! "Crash" here is file mutilation: the log directory is copied, the final
//! segment truncated (or a byte flipped) with the `wal::testing` helpers,
//! and the copy reopened. fsync policy is irrelevant to these tests — all
//! writes are in the page cache of this very process — so the suite runs
//! with `SyncPolicy::None` and exercises the *protocol*: log-before-publish
//! ordering, torn-tail truncation, replay equivalence, loud corruption.

use datagen::{op_trace, TraceOp};
use spatial_core::instance::SpatialInstance;
use spatial_core::wire::Wire;
use std::fs;
use std::path::{Path, PathBuf};
use topodb::query::PreparedQuery;
use topodb::{QueryOutput, StorageOptions, SyncPolicy, TopoDatabase, TopoDbError, WalConfig};
use wal::testing::{flip_byte, record_boundaries, segment_files, truncate_at};
use wal::RealFs;
use wal::WalError;

/// A temp directory deleted on drop (even when the test panics).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("topodb-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh empty subdirectory path (not yet created).
    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Copy every regular file of `src` into a fresh `dst` — the "disk image"
/// a crash test mutilates, leaving the pristine log untouched.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("create copy dir");
    for entry in fs::read_dir(src).expect("read log dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy log file");
        }
    }
}

/// Reopen with the default storage options.
fn open(dir: &Path) -> Result<TopoDatabase, TopoDbError> {
    TopoDatabase::open_with_storage(dir, StorageOptions::default())
}

/// `expect_err` without a `Debug` bound on `TopoDatabase`.
fn open_err(dir: &Path, what: &str) -> TopoDbError {
    match open(dir) {
        Ok(_) => panic!("open unexpectedly succeeded: {what}"),
        Err(e) => e,
    }
}

fn open_at_err(dir: &Path, epoch: u64, what: &str) -> TopoDbError {
    match TopoDatabase::open_at(dir, epoch) {
        Ok(_) => panic!("open_at({epoch}) unexpectedly succeeded: {what}"),
        Err(e) => e,
    }
}

fn apply_batch(db: &mut TopoDatabase, batch: &[TraceOp]) {
    let mut tx = db.begin();
    for op in batch {
        match op {
            TraceOp::Insert(name, region) => {
                tx.insert(name.clone(), region.clone());
            }
            TraceOp::Remove(name) => {
                tx.remove(name.clone());
            }
        }
    }
    tx.commit();
}

/// Everything the differential compares at one epoch: the exact instance
/// bytes (names, boundary polygons, rational coordinates), the derived
/// topology the facade serves relations from, and the row set of an open
/// query over the whole instance.
#[derive(PartialEq, Eq, Debug, Clone)]
struct Fingerprint {
    instance_wire: Vec<u8>,
    relations: Vec<(String, String, relations::Relation4)>,
    query_rows: QueryOutput,
}

fn fingerprint(db: &TopoDatabase) -> Fingerprint {
    // A fully open two-variable query: its satisfying rows enumerate every
    // overlapping pair, so any divergence in the recovered arrangement
    // shows up as a changed row set.
    static OVERLAPS: std::sync::OnceLock<PreparedQuery> = std::sync::OnceLock::new();
    let overlaps = OVERLAPS.get_or_init(|| {
        PreparedQuery::compile("overlap(ext(x), ext(y))")
            .expect("the open overlap query compiles")
    });
    Fingerprint {
        instance_wire: db.instance().to_wire_vec(),
        relations: db.snapshot().relation_matrix().expect("every pair classifies"),
        query_rows: db.snapshot().evaluate(overlaps).expect("the open query evaluates"),
    }
}

/// Replay the trace in a plain in-memory database, capturing the oracle
/// fingerprint after every batch. `oracle[e]` is the state at epoch `e`
/// (epoch 0 is the empty database the durable side was created with).
fn oracle_states(trace: &[Vec<TraceOp>]) -> Vec<Fingerprint> {
    let mut db = TopoDatabase::new();
    let mut states = vec![fingerprint(&db)];
    for batch in trace {
        apply_batch(&mut db, batch);
        states.push(fingerprint(&db));
    }
    states
}

fn no_sync() -> WalConfig {
    WalConfig::default().with_sync(SyncPolicy::None)
}

/// Create a durable database in `dir`, commit the whole trace, and
/// "crash": leak the database so no drop-time flush or cleanup tidies up
/// what a real power cut would have left behind.
fn commit_and_crash(dir: &Path, trace: &[Vec<TraceOp>], cfg: WalConfig) {
    let options = StorageOptions { wal: cfg, ..Default::default() };
    let mut db =
        TopoDatabase::create_with_storage(dir, SpatialInstance::new(), options).expect("create");
    for batch in trace {
        apply_batch(&mut db, batch);
    }
    std::mem::forget(db);
}

#[test]
fn reopen_after_crash_matches_the_in_memory_oracle() {
    let scratch = Scratch::new("reopen");
    let trace = op_trace(14, 0xD1F);
    let oracle = oracle_states(&trace);
    commit_and_crash(scratch.path(), &trace, no_sync());

    let mut reopened = open(scratch.path()).expect("reopen after crash");
    assert_eq!(reopened.update_epoch(), trace.len() as u64);
    assert!(reopened.health().durable);
    assert_eq!(fingerprint(&reopened), oracle[trace.len()], "byte-identical to the oracle");

    // The reopened database resumes the epoch numbering and stays in
    // lockstep with an oracle that commits the same continuation.
    let mut oracle_db = TopoDatabase::from_instance(SpatialInstance::new());
    let continuation = op_trace(18, 0xD1F);
    for batch in &continuation[..trace.len()] {
        apply_batch(&mut oracle_db, batch);
    }
    for batch in &continuation[trace.len()..] {
        apply_batch(&mut reopened, batch);
        apply_batch(&mut oracle_db, batch);
    }
    assert_eq!(reopened.update_epoch(), continuation.len() as u64);
    assert_eq!(fingerprint(&reopened), fingerprint(&oracle_db));

    // ... and the continuation itself is durable: crash again, reopen.
    std::mem::forget(reopened);
    let reopened = open(scratch.path()).expect("reopen after second crash");
    assert_eq!(reopened.update_epoch(), continuation.len() as u64);
    assert_eq!(fingerprint(&reopened), fingerprint(&oracle_db));
}

#[test]
fn crash_at_each_record_boundary_recovers_that_exact_epoch() {
    let scratch = Scratch::new("boundary");
    let trace = op_trace(10, 0xB0B);
    let oracle = oracle_states(&trace);
    let pristine = scratch.sub("pristine");
    commit_and_crash(&pristine, &trace, no_sync());

    let segments = segment_files(&RealFs, &pristine).expect("list segments");
    assert_eq!(segments.len(), 1, "small trace stays in one segment");
    let seg_name = segments[0].file_name().unwrap().to_owned();
    let bounds = record_boundaries(&RealFs, &segments[0]).expect("frame boundaries");
    assert_eq!(bounds.len(), trace.len() + 1, "header end + one boundary per record");

    for (epoch, &cut) in bounds.iter().enumerate() {
        let image = scratch.sub("image");
        copy_dir(&pristine, &image);
        truncate_at(&RealFs, &image.join(&seg_name), cut).expect("truncate image");

        let db = open(&image).expect("boundary cut is a clean state");
        assert_eq!(db.update_epoch(), epoch as u64, "cut at {cut}");
        assert_eq!(fingerprint(&db), oracle[epoch], "cut at boundary {cut}");
    }
}

#[test]
fn crash_at_every_byte_inside_the_final_record_truncates_the_torn_tail() {
    let scratch = Scratch::new("torn");
    let trace = op_trace(6, 0x70A);
    let oracle = oracle_states(&trace);
    let pristine = scratch.sub("pristine");
    commit_and_crash(&pristine, &trace, no_sync());

    let segments = segment_files(&RealFs, &pristine).expect("list segments");
    let seg_name = segments[0].file_name().unwrap().to_owned();
    let bounds = record_boundaries(&RealFs, &segments[0]).expect("frame boundaries");
    let last_start = bounds[bounds.len() - 2];
    let last_end = *bounds.last().unwrap();
    assert!(last_end > last_start + 8, "final record is non-trivial");

    // Every strictly-interior cut is a torn append of the final record:
    // recovery must truncate it away and land on the previous epoch.
    let torn_epoch = trace.len() - 1;
    for cut in last_start..last_end {
        let image = scratch.sub("image");
        copy_dir(&pristine, &image);
        truncate_at(&RealFs, &image.join(&seg_name), cut).expect("truncate image");

        let db = open(&image)
            .unwrap_or_else(|e| panic!("torn cut at byte {cut} must recover, got {e}"));
        assert_eq!(db.update_epoch(), torn_epoch as u64, "cut at byte {cut}");
        assert_eq!(fingerprint(&db), oracle[torn_epoch], "cut at byte {cut}");

        // Reopening truncated the torn bytes: the tail is writable again,
        // and committing the lost batch re-lands the final epoch.
        let mut db = db;
        apply_batch(&mut db, &trace[torn_epoch]);
        drop(db);
        let db = open(&image).expect("reopen after re-commit");
        assert_eq!(fingerprint(&db), oracle[trace.len()], "re-committed tail at cut {cut}");
    }
}

#[test]
fn corrupt_record_mid_log_fails_loudly_with_the_offending_offset() {
    let scratch = Scratch::new("corrupt");
    let trace = op_trace(8, 0xBAD);
    let pristine = scratch.sub("pristine");
    commit_and_crash(&pristine, &trace, no_sync());

    let segments = segment_files(&RealFs, &pristine).expect("list segments");
    let seg_name = segments[0].file_name().unwrap().to_owned();
    let bounds = record_boundaries(&RealFs, &segments[0]).expect("frame boundaries");

    // Flip a payload byte of the third record — mid-log, so this is bit
    // rot, not a torn tail, and recovery must refuse the whole log.
    let image = scratch.sub("image");
    copy_dir(&pristine, &image);
    flip_byte(&RealFs, &image.join(&seg_name), bounds[2] + 9).expect("flip byte");

    let err = open_err(&image, "mid-log corruption must not recover");
    let TopoDbError::Durability(WalError::Corrupt { segment, offset, .. }) = &err else {
        panic!("expected a Corrupt durability error, got {err:?}");
    };
    assert_eq!(segment.as_str(), seg_name.to_str().unwrap(), "error names the segment");
    assert_eq!(*offset, bounds[2], "error points at the corrupted record's start");

    // A truncated *interior* record (bytes missing mid-log) is equally
    // loud: the epochs after the cut are present but unreachable.
    let image = scratch.sub("image");
    copy_dir(&pristine, &image);
    let seg = image.join(&seg_name);
    let mut bytes = fs::read(&seg).unwrap();
    let (a, b) = (bounds[3] as usize, bounds[4] as usize);
    bytes.drain(a..b);
    fs::write(&seg, bytes).unwrap();
    let err = open_err(&image, "a missing interior record must not recover");
    assert!(
        matches!(err, TopoDbError::Durability(WalError::Corrupt { .. })),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn open_at_replays_every_logged_epoch_and_is_detached() {
    let scratch = Scratch::new("openat");
    let trace = op_trace(9, 0x0A7);
    let oracle = oracle_states(&trace);
    commit_and_crash(scratch.path(), &trace, no_sync());

    for (epoch, expected) in oracle.iter().enumerate() {
        let db = TopoDatabase::open_at(scratch.path(), epoch as u64)
            .unwrap_or_else(|e| panic!("open_at({epoch}) failed: {e}"));
        assert_eq!(db.update_epoch(), epoch as u64);
        assert!(!db.health().durable, "point-in-time views are detached");
        assert_eq!(&fingerprint(&db), expected, "open_at({epoch})");
    }

    // Past the head: the error reports the covered range.
    let requested = trace.len() as u64 + 1;
    let err = open_at_err(scratch.path(), requested, "past the head");
    assert_eq!(
        err,
        TopoDbError::Durability(WalError::UnknownEpoch {
            requested,
            oldest: 0,
            newest: trace.len() as u64,
        })
    );

    // Detached means detached: committing to a view leaves the log alone.
    let mut view = TopoDatabase::open_at(scratch.path(), 3).expect("open_at(3)");
    apply_batch(&mut view, &op_trace(1, 99)[0]);
    assert_eq!(view.update_epoch(), 4, "views commit in memory");
    let db = open(scratch.path()).expect("reopen");
    assert_eq!(db.update_epoch(), trace.len() as u64, "the log never saw the view's commit");
    assert_eq!(fingerprint(&db), oracle[trace.len()]);
}

#[test]
fn checkpoint_truncates_history_but_preserves_the_differential() {
    let scratch = Scratch::new("ckpt");
    let trace = op_trace(12, 0xC4F);
    let oracle = oracle_states(&trace);
    let ckpt_epoch = 7usize;

    let options = StorageOptions { wal: no_sync(), ..Default::default() };
    let mut db = TopoDatabase::create_with_storage(scratch.path(), SpatialInstance::new(), options)
        .expect("create");
    for batch in &trace[..ckpt_epoch] {
        apply_batch(&mut db, batch);
    }
    db.checkpoint().expect("manual checkpoint");
    for batch in &trace[ckpt_epoch..] {
        apply_batch(&mut db, batch);
    }
    std::mem::forget(db);

    // Recovery replays checkpoint + tail to the same state as the oracle's
    // full history.
    let db = open(scratch.path()).expect("reopen after checkpoint");
    assert_eq!(db.update_epoch(), trace.len() as u64);
    assert_eq!(fingerprint(&db), oracle[trace.len()]);
    drop(db);

    // History before the checkpoint was truncated away; from it on, every
    // epoch is still reachable and differential-exact.
    for (epoch, expected) in oracle.iter().enumerate().skip(ckpt_epoch) {
        let db = TopoDatabase::open_at(scratch.path(), epoch as u64)
            .unwrap_or_else(|e| panic!("open_at({epoch}) after checkpoint: {e}"));
        assert_eq!(&fingerprint(&db), expected, "open_at({epoch}) after checkpoint");
    }
    let err = open_at_err(scratch.path(), ckpt_epoch as u64 - 1, "pre-checkpoint history is gone");
    assert_eq!(
        err,
        TopoDbError::Durability(WalError::UnknownEpoch {
            requested: ckpt_epoch as u64 - 1,
            oldest: ckpt_epoch as u64,
            newest: trace.len() as u64,
        })
    );
}

#[test]
fn automatic_checkpoints_and_rotation_survive_crashes_too() {
    let scratch = Scratch::new("auto");
    let trace = op_trace(20, 0xA07);
    let oracle = oracle_states(&trace);
    // Tiny thresholds: rotate segments eagerly and checkpoint every 6
    // records, so the crash lands on a multi-segment, checkpointed log.
    let cfg = no_sync().with_segment_max_bytes(512).with_checkpoint_every(6);
    commit_and_crash(scratch.path(), &trace, cfg);

    let db = open(scratch.path()).expect("reopen");
    assert_eq!(db.update_epoch(), trace.len() as u64);
    assert_eq!(fingerprint(&db), oracle[trace.len()]);
    drop(db);

    // The newest automatic checkpoint bounds the reachable history.
    let newest_ckpt = (trace.len() / 6) * 6;
    let err =
        open_at_err(scratch.path(), newest_ckpt as u64 - 1, "pre-checkpoint history is truncated");
    assert!(
        matches!(err, TopoDbError::Durability(WalError::UnknownEpoch { .. })),
        "expected UnknownEpoch, got {err:?}"
    );
    for (epoch, expected) in oracle.iter().enumerate().skip(newest_ckpt) {
        let db = TopoDatabase::open_at(scratch.path(), epoch as u64)
            .unwrap_or_else(|e| panic!("open_at({epoch}): {e}"));
        assert_eq!(&fingerprint(&db), expected, "open_at({epoch})");
    }
}
