//! Degraded-mode and retry edge cases, driven through the fault-injecting
//! [`wal::SimFs`] backend: transient faults are absorbed by the fixed
//! retry budget (4 attempts, 1 ms backoff doubling per retry),
//! unsurvivable faults flip the database to read-only **exactly once**,
//! commits then fail fast with the original root cause, and reads keep
//! serving throughout.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_core::instance::SpatialInstance;
use spatial_core::region::Region;
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;
use topodb::{Clock, StorageOptions, TopoDatabase, TopoDbError};
use wal::{Fault, FaultPlan, SimFs};

const DIR: &str = "/db";

/// A [`Clock`] that records every requested backoff instead of sleeping,
/// so the backoff schedule is assertable without wall-clock time.
#[derive(Debug, Default)]
struct RecordingClock(Mutex<Vec<Duration>>);

impl Clock for RecordingClock {
    fn sleep(&self, d: Duration) {
        self.0.lock().unwrap().push(d);
    }
}

fn options(sim: &SimFs, clock: &Arc<RecordingClock>) -> StorageOptions {
    StorageOptions::default()
        .with_vfs(Arc::new(sim.clone()))
        .with_clock(Arc::clone(clock) as Arc<dyn Clock>)
}

/// A database on a fresh SimFs, with a recording no-sleep clock.
fn sim_db() -> (TopoDatabase, SimFs, Arc<RecordingClock>) {
    let sim = SimFs::new();
    let clock = Arc::new(RecordingClock::default());
    let db = TopoDatabase::create_with_storage(DIR, SpatialInstance::new(), options(&sim, &clock))
        .expect("create on a healthy SimFs");
    (db, sim, clock)
}

fn commit_rect(db: &TopoDatabase, name: &str, at: i64) -> Result<(), TopoDbError> {
    let mut txn = db.begin_shared();
    txn.insert(name, Region::rect_from_ints(at, at, at + 4, at + 4));
    txn.try_commit().map(|_| ())
}

#[test]
fn health_reports_healthy_then_degraded_with_the_root_cause() {
    let (db, sim, _clock) = sim_db();
    commit_rect(&db, "A", 0).expect("healthy commit");

    let h = db.health();
    assert!(h.durable);
    assert_eq!(h.epoch, 1);
    assert_eq!(h.degraded, None, "healthy: no degradation cause");
    assert_eq!(h.degrade_events, 0);
    assert_eq!(h.wal_head_epoch, Some(1));
    assert_eq!(h.last_checkpoint_epoch, Some(0));

    // ENOSPC on the next append: fatal, not retried.
    sim.set_plan(FaultPlan::none().fail_writes(1, Fault::NoSpace));
    let err = commit_rect(&db, "B", 10).expect_err("ENOSPC must fail the commit");
    assert!(matches!(err, TopoDbError::Degraded(_)), "typed degradation, got {err:?}");

    let h = db.health();
    let cause = h.degraded.expect("health reports the degradation");
    assert!(cause.to_string().contains("no space"), "root cause is the ENOSPC: {cause}");
    assert_eq!(h.degrade_events, 1);
    assert_eq!(h.epoch, 1, "the failed commit published nothing");
    assert_eq!(h.transient_retries, 0, "fatal faults are never retried");
}

#[test]
fn transient_fault_on_the_final_allowed_attempt_still_succeeds() {
    // Attempt budget 4: three EINTRs burn attempts 1 to 3, the fourth (last
    // allowed) succeeds. The backoff between them doubles.
    let (db, sim, clock) = sim_db();
    sim.set_plan(FaultPlan::none().fail_writes(3, Fault::Transient));

    commit_rect(&db, "A", 0).expect("three transients within a 4-attempt budget must succeed");
    assert_eq!(db.update_epoch(), 1);

    let h = db.health();
    assert_eq!(h.transient_retries, 3);
    assert_eq!(h.retries_exhausted, 0);
    assert_eq!(h.degraded, None, "absorbed transients never degrade");
    let sleeps = clock.0.lock().unwrap().clone();
    assert_eq!(
        sleeps,
        vec![Duration::from_millis(1), Duration::from_millis(2), Duration::from_millis(4)],
        "one backoff per retry, doubling"
    );

    // The log is consistent after the torn/retried appends: reopen on the
    // surviving bytes and find the committed epoch.
    std::mem::forget(db);
    sim.power_cycle();
    let reopened = TopoDatabase::open_with_storage(
        DIR,
        StorageOptions::default().with_vfs(Arc::new(sim.clone())),
    )
    .expect("reopen after retried commit");
    assert_eq!(reopened.update_epoch(), 1, "the retried commit is durable");
}

#[test]
fn retry_exhaustion_degrades_exactly_once_and_the_cause_is_stable() {
    let (db, sim, clock) = sim_db();
    commit_rect(&db, "A", 0).expect("healthy commit");
    sim.set_plan(FaultPlan::none().fail_writes(10, Fault::Transient));

    let err = commit_rect(&db, "B", 10).expect_err("budget of 4 cannot absorb 10 transients");
    let TopoDbError::Degraded(first_cause) = err else { panic!("expected Degraded, got {err:?}") };
    assert_eq!(
        *clock.0.lock().unwrap(),
        [Duration::from_millis(1), Duration::from_millis(2), Duration::from_millis(4)],
        "one backoff per retry before exhaustion"
    );

    // Subsequent commits fail fast — no further attempts hit storage, no
    // further degrade events, and the root cause never changes.
    let points_after = sim.io_points();
    for i in 0..3u64 {
        let err = commit_rect(&db, "C", 20 + i as i64).expect_err("degraded: commits rejected");
        let TopoDbError::Degraded(cause) = err else { panic!("expected Degraded, got {err:?}") };
        assert_eq!(cause, first_cause, "the root cause is the first failure, forever");
    }
    assert_eq!(sim.io_points(), points_after, "fail-fast rejections never touch storage");

    let h = db.health();
    assert_eq!(h.degrade_events, 1, "degradation happened exactly once");
    assert_eq!(h.retries_exhausted, 1);
    assert_eq!(h.transient_retries, 3);
    assert_eq!(h.degraded_commit_rejections, 3);
    assert_eq!(h.degraded, Some(first_cause));
}

#[test]
fn reads_keep_serving_while_commits_fail_typed() {
    // The forced-fatal acceptance scenario: after degradation, every
    // commit fails fast with the typed error while snapshots, queries and
    // relation reads keep serving the last published epoch.
    let (db, sim, _clock) = sim_db();
    commit_rect(&db, "A", 0).expect("commit A");
    commit_rect(&db, "B", 2).expect("commit B overlapping A");
    let snapshot_before = db.snapshot();

    sim.set_plan(FaultPlan::none().fail_writes(1, Fault::NoSpace));
    let err = commit_rect(&db, "C", 50).expect_err("fatal fault degrades");
    assert!(matches!(err, TopoDbError::Degraded(_)));

    // Reads on a degraded database: same epoch, same answers, new
    // snapshots still acquirable.
    assert_eq!(db.update_epoch(), 2, "head unchanged by the failed commit");
    let snap = db.snapshot();
    assert_eq!(snap.epoch(), snapshot_before.epoch());
    assert_eq!(snap.relation("A", "B").unwrap().name(), "overlap");
    assert_eq!(snap.query("overlap(A, B)").map(|o| o.holds()), Ok(true));
    assert!(snap.query("disjoint(A, C)").is_err(), "C was never published");
    assert!(db.summary().contains("2 region(s)"));

    // Checkpoints are writes too: rejected typed, not panicking.
    let err = db.checkpoint().expect_err("checkpoint on a degraded database");
    assert!(matches!(err, TopoDbError::Degraded(_)), "got {err:?}");
}

#[test]
fn concurrent_committers_all_observe_degraded_without_deadlock() {
    let (db, sim, _clock) = sim_db();
    commit_rect(&db, "Base", 0).expect("healthy commit");
    sim.set_plan(FaultPlan::none().fail_writes(64, Fault::NoSpace));

    // Several threads race their commits into the fault. Whoever reaches
    // storage first degrades the database; everyone — including commits
    // that only start after degradation — gets the typed error, and the
    // publish lock is released on every path (no deadlock, bounded time).
    let results: Vec<Result<(), TopoDbError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = &db;
                s.spawn(move || commit_rect(db, "W", 10 + 10 * i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    for (i, r) in results.iter().enumerate() {
        let Err(TopoDbError::Degraded(_)) = r else {
            panic!("committer {i} must observe Degraded, got {r:?}");
        };
    }

    let h = db.health();
    assert_eq!(h.degrade_events, 1, "one degradation for the whole stampede");
    assert_eq!(h.epoch, 1, "nothing published");
    assert_eq!(db.snapshot().epoch(), 1, "reads still serve after the stampede");

    // A committer arriving later is also rejected, typed.
    let err = commit_rect(&db, "Late", 99).expect_err("still degraded");
    assert!(matches!(err, TopoDbError::Degraded(_)));
}

#[test]
fn failed_maintenance_after_an_acked_append_keeps_the_commit_and_degrades() {
    // Checkpoint cadence of 2: the second commit's append succeeds (and is
    // acked), then the post-append checkpoint write hits ENOSPC. The
    // commit must stand — its record is durable — while the database
    // degrades proactively so the *next* commit fails typed.
    let sim = SimFs::new();
    let clock = Arc::new(RecordingClock::default());
    let mut opts = options(&sim, &clock);
    opts.wal = opts.wal.with_checkpoint_every(2);
    let db = TopoDatabase::create_with_storage(DIR, SpatialInstance::new(), opts)
        .expect("create on a healthy SimFs");

    commit_rect(&db, "A", 0).expect("commit 1 (no checkpoint yet)");
    // Commit 2 in order: append write, per-commit fsync, checkpoint tmp
    // write. Target the checkpoint write by io point.
    sim.set_plan(FaultPlan::none().at(sim.io_points() + 2, Fault::NoSpace));
    commit_rect(&db, "B", 10).expect("the append was acked; failed housekeeping keeps the commit");
    assert_eq!(db.update_epoch(), 2, "both commits published");

    let h = db.health();
    assert_eq!(h.maintenance_errors, 1);
    assert!(h.degraded.is_some(), "fatal maintenance degrades proactively");
    let err = commit_rect(&db, "C", 20).expect_err("next commit is rejected");
    assert!(matches!(err, TopoDbError::Degraded(_)));

    // Both acked commits survive a crash + reopen.
    std::mem::forget(db);
    sim.power_cycle();
    let reopened = TopoDatabase::open_with_storage(
        DIR,
        StorageOptions::default().with_vfs(Arc::new(sim.clone())),
    )
    .expect("reopen");
    assert_eq!(reopened.update_epoch(), 2, "no acked commit lost");
}

/// A [`Clock`] whose `sleep` announces itself on `parked` and then blocks
/// until the test sends on `release`.
#[derive(Debug)]
struct GateClock {
    parked: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Clock for GateClock {
    fn sleep(&self, _d: Duration) {
        self.parked.lock().unwrap().send(()).expect("the test waits for the park");
        self.release.lock().unwrap().recv().expect("the test releases the clock");
    }
}

#[test]
fn readers_never_wait_on_a_publish_held_in_log_backoff() {
    // A transient fault on the next append parks the commit in `log_batch`'s
    // backoff, i.e. while it owns the publish mutex. Reads must still
    // return the pre-commit epoch at once: the log append (and any fsync)
    // never runs under the head's write lock.
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let clock = GateClock { parked: Mutex::new(parked_tx), release: Mutex::new(release_rx) };
    let sim = SimFs::new();
    let db = TopoDatabase::create_with_storage(
        DIR,
        SpatialInstance::new(),
        StorageOptions::default().with_vfs(Arc::new(sim.clone())).with_clock(Arc::new(clock)),
    )
    .expect("create on a healthy SimFs");
    commit_rect(&db, "A", 0).expect("healthy commit");
    sim.set_plan(FaultPlan::none().fail_writes(1, Fault::Transient));

    std::thread::scope(|s| {
        let committer = s.spawn(|| commit_rect(&db, "B", 10));
        parked.recv().expect("the commit parks in its backoff");
        let (read_tx, read) = mpsc::channel();
        let db = &db;
        s.spawn(move || read_tx.send((db.snapshot().epoch(), db.update_epoch())));
        let seen = read.recv_timeout(Duration::from_secs(30));
        release.send(()).expect("the committer is parked");
        assert_eq!(seen, Ok((1, 1)), "a read waited on the publish or saw the unlogged epoch");
        committer.join().expect("no panics").expect("the retried append succeeds");
    });
    assert_eq!(db.snapshot().epoch(), 2, "the commit publishes after its backoff");
    assert_eq!(db.health().transient_retries, 1);
}

#[test]
fn dir_sync_downgrades_surface_in_health() {
    let (db, sim, _clock) = sim_db();
    commit_rect(&db, "A", 0).expect("healthy commit");

    // The checkpoint is published by rename; a directory-fsync failure
    // after it downgrades to a counted warning instead of failing the
    // checkpoint (see the wal crate's failure model).
    sim.set_plan(FaultPlan::none().fail_dir_syncs(8, Fault::SyncFail));
    db.checkpoint().expect("checkpoint succeeds despite the dir-sync failure");

    let h = db.health();
    assert_eq!(h.dir_sync_downgrades, 1);
    assert_eq!(h.degraded, None, "a downgrade is not a degradation");
    assert_eq!(h.last_checkpoint_epoch, Some(1), "the checkpoint took effect");
    commit_rect(&db, "B", 10).expect("the database stays healthy");
}

#[test]
fn concurrent_writers_under_random_transient_faults_lose_no_acked_commit() {
    // Two writers on disjoint clusters commit through a log whose writes
    // fail transiently at random. Retries absorb most faults; one that
    // exhausts the attempt budget degrades the database, after which every
    // commit fails fast, typed. Either way nothing panics, and a power cut
    // plus reopen recovers exactly the acknowledged history.
    const CLUSTERS: usize = 2;
    const COMMITS: usize = 24;
    let base = datagen::clustered_map(CLUSTERS, 4, 0x7af1c);
    let sim = SimFs::new();
    let clock = Arc::new(RecordingClock::default());
    let db = TopoDatabase::create_with_storage(DIR, base.clone(), options(&sim, &clock))
        .expect("create on a healthy SimFs");
    sim.set_plan(FaultPlan::none().transient_write_rate(0.25, 0x7af1c));

    // Each writer keeps at most four regions of its own alive, so commits
    // alternate between inserts and removals. `acked` is (epoch, name,
    // region inserted or `None` for a removal). The barrier starts both
    // writers together so their commits overlap.
    let start = Barrier::new(CLUSTERS);
    let mut acked: Vec<(u64, String, Option<Region>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLUSTERS)
            .map(|w| {
                let (db, start) = (&db, &start);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w as u64);
                    let (mut live, mut acked) = (Vec::new(), Vec::new());
                    start.wait();
                    for i in 0..COMMITS {
                        let mut txn = db.begin_shared();
                        let op = if live.len() >= 4 {
                            let name: String = live.remove(0);
                            txn.remove(name.clone());
                            (name, None)
                        } else {
                            let name = format!("W{w}_{i:02}");
                            let region = datagen::cluster_rect(&mut rng, w, CLUSTERS);
                            txn.insert(name.clone(), region.clone());
                            live.push(name.clone());
                            (name, Some(region))
                        };
                        match txn.try_commit() {
                            Ok(summary) => acked.push((summary.epoch, op.0, op.1)),
                            Err(TopoDbError::Degraded(_)) => {}
                            Err(e) => panic!("writer {w} commit {i} failed un-typed: {e}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("no writer panics")).collect()
    });

    let h = db.health();
    assert!(h.transient_retries > 0, "the fault rate must exercise the retry path");
    acked.sort_by_key(|a| a.0);
    let epochs: Vec<u64> = acked.iter().map(|a| a.0).collect();
    let n = acked.len() as u64;
    assert_eq!(epochs, (1..=n).collect::<Vec<_>>(), "acked epochs are 1..=n, no gap or repeat");
    assert_eq!(h.epoch, n, "failed commits published nothing");

    // The cold oracle: the base map plus the acked ops in epoch order.
    let mut expected = base;
    for (_, name, region) in acked {
        match region {
            Some(region) => expected.insert(name, region),
            None => expected.remove(&name),
        };
    }
    let cold = TopoDatabase::from_instance(expected);

    std::mem::forget(db);
    sim.power_cycle();
    let reopened = TopoDatabase::open_with_storage(
        DIR,
        StorageOptions::default().with_vfs(Arc::new(sim.clone())),
    )
    .expect("reopen after the faulted run");
    assert_eq!(reopened.update_epoch(), n, "every acked epoch is durable");
    assert_eq!(*reopened.instance(), *cold.instance(), "recovered instance");
    assert_eq!(
        reopened.snapshot().relation_matrix().unwrap(),
        cold.snapshot().relation_matrix().unwrap(),
        "recovered topology matches a cold build"
    );
}
