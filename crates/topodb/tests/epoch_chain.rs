//! The epoch chain, held equal to a from-scratch model and hammered.
//!
//! Five suites:
//!
//! 1. **Randomized interleaved differential** — a deterministic schedule of
//!    batched commits and reads replayed against a database and a test-local
//!    reference model (a plain instance plus an epoch counter, answering
//!    through a *cold* rebuild at every read, so it shares no incremental
//!    state with the code under test); after every step the epochs, commit
//!    summaries, relation matrices and prepared-query rows must be
//!    byte-identical, and long-lived snapshots from earlier epochs must keep
//!    answering for their epoch.
//! 2. **Concurrent stress** — N reader threads acquiring snapshots while M
//!    writers commit disjoint and overlapping component sets through
//!    [`TopoDatabase::begin_shared`]; every reader asserts epoch
//!    monotonicity and internal consistency, and the final state must equal
//!    the model applying each writer's final sub-state (writers own their
//!    name spaces, so the final instance is interleaving-independent).
//! 3. **Pointer-identical reuse** — commits must carry every untouched
//!    `Arc<ComponentComplex>` of their base epoch into the published epoch
//!    unchanged, including across concurrent disjoint commits.
//! 4. **Reclamation** — a single writer's superseded epochs are freed.
//! 5. **Forced publish conflict** — a slow commit overtaken by fast commits
//!    on another cluster retries without re-sweeping anything and publishes
//!    the union; overtaken by commits that re-shape a region of its own
//!    cluster, the retry refuses its stale components and still publishes
//!    what a cold build of the union says.
//!
//! Suites 1, 2 and 5 run twice: in memory, and on a database logging to an
//! in-memory [`SimFs`]. A durable run ends with a power cut and a reopen from
//! the log, which must observe exactly what the live database last did.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use topodb::query::PreparedQuery;
use topodb::spatial_core::prelude::*;
use topodb::wal::SimFs;
use topodb::{StorageOptions, TopoDatabase};

const CLUSTERS: usize = 6;
const PER_CLUSTER: usize = 3;
const DIR: &str = "/db";

/// Where a suite's database keeps its history.
#[derive(Clone, Copy, Debug)]
enum Storage {
    /// In memory only: no log.
    Memory,
    /// A write-ahead log on a fresh in-memory [`SimFs`].
    Sim,
}

/// A database over the clustered map of `seed` on `storage`, and the
/// filesystem its log is on (`None` in memory).
fn chain_db(seed: u64, storage: Storage) -> (TopoDatabase, Option<SimFs>) {
    let instance = datagen::clustered_map(CLUSTERS, PER_CLUSTER, seed);
    match storage {
        Storage::Memory => (TopoDatabase::from_instance(instance), None),
        Storage::Sim => {
            let sim = SimFs::new();
            let options = StorageOptions::default().with_vfs(Arc::new(sim.clone()));
            let db = TopoDatabase::create_with_storage(DIR, instance, options)
                .expect("create on a healthy SimFs");
            (db, Some(sim))
        }
    }
}

/// For a durable database: cut the power, reopen from what the log holds,
/// and require the reopened database to be at the live one's epoch and to
/// observe byte-identically what it did. Every commit was acknowledged, so
/// every one must survive. Nothing to check in memory.
fn reopen_matches_live(db: TopoDatabase, sim: Option<SimFs>, query: &PreparedQuery) {
    let Some(sim) = sim else { return };
    let (epoch, live) = {
        let snap = db.snapshot();
        (db.update_epoch(), observable_digest(snap.epoch(), &snap, query))
    };
    drop(db);
    sim.power_cycle();
    let reopened =
        TopoDatabase::open_with_storage(DIR, StorageOptions::default().with_vfs(Arc::new(sim)))
            .expect("reopen from the log");
    assert_eq!(reopened.update_epoch(), epoch, "the reopened database is at another epoch");
    let snap = reopened.snapshot();
    assert_eq!(
        observable_digest(snap.epoch(), &snap, query),
        live,
        "the reopened database observes something else than the live one did"
    );
}

/// One buffered operation of a model batch: `Some(region)` inserts or
/// replaces, `None` removes.
type ModelOp = (String, Option<Region>);

/// The reference: the instance and epoch counter a sequence of batches
/// leaves behind, with every read answered by a from-scratch rebuild.
struct Model {
    instance: SpatialInstance,
    epoch: u64,
}

impl Model {
    fn new(seed: u64) -> Model {
        Model { instance: datagen::clustered_map(CLUSTERS, PER_CLUSTER, seed), epoch: 0 }
    }

    /// Apply one batch in order and return what a `CommitSummary` reports:
    /// the epoch afterwards and the changed names in first-change order. An
    /// identical replacement and the removal of an absent name are not
    /// changes, and a batch that changes nothing starts no epoch.
    fn commit(&mut self, ops: &[ModelOp]) -> (u64, Vec<String>) {
        let mut changed: Vec<String> = Vec::new();
        for (name, region) in ops {
            let did_change = match region {
                Some(r) => self.instance.insert(name.clone(), r.clone()).as_ref() != Some(r),
                None => self.instance.remove(name).is_some(),
            };
            if did_change && !changed.contains(name) {
                changed.push(name.clone());
            }
        }
        if !changed.is_empty() {
            self.epoch += 1;
        }
        (self.epoch, changed)
    }

    /// Everything observable at the current epoch, from a cold build.
    fn digest(&self, query: &PreparedQuery) -> String {
        let cold = TopoDatabase::from_instance(self.instance.clone()).snapshot();
        observable_digest(self.epoch, &cold, query)
    }
}

/// Byte-comparable digest of everything a reader can observe: epoch, names,
/// the full relation matrix, and the rows of an anchored open query.
fn observable_digest(epoch: u64, snap: &topodb::Snapshot, query: &PreparedQuery) -> String {
    format!(
        "epoch={epoch} names={:?} matrix={:?} rows={:?}",
        snap.names(),
        snap.relation_matrix().expect("every pair classifies"),
        snap.evaluate(query).expect("anchored query evaluates"),
    )
}

#[test]
fn randomized_interleaved_schedules_match_the_from_scratch_model_exactly() {
    randomized_interleaved_schedules(Storage::Memory);
}

#[test]
fn randomized_interleaved_schedules_match_the_from_scratch_model_exactly_on_a_log() {
    randomized_interleaved_schedules(Storage::Sim);
}

fn randomized_interleaved_schedules(storage: Storage) {
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("query compiles");
    for seed in 0..4u64 {
        let (chain, sim) = chain_db(900 + seed, storage);
        let mut model = Model::new(900 + seed);
        let read = |chain: &TopoDatabase| {
            let snap = chain.snapshot();
            let digest = observable_digest(snap.epoch(), &snap, &query);
            (snap, digest)
        };
        assert_eq!(read(&chain).1, model.digest(&query), "fresh databases differ (seed {seed})");

        // A batch that changes nothing starts no epoch and logs nothing.
        let head = chain.health().wal_head_epoch;
        assert_eq!(head, sim.as_ref().map(|_| 0), "{storage:?}: a fresh log is at epoch 0");
        let mut txn = chain.begin_shared();
        txn.remove("NOT_A_REGION");
        let c = txn.commit();
        assert_eq!((c.epoch, c.changed), model.commit(&[("NOT_A_REGION".into(), None)]));
        assert_eq!(chain.health().wal_head_epoch, head, "{storage:?}: a no-op commit moved the log");

        let mut rng = StdRng::seed_from_u64(0xec0c + seed);
        let mut held: Vec<(topodb::Snapshot, String)> = Vec::new();
        for step in 0..30 {
            match rng.gen_range(0..10u32) {
                // Batched commit: 1–3 operations over random clusters, the
                // identical batch applied to the database and the model.
                0..=4 => {
                    let mut txn = chain.begin_shared();
                    let mut batch: Vec<ModelOp> = Vec::new();
                    for _ in 0..rng.gen_range(1..=3) {
                        let cluster = rng.gen_range(0..CLUSTERS);
                        if rng.gen_bool(0.3) {
                            let name = format!("X{:03}", rng.gen_range(0..12));
                            txn.remove(name.clone());
                            batch.push((name, None));
                        } else {
                            let name = format!("X{:03}", rng.gen_range(0..12));
                            let region = cluster_region(&mut rng, cluster);
                            txn.insert(name.clone(), region.clone());
                            batch.push((name, Some(region)));
                        }
                    }
                    let c = txn.commit();
                    assert_eq!(
                        (c.epoch, c.changed),
                        model.commit(&batch),
                        "commit summaries diverged at step {step} (seed {seed})"
                    );
                    if sim.is_some() {
                        assert_eq!(chain.health().wal_head_epoch, Some(model.epoch));
                    }
                }
                // Read + compare everything observable.
                5..=8 => {
                    assert_eq!(
                        read(&chain).1,
                        model.digest(&query),
                        "observable state diverged at step {step} (seed {seed})"
                    );
                    assert_eq!(chain.update_epoch(), model.epoch);
                }
                // Hold a snapshot for later: earlier epochs must keep
                // answering what the model answered at that epoch.
                _ => {
                    let (snap, digest) = read(&chain);
                    assert_eq!(digest, model.digest(&query), "diverged at step {step}");
                    held.push((snap, digest));
                }
            }
        }
        for (snap, digest) in &held {
            assert_eq!(
                &observable_digest(snap.epoch(), snap, &query),
                digest,
                "held snapshot drifted"
            );
        }
        drop(held);
        reopen_matches_live(chain, sim, &query);
    }
}

/// A pseudo-random rectangle inside cluster `c`'s area.
fn cluster_region(rng: &mut StdRng, c: usize) -> Region {
    datagen::cluster_rect(rng, c, CLUSTERS)
}

#[test]
fn concurrent_readers_and_writers_stress() {
    concurrent_readers_and_writers(Storage::Memory);
}

#[test]
fn concurrent_readers_and_writers_stress_on_a_log() {
    concurrent_readers_and_writers(Storage::Sim);
}

fn concurrent_readers_and_writers(storage: Storage) {
    let (db, sim) = chain_db(7777, storage);
    let db = Arc::new(db);
    // Warm the root epoch so reader assertions start from a built head.
    db.snapshot();
    let writers = 3usize;
    let commits_per_writer = 12usize;
    let stop = Arc::new(AtomicBool::new(false));
    let max_epoch_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // N readers: snapshots must be internally consistent and epochs
        // monotone per reader.
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let max_epoch_seen = Arc::clone(&max_epoch_seen);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = db.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epochs went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    max_epoch_seen.fetch_max(last_epoch, Ordering::Relaxed);
                    // A published epoch is fully built: its matrix row count
                    // must match its name count.
                    let names = snap.names();
                    let matrix = snap.relation_matrix().unwrap();
                    assert_eq!(matrix.len(), names.len() * names.len().saturating_sub(1) / 2);
                }
            });
        }
        // M writers: writer w owns names W{w}_*; writers 0 and 1 target
        // disjoint clusters, writer 2 sprays across all clusters so some
        // commits overlap components touched by the others.
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xbeef + w as u64);
                    for i in 0..commits_per_writer {
                        let cluster =
                            if w < 2 { w } else { rng.gen_range(0..CLUSTERS) };
                        let mut txn = db.begin_shared();
                        txn.insert(format!("W{w}_N{i:03}"), cluster_region(&mut rng, cluster));
                        if i >= 4 {
                            txn.remove(format!("W{w}_N{:03}", i - 4));
                        }
                        let summary = txn.commit();
                        assert!(
                            !summary.changed.is_empty(),
                            "every stress batch inserts a fresh name"
                        );
                    }
                })
            })
            .collect();
        // Stop the readers before surfacing a writer's panic, or they spin
        // forever and the failure shows up as a hang.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for writer in joined {
            writer.expect("writer thread");
        }
    });

    // Every effective commit bumped the epoch exactly once, in a total
    // order.
    assert_eq!(db.update_epoch(), (writers * commits_per_writer) as u64);
    assert!(max_epoch_seen.load(Ordering::Relaxed) <= db.update_epoch());

    // Writers own disjoint name spaces and each applied a deterministic
    // final sub-state, so the final instance is interleaving-independent:
    // the model applying the same final sub-states must observe a
    // byte-identical world.
    let mut oracle = Model::new(7777);
    let mut batch: Vec<ModelOp> = Vec::new();
    for w in 0..writers {
        let mut rng = StdRng::seed_from_u64(0xbeef + w as u64);
        for i in 0..commits_per_writer {
            let cluster = if w < 2 { w } else { rng.gen_range(0..CLUSTERS) };
            batch.push((format!("W{w}_N{i:03}"), Some(cluster_region(&mut rng, cluster))));
            if i >= 4 {
                batch.push((format!("W{w}_N{:03}", i - 4), None));
            }
        }
    }
    oracle.commit(&batch);
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("query compiles");
    let chain_final = db.snapshot();
    let oracle_final = TopoDatabase::from_instance(oracle.instance).snapshot();
    assert_eq!(chain_final.names(), oracle_final.names());
    assert_eq!(chain_final.relation_matrix().unwrap(), oracle_final.relation_matrix().unwrap());
    assert_eq!(
        format!("{:?}", chain_final.evaluate(&query).unwrap()),
        format!("{:?}", oracle_final.evaluate(&query).unwrap()),
    );
    eprintln!(
        "stress ({storage:?}): {} epochs, {} publish conflicts, {} component re-sweeps",
        db.update_epoch(),
        db.publish_conflict_count(),
        db.component_rebuild_count()
    );
    drop((chain_final, oracle_final));
    let db = Arc::try_unwrap(db).unwrap_or_else(|_| panic!("every thread has let go"));
    reopen_matches_live(db, sim, &query);
}

#[test]
fn commits_reuse_untouched_components_pointer_identically() {
    let (db, _) = chain_db(31415, Storage::Memory);
    let before = db.component_complexes();
    assert!(before.len() >= CLUSTERS, "clustered map yields at least one component per cluster");

    // A commit confined to cluster 0 must republish every component not
    // containing a cluster-0 region pointer-identically.
    let mut rng = StdRng::seed_from_u64(99);
    let mut txn = db.begin_shared();
    txn.insert("Z000", cluster_region(&mut rng, 0));
    txn.commit();
    let after = db.component_complexes();
    for (key, component) in &before {
        if key.iter().any(|n| n.starts_with("C000")) {
            continue; // cluster 0 may legitimately re-sweep
        }
        let reused = after
            .iter()
            .any(|(k, c)| k == key && Arc::ptr_eq(c, component));
        assert!(reused, "untouched component {key:?} was not reused pointer-identically");
    }

    // The same guarantee under *concurrent* disjoint commits: components of
    // clusters 2..CLUSTERS are untouched by writers hitting clusters 0/1.
    let base = db.component_complexes();
    let db = Arc::new(db);
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + w as u64);
                for i in 0..6 {
                    let mut txn = db.begin_shared();
                    txn.insert(format!("Y{w}_{i:02}"), cluster_region(&mut rng, w));
                    txn.commit();
                }
            });
        }
    });
    let final_components = db.component_complexes();
    for (key, component) in &base {
        if key.iter().any(|n| n.starts_with("C000") || n.starts_with("C001") || n.starts_with('Z'))
        {
            continue;
        }
        let reused = final_components
            .iter()
            .any(|(k, c)| k == key && Arc::ptr_eq(c, component));
        assert!(
            reused,
            "component {key:?} untouched by either concurrent writer was re-swept"
        );
    }
}

/// Nothing but snapshots may hold a superseded epoch: a single-writer
/// workload keeps no history alive (in memory or with a log attached).
#[test]
fn single_writer_commits_free_superseded_epochs() {
    let instance = || datagen::clustered_map(CLUSTERS, PER_CLUSTER, 2718);
    let durable = TopoDatabase::create_with_storage(
        "/db",
        instance(),
        StorageOptions::default().with_vfs(Arc::new(topodb::wal::SimFs::new())),
    )
    .expect("create on a healthy SimFs");
    for db in [TopoDatabase::from_instance(instance()), durable] {
        let root = Arc::downgrade(&db.instance());
        let mut rng = StdRng::seed_from_u64(161803);
        for i in 0..8 {
            let mut txn = db.begin_shared();
            txn.insert(format!("P{i:02}"), cluster_region(&mut rng, i % CLUSTERS));
            txn.commit();
        }
        assert_eq!(db.update_epoch(), 8);
        assert!(
            root.upgrade().is_none(),
            "epoch 0 is still reachable after 8 single-writer commits (durable: {})",
            db.health().durable
        );
    }
}

/// A commit that loses the publish race keeps what it swept wherever that is
/// still valid. The conflict is forced by making one writer's build long (a
/// 40-rectangle batch into cluster 0) while the other re-shapes a region `F`
/// that both databases start with, alternating between two rectangles.
///
/// With `F` on cluster 1 the fast writer keeps publishing until the slow
/// commit is done (or 31 edits, so the slow commit cannot be starved); the
/// retry carries the new head's components, is handed its own attempt's for
/// what it touched, and sweeps nothing. With `F` inside cluster 0 one
/// re-shape lands during the slow build: the attempt's component for the
/// name set `F` shares with the batch holds `F`'s old shape and must be
/// refused, or the published complex disagrees with a cold build.
///
/// (Inserting and removing one fixed shape could not produce that case: the
/// attempt's `F` is then either absent, so no name set matches, or
/// identical.)
#[test]
fn a_conflicting_commit_on_disjoint_clusters_retries_without_sweeping() {
    conflicting_commits(Storage::Memory);
}

#[test]
fn a_conflicting_commit_on_disjoint_clusters_retries_without_sweeping_on_a_log() {
    conflicting_commits(Storage::Sim);
}

fn conflicting_commits(storage: Storage) {
    let query = PreparedQuery::compile("overlap(ext(x), F)").expect("query compiles");
    let slow_batch = || -> Vec<(String, Region)> {
        let mut rng = StdRng::seed_from_u64(4242);
        (0..40).map(|i| (format!("S{i:02}"), cluster_region(&mut rng, 0))).collect()
    };
    let on_cluster_1 =
        [Region::rect_from_ints(103, 3, 109, 9), Region::rect_from_ints(104, 2, 111, 8)];
    let in_cluster_0 = [Region::rect_from_ints(3, 3, 9, 9), Region::rect_from_ints(4, 2, 11, 8)];

    for (f_shapes, disjoint, max_fast_commits) in
        [(on_cluster_1, true, 31), (in_cluster_0, false, 1)]
    {
        let fresh = |round: u64| {
            let (db, sim) = chain_db(8128 + round, storage);
            let mut txn = db.begin_shared();
            txn.insert("F", f_shapes[0].clone());
            txn.commit();
            db.snapshot();
            (db, sim)
        };
        let fast_edit = |db: &TopoDatabase, i: usize| {
            let mut txn = db.begin_shared();
            txn.insert("F", f_shapes[(i + 1) % 2].clone());
            assert_eq!(txn.commit().changed, ["F"]);
        };

        let mut conflicts = 0;
        for round in 0..5 {
            let (db, sim) = fresh(round);
            let swept_before = db.component_rebuild_count();
            let slow_started = AtomicBool::new(false);
            let slow_done = AtomicBool::new(false);
            let fast_commits = std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut txn = db.begin_shared();
                    for (name, region) in slow_batch() {
                        txn.insert(name, region);
                    }
                    slow_started.store(true, Ordering::Release);
                    assert_eq!(txn.commit().changed.len(), 40);
                    slow_done.store(true, Ordering::Release);
                });
                let fast = scope.spawn(|| {
                    while !slow_started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut i = 0;
                    while i == 0 || (i < max_fast_commits && !slow_done.load(Ordering::Acquire)) {
                        fast_edit(&db, i);
                        i += 1;
                    }
                    i
                });
                fast.join().expect("fast writer")
            });
            let swept = db.component_rebuild_count() - swept_before;

            // The same commits one after the other: no conflict, no retry.
            let (twin, _) = fresh(round);
            let twin_before = twin.component_rebuild_count();
            let mut txn = twin.begin_shared();
            for (name, region) in slow_batch() {
                txn.insert(name, region);
            }
            txn.commit();
            for i in 0..fast_commits {
                fast_edit(&twin, i);
            }
            assert_eq!(twin.publish_conflict_count(), 0);
            if disjoint {
                assert_eq!(
                    swept,
                    twin.component_rebuild_count() - twin_before,
                    "a retry re-swept a component ({} conflicts, round {round})",
                    db.publish_conflict_count()
                );
            }

            // Both writers' effects are published, and they are what a cold
            // build of the union says.
            assert_eq!(db.update_epoch(), 2 + fast_commits as u64);
            assert_eq!(*db.instance(), *twin.instance(), "the union is published");
            let cold = TopoDatabase::from_instance((*db.instance()).clone());
            assert_eq!(
                db.snapshot().relation_matrix().unwrap(),
                cold.snapshot().relation_matrix().unwrap()
            );
            assert!(
                db.snapshot().complex_view().to_cell_complex()
                    == cold.snapshot().complex_view().to_cell_complex(),
                "the published complex differs from a cold build (disjoint: {disjoint}, round {round})"
            );

            conflicts += db.publish_conflict_count();
            reopen_matches_live(db, sim, &query);
            if conflicts > 0 {
                break;
            }
        }
        assert!(
            conflicts > 0,
            "{storage:?}: five rounds and the slow commit was never overtaken ({disjoint})"
        );
    }
}
