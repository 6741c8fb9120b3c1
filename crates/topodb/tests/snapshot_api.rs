//! Integration tests for the read/write split: immutable `Send + Sync`
//! snapshots, batched transactions that coalesce mutations into one epoch,
//! and prepared queries evaluated against snapshots of different epochs.

use datagen::TraceOp;
use spatial_core::prelude::*;
use std::sync::Arc;
use topodb::arrangement::{ComplexGeometry, ComplexRead};
use topodb::invariant::Invariant;
use topodb::query::PreparedQuery;
use topodb::{QueryOutput, Snapshot, TopoDatabase};

fn clustered_db(clusters: usize, per_cluster: usize) -> TopoDatabase {
    TopoDatabase::from_instance(datagen::clustered_map(clusters, per_cluster, 4242))
}

/// A one-operation transaction.
fn insert(db: &mut TopoDatabase, name: &str, region: Region) {
    let mut txn = db.begin();
    txn.insert(name, region);
    txn.commit();
}

/// Regression (bugfix): removing a nonexistent name must be a complete
/// no-op — no epoch bump, no component eviction, no rebuild at the next
/// read — whether the transaction holds one such removal or several.
#[test]
fn remove_of_nonexistent_name_is_a_noop() {
    let mut db = clustered_db(4, 3);
    let _ = db.snapshot(); // warm all components
    let epoch_before = db.update_epoch();
    let builds_before = db.complex_build_count();
    let rebuilds_before = db.component_rebuild_count();
    let components_before = db.component_complexes();

    for ghosts in [&["NoSuchRegion"][..], &["Ghost1", "Ghost2"]] {
        let mut txn = db.begin();
        for ghost in ghosts {
            txn.remove(*ghost);
        }
        let commit = txn.commit();
        assert_eq!(commit.epoch, epoch_before, "{ghosts:?}");
        assert!(commit.changed.is_empty(), "{ghosts:?}");

        assert_eq!(db.update_epoch(), epoch_before, "no epoch bump for a no-op removal");
        let v = db.snapshot().complex_view();
        assert_eq!(db.complex_build_count(), builds_before, "cached view survives");
        assert_eq!(db.component_rebuild_count(), rebuilds_before, "no component re-swept");
        drop(v);
        // Every cached component is still the same allocation.
        let components_after = db.component_complexes();
        assert_eq!(components_before.len(), components_after.len());
        for ((k1, c1), (k2, c2)) in components_before.iter().zip(&components_after) {
            assert_eq!(k1, k2);
            assert!(Arc::ptr_eq(c1, c2), "component {k1:?} was evicted by a no-op removal");
        }
    }
}

/// The acceptance scenario of the read/write split: a `k`-mutation batch
/// commits with exactly one epoch bump; the next read performs exactly one
/// global assembly and re-sweeps only the union of the affected components;
/// a snapshot taken before the commit keeps answering for the old epoch.
#[test]
fn batch_commit_bumps_epoch_once_and_assembles_once() {
    let clusters = 8usize;
    let mut db = clustered_db(clusters, 3);
    let pre = db.snapshot();
    let epoch_before = db.update_epoch();
    let builds_before = db.complex_build_count();
    let rebuilds_before = db.component_rebuild_count();
    let names_before = pre.len();

    // One batch touching clusters 0, 1 and 2: two inserts and one removal.
    let victim = pre
        .names()
        .iter()
        .find(|n| n.starts_with("C002_"))
        .expect("cluster 2 has regions")
        .clone();
    let mut txn = db.begin();
    for (k, cluster) in [0usize, 1].iter().enumerate() {
        let (ox, oy) = datagen::cluster_origin(*cluster, clusters);
        let span = datagen::CLUSTER_SPAN;
        txn.insert(
            format!("Batch{k}"),
            Region::rect_from_ints(ox + 1, oy + 1, ox + span - 2, oy + span - 2),
        );
    }
    txn.remove(&victim);
    assert_eq!(txn.pending_ops(), 3);
    let commit = txn.commit();

    assert_eq!(commit.epoch, epoch_before + 1, "one epoch bump for the whole batch");
    assert_eq!(db.update_epoch(), epoch_before + 1);
    assert_eq!(commit.changed, vec!["Batch0".to_string(), "Batch1".to_string(), victim]);

    // One read after the batch: exactly one assembly, and only the affected
    // clusters are re-swept (each of the three touched clusters contributes
    // at most a few components after merging/splitting).
    let post = db.snapshot();
    assert_eq!(db.complex_build_count(), builds_before + 1, "one global assembly");
    let resweeps = db.component_rebuild_count() - rebuilds_before;
    assert!(
        (1..=6).contains(&resweeps),
        "only the union of affected clusters is re-swept, got {resweeps}"
    );

    // Epoch isolation: the old snapshot still answers for the old epoch.
    assert_eq!(pre.epoch(), epoch_before);
    assert_eq!(post.epoch(), epoch_before + 1);
    assert_eq!(pre.len(), names_before);
    assert_eq!(post.len(), names_before + 2 - 1);
    assert!(pre.names().iter().any(|n| *n == *commit.changed[2]));
    assert!(!post.names().iter().any(|n| *n == *commit.changed[2]));
    assert!(pre.relation("Batch0", "Batch1").is_err(), "old epoch has no batch regions");
    assert_eq!(
        post.relation("Batch0", "Batch1").unwrap(),
        topodb::relations::Relation4::Disjoint
    );
}

/// One `PreparedQuery` evaluated against snapshots from two different epochs
/// returns epoch-correct answers.
#[test]
fn prepared_query_reuse_across_epochs() {
    let mut db = TopoDatabase::new();
    let mut txn = db.begin();
    txn.insert("A", Region::rect_from_ints(0, 0, 10, 10));
    txn.insert("B", Region::rect_from_ints(2, 2, 6, 6));
    txn.commit();

    let inside_a = PreparedQuery::compile("inside(ext(x), A)").unwrap();
    let has_overlap = PreparedQuery::compile("existsname a . overlap(ext(a), A)").unwrap();

    let snap1 = db.snapshot();
    // Epoch 2: C appears inside A, and D overlaps A.
    let mut txn = db.begin();
    txn.insert("C", Region::rect_from_ints(7, 7, 9, 9));
    txn.insert("D", Region::rect_from_ints(8, 8, 14, 14));
    txn.commit();
    let snap2 = db.snapshot();

    let rows1 = snap1.evaluate(&inside_a).unwrap();
    let rows2 = snap2.evaluate(&inside_a).unwrap();
    let xs = |out: &QueryOutput| -> Vec<String> {
        out.bindings().unwrap().iter().map(|r| r["x"].clone()).collect()
    };
    assert_eq!(xs(&rows1), ["B"], "epoch-1 snapshot sees only B inside A");
    assert_eq!(xs(&rows2), ["B", "C"], "epoch-2 snapshot sees the committed batch");

    assert_eq!(snap1.evaluate(&has_overlap).unwrap(), QueryOutput::Bool(false));
    assert_eq!(snap2.evaluate(&has_overlap).unwrap(), QueryOutput::Bool(true));
}

/// `Snapshot` is `Send + Sync`: queried concurrently from scoped threads
/// over one shared reference, every thread sees the same epoch-consistent
/// answers.
#[test]
fn snapshot_is_queried_from_four_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();

    let db = TopoDatabase::from_instance(spatial_core::fixtures::nested_three());
    let snap = db.snapshot();
    let q = PreparedQuery::compile("inside(ext(x), A)").unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let snap = &snap;
                let q = &q;
                scope.spawn(move || {
                    // Mix shared-evaluator prepared runs with ad-hoc parses.
                    let rows = snap.evaluate(q).unwrap();
                    let xs: Vec<String> =
                        rows.bindings().unwrap().iter().map(|r| r["x"].clone()).collect();
                    assert_eq!(xs, ["B", "C"], "thread {i}");
                    assert_eq!(
                        snap.query("contains(A, B) and inside(C, B)").unwrap(),
                        QueryOutput::Bool(true),
                        "thread {i}"
                    );
                    assert_eq!(snap.relation("A", "B").unwrap().name(), "contains");
                    assert!(snap.homeomorphic_to(snap), "thread {i}");
                    snap.thematic().relation("Faces").map_or(0, |faces| faces.len())
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "all threads agree: {counts:?}");
    });
    // The concurrent burst shares one evaluator.
    assert!(Arc::ptr_eq(&snap.evaluator(), &snap.evaluator()));
}

/// The database itself is `Sync` (atomically published epochs): four scoped
/// threads *acquire* snapshots concurrently from one shared
/// `&TopoDatabase` — not merely read through a pre-acquired snapshot —
/// and none of them builds: the root was built before the constructor
/// returned.
#[test]
fn snapshots_are_acquired_concurrently_from_four_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TopoDatabase>();

    let db = clustered_db(4, 3);
    assert_eq!(db.complex_build_count(), 1, "the root is built before the database is returned");
    let head = db.snapshot().complex_view();
    let rebuilds = db.component_rebuild_count();
    assert_eq!(rebuilds, head.component_count() as u64, "every root component is a rebuild");
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").unwrap();
    let snaps: Vec<Snapshot> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (db, query) = (&db, &query);
                scope.spawn(move || {
                    let snap = db.snapshot();
                    // Every thread reads through its own freshly acquired
                    // snapshot while the others are still acquiring.
                    assert_eq!(snap.len(), 12);
                    let matrix = snap.relation_matrix().unwrap();
                    assert_eq!(matrix.len(), 12 * 11 / 2);
                    assert!(snap.evaluate(query).unwrap().bindings().is_some());
                    snap
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All acquisitions observed the same epoch, and none of them built.
    assert!(snaps.iter().all(|s| s.epoch() == snaps[0].epoch()));
    assert_eq!(db.complex_build_count(), 1, "concurrent reads build nothing");
    assert_eq!(db.component_rebuild_count(), rebuilds, "concurrent reads rebuild no component");
    for s in &snaps {
        assert!(Arc::ptr_eq(&s.complex_view(), &head), "every thread shares the head's view");
    }
}

/// `Snapshot::relations_of` returns one region's row of the relation
/// matrix, consistent with the full matrix.
#[test]
fn relations_of_matches_the_relation_matrix() {
    let db = TopoDatabase::from_instance(spatial_core::fixtures::nested_three());
    let snap = db.snapshot();
    let row = snap.relations_of("B").unwrap();
    assert_eq!(row.len(), snap.len() - 1);
    for (other, rel) in &row {
        let direct = snap.relation("B", other).unwrap();
        assert_eq!(*rel, direct, "B vs {other}");
    }
    assert!(snap.relations_of("Nope").is_err());
}

/// Rollback (explicit or by drop) leaves the database untouched.
#[test]
fn rollback_discards_buffered_operations() {
    let mut db = TopoDatabase::new();
    insert(&mut db, "A", Region::rect_from_ints(0, 0, 4, 4));
    let epoch = db.update_epoch();

    let mut txn = db.begin();
    txn.insert("B", Region::rect_from_ints(10, 0, 14, 4));
    txn.remove("A");
    txn.rollback();
    assert_eq!(db.snapshot().names(), ["A"]);
    assert_eq!(db.update_epoch(), epoch);

    {
        let mut txn = db.begin();
        txn.insert("C", Region::rect_from_ints(20, 0, 24, 4));
        // dropped without commit
    }
    assert_eq!(db.snapshot().names(), ["A"]);
    assert_eq!(db.update_epoch(), epoch);
}

/// Parse errors surfaced by the facade carry the byte position of the
/// offending token.
#[test]
fn parse_errors_point_at_the_offending_token() {
    let db = TopoDatabase::from_instance(spatial_core::fixtures::fig_1c());
    let err = db.snapshot().query("overlap(A, B) %").unwrap_err();
    assert_eq!(err.parse_position(), Some(14));
    assert!(err.to_string().contains("at byte 14"), "{err}");
    let err = db.snapshot().query("overlap(A,").unwrap_err();
    assert_eq!(err.parse_position(), None);
    assert!(err.to_string().contains("at end of input"), "{err}");
}

/// Replacing a region with an identical one changes nothing: no epoch bump,
/// no eviction.
#[test]
fn identical_replacement_is_a_noop() {
    let mut db = TopoDatabase::new();
    insert(&mut db, "A", Region::rect_from_ints(0, 0, 4, 4));
    let _ = db.snapshot();
    let epoch = db.update_epoch();
    let builds = db.complex_build_count();

    let mut txn = db.begin();
    txn.insert("A", Region::rect_from_ints(0, 0, 4, 4));
    let commit = txn.commit();
    assert!(commit.changed.is_empty(), "identical geometry is not a change");
    assert_eq!(commit.epoch, epoch);
    let _ = db.snapshot();
    assert_eq!(db.complex_build_count(), builds, "cached view survives");
}

/// A replacement insert inside a transaction counts the name once and the
/// commit still coalesces into one epoch.
#[test]
fn replacement_and_duplicate_names_coalesce() {
    let mut db = TopoDatabase::new();
    insert(&mut db, "A", Region::rect_from_ints(0, 0, 4, 4));
    let epoch = db.update_epoch();

    let mut txn = db.begin();
    txn.insert("A", Region::rect_from_ints(0, 0, 6, 6));
    txn.insert("A", Region::rect_from_ints(0, 0, 8, 8));
    txn.insert("B", Region::rect_from_ints(1, 1, 3, 3));
    let commit = txn.commit();
    assert_eq!(commit.changed, ["A", "B"]);
    assert_eq!(commit.epoch, epoch + 1);
    assert_eq!(db.snapshot().relation("B", "A").unwrap().name(), "inside");
}

/// What a component determines alone — its region boxes, faces and the
/// index over the boxes — is built with it and rides on it across commits:
/// a one-region commit into cluster 0 rebuilds the same components on a map
/// with 4x the clusters, relation reads after it widen no label, and the
/// fresh [`Snapshot::spatial_index`] covers every region and counts one
/// probe per probe.
#[test]
fn a_fresh_snapshot_derives_memos_only_for_rebuilt_components() {
    let small = fresh_snapshot_rebuilds(8);
    assert!(small >= 1);
    assert_eq!(fresh_snapshot_rebuilds(32), small, "work follows the touched component");
    let small = fresh_index_rebuilds(16);
    assert!(small >= 1);
    assert_eq!(fresh_index_rebuilds(64), small, "the index follows the touched component");
}

/// After a one-rectangle commit into the dense map (one 256-region
/// component, rebuilt by the commit), relation reads widen no label: the
/// region boxes and face sets they read came with the component build.
#[test]
fn a_dense_commit_leaves_the_evaluator_and_relation_reads_no_memo_to_build() {
    let mut db = TopoDatabase::from_instance(datagen::jittered_overlap_map(16, 16, 12, 1996));
    let rebuilds = db.component_rebuild_count();
    insert(&mut db, "Fresh", Region::rect_from_ints(17, 17, 31, 29));
    assert_eq!(db.component_rebuild_count() - rebuilds, 1, "the commit rebuilds the component");
    let snapshot = db.snapshot();
    let view = snapshot.complex_view();
    assert_eq!(view.component_count(), 1);
    snapshot.evaluator();
    let names = snapshot.names();
    let met = names.iter().filter(|n| snapshot.relation("Fresh", n).unwrap().name() != "disjoint");
    assert!(met.count() > 1, "reads the boxes cannot answer");
    assert_eq!(view.label_widenings(), 0);
}

/// The components rebuilt by a one-region commit into cluster 0 of
/// `clustered_map(clusters, 16, 1)`, whose fresh snapshot's spatial index
/// covers every region and counts each probe.
fn fresh_index_rebuilds(clusters: usize) -> u64 {
    let mut db = TopoDatabase::from_instance(datagen::clustered_map(clusters, 16, 1));
    let rebuilds = db.component_rebuild_count();

    insert(&mut db, "Fresh", Region::rect_from_ints(3, 3, 11, 9));
    let rebuilt = db.component_rebuild_count() - rebuilds;
    let snapshot = db.snapshot();
    let view = snapshot.complex_view();
    let index = snapshot.spatial_index();
    assert_eq!((index.len(), index.entry_count()), (snapshot.len(), snapshot.len()));

    let fresh = view.region_index("Fresh").unwrap();
    let fresh_box = view.region_bboxes()[fresh].clone().unwrap();
    let before = index.probe_count();
    for k in 1..=3 {
        assert!(index.bbox_neighbors(&fresh_box).contains(&fresh));
        assert_eq!(index.probe_count(), before + k, "one count per probe");
    }
    assert!(Arc::ptr_eq(&index, &snapshot.spatial_index()), "one index per snapshot");
    rebuilt
}

/// The components rebuilt by a one-region commit into cluster 0 of
/// `clustered_db(clusters, 6)`, whose fresh snapshot answers relation reads
/// and a query that resolves every name without widening a label.
fn fresh_snapshot_rebuilds(clusters: usize) -> u64 {
    let every_name = PreparedQuery::compile("forallname a . subset(ext(a), ext(a))").unwrap();
    let mut db = clustered_db(clusters, 6);
    let rebuilds = db.component_rebuild_count();

    insert(&mut db, "Fresh", Region::rect_from_ints(2, 2, 9, 9));
    let rebuilt = db.component_rebuild_count() - rebuilds;
    let snapshot = db.snapshot();
    let view = snapshot.complex_view();
    let near = snapshot.relation("Fresh", "C000_R005").unwrap();
    assert_ne!(near.name(), "disjoint", "a read the boxes cannot answer");
    assert_eq!(snapshot.relation("Fresh", "C001_R000").unwrap().name(), "disjoint");
    assert_eq!(view.label_widenings(), 0, "relation reads widen no label");
    snapshot.evaluate(&every_name).unwrap();
    rebuilt
}

/// A snapshot's evaluator plans with the snapshot's own spatial index: one
/// build and one probe counter, so a join's probes show on
/// [`Snapshot::spatial_index`].
#[test]
fn the_evaluator_probes_the_snapshot_spatial_index() {
    let db = clustered_db(4, 3);
    let snapshot = db.snapshot();
    assert!(Arc::ptr_eq(snapshot.evaluator().spatial_index(), &snapshot.spatial_index()));
    let join = PreparedQuery::compile("connect(ext(x), ext(y))").unwrap();
    let before = snapshot.spatial_index().probe_count();
    let rows = snapshot.evaluate(&join).unwrap();
    assert!(rows.bindings().unwrap().len() >= snapshot.len(), "every region meets itself");
    assert!(
        snapshot.spatial_index().probe_count() > before,
        "the join's candidate probes count on the snapshot's index"
    );
}

/// The invariant copied from a snapshot's view equals the one copied
/// from the flat copy of the same complex, after every commit of a
/// randomized trace over a one-component overlap map and a clustered map.
#[test]
fn snapshot_invariant_equals_the_flat_reference_along_a_commit_trace() {
    for (context, start) in [
        ("jittered_overlap_map(4, 4, 12, 7)", datagen::jittered_overlap_map(4, 4, 12, 7)),
        ("clustered_map(4, 4, 7)", datagen::clustered_map(4, 4, 7)),
    ] {
        let mut db = TopoDatabase::from_instance(start);
        for (step, batch) in datagen::op_trace(40, 0x1417).iter().enumerate() {
            let mut txn = db.begin();
            for op in batch {
                match op {
                    TraceOp::Insert(name, region) => txn.insert(name.clone(), region.clone()),
                    TraceOp::Remove(name) => txn.remove(name.clone()),
                };
            }
            txn.commit();
            let snapshot = db.snapshot();
            let flat = snapshot.complex_view().to_cell_complex();
            assert!(
                Invariant::from_complex(snapshot.complex_view().as_ref())
                    == Invariant::from_complex(&flat),
                "step {step} on {context}"
            );
        }
    }
}
