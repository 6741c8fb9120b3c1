//! Differential tests for incremental arrangement maintenance: after every
//! step of a randomized insert/remove schedule on a clustered instance, the
//! incrementally maintained complex and invariant of a long-lived
//! [`TopoDatabase`] must be equal (up to cell re-indexing) to a from-scratch
//! rebuild of the same instance — checked via cell counts, label multisets
//! and [`Snapshot::homeomorphic_to`](topodb::Snapshot::homeomorphic_to).
//!
//! A second suite pins the locality guarantee itself: on a multi-cluster
//! map, an update touching one cluster re-sweeps only the affected
//! component(s) while every untouched `Arc<ComponentComplex>` is reused
//! pointer-identically — and partitions only that cluster's segments, the
//! same number whatever the size of the rest of the database.

use datagen::cluster_rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, PoisonError, RwLock};
use topodb::arrangement::counters::phase_counters;
use topodb::arrangement::{CellComplex, ComplexRead, Label};
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

/// The `arrangement` work counters are process-wide and the tests of this
/// binary run in parallel: every test that commits holds this lock shared,
/// the one that differences the counters around a commit holds it alone.
static WORK_COUNTERS: RwLock<()> = RwLock::new(());

fn insert(db: &mut TopoDatabase, name: impl Into<String>, region: Region) {
    let mut txn = db.begin();
    txn.insert(name, region);
    txn.commit();
}

/// Remove `name`; whether it was present.
fn remove(db: &mut TopoDatabase, name: &str) -> bool {
    let mut txn = db.begin();
    txn.remove(name);
    !txn.commit().changed.is_empty()
}

/// The flat complex of the current epoch.
fn flat(db: &TopoDatabase) -> CellComplex {
    db.snapshot().complex_view().to_cell_complex()
}

/// Sorted label multisets of all cells — a re-indexing-invariant summary.
fn label_multisets(c: &CellComplex) -> (Vec<Label>, Vec<Label>, Vec<Label>) {
    let mut v: Vec<Label> = c.vertex_ids().map(|x| c.vertex_label(x)).collect();
    let mut e: Vec<Label> = c.edge_ids().map(|x| c.edge_label(x)).collect();
    let mut f: Vec<Label> = c.face_ids().map(|x| c.face_label(x)).collect();
    v.sort();
    e.sort();
    f.sort();
    (v, e, f)
}

fn assert_equals_fresh_rebuild(db: &TopoDatabase, context: &str) {
    let fresh = TopoDatabase::from_instance((*db.instance()).clone());
    let (c, fc) = (flat(db), flat(&fresh));
    assert_eq!(c.vertex_count(), fc.vertex_count(), "vertex count diverged {context}");
    assert_eq!(c.edge_count(), fc.edge_count(), "edge count diverged {context}");
    assert_eq!(c.face_count(), fc.face_count(), "face count diverged {context}");
    assert!(c.euler_formula_holds(), "euler relation broken {context}");
    assert_eq!(
        label_multisets(&c),
        label_multisets(&fc),
        "cell label multisets diverged {context}"
    );
    assert!(
        db.snapshot().homeomorphic_to(&fresh.snapshot()),
        "invariant not isomorphic to from-scratch rebuild {context}"
    );
}

#[test]
fn randomized_update_schedules_match_from_scratch_rebuilds() {
    let _shared = WORK_COUNTERS.read().unwrap_or_else(PoisonError::into_inner);
    // 30 schedules x 5 steps = 150 update steps, each followed by a full
    // differential comparison against a from-scratch rebuild.
    let clusters = 4usize;
    for schedule in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(9000 + schedule);
        let mut db = TopoDatabase::from_instance(datagen::clustered_map(clusters, 3, schedule));
        let mut extra = 0usize;
        for step in 0..5 {
            // Mix of operations: insert a fresh region, replace an existing
            // one, or remove one — always targeting a random cluster.
            let cluster = rng.gen_range(0..clusters);
            let op = rng.gen_range(0..3u32);
            let context = format!("(schedule {schedule}, step {step}, op {op})");
            match op {
                0 => {
                    let region = cluster_rect(&mut rng, cluster, clusters);
                    insert(&mut db, format!("X{extra:03}"), region);
                    extra += 1;
                }
                1 => {
                    let names = db.snapshot().names();
                    let name = names[rng.gen_range(0..names.len())].clone();
                    let region = cluster_rect(&mut rng, cluster, clusters);
                    insert(&mut db, name, region);
                }
                _ => {
                    let names = db.snapshot().names();
                    if names.len() > 1 {
                        let name = names[rng.gen_range(0..names.len())].clone();
                        assert!(remove(&mut db, &name), "remove failed {context}");
                    }
                }
            }
            assert_equals_fresh_rebuild(&db, &context);
        }
    }
}

#[test]
fn update_to_one_cluster_reuses_every_other_component() {
    let _shared = WORK_COUNTERS.read().unwrap_or_else(PoisonError::into_inner);
    // The acceptance scenario: a 16-cluster map; an insert touching one
    // cluster followed by a read re-sweeps only the affected component(s)
    // while all untouched components are returned pointer-identically.
    let clusters = 16usize;
    let mut db = TopoDatabase::from_instance(datagen::clustered_map(clusters, 4, 42));
    let before_components = db.component_complexes();
    assert!(
        before_components.len() >= clusters,
        "each cluster contributes at least one component"
    );
    let builds_before = db.complex_build_count();
    let rebuilds_before = db.component_rebuild_count();

    // Insert a rectangle covering most of cluster 0's area.
    let (ox, oy) = datagen::cluster_origin(0, clusters);
    let span = datagen::CLUSTER_SPAN;
    insert(&mut db, "Update", Region::rect_from_ints(ox + 2, oy + 2, ox + span - 4, oy + span - 4));
    let _ = db.snapshot().relation_matrix().unwrap();

    assert_eq!(db.complex_build_count(), builds_before + 1, "one re-assembly");
    let rebuilt = db.component_rebuild_count() - rebuilds_before;
    assert!(
        (1..=2).contains(&rebuilt),
        "only the affected component(s) may be re-swept, got {rebuilt}"
    );

    // Every component not involving cluster 0 must be the same allocation.
    let after: std::collections::BTreeMap<Vec<String>, Arc<topodb::arrangement::ComponentComplex>> =
        db.component_complexes().into_iter().collect();
    let mut untouched = 0usize;
    for (key, arc_before) in &before_components {
        if key.iter().any(|n| n.starts_with("C000_")) {
            continue; // cluster 0: allowed to be rebuilt
        }
        let arc_after = after.get(key).unwrap_or_else(|| {
            panic!("component {key:?} disappeared though the update did not touch it")
        });
        assert!(
            Arc::ptr_eq(arc_before, arc_after),
            "component {key:?} was rebuilt though the update did not touch it"
        );
        untouched += 1;
    }
    assert!(untouched >= clusters - 1, "15 of 16 clusters stay cached");

    // The complex still matches a from-scratch rebuild after the update.
    assert_equals_fresh_rebuild(&db, "(acceptance scenario)");
}

#[test]
fn removal_restores_pointer_reuse_and_correctness() {
    let _shared = WORK_COUNTERS.read().unwrap_or_else(PoisonError::into_inner);
    let mut db = TopoDatabase::from_instance(datagen::clustered_map(9, 3, 7));
    db.snapshot();
    let rebuilds_before = db.component_rebuild_count();

    // Remove one region of cluster 4, read, and compare.
    let victim = db
        .snapshot()
        .names()
        .iter()
        .find(|n| n.starts_with("C004_"))
        .expect("cluster 4 has regions")
        .clone();
    assert!(remove(&mut db, &victim));
    assert_equals_fresh_rebuild(&db, "(after removal)");
    let rebuilt = db.component_rebuild_count() - rebuilds_before;
    assert!(rebuilt <= 3, "a removal re-sweeps at most the split cluster, got {rebuilt}");
    assert_eq!(db.update_epoch(), 1);
}

#[test]
fn epoch_counter_tracks_updates() {
    let _shared = WORK_COUNTERS.read().unwrap_or_else(PoisonError::into_inner);
    let mut db = TopoDatabase::new();
    assert_eq!(db.update_epoch(), 0);
    insert(&mut db, "A", Region::rect_from_ints(0, 0, 4, 4));
    insert(&mut db, "B", Region::rect_from_ints(10, 0, 14, 4));
    assert_eq!(db.update_epoch(), 2);
    remove(&mut db, "A");
    assert_eq!(db.update_epoch(), 3);
    // Reads never advance the epoch.
    let _ = db.snapshot().relation_matrix().unwrap();
    let _ = db.snapshot().thematic();
    assert_eq!(db.update_epoch(), 3);
}

#[test]
fn a_commit_partitions_its_cluster_only_whatever_the_database_size() {
    let _alone = WORK_COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    // Segments handed to the partitioner by a one-rectangle commit into
    // cluster 0 of a `clusters`-cluster map, next to the segment counts of
    // that cluster and of the whole map. The seed fixes cluster 0's sixteen
    // rectangles (the first sixteen draws) independently of `clusters`.
    let commit_into_cluster_0 = |clusters: usize| {
        let instance = datagen::clustered_map(clusters, 16, 42);
        let segments = |prefix: &str| -> u64 {
            instance
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, region)| region.boundary().len() as u64)
                .sum()
        };
        let (cluster, total) = (segments("C000_"), segments("C"));
        let db = TopoDatabase::from_instance(instance);
        db.snapshot();
        let before = phase_counters();
        let mut txn = db.begin_shared();
        txn.insert("Update", Region::rect_from_ints(3, 3, 9, 9));
        txn.commit();
        let partitioned = phase_counters().delta_since(&before).segments_partitioned;
        (partitioned, cluster, total)
    };

    let (small, cluster, _) = commit_into_cluster_0(16);
    let (large, same_cluster, total) = commit_into_cluster_0(64);
    assert_eq!(cluster, same_cluster, "cluster 0 is the same geometry in both maps");
    assert!(total > 4000, "the large map has {total} segments");
    assert!(large >= 4, "the new rectangle itself is partitioned");
    assert!(
        large <= cluster + 4,
        "partitioned {large} segments; cluster 0 has {cluster} and the new region 4"
    );
    assert_eq!(small, large, "four times the database, the same partition work");
}

#[test]
fn a_commit_into_the_dense_map_re_sweeps_only_its_neighbourhood() {
    let _alone = WORK_COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    // The benchmark's dense map: one component of 256 overlapping parcels,
    // 1 024 segments. A commit into it rebuilds that component, but re-splits
    // only the segments near the edit; every other cut set is carried.
    let events_of = |work: &mut dyn FnMut()| {
        let before = phase_counters();
        work();
        phase_counters().delta_since(&before).events_processed
    };
    let mut db = TopoDatabase::new();
    let cold = events_of(&mut || {
        db = TopoDatabase::from_instance(datagen::jittered_overlap_map(16, 16, 12, 1996));
        db.snapshot();
    });
    let matches_a_cold_build = |db: &TopoDatabase| {
        let fresh = TopoDatabase::from_instance((*db.instance()).clone());
        db.snapshot().relation_matrix().unwrap() == fresh.snapshot().relation_matrix().unwrap()
    };

    // A rectangle straddling the corner the parcels of rows and columns 5
    // and 6 share, as the benchmark's edits do.
    let edit = Region::rect_from_ints(67, 67, 81, 81);
    let inserted = events_of(&mut || insert(&mut db, "Edit", edit.clone()));
    assert!(5 * inserted <= cold, "the insert swept {inserted} events, the cold build {cold}");
    assert!(matches_a_cold_build(&db), "relations after the insert");

    let removed = events_of(&mut || assert!(remove(&mut db, "Edit")));
    assert!(5 * removed <= cold, "the removal swept {removed} events, the cold build {cold}");
    assert!(matches_a_cold_build(&db), "relations after the removal");
}

#[test]
fn a_removal_from_the_dense_map_re_partitions_only_what_it_may_split() {
    let _alone = WORK_COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    // A component that loses a member keeps its survivors as one unit when
    // its own vertex labels still connect them: the dense map's 255 other
    // parcels reach the partitioner as one representative segment, not as
    // their 1 020 boundary segments.
    let partitioned_by = |work: &mut dyn FnMut()| {
        let before = phase_counters();
        work();
        phase_counters().delta_since(&before).segments_partitioned
    };
    let map = datagen::jittered_overlap_map(16, 16, 12, 1996);
    let map_segments: u64 = map.iter().map(|(_, region)| region.boundary().len() as u64).sum();
    let mut db = TopoDatabase::from_instance(map);
    let components = |db: &TopoDatabase| db.snapshot().complex_view().component_count();

    let removed = partitioned_by(&mut || assert!(remove(&mut db, "P007_007")));
    assert!(removed <= 8, "a parcel's removal partitioned {removed} segments");
    assert_eq!(components(&db), 1, "the other parcels stay one component");
    assert_equals_fresh_rebuild(&db, "after removing a parcel");

    // A removal that does disconnect: `Bridge` joins the map's east column
    // to `Island` (as in `datagen::dense_edit_trace`), and its removal
    // splits them again. The survivors fall into two boundary-connected
    // pieces, whose segment boxes meet nowhere, so each reaches the
    // partitioner as one representative segment, as in the parcel case.
    insert(&mut db, "Island", Region::rect_from_ints(19 * 12, 12, 20 * 12, 24));
    insert(&mut db, "Bridge", Region::rect_from_ints(15 * 12, 15, 19 * 12 + 6, 17));
    assert_eq!(components(&db), 1, "the bridge merges the island into the map");
    let split = partitioned_by(&mut || assert!(remove(&mut db, "Bridge")));
    assert!(split <= 8, "the split partitioned {split} segments of {map_segments}");
    assert_eq!(components(&db), 2, "the map and the island fall apart");
    assert_equals_fresh_rebuild(&db, "after removing the bridge");
}
