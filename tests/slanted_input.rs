//! Slanted input at thousands of units and beyond.
//!
//! Every topobench family and nearly every `datagen` family is rectilinear,
//! and the slanted ones stay below 100 units, so no other suite builds an
//! arrangement whose intersection points carry large denominators. Two
//! regions suffice: a quadrilateral and a triangle whose edges all slant,
//! crossing each other at rational points whose denominators grow with
//! k². Any predicate that accumulates over those points, such as a
//! signed-area sum over a face walk, overflows `i128` from k = 2 000; one
//! that multiplies their differences, such as a rotation sort over piece
//! vectors, from k = 15 617, and a crossing-parity test over rings of such
//! points from k = 70 889. The builder does none of these: it ranks the
//! input directions once (degree 2), orders rotations and picks outer walks
//! by integer keys, and tests a ray against each piece's input segment. A
//! third triangle nested in both adds the nesting tests of a skeleton
//! inside a face bounded by such points; it commits as far as the pair
//! (sampled to k = 5·10⁷), and both first fail at k = 10⁸ in the sweep's
//! point comparisons. That failure is the last test's input: a durable
//! database survives a commit whose build panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use topodb::invariant::validate;
use topodb::relations::Relation4;
use topodb::spatial_core::prelude::*;
use topodb::wal::SimFs;
use topodb::{StorageOptions, TopoDatabase};

/// The quadrilateral `a` and the triangle `b` at scale `k`.
fn slanted_pair(k: i64) -> Vec<(&'static str, Region)> {
    let a = Region::polygon_from_ints(&[(0, 0), (k, 1), (k - 3, k - 1), (1, k - 7)])
        .expect("slanted quadrilateral");
    let b = Region::polygon_from_ints(&[(k / 3, -5), (k + 11, k / 2 + 3), (k / 2 - 1, k + 13)])
        .expect("slanted triangle");
    vec![("a", a), ("b", b)]
}

/// The pair plus a small triangle `c` inside both.
fn slanted_pair_with_nested(k: i64) -> Vec<(&'static str, Region)> {
    let (x, y) = (3 * k / 5, k / 2);
    let c = Region::polygon_from_ints(&[(x, y), (x + 7, y + 1), (x + 2, y + 9)])
        .expect("nested triangle");
    let mut regions = slanted_pair(k);
    regions.push(("c", c));
    regions
}

/// Commit the regions in one transaction and check the relations the
/// snapshot serves and the validity of its invariant.
fn commit_and_check(k: i64, regions: Vec<(&str, Region)>, expected: &[(&str, &str, Relation4)]) {
    let mut db = TopoDatabase::new();
    let mut txn = db.begin();
    for (name, region) in regions {
        txn.insert(name, region);
    }
    txn.try_commit().unwrap_or_else(|e| panic!("k = {k}: commit failed: {e}"));
    let snapshot = db.snapshot();
    for &(p, q, relation) in expected {
        assert_eq!(snapshot.relation(p, q).unwrap(), relation, "k = {k}: {p}–{q}");
    }
    let errors = validate(snapshot.complex_view().as_ref());
    assert!(errors.is_empty(), "k = {k}: invalid invariant: {errors:?}");
}

fn check_pair(k: i64) {
    commit_and_check(k, slanted_pair(k), &[("a", "b", Relation4::Overlap)]);
}

#[test]
fn slanted_pair_at_k_2_000() {
    check_pair(2_000);
}

#[test]
fn slanted_pair_at_k_10_000() {
    check_pair(10_000);
}

#[test]
fn slanted_pair_at_k_100_000() {
    check_pair(100_000);
}

#[test]
fn slanted_pair_at_k_900_000() {
    check_pair(900_000);
}

fn check_nested(k: i64) {
    commit_and_check(
        k,
        slanted_pair_with_nested(k),
        &[
            ("a", "b", Relation4::Overlap),
            ("a", "c", Relation4::Contains),
            ("b", "c", Relation4::Contains),
        ],
    );
}

#[test]
fn slanted_pair_with_nested_triangle_at_k_50_000() {
    check_nested(50_000);
}

#[test]
fn slanted_pair_with_nested_triangle_at_k_70_889() {
    check_nested(70_889);
}

#[test]
fn slanted_pair_with_nested_triangle_at_k_1_000_000() {
    check_nested(1_000_000);
}

/// A commit whose build panics leaves a durable database as it was: not
/// degraded, nothing logged, the next commit accepted, and a reopen that
/// recovers exactly the committed names. The slanted pair at k = 10⁸
/// overflows `i128` in the sweep's point comparisons.
#[test]
fn a_durable_database_survives_a_commit_whose_build_panics() {
    let sim = SimFs::new();
    let options = || StorageOptions::default().with_vfs(Arc::new(sim.clone()));
    let rectangle = SpatialInstance::from_regions([("r", Region::rect_from_ints(0, 0, 4, 4))]);
    let mut db = TopoDatabase::create_with_storage("/db", rectangle, options()).expect("create on a SimFs");
    let before = db.health();

    let commit = catch_unwind(AssertUnwindSafe(|| {
        let mut txn = db.begin();
        for (name, region) in slanted_pair(100_000_000) {
            txn.insert(name, region);
        }
        txn.try_commit().map(|_| ())
    }));
    assert!(commit.is_err(), "the build at k = 10⁸ panics");
    let after = db.health();
    assert!(after.degraded.is_none(), "a panicking build is not a storage failure: {:?}", after.degraded);
    assert_eq!(after.wal_head_epoch, before.wal_head_epoch, "nothing was logged");
    assert_eq!(after.epoch, before.epoch, "nothing was published");

    let mut txn = db.begin();
    txn.insert("s", Region::rect_from_ints(10, 10, 14, 14));
    txn.try_commit().expect("the next commit succeeds");
    assert_eq!(db.health().wal_head_epoch, before.wal_head_epoch.map(|e| e + 1));
    drop(db);
    sim.power_cycle();

    let reopened = TopoDatabase::open_with_storage("/db", options()).expect("reopen");
    assert_eq!(reopened.snapshot().names(), ["r", "s"]);
}
