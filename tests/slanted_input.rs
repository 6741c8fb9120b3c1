//! Slanted input at thousands of units.
//!
//! Every topobench family and nearly every `datagen` family is rectilinear,
//! and the slanted ones stay below 100 units, so no other suite builds an
//! arrangement whose intersection points carry large denominators. Two
//! regions suffice: a quadrilateral and a triangle whose edges all slant,
//! crossing each other at rational points whose denominators grow with
//! k². At k = 2 000 and 10 000 any predicate that accumulates over those
//! points, such as a signed-area sum over a face walk, overflows `i128`.

use topodb::invariant::validate;
use topodb::relations::Relation4;
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

/// The quadrilateral `a` and the triangle `b` at scale `k`.
fn slanted_pair(k: i64) -> [(&'static str, Region); 2] {
    let a = Region::polygon_from_ints(&[(0, 0), (k, 1), (k - 3, k - 1), (1, k - 7)])
        .expect("slanted quadrilateral");
    let b = Region::polygon_from_ints(&[(k / 3, -5), (k + 11, k / 2 + 3), (k / 2 - 1, k + 13)])
        .expect("slanted triangle");
    [("a", a), ("b", b)]
}

/// Commit the pair in one transaction and check what the snapshot serves.
fn commit_and_check(k: i64) {
    let mut db = TopoDatabase::new();
    let mut txn = db.begin();
    for (name, region) in slanted_pair(k) {
        txn.insert(name, region);
    }
    txn.try_commit().unwrap_or_else(|e| panic!("k = {k}: commit failed: {e}"));
    let snapshot = db.snapshot();
    assert_eq!(snapshot.relation("a", "b").unwrap(), Relation4::Overlap, "k = {k}");
    let errors = validate(&snapshot.invariant());
    assert!(errors.is_empty(), "k = {k}: invalid invariant: {errors:?}");
}

#[test]
fn slanted_pair_at_k_2_000() {
    commit_and_check(2_000);
}

#[test]
fn slanted_pair_at_k_10_000() {
    commit_and_check(10_000);
}
