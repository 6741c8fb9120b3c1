//! Property-based integration tests over randomly generated instances:
//! structural invariants of the whole pipeline (arrangement → invariant →
//! isomorphism → thematic) that the paper's theorems guarantee.

use topodb::arrangement::ComplexRead;
use proptest::prelude::*;
use topodb::invariant::Invariant;
use topodb::spatial_core::prelude::*;

/// Strategy: a small instance of 1–4 random rectangles with coordinates in a
/// modest range (kept small so the whole pipeline stays fast under proptest).
fn small_instance() -> impl Strategy<Value = SpatialInstance> {
    prop::collection::vec((0i64..20, 0i64..20, 1i64..10, 1i64..10), 1..4).prop_map(|rects| {
        let mut inst = SpatialInstance::new();
        for (i, (x, y, w, h)) in rects.into_iter().enumerate() {
            inst.insert(format!("R{i}"), Region::rect_from_ints(x, y, x + w, y + h));
        }
        inst
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Euler's formula holds for every generated arrangement, and the
    /// invariant it induces passes the Lemma 3.9 validity check.
    #[test]
    fn arrangements_are_planar_and_invariants_valid(inst in small_instance()) {
        let complex = topodb::arrangement::build_complex(&inst);
        prop_assert!(complex.euler_formula_holds());
        let inv = Invariant::from_complex(&complex);
        prop_assert!(topodb::invariant::validate(&inv).is_empty());
        prop_assert_eq!(inv.face_count(), complex.face_count());
    }

    /// Translating an instance (a homeomorphism) never changes its invariant
    /// up to isomorphism, and the isomorphism relation is reflexive.
    #[test]
    fn translation_invariance(inst in small_instance(), dx in -15i64..15, dy in -15i64..15) {
        let inv = Invariant::of_instance(&inst);
        prop_assert!(topodb::invariant::isomorphic(&inv, &inv));
        let moved = Invariant::of_instance(&inst.translated(dx, dy));
        prop_assert!(topodb::invariant::isomorphic(&inv, &moved));
    }

    /// Pairwise 4-intersection relations are converse-consistent and the
    /// relation with itself is `equal`.
    #[test]
    fn relations_are_converse_consistent(inst in small_instance()) {
        let complex = topodb::arrangement::build_complex(&inst);
        let names = inst.names();
        for a in &names {
            for b in &names {
                let ab = topodb::relations::relation_in_complex(&complex, a, b).unwrap();
                let ba = topodb::relations::relation_in_complex(&complex, b, a).unwrap();
                prop_assert_eq!(ab.inverse(), ba);
                if a == b {
                    prop_assert_eq!(ab, topodb::relations::Relation4::Equal);
                }
            }
        }
    }

    /// The snapshot read path agrees with the direct geometric computation:
    /// the binding rows of the set-returning `overlap(ext(x), ext(y))`
    /// prepared query are exactly the overlapping pairs of the relation
    /// matrix, and they are symmetric in x and y.
    #[test]
    fn snapshot_bindings_agree_with_relation_matrix(inst in small_instance()) {
        use topodb::query::PreparedQuery;
        let db = topodb::TopoDatabase::from_instance(inst.clone());
        let snap = db.snapshot();
        let q = PreparedQuery::compile("overlap(ext(x), ext(y))").unwrap();
        let out = snap.evaluate(&q).unwrap();
        let rows = out.bindings().unwrap();
        for (a, b, r) in snap.relation_matrix().unwrap() {
            let ab = rows.iter().any(|row| row["x"] == a && row["y"] == b);
            let ba = rows.iter().any(|row| row["x"] == b && row["y"] == a);
            prop_assert_eq!(ab, r == topodb::relations::Relation4::Overlap);
            prop_assert_eq!(ab, ba);
        }
        // No reflexive rows: a region relates to itself by `equal`.
        prop_assert!(rows.iter().all(|row| row["x"] != row["y"]));
    }

    /// The thematic database always contains the full schema and one
    /// RegionFaces fact per (region, face-of-region) pair.
    #[test]
    fn thematic_schema_is_complete(inst in small_instance()) {
        let inv = Invariant::of_instance(&inst);
        let th = topodb::invariant::thematic::to_database(&inv);
        for rel in topodb::invariant::thematic::TH_RELATIONS {
            prop_assert!(th.relation(rel).is_some());
        }
        let expected: usize = inst
            .names()
            .iter()
            .map(|n| inv.region_faces(n).len())
            .sum();
        prop_assert_eq!(th.relation("RegionFaces").unwrap().len(), expected);
    }
}
