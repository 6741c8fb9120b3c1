//! The thematic mapping: storing the invariant as a classical relational
//! database (Section 3, Example 3.6, Corollary 3.7).
//!
//! The paper defines a fixed relational schema `Th` and a mapping
//! `thematic(·)` from spatial instances to relational instances over `Th`
//! such that all topological queries on `I` can be answered by classical
//! queries on `thematic(I)`. The schema is:
//!
//! 1. `Regions`, `Vertices`, `Edges`, `Faces`, `ExteriorFace` — unary
//!    relations listing the region names and the cells by dimension;
//! 2. `Endpoints(edge, v1, v2)` — the endpoint(s) of every edge;
//! 3. `FaceEdges(face, edge)` — the edges on each face's boundary;
//! 4. `RegionFaces(region, face)` — the faces making up each region;
//! 5. `Orientation(dir, vertex, edge, edge)` — consecutive edges around each
//!    vertex, clockwise (`cw`) and counter-clockwise (`ccw`).
//!
//! Cell identifiers are `v0, v1, …`, `e0, …`, `f0, …` with `f0`-style naming
//! chosen so the exterior face reads like the paper's `f0` in examples.

use arrangement::{ComplexRead, Sign};
use relstore::{Database, Value};
use std::collections::BTreeSet;

/// Names of the relations in the thematic schema `Th`.
pub const TH_RELATIONS: [&str; 9] = [
    "Regions",
    "Vertices",
    "Edges",
    "Faces",
    "ExteriorFace",
    "Endpoints",
    "FaceEdges",
    "RegionFaces",
    "Orientation",
];

/// The identifier used for a vertex in the thematic database.
pub fn vertex_id(v: usize) -> String {
    format!("v{v}")
}

/// The identifier used for an edge in the thematic database.
pub fn edge_id(e: usize) -> String {
    format!("e{e}")
}

/// The identifier used for a face in the thematic database.
pub fn face_id(f: usize) -> String {
    format!("f{f}")
}

/// Compute `thematic(I)` from the invariant of `I`: any [`ComplexRead`],
/// such as a snapshot's view or an owned [`Invariant`](crate::Invariant).
pub fn to_database<C: ComplexRead>(complex: &C) -> Database {
    let mut db = Database::new();
    for name in TH_RELATIONS {
        let arity = match name {
            "Endpoints" => 3,
            "FaceEdges" | "RegionFaces" => 2,
            "Orientation" => 4,
            _ => 1,
        };
        db.create_relation(name, arity);
    }
    for name in complex.region_names() {
        db.insert("Regions", vec![Value::sym(name.clone())]);
    }
    for v in 0..complex.vertex_count() {
        db.insert("Vertices", vec![Value::sym(vertex_id(v))]);
    }
    for e in complex.edge_ids() {
        db.insert("Edges", vec![Value::sym(edge_id(e.0))]);
        let (t, h) = complex.edge_endpoints(e);
        db.insert(
            "Endpoints",
            vec![Value::sym(edge_id(e.0)), Value::sym(vertex_id(t.0)), Value::sym(vertex_id(h.0))],
        );
    }
    for f in complex.face_ids() {
        db.insert("Faces", vec![Value::sym(face_id(f.0))]);
        for e in complex.face_boundary(f) {
            db.insert("FaceEdges", vec![Value::sym(face_id(f.0)), Value::sym(edge_id(e.0))]);
        }
    }
    db.insert("ExteriorFace", vec![Value::sym(face_id(complex.exterior_face().0))]);
    // One pass over the face labels' `Interior` entries, inverted per region.
    let mut region_faces: Vec<Vec<usize>> = vec![Vec::new(); complex.region_names().len()];
    for f in complex.face_ids() {
        for (r, _) in complex.face_label(f).iter().filter(|&(_, s)| s == Sign::Interior) {
            region_faces[r].push(f.0);
        }
    }
    for (name, faces) in complex.region_names().iter().zip(region_faces) {
        for f in faces {
            db.insert("RegionFaces", vec![Value::sym(name.clone()), Value::sym(face_id(f))]);
        }
    }
    for (cw, v, e1, e2) in complex.orientation_relation() {
        let dir = if cw { "cw" } else { "ccw" };
        db.insert(
            "Orientation",
            vec![
                Value::sym(dir),
                Value::sym(vertex_id(v.0)),
                Value::sym(edge_id(e1.0)),
                Value::sym(edge_id(e2.0)),
            ],
        );
    }
    db
}

/// Corollary 3.7(ii): two thematic instances represent topologically
/// equivalent spatial instances iff they are isomorphic by an isomorphism
/// that is the identity on region names (and on the two orientation tags).
///
/// This compares the relational instances directly; for large instances the
/// invariant-level comparison ([`crate::isomorphism::isomorphic`]) is much
/// faster and equivalent.
pub fn thematic_isomorphic(a: &Database, b: &Database) -> bool {
    let mut fixed: BTreeSet<Value> = BTreeSet::new();
    fixed.insert(Value::sym("cw"));
    fixed.insert(Value::sym("ccw"));
    if let Some(regions) = a.relation("Regions") {
        for t in regions.iter() {
            fixed.insert(t[0].clone());
        }
    }
    a.isomorphic_fixing(b, &fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Invariant;
    use spatial_core::fixtures;

    #[test]
    fn fig_1c_thematic_matches_example_3_6() {
        // The paper's Fig. 9 lists the thematic instance of Fig. 1c:
        // 2 regions, 2 vertices, 4 edges, 4 faces, 1 exterior face,
        // 4 Endpoints tuples, 8 Face-Edges tuples, 4 Region-Faces tuples
        // (faces f1..f3 distributed over A and B: A has 2 faces, B has 2),
        // and 16 Orientation tuples (Example 3.3).
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        let db = to_database(&inv);
        assert_eq!(db.relation("Regions").unwrap().len(), 2);
        assert_eq!(db.relation("Vertices").unwrap().len(), 2);
        assert_eq!(db.relation("Edges").unwrap().len(), 4);
        assert_eq!(db.relation("Faces").unwrap().len(), 4);
        assert_eq!(db.relation("ExteriorFace").unwrap().len(), 1);
        assert_eq!(db.relation("Endpoints").unwrap().len(), 4);
        assert_eq!(db.relation("FaceEdges").unwrap().len(), 8);
        assert_eq!(db.relation("RegionFaces").unwrap().len(), 4);
        assert_eq!(db.relation("Orientation").unwrap().len(), 16);
    }

    #[test]
    fn thematic_isomorphism_tracks_homeomorphism() {
        let a = to_database(&Invariant::of_instance(&fixtures::fig_1c()));
        let b = to_database(&Invariant::of_instance(&fixtures::fig_1c().translated(50, 3)));
        assert!(thematic_isomorphic(&a, &b));
        let d = to_database(&Invariant::of_instance(&fixtures::fig_1d()));
        assert!(!thematic_isomorphic(&a, &d));
    }

    #[test]
    fn schema_relations_all_present() {
        let db = to_database(&Invariant::of_instance(&fixtures::nested_three()));
        for name in TH_RELATIONS {
            assert!(db.relation(name).is_some(), "{name} missing");
        }
        // The exterior face is listed among the faces.
        let ext = db.relation("ExteriorFace").unwrap().iter().next().unwrap()[0].clone();
        assert!(db.holds("Faces", &[ext]));
    }
}
