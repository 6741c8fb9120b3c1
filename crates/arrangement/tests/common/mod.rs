//! Shared helpers for the differential test suites.

use arrangement::ComplexGeometry;
use spatial_core::prelude::Point;

/// A re-indexing-invariant fingerprint of any complex representation,
/// computed through the [`ComplexGeometry`] accessor surface (so it also
/// exercises the translation layer of the zero-copy view end to end):
/// sorted multisets of vertices (point, label, degree), edges
/// (direction-canonicalized polyline, label, boundary-region *names*) and
/// faces (label, exterior flag, boundary size).
///
/// Two complexes of the same instance must produce equal fingerprints
/// whatever construction path, assembly representation or thread count
/// produced them.
pub fn fingerprint<C: ComplexGeometry>(c: &C) -> (Vec<String>, Vec<String>, Vec<String>) {
    let mut vertices: Vec<String> = c
        .vertex_ids()
        .map(|v| {
            format!(
                "{:?} {:?} deg={}",
                c.vertex_point(v),
                c.vertex_label(v),
                c.vertex_rotation(v).len()
            )
        })
        .collect();
    vertices.sort();
    let mut edges: Vec<String> = c
        .edge_ids()
        .map(|e| {
            let mut pl = c.edge_polyline(e).to_vec();
            let rev: Vec<Point> = pl.iter().rev().copied().collect();
            if rev < pl {
                pl = rev;
            }
            let marks: Vec<&str> =
                c.edge_region_marks(e).iter().map(|&r| c.region_names()[r].as_str()).collect();
            format!("{:?} {:?} {:?}", pl, c.edge_label(e), marks)
        })
        .collect();
    edges.sort();
    let mut faces: Vec<String> = c
        .face_ids()
        .map(|f| {
            format!(
                "{:?} ext={} nbound={}",
                c.face_label(f),
                c.face_is_exterior(f),
                c.face_boundary(f).len()
            )
        })
        .collect();
    faces.sort();
    (vertices, edges, faces)
}
