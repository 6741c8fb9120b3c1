//! The topological invariant `T_I` as a purely combinatorial structure.
//!
//! Following Section 3 of the paper, the invariant of a spatial instance `I`
//! is the finite structure `T_I = (V, E, δ, f0, l, O)`:
//!
//! * the cells of the maximal cell complex of `I` (vertices, edges, faces)
//!   with their dimensions `δ`,
//! * the adjacency (closure-containment) relation `E` between cells, here
//!   stored as edge endpoints, edge↔face sides and face boundary-edge sets,
//! * the designated exterior face `f0`,
//! * the labeling `l` assigning to every cell its sign (`o`, `∂`, `−`) with
//!   respect to every region,
//! * the orientation relation `O`: the cyclic order of edge-ends (darts)
//!   around every vertex.
//!
//! The structure is purely combinatorial — it contains no coordinates — and
//! by Theorem 3.4 it characterizes the instance up to homeomorphism of the
//! plane. It is exactly what [`ComplexRead`] serves, so every algorithm of
//! this crate reads a `ComplexRead`: a snapshot's zero-copy view as it
//! stands, or the owned copy [`Invariant`] defined here.

use arrangement::{ComplexRead, DartId, EdgeId, FaceId, Label, Runs, Sign, VertexId};
use spatial_core::prelude::SpatialInstance;
use std::fmt;

/// The topological invariant `T_I` of a spatial database instance, owned:
/// a copy of a complex's [`ComplexRead`] structure that needs no geometry.
/// It is what a caller edits ([`Invariant::with_exterior`],
/// [`Invariant::mirrored`]) and the oracle the zero-copy reads are checked
/// against; it is read through its [`ComplexRead`] implementation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Invariant {
    pub(crate) region_names: Vec<String>,
    pub(crate) vertex_labels: Vec<Label>,
    pub(crate) edge_labels: Vec<Label>,
    pub(crate) face_labels: Vec<Label>,
    /// Tail and head vertex of every edge (equal for a loop).
    pub(crate) edge_endpoints: Vec<(VertexId, VertexId)>,
    /// Left and right face of every edge (left of the forward dart).
    pub(crate) edge_faces: Vec<(FaceId, FaceId)>,
    /// For every face, the sorted set of edges on its boundary, including the
    /// outer boundaries of components embedded in the face.
    pub(crate) face_edges: Runs<EdgeId>,
    /// For every vertex, the counter-clockwise cyclic order of outgoing darts.
    pub(crate) rotation: Runs<DartId>,
    /// The designated exterior face `f0`.
    pub(crate) exterior_face: FaceId,
}

impl Invariant {
    /// Copy the invariant out of a cell complex — the flat
    /// [`arrangement::CellComplex`], the zero-copy
    /// [`arrangement::GlobalComplexView`] or another invariant (any
    /// [`ComplexRead`] implementation; they are index-identical, so the
    /// copy does not depend on the representation).
    pub fn from_complex<C: ComplexRead>(complex: &C) -> Invariant {
        let mut face_edges = Runs::with_capacity(complex.face_count(), 2 * complex.edge_count());
        for f in complex.face_ids() {
            face_edges.push(&complex.face_boundary(f));
        }
        let mut rotation = Runs::with_capacity(complex.vertex_count(), 2 * complex.edge_count());
        for v in complex.vertex_ids() {
            rotation.push(&complex.vertex_rotation(v));
        }
        Invariant {
            region_names: complex.region_names().to_vec(),
            vertex_labels: complex.vertex_ids().map(|v| complex.vertex_label(v)).collect(),
            edge_labels: complex.edge_ids().map(|e| complex.edge_label(e)).collect(),
            face_labels: complex.face_ids().map(|f| complex.face_label(f)).collect(),
            edge_endpoints: complex.edge_ids().map(|e| complex.edge_endpoints(e)).collect(),
            edge_faces: complex.edge_ids().map(|e| complex.edge_faces(e)).collect(),
            face_edges,
            rotation,
            exterior_face: complex.exterior_face(),
        }
    }

    /// Compute the invariant of a spatial instance (builds the zero-copy
    /// complex view internally). This is the paper's Theorem 3.5
    /// construction, restricted to polygonal inputs.
    pub fn of_instance(instance: &SpatialInstance) -> Invariant {
        Invariant::from_complex(&arrangement::build_complex_view(instance))
    }

    /// A copy of the invariant with a different face designated as exterior.
    ///
    /// Used to reproduce the paper's Fig. 6: the resulting structure can be
    /// isomorphic to the original as a labeled graph yet represent a
    /// different homeomorphism class.
    pub fn with_exterior(&self, face: FaceId) -> Invariant {
        assert!(face.0 < self.face_count(), "no such face");
        let mut out = self.clone();
        out.exterior_face = face;
        out
    }

    /// A copy with the orientation (rotation system) of every vertex
    /// reversed. The result describes the mirror image of the instance and is
    /// always isomorphic to the original (reflections are homeomorphisms).
    pub fn mirrored(&self) -> Invariant {
        let mut out = self.clone();
        for v in 0..out.vertex_count() {
            out.rotation.get_mut(v).reverse();
        }
        // Mirroring also swaps the side of every edge.
        for lr in &mut out.edge_faces {
            *lr = (lr.1, lr.0);
        }
        out
    }
}

impl ComplexRead for Invariant {
    fn region_names(&self) -> &[String] {
        &self.region_names
    }

    fn vertex_count(&self) -> usize {
        self.vertex_labels.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_labels.len()
    }

    fn face_count(&self) -> usize {
        self.face_labels.len()
    }

    fn exterior_face(&self) -> FaceId {
        self.exterior_face
    }

    fn vertex_label(&self, v: VertexId) -> Label {
        self.vertex_labels[v.0].clone()
    }

    fn vertex_rotation(&self, v: VertexId) -> Vec<DartId> {
        self.rotation.get(v.0).to_vec()
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edge_endpoints[e.0]
    }

    fn edge_label(&self, e: EdgeId) -> Label {
        self.edge_labels[e.0].clone()
    }

    fn edge_faces(&self, e: EdgeId) -> (FaceId, FaceId) {
        self.edge_faces[e.0]
    }

    fn face_label(&self, f: FaceId) -> Label {
        self.face_labels[f.0].clone()
    }

    fn face_boundary(&self, f: FaceId) -> Vec<EdgeId> {
        self.face_edges.get(f.0).to_vec()
    }

    fn vertex_sign(&self, v: VertexId, region: usize) -> Sign {
        self.vertex_labels[v.0].sign(region)
    }

    fn edge_sign(&self, e: EdgeId, region: usize) -> Sign {
        self.edge_labels[e.0].sign(region)
    }

    fn face_sign(&self, f: FaceId, region: usize) -> Sign {
        self.face_labels[f.0].sign(region)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for face in self.face_ids() {
            let label = &self.face_labels[face.0];
            let signs: Vec<String> = self
                .region_names
                .iter()
                .enumerate()
                .map(|(r, n)| format!("{n}:{}", label.sign(r)))
                .collect();
            let ext = if face == self.exterior_face { " (exterior)" } else { "" };
            let edges: Vec<usize> = self.face_edges.get(face.0).iter().map(|e| e.0).collect();
            writeln!(f, "  f{}{ext}: [{}] edges {edges:?}", face.0, signs.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;
    use std::collections::BTreeSet;

    #[test]
    fn fig_1c_structure_matches_examples_3_1_and_3_3() {
        // Examples 3.1 / 3.3 of the paper: two vertices, four edges, four
        // faces; every vertex has four incident darts.
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        assert_eq!(inv.vertex_count(), 2);
        assert_eq!(inv.edge_count(), 4);
        assert_eq!(inv.face_count(), 4);
        assert!(inv.euler_formula_holds());
        assert!(inv.is_connected());
        for v in inv.vertex_ids() {
            assert_eq!(inv.vertex_rotation(v).len(), 4);
        }
        // The orientation relation has 2 * (4 + 4) entries, matching the
        // sixteen tuples listed in Example 3.3.
        assert_eq!(inv.orientation_relation().len(), 16);
        // Four distinct face labels.
        let labels: BTreeSet<Label> = inv.face_ids().map(|f| inv.face_label(f)).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn dart_navigation() {
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        for e in inv.edge_ids() {
            let d = DartId::forward(e);
            assert_eq!(d.twin().twin(), d);
            assert_eq!(inv.dart_head(d), inv.dart_tail(d.twin()));
            // Each dart leaves its tail, and its left face is the twin's right.
            assert!(inv.vertex_rotation(inv.dart_tail(d)).contains(&d));
            assert_eq!(inv.dart_face(d), inv.edge_faces(e).0);
            assert_eq!(inv.dart_face(d.twin()), inv.edge_faces(e).1);
        }
    }

    #[test]
    fn the_copy_reads_as_the_view_it_was_copied_from() {
        let view = arrangement::build_complex_view(&fixtures::nested_three());
        let inv = Invariant::from_complex(&view);
        assert_eq!(Invariant::from_complex(&inv), inv);
        assert_eq!(inv.summary(), view.summary());
        assert_eq!(inv.vertex_components(), view.vertex_components());
        for name in inv.region_names() {
            assert_eq!(inv.region_faces(name), view.region_faces(name));
        }
    }

    #[test]
    fn region_faces_and_components() {
        let inv = Invariant::of_instance(&fixtures::nested_three());
        assert_eq!(inv.skeleton_component_count(), 3);
        assert!(!inv.is_connected());
        assert!(inv.euler_formula_holds());
        assert_eq!(inv.region_faces("A").len(), 3);
        assert_eq!(inv.region_faces("B").len(), 2);
        assert_eq!(inv.region_faces("C").len(), 1);
        assert_eq!(inv.region_faces("Z").len(), 0);
    }

    #[test]
    fn exterior_swap_and_mirror() {
        let inv = Invariant::of_instance(&fixtures::ring());
        let other_ext = inv
            .face_ids()
            .find(|&f| f != inv.exterior_face() && inv.face_label(f) == Label::default())
            .expect("the ring has a hole face");
        let swapped = inv.with_exterior(other_ext);
        assert_ne!(swapped.exterior_face(), inv.exterior_face());
        assert_eq!(swapped.face_count(), inv.face_count());

        let mirrored = inv.mirrored();
        assert_eq!(mirrored.vertex_count(), inv.vertex_count());
        assert_ne!(mirrored.vertex_rotation(VertexId(0)), inv.vertex_rotation(VertexId(0)));
    }

    #[test]
    fn empty_instance_invariant() {
        let inv = Invariant::of_instance(&SpatialInstance::new());
        assert_eq!(inv.vertex_count(), 0);
        assert_eq!(inv.edge_count(), 0);
        assert_eq!(inv.face_count(), 1);
        assert!(inv.euler_formula_holds());
        assert_eq!(inv.skeleton_component_count(), 0);
    }
}
