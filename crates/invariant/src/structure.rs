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
//! plane.

use arrangement::{ComplexRead, Label, Sign};
use spatial_core::prelude::SpatialInstance;
use std::collections::BTreeSet;
use std::fmt;

/// A dart (edge-end) of the invariant: an edge together with a traversal
/// direction. The forward dart starts at the edge's tail.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dart {
    /// The edge index.
    pub edge: usize,
    /// Forward (tail → head) or backward.
    pub forward: bool,
}

impl Dart {
    /// The forward dart of an edge.
    pub fn forward(edge: usize) -> Dart {
        Dart { edge, forward: true }
    }

    /// The backward dart of an edge.
    pub fn backward(edge: usize) -> Dart {
        Dart { edge, forward: false }
    }

    /// The opposite dart of the same edge.
    pub fn twin(self) -> Dart {
        Dart { edge: self.edge, forward: !self.forward }
    }
}

/// The topological invariant `T_I` of a spatial database instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Invariant {
    pub(crate) region_names: Vec<String>,
    pub(crate) vertex_labels: Vec<Label>,
    pub(crate) edge_labels: Vec<Label>,
    pub(crate) face_labels: Vec<Label>,
    /// Tail and head vertex of every edge (equal for a loop).
    pub(crate) edge_endpoints: Vec<(usize, usize)>,
    /// Left and right face of every edge (left of the forward dart).
    pub(crate) edge_faces: Vec<(usize, usize)>,
    /// For every face, the sorted set of edges on its boundary, including the
    /// outer boundaries of components embedded in the face.
    pub(crate) face_edges: Vec<Vec<usize>>,
    /// For every vertex, the counter-clockwise cyclic order of outgoing darts.
    pub(crate) rotation: Vec<Vec<Dart>>,
    /// The designated exterior face `f0`.
    pub(crate) exterior_face: usize,
}

impl Invariant {
    /// Extract the invariant from a geometric cell complex — either the flat
    /// [`arrangement::CellComplex`] or the zero-copy
    /// [`arrangement::GlobalComplexView`] (any [`ComplexRead`]
    /// implementation; the two are index-identical, so the extracted
    /// invariant does not depend on the representation).
    pub fn from_complex<C: ComplexRead>(complex: &C) -> Invariant {
        use arrangement::DartId;
        let region_names = complex.region_names().to_vec();
        let vertex_labels = complex.vertex_ids().map(|v| complex.vertex_label(v)).collect();
        let edge_labels = complex.edge_ids().map(|e| complex.edge_label(e)).collect();
        let face_labels = complex.face_ids().map(|f| complex.face_label(f)).collect();
        let edge_endpoints = complex
            .edge_ids()
            .map(|e| {
                let (t, h) = complex.edge_endpoints(e);
                (t.0, h.0)
            })
            .collect();
        let edge_faces = complex
            .edge_ids()
            .map(|e| {
                let (l, r) = complex.edge_faces(e);
                (l.0, r.0)
            })
            .collect();
        let face_edges = complex
            .face_ids()
            .map(|f| complex.face_boundary(f).iter().map(|e| e.0).collect())
            .collect();
        let to_dart = |d: &DartId| Dart { edge: d.edge().0, forward: d.is_forward() };
        let rotation = complex
            .vertex_ids()
            .map(|v| complex.vertex_rotation(v).iter().map(to_dart).collect())
            .collect();
        Invariant {
            region_names,
            vertex_labels,
            edge_labels,
            face_labels,
            edge_endpoints,
            edge_faces,
            face_edges,
            rotation,
            exterior_face: complex.exterior_face().0,
        }
    }

    /// Compute the invariant of a spatial instance (builds the zero-copy
    /// complex view internally). This is the paper's Theorem 3.5
    /// construction, restricted to polygonal inputs.
    pub fn of_instance(instance: &SpatialInstance) -> Invariant {
        Invariant::from_complex(&arrangement::build_complex_view(instance))
    }

    /// The region names, in label order.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// Number of faces (including the exterior face).
    pub fn face_count(&self) -> usize {
        self.face_labels.len()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.vertex_count() + self.edge_count() + self.face_count()
    }

    /// The label of a vertex.
    pub fn vertex_label(&self, v: usize) -> &Label {
        &self.vertex_labels[v]
    }

    /// The label of an edge.
    pub fn edge_label(&self, e: usize) -> &Label {
        &self.edge_labels[e]
    }

    /// The label of a face.
    pub fn face_label(&self, f: usize) -> &Label {
        &self.face_labels[f]
    }

    /// The endpoints (tail, head) of an edge.
    pub fn edge_endpoints(&self, e: usize) -> (usize, usize) {
        self.edge_endpoints[e]
    }

    /// The (left, right) faces of an edge.
    pub fn edge_faces(&self, e: usize) -> (usize, usize) {
        self.edge_faces[e]
    }

    /// The boundary edges of a face.
    pub fn face_edges(&self, f: usize) -> &[usize] {
        &self.face_edges[f]
    }

    /// The counter-clockwise rotation of darts around a vertex.
    pub fn rotation(&self, v: usize) -> &[Dart] {
        &self.rotation[v]
    }

    /// The exterior face.
    pub fn exterior_face(&self) -> usize {
        self.exterior_face
    }

    /// Is the edge a loop?
    pub fn is_loop(&self, e: usize) -> bool {
        let (t, h) = self.edge_endpoints[e];
        t == h
    }

    /// The tail vertex of a dart.
    pub fn dart_tail(&self, d: Dart) -> usize {
        let (t, h) = self.edge_endpoints[d.edge];
        if d.forward {
            t
        } else {
            h
        }
    }

    /// The head vertex of a dart.
    pub fn dart_head(&self, d: Dart) -> usize {
        self.dart_tail(d.twin())
    }

    /// The face to the left of a dart.
    pub fn dart_left_face(&self, d: Dart) -> usize {
        let (l, r) = self.edge_faces[d.edge];
        if d.forward {
            l
        } else {
            r
        }
    }

    /// The next dart counter-clockwise around the tail vertex of `d`.
    pub fn rot_next(&self, d: Dart) -> Dart {
        let v = self.dart_tail(d);
        let rot = &self.rotation[v];
        let pos = rot.iter().position(|&x| x == d).expect("dart present in its tail's rotation");
        rot[(pos + 1) % rot.len()]
    }

    /// The previous dart counter-clockwise (i.e. next clockwise) around the
    /// tail vertex of `d`.
    pub fn rot_prev(&self, d: Dart) -> Dart {
        let v = self.dart_tail(d);
        let rot = &self.rotation[v];
        let pos = rot.iter().position(|&x| x == d).expect("dart present in its tail's rotation");
        rot[(pos + rot.len() - 1) % rot.len()]
    }

    /// The faces making up a region (the faces labeled `Interior` for it).
    pub fn region_faces(&self, region: &str) -> Vec<usize> {
        match self.region_names.binary_search_by(|n| n.as_str().cmp(region)) {
            Err(_) => vec![],
            Ok(idx) => (0..self.face_count())
                .filter(|&f| self.face_labels[f].sign(idx) == Sign::Interior)
                .collect(),
        }
    }

    /// The skeleton components: a component index for every vertex.
    pub fn vertex_components(&self) -> Vec<usize> {
        let n = self.vertex_count();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for d in &self.rotation[v] {
                    let w = self.dart_head(*d);
                    if comp[w] == usize::MAX {
                        comp[w] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Number of skeleton components.
    pub fn component_count(&self) -> usize {
        self.vertex_components().iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Is the skeleton connected (the paper's *connected* instances)?
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Does the Euler relation hold (`|F| = |E| − |V| + 1 + C`)?
    pub fn euler_formula_holds(&self) -> bool {
        let c = self.component_count();
        if c == 0 {
            return self.face_count() == 1;
        }
        self.face_count() == self.edge_count() + 1 + c - self.vertex_count()
    }

    /// A copy of the invariant with a different face designated as exterior.
    ///
    /// Used to reproduce the paper's Fig. 6: the resulting structure can be
    /// isomorphic to the original as a labeled graph yet represent a
    /// different homeomorphism class.
    pub fn with_exterior(&self, face: usize) -> Invariant {
        assert!(face < self.face_count(), "no such face");
        let mut out = self.clone();
        out.exterior_face = face;
        out
    }

    /// A copy with the orientation (rotation system) of every vertex
    /// reversed. The result describes the mirror image of the instance and is
    /// always isomorphic to the original (reflections are homeomorphisms).
    pub fn mirrored(&self) -> Invariant {
        let mut out = self.clone();
        for rot in &mut out.rotation {
            rot.reverse();
        }
        // Mirroring also swaps the side of every edge.
        for lr in &mut out.edge_faces {
            *lr = (lr.1, lr.0);
        }
        out
    }

    /// The paper's orientation relation `O`: tuples
    /// `(clockwise?, vertex, edge, edge)` listing consecutive incident edges
    /// around every vertex in both directions.
    pub fn orientation_relation(&self) -> Vec<(bool, usize, usize, usize)> {
        let mut out = Vec::new();
        for (v, rot) in self.rotation.iter().enumerate() {
            let k = rot.len();
            for i in 0..k {
                let e1 = rot[i].edge;
                let e2 = rot[(i + 1) % k].edge;
                out.push((false, v, e1, e2));
                out.push((true, v, e2, e1));
            }
        }
        out
    }

    /// The distinct labels appearing on faces (useful for enumerating the
    /// realized sign classes).
    pub fn distinct_face_labels(&self) -> BTreeSet<Label> {
        self.face_labels.iter().cloned().collect()
    }

    /// A short human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "T_I: {} vertices, {} edges, {} faces, {} regions, exterior f{}",
            self.vertex_count(),
            self.edge_count(),
            self.face_count(),
            self.region_names.len(),
            self.exterior_face
        )
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for (i, l) in self.face_labels.iter().enumerate() {
            let signs: Vec<String> = self
                .region_names
                .iter()
                .enumerate()
                .map(|(r, n)| format!("{n}:{}", l.sign(r)))
                .collect();
            let ext = if i == self.exterior_face { " (exterior)" } else { "" };
            writeln!(f, "  f{i}{ext}: [{}] edges {:?}", signs.join(", "), self.face_edges[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;

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
        for v in 0..inv.vertex_count() {
            assert_eq!(inv.rotation(v).len(), 4);
        }
        // The orientation relation has 2 * (4 + 4) entries, matching the
        // sixteen tuples listed in Example 3.3.
        assert_eq!(inv.orientation_relation().len(), 16);
        // Four distinct face labels.
        assert_eq!(inv.distinct_face_labels().len(), 4);
    }

    #[test]
    fn dart_navigation() {
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        for e in 0..inv.edge_count() {
            let d = Dart::forward(e);
            assert_eq!(d.twin().twin(), d);
            assert_eq!(inv.dart_head(d), inv.dart_tail(d.twin()));
            // rot_next and rot_prev are inverse.
            assert_eq!(inv.rot_prev(inv.rot_next(d)), d);
        }
    }

    #[test]
    fn region_faces_and_components() {
        let inv = Invariant::of_instance(&fixtures::nested_three());
        assert_eq!(inv.component_count(), 3);
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
        let other_ext = (0..inv.face_count())
            .find(|&f| f != inv.exterior_face() && *inv.face_label(f) == Label::default())
            .expect("the ring has a hole face");
        let swapped = inv.with_exterior(other_ext);
        assert_ne!(swapped.exterior_face(), inv.exterior_face());
        assert_eq!(swapped.face_count(), inv.face_count());

        let mirrored = inv.mirrored();
        assert_eq!(mirrored.vertex_count(), inv.vertex_count());
        assert_ne!(mirrored.rotation(0), inv.rotation(0));
    }

    #[test]
    fn empty_instance_invariant() {
        let inv = Invariant::of_instance(&SpatialInstance::new());
        assert_eq!(inv.vertex_count(), 0);
        assert_eq!(inv.edge_count(), 0);
        assert_eq!(inv.face_count(), 1);
        assert!(inv.euler_formula_holds());
        assert_eq!(inv.component_count(), 0);
    }
}
