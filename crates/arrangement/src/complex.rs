//! The planar cell complex of a spatial instance.
//!
//! A [`CellComplex`] is the geometric realization of the paper's cell complex
//! for an instance `I` (Section 3): a partition of the plane into vertices
//! (0-cells), edges (1-cells) and faces (2-cells) induced by the region
//! boundaries, together with
//!
//! * the sign label `σ : names(I) → {o, ∂, −}` of every cell,
//! * the designated exterior (unbounded) face `f0`,
//! * the rotation system (counter-clockwise cyclic order of darts around each
//!   vertex), which carries the paper's orientation relation `O`.
//!
//! The complex is *maximal*: cells are as large as possible (boundary pieces
//! are not subdivided at points where nothing topologically relevant
//! happens), with the single normalization that a boundary curve carrying no
//! forced vertex keeps one canonical anchor vertex so that every 1-cell has
//! endpoints. This normalization is applied uniformly to every instance and
//! therefore does not affect invariant comparisons.

use crate::index::SpatialIndex;
use crate::partition::BBox;
use crate::runs::Runs;
use crate::types::*;
use spatial_core::prelude::Point;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cells of the closure of a set of bounded faces besides the faces
/// themselves, each list ascending: what [`closure_cells`] walks. The four
/// lists lie back to back in one buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosureCells {
    cells: Vec<usize>,
    ends: [usize; 4],
}

impl ClosureCells {
    /// The closure made of the four ascending lists.
    pub fn new(
        boundary_edges: impl IntoIterator<Item = usize>,
        interior_edges: impl IntoIterator<Item = usize>,
        boundary_vertices: impl IntoIterator<Item = usize>,
        interior_vertices: impl IntoIterator<Item = usize>,
    ) -> ClosureCells {
        let mut cells = Vec::new();
        let mut ends = [0; 4];
        let lists = [
            boundary_edges.into_iter().collect::<Vec<_>>(),
            interior_edges.into_iter().collect(),
            boundary_vertices.into_iter().collect(),
            interior_vertices.into_iter().collect(),
        ];
        cells.reserve_exact(lists.iter().map(Vec::len).sum());
        for (end, list) in ends.iter_mut().zip(lists) {
            cells.extend(list);
            *end = cells.len();
        }
        ClosureCells { cells, ends }
    }

    fn list(&self, k: usize) -> &[usize] {
        &self.cells[if k == 0 { 0 } else { self.ends[k - 1] }..self.ends[k]]
    }

    /// Edges with exactly one incident face in the set.
    pub fn boundary_edges(&self) -> &[usize] {
        self.list(0)
    }

    /// Edges with both incident faces in the set.
    pub fn interior_edges(&self) -> &[usize] {
        self.list(1)
    }

    /// Vertices with some but not all incident faces in the set.
    pub fn boundary_vertices(&self) -> &[usize] {
        self.list(2)
    }

    /// Vertices with all incident faces in the set.
    pub fn interior_vertices(&self) -> &[usize] {
        self.list(3)
    }
}

/// A region's closure cells in the ids of the complex that holds it,
/// walked by the first reader that needs them
/// ([`ComplexGeometry::closure_slot`]).
pub type ClosureSlot = OnceLock<ClosureCells>;

/// One empty [`ClosureSlot`] per region of a complex, in its region ids.
/// The slots are derived from the cells, so a complex's equality and
/// `Debug` ignore them.
#[derive(Clone)]
pub(crate) struct ClosureSlots(Box<[ClosureSlot]>);

impl ClosureSlots {
    /// The empty slots of a complex of `regions` regions.
    pub(crate) fn new(regions: usize) -> ClosureSlots {
        ClosureSlots((0..regions).map(|_| ClosureSlot::new()).collect())
    }
}

impl PartialEq for ClosureSlots {
    fn eq(&self, _: &ClosureSlots) -> bool {
        true
    }
}

impl Eq for ClosureSlots {}

impl fmt::Debug for ClosureSlots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// The edges and vertices of the closure of `faces` (bounded faces,
/// ascending), found by walking the incidence of those faces alone
/// ([`ComplexRead::for_each_face_edge`]): an edge is a boundary edge when
/// exactly one of its faces is in the set and an interior edge when both
/// are. Around a vertex, face membership changes only across a boundary
/// edge, so the boundary vertices are the ends of the boundary edges and the
/// interior vertices the other ends of interior edges. The cost is the
/// faces' degrees, not a scan of the complex.
pub fn closure_cells<C: ComplexRead + ?Sized>(complex: &C, faces: &[FaceId]) -> ClosureCells {
    let in_set = |f: &FaceId| faces.binary_search(f).is_ok();
    let mut boundary: Vec<(usize, (usize, usize))> = Vec::new();
    let mut interior: Vec<(usize, (usize, usize))> = Vec::new();
    for &f in faces {
        complex.for_each_face_edge(f, |e, (l, r), (a, b)| {
            let cell = (e.0, (a.0, b.0));
            if in_set(&l) && in_set(&r) {
                interior.push(cell);
            } else {
                boundary.push(cell);
            }
        });
    }
    fn ends_of(edges: &mut Vec<(usize, (usize, usize))>) -> Vec<usize> {
        edges.sort_unstable();
        edges.dedup();
        let mut ends: Vec<usize> = edges.iter().flat_map(|&(_, (a, b))| [a, b]).collect();
        ends.sort_unstable();
        ends.dedup();
        ends
    }
    let boundary_vertices = ends_of(&mut boundary);
    let mut interior_vertices = ends_of(&mut interior);
    interior_vertices.retain(|v| boundary_vertices.binary_search(v).is_err());
    ClosureCells::new(
        boundary.into_iter().map(|(e, _)| e),
        interior.into_iter().map(|(e, _)| e),
        boundary_vertices,
        interior_vertices,
    )
}

/// The dual graph of a complex: for every face, the faces that share an
/// edge with it, ascending and each once (an edge with the same face on
/// both sides links nothing).
pub fn dual_graph<C: ComplexRead + ?Sized>(complex: &C) -> Runs<FaceId> {
    let mut pairs: Vec<(FaceId, FaceId)> = Vec::with_capacity(2 * complex.edge_count());
    for e in complex.edge_ids() {
        let (l, r) = complex.edge_faces(e);
        if l != r {
            pairs.extend([(l, r), (r, l)]);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    Runs::grouped(complex.face_count(), pairs.iter().map(|&(f, g)| (f.0, g)))
}

/// What a part's cell ids are shifted by to become ids of the whole
/// complex: vertex, edge and bounded-face offsets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellOffsets {
    /// Added to a part's vertex id.
    pub vertex: usize,
    /// Added to a part's edge id.
    pub edge: usize,
    /// Added to a part's bounded face id.
    pub face: usize,
}

/// The cells of the parts nested, transitively, inside some faces of
/// another part, as ascending, disjoint id ranges of the whole complex, one
/// range of each dimension per nested part. A nested part lies inside the
/// faces, so every one of its cells is interior to a region they make up.
/// Nothing nested, the common case, is one null pointer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NestedCells(Option<Box<[Vec<Range<usize>>; 3]>>);

impl NestedCells {
    /// The nested parts' vertex, edge and bounded face ranges, one of each
    /// per part, in part order.
    pub fn new(vertices: Vec<Range<usize>>, edges: Vec<Range<usize>>, faces: Vec<Range<usize>>) -> NestedCells {
        let nothing = vertices.is_empty() && edges.is_empty() && faces.is_empty();
        NestedCells((!nothing).then(|| Box::new([vertices, edges, faces])))
    }

    /// Is nothing nested?
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    fn ranges(&self, dimension: usize) -> &[Range<usize>] {
        self.0.as_ref().map_or(&[], |ranges| &ranges[dimension])
    }

    /// The nested parts' vertex ranges.
    pub fn vertices(&self) -> &[Range<usize>] {
        self.ranges(0)
    }

    /// The nested parts' edge ranges.
    pub fn edges(&self) -> &[Range<usize>] {
        self.ranges(1)
    }

    /// The nested parts' bounded face ranges.
    pub fn faces(&self) -> &[Range<usize>] {
        self.ranges(2)
    }
}

/// Where a region's cells are numbered ([`ComplexRead::region_home`]): the
/// part of the complex that holds the region, the region's faces in that
/// part's ids, and what turns the part's cells into the whole complex's.
/// The region's faces are `faces` shifted by `offsets.face` together with
/// `nested.faces()`; its closure cells are the part's
/// ([`ComplexRead::home_closure`], kept in the part's
/// [`ComplexGeometry::closure_slot`]) shifted by `offsets`, together with
/// `nested`'s edges and vertices, which are all interior.
#[derive(Clone, Debug)]
pub struct RegionHome<'a> {
    /// The part that holds the region: a view's component, in assembly
    /// order, or `0` for a complex that is its own one part.
    pub part: usize,
    /// The region's id among the part's regions.
    pub local: usize,
    /// The region's bounded faces in the part's ids, ascending.
    pub faces: Cow<'a, [FaceId]>,
    /// The part's offsets into the whole complex.
    pub offsets: CellOffsets,
    /// The cells of the parts nested inside the region's faces.
    pub nested: NestedCells,
}

/// Read access to the combinatorial structure of a planar cell complex: the
/// paper's invariant `T_I` (Section 3). It holds the cells by dimension,
/// their labels, their incidences, the rotation of darts around every vertex
/// (the orientation relation `O`) and the exterior face `f0`, and nothing
/// geometric: the geometric reads are [`ComplexGeometry`]'s.
///
/// This trait is the one read surface of `T_I`: every derived-structure
/// computation — isomorphism, validation and the thematic database in the
/// `invariant` crate, 4-relation classification, cell-level query
/// evaluation — runs unchanged on each of its implementations:
///
/// * the flat [`CellComplex`] produced by copying assembly
///   ([`crate::assemble_components`]), which adds only its raw cell records
///   ([`CellComplex::vertex`], [`CellComplex::edge`] and
///   [`CellComplex::face`]);
/// * the zero-copy [`GlobalComplexView`](crate::GlobalComplexView), which
///   serves the same cells directly out of shared per-component
///   sub-complexes through an id-translation table; and
/// * `invariant::Invariant`, an owned copy of the combinatorial part alone.
///
/// They are *index-identical*: a given cell has the same id, the same label
/// and the same incidences through each. Methods that must translate
/// component-local data (labels widened to global region ids, darts shifted
/// into the global id space) return owned values.
pub trait ComplexRead {
    /// The region names, in the canonical (sorted) order used by all labels.
    fn region_names(&self) -> &[String];

    /// Number of vertices (0-cells).
    fn vertex_count(&self) -> usize;

    /// Number of edges (1-cells).
    fn edge_count(&self) -> usize;

    /// Number of faces (2-cells), including the exterior face.
    fn face_count(&self) -> usize;

    /// Total number of cells.
    fn cell_count(&self) -> usize {
        self.vertex_count() + self.edge_count() + self.face_count()
    }

    /// The designated exterior (unbounded) face `f0`.
    fn exterior_face(&self) -> FaceId;

    /// The sign label of a vertex: an entry for every region it is not
    /// exterior to ([`Label`]).
    fn vertex_label(&self, v: VertexId) -> Label;

    /// The outgoing darts of a vertex in counter-clockwise order.
    fn vertex_rotation(&self, v: VertexId) -> Vec<DartId>;

    /// The (tail, head) vertices of an edge (equal for a loop).
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId);

    /// The sign label of an edge.
    fn edge_label(&self, e: EdgeId) -> Label;

    /// Indices (into [`ComplexRead::region_names`]) of the regions whose
    /// boundary contains the edge, ascending: its label's `Boundary` entries.
    fn edge_region_marks(&self, e: EdgeId) -> Vec<usize> {
        let label = self.edge_label(e);
        label.iter().filter(|&(_, s)| s == Sign::Boundary).map(|(r, _)| r).collect()
    }

    /// The two faces incident to an edge (left of the forward dart, left of
    /// the backward dart). They may coincide.
    fn edge_faces(&self, e: EdgeId) -> (FaceId, FaceId);

    /// The sign label of a face.
    fn face_label(&self, f: FaceId) -> Label;

    /// All edges on the face's boundary, including the outer boundaries of
    /// components embedded inside the face (sorted, deduplicated).
    fn face_boundary(&self, f: FaceId) -> Vec<EdgeId>;

    /// Is this the unbounded (exterior) face `f0`?
    fn face_is_exterior(&self, f: FaceId) -> bool {
        f == self.exterior_face()
    }

    // ---- sign fast paths (override to avoid whole-label materialization) --

    /// The sign of a vertex with respect to one region index.
    fn vertex_sign(&self, v: VertexId, region: usize) -> Sign {
        self.vertex_label(v).sign(region)
    }

    /// The sign of an edge with respect to one region index.
    fn edge_sign(&self, e: EdgeId, region: usize) -> Sign {
        self.edge_label(e).sign(region)
    }

    /// The sign of a face with respect to one region index.
    fn face_sign(&self, f: FaceId, region: usize) -> Sign {
        self.face_label(f).sign(region)
    }

    // ---- derived accessors ------------------------------------------------

    /// The index of a region name in the label order: a binary search of
    /// the sorted [`ComplexRead::region_names`].
    fn region_index(&self, name: &str) -> Option<usize> {
        self.region_names().binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// All vertex ids.
    fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertex_count()).map(VertexId)
    }

    /// All edge ids.
    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edge_count()).map(EdgeId)
    }

    /// All face ids.
    fn face_ids(&self) -> impl Iterator<Item = FaceId> {
        (0..self.face_count()).map(FaceId)
    }

    /// The tail vertex of a dart.
    fn dart_tail(&self, d: DartId) -> VertexId {
        let (t, h) = self.edge_endpoints(d.edge());
        if d.is_forward() {
            t
        } else {
            h
        }
    }

    /// The head vertex of a dart.
    fn dart_head(&self, d: DartId) -> VertexId {
        self.dart_tail(d.twin())
    }

    /// The face to the left of a dart.
    fn dart_face(&self, d: DartId) -> FaceId {
        let (l, r) = self.edge_faces(d.edge());
        if d.is_forward() {
            l
        } else {
            r
        }
    }

    /// The faces incident to a vertex.
    fn vertex_faces(&self, v: VertexId) -> Vec<FaceId> {
        let mut out: Vec<FaceId> =
            self.vertex_rotation(v).iter().map(|d| self.dart_face(*d)).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The faces making up a region (the cells labeled `Interior` for it),
    /// ascending. The default scans every face, and is the reference;
    /// [`GlobalComplexView`](crate::GlobalComplexView) overrides it with the
    /// interior faces the region's component build emitted.
    fn region_faces(&self, region: &str) -> Vec<FaceId> {
        match self.region_index(region) {
            None => vec![],
            Some(idx) => self
                .face_ids()
                .filter(|&f| self.face_sign(f, idx) == Sign::Interior)
                .collect(),
        }
    }

    /// Visit every edge of [`ComplexRead::face_boundary`] with the edge's
    /// two faces and its endpoints: the incidence walk of a face, so walking
    /// a set of faces costs their degrees rather than a scan of the complex.
    /// [`CellComplex`] and [`GlobalComplexView`](crate::GlobalComplexView)
    /// override it with a walk of their own face → edge tables that
    /// allocates nothing; the view's edges then come unsorted.
    fn for_each_face_edge(
        &self,
        f: FaceId,
        mut visit: impl FnMut(EdgeId, (FaceId, FaceId), (VertexId, VertexId)),
    ) {
        for e in self.face_boundary(f) {
            visit(e, self.edge_faces(e), self.edge_endpoints(e));
        }
    }

    // ---- parts: how a complex served out of sub-complexes numbers cells --

    /// Where the cells of region `region` (an index into
    /// [`ComplexRead::region_names`]) are numbered, or `None` for a region
    /// with no cell (no boundary). The default: the complex is its own one
    /// part, at offset zero, nothing is nested, and the faces are
    /// [`ComplexRead::region_faces`], the reference scan;
    /// [`GlobalComplexView`](crate::GlobalComplexView) answers the region's
    /// component, the interior faces that component's build emitted, the
    /// component's offsets and the ranges of the components nested inside
    /// those faces, and scans no face.
    fn region_home(&self, region: usize) -> Option<RegionHome<'_>> {
        Some(RegionHome {
            part: 0,
            local: region,
            faces: Cow::Owned(self.region_faces(&self.region_names()[region])),
            offsets: CellOffsets::default(),
            nested: NestedCells::default(),
        })
    }

    /// The closure cells of a region's home faces in its part's own ids:
    /// [`closure_cells`] over the part. The default walks the complex
    /// itself; [`GlobalComplexView`](crate::GlobalComplexView) walks the
    /// component's own [`CellComplex`].
    fn home_closure(&self, home: &RegionHome<'_>) -> ClosureCells {
        closure_cells(self, &home.faces)
    }

    /// All darts whose left face is `f` (the face's boundary walk(s)).
    fn face_darts(&self, f: FaceId) -> Vec<DartId> {
        let mut out = Vec::new();
        for e in self.edge_ids() {
            let (l, r) = self.edge_faces(e);
            if l == f {
                out.push(DartId::forward(e));
            }
            if r == f {
                out.push(DartId::backward(e));
            }
        }
        out
    }

    /// The skeleton components (the connected pieces of the union of the
    /// vertices and edges): a component index for every vertex, numbered in
    /// the order of each component's least vertex.
    fn vertex_components(&self) -> Vec<usize> {
        let mut component = vec![usize::MAX; self.vertex_count()];
        let mut next = 0;
        for start in 0..component.len() {
            if component[start] != usize::MAX {
                continue;
            }
            component[start] = next;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for d in self.vertex_rotation(VertexId(v)) {
                    let w = self.dart_head(d).0;
                    if component[w] == usize::MAX {
                        component[w] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        component
    }

    /// Number of connected components of the skeleton (union of vertices and
    /// edges).
    fn skeleton_component_count(&self) -> usize {
        self.vertex_components().into_iter().max().map_or(0, |m| m + 1)
    }

    /// Is the skeleton connected? (The paper's notion of a *connected*
    /// instance.)
    fn is_connected(&self) -> bool {
        self.skeleton_component_count() <= 1
    }

    /// Is the instance *simple* in the paper's sense: is the boundary walk of
    /// every face a simple closed curve?
    fn is_simple(&self) -> bool {
        if !self.is_connected() {
            return false;
        }
        for f in self.face_ids() {
            let darts = self.face_darts(f);
            let vertices: Vec<VertexId> = darts.iter().map(|d| self.dart_tail(*d)).collect();
            let distinct: BTreeSet<VertexId> = vertices.iter().copied().collect();
            if distinct.len() != vertices.len() {
                return false;
            }
        }
        true
    }

    /// Check the Euler relation `|F| = |E| - |V| + 1 + C` where `C` is the
    /// number of skeleton components.
    fn euler_formula_holds(&self) -> bool {
        let c = self.skeleton_component_count();
        if c == 0 {
            return self.face_count() == 1;
        }
        self.face_count() == self.edge_count() + 1 + c - self.vertex_count()
    }

    /// The paper's orientation relation `O`: tuples
    /// `(clockwise?, vertex, edge, edge)` listing consecutive incident edges
    /// around every vertex in both directions.
    fn orientation_relation(&self) -> Vec<(bool, VertexId, EdgeId, EdgeId)> {
        let mut out = Vec::new();
        for v in self.vertex_ids() {
            let rot = self.vertex_rotation(v);
            for (i, d) in rot.iter().enumerate() {
                let (e1, e2) = (d.edge(), rot[(i + 1) % rot.len()].edge());
                out.push((false, v, e1, e2));
                out.push((true, v, e2, e1));
            }
        }
        out
    }

    /// Human-readable summary of the complex.
    fn summary(&self) -> String {
        format!(
            "cell complex: {} vertices, {} edges, {} faces ({} region(s), exterior = f{})",
            self.vertex_count(),
            self.edge_count(),
            self.face_count(),
            self.region_names().len(),
            self.exterior_face().0
        )
    }
}

/// The geometric reads of a cell complex realized in the plane: vertex
/// positions, edge polylines and the region boxes and index derived from
/// them. [`CellComplex`] and [`GlobalComplexView`](crate::GlobalComplexView)
/// implement it; the combinatorial invariant alone does not.
pub trait ComplexGeometry: ComplexRead {
    /// The geometric position of a vertex.
    fn vertex_point(&self, v: VertexId) -> Point;

    /// The polyline realizing an edge, from tail to head (borrowed: no
    /// translation is needed).
    fn edge_polyline(&self, e: EdgeId) -> &[Point];

    /// The bounding box of every region's boundary, in
    /// [`ComplexRead::region_names`] order (`None` for a region contributing
    /// no boundary edge to the complex). A region's closure lives inside its
    /// box, so two regions whose boxes don't interact are provably disjoint —
    /// the pruning fact behind the spatial index
    /// ([`SpatialIndex`](crate::SpatialIndex)) that the query planner builds
    /// over these boxes. The default is one scan of the edge polylines
    /// against their region marks, and is the reference;
    /// [`GlobalComplexView`](crate::GlobalComplexView) overrides it with the
    /// boxes each component build computed from its regions' input
    /// segments, and reads no polyline.
    fn region_bboxes(&self) -> Vec<Option<BBox>> {
        let mut out: Vec<Option<BBox>> = vec![None; self.region_names().len()];
        for e in self.edge_ids() {
            let marks = self.edge_region_marks(e);
            if marks.is_empty() {
                continue;
            }
            let Some(eb) = BBox::of_points(self.edge_polyline(e)) else { continue };
            for r in marks {
                out[r] = Some(match out[r].take() {
                    None => eb.clone(),
                    Some(b) => b.union(&eb),
                });
            }
        }
        out
    }

    /// The spatial index over [`ComplexGeometry::region_bboxes`]. The default
    /// builds a new one-level index on every call;
    /// [`GlobalComplexView`](crate::GlobalComplexView) overrides it with the
    /// one two-level index it assembles for all its clones
    /// ([`GlobalComplexView::region_bbox_index`](crate::GlobalComplexView::region_bbox_index)),
    /// so every reader of a view shares one build and one probe counter.
    fn region_bbox_index(&self) -> Arc<SpatialIndex> {
        Arc::new(SpatialIndex::build(&self.region_bboxes()))
    }

    /// The slot that keeps the closure cells of the region at `home`
    /// ([`ComplexRead::home_closure`]), on the complex they are numbered
    /// in: the flat complex's own, a view's component's. A region's closure
    /// depends on its part alone, so the slot lives exactly as long as the
    /// part: a component a commit carries keeps its walks, and a rebuilt
    /// one starts with empty slots.
    fn closure_slot(&self, home: &RegionHome<'_>) -> &ClosureSlot;
}

impl ComplexRead for CellComplex {
    fn region_names(&self) -> &[String] {
        &self.region_names
    }

    fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn face_count(&self) -> usize {
        self.faces.len()
    }

    fn exterior_face(&self) -> FaceId {
        self.exterior
    }

    fn vertex_label(&self, v: VertexId) -> Label {
        Label::from_entries(self.vertex_labels.get(v.0))
    }

    fn vertex_rotation(&self, v: VertexId) -> Vec<DartId> {
        self.rotations.get(v.0).to_vec()
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let d = &self.edges[e.0];
        (d.tail, d.head)
    }

    fn edge_label(&self, e: EdgeId) -> Label {
        Label::from_entries(self.edge_labels.get(e.0))
    }

    fn edge_faces(&self, e: EdgeId) -> (FaceId, FaceId) {
        (self.edges[e.0].left_face, self.edges[e.0].right_face)
    }

    fn face_label(&self, f: FaceId) -> Label {
        Label::from_entries(self.face_labels.get(f.0))
    }

    fn face_boundary(&self, f: FaceId) -> Vec<EdgeId> {
        self.face_edges.get(f.0).to_vec()
    }

    /// Read straight from the face → edge table: no allocation.
    fn for_each_face_edge(
        &self,
        f: FaceId,
        mut visit: impl FnMut(EdgeId, (FaceId, FaceId), (VertexId, VertexId)),
    ) {
        for &e in self.face_edges.get(f.0) {
            let d = &self.edges[e.0];
            visit(e, (d.left_face, d.right_face), (d.tail, d.head));
        }
    }

    fn vertex_sign(&self, v: VertexId, region: usize) -> Sign {
        sign_in(self.vertex_labels.get(v.0), region)
    }

    fn edge_sign(&self, e: EdgeId, region: usize) -> Sign {
        sign_in(self.edge_labels.get(e.0), region)
    }

    fn face_sign(&self, f: FaceId, region: usize) -> Sign {
        sign_in(self.face_labels.get(f.0), region)
    }
}

impl ComplexGeometry for CellComplex {
    fn vertex_point(&self, v: VertexId) -> Point {
        self.vertices[v.0].point
    }

    fn edge_polyline(&self, e: EdgeId) -> &[Point] {
        self.polylines.get(e.0)
    }

    fn closure_slot(&self, home: &RegionHome<'_>) -> &ClosureSlot {
        &self.closures.0[home.local]
    }
}

/// The planar cell complex of a spatial database instance.
///
/// Each cell's own record ([`VertexData`], [`EdgeData`], [`FaceData`]) holds
/// its fixed-size data only. The lists a cell has — its label's entries, a
/// vertex's rotation, an edge's polyline, a face's boundary edges — are runs
/// of flat tables, one run per cell in id order, read through
/// [`ComplexRead`] (labels are returned as owned [`Label`]s, and the sign
/// reads binary-search the run). A complex of any size therefore costs a
/// fixed number of allocations, not one or more per cell. Its one lazy
/// table is a closure slot per region ([`ComplexGeometry::closure_slot`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellComplex {
    pub(crate) region_names: Vec<String>,
    pub(crate) vertices: Vec<VertexData>,
    pub(crate) edges: Vec<EdgeData>,
    pub(crate) faces: Vec<FaceData>,
    /// Each vertex's label entries.
    pub(crate) vertex_labels: Labels,
    /// Each edge's label entries.
    pub(crate) edge_labels: Labels,
    /// Each face's label entries.
    pub(crate) face_labels: Labels,
    /// Each vertex's outgoing darts, counter-clockwise.
    pub(crate) rotations: Runs<DartId>,
    /// Each edge's polyline, from tail to head.
    pub(crate) polylines: Runs<Point>,
    /// Each face's boundary edges, ascending.
    pub(crate) face_edges: Runs<EdgeId>,
    pub(crate) exterior: FaceId,
    /// Each region's closure cells, walked on first read.
    pub(crate) closures: ClosureSlots,
}

impl CellComplex {
    /// The complex with no geometry: the single exterior face.
    pub(crate) fn exterior_only(region_names: Vec<String>) -> CellComplex {
        CellComplex {
            closures: ClosureSlots::new(region_names.len()),
            region_names,
            vertices: vec![],
            edges: vec![],
            faces: vec![FaceData { is_exterior: true }],
            vertex_labels: Labels::default(),
            edge_labels: Labels::default(),
            face_labels: Runs::grouped(1, std::iter::empty()),
            rotations: Runs::default(),
            polylines: Runs::default(),
            face_edges: Runs::grouped(1, std::iter::empty()),
            exterior: FaceId(0),
        }
    }

    /// Vertex data.
    pub fn vertex(&self, v: VertexId) -> &VertexData {
        &self.vertices[v.0]
    }

    /// Edge data.
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.0]
    }

    /// Face data.
    pub fn face(&self, f: FaceId) -> &FaceData {
        &self.faces[f.0]
    }
}
