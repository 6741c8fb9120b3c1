//! Construction of the [`CellComplex`](crate::CellComplex) of a spatial
//! instance.
//!
//! This is the polygonal counterpart of the Kozen–Yap cell-decomposition
//! algorithm the paper relies on for semi-algebraic inputs: polygonal regions
//! stand in for the paper's semi-algebraic ones.
//! [`build_complex`] is a thin compose of three phases:
//!
//! 1. [`crate::partition`] groups the regions into interaction components
//!    (connected components of the segment bounding-box overlap graph);
//! 2. each component is built independently by the local pipeline in this
//!    module ([`build_local`], called by the one component build
//!    `assemble::build_group` that every entry point funnels through): its
//!    segments are split at
//!    their mutual intersections by the Bentley–Ottmann plane sweep of
//!    [`crate::sweep`], merged into maximal 1-cells,
//!    the faces extracted from the combinatorial embedding (each skeleton's
//!    outer walk is the one turning clockwise at its lowest point),
//!    same-component disconnected skeletons nested into the faces that
//!    contain them (`assemble::innermost_cycle`), and
//!    every cell labeled by exact combinatorial propagation from the
//!    unbounded face;
//! 3. [`crate::assemble`] stitches the component complexes into the global
//!    complex (cross-component nesting, exterior-face unification, label
//!    widening).
//!
//! The rotation sort and the outer-walk turn compare pieces'
//! [`SubSegment::dir`]s, the directions of the input segments they lie on,
//! never differences of arrangement points: each decision is the sign of a
//! cross product of two input-endpoint differences.
//!
//! [`build_complex_monolithic`] preserves the pre-partitioning single-sweep
//! construction as a differential-testing oracle: both paths must produce
//! isomorphic complexes on every input.

use crate::assemble::{assemble_components, innermost_cycle, BoundedCycle, ComponentComplex};
use crate::complex::CellComplex;
use crate::parallel::{available_threads, map_indexed};
use crate::partition::partition_instance;
use crate::split::{instance_segments, split_segments, SubSegment};
use crate::types::*;
use crate::view::GlobalComplexView;
use spatial_core::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Build the maximal labeled cell complex of a spatial instance by the
/// partition → parallel per-component sweep → assemble pipeline.
///
/// Independent components are swept concurrently, on the machine's
/// available parallelism ([`crate::parallel::available_threads`]); the
/// output is identical for every thread count.
/// The complex of the empty instance consists of the single unbounded face.
pub fn build_complex(instance: &SpatialInstance) -> CellComplex {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let components = build_component_complexes(instance, available_threads());
    assemble_components(region_names, &components)
}

/// Build the zero-copy [`GlobalComplexView`] of a spatial instance by the
/// same partition → parallel per-component sweep pipeline as
/// [`build_complex`], assembling by view instead of by copy.
pub fn build_complex_view(instance: &SpatialInstance) -> GlobalComplexView {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let components = build_component_complexes(instance, available_threads());
    GlobalComplexView::new(region_names, components)
}

/// Partition an instance and sweep every interaction component, up to
/// `threads` components at a time ([`crate::parallel::map_indexed`]); each
/// component is built serially on the worker that picked it up. Components
/// are returned in partition order regardless of the thread count, so both
/// assembly paths produce identical output for every `threads` value.
pub fn build_component_complexes(
    instance: &SpatialInstance,
    threads: usize,
) -> Vec<Arc<ComponentComplex>> {
    let groups = partition_instance(instance);
    let names = instance.names();
    map_indexed(groups.len(), threads, |i| {
        let members = crate::assemble::group_members(instance, &names, &groups[i]);
        Arc::new(crate::assemble::build_group(&members, &[], &[]))
    })
}

/// The pre-partitioning construction: one plane sweep over the whole
/// instance, faces and nesting resolved globally. Kept as the differential
/// oracle for the partitioned pipeline (and exercised by the `arrangement`
/// test suite); the two must agree up to cell re-indexing on every input.
pub fn build_complex_monolithic(instance: &SpatialInstance) -> CellComplex {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let subs = split_segments(&instance_segments(instance));
    build_local(region_names, &subs).0
}

/// The local construction pipeline shared by the per-component and the
/// monolithic paths: build the cell complex of a set of already split
/// sub-segments, returning the complex together with the outer cycles of its
/// bounded faces (the data the assembly step needs for cross-component
/// nesting tests). Runs on the calling thread and bumps the per-phase work
/// counters of [`crate::counters`].
pub(crate) fn build_local(
    region_names: Vec<String>,
    subs: &[SubSegment],
) -> (CellComplex, Vec<BoundedCycle>) {
    debug_assert!(region_names.windows(2).all(|w| w[0] < w[1]), "region names are sorted");
    if subs.is_empty() {
        // No geometry at all: a single exterior face.
        let complex = CellComplex {
            region_names,
            vertices: vec![],
            edges: vec![],
            faces: vec![FaceData {
                is_exterior: true,
                boundary_edges: vec![],
                label: Label::default(),
            }],
            exterior: FaceId(0),
        };
        return (complex, vec![]);
    }

    // ---- Raw graph ----------------------------------------------------
    let raw = RawGraph::new(subs);

    // ---- Merge chains into maximal 1-cells ------------------------------
    let merged = merge_chains(&raw);
    crate::counters::add_chains_merged(merged.edges.len() as u64);

    // ---- Rotation system -------------------------------------------------
    let rotations = compute_rotations(&merged);

    // ---- Face walks -------------------------------------------------------
    let walks = face_walks(&merged, &rotations);
    crate::counters::add_cells_walked(walks.len() as u64);

    // ---- Components and embedding forest ---------------------------------
    let mut assembled = assemble_faces(&merged, &walks);

    // ---- Labels -----------------------------------------------------------
    let cycles = std::mem::take(&mut assembled.bounded_cycles);
    (finish_complex(region_names, merged, rotations, assembled), cycles)
}

/// The raw planar graph before chain merging: one vertex per split point, one
/// edge per sub-segment.
struct RawGraph {
    points: Vec<Point>,
    /// Edges as (vertex, vertex, direction from the first to the second,
    /// region set).
    edges: Vec<(usize, usize, Vector, Vec<usize>)>,
    /// Incident raw edges per vertex.
    incident: Vec<Vec<usize>>,
}

impl RawGraph {
    fn new(subs: &[SubSegment]) -> Self {
        let mut index: BTreeMap<Point, usize> = BTreeMap::new();
        let mut points = Vec::new();
        let mut id_of = |p: Point, points: &mut Vec<Point>| -> usize {
            *index.entry(p).or_insert_with(|| {
                points.push(p);
                points.len() - 1
            })
        };
        let mut edges = Vec::with_capacity(subs.len());
        for s in subs {
            let u = id_of(s.a, &mut points);
            let v = id_of(s.b, &mut points);
            edges.push((u, v, s.dir, s.regions.clone()));
        }
        let mut incident = vec![Vec::new(); points.len()];
        for (i, (u, v, _, _)) in edges.iter().enumerate() {
            incident[*u].push(i);
            incident[*v].push(i);
        }
        RawGraph { points, edges, incident }
    }

    /// A vertex is an *anchor* (a forced 0-cell of the maximal complex) if it
    /// is not a plain degree-2 pass-through point of a single boundary curve
    /// bundle.
    fn is_anchor(&self, v: usize) -> bool {
        let inc = &self.incident[v];
        if inc.len() != 2 {
            return true;
        }
        let (e1, e2) = (inc[0], inc[1]);
        self.edges[e1].3 != self.edges[e2].3
    }
}

/// The merged graph: maximal 1-cells with polyline geometry.
struct MergedGraph {
    /// Positions of the surviving vertices.
    vertex_points: Vec<Point>,
    edges: Vec<Chain>,
}

/// A maximal 1-cell of the merged graph.
struct Chain {
    tail: usize,
    head: usize,
    /// Polyline from tail to head.
    polyline: Vec<Point>,
    /// The direction of each polyline piece, tail to head (one fewer than
    /// the points).
    dirs: Vec<Vector>,
    /// The regions whose boundary the chain lies on, ascending.
    regions: Vec<usize>,
}

/// Anchor flags of every raw vertex: the forced 0-cells
/// ([`RawGraph::is_anchor`]) plus one canonical anchor (the vertex with the
/// lexicographically smallest point) per pure boundary cycle, so that every
/// maximal 1-cell has endpoints. The pure-cycle pass is a cheap scan
/// touching each unanchored vertex once.
fn chain_anchors(raw: &RawGraph) -> Vec<bool> {
    let n = raw.points.len();
    let mut anchor: Vec<bool> = (0..n).map(|v| raw.is_anchor(v)).collect();

    // Boundary cycles with no anchor at all keep one canonical anchor (the
    // lexicographically smallest point of the cycle) so that every 1-cell has
    // endpoints. Find such cycles by scanning unanchored vertices.
    let mut visited = vec![false; n];
    for start in 0..n {
        if anchor[start] || visited[start] {
            continue;
        }
        // Walk the chain through degree-2 vertices in both directions; if we
        // come back to `start` without meeting an anchor, this is a pure
        // cycle.
        let mut cycle = vec![start];
        visited[start] = true;
        let mut prev_edge = raw.incident[start][0];
        let mut cur = leave(raw, prev_edge, start).0;
        let mut is_pure_cycle = false;
        loop {
            if cur == start {
                is_pure_cycle = true;
                break;
            }
            if anchor[cur] {
                break;
            }
            visited[cur] = true;
            cycle.push(cur);
            let inc = &raw.incident[cur];
            let next_edge = if inc[0] == prev_edge { inc[1] } else { inc[0] };
            prev_edge = next_edge;
            cur = leave(raw, next_edge, cur).0;
        }
        if is_pure_cycle {
            let best = cycle
                .iter()
                .copied()
                .min_by(|&a, &b| raw.points[a].cmp(&raw.points[b]))
                .expect("cycle is nonempty");
            anchor[best] = true;
        }
    }
    anchor
}

fn merge_chains(raw: &RawGraph) -> MergedGraph {
    let n = raw.points.len();
    let anchor = chain_anchors(raw);

    // Re-index anchors.
    let mut new_id = vec![usize::MAX; n];
    let mut vertex_points = Vec::new();
    for v in 0..n {
        if anchor[v] {
            new_id[v] = vertex_points.len();
            vertex_points.push(raw.points[v]);
        }
    }

    // Walk chains from anchors.
    let mut edge_used = vec![false; raw.edges.len()];
    let mut edges: Vec<Chain> = Vec::new();
    for v in 0..n {
        if !anchor[v] {
            continue;
        }
        for &e0 in &raw.incident[v] {
            if edge_used[e0] {
                continue;
            }
            // Walk from v along e0 through non-anchor vertices.
            let mut polyline = vec![raw.points[v]];
            let (mut cur, dir) = leave(raw, e0, v);
            let mut dirs = vec![dir];
            let regions = raw.edges[e0].3.clone();
            let mut prev_edge = e0;
            edge_used[e0] = true;
            while !anchor[cur] {
                polyline.push(raw.points[cur]);
                let inc = &raw.incident[cur];
                let next_edge = if inc[0] == prev_edge { inc[1] } else { inc[0] };
                debug_assert_eq!(
                    raw.edges[next_edge].3, regions,
                    "chain continues through a label change"
                );
                edge_used[next_edge] = true;
                let (next, dir) = leave(raw, next_edge, cur);
                dirs.push(dir);
                prev_edge = next_edge;
                cur = next;
            }
            polyline.push(raw.points[cur]);
            edges.push(Chain { tail: new_id[v], head: new_id[cur], polyline, dirs, regions });
        }
    }
    debug_assert!(edge_used.iter().all(|&u| u), "all raw edges must be consumed");

    MergedGraph { vertex_points, edges }
}

/// The other endpoint of a raw edge, and the edge's direction leaving `v`.
fn leave(raw: &RawGraph, edge: usize, v: usize) -> (usize, Vector) {
    let (a, b, dir, _) = &raw.edges[edge];
    if *a == v {
        (*b, *dir)
    } else {
        (*a, dir.neg())
    }
}

/// For every vertex, the outgoing darts sorted counter-clockwise by the
/// direction of their first polyline piece.
fn compute_rotations(g: &MergedGraph) -> Vec<Vec<DartId>> {
    let mut per_vertex: Vec<Vec<(Vector, DartId)>> = vec![Vec::new(); g.vertex_points.len()];
    for (idx, chain) in g.edges.iter().enumerate() {
        let e = EdgeId(idx);
        let dirs = &chain.dirs;
        per_vertex[chain.tail].push((dirs[0], DartId::forward(e)));
        per_vertex[chain.head].push((dirs[dirs.len() - 1].neg(), DartId::backward(e)));
    }
    per_vertex
        .into_iter()
        .map(|mut darts| {
            darts.sort_by(|a, b| a.0.angle_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            darts.into_iter().map(|(_, d)| d).collect()
        })
        .collect()
}

/// A face walk: the darts of one boundary cycle, plus derived data.
struct Walk {
    darts: Vec<DartId>,
    /// Concatenated polyline of the walk (closed; last point omitted).
    polyline: Vec<Point>,
    /// `dirs[i]` is the direction of the piece from `polyline[i]` to the
    /// next point of the walk.
    dirs: Vec<Vector>,
    /// Skeleton component this walk belongs to.
    component: usize,
}

/// Append a dart's polyline, head point omitted, and its piece directions
/// to a walk's.
fn extend_with_dart(g: &MergedGraph, d: DartId, polyline: &mut Vec<Point>, dirs: &mut Vec<Vector>) {
    let chain = &g.edges[d.edge().0];
    if d.is_forward() {
        polyline.extend(&chain.polyline[..chain.dirs.len()]);
        dirs.extend(&chain.dirs);
    } else {
        polyline.extend(chain.polyline[1..].iter().rev());
        dirs.extend(chain.dirs.iter().rev().map(Vector::neg));
    }
}

fn dart_tail(g: &MergedGraph, d: DartId) -> usize {
    let chain = &g.edges[d.edge().0];
    if d.is_forward() {
        chain.tail
    } else {
        chain.head
    }
}

fn face_walks(g: &MergedGraph, rotations: &[Vec<DartId>]) -> Vec<Walk> {
    // Component labeling of vertices.
    let component = vertex_components(g);

    // next(d): at head(d), the dart cyclically preceding twin(d) in the
    // counter-clockwise rotation (faces lie to the left of darts).
    let dart_count = g.edges.len() * 2;
    let next = |d: DartId| -> DartId {
        let head = dart_tail(g, d.twin());
        let rot = &rotations[head];
        let pos = rot.iter().position(|&x| x == d.twin()).expect("twin in rotation");
        rot[(pos + rot.len() - 1) % rot.len()]
    };

    let mut assigned = vec![false; dart_count];
    let mut walks = Vec::new();
    for start in 0..dart_count {
        if assigned[start] {
            continue;
        }
        let mut darts = Vec::new();
        let mut d = DartId(start);
        loop {
            assigned[d.0] = true;
            darts.push(d);
            d = next(d);
            if d.0 == start {
                break;
            }
        }
        // Build the closed polyline (a dart's head point is the next
        // dart's tail).
        let (mut polyline, mut dirs) = (Vec::new(), Vec::new());
        for d in &darts {
            extend_with_dart(g, *d, &mut polyline, &mut dirs);
        }
        let comp = component[dart_tail(g, darts[0])];
        walks.push(Walk { darts, polyline, dirs, component: comp });
    }
    walks
}

fn vertex_components(g: &MergedGraph) -> Vec<usize> {
    let n = g.vertex_points.len();
    let mut comp = vec![usize::MAX; n];
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for chain in &g.edges {
        adjacency[chain.tail].push(chain.head);
        adjacency[chain.head].push(chain.tail);
    }
    let mut next_comp = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = next_comp;
        while let Some(v) = stack.pop() {
            for &w in &adjacency[v] {
                if comp[w] == usize::MAX {
                    comp[w] = next_comp;
                    stack.push(w);
                }
            }
        }
        next_comp += 1;
    }
    comp
}

/// The outcome of face assembly: face of every dart, exterior face and
/// boundary edge sets.
struct AssembledFaces {
    face_of_dart: Vec<FaceId>,
    face_boundaries: Vec<Vec<EdgeId>>,
    /// The outer cycle of every bounded face, exported for cross-component
    /// nesting tests in [`crate::assemble`].
    bounded_cycles: Vec<BoundedCycle>,
    exterior: FaceId,
}

fn assemble_faces(g: &MergedGraph, walks: &[Walk]) -> AssembledFaces {
    let component_count = walks.iter().map(|w| w.component).max().map_or(0, |m| m + 1);

    // Each component has exactly one outer walk, the one that turns
    // clockwise at its lowest point; the others become bounded faces.
    let mut bounded_walks: Vec<usize> = Vec::new();
    let mut outer_walk_of_component: Vec<Option<usize>> = vec![None; component_count];
    for (i, w) in walks.iter().enumerate() {
        if !turns_clockwise_at_lowest(&w.polyline, &w.dirs) {
            bounded_walks.push(i);
        } else {
            assert!(
                outer_walk_of_component[w.component].is_none(),
                "a skeleton component has two outer walks"
            );
            outer_walk_of_component[w.component] = Some(i);
        }
    }

    // Face ids: 0 = exterior, then one per bounded walk.
    let exterior = FaceId(0);
    let face_of_bounded_walk: BTreeMap<usize, FaceId> = bounded_walks
        .iter()
        .enumerate()
        .map(|(k, &w)| (w, FaceId(k + 1)))
        .collect();
    let face_count = bounded_walks.len() + 1;

    // Embedding forest: which face is each component embedded in?
    // A representative point of the component (any vertex) is tested against
    // the bounded walks of *other* components; the innermost containing walk
    // gives the parent face.
    let mut rep_point_of_component: Vec<Option<Point>> = vec![None; component_count];
    for (v, &c) in vertex_components(g).iter().enumerate() {
        rep_point_of_component[c].get_or_insert(g.vertex_points[v]);
    }
    let mut parent_face_of_component: Vec<FaceId> = vec![exterior; component_count];
    for c in 0..component_count {
        let rep = match rep_point_of_component[c] {
            Some(p) => p,
            None => continue,
        };
        let others = bounded_walks.iter().filter(|&&wi| walks[wi].component != c);
        let cycles = others.map(|&wi| (face_of_bounded_walk[&wi], walks[wi].polyline.as_slice()));
        if let Some(f) = innermost_cycle(&rep, cycles) {
            parent_face_of_component[c] = f;
        }
    }

    // Face of every dart: darts on bounded walks get that walk's face; darts
    // on a component's outer walk get the face the component is embedded in.
    let mut face_of_dart = vec![exterior; g.edges.len() * 2];
    for (wi, w) in walks.iter().enumerate() {
        let face = match face_of_bounded_walk.get(&wi) {
            Some(f) => *f,
            None => parent_face_of_component[w.component],
        };
        for d in &w.darts {
            face_of_dart[d.0] = face;
        }
    }

    // Boundary edge sets.
    let mut face_boundaries: Vec<Vec<EdgeId>> = vec![Vec::new(); face_count];
    for (d, face) in face_of_dart.iter().enumerate() {
        face_boundaries[face.0].push(DartId(d).edge());
    }
    for b in &mut face_boundaries {
        b.sort();
        b.dedup();
    }

    let bounded_cycles = bounded_walks
        .iter()
        .map(|&wi| BoundedCycle {
            face: face_of_bounded_walk[&wi],
            polyline: walks[wi].polyline.clone(),
        })
        .collect();

    AssembledFaces { face_of_dart, face_boundaries, bounded_cycles, exterior }
}

/// Does the closed walk `ring` turn clockwise at one of its visits to its
/// lexicographically lowest point?
///
/// Exactly the outer walk of a skeleton component does. A visit to the
/// lowest point `v` passes, counter-clockwise from its outgoing to its
/// incoming dart, a wedge of the walk's face, and both darts point right of
/// `v` or straight up. A bounded face lies right of or above `v` too, so its
/// wedges stay in that half-plane and each visit turns counter-clockwise.
/// The unbounded face holds the directions left of `v` (the outer walk's
/// lowest point is its component's), so the visit whose wedge contains them
/// turns clockwise. No visit turns straight back: the skeleton is a union of
/// closed curves, so no vertex has degree one. The turn is the sign of the
/// cross product of the incoming and outgoing pieces' input-segment
/// directions (`dirs[i]` leaves `ring[i]`).
fn turns_clockwise_at_lowest(ring: &[Point], dirs: &[Vector]) -> bool {
    let lowest = ring.iter().min().expect("a face walk has points");
    let n = ring.len();
    (0..n)
        .filter(|&i| ring[i] == *lowest)
        .any(|i| dirs[(i + n - 1) % n].cross(&dirs[i]).signum() < 0)
}

/// Face labels by FIFO flood fill from the exterior face: crossing an edge
/// toggles membership in the regions whose boundary it lies on, so a face's
/// interior regions are its neighbour's, symmetric-differenced with the
/// crossed chain's (both ascending).
fn face_labels(g: &MergedGraph, assembled: &AssembledFaces) -> Vec<Label> {
    let face_count = assembled.face_boundaries.len();
    let mut labels: Vec<Option<Label>> = vec![None; face_count];
    labels[assembled.exterior.0] = Some(Label::default());
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(assembled.exterior);
    while let Some(f) = queue.pop_front() {
        // Cross every edge on the face boundary.
        for &e in &assembled.face_boundaries[f.0] {
            let fwd_face = assembled.face_of_dart[DartId::forward(e).0];
            let bwd_face = assembled.face_of_dart[DartId::backward(e).0];
            let neighbor = if fwd_face == f { bwd_face } else { fwd_face };
            if neighbor == f || labels[neighbor.0].is_some() {
                continue;
            }
            let current = labels[f.0].as_ref().expect("visited face has a label");
            let crossed = &g.edges[e.0].regions;
            let kept = current.iter().filter(|(r, _)| crossed.binary_search(r).is_err());
            let entered = crossed.iter().filter(|&&r| current.sign(r) == Sign::Exterior);
            labels[neighbor.0] = Some(kept.chain(entered.map(|&r| (r, Sign::Interior))).collect());
            queue.push_back(neighbor);
        }
    }
    labels
        .into_iter()
        .map(|l| l.expect("every face is reachable from the exterior face"))
        .collect()
}

/// `label` with every region of `boundary` (ascending) marked `Boundary`.
fn on_boundary(label: &Label, boundary: &[usize]) -> Label {
    let off = label.iter().filter(|(r, _)| boundary.binary_search(r).is_err());
    off.chain(boundary.iter().map(|&r| (r, Sign::Boundary))).collect()
}

/// Compute labels by propagation and assemble the final complex. Face labels
/// come from the flood fill of [`face_labels`]; an edge takes the label of
/// its left face and a vertex that of the face left of its first dart, with
/// the regions whose boundary the cell lies on marked `Boundary`, so every
/// label is written once, in time linear in its entries.
fn finish_complex(
    region_names: Vec<String>,
    g: MergedGraph,
    rotations: Vec<Vec<DartId>>,
    assembled: AssembledFaces,
) -> CellComplex {
    let face_count = assembled.face_boundaries.len();

    let face_labels = face_labels(&g, &assembled);
    crate::counters::add_labels_propagated(face_count as u64);

    // Assemble faces (cheap: label moves plus clones).
    let faces: Vec<FaceData> = face_labels
        .into_iter()
        .enumerate()
        .map(|(i, label)| FaceData {
            is_exterior: FaceId(i) == assembled.exterior,
            boundary_edges: assembled.face_boundaries[i].clone(),
            label,
        })
        .collect();

    // Assemble edges. Polylines and rotations are cloned rather than moved
    // out of the merge graph: the clones are packed tightly, cell by cell,
    // where the moved buffers would keep chain merging's scattered,
    // over-allocated layout — measurably slower for every later read.
    let edges: Vec<EdgeData> = g
        .edges
        .iter()
        .enumerate()
        .map(|(i, chain)| {
            let e = EdgeId(i);
            let left = assembled.face_of_dart[DartId::forward(e).0];
            let right = assembled.face_of_dart[DartId::backward(e).0];
            EdgeData {
                tail: VertexId(chain.tail),
                head: VertexId(chain.head),
                polyline: chain.polyline.clone(),
                left_face: left,
                right_face: right,
                label: on_boundary(&faces[left.0].label, &chain.regions),
            }
        })
        .collect();

    // Assemble vertices (reads the incident chains' regions).
    let vertices: Vec<VertexData> = g
        .vertex_points
        .iter()
        .zip(&rotations)
        .map(|(point, rotation)| {
            let face = &faces[assembled.face_of_dart[rotation[0].0].0].label;
            let mut marks: Vec<usize> =
                rotation.iter().flat_map(|d| g.edges[d.edge().0].regions.iter().copied()).collect();
            marks.sort_unstable();
            marks.dedup();
            let label = on_boundary(face, &marks);
            VertexData { point: *point, label, rotation: rotation.clone() }
        })
        .collect();

    CellComplex { region_names, vertices, edges, faces, exterior: assembled.exterior }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;
    use crate::complex::ComplexRead;

    #[test]
    fn empty_instance() {
        let c = build_complex(&SpatialInstance::new());
        assert_eq!(c.vertex_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.face_count(), 1);
        assert!(c.euler_formula_holds());
    }

    #[test]
    fn single_rectangle() {
        let inst = SpatialInstance::from_regions([("A", Region::rect_from_ints(0, 0, 4, 4))]);
        let c = build_complex(&inst);
        // One anchor vertex, one loop edge, two faces (inside + exterior).
        assert_eq!(c.vertex_count(), 1);
        assert_eq!(c.edge_count(), 1);
        assert_eq!(c.face_count(), 2);
        assert!(c.euler_formula_holds());
        assert!(c.is_connected());
        let interior_faces = c.region_faces("A");
        assert_eq!(interior_faces.len(), 1);
        assert_ne!(interior_faces[0], c.exterior_face());
        // Labels.
        let f_in = interior_faces[0];
        assert_eq!(c.face(f_in).label, label(&[(0, Sign::Interior)]));
        assert_eq!(c.face(c.exterior_face()).label, Label::default());
        assert_eq!(c.edge(EdgeId(0)).label, label(&[(0, Sign::Boundary)]));
        assert_eq!(c.vertex(VertexId(0)).label, label(&[(0, Sign::Boundary)]));
    }

    #[test]
    fn fig_1c_matches_example_3_1() {
        // The paper's Example 3.1: 2 vertices, 4 edges, 4 faces.
        let c = build_complex(&fixtures::fig_1c());
        assert_eq!(c.vertex_count(), 2, "{}", c.summary());
        assert_eq!(c.edge_count(), 4, "{}", c.summary());
        assert_eq!(c.face_count(), 4, "{}", c.summary());
        assert!(c.euler_formula_holds());
        assert!(c.is_connected());
        assert!(c.is_simple());

        // Face labels: exterior (-,-), A-only (o,-), B-only (-,o), lens (o,o).
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face(f).label.clone()).collect();
        labels.sort();
        let mut expected = vec![
            label(&[(0, Sign::Interior), (1, Sign::Interior)]),
            label(&[(0, Sign::Interior)]),
            label(&[(1, Sign::Interior)]),
            Label::default(),
        ];
        expected.sort();
        assert_eq!(labels, expected);

        // Edge labels as in Example 3.1: (A∂,B-), (A∂,Bo), (Ao,B∂), (A-,B∂).
        let mut edge_labels: Vec<Label> = c.edge_ids().map(|e| c.edge(e).label.clone()).collect();
        edge_labels.sort();
        let mut expected_edges = vec![
            label(&[(0, Sign::Boundary)]),
            label(&[(0, Sign::Boundary), (1, Sign::Interior)]),
            label(&[(0, Sign::Interior), (1, Sign::Boundary)]),
            label(&[(1, Sign::Boundary)]),
        ];
        expected_edges.sort();
        assert_eq!(edge_labels, expected_edges);

        // Both vertices are on both boundaries.
        for v in c.vertex_ids() {
            assert_eq!(c.vertex(v).label, label(&[(0, Sign::Boundary), (1, Sign::Boundary)]));
        }
    }

    #[test]
    fn fig_1d_has_two_lens_faces() {
        let c = build_complex(&fixtures::fig_1d());
        assert!(c.euler_formula_holds());
        let both = c
            .face_ids()
            .filter(|f| c.face(*f).label == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
            .count();
        assert_eq!(both, 2, "A ∩ B must have two connected components");
        // While in fig 1c it has exactly one.
        let c1 = build_complex(&fixtures::fig_1c());
        let both1 = c1
            .face_ids()
            .filter(|f| c1.face(*f).label == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
            .count();
        assert_eq!(both1, 1);
    }

    #[test]
    fn disjoint_regions_are_disconnected_components() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 2, 2)),
            ("B", Region::rect_from_ints(5, 5, 7, 7)),
        ]);
        let c = build_complex(&inst);
        assert_eq!(c.vertex_count(), 2);
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.face_count(), 3);
        assert!(!c.is_connected());
        assert_eq!(c.skeleton_component_count(), 2);
        assert!(c.euler_formula_holds());
        // The exterior face's boundary contains both loop edges.
        assert_eq!(c.face_edges(c.exterior_face()).len(), 2);
    }

    #[test]
    fn nested_regions_embed_in_inner_faces() {
        let c = build_complex(&fixtures::nested_three());
        // 3 loop edges, 3 anchor vertices, 4 faces.
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.face_count(), 4);
        assert!(c.euler_formula_holds());
        assert_eq!(c.skeleton_component_count(), 3);
        // Face labels: (-,-,-) exterior, (o,-,-), (o,o,-), (o,o,o).
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face(f).label.clone()).collect();
        labels.sort();
        let mut expected = vec![
            Label::default(),
            label(&[(0, Sign::Interior)]),
            label(&[(0, Sign::Interior), (1, Sign::Interior)]),
            label(&[(0, Sign::Interior), (1, Sign::Interior), (2, Sign::Interior)]),
        ];
        expected.sort();
        assert_eq!(labels, expected);
        // The annulus-like A-only face has two boundary edges (its own outer
        // boundary ∂A and the embedded ∂B).
        let a_only = c
            .face_ids()
            .find(|f| c.face(*f).label == label(&[(0, Sign::Interior)]))
            .unwrap();
        assert_eq!(c.face_edges(a_only).len(), 2);
        // The exterior face sees only ∂A.
        assert_eq!(c.face_edges(c.exterior_face()).len(), 1);
    }

    #[test]
    fn petals_share_one_vertex() {
        let c = build_complex(&fixtures::petals_abcd());
        // One vertex (the origin), four loop edges, five faces.
        assert_eq!(c.vertex_count(), 1);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.face_count(), 6 - 1);
        assert!(c.euler_formula_holds());
        assert!(c.is_connected());
        // Not simple: the exterior face's walk visits the origin four times.
        assert!(!c.is_simple());
        // The rotation at the origin has 8 darts.
        assert_eq!(c.rotation(VertexId(0)).len(), 8);
    }

    #[test]
    fn ring_has_two_all_exterior_faces() {
        let c = build_complex(&fixtures::ring());
        assert!(c.euler_formula_holds());
        let all_ext: Vec<FaceId> = c
            .face_ids()
            .filter(|f| c.face(*f).label == Label::default())
            .collect();
        assert_eq!(all_ext.len(), 2, "the hole and the unbounded face");
        assert!(all_ext.contains(&c.exterior_face()));
        // Two lens faces where A and B overlap.
        let lenses = c
            .face_ids()
            .filter(|f| c.face(*f).label == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
            .count();
        assert_eq!(lenses, 2);
    }

    #[test]
    fn ring_with_island_inside_vs_outside() {
        let inn = build_complex(&fixtures::ring_with_island(true));
        let out = build_complex(&fixtures::ring_with_island(false));
        assert!(inn.euler_formula_holds());
        assert!(out.euler_formula_holds());
        // Same counts...
        assert_eq!(inn.vertex_count(), out.vertex_count());
        assert_eq!(inn.edge_count(), out.edge_count());
        assert_eq!(inn.face_count(), out.face_count());
        // ...but in one case ∂C is on the boundary of the hole face, in the
        // other on the boundary of the unbounded face.
        let island_edge_in = inn.region_faces("C")[0];
        let _ = island_edge_in;
        let hole_of = |c: &CellComplex| {
            c.face_ids()
                .find(|f| {
                    *f != c.exterior_face() && c.face(*f).label == Label::default()
                })
                .unwrap()
        };
        let hole_in = hole_of(&inn);
        let hole_out = hole_of(&out);
        // Number of edges bounding the hole differs: 5 vs 4 (it gains ∂C).
        assert_eq!(inn.face_edges(hole_in).len(), out.face_edges(hole_out).len() + 1);
        assert_eq!(
            out.face_edges(out.exterior_face()).len(),
            inn.face_edges(inn.exterior_face()).len() + 1
        );
    }

    #[test]
    fn shared_boundary_edges_marked_for_both_regions() {
        let c = build_complex(&fixtures::shared_boundary());
        assert!(c.euler_formula_holds());
        let shared: Vec<EdgeId> =
            c.edge_ids().filter(|&e| c.edge_region_marks(e).len() == 2).collect();
        assert!(!shared.is_empty());
        for e in shared {
            let lbl = &c.edge(e).label;
            assert_eq!(lbl.iter().filter(|&(_, s)| s == Sign::Boundary).count(), 2);
        }
    }

    #[test]
    fn fig2_pairs_build_and_satisfy_euler() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let c = build_complex(&inst);
            assert!(c.euler_formula_holds(), "{name}: {}", c.summary());
        }
    }

    #[test]
    fn explicit_thread_counts_match_default_build() {
        for (name, inst) in [
            ("fig1a", fixtures::fig_1a()),
            ("fig1b", fixtures::fig_1b()),
            ("fig1c", fixtures::fig_1c()),
            ("fig1d", fixtures::fig_1d()),
            ("ring", fixtures::ring()),
            ("nested", fixtures::nested_three()),
            ("petals", fixtures::petals_abcd()),
            ("shared", fixtures::shared_boundary()),
            ("island_in", fixtures::ring_with_island(true)),
            ("island_out", fixtures::ring_with_island(false)),
        ] {
            let base = build_complex(&inst);
            let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
            for threads in [1, 4] {
                let built =
                    assemble_components(names.clone(), &build_component_complexes(&inst, threads));
                assert_eq!(format!("{base:?}"), format!("{built:?}"), "{name}: threads={threads}");
            }
        }
    }

    #[test]
    fn phase_counters_advance_during_a_build() {
        let before = crate::counters::phase_counters();
        let components = build_component_complexes(&fixtures::fig_1c(), 2);
        assert!(components.iter().all(|c| c.complex().euler_formula_holds()));
        let delta = crate::counters::phase_counters().delta_since(&before);
        assert!(delta.events_processed >= 1, "sweep events counted");
        assert!(delta.chains_merged >= 1, "merged chains counted");
        assert!(delta.cells_walked >= 1, "face walks counted");
        assert!(delta.labels_propagated >= 1, "propagated labels counted");
    }
}
