//! Construction of the [`CellComplex`](crate::CellComplex) of a spatial
//! instance.
//!
//! This is the polygonal counterpart of the Kozen–Yap cell-decomposition
//! algorithm the paper relies on for semi-algebraic inputs (see `DESIGN.md`).
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
//!    the faces extracted from the combinatorial embedding, same-component
//!    disconnected skeletons nested into the faces that contain them, and
//!    every cell labeled by exact combinatorial propagation from the
//!    unbounded face;
//! 3. [`crate::assemble`] stitches the component complexes into the global
//!    complex (cross-component nesting, exterior-face unification, label
//!    widening).
//!
//! [`build_complex_monolithic`] preserves the pre-partitioning single-sweep
//! construction as a differential-testing oracle: both paths must produce
//! isomorphic complexes on every input.

use crate::assemble::{assemble_components, BoundedCycle, ComponentComplex};
use crate::complex::CellComplex;
use crate::geometry::{closed_polyline_area_doubled, interior_point_of_simple_cycle, point_in_closed_polyline};
use crate::parallel::{configured_threads, map_indexed};
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
/// Independent components are swept concurrently (thread count from
/// `ARRANGEMENT_THREADS`, default = available parallelism; see
/// [`crate::parallel`]); the output is identical for every thread count.
/// The complex of the empty instance consists of the single unbounded face.
pub fn build_complex(instance: &SpatialInstance) -> CellComplex {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let components = build_component_complexes(instance, configured_threads());
    assemble_components(region_names, &components)
}

/// Build the zero-copy [`GlobalComplexView`] of a spatial instance by the
/// same partition → parallel per-component sweep pipeline as
/// [`build_complex`], assembling by view instead of by copy.
pub fn build_complex_view(instance: &SpatialInstance) -> GlobalComplexView {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let components = build_component_complexes(instance, configured_threads());
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
        Arc::new(crate::assemble::build_group(&members))
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
    let n_regions = region_names.len();

    if subs.is_empty() {
        // No geometry at all: a single exterior face.
        let complex = CellComplex {
            region_names,
            vertices: vec![],
            edges: vec![],
            faces: vec![FaceData {
                is_exterior: true,
                boundary_edges: vec![],
                label: vec![Sign::Exterior; n_regions],
                sample_point: None,
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
    /// Edges as (vertex, vertex, region set).
    edges: Vec<(usize, usize, Vec<usize>)>,
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
            edges.push((u, v, s.regions.clone()));
        }
        let mut incident = vec![Vec::new(); points.len()];
        for (i, (u, v, _)) in edges.iter().enumerate() {
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
        self.edges[e1].2 != self.edges[e2].2
    }
}

/// The merged graph: maximal 1-cells with polyline geometry.
struct MergedGraph {
    /// Positions of the surviving vertices.
    vertex_points: Vec<Point>,
    /// Edges: tail vertex, head vertex, polyline (tail..head), region set.
    edges: Vec<(usize, usize, Vec<Point>, Vec<usize>)>,
    region_count: usize,
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
        let mut cur = other_endpoint(raw, prev_edge, start);
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
            cur = other_endpoint(raw, next_edge, cur);
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
    let mut edges: Vec<(usize, usize, Vec<Point>, Vec<usize>)> = Vec::new();
    let region_count = raw
        .edges
        .iter()
        .flat_map(|(_, _, rs)| rs.iter().copied())
        .max()
        .map_or(0, |m| m + 1);

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
            let regions = raw.edges[e0].2.clone();
            let mut prev_edge = e0;
            edge_used[e0] = true;
            let mut cur = other_endpoint(raw, e0, v);
            while !anchor[cur] {
                polyline.push(raw.points[cur]);
                let inc = &raw.incident[cur];
                let next_edge = if inc[0] == prev_edge { inc[1] } else { inc[0] };
                debug_assert_eq!(
                    raw.edges[next_edge].2, regions,
                    "chain continues through a label change"
                );
                edge_used[next_edge] = true;
                prev_edge = next_edge;
                cur = other_endpoint(raw, prev_edge, cur);
            }
            polyline.push(raw.points[cur]);
            edges.push((new_id[v], new_id[cur], polyline, regions));
        }
    }
    debug_assert!(edge_used.iter().all(|&u| u), "all raw edges must be consumed");

    MergedGraph { vertex_points, edges, region_count }
}

fn other_endpoint(raw: &RawGraph, edge: usize, v: usize) -> usize {
    let (a, b, _) = &raw.edges[edge];
    if *a == v {
        *b
    } else {
        *a
    }
}

/// For every vertex, the outgoing darts sorted counter-clockwise by the
/// direction of their first polyline piece.
fn compute_rotations(g: &MergedGraph) -> Vec<Vec<DartId>> {
    let mut per_vertex: Vec<Vec<(Vector, DartId)>> = vec![Vec::new(); g.vertex_points.len()];
    for (idx, (tail, head, polyline, _)) in g.edges.iter().enumerate() {
        let e = EdgeId(idx);
        let fwd_dir = polyline[0].vector_to(&polyline[1]);
        let bwd_dir = polyline[polyline.len() - 1].vector_to(&polyline[polyline.len() - 2]);
        per_vertex[*tail].push((fwd_dir, DartId::forward(e)));
        per_vertex[*head].push((bwd_dir, DartId::backward(e)));
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
    /// Twice the signed area of the walk.
    area2: Rational,
    /// Skeleton component this walk belongs to.
    component: usize,
}

fn dart_polyline(g: &MergedGraph, d: DartId) -> Vec<Point> {
    let (_, _, polyline, _) = &g.edges[d.edge().0];
    if d.is_forward() {
        polyline.clone()
    } else {
        let mut p = polyline.clone();
        p.reverse();
        p
    }
}

fn dart_tail(g: &MergedGraph, d: DartId) -> usize {
    let (tail, head, _, _) = &g.edges[d.edge().0];
    if d.is_forward() {
        *tail
    } else {
        *head
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
        // Build the closed polyline (drop the duplicate junction points).
        let mut polyline: Vec<Point> = Vec::new();
        for d in &darts {
            let mut pl = dart_polyline(g, *d);
            pl.pop(); // the head point is the next dart's tail
            polyline.extend(pl);
        }
        let area2 = closed_polyline_area_doubled(&polyline);
        let comp = component[dart_tail(g, darts[0])];
        walks.push(Walk { darts, polyline, area2, component: comp });
    }
    walks
}

fn vertex_components(g: &MergedGraph) -> Vec<usize> {
    let n = g.vertex_points.len();
    let mut comp = vec![usize::MAX; n];
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (tail, head, _, _) in &g.edges {
        adjacency[*tail].push(*head);
        adjacency[*head].push(*tail);
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

/// The outcome of face assembly: face of every dart, exterior face, boundary
/// edge sets and sample points.
struct AssembledFaces {
    face_of_dart: Vec<FaceId>,
    face_boundaries: Vec<Vec<EdgeId>>,
    face_samples: Vec<Option<Point>>,
    /// The outer cycle of every bounded face, exported for cross-component
    /// nesting tests in [`crate::assemble`].
    bounded_cycles: Vec<BoundedCycle>,
    exterior: FaceId,
}

fn assemble_faces(g: &MergedGraph, walks: &[Walk]) -> AssembledFaces {
    let component_count = walks.iter().map(|w| w.component).max().map_or(0, |m| m + 1);

    // Positive walks become bounded faces; each component has exactly one
    // non-positive walk: its outer boundary.
    let mut bounded_walks: Vec<usize> = Vec::new();
    let mut outer_walk_of_component: Vec<Option<usize>> = vec![None; component_count];
    for (i, w) in walks.iter().enumerate() {
        if w.area2.signum() > 0 {
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
    // the bounded walks of *other* components; the innermost (smallest-area)
    // containing walk gives the parent face.
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
        let mut best: Option<(Rational, FaceId)> = None;
        for &wi in &bounded_walks {
            let w = &walks[wi];
            if w.component == c {
                continue;
            }
            if point_in_closed_polyline(&rep, &w.polyline) {
                let area = w.area2.abs();
                if best.as_ref().is_none_or(|(a, _)| area < *a) {
                    best = Some((area, face_of_bounded_walk[&wi]));
                }
            }
        }
        if let Some((_, f)) = best {
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

    // Sample points for bounded faces: a point inside the face's own outer
    // walk that is not inside (or on) any component embedded in the face.
    let mut face_samples: Vec<Option<Point>> = vec![None; face_count];
    for &wi in &bounded_walks {
        let face = face_of_bounded_walk[&wi];
        let w = &walks[wi];
        let candidate = interior_point_of_simple_cycle(&w.polyline);
        if let Some(p) = candidate {
            // Reject the candidate if it landed inside an embedded component.
            let mut ok = point_in_closed_polyline(&p, &w.polyline);
            if ok {
                for (other_wi, other) in walks.iter().enumerate() {
                    if other_wi == wi || other.component == w.component {
                        continue;
                    }
                    if parent_face_of_component[other.component] == face
                        && other.area2.signum() <= 0
                        && point_in_closed_polyline(&p, &other.polyline)
                    {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                face_samples[face.0] = Some(p);
            }
        }
    }

    let bounded_cycles = bounded_walks
        .iter()
        .map(|&wi| BoundedCycle {
            face: face_of_bounded_walk[&wi],
            polyline: walks[wi].polyline.clone(),
            area2: walks[wi].area2,
        })
        .collect();

    AssembledFaces { face_of_dart, face_boundaries, face_samples, bounded_cycles, exterior }
}

/// Face membership per region, by FIFO flood fill from the exterior face.
fn face_membership(
    g: &MergedGraph,
    assembled: &AssembledFaces,
    n_regions: usize,
) -> Vec<Vec<bool>> {
    let face_count = assembled.face_boundaries.len();
    let mut inside: Vec<Option<Vec<bool>>> = vec![None; face_count];
    inside[assembled.exterior.0] = Some(vec![false; n_regions]);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(assembled.exterior);
    while let Some(f) = queue.pop_front() {
        let current = inside[f.0].clone().expect("visited face has labels");
        // Cross every edge on the face boundary.
        for &e in &assembled.face_boundaries[f.0] {
            let fwd_face = assembled.face_of_dart[DartId::forward(e).0];
            let bwd_face = assembled.face_of_dart[DartId::backward(e).0];
            let neighbor = if fwd_face == f { bwd_face } else { fwd_face };
            if neighbor == f || inside[neighbor.0].is_some() {
                continue;
            }
            let mut next = current.clone();
            for &r in &g.edges[e.0].3 {
                next[r] = !next[r];
            }
            inside[neighbor.0] = Some(next);
            queue.push_back(neighbor);
        }
    }
    inside
        .into_iter()
        .map(|m| m.expect("every face is reachable from the exterior face"))
        .collect()
}

/// Compute labels by propagation and assemble the final complex.
fn finish_complex(
    region_names: Vec<String>,
    g: MergedGraph,
    rotations: Vec<Vec<DartId>>,
    assembled: AssembledFaces,
) -> CellComplex {
    let n_regions = region_names.len().max(g.region_count);
    let face_count = assembled.face_boundaries.len();

    let face_membership = face_membership(&g, &assembled, n_regions);
    crate::counters::add_labels_propagated(face_count as u64);

    // Assemble faces (cheap: label translation plus clones).
    let faces: Vec<FaceData> = (0..face_count)
        .map(|i| FaceData {
            is_exterior: FaceId(i) == assembled.exterior,
            boundary_edges: assembled.face_boundaries[i].clone(),
            label: face_membership[i]
                .iter()
                .map(|&b| if b { Sign::Interior } else { Sign::Exterior })
                .collect(),
            sample_point: assembled.face_samples[i],
        })
        .collect();

    // Assemble edges. Polylines, region sets and rotations are cloned rather
    // than moved out of the merge graph: the clones are packed tightly, cell
    // by cell, where the moved buffers would keep chain merging's scattered,
    // over-allocated layout — measurably slower for every later read.
    let edges: Vec<EdgeData> = g
        .edges
        .iter()
        .enumerate()
        .map(|(i, (tail, head, polyline, regions))| {
            let e = EdgeId(i);
            let left = assembled.face_of_dart[DartId::forward(e).0];
            let right = assembled.face_of_dart[DartId::backward(e).0];
            let label: Label = (0..n_regions)
                .map(|r| {
                    if regions.contains(&r) {
                        Sign::Boundary
                    } else if face_membership[left.0][r] {
                        Sign::Interior
                    } else {
                        Sign::Exterior
                    }
                })
                .collect();
            EdgeData {
                tail: VertexId(*tail),
                head: VertexId(*head),
                polyline: polyline.clone(),
                on_boundary_of: regions.clone(),
                left_face: left,
                right_face: right,
                label,
            }
        })
        .collect();

    // Assemble vertices (reads the assembled edges' boundary marks).
    let vertices: Vec<VertexData> = g
        .vertex_points
        .iter()
        .zip(&rotations)
        .map(|(point, rotation)| {
            let rotation = rotation.clone();
            let label: Label = (0..n_regions)
                .map(|r| {
                    let on_boundary = rotation
                        .iter()
                        .any(|d| edges[d.edge().0].on_boundary_of.contains(&r));
                    if on_boundary {
                        Sign::Boundary
                    } else {
                        let f = assembled.face_of_dart[rotation[0].0];
                        if face_membership[f.0][r] {
                            Sign::Interior
                        } else {
                            Sign::Exterior
                        }
                    }
                })
                .collect();
            VertexData { point: *point, label, rotation }
        })
        .collect();

    CellComplex { region_names, vertices, edges, faces, exterior: assembled.exterior }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;

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
        assert_eq!(c.face(f_in).label, vec![Sign::Interior]);
        assert_eq!(c.face(c.exterior_face()).label, vec![Sign::Exterior]);
        assert_eq!(c.edge(EdgeId(0)).label, vec![Sign::Boundary]);
        assert_eq!(c.vertex(VertexId(0)).label, vec![Sign::Boundary]);
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
            vec![Sign::Interior, Sign::Interior],
            vec![Sign::Interior, Sign::Exterior],
            vec![Sign::Exterior, Sign::Interior],
            vec![Sign::Exterior, Sign::Exterior],
        ];
        expected.sort();
        assert_eq!(labels, expected);

        // Edge labels as in Example 3.1: (A∂,B-), (A∂,Bo), (Ao,B∂), (A-,B∂).
        let mut edge_labels: Vec<Label> = c.edge_ids().map(|e| c.edge(e).label.clone()).collect();
        edge_labels.sort();
        let mut expected_edges = vec![
            vec![Sign::Boundary, Sign::Exterior],
            vec![Sign::Boundary, Sign::Interior],
            vec![Sign::Interior, Sign::Boundary],
            vec![Sign::Exterior, Sign::Boundary],
        ];
        expected_edges.sort();
        assert_eq!(edge_labels, expected_edges);

        // Both vertices are on both boundaries.
        for v in c.vertex_ids() {
            assert_eq!(c.vertex(v).label, vec![Sign::Boundary, Sign::Boundary]);
        }
    }

    #[test]
    fn fig_1d_has_two_lens_faces() {
        let c = build_complex(&fixtures::fig_1d());
        assert!(c.euler_formula_holds());
        let both = c
            .face_ids()
            .filter(|f| c.face(*f).label == vec![Sign::Interior, Sign::Interior])
            .count();
        assert_eq!(both, 2, "A ∩ B must have two connected components");
        // While in fig 1c it has exactly one.
        let c1 = build_complex(&fixtures::fig_1c());
        let both1 = c1
            .face_ids()
            .filter(|f| c1.face(*f).label == vec![Sign::Interior, Sign::Interior])
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
            vec![Sign::Exterior, Sign::Exterior, Sign::Exterior],
            vec![Sign::Interior, Sign::Exterior, Sign::Exterior],
            vec![Sign::Interior, Sign::Interior, Sign::Exterior],
            vec![Sign::Interior, Sign::Interior, Sign::Interior],
        ];
        expected.sort();
        assert_eq!(labels, expected);
        // The annulus-like A-only face has two boundary edges (its own outer
        // boundary ∂A and the embedded ∂B).
        let a_only = c
            .face_ids()
            .find(|f| c.face(*f).label == vec![Sign::Interior, Sign::Exterior, Sign::Exterior])
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
            .filter(|f| c.face(*f).label.iter().all(|&s| s == Sign::Exterior))
            .collect();
        assert_eq!(all_ext.len(), 2, "the hole and the unbounded face");
        assert!(all_ext.contains(&c.exterior_face()));
        // Two lens faces where A and B overlap.
        let lenses = c
            .face_ids()
            .filter(|f| c.face(*f).label == vec![Sign::Interior, Sign::Interior])
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
                    *f != c.exterior_face() && c.face(*f).label.iter().all(|&s| s == Sign::Exterior)
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
    fn face_sample_points_agree_with_labels() {
        for (name, inst) in [
            ("fig1a", fixtures::fig_1a()),
            ("fig1b", fixtures::fig_1b()),
            ("fig1c", fixtures::fig_1c()),
            ("fig1d", fixtures::fig_1d()),
            ("ring", fixtures::ring()),
            ("nested", fixtures::nested_three()),
            ("shared", fixtures::shared_boundary()),
        ] {
            let c = build_complex(&inst);
            assert!(c.euler_formula_holds(), "{name}");
            for f in c.face_ids() {
                let Some(p) = c.face(f).sample_point else { continue };
                for (idx, rname) in c.region_names().iter().enumerate() {
                    let expected = match inst.ext(rname).unwrap().locate(&p) {
                        Location::Inside => Sign::Interior,
                        Location::Boundary => Sign::Boundary,
                        Location::Outside => Sign::Exterior,
                    };
                    assert_eq!(
                        c.face(f).label[idx],
                        expected,
                        "{name}: face {f:?} sample {p:?} region {rname}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_boundary_edges_marked_for_both_regions() {
        let c = build_complex(&fixtures::shared_boundary());
        assert!(c.euler_formula_holds());
        let shared: Vec<EdgeId> =
            c.edge_ids().filter(|e| c.edge(*e).on_boundary_of.len() == 2).collect();
        assert!(!shared.is_empty());
        for e in shared {
            let lbl = &c.edge(e).label;
            assert_eq!(lbl.iter().filter(|&&s| s == Sign::Boundary).count(), 2);
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
