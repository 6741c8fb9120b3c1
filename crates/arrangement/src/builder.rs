//! Construction of the [`CellComplex`](crate::CellComplex) of a spatial
//! instance.
//!
//! This is the polygonal counterpart of the Kozen–Yap cell-decomposition
//! algorithm the paper relies on for semi-algebraic inputs: polygonal regions
//! stand in for the paper's semi-algebraic ones.
//! [`build_complex_view`] is the update of nothing
//! ([`crate::update_components`] with no previous components and every name
//! changed, assembled by [`GlobalComplexView::updated`] onto the empty view),
//! and [`build_complex`] its flat copy. Both run the three phases every
//! commit runs:
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
//!    outer walk is the one whose face holds the directions left of its
//!    lowest point),
//!    same-component disconnected skeletons nested into the faces that
//!    contain them (`skeleton_parents`, by crossing parity), and
//!    every cell labeled by exact combinatorial propagation from the
//!    unbounded face;
//! 3. [`crate::assemble`] and [`GlobalComplexView`] stitch the component
//!    complexes into the global complex (cross-component nesting,
//!    exterior-face unification, label widening).
//!
//! A component build receives its split ranked (`split::RankedSplit`): the
//! point table, carried from the component's last build and merged with the
//! points of its re-split rather than sorted again, and every cut set as
//! ranks into it. The local pipeline works on ranks from there: the raw
//! graph numbers its vertices through a rank-indexed table, its incidences,
//! chains, rotations, face walks and face boundaries are flat runs
//! (`runs::Runs`) of ranks, piece indices, darts and edges, the choice of
//! outer walks and the nesting of skeleton components take integer minima
//! of ranks, and points are read back from the table only where the complex
//! keeps them (vertex points and edge polylines) and where a nesting test
//! compares heights. The complex's rotations and face boundaries are the
//! builder's own runs, moved into it, its polylines one more run table, and
//! its labels three more, written entry by entry by the flood fill and the
//! edge and vertex labelling, so no cell owns a list. The face walks are
//! not kept: assembly locates a component in another by a pass over that
//! one's edges (`ComponentComplex::face_containing`).
//! Ranks are lexicographic, so every order an earlier point-keyed build
//! produced — pieces by `(a, b)`, vertices by first appearance — is the same,
//! and so is every cell id.
//!
//! Directions are ranked the same way. `split::Pieces` ranks the distinct
//! directions of the component's input segments once per build (its
//! *direction classes*; a rectilinear component has two), and a step along
//! a piece gets an integer angle key from its class and its sense
//! (`Pieces::angle_key`). The rotation sort orders darts by key, and each
//! skeleton component's outer walk is named at its lowest point from the
//! keys of the darts there, or from the classes of the two pieces through
//! it (`outer_dart`). After the sweep the only rational comparisons left
//! are the direction table's cross products of input directions (degree 2
//! in the input coordinates) and the nesting test. That test counts the
//! pieces of each bounded walk of another skeleton component that the `+x`
//! ray from a component's lowest point crosses: the half-open height test
//! compares that input endpoint with points of the table, and the side test
//! is an orientation against the input segment the piece lies on
//! (`Pieces::ray_crosses`), so it too is of degree 2. Among the walks
//! crossed an odd number of times, the innermost is the one whose lowest
//! rank is greatest. The exact-rational outer-walk turn and the ring rule
//! of nesting survive as the tests' oracles.
//!
//! [`build_complex_monolithic`] preserves the pre-partitioning single-sweep
//! construction as a differential-testing oracle: both paths must produce
//! isomorphic complexes on every input.

use crate::assemble::update_components;
use crate::complex::{CellComplex, ClosureSlots};
use crate::runs::Runs;
use crate::split::{instance_segments, Pieces};
use crate::types::*;
use crate::view::GlobalComplexView;
use spatial_core::prelude::*;

/// Build the maximal labeled cell complex of a spatial instance: the flat
/// copy ([`GlobalComplexView::to_cell_complex`]) of [`build_complex_view`].
/// The complex of the empty instance consists of the single unbounded face.
pub fn build_complex(instance: &SpatialInstance) -> CellComplex {
    build_complex_view(instance).to_cell_complex()
}

/// Build the zero-copy [`GlobalComplexView`] of a spatial instance: the
/// update of nothing ([`update_components`] with no previous components and
/// every name changed) assembled onto the empty view: the pipeline every
/// commit runs, and the update a database runs for its first epoch. The
/// from-scratch references ([`crate::partition_instance`],
/// [`crate::build_group_component`]) are not on its path. Independent
/// components are swept concurrently on the machine's available
/// parallelism; the output is identical for every thread count.
pub fn build_complex_view(instance: &SpatialInstance) -> GlobalComplexView {
    let names = instance.names();
    let update = update_components(&[], instance, &names, |_| None);
    let region_names = names.iter().map(|s| s.to_string()).collect();
    GlobalComplexView::new(Vec::new(), Vec::new()).updated(region_names, &names, update)
}

/// The pre-partitioning construction: one plane sweep over the whole
/// instance, faces and nesting resolved globally. Kept as the differential
/// oracle for the partitioned pipeline (and exercised by the `arrangement`
/// test suite); the two must agree up to cell re-indexing on every input.
pub fn build_complex_monolithic(instance: &SpatialInstance) -> CellComplex {
    let region_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let segments = instance_segments(instance);
    let split = crate::sweep::sweep(&segments);
    build_local(region_names, &Pieces::new(&segments, &split)).0
}

/// The local construction pipeline shared by the per-component and the
/// monolithic paths: build the cell complex of a split, together with each
/// region's interior faces (run `r` holds the bounded faces interior to
/// region `r`, ascending). Runs on the calling thread and bumps the
/// per-phase work counters of [`crate::counters`].
///
/// Every stage reads points by rank ([`Pieces`]): vertices, chains and face
/// walks hold ranks, darts and piece indices in flat buffers, and points are
/// read back from the point table only where the output keeps them (vertex
/// points and edge polylines).
pub(crate) fn build_local(region_names: Vec<String>, pieces: &Pieces) -> (CellComplex, Runs<FaceId>) {
    debug_assert!(region_names.windows(2).all(|w| w[0] < w[1]), "region names are sorted");
    if pieces.is_empty() {
        let region_faces = Runs::grouped(region_names.len(), std::iter::empty());
        return (CellComplex::exterior_only(region_names), region_faces);
    }

    // ---- Raw graph ----------------------------------------------------
    let raw = RawGraph::new(pieces);

    // ---- Merge chains into maximal 1-cells ------------------------------
    let merged = merge_chains(&raw, pieces);
    crate::counters::add_chains_merged(merged.chains.len() as u64);

    // ---- Rotation system -------------------------------------------------
    let rotations = Rotations::new(&merged, pieces);

    // ---- Face walks -------------------------------------------------------
    let (walks, walk_of_dart) = face_walks(&merged, &rotations);
    crate::counters::add_cells_walked(walks.len() as u64);

    // ---- Components and embedding forest ---------------------------------
    let assembled = assemble_faces(&merged, pieces, &rotations, &walks, &walk_of_dart);

    // ---- Labels -----------------------------------------------------------
    finish_complex(region_names, &merged, pieces, rotations, assembled)
}

/// The raw planar graph before chain merging: one vertex per cut point, one
/// edge per piece (edge `i` is piece `i`).
struct RawGraph {
    /// The rank of every vertex. Vertices are numbered in order of first
    /// appearance along the pieces, smaller endpoint first.
    ranks: Vec<u32>,
    /// Each edge's endpoints, as vertices: its piece's smaller endpoint
    /// first.
    ends: Vec<[u32; 2]>,
    /// The incident edges of every vertex, in edge order.
    incident: Runs<u32>,
}

impl RawGraph {
    fn new(pieces: &Pieces) -> Self {
        let mut vertex_of = vec![u32::MAX; pieces.points.len()];
        let mut ranks = Vec::with_capacity(pieces.points.len());
        let mut id = |r: u32| {
            let v = &mut vertex_of[r as usize];
            if *v == u32::MAX {
                *v = ranks.len() as u32;
                ranks.push(r);
            }
            *v
        };
        let ends: Vec<[u32; 2]> = pieces.pieces.iter().map(|p| [id(p.a), id(p.b)]).collect();
        let ends_of = ends.iter().zip(0..).flat_map(|(&[u, v], e)| [(u as usize, e), (v as usize, e)]);
        let incident = Runs::grouped(ranks.len(), ends_of);
        RawGraph { ranks, ends, incident }
    }

    fn vertex_count(&self) -> usize {
        self.ranks.len()
    }

    /// The edges incident to `v`, in edge order.
    fn incident(&self, v: usize) -> &[u32] {
        self.incident.get(v)
    }

    /// A vertex is an *anchor* (a forced 0-cell of the maximal complex) if it
    /// is not a plain degree-2 pass-through point of a single boundary curve
    /// bundle.
    fn is_anchor(&self, pieces: &Pieces, v: usize) -> bool {
        match *self.incident(v) {
            [e1, e2] => pieces.regions(e1 as usize) != pieces.regions(e2 as usize),
            _ => true,
        }
    }

    /// The other endpoint of edge `e`, leaving `v`.
    fn leave(&self, e: u32, v: usize) -> usize {
        let [a, b] = self.ends[e as usize];
        if a as usize == v {
            b as usize
        } else {
            a as usize
        }
    }

    /// The edge a walk entering degree-2 vertex `v` by edge `e` leaves by.
    fn pass(&self, e: u32, v: usize) -> u32 {
        match *self.incident(v) {
            [e1, e2] if e1 == e => e2,
            [e1, _] => e1,
            _ => unreachable!("a pass-through vertex has degree 2"),
        }
    }
}

/// The merged graph: maximal 1-cells with polyline geometry, as ranks.
struct MergedGraph {
    /// The rank of every 0-cell.
    vertex_ranks: Vec<u32>,
    chains: Vec<Chain>,
    /// Every chain's pieces, tail to head.
    pieces: Runs<u32>,
    /// Every chain's polyline, as ranks, tail to head: a chain has one more
    /// point than pieces.
    points: Runs<u32>,
}

/// The endpoints of a maximal 1-cell of the merged graph.
struct Chain {
    tail: usize,
    head: usize,
}

/// One piece of a face walk: along piece `piece`, leaving its endpoint of
/// rank `from`.
#[derive(Clone, Copy)]
struct Step {
    piece: u32,
    from: u32,
}

impl MergedGraph {
    /// The regions whose boundary chain `c` lies on, ascending.
    fn chain_regions<'a>(&self, pieces: &'a Pieces, c: usize) -> &'a [usize] {
        pieces.regions(self.pieces.get(c)[0] as usize)
    }

    /// Dart `d`'s steps, in its direction.
    fn steps(&self, d: DartId) -> impl DoubleEndedIterator<Item = Step> + '_ {
        let c = d.edge().0;
        let (pieces, points) = (self.pieces.get(c), self.points.get(c));
        let (k, forward) = (pieces.len(), d.is_forward());
        (0..k).map(move |j| {
            if forward {
                Step { piece: pieces[j], from: points[j] }
            } else {
                Step { piece: pieces[k - 1 - j], from: points[k - j] }
            }
        })
    }

    fn dart_tail(&self, d: DartId) -> usize {
        let chain = &self.chains[d.edge().0];
        if d.is_forward() {
            chain.tail
        } else {
            chain.head
        }
    }
}

/// Anchor flags of every raw vertex: the forced 0-cells
/// ([`RawGraph::is_anchor`]) plus one canonical anchor (the vertex of least
/// rank) per pure boundary cycle, so that every maximal 1-cell has
/// endpoints. The pure-cycle pass is a cheap scan touching each unanchored
/// vertex once.
fn chain_anchors(raw: &RawGraph, pieces: &Pieces) -> Vec<bool> {
    let n = raw.vertex_count();
    let mut anchor: Vec<bool> = (0..n).map(|v| raw.is_anchor(pieces, v)).collect();

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
        visited[start] = true;
        let mut lowest = start;
        let mut prev_edge = raw.incident(start)[0];
        let mut cur = raw.leave(prev_edge, start);
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
            if raw.ranks[cur] < raw.ranks[lowest] {
                lowest = cur;
            }
            prev_edge = raw.pass(prev_edge, cur);
            cur = raw.leave(prev_edge, cur);
        }
        if is_pure_cycle {
            anchor[lowest] = true;
        }
    }
    anchor
}

fn merge_chains(raw: &RawGraph, pieces: &Pieces) -> MergedGraph {
    let n = raw.vertex_count();
    let anchor = chain_anchors(raw, pieces);

    // Re-index anchors.
    let mut new_id = vec![usize::MAX; n];
    let mut vertex_ranks = Vec::new();
    for v in 0..n {
        if anchor[v] {
            new_id[v] = vertex_ranks.len();
            vertex_ranks.push(raw.ranks[v]);
        }
    }

    // Walk chains from anchors.
    let mut edge_used = vec![false; raw.ends.len()];
    let mut chains: Vec<Chain> = Vec::new();
    let mut chain_pieces = Runs::with_capacity(raw.ends.len(), raw.ends.len());
    let mut points = Runs::with_capacity(raw.ends.len(), raw.ends.len() + n);
    for v in 0..n {
        if !anchor[v] {
            continue;
        }
        for &e0 in raw.incident(v) {
            if edge_used[e0 as usize] {
                continue;
            }
            // Walk from v along e0 through non-anchor vertices.
            points.push_item(raw.ranks[v]);
            chain_pieces.push_item(e0);
            edge_used[e0 as usize] = true;
            let mut prev_edge = e0;
            let mut cur = raw.leave(e0, v);
            while !anchor[cur] {
                points.push_item(raw.ranks[cur]);
                let next_edge = raw.pass(prev_edge, cur);
                debug_assert_eq!(
                    pieces.regions(next_edge as usize),
                    pieces.regions(e0 as usize),
                    "chain continues through a label change"
                );
                edge_used[next_edge as usize] = true;
                chain_pieces.push_item(next_edge);
                prev_edge = next_edge;
                cur = raw.leave(next_edge, cur);
            }
            points.push_item(raw.ranks[cur]);
            points.close();
            chain_pieces.close();
            chains.push(Chain { tail: new_id[v], head: new_id[cur] });
        }
    }
    debug_assert!(edge_used.iter().all(|&u| u), "all raw edges must be consumed");

    MergedGraph { vertex_ranks, chains, pieces: chain_pieces, points }
}

/// The rotation system: for every vertex, the outgoing darts sorted
/// counter-clockwise by the direction of their first piece.
struct Rotations {
    /// Every vertex's darts, counter-clockwise.
    darts: Runs<DartId>,
    /// The position of every dart in its tail's rotation.
    position: Vec<usize>,
    /// The angle key of every dart's first step ([`Pieces::angle_key`]).
    key: Vec<u32>,
}

impl Rotations {
    /// Sort each vertex's darts by `(angle key, dart)`: the keys compare as
    /// the first steps' directions do, so this is the counter-clockwise
    /// order, ties (collinear darts, which a planar embedding does not
    /// have) broken by dart id.
    fn new(g: &MergedGraph, pieces: &Pieces) -> Rotations {
        let all = (0..2 * g.chains.len()).map(DartId);
        let mut darts = Runs::grouped(g.vertex_ranks.len(), all.clone().map(|d| (g.dart_tail(d), d)));
        let key: Vec<u32> = all
            .map(|d| {
                let first = g.steps(d).next().expect("a chain has a piece");
                pieces.angle_key(first.piece as usize, first.from)
            })
            .collect();
        let mut position = vec![0; darts.items().len()];
        for v in 0..darts.len() {
            let rotation = darts.get_mut(v);
            rotation.sort_unstable_by_key(|d| (key[d.0], d.0));
            for (i, d) in rotation.iter().enumerate() {
                position[d.0] = i;
            }
        }
        Rotations { darts, position, key }
    }

    /// Vertex `v`'s darts, counter-clockwise.
    fn of(&self, v: usize) -> &[DartId] {
        self.darts.get(v)
    }

    /// next(d): at head(d), the dart cyclically preceding twin(d) in the
    /// counter-clockwise rotation (faces lie to the left of darts).
    fn next(&self, g: &MergedGraph, d: DartId) -> DartId {
        let twin = d.twin();
        let rotation = self.of(g.dart_tail(twin));
        rotation[(self.position[twin.0] + rotation.len() - 1) % rotation.len()]
    }
}

/// Face walks: boundary cycles of the embedding, as darts, one run each.
type Walks = Runs<DartId>;

/// The face walks, and the walk of every dart.
fn face_walks(g: &MergedGraph, rotations: &Rotations) -> (Walks, Vec<usize>) {
    let dart_count = g.chains.len() * 2;
    let mut walk_of_dart = vec![usize::MAX; dart_count];
    let mut walks = Walks::with_capacity(dart_count, dart_count);
    for start in 0..dart_count {
        if walk_of_dart[start] != usize::MAX {
            continue;
        }
        let mut d = DartId(start);
        loop {
            walk_of_dart[d.0] = walks.len();
            walks.push_item(d);
            d = rotations.next(g, d);
            if d.0 == start {
                break;
            }
        }
        walks.close();
    }
    (walks, walk_of_dart)
}

/// The skeleton component of every vertex, and how many there are.
fn vertex_components(g: &MergedGraph, rotations: &Rotations) -> (Vec<usize>, usize) {
    let n = g.vertex_ranks.len();
    let mut comp = vec![usize::MAX; n];
    let mut next_comp = 0;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        stack.push(start);
        comp[start] = next_comp;
        while let Some(v) = stack.pop() {
            for &d in rotations.of(v) {
                let w = g.dart_tail(d.twin());
                if comp[w] == usize::MAX {
                    comp[w] = next_comp;
                    stack.push(w);
                }
            }
        }
        next_comp += 1;
    }
    (comp, next_comp)
}

/// The outcome of face assembly: face of every dart, exterior face and
/// boundary edge sets.
struct AssembledFaces {
    face_of_dart: Vec<FaceId>,
    /// Every face's boundary edges, ascending.
    face_boundaries: Runs<EdgeId>,
    exterior: FaceId,
}

fn assemble_faces(
    g: &MergedGraph,
    pieces: &Pieces,
    rotations: &Rotations,
    walks: &Walks,
    walk_of_dart: &[usize],
) -> AssembledFaces {
    let (component, component_count) = vertex_components(g, rotations);
    let component_of_walk = |w: usize| component[g.dart_tail(walks.get(w)[0])];
    let lowest = lowest_points(g, &component, component_count);

    // Each component has exactly one outer walk, the one whose face holds the
    // directions left of its lowest point (`outer_dart`); the others become
    // bounded faces, with face ids from 1 in walk order (0 is the exterior).
    let mut is_outer = vec![false; walks.len()];
    for low in &lowest {
        let outer = &mut is_outer[walk_of_dart[outer_dart(g, pieces, rotations, low).0]];
        debug_assert!(!*outer, "two skeleton components share an outer walk");
        *outer = true;
    }
    let exterior = FaceId(0);
    let mut face_of_bounded_walk: Vec<Option<FaceId>> = vec![None; walks.len()];
    let mut bounded: Vec<usize> = Vec::new();
    for (w, face) in face_of_bounded_walk.iter_mut().enumerate() {
        if !is_outer[w] {
            bounded.push(w);
            *face = Some(FaceId(bounded.len()));
        }
    }
    let face_count = bounded.len() + 1;

    // Embedding forest: which face is each component embedded in?
    let parent_face_of_component = skeleton_parents(g, pieces, walks, &bounded, &component, &lowest);

    // Face of every dart: darts on bounded walks get that walk's face; darts
    // on a component's outer walk get the face the component is embedded in.
    let mut face_of_dart = vec![exterior; g.chains.len() * 2];
    for (w, face) in face_of_bounded_walk.iter().enumerate() {
        let face = face.unwrap_or_else(|| parent_face_of_component[component_of_walk(w)]);
        for d in walks.get(w) {
            face_of_dart[d.0] = face;
        }
    }

    // Boundary edge sets, ascending: an edge is on its darts' faces, once
    // if both are the same.
    let faces_of_edge = |e: usize| {
        let (left, right) = (face_of_dart[2 * e], face_of_dart[2 * e + 1]);
        std::iter::once(left).chain((right != left).then_some(right))
    };
    let incidences = (0..g.chains.len()).flat_map(|e| faces_of_edge(e).map(move |f| (f.0, EdgeId(e))));
    let face_boundaries = Runs::grouped(face_count, incidences);
    AssembledFaces { face_of_dart, face_boundaries, exterior }
}

/// The face every skeleton component is embedded in: bounded face `k + 1`
/// if `bounded[k]` is the innermost walk of another component that encloses
/// the component's lowest point, the exterior face if none does.
///
/// A walk encloses the point iff the `+x` ray from it crosses the walk's
/// pieces an odd number of times ([`Pieces::ray_crosses`]). The point is an
/// input endpoint and each side test is against an input segment, so every
/// product is of degree 2 in the input. The walks of distinct skeleton
/// components are disjoint closed curves, so those enclosing the point nest,
/// and each encloses the lowest points of those inside it: the innermost is
/// the one whose lowest rank is greatest.
fn skeleton_parents(
    g: &MergedGraph,
    pieces: &Pieces,
    walks: &Walks,
    bounded: &[usize],
    component: &[usize],
    lowest: &[Lowest],
) -> Vec<FaceId> {
    let chains = |w: usize| walks.get(w).iter().map(|d| d.edge().0);
    let mut parents = vec![FaceId(0); lowest.len()];
    for (c, low) in lowest.iter().enumerate() {
        let p = &pieces.points[low.rank as usize];
        let odd = |w: usize| {
            let on = chains(w).flat_map(|e| g.pieces.get(e));
            on.filter(|&&q| pieces.ray_crosses(q as usize, p)).count() % 2 == 1
        };
        let other = |w: usize| component[g.dart_tail(walks.get(w)[0])] != c;
        let enclosing = (1..).zip(bounded).filter(|&(_, &w)| other(w) && odd(w));
        let walk_low = |w: usize| chains(w).flat_map(|e| g.points.get(e)).min();
        if let Some((f, _)) = enclosing.max_by_key(|&(_, &w)| walk_low(w)) {
            parents[c] = FaceId(f);
        }
    }
    parents
}

/// The lowest point of a skeleton component, the point of least rank on its
/// chains, and where it lies: point `at` of chain `chain`'s polyline.
#[derive(Clone, Copy)]
struct Lowest {
    rank: u32,
    chain: usize,
    at: usize,
}

/// Every skeleton component's lowest point: an integer minimum over the
/// ranks of the chains' points.
fn lowest_points(g: &MergedGraph, component: &[usize], component_count: usize) -> Vec<Lowest> {
    let mut lowest = vec![Lowest { rank: u32::MAX, chain: 0, at: 0 }; component_count];
    for (c, (chain, points)) in g.chains.iter().zip(g.points.iter()).enumerate() {
        let low = &mut lowest[component[chain.tail]];
        let (rank, at) = points.iter().zip(0..).min().expect("a chain has points");
        if *rank < low.rank {
            *low = Lowest { rank: *rank, chain: c, at };
        }
    }
    lowest
}

/// A dart of the outer walk of the skeleton component whose lowest point is
/// `low`: the walk whose face holds the directions left of that point.
///
/// Every step leaving the lowest point points right of it or straight up,
/// a forward step of its piece. If the point is a vertex, its rotation
/// holds the upper-half darts first (angles in `[0, π/2]`), then those
/// below the x axis, and the face left of a dart is the wedge
/// counter-clockwise from it to the next: the wedge holding the left
/// directions starts at the last upper dart, or at the last dart if none is
/// upper. If it is a pass-through point of a chain, the forward dart
/// arrives along the piece before it and leaves along the piece after it,
/// and its face is the wedge counter-clockwise from the leaving piece to
/// the arriving one: it holds the left directions when the leaving piece's
/// direction class is the larger, and the backward dart's face does
/// otherwise. No class decision compares a rational.
fn outer_dart(g: &MergedGraph, pieces: &Pieces, rotations: &Rotations, low: &Lowest) -> DartId {
    let chain = &g.chains[low.chain];
    let last = g.points.get(low.chain).len() - 1;
    if low.at == 0 || low.at == last {
        let v = if low.at == 0 { chain.tail } else { chain.head };
        let rotation = rotations.of(v);
        let upper = rotation.iter().rposition(|d| pieces.is_upper(rotations.key[d.0]));
        rotation[upper.unwrap_or(rotation.len() - 1)]
    } else {
        let on = g.pieces.get(low.chain);
        let class = |j: usize| pieces.pieces[on[j] as usize].class;
        let e = EdgeId(low.chain);
        if class(low.at) > class(low.at - 1) {
            DartId::forward(e)
        } else {
            DartId::backward(e)
        }
    }
}

/// Face labels by FIFO flood fill from the exterior face: crossing an edge
/// toggles membership in the regions whose boundary it lies on, so a face's
/// interior regions are its neighbour's, symmetric-differenced with the
/// crossed chain's ([`push_toggled`]). The fill writes each label as one
/// run of a flat table in visiting order, then copies the runs into face
/// order.
fn face_labels(g: &MergedGraph, pieces: &Pieces, assembled: &AssembledFaces) -> Labels {
    let face_count = assembled.face_boundaries.len();
    // `visited[k]` is the label of `order[k]`, and `slot[f]` the k of face f.
    let mut visited = Labels::with_capacity(face_count, face_count);
    let mut order = Vec::with_capacity(face_count);
    let mut slot = vec![usize::MAX; face_count];
    slot[assembled.exterior.0] = 0;
    order.push(assembled.exterior);
    visited.close();
    let mut current: Vec<(usize, Sign)> = Vec::new();
    let mut next = 0;
    while let Some(&f) = order.get(next) {
        current.clear();
        current.extend_from_slice(visited.get(next));
        next += 1;
        // Cross every edge on the face boundary.
        for &e in assembled.face_boundaries.get(f.0) {
            let fwd_face = assembled.face_of_dart[DartId::forward(e).0];
            let bwd_face = assembled.face_of_dart[DartId::backward(e).0];
            let neighbor = if fwd_face == f { bwd_face } else { fwd_face };
            if neighbor == f || slot[neighbor.0] != usize::MAX {
                continue;
            }
            push_toggled(&mut visited, &current, g.chain_regions(pieces, e.0));
            slot[neighbor.0] = order.len();
            order.push(neighbor);
        }
    }
    let mut labels = Labels::with_capacity(face_count, visited.items().len());
    for k in slot {
        assert!(k != usize::MAX, "every face is reachable from the exterior face");
        labels.push(visited.get(k));
    }
    labels
}

/// Append to `labels` the run of the face label `label` with membership in
/// every region of `crossed` (ascending) toggled: one merge of the two
/// ascending lists, a region in both leaving and one in `crossed` alone
/// entering as `Interior`.
fn push_toggled(labels: &mut Labels, label: &[(usize, Sign)], crossed: &[usize]) {
    let mut rest = crossed;
    for &(r, s) in label {
        while let Some((&c, tail)) = rest.split_first().filter(|&(&c, _)| c < r) {
            labels.push_item((c, Sign::Interior));
            rest = tail;
        }
        match rest.split_first() {
            Some((&c, tail)) if c == r => rest = tail,
            _ => labels.push_item((r, s)),
        }
    }
    rest.iter().for_each(|&c| labels.push_item((c, Sign::Interior)));
    labels.close();
}

/// Append to `labels` the run of `label` with every region of `boundary`
/// (ascending) marked `Boundary`: one merge of the two ascending lists.
fn push_on_boundary(labels: &mut Labels, label: &[(usize, Sign)], boundary: &[usize]) {
    let mut rest = boundary;
    for &(r, s) in label {
        while let Some((&b, tail)) = rest.split_first().filter(|&(&b, _)| b < r) {
            labels.push_item((b, Sign::Boundary));
            rest = tail;
        }
        match rest.split_first() {
            Some((&b, tail)) if b == r => {
                labels.push_item((r, Sign::Boundary));
                rest = tail;
            }
            _ => labels.push_item((r, s)),
        }
    }
    rest.iter().for_each(|&b| labels.push_item((b, Sign::Boundary)));
    labels.close();
}

/// The bounded faces interior to each of `regions` regions, ascending: the
/// final face labels inverted, one run per region.
fn interior_faces(labels: &Labels, exterior: FaceId, regions: usize) -> Runs<FaceId> {
    let bounded = labels.iter().enumerate().filter(|&(f, _)| f != exterior.0);
    let pairs = bounded.flat_map(|(f, label)| {
        let interior = label.iter().filter(|&&(_, s)| s == Sign::Interior);
        interior.map(move |&(r, _)| (r, FaceId(f)))
    });
    Runs::grouped(regions, pairs)
}

/// Compute labels by propagation and assemble the final complex, with each
/// region's interior faces ([`interior_faces`]). Face labels come from the
/// flood fill of [`face_labels`]; an edge takes the label of its left face
/// and a vertex that of the face left of its first dart, with the regions
/// whose boundary the cell lies on marked `Boundary`, so every label is
/// written once, in time linear in its entries. Every list a cell has is a
/// run of a flat table: the labels are written straight into one table per
/// dimension, the rotations and the face boundaries are the builder's own,
/// moved, and the polylines are the chains' ranks read back from the point
/// table, so none of them costs an allocation per cell.
fn finish_complex(
    region_names: Vec<String>,
    g: &MergedGraph,
    pieces: &Pieces,
    rotations: Rotations,
    assembled: AssembledFaces,
) -> (CellComplex, Runs<FaceId>) {
    let face_labels = face_labels(g, pieces, &assembled);
    crate::counters::add_labels_propagated(face_labels.len() as u64);
    let region_faces = interior_faces(&face_labels, assembled.exterior, region_names.len());

    let AssembledFaces { face_of_dart, face_boundaries, exterior, .. } = assembled;
    let faces: Vec<FaceData> =
        (0..face_labels.len()).map(|i| FaceData { is_exterior: FaceId(i) == exterior }).collect();

    let mut edge_labels = Labels::with_capacity(g.chains.len(), face_labels.items().len() + g.chains.len());
    let mut edges: Vec<EdgeData> = Vec::with_capacity(g.chains.len());
    for (i, chain) in g.chains.iter().enumerate() {
        let e = EdgeId(i);
        let left = face_of_dart[DartId::forward(e).0];
        let right = face_of_dart[DartId::backward(e).0];
        edges.push(EdgeData { tail: VertexId(chain.tail), head: VertexId(chain.head), left_face: left, right_face: right });
        push_on_boundary(&mut edge_labels, face_labels.get(left.0), g.chain_regions(pieces, i));
    }
    let polylines = g.points.map(|&r| pieces.points[r as usize]);

    // Vertices: the regions of the incident chains, inserted one by one into
    // one reused ascending buffer, each once. A vertex has a few incident
    // chains of a region or two each, so this beats collecting, sorting and
    // deduplicating them.
    let mut marks: Vec<usize> = Vec::new();
    let n = g.vertex_ranks.len();
    let mut vertex_labels = Labels::with_capacity(n, 2 * n);
    let mut vertices: Vec<VertexData> = Vec::with_capacity(n);
    for (v, &rank) in g.vertex_ranks.iter().enumerate() {
        let rotation = rotations.of(v);
        marks.clear();
        for d in rotation {
            for &r in g.chain_regions(pieces, d.edge().0) {
                if let Err(at) = marks.binary_search(&r) {
                    marks.insert(at, r);
                }
            }
        }
        let face = face_of_dart[rotation[0].0];
        push_on_boundary(&mut vertex_labels, face_labels.get(face.0), &marks);
        vertices.push(VertexData { point: pieces.points[rank as usize] });
    }

    let rotations = rotations.darts;
    let complex = CellComplex {
        closures: ClosureSlots::new(region_names.len()),
        region_names,
        vertices,
        edges,
        faces,
        vertex_labels,
        edge_labels,
        face_labels,
        rotations,
        polylines,
        face_edges: face_boundaries,
        exterior,
    };
    (complex, region_faces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;
    use crate::assemble::tests::innermost_cycle;
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
        assert_eq!(c.face_label(f_in), label(&[(0, Sign::Interior)]));
        assert_eq!(c.face_label(c.exterior_face()), Label::default());
        assert_eq!(c.edge_label(EdgeId(0)), label(&[(0, Sign::Boundary)]));
        assert_eq!(c.vertex_label(VertexId(0)), label(&[(0, Sign::Boundary)]));
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
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face_label(f)).collect();
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
        let mut edge_labels: Vec<Label> = c.edge_ids().map(|e| c.edge_label(e)).collect();
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
            assert_eq!(c.vertex_label(v), label(&[(0, Sign::Boundary), (1, Sign::Boundary)]));
        }
    }

    #[test]
    fn fig_1d_has_two_lens_faces() {
        let c = build_complex(&fixtures::fig_1d());
        assert!(c.euler_formula_holds());
        let both = c
            .face_ids()
            .filter(|f| c.face_label(*f) == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
            .count();
        assert_eq!(both, 2, "A ∩ B must have two connected components");
        // While in fig 1c it has exactly one.
        let c1 = build_complex(&fixtures::fig_1c());
        let both1 = c1
            .face_ids()
            .filter(|f| c1.face_label(*f) == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
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
        assert_eq!(c.face_boundary(c.exterior_face()).len(), 2);
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
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face_label(f)).collect();
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
            .find(|f| c.face_label(*f) == label(&[(0, Sign::Interior)]))
            .unwrap();
        assert_eq!(c.face_boundary(a_only).len(), 2);
        // The exterior face sees only ∂A.
        assert_eq!(c.face_boundary(c.exterior_face()).len(), 1);
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
        assert_eq!(c.vertex_rotation(VertexId(0)).len(), 8);
    }

    #[test]
    fn ring_has_two_all_exterior_faces() {
        let c = build_complex(&fixtures::ring());
        assert!(c.euler_formula_holds());
        let all_ext: Vec<FaceId> = c
            .face_ids()
            .filter(|f| c.face_label(*f) == Label::default())
            .collect();
        assert_eq!(all_ext.len(), 2, "the hole and the unbounded face");
        assert!(all_ext.contains(&c.exterior_face()));
        // Two lens faces where A and B overlap.
        let lenses = c
            .face_ids()
            .filter(|f| c.face_label(*f) == label(&[(0, Sign::Interior), (1, Sign::Interior)]))
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
                    *f != c.exterior_face() && c.face_label(*f) == Label::default()
                })
                .unwrap()
        };
        let hole_in = hole_of(&inn);
        let hole_out = hole_of(&out);
        // Number of edges bounding the hole differs: 5 vs 4 (it gains ∂C).
        assert_eq!(inn.face_boundary(hole_in).len(), out.face_boundary(hole_out).len() + 1);
        assert_eq!(
            out.face_boundary(out.exterior_face()).len(),
            inn.face_boundary(inn.exterior_face()).len() + 1
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
            let lbl = &c.edge_label(e);
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

    /// Does the closed walk `darts` turn clockwise at one of its visits to its
    /// lexicographically lowest point, the point of least rank? The oracle of
    /// [`outer_dart`], in exact rationals.
    ///
    /// Exactly the outer walk of a skeleton component does. A visit to the
    /// lowest point `v` passes, counter-clockwise from its outgoing to its
    /// incoming dart, a wedge of the walk's face, and both darts point right
    /// of `v` or straight up. A bounded face lies right of or above `v` too,
    /// so its wedges stay in that half-plane and each visit turns
    /// counter-clockwise. The unbounded face holds the directions left of `v`
    /// (the outer walk's lowest point is its component's), so the visit
    /// whose wedge contains them turns clockwise. No visit turns straight
    /// back: the skeleton is a union of closed curves, so no vertex has
    /// degree one. The turn is the sign of the cross product of the incoming
    /// and outgoing pieces' input-segment directions.
    fn turns_clockwise_at_lowest(g: &MergedGraph, pieces: &Pieces, darts: &[DartId]) -> bool {
        let steps = || darts.iter().flat_map(|&d| g.steps(d));
        let lowest = steps().map(|s| s.from).min().expect("a face walk has points");
        let last = darts.last().and_then(|&d| g.steps(d).next_back()).expect("a face walk has pieces");
        let dir = |s: Step| pieces.step_direction(s.piece as usize, s.from);
        let incoming = std::iter::once(last).chain(steps());
        incoming.zip(steps()).any(|(into, out)| out.from == lowest && dir(into).cross(&dir(out)).signum() < 0)
    }

    /// Run the local pipeline on `instance` up to the face walks, and check
    /// that every rotation is counter-clockwise by [`Vector::angle_cmp`] and
    /// that the outer walks [`outer_dart`] picks are exactly those of
    /// [`turns_clockwise_at_lowest`]. Returns how many components have their
    /// lowest point inside a chain, and how many at a vertex with darts both
    /// above and below the x axis.
    fn check_outer_walks(name: &str, instance: &SpatialInstance) -> (usize, usize) {
        let segments = instance_segments(instance);
        let split = crate::sweep::sweep(&segments);
        let pieces = Pieces::new(&segments, &split);
        if pieces.is_empty() {
            return (0, 0);
        }
        let g = merge_chains(&RawGraph::new(&pieces), &pieces);
        let rotations = Rotations::new(&g, &pieces);
        let first_dir = |d: &DartId| {
            let first = g.steps(*d).next().expect("a chain has a piece");
            pieces.step_direction(first.piece as usize, first.from)
        };
        for v in 0..g.vertex_ranks.len() {
            let rotation = rotations.of(v);
            let ordered = rotation.windows(2).all(|w| first_dir(&w[0]).angle_cmp(&first_dir(&w[1])).is_le());
            assert!(ordered, "{name}: rotation of vertex {v}");
        }

        let (walks, walk_of_dart) = face_walks(&g, &rotations);
        let (component, component_count) = vertex_components(&g, &rotations);
        let lowest = lowest_points(&g, &component, component_count);
        let mut picked = vec![false; walks.len()];
        let (mut pass_through, mut mixed_vertex) = (0, 0);
        for low in &lowest {
            picked[walk_of_dart[outer_dart(&g, &pieces, &rotations, low).0]] = true;
            let (chain, last) = (&g.chains[low.chain], g.points.get(low.chain).len() - 1);
            if low.at == 0 || low.at == last {
                let rotation = rotations.of(if low.at == 0 { chain.tail } else { chain.head });
                let upper = rotation.iter().filter(|d| pieces.is_upper(rotations.key[d.0])).count();
                mixed_vertex += (0 < upper && upper < rotation.len()) as usize;
            } else {
                pass_through += 1;
            }
        }
        for (w, darts) in walks.iter().enumerate() {
            let oracle = turns_clockwise_at_lowest(&g, &pieces, darts);
            assert_eq!(picked[w], oracle, "{name}: walk {w} of {}", walks.len());
        }
        (pass_through, mixed_vertex)
    }

    #[test]
    fn outer_walks_turn_clockwise_at_their_lowest_points() {
        let shifted = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(2, 2, 6, 6)),
        ]);
        let (pass_through, _) = check_outer_walks("shifted", &shifted);
        assert_eq!(pass_through, 1, "A's corner (0, 0) lies inside a chain between the crossings");
        let kite = Region::polygon_from_ints(&[(0, 0), (4, -2), (6, 0), (4, 2)]).unwrap();
        let kite = SpatialInstance::from_regions([("K", kite)]);
        let (_, mixed_vertex) = check_outer_walks("kite", &kite);
        assert_eq!(mixed_vertex, 1, "the kite's anchor (0, 0) has a dart on each side of the x axis");

        let mut seen = (0, 0);
        for (name, instance) in &face_families() {
            let (pass_through, mixed_vertex) = check_outer_walks(name, instance);
            seen = (seen.0 + pass_through, seen.1 + mixed_vertex);
        }
        assert!(seen.0 > 0 && seen.1 > 0, "the families have both kinds of lowest point");
        for_each_dense_step(|name, instance| {
            check_outer_walks(name, instance);
        });
    }

    /// The instances the face-assembly oracles run on: the paper's fixtures,
    /// a few `datagen` families, the slanted nested triple at a scale its
    /// ring oracle survives, and the pairs of Fig. 2.
    fn face_families() -> Vec<(String, SpatialInstance)> {
        let k = 2_000;
        let slanted = SpatialInstance::from_regions([
            ("a", Region::polygon_from_ints(&[(0, 0), (k, 1), (k - 3, k - 1), (1, k - 7)]).unwrap()),
            ("b", Region::polygon_from_ints(&[(k / 3, -5), (k + 11, k / 2 + 3), (k / 2 - 1, k + 13)]).unwrap()),
            ("c", Region::polygon_from_ints(&[(1_200, 1_000), (1_207, 1_001), (1_202, 1_009)]).unwrap()),
        ]);
        let mut families = vec![
            ("fig_1a", fixtures::fig_1a()),
            ("fig_1b", fixtures::fig_1b()),
            ("fig_1c", fixtures::fig_1c()),
            ("fig_1d", fixtures::fig_1d()),
            ("ring", fixtures::ring()),
            ("ring_with_flag", fixtures::ring_with_flag()),
            ("island_in", fixtures::ring_with_island(true)),
            ("island_out", fixtures::ring_with_island(false)),
            ("petals_abcd", fixtures::petals_abcd()),
            ("petals_acbd", fixtures::petals_acbd()),
            ("nested", fixtures::nested_three()),
            ("shared", fixtures::shared_boundary()),
            ("rectilinear_pair", fixtures::rectilinear_pair()),
            ("nested_rings", datagen::nested_rings(5)),
            ("flower", datagen::flower(6, 2)),
            ("road_network_map", datagen::road_network_map(4, 4, 12, 1)),
            ("slanted_nested", slanted),
        ];
        families.extend(fixtures::fig_2_pairs());
        families.into_iter().map(|(name, instance)| (name.to_string(), instance)).collect()
    }

    /// Call `check` on every step of the dense edit trace (a prefix in debug
    /// builds).
    fn for_each_dense_step(mut check: impl FnMut(&str, &SpatialInstance)) {
        let steps = if cfg!(debug_assertions) { 40 } else { 300 };
        let mut instance = datagen::jittered_overlap_map(16, 16, 12, 1996);
        for (step, batch) in datagen::dense_edit_trace(16, 16, 12, steps, 7).into_iter().enumerate() {
            for op in batch {
                match op {
                    datagen::TraceOp::Insert(name, region) => {
                        instance.insert(name, region);
                    }
                    datagen::TraceOp::Remove(name) => {
                        instance.remove(&name);
                    }
                }
            }
            check(&format!("dense step {step}"), &instance);
        }
    }

    /// Run the local pipeline on `instance` up to the face walks and hold
    /// [`skeleton_parents`] against [`innermost_cycle`] over rings of each
    /// bounded walk's points. Returns how many skeleton components are
    /// nested in a bounded face.
    fn check_skeleton_nesting(name: &str, instance: &SpatialInstance) -> usize {
        let segments = instance_segments(instance);
        let split = crate::sweep::sweep(&segments);
        let pieces = Pieces::new(&segments, &split);
        if pieces.is_empty() {
            return 0;
        }
        let g = merge_chains(&RawGraph::new(&pieces), &pieces);
        let rotations = Rotations::new(&g, &pieces);
        let (walks, walk_of_dart) = face_walks(&g, &rotations);
        let (component, component_count) = vertex_components(&g, &rotations);
        let lowest = lowest_points(&g, &component, component_count);
        let mut is_outer = vec![false; walks.len()];
        for low in &lowest {
            is_outer[walk_of_dart[outer_dart(&g, &pieces, &rotations, low).0]] = true;
        }
        let bounded: Vec<usize> = (0..walks.len()).filter(|&w| !is_outer[w]).collect();
        let parents = skeleton_parents(&g, &pieces, &walks, &bounded, &component, &lowest);

        let mut rings: Runs<Point> = Runs::default();
        for &w in &bounded {
            for s in walks.get(w).iter().flat_map(|&d| g.steps(d)) {
                rings.push_item(pieces.points[s.from as usize]);
            }
            rings.close();
        }
        for (c, low) in lowest.iter().enumerate() {
            let others = (1..).zip(&bounded).zip(rings.iter());
            let others = others.filter(|((_, &w), _)| component[g.dart_tail(walks.get(w)[0])] != c);
            let p = &pieces.points[low.rank as usize];
            let oracle = innermost_cycle(p, others.map(|((f, _), ring)| (f, ring)));
            assert_eq!(parents[c], FaceId(oracle.unwrap_or(0)), "{name}: skeleton component {c}");
        }
        parents.iter().filter(|&&f| f != FaceId(0)).count()
    }

    #[test]
    fn skeleton_nesting_matches_the_innermost_enclosing_ring() {
        let mut nested = 0;
        for (name, instance) in &face_families() {
            nested += check_skeleton_nesting(name, instance);
        }
        assert!(nested >= 8, "the families nest skeletons ({nested})");
        for_each_dense_step(|name, instance| {
            check_skeleton_nesting(name, instance);
        });
    }

    #[test]
    fn phase_counters_advance_during_a_build() {
        let before = crate::counters::phase_counters();
        let view = build_complex_view(&fixtures::fig_1c());
        assert!(view.components().iter().all(|c| c.complex().euler_formula_holds()));
        let delta = crate::counters::phase_counters().delta_since(&before);
        assert!(delta.events_processed >= 1, "sweep events counted");
        assert!(delta.chains_merged >= 1, "merged chains counted");
        assert!(delta.cells_walked >= 1, "face walks counted");
        assert!(delta.labels_propagated >= 1, "propagated labels counted");
    }
}
