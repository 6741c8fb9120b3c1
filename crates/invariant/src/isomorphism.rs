//! Isomorphism of topological invariants (Theorem 3.4).
//!
//! Two spatial instances over `Alg` (here: polygonal regions) with the same
//! names are topologically equivalent — related by a homeomorphism of the
//! plane — if and only if their invariants `T_I` are isomorphic via an
//! isomorphism that is the identity on region names (Theorem 3.4). The
//! isomorphism may globally exchange clockwise and counter-clockwise (a
//! reflection of the plane is a homeomorphism).
//!
//! The matcher below also supports relaxed comparisons used for the paper's
//! Fig. 6 / Fig. 7 experiments and for the ablation benchmarks: the
//! orientation relation `O` and/or the designated exterior face can be
//! ignored, which yields the weaker structure `G_I` whose insufficiency the
//! paper demonstrates.

use arrangement::{build_complex_view, ComplexRead, Label, Runs};
use std::collections::HashMap;

/// Which parts of the invariant the isomorphism must respect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IsoOptions {
    /// Respect the orientation relation `O` (up to a global reflection).
    pub use_orientation: bool,
    /// Require the exterior face to map to the exterior face.
    pub use_exterior: bool,
}

impl Default for IsoOptions {
    fn default() -> Self {
        IsoOptions { use_orientation: true, use_exterior: true }
    }
}

impl IsoOptions {
    /// The full invariant `T_I` (Theorem 3.4).
    pub fn full() -> Self {
        IsoOptions::default()
    }

    /// The labeled graph `G_I` without the orientation relation (used to
    /// reproduce Fig. 7: `G_I` does not determine the instance).
    pub fn without_orientation() -> Self {
        IsoOptions { use_orientation: false, use_exterior: true }
    }

    /// Ignore the designated exterior face (used to reproduce Fig. 6: the
    /// exterior face is essential information).
    pub fn without_exterior() -> Self {
        IsoOptions { use_orientation: true, use_exterior: false }
    }

    /// Only the labeled incidence structure.
    pub fn labeled_graph_only() -> Self {
        IsoOptions { use_orientation: false, use_exterior: false }
    }
}

/// A witness isomorphism between two invariants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Isomorphism {
    /// Image of each vertex.
    pub vertex_map: Vec<usize>,
    /// Image of each edge.
    pub edge_map: Vec<usize>,
    /// Image of each face.
    pub face_map: Vec<usize>,
    /// Whether the isomorphism reverses orientation (maps ↻ to ↺). Only
    /// meaningful when the orientation relation was taken into account.
    pub orientation_reversed: bool,
}

/// Are two invariants isomorphic as full invariants `T_I` (identity on region
/// names)? By Theorem 3.4 this holds iff the underlying instances are
/// topologically equivalent. Either side may be any [`ComplexRead`]: a
/// snapshot's view, a flat complex or an owned [`Invariant`](crate::Invariant).
pub fn isomorphic<A: ComplexRead, B: ComplexRead>(a: &A, b: &B) -> bool {
    find_isomorphism(a, b, IsoOptions::full()).is_some()
}

/// Convenience: are two spatial instances topologically equivalent
/// (H-equivalent)? Builds both complexes and compares their invariants, per
/// Theorem 3.4.
pub fn homeomorphic(
    a: &spatial_core::instance::SpatialInstance,
    b: &spatial_core::instance::SpatialInstance,
) -> bool {
    if a.names() != b.names() {
        return false;
    }
    isomorphic(&build_complex_view(a), &build_complex_view(b))
}

/// Find an isomorphism between two invariants under the given options.
pub fn find_isomorphism<A: ComplexRead, B: ComplexRead>(
    a: &A,
    b: &B,
    opts: IsoOptions,
) -> Option<Isomorphism> {
    // Region names must coincide exactly (the isomorphism is the identity on
    // names).
    if a.region_names() != b.region_names() {
        return None;
    }
    if a.vertex_count() != b.vertex_count()
        || a.edge_count() != b.edge_count()
        || a.face_count() != b.face_count()
    {
        return None;
    }
    let mut labels = HashMap::new();
    let (a, b) = (&Side::read(a, &mut labels), &Side::read(b, &mut labels));
    // Label multisets must agree per dimension.
    if sorted(&a.vertex_label) != sorted(&b.vertex_label)
        || sorted(&a.edge_label) != sorted(&b.edge_label)
        || sorted(&a.face_label) != sorted(&b.face_label)
    {
        return None;
    }
    if opts.use_exterior && a.face_label[a.exterior] != b.face_label[b.exterior] {
        return None;
    }

    // Degenerate case: no edges at all.
    if a.ends.is_empty() {
        let face_map = vec![0; a.face_label.len().min(1)];
        return Some(Isomorphism {
            vertex_map: vec![],
            edge_map: vec![],
            face_map,
            orientation_reversed: false,
        });
    }

    // Candidate edges in `b` for every edge of `a`: the edges of `b` with
    // the same signature, ascending. One sort of `b`'s edges by signature
    // groups them into runs, `class[eb]` being the start of `eb`'s run; each
    // edge of `a` finds its run by binary search.
    let edges = 0..a.ends.len();
    let sig_b: Vec<_> = edges.clone().map(|e| b.edge_signature(e, opts)).collect();
    let mut by_sig: Vec<usize> = edges.clone().collect();
    by_sig.sort_by(|&x, &y| sig_b[x].cmp(&sig_b[y]));
    let mut class = vec![0; by_sig.len()];
    for i in 1..by_sig.len() {
        let (prev, eb) = (by_sig[i - 1], by_sig[i]);
        class[eb] = if sig_b[prev] == sig_b[eb] { class[prev] } else { i };
    }
    let mut candidates = Vec::with_capacity(by_sig.len());
    for ea in edges {
        let sa = a.edge_signature(ea, opts);
        let lo = by_sig.partition_point(|&eb| sig_b[eb] < sa);
        let len = by_sig[lo..].partition_point(|&eb| sig_b[eb] == sa);
        if len == 0 {
            return None;
        }
        candidates.push(&by_sig[lo..lo + len]);
    }

    // Process edges in order of increasing candidate count, but prefer edges
    // adjacent to already-processed ones so assignments propagate.
    let order = processing_order(a, &candidates);

    let mut state = State {
        vmap: vec![usize::MAX; a.vertex_label.len()],
        emap: vec![usize::MAX; a.ends.len()],
        fmap: vec![usize::MAX; a.face_label.len()],
        vused: vec![false; b.vertex_label.len()],
        eused: vec![false; b.ends.len()],
        fused: vec![false; b.face_label.len()],
    };
    Matcher { a, b, opts, candidates, class }.search(&order, &mut state)
}

fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
    let mut out = v.to_vec();
    out.sort();
    out
}

type EdgeSignature = (usize, [usize; 2], [(usize, bool); 2], bool);

/// One side of the search, read once from its complex: each cell's label
/// interned as an id that the two sides share (equal ids are equal labels),
/// so the search compares integers and never a [`Label`], and the incidences
/// it probes as flat tables of indices.
struct Side {
    vertex_label: Vec<usize>,
    edge_label: Vec<usize>,
    face_label: Vec<usize>,
    /// The (tail, head) vertices of every edge.
    ends: Vec<(usize, usize)>,
    /// The (left, right) faces of every edge.
    sides: Vec<(usize, usize)>,
    /// The edges around every vertex, counter-clockwise.
    rotation: Runs<usize>,
    /// The boundary edges of every face.
    boundary: Runs<usize>,
    exterior: usize,
}

impl Side {
    fn read<C: ComplexRead>(c: &C, labels: &mut HashMap<Label, usize>) -> Side {
        let mut intern = |label: Label| {
            let next = labels.len();
            *labels.entry(label).or_insert(next)
        };
        let vertex_label = c.vertex_ids().map(|v| intern(c.vertex_label(v))).collect();
        let edge_label = c.edge_ids().map(|e| intern(c.edge_label(e))).collect();
        let face_label = c.face_ids().map(|f| intern(c.face_label(f))).collect();
        let mut rotation = Runs::with_capacity(c.vertex_count(), 2 * c.edge_count());
        for v in c.vertex_ids() {
            c.vertex_rotation(v).iter().for_each(|d| rotation.push_item(d.edge().0));
            rotation.close();
        }
        let mut boundary = Runs::with_capacity(c.face_count(), 2 * c.edge_count());
        for f in c.face_ids() {
            c.face_boundary(f).iter().for_each(|e| boundary.push_item(e.0));
            boundary.close();
        }
        Side {
            vertex_label,
            edge_label,
            face_label,
            ends: c.edge_ids().map(|e| c.edge_endpoints(e)).map(|(t, h)| (t.0, h.0)).collect(),
            sides: c.edge_ids().map(|e| c.edge_faces(e)).map(|(l, r)| (l.0, r.0)).collect(),
            rotation,
            boundary,
            exterior: c.exterior_face().0,
        }
    }

    fn edge_signature(&self, e: usize, opts: IsoOptions) -> EdgeSignature {
        let ((t, h), (l, r)) = (self.ends[e], self.sides[e]);
        let mut vertices = [self.vertex_label[t], self.vertex_label[h]];
        vertices.sort();
        let mut faces = [l, r].map(|f| (self.face_label[f], opts.use_exterior && f == self.exterior));
        faces.sort();
        (self.edge_label[e], vertices, faces, t == h)
    }
}

/// The order in which the search assigns `a`'s edges: a breadth-first
/// traversal of the edge adjacency (a shared endpoint or a shared face),
/// seeded at the unplaced edge with the fewest candidates (the least index
/// among ties), visiting each edge's unplaced neighbours by ascending
/// candidate count, then index. The neighbours are read from the vertex
/// rotations and the face edge lists; a vertex or face is expanded once,
/// since expanding it places all of its edges. The traversal is
/// `O(E log E)`.
fn processing_order(a: &Side, candidates: &[&[usize]]) -> Vec<usize> {
    let n = a.ends.len();
    let mut vertex_done = vec![false; a.vertex_label.len()];
    let mut face_done = vec![false; a.face_label.len()];
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&e| candidates[e].len());
    let mut seeds = seeds.into_iter();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut next: Vec<usize> = Vec::new();
    while order.len() < n {
        let seed = seeds.find(|&e| !placed[e]).expect("some edge unplaced");
        placed[seed] = true;
        order.push(seed);
        // Grow through adjacency (BFS) to keep propagation tight.
        let mut queue = std::collections::VecDeque::from([seed]);
        while let Some(e) = queue.pop_front() {
            let ((t, h), (l, r)) = (a.ends[e], a.sides[e]);
            for v in [t, h] {
                if !std::mem::replace(&mut vertex_done[v], true) {
                    next.extend(a.rotation.get(v).iter().filter(|&&x| !placed[x]));
                }
            }
            for f in [l, r] {
                if !std::mem::replace(&mut face_done[f], true) {
                    next.extend(a.boundary.get(f).iter().filter(|&&x| !placed[x]));
                }
            }
            next.sort_unstable_by_key(|&x| (candidates[x].len(), x));
            next.dedup();
            for x in next.drain(..) {
                placed[x] = true;
                order.push(x);
                queue.push_back(x);
            }
        }
    }
    order
}

struct State {
    vmap: Vec<usize>,
    emap: Vec<usize>,
    fmap: Vec<usize>,
    vused: Vec<bool>,
    eused: Vec<bool>,
    fused: Vec<bool>,
}

/// Bind every pair `x -> y` in a map, respecting prior bindings and
/// injectivity, and log each newly bound `x` in `undo` (for backtracking).
/// Returns `false` on the first conflict.
fn bind(
    map: &mut [usize],
    used: &mut [bool],
    pairs: &[(usize, usize)],
    undo: &mut Vec<usize>,
) -> bool {
    for &(x, y) in pairs {
        if map[x] == y {
            continue;
        }
        if map[x] != usize::MAX || used[y] {
            return false;
        }
        map[x] = y;
        used[y] = true;
        undo.push(x);
    }
    true
}

fn unbind(map: &mut [usize], used: &mut [bool], x: usize) {
    let y = map[x];
    map[x] = usize::MAX;
    used[y] = false;
}

/// Where a depth of the search resumes: the position in the edge's live
/// candidate list ([`Matcher::live_candidates`]) and the pairing of
/// endpoints and faces (vertex pairing major).
#[derive(Clone, Copy, Default)]
struct Choice {
    candidate: usize,
    pairing: usize,
}

/// One level of the search stack: edge `ea` of `a` bound to `eb` of `b`,
/// the vertices and faces that binding newly bound, and the choice to
/// resume from once everything deeper is exhausted.
struct Frame {
    ea: usize,
    eb: usize,
    undo_v: Vec<usize>,
    undo_f: Vec<usize>,
    resume: Choice,
}

impl Frame {
    fn undo(&self, state: &mut State) {
        for &x in &self.undo_f {
            unbind(&mut state.fmap, &mut state.fused, x);
        }
        for &x in &self.undo_v {
            unbind(&mut state.vmap, &mut state.vused, x);
        }
        state.emap[self.ea] = usize::MAX;
        state.eused[self.eb] = false;
    }
}

/// The fixed inputs of the search.
struct Matcher<'i> {
    a: &'i Side,
    b: &'i Side,
    opts: IsoOptions,
    /// The edges of `b` with each edge of `a`'s signature, ascending.
    candidates: Vec<&'i [usize]>,
    /// The signature class of each edge of `b`.
    class: Vec<usize>,
}

impl Matcher<'_> {
    /// The depth-first search over the edges of `a` in `order`, on an
    /// explicit stack of [`Frame`]s (one per bound edge), so no call depth
    /// grows with the invariant. Each depth tries its edge's candidates in
    /// order and, for each, the pairings of endpoints and faces; the first
    /// complete assignment that [`finalize`] accepts is the answer.
    fn search(&self, order: &[usize], state: &mut State) -> Option<Isomorphism> {
        let mut stack: Vec<Frame> = Vec::with_capacity(order.len());
        let mut from = Choice::default();
        loop {
            let frame = match order.get(stack.len()) {
                Some(&ea) => self.extend(ea, from, state),
                None => {
                    if let Some(iso) = finalize(self.a, self.b, self.opts, state) {
                        return Some(iso);
                    }
                    None
                }
            };
            match frame {
                Some(frame) => {
                    stack.push(frame);
                    from = Choice::default();
                }
                None => {
                    let frame = stack.pop()?;
                    frame.undo(state);
                    from = frame.resume;
                }
            }
        }
    }

    /// The candidates of `ea` that can still bind, in candidate order. Once
    /// an endpoint or a face of `ea` is bound, a candidate must be incident
    /// to its image, so the smallest such incidence list, filtered by
    /// signature, holds every candidate the full list would bind: the
    /// search makes the same choices without scanning every same-signature
    /// edge at every depth.
    fn live_candidates(&self, ea: usize, state: &State) -> Vec<usize> {
        let b = self.b;
        let ((t, h), (l, r)) = (self.a.ends[ea], self.a.sides[ea]);
        let images = |map: &[usize], cells: [usize; 2]| {
            cells.map(|c| map[c]).into_iter().filter(|&y| y != usize::MAX)
        };
        let vertex = images(&state.vmap, [t, h]).min_by_key(|&y| b.rotation.get(y).len());
        let face = images(&state.fmap, [l, r]).min_by_key(|&y| b.boundary.get(y).len());
        let mut live: Vec<usize> = match (vertex, face) {
            (Some(v), _) => b.rotation.get(v).to_vec(),
            (None, Some(f)) => b.boundary.get(f).to_vec(),
            (None, None) => return self.candidates[ea].to_vec(),
        };
        let class = self.class[self.candidates[ea][0]];
        live.retain(|&eb| self.class[eb] == class);
        live.sort_unstable();
        live.dedup();
        live
    }

    /// Bind edge `ea` of `a` by the first candidate and pairing at or after
    /// `from` that binds, returning its frame; `None` (with `state` as it
    /// was) once this depth's choices are exhausted.
    fn extend(&self, ea: usize, from: Choice, state: &mut State) -> Option<Frame> {
        let (a, b) = (self.a, self.b);
        let ((ta, ha), (la, ra)) = (a.ends[ea], a.sides[ea]);
        let mut pairing = from.pairing;
        let live = self.live_candidates(ea, state);
        for (candidate, &eb) in live.iter().enumerate().skip(from.candidate) {
            // Only the resumed candidate starts past its first pairing.
            let first = std::mem::take(&mut pairing);
            if state.eused[eb] {
                continue;
            }
            // Labels already match via the signature. Try the (up to) four
            // ways of matching endpoints and faces.
            let ((tb, hb), (lb, rb)) = (b.ends[eb], b.sides[eb]);
            let vertex_pairings: &[[(usize, usize); 2]] = if ta == ha {
                &[[(ta, tb), (ta, tb)]]
            } else {
                &[[(ta, tb), (ha, hb)], [(ta, hb), (ha, tb)]]
            };
            let face_pairings: &[[(usize, usize); 2]] = if la == ra {
                &[[(la, lb), (la, lb)]]
            } else {
                &[[(la, lb), (ra, rb)], [(la, rb), (ra, lb)]]
            };
            for p in first..vertex_pairings.len() * face_pairings.len() {
                let vp = &vertex_pairings[p / face_pairings.len()];
                let fp = &face_pairings[p % face_pairings.len()];
                // Labels of the forced cells must match.
                if vp.iter().any(|&(x, y)| a.vertex_label[x] != b.vertex_label[y])
                    || fp.iter().any(|&(x, y)| a.face_label[x] != b.face_label[y])
                {
                    continue;
                }
                if self.opts.use_exterior
                    && fp.iter().any(|&(x, y)| (x == a.exterior) != (y == b.exterior))
                {
                    continue;
                }
                let resume = Choice { candidate, pairing: p + 1 };
                let mut frame = Frame { ea, eb, undo_v: Vec::new(), undo_f: Vec::new(), resume };
                state.emap[ea] = eb;
                state.eused[eb] = true;
                if bind(&mut state.vmap, &mut state.vused, vp, &mut frame.undo_v)
                    && bind(&mut state.fmap, &mut state.fused, fp, &mut frame.undo_f)
                {
                    return Some(frame);
                }
                frame.undo(state);
            }
        }
        None
    }
}

fn finalize(a: &Side, b: &Side, opts: IsoOptions, state: &State) -> Option<Isomorphism> {
    // Every vertex and face must have been forced (they are all incident to
    // at least one edge when edges exist).
    if state.vmap.contains(&usize::MAX) || state.fmap.contains(&usize::MAX) {
        return None;
    }
    // Exterior face.
    if opts.use_exterior && state.fmap[a.exterior] != b.exterior {
        return None;
    }
    // Face boundary-edge sets (this captures which components are embedded in
    // which faces).
    for f in 0..a.face_label.len() {
        let mut img: Vec<usize> = a.boundary.get(f).iter().map(|&e| state.emap[e]).collect();
        img.sort();
        let mut expect = b.boundary.get(state.fmap[f]).to_vec();
        expect.sort();
        if img != expect {
            return None;
        }
    }
    // Orientation: there must be a single global chirality under which every
    // vertex's cyclic edge sequence is preserved.
    let mut orientation_reversed = false;
    if opts.use_orientation {
        let check = |flip: bool| -> bool {
            (0..a.vertex_label.len()).all(|v| {
                let seq_a: Vec<usize> = a.rotation.get(v).iter().map(|&e| state.emap[e]).collect();
                cyclically_equal(&seq_a, b.rotation.get(state.vmap[v]), flip)
            })
        };
        if check(false) {
            orientation_reversed = false;
        } else if check(true) {
            orientation_reversed = true;
        } else {
            return None;
        }
    }
    Some(Isomorphism {
        vertex_map: state.vmap.clone(),
        edge_map: state.emap.clone(),
        face_map: state.fmap.clone(),
        orientation_reversed,
    })
}

/// Is `a` a cyclic rotation of `b` (or of `b` reversed, when `flip`)?
fn cyclically_equal(a: &[usize], b: &[usize], flip: bool) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.is_empty() {
        return true;
    }
    let b: Vec<usize> = if flip { b.iter().rev().copied().collect() } else { b.to_vec() };
    let n = a.len();
    (0..n).any(|shift| (0..n).all(|i| a[i] == b[(i + shift) % n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Invariant;
    use spatial_core::fixtures;
    use spatial_core::prelude::*;

    fn inv(inst: &SpatialInstance) -> Invariant {
        Invariant::of_instance(inst)
    }

    #[test]
    fn identity_and_translation_are_isomorphic() {
        let a = inv(&fixtures::fig_1c());
        assert!(isomorphic(&a, &a));
        let b = inv(&fixtures::fig_1c().translated(100, -50));
        assert!(isomorphic(&a, &b));
        // Scaling is also a homeomorphism.
        let scaled = PlaneTransform::Affine(AffineMap::scaling(rat(3), rat(2)))
            .apply_instance(&fixtures::fig_1c())
            .unwrap();
        assert!(isomorphic(&a, &inv(&scaled)));
    }

    #[test]
    fn mirror_image_is_isomorphic_with_reversed_orientation() {
        let a = inv(&fixtures::fig_1a());
        let mirrored_inst = PlaneTransform::Affine(AffineMap::reflect_x())
            .apply_instance(&fixtures::fig_1a())
            .unwrap();
        let b = inv(&mirrored_inst);
        let iso = find_isomorphism(&a, &b, IsoOptions::full()).expect("mirror is isomorphic");
        assert!(iso.orientation_reversed);
        // The abstract mirror operation agrees.
        assert!(isomorphic(&a, &a.mirrored()));
    }

    #[test]
    fn fig_1a_vs_1b_not_isomorphic() {
        // Same pairwise 4-intersection relations, different topology.
        let a = inv(&fixtures::fig_1a());
        let b = inv(&fixtures::fig_1b());
        assert!(!isomorphic(&a, &b));
        assert!(homeomorphic(&fixtures::fig_1a(), &fixtures::fig_1a().translated(7, 7)));
        assert!(!homeomorphic(&fixtures::fig_1a(), &fixtures::fig_1b()));
    }

    #[test]
    fn fig_1c_vs_1d_not_isomorphic() {
        let c = inv(&fixtures::fig_1c());
        let d = inv(&fixtures::fig_1d());
        assert!(!isomorphic(&c, &d));
        // Different names are never isomorphic.
        assert!(!homeomorphic(&fixtures::fig_1c(), &fixtures::fig_1a()));
    }

    #[test]
    fn petal_orders_distinguished_only_by_orientation() {
        // Fig. 7 of the paper: the labeled graph G_I does not determine the
        // instance; the orientation relation O does.
        let p1 = inv(&fixtures::petals_abcd());
        let p2 = inv(&fixtures::petals_acbd());
        assert!(
            find_isomorphism(&p1, &p2, IsoOptions::without_orientation()).is_some(),
            "G_I (without O) cannot tell the two cyclic orders apart"
        );
        assert!(
            find_isomorphism(&p1, &p2, IsoOptions::full()).is_none(),
            "T_I (with O) distinguishes them"
        );
        // Each is of course isomorphic to itself and to its mirror image
        // (reflections are homeomorphisms): ACBD is ABCD read clockwise...
        assert!(isomorphic(&p1, &p1));
        assert!(isomorphic(&p2, &p2));
    }

    #[test]
    fn exterior_face_is_essential_information() {
        // Fig. 6 of the paper: same labeled graph, different exterior face,
        // different homeomorphism type.
        let t = inv(&fixtures::ring_with_flag());
        let hole = t
            .face_ids()
            .find(|&f| f != t.exterior_face() && t.face_label(f) == Label::default())
            .expect("ring_with_flag has a bounded all-exterior face");
        let swapped = t.with_exterior(hole);
        assert!(
            find_isomorphism(&t, &swapped, IsoOptions::without_exterior()).is_some(),
            "identical except for the exterior designation"
        );
        assert!(
            find_isomorphism(&t, &swapped, IsoOptions::full()).is_none(),
            "the exterior face designation distinguishes them"
        );
    }

    #[test]
    fn plain_ring_is_inside_outside_symmetric() {
        // The unadorned ring has a labeled-graph automorphism exchanging the
        // hole and the unbounded face (a reflection of the sphere through the
        // annulus), so re-designating the exterior face yields an isomorphic
        // invariant. This is why `ring_with_flag` (which breaks the symmetry)
        // is used for the Fig. 6 experiment.
        let t = inv(&fixtures::ring());
        let hole = t
            .face_ids()
            .find(|&f| f != t.exterior_face() && t.face_label(f) == Label::default())
            .unwrap();
        let swapped = t.with_exterior(hole);
        assert!(find_isomorphism(&t, &swapped, IsoOptions::full()).is_some());
    }

    #[test]
    fn embedding_of_components_matters() {
        // The island inside the ring's hole vs. outside: identical cell
        // counts and labels, different face/edge incidence.
        let inside = inv(&fixtures::ring_with_island(true));
        let outside = inv(&fixtures::ring_with_island(false));
        assert_eq!(inside.vertex_count(), outside.vertex_count());
        assert_eq!(inside.edge_count(), outside.edge_count());
        assert_eq!(inside.face_count(), outside.face_count());
        assert!(!isomorphic(&inside, &outside));
        assert!(!homeomorphic(
            &fixtures::ring_with_island(true),
            &fixtures::ring_with_island(false)
        ));
    }

    #[test]
    fn nested_vs_side_by_side() {
        let nested = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 10, 10)),
            ("B", Region::rect_from_ints(2, 2, 6, 6)),
        ]);
        let side = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 10, 10)),
            ("B", Region::rect_from_ints(20, 0, 26, 6)),
        ]);
        assert!(!homeomorphic(&nested, &side));
        // Two differently-drawn nested configurations are homeomorphic.
        let nested2 = SpatialInstance::from_regions([
            ("A", Region::polygon_from_ints(&[(0, 0), (30, 0), (17, 29)]).unwrap()),
            ("B", Region::rect_from_ints(10, 3, 14, 9)),
        ]);
        assert!(homeomorphic(&nested, &nested2));
    }

    #[test]
    fn four_intersection_witness_pairs_are_pairwise_distinct() {
        // The eight Fig. 2 configurations are pairwise non-homeomorphic,
        // except that `contains`/`covers` pairs differ from their inverses
        // only by the direction of the relation (still non-isomorphic because
        // region names are fixed).
        let invs: Vec<(String, Invariant)> = fixtures::fig_2_pairs()
            .into_iter()
            .map(|(name, inst)| (name.to_string(), inv(&inst)))
            .collect();
        for i in 0..invs.len() {
            for j in (i + 1)..invs.len() {
                assert!(
                    !isomorphic(&invs[i].1, &invs[j].1),
                    "{} vs {} should differ",
                    invs[i].0,
                    invs[j].0
                );
            }
        }
    }

    #[test]
    fn empty_invariants_are_isomorphic() {
        let a = inv(&SpatialInstance::new());
        let b = inv(&SpatialInstance::new());
        assert!(isomorphic(&a, &b));
    }
}
