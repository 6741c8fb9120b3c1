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

use crate::structure::{Dart, Invariant};
use arrangement::Label;

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
/// topologically equivalent.
pub fn isomorphic(a: &Invariant, b: &Invariant) -> bool {
    find_isomorphism(a, b, IsoOptions::full()).is_some()
}

/// Convenience: are two spatial instances topologically equivalent
/// (H-equivalent)? Computes both invariants and compares them, per
/// Theorem 3.4.
pub fn homeomorphic(
    a: &spatial_core::instance::SpatialInstance,
    b: &spatial_core::instance::SpatialInstance,
) -> bool {
    if a.names() != b.names() {
        return false;
    }
    isomorphic(&Invariant::of_instance(a), &Invariant::of_instance(b))
}

/// Find an isomorphism between two invariants under the given options.
pub fn find_isomorphism(a: &Invariant, b: &Invariant, opts: IsoOptions) -> Option<Isomorphism> {
    // Region names must coincide exactly (the isomorphism is the identity on
    // names).
    if a.region_names != b.region_names {
        return None;
    }
    if a.vertex_count() != b.vertex_count()
        || a.edge_count() != b.edge_count()
        || a.face_count() != b.face_count()
    {
        return None;
    }
    // Label multisets must agree per dimension.
    if sorted(&a.vertex_labels) != sorted(&b.vertex_labels)
        || sorted(&a.edge_labels) != sorted(&b.edge_labels)
        || sorted(&a.face_labels) != sorted(&b.face_labels)
    {
        return None;
    }
    if opts.use_exterior && a.face_labels[a.exterior_face] != b.face_labels[b.exterior_face] {
        return None;
    }

    // Degenerate case: no edges at all.
    if a.edge_count() == 0 {
        let face_map = vec![0; a.face_count().min(1)];
        return Some(Isomorphism {
            vertex_map: vec![],
            edge_map: vec![],
            face_map,
            orientation_reversed: false,
        });
    }

    // Candidate edges in `b` for every edge of `a`, filtered by signature.
    let sig_a: Vec<_> = (0..a.edge_count()).map(|e| edge_signature(a, e, opts)).collect();
    let sig_b: Vec<_> = (0..b.edge_count()).map(|e| edge_signature(b, e, opts)).collect();
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(a.edge_count());
    for sa in &sig_a {
        let cs: Vec<usize> =
            (0..b.edge_count()).filter(|&eb| &sig_b[eb] == sa).collect();
        if cs.is_empty() {
            return None;
        }
        candidates.push(cs);
    }

    // Process edges in order of increasing candidate count, but prefer edges
    // adjacent to already-processed ones so assignments propagate.
    let order = processing_order(a, &candidates);

    let mut state = State {
        vmap: vec![usize::MAX; a.vertex_count()],
        emap: vec![usize::MAX; a.edge_count()],
        fmap: vec![usize::MAX; a.face_count()],
        vused: vec![false; b.vertex_count()],
        eused: vec![false; b.edge_count()],
        fused: vec![false; b.face_count()],
    };
    search(a, b, opts, &order, 0, &candidates, &mut state)
}

fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
    let mut out = v.to_vec();
    out.sort();
    out
}

type EdgeSignature = (Label, Vec<Label>, Vec<(Label, bool)>, bool);

fn edge_signature(inv: &Invariant, e: usize, opts: IsoOptions) -> EdgeSignature {
    let (t, h) = inv.edge_endpoints(e);
    let (l, r) = inv.edge_faces(e);
    let mut vlabels = vec![inv.vertex_label(t).clone(), inv.vertex_label(h).clone()];
    vlabels.sort();
    let mut flabels = vec![
        (inv.face_label(l).clone(), opts.use_exterior && l == inv.exterior_face()),
        (inv.face_label(r).clone(), opts.use_exterior && r == inv.exterior_face()),
    ];
    flabels.sort();
    (inv.edge_label(e).clone(), vlabels, flabels, inv.is_loop(e))
}

fn processing_order(a: &Invariant, candidates: &[Vec<usize>]) -> Vec<usize> {
    let n = a.edge_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Adjacency between edges of `a` (shared endpoint or shared face).
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e1 in 0..n {
        for e2 in (e1 + 1)..n {
            let (t1, h1) = a.edge_endpoints(e1);
            let (t2, h2) = a.edge_endpoints(e2);
            let (l1, r1) = a.edge_faces(e1);
            let (l2, r2) = a.edge_faces(e2);
            if t1 == t2 || t1 == h2 || h1 == t2 || h1 == h2 || l1 == l2 || l1 == r2 || r1 == l2 || r1 == r2 {
                adjacent[e1].push(e2);
                adjacent[e2].push(e1);
            }
        }
    }
    while order.len() < n {
        // Seed: unplaced edge with fewest candidates.
        let seed = (0..n)
            .filter(|&e| !placed[e])
            .min_by_key(|&e| candidates[e].len())
            .expect("some edge unplaced");
        placed[seed] = true;
        order.push(seed);
        // Grow through adjacency (BFS) to keep propagation tight.
        let mut queue = std::collections::VecDeque::from([seed]);
        while let Some(e) = queue.pop_front() {
            let mut next: Vec<usize> =
                adjacent[e].iter().copied().filter(|&x| !placed[x]).collect();
            next.sort_by_key(|&x| candidates[x].len());
            for x in next {
                if !placed[x] {
                    placed[x] = true;
                    order.push(x);
                    queue.push_back(x);
                }
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

/// Try to bind `x -> y` in a map, respecting prior bindings and injectivity.
/// Returns `None` on conflict, `Some(changed)` on success where `changed`
/// records whether a new binding was added (for backtracking).
fn bind(map: &mut [usize], used: &mut [bool], x: usize, y: usize) -> Option<bool> {
    if map[x] == y {
        return Some(false);
    }
    if map[x] != usize::MAX || used[y] {
        return None;
    }
    map[x] = y;
    used[y] = true;
    Some(true)
}

fn unbind(map: &mut [usize], used: &mut [bool], x: usize) {
    let y = map[x];
    map[x] = usize::MAX;
    used[y] = false;
}

#[allow(clippy::too_many_arguments)]
fn search(
    a: &Invariant,
    b: &Invariant,
    opts: IsoOptions,
    order: &[usize],
    idx: usize,
    candidates: &[Vec<usize>],
    state: &mut State,
) -> Option<Isomorphism> {
    if idx == order.len() {
        return finalize(a, b, opts, state);
    }
    let ea = order[idx];
    for &eb in &candidates[ea] {
        if state.eused[eb] {
            continue;
        }
        // Labels already match via the signature. Try the (up to) four ways of
        // matching endpoints and faces.
        let (ta, ha) = a.edge_endpoints(ea);
        let (tb, hb) = b.edge_endpoints(eb);
        let (la, ra) = a.edge_faces(ea);
        let (lb, rb) = b.edge_faces(eb);
        let vertex_pairings: Vec<[(usize, usize); 2]> = if ta == ha {
            vec![[(ta, tb), (ta, tb)]]
        } else {
            vec![[(ta, tb), (ha, hb)], [(ta, hb), (ha, tb)]]
        };
        let face_pairings: Vec<[(usize, usize); 2]> = if la == ra {
            vec![[(la, lb), (la, lb)]]
        } else {
            vec![[(la, lb), (ra, rb)], [(la, rb), (ra, lb)]]
        };
        for vp in &vertex_pairings {
            for fp in &face_pairings {
                // Labels of the forced cells must match.
                if vp.iter().any(|&(x, y)| a.vertex_label(x) != b.vertex_label(y))
                    || fp.iter().any(|&(x, y)| a.face_label(x) != b.face_label(y))
                {
                    continue;
                }
                if opts.use_exterior
                    && fp.iter().any(|&(x, y)| {
                        (x == a.exterior_face()) != (y == b.exterior_face())
                    })
                {
                    continue;
                }
                let mut undo_v = Vec::new();
                let mut undo_f = Vec::new();
                let mut ok = true;
                state.emap[ea] = eb;
                state.eused[eb] = true;
                for &(x, y) in vp {
                    match bind(&mut state.vmap, &mut state.vused, x, y) {
                        Some(true) => undo_v.push(x),
                        Some(false) => {}
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    for &(x, y) in fp {
                        match bind(&mut state.fmap, &mut state.fused, x, y) {
                            Some(true) => undo_f.push(x),
                            Some(false) => {}
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    if let Some(result) = search(a, b, opts, order, idx + 1, candidates, state) {
                        return Some(result);
                    }
                }
                // Backtrack.
                for x in undo_f {
                    unbind(&mut state.fmap, &mut state.fused, x);
                }
                for x in undo_v {
                    unbind(&mut state.vmap, &mut state.vused, x);
                }
                state.emap[ea] = usize::MAX;
                state.eused[eb] = false;
            }
        }
    }
    None
}

fn finalize(a: &Invariant, b: &Invariant, opts: IsoOptions, state: &State) -> Option<Isomorphism> {
    // Every vertex and face must have been forced (they are all incident to
    // at least one edge when edges exist).
    if state.vmap.contains(&usize::MAX) || state.fmap.contains(&usize::MAX) {
        return None;
    }
    // Exterior face.
    if opts.use_exterior && state.fmap[a.exterior_face()] != b.exterior_face() {
        return None;
    }
    // Face boundary-edge sets (this captures which components are embedded in
    // which faces).
    for f in 0..a.face_count() {
        let mut img: Vec<usize> = a.face_edges(f).iter().map(|&e| state.emap[e]).collect();
        img.sort();
        let mut expect = b.face_edges(state.fmap[f]).to_vec();
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
            (0..a.vertex_count()).all(|v| {
                let seq_a: Vec<usize> =
                    a.rotation(v).iter().map(|d: &Dart| state.emap[d.edge]).collect();
                let seq_b: Vec<usize> =
                    b.rotation(state.vmap[v]).iter().map(|d| d.edge).collect();
                cyclically_equal(&seq_a, &seq_b, flip)
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
        let hole = (0..t.face_count())
            .find(|&f| f != t.exterior_face() && *t.face_label(f) == Label::default())
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
        let hole = (0..t.face_count())
            .find(|&f| f != t.exterior_face() && *t.face_label(f) == Label::default())
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
