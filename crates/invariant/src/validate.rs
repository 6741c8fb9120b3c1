//! Validation of candidate invariants (Theorem 3.8 / Lemma 3.9).
//!
//! If the topological invariant is used as a *data model* — updates are made
//! directly to the combinatorial structure, with no underlying geometry —
//! then an integrity check is needed: which structures over the schema are
//! actual invariants of spatial instances? The paper characterizes them as
//! *labeled planar graphs* (Lemma 3.9) via conditions (1)–(7) and shows the
//! check is effective (Theorem 3.8). This module implements that check for
//! any [`ComplexRead`]: a snapshot's view, or an owned
//! [`Invariant`](crate::Invariant) edited by hand.

use arrangement::{dual_graph, ComplexRead, DartId, Label, Sign};
use std::collections::{BTreeMap, BTreeSet};

/// A reason why a candidate structure is not a valid invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// An index referenced a non-existent cell.
    DanglingReference(String),
    /// A label is malformed (entries out of order, out of range or
    /// `Exterior`) or has an impossible sign.
    BadLabel(String),
    /// The rotation system is not a proper cyclic arrangement of the incident
    /// darts (condition (4)).
    BadRotation(String),
    /// A face's boundary is inconsistent with the rotation system
    /// (condition (5)).
    BadFaceStructure(String),
    /// The Euler relation fails for some component (condition (6)):
    /// the rotation system does not describe a planar embedding.
    NotPlanar(String),
    /// The exterior face is missing, duplicated or mislabeled.
    BadExteriorFace(String),
    /// A region violates condition (7): its faces (or their complement) are
    /// not connected in the dual graph, it is empty, or it contains the
    /// exterior face.
    BadRegion(String),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DanglingReference(m) => write!(f, "dangling reference: {m}"),
            ValidationError::BadLabel(m) => write!(f, "bad label: {m}"),
            ValidationError::BadRotation(m) => write!(f, "bad rotation system: {m}"),
            ValidationError::BadFaceStructure(m) => write!(f, "bad face structure: {m}"),
            ValidationError::NotPlanar(m) => write!(f, "not planar: {m}"),
            ValidationError::BadExteriorFace(m) => write!(f, "bad exterior face: {m}"),
            ValidationError::BadRegion(m) => write!(f, "bad region: {m}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check whether the structure is a valid topological invariant — i.e., a
/// labeled planar graph in the sense of Lemma 3.9, and hence (by the paper's
/// Theorem 3.8) the invariant of some spatial instance.
///
/// Returns all violations found (empty means valid).
pub fn validate<C: ComplexRead>(c: &C) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    check_references(c, &mut errors);
    if !errors.is_empty() {
        // Index errors make the remaining checks unsafe to run.
        return errors;
    }
    check_labels(c, &mut errors);
    check_rotation(c, &mut errors);
    check_faces_and_planarity(c, &mut errors);
    check_exterior(c, &mut errors);
    check_regions(c, &mut errors);
    errors
}

fn check_references<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    let (nv, ne, nf) = (c.vertex_count(), c.edge_count(), c.face_count());
    for e in c.edge_ids() {
        let (t, h) = c.edge_endpoints(e);
        if t.0 >= nv || h.0 >= nv {
            errors.push(ValidationError::DanglingReference(format!(
                "edge {} has endpoint out of range",
                e.0
            )));
        }
        let (l, r) = c.edge_faces(e);
        if l.0 >= nf || r.0 >= nf {
            errors.push(ValidationError::DanglingReference(format!(
                "edge {} has face out of range",
                e.0
            )));
        }
    }
    for v in c.vertex_ids() {
        if c.vertex_rotation(v).iter().any(|d| d.edge().0 >= ne) {
            errors.push(ValidationError::DanglingReference(format!(
                "vertex {} lists a dart of an unknown edge",
                v.0
            )));
        }
    }
    for f in c.face_ids() {
        for e in c.face_boundary(f) {
            if e.0 >= ne {
                errors.push(ValidationError::DanglingReference(format!(
                    "face {} lists unknown edge {}",
                    f.0, e.0
                )));
            }
        }
    }
    if c.exterior_face().0 >= nf && nf > 0 {
        errors.push(ValidationError::DanglingReference("exterior face out of range".into()));
    }
}

fn check_labels<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    let k = c.region_names().len();
    // Every label is well formed: its entries strictly ascend, name one of
    // the `k` regions, and none is `Exterior` (the sign of an absent region).
    let cells = c.vertex_ids().map(|v| ("vertex", v.0, c.vertex_label(v)));
    let cells = cells.chain(c.edge_ids().map(|e| ("edge", e.0, c.edge_label(e))));
    let cells = cells.chain(c.face_ids().map(|f| ("face", f.0, c.face_label(f))));
    for (kind, i, label) in cells {
        let entries: Vec<(usize, Sign)> = label.iter().collect();
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending || entries.iter().any(|&(r, s)| r >= k || s == Sign::Exterior) {
            errors.push(ValidationError::BadLabel(format!("{kind} {i} label is malformed")));
        }
        if kind == "face" && label.iter().any(|(_, s)| s == Sign::Boundary) {
            errors.push(ValidationError::BadLabel(format!(
                "face {i} is labeled as lying on a region boundary"
            )));
        }
    }
    // Consistency between edge labels and the labels of the incident faces:
    // an edge lies on ∂R exactly when its two sides disagree about membership
    // in R; otherwise it carries the common side label. A region none of the
    // three labels names is exterior to all three.
    for e in c.edge_ids() {
        let (l, r) = c.edge_faces(e);
        let (label, left, right) = (c.edge_label(e), c.face_label(l), c.face_label(r));
        let named: BTreeSet<usize> =
            label.iter().chain(left.iter()).chain(right.iter()).map(|(idx, _)| idx).collect();
        for idx in named {
            let (sl, sr) = (left.sign(idx), right.sign(idx));
            match label.sign(idx) {
                Sign::Boundary => {
                    if sl == sr {
                        errors.push(ValidationError::BadLabel(format!(
                            "edge {} claims to be on region {idx}'s boundary but both sides agree",
                            e.0
                        )));
                    }
                }
                s => {
                    if sl != s || sr != s {
                        errors.push(ValidationError::BadLabel(format!(
                            "edge {} label for region {idx} disagrees with its sides",
                            e.0
                        )));
                    }
                }
            }
        }
        // At least one region's boundary passes through every edge.
        if !label.iter().any(|(_, s)| s == Sign::Boundary) {
            errors.push(ValidationError::BadLabel(format!(
                "edge {} lies on no region boundary",
                e.0
            )));
        }
    }
    // Vertices: a vertex lies on ∂R iff one of its incident edges does.
    for v in c.vertex_ids() {
        let label = c.vertex_label(v);
        let on_vertex: BTreeSet<usize> =
            label.iter().filter(|&(_, s)| s == Sign::Boundary).map(|(idx, _)| idx).collect();
        let on_edges: BTreeSet<usize> =
            c.vertex_rotation(v).iter().flat_map(|d| c.edge_region_marks(d.edge())).collect();
        for idx in on_vertex.symmetric_difference(&on_edges) {
            errors.push(ValidationError::BadLabel(format!(
                "vertex {} label for region {idx} inconsistent with incident edges",
                v.0
            )));
        }
    }
}

fn check_rotation<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    // Every dart must appear exactly once in the rotation of its tail vertex.
    let mut expected: Vec<Vec<DartId>> = vec![Vec::new(); c.vertex_count()];
    for e in c.edge_ids() {
        let (t, h) = c.edge_endpoints(e);
        expected[t.0].push(DartId::forward(e));
        expected[h.0].push(DartId::backward(e));
    }
    for (v, expect) in c.vertex_ids().zip(&mut expected) {
        let mut listed = c.vertex_rotation(v);
        let isolated = listed.is_empty();
        listed.sort();
        expect.sort();
        if listed != *expect {
            errors.push(ValidationError::BadRotation(format!(
                "vertex {}: rotation does not list each incident dart exactly once",
                v.0
            )));
        }
        if isolated {
            errors.push(ValidationError::BadRotation(format!("vertex {} is isolated", v.0)));
        }
    }
}

/// Recompute the face walks from the rotation system alone and check the
/// planarity (Euler) condition and consistency with the declared faces.
fn check_faces_and_planarity<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    let ne = c.edge_count();
    if ne == 0 {
        if c.face_count() != 1 {
            errors.push(ValidationError::BadFaceStructure(
                "an invariant with no edges must have exactly one face".into(),
            ));
        }
        return;
    }
    // The dart before each dart in the rotation of its tail (at its first
    // listing there: a corrupt rotation may repeat a dart).
    let mut before: Vec<Option<DartId>> = vec![None; 2 * ne];
    for v in c.vertex_ids() {
        let rot = c.vertex_rotation(v);
        for (i, &d) in rot.iter().enumerate() {
            if before[d.0].is_none() && c.dart_tail(d) == v {
                before[d.0] = Some(rot[(i + rot.len() - 1) % rot.len()]);
            }
        }
    }
    // Walks: orbits of next(d) = the dart before twin(d) at the head of d.
    let mut walked = vec![false; 2 * ne];
    let mut walks: Vec<Vec<DartId>> = Vec::new();
    for start in (0..2 * ne).map(DartId) {
        if walked[start.0] {
            continue;
        }
        let mut walk = Vec::new();
        let mut d = start;
        loop {
            walked[d.0] = true;
            walk.push(d);
            match before[d.twin().0] {
                Some(next) if walk.len() <= 2 * ne => d = next,
                _ => {
                    errors.push(ValidationError::BadRotation(
                        "face walk does not close (corrupt rotation)".into(),
                    ));
                    return;
                }
            }
            if d == start {
                break;
            }
        }
        walks.push(walk);
    }

    // Per-component Euler formula: for each skeleton component,
    // #walks = #edges - #vertices + 2.
    let comp_of_vertex = c.vertex_components();
    let comp_count = comp_of_vertex.iter().copied().max().map_or(0, |m| m + 1);
    let mut v_per = vec![0usize; comp_count];
    let mut e_per = vec![0usize; comp_count];
    let mut w_per = vec![0usize; comp_count];
    for &comp in &comp_of_vertex {
        v_per[comp] += 1;
    }
    for e in c.edge_ids() {
        e_per[comp_of_vertex[c.edge_endpoints(e).0 .0]] += 1;
    }
    let walk_component = |walk: &[DartId]| comp_of_vertex[c.dart_tail(walk[0]).0];
    for walk in &walks {
        w_per[walk_component(walk)] += 1;
    }
    for comp in 0..comp_count {
        if w_per[comp] + v_per[comp] != e_per[comp] + 2 {
            errors.push(ValidationError::NotPlanar(format!(
                "component {comp}: {} walks, {} vertices, {} edges violate Euler's formula",
                w_per[comp], v_per[comp], e_per[comp]
            )));
        }
    }

    // Every walk must lie in a single declared face, every face must consist
    // of walks from distinct components, and the global face count must be
    // #walks - #components + 1.
    let mut walks_per_face: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (wid, walk) in walks.iter().enumerate() {
        let faces: BTreeSet<usize> = walk.iter().map(|&d| c.dart_face(d).0).collect();
        if faces.len() != 1 {
            errors.push(ValidationError::BadFaceStructure(format!(
                "walk {wid} spans {} declared faces",
                faces.len()
            )));
            continue;
        }
        walks_per_face.entry(*faces.iter().next().unwrap()).or_default().push(wid);
    }
    for f in 0..c.face_count() {
        match walks_per_face.get(&f) {
            None => errors.push(ValidationError::BadFaceStructure(format!(
                "face {f} has no boundary walk"
            ))),
            Some(ws) => {
                let comps: BTreeSet<usize> = ws.iter().map(|&w| walk_component(&walks[w])).collect();
                if comps.len() != ws.len() {
                    errors.push(ValidationError::BadFaceStructure(format!(
                        "face {f} has two boundary walks from the same component"
                    )));
                }
            }
        }
    }
    if comp_count > 0 && c.face_count() + comp_count != walks.len() + 1 {
        errors.push(ValidationError::BadFaceStructure(format!(
            "{} faces, {} walks, {} components are mutually inconsistent",
            c.face_count(),
            walks.len(),
            comp_count
        )));
    }

    // The declared face boundary-edge sets must match the edges of the walks
    // assigned to each face.
    for f in c.face_ids() {
        let mut from_walks: BTreeSet<usize> = BTreeSet::new();
        if let Some(ws) = walks_per_face.get(&f.0) {
            for &w in ws {
                from_walks.extend(walks[w].iter().map(|d| d.edge().0));
            }
        }
        let declared: BTreeSet<usize> = c.face_boundary(f).iter().map(|e| e.0).collect();
        if from_walks != declared {
            errors.push(ValidationError::BadFaceStructure(format!(
                "face {}: declared boundary edges do not match its walks",
                f.0
            )));
        }
    }
}

fn check_exterior<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    if c.face_count() == 0 {
        errors.push(ValidationError::BadExteriorFace("no faces at all".into()));
        return;
    }
    if c.face_label(c.exterior_face()) != Label::default() {
        errors.push(ValidationError::BadExteriorFace(
            "the exterior face must be exterior to every region".into(),
        ));
    }
}

fn check_regions<C: ComplexRead>(c: &C, errors: &mut Vec<ValidationError>) {
    let (k, nf) = (c.region_names().len(), c.face_count());
    // Every region's faces, as ascending `(region, face)` pairs: one pass
    // over the face labels that inverts their `Interior` entries.
    let mut interior: Vec<(usize, usize)> = Vec::new();
    for f in c.face_ids() {
        let label = c.face_label(f);
        interior.extend(label.iter().filter(|&(r, s)| r < k && s == Sign::Interior).map(|(r, _)| (r, f.0)));
    }
    interior.sort_unstable();
    interior.dedup();
    let dual = dual_graph(c);
    // Breadth-first searches over the dual graph, each marking what it
    // reaches with its own round: does the search from `start` through the
    // faces `within` admits reach `wanted` faces `counts` admits? It stops
    // as soon as it has.
    let (mut seen, mut round, mut queue) = (vec![0; nf], 0, Vec::new());
    let mut reaches = |start: usize, within: &dyn Fn(usize) -> bool, wanted, counts: &dyn Fn(usize) -> bool| {
        round += 1;
        seen[start] = round;
        queue.clear();
        queue.push(start);
        let (mut reached, mut head) = (usize::from(counts(start)), 0);
        while reached < wanted && head < queue.len() {
            for &g in dual.get(queue[head]) {
                if seen[g.0] != round && within(g.0) {
                    seen[g.0] = round;
                    reached += usize::from(counts(g.0));
                    queue.push(g.0);
                }
            }
            head += 1;
        }
        reached >= wanted
    };
    // When the whole dual graph is connected, every component of a
    // region's complement holds a face next to the region, so the
    // complement is connected iff one search reaches all those faces.
    let whole = nf == 0 || reaches(0, &|_| true, nf, &|_| true);
    // `mark[f]` is `2i + 1` on the `i`-th region's faces and `2i + 2` on
    // the faces next to them, so anything below `2i + 1` is unmarked.
    let mut mark = vec![0usize; nf];
    for (idx, name) in c.region_names().iter().enumerate() {
        let at = interior.partition_point(|&(r, _)| r < idx);
        let faces = &interior[at..at + interior[at..].partition_point(|&(r, _)| r == idx)];
        let Some(&(_, first)) = faces.first() else {
            errors.push(ValidationError::BadRegion(format!("region {name} has no faces")));
            continue;
        };
        let (inside, beside) = (2 * idx + 1, 2 * idx + 2);
        faces.iter().for_each(|&(_, f)| mark[f] = inside);
        let mut next_to = Vec::new();
        for g in faces.iter().flat_map(|&(_, f)| dual.get(f)) {
            if mark[g.0] < inside {
                mark[g.0] = beside;
                next_to.push(g.0);
            }
        }
        if mark[c.exterior_face().0] == inside {
            errors.push(ValidationError::BadRegion(format!("region {name} contains the exterior face")));
        }
        if !reaches(first, &|f| mark[f] == inside, faces.len(), &|_| true) {
            errors.push(ValidationError::BadRegion(format!("region {name}'s faces are not connected")));
        }
        let outside = |f: usize| mark[f] != inside;
        let complement_connected = match next_to.first() {
            Some(&start) if whole => reaches(start, &outside, next_to.len(), &|f| mark[f] == beside),
            _ => (0..nf)
                .find(|&f| outside(f))
                .is_none_or(|start| reaches(start, &outside, nf - faces.len(), &|_| true)),
        };
        if !complement_connected {
            errors.push(ValidationError::BadRegion(format!(
                "the complement of region {name} is not connected (the region has a hole)"
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Invariant;
    use arrangement::{EdgeId, FaceId, Runs, VertexId};
    use spatial_core::fixtures;
    use spatial_core::prelude::*;

    #[test]
    fn all_fixture_invariants_are_valid() {
        let fixtures: Vec<(&str, SpatialInstance)> = vec![
            ("fig1a", fixtures::fig_1a()),
            ("fig1b", fixtures::fig_1b()),
            ("fig1c", fixtures::fig_1c()),
            ("fig1d", fixtures::fig_1d()),
            ("ring", fixtures::ring()),
            ("ring_flag", fixtures::ring_with_flag()),
            ("island_in", fixtures::ring_with_island(true)),
            ("island_out", fixtures::ring_with_island(false)),
            ("petals", fixtures::petals_abcd()),
            ("nested", fixtures::nested_three()),
            ("shared", fixtures::shared_boundary()),
            ("rectilinear", fixtures::rectilinear_pair()),
        ];
        for (name, inst) in fixtures {
            let inv = Invariant::of_instance(&inst);
            let errs = validate(&inv);
            assert!(errs.is_empty(), "{name}: {errs:?}");
        }
    }

    #[test]
    fn fig2_invariants_are_valid() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let inv = Invariant::of_instance(&inst);
            assert!(validate(&inv).is_empty(), "{name}");
        }
    }

    #[test]
    fn corrupting_the_rotation_is_detected() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Swap two darts in one vertex's rotation: still lists every dart once
        // but describes a different (here: non-planar) embedding.
        inv.rotation.get_mut(0).swap(0, 1);
        let errs = validate(&inv);
        assert!(!errs.is_empty());
    }

    #[test]
    fn a_rotation_that_drops_or_invents_a_dart_is_reported() {
        let rotations_with = |first: &[DartId]| {
            let mut inv = Invariant::of_instance(&fixtures::fig_1c());
            let mut rotation = Runs::with_capacity(inv.vertex_count(), 0);
            rotation.push(first);
            (1..inv.vertex_count()).for_each(|v| rotation.push(inv.rotation.get(v)));
            inv.rotation = rotation;
            validate(&inv)
        };
        let first = Invariant::of_instance(&fixtures::fig_1c()).vertex_rotation(VertexId(0));
        // A dart missing from its tail's rotation: no face walk can close.
        let errs = rotations_with(&first[1..]);
        assert!(errs.iter().any(|e| matches!(e, ValidationError::BadRotation(_))), "{errs:?}");
        // A dart of an edge that does not exist.
        let errs = rotations_with(&[&first[..], &[DartId::forward(EdgeId(99))]].concat());
        assert!(errs.iter().any(|e| matches!(e, ValidationError::DanglingReference(_))), "{errs:?}");
    }

    #[test]
    fn dropping_a_face_breaks_euler() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Remove a (non-exterior) face and redirect references to face 0:
        // Euler's formula and the face structure both break.
        let victim = inv.face_count() - 1;
        let mut kept = Runs::with_capacity(victim, 0);
        (0..victim).for_each(|f| kept.push(inv.face_edges.get(f)));
        inv.face_edges = kept;
        inv.face_labels.remove(victim);
        for lr in &mut inv.edge_faces {
            if lr.0 == FaceId(victim) {
                lr.0 = FaceId(0);
            }
            if lr.1 == FaceId(victim) {
                lr.1 = FaceId(0);
            }
        }
        if inv.exterior_face == FaceId(victim) {
            inv.exterior_face = FaceId(0);
        }
        let errs = validate(&inv);
        assert!(!errs.is_empty());
    }

    #[test]
    fn mislabeled_exterior_is_detected() {
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        // Designate a face interior to region A as the exterior face.
        let a_face = inv.region_faces("A")[0];
        let bad = inv.with_exterior(a_face);
        let errs = validate(&bad);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::BadExteriorFace(_) | ValidationError::BadRegion(_)
        )));
    }

    #[test]
    fn valid_exterior_swap_remains_valid() {
        // Swapping the exterior designation to the ring's hole face yields a
        // *different* but still valid invariant (it is realizable — by the
        // "inverted" ring).
        let inv = Invariant::of_instance(&fixtures::ring());
        let hole = inv
            .face_ids()
            .find(|&f| f != inv.exterior_face() && inv.face_label(f) == Label::default())
            .unwrap();
        assert!(validate(&inv.with_exterior(hole)).is_empty());
    }

    #[test]
    fn corrupting_labels_is_detected() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Flip one face's membership in region A.
        let f = inv.region_faces("A")[0].0;
        inv.face_labels[f] = inv.face_labels[f].iter().filter(|&(r, _)| r != 0).collect();
        assert!(!validate(&inv).is_empty());

        // Mark an edge as lying on no boundary at all.
        let mut inv2 = Invariant::of_instance(&fixtures::fig_1c());
        inv2.edge_labels[0] = Label::default();
        assert!(!validate(&inv2).is_empty());
    }

    #[test]
    fn malformed_labels_are_bad_labels() {
        let malformed = |inv: &Invariant| {
            let errs = validate(inv);
            errs.iter().any(|e| matches!(e, ValidationError::BadLabel(m) if m.contains("malformed")))
        };
        // An entry for a region out of range.
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        let (k, f) = (inv.region_names().len(), inv.region_faces("A")[0].0);
        inv.face_labels[f] = inv.face_labels[f].iter().chain([(k, Sign::Interior)]).collect();
        assert!(malformed(&inv));
        // Entries that do not strictly ascend: the constructor sorts, so
        // only a repeated region can.
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        inv.face_labels[f] = [(0, Sign::Interior), (0, Sign::Interior)].into_iter().collect();
        assert!(malformed(&inv));
    }

    #[test]
    fn region_with_disconnected_faces_is_detected() {
        // Take fig 1d (A ∩ B has two components) and add a fake region whose
        // faces are exactly the two lens faces: not connected in the dual
        // graph restricted to them.
        let mut inv = Invariant::of_instance(&fixtures::fig_1d());
        let both = [(0, Sign::Interior), (1, Sign::Interior)].into_iter().collect::<Label>();
        let lenses: Vec<usize> =
            (0..inv.face_count()).filter(|&f| inv.face_labels[f] == both).collect();
        assert_eq!(lenses.len(), 2);
        // Add a new region "Z" present exactly on the two lens faces.
        let z = inv.region_names.len();
        inv.region_names.push("Z".to_string());
        let with_z = |label: &Label, sign: Sign| label.iter().chain([(z, sign)]).collect::<Label>();
        for f in 0..inv.face_count() {
            let sign = if lenses.contains(&f) { Sign::Interior } else { Sign::Exterior };
            inv.face_labels[f] = with_z(&inv.face_labels[f], sign);
        }
        for e in 0..inv.edge_count() {
            let (l, r) = inv.edge_faces[e];
            let sl = inv.face_labels[l.0].sign(z);
            let sr = inv.face_labels[r.0].sign(z);
            let sign = if sl != sr { Sign::Boundary } else { sl };
            inv.edge_labels[e] = with_z(&inv.edge_labels[e], sign);
        }
        for v in 0..inv.vertex_count() {
            let incident: Vec<usize> = inv.rotation.get(v).iter().map(|d| d.edge().0).collect();
            let any_boundary =
                incident.iter().any(|&e| inv.edge_labels[e].sign(z) == Sign::Boundary);
            let sign = if any_boundary {
                Sign::Boundary
            } else {
                let f = inv.dart_face(inv.vertex_rotation(VertexId(v))[0]);
                inv.face_labels[f.0].sign(z)
            };
            inv.vertex_labels[v] = with_z(&inv.vertex_labels[v], sign);
        }
        let errs = validate(&inv);
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::BadRegion(_))),
            "expected a BadRegion error, got {errs:?}"
        );
    }

    /// The per-region scan `check_regions` replaced: every face's sign for
    /// each region, then searches over sets of the region's faces and of
    /// all the others.
    fn regions_by_scan<C: ComplexRead>(c: &C) -> Vec<ValidationError> {
        let nf = c.face_count();
        let mut dual: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nf];
        for e in c.edge_ids() {
            let (l, r) = c.edge_faces(e);
            if l != r {
                dual[l.0].insert(r.0);
                dual[r.0].insert(l.0);
            }
        }
        let connected = |faces: &BTreeSet<usize>| {
            let Some(&start) = faces.iter().next() else { return true };
            let (mut seen, mut stack) = (BTreeSet::from([start]), vec![start]);
            while let Some(f) = stack.pop() {
                for &g in &dual[f] {
                    if faces.contains(&g) && seen.insert(g) {
                        stack.push(g);
                    }
                }
            }
            seen.len() == faces.len()
        };
        let mut errors = Vec::new();
        for (idx, name) in c.region_names().iter().enumerate() {
            let faces: BTreeSet<usize> =
                (0..nf).filter(|&f| c.face_sign(FaceId(f), idx) == Sign::Interior).collect();
            if faces.is_empty() {
                errors.push(ValidationError::BadRegion(format!("region {name} has no faces")));
                continue;
            }
            if faces.contains(&c.exterior_face().0) {
                errors.push(ValidationError::BadRegion(format!("region {name} contains the exterior face")));
            }
            if !connected(&faces) {
                errors.push(ValidationError::BadRegion(format!("region {name}'s faces are not connected")));
            }
            if !connected(&(0..nf).filter(|f| !faces.contains(f)).collect()) {
                errors.push(ValidationError::BadRegion(format!(
                    "the complement of region {name} is not connected (the region has a hole)"
                )));
            }
        }
        errors
    }

    #[test]
    fn region_checks_agree_with_the_per_region_scan() {
        // Every fixture as built, and with each bounded face in turn (a)
        // stripped of its `Interior` entries (holes, split regions), (b)
        // made interior to region 0, and (c) cut off from the dual graph
        // (every edge it lies on given its other face on both sides).
        let mut fixtures = vec![
            fixtures::fig_1a(),
            fixtures::fig_1c(),
            fixtures::fig_1d(),
            fixtures::ring(),
            fixtures::ring_with_island(true),
            fixtures::petals_abcd(),
            fixtures::nested_three(),
            fixtures::shared_boundary(),
        ];
        fixtures.extend(fixtures::fig_2_pairs().into_iter().map(|(_, inst)| inst));
        let mut checked = 0;
        for inst in fixtures {
            let base = Invariant::of_instance(&inst);
            let mut cases = vec![base.clone()];
            for f in (0..base.face_count()).filter(|&f| f != base.exterior_face.0) {
                let mut stripped = base.clone();
                stripped.face_labels[f] = base.face_labels[f].iter().filter(|&(_, s)| s != Sign::Interior).collect();
                let mut joined = base.clone();
                joined.face_labels[f] =
                    base.face_labels[f].iter().filter(|&(r, _)| r != 0).chain([(0, Sign::Interior)]).collect();
                let mut cut = base.clone();
                for (l, r) in &mut cut.edge_faces {
                    if l.0 == f {
                        *l = *r;
                    } else if r.0 == f {
                        *r = *l;
                    }
                }
                cases.extend([stripped, joined, cut]);
            }
            for inv in cases {
                let mut errors = Vec::new();
                check_regions(&inv, &mut errors);
                assert_eq!(errors, regions_by_scan(&inv), "{inv:?}");
                checked += usize::from(!errors.is_empty());
            }
        }
        assert!(checked > 50, "the corruptions reach the region checks ({checked} cases)");
    }

    #[test]
    fn empty_invariant_is_valid() {
        let inv = Invariant::of_instance(&SpatialInstance::new());
        assert!(validate(&inv).is_empty());
    }
}
