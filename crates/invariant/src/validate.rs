//! Validation of candidate invariants (Theorem 3.8 / Lemma 3.9).
//!
//! If the topological invariant is used as a *data model* — updates are made
//! directly to the combinatorial structure, with no underlying geometry —
//! then an integrity check is needed: which structures over the schema are
//! actual invariants of spatial instances? The paper characterizes them as
//! *labeled planar graphs* (Lemma 3.9) via conditions (1)–(7) and shows the
//! check is effective (Theorem 3.8). This module implements that check for
//! the [`Invariant`] structure.

use crate::structure::{Dart, Invariant};
use arrangement::{Label, Sign};
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
pub fn validate(inv: &Invariant) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    check_references(inv, &mut errors);
    if !errors.is_empty() {
        // Index errors make the remaining checks unsafe to run.
        return errors;
    }
    check_labels(inv, &mut errors);
    check_rotation(inv, &mut errors);
    check_faces_and_planarity(inv, &mut errors);
    check_exterior(inv, &mut errors);
    check_regions(inv, &mut errors);
    errors
}

/// Convenience wrapper: is the structure a valid invariant?
pub fn is_valid(inv: &Invariant) -> bool {
    validate(inv).is_empty()
}

fn check_references(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    let nv = inv.vertex_count();
    let nf = inv.face_count();
    for e in 0..inv.edge_count() {
        let (t, h) = inv.edge_endpoints(e);
        if t >= nv || h >= nv {
            errors.push(ValidationError::DanglingReference(format!(
                "edge {e} has endpoint out of range"
            )));
        }
        let (l, r) = inv.edge_faces(e);
        if l >= nf || r >= nf {
            errors.push(ValidationError::DanglingReference(format!(
                "edge {e} has face out of range"
            )));
        }
    }
    for f in 0..nf {
        for &e in inv.face_edges(f) {
            if e >= inv.edge_count() {
                errors.push(ValidationError::DanglingReference(format!(
                    "face {f} lists unknown edge {e}"
                )));
            }
        }
    }
    if inv.exterior_face() >= nf && nf > 0 {
        errors.push(ValidationError::DanglingReference("exterior face out of range".into()));
    }
}

fn check_labels(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    let k = inv.region_names().len();
    // Every label is well formed: its entries strictly ascend, name one of
    // the `k` regions, and none is `Exterior` (the sign of an absent region).
    let cells = (0..inv.vertex_count()).map(|v| ("vertex", v, inv.vertex_label(v)));
    let cells = cells.chain((0..inv.edge_count()).map(|e| ("edge", e, inv.edge_label(e))));
    let cells = cells.chain((0..inv.face_count()).map(|f| ("face", f, inv.face_label(f))));
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
    for e in 0..inv.edge_count() {
        let (l, r) = inv.edge_faces(e);
        let (label, left, right) = (inv.edge_label(e), inv.face_label(l), inv.face_label(r));
        let named: BTreeSet<usize> =
            label.iter().chain(left.iter()).chain(right.iter()).map(|(idx, _)| idx).collect();
        for idx in named {
            let (sl, sr) = (left.sign(idx), right.sign(idx));
            match label.sign(idx) {
                Sign::Boundary => {
                    if sl == sr {
                        errors.push(ValidationError::BadLabel(format!(
                            "edge {e} claims to be on region {idx}'s boundary but both sides agree"
                        )));
                    }
                }
                s => {
                    if sl != s || sr != s {
                        errors.push(ValidationError::BadLabel(format!(
                            "edge {e} label for region {idx} disagrees with its sides"
                        )));
                    }
                }
            }
        }
        // At least one region's boundary passes through every edge.
        if !label.iter().any(|(_, s)| s == Sign::Boundary) {
            errors.push(ValidationError::BadLabel(format!(
                "edge {e} lies on no region boundary"
            )));
        }
    }
    // Vertices: a vertex lies on ∂R iff one of its incident edges does.
    fn boundary_of(label: &Label) -> impl Iterator<Item = usize> + '_ {
        label.iter().filter(|&(_, s)| s == Sign::Boundary).map(|(idx, _)| idx)
    }
    for v in 0..inv.vertex_count() {
        let on_vertex: BTreeSet<usize> = boundary_of(inv.vertex_label(v)).collect();
        let on_edges: BTreeSet<usize> =
            inv.rotation(v).iter().flat_map(|d| boundary_of(inv.edge_label(d.edge))).collect();
        for idx in on_vertex.symmetric_difference(&on_edges) {
            errors.push(ValidationError::BadLabel(format!(
                "vertex {v} label for region {idx} inconsistent with incident edges"
            )));
        }
    }
}

fn check_rotation(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    // Every dart must appear exactly once in the rotation of its tail vertex.
    let mut expected: BTreeMap<usize, Vec<Dart>> = BTreeMap::new();
    for e in 0..inv.edge_count() {
        let (t, h) = inv.edge_endpoints(e);
        expected.entry(t).or_default().push(Dart::forward(e));
        expected.entry(h).or_default().push(Dart::backward(e));
    }
    for v in 0..inv.vertex_count() {
        let mut listed: Vec<Dart> = inv.rotation(v).to_vec();
        listed.sort();
        let mut expect = expected.remove(&v).unwrap_or_default();
        expect.sort();
        if listed != expect {
            errors.push(ValidationError::BadRotation(format!(
                "vertex {v}: rotation does not list each incident dart exactly once"
            )));
        }
        if inv.rotation(v).is_empty() {
            errors.push(ValidationError::BadRotation(format!("vertex {v} is isolated")));
        }
    }
}

/// Recompute the face walks from the rotation system alone and check the
/// planarity (Euler) condition and consistency with the declared faces.
fn check_faces_and_planarity(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    if inv.edge_count() == 0 {
        if inv.face_count() != 1 {
            errors.push(ValidationError::BadFaceStructure(
                "an invariant with no edges must have exactly one face".into(),
            ));
        }
        return;
    }
    // Walks: orbits of next(d) = rot_prev(twin(d)) at the head of d.
    let mut walk_of_dart: BTreeMap<Dart, usize> = BTreeMap::new();
    let mut walks: Vec<Vec<Dart>> = Vec::new();
    let all_darts: Vec<Dart> = (0..inv.edge_count())
        .flat_map(|e| [Dart::forward(e), Dart::backward(e)])
        .collect();
    for &start in &all_darts {
        if walk_of_dart.contains_key(&start) {
            continue;
        }
        let id = walks.len();
        let mut walk = Vec::new();
        let mut d = start;
        loop {
            walk_of_dart.insert(d, id);
            walk.push(d);
            d = inv.rot_prev(d.twin());
            if d == start {
                break;
            }
            if walk.len() > 2 * inv.edge_count() {
                errors.push(ValidationError::BadRotation(
                    "face walk does not close (corrupt rotation)".into(),
                ));
                return;
            }
        }
        walks.push(walk);
    }

    // Per-component Euler formula: for each skeleton component,
    // #walks = #edges - #vertices + 2.
    let comp_of_vertex = inv.vertex_components();
    let comp_count = comp_of_vertex.iter().copied().max().map_or(0, |m| m + 1);
    let mut v_per = vec![0usize; comp_count];
    let mut e_per = vec![0usize; comp_count];
    let mut w_per = vec![0usize; comp_count];
    for v in 0..inv.vertex_count() {
        v_per[comp_of_vertex[v]] += 1;
    }
    for e in 0..inv.edge_count() {
        e_per[comp_of_vertex[inv.edge_endpoints(e).0]] += 1;
    }
    for walk in &walks {
        w_per[comp_of_vertex[inv.dart_tail(walk[0])]] += 1;
    }
    for c in 0..comp_count {
        if w_per[c] + v_per[c] != e_per[c] + 2 {
            errors.push(ValidationError::NotPlanar(format!(
                "component {c}: {} walks, {} vertices, {} edges violate Euler's formula",
                w_per[c], v_per[c], e_per[c]
            )));
        }
    }

    // Every walk must lie in a single declared face, every face must consist
    // of walks from distinct components, and the global face count must be
    // #walks - #components + 1.
    let mut walks_per_face: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (wid, walk) in walks.iter().enumerate() {
        let faces: BTreeSet<usize> =
            walk.iter().map(|&d| inv.dart_left_face(d)).collect();
        if faces.len() != 1 {
            errors.push(ValidationError::BadFaceStructure(format!(
                "walk {wid} spans {} declared faces",
                faces.len()
            )));
            continue;
        }
        walks_per_face.entry(*faces.iter().next().unwrap()).or_default().push(wid);
    }
    for f in 0..inv.face_count() {
        match walks_per_face.get(&f) {
            None => errors.push(ValidationError::BadFaceStructure(format!(
                "face {f} has no boundary walk"
            ))),
            Some(ws) => {
                let comps: BTreeSet<usize> = ws
                    .iter()
                    .map(|&w| comp_of_vertex[inv.dart_tail(walks[w][0])])
                    .collect();
                if comps.len() != ws.len() {
                    errors.push(ValidationError::BadFaceStructure(format!(
                        "face {f} has two boundary walks from the same component"
                    )));
                }
            }
        }
    }
    if comp_count > 0 && inv.face_count() + comp_count != walks.len() + 1 {
        errors.push(ValidationError::BadFaceStructure(format!(
            "{} faces, {} walks, {} components are mutually inconsistent",
            inv.face_count(),
            walks.len(),
            comp_count
        )));
    }

    // The declared face boundary-edge sets must match the edges of the walks
    // assigned to each face.
    for f in 0..inv.face_count() {
        let mut from_walks: BTreeSet<usize> = BTreeSet::new();
        if let Some(ws) = walks_per_face.get(&f) {
            for &w in ws {
                from_walks.extend(walks[w].iter().map(|d| d.edge));
            }
        }
        let declared: BTreeSet<usize> = inv.face_edges(f).iter().copied().collect();
        if from_walks != declared {
            errors.push(ValidationError::BadFaceStructure(format!(
                "face {f}: declared boundary edges do not match its walks"
            )));
        }
    }
}

fn check_exterior(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    if inv.face_count() == 0 {
        errors.push(ValidationError::BadExteriorFace("no faces at all".into()));
        return;
    }
    let f0 = inv.exterior_face();
    if *inv.face_label(f0) != Label::default() {
        errors.push(ValidationError::BadExteriorFace(
            "the exterior face must be exterior to every region".into(),
        ));
    }
}

fn check_regions(inv: &Invariant, errors: &mut Vec<ValidationError>) {
    // Dual graph: faces adjacent iff they share an edge.
    let nf = inv.face_count();
    let mut dual: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nf];
    for e in 0..inv.edge_count() {
        let (l, r) = inv.edge_faces(e);
        if l != r {
            dual[l].insert(r);
            dual[r].insert(l);
        }
    }
    let connected_in_dual = |faces: &BTreeSet<usize>| -> bool {
        if faces.is_empty() {
            return true;
        }
        let start = *faces.iter().next().unwrap();
        let mut seen = BTreeSet::from([start]);
        let mut stack = vec![start];
        while let Some(f) = stack.pop() {
            for &g in &dual[f] {
                if faces.contains(&g) && seen.insert(g) {
                    stack.push(g);
                }
            }
        }
        seen.len() == faces.len()
    };
    for (idx, name) in inv.region_names().iter().enumerate() {
        let faces: BTreeSet<usize> = (0..nf)
            .filter(|&f| inv.face_label(f).sign(idx) == Sign::Interior)
            .collect();
        if faces.is_empty() {
            errors.push(ValidationError::BadRegion(format!("region {name} has no faces")));
            continue;
        }
        if faces.contains(&inv.exterior_face()) {
            errors.push(ValidationError::BadRegion(format!(
                "region {name} contains the exterior face"
            )));
        }
        if !connected_in_dual(&faces) {
            errors.push(ValidationError::BadRegion(format!(
                "region {name}'s faces are not connected"
            )));
        }
        let complement: BTreeSet<usize> = (0..nf).filter(|f| !faces.contains(f)).collect();
        if !connected_in_dual(&complement) {
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
            assert!(is_valid(&inv), "{name}");
        }
    }

    #[test]
    fn corrupting_the_rotation_is_detected() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Swap two darts in one vertex's rotation: still lists every dart once
        // but describes a different (here: non-planar) embedding.
        inv.rotation[0].swap(0, 1);
        let errs = validate(&inv);
        assert!(!errs.is_empty());
    }

    #[test]
    fn dropping_a_face_breaks_euler() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Remove a (non-exterior) face and redirect references to face 0:
        // Euler's formula and the face structure both break.
        let victim = inv.face_count() - 1;
        inv.face_labels.remove(victim);
        inv.face_edges.remove(victim);
        for lr in &mut inv.edge_faces {
            if lr.0 == victim {
                lr.0 = 0;
            }
            if lr.1 == victim {
                lr.1 = 0;
            }
        }
        if inv.exterior_face == victim {
            inv.exterior_face = 0;
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
        let hole = (0..inv.face_count())
            .find(|&f| f != inv.exterior_face() && *inv.face_label(f) == Label::default())
            .unwrap();
        assert!(is_valid(&inv.with_exterior(hole)));
    }

    #[test]
    fn corrupting_labels_is_detected() {
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        // Flip one face's membership in region A.
        let f = inv.region_faces("A")[0];
        inv.face_labels[f] = inv.face_labels[f].iter().filter(|&(r, _)| r != 0).collect();
        assert!(!is_valid(&inv));

        // Mark an edge as lying on no boundary at all.
        let mut inv2 = Invariant::of_instance(&fixtures::fig_1c());
        inv2.edge_labels[0] = Label::default();
        assert!(!is_valid(&inv2));
    }

    #[test]
    fn malformed_labels_are_bad_labels() {
        let malformed = |inv: &Invariant| {
            let errs = validate(inv);
            errs.iter().any(|e| matches!(e, ValidationError::BadLabel(m) if m.contains("malformed")))
        };
        // An entry for a region out of range.
        let mut inv = Invariant::of_instance(&fixtures::fig_1c());
        let (k, f) = (inv.region_names().len(), inv.region_faces("A")[0]);
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
            let (l, r) = inv.edge_faces(e);
            let sl = inv.face_labels[l].sign(z);
            let sr = inv.face_labels[r].sign(z);
            let sign = if sl != sr { Sign::Boundary } else { sl };
            inv.edge_labels[e] = with_z(&inv.edge_labels[e], sign);
        }
        for v in 0..inv.vertex_count() {
            let incident: Vec<usize> = inv.rotation[v].iter().map(|d| d.edge).collect();
            let any_boundary =
                incident.iter().any(|&e| inv.edge_labels[e].sign(z) == Sign::Boundary);
            let sign = if any_boundary {
                Sign::Boundary
            } else {
                let f = inv.dart_left_face(inv.rotation[v][0]);
                inv.face_labels[f].sign(z)
            };
            inv.vertex_labels[v] = with_z(&inv.vertex_labels[v], sign);
        }
        let errs = validate(&inv);
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::BadRegion(_))),
            "expected a BadRegion error, got {errs:?}"
        );
    }

    #[test]
    fn empty_invariant_is_valid() {
        let inv = Invariant::of_instance(&SpatialInstance::new());
        assert!(is_valid(&inv));
    }
}
