//! Differential tests for the zero-copy assembly path:
//! [`arrangement::GlobalComplexView`] must agree with the pre-partitioning
//! single-sweep oracle ([`arrangement::build_complex_monolithic`]) on every
//! input, up to cell re-indexing — and must agree with the copying assembly
//! ([`arrangement::assemble_components`]) *cell for cell*, since the two
//! representations share one id numbering.
//!
//! Agreement with the monolithic oracle is checked on re-indexing-invariant
//! fingerprints computed through the [`ComplexRead`] accessor trait (the
//! same surface every downstream consumer uses), so the fingerprint also
//! exercises the trait's translation layer end to end.

use arrangement::{
    assemble_components, build_complex_monolithic, build_component_complexes, CellComplex,
    CellId, ComplexRead, EdgeId, FaceId, GlobalComplexView, VertexId,
};
use spatial_core::fixtures;
use spatial_core::prelude::*;

mod common;
use common::fingerprint;

fn view_of(inst: &SpatialInstance) -> GlobalComplexView {
    let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    GlobalComplexView::new(names, build_component_complexes(inst, 1))
}

fn check(inst: &SpatialInstance, context: &str) {
    let view = view_of(inst);
    let monolithic = build_complex_monolithic(inst);
    assert!(view.euler_formula_holds(), "euler fails (view) on {context}");
    assert_eq!(
        view.skeleton_component_count(),
        ComplexRead::skeleton_component_count(&monolithic),
        "skeleton component mismatch on {context}"
    );
    assert_eq!(fingerprint(&view), fingerprint(&monolithic), "fingerprints differ on {context}");

    // The copying assembly over the same components must match the view not
    // just up to re-indexing but cell for cell: identical ids, labels,
    // incidences and rotations.
    let flat = assemble_components(
        inst.names().iter().map(|s| s.to_string()).collect(),
        view.components(),
    );
    assert_eq!(view.vertex_count(), ComplexRead::vertex_count(&flat), "{context}");
    assert_eq!(view.edge_count(), ComplexRead::edge_count(&flat), "{context}");
    assert_eq!(view.face_count(), ComplexRead::face_count(&flat), "{context}");
    assert_eq!(view.exterior_face(), ComplexRead::exterior_face(&flat), "{context}");
    for v in view.vertex_ids() {
        assert_eq!(view.vertex_point(v), ComplexRead::vertex_point(&flat, v), "{context}");
        assert_eq!(view.vertex_label(v), ComplexRead::vertex_label(&flat, v), "{context}");
        assert_eq!(view.vertex_rotation(v), ComplexRead::vertex_rotation(&flat, v), "{context}");
    }
    for e in view.edge_ids() {
        assert_eq!(view.edge_endpoints(e), ComplexRead::edge_endpoints(&flat, e), "{context}");
        assert_eq!(view.edge_faces(e), ComplexRead::edge_faces(&flat, e), "{context}");
        assert_eq!(view.edge_label(e), ComplexRead::edge_label(&flat, e), "{context}");
        assert_eq!(
            view.edge_region_marks(e),
            ComplexRead::edge_region_marks(&flat, e),
            "{context}"
        );
        assert_eq!(view.edge_polyline(e), ComplexRead::edge_polyline(&flat, e), "{context}");
    }
    for f in view.face_ids() {
        assert_eq!(view.face_label(f), ComplexRead::face_label(&flat, f), "{context}");
        assert_eq!(view.face_boundary(f), ComplexRead::face_boundary(&flat, f), "{context}");
        assert_eq!(
            view.face_is_exterior(f),
            ComplexRead::face_is_exterior(&flat, f),
            "{context}"
        );
    }
    check_signs(&view, &flat, context);
    check_carried_memos(&view, &flat, context);
}

/// Both sign implementations — the view's search of its region map and the
/// flat complex's label index — agree with the flat label of every cell.
fn check_signs(view: &GlobalComplexView, flat: &CellComplex, context: &str) {
    let regions = 0..view.region_names().len();
    for v in view.vertex_ids() {
        let label = flat.label(CellId::Vertex(v));
        for r in regions.clone() {
            assert_eq!(view.vertex_sign(v, r), label[r], "{v:?}, region {r} on {context}");
            assert_eq!(ComplexRead::vertex_sign(flat, v, r), label[r], "{context}");
        }
    }
    for e in view.edge_ids() {
        let label = flat.label(CellId::Edge(e));
        for r in regions.clone() {
            assert_eq!(view.edge_sign(e, r), label[r], "{e:?}, region {r} on {context}");
            assert_eq!(ComplexRead::edge_sign(flat, e, r), label[r], "{context}");
        }
    }
    for f in view.face_ids() {
        let label = flat.label(CellId::Face(f));
        for r in regions.clone() {
            assert_eq!(view.face_sign(f, r), label[r], "{f:?}, region {r} on {context}");
            assert_eq!(ComplexRead::face_sign(flat, f, r), label[r], "{context}");
        }
    }
}

/// The edges a face's incidence walk visits, with their faces and ends.
type Walk = Vec<(EdgeId, (FaceId, FaceId), (VertexId, VertexId))>;

fn face_walk<C: ComplexRead>(complex: &C, f: FaceId) -> Walk {
    let mut walked = Vec::new();
    complex.for_each_face_edge(f, |e, faces, ends| walked.push((e, faces, ends)));
    walked.sort();
    walked
}

/// The view's memo-served reads equal the trait's default scans over the
/// flat complex: every region's faces and box, and every face's incidence
/// walk, which on both sides visits the face's boundary edges with the flat
/// complex's incidences.
fn check_carried_memos(view: &GlobalComplexView, flat: &CellComplex, context: &str) {
    assert_eq!(view.region_bboxes(), ComplexRead::region_bboxes(flat), "boxes on {context}");
    for name in view.region_names() {
        assert_eq!(
            view.region_faces(name),
            ComplexRead::region_faces(flat, name),
            "faces of {name} on {context}"
        );
    }
    for f in view.face_ids() {
        let walked = face_walk(flat, f);
        let edges: Vec<EdgeId> = walked.iter().map(|&(e, _, _)| e).collect();
        assert_eq!(edges, flat.face_edges(f), "flat walk of {f:?} on {context}");
        for &(e, faces, ends) in &walked {
            assert_eq!(faces, flat.edge_faces(e), "{context}");
            assert_eq!(ends, (flat.edge(e).tail, flat.edge(e).head), "{context}");
        }
        assert_eq!(face_walk(view, f), walked, "walk of {f:?} on {context}");
    }
}

#[test]
fn carried_memos_equal_the_default_scans_over_the_datagen_families() {
    let families = [
        ("grid_map(4, 3, 10)", datagen::grid_map(4, 3, 10)),
        ("dense_overlap_map(4, 4, 10)", datagen::dense_overlap_map(4, 4, 10)),
        ("jittered_overlap_map(5, 5, 12, 3)", datagen::jittered_overlap_map(5, 5, 12, 3)),
        ("road_network_map(4, 4, 10, 5)", datagen::road_network_map(4, 4, 10, 5)),
        ("zipf_clustered_map(6, 30, 9)", datagen::zipf_clustered_map(6, 30, 9)),
        ("clustered_map(16, 16, 1996)", datagen::clustered_map(16, 16, 1996)),
    ];
    for (context, inst) in families {
        let view = view_of(&inst);
        let flat = view.to_cell_complex();
        check_signs(&view, &flat, context);
        check_carried_memos(&view, &flat, context);
        // Each component built each kind of memo once, and a second read
        // builds none.
        assert_eq!(view.memo_builds(), 2 * view.component_count() as u64, "{context}");
        check_carried_memos(&view, &flat, context);
        assert_eq!(view.memo_builds(), 2 * view.component_count() as u64, "{context}");
    }
}

#[test]
fn paper_fixtures_agree() {
    for (name, inst) in [
        ("fig_1a", fixtures::fig_1a()),
        ("fig_1b", fixtures::fig_1b()),
        ("fig_1c", fixtures::fig_1c()),
        ("fig_1d", fixtures::fig_1d()),
        ("petals_abcd", fixtures::petals_abcd()),
        ("petals_acbd", fixtures::petals_acbd()),
        ("ring", fixtures::ring()),
        ("ring_with_flag", fixtures::ring_with_flag()),
        ("ring_with_island_in", fixtures::ring_with_island(true)),
        ("ring_with_island_out", fixtures::ring_with_island(false)),
        ("nested_three", fixtures::nested_three()),
        ("shared_boundary", fixtures::shared_boundary()),
        ("empty", SpatialInstance::new()),
    ] {
        check(&inst, name);
    }
    for (name, inst) in fixtures::fig_2_pairs() {
        check(&inst, &format!("fig_2/{name}"));
    }
}

#[test]
fn randomized_instances_agree() {
    for seed in 0..40 {
        for n in [5usize, 12] {
            let inst = datagen::random_rectangles(n, 24, seed);
            check(&inst, &format!("random_rectangles({n}, 24, {seed})"));
        }
    }
    for seed in 0..10 {
        let inst = datagen::flower(8, seed);
        check(&inst, &format!("flower(8, {seed})"));
    }
}

#[test]
fn clustered_and_wide_workloads_agree() {
    for n in [2usize, 5, 9] {
        check(&datagen::nested_rings(n), &format!("nested_rings({n})"));
        check(&datagen::overlapping_chain(n), &format!("overlapping_chain({n})"));
    }
    for (clusters, per) in [(2usize, 3usize), (4, 4), (8, 2)] {
        for seed in [1u64, 7] {
            let inst = datagen::clustered_map(clusters, per, seed);
            check(&inst, &format!("clustered_map({clusters}, {per}, {seed})"));
        }
    }
    for (components, seed) in [(5usize, 2u64), (16, 11), (30, 23)] {
        let inst = datagen::wide_map(components, seed);
        check(&inst, &format!("wide_map({components}, {seed})"));
    }
}
