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
//!
//! The view's two-level region index must answer every probe exactly as a
//! one-level index over all the region boxes does, on every input and after
//! every step of a commit trace (`check_region_index`).

use arrangement::{
    assemble_components, build_complex_monolithic, build_group_component, partition_instance,
    update_components, BBox, CellComplex, ComplexGeometry, ComplexRead, EdgeId, FaceId, GlobalComplexView,
    SpatialIndex, VertexId,
};
use datagen::TraceOp;
use spatial_core::fixtures;
use spatial_core::prelude::*;
use std::sync::Arc;

mod common;
use common::fingerprint;

/// The from-scratch reference: partition, build each group serially,
/// assemble the view.
fn view_of(inst: &SpatialInstance) -> GlobalComplexView {
    let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    let groups = partition_instance(inst);
    let components = groups.iter().map(|g| Arc::new(build_group_component(inst, g))).collect();
    GlobalComplexView::new(names, components)
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
        assert_eq!(view.vertex_point(v), ComplexGeometry::vertex_point(&flat, v), "{context}");
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
        assert_eq!(view.edge_polyline(e), ComplexGeometry::edge_polyline(&flat, e), "{context}");
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
    check_region_index(&view, context);
}

/// Both sign implementations — the view's search of its region map and the
/// flat complex's label index — agree with the flat label of every cell.
fn check_signs(view: &GlobalComplexView, flat: &CellComplex, context: &str) {
    let regions = 0..view.region_names().len();
    for v in view.vertex_ids() {
        let label = &flat.vertex_label(v);
        for r in regions.clone() {
            assert_eq!(view.vertex_sign(v, r), label.sign(r), "{v:?}, region {r} on {context}");
            assert_eq!(ComplexRead::vertex_sign(flat, v, r), label.sign(r), "{context}");
        }
    }
    for e in view.edge_ids() {
        let label = &flat.edge_label(e);
        for r in regions.clone() {
            assert_eq!(view.edge_sign(e, r), label.sign(r), "{e:?}, region {r} on {context}");
            assert_eq!(ComplexRead::edge_sign(flat, e, r), label.sign(r), "{context}");
        }
    }
    for f in view.face_ids() {
        let label = &flat.face_label(f);
        for r in regions.clone() {
            assert_eq!(view.face_sign(f, r), label.sign(r), "{f:?}, region {r} on {context}");
            assert_eq!(ComplexRead::face_sign(flat, f, r), label.sign(r), "{context}");
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

/// The view's reads of the tables its components carry equal the trait's
/// default scans over the flat complex: every region's faces and box (built
/// with the component), and every face's incidence
/// walk, which on both sides visits the face's boundary edges with the flat
/// complex's incidences.
fn check_carried_memos(view: &GlobalComplexView, flat: &CellComplex, context: &str) {
    assert_eq!(view.region_bboxes(), ComplexGeometry::region_bboxes(flat), "boxes on {context}");
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
        assert_eq!(edges, flat.face_boundary(f), "flat walk of {f:?} on {context}");
        for &(e, faces, ends) in &walked {
            assert_eq!(faces, flat.edge_faces(e), "{context}");
            assert_eq!(ends, (flat.edge(e).tail, flat.edge(e).head), "{context}");
        }
        assert_eq!(face_walk(view, f), walked, "walk of {f:?} on {context}");
    }
}

/// The view's two-level region index against a one-level index over the
/// same boxes: equal `len()` and `entry_count()`, and equal answers to
/// `bbox_neighbors` for every region's box, for boxes spanning several
/// components and for the cells of a grid laid over (and beyond) the whole
/// map, many of them over empty space; and to `locate_point` at every vertex
/// and every grid corner.
fn check_region_index(view: &GlobalComplexView, context: &str) {
    let boxes = view.region_bboxes();
    let flat = SpatialIndex::build(&boxes);
    let index = view.region_bbox_index();
    assert_eq!(index.len(), flat.len(), "len on {context}");
    assert_eq!(index.entry_count(), flat.entry_count(), "entry count on {context}");

    let mut queries: Vec<BBox> = boxes.iter().flatten().cloned().collect();
    let component_boxes: Vec<&BBox> = view.components().iter().filter_map(|c| c.bbox()).collect();
    queries.extend(component_boxes.windows(2).map(|w| w[0].union(w[1])));
    let mut points: Vec<Point> = view.vertex_ids().map(|v| view.vertex_point(v)).collect();
    if let Some(all) = component_boxes.iter().map(|b| (*b).clone()).reduce(|a, b| a.union(&b)) {
        // An 8 x 8 grid over the map's box widened by a quarter of its size
        // on every side.
        let (w, h) = (all.x1 - all.x0, all.y1 - all.y0);
        let step = Rational::new(3, 16);
        let at = |i: i64, j: i64| {
            let (fi, fj) = (Rational::from_int(i) * step, Rational::from_int(j) * step);
            let quarter = Rational::new(1, 4);
            Point::new(all.x0 - w * quarter + w * fi, all.y0 - h * quarter + h * fj)
        };
        for i in 0..8 {
            for j in 0..8 {
                let (lo, hi) = (at(i, j), at(i + 1, j + 1));
                queries.push(BBox { x0: lo.x, y0: lo.y, x1: hi.x, y1: hi.y });
                points.push(lo);
            }
        }
        queries.push(all);
    }
    for q in &queries {
        assert_eq!(index.bbox_neighbors(q), flat.bbox_neighbors(q), "probe {q:?} on {context}");
    }
    for p in &points {
        assert_eq!(index.locate_point(p), flat.locate_point(p), "point {p:?} on {context}");
    }
    assert_eq!(index.probe_count(), (queries.len() + points.len()) as u64, "{context}");
}

#[test]
fn region_index_agrees_after_every_step_of_the_commit_traces() {
    let names = |inst: &SpatialInstance| -> Vec<String> {
        inst.names().iter().map(|s| s.to_string()).collect()
    };
    let commit = |view: &GlobalComplexView, inst: &SpatialInstance, changed: &[String]| {
        view.updated(names(inst), changed, update_components(view.components(), inst, changed, |_| None))
    };

    let mut inst = SpatialInstance::new();
    let mut view = GlobalComplexView::new(Vec::new(), Vec::new());
    for (step, batch) in datagen::op_trace(24, 5).into_iter().enumerate() {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let name = match op {
                TraceOp::Insert(name, region) => {
                    inst.insert(name.clone(), region);
                    name
                }
                TraceOp::Remove(name) => {
                    inst.remove(&name);
                    name
                }
            };
            if !changed.contains(&name) {
                changed.push(name);
            }
        }
        view = commit(&view, &inst, &changed);
        check_region_index(&view, &format!("op_trace(24, 5) step {step}"));
    }

    // Host ⊃ Mid ⊃ Core, no box contact anywhere, plus a far-away bystander;
    // then a ring slips between Mid and Core, goes again, the host goes, and
    // a name sorting before all others shifts every region index.
    let mut inst = SpatialInstance::from_regions([
        ("Core", Region::rect_from_ints(45, 45, 55, 55)),
        ("Far", Region::rect_from_ints(500, 500, 510, 510)),
        ("Host", Region::rect_from_ints(0, 0, 100, 100)),
        ("Mid", Region::rect_from_ints(20, 20, 80, 80)),
    ]);
    let mut view = view_of(&inst);
    check_region_index(&view, "nesting trace start");
    let steps: [(&str, Option<Region>); 4] = [
        ("Ring", Some(Region::rect_from_ints(30, 30, 70, 70))),
        ("Ring", None),
        ("Host", None),
        ("Aaa", Some(Region::rect_from_ints(900, 0, 904, 4))),
    ];
    for (name, region) in steps {
        match region {
            Some(r) => inst.insert(name, r),
            None => inst.remove(name),
        };
        view = commit(&view, &inst, &[name.to_string()]);
        check_region_index(&view, &format!("nesting trace after changing {name}"));
    }
}

/// `op_trace`'s names sort after every base name of a clustered map, so its
/// inserts shift no carried component's ranks. Here each of its names is
/// prefixed with a base name picked by the name's serial (or with `A`, which
/// sorts before them all), so inserts land between and before the carried
/// names, and every third step also removes a base name. After every step
/// the patched view (region map shifted by rank, component-box index merged)
/// is cell for cell the one assembled from scratch over its components, and
/// its region index answers as a one-level index does.
#[test]
fn ranks_shift_when_names_land_between_and_before_the_carried_ones() {
    let names = |inst: &SpatialInstance| -> Vec<String> {
        inst.names().iter().map(|s| s.to_string()).collect()
    };
    let mut inst = datagen::clustered_map(16, 3, 5);
    let base = names(&inst);
    let prefixed = |name: &str| -> String {
        let serial: usize = name[1..].parse().expect("op_trace names are W and a serial");
        match serial % 5 {
            0 => format!("A{name}"),
            _ => format!("{}_{name}", base[(serial * 7 + 3) % base.len()]),
        }
    };
    let empty = GlobalComplexView::new(Vec::new(), Vec::new());
    let all = names(&inst);
    let mut view = empty.updated(all.clone(), &all, update_components(&[], &inst, &all, |_| None));
    let (mut shifted, mut carried) = (0, 0);
    for (step, batch) in datagen::op_trace(30, 11).into_iter().enumerate() {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let name = match op {
                TraceOp::Insert(name, region) => {
                    let name = prefixed(&name);
                    inst.insert(name.clone(), region);
                    name
                }
                TraceOp::Remove(name) => {
                    let name = prefixed(&name);
                    inst.remove(&name);
                    name
                }
            };
            if !changed.contains(&name) {
                changed.push(name);
            }
        }
        if step % 3 == 2 {
            let victim = &base[(step * 11) % base.len()];
            if inst.remove(victim).is_some() && !changed.contains(victim) {
                changed.push(victim.clone());
            }
        }
        let update = update_components(view.components(), &inst, &changed, |_| None);
        for (component, from) in update.components.iter().zip(&update.carried_from) {
            if let Some(old) = *from {
                carried += 1;
                let before = view.components()[old].region_names();
                let at = |name: &String| inst.names().iter().position(|n| n == name);
                let was = |name: &String| view.region_names().iter().position(|n| n == name);
                shifted += usize::from(component.region_names().iter().any(|n| at(n) != was(n)));
                assert_eq!(before, component.region_names(), "a carried component keeps its names");
            }
        }
        let patched = view.updated(names(&inst), &changed, update);
        let context = format!("prefixed op_trace(30, 11) step {step}");
        let scratch = GlobalComplexView::new(names(&inst), patched.components().to_vec());
        assert!(patched.to_cell_complex() == scratch.to_cell_complex(), "{context}");
        for name in patched.region_names() {
            assert_eq!(patched.region_faces(name), scratch.region_faces(name), "{name} on {context}");
        }
        check_region_index(&patched, &context);
        view = patched;
    }
    assert!(shifted * 2 > carried, "{shifted} of {carried} carried components moved rank");
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
        check_region_index(&view, context);
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
        ("rectilinear_pair", fixtures::rectilinear_pair()),
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
