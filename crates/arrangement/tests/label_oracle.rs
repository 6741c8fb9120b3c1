//! The geometric label oracle: every cell's sign for every region equals
//! where a point of that cell lies with respect to the region itself.
//!
//! The builder writes labels combinatorially — faces by flood fill from the
//! unbounded face, edges and vertices by copying a neighbouring face's label
//! and marking their own boundaries — and never looks at the regions'
//! geometry again. This suite checks the result against
//! [`Region::locate`](spatial_core::prelude::Region::locate) at one point of
//! every cell:
//!
//! * a vertex at its position;
//! * an edge at the midpoint of its first polyline piece;
//! * a face at a probe point: from the midpoint of a boundary piece, halfway
//!   to the first piece hit by the ray that leaves the piece perpendicularly
//!   into the face. The open segment up to the hit crosses no edge, so the
//!   probe lies in the face whatever its shape (holes, repeated vertices,
//!   embedded components).
//!
//! Each label must also be sparse and well formed: its stored entries
//! strictly ascend, name a region of the complex, and none is `Exterior`.
//!
//! The check is generic over [`ComplexGeometry`], so it covers both the flat
//! [`build_complex`] and the zero-copy [`build_complex_view`], and the views
//! maintained by [`update_components`] along a commit trace.

use arrangement::{
    build_complex, build_complex_view, update_components, ComplexGeometry, DartId, FaceId,
    GlobalComplexView, Label, Sign,
};
use datagen::TraceOp;
use spatial_core::fixtures;
use spatial_core::prelude::*;

fn sign_of(location: Location) -> Sign {
    match location {
        Location::Inside => Sign::Interior,
        Location::Boundary => Sign::Boundary,
        Location::Outside => Sign::Exterior,
    }
}

/// The smallest `t > 0` at which the ray `origin + t * dir` meets the
/// segment `p`–`q`, if it does.
fn ray_hit(origin: &Point, dir: &Vector, p: &Point, q: &Point) -> Option<Rational> {
    let pq = p.vector_to(q);
    let op = origin.vector_to(p);
    let denom = dir.cross(&pq);
    if denom.is_zero() {
        if !op.cross(dir).is_zero() {
            return None; // parallel, not collinear
        }
        // Collinear: the ray first meets the nearer endpoint ahead of it.
        let len2 = dir.dot(dir);
        let ahead = [op, origin.vector_to(q)].map(|v| v.dot(dir) / len2);
        return ahead.into_iter().filter(|t| t.signum() > 0).min();
    }
    let t = op.cross(&pq) / denom;
    let s = op.cross(dir) / denom;
    (t.signum() > 0 && s.signum() >= 0 && s <= Rational::ONE).then_some(t)
}

/// A point inside the face to the left of dart `d` (see the module docs).
fn face_probe<C: ComplexGeometry>(c: &C, d: DartId) -> Point {
    // The first piece of the dart, in the dart's direction.
    let pl = c.edge_polyline(d.edge());
    let (a, b) = if d.is_forward() {
        (pl[0], pl[1])
    } else {
        (pl[pl.len() - 1], pl[pl.len() - 2])
    };
    let m = Point::midpoint(&a, &b);
    let ab = a.vector_to(&b);
    let left = Vector::new(-ab.dy, ab.dx);
    let nearest = c
        .edge_ids()
        .flat_map(|e| {
            let pl = c.edge_polyline(e);
            pl.windows(2).filter_map(|w| ray_hit(&m, &left, &w[0], &w[1])).collect::<Vec<_>>()
        })
        .min();
    let t = nearest.map_or(Rational::ONE, |t| t / Rational::TWO);
    m.translate(&left.scale(t))
}

/// Hold every label of `c` against the regions of `inst`.
fn check_labels<C: ComplexGeometry>(c: &C, inst: &SpatialInstance, context: &str) {
    let regions: Vec<&Region> =
        c.region_names().iter().map(|n| inst.ext(n).expect("region of the instance")).collect();
    let check = |label: Label, p: &Point, cell: String| {
        let entries: Vec<(usize, Sign)> = label.iter().collect();
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0)
                && entries.iter().all(|&(r, s)| r < regions.len() && s != Sign::Exterior),
            "{context}: {cell} has a malformed label {entries:?}"
        );
        let expect: Label =
            regions.iter().enumerate().map(|(r, region)| (r, sign_of(region.locate(p)))).collect();
        assert_eq!(label, expect, "{context}: {cell} at {p:?}");
    };

    for v in c.vertex_ids() {
        let p = c.vertex_point(v);
        check(c.vertex_label(v), &p, format!("vertex {v:?}"));
    }
    for e in c.edge_ids() {
        let pl = c.edge_polyline(e);
        let p = Point::midpoint(&pl[0], &pl[1]);
        check(c.edge_label(e), &p, format!("edge {e:?}"));
    }

    // One dart per face, with the face on its left.
    let mut dart_of_face: Vec<Option<DartId>> = vec![None; c.face_count()];
    for e in c.edge_ids() {
        for d in [DartId::forward(e), DartId::backward(e)] {
            dart_of_face[c.dart_face(d).0].get_or_insert(d);
        }
    }
    for (f, dart) in dart_of_face.into_iter().enumerate() {
        let f = FaceId(f);
        let Some(d) = dart else {
            assert!(c.face_is_exterior(f), "{context}: bounded face {f:?} has no boundary");
            continue;
        };
        let p = face_probe(c, d);
        check(c.face_label(f), &p, format!("face {f:?} probe"));
    }
}

/// The oracle on both assembly paths of the from-scratch build.
fn check_builds(inst: &SpatialInstance, context: &str) {
    check_labels(&build_complex(inst), inst, &format!("{context} (flat)"));
    check_labels(&build_complex_view(inst), inst, &format!("{context} (view)"));
}

#[test]
fn paper_fixtures() {
    let mut cases = vec![
        ("fig1a", fixtures::fig_1a()),
        ("fig1b", fixtures::fig_1b()),
        ("fig1c", fixtures::fig_1c()),
        ("fig1d", fixtures::fig_1d()),
        ("ring", fixtures::ring()),
        ("nested", fixtures::nested_three()),
        ("shared", fixtures::shared_boundary()),
        ("petals", fixtures::petals_abcd()),
        ("island_in", fixtures::ring_with_island(true)),
        ("island_out", fixtures::ring_with_island(false)),
    ];
    cases.extend(fixtures::fig_2_pairs());
    for (name, inst) in cases {
        check_builds(&inst, name);
    }
}

#[test]
fn jittered_overlap_maps() {
    for seed in 0..3 {
        let inst = datagen::jittered_overlap_map(6, 6, 12, seed);
        check_builds(&inst, &format!("jittered_overlap_map(6,6,12,{seed})"));
    }
}

#[test]
fn clustered_maps() {
    for seed in 0..3 {
        let inst = datagen::clustered_map(4, 16, seed);
        check_builds(&inst, &format!("clustered_map(4,16,{seed})"));
    }
}

#[test]
fn slanted_road_network_maps() {
    for seed in 0..3 {
        let inst = datagen::road_network_map(4, 4, 12, seed);
        check_builds(&inst, &format!("road_network_map(4,4,12,{seed})"));
    }
}

/// Two regions whose edges all slant, crossing at rational points with
/// large denominators: the quadrilateral and triangle of the root suite's
/// `slanted_input.rs` at k = 2 000. (At k = 10 000 this oracle's own
/// `ray_hit` overflows, so that size is checked there only.)
#[test]
fn slanted_pair_at_k_2_000() {
    let k = 2_000;
    let a = Region::polygon_from_ints(&[(0, 0), (k, 1), (k - 3, k - 1), (1, k - 7)]).unwrap();
    let b = Region::polygon_from_ints(&[(k / 3, -5), (k + 11, k / 2 + 3), (k / 2 - 1, k + 13)])
        .unwrap();
    check_builds(&SpatialInstance::from_regions([("a", a), ("b", b)]), "slanted pair at k = 2000");
}

/// The incrementally maintained view, after every commit of a trace that
/// merges, splits and nests components over a one-component base map.
#[test]
fn every_step_of_an_update_trace() {
    let mut inst = datagen::jittered_overlap_map(10, 3, 12, 1);
    let names = |inst: &SpatialInstance| inst.names().iter().map(|s| s.to_string()).collect();
    let cold = update_components(&[], &inst, &inst.names(), |_| None);
    let mut view = GlobalComplexView::new(Vec::new(), Vec::new()).updated(names(&inst), &inst.names(), cold);
    check_labels(&view, &inst, "cold build");
    for (step, batch) in datagen::op_trace(24, 0x5eed).iter().enumerate() {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let name = match op {
                TraceOp::Insert(name, region) => {
                    inst.insert(name.clone(), region.clone());
                    name
                }
                TraceOp::Remove(name) => {
                    inst.remove(name);
                    name
                }
            };
            if !changed.contains(name) {
                changed.push(name.clone());
            }
        }
        let update = update_components(view.components(), &inst, &changed, |_| None);
        view = view.updated(names(&inst), &changed, update);
        check_labels(&view, &inst, &format!("step {step}"));
    }
}

/// The benchmark's dense single-component map (1 846 vertices, 3 534 edges,
/// 1 690 faces, 256 regions). Too slow unoptimised; CI runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release --test label_oracle")]
fn the_full_edit_dense_map() {
    check_builds(&datagen::jittered_overlap_map(16, 16, 12, 1996), "edit_dense map");
}
