//! E01/E02/E04/E05/E06/E09 — reproduction of the paper's figures as measured
//! pipelines: building the cell complex, computing the invariant, checking
//! the relaxed/full isomorphisms, computing the 4-intersection relations and
//! the thematic database for each figure fixture.

use arrangement::ComplexRead;
use criterion::{criterion_group, criterion_main, Criterion};
use invariant::{find_isomorphism, IsoOptions, Invariant};
use query::cell_eval::eval_on_instance;
use spatial_core::fixtures;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

/// E01 — Fig. 1: the Example 4.1 / 4.2 separating queries on all four
/// instances (the headline "binary relations are not enough" experiment).
fn fig01_four_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig01_four_instances");
    let q41 = query::parse("exists r . subset(r, A) and subset(r, B) and subset(r, C)").unwrap();
    let q42 = query::parse(
        "forall r, s . (subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) -> \
         exists t . subset(t, A) and subset(t, B) and connect(t, r) and connect(t, s)",
    )
    .unwrap();
    group.bench_function("example_4_1_on_1a_and_1b", |b| {
        b.iter(|| {
            let a = eval_on_instance(&fixtures::fig_1a(), &q41).unwrap();
            let bb = eval_on_instance(&fixtures::fig_1b(), &q41).unwrap();
            assert!(a && !bb);
            black_box((a, bb))
        })
    });
    group.bench_function("example_4_2_on_1c_and_1d", |b| {
        b.iter(|| {
            let c1 = eval_on_instance(&fixtures::fig_1c(), &q42).unwrap();
            let d = eval_on_instance(&fixtures::fig_1d(), &q42).unwrap();
            assert!(c1 && !d);
            black_box((c1, d))
        })
    });
    group.bench_function("four_intersection_equivalence_1a_1b", |b| {
        b.iter(|| {
            black_box(relations::four_intersection_equivalent(
                &fixtures::fig_1a(),
                &fixtures::fig_1b(),
            ))
        })
    });
    group.finish();
}

/// E02 — Fig. 2: computing all eight relations from geometry.
fn fig02_four_intersection(c: &mut Criterion) {
    let pairs = fixtures::fig_2_pairs();
    c.benchmark_group("fig02_four_intersection").bench_function("all_eight_relations", |b| {
        b.iter(|| {
            for (name, inst) in &pairs {
                let complex = arrangement::build_complex(inst);
                let r = relations::relation_in_complex(&complex, "A", "B").unwrap();
                assert_eq!(r.name(), *name);
            }
        })
    });
}

/// E04/E09 — Fig. 5 / Fig. 9: invariant and thematic database of Fig. 1c.
fn fig05_invariant_and_thematic(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05_fig09_invariant_of_fig1c");
    group.bench_function("invariant", |b| {
        b.iter(|| {
            let inv = Invariant::of_instance(&fixtures::fig_1c());
            assert_eq!((inv.vertex_count(), inv.edge_count(), inv.face_count()), (2, 4, 4));
            black_box(inv)
        })
    });
    group.bench_function("thematic_database", |b| {
        let inv = Invariant::of_instance(&fixtures::fig_1c());
        b.iter(|| black_box(invariant::thematic::to_database(&inv)))
    });
    group.finish();
}

/// E05 — Fig. 6: exterior-face sensitivity of the invariant.
fn fig06_exterior_face(c: &mut Criterion) {
    let t = Invariant::of_instance(&fixtures::ring_with_flag());
    let hole = t
        .face_ids()
        .find(|&f| f != t.exterior_face() && t.face_label(f) == Default::default())
        .unwrap();
    let swapped = t.with_exterior(hole);
    let mut group = c.benchmark_group("fig06_exterior_face");
    group.bench_function("labeled_graph_isomorphism_ignoring_exterior", |b| {
        b.iter(|| {
            assert!(find_isomorphism(&t, &swapped, IsoOptions::without_exterior()).is_some());
        })
    });
    group.bench_function("full_invariant_isomorphism", |b| {
        b.iter(|| {
            assert!(find_isomorphism(&t, &swapped, IsoOptions::full()).is_none());
        })
    });
    group.finish();
}

/// E06 — Fig. 7: orientation-relation sensitivity of the invariant.
fn fig07_orientation(c: &mut Criterion) {
    let p1 = Invariant::of_instance(&fixtures::petals_abcd());
    let p2 = Invariant::of_instance(&fixtures::petals_acbd());
    let mut group = c.benchmark_group("fig07_orientation");
    group.bench_function("graph_isomorphism_without_orientation", |b| {
        b.iter(|| {
            assert!(find_isomorphism(&p1, &p2, IsoOptions::without_orientation()).is_some());
        })
    });
    group.bench_function("full_invariant_isomorphism", |b| {
        b.iter(|| {
            assert!(find_isomorphism(&p1, &p2, IsoOptions::full()).is_none());
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = fig01_four_instances, fig02_four_intersection, fig05_invariant_and_thematic,
              fig06_exterior_face, fig07_orientation
}
criterion_main!(benches);
