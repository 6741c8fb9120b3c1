//! E07/E08/E14/E16 — the measurable complexity claims: polynomial-time
//! invariant construction (Theorem 3.5), invariant isomorphism as the
//! homeomorphism test (Theorem 3.4), class-defining sentence construction
//! (Proposition 5.1 / Theorem 5.6), and the data complexity of FO(Rect, Rect)
//! evaluation (Theorem 6.4).

use arrangement::split::{instance_segments, split_segments_naive};
use arrangement::ComplexRead;
use arrangement::sweep::split_segments_sweep;
use bench::{CONSTRUCTION_SIZES, SCALING_SIZES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use invariant::Invariant;
use query::rect_eval::RectEvaluator;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

/// E08 — Theorem 3.5: cell complex + invariant construction over a sweep of
/// grid-map sizes (polynomial scaling is the claim being reproduced).
fn thm35_invariant_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm35_invariant_construction");
    for (n, inst) in datagen::scaling_sweep(&CONSTRUCTION_SIZES) {
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let inv = Invariant::of_instance(inst);
                assert!(inv.euler_formula_holds());
                black_box(inv)
            })
        });
    }
    group.finish();
}

/// The splitter shoot-out behind Theorem 3.5's tractability: Bentley–Ottmann
/// plane sweep (`O((n + k) log n)`) vs. the naive all-pairs oracle
/// (`O(n^2)`), on the same segment sets — both the shared-edge grid map
/// (endpoint-degenerate, `k ~ 0` proper crossings) and the dense overlap map
/// (`k = Theta(n)` proper crossings). The sweep is expected to win at the
/// top of `CONSTRUCTION_SIZES` on both workloads; nothing gates it.
fn splitting_sweep_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("splitting_sweep_vs_naive");
    for (n, inst) in datagen::scaling_sweep(&CONSTRUCTION_SIZES) {
        let segs = instance_segments(&inst);
        group.bench_with_input(BenchmarkId::new("sweep/grid", n), &segs, |b, segs| {
            b.iter(|| black_box(split_segments_sweep(segs)))
        });
        group.bench_with_input(BenchmarkId::new("naive/grid", n), &segs, |b, segs| {
            b.iter(|| black_box(split_segments_naive(segs)))
        });
    }
    for (n, inst) in datagen::dense_scaling_sweep(&CONSTRUCTION_SIZES) {
        let segs = instance_segments(&inst);
        group.bench_with_input(BenchmarkId::new("sweep/dense", n), &segs, |b, segs| {
            b.iter(|| black_box(split_segments_sweep(segs)))
        });
        group.bench_with_input(BenchmarkId::new("naive/dense", n), &segs, |b, segs| {
            b.iter(|| black_box(split_segments_naive(segs)))
        });
    }
    group.finish();
}

/// E07 — Theorem 3.4: homeomorphism testing via invariant isomorphism, on a
/// grid map against a translated copy (isomorphic) and against a map with one
/// parcel enlarged to overlap its neighbor (not isomorphic).
fn thm34_isomorphism_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm34_invariant_isomorphism");
    for (n, inst) in datagen::scaling_sweep(&SCALING_SIZES) {
        let inv = Invariant::of_instance(&inst);
        let moved = Invariant::of_instance(&inst.translated(1000, -500));
        group.bench_with_input(BenchmarkId::new("isomorphic", n), &(), |b, _| {
            b.iter(|| assert!(invariant::isomorphic(&inv, &moved)))
        });
        let mut perturbed = inst.clone();
        let first = perturbed.names()[0].to_string();
        perturbed.insert(
            first,
            spatial_core::region::Region::rect_from_ints(0, 0, 6, 6),
        );
        let perturbed_inv = Invariant::of_instance(&perturbed);
        group.bench_with_input(BenchmarkId::new("not_isomorphic", n), &(), |b, _| {
            b.iter(|| assert!(!invariant::isomorphic(&inv, &perturbed_inv)))
        });
    }
    group.finish();
}

/// E14 — Proposition 5.1 / Theorem 5.6: generating the class-defining
/// sentence φ_{T_I} is polynomial in the invariant size.
fn thm56_sentence_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm56_class_defining_sentence");
    for (n, inst) in datagen::scaling_sweep(&SCALING_SIZES) {
        let inv = Invariant::of_instance(&inst);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inv, |b, inv| {
            b.iter(|| black_box(query::complete::class_defining_sentence(inv).size()))
        });
    }
    group.finish();
}

/// E16 — Theorem 6.4 / 6.5: data complexity of FO(Rect, Rect) evaluation: a
/// fixed one-quantifier query over growing numbers of rectangle regions, and
/// a fixed instance with growing quantifier depth (query complexity).
fn thm64_rect_data_complexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm64_rect_data_complexity");
    let query_text = "exists r . overlap(r, R000) and overlap(r, R001)";
    let formula = query::parse(query_text).unwrap();
    for n in [3usize, 5, 8] {
        let inst = datagen::random_rectangles(n, 40, 11);
        let evaluator = RectEvaluator::new(&inst).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &evaluator, |b, ev| {
            b.iter(|| black_box(ev.eval(&formula).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("thm65_rect_query_complexity");
    let inst = datagen::random_rectangles(4, 30, 5);
    let evaluator = RectEvaluator::new(&inst).unwrap();
    let queries = [
        ("depth1", "exists r . overlap(r, R000)"),
        ("depth2", "exists r . exists s . overlap(r, R000) and disjoint(r, s)"),
    ];
    for (label, text) in queries {
        let formula = query::parse(text).unwrap();
        group.bench_function(label, |b| b.iter(|| black_box(evaluator.eval(&formula).unwrap())));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = splitting_sweep_vs_naive, thm35_invariant_scaling, thm34_isomorphism_scaling,
              thm56_sentence_generation, thm64_rect_data_complexity
}
criterion_main!(benches);
