//! E11/E17/E18 — invariant validation (Theorem 3.8), topological inference
//! over the existential fragment ([GPP95], Proposition 6.2 context), and the
//! ablation of the invariant's components (exterior face / orientation) in
//! the isomorphism test.

use arrangement::ComplexRead;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use invariant::{find_isomorphism, IsoOptions, Invariant};
use relations::{ConstraintNetwork, Relation4, RelationSet};
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

/// E11 — Theorem 3.8: checking whether a structure is a valid invariant
/// (labeled planar graph), on valid and corrupted inputs of growing size.
fn thm38_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm38_validation");
    for (n, inst) in datagen::scaling_sweep(&bench::SCALING_SIZES) {
        let inv = Invariant::of_instance(&inst);
        group.bench_with_input(BenchmarkId::new("valid", n), &inv, |b, inv| {
            b.iter(|| assert!(invariant::validate(inv).is_empty()))
        });
        let corrupted = inv.with_exterior(inv.region_faces(inst.names()[0])[0]);
        group.bench_with_input(BenchmarkId::new("corrupted", n), &corrupted, |b, inv| {
            b.iter(|| assert!(!invariant::validate(inv).is_empty()))
        });
    }
    group.finish();
}

/// E17 — topological inference: satisfiability of constraint networks built
/// from real instances (satisfiable) and of adversarial networks
/// (unsatisfiable), as a function of the number of variables.
fn prop62_satisfiability(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpp95_topological_inference");
    for n in [4usize, 6, 8] {
        let inst = datagen::random_rectangles(n, 40, 17);
        let net = relations::network_of_instance(&inst);
        group.bench_with_input(BenchmarkId::new("from_instance", n), &net, |b, net| {
            b.iter(|| assert!(net.is_satisfiable()))
        });
        // An unsatisfiable network: a containment cycle plus a disjointness.
        let mut bad = ConstraintNetwork::unconstrained(n);
        for i in 0..n - 1 {
            bad.constrain_base(i, i + 1, Relation4::Inside);
        }
        bad.constrain(0, n - 1, RelationSet::from_slice(&[Relation4::Disjoint, Relation4::Meet]));
        group.bench_with_input(BenchmarkId::new("unsatisfiable", n), &bad, |b, bad| {
            b.iter(|| assert!(!bad.is_satisfiable()))
        });
    }
    group.finish();
}

/// E18 — ablation: how much of the isomorphism decision is carried by each
/// component of the invariant (full, without orientation, without exterior,
/// labeled graph only), measured on the flower workload whose instances
/// differ only in the rotation system.
fn ablation_invariant_components(c: &mut Criterion) {
    let a = Invariant::of_instance(&datagen::flower(8, 1));
    let b = Invariant::of_instance(&datagen::flower(8, 2));
    let configurations = [
        ("full", IsoOptions::full()),
        ("without_orientation", IsoOptions::without_orientation()),
        ("without_exterior", IsoOptions::without_exterior()),
        ("labeled_graph_only", IsoOptions::labeled_graph_only()),
    ];
    let mut group = c.benchmark_group("ablation_invariant_components");
    for (label, opts) in configurations {
        group.bench_function(label, |bencher| {
            bencher.iter(|| black_box(find_isomorphism(&a, &b, opts).is_some()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = thm38_validation, prop62_satisfiability, ablation_invariant_components
}
criterion_main!(benches);
