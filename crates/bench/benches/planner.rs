//! The semi-join query planner vs. the cartesian-product enumerator on open
//! (binding-producing) queries.
//!
//! The workload is an anchored 2-free-variable contact query over a
//! clustered map — `connect(ext(x), C000_R000) and connect(ext(x), ext(y))`
//! ("which regions x touch the anchor, and which regions y touch such an
//! x?"). The naive path tries all `n²` assignments; the planner binds `x`
//! from the spatial index's bbox neighbors of the anchor and `y` from the
//! neighbors of each `x`, checking each conjunct as soon as its variables
//! are bound, so the work tracks the anchor's cluster size rather than `n²`.
//! The pruning itself is asserted by
//! `planner_differential.rs::planned_enumeration_prunes_assignments`; this
//! bench only times it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use query::ast::{Formula, NameTerm, RegionExpr};
use query::cell_eval::CellEvaluator;
use query::plan::QueryPlan;
use spatial_core::prelude::SpatialInstance;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    // The naive path at 256 regions runs 65k full formula evaluations per
    // iteration; keep the sample count low so the group stays tractable.
    Criterion::default()
        .sample_size(3)
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_millis(300))
}

/// The benchmark query: an anchored two-variable contact join.
fn open_query() -> (Formula, Vec<String>) {
    let f = Formula::And(vec![
        Formula::Connect(
            RegionExpr::Ext(NameTerm::Var("x".into())),
            RegionExpr::Ext(NameTerm::Const("C000_R000".into())),
        ),
        Formula::Connect(
            RegionExpr::Ext(NameTerm::Var("x".into())),
            RegionExpr::Ext(NameTerm::Var("y".into())),
        ),
    ]);
    (f, vec!["x".into(), "y".into()])
}

fn instance(n: usize) -> SpatialInstance {
    // 16 clusters, n/16 regions each: 144 and 256 regions at the benched
    // sizes, anchor cluster C000 always present.
    datagen::clustered_map(16, n / 16, 42)
}

fn planner_bindings(c: &mut Criterion) {
    let (formula, free) = open_query();
    let mut group = c.benchmark_group("planner_bindings");
    for n in [144usize, 256] {
        let inst = instance(n);
        let ev = CellEvaluator::new(&inst);
        let plan = QueryPlan::build(&formula, &free);
        // Pre-build the index outside the timed region, as Snapshot does.
        ev.spatial_index();
        let planned_rows = ev.eval_bindings_planned(&formula, &plan).unwrap();
        let naive_rows = ev.eval_bindings_naive(&formula, &free).unwrap();
        assert_eq!(planned_rows, naive_rows, "planner must agree with naive at n={n}");
        assert!(!planned_rows.is_empty(), "the anchored query has witnesses");

        group.bench_with_input(BenchmarkId::new("planned", n), &ev, |b, ev| {
            b.iter(|| black_box(ev.eval_bindings_planned(&formula, &plan).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &ev, |b, ev| {
            b.iter(|| black_box(ev.eval_bindings_naive(&formula, &free).unwrap()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = planner_bindings
}
criterion_main!(benches);
