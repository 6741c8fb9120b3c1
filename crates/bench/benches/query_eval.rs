//! E10/E15 — query evaluation experiments: the thematic bridge of
//! Corollary 3.7 (relational vs. geometric answering) and the point-based
//! vs. region-based comparison of Theorem 5.8.

use criterion::{criterion_group, criterion_main, Criterion};
use invariant::Invariant;
use query::ast::{Formula, RegionExpr};
use query::cell_eval::CellEvaluator;
use query::point_lang::{eval_point_sentence, rect_query_to_point_query};
use query::rect_eval::eval_on_rect_instance;
use query::thematic_eval::eval_on_thematic;
use relations::Relation4;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

/// E10 — Corollary 3.7: answering all pairwise relation atoms of a grid map
/// (a) geometrically from the cell complex and (b) relationally on
/// thematic(I). The point being reproduced: once thematic(I) is computed, no
/// geometry is needed, at a measurable (and acceptable) interpretation cost.
fn cor37_thematic_vs_geometric(c: &mut Criterion) {
    let inst = datagen::grid_map(3, 2, 5);
    let complex = arrangement::build_complex(&inst);
    let thematic = invariant::thematic::to_database(&Invariant::from_complex(&complex));
    let evaluator = CellEvaluator::from_complex(&complex);
    let names: Vec<String> = inst.names().into_iter().map(String::from).collect();
    let atoms: Vec<Formula> = names
        .iter()
        .flat_map(|a| {
            names.iter().filter(move |b| *b > a).map(move |b| {
                Formula::rel(Relation4::Meet, RegionExpr::named(a.clone()), RegionExpr::named(b.clone()))
            })
        })
        .collect();

    let mut group = c.benchmark_group("cor37_thematic_bridge");
    group.bench_function("geometric_cell_evaluation", |b| {
        b.iter(|| {
            let mut hits = 0;
            for atom in &atoms {
                if evaluator.eval(atom).unwrap() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("relational_thematic_evaluation", |b| {
        b.iter(|| {
            let mut hits = 0;
            for atom in &atoms {
                if eval_on_thematic(&thematic, atom).unwrap() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("thematic_construction", |b| {
        b.iter(|| black_box(invariant::thematic::to_database(&Invariant::from_complex(&complex))))
    });
    group.finish();
}

/// E15 — Theorem 5.8: the same (quantifier-free) sentences evaluated in the
/// region-based rectangle language and in the translated point language.
fn thm58_point_vs_region(c: &mut Criterion) {
    let inst = datagen::random_rectangles(5, 30, 3);
    let names: Vec<String> = inst.names().into_iter().map(String::from).collect();
    let sentences: Vec<Formula> = vec![
        Formula::rel(Relation4::Disjoint, RegionExpr::named(names[0].clone()), RegionExpr::named(names[1].clone())),
        Formula::rel(Relation4::Overlap, RegionExpr::named(names[1].clone()), RegionExpr::named(names[2].clone())),
        Formula::rel(Relation4::Inside, RegionExpr::named(names[2].clone()), RegionExpr::named(names[3].clone())),
    ];
    let mut group = c.benchmark_group("thm58_point_vs_region");
    group.bench_function("region_based_rect_evaluation", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for s in &sentences {
                out.push(eval_on_rect_instance(&inst, s).unwrap());
            }
            black_box(out)
        })
    });
    group.bench_function("translated_point_language_evaluation", |b| {
        let translated: Vec<_> =
            sentences.iter().map(|s| rect_query_to_point_query(s).unwrap()).collect();
        b.iter(|| {
            let mut out = Vec::new();
            for p in &translated {
                out.push(eval_point_sentence(&inst, p).unwrap());
            }
            black_box(out)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = cor37_thematic_vs_geometric, thm58_point_vs_region
}
criterion_main!(benches);
