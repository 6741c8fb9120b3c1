//! The evaluator over a shared view ([`CellEvaluator::from_view`], what a
//! database snapshot serves queries with) against the reference: the same
//! engine over the flat copy of the same complex
//! ([`CellEvaluator::from_complex`]), which reads its region faces, region
//! boxes and face incidence from the flat complex's own implementations.
//!
//! * **Differential:** both evaluators return the same rows in the same
//!   order on the benchmark's query shapes, on the planner suite's random
//!   formulas, and on region-quantifier formulas over the paper fixtures —
//!   also after every step of incremental traces whose nesting changes. On
//!   the same inputs the relation read ([`CellEvaluator::named_relation`])
//!   answers every ordered pair of names as the whole-view scan
//!   (`relations::relation_in_complex`) does, and the inputs realize all
//!   eight relations.
//! * **Locality:** a one-region commit rebuilds as many components at 1024
//!   regions as at 256, and the first query after it answers.

use arrangement::{
    build_complex_view, update_components, CellComplex, ComplexRead, GlobalComplexView,
};
use datagen::{clustered_map, jittered_overlap_map, zipf_clustered_map, TraceOp};
use query::{CellEvaluator, PreparedQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relations::Relation4;
use spatial_core::fixtures;
use spatial_core::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::random_formula;

fn names(inst: &SpatialInstance) -> Vec<String> {
    inst.names().iter().map(|s| s.to_string()).collect()
}

/// The evaluator under test and the reference, over one view.
fn both(view: &GlobalComplexView) -> (CellEvaluator, CellEvaluator<CellComplex>) {
    (
        CellEvaluator::from_view(Arc::new(view.clone())),
        CellEvaluator::from_complex(&view.to_cell_complex()),
    )
}

/// The benchmark's three query shapes (sentence, anchored, join) on `count`
/// anchors spread evenly over the names.
fn shape_queries(names: &[String], count: usize) -> Vec<String> {
    let step = (names.len() / count).max(1);
    names
        .iter()
        .step_by(step)
        .take(count)
        .flat_map(|anchor| {
            [
                format!("forallname a . not inside(ext(a), {anchor})"),
                format!("overlap(ext(x), {anchor})"),
                format!("meet(ext(x), ext(y)) and overlap(ext(y), {anchor})"),
            ]
        })
        .collect()
}

/// The evaluator under test answers `queries` as the reference does, and
/// its relation read answers every ordered pair of distinct names as the
/// whole-view scan does. One scan per unordered pair serves both orders
/// (`r(A, B)` iff `r.inverse()(B, A)`). Returns the relations the pairs
/// realize.
fn assert_same_answers(
    view: &GlobalComplexView,
    queries: &[String],
    context: &str,
) -> BTreeSet<Relation4> {
    let (ev, reference) = both(view);
    for text in queries {
        let q = PreparedQuery::compile(text).expect("query compiles");
        assert_eq!(q.run_on(&ev), q.run_on(&reference), "{text} on {context}");
    }
    let names = view.region_names();
    let mut seen = BTreeSet::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            let scanned = relations::relation_in_complex(view, a, b).expect("names of the view");
            for (x, y, r) in [(a, b, scanned), (b, a, scanned.inverse())] {
                assert_eq!(ev.named_relation(x, y), Ok(Some(r)), "relation({x}, {y}) on {context}");
                seen.insert(r);
            }
        }
    }
    seen
}

#[test]
fn benchmark_query_shapes_agree() {
    for (context, inst) in [
        ("clustered_map(16, 16, 1996)", clustered_map(16, 16, 1996)),
        (
            "jittered_overlap_map(6, 6, 12, 1996)",
            jittered_overlap_map(6, 6, 12, 1996),
        ),
    ] {
        assert_same_answers(
            &build_complex_view(&inst),
            &shape_queries(&names(&inst), 32),
            context,
        );
    }
}

#[test]
fn planner_generator_formulas_agree() {
    for (inst, seed) in [
        (clustered_map(3, 4, 42), 1u64),
        (jittered_overlap_map(3, 3, 6, 7), 4),
        (zipf_clustered_map(4, 12, 9), 7),
    ] {
        let (ev, reference) = both(&build_complex_view(&inst));
        let names = names(&inst);
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 1..=3 {
            let free: Vec<String> = ["x", "y", "z"][..k].iter().map(|s| s.to_string()).collect();
            for round in 0..10 {
                let f = random_formula(&mut rng, 2, &free, &names);
                assert_eq!(
                    ev.eval_bindings(&f, &free),
                    reference.eval_bindings(&f, &free),
                    "round {round}, k={k}, seed {seed}: {f:?}"
                );
            }
        }
    }
}

/// Region-quantifier sentences over the names `A` and `B` (the paper's
/// Examples 4.1 and 4.2 among them).
const QUANTIFIED: [&str; 6] = [
    "exists r . subset(r, A) and subset(r, B)",
    "exists r . subset(r, A) and not subset(r, B)",
    "forall r . forall s . (subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) -> exists t . subset(t, A) and subset(t, B) and connect(t, r) and connect(t, s)",
    "exists r . overlap(r, A) and meet(r, B)",
    "forall r . inside(r, A) -> not disjoint(r, B)",
    "exists r . covered_by(r, A) and covers(r, B)",
];

#[test]
fn region_quantifiers_over_the_paper_fixtures_agree() {
    let mut cases: Vec<(String, SpatialInstance)> = [
        ("fig_1a", fixtures::fig_1a()),
        ("fig_1b", fixtures::fig_1b()),
        ("fig_1c", fixtures::fig_1c()),
        ("fig_1d", fixtures::fig_1d()),
        ("nested_three", fixtures::nested_three()),
        ("ring_with_island", fixtures::ring_with_island(true)),
        ("shared_boundary", fixtures::shared_boundary()),
    ]
    .into_iter()
    .map(|(n, i)| (n.to_string(), i))
    .collect();
    cases.extend(
        fixtures::fig_2_pairs()
            .into_iter()
            .map(|(n, i)| (format!("fig_2/{n}"), i)),
    );
    for (context, inst) in cases {
        let view = build_complex_view(&inst);
        let (ev, reference) = both(&view);
        assert_eq!(
            ev.quantifier_domain(),
            reference.quantifier_domain(),
            "quantifier domain (values and order) on {context}"
        );
        let queries: Vec<String> = if inst.names().contains(&"B") {
            QUANTIFIED.iter().map(|q| q.to_string()).collect()
        } else {
            Vec::new()
        };
        assert_same_answers(&view, &queries, &context);
    }
}

/// Between them, the relation-read inputs realize all eight relations:
/// the Fig. 2 pairs; `equal` between two distinct identical regions; and
/// `contains`/`inside` across separately nested components (Host ⊃ Mid ⊃
/// Core, no boundary contact).
#[test]
fn relation_reads_realize_all_eight_relations() {
    let twins = SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 4, 4)),
        ("B", Region::rect_from_ints(0, 0, 4, 4)),
        ("C", Region::rect_from_ints(2, 2, 6, 6)),
    ]);
    let nested = SpatialInstance::from_regions([
        ("Core", Region::rect_from_ints(45, 45, 55, 55)),
        ("Host", Region::rect_from_ints(0, 0, 100, 100)),
        ("Mid", Region::rect_from_ints(20, 20, 80, 80)),
    ]);
    let mut seen = BTreeSet::new();
    for (name, inst) in fixtures::fig_2_pairs() {
        seen.extend(assert_same_answers(&build_complex_view(&inst), &[], &format!("fig_2/{name}")));
    }
    let twins_view = build_complex_view(&twins);
    seen.extend(assert_same_answers(&twins_view, &[], "twins"));
    let nested_view = build_complex_view(&nested);
    assert_eq!(nested_view.component_count(), 3, "one component per region");
    seen.extend(assert_same_answers(&nested_view, &[], "nested"));

    let (twins_ev, _) = both(&twins_view);
    assert_eq!(twins_ev.named_relation("A", "B"), Ok(Some(Relation4::Equal)));
    let (nested_ev, _) = both(&nested_view);
    assert_eq!(nested_ev.named_relation("Host", "Core"), Ok(Some(Relation4::Contains)));
    assert_eq!(nested_ev.named_relation("Core", "Mid"), Ok(Some(Relation4::Inside)));
    assert_eq!(seen, BTreeSet::from(Relation4::ALL));
}

/// Apply one commit to `view` the way a database does: patch the component
/// list for the changed names, then patch the view.
fn commit(view: &GlobalComplexView, inst: &SpatialInstance, changed: &[&str]) -> GlobalComplexView {
    view.updated(
        names(inst),
        changed,
        update_components(view.components(), inst, changed, |_| None),
    )
}

#[test]
fn answers_agree_after_every_step_of_a_nesting_trace() {
    // Host ⊃ Mid ⊃ Core, no box contact anywhere, plus a far-away bystander;
    // then a ring slips between Mid and Core, goes again, the host goes, and
    // a name sorting before all others shifts every region index.
    let mut inst = SpatialInstance::from_regions([
        ("Core", Region::rect_from_ints(45, 45, 55, 55)),
        ("Far", Region::rect_from_ints(500, 500, 510, 510)),
        ("Host", Region::rect_from_ints(0, 0, 100, 100)),
        ("Mid", Region::rect_from_ints(20, 20, 80, 80)),
    ]);
    let queries = |inst: &SpatialInstance| -> Vec<String> {
        let mut q = shape_queries(&names(inst), 8);
        q.push("exists r . inside(r, Core) and disjoint(r, Far)".into());
        q.push("forall r . subset(r, Core) -> exists s . inside(r, s) and subset(s, Mid)".into());
        q.push("inside(ext(x), Mid) and not equal(ext(x), Mid)".into());
        q
    };
    let mut view = build_complex_view(&inst);
    assert_same_answers(&view, &queries(&inst), "start");
    let steps: [(&str, Option<Region>); 4] = [
        ("Ring", Some(Region::rect_from_ints(30, 30, 70, 70))),
        ("Ring", None),
        ("Host", None),
        ("Aaa", Some(Region::rect_from_ints(900, 0, 904, 4))),
    ];
    for (name, region) in steps {
        match region {
            Some(r) => {
                inst.insert(name, r);
            }
            None => {
                inst.remove(name);
            }
        }
        view = commit(&view, &inst, &[name]);
        assert_same_answers(&view, &queries(&inst), &format!("after changing {name}"));
    }
}

#[test]
fn answers_agree_after_every_step_of_a_random_commit_trace() {
    let mut inst = SpatialInstance::new();
    let mut view = build_complex_view(&inst);
    for (step, batch) in datagen::op_trace(24, 5).into_iter().enumerate() {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            match op {
                TraceOp::Insert(name, region) => {
                    inst.insert(name.clone(), region);
                    changed.push(name);
                }
                TraceOp::Remove(name) => {
                    inst.remove(&name);
                    changed.push(name);
                }
            }
        }
        changed.sort();
        changed.dedup();
        let changed: Vec<&str> = changed.iter().map(String::as_str).collect();
        view = commit(&view, &inst, &changed);
        assert_same_answers(
            &view,
            &shape_queries(&names(&inst), 6),
            &format!("step {step}"),
        );
    }
}

/// Serve a query that resolves every name on `view` and take the planner's
/// spatial index, which covers every region.
fn resolve_every_name(view: &GlobalComplexView) {
    let q = PreparedQuery::compile("forallname a . subset(ext(a), ext(a))").unwrap();
    let evaluator = CellEvaluator::from_view(Arc::new(view.clone()));
    assert!(q.run_on(&evaluator).unwrap().holds());
    assert_eq!(evaluator.spatial_index().len(), view.region_names().len());
}

/// Commit one rectangle into cluster 0 of `clustered_map(clusters, 16)`,
/// serve a query on both sides of the commit, and return how many
/// components the commit rebuilt.
fn one_region_commit(clusters: usize) -> usize {
    let mut inst = clustered_map(clusters, 16, 1996);
    let view = build_complex_view(&inst);
    resolve_every_name(&view);

    inst.insert("New", Region::rect_from_ints(3, 3, 11, 9));
    let update = update_components(view.components(), &inst, &["New"], |_| None);
    let rebuilt = update.rebuilt;
    let next = view.updated(names(&inst), &["New"], update);
    resolve_every_name(&next);
    rebuilt
}

#[test]
fn the_first_query_after_a_commit_builds_memos_for_rebuilt_components_only() {
    let rebuilt_256 = one_region_commit(16);
    let rebuilt_1024 = one_region_commit(64);
    assert!(rebuilt_256 >= 1);
    assert_eq!(
        rebuilt_1024, rebuilt_256,
        "the same cluster is rebuilt at both sizes"
    );
}
