//! Randomized differential suite: the semi-join planner must produce exactly
//! the same binding rows, in the same order, as the cartesian-product oracle
//! (`eval_bindings_naive`) on every formula whose naive evaluation completes
//! without error.
//!
//! Formulas are drawn pseudo-randomly (deterministic seeds) over 1–3 free
//! name variables, with all name constants taken from the instance under
//! test, and run against the three planner-relevant workloads: the uniform
//! `clustered_map`, the single-component crossing-heavy
//! `jittered_overlap_map`, and the skewed `zipf_clustered_map`.

use arrangement::BBox;
use datagen::{clustered_map, jittered_overlap_map, zipf_clustered_map};
use query::ast::{Formula, NameTerm, RegionExpr};
use query::plan::QueryPlan;
use query::{parse, CellEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_core::prelude::SpatialInstance;

mod common;
use common::random_formula;

/// Run `rounds` random formulas with `k` free variables against the instance
/// and assert planner ≡ naive (rows and order).
fn differential(instance: &SpatialInstance, k: usize, rounds: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ev = CellEvaluator::new(instance);
    let names: Vec<String> = ev.names().iter().map(|s| s.to_string()).collect();
    let free: Vec<String> = ["x", "y", "z"][..k].iter().map(|s| s.to_string()).collect();
    for round in 0..rounds {
        let f = random_formula(&mut rng, 2, &free, &names);
        let naive = ev.eval_bindings_naive(&f, &free);
        let planned = ev.eval_bindings_planned(&f, &QueryPlan::build(&f, &free));
        // The contract covers error-free formulas; the generator never
        // produces unknown constants or unbound variables, so evaluation
        // errors cannot occur here and any mismatch is a planner bug.
        assert_eq!(
            planned, naive,
            "planner diverged from naive oracle (round {round}, k={k}, seed {seed}) on {f:?}"
        );
    }
}

#[test]
fn planner_matches_naive_on_clustered_map() {
    let inst = clustered_map(3, 4, 42);
    differential(&inst, 1, 12, 1);
    differential(&inst, 2, 8, 2);
    differential(&inst, 3, 4, 3);
}

#[test]
fn planner_matches_naive_on_jittered_overlap_map() {
    let inst = jittered_overlap_map(3, 3, 6, 7);
    differential(&inst, 1, 12, 4);
    differential(&inst, 2, 8, 5);
    differential(&inst, 3, 4, 6);
}

#[test]
fn planner_matches_naive_on_zipf_clustered_map() {
    let inst = zipf_clustered_map(4, 12, 9);
    differential(&inst, 1, 12, 7);
    differential(&inst, 2, 8, 8);
    differential(&inst, 3, 4, 9);
}

#[test]
fn selectivity_ordering_prefers_pinned_and_indexed_variables() {
    // On a clustered instance, `y = <name>` pins y (estimate 1) while x is
    // only contact-constrained (estimate = bbox degree) and z is free
    // (estimate n): the greedy order must be y, x, z.
    let inst = clustered_map(3, 4, 42);
    let ev = CellEvaluator::new(&inst);
    let names: Vec<String> = ev.names().iter().map(|s| s.to_string()).collect();
    let f = Formula::And(vec![
        Formula::Connect(
            RegionExpr::Ext(NameTerm::Var("x".into())),
            RegionExpr::Ext(NameTerm::Const(names[0].clone())),
        ),
        Formula::NameEq(NameTerm::Var("y".into()), NameTerm::Const(names[1].clone())),
    ]);
    let free: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
    let plan = QueryPlan::build(&f, &free);
    assert_eq!(ev.planned_var_order(&plan), ["y", "x", "z"]);
}

#[test]
fn planned_enumeration_prunes_assignments() {
    // The work-counter evidence that the planner is sub-linear per variable:
    // the same open query tried naively and planned, the planned run must
    // try strictly fewer candidate assignments.
    let inst = clustered_map(4, 5, 11);
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
    let free: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();

    let naive_ev = CellEvaluator::new(&inst);
    let naive_rows = naive_ev.eval_bindings_naive(&f, &free).unwrap();
    let naive_work = naive_ev.assignments_tried();

    let planned_ev = CellEvaluator::new(&inst);
    let plan = QueryPlan::build(&f, &free);
    let planned_rows = planned_ev.eval_bindings_planned(&f, &plan).unwrap();
    let planned_work = planned_ev.assignments_tried();

    assert_eq!(planned_rows, naive_rows);
    assert!(!planned_rows.is_empty(), "query has witnesses by construction");
    assert!(
        planned_work < naive_work / 2,
        "planner tried {planned_work} assignments vs naive {naive_work}"
    );
    assert!(planned_ev.spatial_index().probe_count() > 0, "the planner probed the index");
}

#[test]
fn two_variable_join_probes_only_the_anchor_and_its_candidates() {
    // y is pinned near the anchor constant and bound first; x, the last
    // variable, has no rival and must be placed without an estimate (an
    // estimate of a contact with a bound variable probes every name). The
    // join then probes the anchor's neighbour list and, at most, the list
    // of each of those candidates for y.
    let inst = clustered_map(64, 16, 1);
    let ev = CellEvaluator::new(&inst);
    let anchor = "C000_R000";
    let f = parse(&format!("meet(ext(x), ext(y)) and overlap(ext(y), {anchor})")).unwrap();
    let free: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
    let plan = QueryPlan::build(&f, &free);
    assert_eq!(ev.planned_var_order(&plan), ["y", "x"]);

    let index = ev.spatial_index();
    let before = index.probe_count();
    ev.eval_bindings_planned(&f, &plan).unwrap();
    let probes = index.probe_count() - before;
    let anchor_neighbours = index.bbox_neighbors(&BBox::of_region(inst.ext(anchor).unwrap())).len();
    assert!(
        probes <= 1 + anchor_neighbours as u64,
        "{probes} probes for a join whose anchor has {anchor_neighbours} neighbours"
    );
}
