//! Randomized differential suite: the semi-join planner, and the
//! cartesian-product enumerator (`eval_bindings_naive`), must produce
//! exactly the rows, in the same order, of the name-grounding oracle
//! (`common::grounded_rows`), which evaluates no name quantifier: every
//! `existsname`/`forallname` is expanded over the instance's names, so a
//! candidate generator that drops a witness or a counterexample shows.
//!
//! Formulas are drawn pseudo-randomly (deterministic seeds) over 0–3 free
//! name variables, with name quantifiers over fresh variables (nested and
//! negated) and all name constants taken from the instance under test, and
//! run against the three planner-relevant workloads: the uniform
//! `clustered_map`, the single-component crossing-heavy
//! `jittered_overlap_map`, and the skewed `zipf_clustered_map`.

use arrangement::BBox;
use datagen::{clustered_map, jittered_overlap_map, random_rectangles, zipf_clustered_map};
use query::ast::{Formula, NameTerm, RegionExpr};
use query::plan::QueryPlan;
use query::rect_eval::RectEvaluator;
use relations::Relation4;
use query::{parse, CellEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_core::prelude::SpatialInstance;

mod common;
use common::{grounded_holds, grounded_rows, random_formula};

/// Run `rounds` random formulas of depth 2 with `k` free variables (a
/// sentence when `k` is 0) against the instance and assert planner ≡ naive
/// ≡ grounding (rows and order).
fn differential(instance: &SpatialInstance, k: usize, rounds: usize, seed: u64) {
    differential_at_depth(instance, k, 2, rounds, seed);
}

/// As [`differential`], with formulas of depth `depth`: name quantifiers
/// nest at most `depth` deep, and the grounding of one tries up to
/// `names^(k + depth)` atoms.
fn differential_at_depth(instance: &SpatialInstance, k: usize, depth: usize, rounds: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ev = CellEvaluator::new(instance);
    let names: Vec<String> = ev.names().iter().map(|s| s.to_string()).collect();
    let free: Vec<String> = ["x", "y", "z"][..k].iter().map(|s| s.to_string()).collect();
    for round in 0..rounds {
        let f = random_formula(&mut rng, depth, &free, &names);
        let oracle = Ok(grounded_rows(&ev, &f, &free));
        // The contract covers error-free formulas; the generator never
        // produces unknown constants or unbound variables, so evaluation
        // errors cannot occur here and any mismatch is a planner bug.
        let planned = ev.eval_bindings_planned(&QueryPlan::build(&f, &free));
        assert_eq!(planned, oracle, "planner diverged from the grounding (round {round}, k={k}, seed {seed}) on {f}");
        let naive = ev.eval_bindings_naive(&f, &free);
        assert_eq!(naive, oracle, "naive diverged from the grounding (round {round}, k={k}, seed {seed}) on {f}");
    }
}

#[test]
fn planner_matches_naive_on_clustered_map() {
    let inst = clustered_map(3, 4, 42);
    differential(&inst, 0, 16, 10);
    differential(&inst, 1, 12, 1);
    differential(&inst, 2, 8, 2);
    differential(&inst, 3, 4, 3);
}

#[test]
fn planner_matches_naive_on_jittered_overlap_map() {
    let inst = jittered_overlap_map(3, 3, 6, 7);
    differential(&inst, 0, 16, 11);
    differential(&inst, 1, 12, 4);
    differential(&inst, 2, 8, 5);
    differential(&inst, 3, 4, 6);
}

#[test]
fn planner_matches_naive_on_zipf_clustered_map() {
    let inst = zipf_clustered_map(4, 12, 9);
    differential(&inst, 0, 16, 12);
    differential(&inst, 1, 12, 7);
    differential(&inst, 2, 8, 8);
    differential(&inst, 3, 4, 9);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release -p query --test planner_differential")]
fn planner_matches_the_grounding_at_1024_regions() {
    let inst = clustered_map(64, 16, 1);
    differential_at_depth(&inst, 0, 2, 64, 13);
    differential_at_depth(&inst, 1, 1, 32, 14);
    let inst = zipf_clustered_map(64, 1024, 9);
    differential_at_depth(&inst, 0, 2, 64, 15);
    differential_at_depth(&inst, 1, 1, 32, 16);
}

#[test]
fn name_sentences_agree_with_the_rectangle_evaluator() {
    // Over rectangles, the cell evaluator and the rectangle evaluator of
    // Theorem 6.4 answer every name-only sentence alike.
    let inst = random_rectangles(10, 40, 3);
    let ev = CellEvaluator::new(&inst);
    let rect = RectEvaluator::new(&inst).unwrap();
    let names: Vec<String> = ev.names().iter().map(|s| s.to_string()).collect();
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..24 {
        let f = random_formula(&mut rng, 2, &[], &names);
        let grounded = grounded_holds(&ev, &f, &names);
        assert_eq!(ev.eval(&f), Ok(grounded), "cell evaluator, round {round}: {f}");
        assert_eq!(rect.eval(&f), Ok(grounded), "rectangle evaluator, round {round}: {f}");
    }
}

#[test]
fn a_universal_sentence_tries_its_anchors_neighbours_not_every_name() {
    // A counterexample to `not inside(ext(a), C000_R000)` is inside the
    // anchor, so `a` ranges over the anchor's bbox neighbours: the same
    // cluster at 256 regions and at 16 384.
    let sentence = parse("forallname a . not inside(ext(a), C000_R000)").unwrap();
    let tried = |clusters: usize| {
        let inst = clustered_map(clusters, 16, 1);
        let ev = CellEvaluator::new(&inst);
        let grounded = grounded_holds(&ev, &sentence, &names_of(&ev));
        assert_eq!(ev.eval(&sentence), Ok(grounded), "the sentence at {} regions", inst.len());
        let before = ev.assignments_tried();
        ev.eval(&sentence).unwrap();
        ev.assignments_tried() - before
    };
    let (small, large) = (tried(16), tried(1024));
    // The quantifier's tries are counted, and they are not every name.
    assert!(0 < small && small < 256, "{small} names tried of 256");
    assert_eq!(small, large, "names tried at 256 regions and at 16 384");
}

#[test]
fn every_polarity_of_an_anchored_body_matches_the_grounding() {
    // `existsname a` and `forallname a` over up to three negations of each
    // atom relating `a` to an anchor, on either side: the generator must
    // follow the parity of the negations and the quantifier. Each body is
    // also tried with `a` pinned to a name of the last cluster, which is no
    // bbox neighbour of either anchor, so a range wrongly cut to the
    // anchor's neighbours is empty and flips the answer.
    let inst = clustered_map(3, 4, 42);
    let ev = CellEvaluator::new(&inst);
    let names = names_of(&ev);
    let a = || RegionExpr::Ext(NameTerm::Var("a".into()));
    let far = names.last().expect("the map has names");
    let pin = || Formula::NameEq(NameTerm::Var("a".into()), NameTerm::Const(far.clone()));
    for anchor in [&names[0], &names[5]] {
        let c = || RegionExpr::named(anchor.as_str());
        let mut atoms: Vec<Formula> = Relation4::ALL.iter().map(|&r| Formula::rel(r, a(), c())).collect();
        atoms.extend([Formula::connect(a(), c()), Formula::subset(a(), c()), Formula::subset(c(), a())]);
        for atom in atoms {
            for nots in 0..4 {
                let body = (0..nots).fold(atom.clone(), |f, _| Formula::not(f));
                for f in [
                    Formula::exists_name("a", body.clone()),
                    Formula::forall_name("a", body.clone()),
                    Formula::exists_name("a", Formula::and(vec![body.clone(), pin()])),
                    Formula::forall_name("a", Formula::or(vec![body, Formula::not(pin())])),
                ] {
                    assert_eq!(ev.eval(&f), Ok(grounded_holds(&ev, &f, &names)), "{f}");
                }
            }
        }
    }
}

fn names_of(ev: &CellEvaluator) -> Vec<String> {
    ev.names().iter().map(|s| s.to_string()).collect()
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
    let planned_rows = planned_ev.eval_bindings_planned(&plan).unwrap();
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
    ev.eval_bindings_planned(&plan).unwrap();
    let probes = index.probe_count() - before;
    let anchor_neighbours = index.bbox_neighbors(&BBox::of_region(inst.ext(anchor).unwrap())).len();
    assert!(
        probes <= 1 + anchor_neighbours as u64,
        "{probes} probes for a join whose anchor has {anchor_neighbours} neighbours"
    );
}
