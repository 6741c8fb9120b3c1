//! Region closure cells across a snapshot chain. A named region's closure
//! cells (its edges and vertices, in its component's own ids) live in its
//! component's slot for it
//! ([`ComplexGeometry::closure_slot`](topodb::arrangement::ComplexGeometry::closure_slot)),
//! so they reach every epoch that carries the component and every
//! evaluator over a view that shares it, read through that view's offsets.
//!
//! * **Answers.** After every step of three traces committed through the
//!   facade — names interleaved with a clustered map's, components nested
//!   in other components' faces, and the benchmark's dense map — the
//!   snapshot answers the benchmark's pooled query shapes and its whole
//!   relation matrix as the reference does:
//!   `CellEvaluator::from_complex` over the flat copy of the view, which
//!   walks every name afresh. The queries run on every epoch, so the
//!   components carry regions walked on earlier ones.
//! * **Carry.** After a commit into one component, every other component
//!   is the base epoch's own, walks and all; the rebuilt component is a new
//!   one with no walk even though its member names are the base
//!   component's; and reading the new epoch's whole relation matrix walks
//!   the rebuilt component's names only.
//! * **Sharing.** A second evaluator over a snapshot's view walks nothing
//!   the snapshot's own evaluator walked.
//!
//! The debug run replays a prefix of each trace; the release run replays
//! 300 steps (CI: "Carried region cells (release)").

use datagen::TraceOp;
use std::sync::Arc;
use topodb::arrangement::{ComplexGeometry, ComplexRead, GlobalComplexView};
use topodb::query::CellEvaluator;
use topodb::spatial_core::prelude::*;
use topodb::{PreparedQuery, Snapshot, TopoDatabase};

const STEPS: usize = if cfg!(debug_assertions) { 30 } else { 300 };

/// The dense map's relation matrix is 33 000 reads per step.
const DENSE_STEPS: usize = if cfg!(debug_assertions) { 12 } else { 300 };

fn names(inst: &SpatialInstance) -> Vec<String> {
    inst.names().iter().map(|s| s.to_string()).collect()
}

/// The benchmark's pooled query shapes (sentence, anchored, join) on
/// `count` anchors spread evenly over the names.
fn shape_queries(names: &[String], count: usize) -> Vec<PreparedQuery> {
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
        .map(|text| PreparedQuery::compile(&text).expect("the shape compiles"))
        .collect()
}

/// The snapshot answers the shapes and its relation matrix as the
/// reference over the flat copy of its view does.
fn check_answers(snapshot: &Snapshot, context: &str) {
    let view = snapshot.complex_view();
    let reference = CellEvaluator::from_complex(&view.to_cell_complex());
    for query in shape_queries(view.region_names(), 4) {
        let served = snapshot.evaluate(&query).expect("the query runs");
        assert_eq!(Ok(served), query.run_on(&reference), "{query:?} on {context}");
    }
    for (a, b, relation) in snapshot.relation_matrix().expect("every pair is realizable") {
        assert_eq!(reference.named_relation(&a, &b), Ok(Some(relation)), "relation({a}, {b}) on {context}");
    }
}

/// Commit `trace` batch by batch to a database over `inst`, checking the
/// answers of every epoch.
fn replay(inst: SpatialInstance, trace: &[Vec<TraceOp>], label: &str) {
    let db = TopoDatabase::from_instance(inst);
    check_answers(&db.snapshot(), &format!("{label} at the start"));
    for (step, batch) in trace.iter().enumerate() {
        let mut txn = db.begin_shared();
        for op in batch {
            match op {
                TraceOp::Insert(name, region) => txn.insert(name.clone(), region.clone()),
                TraceOp::Remove(name) => txn.remove(name.clone()),
            };
        }
        txn.try_commit().expect("the commit publishes");
        check_answers(&db.snapshot(), &format!("{label} step {step}"));
    }
}

#[test]
fn carried_cells_answer_as_the_reference_along_an_interleaved_op_trace() {
    let base = datagen::clustered_map(16, 3, 5);
    let trace = datagen::interleaved_op_trace(&names(&base), STEPS, 11);
    replay(base, &trace, "interleaved op_trace");
}

#[test]
fn carried_cells_answer_as_the_reference_along_a_nesting_trace() {
    replay(datagen::nested_rings(5), &datagen::nested_edit_trace(5, STEPS), "nested_edit_trace");
}

#[test]
fn carried_cells_answer_as_the_reference_along_the_dense_trace() {
    let trace = datagen::dense_edit_trace(16, 16, 12, DENSE_STEPS, 7);
    replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, "dense_edit_trace");
}

/// Whether each name's closure slot holds its walk, in name order.
fn walked(view: &GlobalComplexView) -> Vec<bool> {
    (0..view.region_names().len())
        .map(|i| view.region_home(i).is_some_and(|home| view.closure_slot(&home).get().is_some()))
        .collect()
}

#[test]
fn untouched_components_keep_their_walks_and_a_rebuilt_one_starts_empty() {
    // A clustered map, plus two overlapping squares far from it: one
    // component whose member names a re-shape keeps.
    let mut inst = datagen::clustered_map(8, 16, 3);
    inst.insert("A", Region::rect_from_ints(-1000, 0, -990, 10));
    inst.insert("B", Region::rect_from_ints(-995, 5, -985, 15));
    let db = TopoDatabase::from_instance(inst);
    let base = db.snapshot();
    base.relation_matrix().expect("every pair is realizable");
    let before = walked(&base.complex_view());
    let pair = ["A", "B"].map(|name| base.complex_view().region_index(name).expect("a name of the map"));
    assert!(pair.iter().all(|&i| before[i]), "the matrix walks both overlapping squares");
    assert!(before.iter().filter(|&&w| w).count() > 2, "it walks cluster names too");

    let mut txn = db.begin_shared();
    txn.insert("A", Region::rect_from_ints(-1000, 0, -989, 10));
    txn.try_commit().expect("the re-shape publishes");
    let young = db.snapshot();
    let (old, new) = (base.complex_view(), young.complex_view());
    let rebuilt: Vec<_> = new
        .components()
        .iter()
        .filter(|component| !old.components().iter().any(|o| Arc::ptr_eq(o, component)))
        .collect();
    assert_eq!(rebuilt.len(), 1, "only one component is rebuilt");
    assert_eq!(rebuilt[0].region_names(), ["A", "B"], "the re-shaped pair is rebuilt");
    assert_eq!(new.region_names(), old.region_names(), "the re-shape keeps every name");
    let expected: Vec<bool> =
        before.iter().enumerate().map(|(i, &w)| w && !pair.contains(&i)).collect();
    assert_eq!(walked(&new), expected, "carried components keep their walks, the rebuilt one has none");

    assert_eq!(young.relation_matrix().ok(), base.relation_matrix().ok(), "the re-shape keeps every relation");
    assert_eq!(young.evaluator().region_walks(), 2, "of the new epoch's names only A and B are walked");
}

#[test]
fn a_second_evaluator_over_a_snapshots_view_walks_nothing_the_first_walked() {
    let db = TopoDatabase::from_instance(datagen::clustered_map(8, 16, 3));
    let snapshot = db.snapshot();
    let matrix = snapshot.relation_matrix().expect("every pair is realizable");
    assert!(snapshot.evaluator().region_walks() > 0, "the matrix walks some names");
    let second = CellEvaluator::from_view(snapshot.complex_view());
    for (a, b, relation) in matrix {
        assert_eq!(second.named_relation(&a, &b), Ok(Some(relation)), "relation({a}, {b})");
    }
    assert_eq!(second.region_walks(), 0, "every name it reads was walked into its component's slot");
}
