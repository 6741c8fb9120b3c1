//! Differential tests for incremental partition maintenance: the invariant
//! *the carried partition equals `partition_instance` of the carried
//! instance*.
//!
//! A view is maintained through [`update_components`] and
//! [`GlobalComplexView::updated`] alone over long randomized commit traces
//! and hand-written merge/split/nest cases; after every step it is compared
//! with [`build_components_with_reuse`] + [`GlobalComplexView::new`] — the
//! from-scratch partition and assembly of the same instance, reusing the
//! previous step's components for every group no changed name belongs to.
//! The two must agree on the keys and their order, on how many components
//! were swept, on *which* components were carried over (pointer identity),
//! and on the assembled complex, cell for cell.

use arrangement::{
    build_components_with_reuse, update_components, ComponentComplex, GlobalComplexView,
};
use datagen::TraceOp;
use spatial_core::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An instance and its incrementally maintained view.
struct Maintained {
    instance: SpatialInstance,
    view: GlobalComplexView,
}

fn names_of(instance: &SpatialInstance) -> Vec<String> {
    instance.names().iter().map(|s| s.to_string()).collect()
}

impl Maintained {
    /// The cold build: nothing to carry, every name changed.
    fn new(instance: SpatialInstance) -> Maintained {
        let cold = update_components(&[], &instance, &instance.names(), |_| None);
        let reference = build_components_with_reuse(&instance, |_| None);
        assert_eq!(keys(&cold.components), reference.keys, "cold build keys");
        assert_eq!(cold.rebuilt, reference.components.len(), "cold build sweeps everything");
        let view = GlobalComplexView::new(Vec::new(), Vec::new()).updated(names_of(&instance), &instance.names(), cold);
        Maintained { instance, view }
    }

    fn components(&self) -> &[Arc<ComponentComplex>] {
        self.view.components()
    }

    /// Apply one batch, maintain the components incrementally, and hold the
    /// result against the from-scratch build of the same instance.
    fn commit(&mut self, batch: &[TraceOp], context: &str) {
        let mut next = self.instance.clone();
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let (name, effective) = match op {
                TraceOp::Insert(name, region) => {
                    (name, next.insert(name.clone(), region.clone()).as_ref() != Some(region))
                }
                TraceOp::Remove(name) => (name, next.remove(name).is_some()),
            };
            if effective && !changed.contains(name) {
                changed.push(name.clone());
            }
        }

        let update = update_components(self.components(), &next, &changed, |_| None);

        let base: BTreeMap<&[String], &Arc<ComponentComplex>> =
            self.components().iter().map(|c| (c.region_names(), c)).collect();
        let reference = build_components_with_reuse(&next, |key| {
            if key.iter().any(|n| changed.contains(n)) {
                return None;
            }
            base.get(key).map(|c| Arc::clone(c))
        });

        assert_eq!(keys(&update.components), reference.keys, "keys diverged {context}");
        assert_eq!(update.rebuilt, reference.rebuilt, "sweep count diverged {context}");
        for (ours, theirs) in update.components.iter().zip(&reference.components) {
            let carried = base.get(theirs.region_names()).is_some_and(|b| Arc::ptr_eq(b, theirs));
            assert_eq!(
                Arc::ptr_eq(ours, theirs),
                carried,
                "component {:?} carried by one side only {context}",
                theirs.region_names()
            );
        }
        let ours = self.view.updated(names_of(&next), &changed, update);
        let theirs = GlobalComplexView::new(names_of(&next), reference.components);
        assert!(
            ours.to_cell_complex() == theirs.to_cell_complex(),
            "assembled complexes diverged {context}"
        );

        self.instance = next;
        self.view = ours;
    }

    fn key_of(&self, name: &str) -> &[String] {
        self.components()
            .iter()
            .map(|c| c.region_names())
            .find(|key| key.iter().any(|n| n == name))
            .unwrap_or_else(|| panic!("{name} is in no component"))
    }
}

fn keys(components: &[Arc<ComponentComplex>]) -> Vec<Vec<String>> {
    components.iter().map(|c| c.region_names().to_vec()).collect()
}

fn insert(name: &str, x0: i64, y0: i64, x1: i64, y1: i64) -> TraceOp {
    TraceOp::Insert(name.to_string(), Region::rect_from_ints(x0, y0, x1, y1))
}

fn remove(name: &str) -> TraceOp {
    TraceOp::Remove(name.to_string())
}

/// Debug builds (the plain `cargo test`) replay a prefix of each trace; CI
/// runs this suite in release mode at full length.
const STEPS: usize = if cfg!(debug_assertions) { 40 } else { 300 };
const SEEDS: u64 = 8;

fn replay_traces(family: &str, base: impl Fn(u64) -> SpatialInstance) {
    for seed in 0..SEEDS {
        let mut state = Maintained::new(base(seed));
        for (step, batch) in datagen::op_trace(STEPS, 0x5eed + seed).iter().enumerate() {
            state.commit(batch, &format!("({family}, seed {seed}, step {step})"));
        }
    }
}

// `op_trace` draws its rectangles in the four cluster areas of a 4-cluster
// `clustered_map`, i.e. inside [0, 130)²; each base map below puts different
// geometry there for the trace to merge with, split off and nest in.

#[test]
fn traces_over_clustered_map() {
    replay_traces("clustered_map", |seed| datagen::clustered_map(4, 6, seed));
}

#[test]
fn traces_over_zipf_clustered_map() {
    replay_traces("zipf_clustered_map", |seed| datagen::zipf_clustered_map(4, 24, seed));
}

#[test]
fn traces_over_nested_rings() {
    // Twelve rings, two apart, over cluster 0's area: inserts there cross
    // several rings or land strictly inside a ring's face, and re-shapes
    // move regions between the rings and the three clusters outside them.
    replay_traces("nested_rings", |_| datagen::nested_rings(12));
}

#[test]
fn traces_over_jittered_overlap_map() {
    // One big component under clusters 0 and 1; clusters 2 and 3 stay free.
    replay_traces("jittered_overlap_map", |seed| datagen::jittered_overlap_map(10, 3, 12, seed));
}

#[test]
fn traces_over_wide_map() {
    replay_traces("wide_map", |seed| datagen::wide_map(9, seed));
}

#[test]
fn dense_trace_over_the_benchmark_map() {
    // The dense map of the benchmark's editing workload, one component of
    // 256 overlapping parcels, edited the way that workload edits it:
    // corner-straddling inserts, removals of the oldest, re-shapes, 8-edit
    // batches, and a bridge to an island that merges and splits components.
    let mut state = Maintained::new(datagen::jittered_overlap_map(16, 16, 12, 1996));
    for (step, batch) in datagen::dense_edit_trace(16, 16, 12, STEPS, 7).iter().enumerate() {
        state.commit(batch, &format!("(dense_edit_trace, step {step})"));
    }
}

/// Cluster areas of `clustered_map(4, _)`: 0 at (0,0), 1 at (100,0), 2 at
/// (0,100), 3 at (100,100), each at most 30 wide; the space between them is
/// empty.
fn four_clusters() -> Maintained {
    Maintained::new(datagen::clustered_map(4, 5, 11))
}

#[test]
fn a_bridge_merges_two_clusters_and_its_removal_splits_them_again() {
    let mut state = four_clusters();
    let before = keys(state.components());
    state.commit(&[insert("Bridge", 5, 1, 110, 29)], "(insert bridge)");
    let merged = state.key_of("Bridge");
    assert!(merged.iter().any(|n| n.starts_with("C000_")), "bridge reaches cluster 0");
    assert!(merged.iter().any(|n| n.starts_with("C001_")), "bridge reaches cluster 1");
    assert!(state.components().len() < before.len(), "merging loses components");
    state.commit(&[remove("Bridge")], "(remove bridge)");
    assert_eq!(keys(state.components()), before, "the clusters fall apart as they were");
}

#[test]
fn a_region_reshaped_out_of_its_component_joins_another() {
    let mut state = four_clusters();
    let home = state.key_of("C000_R000").to_vec();
    assert!(home.len() > 1, "seed 11 puts C000_R000 in company");
    // Over all of cluster 2's area: it must meet some of its rectangles.
    state.commit(&[insert("C000_R000", 1, 101, 29, 129)], "(re-shape across)");
    let now = state.key_of("C000_R000");
    assert!(now.iter().any(|n| n.starts_with("C002_")), "joined cluster 2");
    assert!(!now.iter().any(|n| n.starts_with("C000_R0") && n != "C000_R000"), "left cluster 0");
}

#[test]
fn nesting_without_box_contact_neither_merges_nor_rebuilds() {
    let mut state = four_clusters();
    // A frame around everything, touching nothing: a component of its own,
    // whose box contains every other component's.
    state.commit(&[insert("Frame", -50, -50, 500, 500)], "(insert frame)");
    assert_eq!(state.key_of("Frame"), ["Frame"]);
    // An island in the empty middle, strictly inside the frame's face: its
    // segments lie within the frame component's box but meet none of the
    // frame's segment boxes.
    let carried: Vec<_> = state.components().to_vec();
    state.commit(&[insert("Island", 60, 60, 64, 64)], "(insert island)");
    assert_eq!(state.key_of("Island"), ["Island"]);
    for old in &carried {
        assert!(
            state.components().iter().any(|c| Arc::ptr_eq(c, old)),
            "{:?} was not carried past the island",
            old.region_names()
        );
    }
    // Removing the last member of a component removes the component.
    let count = state.components().len();
    state.commit(&[remove("Island")], "(remove island)");
    assert_eq!(state.components().len(), count - 1);
}

#[test]
fn one_batch_that_merges_splits_moves_nests_and_empties() {
    let mut state = four_clusters();
    state.commit(
        &[insert("Bridge", 5, 1, 110, 29), insert("Island", 60, 60, 64, 64)],
        "(set-up)",
    );
    let victim = state.key_of("C003_R000").to_vec();
    state.commit(
        &[
            remove("Bridge"),                        // split 0 | 1
            insert("Span", 8, 8, 12, 118),           // merge 0 + 2
            insert("C001_R000", 106, 102, 118, 118), // move 1 -> 3
            insert("Frame", -50, -50, 500, 500),     // nest everything
            remove("Island"),                        // empty a component
            insert("Islet", 70, 70, 72, 72),         // new component, no contact
            remove("C003_R000"),
        ],
        "(all at once)",
    );
    assert!(state.key_of("Span").iter().any(|n| n.starts_with("C002_")));
    assert!(state.key_of("C001_R000").iter().any(|n| n.starts_with("C003_")));
    assert!(state.components().iter().all(|c| c.region_names() != victim.as_slice()));
}

#[test]
fn the_hint_is_asked_about_dirty_groups_only_and_its_answer_is_used_as_is() {
    let mut state = four_clusters();
    let edit = [insert("X", 3, 3, 9, 9)];
    let untouched: Vec<Vec<String>> =
        keys(state.components()).into_iter().filter(|k| !k[0].starts_with("C000_")).collect();
    state.commit(&edit, "(first attempt)");
    let built = state.components().to_vec();

    // The same edit again from the same base, offering the first attempt's
    // components: nothing is swept, and the touched group is the offered one.
    let base = four_clusters();
    let TraceOp::Insert(name, region) = &edit[0] else { unreachable!() };
    let mut next = base.instance.clone();
    next.insert(name.clone(), region.clone());
    let asked = std::cell::RefCell::new(Vec::new());
    let again = update_components(base.components(), &next, &[name], |members| {
        let key: Vec<String> = members.iter().map(|(n, _)| n.to_string()).collect();
        let found = built.iter().find(|c| c.region_names() == key).cloned();
        asked.borrow_mut().push(key);
        found
    });
    assert_eq!(again.rebuilt, 0);
    assert!(asked.borrow().iter().all(|key| !untouched.contains(key)), "asked about a carried key");
    let touched = again.components.iter().find(|c| c.region_names().contains(name)).unwrap();
    assert!(built.iter().any(|c| Arc::ptr_eq(c, touched)), "the hinted component is used as-is");
}

// The survivors of a broken component stay one unit when its own vertex
// labels still connect them, and are re-partitioned region by region
// otherwise. The cases below sit on either side of that check.

fn polygon(name: &str, corners: &[(i64, i64)]) -> TraceOp {
    TraceOp::Insert(name.to_string(), Region::polygon_from_ints(corners).expect("a simple polygon"))
}

/// A chain of six rectangles `R0`..`R5` along the x axis, each overlapping
/// the next, and a separate square `Far` to be carried.
fn chain() -> Maintained {
    let mut instance = SpatialInstance::new();
    for k in 0..6 {
        instance.insert(format!("R{k}"), Region::rect_from_ints(10 * k, 0, 10 * k + 12, 10));
    }
    instance.insert("Far", Region::rect_from_ints(300, 300, 310, 310));
    Maintained::new(instance)
}

#[test]
fn survivors_whose_segment_boxes_meet_without_touching_stay_one_group() {
    // Two triangles along parallel diagonals: their slanted edges' boxes
    // overlap, their boundaries share no point. `Glue` crosses both. The
    // second listing starts each triangle at an edge whose box misses the
    // other triangle's, so only the slanted pair can tell that the two
    // survivors are one group.
    let listings = [
        ([(0, 0), (10, 10), (0, 10)], [(3, 0), (13, 0), (13, 10)]),
        ([(0, 10), (0, 0), (10, 10)], [(13, 0), (13, 10), (3, 0)]),
    ];
    for (a, b) in listings {
        let mut state = Maintained::new(SpatialInstance::new());
        state.commit(&[polygon("A", &a), polygon("B", &b), insert("Glue", -2, 4, 15, 6)], "(set-up)");
        assert_eq!(state.key_of("A"), ["A", "B", "Glue"]);
        state.commit(&[remove("Glue")], "(remove the glue)");
        assert_eq!(state.key_of("A"), ["A", "B"], "box contact alone keeps them one group");
    }
}

#[test]
fn one_batch_removes_two_members_and_reshapes_a_third() {
    let mut state = chain();
    state.commit(
        &[remove("R1"), remove("R3"), insert("R4", 40, 2, 52, 8)],
        "(remove R1 and R3, reshape R4)",
    );
    assert_eq!(state.key_of("R0"), ["R0"]);
    assert_eq!(state.key_of("R2"), ["R2"]);
    assert_eq!(state.key_of("R5"), ["R4", "R5"]);
}

#[test]
fn removing_every_member_removes_the_component() {
    let mut state = chain();
    let count = state.components().len();
    let batch: Vec<TraceOp> = (0..6).map(|k| remove(&format!("R{k}"))).collect();
    state.commit(&batch, "(remove the chain)");
    assert_eq!(state.components().len(), count - 1);
    assert_eq!(state.key_of("Far"), ["Far"]);
}

#[test]
fn a_member_reshaped_away_leaves_the_rest_connected() {
    let mut state = chain();
    // R0 moves onto Far; R1..R5 still overlap in a row.
    state.commit(&[insert("R0", 305, 305, 320, 320)], "(move R0 onto Far)");
    assert_eq!(state.key_of("R0"), ["Far", "R0"]);
    assert_eq!(state.key_of("R1"), ["R1", "R2", "R3", "R4", "R5"]);
    // R3 moves off the end of the row: R1, R2 and R4, R5 fall apart.
    state.commit(&[insert("R3", 100, 0, 110, 10)], "(move R3 away)");
    assert_eq!(state.key_of("R1"), ["R1", "R2"]);
    assert_eq!(state.key_of("R4"), ["R4", "R5"]);
    assert_eq!(state.key_of("R3"), ["R3"]);
}
