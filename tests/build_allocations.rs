//! Allocation pins for the component build and the first read after it.
//!
//! A commit into the dense map rebuilds its one 256-region component, and
//! the build's intermediate structures are flat buffers indexed by the rank
//! of each cut point in the component's point table. This test counts every
//! allocation `update_components` makes over a prefix of the dense edit
//! trace, with a counting global allocator, and holds the total to half of
//! what the point-keyed build (a map from `Point` to vertex per component, a
//! set and a region vector per piece, a polyline per face walk) made on the
//! same trace.
//!
//! Every list of lists in the build and in the complex it outputs is one
//! flat buffer of runs: the rotations, polylines, boundary lists and labels
//! of the cells included, so no allocation is left per cell. The test holds
//! the total plus one per rebuilt cell (vertex, edge or face) to what the
//! build made when each cell kept its own list vector, and again to what it
//! made when each cell kept its own label vector: each step must save at
//! least one allocation per cell.
//!
//! The build also emits each region's box and interior faces, so the first
//! read of the new epoch scans no edge and no face label. The same test
//! counts what that read allocates on every commit — the snapshot's
//! evaluator over the patched view plus the first anchored query — and holds
//! it to half of what deriving both tables on that read (a mark vector per
//! edge, a face vector per region) allocated on the same trace.
//!
//! A commit that removes or re-shapes a member of the dense component
//! re-partitions its survivors only if its own vertex labels no longer
//! connect them, so the test also holds the build 3 000 allocations per
//! commit below what it made when every survivor re-entered the partition
//! alone.
//!
//! The plane sweep emits its split ranked in event order, with no endpoint
//! seeding, no collinear pre-pass and no sort of its cut points, and a
//! rebuild merges the hood sweep's point table like any carried one, so the
//! test also holds the build 50 allocations per commit below what it made
//! when the sweep produced point-keyed cut sets that were sorted into a
//! ranked split afterwards.
//!
//! The index over the region boxes is built with the component too, and the
//! view's two-level region index with the view, so taking a patched view's
//! region index allocates nothing at all.
//!
//! A snapshot's view is its invariant `T_I`, so the homeomorphism test reads
//! the two views and copies neither into an `Invariant`: a second test holds
//! its allocations below what it made when each snapshot first copied its
//! view, by at least what those two copies cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use topodb::arrangement::{build_complex_view, update_components, ComplexRead, GlobalComplexView};
use topodb::invariant::Invariant;
use topodb::query::CellEvaluator;
use topodb::{PreparedQuery, TopoDatabase};

/// The system allocator, counting every call that obtains memory.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The bytes those calls asked for (a `realloc` counts its new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by every test while it counts: the counter is process-wide, so two
/// tests counting at once would count each other's allocations.
static COUNTING: Mutex<()> = Mutex::new(());

/// Allocations of the point-keyed build over the trace below (debug build).
const POINT_KEYED_ALLOCATIONS: u64 = 2_865_147;

/// Allocations of the build over the trace below when every vertex, edge and
/// face kept its own rotation, polyline or boundary vector (debug build).
const PER_CELL_LIST_ALLOCATIONS: u64 = 795_619;

/// Allocations of the build over the trace below when every vertex, edge and
/// face kept its own label vector (debug build).
const PER_CELL_LABEL_ALLOCATIONS: u64 = 328_344;

/// Allocations of the first read after each commit of the trace below when
/// the read derived the region boxes and faces (debug build).
const READ_DERIVED_ALLOCATIONS: u64 = 186_094;

/// Allocations of the build over the trace below when every survivor of a
/// component that lost or re-shaped a member was re-partitioned on its own,
/// whole boundary and all (debug build).
const SURVIVOR_REPARTITION_ALLOCATIONS: u64 = 502_607;

/// Allocations of the build over the trace below when the sweep seeded its
/// cut sets with every endpoint, cut collinear overlaps in a pre-pass
/// grouped by supporting line, and sorted its cut points into point-keyed
/// cut sets that the rebuild ranked by a second sort (debug build).
const POINT_KEYED_SWEEP_ALLOCATIONS: u64 = 34_039;

/// Allocations of the first `homeomorphic_to` between fresh snapshots of
/// `clustered_map(64, 16, 1)` and its translate when each snapshot copied
/// its view into an `Invariant` first (debug build).
const HOMEOMORPHISM_WITH_COPIES_ALLOCATIONS: u64 = 201_693;

/// Allocations of those two `Invariant::from_complex` copies at the time
/// (debug build).
const TWO_COPIES_ALLOCATIONS: u64 = 55_382;

fn names(instance: &topodb::spatial_core::prelude::SpatialInstance) -> Vec<String> {
    instance.names().iter().map(|s| s.to_string()).collect()
}

#[test]
fn dense_commits_allocate_at_most_half_of_the_point_keyed_build() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let steps = 40;
    let mut instance = datagen::jittered_overlap_map(16, 16, 12, 1996);
    let trace = datagen::dense_edit_trace(16, 16, 12, steps, 7);
    let anchored = PreparedQuery::compile(&format!("overlap(ext(x), {})", names(&instance)[0]))
        .expect("the anchored query compiles");
    let mut view = Arc::new(build_complex_view(&instance));

    let (mut counted, mut cells, mut read, mut index) = (0, 0, 0, 0);
    for batch in &trace {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let (name, effective) = match op {
                datagen::TraceOp::Insert(name, region) => {
                    let old = instance.insert(name.clone(), region.clone());
                    (name, old.as_ref() != Some(region))
                }
                datagen::TraceOp::Remove(name) => (name, instance.remove(name).is_some()),
            };
            if effective && !changed.contains(name) {
                changed.push(name.clone());
            }
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let update = update_components(view.components(), &instance, &changed, |_| None);
        counted += ALLOCATIONS.load(Ordering::Relaxed) - before;
        let rebuilt = update.components.iter().zip(&update.carried_from).filter(|(_, from)| from.is_none());
        for (component, _) in rebuilt {
            let cx = component.complex();
            cells += (cx.vertex_count() + cx.edge_count() + cx.face_count()) as u64;
        }
        view = Arc::new(view.updated(names(&instance), &changed, update));

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        view.region_bbox_index();
        index += ALLOCATIONS.load(Ordering::Relaxed) - before;

        // What a snapshot's `evaluator()` and its first query do.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let evaluator = CellEvaluator::from_view(Arc::clone(&view));
        anchored.run_on(&evaluator).expect("the anchored query runs");
        read += ALLOCATIONS.load(Ordering::Relaxed) - before;
    }

    let per_commit = |n: u64| n / steps as u64;
    println!("{counted} allocations over {steps} commits ({} per commit)", per_commit(counted));
    println!("{cells} rebuilt cells over {steps} commits ({} per commit)", per_commit(cells));
    println!("{read} allocations over {steps} first reads ({} per read)", per_commit(read));
    println!("{index} allocations over {steps} region index reads");
    assert!(
        2 * counted <= POINT_KEYED_ALLOCATIONS,
        "{counted} allocations over {steps} dense commits; the point-keyed build made \
         {POINT_KEYED_ALLOCATIONS}, and the bound is half of that"
    );
    assert!(
        counted + cells <= PER_CELL_LIST_ALLOCATIONS,
        "{counted} allocations and {cells} rebuilt cells over {steps} dense commits; with a list \
         vector per cell the build made {PER_CELL_LIST_ALLOCATIONS}, and flat runs must save at \
         least one allocation per cell"
    );
    assert!(
        counted + cells <= PER_CELL_LABEL_ALLOCATIONS,
        "{counted} allocations and {cells} rebuilt cells over {steps} dense commits; with a label \
         vector per cell the build made {PER_CELL_LABEL_ALLOCATIONS}, and flat label runs must \
         save at least one allocation per cell"
    );
    assert!(
        counted + steps as u64 * 3_000 <= SURVIVOR_REPARTITION_ALLOCATIONS,
        "{counted} allocations over {steps} dense commits; re-partitioning every survivor made \
         {SURVIVOR_REPARTITION_ALLOCATIONS}, and connected survivors must save 3 000 per commit"
    );
    assert!(
        counted + steps as u64 * 50 <= POINT_KEYED_SWEEP_ALLOCATIONS,
        "{counted} allocations over {steps} dense commits; with point-keyed sweep output the \
         build made {POINT_KEYED_SWEEP_ALLOCATIONS}, and the ranked sweep must save 50 per commit"
    );
    assert!(
        2 * read <= READ_DERIVED_ALLOCATIONS,
        "{read} allocations over {steps} first reads; deriving the tables on the read made \
         {READ_DERIVED_ALLOCATIONS}, and the bound is half of that"
    );
    assert_eq!(index, 0, "the region index is built with the components and the view");
}

#[test]
fn the_homeomorphism_test_copies_neither_view() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let map = datagen::clustered_map(64, 16, 1);
    let (a, b) = (TopoDatabase::from_instance(map.translated(1000, 7)), TopoDatabase::from_instance(map));
    let (a, b) = (a.snapshot(), b.snapshot());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(a.homeomorphic_to(&b), "a translate is homeomorphic");
    let homeomorphism = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copies = [Invariant::from_complex(&*a.complex_view()), Invariant::from_complex(&*b.complex_view())];
    let copied = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(copies);

    println!("{homeomorphism} allocations in homeomorphic_to; {copied} in two Invariant copies");
    assert!(
        homeomorphism + TWO_COPIES_ALLOCATIONS <= HOMEOMORPHISM_WITH_COPIES_ALLOCATIONS,
        "{homeomorphism} allocations in homeomorphic_to; with the two copies it made \
         {HOMEOMORPHISM_WITH_COPIES_ALLOCATIONS}, and it must save at least what the copies cost \
         ({TWO_COPIES_ALLOCATIONS})"
    );
}

/// Allocations of one commit the way the benchmark's clustered workloads
/// make them, at `clustered_map(clusters, 16, 1)`: after four inserts, one
/// transaction that inserts a rectangle and removes the oldest name held.
/// Every edit lands in cluster 0, which both maps draw alike (its rectangles
/// come first off the seeded generator), so the rebuilt component is the
/// same at every size.
///
/// A debug build's `GlobalComplexView::updated` also assembles the view
/// from scratch, to assert the patch against it; that reference is counted
/// on its own, over the published head, and taken off.
fn one_held_commit(clusters: usize) -> u64 {
    let db = TopoDatabase::from_instance(datagen::clustered_map(clusters, 16, 1));
    let rect = |k: i64| topodb::spatial_core::prelude::Region::rect_from_ints(2 + k, 3, 9 + k, 11 + k);
    let mut held = std::collections::VecDeque::new();
    for k in 0..4 {
        let name = format!("X0_{k:06}");
        let mut txn = db.begin_shared();
        txn.insert(name.clone(), rect(k));
        txn.try_commit().expect("an insert commits");
        held.push_back(name);
    }
    let (name, region) = ("X0_000004".to_string(), rect(4));
    let oldest = held.pop_front().expect("four names held");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut txn = db.begin_shared();
    txn.insert(name, region);
    txn.remove(oldest);
    let summary = txn.try_commit().expect("the commit publishes");
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.changed.len(), 2, "both edits take effect");
    if !cfg!(debug_assertions) {
        return counted;
    }
    let view = db.snapshot().complex_view();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reference = GlobalComplexView::new(view.region_names().to_vec(), view.components().to_vec());
    let checked = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(reference);
    counted.saturating_sub(checked)
}

#[test]
fn a_commit_allocates_per_region_only_for_the_global_name_list() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (small, large) = (one_held_commit(16), one_held_commit(256));
    let added = (256 - 16) * 16;
    println!("one commit: {small} allocations at {} regions, {large} at {} regions", 16 * 16, 256 * 16);
    // The global name list holds one `String` per name; the instance, the
    // region map and the component-box index add none per region.
    assert!(
        4 * large <= 4 * small + 5 * added,
        "one commit makes {small} allocations at 256 regions and {large} at 4 096: more than 1.25 \
         per added region"
    );
}

/// Allocations of a commit that removes one name of
/// `clustered_map(16, 16, 1)`, less the debug build's reference assembly
/// (see [`one_held_commit`]). The base epoch shares the removed entry, so a
/// removal that handed the region back copied it (one allocation, its
/// vertex list) only to drop it.
fn one_removal() -> u64 {
    let db = TopoDatabase::from_instance(datagen::clustered_map(16, 16, 1));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut txn = db.begin_shared();
    txn.remove("C000_R000");
    let summary = txn.try_commit().expect("the removal publishes");
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.changed, ["C000_R000"], "the removal takes effect");
    if !cfg!(debug_assertions) {
        return counted;
    }
    let view = db.snapshot().complex_view();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reference = GlobalComplexView::new(view.region_names().to_vec(), view.components().to_vec());
    let checked = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(reference);
    counted.saturating_sub(checked)
}

#[test]
fn a_removal_copies_no_region() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let commit = one_removal();
    // The instance's part of it: a removal from a copy of the base copies
    // the one run it changes (its entry pointers) and, handing the region
    // back, the region too; discarding the entry copies no region.
    let map = datagen::clustered_map(16, 16, 1);
    let count = |remove: fn(&mut topodb::spatial_core::prelude::SpatialInstance)| {
        let mut next = map.clone();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        remove(&mut next);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let discarded = count(|next| assert!(next.discard("C000_R000")));
    let removed = count(|next| assert!(next.remove("C000_R000").is_some()));
    println!("one removal commit: {commit} allocations; {discarded} to discard a shared entry, {removed} to remove it");
    assert_eq!(discarded, 2, "discarding a shared entry copies its run (an Arc and a Vec), nothing else");
    assert_eq!(removed, discarded + 1, "removing it copies the region it hands back too");
}


/// The bytes a warm `overlap(ext(x), C000_R000)` allocates on a snapshot of
/// `clustered_map(clusters, 16, 1)`, and its answer.
fn warm_overlap_bytes(clusters: usize) -> (u64, topodb::QueryOutput) {
    let db = TopoDatabase::from_instance(datagen::clustered_map(clusters, 16, 1));
    let snapshot = db.snapshot();
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("the query compiles");
    snapshot.evaluate(&query).expect("the query runs");
    let before = BYTES.load(Ordering::Relaxed);
    let answer = snapshot.evaluate(&query).expect("the query runs");
    (BYTES.load(Ordering::Relaxed) - before, answer)
}

#[test]
fn a_warm_anchored_query_allocates_what_its_probes_hold_not_per_region() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (small, small_rows) = warm_overlap_bytes(16);
    let (large, large_rows) = warm_overlap_bytes(1024);
    println!("a warm anchored query: {small} bytes at 256 regions, {large} at 16 384");
    assert_eq!(small_rows, large_rows, "the anchor's cluster is the same at both sizes");
    // The planner keeps the neighbour lists it probed, not a slot per name.
    assert_eq!(small, large, "a warm query allocates {small} bytes at 256 regions and {large} at 16 384");
}
