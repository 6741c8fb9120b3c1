//! Allocation pin for the component build.
//!
//! A commit into the dense map rebuilds its one 256-region component, and
//! the build's intermediate structures are flat buffers indexed by the rank
//! of each cut point in the component's point table: the heap allocations
//! left are mostly the per-cell output vectors of the complex (polylines,
//! rotations, boundary lists, labels). This test counts every allocation
//! `update_components` makes over a prefix of the dense edit trace, with a
//! counting global allocator, and holds the total to half of what the
//! point-keyed build (a map from `Point` to vertex per component, a set and
//! a region vector per piece, a polyline per face walk) made on the same
//! trace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use topodb::arrangement::update_components;

/// The system allocator, counting every call that obtains memory.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations of the point-keyed build over the trace below (debug build).
const POINT_KEYED_ALLOCATIONS: u64 = 2_865_147;

#[test]
fn dense_commits_allocate_at_most_half_of_the_point_keyed_build() {
    let steps = 40;
    let mut instance = datagen::jittered_overlap_map(16, 16, 12, 1996);
    let trace = datagen::dense_edit_trace(16, 16, 12, steps, 7);
    let names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let mut components = update_components(&[], &instance, &names, |_| None).components;

    let mut counted = 0;
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
        let update = update_components(&components, &instance, &changed, |_| None);
        counted += ALLOCATIONS.load(Ordering::Relaxed) - before;
        components = update.components;
    }

    println!("{counted} allocations over {steps} commits ({} per commit)", counted / steps as u64);
    assert!(
        2 * counted <= POINT_KEYED_ALLOCATIONS,
        "{counted} allocations over {steps} dense commits; the point-keyed build made \
         {POINT_KEYED_ALLOCATIONS}, and the bound is half of that"
    );
}
