//! Theorem 3.4 at database scale: deciding homeomorphism by invariant
//! isomorphism must neither abort the process nor take quadratic time.
//!
//! The isomorphism search assigns one edge per step, so a search whose depth
//! lived on the call stack would overflow it on a map of a few thousand
//! regions, killing the caller in a way no `catch_unwind` can stop. The
//! first test runs the search on a thread with a deliberately small stack;
//! the second, release only, decides homeomorphism of two 4 096-region
//! databases within a generous time bound.

use std::time::{Duration, Instant};
use topodb::invariant::{isomorphic, Invariant};
use topodb::TopoDatabase;

/// Well below the default thread stack (2 MiB), so that a search frame per
/// edge (about 1 600 edges here) cannot fit.
const SMALL_STACK: usize = 128 * 1024;

#[test]
fn the_search_runs_in_a_small_stack() {
    let map = datagen::clustered_map(16, 16, 1);
    let a = Invariant::of_instance(&map);
    let b = Invariant::of_instance(&map.translated(1000, 7));
    let answer = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(SMALL_STACK)
            .spawn_scoped(scope, || isomorphic(&a, &b))
            .expect("spawn the search thread")
            .join()
            .expect("the search thread finished")
    });
    assert!(answer, "a translate is homeomorphic");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release --test theorem_3_4_scale")]
fn homeomorphism_of_4096_regions_answers_in_time() {
    let map = datagen::clustered_map(256, 16, 1);
    let a = TopoDatabase::from_instance(map.translated(1000, 7)).snapshot();
    let b = TopoDatabase::from_instance(map).snapshot();
    assert_eq!(a.len(), 4096);
    let started = Instant::now();
    assert!(a.homeomorphic_to(&b), "a translate is homeomorphic");
    let took = started.elapsed();
    eprintln!("homeomorphic_to at 4 096 regions: {took:?}");
    // About 0.16 s on a 2-vCPU host. A set-up quadratic in the edges
    // (about 26 000 here) takes tens of seconds.
    assert!(took < Duration::from_secs(5), "homeomorphic_to took {took:?}");
}
