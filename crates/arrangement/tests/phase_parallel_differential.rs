//! Differential suite for the parallel post-split pipeline: on randomized
//! dense, shared-boundary, clustered and sparse workloads a build on 2, 3 or
//! 8 threads — parallel chain-merge / face-walk / label phases downstream of
//! a strip-decomposed split — must produce complexes **byte-identical**
//! (same cell ids, same order, checked through `Debug`) to the fully serial
//! single-thread build, and fingerprint-identical to the monolithic
//! single-sweep oracle.
//!
//! The thread grid doubles as a strips grid: a component's strip count
//! equals its thread share ([`arrangement::strip::strip_budget`]), so
//! sweeping the thread counts also sweeps the strip decomposition the
//! phases run downstream of.

use arrangement::{assemble_components, build_complex_monolithic, build_component_complexes};
use spatial_core::prelude::*;

mod common;
use common::fingerprint;

/// Build on every thread count and require byte-identical output to the
/// single-thread (fully serial) pipeline, plus fingerprint-identity to the
/// monolithic oracle.
fn assert_phases_exact(inst: &SpatialInstance, context: &str) {
    let region_names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    let serial = assemble_components(region_names.clone(), &build_component_complexes(inst, 1));
    let serial_debug = format!("{serial:?}");
    for threads in [2usize, 3, 8] {
        let c =
            assemble_components(region_names.clone(), &build_component_complexes(inst, threads));
        assert_eq!(serial_debug, format!("{c:?}"), "{context}: threads={threads} diverges");
    }
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&build_complex_monolithic(inst)),
        "{context}: partitioned pipeline != monolithic oracle"
    );
}

#[test]
fn randomized_dense_instances_build_identically() {
    // Dense single-component jittered grids: one big component, so the
    // phase threads equal the full budget and every parallel phase runs
    // with real fan-out.
    for seed in 0..6u64 {
        let inst = datagen::jittered_overlap_map(7, 7, 8, seed);
        assert_phases_exact(&inst, &format!("jittered seed={seed}"));
    }
}

#[test]
fn road_network_maps_build_identically() {
    // Shared-boundary cadastral sheets: endpoint coincidences, collinear
    // shared edges, multi-region marks, triangle/quad mix — the chain
    // merger's hardest inputs (many anchors, many short chains).
    for seed in 0..6u64 {
        let inst = datagen::road_network_map(6, 6, 8, seed);
        assert_phases_exact(&inst, &format!("road seed={seed}"));
    }
}

#[test]
fn clustered_and_sparse_instances_build_identically() {
    // Multi-component maps: phase threads shrink to the per-component
    // budget, exercising the serial/parallel boundary and pure-cycle
    // anchors (isolated rectangles are anchor-free loops).
    for seed in 0..4u64 {
        let inst = datagen::clustered_map(5, 4, seed);
        assert_phases_exact(&inst, &format!("clustered seed={seed}"));
        let sparse = datagen::random_rectangles(30, 80, seed);
        assert_phases_exact(&sparse, &format!("sparse seed={seed}"));
    }
}

#[test]
fn adversarial_dense_grid_builds_identically() {
    // The crossing-heavy regular grid of the strip benchmarks.
    assert_phases_exact(&datagen::dense_overlap_map(8, 8, 4), "dense 8x8");
}
