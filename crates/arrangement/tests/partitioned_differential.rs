//! Differential tests for the partition → per-component sweep → assemble
//! pipeline: [`arrangement::build_complex`] must agree with the
//! pre-partitioning single-sweep oracle
//! ([`arrangement::build_complex_monolithic`]) on every input, up to cell
//! re-indexing.
//!
//! Cell ids are not comparable across the two paths (the partitioned build
//! concatenates per-component id spaces), so agreement is checked on
//! re-indexing-invariant data: cell counts, the Euler relation, skeleton
//! component counts, and the full multisets of geometric cells with their
//! sign labels (vertices by point, edges by canonical polyline and
//! boundary-region set, faces by label and boundary size).

use arrangement::{build_complex, build_complex_monolithic, ComplexRead};
use spatial_core::fixtures;
use spatial_core::prelude::*;

mod common;
use common::fingerprint;

fn check(inst: &SpatialInstance, context: &str) {
    let partitioned = build_complex(inst);
    let monolithic = build_complex_monolithic(inst);
    assert!(partitioned.euler_formula_holds(), "euler fails (partitioned) on {context}");
    assert!(monolithic.euler_formula_holds(), "euler fails (monolithic) on {context}");
    assert_eq!(
        partitioned.vertex_count(),
        monolithic.vertex_count(),
        "vertex count mismatch on {context}"
    );
    assert_eq!(
        partitioned.edge_count(),
        monolithic.edge_count(),
        "edge count mismatch on {context}"
    );
    assert_eq!(
        partitioned.face_count(),
        monolithic.face_count(),
        "face count mismatch on {context}"
    );
    assert_eq!(
        partitioned.skeleton_component_count(),
        monolithic.skeleton_component_count(),
        "skeleton component mismatch on {context}"
    );
    let fp = fingerprint(&partitioned);
    let fm = fingerprint(&monolithic);
    assert_eq!(fp.0, fm.0, "vertex fingerprints differ on {context}");
    assert_eq!(fp.1, fm.1, "edge fingerprints differ on {context}");
    assert_eq!(fp.2, fm.2, "face fingerprints differ on {context}");
}

#[test]
fn paper_fixtures_agree() {
    for (name, inst) in [
        ("fig_1a", fixtures::fig_1a()),
        ("fig_1b", fixtures::fig_1b()),
        ("fig_1c", fixtures::fig_1c()),
        ("fig_1d", fixtures::fig_1d()),
        ("petals_abcd", fixtures::petals_abcd()),
        ("petals_acbd", fixtures::petals_acbd()),
        ("ring", fixtures::ring()),
        ("ring_with_flag", fixtures::ring_with_flag()),
        ("ring_with_island_in", fixtures::ring_with_island(true)),
        ("ring_with_island_out", fixtures::ring_with_island(false)),
        ("nested_three", fixtures::nested_three()),
        ("shared_boundary", fixtures::shared_boundary()),
        ("empty", SpatialInstance::new()),
    ] {
        check(&inst, name);
    }
    for (name, inst) in fixtures::fig_2_pairs() {
        check(&inst, &format!("fig_2/{name}"));
    }
}

#[test]
fn randomized_instances_agree() {
    for seed in 0..40 {
        for n in [5usize, 12] {
            let inst = datagen::random_rectangles(n, 24, seed);
            check(&inst, &format!("random_rectangles({n}, 24, {seed})"));
        }
    }
    for seed in 0..10 {
        let inst = datagen::flower(8, seed);
        check(&inst, &format!("flower(8, {seed})"));
    }
}

#[test]
fn multi_component_workloads_agree() {
    // Structured generators whose partitions are non-trivial: disjoint
    // clusters, strictly nested rings (separate components resolved by
    // assembly), and single-blob grids (one component).
    for n in [2usize, 5, 9] {
        check(&datagen::nested_rings(n), &format!("nested_rings({n})"));
        check(&datagen::overlapping_chain(n), &format!("overlapping_chain({n})"));
    }
    check(&datagen::grid_map(4, 3, 4), "grid_map(4, 3)");
    for (clusters, per) in [(2usize, 3usize), (4, 4), (8, 2)] {
        for seed in [1u64, 7] {
            let inst = datagen::clustered_map(clusters, per, seed);
            check(&inst, &format!("clustered_map({clusters}, {per}, {seed})"));
        }
    }
}

#[test]
fn road_network_maps_agree() {
    // Shared-boundary cadastral sheets: endpoint coincidences, collinear
    // shared edges, multi-region marks, triangle/quad mix — the chain
    // merger's hardest inputs (many anchors, many short chains).
    for seed in 0..6u64 {
        let inst = datagen::road_network_map(6, 6, 8, seed);
        check(&inst, &format!("road_network_map(6, 6, 8, {seed})"));
    }
}

#[test]
fn sparse_rectangle_soups_agree() {
    // Many small components, most a lone rectangle: pure-cycle anchors and
    // nesting across components.
    for seed in 0..4u64 {
        let inst = datagen::random_rectangles(30, 80, seed);
        check(&inst, &format!("random_rectangles(30, 80, {seed})"));
    }
}
