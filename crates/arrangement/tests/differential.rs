//! Differential tests: the Bentley–Ottmann sweep splitter must produce a
//! `SubSegment` set identical to the naive all-pairs oracle on every input —
//! randomized workloads from `datagen` plus hand-built degeneracy gauntlets.
//!
//! The oracle (`split_segments_naive`) is trivially correct: it tests every
//! pair of segments with the exact intersection primitive. Matching it
//! sub-segment for sub-segment is therefore a full functional specification
//! of the sweep, including region-mark merging of shared boundaries.

use arrangement::split::{instance_segments, split_segments_naive, TaggedSegment};
use arrangement::sweep::split_segments_sweep;
use spatial_core::fixtures;
use spatial_core::prelude::*;

fn assert_matches_oracle(segs: &[TaggedSegment], context: &str) {
    let sweep = split_segments_sweep(segs);
    let naive = split_segments_naive(segs);
    assert_eq!(
        sweep.len(),
        naive.len(),
        "sweep produced {} pieces, oracle {} on {context}",
        sweep.len(),
        naive.len()
    );
    for (s, n) in sweep.iter().zip(naive.iter()) {
        assert_eq!(s, n, "piece mismatch on {context}");
    }
}

fn check_instance(inst: &SpatialInstance, context: &str) {
    assert_matches_oracle(&instance_segments(inst), context);
}

#[test]
fn randomized_rectangle_instances() {
    // 60 seeds x sizes {5, 12}: overlapping, touching, nested and disjoint
    // axis-parallel rectangles — lots of shared supporting lines, vertical
    // segments and endpoint coincidences.
    for seed in 0..60 {
        for n in [5usize, 12] {
            let inst = datagen::random_rectangles(n, 24, seed);
            check_instance(&inst, &format!("random_rectangles({n}, 24, {seed})"));
        }
    }
}

#[test]
fn randomized_tight_rectangles() {
    // A tighter span forces far more degenerate contact: equal edges,
    // collinear overlap chains, corners on edges.
    for seed in 0..40 {
        let inst = datagen::random_rectangles(8, 9, 1000 + seed);
        check_instance(&inst, &format!("random_rectangles(8, 9, {})", 1000 + seed));
    }
}

#[test]
fn randomized_flowers() {
    // High-degree vertices: many triangles sharing the origin, in random
    // cyclic order — a many-segments-through-one-point stress.
    for seed in 0..20 {
        for n in [4usize, 8, 12] {
            let inst = datagen::flower(n, seed);
            check_instance(&inst, &format!("flower({n}, {seed})"));
        }
    }
}

#[test]
fn jittered_and_dense_overlap_maps() {
    // Dense single-component jittered grids: irregular endpoint-x profiles
    // and Theta(n) proper crossings.
    for seed in 0..12u64 {
        let inst = datagen::jittered_overlap_map(4, 4, 5, seed);
        check_instance(&inst, &format!("jittered_overlap_map(4, 4, 5, {seed})"));
    }
    // The crossing-heavy regular grids; (8, 8, 4) is one 256-segment
    // component, the size of `edit_dense`'s map.
    for (cols, rows) in [(5usize, 5usize), (8, 8)] {
        let inst = datagen::dense_overlap_map(cols, rows, 4);
        check_instance(&inst, &format!("dense_overlap_map({cols}, {rows}, 4)"));
    }
}

#[test]
fn structured_generators() {
    for n in [2usize, 5, 9, 16] {
        check_instance(&datagen::nested_rings(n), &format!("nested_rings({n})"));
        check_instance(&datagen::overlapping_chain(n), &format!("overlapping_chain({n})"));
    }
    for (cols, rows) in [(2, 2), (4, 3), (6, 6)] {
        check_instance(&datagen::grid_map(cols, rows, 4), &format!("grid_map({cols}, {rows})"));
    }
}

#[test]
fn paper_fixtures() {
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
    ] {
        check_instance(&inst, name);
    }
    for (name, inst) in fixtures::fig_2_pairs() {
        check_instance(&inst, &format!("fig_2/{name}"));
    }
}

fn tagged(segs: &[Segment]) -> Vec<TaggedSegment> {
    segs.iter().enumerate().map(|(i, s)| TaggedSegment { segment: *s, region: i }).collect()
}

#[test]
fn degeneracy_gauntlet() {
    let cases: Vec<(&str, Vec<Segment>)> = vec![
        ("three through one point", vec![
            seg(0, 0, 4, 4),
            seg(0, 4, 4, 0),
            seg(0, 2, 4, 2),
        ]),
        ("five through one point incl vertical", vec![
            seg(0, 0, 4, 4),
            seg(0, 4, 4, 0),
            seg(0, 2, 4, 2),
            seg(2, -1, 2, 5),
            seg(1, 0, 3, 4),
        ]),
        ("vertical stack with transversals", vec![
            seg(2, 0, 2, 3),
            seg(2, 3, 2, 7),
            seg(0, 1, 5, 1),
            seg(0, 5, 5, 5),
            seg(0, 3, 5, 3),
        ]),
        ("collinear overlap chain", vec![
            seg(0, 0, 4, 0),
            seg(2, 0, 6, 0),
            seg(5, 0, 9, 0),
            seg(3, 0, 8, 0),
        ]),
        ("vertical collinear overlaps", vec![
            seg(1, 0, 1, 4),
            seg(1, 2, 1, 6),
            seg(1, 6, 1, 9),
            seg(0, 3, 2, 3),
        ]),
        ("diagonal overlaps with crossings", vec![
            seg(0, 0, 4, 4),
            seg(2, 2, 6, 6),
            seg(0, 6, 6, 0),
            seg(1, 1, 3, 3),
        ]),
        ("endpoint touches interior", vec![
            seg(0, 0, 4, 0),
            seg(2, 0, 2, 3),
            seg(0, 2, 4, 2),
        ]),
        ("shared endpoints fan", vec![
            seg(0, 0, 3, 1),
            seg(0, 0, 3, -1),
            seg(0, 0, 3, 0),
            seg(0, 0, 0, 3),
            seg(0, 0, -1, 3),
        ]),
        ("crossing at rational point", vec![
            seg(0, 0, 3, 1),
            seg(0, 1, 3, 0),
            seg(1, -1, 1, 2),
        ]),
        ("grid of verticals and horizontals", vec![
            seg(0, 0, 0, 6),
            seg(2, 0, 2, 6),
            seg(4, 0, 4, 6),
            seg(0, 0, 4, 0),
            seg(0, 3, 4, 3),
            seg(0, 6, 4, 6),
        ]),
        ("duplicate geometry different regions", vec![
            seg(0, 0, 4, 0),
            seg(0, 0, 4, 0),
            seg(0, 0, 2, 0),
        ]),
        ("touch at sweep-source corner", vec![
            seg(0, 0, 2, 2),
            seg(0, 0, 2, -2),
            seg(0, -2, 0, 2),
        ]),
    ];
    for (name, segs) in cases {
        assert_matches_oracle(&tagged(&segs), name);
    }
}

#[test]
fn sweep_feeds_builder_identically() {
    // End-to-end: complexes built from the default (sweep) splitter still
    // satisfy the structural invariants on a non-trivial workload mix.
    for seed in [3u64, 7, 11] {
        let inst = datagen::random_rectangles(10, 16, seed);
        let complex = arrangement::build_complex(&inst);
        assert!(complex.euler_formula_holds(), "seed {seed}");
    }
    let complex = arrangement::build_complex(&fixtures::petals_abcd());
    assert!(complex.euler_formula_holds());
}
