//! Index identity of the built complex, pinned by checksum.
//!
//! Each case is the CRC-32 of the `Debug` rendering of
//! [`build_complex`](topodb::arrangement::build_complex): every vertex
//! position, edge polyline, rotation, face boundary and label, in id order.
//! A kernel change that renumbers, reorders or relabels a single cell fails
//! here; one that means to must update the constants and say why.

use topodb::arrangement::build_complex;
use topodb::spatial_core::fixtures;
use topodb::spatial_core::prelude::*;
use topodb::wal::crc::crc32;

fn digest(inst: &SpatialInstance) -> u32 {
    crc32(format!("{:?}", build_complex(inst)).as_bytes())
}

/// Hold the digest of every case against its constant, reporting every
/// mismatch at once.
fn check(cases: Vec<(String, SpatialInstance)>, expected: &[(&str, u32)]) {
    let names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected_names, "case list and constants disagree");
    let mismatches: Vec<String> = cases
        .iter()
        .zip(expected)
        .filter_map(|((name, inst), (_, want))| {
            let got = digest(inst);
            (got != *want).then(|| format!("(\"{name}\", 0x{got:08x}), // expected 0x{want:08x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "complex digests changed:\n{}", mismatches.join("\n"));
}

#[test]
fn paper_fixtures() {
    let cases = [
        ("fig_1a", fixtures::fig_1a()),
        ("fig_1b", fixtures::fig_1b()),
        ("fig_1c", fixtures::fig_1c()),
        ("fig_1d", fixtures::fig_1d()),
        ("ring", fixtures::ring()),
        ("ring_with_flag", fixtures::ring_with_flag()),
        ("ring_with_island(true)", fixtures::ring_with_island(true)),
        ("ring_with_island(false)", fixtures::ring_with_island(false)),
        ("petals_abcd", fixtures::petals_abcd()),
        ("petals_acbd", fixtures::petals_acbd()),
        ("nested_three", fixtures::nested_three()),
        ("shared_boundary", fixtures::shared_boundary()),
        ("rectilinear_pair", fixtures::rectilinear_pair()),
    ];
    check(
        cases.into_iter().map(|(n, i)| (n.to_string(), i)).collect(),
        &[
            ("fig_1a", 0xbae5ccf4),
            ("fig_1b", 0x3b278d94),
            ("fig_1c", 0x185bfa73),
            ("fig_1d", 0x5d5b96e9),
            ("ring", 0xbd709c4d),
            ("ring_with_flag", 0x995f1311),
            ("ring_with_island(true)", 0x5f1ee8d9),
            ("ring_with_island(false)", 0x0acd9c0e),
            ("petals_abcd", 0x38a9275f),
            ("petals_acbd", 0x05691a18),
            ("nested_three", 0xfb39f13e),
            ("shared_boundary", 0x346fee19),
            ("rectilinear_pair", 0xe846158e),
        ],
    );
}

#[test]
fn fig_2_pairs() {
    check(
        fixtures::fig_2_pairs().into_iter().map(|(n, i)| (n.to_string(), i)).collect(),
        &[
            ("disjoint", 0x60b3fbbc),
            ("meet", 0xd1f442cc),
            ("overlap", 0xaa3e4d75),
            ("equal", 0x33a717f3),
            ("contains", 0xae73b266),
            ("inside", 0x6861b60c),
            ("covers", 0x1f2a755e),
            ("covered_by", 0x64570691),
        ],
    );
}

#[test]
fn datagen_families() {
    let cases = vec![
        ("grid_map(5,4,4)", datagen::grid_map(5, 4, 4)),
        ("nested_rings(6)", datagen::nested_rings(6)),
        ("overlapping_chain(8)", datagen::overlapping_chain(8)),
        ("random_rectangles(12,40,3)", datagen::random_rectangles(12, 40, 3)),
        ("flower(6,2)", datagen::flower(6, 2)),
        ("dense_overlap_map(4,4,4)", datagen::dense_overlap_map(4, 4, 4)),
        ("jittered_overlap_map(6,6,12,0)", datagen::jittered_overlap_map(6, 6, 12, 0)),
        ("road_network_map(4,4,12,1)", datagen::road_network_map(4, 4, 12, 1)),
        ("clustered_map(4,16,2)", datagen::clustered_map(4, 16, 2)),
        ("zipf_clustered_map(6,48,5)", datagen::zipf_clustered_map(6, 48, 5)),
        ("wide_map(12,7)", datagen::wide_map(12, 7)),
        ("jittered_overlap_map(16,16,12,1996)", datagen::jittered_overlap_map(16, 16, 12, 1996)),
    ];
    check(
        cases.into_iter().map(|(n, i)| (n.to_string(), i)).collect(),
        &[
            ("grid_map(5,4,4)", 0x8c06ff43),
            ("nested_rings(6)", 0xc7dc5b6c),
            ("overlapping_chain(8)", 0x711b0c07),
            ("random_rectangles(12,40,3)", 0x90e9897a),
            ("flower(6,2)", 0x06d2ac55),
            ("dense_overlap_map(4,4,4)", 0x1e8ef269),
            ("jittered_overlap_map(6,6,12,0)", 0xf9a836b0),
            ("road_network_map(4,4,12,1)", 0x17618563),
            ("clustered_map(4,16,2)", 0x2c3cbce6),
            ("zipf_clustered_map(6,48,5)", 0x83d69605),
            ("wide_map(12,7)", 0x2d77b3d5),
            ("jittered_overlap_map(16,16,12,1996)", 0xabd949da),
        ],
    );
}
