//! Index identity of the built complex, pinned by checksum.
//!
//! Each case is the CRC-32 of an explicit rendering of
//! [`build_complex`](topodb::arrangement::build_complex), in id order: every
//! vertex point and rotation; every edge's endpoints, polyline, faces and
//! region marks; every face's exterior flag and boundary; and every label as
//! its list of non-`Exterior` `(region, sign)` pairs. The rendering names no
//! storage format, so a change of the label representation leaves the
//! constants alone. A kernel change that renumbers, reorders or relabels a
//! single cell fails here; one that means to must update the constants and
//! say why.

use std::fmt::Write;
use topodb::arrangement::{build_complex, ComplexGeometry, ComplexRead, Label, Sign};
use topodb::spatial_core::fixtures;
use topodb::spatial_core::prelude::*;
use topodb::wal::crc::crc32;

/// A label as its non-`Exterior` `(region, sign)` pairs, ascending.
fn label_pairs(label: &Label) -> Vec<(usize, Sign)> {
    label.iter().collect()
}

fn digest(inst: &SpatialInstance) -> u32 {
    let c = build_complex(inst);
    let mut out = String::new();
    for v in c.vertex_ids() {
        let d = c.vertex(v);
        let label = label_pairs(&c.vertex_label(v));
        writeln!(out, "v{} {:?} {:?} {:?}", v.0, d.point, c.vertex_rotation(v), label).unwrap();
    }
    for e in c.edge_ids() {
        let d = c.edge(e);
        let marks = c.edge_region_marks(e);
        let label = label_pairs(&c.edge_label(e));
        writeln!(
            out,
            "e{} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            e.0, d.tail, d.head, c.edge_polyline(e), d.left_face, d.right_face, marks, label
        )
        .unwrap();
    }
    for f in c.face_ids() {
        let d = c.face(f);
        let label = label_pairs(&c.face_label(f));
        writeln!(out, "f{} {} {:?} {:?}", f.0, d.is_exterior, c.face_boundary(f), label).unwrap();
    }
    crc32(out.as_bytes())
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
            ("fig_1a", 0x868996b6),
            ("fig_1b", 0xc0990a8b),
            ("fig_1c", 0xa3e41b78),
            ("fig_1d", 0xd9427ed2),
            ("ring", 0xdc1b7615),
            ("ring_with_flag", 0x998be9c1),
            ("ring_with_island(true)", 0x866a98f1),
            ("ring_with_island(false)", 0xa62dd363),
            ("petals_abcd", 0x1bd164d2),
            ("petals_acbd", 0x47ba719c),
            ("nested_three", 0x5341ef28),
            ("shared_boundary", 0x4fb86b11),
            ("rectilinear_pair", 0x8c226d3a),
        ],
    );
}

#[test]
fn fig_2_pairs() {
    check(
        fixtures::fig_2_pairs().into_iter().map(|(n, i)| (n.to_string(), i)).collect(),
        &[
            ("disjoint", 0x18565852),
            ("meet", 0x666f1d2f),
            ("overlap", 0x95a29af1),
            ("equal", 0x1d58d802),
            ("contains", 0xc0158866),
            ("inside", 0x58eb844c),
            ("covers", 0xcfbbf421),
            ("covered_by", 0x8d6f76c3),
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
            ("grid_map(5,4,4)", 0x46a71847),
            ("nested_rings(6)", 0x17f4dca6),
            ("overlapping_chain(8)", 0xb56030da),
            ("random_rectangles(12,40,3)", 0x536adefd),
            ("flower(6,2)", 0xa643c0ff),
            ("dense_overlap_map(4,4,4)", 0xb4ac617e),
            ("jittered_overlap_map(6,6,12,0)", 0xb6cf0749),
            ("road_network_map(4,4,12,1)", 0x0b047a5f),
            ("clustered_map(4,16,2)", 0x3a1c08e7),
            ("zipf_clustered_map(6,48,5)", 0xfb7639d2),
            ("wide_map(12,7)", 0x69184b77),
            ("jittered_overlap_map(16,16,12,1996)", 0x6ad010c5),
        ],
    );
}
