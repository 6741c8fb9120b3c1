//! Named fixture instances reproducing the figures of the paper.
//!
//! The paper's figures are drawings of small spatial database instances; the
//! fixtures here are polygonal instances with the same topological structure,
//! used throughout the test suites and the benchmark harness. Where we could
//! not reproduce the exact drawing (the paper's figures are only described in
//! prose), the fixture realizes the *property* the figure is used to
//! demonstrate. The experiments table in the `bench` crate's documentation
//! (`crates/bench/src/lib.rs`) maps each figure to its test and bench group.

use crate::instance::SpatialInstance;
use crate::region::{Rect, Region};

/// Fig. 1a: three regions `A`, `B`, `C`, pairwise overlapping, with
/// `A ∩ B ∩ C ≠ ∅`.
pub fn fig_1a() -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 4, 4)),
        ("B", Region::rect_from_ints(2, 2, 6, 6)),
        ("C", Region::rect_from_ints(1, 3, 5, 5)),
    ])
}

/// Fig. 1b: three regions `A`, `B`, `C`, pairwise overlapping, with
/// `A ∩ B ∩ C = ∅`.
///
/// Fig. 1a and Fig. 1b are 4-intersection equivalent (every pair overlaps)
/// but not topologically equivalent — the paper's motivating example for why
/// the binary relations are not complete (Section 2, Example 4.1).
pub fn fig_1b() -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 10, 3)),
        ("B", Region::rect_from_ints(-1, -1, 3, 12)),
        (
            "C",
            Region::polygon_from_ints(&[(7, 1), (9, 1), (2, 8), (0, 8)])
                .expect("fig 1b strip is a valid polygon"),
        ),
    ])
}

/// Fig. 1c: two overlapping regions whose intersection has one connected
/// component. Its invariant is worked out in Examples 3.1 and 3.3 of the
/// paper: 2 vertices, 4 edges, 4 faces.
pub fn fig_1c() -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 4, 4)),
        ("B", Region::rect_from_ints(2, 1, 6, 3)),
    ])
}

/// Fig. 1d: two overlapping regions whose intersection has two connected
/// components (`A` is U-shaped, `B` is a bar crossing both arms).
///
/// Fig. 1c and Fig. 1d are 4-intersection equivalent (both pairs overlap) but
/// not topologically equivalent (Example 2.1 / Example 4.2).
pub fn fig_1d() -> SpatialInstance {
    SpatialInstance::from_regions([
        (
            "A",
            Region::polygon_from_ints(&[
                (0, 0),
                (6, 0),
                (6, 6),
                (4, 6),
                (4, 2),
                (2, 2),
                (2, 6),
                (0, 6),
            ])
            .expect("fig 1d U-shape is a valid polygon"),
        ),
        ("B", Region::rect_from_ints(-1, 3, 7, 5)),
    ])
}

/// Canonical witness pairs for the eight 4-intersection relations of Fig. 2.
///
/// Each entry is `(relation name, instance with regions "A" and "B" standing
/// in that relation)`.
pub fn fig_2_pairs() -> Vec<(&'static str, SpatialInstance)> {
    let pair = |a: Region, b: Region| SpatialInstance::from_regions([("A", a), ("B", b)]);
    vec![
        (
            "disjoint",
            pair(Region::rect_from_ints(0, 0, 2, 2), Region::rect_from_ints(4, 4, 6, 6)),
        ),
        (
            "meet",
            pair(Region::rect_from_ints(0, 0, 2, 2), Region::rect_from_ints(2, 0, 4, 2)),
        ),
        (
            "overlap",
            pair(Region::rect_from_ints(0, 0, 4, 4), Region::rect_from_ints(2, 2, 6, 6)),
        ),
        (
            "equal",
            pair(Region::rect_from_ints(0, 0, 4, 4), Region::rect_from_ints(0, 0, 4, 4)),
        ),
        (
            "contains",
            pair(Region::rect_from_ints(0, 0, 10, 10), Region::rect_from_ints(3, 3, 6, 6)),
        ),
        (
            "inside",
            pair(Region::rect_from_ints(3, 3, 6, 6), Region::rect_from_ints(0, 0, 10, 10)),
        ),
        (
            "covers",
            pair(Region::rect_from_ints(0, 0, 10, 10), Region::rect_from_ints(0, 3, 6, 6)),
        ),
        (
            "covered_by",
            pair(Region::rect_from_ints(0, 3, 6, 6), Region::rect_from_ints(0, 0, 10, 10)),
        ),
    ]
}

/// The "ring" instance: two C-shaped regions `A` (opening right) and `B`
/// (opening left) that overlap in two separate lens faces and enclose a
/// bounded hole labeled exterior-to-both.
///
/// Its cell complex has two faces with the all-exterior label (the hole and
/// the unbounded face), which is exactly the situation Fig. 6 of the paper
/// uses to show that the designated exterior face is an essential part of the
/// invariant.
pub fn ring() -> SpatialInstance {
    SpatialInstance::from_regions([
        (
            "A",
            Region::polygon_from_ints(&[
                (0, 0),
                (16, 0),
                (16, 6),
                (4, 6),
                (4, 14),
                (16, 14),
                (16, 20),
                (0, 20),
            ])
            .expect("ring region A is a valid polygon"),
        ),
        (
            "B",
            Region::polygon_from_ints(&[
                (2, 2),
                (18, 2),
                (18, 18),
                (2, 18),
                (2, 12),
                (14, 12),
                (14, 8),
                (2, 8),
            ])
            .expect("ring region B is a valid polygon"),
        ),
    ])
}

/// The ring of [`ring`] plus a third region `D` overlapping region `A`
/// across its *outer* boundary arc only.
///
/// The extra region breaks the inside/outside symmetry of the plain ring: the
/// unbounded face and the hole face still carry the same (all-exterior)
/// label, but they are no longer exchangeable by any automorphism of the
/// labeled graph. This is the fixture used to reproduce the point of the
/// paper's Fig. 6: re-designating the hole as the exterior face yields a
/// structure that is isomorphic to the original *as a labeled graph* but not
/// *as an invariant*, and the corresponding instances are not homeomorphic.
pub fn ring_with_flag() -> SpatialInstance {
    let mut inst = ring();
    inst.insert("D", Region::rect_from_ints(-2, 9, 2, 11));
    inst
}

/// Fig. 7a analogue: the ring of [`ring`] plus a third region `C` placed in
/// the unbounded face (variant `false`) or inside the ring's hole
/// (variant `true`).
///
/// The two variants have isomorphic *connected-component* structures; they are
/// distinguished only by which face of the ring the component `C` is embedded
/// in — the paper's point that for disconnected instances the placement of
/// components matters.
pub fn ring_with_island(inside_hole: bool) -> SpatialInstance {
    let mut inst = ring();
    let c = if inside_hole {
        // The hole is the open box (4, 14) x (8, 12).
        Region::rect_from_ints(6, 9, 8, 11)
    } else {
        Region::rect_from_ints(22, 2, 24, 4)
    };
    inst.insert("C", c);
    inst
}

/// Fig. 7b analogue: four triangular "petals" `A`, `B`, `C`, `D` sharing a
/// single common point (the origin) and otherwise disjoint, in a given
/// counter-clockwise cyclic order around that point.
///
/// [`petals_abcd`] and [`petals_acbd`] have isomorphic cell-complex graphs
/// `G_I` (same cells, labels, adjacencies, exterior face) but different
/// rotation systems `O`, and are not topologically equivalent — the paper's
/// demonstration that the orientation relation is an essential part of `T_I`.
pub fn petals(order: [&str; 4]) -> SpatialInstance {
    let east = Region::polygon_from_ints(&[(0, 0), (8, 2), (8, -2)]).expect("east petal");
    let north = Region::polygon_from_ints(&[(0, 0), (2, 8), (-2, 8)]).expect("north petal");
    let west = Region::polygon_from_ints(&[(0, 0), (-8, 2), (-8, -2)]).expect("west petal");
    let south = Region::polygon_from_ints(&[(0, 0), (2, -8), (-2, -8)]).expect("south petal");
    let slots = [east, north, west, south];
    SpatialInstance::from_regions(
        order.iter().zip(slots).map(|(name, region)| (name.to_string(), region)),
    )
}

/// Petals in counter-clockwise order `A, B, C, D`.
pub fn petals_abcd() -> SpatialInstance {
    petals(["A", "B", "C", "D"])
}

/// Petals in counter-clockwise order `A, C, B, D`.
pub fn petals_acbd() -> SpatialInstance {
    petals(["A", "C", "B", "D"])
}

/// Three nested regions `A ⊃ B ⊃ C` (concentric squares); useful for testing
/// contains/inside relations and nested invariants.
pub fn nested_three() -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 12, 12)),
        ("B", Region::rect_from_ints(2, 2, 10, 10)),
        ("C", Region::rect_from_ints(4, 4, 8, 8)),
    ])
}

/// Two regions related by `meet` along a shared boundary segment plus a third
/// overlapping both — exercises collinear shared boundaries in the
/// arrangement.
pub fn shared_boundary() -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 4, 4)),
        ("B", Region::rect_from_ints(4, 0, 8, 4)),
        ("C", Region::rect_from_ints(2, 2, 6, 6)),
    ])
}

/// A small Rect*-only instance (an L-shaped region and a rectangle).
pub fn rectilinear_pair() -> SpatialInstance {
    SpatialInstance::from_regions([
        (
            "A",
            Region::rect_union(&[Rect::from_ints(0, 0, 6, 2), Rect::from_ints(0, 0, 2, 6)])
                .expect("L-shaped union is a disc"),
        ),
        ("B", Region::rect_from_ints(1, 1, 3, 3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use crate::polygon::Location;
    use crate::region::RegionClass;

    #[test]
    fn fig1a_has_triple_intersection() {
        let inst = fig_1a();
        // (3, 7/2) is interior to all three regions.
        let p = crate::point::ptr((3, 1), (7, 2));
        for name in ["A", "B", "C"] {
            assert_eq!(inst.ext(name).unwrap().locate(&p), Location::Inside, "{name}");
        }
    }

    #[test]
    fn fig1b_has_no_triple_intersection_but_pairwise_overlaps() {
        let inst = fig_1b();
        let a = inst.ext("A").unwrap();
        let b = inst.ext("B").unwrap();
        let c = inst.ext("C").unwrap();
        // Pairwise witnesses.
        assert_eq!(a.locate(&pt(1, 1)), Location::Inside);
        assert_eq!(b.locate(&pt(1, 1)), Location::Inside);
        assert_eq!(a.locate(&pt(7, 2)), Location::Inside);
        assert_eq!(c.locate(&pt(7, 2)), Location::Inside);
        assert_eq!(b.locate(&pt(2, 7)), Location::Inside);
        assert_eq!(c.locate(&pt(2, 7)), Location::Inside);
        // No triple point: the triple intersection would need x<=3, y<=3 (to be
        // in A and B) and x+y>=8 (to be in C), which is impossible. Spot-check
        // a grid of candidate points.
        for x in -2..=12 {
            for y in -2..=13 {
                let p = pt(x, y);
                let all_in = [a, b, c].iter().all(|r| r.locate(&p) == Location::Inside);
                assert!(!all_in, "unexpected triple intersection at {p:?}");
            }
        }
    }

    #[test]
    fn fig1c_intersection_connected_fig1d_disconnected() {
        let c = fig_1c();
        let a = c.ext("A").unwrap();
        let b = c.ext("B").unwrap();
        assert_eq!(a.locate(&pt(3, 2)), Location::Inside);
        assert_eq!(b.locate(&pt(3, 2)), Location::Inside);

        let d = fig_1d();
        let a = d.ext("A").unwrap();
        let b = d.ext("B").unwrap();
        // Two separate witnesses, one per arm.
        assert_eq!(a.locate(&pt(1, 4)), Location::Inside);
        assert_eq!(b.locate(&pt(1, 4)), Location::Inside);
        assert_eq!(a.locate(&pt(5, 4)), Location::Inside);
        assert_eq!(b.locate(&pt(5, 4)), Location::Inside);
        // The corridor between the arms is outside A.
        assert_eq!(a.locate(&pt(3, 4)), Location::Outside);
        assert_eq!(b.locate(&pt(3, 4)), Location::Inside);
    }

    #[test]
    fn fig2_pairs_are_eight() {
        let pairs = fig_2_pairs();
        assert_eq!(pairs.len(), 8);
        for (name, inst) in &pairs {
            assert_eq!(inst.len(), 2, "{name}");
        }
    }

    #[test]
    fn ring_encloses_a_hole() {
        let inst = ring();
        let a = inst.ext("A").unwrap();
        let b = inst.ext("B").unwrap();
        // Center of the hole: outside both regions.
        let hole = pt(9, 10);
        assert_eq!(a.locate(&hole), Location::Outside);
        assert_eq!(b.locate(&hole), Location::Outside);
        // Two separate overlap witnesses (the lenses).
        assert_eq!(a.locate(&pt(8, 4)), Location::Inside);
        assert_eq!(b.locate(&pt(8, 4)), Location::Inside);
        assert_eq!(a.locate(&pt(8, 16)), Location::Inside);
        assert_eq!(b.locate(&pt(8, 16)), Location::Inside);
    }

    #[test]
    fn ring_with_flag_overlaps_a_only() {
        let inst = ring_with_flag();
        let d = inst.ext("D").unwrap();
        let a = inst.ext("A").unwrap();
        let b = inst.ext("B").unwrap();
        // D straddles ∂A: one witness inside A, one outside.
        assert_eq!(a.locate(&pt(1, 10)), Location::Inside);
        assert_eq!(d.locate(&pt(1, 10)), Location::Inside);
        assert_eq!(a.locate(&pt(-1, 10)), Location::Outside);
        assert_eq!(d.locate(&pt(-1, 10)), Location::Inside);
        // D is disjoint from B.
        assert_eq!(b.locate(&pt(-1, 10)), Location::Outside);
        assert_eq!(b.locate(&pt(1, 10)), Location::Outside);
    }

    #[test]
    fn ring_island_variants() {
        let out = ring_with_island(false);
        let inn = ring_with_island(true);
        assert_eq!(out.names(), vec!["A", "B", "C"]);
        assert_eq!(inn.names(), vec!["A", "B", "C"]);
        // The island inside the hole is not inside A or B.
        let c = inn.ext("C").unwrap();
        let p = pt(7, 10);
        assert_eq!(c.locate(&p), Location::Inside);
        assert_eq!(inn.ext("A").unwrap().locate(&p), Location::Outside);
        assert_eq!(inn.ext("B").unwrap().locate(&p), Location::Outside);
    }

    #[test]
    fn petals_touch_only_at_origin() {
        let inst = petals_abcd();
        assert_eq!(inst.len(), 4);
        let names = inst.names();
        // One interior witness per petal: A east, B north, C west, D south.
        let witness = [pt(6, 0), pt(0, 6), pt(-6, 0), pt(0, -6)];
        for i in 0..names.len() {
            assert_eq!(inst.ext(names[i]).unwrap().locate(&witness[i]), Location::Inside);
            for j in (i + 1)..names.len() {
                let ri = inst.ext(names[i]).unwrap();
                let rj = inst.ext(names[j]).unwrap();
                // Interiors are disjoint: the witness of each is outside the
                // other.
                assert_eq!(rj.locate(&witness[i]), Location::Outside);
                assert_eq!(ri.locate(&witness[j]), Location::Outside);
                // They share the origin on their boundaries.
                assert_eq!(ri.locate(&pt(0, 0)), Location::Boundary);
                assert_eq!(rj.locate(&pt(0, 0)), Location::Boundary);
            }
        }
    }

    #[test]
    fn petal_orders_differ() {
        let p1 = petals_abcd();
        let p2 = petals_acbd();
        assert!(p1.same_names(&p2));
        // In ABCD the region B is the north petal; in ACBD it is the west one.
        assert_eq!(p1.ext("B").unwrap().locate(&pt(0, 6)), Location::Inside);
        assert_eq!(p2.ext("B").unwrap().locate(&pt(0, 6)), Location::Outside);
        assert_eq!(p2.ext("B").unwrap().locate(&pt(-6, 0)), Location::Inside);
    }

    #[test]
    fn nested_and_shared_fixtures() {
        let nested = nested_three();
        assert_eq!(nested.common_class(), RegionClass::Rect);
        let p = pt(6, 6);
        for name in ["A", "B", "C"] {
            assert_eq!(nested.ext(name).unwrap().locate(&p), Location::Inside);
        }
        let shared = shared_boundary();
        assert_eq!(shared.ext("A").unwrap().locate(&pt(4, 1)), Location::Boundary);
        assert_eq!(shared.ext("B").unwrap().locate(&pt(4, 1)), Location::Boundary);
        let rp = rectilinear_pair();
        assert_eq!(rp.ext("A").unwrap().class(), RegionClass::RectStar);
        assert_eq!(rp.common_class(), RegionClass::RectStar);
    }
}
