//! Splitting of region-boundary segments at their mutual intersections.
//!
//! This is the first phase of the arrangement construction: every input
//! segment is cut at every point where it meets another segment (crossing,
//! touching, or collinear overlap), and geometrically identical pieces coming
//! from different regions are merged into a single edge carrying all region
//! marks (this is how shared boundaries — the Egenhofer `meet`, `covers`,
//! `equal` situations — are represented exactly).
//!
//! Two interchangeable splitters produce the cut points:
//!
//! * [`split_segments`] — the production path, a Bentley–Ottmann plane
//!   sweep ([`crate::sweep`]) running in `O((n + k) log n)` for `n`
//!   segments with `k` intersections, once per component;
//! * [`split_segments_naive`] — the original all-pairs `O(n^2)` splitter,
//!   kept as a differential-testing oracle: both must produce identical
//!   [`SubSegment`] sets on every input.
//!
//! Both share [`assemble_subsegments`], which orders each segment's cut
//! points, emits the pieces, and merges geometrically coincident pieces from
//! different regions.

use spatial_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A maximal straight piece of region boundary between two arrangement
/// vertices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubSegment {
    /// Lexicographically smaller endpoint.
    pub a: Point,
    /// Lexicographically larger endpoint.
    pub b: Point,
    /// Sorted indices of the regions whose boundary contains this piece.
    pub regions: Vec<usize>,
}

/// An input boundary segment tagged with the index of the region it bounds.
#[derive(Clone, Debug)]
pub struct TaggedSegment {
    /// The segment.
    pub segment: Segment,
    /// Index of the region (in region-name order).
    pub region: usize,
}

/// Collect the boundary segments of every region of an instance.
pub fn instance_segments(instance: &SpatialInstance) -> Vec<TaggedSegment> {
    let mut out = Vec::new();
    for (idx, (_, region)) in instance.iter().enumerate() {
        for segment in region.boundary().edges() {
            out.push(TaggedSegment { segment, region: idx });
        }
    }
    out
}

/// The cut-point sets of each input segment, always containing at least the
/// segment's own endpoints.
pub type CutSets = Vec<BTreeSet<Point>>;

/// Fresh cut sets seeded with every segment's own endpoints.
pub fn endpoint_cuts(segments: &[TaggedSegment]) -> CutSets {
    segments
        .iter()
        .map(|ts| {
            let mut s = BTreeSet::new();
            s.insert(ts.segment.a);
            s.insert(ts.segment.b);
            s
        })
        .collect()
}

/// Split all segments at their mutual intersection points and merge
/// coincident pieces. This is the production path: a Bentley–Ottmann plane
/// sweep (see [`crate::sweep`]).
pub fn split_segments(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    crate::sweep::split_segments_sweep(segments)
}

/// The original all-pairs splitter, kept as the differential-testing oracle
/// for the sweep. `O(n^2)` intersection tests, but independent of any
/// ordering argument — its output is the specification the sweep must match.
pub fn split_segments_naive(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    let n = segments.len();
    let mut cuts = endpoint_cuts(segments);
    for i in 0..n {
        for j in (i + 1)..n {
            match segments[i].segment.intersect(&segments[j].segment) {
                SegmentIntersection::None => {}
                SegmentIntersection::Point(p) => {
                    cuts[i].insert(p);
                    cuts[j].insert(p);
                }
                SegmentIntersection::Overlap(ov) => {
                    cuts[i].insert(ov.a);
                    cuts[i].insert(ov.b);
                    cuts[j].insert(ov.a);
                    cuts[j].insert(ov.b);
                }
            }
        }
    }
    assemble_subsegments(segments, &cuts)
}

/// Shared final phase of both splitters: order each segment's cut points
/// along the segment, emit the pieces between consecutive cuts, and merge
/// geometrically identical pieces (keyed by canonical endpoint pair) into a
/// single [`SubSegment`] carrying the union of region marks.
pub fn assemble_subsegments(segments: &[TaggedSegment], cuts: &CutSets) -> Vec<SubSegment> {
    let mut merged: BTreeMap<(Point, Point), BTreeSet<usize>> = BTreeMap::new();
    for (ts, cut_points) in segments.iter().zip(cuts.iter()) {
        // Order the cut points along the segment.
        let mut params: Vec<(Rational, Point)> =
            cut_points.iter().map(|p| (ts.segment.param_of(p), *p)).collect();
        params.sort_by_key(|a| a.0);
        for w in params.windows(2) {
            let (p, q) = (w[0].1, w[1].1);
            if p == q {
                continue;
            }
            let key = if p < q { (p, q) } else { (q, p) };
            merged.entry(key).or_default().insert(ts.region);
        }
    }

    merged
        .into_iter()
        .map(|((a, b), regions)| SubSegment { a, b, regions: regions.into_iter().collect() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;
    use spatial_core::point::pt;

    fn count_with_regions(subs: &[SubSegment], k: usize) -> usize {
        subs.iter().filter(|s| s.regions.len() == k).count()
    }

    #[test]
    fn two_crossing_squares() {
        // Fig. 1c: boundaries cross at exactly two points, so A's 4 segments
        // and B's 4 segments are cut into 4 + 2 = 10 pieces total... more
        // precisely: A's right edge is cut twice (3 pieces), B's bottom and
        // top edges are cut once each (2 pieces each).
        let inst = fixtures::fig_1c();
        let segs = instance_segments(&inst);
        assert_eq!(segs.len(), 8);
        let subs = split_segments(&segs);
        // A: 3 uncut edges + right edge in 3 pieces = 6.
        // B: 2 uncut edges + 2 edges in 2 pieces = 6.
        assert_eq!(subs.len(), 12);
        assert!(subs.iter().all(|s| s.regions.len() == 1));
    }

    #[test]
    fn shared_boundary_is_merged() {
        // Two rectangles meeting along a shared edge piece: the common piece
        // must appear once, marked with both regions.
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(4, 1, 8, 3)),
        ]);
        let subs = split_segments(&instance_segments(&inst));
        let shared: Vec<&SubSegment> = subs.iter().filter(|s| s.regions.len() == 2).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].a, pt(4, 1));
        assert_eq!(shared[0].b, pt(4, 3));
    }

    #[test]
    fn equal_regions_fully_shared() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(0, 0, 4, 4)),
        ]);
        let subs = split_segments(&instance_segments(&inst));
        assert_eq!(subs.len(), 4);
        assert_eq!(count_with_regions(&subs, 2), 4);
    }

    #[test]
    fn disjoint_regions_are_unaffected() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 2, 2)),
            ("B", Region::rect_from_ints(5, 5, 7, 7)),
        ]);
        let subs = split_segments(&instance_segments(&inst));
        assert_eq!(subs.len(), 8);
        assert_eq!(count_with_regions(&subs, 1), 8);
    }

    #[test]
    fn petals_touch_at_origin() {
        let inst = fixtures::petals_abcd();
        let subs = split_segments(&instance_segments(&inst));
        // Each petal is a triangle with the origin as one corner; no segment
        // is actually cut (they meet only at a shared endpoint).
        assert_eq!(subs.len(), 12);
        // The origin appears as an endpoint of exactly 8 sub-segments.
        let at_origin =
            subs.iter().filter(|s| s.a == pt(0, 0) || s.b == pt(0, 0)).count();
        assert_eq!(at_origin, 8);
    }

    #[test]
    fn fig_1d_crossings() {
        let inst = fixtures::fig_1d();
        let subs = split_segments(&instance_segments(&inst));
        // All pieces carry exactly one region mark (no shared boundary here).
        assert!(subs.iter().all(|s| s.regions.len() == 1));
        // The U-shape (8 edges) is crossed 8 times, the bar (4 edges) 8 times.
        // 8 + 8 (extra pieces on A) and 4 + 8 on B... just sanity check count.
        assert_eq!(subs.len(), 8 + 8 + 4 + 8);
    }
}
