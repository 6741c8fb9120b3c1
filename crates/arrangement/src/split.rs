//! Splitting of region-boundary segments at their mutual intersections.
//!
//! This is the first phase of the arrangement construction: every input
//! segment is cut at every point where it meets another segment (crossing,
//! touching, or collinear overlap), and geometrically identical pieces coming
//! from different regions are merged into a single edge carrying all region
//! marks (this is how shared boundaries — the Egenhofer `meet`, `covers`,
//! `equal` situations — are represented exactly).
//!
//! The cut points of a segment list are its [`CutSets`]. Two interchangeable
//! splitters produce them:
//!
//! * [`split_segments`] — the production path, a Bentley–Ottmann plane
//!   sweep ([`crate::sweep`]) running in `O((n + k) log n)` for `n`
//!   segments with `k` intersections, once per component;
//! * [`split_segments_naive`] — the original all-pairs `O(n^2)` splitter,
//!   kept as a differential-testing oracle: both must produce identical
//!   [`SubSegment`] sets on every input.
//!
//! Both share [`assemble_subsegments`], which emits the pieces between each
//! segment's consecutive cut points and merges geometrically coincident
//! pieces from different regions.
//!
//! Cuts are pairwise: a segment's cut set comes only from the segments whose
//! boxes meet its own. A component therefore keeps the cut sets of its build,
//! and the rebuild of a component a commit touches re-splits only the
//! neighbourhood of what changed (`resplit`): it sweeps the segments whose
//! boxes meet a new or a vanished segment, together with their cutters, and
//! copies every other cut set from the component it was carried in. A build
//! with nothing to carry — the cold build, and the from-scratch references
//! `crate::build_components_with_reuse` and `crate::build_group_component` —
//! is one sweep of every segment.
//!
//! Every piece carries the direction of the input segment it lies on
//! ([`SubSegment::dir`]): a difference of two input endpoints, where the
//! piece's own endpoints may be intersection points whose denominators grow
//! with the square of the input coordinates.

use crate::partition::BBox;
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
    /// The direction from `a` to `b`: that of the input segment this piece
    /// lies on ([`Segment::direction`]), negated when the segment runs from
    /// its larger to its smaller endpoint. Only the direction is meaningful,
    /// not the length: coincident pieces keep the first segment's vector.
    pub dir: Vector,
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

/// The cut points of a list of segments: for each segment, in list order,
/// the points at which it must be cut, ascending — its own two endpoints
/// first and last, and between them every point where another segment of
/// the list crosses, touches or overlaps it.
///
/// All cut sets share one flat point buffer, so a run of them copies as one
/// slice.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CutSets {
    points: Vec<Point>,
    /// Segment `s`'s cut points end at `points[ends[s]]` (exclusive) and
    /// start where segment `s - 1`'s end.
    ends: Vec<usize>,
}

impl CutSets {
    /// The cut sets of `n` segments from `(segment, cut point)` incidences,
    /// duplicates allowed, which must name both endpoints of every segment.
    pub(crate) fn from_incidences(n: usize, mut incidences: Vec<(usize, Point)>) -> CutSets {
        incidences.sort_unstable();
        incidences.dedup();
        let mut ends = vec![0; n];
        for &(s, _) in &incidences {
            ends[s] += 1;
        }
        let mut end = 0;
        for e in &mut ends {
            end += *e;
            *e = end;
        }
        CutSets { points: incidences.into_iter().map(|(_, p)| p).collect(), ends }
    }

    /// The number of segments.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Are there no segments?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Segment `s`'s cut points, ascending.
    pub fn get(&self, s: usize) -> &[Point] {
        let start = if s == 0 { 0 } else { self.ends[s - 1] };
        &self.points[start..self.ends[s]]
    }

    /// Every segment's cut points, in segment order.
    pub fn iter(&self) -> impl Iterator<Item = &[Point]> {
        (0..self.len()).map(|s| self.get(s))
    }

    /// Append the cut points of one more segment.
    fn push(&mut self, cuts: &[Point]) {
        self.points.extend_from_slice(cuts);
        self.ends.push(self.points.len());
    }
}

/// Both endpoints of every segment as `(segment, point)` incidences: the
/// seed of every splitter's cut sets.
pub(crate) fn endpoint_incidences(segments: &[TaggedSegment]) -> Vec<(usize, Point)> {
    let mut out = Vec::with_capacity(4 * segments.len());
    for (s, ts) in segments.iter().enumerate() {
        out.push((s, ts.segment.a));
        out.push((s, ts.segment.b));
    }
    out
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
    let mut cuts = endpoint_incidences(segments);
    for i in 0..n {
        for j in (i + 1)..n {
            match segments[i].segment.intersect(&segments[j].segment) {
                SegmentIntersection::None => {}
                SegmentIntersection::Point(p) => {
                    cuts.extend([(i, p), (j, p)]);
                }
                SegmentIntersection::Overlap(ov) => {
                    cuts.extend([(i, ov.a), (i, ov.b), (j, ov.a), (j, ov.b)]);
                }
            }
        }
    }
    assemble_subsegments(segments, &CutSets::from_incidences(n, cuts))
}

/// The cut sets of `segments`, whose boxes are `boxes`, re-splitting only
/// the neighbourhood of what changed since some of them were split before.
///
/// `carried[s]` is segment `s`'s cut set in the component it was last built
/// in, or `None` for a fresh segment (of an inserted or re-shaped region);
/// `gone` holds the boxes of the segments that component had and `segments`
/// no longer has (of a removed or re-shaped region). A carried segment is
/// *affected* if its box meets a fresh or a gone segment's; every fresh
/// segment is affected. One sweep over the affected segments and every
/// segment whose box meets one of theirs yields the affected cut sets
/// exactly, since each of their cutters is in it; the rest of its output is
/// dropped, and every unaffected segment keeps its carried cut set, since
/// nothing that could cut it changed.
///
/// With nothing carried, the neighbourhood is everything: the result is the
/// one sweep of `segments`, as [`crate::sweep::sweep_cut_sets`] returns it.
pub(crate) fn resplit(
    segments: &[TaggedSegment],
    boxes: &[BBox],
    carried: &[Option<&[Point]>],
    gone: &[BBox],
) -> CutSets {
    debug_assert!(segments.len() == boxes.len() && segments.len() == carried.len());
    if carried.iter().all(Option::is_none) {
        return crate::sweep::sweep_cut_sets(segments);
    }
    let changed = BoxSet::new(
        (0..segments.len()).filter(|&s| carried[s].is_none()).map(|s| &boxes[s]).chain(gone),
    );
    let affected: Vec<bool> =
        (0..segments.len()).map(|s| carried[s].is_none() || changed.meets(&boxes[s])).collect();
    let reach = BoxSet::new((0..segments.len()).filter(|&s| affected[s]).map(|s| &boxes[s]));
    let hood: Vec<usize> =
        (0..segments.len()).filter(|&s| affected[s] || reach.meets(&boxes[s])).collect();
    let hood_segments: Vec<TaggedSegment> = hood.iter().map(|&s| segments[s].clone()).collect();
    let swept = crate::sweep::sweep_cut_sets(&hood_segments);

    let mut out = CutSets::default();
    let mut at = 0;
    for (s, old) in carried.iter().enumerate() {
        if affected[s] {
            at += hood[at..].partition_point(|&h| h < s);
            out.push(swept.get(at));
        } else {
            out.push(old.expect("an unaffected segment is carried"));
        }
    }
    out
}

/// A few boxes and their union, tested against one box at a time.
struct BoxSet<'a> {
    boxes: Vec<&'a BBox>,
    hull: Option<BBox>,
}

impl<'a> BoxSet<'a> {
    fn new(boxes: impl Iterator<Item = &'a BBox>) -> BoxSet<'a> {
        let boxes: Vec<&BBox> = boxes.collect();
        let hull = boxes.iter().map(|b| (*b).clone()).reduce(|a, b| a.union(&b));
        BoxSet { boxes, hull }
    }

    /// Does `b` meet one of the boxes?
    fn meets(&self, b: &BBox) -> bool {
        self.hull.as_ref().is_some_and(|h| h.intersects(b))
            && self.boxes.iter().any(|c| c.intersects(b))
    }
}

/// Shared final phase of both splitters: emit the pieces between
/// consecutive cut points of each segment, and merge geometrically identical
/// pieces (keyed by canonical endpoint pair) into a single [`SubSegment`]
/// carrying the union of region marks.
///
/// A cut set is ordered lexicographically, and lexicographic order along a
/// segment is the order of its points along the segment, so consecutive
/// elements of the set are consecutive cut points, smaller endpoint first.
pub fn assemble_subsegments(segments: &[TaggedSegment], cuts: &CutSets) -> Vec<SubSegment> {
    let mut merged: BTreeMap<(Point, Point), (Vector, BTreeSet<usize>)> = BTreeMap::new();
    for (ts, cut_points) in segments.iter().zip(cuts.iter()) {
        let d = ts.segment.direction();
        let dir = if ts.segment.a < ts.segment.b { d } else { d.neg() };
        for pq in cut_points.windows(2) {
            let piece = merged.entry((pq[0], pq[1])).or_insert_with(|| (dir, BTreeSet::new()));
            piece.1.insert(ts.region);
        }
    }

    merged
        .into_iter()
        .map(|((a, b), (dir, regions))| SubSegment { a, b, dir, regions: regions.into_iter().collect() })
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
