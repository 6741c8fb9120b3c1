//! Splitting of region-boundary segments at their mutual intersections.
//!
//! This is the first phase of the arrangement construction: every input
//! segment is cut at every point where it meets another segment (crossing,
//! touching, or collinear overlap), and geometrically identical pieces coming
//! from different regions are merged into a single edge carrying all region
//! marks (this is how shared boundaries — the Egenhofer `meet`, `covers`,
//! `equal` situations — are represented exactly).
//!
//! The cut points of a segment list are its cut sets (`CutSets`, one run of
//! points per segment). Two interchangeable splitters produce them:
//!
//! * [`split_segments_sweep`](crate::sweep::split_segments_sweep) — the
//!   production path, a Bentley–Ottmann plane sweep ([`crate::sweep`])
//!   running in `O((n + k) log n)` for `n` segments with `k`
//!   intersections, once per component;
//! * [`split_segments_naive`] — the original all-pairs `O(n^2)` splitter,
//!   kept as a differential-testing oracle: both must produce identical
//!   [`SubSegment`] sets on every input.
//!
//! The pieces of a split are merged from the cut sets by rank (`Pieces`): the
//! flat cut-point buffer is sorted once into a *point table*, every distinct
//! cut point once, ascending, and a point's rank is its position there. Each
//! pair of consecutive cut points of a segment is a piece `(rank a, rank b,
//! segment)`; one integer sort makes coincident pieces adjacent, and each
//! run becomes one piece with its first segment's direction and the union of
//! its segments' regions. Ranks are lexicographic, so the builder's later
//! stages compare, key and sort ranks where they would otherwise compare
//! exact rational points, and read a point only where the complex keeps it.
//! `assemble_subsegments` converts the pieces into [`SubSegment`]s; the
//! naive oracle keeps its own merge, a map keyed by endpoint points, so the
//! differential tests hold the two merges against each other too.
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
use crate::runs::Runs;
use spatial_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A maximal straight piece of region boundary between two consecutive cut
/// points, with its endpoints as points: the public form of one of the
/// rank-indexed pieces a component build merges (`assemble_subsegments`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubSegment {
    /// Lexicographically smaller endpoint.
    pub a: Point,
    /// Lexicographically larger endpoint.
    pub b: Point,
    /// The direction from `a` to `b`: that of the input segment this piece
    /// lies on ([`Segment::direction`]), negated when the segment runs from
    /// its larger to its smaller endpoint. Only the direction is meaningful,
    /// not the length: coincident pieces keep the vector of the first input
    /// segment they lie on.
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
/// one run of the points at which it must be cut, ascending — its own two
/// endpoints first and last, and between them every point where another
/// segment of the list crosses, touches or overlaps it.
pub(crate) type CutSets = Runs<Point>;

impl CutSets {
    /// The cut sets of `n` segments from `(segment, cut point)` incidences,
    /// duplicates allowed, which must name both endpoints of every segment.
    pub(crate) fn from_incidences(n: usize, mut incidences: Vec<(usize, Point)>) -> CutSets {
        incidences.sort_unstable();
        incidences.dedup();
        Runs::grouped(n, incidences.into_iter())
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

/// The original all-pairs splitter, kept as the differential-testing oracle
/// for the sweep and the rank-based merge. `O(n^2)` intersection tests, and
/// coincident pieces merged in a map keyed by their endpoint points, both
/// independent of any ordering argument — its output is the specification
/// [`split_segments_sweep`](crate::sweep::split_segments_sweep) must match.
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
    // Merge coincident pieces by their endpoints, independently of the
    // rank-based merge of `Pieces`, which the differential tests hold
    // against this one.
    let cuts = CutSets::from_incidences(n, cuts);
    let mut merged: BTreeMap<(Point, Point), (Vector, BTreeSet<usize>)> = BTreeMap::new();
    for (ts, cut_points) in segments.iter().zip(cuts.iter()) {
        let dir = ascending_direction(&ts.segment);
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
/// one sweep of `segments`, as `sweep::sweep_cut_sets` returns it.
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

    let carried_points: usize = carried.iter().flatten().map(|cuts| cuts.len()).sum();
    let mut out = CutSets::with_capacity(segments.len(), carried_points + swept.items().len());
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

/// The direction of `segment` from its smaller endpoint to its larger.
fn ascending_direction(segment: &Segment) -> Vector {
    let d = segment.direction();
    if segment.a < segment.b {
        d
    } else {
        d.neg()
    }
}

/// The split of a list of segments as [`SubSegment`]s: the `Pieces` of
/// their cut sets, each with its endpoints read from the point table and its
/// regions copied out of the flat region buffer.
///
/// The pieces lie between consecutive cut points of each segment, and
/// geometrically identical pieces of different segments are one piece,
/// carrying the union of their regions. A cut set is ordered
/// lexicographically, and lexicographic order along a segment is the order
/// of its points along the segment, so consecutive elements of the set are
/// consecutive cut points, smaller endpoint first.
pub(crate) fn assemble_subsegments(segments: &[TaggedSegment], cuts: &CutSets) -> Vec<SubSegment> {
    let pieces = Pieces::new(segments, cuts);
    (0..pieces.len())
        .map(|p| {
            let piece = &pieces.pieces[p];
            SubSegment {
                a: pieces.points[piece.a as usize],
                b: pieces.points[piece.b as usize],
                dir: *pieces.dir(p),
                regions: pieces.regions(p).to_vec(),
            }
        })
        .collect()
}

/// The split of a component, indexed by the ranks of its cut points: the
/// input of the builder's local pipeline ([`crate::builder`]).
///
/// The point table holds every distinct cut point once, ascending; a point's
/// *rank* is its position there. Ranks are lexicographic, so comparing two
/// ranks compares their points, and every later stage keys, sorts and
/// compares integers where it would otherwise compare exact rationals.
pub(crate) struct Pieces {
    /// The point table: the distinct cut points, ascending.
    pub(crate) points: Vec<Point>,
    /// The merged pieces, ascending by `(a, b)`.
    pub(crate) pieces: Vec<Piece>,
    /// Every piece's regions, one ascending run per piece.
    regions: Runs<usize>,
    /// Each input segment's direction, from its smaller endpoint to its
    /// larger.
    dirs: Vec<Vector>,
}

/// A maximal straight piece of the split, between two consecutive cut points
/// of one or more segments.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Piece {
    /// The rank of the smaller endpoint.
    pub(crate) a: u32,
    /// The rank of the larger endpoint.
    pub(crate) b: u32,
    /// The first input segment the piece lies on; its direction is the
    /// piece's.
    segment: u32,
}

impl Pieces {
    /// Rank the cut points of `segments` and merge their pieces: sort the
    /// flat cut-point buffer once into the point table, then sort every
    /// piece as `(rank a, rank b, segment)`, so coincident pieces are
    /// adjacent and each run keeps its first segment's direction.
    pub(crate) fn new(segments: &[TaggedSegment], cuts: &CutSets) -> Pieces {
        let flat = cuts.items();
        // Ranks, segments and pieces are stored as `u32`s; each counts no
        // more than the cut points do.
        u32::try_from(flat.len()).expect("a component has fewer than 2^32 cut points");
        let mut order: Vec<u32> = (0..flat.len() as u32).collect();
        order.sort_unstable_by(|&i, &j| flat[i as usize].cmp(&flat[j as usize]));
        let mut points: Vec<Point> = Vec::with_capacity(flat.len());
        let mut rank = vec![0u32; flat.len()];
        for &i in &order {
            let p = flat[i as usize];
            if points.last() != Some(&p) {
                points.push(p);
            }
            rank[i as usize] = points.len() as u32 - 1;
        }

        let mut split: Vec<(u32, u32, u32)> = Vec::with_capacity(flat.len());
        for s in 0..cuts.len() {
            let ranks = &rank[cuts.range(s)];
            split.extend(ranks.windows(2).map(|ab| (ab[0], ab[1], s as u32)));
        }
        split.sort_unstable();

        let mut pieces = Vec::with_capacity(split.len());
        let mut regions = Runs::with_capacity(split.len(), split.len());
        let mut run_regions = Vec::new();
        for run in split.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            run_regions.clear();
            run_regions.extend(run.iter().map(|&(_, _, s)| segments[s as usize].region));
            run_regions.sort_unstable();
            run_regions.dedup();
            regions.push(&run_regions);
            let (a, b, segment) = run[0];
            pieces.push(Piece { a, b, segment });
        }
        let dirs = segments.iter().map(|ts| ascending_direction(&ts.segment)).collect();
        Pieces { points, pieces, regions, dirs }
    }

    /// The number of pieces.
    pub(crate) fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Are there no pieces?
    pub(crate) fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Piece `p`'s regions, ascending.
    pub(crate) fn regions(&self, p: usize) -> &[usize] {
        self.regions.get(p)
    }

    /// Piece `p`'s direction, from its smaller endpoint to its larger: that
    /// of its first input segment.
    pub(crate) fn dir(&self, p: usize) -> &Vector {
        &self.dirs[self.pieces[p].segment as usize]
    }

    /// The direction of a step along piece `p` from its endpoint of rank
    /// `from` to its other endpoint.
    pub(crate) fn dir_from(&self, p: usize, from: u32) -> Vector {
        let dir = self.dir(p);
        if from == self.pieces[p].a {
            *dir
        } else {
            dir.neg()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::split_segments_sweep;
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
        let subs = split_segments_sweep(&segs);
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
        let subs = split_segments_sweep(&instance_segments(&inst));
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
        let subs = split_segments_sweep(&instance_segments(&inst));
        assert_eq!(subs.len(), 4);
        assert_eq!(count_with_regions(&subs, 2), 4);
    }

    #[test]
    fn disjoint_regions_are_unaffected() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 2, 2)),
            ("B", Region::rect_from_ints(5, 5, 7, 7)),
        ]);
        let subs = split_segments_sweep(&instance_segments(&inst));
        assert_eq!(subs.len(), 8);
        assert_eq!(count_with_regions(&subs, 1), 8);
    }

    #[test]
    fn petals_touch_at_origin() {
        let inst = fixtures::petals_abcd();
        let subs = split_segments_sweep(&instance_segments(&inst));
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
        let subs = split_segments_sweep(&instance_segments(&inst));
        // All pieces carry exactly one region mark (no shared boundary here).
        assert!(subs.iter().all(|s| s.regions.len() == 1));
        // The U-shape (8 edges) is crossed 8 times, the bar (4 edges) 8 times.
        // 8 + 8 (extra pieces on A) and 4 + 8 on B... just sanity check count.
        assert_eq!(subs.len(), 8 + 8 + 4 + 8);
    }
}
