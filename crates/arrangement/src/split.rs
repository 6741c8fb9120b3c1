//! Splitting of region-boundary segments at their mutual intersections.
//!
//! This is the first phase of the arrangement construction: every input
//! segment is cut at every point where it meets another segment (crossing,
//! touching, or collinear overlap), and geometrically identical pieces coming
//! from different regions are merged into a single edge carrying all region
//! marks (this is how shared boundaries — the Egenhofer `meet`, `covers`,
//! `equal` situations — are represented exactly).
//!
//! A split has one form (`RankedSplit`): its *point table* holds every
//! distinct cut point once, ascending, a point's rank is its position there,
//! and each segment's cut set is a run of ranks into it. The plane sweep
//! emits it that way ([`crate::sweep`]): its events pop in ascending order,
//! each cut point once, so the table is the event order and no point is
//! sorted. Two interchangeable splitters exist:
//!
//! * [`split_segments_sweep`](crate::sweep::split_segments_sweep) — the
//!   production path, a Bentley–Ottmann plane sweep running in
//!   `O((n + k) log n)` for `n` segments with `k` intersections, once per
//!   component;
//! * [`split_segments_naive`] — the original all-pairs `O(n^2)` splitter,
//!   kept as a differential-testing oracle: both must produce identical
//!   [`SubSegment`] sets on every input. The point-keyed form of a split is
//!   the oracle's alone: it keeps each cut set as a run of points
//!   (`CutSets`) and merges coincident pieces in a map keyed by their
//!   endpoint points.
//!
//! Ranks are lexicographic, so the builder's later stages compare, key and
//! sort ranks where they would otherwise compare exact rational points, and
//! read a point only where the complex keeps it. The pieces are merged from
//! the ranked cut sets (`Pieces`): each pair of consecutive cut points of a
//! segment is a piece `(rank a, rank b, segment)`; one integer sort makes
//! coincident pieces adjacent, and each run becomes one piece with its
//! first segment's direction and the union of its segments' regions.
//! `assemble_subsegments` converts the pieces into [`SubSegment`]s, so the
//! differential tests hold the rank merge against the oracle's map.
//!
//! Cuts are pairwise: a segment's cut set comes only from the segments whose
//! boxes meet its own. A component therefore keeps its point table and the
//! ranked cut sets of its build, and the rebuild of a component a commit
//! touches re-splits only the neighbourhood of what changed (`resplit`): it
//! sweeps the segments whose boxes meet a new or a vanished segment,
//! together with their cutters, and carries every other cut set, as ranks,
//! from the component it was built in. The new point table is a merge, not
//! a sort (`RankedSplit::merge`): each table the runs cite — an old
//! component's or the re-split's own — contributes the points they still
//! cite, already ascending, and every rank is mapped old → new through the
//! merge. A build with nothing to carry — the cold build, and the
//! from-scratch references `crate::build_components_with_reuse` and
//! `crate::build_group_component` — is one sweep of every segment, and its
//! split is the sweep's as is.
//!
//! Every piece keeps the input segment it lies on (`Piece::segment`): its
//! direction is that segment's, a difference of two input endpoints, where
//! the piece's own endpoints may be intersection points whose denominators
//! grow with the square of the input coordinates. A component build ranks
//! those directions once, in a per-build table of direction classes
//! (`direction_classes`), and the builder orders rotations and picks outer
//! walks by integer angle keys derived from the classes
//! (`Pieces::angle_key`): after the sweep, the table's cross products of
//! input directions are the only direction comparisons. The nesting test
//! of the builder tests a piece's side against its segment too
//! (`Pieces::ray_crosses`).

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

/// The cut points of a list of segments, point-keyed: for each segment, in
/// list order, one run of the points at which it must be cut, ascending —
/// its own two endpoints first and last, and between them every point where
/// another segment of the list crosses, touches or overlaps it. Only the
/// naive oracle and the tests keep a split in this form.
pub(crate) type CutSets = Runs<Point>;

/// The cut sets of `segments` by the oracle's `O(n^2)` intersection tests:
/// both endpoints of every segment, both segments of every pair at their
/// crossing or touching point, and both at the two ends of an overlap.
pub(crate) fn naive_cut_sets(segments: &[TaggedSegment]) -> CutSets {
    let n = segments.len();
    let mut cuts: Vec<(usize, Point)> = Vec::with_capacity(4 * n);
    for (s, ts) in segments.iter().enumerate() {
        cuts.extend([(s, ts.segment.a), (s, ts.segment.b)]);
    }
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
    cuts.sort_unstable();
    cuts.dedup();
    Runs::grouped(n, cuts.iter().copied())
}

/// The original all-pairs splitter, kept as the differential-testing oracle
/// for the sweep and the rank-based merge. `O(n^2)` intersection tests, and
/// coincident pieces merged in a map keyed by their endpoint points, both
/// independent of any ordering argument — its output is the specification
/// [`split_segments_sweep`](crate::sweep::split_segments_sweep) must match.
pub fn split_segments_naive(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    // Merge coincident pieces by their endpoints, independently of the
    // rank-based merge of `Pieces`, which the differential tests hold
    // against this one.
    let cuts = naive_cut_sets(segments);
    let mut merged: BTreeMap<(Point, Point), BTreeSet<usize>> = BTreeMap::new();
    for (ts, cut_points) in segments.iter().zip(cuts.iter()) {
        for pq in cut_points.windows(2) {
            merged.entry((pq[0], pq[1])).or_default().insert(ts.region);
        }
    }
    merged
        .into_iter()
        .map(|((a, b), regions)| SubSegment { a, b, regions: regions.into_iter().collect() })
        .collect()
}

/// A segment's cut set as ranks into the point table `base` of the tables a
/// split is merged from ([`RankedSplit::merge`]): the table of the component
/// the segment was last built in, or the re-split's own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Carried<'a> {
    /// Which point table the ranks index.
    pub(crate) base: usize,
    /// The cut set, as ranks.
    pub(crate) ranks: &'a [u32],
}

/// The ranked split of `segments`, whose boxes are `boxes`, re-splitting
/// only the neighbourhood of what changed since some of them were split
/// before.
///
/// `carried[s]` is segment `s`'s cut set in the component it was last built
/// in, as ranks into that component's point table `tables[base]`, or `None`
/// for a fresh segment (of an inserted or re-shaped region); `gone` holds
/// the boxes of the segments those components had and `segments` no longer
/// has (of a removed or re-shaped region). A carried segment is *affected*
/// if its box meets a fresh or a gone segment's; every fresh segment is
/// affected. One sweep over the affected segments and every segment whose
/// box meets one of theirs yields the affected cut sets exactly, since each
/// of their cutters is in it; the rest of its output is dropped, and every
/// unaffected segment keeps its carried cut set, since nothing that could
/// cut it changed. The sweep's point table is one more table to merge
/// ([`RankedSplit::merge`]), and the affected segments' runs cite it.
///
/// With nothing carried, the neighbourhood is everything: the split is the
/// one sweep of `segments`, as [`crate::sweep::sweep`] returns it.
pub(crate) fn resplit(
    segments: &[TaggedSegment],
    boxes: &[BBox],
    carried: &[Option<Carried<'_>>],
    tables: &[&[Point]],
    gone: &[BBox],
) -> RankedSplit {
    debug_assert!(segments.len() == boxes.len() && segments.len() == carried.len());
    if carried.iter().all(Option::is_none) {
        return crate::sweep::sweep(segments);
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
    let swept = crate::sweep::sweep(&hood_segments);

    // The affected segments carry nothing now: their runs are the sweep's,
    // in segment order, and cite its table, the last one.
    let mut swept_runs =
        hood.iter().zip(swept.cuts.iter()).filter(|(&s, _)| affected[s]).map(|(_, run)| run);
    let runs: Vec<Carried<'_>> = carried
        .iter()
        .zip(&affected)
        .map(|(old, &affected)| match old {
            Some(old) if !affected => *old,
            _ => {
                let ranks = swept_runs.next().expect("a swept run per affected segment");
                Carried { base: tables.len(), ranks }
            }
        })
        .collect();
    let tables: Vec<&[Point]> = tables.iter().copied().chain([swept.points.as_slice()]).collect();
    RankedSplit::merge(&runs, &tables)
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
/// their ranked split, each with its endpoints read from the point table and
/// its regions copied out of the flat region buffer.
///
/// The pieces lie between consecutive cut points of each segment, and
/// geometrically identical pieces of different segments are one piece,
/// carrying the union of their regions. A cut set is ordered
/// lexicographically, and lexicographic order along a segment is the order
/// of its points along the segment, so consecutive elements of the set are
/// consecutive cut points, smaller endpoint first.
pub(crate) fn assemble_subsegments(segments: &[TaggedSegment], split: &RankedSplit) -> Vec<SubSegment> {
    let pieces = Pieces::new(segments, split);
    (0..pieces.len())
        .map(|p| {
            let piece = &pieces.pieces[p];
            SubSegment {
                a: pieces.points[piece.a as usize],
                b: pieces.points[piece.b as usize],
                regions: pieces.regions(p).to_vec(),
            }
        })
        .collect()
}

/// A split indexed by the ranks of its cut points: the point table, every
/// distinct cut point once, ascending, and every segment's cut set as a run
/// of ranks into it. The sweep emits it ([`crate::sweep::sweep`]), a
/// component keeps the ranked split of its build, and the next build of the
/// component carries its ranks ([`resplit`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct RankedSplit {
    /// The point table: the distinct cut points, ascending.
    pub(crate) points: Vec<Point>,
    /// Each segment's cut set, ascending, as ranks into `points`.
    pub(crate) cuts: Runs<u32>,
}

impl RankedSplit {
    /// The point table and ranked cut sets of a split whose segment `s` has
    /// the cut set `runs[s]`, as ranks into `tables[runs[s].base]`.
    ///
    /// Each table contributes the points its runs still cite, in its own
    /// (ascending) order, and the lists are merged one table at a time,
    /// equal points once. Every rank is then mapped old → new through the
    /// merges, so the points cost integer work and the comparisons of a
    /// merge, which gallops over the long runs of one list that the other
    /// does not interrupt. The table is exactly the distinct cut points of
    /// the split: a point no run cites is dropped with its old table.
    pub(crate) fn merge(runs: &[Carried<'_>], tables: &[&[Point]]) -> RankedSplit {
        // Ranks are stored as `u32`s, and no table holds more points than
        // the cut sets have entries.
        let entries = runs.iter().map(|c| c.ranks.len()).sum::<usize>();
        u32::try_from(entries).expect("a component has fewer than 2^32 cut points");

        // Merge in each table's cited points. `rank_of[base]` maps an old
        // rank to its rank in `points` (uncited ranks keep `u32::MAX`);
        // every earlier mapping is carried through each later merge.
        let mut points: Vec<Point> = Vec::new();
        let mut rank_of: Runs<u32> = Runs::with_capacity(tables.len(), tables.iter().map(|t| t.len()).sum());
        for (base, table) in tables.iter().enumerate() {
            let mut cited = vec![false; table.len()];
            for c in runs.iter().filter(|c| c.base == base) {
                c.ranks.iter().for_each(|&r| cited[r as usize] = true);
            }
            let old: Vec<u32> = (0..table.len() as u32).filter(|&r| cited[r as usize]).collect();
            let (merged, moved, added) = merge_points(Sorted::All(&points), Sorted::Picked(table, &old));
            points = merged;
            rank_of.items_mut().iter_mut().filter(|r| **r != u32::MAX).for_each(|r| *r = moved[*r as usize]);
            let mut map = vec![u32::MAX; table.len()];
            for (&r, &to) in old.iter().zip(&added) {
                map[r as usize] = to;
            }
            rank_of.push(&map);
        }

        let mut cuts = Runs::with_capacity(runs.len(), entries);
        for c in runs {
            cuts.push_iter(c.ranks.iter().map(|&r| rank_of.get(c.base)[r as usize]));
        }
        RankedSplit { points, cuts }
    }

    /// Every cut set with its ranks resolved in the point table.
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> CutSets {
        self.cuts.map(|&r| self.points[r as usize])
    }
}

/// An ascending list of distinct points: a whole table, or the entries of
/// a table at some ascending ranks (read in place, not copied out).
#[derive(Clone, Copy)]
enum Sorted<'a> {
    All(&'a [Point]),
    Picked(&'a [Point], &'a [u32]),
}

impl Sorted<'_> {
    fn len(&self) -> usize {
        match self {
            Sorted::All(points) => points.len(),
            Sorted::Picked(_, ranks) => ranks.len(),
        }
    }

    fn get(&self, i: usize) -> &Point {
        match self {
            Sorted::All(points) => &points[i],
            Sorted::Picked(table, ranks) => &table[ranks[i] as usize],
        }
    }

    /// The first position at or after `from` whose point is not below `p`:
    /// an exponential search, then a bisection.
    fn seek(&self, from: usize, p: &Point) -> usize {
        let mut step = 1;
        while from + step <= self.len() && self.get(from + step - 1) < p {
            step *= 2;
        }
        let (mut lo, mut hi) = (from + step / 2, (from + step).min(self.len()));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.get(mid) < p {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Merge two ascending lists of distinct points into one, equal points
/// once: the merged list, and where each entry of `a` and of `b` went.
///
/// It walks the shorter list and finds each of its points in the longer one
/// by exponential search from the last find, so a merge of `m` points into
/// `n` costs `O(m log(n / m))` comparisons and copies the rest.
fn merge_points(a: Sorted<'_>, b: Sorted<'_>) -> (Vec<Point>, Vec<u32>, Vec<u32>) {
    if a.len() < b.len() {
        let (merged, b_at, a_at) = merge_points(b, a);
        return (merged, a_at, b_at);
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut a_at, mut b_at) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let mut i = 0;
    for k in 0..b.len() {
        let p = b.get(k);
        let j = a.seek(i, p);
        for q in i..j {
            a_at.push(merged.len() as u32);
            merged.push(*a.get(q));
        }
        i = j;
        b_at.push(merged.len() as u32);
        if i < a.len() && a.get(i) == p {
            a_at.push(merged.len() as u32);
            i += 1;
        }
        merged.push(*p);
    }
    for q in i..a.len() {
        a_at.push(merged.len() as u32);
        merged.push(*a.get(q));
    }
    (merged, a_at, b_at)
}

/// The split of a component, indexed by the ranks of its cut points: the
/// input of the builder's local pipeline ([`crate::builder`]).
///
/// The point table is the [`RankedSplit`]'s, borrowed. Ranks are
/// lexicographic, so comparing two ranks compares their points, and every
/// later stage keys, sorts and compares integers where it would otherwise
/// compare exact rationals. Directions are ranked the same way: every piece
/// carries the *direction class* of its input segment, the rank of the
/// segment's direction among the component's distinct directions, so the
/// rotation order and the outer walks compare integers too
/// ([`Pieces::angle_key`]).
pub(crate) struct Pieces<'a> {
    /// The point table: the distinct cut points, ascending.
    pub(crate) points: &'a [Point],
    /// The segments the pieces were merged from.
    segments: &'a [TaggedSegment],
    /// The merged pieces, ascending by `(a, b)`.
    pub(crate) pieces: Vec<Piece>,
    /// Every piece's regions, one ascending run per piece.
    regions: Runs<usize>,
    /// The number of direction classes.
    classes: u32,
    /// How many of them point below the x axis: the classes of rank below
    /// `below`.
    below: u32,
}

/// A maximal straight piece of the split, between two consecutive cut points
/// of one or more segments.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Piece {
    /// The rank of the smaller endpoint.
    pub(crate) a: u32,
    /// The rank of the larger endpoint.
    pub(crate) b: u32,
    /// The first input segment the piece lies on: its direction is the
    /// piece's, and so is its supporting line.
    segment: u32,
    /// The direction class of that segment ([`direction_classes`]): pieces
    /// leaving a common smaller endpoint compare by angle as their classes
    /// compare.
    pub(crate) class: u32,
}

impl<'a> Pieces<'a> {
    /// Merge the pieces of a ranked split of `segments`: sort every piece as
    /// `(rank a, rank b, segment)`, so coincident pieces are adjacent and
    /// each run keeps its first segment's direction. No point is compared;
    /// the only rational work is the direction table ([`direction_classes`]).
    pub(crate) fn new(segments: &'a [TaggedSegment], split: &'a RankedSplit) -> Pieces<'a> {
        let cuts = &split.cuts;
        let mut pieces: Vec<(u32, u32, u32)> = Vec::with_capacity(cuts.items().len());
        for (s, ranks) in cuts.iter().enumerate() {
            pieces.extend(ranks.windows(2).map(|ab| (ab[0], ab[1], s as u32)));
        }
        pieces.sort_unstable();

        let (class, classes, below) = direction_classes(segments);
        let mut merged = Vec::with_capacity(pieces.len());
        let mut regions = Runs::with_capacity(pieces.len(), pieces.len());
        let mut run_regions = Vec::new();
        for run in pieces.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            run_regions.clear();
            run_regions.extend(run.iter().map(|&(_, _, s)| segments[s as usize].region));
            run_regions.sort_unstable();
            run_regions.dedup();
            regions.push(&run_regions);
            let (a, b, segment) = run[0];
            merged.push(Piece { a, b, segment, class: class[segment as usize] });
        }
        Pieces { points: &split.points, segments, pieces: merged, regions, classes, below }
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

    /// The angle key of a step along piece `p` from its endpoint of rank
    /// `from` to its other endpoint: keys compare exactly as the step
    /// directions compare by counter-clockwise angle from the positive x
    /// axis ([`Vector::angle_cmp`]), equal directions having equal keys.
    ///
    /// With `n` classes of which `b` point below the x axis, the `2n` step
    /// directions fall, by angle in `[0, 2π)`, into four blocks: forward
    /// steps of the classes at or above the axis (`[0, π/2]`), backward
    /// steps of the classes below it (`(π/2, π)`), backward steps of the
    /// classes at or above it (`[π, 3π/2]`) and forward steps of the classes
    /// below it (`(3π/2, 2π)`). So the key is the class, plus `n` for a
    /// backward step, less `b`, modulo `2n`.
    pub(crate) fn angle_key(&self, p: usize, from: u32) -> u32 {
        let piece = &self.pieces[p];
        let n = self.classes;
        let backward = if from == piece.a { 0 } else { n };
        (piece.class + backward + 2 * n - self.below) % (2 * n)
    }

    /// Does a step of angle key `key` point into the upper half-plane
    /// (angle in `[0, π)`, [`Vector::half_plane`] `0`)?
    pub(crate) fn is_upper(&self, key: u32) -> bool {
        key < self.classes
    }

    /// Does the `+x` ray from `p` cross piece `q`
    /// ([`ray_crosses`](spatial_core::polygon::ray_crosses))? The side test
    /// is against the input segment the piece lies on, so for an input point
    /// `p` every product in it is of degree 2 in the input coordinates; the
    /// span test compares `p` with the piece's endpoints, already in the
    /// point table.
    pub(crate) fn ray_crosses(&self, q: usize, p: &Point) -> bool {
        let piece = &self.pieces[q];
        let Segment { a, b } = &self.segments[piece.segment as usize].segment;
        let (from, to) = (&self.points[piece.a as usize], &self.points[piece.b as usize]);
        spatial_core::polygon::ray_crosses(p, from, to, (a, b))
    }

    /// The direction of a step along piece `p` from its endpoint of rank
    /// `from`: the oracle the angle keys are held against.
    #[cfg(test)]
    pub(crate) fn step_direction(&self, p: usize, from: u32) -> Vector {
        let piece = &self.pieces[p];
        let dir = ascending_direction(&self.segments[piece.segment as usize].segment);
        if from == piece.a {
            dir
        } else {
            dir.neg()
        }
    }
}

/// The direction class of every segment, the number of classes, and how
/// many of them point below the x axis.
///
/// A class is one distinct direction of the segments taken from their
/// smaller endpoint to their larger, ranked by angle in `(−π/2, π/2]`: the
/// classes below the x axis, the horizontal one, those above the axis and
/// the vertical one. The two axis classes are found by comparing
/// coordinates, so a rectilinear component ranks its directions in one pass
/// and without a product. The slanted directions all point right, so one
/// sort by the sign of their cross products orders them, and equal ones
/// (zero cross product) share a class; a cross product of two input
/// directions is of degree 2 in the input coordinates.
fn direction_classes(segments: &[TaggedSegment]) -> (Vec<u32>, u32, u32) {
    // The axis classes are ranked once the slanted ones are counted: mark
    // them first.
    const HORIZONTAL: u32 = u32::MAX;
    const VERTICAL: u32 = u32::MAX - 1;
    let mut slanted: Vec<(u32, Vector)> = Vec::new();
    let mut class: Vec<u32> = Vec::with_capacity(segments.len());
    for (s, ts) in (0..).zip(segments) {
        let Segment { a, b } = &ts.segment;
        class.push(if a.y == b.y {
            HORIZONTAL
        } else if a.x == b.x {
            VERTICAL
        } else {
            slanted.push((s, ascending_direction(&ts.segment)));
            0
        });
    }
    slanted.sort_unstable_by(|(_, u), (_, v)| 0.cmp(&u.cross(v).signum()));
    let (lower, upper) = slanted.split_at(slanted.partition_point(|(_, d)| d.dy.signum() < 0));

    /// Give each run of equal directions of `sorted` the next class.
    fn rank(sorted: &[(u32, Vector)], class: &mut [u32], next: &mut u32) {
        for same in sorted.chunk_by(|(_, u), (_, v)| u.cross(v).is_zero()) {
            same.iter().for_each(|&(s, _)| class[s as usize] = *next);
            *next += 1;
        }
    }
    let mut next = 0;
    rank(lower, &mut class, &mut next);
    let (below, horizontal) = (next, next);
    next += class.contains(&HORIZONTAL) as u32;
    rank(upper, &mut class, &mut next);
    let vertical = next;
    next += class.contains(&VERTICAL) as u32;
    for c in &mut class {
        match *c {
            HORIZONTAL => *c = horizontal,
            VERTICAL => *c = vertical,
            _ => {}
        }
    }
    (class, next, below)
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
    fn merge_points_keeps_equal_points_once_and_maps_both_lists() {
        let a: Vec<Point> = (0..40).map(|i| pt(2 * i, 0)).collect();
        for b in [vec![], vec![pt(-1, 0)], vec![pt(7, 0), pt(8, 0), pt(100, 0)], a.clone()] {
            let (merged, a_at, b_at) = merge_points(Sorted::All(&a), Sorted::All(&b));
            let mut want: Vec<Point> = a.iter().chain(&b).copied().collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(merged, want);
            assert!(a.iter().zip(&a_at).all(|(p, &r)| merged[r as usize] == *p));
            assert!(b.iter().zip(&b_at).all(|(p, &r)| merged[r as usize] == *p));
            // Symmetric in its operands.
            let (swapped, b_again, a_again) = merge_points(Sorted::All(&b), Sorted::All(&a));
            assert_eq!((swapped, a_again, b_again), (merged, a_at, b_at));
        }
        // A picked list reads its table in place.
        let every_third: Vec<u32> = (0..40).step_by(3).collect();
        let b = [pt(5, 0), pt(6, 0)];
        let (merged, picked_at, b_at) = merge_points(Sorted::Picked(&a, &every_third), Sorted::All(&b));
        let mut want: Vec<Point> = every_third.iter().map(|&r| a[r as usize]).chain(b).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(merged, want);
        assert_eq!(picked_at[..3], [0, 2, 3]);
        assert_eq!(b_at, [1, 2]);
    }

    #[test]
    fn a_merged_split_keeps_only_cited_points() {
        // Two carried cut sets into an old table and one re-split cut set
        // crossing them, into the re-split's table; each table has a point
        // no run cites.
        let old = [pt(0, 0), pt(1, 1), pt(2, 2), pt(5, 5)];
        let swept = [pt(0, 4), pt(1, 3), pt(2, 2), pt(4, 0)];
        let (first, second, third) = ([0u32, 2], [0u32, 2, 3], [2u32, 3]);
        let runs = [
            Carried { base: 0, ranks: &first[..] },
            Carried { base: 1, ranks: &second[..] },
            Carried { base: 0, ranks: &third[..] },
        ];
        let split = RankedSplit::merge(&runs, &[&old[..], &swept[..]]);
        assert_eq!(split.points, vec![pt(0, 0), pt(0, 4), pt(2, 2), pt(4, 0), pt(5, 5)]);
        let cuts: Vec<&[u32]> = split.cuts.iter().collect();
        assert_eq!(cuts, vec![&[0, 2][..], &[1, 2, 3][..], &[2, 4][..]]);
    }

    /// Every ordered pair of steps, along each piece both ways, compares by
    /// angle key exactly as the step directions compare by
    /// [`Vector::angle_cmp`]; returns the number of direction classes.
    fn check_angle_keys(name: &str, segments: &[TaggedSegment]) -> u32 {
        let split = crate::sweep::sweep(segments);
        let pieces = Pieces::new(segments, &split);
        let ends = |p: usize| [(p, pieces.pieces[p].a), (p, pieces.pieces[p].b)];
        let steps: Vec<(usize, u32)> = (0..pieces.len()).flat_map(ends).collect();
        for &(p, from) in &steps {
            let u = pieces.step_direction(p, from);
            assert_eq!(pieces.is_upper(pieces.angle_key(p, from)), u.half_plane() == 0, "{name}: {u:?}");
            for &(q, other) in &steps {
                let v = pieces.step_direction(q, other);
                let by_key = pieces.angle_key(p, from).cmp(&pieces.angle_key(q, other));
                assert_eq!(by_key, u.angle_cmp(&v), "{name}: {u:?} against {v:?}");
            }
        }
        pieces.classes
    }

    #[test]
    fn angle_keys_order_steps_as_angle_cmp() {
        // Ascending directions below the x axis, collinear duplicates (the
        // same direction on disjoint and on reversed segments), and both axes,
        // so that the steps cover the four axis directions.
        let tagged = |coords: &[(i64, i64, i64, i64)]| -> Vec<TaggedSegment> {
            let tag = |(&(ax, ay, bx, by), region)| TaggedSegment { segment: Segment::new(pt(ax, ay), pt(bx, by)), region };
            coords.iter().zip(0..).map(tag).collect()
        };
        let star = tagged(&[
            (0, 0, 3, -1),
            (10, 10, 13, 9),
            (-2, 2, 1, 1),
            (0, 0, 4, -8),
            (0, 0, 5, 0),
            (20, 3, 17, 3),
            (0, 0, 0, 6),
            (30, 9, 30, -1),
            (0, 0, 2, 1),
            (9, 9, 5, 7),
            (0, 0, 1, 7),
            (1, -3, 8, 4),
        ]);
        assert_eq!(check_angle_keys("star", &star), 7);
        // A rectilinear map has two classes, neither below the x axis.
        let rectilinear = instance_segments(&datagen::jittered_overlap_map(4, 4, 12, 1996));
        assert_eq!(check_angle_keys("rectilinear", &rectilinear), 2);

        // Rational directions: the fixtures under a shear, a rotation and a
        // non-uniform scaling with fractional coefficients.
        let q = |n: i128, d: i128| Rational::new(n, d);
        let skew = AffineMap { a: q(2, 3), b: q(1, 5), c: q(1, 7), d: q(-1, 4), e: q(3, 2), f: q(0, 1) };
        let turned = AffineMap::rotate90().compose(&AffineMap::scaling(q(5, 3), q(1, 2)));
        let maps = [skew, AffineMap::shear_x(q(3, 7)), turned].map(PlaneTransform::Affine);
        let instances = [
            fixtures::fig_1c(),
            fixtures::fig_1d(),
            fixtures::ring(),
            fixtures::petals_abcd(),
            fixtures::ring_with_island(true),
        ];
        for (m, map) in maps.iter().enumerate() {
            for (i, instance) in instances.iter().enumerate() {
                let image = map.apply_instance(instance).expect("an invertible affine map");
                check_angle_keys(&format!("map {m}, instance {i}"), &instance_segments(&image));
            }
        }
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
