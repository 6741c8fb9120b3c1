//! Bentley–Ottmann plane sweep over the region-boundary segments.
//!
//! This is the production splitter: `sweep` computes, for every input
//! segment, the set of points at which it must be cut — the same cut sets
//! the naive all-pairs oracle produces — in `O((n + k) log n)` time for `n`
//! segments with `k` intersection incidences, instead of the oracle's
//! `O(n^2)` pairwise tests, and emits them ranked
//! (`RankedSplit`): a point table and each segment's cut set as ranks
//! into it. [`split_segments_sweep`] turns that split into
//! [`SubSegment`]s.
//!
//! The output is ranked in event order. Every cut point is an event, and
//! the events pop in ascending order, each point once, with every segment
//! through it in its batch; so the `k`-th event's point is the `k`-th entry
//! of the table, and each segment through it gets the cut of rank `k`. The
//! table is never sorted and no point is compared after the sweep: one
//! counting sort by segment (`Runs::grouped`) turns the `(segment, rank)`
//! incidences, found in ascending rank, into ascending runs. The output is
//! exact for every input segment whose cutters are all in the input: that
//! is every segment of a from-scratch build, and, when a rebuild re-splits
//! only the neighbourhood of a change (`crate::split::resplit`), every
//! affected segment of that neighbourhood.
//!
//! # Algorithm
//!
//! A vertical sweep line advances through *event points* in lexicographic
//! `(x, y)` order (the total order of [`spatial_core::point::Point`]). The
//! *status* is the sequence of segments currently intersected by the sweep
//! line, ordered bottom-to-top; it changes only at event points. Events are
//! the segment endpoints plus the crossing points discovered between
//! status-adjacent segments; since two segments can only cross after having
//! been adjacent, processing each event point `p` as a batch — in the style
//! of de Berg et al., *Computational Geometry*, ch. 2 — finds every
//! intersection:
//!
//! 1. binary-search the status for the (contiguous) run of segments
//!    containing `p`,
//! 2. append `p` to the point table and record it as a cut on every segment
//!    of that run and every segment starting at `p`,
//! 3. remove the run, reinsert the segments continuing through `p` together
//!    with those starting at `p` in the order *just after* `p` (by slope,
//!    vertical last — [`Segment::slope_cmp`]), and
//! 4. test the at-most-two newly adjacent pairs for future crossings,
//!    enqueueing any crossing point lexicographically greater than `p`.
//!
//! A segment's own endpoints are events whose batch holds it (it starts at
//! one and is in the run through the other), so they need no seeding.
//!
//! # Degeneracies
//!
//! All the configurations the oracle supports are handled exactly:
//!
//! * **endpoint touching** — an endpoint event whose point lies on other
//!   segments cuts those segments (steps 1–2);
//! * **several segments through one point** — the whole run through `p` is
//!   processed as one batch, whatever its size;
//! * **vertical segments** — ordered by their `y`-range at the shared
//!   abscissa ([`Segment::cmp_at_sweep`]) and placed above every non-vertical
//!   segment through the same point (slope `+inf`), which matches the
//!   lexicographic event order: the part of a vertical segment above `p` is
//!   exactly the part the sweep has not reached yet;
//! * **collinear overlaps** — cut by the event batches. The oracle cuts
//!   both segments of an overlap at its two ends, and each end is an
//!   endpoint of one of the two segments lying on the other: an event, whose
//!   batch holds every segment through it, collinear or not. Inside the
//!   status, collinear segments are tie-broken by index; they never cross,
//!   so the tie-break never needs to flip, and a pair of them is never
//!   tested for a crossing.
//!
//! The status itself is a sorted `Vec`: ordering queries are `O(log n)`
//! exact-`Rational` comparisons and the `memmove` cost of batch
//! insert/remove is far cheaper in practice than a pointer-chasing balanced
//! tree at the instance sizes the workloads produce.

use crate::runs::Runs;
use crate::split::{assemble_subsegments, RankedSplit, SubSegment, TaggedSegment};
use spatial_core::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Split all segments at their mutual intersection points via the plane
/// sweep and merge coincident pieces.
///
/// The output is identical — sub-segment for sub-segment — to
/// [`crate::split::split_segments_naive`]; the differential test suite
/// asserts exactly that.
pub fn split_segments_sweep(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    assemble_subsegments(segments, &sweep(segments))
}

/// The ranked split of `segments` by the plane sweep: the table of every
/// distinct cut point in event order, which is ascending, and each
/// segment's cut set as ranks into it — its own endpoints, every
/// intersection point it is involved in, and the endpoints of every
/// collinear overlap it participates in.
pub(crate) fn sweep(segments: &[TaggedSegment]) -> RankedSplit {
    Sweep::new(segments).run()
}

struct Sweep<'a> {
    segments: &'a [TaggedSegment],
    /// Event queue, least point first: one entry per segment whose sweep
    /// source is the point, plus an entry with no segment (`usize::MAX`) for
    /// every removal and crossing event, however often it is discovered. The
    /// entries of one point pop together, as one event.
    queue: BinaryHeap<Reverse<(Point, usize)>>,
    /// Active segments, ordered bottom-to-top along the sweep line.
    status: Vec<usize>,
}

/// The segment of a queue entry that names none.
const NO_STARTER: usize = usize::MAX;

impl<'a> Sweep<'a> {
    fn new(segments: &'a [TaggedSegment]) -> Self {
        let mut queue = Vec::with_capacity(2 * segments.len());
        for (i, t) in segments.iter().enumerate() {
            queue.push(Reverse((t.segment.sweep_source(), i)));
            // Ensure the removal event exists even if nothing starts there.
            queue.push(Reverse((t.segment.sweep_target(), NO_STARTER)));
        }
        Sweep { segments, queue: BinaryHeap::from(queue), status: Vec::new() }
    }

    fn seg(&self, i: usize) -> &Segment {
        &self.segments[i].segment
    }

    /// Pop every event, the `k`-th of rank `k`, and group the cuts by
    /// segment.
    fn run(mut self) -> RankedSplit {
        let mut points = Vec::with_capacity(2 * self.segments.len());
        let mut cuts: Vec<(usize, u32)> = Vec::with_capacity(4 * self.segments.len());
        let mut starters = Vec::new();
        while let Some(&Reverse((p, _))) = self.queue.peek() {
            // Every entry of `p`; its starting segments pop ascending.
            starters.clear();
            while self.queue.peek().is_some_and(|Reverse((q, _))| *q == p) {
                let Reverse((_, s)) = self.queue.pop().expect("the peeked entry");
                if s != NO_STARTER {
                    starters.push(s);
                }
            }
            let rank = u32::try_from(points.len()).expect("a split has fewer than 2^32 cut points");
            points.push(p);
            self.handle_event(p, rank, &starters, &mut cuts);
        }
        crate::counters::add_events_processed(points.len() as u64);
        RankedSplit { points, cuts: Runs::grouped(self.segments.len(), cuts.iter().copied()) }
    }

    fn handle_event(&mut self, p: Point, rank: u32, starters: &[usize], cuts: &mut Vec<(usize, u32)>) {
        // The run of status segments containing p. The status is ordered
        // with respect to `cmp_at_sweep` at p (all events before p have been
        // processed), so the run is contiguous and binary-searchable.
        let lo = self.status.partition_point(|&s| self.seg(s).cmp_at_sweep(&p) == Ordering::Less);
        let hi = lo
            + self.status[lo..]
                .partition_point(|&s| self.seg(s).cmp_at_sweep(&p) == Ordering::Equal);

        // p cuts every segment through it: those ending or continuing
        // through p, and those starting at p.
        cuts.extend(self.status[lo..hi].iter().chain(starters).map(|&s| (s, rank)));

        // Replace the run with the segments continuing through p plus the
        // segments starting at p, in the order just after p: ascending
        // slope, vertical (slope +inf) last, collinear ties by index (they
        // never reorder).
        let mut block: Vec<usize> = self.status[lo..hi]
            .iter()
            .copied()
            .filter(|&s| self.seg(s).sweep_target() != p)
            .chain(starters.iter().copied())
            .collect();
        block.sort_by(|&a, &b| self.seg(a).slope_cmp(self.seg(b)).then(a.cmp(&b)));
        let block_len = block.len();
        self.status.splice(lo..hi, block);

        // Newly adjacent pairs: below the block and above the block — or,
        // if everything ended at p, the single pair the removal closed up.
        if block_len > 0 {
            if lo > 0 {
                self.test_pair(self.status[lo - 1], self.status[lo], &p);
            }
            let top = lo + block_len - 1;
            if top + 1 < self.status.len() {
                self.test_pair(self.status[top], self.status[top + 1], &p);
            }
        } else if lo > 0 && lo < self.status.len() {
            self.test_pair(self.status[lo - 1], self.status[lo], &p);
        }
    }

    /// Enqueue the crossing of two status-adjacent segments if it lies ahead
    /// of the sweep. A collinear overlap needs no event here: its ends are
    /// segment endpoints, which are events already.
    fn test_pair(&mut self, a: usize, b: usize, after: &Point) {
        if let SegmentIntersection::Point(ip) = self.seg(a).intersect(self.seg(b)) {
            if ip > *after {
                self.queue.push(Reverse((ip, NO_STARTER)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{instance_segments, naive_cut_sets, split_segments_naive};
    use spatial_core::fixtures;
    use spatial_core::point::pt;

    fn tagged(segs: &[Segment]) -> Vec<TaggedSegment> {
        segs.iter()
            .enumerate()
            .map(|(i, s)| TaggedSegment { segment: *s, region: i })
            .collect()
    }

    /// The sweep against the naive splitter: the same sub-segments, a point
    /// table that is the sorted, distinct union of the naive cut sets, and
    /// every ranked run resolving to its segment's naive cut set.
    fn assert_matches_oracle(segs: &[TaggedSegment], context: &str) {
        let subs = split_segments_sweep(segs);
        let naive = split_segments_naive(segs);
        assert_eq!(subs, naive, "sweep != oracle on {context}");

        let split = sweep(segs);
        let cuts = naive_cut_sets(segs);
        let mut table = cuts.items().to_vec();
        table.sort_unstable();
        table.dedup();
        assert_eq!(split.points, table, "point table != the oracle's cut points on {context}");
        assert_eq!(split.resolved(), cuts, "ranked cut sets != the oracle's on {context}");
    }

    #[test]
    fn proper_crossing_is_cut() {
        let segs = tagged(&[seg(0, 0, 4, 4), seg(0, 4, 4, 0)]);
        let subs = split_segments_sweep(&segs);
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().all(|s| s.a == pt(2, 2) || s.b == pt(2, 2)));
        assert_matches_oracle(&segs, "proper crossing");
    }

    #[test]
    fn three_segments_through_one_point() {
        let segs = tagged(&[seg(0, 0, 4, 4), seg(0, 4, 4, 0), seg(0, 2, 4, 2)]);
        let subs = split_segments_sweep(&segs);
        // Every segment is cut once at (2, 2): 6 pieces.
        assert_eq!(subs.len(), 6);
        assert_matches_oracle(&segs, "three through one point");
    }

    #[test]
    fn vertical_segment_crossings() {
        // A vertical segment crossed by two others at interior points.
        let segs = tagged(&[seg(2, -3, 2, 5), seg(0, 0, 4, 0), seg(0, 4, 4, 0)]);
        assert_matches_oracle(&segs, "vertical crossed twice");
        // Vertical endpoint touching another segment's interior.
        let segs = tagged(&[seg(2, 0, 2, 4), seg(0, 0, 4, 0)]);
        assert_matches_oracle(&segs, "vertical endpoint touch");
        // Two verticals at the same abscissa, disjoint and touching.
        let segs = tagged(&[seg(2, 0, 2, 2), seg(2, 2, 2, 5), seg(2, 7, 2, 9)]);
        assert_matches_oracle(&segs, "stacked verticals");
    }

    #[test]
    fn collinear_overlap_chain() {
        // A chain of collinear segments with pairwise overlaps.
        let segs = tagged(&[seg(0, 0, 4, 0), seg(2, 0, 6, 0), seg(5, 0, 9, 0)]);
        assert_matches_oracle(&segs, "collinear overlap chain");
        // A segment fully inside another, same line.
        let segs = tagged(&[seg(0, 0, 9, 0), seg(3, 0, 5, 0)]);
        assert_matches_oracle(&segs, "nested collinear");
        // Collinear diagonal overlaps crossed by a transversal.
        let segs = tagged(&[seg(0, 0, 4, 4), seg(2, 2, 6, 6), seg(0, 5, 5, 0)]);
        assert_matches_oracle(&segs, "diagonal overlap plus transversal");
        // Vertical overlaps, one nested, given in either orientation.
        let segs = tagged(&[seg(3, 0, 3, 6), seg(3, 9, 3, 4), seg(3, 1, 3, 2), seg(0, 5, 6, 5)]);
        assert_matches_oracle(&segs, "vertical overlaps plus transversal");
    }

    #[test]
    fn fixtures_match_oracle() {
        for (name, inst) in [
            ("fig_1a", fixtures::fig_1a()),
            ("fig_1b", fixtures::fig_1b()),
            ("fig_1c", fixtures::fig_1c()),
            ("fig_1d", fixtures::fig_1d()),
            ("petals_abcd", fixtures::petals_abcd()),
            ("ring", fixtures::ring()),
            ("nested_three", fixtures::nested_three()),
            ("shared_boundary", fixtures::shared_boundary()),
        ] {
            assert_matches_oracle(&instance_segments(&inst), name);
        }
        for (name, inst) in fixtures::fig_2_pairs() {
            assert_matches_oracle(&instance_segments(&inst), name);
        }
    }
}
