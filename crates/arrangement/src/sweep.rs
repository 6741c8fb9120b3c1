//! Bentley–Ottmann plane sweep over the region-boundary segments.
//!
//! This is the production splitter behind [`crate::split::split_segments`]:
//! it computes, for every input segment, the set of points at which it must
//! be cut — the same cut sets the naive all-pairs oracle produces — in
//! `O((n + k) log n)` time for `n` segments with `k` intersection
//! incidences, instead of the oracle's `O(n^2)` pairwise tests.
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
//! 2. if that run plus the segments starting at `p` involves ≥ 2 segments,
//!    `p` is an intersection point: record it as a cut on all of them,
//! 3. remove the run, reinsert the segments continuing through `p` together
//!    with those starting at `p` in the order *just after* `p` (by slope,
//!    vertical last — [`Segment::slope_cmp`]), and
//! 4. test the at-most-two newly adjacent pairs for future crossings,
//!    enqueueing any crossing point lexicographically greater than `p`.
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
//! * **collinear overlaps** — handled *before* the sweep by grouping
//!   segments by supporting line: within a group, every endpoint of a group
//!   member lying on a segment cuts that segment, which reproduces exactly
//!   the oracle's overlap cuts (the endpoints of each pairwise overlap).
//!   Inside the status, collinear segments are tie-broken by index; they
//!   never cross, so the tie-break never needs to flip. Because the
//!   collinear pass owns these cuts completely, the sweep proper registers
//!   an event point as a cut **only when segments of at least two distinct
//!   supporting lines pass through it** — an all-collinear batch (which can
//!   only arise at a segment endpoint) adds nothing the collinear pass has
//!   not already recorded.
//!
//! The status itself is a sorted `Vec`: ordering queries are `O(log n)`
//! exact-`Rational` comparisons and the `memmove` cost of batch
//! insert/remove is far cheaper in practice than a pointer-chasing balanced
//! tree at the instance sizes the workloads produce.

use crate::split::{assemble_subsegments, endpoint_cuts, CutSets, SubSegment, TaggedSegment};
use spatial_core::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Split all segments at their mutual intersection points via the plane
/// sweep and merge coincident pieces.
///
/// The output is identical — sub-segment for sub-segment — to
/// [`crate::split::split_segments_naive`]; the differential test suite
/// asserts exactly that.
pub fn split_segments_sweep(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    let cuts = sweep_cut_sets(segments);
    assemble_subsegments(segments, &cuts)
}

/// The cut sets of every segment, computed by the plane sweep: each
/// segment's own endpoints, every intersection point it is involved in, and
/// the endpoints of every collinear overlap it participates in.
pub fn sweep_cut_sets(segments: &[TaggedSegment]) -> CutSets {
    let mut cuts = endpoint_cuts(segments);
    collinear_overlap_cuts(segments, &mut cuts);
    let segs: Vec<Segment> = segments.iter().map(|t| t.segment).collect();
    Sweep::new(&segs).run(&mut cuts);
    cuts
}

// ---------------------------------------------------------------------------
// Collinear overlaps: supporting-line groups
// ---------------------------------------------------------------------------

/// Canonical key of the supporting line of a segment: the coefficients
/// `(A, B, C)` of `A*x + B*y = C`, scaled so the leading nonzero of
/// `(A, B)` is `1`. Exact, so two segments get the same key iff they are
/// collinear.
fn line_key(s: &Segment) -> (Rational, Rational, Rational) {
    let d = s.direction();
    // Normal form: (dy) * x + (-dx) * y = dy * a.x - dx * a.y.
    let (a, b) = (d.dy, -d.dx);
    let c = a * s.a.x + b * s.a.y;
    if !a.is_zero() {
        (Rational::ONE, b / a, c / a)
    } else {
        (Rational::ZERO, Rational::ONE, c / b)
    }
}

/// Register the cuts arising from collinear overlaps: for every maximal
/// group of collinear segments, every endpoint of a group member lying on a
/// segment of the group cuts that segment.
///
/// This reproduces the oracle's overlap handling exactly: for a pair with
/// overlap `[lo, hi]`, the oracle cuts both segments at `lo` and `hi`, and
/// each of `lo`, `hi` is an endpoint of one of the two segments contained in
/// the other; conversely an endpoint of `t` contained in collinear `s` is an
/// endpoint of the pair's overlap.
fn collinear_overlap_cuts(segments: &[TaggedSegment], cuts: &mut CutSets) {
    let mut groups: BTreeMap<(Rational, Rational, Rational), Vec<usize>> = BTreeMap::new();
    for (i, ts) in segments.iter().enumerate() {
        groups.entry(line_key(&ts.segment)).or_default().push(i);
    }
    for members in groups.into_values() {
        if members.len() < 2 {
            continue;
        }
        // Lexicographic point order is monotone along a line, so a sorted
        // endpoint list supports range extraction per segment.
        let mut endpoints: Vec<Point> = members
            .iter()
            .flat_map(|&i| {
                let s = &segments[i].segment;
                [s.sweep_source(), s.sweep_target()]
            })
            .collect();
        endpoints.sort();
        endpoints.dedup();
        for &i in &members {
            let (lo, hi) = (segments[i].segment.sweep_source(), segments[i].segment.sweep_target());
            let from = endpoints.partition_point(|p| *p < lo);
            let to = endpoints.partition_point(|p| *p <= hi);
            for p in &endpoints[from..to] {
                cuts[i].insert(*p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sweep proper
// ---------------------------------------------------------------------------

struct Sweep<'a> {
    segments: &'a [Segment],
    /// Event queue: the key order (lexicographic point order) is the sweep
    /// order; the value is the list of segments whose sweep source is the
    /// point. Crossing events discovered later are inserted with an empty
    /// list.
    queue: BTreeMap<Point, Vec<usize>>,
    /// Active segments, ordered bottom-to-top along the sweep line.
    status: Vec<usize>,
}

impl<'a> Sweep<'a> {
    fn new(segments: &'a [Segment]) -> Self {
        let mut queue: BTreeMap<Point, Vec<usize>> = BTreeMap::new();
        for (i, s) in segments.iter().enumerate() {
            queue.entry(s.sweep_source()).or_default().push(i);
            // Ensure the removal event exists even if nothing starts there.
            queue.entry(s.sweep_target()).or_default();
        }
        Sweep { segments, queue, status: Vec::new() }
    }

    fn seg(&self, i: usize) -> &Segment {
        &self.segments[i]
    }

    fn run(mut self, cuts: &mut [std::collections::BTreeSet<Point>]) {
        let mut events = 0u64;
        while let Some((p, starters)) = self.queue.pop_first() {
            self.handle_event(p, starters, cuts);
            events += 1;
        }
        crate::counters::add_events_processed(events);
    }

    fn handle_event(
        &mut self,
        p: Point,
        starters: Vec<usize>,
        cuts: &mut [std::collections::BTreeSet<Point>],
    ) {
        // The run of status segments containing p. The status is ordered
        // with respect to `cmp_at_sweep` at p (all events before p have been
        // processed), so the run is contiguous and binary-searchable.
        let lo = self.status.partition_point(|&s| self.seg(s).cmp_at_sweep(&p) == Ordering::Less);
        let hi = lo
            + self.status[lo..]
                .partition_point(|&s| self.seg(s).cmp_at_sweep(&p) == Ordering::Equal);

        // Cut registration: p is an intersection point iff segments of at
        // least two distinct supporting lines pass through it. (Plain
        // endpoints are pre-seeded in the cut sets, and an all-collinear
        // batch — only possible at a segment endpoint — is fully covered by
        // the collinear-overlap pass, so neither needs bookkeeping here.
        // Segments through a common point are collinear iff their directions
        // are parallel.)
        if (hi - lo) + starters.len() >= 2 {
            let mut through = self.status[lo..hi].iter().chain(starters.iter()).copied();
            let d0 = self.seg(through.next().expect("batch has >= 2 segments")).direction();
            let multi_line = through.any(|s| !d0.cross(&self.seg(s).direction()).is_zero());
            if multi_line {
                for &s in &self.status[lo..hi] {
                    cuts[s].insert(p);
                }
                for &s in &starters {
                    cuts[s].insert(p);
                }
            }
        }

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
    /// of the sweep. Collinear overlaps are ignored here: their cuts are
    /// precomputed from the supporting-line groups and need no events beyond
    /// the segment endpoints, which are events already.
    fn test_pair(&mut self, a: usize, b: usize, after: &Point) {
        if let SegmentIntersection::Point(ip) = self.seg(a).intersect(self.seg(b)) {
            if ip > *after {
                self.queue.entry(ip).or_default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{instance_segments, split_segments_naive};
    use spatial_core::fixtures;
    use spatial_core::point::pt;

    fn tagged(segs: &[Segment]) -> Vec<TaggedSegment> {
        segs.iter()
            .enumerate()
            .map(|(i, s)| TaggedSegment { segment: *s, region: i })
            .collect()
    }

    fn assert_matches_oracle(segs: &[TaggedSegment], context: &str) {
        let sweep = split_segments_sweep(segs);
        let naive = split_segments_naive(segs);
        assert_eq!(sweep, naive, "sweep != oracle on {context}");
    }

    #[test]
    fn line_key_is_canonical() {
        // Same line, different parameterizations and orientations.
        let k1 = line_key(&seg(0, 0, 2, 2));
        let k2 = line_key(&seg(5, 5, 3, 3));
        let k3 = line_key(&seg(-1, -1, 7, 7));
        assert_eq!(k1, k2);
        assert_eq!(k1, k3);
        // Parallel but distinct lines differ.
        assert_ne!(k1, line_key(&seg(0, 1, 2, 3)));
        // Vertical and horizontal lines are canonical too.
        assert_eq!(line_key(&seg(2, 0, 2, 5)), line_key(&seg(2, 9, 2, 7)));
        assert_ne!(line_key(&seg(2, 0, 2, 5)), line_key(&seg(3, 0, 3, 5)));
        assert_eq!(line_key(&seg(0, 4, 5, 4)), line_key(&seg(9, 4, 7, 4)));
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
