//! Intra-component parallel sweep: x-strip decomposition of the
//! Bentley–Ottmann splitting phase, with exact seam reconciliation.
//!
//! [`crate::partition`] parallelizes construction *across* interaction
//! components, but a crossing-heavy map that forms one big component (the
//! `dense_overlap_map` workload) still runs its entire sweep on a single
//! thread. This module splits that sweep itself: the event-x range is
//! partitioned into `k` vertical strips at exact rational *seam* abscissas
//! placed by a crossing-density cost model (so strips carry comparable
//! **event** counts, not merely comparable endpoint counts — see
//! [`strip_seams`] and the seam-placement section below), every segment is
//! clipped to each strip it overlaps, the strips are swept concurrently on
//! the [`crate::parallel`] scope pool, and the per-strip cut sets are
//! stitched back onto the original segments.
//!
//! # Seam placement: the crossing-density cost model
//!
//! Where the seams land decides the load balance, and the obvious policy —
//! quantiles of the endpoint-x multiset, the original implementation, kept
//! as [`quantile_seams`] — is wrong exactly on the instances that need
//! strips most. A sweep's work is proportional to its *events* (endpoints
//! plus crossings), and crossings scale quadratically where segments
//! cluster: `k` mutually crossing segments carry `Θ(k²)` events on `Θ(k)`
//! endpoints, so endpoint quantiles give a crossing-dense cluster one
//! strip's worth of seams when it deserves most of them. The cost model
//! fixes this with one [`crate::SpatialIndex`] probe per segment: the
//! segment's bbox-overlap count estimates the events it participates in
//! (overlapping boxes are exactly the candidate crossing partners), that
//! mass is deposited at the segment's endpoint abscissas, and seams are
//! placed at equal *cumulative cost* instead of equal endpoint count.
//! Seam candidates remain endpoint abscissas, so every exactness property
//! of the reconciliation argument below is unchanged — the cost model only
//! moves *which* abscissas are chosen. The per-strip processed-event
//! diagnostics ([`strip_event_counts`] / [`strip_event_counts_quantile`])
//! quantify the win and feed the `strip_sweep` benchmark's skew metrics.
//!
//! # Seam reconciliation, exactly
//!
//! The sweep phase's entire output is the [`CutSets`] — for each input
//! segment, the set of points where it must be cut. Downstream construction
//! (sub-segment assembly, chain merging, face walks, labeling) runs once over
//! the merged cut sets, so the half-edge cycles are globally consistent by
//! construction and the stitching problem reduces to making the merged cut
//! sets **identical** — not merely equivalent — to the serial sweep's:
//!
//! * **Duplicated discoveries** (an intersection at a seam abscissa is seen
//!   by both adjacent strips) merge for free: cut sets are sets.
//! * **Spurious seam cuts** are the real hazard. Clipping creates
//!   *artificial* endpoints at seams, and two **collinear** overlapping
//!   pieces both end at the same artificial seam point — which is an interior
//!   point of their overlap and must *not* become a cut. Two defenses make
//!   the strip sweep exact: the sweep proper only registers an event as a
//!   cut when pieces of **two distinct supporting lines** pass through it
//!   (any two such pieces genuinely intersect there, wherever the seams
//!   are — see [`crate::sweep`]), and the per-strip collinear-overlap pass
//!   only collects **real** endpoints (clip endpoints that coincide with an
//!   endpoint of the original segment).
//! * **Nothing is missed.** An intersection point `p` with abscissa strictly
//!   inside a strip is surrounded by exactly the clipped pieces of the
//!   segments through `p`, so the strip's sweep sees the same batch the
//!   serial sweep would. If `p` lies exactly on a seam, every segment
//!   extending to at least one side of the seam has a non-degenerate piece
//!   containing `p` in the corresponding strip (a piece that would clip to a
//!   single point is dropped); pairs whose only contact is a shared original
//!   endpoint at the seam are already covered by the endpoint seeding of
//!   [`endpoint_cuts`], and every other pair coexists in at least one
//!   adjacent strip.
//!
//! [`split_segments_striped`] is therefore *output-identical* — sub-segment
//! for sub-segment, and hence fingerprint-identical after complex
//! construction — to [`crate::split::split_segments`] for **every** strip
//! and thread count; `tests/strip_differential.rs` and
//! `tests/thread_determinism.rs` pin this against the serial sweep and the
//! all-pairs oracle on fixtures, randomized dense instances and every
//! strips × threads combination.
//!
//! # Routing
//!
//! A component build with a thread budget above 1 and at least
//! [`STRIP_MIN_SEGMENTS`] segments uses one strip per budgeted thread;
//! everything else takes the monolithic sweep — the decomposition has a
//! per-strip cost (clipping plus seam events), so tiny components are faster
//! unsplit, and components below the threshold typically coexist with many
//! siblings that the component-level pool already spreads across cores.

use crate::parallel::{configured_threads, map_indexed};
use crate::split::{assemble_subsegments, endpoint_cuts, CutSets, SubSegment, TaggedSegment};
use crate::sweep::{line_key, sweep_segment_cuts};
use spatial_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Components with at least this many boundary segments route their
/// splitting phase through the strip decomposition; smaller ones sweep
/// monolithically.
pub const STRIP_MIN_SEGMENTS: usize = 256;

/// Split segments at their mutual intersections with the full configured
/// thread count ([`configured_threads`]) as the budget: striped for large
/// inputs, monolithic for small ones (see the module docs' "Routing"
/// section). The two are output-identical.
pub fn split_segments_auto(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    split_segments_within(segments, configured_threads())
}

/// The routing behind [`split_segments_auto`], for callers that already run
/// on a parallel pool and own only a share of it ([`strip_budget`]).
pub(crate) fn split_segments_within(segments: &[TaggedSegment], budget: usize) -> Vec<SubSegment> {
    match strips_for(segments.len(), budget) {
        1 => crate::split::split_segments(segments),
        strips => split_segments_striped(segments, strips, budget),
    }
}

/// One strip per budgeted thread for components of at least
/// [`STRIP_MIN_SEGMENTS`] segments, the monolithic sweep (1) otherwise.
fn strips_for(segment_count: usize, budget: usize) -> usize {
    if segment_count >= STRIP_MIN_SEGMENTS {
        budget.max(1)
    } else {
        1
    }
}

/// The per-item strip budget for a pool running `parallel_items` concurrent
/// component builds on `threads` workers: the whole budget when there is
/// nothing to share it with, an even share (at least 1, i.e. serial) once
/// the component-level fan-out itself occupies the pool. Keeps nested
/// strip × component parallelism at roughly `threads` total workers.
pub fn strip_budget(parallel_items: usize, threads: usize) -> usize {
    (threads / parallel_items.max(1)).max(1)
}

/// Split all segments at their mutual intersection points via `strips`
/// concurrent x-strip sweeps on up to `threads` worker threads, and merge
/// coincident pieces.
///
/// The output is identical — sub-segment for sub-segment — to
/// [`crate::split::split_segments`] for every `strips`/`threads` value.
pub fn split_segments_striped(
    segments: &[TaggedSegment],
    strips: usize,
    threads: usize,
) -> Vec<SubSegment> {
    let cuts = sweep_cut_sets_striped(segments, strips, threads);
    assemble_subsegments(segments, &cuts)
}

/// The cut sets of every segment, computed by `strips` concurrent x-strip
/// sweeps and stitched back together. Identical to
/// [`crate::sweep::sweep_cut_sets`] for every `strips`/`threads` value;
/// falls back to the monolithic sweep when the input is too small (or too
/// degenerate — e.g. all endpoints on one abscissa) to yield interior seams.
pub fn sweep_cut_sets_striped(
    segments: &[TaggedSegment],
    strips: usize,
    threads: usize,
) -> CutSets {
    let seams = strip_seams(segments, strips);
    if seams.is_empty() {
        return crate::sweep::sweep_cut_sets(segments);
    }
    let mut cuts = endpoint_cuts(segments);
    let strip_count = seams.len() + 1;
    let per_strip = map_indexed(strip_count, threads, |s| {
        let lo = if s == 0 { None } else { Some(seams[s - 1]) };
        let hi = if s == seams.len() { None } else { Some(seams[s]) };
        strip_cuts(segments, lo, hi).0
    });
    for strip in per_strip {
        for (original, points) in strip {
            cuts[original].extend(points);
        }
    }
    cuts
}

/// The interior seam abscissas for a `strips`-way decomposition, placed by
/// the crossing-density **cost model**: each segment's event mass is
/// estimated as its bbox-overlap count (one [`crate::SpatialIndex`] probe
/// per segment — overlapping boxes are exactly the candidate crossing
/// partners, so the count is a cheap, conservative stand-in for the events
/// the sweep will process around that segment), the mass is deposited at the
/// segment's two endpoint abscissas, and seams are read off at equal
/// cumulative cost. A crossing-dense cluster therefore attracts
/// proportionally more seams than an endpoint-x quantile would give it —
/// quantiles weight every endpoint equally, but a cluster of `k` mutually
/// crossing segments carries `Θ(k²)` events on `Θ(k)` endpoints, so
/// quantile seams starve it (see [`quantile_seams`], kept as the
/// pre-cost-model policy for the load-imbalance diagnostics).
///
/// Strictly increasing; may hold fewer than `strips - 1` values (duplicated
/// cost quantiles collapse), and is empty when no interior seam exists.
/// Deterministic in the input and `strips` alone.
pub fn strip_seams(segments: &[TaggedSegment], strips: usize) -> Vec<Rational> {
    if strips <= 1 || segments.len() < 2 {
        return Vec::new();
    }
    let boxes: Vec<Option<crate::partition::BBox>> = segments
        .iter()
        .map(|t| Some(crate::partition::BBox::of_segment(&t.segment)))
        .collect();
    let index = crate::index::SpatialIndex::build(&boxes);
    // Event mass per endpoint abscissa: the segment's bbox-neighbor count
    // (includes itself, so every segment carries at least mass 1).
    let mut weighted: Vec<(Rational, u64)> = Vec::with_capacity(segments.len() * 2);
    for (i, t) in segments.iter().enumerate() {
        let mass = index
            .bbox_neighbors(boxes[i].as_ref().expect("every segment has a box"))
            .len() as u64;
        weighted.push((t.segment.a.x, mass));
        weighted.push((t.segment.b.x, mass));
    }
    weighted.sort_by_key(|&(x, _)| x);
    let total: u64 = weighted.iter().map(|(_, w)| w).sum();
    let (min_x, max_x) = (weighted[0].0, weighted[weighted.len() - 1].0);
    let mut seams = Vec::new();
    let mut cumulative = 0u64;
    let mut next_seam = 1usize;
    for (x, w) in &weighted {
        if next_seam >= strips {
            break;
        }
        cumulative += w;
        // Exact integer comparison of cumulative/total >= next_seam/strips.
        while next_seam < strips && cumulative * strips as u64 >= next_seam as u64 * total {
            if *x > min_x && *x < max_x && seams.last() != Some(x) {
                seams.push(*x);
            }
            next_seam += 1;
        }
    }
    seams
}

/// The pre-cost-model seam policy: seams at quantiles of the endpoint-x
/// multiset, weighting every endpoint equally. Retained as the comparison
/// baseline for the load-imbalance diagnostics
/// ([`strip_event_counts_quantile`]) — it balances endpoint counts, not
/// event counts, and mishandles instances whose crossings cluster away from
/// their endpoint mass. Same invariants as [`strip_seams`]: strictly
/// increasing, interior, deterministic.
pub fn quantile_seams(segments: &[TaggedSegment], strips: usize) -> Vec<Rational> {
    if strips <= 1 || segments.len() < 2 {
        return Vec::new();
    }
    let mut xs: Vec<Rational> =
        segments.iter().flat_map(|t| [t.segment.a.x, t.segment.b.x]).collect();
    xs.sort();
    let n = xs.len();
    let (min_x, max_x) = (xs[0], xs[n - 1]);
    let mut seams = Vec::new();
    for i in 1..strips {
        let candidate = xs[i * n / strips];
        if candidate > min_x && candidate < max_x && seams.last() != Some(&candidate) {
            seams.push(candidate);
        }
    }
    seams
}

/// Per-strip processed-event counts of a `strips`-way decomposition under
/// the cost-model seams ([`strip_seams`]) — the load-balance diagnostic the
/// `strip_sweep` benchmark reports (max/mean over this vector is the seam
/// skew). Runs each strip's sweep serially; a single-element vector means no
/// interior seam existed and the sweep ran monolithically.
pub fn strip_event_counts(segments: &[TaggedSegment], strips: usize) -> Vec<u64> {
    event_counts_for_seams(segments, &strip_seams(segments, strips))
}

/// Per-strip processed-event counts under the endpoint-x quantile seams
/// ([`quantile_seams`]) — the comparison baseline quantifying what the cost
/// model wins on crossing-clustered instances.
pub fn strip_event_counts_quantile(segments: &[TaggedSegment], strips: usize) -> Vec<u64> {
    event_counts_for_seams(segments, &quantile_seams(segments, strips))
}

fn event_counts_for_seams(segments: &[TaggedSegment], seams: &[Rational]) -> Vec<u64> {
    if seams.is_empty() {
        let mut cuts = endpoint_cuts(segments);
        let segs: Vec<Segment> = segments.iter().map(|t| t.segment).collect();
        return vec![crate::sweep::sweep_segment_cuts(&segs, &mut cuts)];
    }
    (0..=seams.len())
        .map(|s| {
            let lo = if s == 0 { None } else { Some(seams[s - 1]) };
            let hi = if s == seams.len() { None } else { Some(seams[s]) };
            strip_cuts(segments, lo, hi).1
        })
        .collect()
}

/// One segment clipped to a strip.
struct Clipped {
    /// The clipped piece (sweep source = left endpoint).
    segment: Segment,
    /// Index of the original segment in the input slice.
    original: usize,
    /// Does the piece's sweep source coincide with an original endpoint?
    source_real: bool,
    /// Does the piece's sweep target coincide with an original endpoint?
    target_real: bool,
}

/// Clip a segment to the closed x-interval `[lo, hi]` (`None` = unbounded).
/// Returns the piece plus real-endpoint flags, or `None` when the
/// intersection is empty or a single point (a non-vertical segment touching
/// a seam contributes nothing beyond its pre-seeded endpoint there).
fn clip_to_strip(
    s: &Segment,
    lo: Option<Rational>,
    hi: Option<Rational>,
) -> Option<(Segment, bool, bool)> {
    let src = s.sweep_source();
    let dst = s.sweep_target();
    if s.is_vertical() {
        let x = src.x;
        let inside = lo.is_none_or(|l| x >= l) && hi.is_none_or(|h| x <= h);
        return inside.then_some((*s, true, true));
    }
    let cx0 = match lo {
        Some(l) if l > src.x => l,
        _ => src.x,
    };
    let cx1 = match hi {
        Some(h) if h < dst.x => h,
        _ => dst.x,
    };
    if cx0 >= cx1 {
        return None;
    }
    let source_real = cx0 == src.x;
    let target_real = cx1 == dst.x;
    let a = if source_real { src } else { Point::new(cx0, s.y_at(cx0)) };
    let b = if target_real { dst } else { Point::new(cx1, s.y_at(cx1)) };
    Some((Segment::new(a, b), source_real, target_real))
}

/// The intersection cuts contributed by one strip, as `(original segment,
/// cut points)` pairs plus the strip's processed-event count: clip, run the
/// seam-restricted collinear pass, sweep.
fn strip_cuts(
    segments: &[TaggedSegment],
    lo: Option<Rational>,
    hi: Option<Rational>,
) -> (Vec<(usize, BTreeSet<Point>)>, u64) {
    let mut clipped: Vec<Clipped> = Vec::new();
    for (i, ts) in segments.iter().enumerate() {
        if let Some((segment, source_real, target_real)) = clip_to_strip(&ts.segment, lo, hi) {
            clipped.push(Clipped { segment, original: i, source_real, target_real });
        }
    }
    let mut local: Vec<BTreeSet<Point>> = vec![BTreeSet::new(); clipped.len()];
    collinear_real_endpoint_cuts(&clipped, &mut local);
    let segs: Vec<Segment> = clipped.iter().map(|c| c.segment).collect();
    let events = sweep_segment_cuts(&segs, &mut local);
    let cuts = clipped
        .iter()
        .zip(local)
        .filter(|(_, points)| !points.is_empty())
        .map(|(c, points)| (c.original, points))
        .collect();
    (cuts, events)
}

/// The seam-restricted collinear-overlap pass: like
/// `sweep::collinear_overlap_cuts`, but over clipped pieces and collecting
/// only **real** endpoints — an artificial seam endpoint is an interior
/// point of any overlap it lies in, and registering it would cut where the
/// serial sweep does not.
fn collinear_real_endpoint_cuts(clipped: &[Clipped], cuts: &mut [BTreeSet<Point>]) {
    let mut groups: BTreeMap<(Rational, Rational, Rational), Vec<usize>> = BTreeMap::new();
    for (i, c) in clipped.iter().enumerate() {
        groups.entry(line_key(&c.segment)).or_default().push(i);
    }
    for members in groups.into_values() {
        if members.len() < 2 {
            continue;
        }
        let mut endpoints: Vec<Point> = Vec::new();
        for &i in &members {
            let c = &clipped[i];
            if c.source_real {
                endpoints.push(c.segment.sweep_source());
            }
            if c.target_real {
                endpoints.push(c.segment.sweep_target());
            }
        }
        endpoints.sort();
        endpoints.dedup();
        // Lexicographic point order is monotone along the common line, so a
        // sorted endpoint list supports range extraction per piece.
        for &i in &members {
            let (piece_lo, piece_hi) =
                (clipped[i].segment.sweep_source(), clipped[i].segment.sweep_target());
            let from = endpoints.partition_point(|p| *p < piece_lo);
            let to = endpoints.partition_point(|p| *p <= piece_hi);
            for p in &endpoints[from..to] {
                cuts[i].insert(*p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{instance_segments, split_segments, split_segments_naive};
    use spatial_core::fixtures;

    fn assert_striped_matches(segments: &[TaggedSegment], context: &str) {
        let serial = split_segments(segments);
        for strips in [2usize, 3, 5, 8] {
            for threads in [1usize, 4] {
                let striped = split_segments_striped(segments, strips, threads);
                assert_eq!(
                    striped, serial,
                    "{context}: strips={strips} threads={threads} diverges from serial"
                );
            }
        }
        assert_eq!(serial, split_segments_naive(segments), "{context}: serial != oracle");
    }

    fn tagged(segs: &[Segment]) -> Vec<TaggedSegment> {
        segs.iter()
            .enumerate()
            .map(|(i, s)| TaggedSegment { segment: *s, region: i })
            .collect()
    }

    #[test]
    fn seams_are_interior_strictly_increasing_and_deterministic() {
        let inst = datagen_like_grid();
        let segs = instance_segments(&inst);
        for strips in [2usize, 3, 7] {
            let seams = strip_seams(&segs, strips);
            assert_eq!(seams, strip_seams(&segs, strips), "seams must be deterministic");
            assert!(seams.len() < strips);
            for w in seams.windows(2) {
                assert!(w[0] < w[1], "seams must be strictly increasing");
            }
            let xs: Vec<Rational> =
                segs.iter().flat_map(|t| [t.segment.a.x, t.segment.b.x]).collect();
            let (min, max) = (xs.iter().min().unwrap(), xs.iter().max().unwrap());
            for s in &seams {
                assert!(s > min && s < max, "seam {s:?} not interior");
            }
        }
        // Degenerate inputs yield no seams (and so fall back to serial).
        assert!(strip_seams(&[], 4).is_empty());
        assert!(strip_seams(&segs[..1], 4).is_empty());
        assert!(strip_seams(&tagged(&[seg(2, 0, 2, 5), seg(2, 1, 2, 9)]), 4).is_empty());
    }

    #[test]
    fn clipping_flags_real_and_artificial_endpoints() {
        let s = seg(0, 0, 8, 4);
        // Fully inside: both endpoints real.
        let (c, ar, br) = clip_to_strip(&s, None, None).unwrap();
        assert_eq!((c, ar, br), (s, true, true));
        // Clipped on the right at x=4: seam endpoint is artificial, exact.
        let (c, ar, br) =
            clip_to_strip(&s, None, Some(Rational::from_int(4))).unwrap();
        assert_eq!(c, seg(0, 0, 4, 2));
        assert!(ar && !br);
        // Clipped on both sides.
        let (c, ar, br) = clip_to_strip(
            &s,
            Some(Rational::from_int(2)),
            Some(Rational::from_int(6)),
        )
        .unwrap();
        assert_eq!(c, seg(2, 1, 6, 3));
        assert!(!ar && !br);
        // Touching a strip in a single point contributes nothing.
        assert!(clip_to_strip(&s, Some(Rational::from_int(8)), None).is_none());
        assert!(clip_to_strip(&s, None, Some(Rational::from_int(0))).is_none());
        // Disjoint.
        assert!(clip_to_strip(&s, Some(Rational::from_int(9)), None).is_none());
        // Vertical at a seam belongs to both adjacent strips, uncut.
        let v = seg(4, -1, 4, 5);
        assert_eq!(clip_to_strip(&v, None, Some(Rational::from_int(4))).unwrap().0, v);
        assert_eq!(clip_to_strip(&v, Some(Rational::from_int(4)), None).unwrap().0, v);
        assert!(clip_to_strip(&v, Some(Rational::from_int(5)), None).is_none());
    }

    #[test]
    fn collinear_overlap_across_a_seam_is_not_cut_at_the_seam() {
        // Two collinear horizontals overlapping on [2, 6]; any seam strictly
        // inside the overlap creates coincident artificial endpoints there.
        // The only genuine cuts are the overlap endpoints x=2 and x=6.
        let segs = tagged(&[seg(0, 0, 6, 0), seg(2, 0, 9, 0)]);
        assert_striped_matches(&segs, "collinear overlap across seam");
        // Same, diagonal, with a transversal crossing exactly at a likely
        // seam abscissa.
        let segs = tagged(&[seg(0, 0, 6, 6), seg(2, 2, 9, 9), seg(3, 5, 5, 1)]);
        assert_striped_matches(&segs, "diagonal overlap plus transversal");
    }

    #[test]
    fn crossings_and_verticals_at_seams_survive_stitching() {
        // Proper crossing exactly at an endpoint-quantile abscissa.
        let segs = tagged(&[seg(0, 0, 4, 4), seg(0, 4, 4, 0), seg(2, -1, 2, 5)]);
        assert_striped_matches(&segs, "crossings through a vertical at the seam");
        // Endpoint meeting at a seam from both sides.
        let segs = tagged(&[seg(0, 0, 2, 2), seg(2, 2, 4, 0), seg(2, 0, 2, 4)]);
        assert_striped_matches(&segs, "endpoint meeting at seam");
    }

    /// The adversarial instance for endpoint-quantile seams: a
    /// crossing-dense cluster (every pair of the `C*` rectangles' boundaries
    /// cross, so Θ(k²) events on Θ(k) endpoints) next to a wide chain of
    /// pairwise disjoint rectangles carrying as many endpoints but no
    /// crossings at all. Quantiles split the endpoint mass evenly and starve
    /// the cluster of seams; the cost model sees the cluster's bbox-overlap
    /// mass and concentrates seams there.
    fn adversarial_clustered_crossings() -> Vec<TaggedSegment> {
        let mut inst = SpatialInstance::new();
        for i in 0..12i64 {
            inst.insert(
                format!("C{i:02}"),
                Region::rect_from_ints(i, -i, 12 + i, 12 - i),
            );
        }
        for j in 0..12i64 {
            inst.insert(
                format!("S{j:02}"),
                Region::rect_from_ints(100 + 40 * j, 0, 108 + 40 * j, 8),
            );
        }
        instance_segments(&inst)
    }

    fn skew(counts: &[u64]) -> f64 {
        let max = *counts.iter().max().expect("nonempty") as f64;
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        max / mean
    }

    #[test]
    fn cost_model_seams_balance_clustered_crossings_better_than_quantiles() {
        let segs = adversarial_clustered_crossings();
        for strips in [3usize, 4, 6] {
            let cost = strip_event_counts(&segs, strips);
            let quantile = strip_event_counts_quantile(&segs, strips);
            assert!(cost.len() > 1 && quantile.len() > 1, "both policies must yield seams");
            // The bottleneck strip (what wall-clock waits on) must shrink,
            // and the max/mean skew must improve.
            let (cost_max, quant_max) =
                (*cost.iter().max().unwrap(), *quantile.iter().max().unwrap());
            assert!(
                cost_max < quant_max,
                "strips={strips}: cost-model bottleneck {cost_max} not below quantile {quant_max} \
                 (cost {cost:?}, quantile {quantile:?})"
            );
            assert!(
                skew(&cost) < skew(&quantile),
                "strips={strips}: cost-model skew {} not below quantile skew {} \
                 (cost {cost:?}, quantile {quantile:?})",
                skew(&cost),
                skew(&quantile)
            );
        }
        // And the decomposition stays output-identical under both policies'
        // seam abscissas (the cost model only moves which abscissas are
        // chosen, never weakens the reconciliation argument).
        assert_striped_matches(&segs, "adversarial clustered crossings");
    }

    #[test]
    fn quantile_seams_share_the_invariants() {
        let segs = instance_segments(&datagen_like_grid());
        for strips in [2usize, 3, 7] {
            let seams = quantile_seams(&segs, strips);
            assert_eq!(seams, quantile_seams(&segs, strips));
            assert!(seams.len() < strips);
            for w in seams.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        assert!(quantile_seams(&[], 4).is_empty());
    }

    #[test]
    fn fixtures_match_serial_for_every_strip_count() {
        for (name, inst) in [
            ("fig_1c", fixtures::fig_1c()),
            ("fig_1d", fixtures::fig_1d()),
            ("petals_abcd", fixtures::petals_abcd()),
            ("ring", fixtures::ring()),
            ("shared_boundary", fixtures::shared_boundary()),
        ] {
            assert_striped_matches(&instance_segments(&inst), name);
        }
    }

    #[test]
    fn auto_routing_strips_only_at_the_threshold_with_a_budget() {
        assert_eq!(strips_for(STRIP_MIN_SEGMENTS - 1, 4), 1);
        assert_eq!(strips_for(STRIP_MIN_SEGMENTS, 4), 4);
        assert_eq!(strips_for(STRIP_MIN_SEGMENTS, 1), 1);
        // Both sides of the threshold are output-identical to the serial
        // sweep: a row of overlapping squares, 4 segments each.
        let row = |squares: i64| {
            let mut inst = SpatialInstance::new();
            for i in 0..squares {
                inst.insert(format!("Q{i:03}"), Region::rect_from_ints(2 * i, 0, 2 * i + 3, 3));
            }
            instance_segments(&inst)
        };
        for segments in [row(63), row(64)] {
            assert!(segments.len().abs_diff(STRIP_MIN_SEGMENTS) <= 4);
            for budget in [1, 4] {
                assert_eq!(
                    split_segments_within(&segments, budget),
                    split_segments(&segments),
                    "{} segments, budget {budget}",
                    segments.len()
                );
            }
        }
    }

    fn datagen_like_grid() -> SpatialInstance {
        let mut inst = SpatialInstance::new();
        for r in 0..4i64 {
            for c in 0..4i64 {
                inst.insert(
                    format!("P{r}_{c}"),
                    Region::rect_from_ints(c * 4, r * 4, c * 4 + 6, r * 4 + 6),
                );
            }
        }
        inst
    }
}
