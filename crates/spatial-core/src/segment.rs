//! Line segments, exact segment intersection, and the exact predicates used
//! by the plane-sweep arrangement construction.
//!
//! The sweep predicates ([`Segment::cmp_at_sweep`], [`Segment::slope_cmp`],
//! [`Segment::sweep_source`] / [`Segment::sweep_target`]) define the order of
//! active segments along a vertical sweep line that advances through event
//! points in lexicographic `(x, y)` order. All of them are division-free sign
//! computations on `Rational` cross products, so they are exact for any
//! rational input. ([`Segment::y_at`] evaluates the supporting line
//! explicitly; it is a diagnostic companion, not used by the sweep itself.)

use crate::point::{orient, Orientation, Point, Vector};
use crate::rational::Rational;
use std::cmp::Ordering;

/// A closed line segment between two distinct points.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

/// The result of intersecting two segments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SegmentIntersection {
    /// The segments do not intersect.
    None,
    /// The segments intersect in exactly one point.
    Point(Point),
    /// The segments are collinear and overlap in a (non-degenerate) segment.
    Overlap(Segment),
}

impl Segment {
    /// Construct a segment. Panics if the endpoints coincide.
    pub fn new(a: Point, b: Point) -> Self {
        assert!(a != b, "degenerate segment");
        Segment { a, b }
    }

    /// The direction vector `b - a`.
    pub fn direction(&self) -> Vector {
        self.a.vector_to(&self.b)
    }

    /// Does the closed segment contain the point `p`?
    pub fn contains_point(&self, p: &Point) -> bool {
        if orient(&self.a, &self.b, p) != Orientation::Collinear {
            return false;
        }
        // Collinear: check that p is within the bounding range along both axes.
        let (xmin, xmax) = minmax(self.a.x, self.b.x);
        let (ymin, ymax) = minmax(self.a.y, self.b.y);
        p.x >= xmin && p.x <= xmax && p.y >= ymin && p.y <= ymax
    }

    /// Exact intersection of two closed segments.
    pub fn intersect(&self, other: &Segment) -> SegmentIntersection {
        let r = self.direction();
        let s = other.direction();
        let qp = self.a.vector_to(&other.a);
        let rxs = r.cross(&s);
        let qpxr = qp.cross(&r);

        if rxs.is_zero() && qpxr.is_zero() {
            // Collinear. Project onto the dominant axis of r and compute the
            // parameter range of `other` relative to `self`.
            let denom = r.dot(&r);
            let t0 = qp.dot(&r) / denom;
            let t1 = t0 + s.dot(&r) / denom;
            let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            let lo = lo.max(Rational::ZERO);
            let hi = hi.min(Rational::ONE);
            if lo > hi {
                return SegmentIntersection::None;
            }
            let p0 = self.point_at(lo);
            let p1 = self.point_at(hi);
            if p0 == p1 {
                SegmentIntersection::Point(p0)
            } else {
                SegmentIntersection::Overlap(Segment::new(p0, p1))
            }
        } else if rxs.is_zero() {
            // Parallel, non-collinear.
            SegmentIntersection::None
        } else {
            let t = qp.cross(&s) / rxs;
            let u = qp.cross(&r) / rxs;
            if t >= Rational::ZERO && t <= Rational::ONE && u >= Rational::ZERO && u <= Rational::ONE
            {
                SegmentIntersection::Point(self.point_at(t))
            } else {
                SegmentIntersection::None
            }
        }
    }

    /// The point `a + t * (b - a)`.
    pub fn point_at(&self, t: Rational) -> Point {
        let d = self.direction();
        Point::new(self.a.x + d.dx * t, self.a.y + d.dy * t)
    }

    /// Is the segment vertical (both endpoints share their `x` coordinate)?
    pub fn is_vertical(&self) -> bool {
        self.a.x == self.b.x
    }

    /// The lexicographically smaller endpoint — where a left-to-right sweep
    /// first meets the segment.
    pub fn sweep_source(&self) -> Point {
        if self.a <= self.b {
            self.a
        } else {
            self.b
        }
    }

    /// The lexicographically larger endpoint — where a left-to-right sweep
    /// leaves the segment.
    pub fn sweep_target(&self) -> Point {
        if self.a <= self.b {
            self.b
        } else {
            self.a
        }
    }

    /// The `y` coordinate of the supporting line at abscissa `x`.
    ///
    /// # Panics
    /// Panics if the segment is vertical.
    pub fn y_at(&self, x: Rational) -> Rational {
        let d = self.direction();
        assert!(!d.dx.is_zero(), "y_at of a vertical segment");
        self.a.y + (x - self.a.x) * d.dy / d.dx
    }

    /// Position of this segment relative to the sweep point `p`, for a
    /// segment whose `x`-span contains `p.x`:
    ///
    /// * `Less` — the segment passes strictly below `p`,
    /// * `Equal` — the segment contains `p` (for a non-vertical active
    ///   segment, its supporting line passes through `p`),
    /// * `Greater` — the segment passes strictly above `p`.
    ///
    /// Division-free: for a non-vertical segment this is the sign of the
    /// cross product of the left-to-right direction with `p - source`; for a
    /// vertical segment it compares `p.y` against the segment's `y`-range.
    pub fn cmp_at_sweep(&self, p: &Point) -> Ordering {
        let src = self.sweep_source();
        let dst = self.sweep_target();
        if self.is_vertical() {
            debug_assert!(self.a.x == p.x, "vertical segment compared off its abscissa");
            if dst.y < p.y {
                return Ordering::Less;
            }
            if src.y > p.y {
                return Ordering::Greater;
            }
            return Ordering::Equal;
        }
        // p above the directed line src -> dst (positive cross) means the
        // segment runs below p.
        let d = src.vector_to(&dst);
        let to_p = src.vector_to(p);
        match d.cross(&to_p).signum() {
            1 => Ordering::Less,
            -1 => Ordering::Greater,
            _ => Ordering::Equal,
        }
    }

    /// Compare two segments by the slope of their left-to-right directions,
    /// with vertical counting as `+infinity` (greatest). For two segments
    /// through a common sweep point this is their status order immediately
    /// after the sweep passes that point; `Equal` means the supporting lines
    /// are parallel (for segments sharing a point: identical).
    pub fn slope_cmp(&self, other: &Segment) -> Ordering {
        let d1 = self.sweep_source().vector_to(&self.sweep_target());
        let d2 = other.sweep_source().vector_to(&other.sweep_target());
        match (d1.dx.is_zero(), d2.dx.is_zero()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // dy1/dx1 ? dy2/dx2  <=>  dy1*dx2 ? dy2*dx1  (dx1, dx2 > 0)
            (false, false) => (d1.dy * d2.dx).cmp(&(d2.dy * d1.dx)),
        }
    }
}

fn minmax(a: Rational, b: Rational) -> (Rational, Rational) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Convenience constructor from integer coordinates.
pub fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
    Segment::new(Point::from_ints(ax, ay), Point::from_ints(bx, by))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn proper_crossing() {
        let s1 = seg(0, 0, 4, 4);
        let s2 = seg(0, 4, 4, 0);
        assert_eq!(s1.intersect(&s2), SegmentIntersection::Point(pt(2, 2)));
    }

    #[test]
    fn crossing_at_rational_point() {
        let s1 = seg(0, 0, 3, 1);
        let s2 = seg(0, 1, 3, 0);
        match s1.intersect(&s2) {
            SegmentIntersection::Point(p) => {
                assert_eq!(p, Point::new(Rational::new(3, 2), Rational::new(1, 2)));
            }
            other => panic!("expected point intersection, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_touch() {
        let s1 = seg(0, 0, 2, 2);
        let s2 = seg(2, 2, 4, 0);
        assert_eq!(s1.intersect(&s2), SegmentIntersection::Point(pt(2, 2)));
    }

    #[test]
    fn no_intersection() {
        let s1 = seg(0, 0, 1, 1);
        let s2 = seg(2, 2, 3, 2);
        assert_eq!(s1.intersect(&s2), SegmentIntersection::None);
        // Parallel, non-collinear.
        let s3 = seg(0, 0, 2, 0);
        let s4 = seg(0, 1, 2, 1);
        assert_eq!(s3.intersect(&s4), SegmentIntersection::None);
        // Lines would cross but segments do not reach.
        let s5 = seg(0, 0, 1, 1);
        let s6 = seg(3, 0, 2, 1);
        assert_eq!(s5.intersect(&s6), SegmentIntersection::None);
    }

    #[test]
    fn collinear_overlap() {
        let s1 = seg(0, 0, 4, 0);
        let s2 = seg(2, 0, 6, 0);
        assert_eq!(
            s1.intersect(&s2),
            SegmentIntersection::Overlap(Segment::new(pt(2, 0), pt(4, 0)))
        );
        // Collinear but disjoint.
        let s3 = seg(5, 0, 6, 0);
        assert_eq!(seg(0, 0, 4, 0).intersect(&s3), SegmentIntersection::None);
        // Collinear touching at a single point.
        let s4 = seg(4, 0, 6, 0);
        assert_eq!(s1.intersect(&s4), SegmentIntersection::Point(pt(4, 0)));
    }

    #[test]
    fn overlap_is_symmetric() {
        let s1 = seg(0, 0, 4, 4);
        let s2 = seg(1, 1, 6, 6);
        let i1 = s1.intersect(&s2);
        let i2 = s2.intersect(&s1);
        match (&i1, &i2) {
            (SegmentIntersection::Overlap(a), SegmentIntersection::Overlap(b)) => {
                assert!(
                    (a.a == b.a && a.b == b.b) || (a.a == b.b && a.b == b.a),
                    "overlaps differ: {a:?} vs {b:?}"
                );
            }
            _ => panic!("expected overlaps, got {i1:?} and {i2:?}"),
        }
    }

    #[test]
    fn contains_point() {
        let s = seg(0, 0, 4, 2);
        assert!(s.contains_point(&pt(2, 1)));
        assert!(s.contains_point(&pt(0, 0)));
        assert!(!s.contains_point(&pt(6, 3)));
        assert!(!s.contains_point(&pt(2, 2)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_segment_panics() {
        let _ = Segment::new(pt(1, 1), pt(1, 1));
    }

    #[test]
    fn sweep_endpoints_and_verticality() {
        let s = seg(4, 1, 0, 3);
        assert_eq!(s.sweep_source(), pt(0, 3));
        assert_eq!(s.sweep_target(), pt(4, 1));
        assert!(!s.is_vertical());
        let v = seg(2, 5, 2, -1);
        assert!(v.is_vertical());
        assert_eq!(v.sweep_source(), pt(2, -1));
        assert_eq!(v.sweep_target(), pt(2, 5));
    }

    #[test]
    fn y_at_interpolates_exactly() {
        let s = seg(0, 0, 4, 2);
        assert_eq!(s.y_at(Rational::from_int(2)), Rational::from_int(1));
        assert_eq!(s.y_at(Rational::from_int(3)), Rational::new(3, 2));
    }

    #[test]
    fn cmp_at_sweep_nonvertical() {
        let s = seg(0, 0, 4, 4);
        assert_eq!(s.cmp_at_sweep(&pt(2, 3)), Ordering::Less, "segment below the point");
        assert_eq!(s.cmp_at_sweep(&pt(2, 1)), Ordering::Greater, "segment above the point");
        assert_eq!(s.cmp_at_sweep(&pt(2, 2)), Ordering::Equal);
        assert_eq!(s.cmp_at_sweep(&pt(0, 0)), Ordering::Equal, "at an endpoint");
        // A rational sweep point.
        let p = Point::new(Rational::new(1, 2), Rational::new(1, 2));
        assert_eq!(s.cmp_at_sweep(&p), Ordering::Equal);
    }

    #[test]
    fn cmp_at_sweep_vertical() {
        let v = seg(2, 1, 2, 5);
        assert_eq!(v.cmp_at_sweep(&pt(2, 0)), Ordering::Greater);
        assert_eq!(v.cmp_at_sweep(&pt(2, 6)), Ordering::Less);
        assert_eq!(v.cmp_at_sweep(&pt(2, 1)), Ordering::Equal);
        assert_eq!(v.cmp_at_sweep(&pt(2, 3)), Ordering::Equal);
        assert_eq!(v.cmp_at_sweep(&pt(2, 5)), Ordering::Equal);
    }

    #[test]
    fn slope_order_around_a_point() {
        // Segments through the origin, sorted by the order in which a sweep
        // line just right of the origin meets them bottom-to-top.
        let down_steep = seg(0, 0, 1, -3);
        let down = seg(0, 0, 2, -1);
        let flat = seg(0, 0, 3, 0);
        let up = seg(0, 0, 2, 1);
        let up_steep = seg(0, 0, 1, 3);
        let vertical = seg(0, 0, 0, 4);
        let ordered = [down_steep, down, flat, up, up_steep, vertical];
        for i in 0..ordered.len() {
            for j in 0..ordered.len() {
                assert_eq!(ordered[i].slope_cmp(&ordered[j]), i.cmp(&j), "{i} vs {j}");
            }
        }
        // Collinear segments compare equal regardless of endpoint order.
        assert_eq!(seg(0, 0, 2, 2).slope_cmp(&seg(5, 5, 3, 3)), Ordering::Equal);
    }
}
