//! Simple polygons with exact rational vertices.
//!
//! A [`Polygon`] models the *closed polygonal curve* bounding one of the
//! paper's `Poly` regions: the region itself is the open, bounded, simply
//! connected set enclosed by the curve. The curve must be simple
//! (non-self-intersecting) and have non-zero area.

use crate::point::{orient, Orientation, Point};
use crate::rational::Rational;
use crate::segment::{Segment, SegmentIntersection};
use std::fmt;

/// Where a point lies relative to a region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Location {
    /// In the topological interior.
    Inside,
    /// On the topological boundary.
    Boundary,
    /// In the exterior.
    Outside,
}

/// A simple polygon given by its vertex cycle.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Errors raised when constructing a polygon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices,
    /// Two consecutive vertices coincide.
    RepeatedVertex(usize),
    /// The boundary curve intersects itself.
    SelfIntersection(usize, usize),
    /// The polygon has zero area (all vertices collinear).
    ZeroArea,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 vertices"),
            PolygonError::RepeatedVertex(i) => write!(f, "repeated consecutive vertex at {i}"),
            PolygonError::SelfIntersection(i, j) => {
                write!(f, "polygon boundary self-intersects (edges {i} and {j})")
            }
            PolygonError::ZeroArea => write!(f, "polygon has zero area"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Construct a simple polygon, validating simplicity and non-degeneracy.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let n = vertices.len();
        for i in 0..n {
            if vertices[i] == vertices[(i + 1) % n] {
                return Err(PolygonError::RepeatedVertex(i));
            }
        }
        let poly = Polygon { vertices };
        if let Some((i, j)) = poly.find_self_intersection() {
            return Err(PolygonError::SelfIntersection(i, j));
        }
        if poly.signed_area().is_zero() {
            return Err(PolygonError::ZeroArea);
        }
        Ok(poly)
    }

    /// Construct from integer coordinate pairs.
    pub fn from_ints(coords: &[(i64, i64)]) -> Result<Self, PolygonError> {
        Polygon::new(coords.iter().map(|&(x, y)| Point::from_ints(x, y)).collect())
    }

    /// The vertex cycle.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: a valid polygon has at least three vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the boundary edges, in vertex-cycle order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Twice the signed area (positive iff counter-clockwise).
    pub fn signed_area_doubled(&self) -> Rational {
        let n = self.vertices.len();
        let mut acc = Rational::ZERO;
        for i in 0..n {
            let p = &self.vertices[i];
            let q = &self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc
    }

    /// The signed area (positive iff counter-clockwise).
    pub fn signed_area(&self) -> Rational {
        self.signed_area_doubled() / Rational::TWO
    }

    /// The (unsigned) area.
    pub fn area(&self) -> Rational {
        self.signed_area().abs()
    }

    /// Exact point location with respect to the closed region bounded by the
    /// polygon: interior, boundary, or exterior.
    pub fn locate(&self, p: &Point) -> Location {
        // Boundary check first.
        for e in self.edges() {
            if e.contains_point(p) {
                return Location::Boundary;
            }
        }
        if ring_encloses(&self.vertices, p) {
            Location::Inside
        } else {
            Location::Outside
        }
    }

    /// Axis-aligned bounding box `(xmin, ymin, xmax, ymax)`.
    pub fn bounding_box(&self) -> (Rational, Rational, Rational, Rational) {
        let mut xmin = self.vertices[0].x;
        let mut xmax = xmin;
        let mut ymin = self.vertices[0].y;
        let mut ymax = ymin;
        for v in &self.vertices[1..] {
            xmin = xmin.min(v.x);
            xmax = xmax.max(v.x);
            ymin = ymin.min(v.y);
            ymax = ymax.max(v.y);
        }
        (xmin, ymin, xmax, ymax)
    }

    /// Translate all vertices by integer offsets.
    pub fn translated(&self, dx: i64, dy: i64) -> Polygon {
        let d = crate::point::Vector::from_ints(dx, dy);
        Polygon { vertices: self.vertices.iter().map(|p| p.translate(&d)).collect() }
    }

    fn find_self_intersection(&self) -> Option<(usize, usize)> {
        let edges: Vec<Segment> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                match edges[i].intersect(&edges[j]) {
                    SegmentIntersection::None => {}
                    SegmentIntersection::Point(p) => {
                        if adjacent {
                            // Adjacent edges must only share their common vertex.
                            let shared = if j == i + 1 { edges[i].b } else { edges[i].a };
                            if p != shared {
                                return Some((i, j));
                            }
                        } else {
                            return Some((i, j));
                        }
                    }
                    SegmentIntersection::Overlap(_) => return Some((i, j)),
                }
            }
        }
        None
    }
}

/// Even-odd containment of `p` in the closed polyline `ring`, read
/// cyclically (the last point joins the first). The ring may repeat vertices
/// but must not pass through `p`. Each edge is its own supporting line in
/// [`ray_crosses`].
pub fn ring_encloses(ring: &[Point], p: &Point) -> bool {
    let n = ring.len();
    let edges = (0..n).map(|i| (&ring[i], &ring[(i + 1) % n]));
    edges.filter(|&(a, b)| ray_crosses(p, a, b, (a, b))).count() % 2 == 1
}

/// Does the ray from `p` in the `+x` direction cross the span from `a` to
/// `b`, which lies on the line through the two points of `line`?
///
/// The span is crossed iff it spans `p`'s height half-open, `lo.y <= p.y <
/// hi.y` (so along a closed walk a vertex on the ray counts once or not at
/// all, and a horizontal span never), and `p` lies strictly left of the
/// line directed upwards. The side test is one orientation test against
/// `line`, not against the span: a piece of an input segment, whose
/// endpoints may be crossing points with large denominators, is tested
/// against its segment at the segment's cost. No crossing point is
/// interpolated.
pub fn ray_crosses(p: &Point, a: &Point, b: &Point, line: (&Point, &Point)) -> bool {
    let (lo, hi) = if a.y <= b.y { (a, b) } else { (b, a) };
    let (s, t) = if line.0.y <= line.1.y { line } else { (line.1, line.0) };
    lo.y <= p.y && p.y < hi.y && orient(s, t, p) == Orientation::CounterClockwise
}

impl fmt::Debug for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon{:?}", self.vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{pt, ptr};

    fn unit_square() -> Polygon {
        Polygon::from_ints(&[(0, 0), (4, 0), (4, 4), (0, 4)]).unwrap()
    }

    #[test]
    fn area_and_orientation() {
        let sq = unit_square();
        assert_eq!(sq.area(), Rational::from_int(16));
        assert_eq!(sq.signed_area_doubled(), Rational::from_int(32));
        let cw = Polygon::from_ints(&[(0, 0), (0, 4), (4, 4), (4, 0)]).unwrap();
        assert_eq!(cw.signed_area_doubled(), Rational::from_int(-32));
        assert_eq!(cw.area(), Rational::from_int(16));
    }

    #[test]
    fn locate_points() {
        let sq = unit_square();
        assert_eq!(sq.locate(&pt(2, 2)), Location::Inside);
        assert_eq!(sq.locate(&pt(0, 2)), Location::Boundary);
        assert_eq!(sq.locate(&pt(4, 4)), Location::Boundary);
        assert_eq!(sq.locate(&pt(5, 2)), Location::Outside);
        assert_eq!(sq.locate(&pt(-1, -1)), Location::Outside);
    }

    #[test]
    fn locate_in_concave_polygon() {
        // A "U" shape: the notch is outside.
        let u = Polygon::from_ints(&[
            (0, 0),
            (6, 0),
            (6, 6),
            (4, 6),
            (4, 2),
            (2, 2),
            (2, 6),
            (0, 6),
        ])
        .unwrap();
        assert_eq!(u.locate(&pt(1, 5)), Location::Inside);
        assert_eq!(u.locate(&pt(5, 5)), Location::Inside);
        assert_eq!(u.locate(&pt(3, 5)), Location::Outside);
        assert_eq!(u.locate(&pt(3, 1)), Location::Inside);
        assert_eq!(u.locate(&pt(3, 2)), Location::Boundary);
    }

    #[test]
    fn rejects_bad_polygons() {
        assert_eq!(Polygon::from_ints(&[(0, 0), (1, 1)]), Err(PolygonError::TooFewVertices));
        assert!(matches!(
            Polygon::from_ints(&[(0, 0), (0, 0), (1, 1)]),
            Err(PolygonError::RepeatedVertex(_))
        ));
        // Bowtie.
        assert!(matches!(
            Polygon::from_ints(&[(0, 0), (4, 4), (4, 0), (0, 4)]),
            Err(PolygonError::SelfIntersection(_, _))
        ));
        // Collinear (rejected either as zero area or as overlapping edges).
        assert!(Polygon::from_ints(&[(0, 0), (2, 0), (4, 0)]).is_err());
    }

    #[test]
    fn bounding_box() {
        let p = Polygon::from_ints(&[(1, 2), (5, 3), (4, 9)]).unwrap();
        let (x0, y0, x1, y1) = p.bounding_box();
        assert_eq!(
            (x0, y0, x1, y1),
            (
                Rational::from_int(1),
                Rational::from_int(2),
                Rational::from_int(5),
                Rational::from_int(9)
            )
        );
    }

    #[test]
    fn containment_in_square() {
        let sq = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)];
        assert!(ring_encloses(&sq, &pt(2, 2)));
        assert!(!ring_encloses(&sq, &pt(5, 2)));
        assert!(!ring_encloses(&sq, &pt(-1, 2)));
        // Rays along the bottom and top edges' lines, from outside.
        assert!(!ring_encloses(&sq, &pt(-1, 0)));
        assert!(!ring_encloses(&sq, &pt(-1, 4)));
    }

    #[test]
    fn containment_with_repeated_vertices() {
        // A figure-eight-like walk around two squares joined at (2, 2),
        // traversed as one closed walk (vertex (2,2) repeats).
        let walk = [
            pt(0, 0),
            pt(2, 0),
            pt(2, 2),
            pt(4, 2),
            pt(4, 4),
            pt(2, 4),
            pt(2, 2),
            pt(0, 2),
        ];
        assert!(ring_encloses(&walk, &pt(1, 1)));
        assert!(ring_encloses(&walk, &pt(3, 3)));
        assert!(!ring_encloses(&walk, &pt(3, 1)));
        assert!(!ring_encloses(&walk, &pt(1, 3)));
        // The ray from the left through the repeated vertex.
        assert!(!ring_encloses(&walk, &pt(-1, 2)));
    }

    #[test]
    fn containment_in_slanted_ring_at_rational_points() {
        // A triangle whose edges all slant; the ray from each probe passes
        // through a vertex or crosses an edge at a non-integer x.
        let tri = [pt(0, 0), pt(7, 3), pt(2, 9)];
        let poly = Polygon::new(tri.to_vec()).unwrap();
        let probes = [pt(3, 3), pt(1, 3), pt(-1, 3), pt(6, 3), pt(8, 3), pt(2, 1), ptr((7, 2), (9, 2))];
        for p in probes {
            let located = poly.locate(&p);
            assert_ne!(located, Location::Boundary, "{p:?}");
            assert_eq!(ring_encloses(&tri, &p), located == Location::Inside, "{p:?}");
        }
        // Through the vertex (7, 3): counted once from inside, never from
        // outside.
        assert!(ring_encloses(&tri, &pt(6, 3)));
        assert!(!ring_encloses(&tri, &pt(-1, 3)));
        assert!(!ring_encloses(&tri, &pt(8, 3)));
    }

    #[test]
    fn a_span_crosses_as_its_supporting_line_does() {
        // Spans of the segment (0, 0)–(7, 3) between rational points on it:
        // tested against the segment or against themselves, the answers
        // agree.
        let (s, t) = (pt(0, 0), pt(7, 3));
        let on = |n: i128| Point::new(Rational::new(7 * n, 10), Rational::new(3 * n, 10));
        let spans = [(on(0), on(3)), (on(3), on(7)), (on(7), on(10)), (on(9), on(2))];
        let probes = [pt(1, 1), pt(-1, 1), pt(6, 2), pt(8, 2), ptr((9, 10), (3, 10)), pt(0, 0), pt(0, 3)];
        for (a, b) in &spans {
            for p in &probes {
                let along = ray_crosses(p, a, b, (&s, &t));
                assert_eq!(along, ray_crosses(p, a, b, (a, b)), "{a:?}–{b:?} from {p:?}");
                assert_eq!(along, ray_crosses(p, b, a, (&t, &s)), "either direction");
            }
        }
        // Half-open: the lower end counts, the upper does not.
        assert!(ray_crosses(&pt(-1, 0), &s, &t, (&s, &t)));
        assert!(!ray_crosses(&pt(-1, 3), &s, &t, (&s, &t)));
        assert!(!ray_crosses(&pt(8, 1), &s, &t, (&s, &t)), "right of the line");
    }

    #[test]
    fn edges_count() {
        assert_eq!(unit_square().edges().count(), 4);
    }
}
