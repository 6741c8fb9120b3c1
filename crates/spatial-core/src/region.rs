//! Spatial regions and the paper's region classes.
//!
//! The paper considers regions that are open, bounded(-or-not), simply
//! connected subsets of the plane with connected boundary, stratified into
//! the classes `Rect ⊂ Rect* ⊂ Disc` and `Poly ⊂ Alg ⊂ Disc` (Section 2,
//! Fig. 3). This crate represents every region by its polygonal boundary
//! curve:
//!
//! * [`Rect`] — an open axis-parallel rectangle (the paper's `Rect`);
//! * a *rectilinear* polygon built from a union of rectangles — the paper's
//!   `Rect*` (finite unions of rectangles that form a disc);
//! * an arbitrary simple polygon — the paper's `Poly`.
//!
//! Polygonal regions stand in for the paper's semi-algebraic ones: the
//! classes `Alg` and `Disc` are represented by their polygonal
//! representatives, which the paper's own Theorem 3.5 shows is sufficient for
//! all topological queries.

use crate::point::Point;
use crate::polygon::{Location, Polygon, PolygonError};
use crate::rational::Rational;
use std::collections::BTreeSet;
use std::fmt;

/// The region classes of the paper (Section 2, Fig. 3).
///
/// `Alg` and `Disc` appear for completeness of the class lattice; concrete
/// extents are always polygonal, standing in for the semi-algebraic ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegionClass {
    /// Open axis-parallel rectangles.
    Rect,
    /// Discs that are finite unions of rectangles (rectilinear discs).
    RectStar,
    /// Simple polygons.
    Poly,
    /// Semi-algebraic discs (represented polygonally).
    Alg,
    /// Arbitrary discs (represented polygonally).
    Disc,
}

impl RegionClass {
    /// Does membership in `self` imply membership in `other`?
    ///
    /// Encodes the paper's inclusions `Rect ⊂ Rect* ⊂ Disc` and
    /// `Poly ⊂ Alg ⊂ Disc`.
    pub fn is_subclass_of(self, other: RegionClass) -> bool {
        use RegionClass::*;
        if self == other || other == Disc {
            return true;
        }
        matches!(
            (self, other),
            (Rect, RectStar) | (Rect, Poly) | (Rect, Alg) | (RectStar, Poly) | (RectStar, Alg) | (Poly, Alg)
        )
    }

    /// All classes, smallest first.
    pub fn all() -> [RegionClass; 5] {
        [
            RegionClass::Rect,
            RegionClass::RectStar,
            RegionClass::Poly,
            RegionClass::Alg,
            RegionClass::Disc,
        ]
    }
}

impl fmt::Display for RegionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionClass::Rect => "Rect",
            RegionClass::RectStar => "Rect*",
            RegionClass::Poly => "Poly",
            RegionClass::Alg => "Alg",
            RegionClass::Disc => "Disc",
        };
        write!(f, "{s}")
    }
}

/// An open axis-parallel rectangle `(x1, x2) x (y1, y2)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rect {
    /// Left edge.
    pub x1: Rational,
    /// Right edge (`x1 < x2`).
    pub x2: Rational,
    /// Bottom edge.
    pub y1: Rational,
    /// Top edge (`y1 < y2`).
    pub y2: Rational,
}

impl Rect {
    /// Construct a rectangle; panics unless `x1 < x2` and `y1 < y2`.
    pub fn new(x1: Rational, y1: Rational, x2: Rational, y2: Rational) -> Self {
        assert!(x1 < x2 && y1 < y2, "rectangle must have positive extent");
        Rect { x1, x2, y1, y2 }
    }

    /// Construct from integer coordinates `(x1, y1, x2, y2)`.
    pub fn from_ints(x1: i64, y1: i64, x2: i64, y2: i64) -> Self {
        Rect::new(
            Rational::from_int(x1),
            Rational::from_int(y1),
            Rational::from_int(x2),
            Rational::from_int(y2),
        )
    }

    /// The boundary as a counter-clockwise polygon.
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(vec![
            Point::new(self.x1, self.y1),
            Point::new(self.x2, self.y1),
            Point::new(self.x2, self.y2),
            Point::new(self.x1, self.y2),
        ])
        .expect("rectangle polygon is always valid")
    }

    /// Width of the rectangle.
    pub fn width(&self) -> Rational {
        self.x2 - self.x1
    }

    /// Height of the rectangle.
    pub fn height(&self) -> Rational {
        self.y2 - self.y1
    }
}

/// Errors raised when constructing regions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegionError {
    /// The supplied polygon is invalid.
    BadPolygon(PolygonError),
    /// A union of rectangles is not a disc (disconnected, has a hole, or is
    /// pinched at a point).
    NotADisc(&'static str),
    /// No rectangles were supplied to a `Rect*` construction.
    EmptyUnion,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::BadPolygon(e) => write!(f, "invalid polygon: {e}"),
            RegionError::NotADisc(why) => write!(f, "rectangle union is not a disc: {why}"),
            RegionError::EmptyUnion => write!(f, "empty rectangle union"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<PolygonError> for RegionError {
    fn from(e: PolygonError) -> Self {
        RegionError::BadPolygon(e)
    }
}

/// A spatial region: an open, bounded, simply connected subset of the plane
/// represented by its polygonal boundary, together with the most specific
/// paper class it is known to belong to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    boundary: Polygon,
    declared_class: RegionClass,
}

impl Region {
    /// A rectangle region (class `Rect`).
    pub fn rect(r: Rect) -> Self {
        Region { boundary: r.to_polygon(), declared_class: RegionClass::Rect }
    }

    /// A rectangle region from integer coordinates.
    pub fn rect_from_ints(x1: i64, y1: i64, x2: i64, y2: i64) -> Self {
        Region::rect(Rect::from_ints(x1, y1, x2, y2))
    }

    /// A polygonal region (class `Poly`).
    pub fn polygon(p: Polygon) -> Self {
        let class = classify_polygon(&p);
        Region { boundary: p, declared_class: class }
    }

    /// A polygonal region from integer vertex coordinates.
    pub fn polygon_from_ints(coords: &[(i64, i64)]) -> Result<Self, RegionError> {
        Ok(Region::polygon(Polygon::from_ints(coords)?))
    }

    /// A `Rect*` region: the union of the given rectangles, which must form a
    /// disc (connected, simply connected, not pinched).
    pub fn rect_union(rects: &[Rect]) -> Result<Self, RegionError> {
        let boundary = union_of_rectangles(rects)?;
        let class = classify_polygon(&boundary);
        Ok(Region { boundary, declared_class: class })
    }

    /// The boundary polygon.
    pub fn boundary(&self) -> &Polygon {
        &self.boundary
    }

    /// The most specific region class this region belongs to
    /// (`Rect`, `Rect*` or `Poly`), determined from its geometry.
    pub fn class(&self) -> RegionClass {
        self.declared_class
    }

    /// Does this region belong to the given (possibly larger) class?
    pub fn is_in_class(&self, class: RegionClass) -> bool {
        self.class().is_subclass_of(class)
    }

    /// Exact location of a point relative to the region.
    pub fn locate(&self, p: &Point) -> Location {
        self.boundary.locate(p)
    }

    /// The area of the region.
    pub fn area(&self) -> Rational {
        self.boundary.area()
    }

    /// Axis-aligned bounding box.
    pub fn bounding_box(&self) -> (Rational, Rational, Rational, Rational) {
        self.boundary.bounding_box()
    }

    /// A translated copy of the region (same class).
    pub fn translated(&self, dx: i64, dy: i64) -> Region {
        Region { boundary: self.boundary.translated(dx, dy), declared_class: self.declared_class }
    }
}

/// Determine the most specific class of a polygon's enclosed region.
fn classify_polygon(p: &Polygon) -> RegionClass {
    if is_axis_rectangle(p) {
        RegionClass::Rect
    } else if is_rectilinear(p) {
        RegionClass::RectStar
    } else {
        RegionClass::Poly
    }
}

/// Is the polygon an axis-parallel rectangle (possibly with redundant
/// collinear vertices)?
pub fn is_axis_rectangle(p: &Polygon) -> bool {
    if !is_rectilinear(p) {
        return false;
    }
    // A rectilinear polygon is a rectangle iff it has exactly 4 corners
    // (vertices where the direction actually turns).
    count_corners(p) == 4
}

/// Is every edge of the polygon axis-parallel?
pub fn is_rectilinear(p: &Polygon) -> bool {
    p.edges().all(|e| {
        let d = e.direction();
        d.dx.is_zero() || d.dy.is_zero()
    })
}

fn count_corners(p: &Polygon) -> usize {
    let vs = p.vertices();
    let n = vs.len();
    let mut corners = 0;
    for i in 0..n {
        let prev = &vs[(i + n - 1) % n];
        let cur = &vs[i];
        let next = &vs[(i + 1) % n];
        let d1 = prev.vector_to(cur);
        let d2 = cur.vector_to(next);
        if !d1.cross(&d2).is_zero() {
            corners += 1;
        }
    }
    corners
}

/// Compute the boundary polygon of a union of axis-parallel rectangles,
/// requiring the union to be an (open) disc.
///
/// The construction rasterizes onto the grid induced by the rectangles'
/// coordinates, collects the boundary edges of the covered cells, chains them
/// into a cycle and rejects unions that are disconnected, have holes, or are
/// pinched at a point (all of which fall outside the paper's `Rect*` class).
pub fn union_of_rectangles(rects: &[Rect]) -> Result<Polygon, RegionError> {
    if rects.is_empty() {
        return Err(RegionError::EmptyUnion);
    }
    // Grid coordinates.
    let xs: BTreeSet<Rational> = rects.iter().flat_map(|r| [r.x1, r.x2]).collect();
    let ys: BTreeSet<Rational> = rects.iter().flat_map(|r| [r.y1, r.y2]).collect();
    let xs: Vec<Rational> = xs.into_iter().collect();
    let ys: Vec<Rational> = ys.into_iter().collect();
    let nx = xs.len() - 1;
    let ny = ys.len() - 1;

    // Mark covered cells.
    let mut covered = vec![vec![false; ny]; nx];
    for (i, covered_col) in covered.iter_mut().enumerate() {
        for (j, cell) in covered_col.iter_mut().enumerate() {
            let cx = Rational::midpoint(xs[i], xs[i + 1]);
            let cy = Rational::midpoint(ys[j], ys[j + 1]);
            *cell = rects.iter().any(|r| cx > r.x1 && cx < r.x2 && cy > r.y1 && cy < r.y2);
        }
    }

    // Collect directed boundary edges (counter-clockwise around the covered
    // set: covered cell on the left of the directed edge).
    let mut boundary_edges: Vec<(Point, Point)> = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            if !covered[i][j] {
                continue;
            }
            let x0 = xs[i];
            let x1 = xs[i + 1];
            let y0 = ys[j];
            let y1 = ys[j + 1];
            // Bottom side: neighbor below uncovered -> directed left-to-right.
            if j == 0 || !covered[i][j - 1] {
                boundary_edges.push((Point::new(x0, y0), Point::new(x1, y0)));
            }
            // Right side: directed bottom-to-top.
            if i == nx - 1 || !covered[i + 1][j] {
                boundary_edges.push((Point::new(x1, y0), Point::new(x1, y1)));
            }
            // Top side: directed right-to-left.
            if j == ny - 1 || !covered[i][j + 1] {
                boundary_edges.push((Point::new(x1, y1), Point::new(x0, y1)));
            }
            // Left side: directed top-to-bottom.
            if i == 0 || !covered[i - 1][j] {
                boundary_edges.push((Point::new(x0, y1), Point::new(x0, y0)));
            }
        }
    }
    if boundary_edges.is_empty() {
        return Err(RegionError::NotADisc("no covered area"));
    }

    // Detect pinch points: a vertex with more than one outgoing boundary edge.
    use std::collections::BTreeMap;
    let mut outgoing: BTreeMap<Point, Vec<usize>> = BTreeMap::new();
    for (idx, (a, _)) in boundary_edges.iter().enumerate() {
        outgoing.entry(*a).or_default().push(idx);
    }
    if outgoing.values().any(|v| v.len() > 1) {
        return Err(RegionError::NotADisc("union is pinched at a point"));
    }

    // Chain the edges into a single cycle.
    let mut used = vec![false; boundary_edges.len()];
    let start = 0usize;
    let mut cycle: Vec<Point> = vec![boundary_edges[start].0];
    let mut cur = start;
    loop {
        used[cur] = true;
        let end = boundary_edges[cur].1;
        if end == boundary_edges[start].0 {
            break;
        }
        cycle.push(end);
        let next = outgoing.get(&end).and_then(|v| v.first()).copied();
        match next {
            Some(n) if !used[n] => cur = n,
            _ => return Err(RegionError::NotADisc("boundary does not close into one cycle")),
        }
    }
    if used.iter().any(|&u| !u) {
        return Err(RegionError::NotADisc(
            "union has more than one boundary cycle (disconnected or has a hole)",
        ));
    }

    // Remove collinear intermediate vertices.
    let simplified = simplify_collinear(&cycle);
    Polygon::new(simplified).map_err(RegionError::from)
}

fn simplify_collinear(cycle: &[Point]) -> Vec<Point> {
    let n = cycle.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let prev = &cycle[(i + n - 1) % n];
        let cur = &cycle[i];
        let next = &cycle[(i + 1) % n];
        let d1 = prev.vector_to(cur);
        let d2 = cur.vector_to(next);
        if !d1.cross(&d2).is_zero() {
            out.push(*cur);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn class_lattice() {
        use RegionClass::*;
        assert!(Rect.is_subclass_of(RectStar));
        assert!(Rect.is_subclass_of(Poly));
        assert!(RectStar.is_subclass_of(Disc));
        assert!(Poly.is_subclass_of(Alg));
        assert!(Alg.is_subclass_of(Disc));
        assert!(!Poly.is_subclass_of(RectStar));
        assert!(!Disc.is_subclass_of(Alg));
        assert!(!RectStar.is_subclass_of(Rect));
    }

    #[test]
    fn rect_region_classification() {
        let r = Region::rect_from_ints(0, 0, 4, 2);
        assert_eq!(r.class(), RegionClass::Rect);
        assert!(r.is_in_class(RegionClass::RectStar));
        assert!(r.is_in_class(RegionClass::Alg));
        assert_eq!(r.area(), Rational::from_int(8));
        assert_eq!(r.locate(&pt(1, 1)), Location::Inside);
        assert_eq!(r.locate(&pt(0, 1)), Location::Boundary);
        assert_eq!(r.locate(&pt(5, 5)), Location::Outside);
    }

    #[test]
    fn polygon_region_classification() {
        let tri = Region::polygon_from_ints(&[(0, 0), (4, 0), (2, 3)]).unwrap();
        assert_eq!(tri.class(), RegionClass::Poly);
        assert!(!tri.is_in_class(RegionClass::RectStar));
        assert!(tri.is_in_class(RegionClass::Alg));
        // An axis-parallel L-shape is recognized as Rect*.
        let l = Region::polygon_from_ints(&[(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]).unwrap();
        assert_eq!(l.class(), RegionClass::RectStar);
        // A rectangle given as a polygon is recognized as Rect.
        let r = Region::polygon_from_ints(&[(0, 0), (4, 0), (4, 2), (0, 2)]).unwrap();
        assert_eq!(r.class(), RegionClass::Rect);
    }

    #[test]
    fn union_l_shape() {
        let r = Region::rect_union(&[Rect::from_ints(0, 0, 4, 2), Rect::from_ints(0, 0, 2, 4)])
            .unwrap();
        assert_eq!(r.class(), RegionClass::RectStar);
        assert_eq!(r.area(), Rational::from_int(12));
        assert_eq!(r.locate(&pt(1, 3)), Location::Inside);
        assert_eq!(r.locate(&pt(3, 1)), Location::Inside);
        assert_eq!(r.locate(&pt(3, 3)), Location::Outside);
        assert_eq!(r.boundary().vertices().len(), 6);
    }

    #[test]
    fn union_overlapping_rectangles_is_rect() {
        // Two overlapping rectangles forming one bigger rectangle.
        let r = Region::rect_union(&[Rect::from_ints(0, 0, 3, 2), Rect::from_ints(2, 0, 5, 2)])
            .unwrap();
        assert_eq!(r.class(), RegionClass::Rect);
        assert_eq!(r.area(), Rational::from_int(10));
    }

    #[test]
    fn union_rejects_non_discs() {
        // Disconnected.
        assert!(matches!(
            Region::rect_union(&[Rect::from_ints(0, 0, 1, 1), Rect::from_ints(3, 3, 4, 4)]),
            Err(RegionError::NotADisc(_))
        ));
        // Ring with a hole.
        assert!(matches!(
            Region::rect_union(&[
                Rect::from_ints(0, 0, 6, 2),
                Rect::from_ints(0, 4, 6, 6),
                Rect::from_ints(0, 0, 2, 6),
                Rect::from_ints(4, 0, 6, 6),
            ]),
            Err(RegionError::NotADisc(_))
        ));
        // Pinched at a corner.
        assert!(matches!(
            Region::rect_union(&[Rect::from_ints(0, 0, 2, 2), Rect::from_ints(2, 2, 4, 4)]),
            Err(RegionError::NotADisc(_))
        ));
        // Empty.
        assert_eq!(Region::rect_union(&[]), Err(RegionError::EmptyUnion));
    }

    #[test]
    fn union_staircase() {
        let r = Region::rect_union(&[
            Rect::from_ints(0, 0, 2, 2),
            Rect::from_ints(1, 1, 3, 3),
            Rect::from_ints(2, 2, 4, 4),
        ])
        .unwrap();
        assert_eq!(r.class(), RegionClass::RectStar);
        assert_eq!(r.locate(&pt(1, 1)), Location::Inside);
        // A point in the staircase's lower-right notch is outside.
        assert_eq!(r.locate(&pt(3, 0)), Location::Outside);
    }

    #[test]
    fn translation_preserves_class_and_area() {
        let r = Region::rect_union(&[Rect::from_ints(0, 0, 4, 2), Rect::from_ints(0, 0, 2, 4)])
            .unwrap();
        let t = r.translated(10, -5);
        assert_eq!(t.class(), r.class());
        assert_eq!(t.area(), r.area());
        assert_eq!(t.locate(&pt(11, -2)), Location::Inside);
    }

    #[test]
    fn rect_helpers() {
        let r = Rect::from_ints(0, 0, 4, 2);
        assert_eq!(r.width(), Rational::from_int(4));
        assert_eq!(r.height(), Rational::from_int(2));
    }
}
