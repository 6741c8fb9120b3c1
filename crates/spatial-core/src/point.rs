//! Points and direction vectors in the rational plane.

use crate::rational::Rational;
use std::cmp::Ordering;
use std::fmt;

/// A point in `Q^2` (the plane with exact rational coordinates).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    /// x coordinate.
    pub x: Rational,
    /// y coordinate.
    pub y: Rational,
}

impl Point {
    /// Construct a point from rational coordinates.
    pub fn new(x: Rational, y: Rational) -> Self {
        Point { x, y }
    }

    /// Construct a point from integer coordinates.
    pub fn from_ints(x: i64, y: i64) -> Self {
        Point { x: Rational::from_int(x), y: Rational::from_int(y) }
    }

    /// The displacement vector `other - self`.
    pub fn vector_to(&self, other: &Point) -> Vector {
        Vector { dx: other.x - self.x, dy: other.y - self.y }
    }

    /// Translate the point by a vector.
    pub fn translate(&self, v: &Vector) -> Point {
        Point { x: self.x + v.dx, y: self.y + v.dy }
    }

    /// Midpoint of two points.
    pub fn midpoint(a: &Point, b: &Point) -> Point {
        Point { x: Rational::midpoint(a.x, b.x), y: Rational::midpoint(a.y, b.y) }
    }
}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic order: by `x`, then by `y`. Used to canonicalize vertices of
/// an arrangement deterministically.
impl Ord for Point {
    fn cmp(&self, other: &Self) -> Ordering {
        self.x.cmp(&other.x).then_with(|| self.y.cmp(&other.y))
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A direction / displacement vector in the rational plane.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Vector {
    /// x component.
    pub dx: Rational,
    /// y component.
    pub dy: Rational,
}

impl Vector {
    /// Construct from rational components.
    pub fn new(dx: Rational, dy: Rational) -> Self {
        Vector { dx, dy }
    }

    /// Construct from integer components.
    pub fn from_ints(dx: i64, dy: i64) -> Self {
        Vector { dx: Rational::from_int(dx), dy: Rational::from_int(dy) }
    }

    /// Is this the zero vector?
    pub fn is_zero(&self) -> bool {
        self.dx.is_zero() && self.dy.is_zero()
    }

    /// Cross product `self.dx * other.dy - self.dy * other.dx`.
    pub fn cross(&self, other: &Vector) -> Rational {
        self.dx * other.dy - self.dy * other.dx
    }

    /// Dot product.
    pub fn dot(&self, other: &Vector) -> Rational {
        self.dx * other.dx + self.dy * other.dy
    }

    /// Vector negation.
    pub fn neg(&self) -> Vector {
        Vector { dx: -self.dx, dy: -self.dy }
    }

    /// Scale by a rational factor.
    pub fn scale(&self, s: Rational) -> Vector {
        Vector { dx: self.dx * s, dy: self.dy * s }
    }

    /// The half-plane index used for sorting directions by angle without
    /// trigonometry: directions in the upper half-plane (including the
    /// positive x axis) come before directions in the lower half-plane
    /// (including the negative x axis).
    ///
    /// Returns `0` for the upper half (angle in `[0, pi)`), `1` for the lower
    /// half (angle in `[pi, 2*pi)`).
    pub fn half_plane(&self) -> u8 {
        debug_assert!(!self.is_zero(), "half_plane of zero vector");
        if self.dy.signum() > 0 || (self.dy.is_zero() && self.dx.signum() > 0) {
            0
        } else {
            1
        }
    }

    /// Compare two non-zero vectors by counter-clockwise angle from the
    /// positive x axis, in `[0, 2*pi)`. Collinear same-direction vectors
    /// compare equal.
    pub fn angle_cmp(&self, other: &Vector) -> Ordering {
        let ha = self.half_plane();
        let hb = other.half_plane();
        ha.cmp(&hb).then_with(|| {
            // Same half plane: compare by cross product sign.
            let c = self.cross(other);
            match c.signum() {
                1 => Ordering::Less,
                -1 => Ordering::Greater,
                _ => Ordering::Equal,
            }
        })
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Orientation {
    /// Counter-clockwise turn (positive cross product).
    CounterClockwise,
    /// Clockwise turn (negative cross product).
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

/// Exact orientation predicate for the triple `(a, b, c)`.
pub fn orient(a: &Point, b: &Point, c: &Point) -> Orientation {
    let ab = a.vector_to(b);
    let ac = a.vector_to(c);
    match ab.cross(&ac).signum() {
        1 => Orientation::CounterClockwise,
        -1 => Orientation::Clockwise,
        _ => Orientation::Collinear,
    }
}

/// Convenience constructor for integer points.
pub fn pt(x: i64, y: i64) -> Point {
    Point::from_ints(x, y)
}

/// Convenience constructor for rational points given as (num, den) pairs.
pub fn ptr(x: (i64, i64), y: (i64, i64)) -> Point {
    Point::new(Rational::from(x), Rational::from(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_predicate() {
        assert_eq!(orient(&pt(0, 0), &pt(1, 0), &pt(1, 1)), Orientation::CounterClockwise);
        assert_eq!(orient(&pt(0, 0), &pt(1, 0), &pt(1, -1)), Orientation::Clockwise);
        assert_eq!(orient(&pt(0, 0), &pt(1, 1), &pt(2, 2)), Orientation::Collinear);
    }

    #[test]
    fn lexicographic_order() {
        assert!(pt(0, 5) < pt(1, 0));
        assert!(pt(1, 0) < pt(1, 1));
        assert_eq!(pt(2, 3), pt(2, 3));
    }

    #[test]
    fn vector_ops() {
        let v = Vector::from_ints(3, 4);
        let w = Vector::from_ints(-4, 3);
        assert_eq!(v.dot(&w), Rational::ZERO);
        assert_eq!(v.cross(&w), Rational::from_int(25));
        assert_eq!(v.neg(), Vector::from_ints(-3, -4));
        assert_eq!(v.scale(Rational::from_int(2)), Vector::from_ints(6, 8));
    }

    #[test]
    fn angle_ordering() {
        // Directions sorted counter-clockwise starting at positive x axis.
        let dirs = [
            Vector::from_ints(1, 0),
            Vector::from_ints(1, 1),
            Vector::from_ints(0, 1),
            Vector::from_ints(-1, 1),
            Vector::from_ints(-1, 0),
            Vector::from_ints(-1, -1),
            Vector::from_ints(0, -1),
            Vector::from_ints(1, -1),
        ];
        for i in 0..dirs.len() {
            for j in 0..dirs.len() {
                let expected = i.cmp(&j);
                assert_eq!(dirs[i].angle_cmp(&dirs[j]), expected, "{i} vs {j}");
            }
        }
    }

    #[test]
    fn angle_equal_for_parallel_same_direction() {
        let a = Vector::from_ints(2, 4);
        let b = Vector::from_ints(1, 2);
        assert_eq!(a.angle_cmp(&b), Ordering::Equal);
        // Opposite directions are not equal.
        assert_ne!(a.angle_cmp(&b.neg()), Ordering::Equal);
    }

    #[test]
    fn midpoint() {
        let m = Point::midpoint(&pt(0, 0), &pt(2, 4));
        assert_eq!(m, pt(1, 2));
    }
}
