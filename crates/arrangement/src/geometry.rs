//! Geometric helpers on polylines used by the arrangement builder.

use spatial_core::prelude::*;

/// Twice the signed area enclosed by a closed polyline (the polyline is
/// interpreted cyclically; the last point needs not repeat the first).
pub fn closed_polyline_area_doubled(points: &[Point]) -> Rational {
    let n = points.len();
    let mut acc = Rational::ZERO;
    for i in 0..n {
        let p = &points[i];
        let q = &points[(i + 1) % n];
        acc += p.x * q.y - q.x * p.y;
    }
    acc
}

/// Even-odd containment test of a point with respect to a closed polyline
/// (which may repeat vertices but must not pass through the query point).
///
/// Uses the exact half-open crossing rule, so vertices on the horizontal line
/// through the query point are handled without perturbation.
pub fn point_in_closed_polyline(p: &Point, points: &[Point]) -> bool {
    let n = points.len();
    let mut crossings = 0usize;
    for i in 0..n {
        let a = &points[i];
        let b = &points[(i + 1) % n];
        if a.y == b.y {
            continue;
        }
        let (lo, hi) = if a.y <= b.y { (a, b) } else { (b, a) };
        if p.y >= lo.y && p.y < hi.y {
            let t = (p.y - lo.y) / (hi.y - lo.y);
            let x = lo.x + (hi.x - lo.x) * t;
            if x > p.x {
                crossings += 1;
            }
        }
    }
    crossings % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::point::pt;

    #[test]
    fn area_of_square() {
        let sq = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)];
        assert_eq!(closed_polyline_area_doubled(&sq), Rational::from_int(8));
        let rev = [pt(0, 2), pt(2, 2), pt(2, 0), pt(0, 0)];
        assert_eq!(closed_polyline_area_doubled(&rev), Rational::from_int(-8));
    }

    #[test]
    fn containment_in_square() {
        let sq = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)];
        assert!(point_in_closed_polyline(&pt(2, 2), &sq));
        assert!(!point_in_closed_polyline(&pt(5, 2), &sq));
        assert!(!point_in_closed_polyline(&pt(-1, 2), &sq));
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
        assert!(point_in_closed_polyline(&pt(1, 1), &walk));
        assert!(point_in_closed_polyline(&pt(3, 3), &walk));
        assert!(!point_in_closed_polyline(&pt(3, 1), &walk));
        assert!(!point_in_closed_polyline(&pt(1, 3), &walk));
    }
}
