//! Exact rational arithmetic backed by `i128`.
//!
//! All geometric computation in this workspace is exact: the topological
//! invariant of an instance (the paper's `T_I`) is a purely combinatorial
//! object, and a single misclassified intersection or orientation would change
//! it. We therefore avoid floating point entirely in the construction path.
//!
//! The representation is a normalized fraction `num / den` with `den > 0` and
//! `gcd(|num|, den) == 1`, both stored as `i128`. Every arithmetic operation
//! uses checked `i128` arithmetic and panics with a descriptive message on
//! overflow. Nothing bounds the intermediates in general: an intersection
//! point of two slanted segments has a denominator near the square of the
//! coordinates. The arrangement compares directions of input segments, not
//! differences of such points, but its nesting test still evaluates
//! orientations at them. The measured limit is documented on
//! [`Rational::MAX_RECOMMENDED_COORD`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A rational number with exact `i128` numerator and denominator.
///
/// Invariants: `den > 0` and `gcd(|num|, den) == 1`. The value `0` is
/// represented as `0 / 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers.
fn gcd(mut a: i128, mut b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cold]
#[inline(never)]
fn overflow(op: &str) -> ! {
    panic!(
        "exact rational arithmetic overflowed i128 during `{op}`; \
         input coordinates must stay within Rational::MAX_RECOMMENDED_COORD"
    );
}

macro_rules! checked {
    ($e:expr, $op:literal) => {
        match $e {
            Some(v) => v,
            None => overflow($op),
        }
    };
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };
    /// Two.
    pub const TWO: Rational = Rational { num: 2, den: 1 };

    /// Largest input-coordinate magnitude at which slanted input is known
    /// to build without overflowing the internal `i128` representation.
    ///
    /// This is a measurement, not a proof. The root suite's
    /// `slanted_input.rs` builds a quadrilateral and a triangle with all
    /// edges slanted, at coordinates up to `k + 13`, and the same pair with
    /// a small triangle nested in both. After the sweep the arrangement
    /// compares directions only in its per-build direction table (cross
    /// products of input-segment directions, degree 2) and then by integer
    /// keys, and it nests the inner triangle by crossing parity whose side
    /// tests are against input segments (degree 2 as well). So both cases
    /// commit far beyond this bound: at every sampled `k` up to 5·10⁷, and
    /// both first fail at `k = 10⁸`, in the sweep's point comparisons. The
    /// value is kept until a proven bound replaces it: slanted input nested
    /// in a *separate* component is still located by orientation tests
    /// against arrangement points, whose degree grows with the crossings
    /// the enclosing component has. Axis-parallel input meets only at
    /// integer points and goes much further.
    pub const MAX_RECOMMENDED_COORD: i64 = 50_000;

    /// Construct a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let (mut num, mut den) = (num, den);
        if den < 0 {
            num = checked!(num.checked_neg(), "new");
            den = checked!(den.checked_neg(), "new");
        }
        // Fast path: already an integer (the overwhelmingly common case in
        // arrangement construction, where most coordinates are grid points).
        if den == 1 || num == 0 {
            return Rational { num, den: if num == 0 { 1 } else { den } };
        }
        let g = gcd(num.unsigned_abs() as i128, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        Rational { num, den }
    }

    /// Construct from an integer.
    pub fn from_int(v: i64) -> Self {
        Rational { num: v as i128, den: 1 }
    }

    /// Numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Is this value zero?
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Sign of the value: `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match self.num.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational { num: checked!(self.num.checked_abs(), "abs"), den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The floor of the value as an integer.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Round toward negative infinity.
            let q = self.num / self.den;
            if self.num % self.den == 0 {
                q
            } else {
                q - 1
            }
        }
    }

    /// The ceiling of the value as an integer.
    pub fn ceil(&self) -> i128 {
        -((-*self).floor())
    }

    /// Midpoint of two rationals.
    pub fn midpoint(a: Self, b: Self) -> Self {
        (a + b) / Rational::TWO
    }

    /// Compare without materializing the difference (avoids overflow in the
    /// common comparison path and keeps ordering total).
    fn cmp_impl(&self, other: &Self) -> Ordering {
        // Fast path: two integers (or equal denominators) compare directly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0)
        let lhs = checked!(self.num.checked_mul(other.den), "cmp");
        let rhs = checked!(other.num.checked_mul(self.den), "cmp");
        lhs.cmp(&rhs)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_impl(other)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self {
        // Short circuits: adding zero is free, and integer + integer needs no
        // gcd at all. These dominate the sweep comparator's workload, where
        // most coordinates are integers.
        if self.num == 0 {
            return rhs;
        }
        if rhs.num == 0 {
            return self;
        }
        if self.den == 1 && rhs.den == 1 {
            return Rational { num: checked!(self.num.checked_add(rhs.num), "add"), den: 1 };
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduced by gcd(b, d) first to keep
        // intermediates small.
        let g = gcd(self.den, rhs.den);
        let bd = self.den / g;
        let dd = rhs.den / g;
        let num = checked!(
            checked!(self.num.checked_mul(dd), "add").checked_add(checked!(
                rhs.num.checked_mul(bd),
                "add"
            )),
            "add"
        );
        let den = checked!(self.den.checked_mul(dd), "add");
        Rational::new(num, den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self {
        // Mirror of `add`'s short circuits, avoiding the negate-then-add
        // round trip in the common cases.
        if rhs.num == 0 {
            return self;
        }
        if self.den == 1 && rhs.den == 1 {
            return Rational { num: checked!(self.num.checked_sub(rhs.num), "sub"), den: 1 };
        }
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self {
        // Short circuits: zero annihilates, ±1 passes through (no gcd, no
        // multiplication, no renormalization).
        if self.num == 0 || rhs.num == 0 {
            return Rational::ZERO;
        }
        if self.den == 1 {
            if self.num == 1 {
                return rhs;
            }
            if self.num == -1 {
                return -rhs;
            }
        }
        if rhs.den == 1 {
            if rhs.num == 1 {
                return self;
            }
            if rhs.num == -1 {
                return -self;
            }
            // Integer * integer: no cross-reduction possible against den 1.
            if self.den == 1 {
                return Rational { num: checked!(self.num.checked_mul(rhs.num), "mul"), den: 1 };
            }
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs() as i128, rhs.den);
        let g2 = gcd(rhs.num.unsigned_abs() as i128, self.den);
        let num = checked!((self.num / g1).checked_mul(rhs.num / g2), "mul");
        let den = checked!((self.den / g2).checked_mul(rhs.den / g1), "mul");
        Rational::new(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Self) -> Self {
        assert!(rhs.num != 0, "division by zero rational");
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self {
        Rational { num: checked!(self.num.checked_neg(), "neg"), den: self.den }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience constructor: `rat(3)` or `rat((3, 4))`.
pub fn rat<T: Into<Rational>>(v: T) -> Rational {
    v.into()
}

impl From<(i64, i64)> for Rational {
    fn from((n, d): (i64, i64)) -> Self {
        Rational::new(n as i128, d as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(0, 5).denom(), 1);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from_int(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering() {
        let a = Rational::new(1, 3);
        let b = Rational::new(2, 5);
        assert!(a < b);
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn signum_abs_recip() {
        assert_eq!(Rational::new(-3, 7).signum(), -1);
        assert_eq!(Rational::ZERO.signum(), 0);
        assert_eq!(Rational::new(3, 7).signum(), 1);
        assert_eq!(Rational::new(-3, 7).abs(), Rational::new(3, 7));
        assert_eq!(Rational::new(-3, 7).recip(), Rational::new(-7, 3));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rational::new(3, 6)), "1/2");
        assert_eq!(format!("{}", Rational::from_int(-4)), "-4");
    }

    #[test]
    fn midpoint() {
        assert_eq!(
            Rational::midpoint(Rational::from_int(1), Rational::from_int(2)),
            Rational::new(3, 2)
        );
    }

    #[test]
    fn fast_paths_agree_with_general_paths() {
        // Exercise every short-circuit branch against values that also take
        // the general path, over a small exhaustive grid.
        let values: Vec<Rational> = [
            (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (7, 1), (1, 2), (-1, 2), (3, 2),
            (-3, 2), (2, 3), (-5, 3), (7, 6), (-7, 6),
        ]
        .into_iter()
        .map(|(n, d)| Rational::new(n, d))
        .collect();
        // Reference implementations with no short circuits.
        let ref_add = |a: Rational, b: Rational| {
            Rational::new(a.num * b.den + b.num * a.den, a.den * b.den)
        };
        let ref_mul = |a: Rational, b: Rational| Rational::new(a.num * b.num, a.den * b.den);
        for &a in &values {
            for &b in &values {
                assert_eq!(a + b, ref_add(a, b), "{a} + {b}");
                assert_eq!(a - b, ref_add(a, -b), "{a} - {b}");
                assert_eq!(a * b, ref_mul(a, b), "{a} * {b}");
                let expected = (a.num * b.den).cmp(&(b.num * a.den));
                assert_eq!(a.cmp(&b), expected, "{a} <=> {b}");
            }
        }
    }

    #[test]
    fn fast_path_results_stay_normalized() {
        // Every constructor and short circuit must preserve den > 0 and
        // gcd(|num|, den) == 1 so that Eq/Hash remain canonical.
        let check = |r: Rational| {
            assert!(r.denom() > 0);
            let g = {
                let (mut a, mut b) = (r.numer().unsigned_abs(), r.denom().unsigned_abs());
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                a
            };
            assert!(r.numer() == 0 || g == 1, "{r} not normalized");
        };
        check(Rational::new(0, 7));
        check(Rational::new(4, 2));
        check(Rational::from_int(3) + Rational::from_int(5));
        check(Rational::new(1, 2) * Rational::from_int(-1));
        check(Rational::from_int(0) * Rational::new(3, 7));
        check(Rational::new(3, 7) - Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn assign_ops() {
        let mut a = Rational::new(1, 2);
        a += Rational::new(1, 4);
        assert_eq!(a, Rational::new(3, 4));
        a -= Rational::new(1, 4);
        assert_eq!(a, Rational::new(1, 2));
        a *= Rational::from_int(4);
        assert_eq!(a, Rational::from_int(2));
        a /= Rational::from_int(4);
        assert_eq!(a, Rational::new(1, 2));
    }
}
