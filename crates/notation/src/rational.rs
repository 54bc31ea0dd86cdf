//! Exact rational arithmetic for score time.
//!
//! Durations and score-time positions are rationals (tuplets make beats
//! like 1/3 and 1/6 common); floating point would drift off measure
//! boundaries.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A rational number with `i64` numerator and denominator, always kept in
/// lowest terms with a positive denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64,
}

/// The zero rational.
pub const ZERO: Rational = Rational { num: 0, den: 1 };

/// The unit rational.
pub const ONE: Rational = Rational { num: 1, den: 1 };

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

impl Rational {
    /// Creates `num/den`, reducing to lowest terms. Panics on zero
    /// denominator.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// A whole number.
    pub fn from_int(n: i64) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// Numerator (after reduction).
    pub fn numer(&self) -> i64 {
        self.num
    }

    /// Denominator (positive, after reduction).
    pub fn denom(&self) -> i64 {
        self.den
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Cross-multiply in i128 to avoid overflow.
        let l = self.num as i128 * other.den as i128;
        let r = other.num as i128 * self.den as i128;
        l.cmp(&r)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Rational {
        Rational::from_int(n)
    }
}

/// Shorthand constructor.
pub fn rat(num: i64, den: i64) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(1, -2), rat(-1, 2));
        assert_eq!(rat(-3, -6), rat(1, 2));
        assert_eq!(rat(0, 5), ZERO);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(1, 2) / rat(1, 4), rat(2, 1));
        assert_eq!(-rat(1, 2), rat(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < ZERO);
        assert_eq!(rat(2, 4).cmp(&rat(1, 2)), Ordering::Equal);
        assert_eq!(rat(3, 4).min(rat(2, 3)), rat(2, 3));
        assert_eq!(rat(3, 4).max(rat(2, 3)), rat(3, 4));
    }

    #[test]
    fn tuplet_arithmetic_is_exact() {
        // Three triplet eighths = one quarter.
        let triplet_eighth = rat(1, 8) * rat(2, 3);
        assert_eq!(triplet_eighth + triplet_eighth + triplet_eighth, rat(1, 4));
    }

    #[test]
    fn display() {
        assert_eq!(rat(3, 4).to_string(), "3/4");
        assert_eq!(rat(8, 4).to_string(), "2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }
}
