//! Exact rational arithmetic on `i128`.
//!
//! Densities (`|Ψh(S)| / |S|`), compact-number bounds and flow
//! thresholds are ratios of modest integers; `i128` with eager gcd
//! reduction keeps every quantity in this workspace exact. The type is
//! deliberately minimal — just what the pipeline needs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor (non-negative; `gcd(0, 0) = 0`).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple. Panics on overflow in debug builds.
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)) * b
}

impl Ratio {
    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Ratio { num: 0, den: 1 };
        }
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `i` as a ratio.
    pub const fn from_int(i: i128) -> Self {
        Ratio { num: i, den: 1 }
    }

    /// Zero.
    pub const fn zero() -> Self {
        Ratio { num: 0, den: 1 }
    }

    /// Numerator (lowest terms, sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (lowest terms, always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Approximate `f64` value, for reporting only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact scaling: `self * scale`, asserting the result is integral.
    /// Used to turn rational capacities into integer flow capacities.
    pub fn scale_to_int(&self, scale: i128) -> i128 {
        let g = gcd(self.den, scale);
        assert!(
            g == self.den,
            "scale {scale} is not a multiple of denominator {}",
            self.den
        );
        self.num * (scale / self.den)
    }

    /// Whether the ratio is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_frac(self.num, self.den, other.num, other.den)
    }
}

/// Exact overflow-free comparison of `a/b` vs `c/d` (`b, d > 0`) by
/// comparing continued-fraction expansions: equal integer parts recurse
/// on the flipped fractional remainders, so operands shrink like the
/// Euclidean algorithm and no multiplication is needed.
fn cmp_frac(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    debug_assert!(b > 0 && d > 0);
    let (ia, ic) = (a.div_euclid(b), c.div_euclid(d));
    match ia.cmp(&ic) {
        Ordering::Equal => {}
        other => return other,
    }
    let (ra, rc) = (a - ia * b, c - ic * d); // 0 ≤ ra < b, 0 ≤ rc < d
    match (ra == 0, rc == 0) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        // ra/b vs rc/d ⟺ reverse(b/ra vs d/rc)
        (false, false) => cmp_frac(d, rc, b, ra),
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Reduce cross terms first to limit growth.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Ratio::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(rhs.num != 0, "division by zero ratio");
        self * Ratio::new(rhs.den, rhs.num)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, -7), Ratio::zero());
        assert_eq!(Ratio::new(6, 3), Ratio::from_int(2));
        assert!(Ratio::from_int(2).is_integer());
        assert!(!Ratio::new(1, 2).is_integer());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(13, 6);
        let b = Ratio::new(1, 2);
        assert_eq!(a + b, Ratio::new(8, 3));
        assert_eq!(a - b, Ratio::new(5, 3));
        assert_eq!(a * b, Ratio::new(13, 12));
        assert_eq!(a / b, Ratio::new(13, 3));
        assert_eq!(-a, Ratio::new(-13, 6));
    }

    #[test]
    fn ordering_matches_reals() {
        let vals = [
            Ratio::new(-1, 2),
            Ratio::zero(),
            Ratio::new(1, 3),
            Ratio::new(1, 2),
            Ratio::new(13, 6),
            Ratio::from_int(3),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(Ratio::new(2, 4).cmp(&Ratio::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 3), 0);
    }

    #[test]
    fn scale_to_int_is_exact() {
        let rho = Ratio::new(13, 6);
        assert_eq!(rho.scale_to_int(6), 13);
        assert_eq!(rho.scale_to_int(12), 26);
        assert_eq!(Ratio::from_int(5).scale_to_int(7), 35);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn scale_to_int_rejects_inexact_scale() {
        Ratio::new(1, 3).scale_to_int(4);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(13, 6).to_string(), "13/6");
        assert_eq!(Ratio::from_int(4).to_string(), "4");
    }

    #[test]
    fn paper_density_example() {
        // Figure 2: thirteen 3-cliques over six vertices → ρ = 13/6;
        // the verification threshold ρ − 1/|V|² with |V| = 20.
        let rho = Ratio::new(13, 6);
        let eps = Ratio::new(1, 400);
        let thr = rho - eps;
        assert_eq!(thr, Ratio::new(13 * 400 - 6, 2400));
        assert!(thr < rho);
        assert!(thr > Ratio::from_int(2));
    }
}
