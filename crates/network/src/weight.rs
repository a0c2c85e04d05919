//! Totally-ordered edge weights.
//!
//! The paper treats an edge weight `|n,n'|` as any positive scalar — travel
//! distance, trip time or toll. We model it as an `f64` wrapped in a type
//! that (a) rejects NaN at construction and (b) provides a total order so it
//! can live in `BinaryHeap`s and `BTreeMap`s. `+∞` is permitted: it is the
//! sentinel the maintenance algorithms use for deleted edges (Section 5.2.2
//! models edge deletion as "change of its edge distance to infinity").
//!
//! `−0.0` is stored as `+0.0`, so equal weights have equal bits and the
//! raw bit pattern (`get().to_bits()` as a `u64`) orders weights exactly as
//! [`Ord`] does — the search queue keys on it directly.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A non-NaN, non-negative edge or path weight.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Weight(f64);

impl Weight {
    /// The zero weight (distance from a node to itself).
    pub const ZERO: Weight = Weight(0.0);
    /// Infinite weight: unreachable, or a tombstoned edge.
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// Wraps a raw value; `-0.0` becomes `+0.0`.
    ///
    /// # Panics
    /// Panics if `v` is NaN or negative — both indicate a logic error in the
    /// caller and would silently corrupt every shortest-path computation
    /// downstream, so we fail fast.
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "weight must not be NaN");
        assert!(v >= 0.0, "weight must be non-negative, got {v}");
        // `-0.0 + 0.0` is `+0.0`; every other value passes unchanged.
        Weight(v + 0.0)
    }

    /// Fallible constructor for untrusted input; `-0.0` becomes `+0.0`.
    #[inline]
    pub fn try_new(v: f64) -> Result<Self, crate::NetworkError> {
        if v.is_nan() || v < 0.0 {
            Err(crate::NetworkError::InvalidWeight(v))
        } else {
            Ok(Weight(v + 0.0))
        }
    }

    /// The raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// `true` when this weight is the `+∞` sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// `true` when this weight is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Minimum of two weights.
    #[inline]
    pub fn min(self, other: Weight) -> Weight {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two weights.
    #[inline]
    pub fn max(self, other: Weight) -> Weight {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Relative-tolerance equality, used by tests and the shortcut
    /// filter-and-refresh pass to compare recomputed path lengths against
    /// stored ones without tripping on floating-point rounding.
    #[inline]
    pub fn approx_eq(self, other: Weight) -> bool {
        if self.0 == other.0 {
            return true;
        }
        if self.0.is_infinite() || other.0.is_infinite() {
            return false;
        }
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= 1e-9 * scale
    }
}

impl Eq for Weight {}

impl Ord for Weight {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN is rejected and -0.0 normalised at construction, so
        // total_cmp agrees with `==` and the IEEE partial order on every
        // value we can hold.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        self.0 += rhs.0;
    }
}

impl Sub for Weight {
    type Output = Weight;
    #[inline]
    fn sub(self, rhs: Weight) -> Weight {
        Weight::new((self.0 - rhs.0).max(0.0))
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for Weight {
    #[inline]
    fn from(v: f64) -> Self {
        Weight::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_infinity_sorts_last() {
        let mut v = [Weight::INFINITY, Weight::new(2.0), Weight::ZERO, Weight::new(1.5)];
        v.sort();
        assert_eq!(v[0], Weight::ZERO);
        assert_eq!(v[3], Weight::INFINITY);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = Weight::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_is_rejected() {
        let _ = Weight::new(-1.0);
    }

    #[test]
    fn try_new_reports_errors() {
        assert!(Weight::try_new(f64::NAN).is_err());
        assert!(Weight::try_new(-0.5).is_err());
        assert!(Weight::try_new(3.0).is_ok());
    }

    #[test]
    fn negative_zero_is_zero_to_eq_ord_and_bits() {
        use std::collections::BTreeSet;
        for w in [Weight::new(-0.0), Weight::try_new(-0.0).unwrap(), Weight::from(-0.0)] {
            assert_eq!(w, Weight::ZERO);
            assert_eq!(w.cmp(&Weight::ZERO), Ordering::Equal);
            assert_eq!(w.get().to_bits(), Weight::ZERO.get().to_bits());
            assert_eq!(BTreeSet::from([w, Weight::ZERO]).len(), 1);
        }
    }

    #[test]
    fn arithmetic_behaves() {
        assert_eq!(Weight::new(1.0) + Weight::new(2.0), Weight::new(3.0));
        assert_eq!(Weight::new(5.0) - Weight::new(2.0), Weight::new(3.0));
        // Saturating subtraction keeps the non-negative invariant.
        assert_eq!(Weight::new(1.0) - Weight::new(2.0), Weight::ZERO);
        let mut w = Weight::new(1.0);
        w += Weight::new(0.5);
        assert_eq!(w, Weight::new(1.5));
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Weight::new(0.1 + 0.2);
        let b = Weight::new(0.3);
        assert!(a.approx_eq(b));
        assert!(!Weight::new(1.0).approx_eq(Weight::new(1.1)));
        assert!(Weight::INFINITY.approx_eq(Weight::INFINITY));
        assert!(!Weight::INFINITY.approx_eq(Weight::new(1.0)));
    }

    #[test]
    fn min_max() {
        let a = Weight::new(1.0);
        let b = Weight::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
