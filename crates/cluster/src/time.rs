//! Virtual time arithmetic.
//!
//! All engine timings in this repository are *virtual*: they are computed from
//! work counters through the cost model, never measured from the host clock.
//! This module provides small, total-ordered wrappers over `f64` seconds so
//! virtual durations and instants cannot be confused with wall-clock values.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time, in seconds. Always finite and non-negative.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Panics (debug) on negative or non-finite input.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad duration: {secs}");
        SimDuration(secs.max(0.0))
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Seconds as `f64`.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimDuration {}

// Total order is sound: construction forbids NaN.
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating subtraction: virtual durations never go negative.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.2}s", self.0)
        } else {
            write!(f, "{:.1}ms", self.0 * 1e3)
        }
    }
}

/// A point on the virtual timeline, in seconds since simulation start.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimInstant(f64);

impl SimInstant {
    /// Simulation start.
    pub const EPOCH: SimInstant = SimInstant(0.0);

    /// Construct from seconds-since-epoch.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad instant: {secs}");
        SimInstant(secs.max(0.0))
    }

    /// Seconds since epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration since an earlier instant (saturating at zero).
    pub fn since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimInstant {}

impl Ord for SimInstant {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimInstant is never NaN")
    }
}

impl PartialOrd for SimInstant {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(1.5);
        let b = SimDuration::from_millis(500.0);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!((b - a).as_secs(), 0.0, "subtraction saturates");
        assert_eq!((a * 2.0).as_secs(), 3.0);
        assert_eq!((a / 3.0).as_secs(), 0.5);
    }

    #[test]
    fn duration_ordering_and_sum() {
        let mut v = vec![
            SimDuration::from_secs(3.0),
            SimDuration::from_secs(1.0),
            SimDuration::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
        let total: SimDuration = v.into_iter().sum();
        assert_eq!(total.as_secs(), 6.0);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(2.0);
        assert_eq!(t1.since(t0).as_secs(), 2.0);
        assert_eq!(t0.since(t1).as_secs(), 0.0, "since saturates");
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(2.5).to_string(), "2.50s");
        assert_eq!(SimDuration::from_millis(12.0).to_string(), "12.0ms");
    }
}
