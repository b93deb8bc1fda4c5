//! Virtual time.
//!
//! All costs in the reproduction are [`SimDuration`]s and all schedule
//! points are [`SimTime`]s, both counted in integer nanoseconds so that
//! accumulation across millions of records stays exact and deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds; negatives clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            SimDuration(0)
        } else {
            SimDuration((secs * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Capped exponential backoff: `base · multiplier^attempt`, clamped to
    /// `cap`. Attempt 0 is the first retry. All charging is virtual time —
    /// a backoff pause is a task-time charge like any other modeled cost,
    /// so retried schedules stay exactly reproducible.
    pub fn exp_backoff(base: SimDuration, multiplier: f64, attempt: u32, cap: SimDuration) -> Self {
        if base.is_zero() {
            return SimDuration::ZERO;
        }
        // Saturate the exponent computation in f64 space; the cap bounds
        // the result long before precision matters.
        let factor = multiplier.max(1.0).powi(attempt.min(63) as i32);
        base.mul_f64(factor).min(cap)
    }

    /// True if zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> Self {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            efind_common::fmtutil::human_secs(self.as_secs_f64())
        )
    }
}

/// A point on the virtual clock (nanoseconds since the job epoch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time point from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since another (earlier) time point.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two time points.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t+{}",
            efind_common::fmtutil::human_secs(self.as_secs_f64())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert_eq!(a + b, SimDuration::from_millis(5));
        assert_eq!(a - b, SimDuration::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 2, SimDuration::from_millis(6));
        assert_eq!(a / 3, SimDuration::from_millis(1));
        assert_eq!(a.mul_f64(2.0), SimDuration::from_millis(6));
    }

    #[test]
    fn time_points() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_secs(2));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
        assert_eq!(t.max(SimTime::ZERO), t);
    }

    #[test]
    fn exp_backoff_grows_and_caps() {
        let base = SimDuration::from_millis(1);
        let cap = SimDuration::from_millis(100);
        assert_eq!(
            SimDuration::exp_backoff(base, 2.0, 0, cap),
            SimDuration::from_millis(1)
        );
        assert_eq!(
            SimDuration::exp_backoff(base, 2.0, 3, cap),
            SimDuration::from_millis(8)
        );
        assert_eq!(SimDuration::exp_backoff(base, 2.0, 20, cap), cap);
        // A zero base disables the pause entirely.
        assert_eq!(
            SimDuration::exp_backoff(SimDuration::ZERO, 2.0, 5, cap),
            SimDuration::ZERO
        );
        // Sub-1 multipliers clamp to a constant pause, never a shrinking one.
        assert_eq!(
            SimDuration::exp_backoff(base, 0.5, 4, cap),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4u64).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
