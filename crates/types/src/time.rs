//! Virtual time for the discrete-event simulator.
//!
//! All latencies in the workspace — control-channel delays, link
//! propagation, switch processing — are expressed in [`SimDuration`]s
//! and accumulate on a [`SimTime`] axis. Using virtual time keeps every
//! experiment deterministic and lets the update-time evaluation (E2/E5)
//! report stable numbers independent of the host machine.
//!
//! Resolution is one nanosecond, stored as `u64`, which covers ~584
//! years of simulated time: far beyond any update experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation's virtual time axis, in nanoseconds since
/// simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to fractional milliseconds (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds. The demo's REST format expresses
    /// the injection `interval` in milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((ms * 1_000_000.0).round() as u64)
        }
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scale by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Whether the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_nanos(5).as_nanos(), 5);
    }

    #[test]
    fn from_millis_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(t.as_nanos(), 2_000_000);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!((t2 - t).as_nanos(), 500_000);
        assert_eq!(t.saturating_since(t2), SimDuration::ZERO);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_millis(1);
        }
        assert_eq!(t.as_millis_f64(), 10.0);
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_micros(250);
        d += SimDuration::from_micros(750);
        assert_eq!(d, SimDuration::from_millis(1));
    }

    #[test]
    fn saturation_on_overflow() {
        let t = SimTime(u64::MAX) + SimDuration::from_secs(10);
        assert_eq!(t.0, u64::MAX);
        assert_eq!(SimDuration(u64::MAX).saturating_mul(3).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimTime(1_500_000).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_micros(25).to_string(), "0.025ms");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
    }
}
