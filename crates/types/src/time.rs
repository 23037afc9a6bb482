//! The simulation time base.
//!
//! The paper reports timing in *jiffies*: 1 jiffy = 1/32768 second, the tick
//! of the MicaZ 32 kHz clock crystal. All simulation timing uses the same
//! unit so the reproduced figures can be read against the paper directly
//! (e.g. the Fig. 3 sampling intervals of "10 jiffies").

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Number of jiffies per second (the MicaZ 32 kHz crystal frequency).
pub const JIFFIES_PER_SEC: u64 = 32_768;

/// An instant on the simulation clock, counted in jiffies since simulation
/// start.
///
/// `SimTime` is an *instant*; spans between instants are [`SimDuration`]s.
/// The distinction keeps protocol arithmetic honest: adding two instants is
/// a compile error.
///
/// # Examples
///
/// ```
/// use enviromic_types::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1000);
/// assert!((t.as_secs_f64() - 1.0).abs() < 1e-3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, counted in jiffies.
///
/// # Examples
///
/// ```
/// use enviromic_types::SimDuration;
///
/// let trc = SimDuration::from_secs_f64(1.0);
/// assert_eq!(trc.as_jiffies(), 32_768);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for timer bookkeeping.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw jiffy count.
    #[must_use]
    pub const fn from_jiffies(jiffies: u64) -> Self {
        SimTime(jiffies)
    }

    /// Returns the raw jiffy count since simulation start.
    #[must_use]
    pub const fn as_jiffies(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since simulation start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / JIFFIES_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from a raw jiffy count.
    #[must_use]
    pub const fn from_jiffies(jiffies: u64) -> Self {
        SimDuration(jiffies)
    }

    /// Creates a span from whole milliseconds (rounded to nearest jiffy).
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration((ms * JIFFIES_PER_SEC + 500) / 1000)
    }

    /// Creates a span from fractional seconds (rounded to nearest jiffy).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be a finite non-negative number of seconds, got {secs}"
        );
        SimDuration((secs * JIFFIES_PER_SEC as f64).round() as u64)
    }

    /// Returns the raw jiffy count.
    #[must_use]
    pub const fn as_jiffies(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / JIFFIES_PER_SEC as f64
    }

    /// Saturating subtraction of spans.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by an integer factor, saturating at the maximum.
    #[must_use]
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// True when the span is zero jiffies long.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The span between two instants, saturating at zero.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jiffy_second_round_trip() {
        let d = SimDuration::from_secs_f64(1.0);
        assert_eq!(d.as_jiffies(), JIFFIES_PER_SEC);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn millis_round_to_nearest_jiffy() {
        // 1 ms = 32.768 jiffies, rounds to 33.
        assert_eq!(SimDuration::from_millis(1).as_jiffies(), 33);
        assert_eq!(SimDuration::from_millis(1000).as_jiffies(), JIFFIES_PER_SEC);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::from_jiffies(100);
        let t1 = t0 + SimDuration::from_jiffies(50);
        assert_eq!(t1.as_jiffies(), 150);
        assert_eq!((t1 - t0).as_jiffies(), 50);
        // Subtraction of a later instant saturates rather than wrapping.
        assert_eq!((t0 - t1).as_jiffies(), 0);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let a = SimDuration::from_jiffies(u64::MAX - 1);
        assert_eq!((a + SimDuration::from_jiffies(10)).as_jiffies(), u64::MAX);
        assert_eq!(
            (SimDuration::from_jiffies(5) - SimDuration::from_jiffies(9)).as_jiffies(),
            0
        );
        assert_eq!(a.saturating_mul(3).as_jiffies(), u64::MAX);
    }

    #[test]
    fn display_is_seconds() {
        let t = SimTime::from_jiffies(JIFFIES_PER_SEC * 3 / 2);
        assert_eq!(t.to_string(), "1.500s");
        assert_eq!(SimDuration::from_jiffies(0).to_string(), "0.000s");
    }

    #[test]
    fn ordering_follows_jiffies() {
        assert!(SimTime::from_jiffies(5) < SimTime::from_jiffies(6));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_millis(10) < SimDuration::from_millis(11));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-0.5);
    }

    #[test]
    fn div_and_mul() {
        let d = SimDuration::from_jiffies(100);
        assert_eq!((d / 4).as_jiffies(), 25);
        assert_eq!((d * 3).as_jiffies(), 300);
    }
}
