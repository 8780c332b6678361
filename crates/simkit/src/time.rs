//! Simulated time: a monotonically non-decreasing clock with microsecond
//! resolution.
//!
//! Wireless sensor networks are "real time" systems in the paper's
//! context-dependent sense (§1 of the paper): latencies of interest range
//! from sub-millisecond dispatch costs to multi-minute flood propagation.
//! A `u64` count of microseconds covers ~584,000 years of simulation,
//! which is sufficient for every experiment.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in microseconds since simulation
/// start.
///
/// `SimTime` is ordered, hashable and cheap to copy. Subtracting two
/// instants yields a [`SimDuration`]; adding a duration to an instant
/// yields a later instant.
///
/// # Example
///
/// ```
/// use garnet_simkit::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(3);
/// assert_eq!(t1 - t0, SimDuration::from_micros(3_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a raw microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from a millisecond count.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from a second count.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at the last representable instant instead of
    /// overflowing.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked duration multiplication.
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}µs", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors_round_trip() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(5).as_millis(), 5);
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - SimTime::from_micros(10)).as_micros(), 5);
        assert_eq!((SimDuration::from_micros(4) * 3).as_micros(), 12);
        assert_eq!((SimDuration::from_micros(9) / 2).as_micros(), 4);
    }

    #[test]
    fn saturating_since_clamps_negative_spans() {
        let early = SimTime::from_micros(5);
        let late = SimTime::from_micros(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 4);
    }

    #[test]
    fn saturating_add_does_not_overflow() {
        let last = SimTime::from_micros(u64::MAX);
        assert_eq!(last.saturating_add(SimDuration::from_secs(1)), last);
    }

    #[test]
    fn display_picks_a_readable_unit() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7µs");
        assert_eq!(SimDuration::from_micros(7_500).to_string(), "7.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_micros(3), SimTime::ZERO, SimTime::from_micros(1)];
        v.sort();
        assert_eq!(v, vec![SimTime::ZERO, SimTime::from_micros(1), SimTime::from_micros(3)]);
    }
}
