//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a `SimTime` from nanoseconds since the start of the run.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a `SimTime` from microseconds since the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates a `SimTime` from milliseconds since the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates a `SimTime` from seconds since the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction; `None` if `other` is later than `self`.
    pub fn checked_sub(self, other: SimTime) -> Option<Duration> {
        self.0.checked_sub(other.0).map(Duration::from_nanos)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 10_000 {
            write!(f, "{ns}ns")
        } else if ns < 10_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 10_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
    }

    #[test]
    fn arithmetic_is_saturating_and_ordered() {
        let a = SimTime::from_nanos(100);
        let b = a + Duration::from_nanos(50);
        assert_eq!(b.as_nanos(), 150);
        assert_eq!(b - a, Duration::from_nanos(50));
        assert_eq!(a - b, Duration::ZERO); // saturates
        assert!(a < b);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Duration::from_nanos(50)));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_nanos(123).to_string(), "123ns");
        assert_eq!(SimTime::from_micros(45).to_string(), "45.00us");
        assert_eq!(SimTime::from_millis(120).to_string(), "120.00ms");
        assert_eq!(SimTime::from_secs(11).to_string(), "11.000s");
    }
}
