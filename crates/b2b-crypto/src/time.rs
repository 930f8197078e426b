//! Millisecond time values shared by the time-stamping service, the network
//! simulator's virtual clock, and protocol deadlines.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time (or a duration), in milliseconds.
///
/// The middleware never assumes wall-clock time: under the deterministic
/// network simulator this is virtual time, under the sharded runtime it is
/// milliseconds since process start.
///
/// # Example
///
/// ```
/// use b2b_crypto::TimeMs;
/// let t = TimeMs(100) + TimeMs(50);
/// assert_eq!(t, TimeMs(150));
/// assert_eq!(t - TimeMs(150), TimeMs::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct TimeMs(pub u64);

impl TimeMs {
    /// Time zero.
    pub const ZERO: TimeMs = TimeMs(0);

    /// Returns the raw millisecond count.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: never underflows below zero.
    pub fn saturating_sub(self, rhs: TimeMs) -> TimeMs {
        TimeMs(self.0.saturating_sub(rhs.0))
    }
}

impl Add for TimeMs {
    type Output = TimeMs;
    fn add(self, rhs: TimeMs) -> TimeMs {
        TimeMs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeMs {
    fn add_assign(&mut self, rhs: TimeMs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeMs {
    type Output = TimeMs;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`TimeMs::saturating_sub`] when that is possible.
    fn sub(self, rhs: TimeMs) -> TimeMs {
        TimeMs(self.0 - rhs.0)
    }
}

impl fmt::Display for TimeMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Debug for TimeMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeMs({})", self.0)
    }
}

impl From<u64> for TimeMs {
    fn from(ms: u64) -> Self {
        TimeMs(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(TimeMs(5) + TimeMs(7), TimeMs(12));
        assert_eq!(TimeMs(12) - TimeMs(7), TimeMs(5));
        let mut t = TimeMs(1);
        t += TimeMs(2);
        assert_eq!(t, TimeMs(3));
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(TimeMs(3).saturating_sub(TimeMs(10)), TimeMs::ZERO);
        assert_eq!(TimeMs(10).saturating_sub(TimeMs(3)), TimeMs(7));
    }

    #[test]
    fn display() {
        assert_eq!(TimeMs(42).to_string(), "42ms");
    }

    #[test]
    fn ordering() {
        assert!(TimeMs(1) < TimeMs(2));
        assert_eq!(TimeMs::default(), TimeMs::ZERO);
    }
}
