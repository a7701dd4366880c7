//! Simulated time.
//!
//! [`SimTime`] is an absolute instant and [`Duration`] a span, both stored as
//! integer nanoseconds. Integer time gives three properties the Periodic
//! Messages model needs: exact equality (cluster membership is literal
//! timestamp equality), a total order with no NaN corner cases, and exact
//! modular arithmetic for the time-offset plots of the paper's Figure 4.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute simulated instant, in nanoseconds since the start of the run.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// An instant `secs` seconds after the origin.
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// An instant `secs` (fractional) seconds after the origin.
    ///
    /// Rounds to the nearest nanosecond. Panics if `secs` is negative, NaN,
    /// or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(Duration::from_secs_f64(secs).0)
    }

    /// An instant `millis` milliseconds after the origin.
    #[inline]
    pub fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only — never for
    /// simulation logic).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        Duration(self.0 - earlier.0)
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// A span of `secs` whole seconds.
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * NANOS_PER_SEC)
    }

    /// A span of `millis` milliseconds.
    #[inline]
    pub fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// A span of `micros` microseconds.
    #[inline]
    pub fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// A span of `nanos` nanoseconds.
    #[inline]
    pub fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// A span of `secs` fractional seconds, rounded to the nearest
    /// nanosecond.
    ///
    /// Panics if `secs` is negative, NaN, or exceeds the representable range
    /// (~584 years).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(nanos < u64::MAX as f64, "duration overflow: {secs} s");
        Duration(nanos.round() as u64)
    }

    /// Nanoseconds in the span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer, saturating at [`Duration::MAX`].
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: Duration) -> Option<Duration> {
        self.0.checked_sub(other.0).map(Duration)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("simulated time overflow (~584 years)"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: Duration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("simulated time underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, other: SimTime) -> Duration {
        self.since(other)
    }
}

impl Rem<Duration> for SimTime {
    type Output = Duration;
    #[inline]
    fn rem(self, d: Duration) -> Duration {
        assert!(!d.is_zero(), "modulo by zero duration");
        Duration(self.0 % d.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, other: Duration) -> Duration {
        Duration(self.0.checked_add(other.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, other: Duration) {
        *self = *self + other;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, other: Duration) -> Duration {
        Duration(self.0.checked_sub(other.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, other: Duration) {
        *self = *self - other;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, k: u64) -> Duration {
        Duration(self.0.checked_mul(k).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    #[inline]
    fn div(self, other: Duration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 / other.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({}s)", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversions_are_exact() {
        assert_eq!(SimTime::from_secs(121).as_nanos(), 121 * NANOS_PER_SEC);
        assert_eq!(Duration::from_millis(110).as_nanos(), 110_000_000);
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
    }

    #[test]
    fn fractional_seconds_round_to_nearest_nano() {
        // 0.11 s is not exactly representable in f64, but rounds to
        // 110_000_000 ns.
        assert_eq!(Duration::from_secs_f64(0.11).as_nanos(), 110_000_000);
        assert_eq!(Duration::from_secs_f64(1.01).as_nanos(), 1_010_000_000);
        assert_eq!(SimTime::from_secs_f64(0.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10);
        let d = Duration::from_millis(1500);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, Duration::from_secs(6));
        assert_eq!(Duration::from_secs(6) / 4, d);
        assert_eq!(Duration::from_secs(6) / d, 4);
    }

    #[test]
    fn modulo_gives_time_offset() {
        // The paper's Fig 4 plots send-time mod (Tp + Tc).
        let period = Duration::from_secs_f64(121.11);
        let t = SimTime::from_secs_f64(363.33 + 5.0);
        assert_eq!((t % period).as_nanos(), Duration::from_secs(5).as_nanos());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let _ = SimTime::MAX + Duration::from_nanos(1);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(Duration::MAX.saturating_mul(3), Duration::MAX);
        assert_eq!(
            Duration::from_secs(1).checked_sub(Duration::from_secs(2)),
            None
        );
    }

    #[test]
    fn ordering_is_total_and_matches_nanos() {
        let a = SimTime::from_nanos_for_test(5);
        let b = SimTime::from_nanos_for_test(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    impl SimTime {
        fn from_nanos_for_test(n: u64) -> Self {
            SimTime(n)
        }
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000000s");
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000000000s");
    }
}
