//! Sampling distributions used by the models.
//!
//! Everything here takes `&mut impl RngCore` so any generator in the
//! workspace (or from the `rand` crate) can drive it.

use rand_core::RngCore;
use routesync_desim::Duration;
use serde::{Deserialize, Serialize};

/// A uniform draw in `[0, 1)` with 53 bits of resolution.
pub fn unit_f64(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An unbiased uniform integer in `[0, bound)` (Lemire's multiply-shift
/// with rejection).
#[inline]
pub fn below(rng: &mut impl RngCore, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    loop {
        let x = rng.next_u64();
        let p = x as u128 * bound as u128;
        let lo = p as u64;
        if lo >= bound || lo >= x.wrapping_neg() % bound {
            return (p >> 64) as u64;
        }
    }
}

/// Uniform distribution over a closed `f64` interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformF64 {
    lo: f64,
    hi: f64,
}

impl UniformF64 {
    /// A uniform distribution on `[lo, hi]`. Panics if `lo > hi` or either
    /// bound is not finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "lo {lo} must not exceed hi {hi}");
        UniformF64 { lo, hi }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl RngCore) -> f64 {
        self.lo + (self.hi - self.lo) * unit_f64(rng)
    }
}

/// Uniform distribution over a closed [`Duration`] interval, exact at
/// nanosecond granularity.
///
/// This is the paper's routing-timer draw: `[Tp − Tr, Tp + Tr]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformDuration {
    lo: Duration,
    hi: Duration,
}

impl UniformDuration {
    /// A uniform distribution on `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(lo: Duration, hi: Duration) -> Self {
        assert!(lo <= hi, "lo {lo} must not exceed hi {hi}");
        UniformDuration { lo, hi }
    }

    /// The distribution centred on `center` with half-width `half` —
    /// `[center − half, center + half]`. Panics if `half > center` (the
    /// model requires a positive timer).
    pub fn centered(center: Duration, half: Duration) -> Self {
        assert!(
            half <= center,
            "jitter half-width {half} exceeds period {center}"
        );
        UniformDuration::new(center - half, center + half)
    }

    /// Draw one sample (uniform over every representable nanosecond in the
    /// interval, inclusive).
    #[inline]
    pub fn sample(&self, rng: &mut impl RngCore) -> Duration {
        let span = self.hi.as_nanos() - self.lo.as_nanos();
        if span == 0 {
            return self.lo;
        }
        // Inclusive upper bound: span+1 possible values. span < u64::MAX
        // here because Duration arithmetic would have overflowed earlier.
        Duration::from_nanos(self.lo.as_nanos() + below(rng, span + 1))
    }
}

/// Exponential distribution with the given mean.
///
/// The Markov-chain model assumes the gap between the largest cluster and
/// the following lone cluster is exponential with mean `Tp / (N − i + 1)`
/// (paper Section 5); simulations of that assumption use this type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// An exponential with mean `mean`. Panics unless `mean > 0` and finite.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exp { mean }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl RngCore) -> f64 {
        // -ln(1 - U) is Exp(1); 1-U is in (0, 1] so ln never sees zero.
        -(1.0 - unit_f64(rng)).ln() * self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minstd::MinStd;

    fn rng() -> MinStd {
        MinStd::new(20_230_914)
    }

    #[test]
    fn unit_f64_in_range() {
        let mut g = rng();
        for _ in 0..10_000 {
            let u = unit_f64(&mut g);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_duration_stays_in_bounds_and_hits_them() {
        let mut g = rng();
        let d = UniformDuration::centered(Duration::from_secs(121), Duration::from_millis(100));
        let lo = Duration::from_secs_f64(120.9);
        let hi = Duration::from_secs_f64(121.1);
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        for _ in 0..50_000 {
            let s = d.sample(&mut g);
            assert!(s >= lo && s <= hi, "sample {s} out of [{lo}, {hi}]");
            min = min.min(s);
            max = max.max(s);
        }
        // With 50k draws over a 200ms window, extremes land within 0.1 ms
        // of the bounds with overwhelming probability.
        assert!(min - lo < Duration::from_micros(100));
        assert!(hi - max < Duration::from_micros(100));
    }

    #[test]
    fn uniform_duration_degenerate_interval() {
        let mut g = rng();
        let d = UniformDuration::new(Duration::from_secs(30), Duration::from_secs(30));
        assert_eq!(d.sample(&mut g), Duration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "exceeds period")]
    fn centered_rejects_oversized_jitter() {
        let _ = UniformDuration::centered(Duration::from_secs(1), Duration::from_secs(2));
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut g = rng();
        let e = Exp::new(6.05); // Tp/N for the paper's reference parameters
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = e.sample(&mut g);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 6.05).abs() < 0.05,
            "sample mean {mean} too far from 6.05"
        );
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut g = rng();
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[below(&mut g, 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
