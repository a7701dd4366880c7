//! Property tests for the PRNG and distributions.

use proptest::prelude::*;
use routesync_desim::Duration;
use routesync_rng::minstd::{MODULUS, MULTIPLIER};
use routesync_rng::{dist, JitterPolicy, MinStd};

proptest! {
    /// The generator's stream equals a direct 64-bit remainder's from any
    /// valid seed.
    #[test]
    fn minstd_algorithms_agree(seed in 1u32..0x7FFF_FFFE) {
        let mut g = MinStd::new(seed);
        let mut reference = seed;
        for _ in 0..64 {
            reference = ((reference as u64 * MULTIPLIER as u64) % MODULUS as u64) as u32;
            prop_assert_eq!(g.next(), reference);
            prop_assert!((1..MODULUS).contains(&reference));
        }
    }

    /// `from_u64` never panics and always produces a valid state.
    #[test]
    fn minstd_from_u64_total(x in any::<u64>()) {
        let g = MinStd::from_u64(x);
        prop_assert!(g.state() >= 1 && g.state() < 0x7FFF_FFFF);
    }

    /// Uniform duration samples respect their bounds for arbitrary
    /// intervals.
    #[test]
    fn uniform_duration_bounds(
        lo in 0u64..1_000_000_000_000,
        span in 0u64..1_000_000_000_000,
        seed in 1u32..0x7FFF_FFFE,
    ) {
        let d = dist::UniformDuration::new(
            Duration::from_nanos(lo),
            Duration::from_nanos(lo + span),
        );
        let mut rng = MinStd::new(seed);
        for _ in 0..32 {
            let s = d.sample(&mut rng);
            prop_assert!(s.as_nanos() >= lo && s.as_nanos() <= lo + span);
        }
    }

    /// Every jitter policy draws within its documented support.
    #[test]
    fn jitter_policies_respect_support(
        tp_ms in 1_000u64..600_000,
        tr_frac in 0.0f64..1.0,
        seed in 1u32..0x7FFF_FFFE,
    ) {
        let tp = Duration::from_millis(tp_ms);
        let tr = Duration::from_nanos((tp.as_nanos() as f64 * tr_frac * 0.5) as u64);
        let mut rng = MinStd::new(seed);
        let uniform = JitterPolicy::Uniform { tp, tr };
        for _ in 0..16 {
            let s = uniform.sample(&mut rng);
            prop_assert!(s >= tp - tr && s <= tp + tr);
        }
        let half = JitterPolicy::UniformHalf { tp };
        for _ in 0..16 {
            let s = half.sample(&mut rng);
            prop_assert!(s >= tp / 2 && s <= tp + tp / 2);
        }
        let fixed = JitterPolicy::FixedPerRouter { tp, tr }.materialize(&mut rng);
        let first = fixed.sample(&mut rng);
        prop_assert!(first >= tp - tr && first <= tp + tr);
        prop_assert_eq!(fixed.sample(&mut rng), first, "fixed policy must be constant");
    }

    /// `below` is always within bounds and covers the full range over many
    /// draws for tiny bounds.
    #[test]
    fn below_in_range(bound in 1u64..1_000_000, seed in 1u32..0x7FFF_FFFE) {
        let mut rng = MinStd::new(seed);
        for _ in 0..32 {
            prop_assert!(dist::below(&mut rng, bound) < bound);
        }
    }

    /// Exponential samples are non-negative and finite.
    #[test]
    fn exponential_is_positive(mean in 0.001f64..1e6, seed in 1u32..0x7FFF_FFFE) {
        let e = dist::Exp::new(mean);
        let mut rng = MinStd::new(seed);
        for _ in 0..32 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }
}
