//! Raw-state stepping for hot simulation loops.
//!
//! The burst kernel (`routesync-core`'s `FastModel`) stores each router's
//! MinStd generator as a bare `u32` next to its flattened jitter bounds,
//! so a re-arm draw touches one small struct and never matches on a
//! policy enum or an algorithm tag. These functions advance such raw
//! states with **exactly** the same arithmetic as the [`crate::MinStd`]
//! object API (CartaFold stepping, the composite 64-bit output, Lemire
//! rejection), which is what keeps the kernel's traces bit-identical to
//! the event-driven engine's draws. The equivalence is pinned by unit
//! tests below; any change here must keep them green.
//!
//! Only the default [`crate::MinStdAlgorithm::CartaFold`] stepping is
//! exposed: every generator the simulators build (via [`crate::stream`])
//! uses it.

use crate::minstd::step_carta_fold;

/// Advance a raw CartaFold state one step and return the new state
/// (identical to [`crate::MinStd::next`] on a default-algorithm generator).
#[inline]
pub fn step(state: u32) -> u32 {
    step_carta_fold(state)
}

/// Two generator steps packed into 62 uniform bits, top-aligned to 64 —
/// the raw-state form of the private `MinStd::composite_u64`.
#[inline]
fn composite_u64(state: &mut u32) -> u64 {
    *state = step_carta_fold(*state);
    let a = (*state - 1) as u64;
    *state = step_carta_fold(*state);
    let b = (*state - 1) as u64;
    (a << 33) | (b << 2)
}

/// `rand_core::RngCore::next_u64` on a raw state: the 62-bit composite with
/// the two low bits filled from a third step.
#[inline]
pub fn next_u64(state: &mut u32) -> u64 {
    let hi = composite_u64(state);
    *state = step_carta_fold(*state);
    let lo = (*state - 1) as u64 & 0b11;
    hi | lo
}

/// An unbiased uniform integer in `[0, bound)` — [`crate::dist::below`] on
/// a raw state (Lemire's multiply-shift with rejection).
///
/// Panics if `bound == 0`.
#[inline]
pub fn below(state: &mut u32, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    loop {
        let x = next_u64(state);
        let p = x as u128 * bound as u128;
        let lo = p as u64;
        if lo >= bound || lo >= x.wrapping_neg() % bound {
            return (p >> 64) as u64;
        }
    }
}

/// [`crate::dist::UniformDuration::sample`] on a raw state, in bare
/// nanoseconds: a uniform draw from `[lo, lo + span]` inclusive, consuming
/// **no** randomness when `span == 0` (exactly like the object API, which
/// is what keeps degenerate-jitter traces identical).
#[inline]
pub fn sample_uniform_nanos(state: &mut u32, lo: u64, span: u64) -> u64 {
    if span == 0 {
        return lo;
    }
    lo + below(state, span + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::UniformDuration;
    use crate::MinStd;
    use rand_core::RngCore;
    use routesync_desim::Duration;

    /// A spread of valid states, including stream-derived ones.
    fn states() -> Vec<u32> {
        let mut v = vec![1, 2, 16_807, 127_773, 0x7FFF_FFFE, 1_043_618_065];
        for seed in [0u64, 1, 42, u64::MAX] {
            for idx in [0u64, 1, 19] {
                v.push(crate::stream(seed, idx).state());
            }
        }
        v
    }

    #[test]
    fn step_matches_minstd_next() {
        for s in states() {
            let mut g = MinStd::new(s);
            assert_eq!(step(s), g.next(), "state {s}");
        }
    }

    #[test]
    fn next_u64_matches_rngcore() {
        for s in states() {
            let mut g = MinStd::new(s);
            let mut raw = s;
            for i in 0..16 {
                assert_eq!(next_u64(&mut raw), g.next_u64(), "state {s} draw {i}");
                assert_eq!(raw, g.state(), "state {s} draw {i}");
            }
        }
    }

    #[test]
    fn below_matches_dist_below() {
        for s in states() {
            for bound in [1u64, 2, 7, 200_000_001, u64::MAX / 3, u64::MAX] {
                let mut g = MinStd::new(s);
                let mut raw = s;
                for i in 0..8 {
                    assert_eq!(
                        below(&mut raw, bound),
                        crate::dist::below(&mut g, bound),
                        "state {s} bound {bound} draw {i}"
                    );
                    assert_eq!(raw, g.state());
                }
            }
        }
    }

    #[test]
    fn sample_matches_uniform_duration() {
        let cases = [
            (Duration::from_secs(120), Duration::from_nanos(200_000_001)),
            (Duration::from_secs(15), Duration::from_secs(30)),
            (Duration::from_secs(30), Duration::ZERO),
            (Duration::ZERO, Duration::from_secs(121)),
        ];
        for s in states() {
            for (lo, span) in cases {
                let dist = UniformDuration::new(lo, lo + span);
                let mut g = MinStd::new(s);
                let mut raw = s;
                for i in 0..8 {
                    assert_eq!(
                        sample_uniform_nanos(&mut raw, lo.as_nanos(), span.as_nanos()),
                        dist.sample(&mut g).as_nanos(),
                        "state {s} lo {lo} span {span} draw {i}"
                    );
                    assert_eq!(raw, g.state(), "degenerate spans must not draw");
                }
            }
        }
    }
}
