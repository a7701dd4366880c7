//! The Park-Miller "minimal standard" generator.
//!
//! `x ← a·x mod m` with `a = 16807 = 7⁵` and `m = 2³¹ − 1` (a Mersenne
//! prime), a full-period multiplicative congruential generator over
//! `[1, m−1]`. The paper's closing recommendation for generating routing
//! jitter points at D. Carta, *"Two Fast Implementations of the 'Minimal
//! Standard' Random Number Generator"*, CACM 33(1), 1990. The generator
//! steps by Carta's fold, checked against the Park-Miller test vector and
//! a direct 64-bit remainder in the tests.

use rand_core::{impls, Error, RngCore};
use serde::{Deserialize, Serialize};

/// The multiplier `a = 7⁵`.
pub const MULTIPLIER: u32 = 16_807;
/// The modulus `m = 2³¹ − 1`.
pub const MODULUS: u32 = 0x7FFF_FFFF;

/// The minimal standard generator.
///
/// State is always in `[1, m−1]`; the sequence has full period `m − 2`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinStd {
    state: u32,
}

impl MinStd {
    /// A generator with the given seed.
    ///
    /// Panics if `seed` is not in `[1, m−1]` — 0 and `m` are fixed points of
    /// the recurrence and would freeze the generator.
    pub fn new(seed: u32) -> Self {
        assert!(
            (1..MODULUS).contains(&seed),
            "MinStd seed must be in [1, 2^31-2], got {seed}"
        );
        MinStd { state: seed }
    }

    /// Map an arbitrary 64-bit value onto a valid seed.
    pub fn from_u64(x: u64) -> Self {
        // Fold into [0, m-1], then shift away the two invalid values.
        let s = (x % (MODULUS as u64 - 1)) as u32 + 1; // [1, m-1]
        Self::new(s)
    }

    /// The current state (also the last output).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advance once and return the new value in `[1, m−1]`.
    ///
    /// (Named after the classic C interface; `MinStd` is not an iterator —
    /// the `rand_core::RngCore` impl is the idiomatic entry point.)
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u32 {
        self.state = step_carta_fold(self.state);
        self.state
    }

    /// Two generator steps packed into 62 uniform bits (top-aligned to 64).
    #[inline]
    fn composite_u64(&mut self) -> u64 {
        let a = (self.next() - 1) as u64; // 31 bits, uniform on [0, m-2]
        let b = (self.next() - 1) as u64;
        (a << 33) | (b << 2)
    }
}

/// Carta (1990): with `p = a·x` (46 bits), write `p = hi·2³¹ + lo`; since
/// `2³¹ ≡ 1 (mod m)`, `p mod m = (hi + lo) mod m`, and `hi + lo < 2m` so
/// one conditional subtraction completes the step. One 64-bit multiply,
/// no division.
#[inline]
fn step_carta_fold(x: u32) -> u32 {
    let p = x as u64 * MULTIPLIER as u64;
    let lo = (p & MODULUS as u64) as u32;
    let hi = (p >> 31) as u32;
    let s = lo.wrapping_add(hi);
    if s >= MODULUS {
        s - MODULUS
    } else {
        s
    }
}

impl RngCore for MinStd {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // The raw 31-bit value shifted to fill 32 bits would bias the low
        // bit; take the top 32 of two steps instead.
        (self.composite_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // 62 bits from two steps, the two low bits from a third.
        let hi = self.composite_u64();
        let lo = (self.next() - 1) as u64 & 0b11;
        hi | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        impls::fill_bytes_via_next(self, dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference step: a direct 64-bit remainder.
    fn step_reference(x: u32) -> u32 {
        ((x as u64 * MULTIPLIER as u64) % MODULUS as u64) as u32
    }

    /// Park & Miller's acceptance test: from seed 1, the 10,000th output is
    /// 1,043,618,065.
    #[test]
    fn park_miller_test_vector() {
        let mut g = MinStd::new(1);
        let mut last = 0;
        for _ in 0..10_000 {
            last = g.next();
        }
        assert_eq!(last, 1_043_618_065);
    }

    #[test]
    fn all_algorithms_agree_step_by_step() {
        let seeds = [1u32, 2, 16_807, 127_773, MODULUS - 1, 1_043_618_065];
        for seed in seeds {
            let mut g = MinStd::new(seed);
            let mut reference = seed;
            for i in 0..64 {
                reference = step_reference(reference);
                assert_eq!(g.next(), reference, "seed {seed} step {i}");
            }
        }
    }

    #[test]
    fn state_is_one_word() {
        assert_eq!(std::mem::size_of::<MinStd>(), 4);
    }

    #[test]
    fn output_stays_in_range() {
        let mut g = MinStd::new(12345);
        for _ in 0..100_000 {
            let x = g.next();
            assert!((1..MODULUS).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "seed must be")]
    fn zero_seed_rejected() {
        let _ = MinStd::new(0);
    }

    #[test]
    #[should_panic(expected = "seed must be")]
    fn modulus_seed_rejected() {
        let _ = MinStd::new(MODULUS);
    }

    #[test]
    fn from_u64_always_valid() {
        for x in [0u64, 1, u64::MAX, MODULUS as u64, (MODULUS as u64) - 1] {
            let g = MinStd::from_u64(x);
            assert!(g.state() >= 1 && g.state() < MODULUS);
        }
    }

    #[test]
    fn rngcore_interface_runs() {
        use rand_core::RngCore;
        let mut g = MinStd::new(5);
        let _ = g.next_u32();
        let _ = g.next_u64();
        let mut buf = [0u8; 17];
        g.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

#[cfg(test)]
mod rand_interop {
    //! `MinStd` composes with the wider `rand` ecosystem through
    //! `rand_core::RngCore`.
    use super::MinStd;
    use rand::distributions::{Distribution, Uniform};
    use rand::Rng;

    #[test]
    fn works_with_rand_trait_methods() {
        let mut g = MinStd::new(2024);
        let x: f64 = g.gen();
        assert!((0.0..1.0).contains(&x));
        let y: u32 = g.gen_range(10..20);
        assert!((10..20).contains(&y));
        let coin: bool = g.gen_bool(0.5);
        let _ = coin;
    }

    #[test]
    fn works_with_rand_distributions() {
        let mut g = MinStd::new(7);
        let d = Uniform::new(0.0f64, 121.0);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = d.sample(&mut g);
            assert!((0.0..121.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 60.5).abs() < 2.0, "mean {mean}");
    }
}
