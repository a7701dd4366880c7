//! Bounded send retry with decorrelated-jitter exponential backoff.
//!
//! When a live socket refuses a datagram transiently (`WouldBlock`, a
//! connection-refused ICMP bounce while a peer reboots), the daemon does
//! not spin: it re-queues the send with a randomized delay. The delay
//! schedule is AWS-style *decorrelated jitter* — each retry draws
//! uniformly from `[base, min(cap, 3 × previous_delay)]` — which grows
//! roughly exponentially toward the cap while desynchronizing concurrent
//! retriers. Synchronized retries are exactly the failure mode this
//! repository's paper is about, so the one place the live daemon waits
//! and tries again is jittered by construction.
//!
//! Draws come from a dedicated `routesync-rng` stream, so a backoff
//! sequence is reproducible for a given seed and never perturbs the
//! per-router jitter streams that the desim twin must mirror.

use routesync_rng::{dist, MinStd};
use std::time::Duration;

/// Decorrelated-jitter delay generator shared by every pending send of a
/// daemon. Per-send state is just the previous delay (`prev_ns`), carried
/// on the queued send itself.
#[derive(Debug)]
pub struct DecorrelatedJitter {
    base_ns: u64,
    cap_ns: u64,
    rng: MinStd,
}

impl DecorrelatedJitter {
    /// A generator drawing from `[base, cap]`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// If `base` is zero or exceeds `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64, stream: u64) -> Self {
        let base_ns = base.as_nanos() as u64;
        let cap_ns = cap.as_nanos() as u64;
        assert!(base_ns > 0, "backoff base must be positive");
        assert!(base_ns <= cap_ns, "backoff base must not exceed cap");
        DecorrelatedJitter {
            base_ns,
            cap_ns,
            rng: routesync_rng::stream(seed, stream),
        }
    }

    /// The floor delay, nanoseconds.
    pub fn base_ns(&self) -> u64 {
        self.base_ns
    }

    /// The ceiling delay, nanoseconds.
    pub fn cap_ns(&self) -> u64 {
        self.cap_ns
    }

    /// Draw the next delay after a retry whose previous delay was
    /// `prev_ns` (pass `0` for the first retry of a send). Returns
    /// nanoseconds in `[base, cap]`.
    pub fn next_delay_ns(&mut self, prev_ns: u64) -> u64 {
        let prev = prev_ns.max(self.base_ns);
        let hi = prev.saturating_mul(3).min(self.cap_ns);
        let span = hi - self.base_ns;
        if span == 0 {
            self.base_ns
        } else {
            self.base_ns + dist::below(&mut self.rng, span + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> DecorrelatedJitter {
        DecorrelatedJitter::new(Duration::from_micros(500), Duration::from_millis(20), 42, 7)
    }

    #[test]
    fn delays_stay_within_bounds() {
        let mut g = gen();
        let mut prev = 0u64;
        for _ in 0..10_000 {
            prev = g.next_delay_ns(prev);
            assert!(prev >= g.base_ns());
            assert!(prev <= g.cap_ns());
        }
    }

    #[test]
    fn first_retry_is_near_the_base() {
        let mut g = gen();
        for _ in 0..1_000 {
            let d = g.next_delay_ns(0);
            // prev = base, so the first draw is in [base, 3 × base].
            assert!(d <= 3 * g.base_ns());
        }
    }

    #[test]
    fn delays_grow_toward_the_cap() {
        let mut g = gen();
        // After many consecutive retries the *maximum* delay observed must
        // approach the cap; a fixed-base scheme would stay at 3 × base.
        let mut prev = 0u64;
        let mut max = 0u64;
        for _ in 0..200 {
            prev = g.next_delay_ns(prev);
            max = max.max(prev);
        }
        assert!(max > g.cap_ns() / 2, "max {max} never approached the cap");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let (mut a, mut b) = (gen(), gen());
        let mut pa = 0u64;
        let mut pb = 0u64;
        for _ in 0..100 {
            pa = a.next_delay_ns(pa);
            pb = b.next_delay_ns(pb);
            assert_eq!(pa, pb);
        }
        // A different stream decorrelates.
        let mut c =
            DecorrelatedJitter::new(Duration::from_micros(500), Duration::from_millis(20), 42, 8);
        let seq_a: Vec<u64> = {
            let mut g = gen();
            let mut p = 0;
            (0..16)
                .map(|_| {
                    p = g.next_delay_ns(p);
                    p
                })
                .collect()
        };
        let seq_c: Vec<u64> = {
            let mut p = 0;
            (0..16)
                .map(|_| {
                    p = c.next_delay_ns(p);
                    p
                })
                .collect()
        };
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn degenerate_base_equals_cap_is_constant() {
        let mut g =
            DecorrelatedJitter::new(Duration::from_millis(5), Duration::from_millis(5), 1, 1);
        for _ in 0..10 {
            assert_eq!(g.next_delay_ns(0), 5_000_000);
        }
    }
}
