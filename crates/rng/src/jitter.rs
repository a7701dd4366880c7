//! Timer jitter policies — the knob the whole paper is about.
//!
//! A routing process re-arms its timer after each update. *How* the next
//! interval is chosen decides whether a network of such processes
//! synchronizes:
//!
//! * [`JitterPolicy::None`] — a fixed period. The DECnet DNA IV / early RIP
//!   and IGRP behaviour; synchronizes within hours (paper Section 2).
//! * [`JitterPolicy::Uniform`] — `U[Tp − Tr, Tp + Tr]`, the Periodic
//!   Messages model's knob. Sections 4-5 quantify the required `Tr`.
//! * [`JitterPolicy::UniformHalf`] — `U[0.5·Tp, 1.5·Tp]`, the paper's
//!   Section 6 recommendation ("would be a simple way to avoid synchronized
//!   routing messages").
//! * [`JitterPolicy::FixedPerRouter`] — each router keeps a constant period
//!   drawn once from `U[Tp − Tr, Tp + Tr]`; the "system administrator sets
//!   different values" alternative the paper notes "would require further
//!   investigation".
//!
//! The companion knob is [`TimerResetPolicy`]: *when* the timer is re-armed.
//! Re-arming only after all processing completes (`AfterProcessing`) is the
//! coupling that drives synchronization; re-arming at the instant of expiry
//! (`OnExpiry`, the RFC 1058 suggestion) removes the coupling but also any
//! mechanism for breaking up an already-synchronized start.

use rand_core::RngCore;
use routesync_desim::Duration;
use serde::{Deserialize, Serialize};

use crate::dist::UniformDuration;

/// How the next timer interval is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JitterPolicy {
    /// Fixed period `tp`, no randomness.
    None {
        /// The period.
        tp: Duration,
    },
    /// Uniform on `[tp − tr, tp + tr]` — the paper's model.
    Uniform {
        /// Mean period `Tp`.
        tp: Duration,
        /// Half-width `Tr` of the random component.
        tr: Duration,
    },
    /// Uniform on `[tp/2, 3·tp/2]` — the paper's recommended policy
    /// (equivalent to `Uniform` with `tr = tp/2`).
    UniformHalf {
        /// Mean period `Tp`.
        tp: Duration,
    },
    /// A constant period, distinct per router, drawn once at configuration
    /// time from `U[tp − tr, tp + tr]` (see [`JitterPolicy::materialize`]).
    FixedPerRouter {
        /// Mean period `Tp`.
        tp: Duration,
        /// Half-width of the per-router spread.
        tr: Duration,
    },
}

impl JitterPolicy {
    /// The paper's reference configuration: `Tp = 121 s`, `Tr = 0.11 s`.
    ///
    /// (The simulations of Section 4 mostly vary `Tr`; `0.11 s` is the
    /// value used for the headline Figure 4 run together with
    /// `Tr = 0.1 s` — callers override `tr` as needed.)
    pub fn paper_reference() -> Self {
        JitterPolicy::Uniform {
            tp: Duration::from_secs(121),
            tr: Duration::from_millis(110),
        }
    }

    /// The mean period `Tp`.
    pub fn tp(&self) -> Duration {
        match *self {
            JitterPolicy::None { tp }
            | JitterPolicy::Uniform { tp, .. }
            | JitterPolicy::UniformHalf { tp }
            | JitterPolicy::FixedPerRouter { tp, .. } => tp,
        }
    }

    /// The half-width `Tr` of the per-draw random component (zero for the
    /// deterministic policies).
    pub fn tr(&self) -> Duration {
        match *self {
            JitterPolicy::None { .. } | JitterPolicy::FixedPerRouter { .. } => Duration::ZERO,
            JitterPolicy::Uniform { tr, .. } => tr,
            JitterPolicy::UniformHalf { tp } => tp / 2,
        }
    }

    /// Resolve per-router configuration-time randomness.
    ///
    /// For [`JitterPolicy::FixedPerRouter`] this draws the router's constant
    /// period and returns it as a `None` policy; every other variant is
    /// returned unchanged. Call once per router at setup with that router's
    /// stream.
    pub fn materialize(self, rng: &mut impl RngCore) -> JitterPolicy {
        match self {
            JitterPolicy::FixedPerRouter { tp, tr } => {
                let period = UniformDuration::centered(tp, tr).sample(rng);
                JitterPolicy::None { tp: period }
            }
            other => other,
        }
    }

    /// The interval the next timer period is drawn from. The
    /// deterministic policies give a zero-width interval, which draws
    /// nothing: `None` at its period and an un-materialized
    /// `FixedPerRouter` at its mean period (the models always materialize
    /// at setup).
    pub fn interval(&self) -> UniformDuration {
        match *self {
            JitterPolicy::None { tp } | JitterPolicy::FixedPerRouter { tp, .. } => {
                UniformDuration::new(tp, tp)
            }
            JitterPolicy::Uniform { tp, tr } => UniformDuration::centered(tp, tr),
            JitterPolicy::UniformHalf { tp } => UniformDuration::new(tp / 2, tp + tp / 2),
        }
    }

    /// Draw the next timer interval.
    #[inline]
    pub fn sample(&self, rng: &mut impl RngCore) -> Duration {
        self.interval().sample(rng)
    }
}

/// When the routing timer is re-armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TimerResetPolicy {
    /// Re-arm only after the router finishes its own update *and* any
    /// incoming updates it had to process — the Periodic Messages model
    /// (paper Section 3, step 3). This is the weak coupling that
    /// synchronizes routers.
    #[default]
    AfterProcessing,
    /// Re-arm at the instant the timer expires, regardless of processing —
    /// the RFC 1058 alternative ("a clock that is not affected by the time
    /// required to service the previous message"). No coupling, but an
    /// initially-synchronized system stays synchronized forever.
    OnExpiry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minstd::MinStd;

    fn rng() -> MinStd {
        MinStd::new(8_675_309)
    }

    #[test]
    fn none_policy_is_constant() {
        let mut g = rng();
        let p = JitterPolicy::None {
            tp: Duration::from_secs(30),
        };
        for _ in 0..10 {
            assert_eq!(p.sample(&mut g), Duration::from_secs(30));
        }
        assert_eq!(p.tr(), Duration::ZERO);
    }

    #[test]
    fn uniform_policy_bounds() {
        let mut g = rng();
        let p = JitterPolicy::Uniform {
            tp: Duration::from_secs(121),
            tr: Duration::from_millis(100),
        };
        for _ in 0..10_000 {
            let s = p.sample(&mut g);
            assert!(s >= Duration::from_secs_f64(120.9));
            assert!(s <= Duration::from_secs_f64(121.1));
        }
        assert_eq!(p.tp(), Duration::from_secs(121));
        assert_eq!(p.tr(), Duration::from_millis(100));
    }

    #[test]
    fn uniform_half_spans_half_to_three_halves() {
        let mut g = rng();
        let p = JitterPolicy::UniformHalf {
            tp: Duration::from_secs(30),
        };
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        for _ in 0..20_000 {
            let s = p.sample(&mut g);
            assert!(s >= Duration::from_secs(15) && s <= Duration::from_secs(45));
            min = min.min(s);
            max = max.max(s);
        }
        assert!(min < Duration::from_secs(16), "never drew near 0.5 Tp");
        assert!(max > Duration::from_secs(44), "never drew near 1.5 Tp");
        assert_eq!(p.tr(), Duration::from_secs(15));
    }

    #[test]
    fn fixed_per_router_materializes_distinct_constants() {
        let p = JitterPolicy::FixedPerRouter {
            tp: Duration::from_secs(121),
            tr: Duration::from_secs(10),
        };
        let mut g1 = MinStd::new(1);
        let mut g2 = MinStd::new(2);
        let m1 = p.materialize(&mut g1);
        let m2 = p.materialize(&mut g2);
        let (JitterPolicy::None { tp: t1 }, JitterPolicy::None { tp: t2 }) = (m1, m2) else {
            panic!("materialize must yield fixed policies");
        };
        assert_ne!(t1, t2);
        // And each materialized policy is thereafter constant.
        let mut g = rng();
        assert_eq!(m1.sample(&mut g), t1);
        assert_eq!(m1.sample(&mut g), t1);
    }

    #[test]
    fn deterministic_policies_have_zero_width_intervals() {
        let tp = Duration::from_secs(30);
        let tr = Duration::from_secs(3);
        for p in [
            JitterPolicy::None { tp },
            JitterPolicy::FixedPerRouter { tp, tr },
        ] {
            assert_eq!(p.interval(), UniformDuration::new(tp, tp), "{p:?}");
            let mut g = rng();
            assert_eq!(p.sample(&mut g), tp);
            assert_eq!(g, rng(), "{p:?} must not draw");
        }
        assert_eq!(
            JitterPolicy::Uniform { tp, tr }.interval(),
            UniformDuration::new(tp - tr, tp + tr)
        );
        assert_eq!(
            JitterPolicy::UniformHalf { tp }.interval(),
            UniformDuration::new(tp / 2, tp + tp / 2)
        );
    }

    #[test]
    fn materialize_is_identity_for_other_policies() {
        let mut g = rng();
        let p = JitterPolicy::paper_reference();
        assert_eq!(p.materialize(&mut g), p);
    }

    #[test]
    fn paper_reference_parameters() {
        let p = JitterPolicy::paper_reference();
        assert_eq!(p.tp(), Duration::from_secs(121));
        assert_eq!(p.tr(), Duration::from_millis(110));
    }
}
