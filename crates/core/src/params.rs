//! Model parameters and initial conditions.

use routesync_desim::Duration;
use routesync_rng::{JitterPolicy, TimerResetPolicy};
use serde::{Deserialize, Serialize};

/// Parameters of the Periodic Messages model.
///
/// The paper's notation: `N` routers, mean period `Tp`, random half-width
/// `Tr`, per-message processing cost `Tc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicParams {
    /// Number of routers `N`.
    pub n: usize,
    /// Computation time `Tc` to process one incoming or outgoing routing
    /// message.
    pub tc: Duration,
    /// How each router draws its next timer interval (carries `Tp` and
    /// `Tr`).
    pub jitter: JitterPolicy,
    /// When each router re-arms its timer.
    pub reset_policy: TimerResetPolicy,
    /// How routers react to incoming *triggered* updates.
    pub trigger_response: TriggerResponse,
    /// The conformance self-test's merge defect: [`crate::FastModel`]'s
    /// burst busy boundary counts one message too many (`e₁ + (j+1)·Tc`),
    /// merging clusters the event engine keeps apart. Never serialized.
    #[cfg(feature = "inject")]
    #[serde(skip)]
    pub merge_off_by_one: bool,
}

impl PeriodicParams {
    /// The configuration of the paper's headline simulation (Figure 4):
    /// `N = 20`, `Tp = 121 s`, `Tc = 0.11 s`, `Tr = 0.1 s`.
    pub fn paper_reference() -> Self {
        PeriodicParams::new(
            20,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(100),
        )
    }

    /// A model with uniform jitter `U[tp − tr, tp + tr]` and the paper's
    /// reset-after-processing semantics.
    ///
    /// Panics if `n == 0`, `tc` is zero, or `tr > tp` (the timer could go
    /// negative).
    pub fn new(n: usize, tp: Duration, tc: Duration, tr: Duration) -> Self {
        assert!(n > 0, "need at least one router");
        assert!(!tc.is_zero(), "Tc must be positive (it is the coupling)");
        PeriodicParams {
            n,
            tc,
            jitter: JitterPolicy::Uniform { tp, tr },
            reset_policy: TimerResetPolicy::AfterProcessing,
            trigger_response: TriggerResponse::SendImmediately,
            #[cfg(feature = "inject")]
            merge_off_by_one: false,
        }
    }

    /// Replace the jitter policy.
    pub fn with_jitter(mut self, jitter: JitterPolicy) -> Self {
        self.jitter = jitter;
        self
    }

    /// Replace the timer-reset policy.
    pub fn with_reset_policy(mut self, policy: TimerResetPolicy) -> Self {
        self.reset_policy = policy;
        self
    }

    /// Replace the triggered-update response.
    pub fn with_trigger_response(mut self, response: TriggerResponse) -> Self {
        self.trigger_response = response;
        self
    }

    /// Mean period `Tp`.
    pub fn tp(&self) -> Duration {
        self.jitter.tp()
    }

    /// Random half-width `Tr`.
    pub fn tr(&self) -> Duration {
        self.jitter.tr()
    }

    /// The nominal round length `Tp + Tc` — the average interval between a
    /// lone router's successive messages, and the paper's unit for
    /// converting between rounds and seconds.
    pub fn round_len(&self) -> Duration {
        self.tp() + self.tc
    }
}

/// How a router reacts when it *receives* a triggered update
/// (paper Section 3, step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TriggerResponse {
    /// Go to step 1 immediately: send an own (non-triggered) message without
    /// waiting for the timer — the IGRP/RIP/DECnet behaviour that produces a
    /// "wave of triggered updates" and leaves the network synchronized.
    #[default]
    SendImmediately,
    /// Process the update like any other message; the timer is untouched.
    Ignore,
}

/// Initial phases of the routers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartState {
    /// Each router's first timer expiry is drawn uniformly from `[0, Tp]` —
    /// the paper's unsynchronized start.
    Unsynchronized,
    /// Every router's first timer expires at exactly `Tp` — the fully
    /// synchronized start used for Figure 8 (e.g. after a power failure or
    /// a triggered-update wave).
    Synchronized,
    /// Explicit first-expiry offsets, one per router (must match `n`).
    Offsets(Vec<Duration>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_matches_section_4() {
        let p = PeriodicParams::paper_reference();
        assert_eq!(p.n, 20);
        assert_eq!(p.tp(), Duration::from_secs(121));
        assert_eq!(p.tc, Duration::from_millis(110));
        assert_eq!(p.tr(), Duration::from_millis(100));
        assert_eq!(p.round_len(), Duration::from_secs_f64(121.11));
        assert_eq!(p.reset_policy, TimerResetPolicy::AfterProcessing);
    }

    #[test]
    fn builders_override_fields() {
        let p = PeriodicParams::paper_reference()
            .with_reset_policy(TimerResetPolicy::OnExpiry)
            .with_trigger_response(TriggerResponse::Ignore)
            .with_jitter(JitterPolicy::UniformHalf {
                tp: Duration::from_secs(30),
            });
        assert_eq!(p.reset_policy, TimerResetPolicy::OnExpiry);
        assert_eq!(p.trigger_response, TriggerResponse::Ignore);
        assert_eq!(p.tp(), Duration::from_secs(30));
        assert_eq!(p.tr(), Duration::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn zero_routers_rejected() {
        let _ = PeriodicParams::new(
            0,
            Duration::from_secs(30),
            Duration::from_millis(100),
            Duration::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "Tc must be positive")]
    fn zero_tc_rejected() {
        let _ = PeriodicParams::new(5, Duration::from_secs(30), Duration::ZERO, Duration::ZERO);
    }
}
