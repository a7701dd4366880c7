//! The two-type clock synchronization model with a phase transition
//! (Malyshev & Manita, arXiv 1201.3550).
//!
//! Two "types" of clock — one fast, one slow — drift apart at a constant
//! rate `δ` per round. Message exchanges arrive either on a deterministic
//! periodic schedule (every `k` rounds) or as a jittered Bernoulli stream
//! (each round independently with probability `p`); each exchange pulls
//! the laggard forward by at most a fixed jump `J` (clamped so the lag
//! never goes negative — the slow clock can catch up but never overtake).
//!
//! The model has an exact sync/desync **phase transition** at
//! `p = δ/J` (`routesync_markov::meanfield::two_type_critical_rate`):
//! below it, exchanges are too rare to cancel the drift and the lag grows
//! linearly at rate `δ − p·J`; above it, the lag stays bounded forever.
//! This is the Floyd-Jacobson weak-coupling story on the other side of
//! the mirror — here the *coupling strength* is the knob and the
//! transition is in whether the clocks hold together at all.
//!
//! Exact invariants used by the conformance oracle:
//!
//! * the lag is never negative (jumps are clamped to `min(lag, J)`);
//! * under the periodic deterministic schedule the whole trajectory is a
//!   closed-form ripple: lag grows by `δ` per round and drops by
//!   `min(lag, J)` every `k`-th round.

use rand_core::RngCore;
use serde::{Deserialize, Serialize};

/// How message exchanges are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExchangeSchedule {
    /// Deterministic: one exchange every `k` rounds (`k ≥ 1`), the
    /// lock-step schedule with rate `1/k`.
    Periodic {
        /// Rounds between exchanges.
        every: u64,
    },
    /// Jittered: each round is an exchange independently with
    /// probability `p` — same mean rate, randomized phase.
    Bernoulli {
        /// Per-round exchange probability.
        p: f64,
    },
}

impl ExchangeSchedule {
    /// Mean exchanges per round.
    pub fn rate(&self) -> f64 {
        match *self {
            ExchangeSchedule::Periodic { every } => 1.0 / every as f64,
            ExchangeSchedule::Bernoulli { p } => p,
        }
    }
}

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoTypeParams {
    /// Drift `δ` per round between the fast and the slow clock.
    pub drift: f64,
    /// Maximum catch-up `J` per exchange.
    pub jump: f64,
    /// Exchange schedule.
    pub schedule: ExchangeSchedule,
    /// Lag at round 0.
    pub initial_lag: f64,
}

impl TwoTypeParams {
    /// A system with drift `δ`, unit jump, initial lag `J`, and the given
    /// schedule.
    pub fn unit_jump(drift: f64, schedule: ExchangeSchedule) -> Self {
        TwoTypeParams {
            drift,
            jump: 1.0,
            schedule,
            initial_lag: 1.0,
        }
    }
}

struct TwoTypeObs {
    rounds: routesync_obs::Counter,
    exchanges: routesync_obs::Counter,
}

impl TwoTypeObs {
    fn new() -> Self {
        let obs = routesync_obs::global();
        TwoTypeObs {
            rounds: obs.counter("phenomena.two_type.rounds"),
            exchanges: obs.counter("phenomena.two_type.exchanges"),
        }
    }
}

/// The two-type clock simulation.
pub struct TwoTypeSim {
    params: TwoTypeParams,
    lag: f64,
    min_lag: f64,
    max_lag: f64,
    round: u64,
    exchanges: u64,
    /// Lag at the halfway point of the last `run`, for slope estimation.
    half_lag: f64,
    obs: TwoTypeObs,
    /// The conformance self-test's jump defect: an exchange pulls the
    /// laggard forward by the full `J` even past zero lag.
    #[cfg(feature = "inject")]
    pub unclamped_jump: bool,
}

impl TwoTypeSim {
    /// Start the two clocks `initial_lag` apart.
    pub fn new(params: TwoTypeParams) -> Self {
        assert!(params.drift >= 0.0, "drift cannot be negative");
        assert!(params.jump > 0.0, "jump must be positive");
        assert!(params.initial_lag >= 0.0, "lag starts non-negative");
        match params.schedule {
            ExchangeSchedule::Periodic { every } => {
                assert!(every >= 1, "periodic schedule needs every >= 1")
            }
            ExchangeSchedule::Bernoulli { p } => {
                assert!((0.0..=1.0).contains(&p), "p is a probability")
            }
        }
        TwoTypeSim {
            lag: params.initial_lag,
            min_lag: params.initial_lag,
            max_lag: params.initial_lag,
            round: 0,
            exchanges: 0,
            half_lag: params.initial_lag,
            params,
            obs: TwoTypeObs::new(),
            #[cfg(feature = "inject")]
            unclamped_jump: false,
        }
    }

    /// Current lag of the slow clock behind the fast one.
    pub fn lag(&self) -> f64 {
        self.lag
    }

    /// Advance one round: drift, then (schedule permitting) an exchange.
    pub fn step(&mut self, rng: &mut impl RngCore) {
        self.lag += self.params.drift;
        self.round += 1;
        self.obs.rounds.inc();
        let exchange = match self.params.schedule {
            ExchangeSchedule::Periodic { every } => self.round.is_multiple_of(every),
            ExchangeSchedule::Bernoulli { p } => routesync_rng::dist::unit_f64(rng) < p,
        };
        if exchange {
            let jump = self.lag.min(self.params.jump);
            #[cfg(feature = "inject")]
            let jump = if self.unclamped_jump {
                self.params.jump
            } else {
                jump
            };
            self.lag -= jump;
            self.exchanges += 1;
            self.obs.exchanges.inc();
        }
        self.min_lag = self.min_lag.min(self.lag);
        self.max_lag = self.max_lag.max(self.lag);
    }

    /// Run `rounds` rounds and summarize. The half-way lag is recorded
    /// for the report's second-half growth-rate estimate.
    pub fn run(&mut self, rounds: u64, rng: &mut impl RngCore) -> TwoTypeReport {
        let half = rounds / 2;
        for r in 0..rounds {
            self.step(rng);
            if r + 1 == half {
                self.half_lag = self.lag;
            }
        }
        self.report()
    }

    /// Summarize the run so far.
    pub fn report(&self) -> TwoTypeReport {
        let second_half = self.round - self.round / 2;
        TwoTypeReport {
            rounds: self.round,
            final_lag: self.lag,
            min_lag: self.min_lag,
            max_lag: self.max_lag,
            exchanges: self.exchanges,
            growth_rate: if second_half > 0 {
                (self.lag - self.half_lag) / second_half as f64
            } else {
                0.0
            },
        }
    }
}

/// Summary of a two-type run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoTypeReport {
    /// Rounds simulated.
    pub rounds: u64,
    /// Lag after the last round.
    pub final_lag: f64,
    /// Smallest lag ever observed (exactly ≥ 0 when the model is
    /// healthy — the conformance oracle's sharpest invariant).
    pub min_lag: f64,
    /// Largest lag ever observed.
    pub max_lag: f64,
    /// Exchanges that fired.
    pub exchanges: u64,
    /// Mean lag growth per round over the second half of the run.
    pub growth_rate: f64,
}

impl TwoTypeReport {
    /// Whether the clocks stayed together: the lag never exceeded
    /// `bound`.
    pub fn is_synchronized(&self, bound: f64) -> bool {
        self.max_lag <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesync_rng::MinStd;

    fn run(params: TwoTypeParams, seed: u32, rounds: u64) -> TwoTypeReport {
        let mut rng = MinStd::new(seed);
        TwoTypeSim::new(params).run(rounds, &mut rng)
    }

    #[test]
    fn supercritical_periodic_schedule_keeps_the_lag_bounded() {
        // δ = 0.02, J = 1, exchanges every 10 rounds: rate 0.1 ≫ p_c = 0.02.
        let p = TwoTypeParams::unit_jump(0.02, ExchangeSchedule::Periodic { every: 10 });
        let r = run(p, 1, 20_000);
        // Bound: initial lag + one inter-exchange ripple.
        assert!(r.is_synchronized(1.0 + 0.02 * 10.0 + 1e-9), "{r:?}");
        assert!(r.min_lag >= -1e-9, "lag must stay non-negative: {r:?}");
        assert!(r.growth_rate.abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn subcritical_schedule_grows_at_the_mean_field_rate() {
        // δ = 0.02, J = 1, exchanges every 100 rounds: rate 0.01 < p_c.
        let every = 100;
        let delta = 0.02;
        let p = TwoTypeParams::unit_jump(delta, ExchangeSchedule::Periodic { every });
        let r = run(p, 1, 20_000);
        let predicted = routesync_markov::two_type_growth_rate(delta, 1.0 / every as f64, 1.0);
        assert!(predicted > 0.0);
        let ratio = r.growth_rate / predicted;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}: {r:?}");
        assert!(r.min_lag >= -1e-9, "{r:?}");
    }

    #[test]
    fn bernoulli_schedule_shows_the_same_transition() {
        let delta = 0.02;
        let sub = run(
            TwoTypeParams::unit_jump(delta, ExchangeSchedule::Bernoulli { p: 0.01 }),
            7,
            20_000,
        );
        let sup = run(
            TwoTypeParams::unit_jump(delta, ExchangeSchedule::Bernoulli { p: 0.08 }),
            7,
            20_000,
        );
        assert!(
            sub.final_lag > 10.0 * sup.final_lag.max(1.0),
            "sub {sub:?} vs sup {sup:?}"
        );
        assert!(sub.min_lag >= -1e-9 && sup.min_lag >= -1e-9);
    }

    #[test]
    fn periodic_trajectory_is_the_closed_form_ripple() {
        let p = TwoTypeParams {
            drift: 0.25,
            jump: 1.0,
            schedule: ExchangeSchedule::Periodic { every: 4 },
            initial_lag: 1.0,
        };
        let mut rng = MinStd::new(1);
        let mut sim = TwoTypeSim::new(p);
        // δ·k = J exactly: the lag returns to 1.0 after every exchange.
        for _ in 0..10 {
            for _ in 0..4 {
                sim.step(&mut rng);
            }
            assert!((sim.lag() - 1.0).abs() < 1e-12, "{}", sim.lag());
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let p = TwoTypeParams::unit_jump(0.05, ExchangeSchedule::Bernoulli { p: 0.03 });
        assert_eq!(run(p, 5, 5_000), run(p, 5, 5_000));
        assert_ne!(run(p, 5, 5_000), run(p, 6, 5_000));
    }

    #[test]
    #[should_panic(expected = "jump must be positive")]
    fn zero_jump_rejected() {
        let mut p = TwoTypeParams::unit_jump(0.1, ExchangeSchedule::Bernoulli { p: 0.5 });
        p.jump = 0.0;
        let _ = TwoTypeSim::new(p);
    }
}
