//! Cascade rollback synchronization in distributed parallel simulation
//! (Manita & Simonot, arXiv math/0508533).
//!
//! `N` processors run an optimistic (Time-Warp-style) parallel
//! simulation, each advancing a local virtual time (LVT) by one unit per
//! round. With probability `q` per round a processor sends an event
//! message stamped with its current LVT to a uniformly chosen peer; a
//! receiver that has already simulated past the stamp must **roll back**
//! to it, and — the cascade — forward anti-messages that roll back its
//! own recent downstream contacts to the same stamp (up to
//! [`CascadeParams::depth`] remembered contacts).
//!
//! The weak-coupling story is the paper's in reverse gear: here the
//! coupling (rollback) *drags the ensemble into lock-step* — the cohort
//! of processors sharing the global virtual time (GVT) only ever grows,
//! full synchronization is absorbing, and the mean time to reach it
//! follows the pure-birth mean-field form
//! `routesync_markov::meanfield::cascade_sync_rounds`. Randomizing the
//! advancement step ([`CascadeParams::advance_jitter`] > 0) is the
//! Floyd-Jacobson knob: jittered clocks keep drifting apart, so the
//! lock-step never becomes absorbing.
//!
//! Exact invariants used by the conformance oracle:
//!
//! * with no jitter, the GVT (minimum LVT) advances **exactly** one unit
//!   per round — rollback can never drag anyone below the current
//!   minimum (stamps are themselves LVTs ≥ GVT);
//! * with jitter, the GVT advances **at least** one unit per round;
//! * full synchronization is absorbing in the deterministic schedule.

use rand_core::RngCore;
use serde::{Deserialize, Serialize};

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeParams {
    /// Number of processors `N`.
    pub n: usize,
    /// Per-round probability `q` that a processor sends an event message.
    pub send_prob: f64,
    /// How many recent outgoing contacts a processor remembers; a
    /// rollback forwards anti-messages to all of them (0 = no cascade).
    pub depth: usize,
    /// Probability of an extra +1 advancement per round (0 = the
    /// deterministic schedule; > 0 = jittered clocks that keep drifting).
    pub advance_jitter: f64,
    /// Initial LVTs are drawn uniformly from `[0, initial_spread)`
    /// (0 or 1 = a synchronized start).
    pub initial_spread: u64,
}

impl CascadeParams {
    /// An unsynchronized-start deterministic-schedule system of `n`
    /// processors with send probability `q`.
    pub fn unsynchronized(n: usize, send_prob: f64, depth: usize) -> Self {
        CascadeParams {
            n,
            send_prob,
            depth,
            advance_jitter: 0.0,
            initial_spread: n as u64,
        }
    }
}

/// Instrumentation handles, resolved once at construction from the
/// global `routesync-obs` collector (no-ops when collection is off).
struct CascadeObs {
    rounds: routesync_obs::Counter,
    messages: routesync_obs::Counter,
    rollbacks: routesync_obs::Counter,
    cascades: routesync_obs::Counter,
}

impl CascadeObs {
    fn new() -> Self {
        let obs = routesync_obs::global();
        CascadeObs {
            rounds: obs.counter("phenomena.cascade.rounds"),
            messages: obs.counter("phenomena.cascade.messages"),
            rollbacks: obs.counter("phenomena.cascade.rollbacks"),
            cascades: obs.counter("phenomena.cascade.cascaded_rollbacks"),
        }
    }
}

/// The cascade-rollback simulation.
pub struct CascadeSim {
    params: CascadeParams,
    /// Local virtual times.
    lvt: Vec<i64>,
    /// Ring of each processor's most recent outgoing contacts
    /// (`depth` entries, `usize::MAX` = empty slot).
    recent: Vec<Vec<usize>>,
    round: u64,
    gvt_initial: i64,
    sync_round: Option<u64>,
    rollbacks: u64,
    cascades: u64,
    messages: u64,
    obs: CascadeObs,
    /// The conformance self-test's rollback defect: a rolled-back processor
    /// rewinds to `stamp − 1`, which can drag the GVT below its minimum.
    #[cfg(feature = "inject")]
    pub rollback_off_by_one: bool,
}

impl CascadeSim {
    /// Draw initial LVTs and start the clock.
    pub fn new(params: CascadeParams, rng: &mut impl RngCore) -> Self {
        assert!(params.n >= 2, "cascade needs at least two processors");
        assert!(
            params.send_prob > 0.0 && params.send_prob <= 1.0,
            "send probability must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&params.advance_jitter),
            "advance jitter is a probability"
        );
        let spread = params.initial_spread.max(1);
        let lvt: Vec<i64> = (0..params.n)
            .map(|_| routesync_rng::dist::below(rng, spread) as i64)
            .collect();
        let gvt_initial = *lvt.iter().min().expect("n >= 2");
        let sync_round = lvt.iter().all(|&t| t == lvt[0]).then_some(0);
        CascadeSim {
            recent: vec![Vec::with_capacity(params.depth); params.n],
            params,
            lvt,
            round: 0,
            gvt_initial,
            sync_round,
            rollbacks: 0,
            cascades: 0,
            messages: 0,
            obs: CascadeObs::new(),
            #[cfg(feature = "inject")]
            rollback_off_by_one: false,
        }
    }

    /// Global virtual time: the minimum LVT.
    pub fn gvt(&self) -> i64 {
        *self.lvt.iter().min().expect("n >= 2")
    }

    /// Max minus min LVT.
    pub fn spread(&self) -> i64 {
        let max = *self.lvt.iter().max().expect("n >= 2");
        max - self.gvt()
    }

    fn roll_back(&mut self, node: usize, stamp: i64) {
        let target = stamp;
        #[cfg(feature = "inject")]
        let target = target - i64::from(self.rollback_off_by_one);
        self.lvt[node] = target;
        self.rollbacks += 1;
        self.obs.rollbacks.inc();
        // Anti-messages: the node's recent downstream contacts computed
        // on state that is now invalid; drag any that ran ahead back to
        // the same stamp. One propagation level — the ring depth is the
        // cascade's reach.
        for i in 0..self.recent[node].len() {
            let contact = self.recent[node][i];
            if self.lvt[contact] > stamp {
                self.lvt[contact] = target;
                self.cascades += 1;
                self.obs.cascades.inc();
            }
        }
    }

    /// Advance one round: messages (stamps snapshotted at round start),
    /// rollbacks with cascade propagation, then clock advancement.
    pub fn step(&mut self, rng: &mut impl RngCore) {
        let n = self.params.n;
        // Message phase: all stamps are round-start LVTs, applied in
        // sender order — deterministic given the rng stream.
        let stamps = self.lvt.clone();
        for (sender, &stamp) in stamps.iter().enumerate() {
            if routesync_rng::dist::unit_f64(rng) >= self.params.send_prob {
                continue;
            }
            let target = {
                let t = routesync_rng::dist::below(rng, n as u64 - 1) as usize;
                if t >= sender {
                    t + 1
                } else {
                    t
                }
            };
            self.messages += 1;
            self.obs.messages.inc();
            if self.lvt[target] > stamp {
                self.roll_back(target, stamp);
            }
            if self.params.depth > 0 {
                if self.recent[sender].len() == self.params.depth {
                    self.recent[sender].remove(0);
                }
                self.recent[sender].push(target);
            }
        }
        // Advancement phase: +1 each, plus a jittered extra step.
        for i in 0..n {
            self.lvt[i] += 1;
            if self.params.advance_jitter > 0.0
                && routesync_rng::dist::unit_f64(rng) < self.params.advance_jitter
            {
                self.lvt[i] += 1;
            }
        }
        self.round += 1;
        self.obs.rounds.inc();
        if self.sync_round.is_none() && self.lvt.iter().all(|&t| t == self.lvt[0]) {
            self.sync_round = Some(self.round);
        }
    }

    /// Run `rounds` rounds and summarize.
    pub fn run(&mut self, rounds: u64, rng: &mut impl RngCore) -> CascadeReport {
        for _ in 0..rounds {
            self.step(rng);
        }
        self.report()
    }

    /// Summarize the run so far.
    pub fn report(&self) -> CascadeReport {
        CascadeReport {
            rounds: self.round,
            sync_round: self.sync_round,
            gvt_initial: self.gvt_initial,
            gvt_final: self.gvt(),
            final_spread: self.spread(),
            rollbacks: self.rollbacks,
            cascaded_rollbacks: self.cascades,
            messages: self.messages,
        }
    }
}

/// Synchronization summary of a cascade run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeReport {
    /// Rounds simulated.
    pub rounds: u64,
    /// First round at which all LVTs were equal (0 = synchronized start).
    pub sync_round: Option<u64>,
    /// GVT at round 0.
    pub gvt_initial: i64,
    /// GVT after the last round.
    pub gvt_final: i64,
    /// Max minus min LVT after the last round.
    pub final_spread: i64,
    /// Rollbacks applied to message receivers.
    pub rollbacks: u64,
    /// Additional rollbacks propagated through anti-messages.
    pub cascaded_rollbacks: u64,
    /// Event messages delivered.
    pub messages: u64,
}

impl CascadeReport {
    /// Whether the ensemble reached (and, deterministically, stays in)
    /// full lock-step.
    pub fn is_synchronized(&self) -> bool {
        self.sync_round.is_some() && self.final_spread == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesync_rng::MinStd;

    fn run(params: CascadeParams, seed: u32, rounds: u64) -> CascadeReport {
        let mut rng = MinStd::new(seed);
        let mut sim = CascadeSim::new(params, &mut rng);
        sim.run(rounds, &mut rng)
    }

    #[test]
    fn deterministic_schedule_locks_into_step() {
        let r = run(CascadeParams::unsynchronized(6, 0.2, 2), 7, 500);
        assert!(r.is_synchronized(), "{r:?}");
        // GVT advances exactly one unit per round without jitter.
        assert_eq!(r.gvt_final - r.gvt_initial, 500);
        assert!(r.rollbacks > 0, "synchronization needs rollbacks: {r:?}");
    }

    #[test]
    fn jittered_clocks_resist_lock_step() {
        let mut params = CascadeParams::unsynchronized(6, 0.05, 0);
        params.advance_jitter = 0.5;
        let mut stayed_spread = 0;
        for seed in 1..=8u32 {
            let r = run(params, seed, 400);
            assert!(
                r.gvt_final - r.gvt_initial >= 400,
                "GVT must advance at least one per round: {r:?}"
            );
            if r.final_spread > 0 {
                stayed_spread += 1;
            }
        }
        assert!(
            stayed_spread >= 6,
            "jittered clocks should rarely end in lock-step ({stayed_spread}/8 spread)"
        );
    }

    #[test]
    fn cascade_depth_accelerates_synchronization() {
        let shallow: u64 = (1..=20u32)
            .map(|s| {
                run(CascadeParams::unsynchronized(8, 0.08, 0), s, 2_000)
                    .sync_round
                    .unwrap_or(2_000)
            })
            .sum();
        let deep: u64 = (1..=20u32)
            .map(|s| {
                run(CascadeParams::unsynchronized(8, 0.08, 3), s, 2_000)
                    .sync_round
                    .unwrap_or(2_000)
            })
            .sum();
        assert!(
            deep <= shallow,
            "anti-message cascades must not slow synchronization: {deep} vs {shallow}"
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let p = CascadeParams::unsynchronized(5, 0.3, 2);
        let a = run(p, 11, 300);
        let b = run(p, 11, 300);
        assert_eq!(a, b);
        let c = run(p, 12, 300);
        assert_ne!(a, c, "distinct seeds must explore distinct runs");
    }

    #[test]
    fn synchronized_start_is_absorbing() {
        let mut params = CascadeParams::unsynchronized(5, 0.5, 2);
        params.initial_spread = 1;
        let r = run(params, 3, 200);
        assert_eq!(r.sync_round, Some(0));
        assert_eq!(r.final_spread, 0);
        assert_eq!(r.rollbacks, 0, "equal LVTs never trigger rollback");
    }

    #[test]
    #[should_panic(expected = "at least two processors")]
    fn tiny_n_rejected() {
        let mut rng = MinStd::new(1);
        let _ = CascadeSim::new(CascadeParams::unsynchronized(1, 0.5, 0), &mut rng);
    }
}
