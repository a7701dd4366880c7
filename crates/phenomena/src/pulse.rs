//! Fault-tolerant anonymous pulse synchronization (after Yu, Welch et
//! al.'s self-stabilizing Byzantine pulse-synchronization line of work).
//!
//! `n` anonymous nodes each hold a phase value and want to fire pulses
//! in unison. Every round each node broadcasts its phase; a receiver
//! sorts the `n` values it heard, **trims** the `t` smallest and `t`
//! largest, and jumps to the midpoint of the surviving extremes. Up to
//! `f` of the nodes are Byzantine — while active they *equivocate*,
//! reporting an independently random (and possibly out-of-range) phase
//! to every receiver — and the faulty windows follow the repo's standard
//! fault-plan shape ([`ByzantineWindow`]): a node lies only between its
//! `down` and `up` rounds, runs the protocol honestly on its own state
//! throughout, and rejoins seamlessly when the window closes.
//!
//! The classical resilience bound applies: with `n > 3f` and `t = f`,
//! every trimmed extreme a receiver keeps is sandwiched between truthful
//! values, so every update lands inside the truthful range and the phase
//! diameter at least **halves each round** — for *any* equivocation.
//! Convergence to `ε` therefore takes at most
//! `routesync_markov::meanfield::pulse_convergence_bound` rounds.
//! Clock drift jitter ([`PulseParams::drift`] > 0) re-opens the diameter
//! by up to `2ρ` before each exchange, leaving a floor near `2ρ` the
//! protocol cannot cross — the same randomization-vs-lock-step tension
//! as everywhere else in this crate, except here randomness is the
//! *enemy* of the protocol rather than its medicine.

use rand_core::RngCore;
use serde::{Deserialize, Serialize};

/// A Byzantine fault window: the node equivocates during rounds
/// `[down_round, up_round)` and behaves honestly outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByzantineWindow {
    /// Index of the faulty node.
    pub node: usize,
    /// First faulty round.
    pub down_round: u64,
    /// First healed round.
    pub up_round: u64,
}

impl ByzantineWindow {
    /// Whether the node is faulty during `round`.
    pub fn active(&self, round: u64) -> bool {
        (self.down_round..self.up_round).contains(&round)
    }
}

/// Model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseParams {
    /// Number of nodes `n`.
    pub n: usize,
    /// Byzantine fault windows; resilience requires `n > 3·f` for `f`
    /// distinct faulty nodes.
    pub byzantine: Vec<ByzantineWindow>,
    /// Per-round clock-drift jitter amplitude `ρ`: each phase moves by a
    /// uniform offset in `[−ρ, ρ]` before the exchange (0 = the
    /// deterministic schedule).
    pub drift: f64,
    /// Initial phases are drawn uniformly from `[0, initial_spread)`.
    pub initial_spread: f64,
}

impl PulseParams {
    /// A fault-free deterministic system of `n` nodes with initial
    /// diameter up to 100.
    pub fn fault_free(n: usize) -> Self {
        PulseParams {
            n,
            byzantine: Vec::new(),
            drift: 0.0,
            initial_spread: 100.0,
        }
    }

    /// Number of distinct faulty nodes `f` (and the trim width `t`).
    pub fn fault_count(&self) -> usize {
        let mut nodes: Vec<usize> = self.byzantine.iter().map(|w| w.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

struct PulseObs {
    rounds: routesync_obs::Counter,
    broadcasts: routesync_obs::Counter,
    equivocations: routesync_obs::Counter,
}

impl PulseObs {
    fn new() -> Self {
        let obs = routesync_obs::global();
        PulseObs {
            rounds: obs.counter("phenomena.pulse.rounds"),
            broadcasts: obs.counter("phenomena.pulse.broadcasts"),
            equivocations: obs.counter("phenomena.pulse.equivocations"),
        }
    }
}

/// The pulse-synchronization simulation.
pub struct PulseSim {
    params: PulseParams,
    /// True internal phases. Faulty nodes keep updating these honestly;
    /// only their broadcasts lie.
    phase: Vec<f64>,
    trim: usize,
    round: u64,
    initial_diameter: f64,
    /// Diameter at the most recent pulse instant: after the round's
    /// drift jitter, before its exchange.
    pulse_diameter: f64,
    max_halving_excess: f64,
    equivocations: u64,
    obs: PulseObs,
    /// The conformance self-test's trim defect: receivers trim `t − 1`
    /// values from each end, so one Byzantine extreme reaches the midpoint.
    #[cfg(feature = "inject")]
    pub trim_short: bool,
}

impl PulseSim {
    /// Draw initial phases and validate the resilience precondition.
    pub fn new(params: PulseParams, rng: &mut impl RngCore) -> Self {
        let f = params.fault_count();
        assert!(params.n >= 2, "pulse needs at least two nodes");
        assert!(
            params.n > 3 * f,
            "resilience requires n > 3f (n={}, f={f})",
            params.n
        );
        assert!(params.drift >= 0.0, "drift amplitude cannot be negative");
        assert!(
            params.initial_spread > 0.0,
            "initial spread must be positive"
        );
        for w in &params.byzantine {
            assert!(w.node < params.n, "faulty node out of range");
            assert!(w.down_round < w.up_round, "empty fault window");
        }
        let spread = routesync_rng::dist::UniformF64::new(0.0, params.initial_spread);
        let phase: Vec<f64> = (0..params.n).map(|_| spread.sample(rng)).collect();
        let mut sim = PulseSim {
            trim: f,
            phase,
            params,
            round: 0,
            initial_diameter: 0.0,
            pulse_diameter: 0.0,
            max_halving_excess: f64::NEG_INFINITY,
            equivocations: 0,
            obs: PulseObs::new(),
            #[cfg(feature = "inject")]
            trim_short: false,
        };
        sim.initial_diameter = sim.diameter();
        sim.pulse_diameter = sim.initial_diameter;
        sim
    }

    fn faulty(&self, node: usize, round: u64) -> bool {
        self.params
            .byzantine
            .iter()
            .any(|w| w.node == node && w.active(round))
    }

    /// Diameter of the true internal phases.
    pub fn diameter(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &p in &self.phase {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        hi - lo
    }

    /// Advance one round: drift jitter, broadcast (with equivocation),
    /// trimmed-midpoint update. Records how far the round fell short of
    /// the post-jitter `d' ≤ d/2` halving guarantee.
    pub fn step(&mut self, rng: &mut impl RngCore) {
        let n = self.params.n;
        let rho = self.params.drift;
        if rho > 0.0 {
            let jitter = routesync_rng::dist::UniformF64::new(-rho, rho);
            for p in self.phase.iter_mut() {
                *p += jitter.sample(rng);
            }
        }
        let d_before = self.diameter();
        self.pulse_diameter = d_before;
        let lie = routesync_rng::dist::UniformF64::new(
            -self.params.initial_spread,
            2.0 * self.params.initial_spread,
        );
        let t = self.trim;
        #[cfg(feature = "inject")]
        let t = t.saturating_sub(usize::from(self.trim_short));
        let mut next = self.phase.clone();
        for (receiver, slot) in next.iter_mut().enumerate() {
            let mut heard: Vec<f64> = Vec::with_capacity(n);
            for sender in 0..n {
                // A node always knows its own true phase; everyone else's
                // broadcast is a lie while the sender's window is active.
                if sender != receiver && self.faulty(sender, self.round) {
                    heard.push(lie.sample(rng));
                    self.equivocations += 1;
                    self.obs.equivocations.inc();
                } else {
                    heard.push(self.phase[sender]);
                }
                self.obs.broadcasts.inc();
            }
            heard.sort_by(f64::total_cmp);
            *slot = (heard[t] + heard[n - 1 - t]) / 2.0;
        }
        self.phase = next;
        self.round += 1;
        self.obs.rounds.inc();
        let d_after = self.diameter();
        self.max_halving_excess = self.max_halving_excess.max(d_after - d_before / 2.0);
    }

    /// Run `rounds` rounds and summarize.
    pub fn run(&mut self, rounds: u64, rng: &mut impl RngCore) -> PulseReport {
        for _ in 0..rounds {
            self.step(rng);
        }
        self.report()
    }

    /// Summarize the run so far.
    pub fn report(&self) -> PulseReport {
        PulseReport {
            rounds: self.round,
            initial_diameter: self.initial_diameter,
            final_diameter: self.pulse_diameter,
            max_halving_excess: if self.round > 0 {
                self.max_halving_excess
            } else {
                0.0
            },
            equivocations: self.equivocations,
        }
    }
}

/// Summary of a pulse run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseReport {
    /// Rounds simulated.
    pub rounds: u64,
    /// Phase diameter at round 0.
    pub initial_diameter: f64,
    /// Phase diameter at the last pulse instant — after the final
    /// round's drift jitter, before its exchange. This is the
    /// disagreement visible when pulses actually fire, and with drift
    /// jitter it floors near `2ρ` instead of collapsing to 0.
    pub final_diameter: f64,
    /// Largest observed value of `d_after − d_before/2` (post-jitter)
    /// over all rounds: ≤ 0 up to float slack when the protocol is
    /// healthy — the conformance oracle's sharpest invariant.
    pub max_halving_excess: f64,
    /// Total equivocating broadcasts by active Byzantine nodes.
    pub equivocations: u64,
}

impl PulseReport {
    /// Whether the nodes converged to within `epsilon`.
    pub fn is_synchronized(&self, epsilon: f64) -> bool {
        self.final_diameter <= epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesync_rng::MinStd;

    fn run(params: PulseParams, seed: u32, rounds: u64) -> PulseReport {
        let mut rng = MinStd::new(seed);
        let mut sim = PulseSim::new(params, &mut rng);
        sim.run(rounds, &mut rng)
    }

    #[test]
    fn fault_free_network_halves_every_round() {
        let r = run(PulseParams::fault_free(5), 3, 20);
        assert!(r.max_halving_excess <= 1e-9, "{r:?}");
        let bound = routesync_markov::pulse_convergence_bound(r.initial_diameter, 0.01);
        assert!(bound <= 20, "{bound}");
        assert!(r.is_synchronized(0.01), "{r:?}");
    }

    #[test]
    fn byzantine_node_cannot_break_halving() {
        let mut params = PulseParams::fault_free(4);
        params.byzantine = vec![ByzantineWindow {
            node: 1,
            down_round: 0,
            up_round: 60,
        }];
        for seed in 1..=10u32 {
            let r = run(params.clone(), seed, 40);
            assert!(r.max_halving_excess <= 1e-9, "seed {seed}: {r:?}");
            assert!(r.is_synchronized(0.01), "seed {seed}: {r:?}");
            assert!(r.equivocations > 0, "the byzantine node must be heard");
        }
    }

    #[test]
    fn healed_fault_rejoins_the_flock() {
        let mut params = PulseParams::fault_free(4);
        params.byzantine = vec![ByzantineWindow {
            node: 2,
            down_round: 0,
            up_round: 5,
        }];
        let r = run(params, 9, 40);
        // The node runs the protocol on its own state throughout, so the
        // halving invariant survives the window closing.
        assert!(r.max_halving_excess <= 1e-9, "{r:?}");
        assert!(r.is_synchronized(0.01), "{r:?}");
    }

    #[test]
    fn drift_jitter_leaves_a_floor() {
        let drift = 2.0;
        let mut params = PulseParams::fault_free(5);
        params.drift = drift;
        let r = run(params, 7, 60);
        assert!(r.max_halving_excess <= 1e-9, "{r:?}");
        assert!(
            !r.is_synchronized(0.01),
            "drift should hold the diameter off zero: {r:?}"
        );
        assert!(r.final_diameter <= 4.0 * drift + 1e-9, "{r:?}");
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let mut params = PulseParams::fault_free(4);
        params.byzantine = vec![ByzantineWindow {
            node: 0,
            down_round: 1,
            up_round: 30,
        }];
        assert_eq!(run(params.clone(), 4, 30), run(params.clone(), 4, 30));
        assert_ne!(run(params.clone(), 4, 30), run(params, 5, 30));
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn resilience_precondition_enforced() {
        let mut params = PulseParams::fault_free(3);
        params.byzantine = vec![ByzantineWindow {
            node: 0,
            down_round: 0,
            up_round: 10,
        }];
        let mut rng = MinStd::new(1);
        let _ = PulseSim::new(params, &mut rng);
    }
}
