//! Conformance test cases: a serializable description of one scenario
//! plus the oracle that judges it.
//!
//! A [`CaseSpec`] is deliberately *plain data* — integer milliseconds and
//! seconds, no `Duration`s, no trait objects — so that `(seed, spec)`
//! round-trips through one line of JSON. That line **is** the reproducer
//! format: the fuzzer shrinks every failure down to a minimal spec and
//! writes `{"seed":…,"spec":{…}}` to `results/conformance/`, and
//! `conformance --replay <file>` re-runs it verbatim.

use routesync_core::{PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_markov::ChainParams;
use routesync_netsim::{FaultPlan, ForwardingMode, Scenario, ScenarioSpec, TimerStart};
use serde::{Deserialize, Serialize};

/// Which conformance oracle judges a case. The three families of the
/// paper's cross-model claim:
///
/// * **differential** — [`Oracle::EngineEquivalence`] (FastModel vs
///   PeriodicModel), [`Oracle::NetsimTiming`] (packet-level update timing
///   vs the abstract timer rules, forwarding effects disabled);
/// * **analytical** — [`Oracle::MarkovSync`] / [`Oracle::MarkovDesync`]
///   (simulated passage times vs the chain's `f`/`g` closed forms), plus
///   the related-literature phenomena checked against their own closed
///   forms: [`Oracle::CascadeMeanField`], [`Oracle::TwoTypeTransition`],
///   [`Oracle::PulseConvergence`];
/// * **metamorphic** — [`Oracle::ThreadInvariance`],
///   [`Oracle::Translation`], [`Oracle::TrMonotonicity`],
///   [`Oracle::EmptyFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Oracle {
    /// FastModel and PeriodicModel produce identical send and cluster
    /// trajectories (differential, exact).
    EngineEquivalence,
    /// Packet-level LAN update timing obeys the abstract model's timer
    /// rules with forwarding effects disabled (differential, envelope).
    NetsimTiming,
    /// Simulated time-to-synchronize within statistical tolerance of the
    /// Markov chain's `f(N)` (analytical).
    MarkovSync,
    /// Simulated time-to-desynchronize within statistical tolerance of the
    /// chain's `g(1)` (analytical).
    MarkovDesync,
    /// Cascade-rollback ensembles lock into step within a band of the
    /// Manita–Simonot pure-birth mean-field time, the GVT advances
    /// exactly one unit per round, and jittered clocks resist lock-step
    /// (analytical; arXiv math/0508533).
    CascadeMeanField,
    /// The two-type clock lag stays non-negative, grows at the
    /// Malyshev–Manita rate `δ − p·J` below the critical exchange rate
    /// `δ/J`, and stays bounded above it (analytical; arXiv 1201.3550).
    TwoTypeTransition,
    /// Trimmed-midpoint pulse synchronization halves the phase diameter
    /// every round despite Byzantine equivocators and converges within
    /// the `ceil(log2(d0/ε))` bound (analytical; Yu et al.).
    PulseConvergence,
    /// Ensemble results are bit-identical at 1/2/4 worker threads and
    /// under model reuse, and distinct seeds give distinct trajectories
    /// (metamorphic, exact).
    ThreadInvariance,
    /// Translating every start offset by a constant shifts the whole
    /// trajectory by exactly that constant (metamorphic, exact).
    Translation,
    /// Growing Tr never makes an ensemble synchronize more often
    /// (metamorphic, statistical with slack).
    TrMonotonicity,
    /// Building a scenario with an empty fault plan is bit-identical to
    /// building it with none (metamorphic, exact).
    EmptyFaultPlan,
}

impl Oracle {
    /// All oracles, in a fixed order (the fuzzer's seed corpus order).
    pub const ALL: [Oracle; 11] = [
        Oracle::EngineEquivalence,
        Oracle::NetsimTiming,
        Oracle::MarkovSync,
        Oracle::MarkovDesync,
        Oracle::CascadeMeanField,
        Oracle::TwoTypeTransition,
        Oracle::PulseConvergence,
        Oracle::ThreadInvariance,
        Oracle::Translation,
        Oracle::TrMonotonicity,
        Oracle::EmptyFaultPlan,
    ];

    /// The oracle family, for reporting: `differential`, `analytical` or
    /// `metamorphic`.
    pub fn family(self) -> &'static str {
        match self {
            Oracle::EngineEquivalence | Oracle::NetsimTiming => "differential",
            Oracle::MarkovSync
            | Oracle::MarkovDesync
            | Oracle::CascadeMeanField
            | Oracle::TwoTypeTransition
            | Oracle::PulseConvergence => "analytical",
            Oracle::ThreadInvariance
            | Oracle::Translation
            | Oracle::TrMonotonicity
            | Oracle::EmptyFaultPlan => "metamorphic",
        }
    }

    /// Short stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::EngineEquivalence => "engine-equivalence",
            Oracle::NetsimTiming => "netsim-timing",
            Oracle::MarkovSync => "markov-sync",
            Oracle::MarkovDesync => "markov-desync",
            Oracle::CascadeMeanField => "cascade-mean-field",
            Oracle::TwoTypeTransition => "two-type-transition",
            Oracle::PulseConvergence => "pulse-convergence",
            Oracle::ThreadInvariance => "thread-invariance",
            Oracle::Translation => "translation",
            Oracle::TrMonotonicity => "tr-monotonicity",
            Oracle::EmptyFaultPlan => "empty-fault-plan",
        }
    }
}

/// One deterministic fault operation for the packet-level oracles. Plain
/// data (ids and seconds) so cases serialize to one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Take a link down at `down_s`, back up at `up_s`.
    Link {
        /// Link id within the scenario's numbering.
        link: usize,
        /// Seconds at which the link goes down.
        down_s: u64,
        /// Seconds at which it comes back (must exceed `down_s`).
        up_s: u64,
    },
    /// Crash a router at `down_s`, reboot it at `up_s`.
    Router {
        /// Router id within the scenario.
        node: usize,
        /// Seconds at which the router crashes.
        down_s: u64,
        /// Seconds at which it reboots.
        up_s: u64,
    },
}

/// A deliberate model defect for the harness's self-test, named by the
/// engine field it sets: a run given one must be caught by its oracle.
/// [`crate::FuzzConfig`] and [`crate::fuzz::replay`] carry it to
/// [`crate::oracles::check`], which builds every engine of the case with
/// it. The variants exist only with the `inject` feature; without it
/// `Option<Defect>` is always `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// `PeriodicParams::merge_off_by_one`, for engine equivalence.
    #[cfg(feature = "inject")]
    MergeOffByOne,
    /// `CascadeSim::rollback_off_by_one`, for the cascade mean field.
    #[cfg(feature = "inject")]
    RollbackOffByOne,
    /// `TwoTypeSim::unclamped_jump`, for the two-type transition.
    #[cfg(feature = "inject")]
    UnclampedJump,
    /// `PulseSim::trim_short`, for pulse convergence.
    #[cfg(feature = "inject")]
    TrimShort,
}

/// A complete, self-contained conformance case. `(seed, spec)` determines
/// the whole run bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// Which oracle judges this case.
    pub oracle: Oracle,
    /// Number of routers `N`.
    pub n: usize,
    /// Mean period `Tp`, milliseconds.
    pub tp_ms: u64,
    /// Processing cost `Tc`, milliseconds.
    pub tc_ms: u64,
    /// Jitter half-width `Tr`, milliseconds.
    pub tr_ms: u64,
    /// Synchronized (`true`) or unsynchronized start.
    pub sync_start: bool,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Scheduled faults (packet-level oracles only; empty elsewhere).
    pub faults: Vec<FaultOp>,
    /// Block width for the batched engine leg of
    /// [`Oracle::EngineEquivalence`] (1 = a single-cell block).
    /// Reproducer lines written before the batched engine existed lack
    /// the field and deserialize to 1.
    #[serde(default = "one")]
    pub batch_width: usize,
    /// Anti-message cascade depth for [`Oracle::CascadeMeanField`] (how
    /// many recent contacts a rolled-back processor drags along; 0 = no
    /// cascade). Ignored — and sanitized to 0 — everywhere else, and
    /// absent from older reproducer lines, which deserialize to 0.
    #[serde(default)]
    pub depth: usize,
}

fn one() -> usize {
    1
}

impl CaseSpec {
    /// The abstract-model parameters of this case.
    pub fn params(&self) -> PeriodicParams {
        PeriodicParams::new(
            self.n,
            Duration::from_millis(self.tp_ms),
            Duration::from_millis(self.tc_ms),
            Duration::from_millis(self.tr_ms),
        )
    }

    /// [`CaseSpec::params`], with the merge defect if `defect` is it.
    pub fn params_with(&self, defect: Option<Defect>) -> PeriodicParams {
        match defect {
            #[cfg(feature = "inject")]
            Some(Defect::MergeOffByOne) => PeriodicParams {
                merge_off_by_one: true,
                ..self.params()
            },
            _ => self.params(),
        }
    }

    /// The Markov-chain parameters of this case.
    pub fn chain_params(&self) -> ChainParams {
        ChainParams {
            n: self.n,
            tp: self.tp_ms as f64 / 1e3,
            tc: self.tc_ms as f64 / 1e3,
            tr: self.tr_ms as f64 / 1e3,
        }
    }

    /// The start state of this case.
    pub fn start(&self) -> StartState {
        if self.sync_start {
            StartState::Synchronized
        } else {
            StartState::Unsynchronized
        }
    }

    /// The horizon of this case.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.horizon_s)
    }

    /// Build this case's fault plan (packet-level oracles).
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for op in &self.faults {
            plan = match *op {
                FaultOp::Link { link, down_s, up_s } => plan
                    .link_down_at(link, SimTime::from_secs(down_s))
                    .link_up_at(link, SimTime::from_secs(up_s)),
                FaultOp::Router { node, down_s, up_s } => plan
                    .crash_at(node, SimTime::from_secs(down_s))
                    .reboot_at(node, SimTime::from_secs(up_s)),
            };
        }
        plan
    }

    /// Build the packet-level LAN counterpart of this case: DECnet-style
    /// 120 s updates with this case's jitter, forwarding effects disabled
    /// (`Concurrent`), faults installed. The LAN's update period is fixed
    /// by the scenario (120 s); the packet-level oracles' domain pins
    /// `tp_ms` to the same 120 000.
    pub fn build_lan(&self, seed: u64) -> Scenario {
        ScenarioSpec::lan(self.n, Duration::from_millis(self.tr_ms))
            .with_forwarding(ForwardingMode::Concurrent)
            .with_start(if self.sync_start {
                TimerStart::Synchronized
            } else {
                TimerStart::Unsynchronized
            })
            .with_faults(self.fault_plan())
            .build(seed)
    }
}

/// A minimized failing case: everything needed to replay it, one JSON
/// line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// The case seed.
    pub seed: u64,
    /// The minimized spec.
    pub spec: CaseSpec,
    /// The oracle's failure message (diagnostic only; not needed to
    /// replay).
    pub message: String,
}

impl Reproducer {
    /// Serialize to the one-line replay format.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("reproducer serializes")
    }

    /// Parse a line produced by [`Reproducer::to_line`].
    pub fn from_line(line: &str) -> Result<Reproducer, String> {
        serde_json::from_str(line.trim()).map_err(|e| format!("bad reproducer line: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_one_line() {
        let spec = CaseSpec {
            oracle: Oracle::NetsimTiming,
            n: 6,
            tp_ms: 120_000,
            tc_ms: 110,
            tr_ms: 500,
            sync_start: true,
            horizon_s: 2_000,
            faults: vec![
                FaultOp::Link {
                    link: 0,
                    down_s: 300,
                    up_s: 500,
                },
                FaultOp::Router {
                    node: 2,
                    down_s: 700,
                    up_s: 900,
                },
            ],
            batch_width: 4,
            depth: 2,
        };
        let repro = Reproducer {
            seed: 42,
            spec: spec.clone(),
            message: "example".into(),
        };
        let line = repro.to_line();
        assert!(!line.contains('\n'), "reproducers must be one line");
        let back = Reproducer::from_line(&line).expect("parses");
        assert_eq!(back.spec, spec);
        assert_eq!(back.seed, 42);
    }

    #[test]
    fn fault_plan_schedules_every_op() {
        let spec = CaseSpec {
            oracle: Oracle::EmptyFaultPlan,
            n: 4,
            tp_ms: 120_000,
            tc_ms: 110,
            tr_ms: 100,
            sync_start: true,
            horizon_s: 1_000,
            faults: vec![FaultOp::Link {
                link: 0,
                down_s: 10,
                up_s: 20,
            }],
            batch_width: 1,
            depth: 0,
        };
        assert!(!spec.fault_plan().is_empty());
        assert!(CaseSpec {
            faults: vec![],
            ..spec
        }
        .fault_plan()
        .is_empty());
    }

    /// A reproducer line written before the batched engine: it lacks
    /// `batch_width` (and `depth`).
    const PRE_BATCHED_LINE: &str = r#"{"seed":7,"spec":{"oracle":"EngineEquivalence","n":4,"tp_ms":10000,"tc_ms":110,"tr_ms":100,"sync_start":false,"horizon_s":1000,"faults":[]},"message":"m"}"#;

    #[test]
    fn batch_width_defaults_for_old_reproducers() {
        // The missing field parses as a width-1 (scalar-equivalent)
        // block, which lies in the oracle's domain.
        let back = Reproducer::from_line(PRE_BATCHED_LINE).expect("parses");
        assert_eq!(back.spec.batch_width, 1);
        assert_eq!(back.spec.depth, 0);
        assert!(crate::fuzz::in_domain(&back.spec));
    }

    #[test]
    fn reproducers_written_before_the_batched_engine_still_replay() {
        let back = Reproducer::from_line(PRE_BATCHED_LINE).expect("parses");
        assert_eq!(crate::fuzz::replay(&back, None), Ok(()));
    }

    #[test]
    fn depth_defaults_for_pre_cascade_reproducers() {
        // `depth` joined the spec with the cascade oracle; older lines
        // lack it and must parse to the 0 sentinel (= no cascade), which
        // sanitize leaves alone for every non-cascade oracle.
        let line = r#"{"seed":3,"spec":{"oracle":"MarkovSync","n":4,"tp_ms":10000,"tc_ms":110,"tr_ms":100,"sync_start":false,"horizon_s":20000,"faults":[],"batch_width":1},"message":"m"}"#;
        let back = Reproducer::from_line(line).expect("parses");
        assert_eq!(back.spec.depth, 0);
        let mut fixed = back.spec.clone();
        crate::fuzz::sanitize(&mut fixed);
        assert_eq!(fixed.depth, 0);
    }

    #[test]
    fn oracle_families_cover_all_three() {
        let fams: std::collections::BTreeSet<_> = Oracle::ALL.iter().map(|o| o.family()).collect();
        assert_eq!(fams.len(), 3);
    }
}
