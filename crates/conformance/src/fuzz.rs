//! The coverage-guided conformance fuzzer.
//!
//! A deterministic loop: draw a case seed, pick a corpus spec (the canned
//! seed corpus first, then mutations of interesting entries), sanitize it
//! into its oracle's domain, run the oracle under a fresh obs collector,
//! and fold the snapshot's deterministic metrics into the coverage map. A
//! case that lights up new coverage joins the corpus; a case that fails
//! is shrunk to a one-line [`Reproducer`].
//!
//! Everything downstream of `(config.seed, budget_cases)` is
//! bit-reproducible: the spec/seed sequence, the corpus evolution, the
//! coverage counts and the report text. The optional wall-clock budget
//! can only truncate the case sequence early (recorded in the report as
//! `truncated`), never reorder it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use routesync_exec::Ensemble;
use routesync_rng::SplitMix64;

use crate::coverage::{self, CoverageMap};
use crate::oracles;
use crate::shrink;
use crate::spec::{CaseSpec, Defect, FaultOp, Oracle, Reproducer};

/// Corpus growth cap; beyond this, new-coverage specs still count as
/// coverage but are not kept.
const CORPUS_CAP: usize = 512;

/// Fuzz-run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the whole run is a pure function of it (and the
    /// budgets).
    pub seed: u64,
    /// Maximum number of cases to run.
    pub budget_cases: usize,
    /// Optional wall-clock budget; checked between cases.
    pub budget: Option<std::time::Duration>,
    /// Where to write `reproducers.jsonl` and `summary.txt`; `None`
    /// writes nothing.
    pub out_dir: Option<PathBuf>,
    /// Deterministic per-case step budget, counted over the case's
    /// simulation-domain obs counters (the same namespaces the coverage
    /// signal uses). A case exceeding it is quarantined as a watchdog
    /// trip — a pure function of `(spec, seed)`, so the censoring is
    /// identical on every machine and on resume.
    pub watchdog_steps: Option<u64>,
    /// Crash-safe checkpoint path enabling `--resume`: each finished
    /// case's verdict streams to a CRC-framed append-only file, and a
    /// rerun pointing at the same file replays finished cases instead of
    /// re-running their oracles — with byte-identical report output. Use
    /// [`fuzz_checkpointed`] when set.
    pub checkpoint: Option<PathBuf>,
    /// The deliberate defect every case's models are built with; `None`
    /// outside the harness's self-test.
    pub defect: Option<Defect>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            budget_cases: 200,
            budget: None,
            out_dir: None,
            watchdog_steps: None,
            checkpoint: None,
            defect: None,
        }
    }
}

/// Per-family tallies for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Cases judged by this family.
    pub cases: usize,
    /// Failures among them (after shrinking, still failing).
    pub failures: usize,
}

/// The outcome of a fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases actually run.
    pub cases: usize,
    /// Cases whose oracle accepted.
    pub passes: usize,
    /// Minimized failures, in discovery order.
    pub failures: Vec<Reproducer>,
    /// Distinct coverage features over the whole run.
    pub coverage_features: usize,
    /// Final corpus size.
    pub corpus_size: usize,
    /// Tallies per oracle family name.
    pub per_family: BTreeMap<&'static str, FamilyStats>,
    /// Whether the wall-clock budget cut the case sequence short.
    pub truncated: bool,
    /// Quarantined cases (panicked oracle or watchdog trip) as rendered
    /// one-line JSON records, in discovery order. Quarantined cases are
    /// censored: they feed neither coverage nor the corpus, so the rest
    /// of the run evolves exactly as if they had been skipped.
    pub quarantined: Vec<String>,
    /// Cases replayed from the checkpoint instead of run. Not part of
    /// [`render`](FuzzReport::render): a resumed run's report must be
    /// byte-identical to an uninterrupted one.
    pub resumed: usize,
    /// Whether a SIGINT drain stopped the run before the case budget.
    pub interrupted: bool,
}

impl FuzzReport {
    /// Render the deterministic report text (no wall-clock content). Two
    /// runs with the same `(seed, budget_cases)` and no time budget
    /// produce byte-identical output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance: {} cases, {} passed, {} failed\n",
            self.cases,
            self.passes,
            self.failures.len()
        ));
        for (family, stats) in &self.per_family {
            out.push_str(&format!(
                "  {family}: {} cases, {} failures\n",
                stats.cases, stats.failures
            ));
        }
        out.push_str(&format!(
            "coverage: {} features, corpus {}\n",
            self.coverage_features, self.corpus_size
        ));
        if self.truncated {
            out.push_str("truncated: wall-clock budget reached\n");
        }
        if !self.quarantined.is_empty() {
            out.push_str(&format!("quarantined: {} cases\n", self.quarantined.len()));
        }
        for repro in &self.failures {
            out.push_str(&format!("FAIL {}\n", repro.to_line()));
        }
        for line in &self.quarantined {
            out.push_str(&format!("QUARANTINE {line}\n"));
        }
        out
    }

    /// Write `reproducers.jsonl` (one line per failure) and `summary.txt`
    /// under `dir`. Both writes are atomic (tmp sibling + rename): an
    /// interrupted process never leaves a torn reproducer file behind.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut lines = String::new();
        for repro in &self.failures {
            lines.push_str(&repro.to_line());
            lines.push('\n');
        }
        routesync_exec::atomic_write(&dir.join("reproducers.jsonl"), lines.as_bytes())?;
        routesync_exec::atomic_write(&dir.join("summary.txt"), self.render().as_bytes())
    }
}

/// The canned seed corpus: at least one known-good, cheap spec per
/// oracle, in [`Oracle::ALL`] order (plus a few variants that light up
/// different paths — zero jitter, faults).
pub fn seed_corpus() -> Vec<CaseSpec> {
    let abstract_case = |oracle, n, tr_ms, horizon_s| CaseSpec {
        oracle,
        n,
        tp_ms: 10_000,
        tc_ms: 110,
        tr_ms,
        sync_start: false,
        horizon_s,
        faults: Vec::new(),
        batch_width: 1,
        depth: 0,
    };
    let lan_case = |oracle, n, tr_ms, sync_start, horizon_s, faults| CaseSpec {
        oracle,
        n,
        tp_ms: 120_000,
        tc_ms: 110,
        tr_ms,
        sync_start,
        horizon_s,
        faults,
        batch_width: 1,
        depth: 0,
    };
    vec![
        abstract_case(Oracle::EngineEquivalence, 6, 200, 3_000),
        lan_case(Oracle::NetsimTiming, 5, 2_000, false, 1_800, Vec::new()),
        abstract_case(Oracle::MarkovSync, 5, 100, 20_000),
        abstract_case(Oracle::MarkovDesync, 4, 1_000, 30_000),
        // Phenomena oracles read horizon_s as rounds and tc/tp as the
        // per-round rate knobs; see each oracle's docs for the mapping.
        CaseSpec {
            tp_ms: 2_000,
            depth: 2,
            ..abstract_case(Oracle::CascadeMeanField, 5, 0, 800)
        },
        abstract_case(Oracle::TwoTypeTransition, 2, 100, 8_000),
        CaseSpec {
            faults: vec![FaultOp::Router {
                node: 1,
                down_s: 2,
                up_s: 40,
            }],
            ..abstract_case(Oracle::PulseConvergence, 4, 0, 48)
        },
        abstract_case(Oracle::ThreadInvariance, 5, 150, 2_000),
        abstract_case(Oracle::Translation, 4, 300, 1_500),
        abstract_case(Oracle::TrMonotonicity, 5, 300, 8_000),
        lan_case(Oracle::EmptyFaultPlan, 4, 1_000, false, 1_200, Vec::new()),
        // Variants that reach paths the base cases do not.
        lan_case(Oracle::NetsimTiming, 4, 0, true, 1_300, Vec::new()),
        lan_case(
            Oracle::NetsimTiming,
            5,
            1_000,
            false,
            1_800,
            vec![FaultOp::Router {
                node: 1,
                down_s: 300,
                up_s: 450,
            }],
        ),
        abstract_case(Oracle::EngineEquivalence, 3, 0, 2_000),
        CaseSpec {
            batch_width: 8,
            ..abstract_case(Oracle::EngineEquivalence, 5, 150, 2_500)
        },
        // Jittered cascade: the exact GVT leg under randomized clocks.
        CaseSpec {
            tp_ms: 2_000,
            tc_ms: 100,
            ..abstract_case(Oracle::CascadeMeanField, 6, 1_000, 400)
        },
        // Drifting pulse: the floor envelope instead of exact convergence.
        CaseSpec {
            faults: vec![FaultOp::Router {
                node: 2,
                down_s: 1,
                up_s: 30,
            }],
            ..abstract_case(Oracle::PulseConvergence, 7, 500, 60)
        },
    ]
}

fn is_lan_oracle(oracle: Oracle) -> bool {
    matches!(oracle, Oracle::NetsimTiming | Oracle::EmptyFaultPlan)
}

fn clamp(v: u64, lo: u64, hi: u64) -> u64 {
    v.max(lo).min(hi)
}

/// Force a (possibly mutated) spec into its oracle's valid, affordable
/// domain. Idempotent; every spec the fuzzer runs has passed through
/// here, so the oracles may assume these bounds.
pub fn sanitize(spec: &mut CaseSpec) {
    spec.batch_width = spec.batch_width.clamp(1, 64);
    if spec.oracle != Oracle::CascadeMeanField {
        spec.depth = 0;
    }
    if is_lan_oracle(spec.oracle) {
        // The LAN scenario's period is fixed (DECnet-style 120 s
        // updates); keep the spec honest about it.
        spec.tp_ms = 120_000;
        spec.n = spec.n.clamp(3, 8);
        spec.tc_ms = clamp(spec.tc_ms, 10, 500);
        spec.tr_ms = clamp(spec.tr_ms, 0, 5_000);
        spec.horizon_s = clamp(spec.horizon_s, 900, 3_600);
        if spec.oracle == Oracle::EmptyFaultPlan {
            // The oracle compares fault-free builds; faults are noise.
            spec.faults.clear();
        } else {
            sanitize_faults(spec);
        }
        return;
    }
    // Abstract-model oracles: no packet level, no faults — except the
    // pulse oracle, which reads Router windows as Byzantine equivocators.
    if spec.oracle != Oracle::PulseConvergence {
        spec.faults.clear();
    }
    spec.tp_ms = clamp(spec.tp_ms, 2_000, 30_000);
    spec.tc_ms = clamp(spec.tc_ms, 10, 500);
    let tp_s = spec.tp_ms / 1_000;
    match spec.oracle {
        Oracle::MarkovSync => {
            spec.n = spec.n.clamp(3, 8);
            // Synchronization regime: jitter no larger than twice the
            // coupling, horizon long enough that censoring is rare. The
            // lower bound keeps the ensemble ergodic: at Tr = 0 offsets
            // never drift, so runs whose initial offsets hold no pair
            // within Tc can never form one and f(2) is unobservable.
            spec.tr_ms = clamp(spec.tr_ms, 10, 2 * spec.tc_ms);
            spec.horizon_s = clamp(spec.horizon_s, 500 * tp_s, 3_000 * tp_s);
        }
        Oracle::MarkovDesync => {
            spec.n = spec.n.clamp(3, 8);
            // Desynchronization regime: jitter at least the coupling.
            spec.tr_ms = clamp(spec.tr_ms, spec.tc_ms.max(500), 3_000.min(spec.tp_ms / 2));
            spec.horizon_s = clamp(spec.horizon_s, 500 * tp_s, 3_000 * tp_s);
        }
        Oracle::TrMonotonicity => {
            spec.n = spec.n.clamp(3, 8);
            // The monotone claim holds in the jitter-dominated regime
            // (Tr at least a couple of coupling windows Tc). Below that,
            // sync within a finite horizon is diffusion-limited and more
            // jitter *speeds it up* — the paper's claim does not apply.
            spec.tc_ms = clamp(spec.tc_ms, 10, 150);
            // Keep 3·Tr within the timer's valid range with room to move.
            spec.tr_ms = clamp(spec.tr_ms, 2 * spec.tc_ms, spec.tp_ms / 6);
            spec.horizon_s = clamp(spec.horizon_s, 300 * tp_s, 1_000 * tp_s);
        }
        Oracle::CascadeMeanField => {
            // Round-based: q = Tc/Tp, advance jitter Tr/Tp, horizon in
            // rounds. Bounds keep the mean-field time resolvable within
            // the horizon band (censoring handles the slow corner).
            spec.n = spec.n.clamp(4, 8);
            spec.tp_ms = clamp(spec.tp_ms, 2_000, 20_000);
            spec.tc_ms = clamp(spec.tc_ms, 50, spec.tp_ms / 4);
            spec.tr_ms = if spec.tr_ms == 0 {
                0
            } else {
                // A jittered case needs enough jitter to matter.
                clamp(spec.tr_ms, spec.tp_ms / 10, spec.tp_ms)
            };
            spec.horizon_s = clamp(spec.horizon_s, 400, 2_000);
            spec.depth = spec.depth.min(4);
        }
        Oracle::TwoTypeTransition => {
            // Round-based: drift δ = Tc/Tp with unit jump, horizon in
            // rounds; Tr > 0 selects the Bernoulli (jittered) schedule
            // for the supercritical leg. δ ≤ 1/8 keeps the whole
            // internal p-grid (up to 4·p_c) inside [0, 1].
            spec.n = spec.n.clamp(2, 8);
            spec.tp_ms = clamp(spec.tp_ms, 2_000, 10_000);
            spec.tc_ms = clamp(spec.tc_ms, 50, spec.tp_ms / 8);
            spec.tr_ms = clamp(spec.tr_ms, 0, spec.tp_ms);
            spec.horizon_s = clamp(spec.horizon_s, 5_000, 20_000);
        }
        Oracle::PulseConvergence => {
            // Round-based: drift ρ = Tr/1000 per round, horizon in
            // rounds (≥ 24 so the ε = 0.01 convergence bound of a
            // diameter-100 start always fits). Router windows become
            // Byzantine equivocators, capped at the protocol's
            // resilience limit n > 3f.
            spec.n = spec.n.clamp(4, 10);
            spec.tr_ms = clamp(spec.tr_ms, 0, 2_000);
            spec.horizon_s = clamp(spec.horizon_s, 24, 96);
            spec.faults
                .retain(|op| matches!(op, FaultOp::Router { .. }));
            sanitize_faults(spec);
            let max_f = (spec.n - 1) / 3;
            spec.faults.truncate(max_f.min(2));
        }
        _ => {
            spec.n = spec.n.clamp(2, 10);
            spec.tr_ms = clamp(spec.tr_ms, 0, spec.tp_ms / 2);
            let mut floor = 20 * tp_s;
            if spec.oracle == Oracle::EngineEquivalence {
                floor = floor.max(oracles::equivalence_min_horizon_s(spec));
            }
            spec.horizon_s = clamp(spec.horizon_s, floor, 400 * tp_s);
        }
    }
}

/// Whether `spec` lies in its oracle's domain: the specs [`sanitize`]
/// leaves unchanged. This is the one statement of where each oracle
/// applies; the shrinker tries no candidate outside it and
/// [`oracles::check`] refuses to run one.
pub fn in_domain(spec: &CaseSpec) -> bool {
    let mut inside = spec.clone();
    sanitize(&mut inside);
    inside == *spec
}

/// Keep at most two fault ops, with distinct targets, each fully inside
/// the horizon (down strictly before up, up strictly before the end).
fn sanitize_faults(spec: &mut CaseSpec) {
    let horizon = spec.horizon_s;
    let n = spec.n;
    let mut seen: BTreeSet<(bool, usize)> = BTreeSet::new();
    let mut kept = Vec::new();
    for op in spec.faults.iter().copied() {
        if kept.len() == 2 {
            break;
        }
        let fixed = match op {
            FaultOp::Link { down_s, up_s, .. } => {
                // The LAN has exactly one link (id 0).
                let down = clamp(down_s, 1, horizon.saturating_sub(3));
                FaultOp::Link {
                    link: 0,
                    down_s: down,
                    up_s: clamp(up_s, down + 1, horizon - 1),
                }
            }
            FaultOp::Router { node, down_s, up_s } => {
                let down = clamp(down_s, 1, horizon.saturating_sub(3));
                FaultOp::Router {
                    node: node % n,
                    down_s: down,
                    up_s: clamp(up_s, down + 1, horizon - 1),
                }
            }
        };
        let target = match fixed {
            FaultOp::Link { link, .. } => (true, link),
            FaultOp::Router { node, .. } => (false, node),
        };
        if seen.insert(target) {
            kept.push(fixed);
        }
    }
    spec.faults = kept;
}

/// Derive one mutated child from a corpus entry. The child still needs
/// [`sanitize`].
pub fn mutate(parent: &CaseSpec, rng: &mut SplitMix64) -> CaseSpec {
    let mut spec = parent.clone();
    // One to three independent tweaks per child.
    let tweaks = 1 + (rng.next_u64_raw() % 3) as usize;
    for _ in 0..tweaks {
        match rng.next_u64_raw() % 13 {
            0 => spec.n = spec.n.saturating_add(1),
            1 => spec.n = spec.n.saturating_sub(1).max(1),
            2 => spec.tp_ms = spec.tp_ms.saturating_mul(2),
            3 => spec.tp_ms = (spec.tp_ms / 2).max(1),
            4 => spec.tc_ms = spec.tc_ms.saturating_add(37),
            5 => spec.tr_ms = spec.tr_ms.saturating_mul(2).max(1),
            6 => spec.tr_ms /= 2,
            7 => spec.sync_start = !spec.sync_start,
            8 => spec.horizon_s = (spec.horizon_s / 2).max(1),
            9 => spec.batch_width = spec.batch_width.saturating_mul(2),
            10 => spec.batch_width = (spec.batch_width / 2).max(1),
            11 => spec.depth = (spec.depth + 1) % 5,
            _ => {
                if is_lan_oracle(spec.oracle) || spec.oracle == Oracle::PulseConvergence {
                    mutate_faults(&mut spec, rng);
                } else {
                    spec.horizon_s = spec.horizon_s.saturating_mul(2);
                }
            }
        }
    }
    // Occasionally re-aim the spec at a different oracle entirely; the
    // sanitize pass pulls the parameters into the new domain.
    if rng.next_u64_raw().is_multiple_of(8) {
        let i = (rng.next_u64_raw() % Oracle::ALL.len() as u64) as usize;
        spec.oracle = Oracle::ALL[i];
    }
    spec
}

fn mutate_faults(spec: &mut CaseSpec, rng: &mut SplitMix64) {
    let roll = rng.next_u64_raw() % 3;
    if roll == 0 && !spec.faults.is_empty() {
        let i = (rng.next_u64_raw() as usize) % spec.faults.len();
        spec.faults.remove(i);
        return;
    }
    let down_s = 1 + rng.next_u64_raw() % spec.horizon_s.max(2);
    let up_s = down_s + 1 + rng.next_u64_raw() % 300;
    let op = if rng.next_u64_raw().is_multiple_of(2) {
        FaultOp::Router {
            node: (rng.next_u64_raw() as usize) % spec.n.max(1),
            down_s,
            up_s,
        }
    } else {
        FaultOp::Link {
            link: 0,
            down_s,
            up_s,
        }
    };
    spec.faults.push(op);
}

/// Run one case under a fresh case-local obs collector; returns the
/// oracle verdict, the case's deterministic coverage features, and its
/// deterministic step count ([`coverage::deterministic_steps`]). The
/// collector is [`routesync_obs::scoped`] to this thread (and the
/// ensemble workers the oracle fans out to), so concurrent installs and
/// other threads' recording cannot leak into the coverage.
pub fn run_case(
    spec: &CaseSpec,
    seed: u64,
    defect: Option<Defect>,
) -> (Result<(), String>, BTreeSet<String>, u64) {
    let case = routesync_obs::Collector::enabled();
    let result = {
        let _scope = routesync_obs::scoped(case.clone());
        oracles::check(spec, seed, defect)
    };
    let snap = case.snapshot();
    (
        result,
        coverage::features_of(&snap),
        coverage::deterministic_steps(&snap),
    )
}

/// What one case produced, as cached in the checkpoint: enough to replay
/// the run's corpus evolution and report without re-running the oracle.
enum CaseVerdict {
    Pass(BTreeSet<String>),
    Fail(BTreeSet<String>, Reproducer),
    /// Rendered one-line JSON quarantine record.
    Quarantined(String),
}

/// Field separator inside a checkpoint record value (the checkpoint
/// framing is length-prefixed, so any byte is safe; `\x1e` cannot appear
/// in feature names or JSON lines).
const SEP: char = '\x1e';

fn encode_verdict(v: &CaseVerdict) -> String {
    let join = |feats: &BTreeSet<String>| feats.iter().cloned().collect::<Vec<_>>().join(",");
    match v {
        CaseVerdict::Pass(feats) => format!("p{SEP}{}", join(feats)),
        CaseVerdict::Fail(feats, repro) => format!("f{SEP}{}{SEP}{}", join(feats), repro.to_line()),
        CaseVerdict::Quarantined(line) => format!("q{SEP}{line}"),
    }
}

fn decode_verdict(s: &str) -> std::io::Result<CaseVerdict> {
    let bad = |why: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt conformance checkpoint record: {why}"),
        )
    };
    let feats_of = |s: &str| {
        s.split(',')
            .filter(|f| !f.is_empty())
            .map(str::to_string)
            .collect::<BTreeSet<String>>()
    };
    let mut parts = s.split(SEP);
    let tag = parts.next().ok_or_else(|| bad("empty"))?;
    match tag {
        "p" => Ok(CaseVerdict::Pass(feats_of(
            parts.next().ok_or_else(|| bad("pass without features"))?,
        ))),
        "f" => {
            let feats = feats_of(parts.next().ok_or_else(|| bad("fail without features"))?);
            let line = parts.next().ok_or_else(|| bad("fail without reproducer"))?;
            let repro = Reproducer::from_line(line).map_err(|e| bad(&e))?;
            Ok(CaseVerdict::Fail(feats, repro))
        }
        "q" => Ok(CaseVerdict::Quarantined(
            parts
                .next()
                .ok_or_else(|| bad("quarantine without record"))?
                .to_string(),
        )),
        other => Err(bad(&format!("unknown tag {other:?}"))),
    }
}

/// Run one case under the supervision boundary. A panicking oracle is
/// quarantined with a replayable reproducer; a case whose deterministic
/// step count exceeds `watchdog_steps` is quarantined as a watchdog trip.
fn run_supervised_case(spec: &CaseSpec, seed: u64, cfg: &FuzzConfig) -> CaseVerdict {
    let repro_line = Reproducer {
        seed,
        spec: spec.clone(),
        message: String::new(),
    }
    .to_line();
    let outcome = Ensemble::new(&[()])
        .describe(|_, _| repro_line.clone())
        .run(|| (), |(), _ctx, _, _| run_case(spec, seed, cfg.defect))
        .into_result();
    match outcome.map(|mut single| single.remove(0)) {
        Err(q) => CaseVerdict::Quarantined(q.to_line()),
        Ok((result, feats, steps)) => {
            if let Some(budget) = cfg.watchdog_steps {
                if steps > budget {
                    let q = routesync_exec::Quarantine {
                        index: 0,
                        failure: routesync_exec::RunFailure::Watchdog { steps },
                        reproducer: repro_line,
                    };
                    routesync_obs::global()
                        .counter("exec.supervisor.quarantined")
                        .inc();
                    routesync_obs::global()
                        .counter("exec.supervisor.watchdog_trips")
                        .inc();
                    return CaseVerdict::Quarantined(q.to_line());
                }
            }
            match result {
                Ok(()) => CaseVerdict::Pass(feats),
                Err(message) => {
                    // Shrink under the same boundary: a shrink candidate
                    // that panics does not count as "still failing".
                    let safe_check = |s: &CaseSpec, sd: u64| {
                        Ensemble::new(&[()])
                            .run(|| (), |(), _ctx, _, _| oracles::check(s, sd, cfg.defect))
                            .into_result()
                            .map_or(Ok(()), |mut single| single.remove(0))
                    };
                    let (min_spec, min_msg) = shrink::shrink(spec, seed, message, safe_check);
                    CaseVerdict::Fail(
                        feats,
                        Reproducer {
                            seed,
                            spec: min_spec,
                            message: min_msg,
                        },
                    )
                }
            }
        }
    }
}

/// Run the fuzzer to its budget. See the module docs for the determinism
/// contract. For checkpointed runs use [`fuzz_checkpointed`]; this
/// wrapper panics on checkpoint I/O errors.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    fuzz_checkpointed(cfg).expect("fuzz checkpoint I/O failed")
}

/// Run the fuzzer to its budget, optionally streaming per-case verdicts
/// to `cfg.checkpoint` and replaying any verdicts already recorded there.
///
/// The replay is exact: spec generation consumes the RNG identically
/// whether a case is run or replayed, cached features drive the same
/// corpus evolution, and quarantined cases stay censored — so the final
/// report (and `summary.txt`) is byte-identical to an uninterrupted run.
/// Errors are checkpoint I/O only: `InvalidInput` means the checkpoint
/// belongs to a different run configuration (a usage error),
/// `InvalidData` means CRC-detected corruption.
pub fn fuzz_checkpointed(cfg: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let started = std::time::Instant::now();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut corpus = seed_corpus();
    for spec in &mut corpus {
        sanitize(spec);
    }
    let canned = corpus.len();
    let mut coverage = CoverageMap::new();
    let mut report = FuzzReport {
        cases: 0,
        passes: 0,
        failures: Vec::new(),
        coverage_features: 0,
        corpus_size: 0,
        per_family: BTreeMap::new(),
        truncated: false,
        quarantined: Vec::new(),
        resumed: 0,
        interrupted: false,
    };
    let mut meta = format!(
        "conformance-v1 seed={} cases={} watchdog={:?}",
        cfg.seed, cfg.budget_cases, cfg.watchdog_steps
    );
    if let Some(defect) = cfg.defect {
        meta.push_str(&format!(" defect={defect:?}"));
    }
    let mut ckpt = match &cfg.checkpoint {
        Some(path) => {
            routesync_exec::interrupt::install();
            let (writer, records) = routesync_exec::checkpoint::resume(path, &meta)?;
            Some((writer, records))
        }
        None => None,
    };
    for case_idx in 0..cfg.budget_cases {
        if let Some(budget) = cfg.budget {
            if started.elapsed() >= budget {
                report.truncated = true;
                break;
            }
        }
        let case_seed = rng.next_u64_raw();
        let spec = if case_idx < canned {
            corpus[case_idx].clone()
        } else {
            let i = (rng.next_u64_raw() as usize) % corpus.len();
            let mut child = mutate(&corpus[i], &mut rng);
            sanitize(&mut child);
            child
        };
        let key = case_idx.to_string();
        let cached = ckpt
            .as_ref()
            .and_then(|(_, records)| records.get(&key))
            .map(|value| decode_verdict(value))
            .transpose()?;
        let verdict = match cached {
            Some(v) => {
                report.resumed += 1;
                v
            }
            None => {
                if ckpt.is_some() && routesync_exec::interrupt::interrupted() {
                    report.interrupted = true;
                    break;
                }
                let v = run_supervised_case(&spec, case_seed, cfg);
                if let Some((writer, _)) = &mut ckpt {
                    writer.append(&key, &encode_verdict(&v))?;
                }
                v
            }
        };
        report.cases += 1;
        let stats = report.per_family.entry(spec.oracle.family()).or_default();
        stats.cases += 1;
        match verdict {
            CaseVerdict::Pass(feats) => {
                if coverage.merge(&feats) > 0 && corpus.len() < CORPUS_CAP {
                    corpus.push(spec.clone());
                }
                report.passes += 1;
            }
            CaseVerdict::Fail(feats, repro) => {
                if coverage.merge(&feats) > 0 && corpus.len() < CORPUS_CAP {
                    corpus.push(spec.clone());
                }
                stats.failures += 1;
                report.failures.push(repro);
            }
            CaseVerdict::Quarantined(line) => {
                // Censored: no coverage, no corpus membership. The trip
                // is a pure function of (spec, seed), so the censoring —
                // and everything downstream of it — replays identically.
                report.quarantined.push(line);
            }
        }
    }
    if let Some((writer, _)) = &mut ckpt {
        writer.sync()?;
    }
    if report.resumed > 0 {
        routesync_obs::global()
            .counter("exec.supervisor.resumed_cells")
            .add(report.resumed as u64);
    }
    report.coverage_features = coverage.len();
    report.corpus_size = corpus.len();
    if let Some(dir) = &cfg.out_dir {
        if let Err(e) = report.write_to(dir) {
            eprintln!("conformance: could not write {}: {e}", dir.display());
        }
    }
    Ok(report)
}

/// Replay a reproducer line: run its oracle once, verbatim, with `defect`
/// ([`oracles::check`] refuses a line outside the oracle's domain).
pub fn replay(repro: &Reproducer, defect: Option<Defect>) -> Result<(), String> {
    oracles::check(&repro.spec, repro.seed, defect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_corpus_is_sanitize_stable_and_covers_every_oracle() {
        let corpus = seed_corpus();
        let oracles_hit: BTreeSet<_> = corpus.iter().map(|s| s.oracle).collect();
        assert_eq!(oracles_hit.len(), Oracle::ALL.len());
        for spec in corpus {
            let mut fixed = spec.clone();
            sanitize(&mut fixed);
            assert_eq!(fixed, spec, "canned spec must already be in-domain");
        }
    }

    /// Also the domain's property: every sanitized spec, and every shrink
    /// candidate of it, lies in its oracle's domain. Every oracle is drawn.
    #[test]
    fn sanitize_is_idempotent_under_mutation() {
        let mut rng = SplitMix64::new(99);
        let corpus = seed_corpus();
        let mut drawn = BTreeSet::new();
        for i in 0..1_000 {
            let mut spec = mutate(&corpus[i % corpus.len()], &mut rng);
            sanitize(&mut spec);
            let once = spec.clone();
            sanitize(&mut spec);
            assert_eq!(spec, once);
            assert!(in_domain(&spec), "{spec:?}");
            for cand in shrink::candidates(&spec) {
                assert!(in_domain(&cand), "{cand:?} shrunk from {spec:?}");
            }
            drawn.insert(spec.oracle);
            if is_lan_oracle(spec.oracle) {
                assert!(spec.faults.len() <= 2);
            } else if spec.oracle == Oracle::PulseConvergence {
                // Pulse keeps Router windows, capped under resilience.
                assert!(spec.faults.len() <= (spec.n - 1) / 3);
                assert!(spec
                    .faults
                    .iter()
                    .all(|op| matches!(op, FaultOp::Router { .. })));
            } else {
                assert!(spec.faults.is_empty());
            }
            if spec.oracle != Oracle::CascadeMeanField {
                assert_eq!(spec.depth, 0);
            }
            assert!(spec.tr_ms <= spec.tp_ms);
        }
        assert_eq!(drawn.len(), Oracle::ALL.len());
    }

    /// `--budget-cases 300 --seed 55` drew this case at a 200 s horizon:
    /// a synchronized start with no jitter logs one cluster per round, so
    /// the oracle had 8 entries to compare and refused the case. Sanitize
    /// lifts the horizon to the oracle's own floor, where it passes, and
    /// `check` refuses the spec below it as outside the domain.
    #[test]
    fn engine_equivalence_cases_are_sanitized_into_the_oracle_window() {
        let seed = 15_837_208_377_268_863_519;
        let mut spec = CaseSpec {
            oracle: Oracle::EngineEquivalence,
            n: 5,
            tp_ms: 10_000,
            tc_ms: 110,
            tr_ms: 0,
            sync_start: true,
            horizon_s: 200,
            faults: vec![],
            batch_width: 1,
            depth: 0,
        };
        let refused = oracles::check(&spec, seed, None).expect_err("out of domain");
        assert!(
            refused.starts_with("engine-equivalence refuses a spec outside its domain"),
            "{refused}"
        );
        let too_small = oracles::engine_equivalence(&spec, seed, None).expect_err("no window");
        assert!(too_small.contains("too small"), "{too_small}");
        sanitize(&mut spec);
        assert!(
            refused.ends_with(&serde_json::to_string(&spec).unwrap()),
            "{refused}"
        );
        assert_eq!(spec.horizon_s, oracles::equivalence_min_horizon_s(&spec));
        assert_eq!(oracles::check(&spec, seed, None), Ok(()));
    }

    /// At its floor the oracle gets its window across the sanitized
    /// domain's corners: the fewest and most routers, the shortest and
    /// longest coupling, no jitter and the most, both starts. The oracle
    /// is called directly, so the floor is tested on its own and not
    /// through the domain it feeds.
    #[test]
    fn engine_equivalence_floor_leaves_a_window_at_every_corner() {
        for n in [2, 10] {
            for tc_ms in [10, 500] {
                for tr_ms in [0, 1_000] {
                    for sync_start in [false, true] {
                        let mut spec = CaseSpec {
                            oracle: Oracle::EngineEquivalence,
                            n,
                            tp_ms: 2_000,
                            tc_ms,
                            tr_ms,
                            sync_start,
                            horizon_s: 0,
                            faults: vec![],
                            batch_width: 1,
                            depth: 0,
                        };
                        spec.horizon_s = oracles::equivalence_min_horizon_s(&spec);
                        assert_eq!(
                            oracles::engine_equivalence(&spec, 3, None),
                            Ok(()),
                            "{spec:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let corpus = seed_corpus();
        let run = || {
            let mut rng = SplitMix64::new(7);
            (0..50)
                .map(|i| {
                    let mut s = mutate(&corpus[i % corpus.len()], &mut rng);
                    sanitize(&mut s);
                    s
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
