//! The oracle library: every check the fuzzer can run against a
//! [`CaseSpec`].
//!
//! Each oracle is a pure function of `(spec, seed)` (and of the
//! [`Defect`] its models are built with) returning `Ok(())` or
//! a failure message; nothing here panics on a model discrepancy, so the
//! shrinker can re-run checks freely. Three families (the paper's
//! cross-model claim):
//!
//! * **differential** — the two abstract engines against each other
//!   ([`engine_equivalence`]), and the packet simulator against the
//!   abstract timer rules with forwarding effects disabled
//!   ([`netsim_timing`]);
//! * **analytical** — simulated passage times against the Markov chain's
//!   `f`/`g` closed forms ([`markov_sync`], [`markov_desync`]), with the
//!   generous multiplicative tolerances the paper itself needs (it quotes
//!   a 2-3× systematic gap; see `EXPERIMENTS.md`), plus the
//!   related-literature phenomena against their own closed forms:
//!   cascade rollback vs the Manita–Simonot pure-birth mean field
//!   ([`cascade_mean_field`]), the two-type clock lag vs the
//!   Malyshev–Manita critical exchange rate ([`two_type_transition`]),
//!   and Byzantine pulse synchronization vs the halving convergence
//!   bound ([`pulse_convergence`]);
//! * **metamorphic** — invariances that need no reference value at all:
//!   thread-count invariance ([`thread_invariance`]), start-time
//!   translation ([`translation`]), monotonicity in `Tr`
//!   ([`tr_monotonicity`]), and empty-fault-plan equivalence
//!   ([`empty_fault_plan`]).

use routesync_core::{
    experiment, ClusterLog, FastModel, FirstPassageDown, FirstPassageUp, NodeId, PeriodicModel,
    SendTrace, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_markov::PeriodicChain;
use routesync_netsim::scenario::largest_cluster_series;
use routesync_netsim::FaultPlan;
use routesync_rng::SplitMix64;

use crate::spec::{CaseSpec, Defect, Oracle};

/// The update period (seconds) of the packet-level LAN scenario — fixed
/// by `ScenarioSpec::lan` (DECnet-style 120 s updates).
pub const LAN_TP_S: f64 = 120.0;

/// Ensemble worker threads for the analytical/metamorphic oracles.
/// Results are bit-identical at any thread count (that *is* one of the
/// oracles), so this only affects wall time.
const ENSEMBLE_THREADS: usize = 4;

/// Analysis/simulation multiplicative tolerance band for the Markov
/// oracles. The paper reports a 2-3× systematic over-prediction; our
/// faithful evaluation of its recursion lands higher still (8-20× at the
/// reference point, see `fig10`), and censoring at the fuzzer's bounded
/// horizons biases the simulated mean low, so the band is wide. The band
/// is a conformance *envelope*: a real model defect (wrong drift sign,
/// broken coupling) lands orders of magnitude outside it.
const MARKOV_RATIO_BAND: (f64, f64) = (0.02, 60.0);

/// Dispatch a spec to its oracle, building its models with `defect`.
pub fn check(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    match spec.oracle {
        Oracle::EngineEquivalence => engine_equivalence(spec, seed, defect),
        Oracle::NetsimTiming => netsim_timing(spec, seed),
        Oracle::MarkovSync => markov_sync(spec, seed, defect),
        Oracle::MarkovDesync => markov_desync(spec, seed, defect),
        Oracle::CascadeMeanField => cascade_mean_field(spec, seed, defect),
        Oracle::TwoTypeTransition => two_type_transition(spec, seed, defect),
        Oracle::PulseConvergence => pulse_convergence(spec, seed, defect),
        Oracle::ThreadInvariance => thread_invariance(spec, seed, defect),
        Oracle::Translation => translation(spec, seed, defect),
        Oracle::TrMonotonicity => tr_monotonicity(spec, seed, defect),
        Oracle::EmptyFaultPlan => empty_fault_plan(spec, seed),
    }
}

/// Domain separator so ensemble seeds never collide with the raw case
/// seed stream the fuzzer draws specs from.
const SEED_DOMAIN: u64 = 0x5EED_0FC0_DE00;

/// Derive `k` independent ensemble seeds from a case seed.
pub fn derive_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut mix = SplitMix64::new(seed ^ SEED_DOMAIN);
    (0..k).map(|_| mix.next_u64_raw()).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

// ---------------------------------------------------------------------
// Differential
// ---------------------------------------------------------------------

/// Cluster-log entries [`engine_equivalence`] must compare; a shorter
/// window is refused as too small to be meaningful.
const EQUIVALENCE_MIN_WINDOW: usize = 11;

/// The entries [`engine_equivalence`] compares out of two logs of `a` and
/// `b` entries: the shorter one, less the horizon-boundary tail of `2N`.
fn equivalence_window(a: usize, b: usize, n: usize) -> usize {
    a.min(b).saturating_sub(2 * n)
}

/// The shortest horizon, in whole seconds, at which [`engine_equivalence`]
/// is sure to get its window. Every round logs at least one cluster, even
/// with all routers synchronized and no jitter, and a round lasts at most
/// `Tp + Tr + N·Tc` (a full cluster's processing, then the longest timer
/// draw). One more round covers a burst the horizon cuts. The fuzzer's and
/// the shrinker's horizon floors for the oracle are this function.
pub fn equivalence_min_horizon_s(spec: &CaseSpec) -> u64 {
    let n = spec.n;
    let rounds = (1..)
        .find(|&r| equivalence_window(r, r, n) >= EQUIVALENCE_MIN_WINDOW)
        .expect("the window grows with the rounds")
        + 1;
    let round_ms = spec.tp_ms + spec.tr_ms + n as u64 * spec.tc_ms;
    (rounds as u64 * round_ms).div_ceil(1_000)
}

/// FastModel and PeriodicModel must produce identical send logs and
/// cluster trajectories, up to same-instant tie order (canonicalized by
/// sorting within equal timestamps) and a horizon-boundary tail of `2N`
/// entries (the fast engine completes a burst the event engine may leave
/// half-finished at the horizon).
pub fn engine_equivalence(
    spec: &CaseSpec,
    seed: u64,
    defect: Option<Defect>,
) -> Result<(), String> {
    let p = spec.params_with(defect);
    let horizon = spec.horizon();
    let mut slow = PeriodicModel::new(p, spec.start(), seed);
    let mut slow_rec = (SendTrace::new(), ClusterLog::new());
    slow.run(horizon, &mut slow_rec);
    let mut fast = FastModel::new(p, spec.start(), seed);
    let mut fast_rec = (SendTrace::new(), ClusterLog::new());
    fast.run(horizon, &mut fast_rec);

    let canonical = |sends: &[(SimTime, NodeId)]| {
        let mut v = sends.to_vec();
        v.sort_by_key(|&(t, id)| (t, id));
        v
    };
    let sends_slow = canonical(slow_rec.0.sends());
    let sends_fast = canonical(fast_rec.0.sends());
    let keep = equivalence_window(sends_slow.len(), sends_fast.len(), p.n);
    if sends_slow[..keep] != sends_fast[..keep] {
        let at = sends_slow[..keep]
            .iter()
            .zip(&sends_fast[..keep])
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "send logs diverge at entry {at}: event={:?} fast={:?}",
            sends_slow.get(at),
            sends_fast.get(at)
        ));
    }
    let cl_slow: Vec<(SimTime, u32)> = slow_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
    let cl_fast: Vec<(SimTime, u32)> = fast_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
    let keep = equivalence_window(cl_slow.len(), cl_fast.len(), p.n);
    if cl_slow[..keep] != cl_fast[..keep] {
        let at = cl_slow[..keep]
            .iter()
            .zip(&cl_fast[..keep])
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "cluster logs diverge at entry {at}: event={:?} fast={:?}",
            cl_slow.get(at),
            cl_fast.get(at)
        ));
    }
    if keep < EQUIVALENCE_MIN_WINDOW {
        return Err(format!(
            "equivalence window too small to be meaningful ({keep} entries)"
        ));
    }

    // Batched leg: a block runs its cells through one reused FastModel
    // and claims *exact* trace identity with it (same burst order, same
    // tie order, no tail slack), so cell 0 of a width-`batch_width` block
    // must reproduce `fast_rec` byte for byte — with the other cells
    // run through the same model after it, so state leaking from one
    // cell into the next shows up below.
    let width = spec.batch_width.max(1);
    let mut seeds = vec![seed];
    seeds.extend(derive_seeds(seed, width - 1));
    let mut block = routesync_core::BatchedEnsemble::new(p, width);
    block.reset(&spec.start(), &seeds);
    let mut recs: Vec<(SendTrace, ClusterLog)> = seeds
        .iter()
        .map(|_| (SendTrace::new(), ClusterLog::new()))
        .collect();
    block.run(horizon, &mut recs);
    if recs[0].0.sends() != fast_rec.0.sends() {
        let at = recs[0]
            .0
            .sends()
            .iter()
            .zip(fast_rec.0.sends())
            .position(|(a, b)| a != b)
            .unwrap_or(recs[0].0.sends().len().min(fast_rec.0.sends().len()));
        return Err(format!(
            "batched send log diverges from fast at entry {at} (width {width}): \
             batched={:?} fast={:?}",
            recs[0].0.sends().get(at),
            fast_rec.0.sends().get(at)
        ));
    }
    if recs[0].1.groups() != fast_rec.1.groups() {
        return Err(format!(
            "batched cluster log diverges from fast (width {width})"
        ));
    }
    if width > 1 {
        // The last cell must match a fresh scalar run of its own seed:
        // no state may leak between cells sharing a block.
        let last_seed = seeds[width - 1];
        let mut lone = FastModel::new(p, spec.start(), last_seed);
        let mut lone_rec = (SendTrace::new(), ClusterLog::new());
        lone.run(horizon, &mut lone_rec);
        if recs[width - 1].0.sends() != lone_rec.0.sends()
            || recs[width - 1].1.groups() != lone_rec.1.groups()
        {
            return Err(format!(
                "batched cell {} (seed {last_seed}) diverges from a fresh \
                 scalar run: cross-cell contamination",
                width - 1
            ));
        }
    }
    Ok(())
}

/// With forwarding effects disabled, the packet simulator's update timing
/// must obey the abstract model's timer rules: per-router update
/// intervals inside the jitter envelope (plus bounded processing skew),
/// full-cluster persistence at zero jitter from a synchronized start,
/// no full-sync lock-in at large jitter from a random start, byte-identical
/// rebuilds, and one fault record per scheduled fault action.
pub fn netsim_timing(spec: &CaseSpec, seed: u64) -> Result<(), String> {
    let horizon = spec.horizon();
    let mut scen = spec.build_lan(seed);
    scen.sim.run_until(horizon);

    // Determinism: the same (spec, seed) must rebuild bit-identically.
    let mut again = spec.build_lan(seed);
    again.sim.run_until(horizon);
    if scen.sim.update_log() != again.sim.update_log()
        || scen.sim.reset_log() != again.sim.reset_log()
        || scen.sim.counters() != again.sim.counters()
    {
        return Err("rebuilding the same (spec, seed) diverged".into());
    }

    let tr = spec.tr_ms as f64 / 1e3;
    let n = spec.n;

    if spec.faults.is_empty() {
        // Timer-rule envelope: between consecutive updates of one router
        // lies one jittered interval plus processing skew. Each update
        // costs ~(pad + n) routes × 1 ms to process and a burst makes a
        // router chew through up to n of them, so allow n × 0.3 s skew.
        let skew = 0.3 * n as f64 + 1.0;
        let (lo, hi) = (LAN_TP_S - tr - skew, LAN_TP_S + tr + skew);
        let mut last: Vec<Option<SimTime>> = vec![None; n];
        for &(t, node) in scen.sim.update_log() {
            if let Some(prev) = last[node] {
                let gap = t.since(prev).as_secs_f64();
                if gap < lo || gap > hi {
                    return Err(format!(
                        "router {node} update interval {gap:.2} s outside [{lo:.2}, {hi:.2}] \
                         (Tp=120, Tr={tr}, N={n})"
                    ));
                }
            }
            last[node] = Some(t);
        }
    }

    let series = largest_cluster_series(
        scen.sim.reset_log(),
        Duration::from_secs(10),
        Duration::from_secs_f64(LAN_TP_S),
    );
    if spec.faults.is_empty() && spec.tr_ms == 0 && spec.sync_start {
        // Zero jitter, synchronized start: the full cluster can never shed
        // a member — every period's largest reset cluster is all N.
        if series.len() < 3 {
            return Err(format!("too few periods observed ({})", series.len()));
        }
        if let Some(&(bucket, size)) = series.iter().find(|&&(_, s)| s != n) {
            return Err(format!(
                "zero-jitter synchronized LAN shed members: largest cluster {size} != {n} \
                 in period bucket {bucket}"
            ));
        }
    }
    if spec.faults.is_empty() && spec.tr_ms >= 3_000 && !spec.sync_start && n >= 4 {
        // Large jitter, random start, short horizon: the network must not
        // spend essentially the whole run fully synchronized.
        let full = series.iter().filter(|&&(_, s)| s == n).count();
        if series.len() >= 5 && full * 10 > series.len() * 9 {
            return Err(format!(
                "large-jitter LAN locked into full synchronization \
                 ({full}/{} periods at cluster size {n})",
                series.len()
            ));
        }
    }

    // Every scheduled fault action (down + up per op) must leave a record.
    let expected = 2 * spec.faults.len();
    if scen.sim.fault_log().len() != expected {
        return Err(format!(
            "fault plan scheduled {expected} actions but {} were recorded",
            scen.sim.fault_log().len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Analytical
// ---------------------------------------------------------------------

/// Simulated mean time to full synchronization vs the chain's `f(N)`,
/// with `f(2)` calibrated from the same runs (the paper leaves it free).
pub fn markov_sync(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    let p = spec.params_with(defect);
    let n = p.n;
    let chain = PeriodicChain::new(spec.chain_params());
    let secs_per_round = spec.chain_params().seconds_per_round();
    let horizon = spec.horizon_s as f64;
    let seeds = derive_seeds(seed, 12);
    let results = experiment::run_many(
        p,
        StartState::Unsynchronized,
        &seeds,
        ENSEMBLE_THREADS,
        |m, _| {
            let mut fp = FirstPassageUp::new(n);
            m.run(SimTime::from_secs_f64(horizon), &mut fp);
            (
                fp.first(2).map(|(t, _)| t.as_secs_f64()),
                fp.first(n).map(|(t, _)| t.as_secs_f64()),
            )
        },
    );
    // A run that never forms a pair only says f(2) ≥ horizon; count it
    // at that censored lower bound instead of dropping it. Calibrating
    // from the uncensored runs alone is survivorship bias — the lucky
    // early pairings drag f(2) far below its true mean in weak-drift
    // regimes, and the chain then "predicts" synchronization speeds the
    // calibration data never supported.
    let pair_times: Vec<f64> = results.iter().map(|r| r.0.unwrap_or(horizon)).collect();
    let f2_sim = mean(&pair_times) / secs_per_round;
    let sync_times: Vec<f64> = results.iter().filter_map(|r| r.1).collect();
    let ana = chain.f_n(f2_sim) * secs_per_round;
    if sync_times.len() * 2 < seeds.len() {
        // Mostly censored runs are consistent with the analysis iff the
        // analysis itself puts f(N) at or beyond the horizon's scale —
        // the far side of the phase transition, where neither model
        // expects synchronization in bounded time.
        if ana > horizon / 2.0 {
            return Ok(());
        }
        return Err(format!(
            "chain predicts f(N) = {ana:.3e} s but only {}/{} runs synchronized \
             within {horizon} s",
            sync_times.len(),
            seeds.len()
        ));
    }
    let sim = mean(&sync_times);
    let ratio = ana / sim;
    if !ratio.is_finite() || ratio < MARKOV_RATIO_BAND.0 || ratio > MARKOV_RATIO_BAND.1 {
        return Err(format!(
            "f(N) analysis/simulation ratio {ratio:.3} outside \
             [{}, {}] (analysis {ana:.3e} s, simulated {sim:.3e} s, f2={f2_sim:.1})",
            MARKOV_RATIO_BAND.0, MARKOV_RATIO_BAND.1
        ));
    }
    Ok(())
}

/// Simulated mean time to full break-up (from a synchronized start) vs
/// the chain's `g(1)`.
pub fn markov_desync(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    let p = spec.params_with(defect);
    let n = p.n;
    let chain = PeriodicChain::new(spec.chain_params());
    let secs_per_round = spec.chain_params().seconds_per_round();
    let horizon = spec.horizon_s as f64;
    let seeds = derive_seeds(seed, 12);
    let results = experiment::run_many(
        p,
        StartState::Synchronized,
        &seeds,
        ENSEMBLE_THREADS,
        |m, _| {
            let mut fp = FirstPassageDown::new(n, 1);
            m.run(SimTime::from_secs_f64(horizon), &mut fp);
            fp.first(1).map(|(t, _)| t.as_secs_f64())
        },
    );
    let times: Vec<f64> = results.iter().copied().flatten().collect();
    let ana = chain.g_1() * secs_per_round;
    if times.len() * 2 < seeds.len() {
        // Same censoring rule as `markov_sync`: staying synchronized past
        // the horizon is consistent iff the analysis puts g(1) there too
        // (the synchronization side of the transition).
        if ana > horizon / 2.0 {
            return Ok(());
        }
        return Err(format!(
            "chain predicts g(1) = {ana:.3e} s but only {}/{} runs desynchronized \
             within {horizon} s",
            times.len(),
            seeds.len()
        ));
    }
    let sim = mean(&times);
    let ratio = ana / sim;
    if !ratio.is_finite() || ratio < MARKOV_RATIO_BAND.0 || ratio > MARKOV_RATIO_BAND.1 {
        return Err(format!(
            "g(1) analysis/simulation ratio {ratio:.3} outside \
             [{}, {}] (analysis {ana:.3e} s, simulated {sim:.3e} s)",
            MARKOV_RATIO_BAND.0, MARKOV_RATIO_BAND.1
        ));
    }
    Ok(())
}

/// Analysis/simulation band for the cascade mean-field time. The
/// pure-birth form ignores anti-message cascades and off-cohort merges
/// (both accelerate synchronization), so the band is generous on both
/// sides; a broken rollback lands far outside it or trips the exact GVT
/// invariant first.
const CASCADE_RATIO_BAND: (f64, f64) = (0.05, 30.0);

/// Cascade-rollback oracle (arXiv math/0508533). Reads the spec as a
/// round-based model: send probability `q = Tc/Tp`, advance jitter
/// `Tr/Tp`, `horizon_s` as rounds, `depth` as the anti-message reach.
///
/// Exact legs (every run): without jitter the GVT advances exactly one
/// unit per round; with jitter at least one. Statistical leg
/// (deterministic schedule only): the ensemble mean sync round sits in a
/// band of the Manita–Simonot pure-birth mean-field time, with the same
/// censoring rule as the Markov oracles.
#[cfg_attr(not(feature = "inject"), allow(unused_variables))]
pub fn cascade_mean_field(
    spec: &CaseSpec,
    seed: u64,
    defect: Option<Defect>,
) -> Result<(), String> {
    let n = spec.n;
    let q = (spec.tc_ms.max(1) as f64 / spec.tp_ms.max(1) as f64).min(1.0);
    let jitter = (spec.tr_ms as f64 / spec.tp_ms.max(1) as f64).min(1.0);
    let rounds = spec.horizon_s;
    let params = routesync_phenomena::CascadeParams {
        n,
        send_prob: q,
        depth: spec.depth,
        advance_jitter: jitter,
        initial_spread: n as u64,
    };
    let seeds = derive_seeds(seed, 12);
    let mut sync_rounds: Vec<f64> = Vec::new();
    let mut censored = 0usize;
    for &s in &seeds {
        let mut rng = SplitMix64::new(s);
        let mut sim = routesync_phenomena::CascadeSim::new(params, &mut rng);
        #[cfg(feature = "inject")]
        {
            sim.rollback_off_by_one = defect == Some(Defect::RollbackOffByOne);
        }
        let r = sim.run(rounds, &mut rng);
        let gvt_gain = r.gvt_final - r.gvt_initial;
        if jitter == 0.0 && gvt_gain != rounds as i64 {
            return Err(format!(
                "deterministic GVT advanced {gvt_gain} units in {rounds} rounds \
                 (must be exactly {rounds}): rollback dragged below the minimum"
            ));
        }
        if gvt_gain < rounds as i64 {
            return Err(format!(
                "GVT advanced {gvt_gain} units in {rounds} rounds (must be >= {rounds})"
            ));
        }
        if jitter == 0.0 {
            match r.sync_round {
                Some(sr) => {
                    sync_rounds.push(sr as f64);
                    if r.final_spread != 0 {
                        return Err(format!(
                            "deterministic lock-step broke after sync round {sr}: \
                             final spread {}",
                            r.final_spread
                        ));
                    }
                }
                None => censored += 1,
            }
        }
    }
    if jitter > 0.0 {
        return Ok(()); // jittered leg is the exact GVT check only
    }
    let ana = routesync_markov::cascade_sync_rounds(n, q);
    if censored * 2 > seeds.len() {
        // Same censoring rule as the Markov oracles: mostly-censored runs
        // are consistent iff the mean field itself points past the
        // horizon's scale.
        if ana > rounds as f64 / 2.0 {
            return Ok(());
        }
        return Err(format!(
            "mean field predicts sync in {ana:.1} rounds but {censored}/{} runs \
             never locked within {rounds}",
            seeds.len()
        ));
    }
    let sim = mean(&sync_rounds);
    let ratio = ana / sim.max(1.0);
    if !ratio.is_finite() || ratio < CASCADE_RATIO_BAND.0 || ratio > CASCADE_RATIO_BAND.1 {
        return Err(format!(
            "cascade mean-field/simulation ratio {ratio:.3} outside [{}, {}] \
             (mean field {ana:.1} rounds, simulated {sim:.1})",
            CASCADE_RATIO_BAND.0, CASCADE_RATIO_BAND.1
        ));
    }
    Ok(())
}

/// Two-type clock oracle (arXiv 1201.3550). Reads the spec as drift
/// `δ = Tc/Tp` per round with unit jump, `horizon_s` as rounds, and
/// sweeps an internal exchange-rate grid across the critical rate
/// `p_c = δ/J`:
///
/// * subcritical (`p = p_c/4, p_c/2`, deterministic periodic): the
///   measured second-half lag growth must be within 2× of the
///   Malyshev–Manita rate `δ − p·J`;
/// * supercritical (`p = 2·p_c, 4·p_c`): the lag must stay bounded —
///   closed-form ripple bound for the periodic schedule, a generous
///   tail-safe bound for the Bernoulli (`Tr > 0`) schedule;
/// * every run, both phases: the lag never goes negative (jumps are
///   clamped), the oracle's exact leg.
#[cfg_attr(not(feature = "inject"), allow(unused_variables))]
pub fn two_type_transition(
    spec: &CaseSpec,
    seed: u64,
    defect: Option<Defect>,
) -> Result<(), String> {
    use routesync_phenomena::{ExchangeSchedule, TwoTypeParams, TwoTypeSim};
    let delta = spec.tc_ms.max(1) as f64 / spec.tp_ms.max(1) as f64;
    let jump = 1.0;
    let d0 = 1.0;
    let rounds = spec.horizon_s.max(1);
    let p_crit = routesync_markov::two_type_critical_rate(delta, jump);
    let run = |schedule: ExchangeSchedule, s: u64| {
        let params = TwoTypeParams {
            drift: delta,
            jump,
            schedule,
            initial_lag: d0,
        };
        let mut rng = SplitMix64::new(s);
        let mut sim = TwoTypeSim::new(params);
        #[cfg(feature = "inject")]
        {
            sim.unclamped_jump = defect == Some(Defect::UnclampedJump);
        }
        sim.run(rounds, &mut rng)
    };
    let non_negative = |r: &routesync_phenomena::TwoTypeReport, leg: &str| {
        if r.min_lag < -1e-9 {
            return Err(format!(
                "{leg}: lag went negative ({:.3e}) — catch-up jump overshot the \
                 fast clock",
                r.min_lag
            ));
        }
        Ok(())
    };
    // Subcritical: desynchronized phase, measured growth vs closed form.
    for factor in [4u64, 2] {
        let every = ((factor as f64) / p_crit).round().max(2.0) as u64;
        let r = run(ExchangeSchedule::Periodic { every }, seed);
        non_negative(&r, "subcritical periodic")?;
        let predicted = routesync_markov::two_type_growth_rate(delta, 1.0 / every as f64, jump);
        if predicted <= 0.0 {
            continue; // rounding pushed the grid point onto the transition
        }
        let ratio = r.growth_rate / predicted;
        if !(0.5..=2.0).contains(&ratio) {
            return Err(format!(
                "subcritical (every {every} rounds) lag growth {:.3e}/round vs \
                 predicted {predicted:.3e} (ratio {ratio:.3} outside [0.5, 2])",
                r.growth_rate
            ));
        }
    }
    // Supercritical: synchronized phase, bounded lag.
    let seeds = derive_seeds(seed, 4);
    for factor in [2u64, 4] {
        let p = (factor as f64 * p_crit).min(1.0);
        if spec.tr_ms > 0 {
            let bound = d0 + delta * (40.0 / p) + jump;
            for &s in &seeds {
                let r = run(ExchangeSchedule::Bernoulli { p }, s);
                non_negative(&r, "supercritical bernoulli")?;
                if !r.is_synchronized(bound) {
                    return Err(format!(
                        "supercritical Bernoulli (p = {p:.4}) lag reached {:.3} \
                         (tail-safe bound {bound:.3})",
                        r.max_lag
                    ));
                }
            }
        } else {
            let every = (1.0 / p).round().max(1.0) as u64;
            let r = run(ExchangeSchedule::Periodic { every }, seed);
            non_negative(&r, "supercritical periodic")?;
            let bound = d0 + delta * every as f64 + 1e-9;
            if !r.is_synchronized(bound) {
                return Err(format!(
                    "supercritical periodic (every {every}) lag reached {:.3} \
                     (ripple bound {bound:.3})",
                    r.max_lag
                ));
            }
        }
    }
    Ok(())
}

/// Pulse-synchronization oracle (Yu et al.). Reads the spec's `Router`
/// fault windows as Byzantine equivocation windows (seconds as rounds),
/// drift jitter `ρ = Tr/1000` per round, `horizon_s` as rounds.
///
/// Exact leg (every run): the post-jitter phase diameter at least halves
/// across every exchange, Byzantine lies notwithstanding. Convergence
/// leg: without drift the diameter reaches ε = 0.01 within the
/// `ceil(log2(d0/ε))` bound; with drift it settles under the `4ρ` floor
/// envelope. Returns `Ok` untested when the spec violates `n > 3f` — the
/// protocol promises nothing there, and the shrinker must not be able to
/// manufacture a "failure" by shrinking into the invalid domain.
#[cfg_attr(not(feature = "inject"), allow(unused_variables))]
pub fn pulse_convergence(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    use crate::spec::FaultOp;
    use routesync_phenomena::{ByzantineWindow, PulseParams, PulseSim};
    let n = spec.n;
    let rounds = spec.horizon_s.max(1);
    let byzantine: Vec<ByzantineWindow> = spec
        .faults
        .iter()
        .filter_map(|op| match *op {
            FaultOp::Router { node, down_s, up_s } if node < n && down_s < up_s => {
                Some(ByzantineWindow {
                    node,
                    down_round: down_s,
                    up_round: up_s,
                })
            }
            _ => None,
        })
        .collect();
    let params = PulseParams {
        n,
        byzantine,
        drift: spec.tr_ms as f64 / 1e3,
        initial_spread: 100.0,
    };
    let f = params.fault_count();
    if n < 2 || n <= 3 * f {
        return Ok(()); // outside the protocol's resilience domain
    }
    let epsilon = 0.01;
    let rho = params.drift;
    let seeds = derive_seeds(seed, 6);
    for &s in &seeds {
        let mut rng = SplitMix64::new(s);
        let mut sim = PulseSim::new(params.clone(), &mut rng);
        #[cfg(feature = "inject")]
        {
            sim.trim_short = defect == Some(Defect::TrimShort);
        }
        let r = sim.run(rounds, &mut rng);
        if r.max_halving_excess > 1e-9 {
            return Err(format!(
                "a round failed to halve the phase diameter (excess {:.3e}; \
                 n={n}, f={f}, rho={rho})",
                r.max_halving_excess
            ));
        }
        let bound = routesync_markov::pulse_convergence_bound(r.initial_diameter, epsilon);
        if rho == 0.0 {
            if bound < rounds && !r.is_synchronized(epsilon) {
                return Err(format!(
                    "deterministic pulse failed to converge: diameter {:.3e} after \
                     {rounds} rounds (bound {bound} + 1)",
                    r.final_diameter
                ));
            }
        } else if bound < rounds && !r.is_synchronized(4.0 * rho + epsilon) {
            return Err(format!(
                "drifting pulse exceeded its floor envelope: diameter {:.3e} after \
                 {rounds} rounds (4·rho + eps = {:.3e})",
                r.final_diameter,
                4.0 * rho + epsilon
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Metamorphic
// ---------------------------------------------------------------------

/// One run's fingerprint: total sends plus a fold over the cluster log.
fn fingerprint(m: &mut FastModel, horizon: SimTime) -> (u64, u64) {
    let mut log = ClusterLog::new();
    m.run(horizon, &mut log);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for g in log.groups() {
        h = h
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(g.0.as_nanos())
            .rotate_left(7)
            ^ u64::from(g.2);
    }
    (m.sends(), h)
}

/// Ensemble results must be bit-identical at 1, 2 and 4 worker threads
/// (and therefore under per-worker model reuse), and distinct seeds must
/// produce distinct trajectories.
pub fn thread_invariance(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    let p = spec.params_with(defect);
    let start = spec.start();
    let horizon = spec.horizon();
    let seeds = derive_seeds(seed, 8);
    let run = |threads: usize| {
        experiment::run_many(p, start.clone(), &seeds, threads, |m, _| {
            fingerprint(m, horizon)
        })
    };
    let at1 = run(1);
    for threads in [2usize, 4] {
        let at_t = run(threads);
        if at_t != at1 {
            let i = at1.iter().zip(&at_t).position(|(a, b)| a != b).unwrap_or(0);
            return Err(format!(
                "ensemble diverges between 1 and {threads} threads at seed index {i}: \
                 {:?} vs {:?}",
                at1.get(i),
                at_t.get(i)
            ));
        }
    }
    // Per-worker model reuse must equal fresh construction.
    let fresh: Vec<(u64, u64)> = seeds
        .iter()
        .map(|&s| fingerprint(&mut FastModel::new(p, start.clone(), s), horizon))
        .collect();
    if fresh != at1 {
        return Err("reused (reset) models diverge from fresh construction".into());
    }
    // Seed-stream independence: distinct master seeds give distinct
    // runs. Only meaningful when the case consumes randomness at all — a
    // synchronized start with Tr = 0 draws nothing and is *supposed* to
    // be seed-independent.
    if spec.tr_ms > 0 || !spec.sync_start {
        let distinct: std::collections::BTreeSet<_> = at1.iter().collect();
        if distinct.len() < 2 {
            return Err(format!(
                "8 distinct seeds produced only {} distinct trajectories",
                distinct.len()
            ));
        }
    }
    Ok(())
}

/// Translating every start offset by a constant must shift the whole
/// trajectory by exactly that constant.
pub fn translation(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    let p = spec.params_with(defect);
    let tp = p.tp();
    let mut offsets = Vec::with_capacity(p.n);
    for i in 0..p.n {
        let mut rng = routesync_rng::stream(seed, 0x0FF5_E750 ^ i as u64);
        offsets
            .push(routesync_rng::dist::UniformDuration::new(Duration::ZERO, tp).sample(&mut rng));
    }
    let delta = Duration::from_millis(spec.tp_ms / 3 + 7);
    let shifted: Vec<Duration> = offsets.iter().map(|&o| o + delta).collect();

    let horizon = spec.horizon();
    let mut a = FastModel::new(p, StartState::Offsets(offsets), seed);
    let mut a_rec = (SendTrace::new(), ClusterLog::new());
    a.run(horizon, &mut a_rec);
    let mut b = FastModel::new(p, StartState::Offsets(shifted), seed);
    let mut b_rec = (SendTrace::new(), ClusterLog::new());
    b.run(horizon + delta, &mut b_rec);

    let tail = 2 * p.n;
    let sa = a_rec.0.sends();
    let sb = b_rec.0.sends();
    let keep = sa.len().min(sb.len()).saturating_sub(tail);
    for i in 0..keep {
        let (ta, na) = sa[i];
        let (tb, nb) = sb[i];
        if na != nb || ta + delta != tb {
            return Err(format!(
                "send {i} not translation-invariant: ({ta:?}, {na}) + {delta:?} != ({tb:?}, {nb})"
            ));
        }
    }
    let ca = a_rec.1.groups();
    let cb = b_rec.1.groups();
    let keep = ca.len().min(cb.len()).saturating_sub(tail);
    for i in 0..keep {
        if ca[i].0 + delta != cb[i].0 || ca[i].2 != cb[i].2 {
            return Err(format!(
                "cluster {i} not translation-invariant: {:?} + {delta:?} != {:?}",
                ca[i], cb[i]
            ));
        }
    }
    if keep <= 5 {
        return Err(format!("translation window too small ({keep} clusters)"));
    }
    Ok(())
}

/// Growing `Tr` must not make the ensemble synchronize more often (the
/// random component is the only force *against* synchronization). Checked
/// with a small slack because the comparison is across finite ensembles.
pub fn tr_monotonicity(spec: &CaseSpec, seed: u64, defect: Option<Defect>) -> Result<(), String> {
    let horizon = spec.horizon_s as f64;
    let count_synced = |seeds: &[u64], tr_ms: u64| -> usize {
        let p = CaseSpec {
            tr_ms,
            ..spec.clone()
        }
        .params_with(defect);
        experiment::run_many(
            p,
            StartState::Unsynchronized,
            seeds,
            ENSEMBLE_THREADS,
            |m, _| {
                let mut fp = FirstPassageUp::new(p.n);
                m.run(SimTime::from_secs_f64(horizon), &mut fp);
                fp.reached()
            },
        )
        .into_iter()
        .filter(|&r| r)
        .count()
    };
    // Clamp to Tp: PeriodicParams rejects Tr > Tp (the timer could go
    // negative), and the monotone claim holds on the clamped pair too.
    let tripled = (spec.tr_ms * 3).min(spec.tp_ms);
    let seeds = derive_seeds(seed, 16);
    let lo = count_synced(&seeds, spec.tr_ms);
    let hi = count_synced(&seeds, tripled);
    if hi > lo + 2 {
        // When both sync rates sit mid-band, a 16-run ensemble can show
        // a small apparent increase by binomial noise alone. Escalate to
        // an independent 4x ensemble with sqrt-scaled slack: a genuine
        // monotonicity violation persists, noise shrinks away.
        let big = derive_seeds(seed ^ 0x9e37_79b9_7f4a_7c15, 64);
        let lo = count_synced(&big, spec.tr_ms);
        let hi = count_synced(&big, tripled);
        if hi > lo + 6 {
            return Err(format!(
                "tripling Tr increased synchronized runs from {lo}/64 to {hi}/64"
            ));
        }
    }
    Ok(())
}

/// Attaching an empty fault plan must leave the packet-level run
/// bit-identical to one with no plan at all.
pub fn empty_fault_plan(spec: &CaseSpec, seed: u64) -> Result<(), String> {
    let horizon = spec.horizon();
    let start = if spec.sync_start {
        routesync_netsim::TimerStart::Synchronized
    } else {
        routesync_netsim::TimerStart::Unsynchronized
    };
    let base = || {
        routesync_netsim::ScenarioSpec::lan(spec.n, Duration::from_millis(spec.tr_ms))
            .with_forwarding(routesync_netsim::ForwardingMode::Concurrent)
            .with_start(start)
    };
    let mut plain = base().build(seed);
    plain.sim.run_until(horizon);
    let mut with_empty = base().with_faults(FaultPlan::new()).build(seed);
    with_empty.sim.run_until(horizon);
    if plain.sim.counters() != with_empty.sim.counters() {
        return Err(format!(
            "empty fault plan changed counters: {:?} vs {:?}",
            plain.sim.counters(),
            with_empty.sim.counters()
        ));
    }
    if plain.sim.reset_log() != with_empty.sim.reset_log()
        || plain.sim.update_log() != with_empty.sim.update_log()
    {
        return Err("empty fault plan changed the update/reset timeline".into());
    }
    if !with_empty.sim.fault_log().is_empty() {
        return Err("empty fault plan left fault records".into());
    }
    Ok(())
}
