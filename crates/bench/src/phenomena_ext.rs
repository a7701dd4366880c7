//! Extension experiments for the related-literature phenomena models
//! (PAPERS.md): cascade rollback in optimistic distributed simulation
//! (Manita & Simonot, arXiv math/0508533), the two-type clock phase
//! transition (Malyshev & Manita, arXiv 1201.3550), and fault-tolerant
//! anonymous pulse synchronization (Yu et al.). Each experiment sweeps a
//! parameter grid, fans the `(point, seed)` cells out over the
//! deterministic parallel runner, and shape-checks the measurements
//! against the closed forms in `routesync_markov::meanfield`.

use routesync_markov::{cascade_sync_rounds, pulse_convergence_bound, two_type_growth_rate};
use routesync_phenomena::{
    ByzantineWindow, CascadeParams, CascadeSim, ExchangeSchedule, PulseParams, PulseSim,
    TwoTypeParams, TwoTypeSim,
};

use crate::common::{write_csv, Check, Config, Outcome};

/// Cascade rollback: mean rounds to full lock-step vs the pure-birth
/// mean-field sum, across a send-probability grid; jittered clock
/// advances resist the lock-step that deterministic advances make
/// absorbing.
pub fn cascade(cfg: &Config) -> Outcome {
    let (n, depth) = (6usize, 2usize);
    let rounds = if cfg.fast { 600 } else { 2_000 };
    let seeds = if cfg.fast { 4u64 } else { 16 };
    let grid = [0.05f64, 0.1, 0.2, 0.4];
    let cells: Vec<(usize, f64, u64)> = grid
        .iter()
        .enumerate()
        .flat_map(|(point, &q)| (0..seeds).map(move |s| (point, q, s)))
        .collect();
    // One deterministic and one jittered run per cell; per-cell rng
    // streams keep the fan-out thread-invariant.
    let results = routesync_exec::Ensemble::new(&cells)
        .threads(cfg.threads)
        .run(
            || (),
            |_, _, _, &(point, q, s)| {
                let mut rng = routesync_rng::stream(cfg.seed, (point as u64) << 32 | s);
                let mut sim = CascadeSim::new(CascadeParams::unsynchronized(n, q, depth), &mut rng);
                let det = sim.run(rounds, &mut rng);
                let jittered_params = CascadeParams {
                    advance_jitter: 0.5,
                    ..CascadeParams::unsynchronized(n, q, depth)
                };
                let mut sim = CascadeSim::new(jittered_params, &mut rng);
                let jit = sim.run(rounds, &mut rng);
                (point, det.sync_round, jit.is_synchronized())
            },
        )
        .into_values();
    let mut mean_sync: Vec<f64> = Vec::new();
    let mut det_synced = 0usize;
    let mut jit_locked = 0usize;
    let mut rows = Vec::new();
    for (point, &q) in grid.iter().enumerate() {
        let sync_rounds: Vec<u64> = results
            .iter()
            .filter(|r| r.0 == point)
            .filter_map(|r| r.1)
            .collect();
        det_synced += sync_rounds.len();
        jit_locked += results.iter().filter(|r| r.0 == point && r.2).count();
        let mean = if sync_rounds.is_empty() {
            f64::NAN
        } else {
            sync_rounds.iter().sum::<u64>() as f64 / sync_rounds.len() as f64
        };
        mean_sync.push(mean);
        rows.push(format!(
            "{q},{},{mean},{}",
            cascade_sync_rounds(n, q),
            sync_rounds.len()
        ));
    }
    let file = write_csv(
        cfg,
        "ext_cascade.csv",
        "send_prob,mean_field_rounds,mean_sim_rounds,synced_runs",
        rows,
    );
    let ratios: Vec<f64> = grid
        .iter()
        .zip(&mean_sync)
        .map(|(&q, &sim)| cascade_sync_rounds(n, q) / sim.max(1.0))
        .collect();
    Outcome {
        id: "ext_cascade".into(),
        title: "cascade rollback: lock-step via stragglers vs the mean-field sum".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "the pure-birth mean field tracks the simulated sync time".into(),
                measured: format!("mean-field / simulated ratios across the grid: {ratios:?}"),
                pass: mean_sync.iter().all(|m| m.is_finite())
                    && ratios.iter().all(|r| (0.2..=10.0).contains(r)),
            },
            Check {
                claim: "more talkative processors lock into step faster".into(),
                measured: format!("mean sync rounds along the q grid: {mean_sync:?}"),
                pass: mean_sync.windows(2).all(|w| w[0] > w[1]),
            },
            Check {
                claim: "jittered clock advances resist the lock-step".into(),
                measured: format!(
                    "{jit_locked} jittered vs {det_synced} deterministic runs in lock-step at the end"
                ),
                pass: det_synced == cells.len() && jit_locked < det_synced,
            },
        ],
    }
}

/// The two-type clock phase transition: lag growth across a message-rate
/// grid straddling the critical rate `p_c = δ/J`.
pub fn two_type(cfg: &Config) -> Outcome {
    let (drift, jump) = (0.01f64, 1.0f64);
    let rounds = if cfg.fast { 20_000 } else { 60_000 };
    let seeds = if cfg.fast { 4u64 } else { 8 };
    let p_crit = drift / jump;
    let grid = [0.25f64, 0.5, 1.5, 3.0]; // multiples of p_c
    let cells: Vec<(usize, f64, u64)> = grid
        .iter()
        .enumerate()
        .flat_map(|(point, &m)| (0..seeds).map(move |s| (point, m * p_crit, s)))
        .collect();
    let results = routesync_exec::Ensemble::new(&cells)
        .threads(cfg.threads)
        .run(
            || (),
            |_, _, _, &(point, p, s)| {
                let mut rng = routesync_rng::stream(cfg.seed, (point as u64) << 32 | s);
                let params = TwoTypeParams::unit_jump(drift, ExchangeSchedule::Bernoulli { p });
                let report = TwoTypeSim::new(params).run(rounds, &mut rng);
                (point, report.growth_rate, report.max_lag, report.min_lag)
            },
        )
        .into_values();
    let mut growth = Vec::new();
    let mut max_lag = Vec::new();
    let mut min_lag = f64::INFINITY;
    let mut rows = Vec::new();
    for (point, &mult) in grid.iter().enumerate() {
        let mine: Vec<&(usize, f64, f64, f64)> = results.iter().filter(|r| r.0 == point).collect();
        let g = mine.iter().map(|r| r.1).sum::<f64>() / mine.len() as f64;
        let ml = mine.iter().map(|r| r.2).sum::<f64>() / mine.len() as f64;
        min_lag = mine.iter().map(|r| r.3).fold(min_lag, f64::min);
        growth.push(g);
        max_lag.push(ml);
        rows.push(format!(
            "{},{},{g},{ml}",
            mult * p_crit,
            two_type_growth_rate(drift, mult * p_crit, jump)
        ));
    }
    let file = write_csv(
        cfg,
        "ext_two_type.csv",
        "msg_rate,predicted_growth,mean_growth,mean_max_lag",
        rows,
    );
    let sub_ok = grid.iter().zip(&growth).take(2).all(|(&m, &g)| {
        let pred = two_type_growth_rate(drift, m * p_crit, jump);
        (0.5..=2.0).contains(&(g / pred))
    });
    Outcome {
        id: "ext_two_type".into(),
        title: "two-type clocks: lag growth across the sync/desync phase transition".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "subcritical exchange rates leave the lag growing at δ − p·J".into(),
                measured: format!("measured growth {:?} at p/p_c = 0.25, 0.5", &growth[..2]),
                pass: sub_ok,
            },
            Check {
                claim: "supercritical exchange rates keep the lag bounded (growth ≈ 0)".into(),
                measured: format!(
                    "growth {:?}, mean max lag {:?} at p/p_c = 1.5, 3",
                    &growth[2..],
                    &max_lag[2..]
                ),
                pass: growth[2..]
                    .iter()
                    .all(|&g| g.abs() < 2e-3 && g < growth[1] / 2.0)
                    && max_lag[2..].iter().all(|&l| l < 20.0),
            },
            Check {
                claim: "the clamped jump never drives the laggard past the leader".into(),
                measured: format!("min lag over every run: {min_lag}"),
                pass: min_lag >= -1e-9,
            },
        ],
    }
}

/// Fault-tolerant pulse synchronization: convergence inside the halving
/// bound with and without Byzantine equivocation, and the 4ρ drift floor.
pub fn pulse(cfg: &Config) -> Outcome {
    let n = 7usize;
    let spread = 1_000.0f64;
    let eps = 0.01f64;
    let bound = pulse_convergence_bound(spread, eps);
    let rounds = bound + 1;
    let seeds: Vec<u64> = (0..if cfg.fast { 6 } else { 16 }).collect();
    let byzantine = || {
        vec![
            ByzantineWindow {
                node: 0,
                down_round: 0,
                up_round: rounds + 1,
            },
            ByzantineWindow {
                node: 1,
                down_round: 2,
                up_round: rounds + 1,
            },
        ]
    };
    let results = routesync_exec::Ensemble::new(&seeds)
        .threads(cfg.threads)
        .run(
            || (),
            |_, _, _, &s| {
                let run = |params: PulseParams, stream: u64| {
                    let mut rng = routesync_rng::stream(cfg.seed, stream << 32 | s);
                    PulseSim::new(params, &mut rng).run(rounds, &mut rng)
                };
                let clean = run(
                    PulseParams {
                        initial_spread: spread,
                        ..PulseParams::fault_free(n)
                    },
                    0,
                );
                let byz = run(
                    PulseParams {
                        n,
                        byzantine: byzantine(),
                        drift: 0.0,
                        initial_spread: spread,
                    },
                    1,
                );
                let drifting = run(
                    PulseParams {
                        n,
                        byzantine: byzantine(),
                        drift: 0.5,
                        initial_spread: spread,
                    },
                    2,
                );
                (clean, byz, drifting)
            },
        )
        .into_values();
    let max_clean = results
        .iter()
        .map(|r| r.0.final_diameter)
        .fold(0.0, f64::max);
    let max_byz = results
        .iter()
        .map(|r| r.1.final_diameter)
        .fold(0.0, f64::max);
    let max_excess = results
        .iter()
        .map(|r| r.1.max_halving_excess)
        .fold(0.0, f64::max);
    let max_drift = results
        .iter()
        .map(|r| r.2.final_diameter)
        .fold(0.0, f64::max);
    let lies: u64 = results.iter().map(|r| r.1.equivocations).sum();
    let file = write_csv(
        cfg,
        "ext_pulse.csv",
        "scenario,worst_final_diameter,worst_halving_excess,equivocations",
        vec![
            format!("fault_free,{max_clean},0,0"),
            format!("byzantine_f2,{max_byz},{max_excess},{lies}"),
            format!(
                "byzantine_drift_0.5,{max_drift},{},{}",
                results
                    .iter()
                    .map(|r| r.2.max_halving_excess)
                    .fold(0.0, f64::max),
                results.iter().map(|r| r.2.equivocations).sum::<u64>()
            ),
        ],
    );
    Outcome {
        id: "ext_pulse".into(),
        title: "anonymous pulse synchronization: the halving bound under Byzantine faults".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: format!(
                    "every run converges to ε = {eps} within the analytic bound of {bound} rounds"
                ),
                measured: format!(
                    "worst final diameter: fault-free {max_clean:.2e}, Byzantine {max_byz:.2e}"
                ),
                pass: max_clean <= eps && max_byz <= eps,
            },
            Check {
                claim: "two equivocating nodes out of seven never break the per-round halving"
                    .into(),
                measured: format!("worst halving excess {max_excess:.2e} over {lies} lies"),
                pass: max_excess <= 1e-9 && lies > 0,
            },
            Check {
                claim: "clock drift leaves only the 4ρ floor".into(),
                measured: format!("worst drifting diameter {max_drift:.3} vs 4ρ + ε = 2.01"),
                pass: max_drift <= 4.0 * 0.5 + eps && max_drift > 0.0,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        let mut c = Config::fast();
        c.out_dir = std::env::temp_dir().join("routesync-ext-phenomena");
        c
    }

    #[test]
    fn cascade_extension_passes() {
        let o = cascade(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn two_type_extension_passes() {
        let o = two_type(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn pulse_extension_passes() {
        let o = pulse(&cfg());
        assert!(o.passed(), "{}", o.report());
    }
}
