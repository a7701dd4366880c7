//! Ablations of the design choices called out in DESIGN.md.

use routesync_core::{ClusterLog, PeriodicModel, PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_netsim::{ForwardingMode, ScenarioSpec};
use routesync_rng::{JitterPolicy, TimerResetPolicy};
use routesync_stats::ascii;

use crate::common::{write_csv, Check, Config, Outcome};

/// Reset-policy ablation: `AfterProcessing` (the paper's model) couples
/// and synchronizes; `OnExpiry` (RFC 1058's suggestion) neither
/// synchronizes nor desynchronizes.
pub fn reset_policy(cfg: &Config) -> Outcome {
    let horizon = if cfg.fast { 2.0e5 } else { 1.0e6 };
    let base = PeriodicParams::paper_reference();
    // (policy, start, what we measure)
    let after_sync = {
        let mut m = PeriodicModel::new(base, StartState::Unsynchronized, cfg.seed);
        m.run_until_synchronized(horizon)
    };
    let on_expiry_params = base.with_reset_policy(TimerResetPolicy::OnExpiry);
    let on_expiry_sync = {
        let mut m = PeriodicModel::new(on_expiry_params, StartState::Unsynchronized, cfg.seed);
        let mut log = ClusterLog::new();
        m.run(SimTime::from_secs_f64(horizon), &mut log);
        log.max_size()
    };
    // OnExpiry from a synchronized start: stays synchronized forever
    // (zero jitter variant, the paper's criticism of the scheme).
    let frozen = on_expiry_params.with_jitter(JitterPolicy::None {
        tp: Duration::from_secs(121),
    });
    let on_expiry_stuck = {
        let mut m = PeriodicModel::new(frozen, StartState::Synchronized, cfg.seed);
        let mut log = ClusterLog::new();
        m.run(SimTime::from_secs_f64(horizon.min(3.0e5)), &mut log);
        log.groups().iter().all(|g| g.2 == base.n as u32)
    };
    let file = write_csv(
        cfg,
        "ablation_reset_policy.csv",
        "policy,start,outcome",
        vec![
            format!(
                "after_processing,unsynchronized,synchronized_at_{:?}",
                after_sync.at_secs
            ),
            format!("on_expiry,unsynchronized,max_cluster_{on_expiry_sync}"),
            format!("on_expiry_no_jitter,synchronized,stays_{on_expiry_stuck}"),
        ],
    );
    Outcome {
        id: "ablation_reset_policy".into(),
        title: "timer-reset policy: AfterProcessing vs OnExpiry".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "AfterProcessing synchronizes from an unsynchronized start".into(),
                measured: format!("{after_sync:?}"),
                pass: after_sync.synchronized,
            },
            Check {
                claim: "OnExpiry never forms large clusters (no coupling)".into(),
                measured: format!("max cluster = {on_expiry_sync}"),
                pass: on_expiry_sync <= 3,
            },
            Check {
                claim: "OnExpiry with identical periods keeps an initial cluster forever".into(),
                measured: format!("stayed synchronized = {on_expiry_stuck}"),
                pass: on_expiry_stuck,
            },
        ],
    }
}

/// Jitter-policy ablation: the recommended `[0.5·Tp, 1.5·Tp]` draw versus
/// small uniform jitter, from a synchronized start.
pub fn jitter_policy(cfg: &Config) -> Outcome {
    let horizon = if cfg.fast { 3.0e5 } else { 2.0e6 };
    let tp = Duration::from_secs(121);
    let tc = Duration::from_millis(110);
    let run = |jitter: JitterPolicy| {
        let params = PeriodicParams::new(20, tp, tc, Duration::ZERO).with_jitter(jitter);
        let mut m = PeriodicModel::new(params, StartState::Synchronized, cfg.seed);
        m.run_until_cluster_at_most(1, horizon)
    };
    let small = run(JitterPolicy::Uniform {
        tp,
        tr: Duration::from_millis(110),
    });
    let ten_tc = run(JitterPolicy::Uniform {
        tp,
        tr: Duration::from_millis(1100),
    });
    let half = run(JitterPolicy::UniformHalf { tp });
    let file = write_csv(
        cfg,
        "ablation_jitter_policy.csv",
        "policy,desynchronized,at_seconds",
        vec![
            format!(
                "uniform_tr_eq_tc,{},{:?}",
                small.desynchronized, small.at_secs
            ),
            format!(
                "uniform_tr_10tc,{},{:?}",
                ten_tc.desynchronized, ten_tc.at_secs
            ),
            format!("uniform_half_tp,{},{:?}", half.desynchronized, half.at_secs),
        ],
    );
    Outcome {
        id: "ablation_jitter_policy".into(),
        title: "jitter policies from a synchronized start".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "Tr = Tc cannot break up synchronization within the horizon".into(),
                measured: format!("{small:?}"),
                pass: !small.desynchronized,
            },
            Check {
                claim: "Tr = 10·Tc breaks up quickly (the paper's rule of thumb)".into(),
                measured: format!("{ten_tc:?}"),
                pass: ten_tc.desynchronized,
            },
            Check {
                claim: "[0.5·Tp, 1.5·Tp] breaks up fastest / comparably fast".into(),
                measured: format!("{half:?}"),
                pass: half.desynchronized
                    && half
                        .at_secs
                        .zip(ten_tc.at_secs)
                        .is_none_or(|(h, t)| h <= t * 5.0),
            },
        ],
    }
}

/// Forwarding-mode ablation on the NEARnet scenario: the 1992 software fix
/// in one enum flip.
pub fn forwarding(cfg: &Config) -> Outcome {
    let probes = if cfg.fast { 300u64 } else { 1000 };
    let loss = |mode: ForwardingMode| {
        // Same scenario either way — the fix is one builder override.
        let mut n = ScenarioSpec::nearnet()
            .with_forwarding(mode)
            .build(cfg.seed);
        let (berkeley, mit) = (n.hosts[0], n.hosts[1]);
        n.sim.add_ping(
            berkeley,
            mit,
            Duration::from_secs_f64(1.01),
            probes,
            SimTime::from_secs(5),
        );
        n.sim
            .run_until(SimTime::from_secs(10 + (probes as f64 * 1.01) as u64 + 30));
        n.sim.ping_stats(berkeley).loss_rate()
    };
    // The two arms are independent simulations — run them through the
    // deterministic parallel runner.
    let arms = routesync_exec::Ensemble::new(&[
        ForwardingMode::BlockedDuringUpdates,
        ForwardingMode::Concurrent,
    ])
    .threads(cfg.threads)
    .run(|| (), |_, _, _, &mode| loss(mode))
    .into_values();
    let (blocked, concurrent) = (arms[0], arms[1]);
    let file = write_csv(
        cfg,
        "ablation_forwarding.csv",
        "mode,ping_loss_rate",
        vec![
            format!("blocked,{blocked}"),
            format!("concurrent,{concurrent}"),
        ],
    );
    let rendering = ascii::bars(
        &[
            ("blocked".to_string(), blocked),
            ("concurrent".to_string(), concurrent.max(1e-6)),
        ],
        50,
    );
    Outcome {
        id: "ablation_forwarding".into(),
        title: "NEARnet fix: forwarding blocked vs concurrent with update processing".into(),
        files: vec![file],
        rendering,
        checks: vec![Check {
            claim: "the software fix removes the periodic loss entirely".into(),
            measured: format!("blocked loss {blocked:.3}, concurrent loss {concurrent:.4}"),
            pass: blocked >= 0.02 && concurrent == 0.0,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        let mut c = Config::fast();
        c.out_dir = std::env::temp_dir().join("routesync-ablation");
        c
    }

    #[test]
    fn reset_policy_ablation_passes() {
        let o = reset_policy(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn forwarding_ablation_passes() {
        let o = forwarding(&cfg());
        assert!(o.passed(), "{}", o.report());
    }
}
