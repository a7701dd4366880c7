//! Extension experiments beyond the paper's figures:
//!
//! * the Section 1 catalogue (TCP windows, client-server storms, external
//!   clocks), built in `routesync-phenomena`;
//! * the per-router fixed-period alternative the paper flags as "would
//!   require further investigation" — investigated;
//! * the stationary distribution of the Markov chain compared against the
//!   paper's `f(N)/(f(N)+g(1))` estimate, and a direct Monte-Carlo
//!   simulation of the chain.

use routesync_core::{ClusterLog, PeriodicModel, PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_markov::{ChainParams, PeriodicChain};
use routesync_phenomena::{
    client_server::{ClientServerModel, ClientServerParams},
    external_clock::{self, ClockAlignment, ClockParams},
    tcp::{DropPolicy, TcpBottleneck, TcpParams},
};
use routesync_rng::JitterPolicy;
use routesync_stats::ascii;

use crate::common::{write_csv, Check, Config, Outcome};

/// TCP global synchronization: tail drop vs random drop at a shared
/// bottleneck (paper Section 1; Zhang & Clark 1990).
pub fn tcp_windows(cfg: &Config) -> Outcome {
    let rounds = if cfg.fast { 2_000 } else { 8_000 };
    let run = |policy| {
        let mut rng = routesync_rng::stream(cfg.seed, 0);
        let mut b = TcpBottleneck::new(TcpParams::classic(8, policy), &mut rng);
        let report = b.run(rounds, &mut rng);
        (report, b.aggregate().to_vec())
    };
    let (tail, tail_agg) = run(DropPolicy::TailDrop);
    let (rand, rand_agg) = run(DropPolicy::RandomSingle);
    let file = write_csv(
        cfg,
        "ext_tcp_aggregate.csv",
        "round,tail_drop_offered,random_drop_offered",
        tail_agg
            .iter()
            .zip(&rand_agg)
            .enumerate()
            .map(|(r, (a, b))| format!("{r},{a},{b}")),
    );
    let slice = |agg: &[u64]| -> Vec<(f64, f64)> {
        let from = agg.len().saturating_sub(400);
        agg[from..]
            .iter()
            .enumerate()
            .map(|(i, &a)| (i as f64, a as f64))
            .collect()
    };
    let mut rendering = String::from("-- tail drop (last 400 rounds of aggregate load) --\n");
    rendering.push_str(&ascii::scatter(&slice(&tail_agg), 90, 10, '#'));
    rendering.push_str("-- random drop --\n");
    rendering.push_str(&ascii::scatter(&slice(&rand_agg), 90, 10, '#'));
    Outcome {
        id: "ext_tcp".into(),
        title: "TCP window synchronization at a shared drop-tail bottleneck".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "drop-tail synchronizes window cycles (global sawtooth)".into(),
                measured: format!("{tail:?}"),
                pass: tail.is_synchronized(),
            },
            Check {
                claim: "randomized gateway drops break the synchronization [FJ92]".into(),
                measured: format!("{rand:?}"),
                pass: !rand.is_synchronized() && rand.mass_halving_events == 0,
            },
            Check {
                claim: "desynchronized cycles keep the pipe fuller".into(),
                measured: format!(
                    "min utilization: tail {:.2} vs random {:.2}",
                    tail.min_utilization, rand.min_utilization
                ),
                pass: rand.min_utilization > tail.min_utilization,
            },
        ],
    }
}

/// The Sprite recovery storm: fixed vs jittered retry timers.
pub fn client_server(cfg: &Config) -> Outcome {
    let run = |retry: JitterPolicy| {
        let params = ClientServerParams::sprite(40, retry);
        let mut model = ClientServerModel::new(params, cfg.seed);
        model.run(SimTime::from_secs(1200))
    };
    let fixed = run(ClientServerParams::fixed_retry());
    let jittered = run(ClientServerParams::jittered_retry());
    let file = write_csv(
        cfg,
        "ext_client_server.csv",
        "design,recovery_secs,peak_retry_burst,timeouts_after_recovery,synchronized_waves",
        vec![
            format!(
                "fixed,{},{},{},{}",
                fixed.recovery_secs.unwrap_or(f64::NAN),
                fixed.peak_retry_burst,
                fixed.timeouts_after_recovery,
                fixed.synchronized_timeout_waves
            ),
            format!(
                "jittered,{},{},{},{}",
                jittered.recovery_secs.unwrap_or(f64::NAN),
                jittered.peak_retry_burst,
                jittered.timeouts_after_recovery,
                jittered.synchronized_timeout_waves
            ),
        ],
    );
    let rendering = ascii::bars(
        &[
            (
                "fixed: recovery s".to_string(),
                fixed.recovery_secs.unwrap_or(0.0),
            ),
            (
                "jittered: recovery s".to_string(),
                jittered.recovery_secs.unwrap_or(0.0),
            ),
            (
                "fixed: peak burst".to_string(),
                fixed.peak_retry_burst as f64,
            ),
            (
                "jittered: peak burst".to_string(),
                jittered.peak_retry_burst as f64,
            ),
        ],
        50,
    );
    Outcome {
        id: "ext_client_server".into(),
        title: "client-server recovery storm (the Sprite anecdote)".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "fixed retry timers produce synchronized timeout waves".into(),
                measured: format!("{fixed:?}"),
                // The first timeout wave (the broadcast-burst overflow) is
                // design-independent; the discriminator is the lock-step
                // *retry* burst that follows it.
                pass: fixed.synchronized_timeout_waves >= 1 && fixed.peak_retry_burst >= 12,
            },
            Check {
                claim: "retry jitter disperses the storm and speeds recovery".into(),
                measured: format!("{jittered:?}"),
                pass: jittered.peak_retry_burst * 2 <= fixed.peak_retry_burst
                    && jittered.recovery_secs.unwrap_or(f64::INFINITY)
                        <= fixed.recovery_secs.unwrap_or(0.0),
            },
        ],
    }
}

/// External-clock alignment: hourly cron jobs on the hour vs at random
/// offsets.
pub fn external_clock(cfg: &Config) -> Outcome {
    let mut rng = routesync_rng::stream(cfg.seed, 1);
    let mut profile = |alignment| {
        external_clock::simulate(&ClockParams::hourly(200, alignment), 24, 60, &mut rng)
    };
    let hour = profile(ClockAlignment::OnTheHour);
    let quarter = profile(ClockAlignment::QuarterMarks);
    let uniform = profile(ClockAlignment::UniformOffset);
    let file = write_csv(
        cfg,
        "ext_external_clock.csv",
        "alignment,peak_to_mean,top5pct_concentration",
        vec![
            format!(
                "on_the_hour,{},{}",
                hour.peak_to_mean(),
                hour.top_bin_concentration()
            ),
            format!(
                "quarter_marks,{},{}",
                quarter.peak_to_mean(),
                quarter.top_bin_concentration()
            ),
            format!(
                "uniform_offset,{},{}",
                uniform.peak_to_mean(),
                uniform.top_bin_concentration()
            ),
        ],
    );
    let rendering = ascii::bars(
        &[
            ("on the hour".to_string(), hour.peak_to_mean()),
            ("quarter marks".to_string(), quarter.peak_to_mean()),
            ("uniform offset".to_string(), uniform.peak_to_mean()),
        ],
        50,
    );
    Outcome {
        id: "ext_clock".into(),
        title: "external-clock synchronization: hourly jobs, peak-to-mean load".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "on-the-hour scheduling concentrates the load in spikes [Pa93a/b]".into(),
                measured: format!(
                    "peak/mean = {:.1}, top-5% bins hold {:.0}%",
                    hour.peak_to_mean(),
                    hour.top_bin_concentration() * 100.0
                ),
                pass: hour.peak_to_mean() > 20.0,
            },
            Check {
                claim: "random offsets flatten the same workload".into(),
                measured: format!("peak/mean = {:.1}", uniform.peak_to_mean()),
                pass: uniform.peak_to_mean() < 5.0 && quarter.peak_to_mean() < hour.peak_to_mean(),
            },
        ],
    }
}

/// The paper's deferred question: does giving every router a
/// slightly-different **fixed** period avoid synchronization? ("The
/// consequences of having a slightly-different fixed period for each
/// router would require further investigation.")
///
/// Investigated. Measured answer: fixed periods prevent *full*
/// synchronization, but any two routers whose periods happen to land
/// within `Tc` of each other couple **permanently** once they drift
/// together — with 20 periods drawn from a 4-second window and
/// `Tc = 0.11 s`, sizeable stable clusters form and the system never
/// returns to the all-lone state, while the paper's `[0.5Tp, 1.5Tp]`
/// jitter dissolves everything. The administrative alternative needs the
/// periods spaced further than `Tc` apart to be safe — which is exactly a
/// manual, fragile version of what jitter does automatically.
pub fn fixed_periods(cfg: &Config) -> Outcome {
    let tp = Duration::from_secs(121);
    let tc = Duration::from_millis(110);
    let spread = Duration::from_secs(2);
    let params = PeriodicParams::new(20, tp, tc, Duration::ZERO)
        .with_jitter(JitterPolicy::FixedPerRouter { tp, tr: spread });
    let horizon = if cfg.fast { 3.0e5 } else { 1.0e6 };
    // From an unsynchronized start: partial, *stable* clusters form.
    let mut model = PeriodicModel::new(params, StartState::Unsynchronized, cfg.seed);
    let mut log = ClusterLog::new();
    model.run(SimTime::from_secs_f64(horizon), &mut log);
    let max_unsync = log.max_size();
    let late_max = log
        .groups()
        .iter()
        .rev()
        .take(60)
        .map(|g| g.2)
        .max()
        .unwrap_or(0);
    // From a synchronized start: does the system ever fully desynchronize?
    let mut model = PeriodicModel::new(params, StartState::Synchronized, cfg.seed);
    let decay = model.run_until_cluster_at_most(1, horizon);
    let jittered = PeriodicParams::new(20, tp, tc, Duration::ZERO)
        .with_jitter(JitterPolicy::UniformHalf { tp });
    let mut model = PeriodicModel::new(jittered, StartState::Synchronized, cfg.seed);
    let decay_jittered = model.run_until_cluster_at_most(1, horizon);
    let file = write_csv(
        cfg,
        "ext_fixed_periods.csv",
        "metric,value",
        vec![
            format!("max_cluster_from_unsync,{max_unsync}"),
            format!("late_run_max_cluster,{late_max}"),
            format!(
                "full_decay_from_sync_secs,{}",
                decay.at_secs.unwrap_or(f64::NAN)
            ),
            format!(
                "full_decay_with_half_jitter_secs,{}",
                decay_jittered.at_secs.unwrap_or(f64::NAN)
            ),
        ],
    );
    Outcome {
        id: "ext_fixed_periods".into(),
        title: "per-router fixed periods (the paper's 'requires further investigation')".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "distinct fixed periods prevent stable full synchronization".into(),
                measured: format!("max cluster from unsync start = {max_unsync}"),
                pass: max_unsync < 20,
            },
            Check {
                claim: "near-equal periods couple permanently: stable partial clusters".into(),
                measured: format!(
                    "max cluster {max_unsync}; still {late_max}-strong clusters at the end"
                ),
                pass: max_unsync >= 3 && late_max >= 2,
            },
            Check {
                claim: "a synchronized start never fully dissolves under fixed periods, \
                        but does under [0.5Tp,1.5Tp] jitter"
                    .into(),
                measured: format!(
                    "full decay: fixed-periods {:?} s vs jitter {:?} s",
                    decay.at_secs, decay_jittered.at_secs
                ),
                pass: decay.at_secs.is_none() && decay_jittered.at_secs.is_some(),
            },
        ],
    }
}

/// Multi-hop synchronization: the Periodic Messages coupling on a mesh,
/// where updates reach *neighbours* only.
///
/// Measured result: the coupling localizes. A synchronized start on a
/// 12-router mesh does not persist globally (routers' busy periods differ
/// with their degree and phase, so the global cluster sheds members), but
/// graph-adjacent routers remain coupled indefinitely — persistent
/// *regional* clusters of 2-4. A broadcast LAN (complete coupling graph,
/// the paper's DECnet Ethernet) is the worst case; strong jitter dissolves
/// even the regional pairs.
pub fn mesh(cfg: &Config) -> Outcome {
    use routesync_netsim::scenario::cluster_windows;
    use routesync_netsim::ScenarioSpec;
    let horizon = if cfg.fast { 150_000 } else { 300_000 };
    let run = |tr_ms: u64| {
        let mut m = ScenarioSpec::random_mesh(12, 6, Duration::from_millis(tr_ms)).build(cfg.seed);
        m.sim.run_until(SimTime::from_secs(horizon));
        let tail: Vec<_> = m
            .sim
            .reset_log()
            .iter()
            .filter(|(t, _)| *t > SimTime::from_secs(horizon * 5 / 6))
            .cloned()
            .collect();
        let clusters = cluster_windows(&tail, Duration::from_secs(3));
        let max = clusters.iter().map(|c| c.1).max().unwrap_or(0);
        let multi = clusters.iter().filter(|c| c.1 >= 2).count();
        (max, multi, clusters.len())
    };
    let (tiny_max, tiny_multi, tiny_total) = run(50);
    let (big_max, big_multi, big_total) = run(60_000);
    let file = write_csv(
        cfg,
        "ext_mesh.csv",
        "jitter_ms,max_tail_cluster,multi_router_clusters,total_clusters",
        vec![
            format!("50,{tiny_max},{tiny_multi},{tiny_total}"),
            format!("60000,{big_max},{big_multi},{big_total}"),
        ],
    );
    Outcome {
        id: "ext_mesh".into(),
        title: "multi-hop meshes localize synchronization into regional clusters".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![
            Check {
                claim: "no global lock-step on a mesh (unlike the broadcast LAN)".into(),
                measured: format!("max tail cluster {tiny_max}/12 at 50 ms jitter"),
                pass: (2..12).contains(&tiny_max),
            },
            Check {
                claim: "graph-adjacent routers stay coupled (persistent regional clusters)"
                    .into(),
                measured: format!(
                    "{tiny_multi}/{tiny_total} tail reset groups involve >=2 routers"
                ),
                pass: tiny_multi * 2 >= tiny_total,
            },
            Check {
                claim: "strong jitter dissolves even the regional pairs".into(),
                measured: format!(
                    "multi-router groups: {big_multi}/{big_total} at Tp/2 jitter vs {tiny_multi}/{tiny_total} at 50 ms"
                ),
                pass: big_multi * tiny_total < tiny_multi * big_total,
            },
        ],
    }
}

/// A flapping link drives a triggered-update storm; hold-down damps the
/// churn (at its usual price in failover latency).
///
/// The paper: "The first triggered update results in a wave of triggered
/// updates from neighboring routers." Here the wave source flaps
/// periodically, and the metric is the total routing-update traffic and
/// control-CPU churn relative to a stable network.
pub fn flap_storm(cfg: &Config) -> Outcome {
    use routesync_netsim::{DvConfig, NetSim, RouterConfig, Topology};
    let horizon = if cfg.fast { 600 } else { 1800 };
    let build = |holddown: Option<Duration>, flapping: bool| {
        // A small mesh: 6 routers in a ring with one chord; one edge flaps.
        let mut t = Topology::new();
        let r: Vec<_> = (0..6).map(|i| t.add_router(format!("f{i}"))).collect();
        let mut flap_link = None;
        for i in 0..6 {
            let l = t.add_link(
                r[i],
                r[(i + 1) % 6],
                Duration::from_millis(5),
                1_544_000,
                50,
            );
            if i == 0 {
                flap_link = Some(l);
            }
        }
        t.add_link(r[0], r[3], Duration::from_millis(5), 1_544_000, 50);
        let mut rc = RouterConfig::new(DvConfig::rip().with_holddown(holddown));
        rc.forwarding = routesync_netsim::ForwardingMode::Concurrent;
        rc.start = routesync_netsim::TimerStart::Unsynchronized;
        let mut sim = NetSim::new(t, rc, cfg.seed);
        if flapping {
            let link = flap_link.expect("ring edge");
            let mut t = 60u64;
            while t + 30 < horizon {
                sim.schedule_link_down(link, SimTime::from_secs(t));
                sim.schedule_link_up(link, SimTime::from_secs(t + 30));
                t += 60;
            }
        }
        // Sample the affected router's choice of next hop toward the far
        // end of the flapping edge once per second; count transitions
        // (route churn as data traffic experiences it).
        let (observer, dst) = (r[1], r[0]);
        let mut last = None;
        let mut transitions = 0u64;
        for t in 1..=horizon {
            sim.run_until(SimTime::from_secs(t));
            let hop = sim.table(observer).lookup(dst, 16);
            if last.is_some() && last != Some(hop) {
                transitions += 1;
            }
            last = Some(hop);
        }
        (sim.counters().updates_sent, transitions)
    };
    let (stable_updates, stable_churn) = build(None, false);
    let (flap_updates, flap_churn) = build(None, true);
    let (held_updates, held_churn) = build(Some(Duration::from_secs(120)), true);
    let file = write_csv(
        cfg,
        "ext_flap_storm.csv",
        "scenario,routing_updates_sent,route_transitions_at_observer",
        vec![
            format!("stable,{stable_updates},{stable_churn}"),
            format!("flapping,{flap_updates},{flap_churn}"),
            format!("flapping_with_holddown,{held_updates},{held_churn}"),
        ],
    );
    let rendering = ascii::bars(
        &[
            ("stable: updates".to_string(), stable_updates as f64),
            ("flapping: updates".to_string(), flap_updates as f64),
            ("flap+holddown: updates".to_string(), held_updates as f64),
            ("flapping: route churn".to_string(), flap_churn as f64),
            ("flap+holddown: churn".to_string(), held_churn as f64),
        ],
        50,
    );
    Outcome {
        id: "ext_flap".into(),
        title: "triggered-update storms from a flapping link; what hold-down does and does not buy".into(),
        files: vec![file],
        rendering,
        checks: vec![
            Check {
                claim: "a flapping link multiplies routing-update traffic (triggered waves)"
                    .into(),
                measured: format!("{stable_updates} updates stable vs {flap_updates} flapping"),
                pass: flap_updates as f64 > stable_updates as f64 * 1.3,
            },
            Check {
                claim: "hold-down reduces route churn (its actual purpose) …".into(),
                measured: format!(
                    "route transitions: {flap_churn} without vs {held_churn} with hold-down (stable: {stable_churn})"
                ),
                pass: held_churn < flap_churn && stable_churn == 0,
            },
            Check {
                claim: "… but does NOT reduce the update traffic itself (a measured non-benefit)"
                    .into(),
                measured: format!("{flap_updates} updates without vs {held_updates} with hold-down"),
                pass: held_updates as f64 > flap_updates as f64 * 0.8,
            },
        ],
    }
}

/// The protocol-design contrast the paper's Section 3 footnote points at:
/// BGP-style incremental updates have no periodic full-table burst, so
/// there is nothing to synchronize and nothing for a blocked-forwarding
/// router to choke on.
pub fn incremental(cfg: &Config) -> Outcome {
    use routesync_netsim::dv::UpdateMode;
    use routesync_netsim::{DvConfig, NetSim, RouterConfig, Topology};
    let probes = if cfg.fast { 200u64 } else { 400 };
    let build = |mode: UpdateMode| {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        let r0 = t.add_router("r0");
        let r1 = t.add_router("r1");
        t.add_link(a, r0, Duration::from_millis(1), 10_000_000, 50);
        t.add_link(r0, r1, Duration::from_millis(10), 1_544_000, 50);
        t.add_link(r1, b, Duration::from_millis(1), 10_000_000, 50);
        for j in 0..5 {
            let stub = t.add_router(format!("s{j}"));
            t.add_link(r0, stub, Duration::from_millis(3), 1_544_000, 50);
        }
        let mut dv = DvConfig::igrp().with_pad(280);
        dv.update_mode = mode;
        if mode == UpdateMode::Incremental {
            dv.route_timeout = Duration::MAX;
        }
        let mut rc = RouterConfig::new(dv);
        rc.pending_cap = 0;
        let mut sim = NetSim::new(t, rc, cfg.seed);
        sim.add_ping(
            a,
            b,
            Duration::from_secs_f64(1.01),
            probes,
            SimTime::from_secs(95),
        );
        sim.run_until(SimTime::from_secs(100 + (probes as f64 * 1.01) as u64 + 30));
        (
            sim.ping_stats(a).loss_rate(),
            sim.counters().updates_sent,
            sim.counters().drop_cpu,
        )
    };
    let (p_loss, p_updates, p_drops) = build(UpdateMode::PeriodicFullTable);
    let (i_loss, i_updates, i_drops) = build(UpdateMode::Incremental);
    let file = write_csv(
        cfg,
        "ext_incremental.csv",
        "mode,ping_loss_rate,updates_sent,drop_cpu",
        vec![
            format!("periodic_full_table,{p_loss},{p_updates},{p_drops}"),
            format!("incremental,{i_loss},{i_updates},{i_drops}"),
        ],
    );
    Outcome {
        id: "ext_incremental".into(),
        title: "periodic full tables vs BGP-style incremental updates".into(),
        files: vec![file],
        rendering: ascii::bars(
            &[
                ("periodic: loss %".to_string(), p_loss * 100.0),
                ("incremental: loss %".to_string(), i_loss * 100.0),
            ],
            50,
        ),
        checks: vec![
            Check {
                claim: "periodic full tables + blocked forwarding drop data every cycle".into(),
                measured: format!("loss {p_loss:.3}, {p_drops} cpu-blocked drops"),
                pass: p_loss > 0.01 && p_drops > 0,
            },
            Check {
                claim: "incremental updates have no periodic burst: zero loss after convergence"
                    .into(),
                measured: format!("loss {i_loss:.3}, {i_drops} cpu-blocked drops"),
                pass: i_loss == 0.0 && i_drops == 0,
            },
        ],
    }
}

/// Stationary distribution of the chain vs the paper's
/// `f(N)/(f(N)+g(1))` fraction, plus direct Monte-Carlo of the chain.
pub fn stationary(cfg: &Config) -> Outcome {
    let base = ChainParams::paper_reference();
    // One grid point per k, each with its own Monte-Carlo — independent
    // work fanned out over the deterministic parallel runner (per-k rng
    // streams keep the output identical at any thread count).
    let ks: Vec<usize> = (10..=40).collect();
    let points = routesync_exec::Ensemble::new(&ks)
        .threads(cfg.threads)
        .run(
            || (),
            |_, _, _, &k| {
                let tr = k as f64 * 0.1 * base.tc;
                let chain = PeriodicChain::new(base.with_tr(tr));
                let frac_fg = chain.fraction_unsynchronized(0.0);
                // Stationary mass on "unsynchronized" states (largest cluster < 4
                // — essentially no synchronization).
                let frac_pi = chain.birth_death().stationary().map(|pi| {
                    // p_{1,2} is a free parameter (0 in this chain); state 1 is
                    // absorbing upward, so measure mass below cluster 4 among
                    // states 2..N instead (conditional stationary shape).
                    let total: f64 = pi[2..].iter().sum();
                    if total > 0.0 {
                        pi[2..4.min(pi.len())].iter().sum::<f64>() / total
                    } else {
                        f64::NAN
                    }
                });
                // Direct Monte-Carlo of the chain, with the free parameter
                // p_{1,2} = 1/f(2) installed so state 1 is not absorbing. Only in
                // the band where f(N) is small enough to simulate.
                let f2 = 19.0;
                let exact = chain.f(f2)[base.n];
                let mc = if (10..=18).contains(&k) && exact.is_finite() && exact < 2.0e5 {
                    let bd = chain.birth_death();
                    let mut p_up: Vec<f64> = (0..=base.n).map(|i| bd.p_up(i)).collect();
                    let p_down: Vec<f64> = (0..=base.n).map(|i| bd.p_down(i)).collect();
                    p_up[1] = 1.0 / f2;
                    let sim_chain = routesync_markov::BirthDeath::new(p_up, p_down);
                    let mut rng = routesync_rng::stream(cfg.seed, k as u64);
                    let runs = if cfg.fast { 3 } else { 8 };
                    let cap = 20_000_000u64;
                    let mut total = 0u64;
                    let mut ok = 0u32;
                    for _ in 0..runs {
                        if let Some(steps) = sim_chain.simulate_hitting(1, base.n, &mut rng, cap) {
                            total += steps;
                            ok += 1;
                        }
                    }
                    (ok > 0).then(|| total as f64 / ok as f64)
                } else {
                    None
                };
                let off = mc.map(|mc| !(0.2..=5.0).contains(&(mc / exact)));
                let row = format!(
                    "{:.1},{frac_fg},{},{},{exact}",
                    tr / base.tc,
                    frac_pi.unwrap_or(f64::NAN),
                    mc.map(|m| m.to_string()).unwrap_or_else(|| "NA".into()),
                );
                (row, off)
            },
        )
        .into_values();
    let mut rows = Vec::new();
    let mut disagreements = 0usize;
    let mut compared = 0usize;
    for (row, off) in points {
        rows.push(row);
        if let Some(off) = off {
            compared += 1;
            disagreements += off as usize;
        }
    }
    let file = write_csv(
        cfg,
        "ext_stationary.csv",
        "tr_over_tc,fraction_unsync_fg,stationary_low_state_mass,mc_hitting_2_to_N,exact_f_N",
        rows,
    );
    Outcome {
        id: "ext_stationary".into(),
        title: "stationary distribution & Monte-Carlo validation of the chain".into(),
        files: vec![file],
        rendering: String::new(),
        checks: vec![Check {
            claim: "Monte-Carlo hitting times agree with the exact first-passage recursion".into(),
            measured: format!("{disagreements}/{compared} comparisons off by >5x"),
            pass: compared > 0 && disagreements * 10 <= compared,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        let mut c = Config::fast();
        c.out_dir = std::env::temp_dir().join("routesync-ext");
        c
    }

    #[test]
    fn tcp_and_clock_extensions_pass() {
        let o = tcp_windows(&cfg());
        assert!(o.passed(), "{}", o.report());
        let o = external_clock(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn client_server_extension_passes() {
        let o = client_server(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn fixed_periods_extension_passes() {
        let o = fixed_periods(&cfg());
        assert!(o.passed(), "{}", o.report());
    }

    #[test]
    fn stationary_extension_passes() {
        let o = stationary(&cfg());
        assert!(o.passed(), "{}", o.report());
    }
}
