//! `live-mesh`: the UDP daemon hosting a 256-router mesh on loopback.
//!
//! `random_mesh(256, 128, Tr = 0.1 s)` from an unsynchronized start: 768
//! connected UDP sockets on the host's loopback interface, 1 % loss on
//! every 16th ring edge, router 5 crashing at 600 s and rebooting at
//! 900 s, the desim twin on. At 1200× time compression the routers' own
//! timers offer about 2.6k advertisements per wall second — an open loop
//! that does not slow down when the daemon does. A unit is one leg of
//! 6000 simulated seconds (5 wall seconds); set-up is `LiveDaemon::new`
//! (bind, connect, twin prediction).
//!
//! This is the only workload that crosses real sockets, the wire codec
//! and the twin. Retries exhausted against the crashed router are the
//! fault plan working; a datagram shed under overload or rejected as
//! malformed is a failure.

use std::collections::BTreeMap;

use routesync_desim::{Duration, SimTime};
use routesync_live::{LiveConfig, LiveDaemon, LiveReport, Outcome as LiveOutcome, TwinTrack};
use routesync_netsim::{Advertisement, FaultPlan, NodeId, RoutingTable, ScenarioSpec, TimerStart};
use routesync_obs::Collector;
use serde_json::Value;

use crate::host::cpu_seconds;
use crate::measure::{median, ratio, Checks, Metrics};
use crate::trace::timed;
use crate::{Ctx, Outcome};

/// DECnet's update period and unreachable metric.
const TP_S: f64 = 120.0;
const INFINITY: u32 = 16;
/// Rounds must come within this share of `routers × horizon / Tp`.
const ROUNDS_TOLERANCE: f64 = 0.03;
/// Twin |ΔR| above which a ladder step counts as past the knee (the
/// daemon's documented tolerance).
const TWIN_TOLERANCE: f64 = 0.15;
const TIME_SCALE: f64 = 1200.0;
const LADDER: [f64; 5] = [300.0, 600.0, 1200.0, 2400.0, 4800.0];
/// Repetitions when splitting set-up into its twin and socket parts.
const SETUP_PROBES: usize = 3;

struct Config {
    routers: usize,
    horizon_s: f64,
    /// Wall seconds per ladder step.
    ladder_wall_s: f64,
    /// Passes over every router's advertisement in the codec probe.
    codec_passes: usize,
}

impl Config {
    fn new(ctx: &Ctx) -> Config {
        if ctx.smoke {
            Config {
                routers: 16,
                horizon_s: 1_200.0,
                ladder_wall_s: 0.3,
                codec_passes: 20,
            }
        } else {
            Config {
                routers: 256,
                horizon_s: 6_000.0,
                ladder_wall_s: 3.0,
                codec_passes: 200,
            }
        }
    }

    fn spec(&self) -> ScenarioSpec {
        let n = self.routers;
        // Link ids 0..n are the ring edges.
        let mut plan = FaultPlan::new()
            .crash_at(5, SimTime::from_secs(600))
            .reboot_at(5, SimTime::from_secs(720));
        for link in (0..n).step_by(16) {
            plan = plan.lossy_link(link, 0.01);
        }
        ScenarioSpec::random_mesh(n, n / 2, Duration::from_millis(100))
            .with_start(TimerStart::Unsynchronized)
            .with_faults(plan)
    }

    /// Set-up: a daemon ready to run, reporting into its own collector.
    fn daemon(
        &self,
        seed: u64,
        scale: f64,
        horizon_s: f64,
        twin: bool,
    ) -> Result<(LiveDaemon, Collector), String> {
        let collector = Collector::enabled();
        let mut cfg = LiveConfig::new(self.spec(), "routebench live-mesh", seed);
        cfg.time_scale = scale;
        cfg.horizon = SimTime::from_secs_f64(horizon_s);
        cfg.twin = twin;
        // Room for every adjacency's periodic datagram at once (three per
        // router on this mesh, on average). The default cap (256) is under
        // one round of a 256-router mesh, so a host that stalls the event
        // loop for a few tens of milliseconds at 1200x sheds updates.
        cfg.egress_cap = 4 * self.routers;
        cfg.collector = collector.clone();
        let (daemon, _) = timed("live.LiveDaemon::new", || LiveDaemon::new(cfg));
        let daemon = daemon.map_err(|e| format!("cannot boot the live daemon: {e}"))?;
        Ok((daemon, collector))
    }
}

/// One leg: the report, the daemon's `live.*` counters, and the wall
/// time of `LiveDaemon::run` itself.
struct Leg {
    report: LiveReport,
    counters: BTreeMap<String, u64>,
    run_s: f64,
}

impl Leg {
    fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Datagrams shed under overload or rejected as malformed.
    fn failures(&self) -> u64 {
        self.count("live.shed.ingress")
            + self.count("live.shed.egress")
            + self.count("live.codec.malformed")
    }

    /// The share of sends that failed, retries exhausted included.
    fn fail_pct(&self) -> f64 {
        let lost = self.failures() + self.count("live.retry.exhausted");
        100.0 * ratio(lost as f64, self.count("live.tx.datagrams") as f64)
    }
}

fn run_leg((mut daemon, collector): (LiveDaemon, Collector)) -> Result<Leg, String> {
    let (report, run_s) = timed("live.LiveDaemon::run", || daemon.run());
    let report = report.map_err(|e| format!("live daemon failed: {e}"))?;
    Ok(Leg {
        report,
        counters: collector.snapshot().counters,
        run_s,
    })
}

fn check_leg(cfg: &Config, k: usize, leg: &Leg, checks: &mut Checks) {
    let r = &leg.report;
    checks.attempted += leg.count("live.tx.datagrams");
    checks.failed += leg.failures();
    checks.require(r.outcome == LiveOutcome::Completed, || {
        format!("leg {k}: the daemon stopped early")
    });
    let routers: Vec<NodeId> = r.tables.keys().copied().collect();
    let incomplete = r
        .tables
        .values()
        .filter(|t| {
            routers
                .iter()
                .any(|&dst| t.metric(dst).is_none_or(|m| m >= INFINITY))
        })
        .count();
    checks.require(incomplete == 0, || {
        format!("leg {k}: {incomplete} routers lack a route to some other router")
    });
    checks.require(leg.count("live.codec.malformed") == 0, || {
        format!(
            "leg {k}: {} malformed datagrams",
            leg.count("live.codec.malformed")
        )
    });
    let expected = cfg.routers as f64 * cfg.horizon_s / TP_S;
    checks.require(
        (r.rounds as f64 - expected).abs() <= ROUNDS_TOLERANCE * expected,
        || {
            format!(
                "leg {k}: {} update rounds, expected {expected:.0} ± 3 %",
                r.rounds
            )
        },
    );
}

/// Encode and decode every router's full advertisement, built from the
/// final tables of a leg.
fn probe_codec(
    cfg: &Config,
    tables: &BTreeMap<NodeId, RoutingTable>,
    checks: &mut Checks,
    layers: &mut Metrics,
) {
    let advs: Vec<Advertisement> = tables
        .iter()
        .map(|(&id, t)| Advertisement {
            sender: id,
            seq: 1,
            delta: false,
            entries: t.advertisement(&[], false, INFINITY),
        })
        .collect();
    let frames: Vec<Vec<u8>> = advs.iter().map(Advertisement::encode).collect();
    let round_trips = advs
        .iter()
        .zip(&frames)
        .all(|(a, f)| Advertisement::decode(f).as_ref() == Ok(a));
    checks.require(round_trips, || {
        "an advertisement does not survive encode/decode".into()
    });

    let (_, encode_s) = timed("wire.Advertisement::encode", || {
        for _ in 0..cfg.codec_passes {
            for a in &advs {
                std::hint::black_box(a.encode());
            }
        }
    });
    let (_, decode_s) = timed("wire.Advertisement::decode", || {
        for _ in 0..cfg.codec_passes {
            for f in &frames {
                let _ = std::hint::black_box(Advertisement::decode(std::hint::black_box(f)));
            }
        }
    });
    let ops = (cfg.codec_passes * advs.len()) as f64;
    let entries: usize = advs.iter().map(|a| a.entries.len()).sum();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    layers.set("wire.encodes_per_s", "1/s", ratio(ops, encode_s));
    layers.set("wire.decodes_per_s", "1/s", ratio(ops, decode_s));
    layers.set(
        "wire.entries",
        "count",
        ratio(entries as f64, advs.len() as f64),
    );
    layers.set(
        "wire.bytes_per_adv",
        "B",
        ratio(bytes as f64, advs.len() as f64),
    );
}

/// Set-up split into its parts: the twin's prediction, and the daemon
/// with the twin off (binding and connecting the sockets).
fn probe_setup(cfg: &Config, seed: u64, setup_s: f64, layers: &mut Metrics) -> Result<(), String> {
    let spec = cfg.spec();
    let horizon = SimTime::from_secs_f64(cfg.horizon_s);
    let period_ns = Duration::from_secs_f64(TP_S).as_nanos();
    let mut twin_s = Vec::new();
    let mut bind_s = Vec::new();
    for _ in 0..SETUP_PROBES {
        let (_, s) = timed("live.TwinTrack::predict", || {
            TwinTrack::predict(&spec, seed, horizon, cfg.routers, period_ns)
        });
        twin_s.push(s);
        let (daemon, s) = timed("live.setup.bind", || {
            cfg.daemon(seed, TIME_SCALE, cfg.horizon_s, false)
        });
        daemon?;
        bind_s.push(s);
    }
    layers.set(
        "live.setup.twin_pct",
        "%",
        100.0 * ratio(median(&twin_s), setup_s),
    );
    layers.set(
        "live.setup.bind_pct",
        "%",
        100.0 * ratio(median(&bind_s), setup_s),
    );
    Ok(())
}

/// CPU utilisation and failures over a ladder of time scales; the fit of
/// utilisation against datagram rate over the steps without failures
/// separates the polling floor from the per-datagram cost.
fn probe_ladder(cfg: &Config, seed: u64, layers: &mut Metrics) -> Result<(), String> {
    let mut fit = Vec::new();
    let mut knee = 0.0;
    for scale in LADDER {
        let daemon = cfg.daemon(seed, scale, cfg.ladder_wall_s * scale, true)?;
        let (wall0, cpu0) = (std::time::Instant::now(), cpu_seconds());
        let (leg, _) = timed("live.ladder", || run_leg(daemon));
        let leg = leg?;
        let util = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
        let rate = leg.count("live.tx.datagrams") as f64 / wall0.elapsed().as_secs_f64();
        let step = format!("x{scale}");
        layers.set(format!("live.ladder.util.{step}"), "ratio", util);
        layers.set(format!("live.ladder.fail_pct.{step}"), "%", leg.fail_pct());
        let div = leg.report.max_divergence.unwrap_or(f64::INFINITY);
        if leg.failures() == 0 {
            fit.push((rate, util));
            if div <= TWIN_TOLERANCE {
                knee = scale;
            }
        }
    }
    layers.set("live.knee_scale", "x", knee);
    // Least squares util = a + b × rate.
    let k = fit.len() as f64;
    let (sx, sy) = fit
        .iter()
        .fold((0.0, 0.0), |(x, y), &(r, u)| (x + r, y + u));
    let (mx, my) = (ratio(sx, k), ratio(sy, k));
    let sxx: f64 = fit.iter().map(|&(r, _)| (r - mx).powi(2)).sum();
    let sxy: f64 = fit.iter().map(|&(r, u)| (r - mx) * (u - my)).sum();
    let slope = ratio(sxy, sxx);
    layers.set("live.cpu.fixed_util", "ratio", my - slope * mx);
    layers.set("live.cpu.datagrams_per_cpu_s", "1/s", ratio(1.0, slope));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = Config::new(ctx);
    let mut checks = Checks::default();
    let mut layers = Metrics::default();
    let setup = || cfg.daemon(ctx.seed, TIME_SCALE, cfg.horizon_s, true);

    let (untraced, traced) = ctx.measure(setup, run_leg)?;
    for (k, leg) in untraced.results.iter().enumerate() {
        check_leg(&cfg, k, leg, &mut checks);
    }

    if let Some(traced) = &traced {
        let legs = &traced.results;
        for (k, leg) in legs.iter().enumerate() {
            check_leg(&cfg, k, leg, &mut checks);
        }
        let s = &traced.samples;
        let per_leg = |f: &dyn Fn(&Leg, f64, f64) -> f64| -> f64 {
            let xs: Vec<f64> = legs
                .iter()
                .zip(s.run_s.iter().zip(&s.cpu_s))
                .map(|(leg, (&wall, &cpu))| f(leg, wall, cpu))
                .collect();
            median(&xs)
        };
        layers.set(
            "live.cpu_util",
            "ratio",
            per_leg(&|_, wall, cpu| cpu / wall),
        );
        layers.set(
            "live.rounds_per_cpu_s",
            "1/s",
            per_leg(&|leg, _, cpu| ratio(leg.report.rounds as f64, cpu)),
        );
        layers.set(
            "live.tx_per_s",
            "1/s",
            per_leg(&|leg, wall, _| leg.count("live.tx.datagrams") as f64 / wall),
        );
        layers.set(
            "live.rx_per_s",
            "1/s",
            per_leg(&|leg, wall, _| leg.count("live.codec.rx") as f64 / wall),
        );
        layers.set(
            "live.delivery_ratio",
            "ratio",
            per_leg(&|leg, _, _| {
                ratio(
                    leg.count("live.codec.rx") as f64,
                    leg.count("live.tx.datagrams") as f64,
                )
            }),
        );
        for name in [
            "live.retry.attempts",
            "live.retry.exhausted",
            "live.shed.ingress",
            "live.shed.egress",
            "live.overload.windows",
            "live.neighbor.timeouts",
        ] {
            layers.set(name, "count", per_leg(&|leg, _, _| leg.count(name) as f64));
        }
        layers.set("live.fail_pct", "%", per_leg(&|leg, _, _| leg.fail_pct()));
        let div_max = legs
            .iter()
            .filter_map(|leg| leg.report.max_divergence)
            .fold(0.0, f64::max);
        layers.set("live.twin.div_max", "ratio", div_max);
        layers.set(
            "obs.span_coverage",
            "ratio",
            per_leg(&|leg, wall, _| leg.run_s / wall),
        );

        let last = legs.last().expect("measure runs at least one unit");
        probe_codec(&cfg, &last.report.tables, &mut checks, &mut layers);
        probe_setup(&cfg, ctx.seed, median(&s.setup_s), &mut layers)?;
        probe_ladder(&cfg, ctx.seed, &mut layers)?;
    }

    let first = &untraced.results[0];
    Ok(Outcome {
        untraced: untraced.samples,
        traced: traced.map(|t| t.samples),
        checks,
        layers,
        details: vec![
            ("routers".into(), Value::U64(cfg.routers as u64)),
            ("horizon_s".into(), Value::F64(cfg.horizon_s)),
            ("time_scale".into(), Value::F64(TIME_SCALE)),
            ("rounds".into(), Value::U64(first.report.rounds)),
            (
                "counters".into(),
                Value::Object(
                    first
                        .counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::U64(v)))
                        .collect(),
                ),
            ),
        ],
        threads: 1,
    })
}
