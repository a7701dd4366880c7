//! Machine-readable performance benchmark: `BENCH_core.json`.
//!
//! ```text
//! cargo run --release -p routesync-bench --bin bench            # full run
//! cargo run --release -p routesync-bench --bin bench -- --fast  # CI smoke
//! cargo run --release -p routesync-bench --bin bench -- --out=path.json --obs=obs.json
//! ```
//!
//! The routebench benchmark (`examples/routebench`) times the engines, the
//! batched ensemble, parallel efficiency and netsim, with medians and
//! spreads. This binary measures only what routebench does not, and
//! writes it as one JSON object:
//! * `host_cpus`, `effective_cores` — how many workers this host can run
//!   at once.
//! * `ensemble` — a seed ensemble through `experiment::run_many` at one
//!   thread and at four, outputs asserted identical, and the speedup. CI
//!   gates that speedup on hosts with four or more effective cores.
//! * `obs` — the cost of a live collector on the fast engine, plus the
//!   counter rates and span breakdown the instrumented legs recorded
//!   (`--obs=PATH` dumps that registry snapshot).
//! * `supervision` — the cost of configuring limits (a watchdog and a
//!   deadline that never trip) on an ensemble through
//!   `routesync_exec::Ensemble`, outputs asserted identical. Budget: 2%.
//! * `phenomena` — events/second through each related-literature model
//!   (cascade rollback, two-type clocks, anonymous pulse sync), timed at
//!   the deterministic knob and at its jittered counterpart.
//!
//! Both overheads are paired medians. Each of 51 pairs runs the plain
//! leg A and the instrumented (or supervised) leg B, cut into 64 slices
//! run A/B alternately, and gives one (B − A)/A; the report holds the
//! median over the pairs and their interquartile range. Under `--fast`
//! each leg, like the serial ensemble leg, lasts at least 0.2 s on a
//! 2-vCPU x86-64 VM.
//!
//! Any other argument is a usage error (exit 2), reported before anything
//! is measured or written.

use std::collections::BTreeMap;
use std::time::Instant;

use routesync_core::{
    experiment, FastModel, NullRecorder, PeriodicModel, PeriodicParams, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_exec::telemetry::{Outputs, Session};
use routesync_phenomena::{
    CascadeParams, CascadeSim, ExchangeSchedule, PulseParams, PulseSim, TwoTypeParams, TwoTypeSim,
};
use routesync_stats::moments::quantile;
use serde::Serialize;

/// The machine-readable report written to `BENCH_core.json`.
#[derive(Serialize)]
struct Report {
    fast: bool,
    host_cpus: usize,
    effective_cores: usize,
    ensemble: EnsembleSection,
    obs: ObsSection,
    supervision: SupervisionSection,
    phenomena: PhenomenaSection,
}

/// Throughput of the related-literature phenomena models
/// (`routesync_phenomena`), one entry per model. Events are each model's
/// natural work units: per-round processor advances plus event messages
/// for cascade, rounds plus exchanges for two-type, per-round broadcasts
/// for pulse.
#[derive(Serialize)]
struct PhenomenaSection {
    cascade: PhenomenaEntry,
    two_type: PhenomenaEntry,
    pulse: PhenomenaEntry,
}

/// One phenomena model timed at its deterministic knob (cascade: no
/// advance jitter, two-type: periodic exchanges, pulse: zero drift) and
/// at the jittered counterpart.
#[derive(Serialize)]
struct PhenomenaEntry {
    rounds: u64,
    deterministic_events_per_sec: f64,
    jittered_events_per_sec: f64,
}

/// Supervision benchmark: one ensemble through `Ensemble` with no limits
/// (`unsupervised`) and with a watchdog and a deadline configured that
/// never trip (`supervised`), as paired medians, with the simulation
/// outputs asserted identical in every pair.
#[derive(Serialize)]
struct SupervisionSection {
    pairs: usize,
    /// Median wall time of each arm.
    unsupervised_wall_secs: f64,
    supervised_wall_secs: f64,
    /// Median over the pairs of the supervised arm's relative cost, in
    /// percent. Can go slightly negative from wall-clock noise.
    overhead_pct: f64,
    /// Interquartile range of the pairs' relative costs, in percent.
    overhead_iqr_pct: f64,
    outputs_identical: bool,
}

/// A seed ensemble through `experiment::run_many` at one thread and at
/// `parallel_threads`, outputs asserted identical before the speedup is
/// reported.
#[derive(Serialize)]
struct EnsembleSection {
    seeds: usize,
    serial_threads: usize,
    parallel_threads: usize,
    serial_wall_secs: f64,
    parallel_wall_secs: f64,
    speedup: f64,
    outputs_identical: bool,
}

/// Instrumentation-layer benchmark: the same fast-engine leg with the
/// collector disabled and enabled, as paired medians, plus a registry
/// summary of everything the instrumented legs recorded.
#[derive(Serialize)]
struct ObsSection {
    pairs: usize,
    /// Median wall time of each arm.
    disabled_wall_secs: f64,
    enabled_wall_secs: f64,
    /// Median over the pairs of the enabled arm's relative cost, in
    /// percent. Can go slightly negative from wall-clock noise.
    overhead_pct: f64,
    /// Interquartile range of the pairs' relative costs, in percent.
    overhead_iqr_pct: f64,
    /// Counter events per second of wall time from the first paired leg
    /// to the snapshot, grouped by subsystem prefix (`desim`, `netsim`,
    /// `core`, `exec`). Time counters (names ending `_ns`, such as
    /// `exec.worker.busy_ns`) are not events and are left out.
    events_per_sec: BTreeMap<String, f64>,
    /// Accumulated wall time per `obs::span!` label.
    span_breakdown: BTreeMap<String, routesync_obs::SpanSnapshot>,
}

/// What [`paired`] measured: the median wall of each arm and the median
/// and interquartile range of the pairs' (B − A)/A, in percent.
struct Paired {
    a_wall: f64,
    b_wall: f64,
    overhead_pct: f64,
    overhead_iqr_pct: f64,
}

/// [`PAIRS`] pairs of runs of arm A and arm B, after one warm-up slice
/// of each. Each arm of a pair is [`SLICES`] slices, `a(s)` and `b(s)`
/// run back to back, in alternating order so that neither arm always
/// runs second; a pair gives one (B − A)/A of the arms' summed walls.
/// The slices interleave the arms finely enough that a shift in the
/// host's speed during a pair slows both alike. Slice outputs are
/// asserted equal.
fn paired<T: PartialEq + std::fmt::Debug>(
    mut a: impl FnMut(usize) -> T,
    mut b: impl FnMut(usize) -> T,
    what: &str,
) -> Paired {
    fn timed<T>(leg: &mut impl FnMut(usize) -> T, s: usize, wall: &mut f64) -> T {
        let t0 = Instant::now();
        let out = leg(s);
        *wall += t0.elapsed().as_secs_f64();
        out
    }
    a(0);
    b(0);
    let (mut a_walls, mut b_walls, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PAIRS {
        let (mut a_wall, mut b_wall) = (0.0, 0.0);
        for s in 0..SLICES {
            let (a_out, b_out) = if (i * SLICES + s).is_multiple_of(2) {
                let first = timed(&mut a, s, &mut a_wall);
                (first, timed(&mut b, s, &mut b_wall))
            } else {
                let first = timed(&mut b, s, &mut b_wall);
                (timed(&mut a, s, &mut a_wall), first)
            };
            assert_eq!(a_out, b_out, "{what} changed the simulation results");
        }
        a_walls.push(a_wall);
        b_walls.push(b_wall);
        ratios.push((b_wall - a_wall) / a_wall * 100.0);
    }
    let q = |xs: &[f64], p: f64| quantile(xs, p).expect("at least one pair");
    Paired {
        a_wall: q(&a_walls, 0.5),
        b_wall: q(&b_walls, 0.5),
        overhead_pct: q(&ratios, 0.5),
        overhead_iqr_pct: q(&ratios, 0.75) - q(&ratios, 0.25),
    }
}

fn paper_params(n: usize) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs_f64(121.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(0.1),
    )
}

const USAGE: &str = "usage: bench [--fast] [--out=PATH.json] [--obs=PATH.json]\n";

/// Pairs behind each overhead figure, and the slices each arm of a pair
/// is cut into.
const PAIRS: usize = 51;
const SLICES: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &str| a == "--fast" || a.starts_with("--out=") || a.starts_with("--obs=");
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        eprintln!("bench: unknown argument `{bad}`");
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let fast = args.iter().any(|a| a == "--fast");
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_core.json")
        .to_string();
    let obs_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--obs="))
        .map(str::to_string);

    let n = 20;
    // Simulated seconds per timed leg: under `--fast` each leg lasts at
    // least 0.2 s, in the full run about five times as long.
    let scale = if fast { 1 } else { 5 };
    let host_cpus = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    // --- serial vs parallel ensemble -----------------------------------
    let seeds: Vec<u64> = (0..16).collect();
    let parallel_threads = 4;
    let ens_horizon = SimTime::from_secs(scale * 6_000_000);
    let run_one = |m: &mut FastModel, _seed: u64| {
        let end = m.run(ens_horizon, &mut NullRecorder);
        (m.sends(), end.as_nanos())
    };
    let ensemble_at = |threads: usize| {
        let t0 = Instant::now();
        let out = experiment::run_many(
            paper_params(n),
            StartState::Unsynchronized,
            &seeds,
            threads,
            run_one,
        );
        (out, t0.elapsed().as_secs_f64())
    };
    let (serial, serial_wall) = ensemble_at(1);
    let (parallel, parallel_wall) = ensemble_at(parallel_threads);
    assert_eq!(
        serial, parallel,
        "parallel ensemble diverged from the serial run"
    );
    let ensemble = EnsembleSection {
        seeds: seeds.len(),
        serial_threads: 1,
        parallel_threads,
        serial_wall_secs: serial_wall,
        parallel_wall_secs: parallel_wall,
        speedup: serial_wall / parallel_wall,
        outputs_identical: true,
    };

    // --- instrumentation overhead ---------------------------------------
    // The fast engine with the collector disabled (A) and with a live
    // collector (B), one seed per slice.
    let obs_horizon = SimTime::from_secs(scale * 80_000_000 / SLICES as u64);
    let live = routesync_obs::Collector::enabled();
    let instrumented_start = Instant::now();
    let run_leg = |s: usize| {
        let mut model = FastModel::new(paper_params(n), StartState::Unsynchronized, s as u64);
        let end = model.run(obs_horizon, &mut NullRecorder);
        (model.sends(), end.as_nanos())
    };
    let obs = paired(
        run_leg,
        |s| {
            let _scope = routesync_obs::scoped(live.clone());
            run_leg(s)
        },
        "enabling instrumentation",
    );
    // Everything from here on records into the live collector.
    let _scope = routesync_obs::scoped(live.clone());

    // --- supervision overhead --------------------------------------------
    // One ensemble through the runner without limits (A) and with a
    // watchdog and a wall-clock deadline set far beyond what any cell
    // reaches (B), each cell charging its sends to the watchdog. One
    // worker, so the pairs compare the supervision boundary, not where
    // the host placed the workers.
    let limits = routesync_exec::SuperviseConfig::default()
        .with_watchdog_steps(u64::MAX / 2)
        .with_deadline(std::time::Duration::from_secs(24 * 3600));
    let sup_horizon = SimTime::from_secs(scale * 7_000_000 / SLICES as u64);
    let run_leg = |limits: routesync_exec::SuperviseConfig| {
        routesync_exec::Ensemble::new(&seeds)
            .threads(1)
            .limits(limits)
            .run(
                || FastModel::new(paper_params(n), StartState::Unsynchronized, 0),
                |m, ctx, _i, &seed| {
                    m.reset(&StartState::Unsynchronized, seed);
                    let end = m.run(sup_horizon, &mut NullRecorder);
                    ctx.ticks(m.sends());
                    (m.sends(), end.as_nanos())
                },
            )
            .into_values()
    };
    let sup = paired(
        |_| run_leg(routesync_exec::SuperviseConfig::default()),
        |_| run_leg(limits.clone()),
        "configuring limits",
    );
    let supervision = SupervisionSection {
        pairs: PAIRS,
        unsupervised_wall_secs: sup.a_wall,
        supervised_wall_secs: sup.b_wall,
        overhead_pct: sup.overhead_pct,
        overhead_iqr_pct: sup.overhead_iqr_pct,
        outputs_identical: true,
    };

    // --- phenomena model throughput --------------------------------------
    // The related-literature models, each at its deterministic knob and
    // at the jittered counterpart. These are single short runs: the
    // numbers situate the models' cost rather than gate anything.
    let phen_seed = 1993u64;
    let cascade_rounds: u64 = if fast { 20_000 } else { 200_000 };
    let cascade_n = 16usize;
    let run_cascade = |advance_jitter: f64| {
        let mut rng = routesync_rng::stream(phen_seed, 1);
        let params = CascadeParams {
            advance_jitter,
            ..CascadeParams::unsynchronized(cascade_n, 0.2, 2)
        };
        let mut sim = CascadeSim::new(params, &mut rng);
        let t0 = Instant::now();
        let report = sim.run(cascade_rounds, &mut rng);
        let events = report.rounds * cascade_n as u64 + report.messages;
        events as f64 / t0.elapsed().as_secs_f64()
    };
    let two_type_rounds: u64 = if fast { 2_000_000 } else { 10_000_000 };
    let run_two_type = |schedule: ExchangeSchedule| {
        let mut rng = routesync_rng::stream(phen_seed, 2);
        let mut sim = TwoTypeSim::new(TwoTypeParams::unit_jump(0.01, schedule));
        let t0 = Instant::now();
        let report = sim.run(two_type_rounds, &mut rng);
        (report.rounds + report.exchanges) as f64 / t0.elapsed().as_secs_f64()
    };
    let pulse_rounds: u64 = if fast { 5_000 } else { 50_000 };
    let pulse_n = 16usize;
    let run_pulse = |drift: f64| {
        let mut rng = routesync_rng::stream(phen_seed, 3);
        let params = PulseParams {
            drift,
            initial_spread: 1_000.0,
            ..PulseParams::fault_free(pulse_n)
        };
        let mut sim = PulseSim::new(params, &mut rng);
        let t0 = Instant::now();
        let report = sim.run(pulse_rounds, &mut rng);
        (report.rounds * pulse_n as u64) as f64 / t0.elapsed().as_secs_f64()
    };
    let phenomena = PhenomenaSection {
        cascade: PhenomenaEntry {
            rounds: cascade_rounds,
            deterministic_events_per_sec: run_cascade(0.0),
            jittered_events_per_sec: run_cascade(0.5),
        },
        two_type: PhenomenaEntry {
            rounds: two_type_rounds,
            deterministic_events_per_sec: run_two_type(ExchangeSchedule::Periodic { every: 50 }),
            jittered_events_per_sec: run_two_type(ExchangeSchedule::Bernoulli { p: 0.02 }),
        },
        pulse: PhenomenaEntry {
            rounds: pulse_rounds,
            deterministic_events_per_sec: run_pulse(0.0),
            jittered_events_per_sec: run_pulse(0.5),
        },
    };

    // Short instrumented passes through the remaining subsystems so the
    // registry snapshot covers desim, netsim, and exec too.
    let mut model = PeriodicModel::new(paper_params(n), StartState::Unsynchronized, 1993);
    model.run(SimTime::from_secs(5_000), &mut NullRecorder);
    let scen = routesync_netsim::ScenarioSpec::lan(8, Duration::from_secs_f64(0.1))
        .with_start(routesync_netsim::TimerStart::Unsynchronized)
        .build(1993);
    let mut sim = scen.sim;
    sim.run_until(SimTime::from_secs(120));
    ensemble_at(parallel_threads);
    let instrumented_wall = instrumented_start.elapsed().as_secs_f64();

    let snapshot = live.snapshot();
    let mut events_per_sec: BTreeMap<String, f64> = BTreeMap::new();
    let events = snapshot
        .counters
        .iter()
        .filter(|(n, _)| !n.ends_with("_ns"));
    for (name, total) in events {
        let subsystem = name.split('.').next().unwrap_or(name).to_string();
        *events_per_sec.entry(subsystem).or_insert(0.0) += *total as f64 / instrumented_wall;
    }

    let report = Report {
        fast,
        host_cpus,
        effective_cores: host_cpus,
        ensemble,
        obs: ObsSection {
            pairs: PAIRS,
            disabled_wall_secs: obs.a_wall,
            enabled_wall_secs: obs.b_wall,
            overhead_pct: obs.overhead_pct,
            overhead_iqr_pct: obs.overhead_iqr_pct,
            events_per_sec,
            span_breakdown: snapshot.spans.clone(),
        },
        supervision,
        phenomena,
    };
    let body = serde_json::to_string_pretty(&report).expect("serialize bench report");
    routesync_exec::atomic_write(std::path::Path::new(&out), body.as_bytes())
        .expect("write bench json");
    println!("{body}");
    eprintln!("wrote {out}");
    let obs = Outputs {
        snapshot: obs_path.clone().map(Into::into),
        ..Outputs::default()
    };
    Session::export("bench", obs, live)
        .and_then(|telemetry| telemetry.write())
        .expect("write --obs snapshot");
    if let Some(path) = obs_path {
        eprintln!("wrote {path}");
    }
}
