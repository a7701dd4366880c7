//! Machine-readable performance benchmark: `BENCH_core.json`.
//!
//! ```text
//! cargo run --release -p routesync-bench --bin bench            # full run
//! cargo run --release -p routesync-bench --bin bench -- --fast  # CI smoke
//! cargo run --release -p routesync-bench --bin bench -- --out=path.json
//! ```
//!
//! Measures, and writes as one JSON object:
//! * `core_events_per_sec` — timer events/second through the fast
//!   (heap-only) Periodic Messages engine.
//! * `desim_events_per_sec` — the same model through the full desim
//!   engine (its radix-queue scheduler behind [`routesync_core::PeriodicModel`]).
//! * `netsim_packets_per_sec` — packet events/second through the
//!   packet-level simulator on a LAN scenario with ping + Poisson load.
//! * `netsim_scale` — the internet-scale leg: the hierarchical scenario
//!   (√n totally-stubby areas behind a backbone LAN) run to five DECnet
//!   rounds at n = 1 000 and 10 000 (plus 100 000 in the full run), with
//!   wall time, events/second, and resident-set size from
//!   `/proc/self/status` (0.0 where unavailable).
//! * `figure_wall_secs` — wall time to regenerate a representative figure
//!   (fig4, fast config).
//! * `parallel_speedup` — serial vs all-cores wall-time ratio for a seed
//!   ensemble through `routesync_exec`, after asserting the outputs are
//!   bit-identical.
//! * `batched` — blocks of cells (`routesync_core::BatchedEnsemble`, each
//!   block's cells run through one reused `FastModel`) against one cell
//!   per work item on the same single-thread ensemble, outputs asserted
//!   identical; expect `speedup_vs_scalar` near 1 (see
//!   `docs/PERFORMANCE.md`).
//! * `thread_sweep` — both engines at 1/2/4/8 workers with per-thread
//!   speedups; `effective_cores` says how many of those workers can
//!   actually run at once on this host.
//! * `supervision.overhead_pct` — relative cost of configuring limits
//!   (a watchdog and a deadline that never trip) on the same ensemble
//!   through `routesync_exec::Ensemble`, after asserting the outputs are
//!   identical. Target: under 2%.
//! * `phenomena` — events/second through each related-literature model
//!   (cascade rollback, two-type clocks, anonymous pulse sync), timed at
//!   the deterministic knob and at its jittered counterpart.
//!
//! All numbers are throughputs of this machine, not simulation results;
//! the simulation results themselves are asserted equal where parallelism
//! is involved.
//!
//! `--compare=OLD.json` skips the benchmarks and instead diffs OLD
//! against the report named by `--out=` (default `BENCH_core.json`),
//! printing per-metric deltas. A >10% regression of
//! `core_events_per_sec` is reported as a warning on stderr but never
//! changes the exit code — benchmark noise across machines must not
//! fail a build.

use std::collections::BTreeMap;
use std::time::Instant;

use routesync_core::{
    experiment, Engine, FastModel, NullRecorder, PeriodicModel, PeriodicParams, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_phenomena::{
    CascadeParams, CascadeSim, ExchangeSchedule, PulseParams, PulseSim, TwoTypeParams, TwoTypeSim,
};
use serde::Serialize;

/// The machine-readable report written to `BENCH_core.json`.
#[derive(Serialize)]
struct Report {
    fast: bool,
    core_events_per_sec: f64,
    desim_events_per_sec: f64,
    netsim_packets_per_sec: f64,
    netsim_scale: Vec<ScaleEntry>,
    figure_wall_secs: f64,
    ensemble: Ensemble,
    parallel_speedup: f64,
    host_cpus: usize,
    effective_cores: usize,
    batched: BatchedSection,
    thread_sweep: Vec<ThreadSweepEntry>,
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

/// One N of the internet-scale netsim leg: the hierarchical scenario run
/// to `horizon_secs` simulated seconds, with throughput and memory.
#[derive(Serialize)]
struct ScaleEntry {
    n: usize,
    areas: usize,
    horizon_secs: u64,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    /// Resident set size right after the run, MiB (0.0 off Linux).
    rss_mb: f64,
    /// Process-lifetime peak RSS, MiB (0.0 off Linux).
    peak_rss_mb: f64,
}

/// Blocks of cells vs one cell per work item on the same single-thread
/// ensemble workload, interleaved best-of reps, outputs asserted
/// identical before any throughput is reported.
#[derive(Serialize)]
struct BatchedSection {
    width: usize,
    seeds: usize,
    scalar_wall_secs: f64,
    batched_wall_secs: f64,
    scalar_events_per_sec: f64,
    batched_events_per_sec: f64,
    speedup_vs_scalar: f64,
    outputs_identical: bool,
}

/// One thread count of the ensemble thread sweep: both engines through
/// `routesync_exec::Ensemble` (per-item claiming), speedups relative to the
/// engine's own single-thread wall.
#[derive(Serialize)]
struct ThreadSweepEntry {
    threads: usize,
    scalar_wall_secs: f64,
    batched_wall_secs: f64,
    scalar_speedup: f64,
    batched_speedup: f64,
    outputs_identical: bool,
}

/// Supervision benchmark: the parallel ensemble leg run through
/// `Ensemble` with no limits (`unsupervised`) and with a watchdog and a
/// deadline configured that never trip (`supervised`), interleaved
/// best-of reps, with the simulation outputs asserted identical. The
/// limits' target is <2% overhead on this hot path.
#[derive(Serialize)]
struct SupervisionSection {
    unsupervised_wall_secs: f64,
    supervised_wall_secs: f64,
    /// Relative cost of the supervision boundary, in percent. Can go
    /// slightly negative from wall-clock noise.
    overhead_pct: f64,
    outputs_identical: bool,
}

#[derive(Serialize)]
struct Ensemble {
    seeds: usize,
    serial_threads: usize,
    parallel_threads: usize,
    serial_wall_secs: f64,
    parallel_wall_secs: f64,
    outputs_identical: bool,
}

/// Instrumentation-layer benchmark: the same fast-engine leg timed with
/// the collector disabled and then enabled, plus a registry summary of
/// everything the instrumented legs recorded.
#[derive(Serialize)]
struct ObsSection {
    disabled_wall_secs: f64,
    enabled_wall_secs: f64,
    /// Relative cost of enabling instrumentation on the hottest leg, in
    /// percent. Can go slightly negative from wall-clock noise.
    overhead_pct: f64,
    /// Counter events per second of instrumented wall time, grouped by
    /// subsystem prefix (`desim`, `netsim`, `core`, `exec`).
    events_per_sec: BTreeMap<String, f64>,
    /// Accumulated wall time per `obs::span!` label.
    span_breakdown: BTreeMap<String, routesync_obs::SpanSnapshot>,
}

/// Counts `on_send` callbacks (one per routing-timer firing).
#[derive(Default)]
struct CountSends(u64);

impl routesync_core::Recorder for CountSends {
    fn on_send(&mut self, _t: SimTime, _node: routesync_core::NodeId) {
        self.0 += 1;
    }
    fn reset(&mut self) {
        self.0 = 0;
    }
}

/// Flatten every numeric leaf of a JSON tree into `(dotted.path, value)`
/// pairs, arrays indexed as `path[i]`.
fn numeric_leaves(prefix: &str, v: &serde_json::Value, out: &mut Vec<(String, f64)>) {
    use serde_json::Value;
    match v {
        Value::U64(x) => out.push((prefix.to_string(), *x as f64)),
        Value::I64(x) => out.push((prefix.to_string(), *x as f64)),
        Value::F64(x) => out.push((prefix.to_string(), *x)),
        Value::Object(fields) => {
            for (k, vv) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(&path, vv, out);
            }
        }
        Value::Array(items) => {
            for (i, vv) in items.iter().enumerate() {
                numeric_leaves(&format!("{prefix}[{i}]"), vv, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Metrics where a *decrease* is a regression (throughputs, speedups);
/// everything else (walls, overheads) regresses when it increases.
fn higher_is_better(path: &str) -> bool {
    path.ends_with("per_sec") || path.contains("speedup")
}

/// `--compare` mode: diff two bench reports, warn (never fail) on a >10%
/// regression of the headline `core_events_per_sec`.
fn compare(old_path: &str, new_path: &str) {
    let load = |path: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench: cannot read {path}: {e}");
            std::process::exit(1);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("bench: {path} is not valid JSON: {e}");
            std::process::exit(1);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    numeric_leaves("", &old, &mut old_leaves);
    numeric_leaves("", &new, &mut new_leaves);
    let old_map: BTreeMap<&str, f64> = old_leaves.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let new_map: BTreeMap<&str, f64> = new_leaves.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    println!("bench compare: {old_path} (old) vs {new_path} (new)");
    println!(
        "{:<48} {:>14} {:>14} {:>9}",
        "metric", "old", "new", "delta"
    );
    for (path, old_v) in &old_map {
        let Some(new_v) = new_map.get(path) else {
            continue;
        };
        let delta = if *old_v == 0.0 {
            if *new_v == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (new_v - old_v) / old_v * 100.0
        };
        println!("{path:<48} {old_v:>14.4} {new_v:>14.4} {delta:>+8.1}%");
    }
    for path in old_map.keys() {
        if !new_map.contains_key(path) {
            println!("{path:<48} (removed in new report)");
        }
    }
    for path in new_map.keys() {
        if !old_map.contains_key(path) {
            println!("{path:<48} (new metric)");
        }
    }

    let headline = "core_events_per_sec";
    match (old_map.get(headline), new_map.get(headline)) {
        (Some(&old_v), Some(&new_v)) if old_v > 0.0 => {
            let change = (new_v - old_v) / old_v * 100.0;
            let regressed = if higher_is_better(headline) {
                change < -10.0
            } else {
                change > 10.0
            };
            if regressed {
                eprintln!(
                    "bench: WARNING: {headline} regressed {change:+.1}% \
                     ({old_v:.0} -> {new_v:.0}, threshold 10%)"
                );
            } else {
                eprintln!("bench: {headline} within threshold ({change:+.1}%)");
            }
        }
        _ => eprintln!("bench: WARNING: {headline} missing from one of the reports"),
    }
}

/// Current and peak resident set size in MiB from `/proc/self/status`
/// (`VmRSS` / `VmHWM`); `(0.0, 0.0)` where that file does not exist.
fn rss_mb() -> (f64, f64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0.0, 0.0);
    };
    let grab = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (grab("VmRSS:"), grab("VmHWM:"))
}

fn paper_params(n: usize) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs_f64(121.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(0.1),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    if let Some(old_path) = args.iter().find_map(|a| a.strip_prefix("--compare=")) {
        compare(old_path, &out);
        return;
    }

    let horizon_secs: u64 = if fast { 50_000 } else { 500_000 };
    let n = 20;

    // --- fast engine ---------------------------------------------------
    let mut rec = CountSends::default();
    let mut model = FastModel::new(paper_params(n), StartState::Unsynchronized, 1993);
    let t0 = Instant::now();
    model.run(SimTime::from_secs(horizon_secs), &mut rec);
    let fast_wall = t0.elapsed().as_secs_f64();
    let core_events_per_sec = rec.0 as f64 / fast_wall;

    // --- desim engine --------------------------------------------------
    let mut rec = CountSends::default();
    let mut model = PeriodicModel::new(paper_params(n), StartState::Unsynchronized, 1993);
    let t0 = Instant::now();
    model.run(SimTime::from_secs(horizon_secs), &mut rec);
    let desim_wall = t0.elapsed().as_secs_f64();
    let desim_events_per_sec = rec.0 as f64 / desim_wall;

    // --- netsim --------------------------------------------------------
    let scen = routesync_netsim::ScenarioSpec::lan(8, Duration::from_secs_f64(0.1))
        .with_start(routesync_netsim::TimerStart::Unsynchronized)
        .build(1993);
    let mut sim = scen.sim;
    let first = scen.routers[0];
    let last = *scen.routers.last().expect("lan has routers");
    sim.add_ping(
        first,
        last,
        Duration::from_secs_f64(1.01),
        if fast { 500 } else { 3_000 },
        SimTime::from_secs(1),
    );
    let net_horizon = if fast { 600 } else { 3_600 };
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(net_horizon));
    let net_wall = t0.elapsed().as_secs_f64();
    let c = sim.counters();
    let packets = c.sent + c.forwarded + c.delivered + c.updates_processed + c.hellos_sent;
    let netsim_packets_per_sec = packets as f64 / net_wall;

    // --- internet-scale netsim -------------------------------------------
    // The hierarchical scenario (√n totally-stubby star areas on one
    // backbone LAN, incremental triggered updates) run to five DECnet
    // rounds per N. RSS is read while the simulator is still alive, so
    // the number covers the topology arenas, the routing tables, and the
    // event queue together.
    let scale_ns: &[usize] = if fast {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let scale_horizon = 600u64;
    let mut netsim_scale = Vec::new();
    for &sn in scale_ns {
        let areas = ((sn as f64).sqrt().round() as usize).clamp(2, sn);
        let mut scen = routesync_netsim::ScenarioSpec::hierarchical_for(sn).build(1993);
        let t0 = Instant::now();
        scen.sim.run_until(SimTime::from_secs(scale_horizon));
        let wall_secs = t0.elapsed().as_secs_f64();
        let events = scen.sim.events_processed();
        let (rss, peak) = rss_mb();
        netsim_scale.push(ScaleEntry {
            n: sn,
            areas,
            horizon_secs: scale_horizon,
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
            rss_mb: rss,
            peak_rss_mb: peak,
        });
    }

    // --- one full figure -----------------------------------------------
    let mut cfg = routesync_bench::Config::fast();
    cfg.out_dir = std::env::temp_dir().join("routesync-bench-json");
    let t0 = Instant::now();
    let outcome = routesync_bench::run("fig4", &cfg);
    let figure_wall_secs = t0.elapsed().as_secs_f64();
    assert!(
        outcome.passed(),
        "fig4 failed its shape check:\n{}",
        outcome.report()
    );

    // --- serial vs parallel ensemble -----------------------------------
    let seeds: Vec<u64> = (0..if fast { 16 } else { 64 }).collect();
    let ens_horizon = SimTime::from_secs(if fast { 30_000 } else { 100_000 });
    let run_one = |m: &mut FastModel, _seed: u64| {
        let mut rec = CountSends::default();
        let end = m.run(ens_horizon, &mut rec);
        (rec.0, end.as_nanos())
    };
    let t0 = Instant::now();
    let serial = experiment::run_many(
        paper_params(n),
        StartState::Unsynchronized,
        &seeds,
        1,
        run_one,
    );
    let serial_wall = t0.elapsed().as_secs_f64();
    let threads = routesync_exec::resolve_threads(None);
    let t0 = Instant::now();
    let parallel = experiment::run_many(
        paper_params(n),
        StartState::Unsynchronized,
        &seeds,
        threads,
        run_one,
    );
    let parallel_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "parallel ensemble diverged from the serial run"
    );
    let parallel_speedup = serial_wall / parallel_wall;

    // --- batched blocks vs scalar cells -----------------------------------
    // The same ensemble workload through both engines at one thread, so
    // the ratio isolates how work is split (blocks of cells vs one cell
    // per item, both on the one FastModel kernel) from parallelism.
    // Interleaved best-of reps cancel frequency drift; outputs are
    // compared before any throughput is believed.
    let batch_seeds: Vec<u64> = (0..if fast { 64 } else { 256 }).collect();
    let batch_width = routesync_core::batch::DEFAULT_WIDTH;
    let run_engine = |engine: &dyn Fn(usize) -> Vec<(u64, u64, u64)>, threads: usize| {
        let t0 = Instant::now();
        let out = engine(threads);
        (out, t0.elapsed().as_secs_f64())
    };
    let engine_run = |engine: Engine, threads: usize| {
        experiment::run_ensemble(
            engine,
            paper_params(n),
            &StartState::Unsynchronized,
            &batch_seeds,
            ens_horizon,
            threads,
            |_| NullRecorder,
            |out, _| (out.seed, out.sends, out.now.as_nanos()),
        )
    };
    let scalar_engine = |threads: usize| engine_run(Engine::Scalar, threads);
    let batched_engine = |threads: usize| engine_run(Engine::Batched, threads);
    let reps = if fast { 3 } else { 5 };
    scalar_engine(1); // warm-up
    let mut scalar_wall = f64::INFINITY;
    let mut batched_wall = f64::INFINITY;
    let mut scalar_out = Vec::new();
    let mut batched_out = Vec::new();
    for _ in 0..reps {
        let (out, wall) = run_engine(&scalar_engine, 1);
        scalar_out = out;
        scalar_wall = scalar_wall.min(wall);
        let (out, wall) = run_engine(&batched_engine, 1);
        batched_out = out;
        batched_wall = batched_wall.min(wall);
    }
    assert_eq!(
        scalar_out, batched_out,
        "batched engine diverged from scalar on the bench ensemble"
    );
    let total_events: u64 = scalar_out.iter().map(|(_, sends, _)| sends).sum();
    let batched = BatchedSection {
        width: batch_width,
        seeds: batch_seeds.len(),
        scalar_wall_secs: scalar_wall,
        batched_wall_secs: batched_wall,
        scalar_events_per_sec: total_events as f64 / scalar_wall,
        batched_events_per_sec: total_events as f64 / batched_wall,
        speedup_vs_scalar: scalar_wall / batched_wall,
        outputs_identical: true,
    };

    // --- ensemble thread sweep -------------------------------------------
    // Both engines at 1/2/4/8 workers through the ensemble runner's
    // per-item claiming. Speedups are relative to the engine's own
    // single-thread wall (measured above), outputs asserted identical to
    // the serial reference at every thread count. On boxes with fewer
    // cores than workers the extra threads just time-slice; the CI gate
    // reads `effective_cores` before judging the 4-thread speedup.
    let host_cpus = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut thread_sweep = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let sweep_reps = if fast { 2 } else { 3 };
        let mut s_wall = f64::INFINITY;
        let mut b_wall = f64::INFINITY;
        let mut identical = true;
        for _ in 0..sweep_reps {
            let (out, wall) = run_engine(&scalar_engine, threads);
            identical &= out == scalar_out;
            s_wall = s_wall.min(wall);
            let (out, wall) = run_engine(&batched_engine, threads);
            identical &= out == scalar_out;
            b_wall = b_wall.min(wall);
        }
        assert!(
            identical,
            "engine output changed with thread count ({threads} threads)"
        );
        thread_sweep.push(ThreadSweepEntry {
            threads,
            scalar_wall_secs: s_wall,
            batched_wall_secs: b_wall,
            scalar_speedup: scalar_wall / s_wall,
            batched_speedup: batched_wall / b_wall,
            outputs_identical: identical,
        });
    }

    // --- instrumentation overhead ---------------------------------------
    // Time the hottest leg (fast engine) with the collector disabled and
    // with a live collector, asserting the simulation results are
    // bit-identical either way. Reps interleave disabled/enabled (taking
    // the best of each) so clock-frequency drift hits both sides equally
    // instead of biasing whichever leg runs later.
    let obs_horizon = SimTime::from_secs(horizon_secs * 20);
    let reps = 7;
    let live = routesync_obs::Collector::enabled();
    let instrumented_start = Instant::now();
    let run_leg = || {
        let mut rec = CountSends::default();
        let mut model = FastModel::new(paper_params(n), StartState::Unsynchronized, 1993);
        let t0 = Instant::now();
        let end = model.run(obs_horizon, &mut rec);
        (rec.0, end.as_nanos(), t0.elapsed().as_secs_f64())
    };
    let mut disabled_wall = f64::INFINITY;
    let mut enabled_wall = f64::INFINITY;
    let mut off_result = (0u64, 0u64);
    let mut on_result = (0u64, 0u64);
    run_leg(); // warm-up: caches, frequency scaling
    for _ in 0..reps {
        routesync_obs::install(routesync_obs::Collector::disabled());
        let (sends, end, wall) = run_leg();
        off_result = (sends, end);
        disabled_wall = disabled_wall.min(wall);
        routesync_obs::install(live.clone());
        let (sends, end, wall) = run_leg();
        on_result = (sends, end);
        enabled_wall = enabled_wall.min(wall);
    }
    assert_eq!(
        off_result, on_result,
        "enabling instrumentation changed simulation results"
    );
    let overhead_pct = (enabled_wall - disabled_wall) / disabled_wall * 100.0;

    // --- supervision overhead --------------------------------------------
    // The same ensemble leg through the one runner twice: once with no
    // limits, once with a watchdog and a wall-clock deadline configured
    // (set far beyond what any cell reaches, so neither ever trips), each
    // cell charging its sends to the watchdog. Reps interleave the legs
    // best-of for the same drift-cancellation reason as the obs legs, and
    // the simulation outputs are asserted identical. Target: <2% overhead.
    let limits = routesync_exec::SuperviseConfig::default()
        .with_watchdog_steps(u64::MAX / 2)
        .with_deadline(std::time::Duration::from_secs(24 * 3600));
    // Long enough that per-cell supervision bookkeeping (a catch_unwind
    // frame and a few branches) is measured against real work, not
    // against scheduler noise — a too-short leg turns the percentage
    // into a coin flip.
    let sup_horizon = SimTime::from_secs(if fast { 400_000 } else { 1_000_000 });
    let run_leg = |limits: routesync_exec::SuperviseConfig| {
        let t0 = Instant::now();
        let out = routesync_exec::Ensemble::new(&seeds)
            .threads(threads)
            .limits(limits)
            .run(
                || FastModel::new(paper_params(n), StartState::Unsynchronized, 0),
                |m, ctx, _i, &seed| {
                    m.reset(&StartState::Unsynchronized, seed);
                    let mut rec = CountSends::default();
                    let end = m.run(sup_horizon, &mut rec);
                    ctx.ticks(rec.0);
                    (rec.0, end.as_nanos())
                },
            )
            .into_values();
        (out, t0.elapsed().as_secs_f64())
    };
    let run_plain = || run_leg(routesync_exec::SuperviseConfig::default());
    let run_supervised = || run_leg(limits.clone());
    let mut plain_wall = f64::INFINITY;
    let mut supervised_wall = f64::INFINITY;
    let mut plain_out = Vec::new();
    let mut supervised_out = Vec::new();
    run_plain(); // warm-up
    for _ in 0..7 {
        let (out, wall) = run_plain();
        plain_out = out;
        plain_wall = plain_wall.min(wall);
        let (out, wall) = run_supervised();
        supervised_out = out;
        supervised_wall = supervised_wall.min(wall);
    }
    assert_eq!(
        plain_out, supervised_out,
        "ensemble with limits diverged from the one without"
    );
    let supervision = SupervisionSection {
        unsupervised_wall_secs: plain_wall,
        supervised_wall_secs: supervised_wall,
        overhead_pct: (supervised_wall - plain_wall) / plain_wall * 100.0,
        outputs_identical: true,
    };

    // --- phenomena model throughput --------------------------------------
    // The related-literature models, each at its deterministic knob and
    // at the jittered counterpart. These are single short runs, not
    // best-of reps: the numbers situate the models' cost relative to the
    // engines above rather than gate anything.
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
    let mut rec = CountSends::default();
    let mut model = PeriodicModel::new(paper_params(n), StartState::Unsynchronized, 1993);
    model.run(SimTime::from_secs(horizon_secs / 10), &mut rec);
    let scen = routesync_netsim::ScenarioSpec::lan(8, Duration::from_secs_f64(0.1))
        .with_start(routesync_netsim::TimerStart::Unsynchronized)
        .build(1993);
    let mut sim = scen.sim;
    sim.run_until(SimTime::from_secs(120));
    experiment::run_many(
        paper_params(n),
        StartState::Unsynchronized,
        &seeds,
        threads,
        run_one,
    );
    let instrumented_wall = instrumented_start.elapsed().as_secs_f64();

    let snapshot = routesync_obs::global().snapshot();
    let mut events_per_sec: BTreeMap<String, f64> = BTreeMap::new();
    for (name, total) in &snapshot.counters {
        let subsystem = name.split('.').next().unwrap_or(name).to_string();
        *events_per_sec.entry(subsystem).or_insert(0.0) += *total as f64 / instrumented_wall;
    }

    let report = Report {
        fast,
        core_events_per_sec,
        desim_events_per_sec,
        netsim_packets_per_sec,
        netsim_scale,
        figure_wall_secs,
        ensemble: Ensemble {
            seeds: seeds.len(),
            serial_threads: 1,
            parallel_threads: threads,
            serial_wall_secs: serial_wall,
            parallel_wall_secs: parallel_wall,
            outputs_identical: true,
        },
        parallel_speedup,
        host_cpus,
        effective_cores: host_cpus,
        batched,
        thread_sweep,
        obs: ObsSection {
            disabled_wall_secs: disabled_wall,
            enabled_wall_secs: enabled_wall,
            overhead_pct,
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
    if let Some(path) = obs_path {
        routesync_obs::global()
            .write_json(std::path::Path::new(&path))
            .expect("write --obs snapshot");
        eprintln!("wrote {path}");
    }
}
