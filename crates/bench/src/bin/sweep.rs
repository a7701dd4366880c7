//! Custom parameter sweeps over the Periodic Messages system.
//!
//! ```text
//! cargo run --release -p routesync-bench --bin sweep -- \
//!     --param tr --from 0.05 --to 0.5 --steps 16 --metric fraction
//! cargo run --release -p routesync-bench --bin sweep -- \
//!     --param n --from 4 --to 30 --steps 27 --metric sync-time --seeds 4
//! ```
//!
//! Metrics:
//! * `fraction`  — the Markov model's fraction of time unsynchronized.
//! * `f`         — Markov f(N) in seconds (f(2) = 19 unless --f2).
//! * `g`         — Markov g(1) in seconds.
//! * `sync-time` — simulated mean time to synchronize (fast engine,
//!   horizon --horizon seconds, averaged over --seeds runs).
//! * `resync-time` — packet-level mean time for a synchronized LAN
//!   cluster to re-absorb n/3 crashed-then-rebooted routers (netsim +
//!   fault plan, averaged over --seeds runs). Honours `n` and `tr`; the
//!   scenario pins Tp to the DECnet 120 s and Tc to its table size.
//! * `net-events` — discrete events processed by the packet-level
//!   hierarchical scenario (`areas ≈ √n` totally-stubby star areas on a
//!   backbone LAN) run to --horizon simulated seconds. Honours `n` and
//!   `tr`; deterministic for a given seed, so one cell per point. This
//!   is the metric that makes `--param n` meaningful to N = 100 000+.
//!
//! Sweepable parameters: `tr`, `n`, `tc`, `tp`. Fixed values come from
//! the paper's reference configuration unless overridden by --n/--tp/
//! --tc/--tr. Output is CSV on stdout.
//!
//! Every `(grid point, seed)` cell runs as a **supervised** ensemble
//! cell (`routesync_exec::Ensemble`): a panicking, watchdog-tripped
//! or deadline-blown cell is quarantined with its reproducer while the
//! rest of the sweep completes, and its seeds are *explicitly censored*
//! from the per-point means (censoring is reported on stderr and, with
//! `--quarantine-out`, as a JSONL file). With `--resume PATH` completed
//! cells stream to a crash-safe CRC-framed checkpoint: Ctrl-C drains
//! gracefully (exit 130), SIGKILL at worst loses the in-flight cells,
//! and re-running with the same `--resume` flag skips finished work and
//! produces **byte-identical CSV** to an uninterrupted run at any
//! `--threads` count. See `docs/RESILIENCE.md`.

use std::sync::Mutex;

use routesync_core::{PeriodicParams, Recorder, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_exec::telemetry::{Outputs, Session};
use routesync_exec::{
    checkpoint, interrupt, CellResult, Ensemble, Quarantine, RunCtx, SuperviseConfig,
};
use routesync_markov::{ChainParams, PeriodicChain};

const USAGE: &str = "\
usage: sweep [--param tr|tc|tp|n] [--from X] [--to X] [--steps K]
             [--metric fraction|f|g|sync-time|resync-time|net-events]
             [--seeds S]
             [--horizon SECS] [--f2 SECS] [--n N] [--tp SECS] [--tc SECS]
             [--tr SECS] [--threads T] [--obs PATH.json]
             [--serve-obs ADDR] [--obs-series PATH] [--obs-folded PATH]
             [--resume CKPT] [--deadline-secs S] [--watchdog-steps K]
             [--quarantine-out PATH.jsonl] [--engine scalar|batched]

  --param    parameter swept across the grid (default: tr)
  --metric   fraction | f | g | sync-time | resync-time | net-events
             (default: fraction)
  --engine   simulation engine for the sync-time metric (default: scalar;
             batched runs cells in blocks of 32 — trace-identical output)
  --threads  worker threads for simulated metrics, at least 1 (default:
             all cores; honours the ROUTESYNC_THREADS env var when unset)
  --obs      enable instrumentation and write a metrics snapshot
             (counters, gauges, histograms, spans, trace) to PATH.json
  --serve-obs   enable instrumentation and serve it over HTTP on ADDR
             (e.g. 127.0.0.1:0): /metrics Prometheus text, /snapshot
             JSON, /stream NDJSON. The bound address is printed to
             stderr; after the sweep finishes the exporter keeps
             serving until Ctrl-C, then exits 0.
  --obs-series  enable instrumentation with simulated-time series
             sampling and dump the series (JSON, or CSV if PATH ends
             in .csv) to PATH after the run
  --obs-folded  write the span profile as folded stacks (one
             `a;b;c ns` line per span, flamegraph-ready) to PATH
  --resume   stream completed (point, seed) cells to a crash-safe
             checkpoint; if CKPT already exists, skip its completed cells
             (byte-identical output to an uninterrupted run). Ctrl-C
             drains in-flight cells to CKPT and exits 130.
  --deadline-secs   wall-clock limit per cell (quarantined on excess)
  --watchdog-steps  deterministic simulated-step budget per cell
  --quarantine-out  write quarantined cells as one-line JSON reproducers

exit codes: 0 ok, 1 quarantined cells present, 2 usage, 130 interrupted
";

/// Every flag the sweep binary accepts; anything else is an error.
const KNOWN_FLAGS: &[&str] = &[
    "param",
    "from",
    "to",
    "steps",
    "metric",
    "engine",
    "f2",
    "horizon",
    "seeds",
    "threads",
    "obs",
    "serve-obs",
    "obs-series",
    "obs-folded",
    "n",
    "tp",
    "tc",
    "tr",
    "resume",
    "deadline-secs",
    "watchdog-steps",
    "quarantine-out",
];

fn usage_error(msg: &str) -> ! {
    eprintln!("sweep: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Reject unknown flags and flags with missing values up front, so typos
/// fail loudly instead of silently falling back to defaults.
fn validate_args(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        match arg.strip_prefix("--") {
            Some(key) if KNOWN_FLAGS.contains(&key) => {
                if args.get(i + 1).is_none() {
                    usage_error(&format!("missing value for --{key}"));
                }
                i += 2;
            }
            _ => usage_error(&format!("unknown argument `{arg}`")),
        }
    }
}

fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == &format!("--{key}"))
        .and_then(|i| args.get(i + 1).cloned())
}

/// A numeric flag's value, `default` when absent; a value that does not
/// parse is a usage error, never a silent fallback.
fn num_flag<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match flag(args, key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("--{key}: `{v}` is not a valid number"))),
    }
}

/// One unit of supervised sweep work: a `(grid point, seed)` cell.
struct Cell {
    /// Checkpoint key, stable across runs and thread counts.
    key: String,
    /// Grid-point index.
    point: usize,
    /// Swept x value at this point.
    x: f64,
    /// Full parameter set at this point.
    params: ChainParams,
    /// Ensemble seed (0 for the closed-form metrics).
    seed: u64,
}

/// A completed cell's value, as stored in the checkpoint.
#[derive(Clone, PartialEq)]
enum CellValue {
    /// The metric value (bit-exact f64).
    Value(f64),
    /// The run completed but never reached the target (horizon censoring).
    Censored,
    /// The cell was quarantined; the stored line is the quarantine JSON.
    Quarantined(String),
}

impl CellValue {
    fn encode(&self) -> String {
        match self {
            CellValue::Value(v) => format!("v:{:016x}", v.to_bits()),
            CellValue::Censored => "n".to_string(),
            CellValue::Quarantined(line) => format!("q:{line}"),
        }
    }

    fn decode(s: &str) -> Option<CellValue> {
        if s == "n" {
            return Some(CellValue::Censored);
        }
        if let Some(hex) = s.strip_prefix("v:") {
            return u64::from_str_radix(hex, 16)
                .ok()
                .map(|bits| CellValue::Value(f64::from_bits(bits)));
        }
        s.strip_prefix("q:")
            .map(|line| CellValue::Quarantined(line.to_string()))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    validate_args(&args);
    // Start telemetry before the work, so /stream shows the sweep live.
    let telemetry = Session::start(
        "sweep",
        Outputs {
            snapshot: flag(&args, "obs").map(Into::into),
            serve: flag(&args, "serve-obs"),
            series: flag(&args, "obs-series").map(Into::into),
            folded: flag(&args, "obs-folded").map(Into::into),
        },
    )
    .unwrap_or_else(|err| {
        eprintln!("sweep: {err}");
        std::process::exit(1);
    });
    let param = flag(&args, "param").unwrap_or_else(|| "tr".into());
    let from: f64 = num_flag(&args, "from", 0.05);
    let to: f64 = num_flag(&args, "to", 0.5);
    let steps: usize = num_flag::<usize>(&args, "steps", 10).max(2);
    let metric = flag(&args, "metric").unwrap_or_else(|| "fraction".into());
    let f2: f64 = num_flag(&args, "f2", 19.0);
    let horizon: f64 = num_flag(&args, "horizon", 2e6);
    let n_seeds: u64 = num_flag(&args, "seeds", 3);
    let threads = match flag(&args, "threads") {
        None => routesync_exec::resolve_threads(None),
        Some(_) => match num_flag::<usize>(&args, "threads", 0) {
            0 => usage_error("--threads must be a positive integer"),
            n => n,
        },
    };
    let base = ChainParams {
        n: num_flag(&args, "n", 20),
        tp: num_flag(&args, "tp", 121.0),
        tc: num_flag(&args, "tc", 0.11),
        tr: num_flag(&args, "tr", 0.1),
    };
    if !matches!(
        metric.as_str(),
        "fraction" | "f" | "g" | "sync-time" | "resync-time" | "net-events"
    ) {
        usage_error(&format!(
            "unknown --metric `{metric}` (fraction|f|g|sync-time|resync-time|net-events)"
        ));
    }
    let engine = match flag(&args, "engine") {
        None => routesync_core::Engine::Scalar,
        Some(v) => routesync_core::Engine::from_name(&v)
            .unwrap_or_else(|e| usage_error(&format!("--engine: {e}"))),
    };
    let mut cfg = SuperviseConfig::new();
    if let Some(v) = flag(&args, "deadline-secs") {
        let secs: f64 = v
            .parse()
            .unwrap_or_else(|_| usage_error("--deadline-secs must be a number"));
        cfg.deadline = Some(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(v) = flag(&args, "watchdog-steps") {
        cfg.watchdog_steps = Some(
            v.parse()
                .unwrap_or_else(|_| usage_error("--watchdog-steps must be an integer")),
        );
    }
    let quarantine_out = flag(&args, "quarantine-out");
    let resume_path = flag(&args, "resume");

    // Materialize grid × seeds into supervised cells. The closed-form
    // metrics need one evaluation per point; the simulated metrics one
    // per (point, seed).
    let seeds_per_point: u64 = match metric.as_str() {
        "sync-time" | "resync-time" => n_seeds.max(1),
        _ => 1,
    };
    let grid: Vec<(f64, ChainParams)> = (0..steps)
        .map(|k| {
            let x = from + (to - from) * k as f64 / (steps - 1) as f64;
            let mut p = base;
            match param.as_str() {
                "tr" => p.tr = x,
                "tc" => p.tc = x,
                "tp" => p.tp = x,
                "n" => p.n = x.round() as usize,
                other => usage_error(&format!("unknown --param `{other}` (tr|tc|tp|n)")),
            }
            (x, p)
        })
        .collect();
    let cells: Vec<Cell> = grid
        .iter()
        .enumerate()
        .flat_map(|(point, &(x, params))| {
            (0..seeds_per_point).map(move |seed| Cell {
                key: format!("p{point}:s{seed}"),
                point,
                x,
                params,
                seed,
            })
        })
        .collect();

    // The checkpoint meta fingerprints everything that determines cell
    // values; resuming under a different configuration is refused.
    let meta = format!(
        "sweep-v1 param={param} from={from} to={to} steps={steps} metric={metric} \
         engine={engine} f2={f2} horizon={horizon} seeds={seeds_per_point} \
         n={} tp={} tc={} tr={}",
        base.n, base.tp, base.tc, base.tr
    );
    let mut completed: std::collections::BTreeMap<String, String> = Default::default();
    let writer = match &resume_path {
        Some(path) => {
            interrupt::install();
            let path = std::path::Path::new(path);
            match checkpoint::resume(path, &meta) {
                Ok((writer, records)) => {
                    completed = records;
                    Some(Mutex::new(writer))
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                    usage_error(&format!("{e}"))
                }
                Err(e) => {
                    eprintln!("sweep: cannot resume checkpoint: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };
    if !completed.is_empty() {
        routesync_obs::global()
            .counter("exec.supervisor.resumed_cells")
            .add(completed.len() as u64);
        eprintln!(
            "sweep: resumed {} completed cell(s) from checkpoint",
            completed.len()
        );
    }

    // Run only the cells the checkpoint does not already cover.
    let pending: Vec<&Cell> = cells
        .iter()
        .filter(|c| !completed.contains_key(&c.key))
        .collect();
    let metric_ref = metric.as_str();
    let describe = |_i: usize, cell: &&Cell| reproducer_line(metric_ref, &param, cell, horizon);
    let outcome = Ensemble::new(&pending)
        .threads(threads)
        .limits(cfg)
        .describe(describe)
        .sink(|i, finished: Result<&CellValue, &Quarantine>| {
            if let Some(writer) = &writer {
                let value = match finished {
                    Ok(v) => v.encode(),
                    Err(q) => CellValue::Quarantined(q.to_line()).encode(),
                };
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = w.append(&pending[i].key, &value) {
                    eprintln!("sweep: checkpoint append failed: {e}");
                }
            }
        })
        .run(
            || (),
            |(), ctx, _i, cell: &&Cell| run_cell(metric_ref, engine, cell, f2, horizon, ctx),
        );

    if outcome.interrupted {
        if let Some(writer) = &writer {
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = w.sync() {
                eprintln!("sweep: checkpoint sync failed: {e}");
            }
        }
        let done = completed.len() + outcome.completed() + outcome.quarantined.len();
        eprintln!(
            "sweep: interrupted — {done}/{} cells checkpointed; \
             rerun with the same --resume flag to continue",
            cells.len()
        );
        std::process::exit(130);
    }

    // Merge checkpointed and freshly computed cells into one value per
    // cell, then reduce deterministically (input order, bit-exact f64s):
    // the CSV is a pure function of the full cell map, so resumed and
    // uninterrupted runs print identical bytes.
    let mut quarantines: Vec<String> = Vec::new();
    let mut values: Vec<CellValue> = Vec::with_capacity(cells.len());
    let mut fresh = std::collections::BTreeMap::new();
    for (slot, cell) in outcome.results.iter().zip(pending.iter()) {
        match slot {
            CellResult::Done(v) => {
                fresh.insert(cell.key.clone(), (*v).clone());
            }
            CellResult::Quarantined => {}
            CellResult::NotRun => unreachable!("not interrupted"),
        }
    }
    for q in &outcome.quarantined {
        fresh.insert(
            pending[q.index].key.clone(),
            CellValue::Quarantined(q.to_line()),
        );
    }
    for cell in &cells {
        let value = if let Some(stored) = completed.get(&cell.key) {
            CellValue::decode(stored).unwrap_or_else(|| {
                eprintln!("sweep: malformed checkpoint value for {}", cell.key);
                std::process::exit(1);
            })
        } else {
            fresh.get(&cell.key).cloned().expect("cell ran")
        };
        if let CellValue::Quarantined(line) = &value {
            quarantines.push(line.clone());
        }
        values.push(value);
    }

    let ys = reduce_points(&grid, &cells, &values);
    println!("{param},{metric}");
    for (&(x, _), y) in grid.iter().zip(ys) {
        println!("{x},{y}");
    }

    if !quarantines.is_empty() {
        eprintln!(
            "sweep: {} cell(s) quarantined and censored from the means:",
            quarantines.len()
        );
        for line in &quarantines {
            eprintln!("  {line}");
        }
    }
    if let Some(path) = &quarantine_out {
        let mut body = String::new();
        for line in &quarantines {
            body.push_str(line);
            body.push('\n');
        }
        if let Err(e) = checkpoint::atomic_write(std::path::Path::new(path), body.as_bytes()) {
            eprintln!("sweep: failed to write --quarantine-out {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(err) = telemetry.write() {
        eprintln!("sweep: {err}");
        std::process::exit(1);
    }
    if !quarantines.is_empty() {
        std::process::exit(1);
    }
    telemetry.serve_until_interrupted();
}

/// The reproducer line for one quarantined cell: enough to re-run it in
/// isolation (`sweep --param … --steps 2` with pinned values, or via the
/// matching unit test).
fn reproducer_line(metric: &str, param: &str, cell: &Cell, horizon: f64) -> String {
    format!(
        "{{\"cmd\":\"sweep\",\"metric\":\"{metric}\",\"param\":\"{param}\",\"x\":{},\
         \"n\":{},\"tp\":{},\"tc\":{},\"tr\":{},\"seed\":{},\"horizon\":{horizon}}}",
        cell.x, cell.params.n, cell.params.tp, cell.params.tc, cell.params.tr, cell.seed
    )
}

/// Forward `on_send` progress to the supervisor's deterministic step
/// watchdog while delegating everything to the wrapped recorder.
struct Ticked<'a, R: Recorder> {
    inner: R,
    ctx: &'a mut RunCtx,
}

impl<R: Recorder> Recorder for Ticked<'_, R> {
    fn on_send(&mut self, t: SimTime, node: routesync_core::NodeId) {
        self.ctx.tick();
        self.inner.on_send(t, node);
    }
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[routesync_core::NodeId]) {
        self.inner.on_cluster(t, round, nodes);
    }
    fn should_stop(&self) -> bool {
        self.inner.should_stop()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Evaluate one supervised cell.
fn run_cell(
    metric: &str,
    engine: routesync_core::Engine,
    cell: &Cell,
    f2: f64,
    horizon: f64,
    ctx: &mut RunCtx,
) -> CellValue {
    let p = cell.params;
    match metric {
        "fraction" => {
            ctx.tick();
            CellValue::Value(PeriodicChain::new(p).fraction_unsynchronized(f2))
        }
        "f" => {
            ctx.tick();
            CellValue::Value(PeriodicChain::new(p).f_n(f2) * p.seconds_per_round())
        }
        "g" => {
            ctx.tick();
            CellValue::Value(PeriodicChain::new(p).g_1() * p.seconds_per_round())
        }
        "sync-time" => {
            let params = PeriodicParams::new(
                p.n,
                Duration::from_secs_f64(p.tp),
                Duration::from_secs_f64(p.tc),
                Duration::from_secs_f64(p.tr),
            );
            // Telemetry first in the pair: it only writes to obs, so the
            // swept value below stays byte-identical with it attached.
            let mut rec = Ticked {
                inner: (
                    routesync_core::Telemetry::from_global(&params),
                    routesync_core::FirstPassageUp::new(p.n),
                ),
                ctx,
            };
            let horizon = SimTime::from_secs_f64(horizon);
            match engine {
                routesync_core::Engine::Scalar => {
                    let mut m = routesync_core::FastModel::new(
                        params,
                        StartState::Unsynchronized,
                        cell.seed,
                    );
                    m.run(horizon, &mut rec);
                }
                routesync_core::Engine::Batched => {
                    let mut block = routesync_core::BatchedEnsemble::new(params, 1);
                    block.reset(&StartState::Unsynchronized, &[cell.seed]);
                    block.run(horizon, std::slice::from_mut(&mut rec));
                }
            }
            match rec.inner.1.first(p.n) {
                Some((t, _)) => CellValue::Value(t.as_secs_f64()),
                None => CellValue::Censored,
            }
        }
        "resync-time" => match resync_time(p, cell.seed, horizon, ctx) {
            Some(t) => CellValue::Value(t),
            None => CellValue::Censored,
        },
        "net-events" => CellValue::Value(net_events(p, cell.seed, horizon, ctx)),
        other => unreachable!("metric validated in main: {other}"),
    }
}

/// Reduce per-cell values to one y per grid point: the mean over that
/// point's non-censored, non-quarantined seeds (`NaN` when none remain).
fn reduce_points(grid: &[(f64, ChainParams)], cells: &[Cell], values: &[CellValue]) -> Vec<f64> {
    grid.iter()
        .enumerate()
        .map(|(point, _)| {
            let vals: Vec<f64> = cells
                .iter()
                .zip(values)
                .filter(|(c, _)| c.point == point)
                .filter_map(|(_, v)| match v {
                    CellValue::Value(y) => Some(*y),
                    _ => None,
                })
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Crash a third of a synchronized `p.n`-router LAN, reboot the casualties
/// a few minutes later, and return the time from the last reboot until a
/// full-size cluster reappears (`None` if it never does within `horizon`
/// simulated seconds). Runs in chunks so healed runs stop early; each
/// chunk ticks the supervisor watchdog.
/// Run the hierarchical scenario (`areas ≈ √n` totally-stubby star areas
/// on one backbone LAN) to `horizon` simulated seconds and return the
/// discrete events processed — the scale metric for `--param n` sweeps to
/// N = 100 000+. Runs in chunks so each chunk ticks the watchdog.
fn net_events(p: ChainParams, seed: u64, horizon: f64, ctx: &mut RunCtx) -> f64 {
    use routesync_netsim::ScenarioSpec;
    let n = p.n.max(2);
    let areas = ((n as f64).sqrt().round() as usize).clamp(2, n);
    let mut scen = ScenarioSpec::hierarchical(n, areas, Duration::from_secs_f64(p.tr)).build(seed);
    let period = 120u64; // the scenario's DECnet update period
    let horizon = horizon as u64;
    let mut t = 0u64;
    while t < horizon {
        ctx.tick();
        t = (t + 10 * period).min(horizon);
        scen.sim.run_until(SimTime::from_secs(t));
    }
    scen.sim.events_processed() as f64
}

fn resync_time(p: ChainParams, seed: u64, horizon: f64, ctx: &mut RunCtx) -> Option<f64> {
    use routesync_netsim::scenario::largest_cluster_series;
    use routesync_netsim::{FaultPlan, ScenarioSpec};
    let n = p.n.max(3);
    let k = (n / 3).max(1);
    let mut plan = FaultPlan::new();
    for i in 0..k {
        plan = plan
            .crash_at(i, SimTime::from_secs(600 + 30 * i as u64))
            .reboot_at(i, SimTime::from_secs(900 + 60 * i as u64));
    }
    let last_reboot = 900 + 60 * (k as u64 - 1);
    let mut scen = ScenarioSpec::lan(n, Duration::from_secs_f64(p.tr))
        .with_faults(plan)
        .build(seed);
    // The scenario's DECnet period; cluster sizes are per 120 s round.
    let period = 120u64;
    let mut t = 0u64;
    let horizon = horizon as u64;
    while t < horizon {
        ctx.tick();
        t = (t + 50 * period).min(horizon);
        scen.sim.run_until(SimTime::from_secs(t));
        let series = largest_cluster_series(
            scen.sim.reset_log(),
            Duration::from_secs(3),
            Duration::from_secs(period),
        );
        if let Some(&(b, _)) = series
            .iter()
            .find(|&&(b, s)| s == n && b * period > last_reboot)
        {
            return Some((b * period - last_reboot) as f64);
        }
    }
    None
}
