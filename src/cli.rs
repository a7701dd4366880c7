//! Command-line interface: simulate, analyze, recommend, protocols.
//!
//! All logic lives here (the `main.rs` shim only forwards arguments) so it
//! can be unit-tested without spawning processes.

use std::collections::HashMap;
use std::fmt::Write as _;

use routesync_core::{PeriodicModel, PeriodicParams, RoundMax, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_exec::telemetry::{Outputs, Session};
use routesync_markov::{ChainParams, PeriodicChain, Region};
use routesync_stats::ascii;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: routesync <command> [--flag value ...]

commands:
  simulate    run the Periodic Messages model and report synchronization
              flags: --n 20 --tp 121 --tc 0.11 --tr 0.1 --horizon 1e6
                     --seed 1993 --start unsync|sync [--plot]
                     [--engine event|fast|batched] (trace-identical)
                     [--obs-series PATH] [--obs-folded PATH]
                     [--serve-obs ADDR] (telemetry: time-series dump,
                     folded span stacks, HTTP exporter until Ctrl-C)
  analyze     evaluate the Markov-chain model
              flags: --n 20 --tp 121 --tc 0.11 --tr 0.1 --f2 19
  recommend   solve for the minimum jitter Tr
              flags: --n 20 --tp 121 --tc 0.11 --target 0.95
  protocols   phase-transition thresholds for RIP/IGRP/DECnet/EGP
              flags: --n 20 --target 0.95
  nearnet     replay the paper's ping measurement on the packet simulator
              flags: --probes 1000 --mode blocked|concurrent --seed 1993
  conformance coverage-guided cross-model conformance fuzzing
              flags: --budget-cases 200 --seed 1 [--budget-secs 60]
                     [--deadline-secs 60] [--watchdog-steps K]
                     [--resume ckpt] [--quarantine-out path.jsonl]
                     [--out results/conformance] [--replay repro.jsonl]
  serve       host a scenario's routers as a live daemon over real UDP
              (loopback), with a predictive desim twin tracking divergence
              flags: --spec nearnet|lan|mesh|mbone --stubs 2 --n 4
                     --jitter-ms 60 --seed 1993 --scale 300
                     [--for-sim-secs S] [--resume ckpt]
                     [--checkpoint-every-secs 300] [--serve-obs ADDR]
                     [--loss LINK:P] [--crash NODE:SEC]
                     [--reboot NODE:SEC] [--ingress-cap 64] [--twin on|off]
  help        print this text

Every command accepts --help. Unknown commands and flags are rejected.
exit codes: 0 ok, 1 failures found, 2 usage error, 130 interrupted
";

/// How a command invocation failed — the process exit code contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation (unknown command/flag, malformed value): exit 2.
    Usage(String),
    /// The command ran and found failures, or hit a runtime error
    /// (unreadable file, broken checkpoint): exit 1.
    Failure(String),
    /// A SIGINT drain stopped the run; state is checkpointed: exit 130.
    Interrupted(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failure(m) | CliError::Interrupted(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl From<String> for CliError {
    /// Bare-string errors from flag/domain validation are usage errors.
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

/// The flags each command accepts; anything else is rejected (exit 2).
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "simulate" => &[
            "n",
            "tp",
            "tc",
            "tr",
            "horizon",
            "seed",
            "start",
            "engine",
            "plot",
            "obs-series",
            "obs-folded",
            "serve-obs",
        ],
        "analyze" => &["n", "tp", "tc", "tr", "f2"],
        "recommend" => &["n", "tp", "tc", "tr", "target"],
        "protocols" => &["n", "target"],
        "nearnet" => &["probes", "mode", "seed"],
        "conformance" => &[
            "budget-cases",
            "seed",
            "budget-secs",
            "deadline-secs",
            "watchdog-steps",
            "resume",
            "quarantine-out",
            "out",
            "replay",
        ],
        "serve" => &[
            "spec",
            "stubs",
            "n",
            "jitter-ms",
            "seed",
            "scale",
            "for-sim-secs",
            "resume",
            "checkpoint-every-secs",
            "serve-obs",
            "loss",
            "crash",
            "reboot",
            "ingress-cap",
            "twin",
        ],
        _ => return None,
    })
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 1] = ["plot"];

/// Parse flags of the form `--key value` into a map, rejecting any flag
/// the command does not declare.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {a:?}"));
        };
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (accepted: {})",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        if BOOLEAN_FLAGS.contains(&key) {
            map.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--{key} must be a number, got {v:?}")),
    }
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
    }
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
    }
}

/// Entry point: dispatch on the first argument, return printable output.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(USAGE.to_string());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some(allowed) = allowed_flags(command) else {
        return Err(CliError::Usage(format!("unknown command {command:?}")));
    };
    // `<command> --help` prints usage and exits 0, before strict parsing.
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    let flags = parse_flags(&args[1..], allowed)?;
    match command.as_str() {
        "simulate" => simulate(&flags),
        "analyze" => analyze(&flags),
        "recommend" => recommend(&flags),
        "protocols" => protocols(&flags),
        "nearnet" => nearnet(&flags),
        "conformance" => conformance(&flags),
        "serve" => serve(&flags),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn core_params(flags: &HashMap<String, String>) -> Result<PeriodicParams, String> {
    let n = get_usize(flags, "n", 20)?;
    let tp = get_f64(flags, "tp", 121.0)?;
    let tc = get_f64(flags, "tc", 0.11)?;
    let tr = get_f64(flags, "tr", 0.1)?;
    if n == 0 || tp <= 0.0 || tc <= 0.0 || tr < 0.0 || tr > tp {
        return Err("need n >= 1, tp > 0, tc > 0, 0 <= tr <= tp".into());
    }
    Ok(PeriodicParams::new(
        n,
        Duration::from_secs_f64(tp),
        Duration::from_secs_f64(tc),
        Duration::from_secs_f64(tr),
    ))
}

/// Run one `(params, start, seed)` cell on the named engine, feeding the
/// same recorder. All three engines are trace-identical (enforced by the
/// conformance suite), so simulate output does not depend on the choice.
fn run_simulate_engine<R: routesync_core::Recorder>(
    engine: &str,
    params: PeriodicParams,
    start: &StartState,
    seed: u64,
    horizon: SimTime,
    rec: &mut R,
) {
    match engine {
        "event" => {
            let mut model = PeriodicModel::new(params, start.clone(), seed);
            model.run(horizon, rec);
        }
        "fast" => {
            let mut model = routesync_core::FastModel::new(params, start.clone(), seed);
            model.run(horizon, rec);
        }
        "batched" => {
            let mut block = routesync_core::BatchedEnsemble::new(params, 1);
            block.reset(start, &[seed]);
            block.run(horizon, std::slice::from_mut(rec));
        }
        other => unreachable!("engine {other:?} validated by caller"),
    }
}

fn simulate(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let params = core_params(flags)?;
    let horizon = get_f64(flags, "horizon", 1e6)?;
    let seed = get_u64(flags, "seed", 1993)?;
    // Any telemetry flag enters a live collector *before* the engine is
    // constructed (obs handles resolve once, at construction time). The
    // simulation output below is byte-identical either way — the PR 2
    // invariant, re-asserted for the trajectory telemetry by the
    // integration tests.
    let telemetry = Session::start(
        "simulate",
        Outputs {
            snapshot: None,
            serve: flags.get("serve-obs").cloned(),
            series: flags.get("obs-series").map(Into::into),
            folded: flags.get("obs-folded").map(Into::into),
        },
    )
    .map_err(|e| CliError::Failure(format!("{e}\n")))?;
    let start = match flags.get("start").map(|s| s.as_str()).unwrap_or("unsync") {
        "unsync" | "unsynchronized" => StartState::Unsynchronized,
        "sync" | "synchronized" => StartState::Synchronized,
        other => return Err(format!("--start must be sync or unsync, got {other:?}").into()),
    };
    let engine = flags.get("engine").map(|s| s.as_str()).unwrap_or("event");
    if !["event", "fast", "batched"].contains(&engine) {
        return Err(format!("--engine must be event, fast or batched, got {engine:?}").into());
    }
    let from_sync = matches!(start, StartState::Synchronized);
    let mut out = String::new();
    let rounds;
    let _ = writeln!(
        out,
        "simulating N={} Tp={} Tc={} Tr={} seed={seed} for up to {horizon} s ...",
        params.n,
        params.tp(),
        params.tc,
        params.tr()
    );
    if from_sync {
        let mut rec = (
            routesync_core::Telemetry::from_global(&params),
            (
                routesync_core::FirstPassageDown::new(params.n, 1),
                RoundMax::new(),
            ),
        );
        run_simulate_engine(
            engine,
            params,
            &start,
            seed,
            SimTime::from_secs_f64(horizon),
            &mut rec,
        );
        let rec = rec.1;
        rounds = rec.1;
        match rec.0.first(1) {
            Some((t, r)) => {
                let _ = writeln!(
                    out,
                    "DESYNCHRONIZED: the initial cluster fully dissolved after {:.0} s ({r} rounds).",
                    t.as_secs_f64()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "still (partly) synchronized after {horizon} s: smallest per-round largest cluster = {}.",
                    rec.0.min_state()
                );
            }
        }
    } else {
        let mut rec = (
            routesync_core::Telemetry::from_global(&params),
            (
                routesync_core::FirstPassageUp::new(params.n),
                RoundMax::new(),
            ),
        );
        run_simulate_engine(
            engine,
            params,
            &start,
            seed,
            SimTime::from_secs_f64(horizon),
            &mut rec,
        );
        let rec = rec.1;
        rounds = rec.1;
        match rec.0.first(params.n) {
            Some((t, r)) => {
                let _ = writeln!(
                    out,
                    "SYNCHRONIZED: all {} routers collapsed into one cluster after {:.0} s ({r} rounds).",
                    params.n,
                    t.as_secs_f64()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "not synchronized within {horizon} s: largest cluster reached {}.",
                    rec.0.max_seen()
                );
            }
        }
    }
    if flags.contains_key("plot") {
        let pts: Vec<(f64, f64)> = rounds
            .series()
            .iter()
            .map(|&(_, t, m)| (t.as_secs_f64(), m as f64))
            .collect();
        let _ = writeln!(out, "largest cluster per round:");
        out.push_str(&ascii::scatter(&pts, 90, 16, '+'));
    }
    telemetry
        .write()
        .map_err(|e| CliError::Failure(format!("{e}\n")))?;
    telemetry.serve_until_interrupted();
    Ok(out)
}

fn chain_params(flags: &HashMap<String, String>) -> Result<ChainParams, String> {
    let n = get_usize(flags, "n", 20)?;
    let tp = get_f64(flags, "tp", 121.0)?;
    let tc = get_f64(flags, "tc", 0.11)?;
    let tr = get_f64(flags, "tr", 0.1)?;
    if n < 2 || tp <= 0.0 || tc <= 0.0 || tr < 0.0 {
        return Err("need n >= 2, tp > 0, tc > 0, tr >= 0".into());
    }
    Ok(ChainParams { n, tp, tc, tr })
}

fn analyze(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let params = chain_params(flags)?;
    let f2 = get_f64(flags, "f2", 19.0)?;
    let chain = PeriodicChain::new(params);
    let secs = params.seconds_per_round();
    let f_n = chain.f_n(f2);
    let g_1 = chain.g_1();
    let frac = chain.fraction_unsynchronized(f2);
    let f_sd = chain.f_variance(f2).sqrt();
    let horizon_rounds = 1e7 / secs;
    let region = match chain.region(f2, horizon_rounds) {
        Region::Low => "LOW randomization: synchronization is the equilibrium",
        Region::Moderate => "MODERATE randomization: metastable either way",
        Region::High => "HIGH randomization: stays unsynchronized",
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Markov chain for N={} Tp={} s Tc={} s Tr={} s (f(2)={f2} rounds):",
        params.n, params.tp, params.tc, params.tr
    );
    let fmt = |rounds: f64| {
        if rounds.is_infinite() {
            "never".to_string()
        } else {
            format!(
                "{:.3e} rounds = {:.3e} s (+/- {:.0e} rounds sd)",
                rounds,
                rounds * secs,
                f_sd
            )
        }
    };
    let _ = writeln!(out, "  E[time to synchronize]   f(N) = {}", fmt(f_n));
    let _ = writeln!(
        out,
        "  E[time to desynchronize] g(1) = {}",
        if g_1.is_infinite() {
            "never".to_string()
        } else {
            format!("{:.3e} rounds = {:.3e} s", g_1, g_1 * secs)
        }
    );
    let _ = writeln!(out, "  fraction of time unsynchronized: {frac:.4}");
    let _ = writeln!(out, "  regime: {region}");
    Ok(out)
}

fn recommend(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let params = chain_params(flags)?;
    let target = get_f64(flags, "target", 0.95)?;
    if !(0.0..1.0).contains(&target) {
        return Err("--target must be in [0, 1)".into());
    }
    let tr = PeriodicChain::recommended_tr(&params, target);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "minimum jitter for N={} Tp={} s Tc={} s to stay {:.0}% unsynchronized:",
        params.n,
        params.tp,
        params.tc,
        target * 100.0
    );
    let _ = writeln!(
        out,
        "  Tr >= {tr:.3} s   ({:.1} x Tc; the paper's rules: 10 x Tc = {:.2} s, Tp/2 = {:.1} s)",
        tr / params.tc,
        10.0 * params.tc,
        params.tp / 2.0
    );
    Ok(out)
}

fn protocols(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let n = get_usize(flags, "n", 20)?;
    let target = get_f64(flags, "target", 0.95)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>8} {:>12} {:>8}",
        "protocol", "Tp (s)", "Tc (s)", "Tr_min (s)", "Tr/Tc"
    );
    for (name, tp, tc) in [
        ("RIP (30 s)", 30.0, 0.11),
        ("IGRP (90 s)", 90.0, 0.30),
        ("DECnet DNA IV (120 s)", 120.0, 0.11),
        ("EGP (180 s)", 180.0, 0.30),
    ] {
        let params = ChainParams { n, tp, tc, tr: tc };
        let tr = PeriodicChain::recommended_tr(&params, target);
        let _ = writeln!(
            out,
            "{name:<24} {tp:>8.0} {tc:>8.2} {tr:>12.2} {:>8.1}",
            tr / tc
        );
    }
    Ok(out)
}

fn nearnet(flags: &HashMap<String, String>) -> Result<String, CliError> {
    use routesync_netsim::{ForwardingMode, ScenarioSpec};
    let probes = get_u64(flags, "probes", 1000)?;
    if probes == 0 {
        return Err("--probes must be positive".into());
    }
    let seed = get_u64(flags, "seed", 1993)?;
    let mode = flags.get("mode").map(|s| s.as_str()).unwrap_or("blocked");
    let forwarding = match mode {
        "blocked" => ForwardingMode::BlockedDuringUpdates,
        "concurrent" => ForwardingMode::Concurrent,
        other => return Err(format!("--mode must be blocked or concurrent, got {other:?}").into()),
    };
    let mut out = String::new();
    let mut n = ScenarioSpec::nearnet()
        .with_forwarding(forwarding)
        .build(seed);
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
    let stats = n.sim.ping_stats(berkeley);
    let _ = writeln!(
        out,
        "{} probes berkeley -> mit: {} lost ({:.1}% loss)",
        stats.sent(),
        stats.lost(),
        stats.loss_rate() * 100.0
    );
    let series = stats.rtt_series(2.0);
    let acf = routesync_stats::autocorrelation(&series, 130.min(series.len() - 1));
    if let Some(lag) = routesync_stats::dominant_lag(&acf, 30) {
        let _ = writeln!(
            out,
            "dominant RTT autocorrelation lag: {lag} pings (r = {:.3}) — the paper measured 89",
            acf[lag]
        );
    }
    let bursts = routesync_stats::runs_of_loss(&stats.loss_flags());
    let _ = writeln!(out, "loss bursts: {}", bursts.len());
    Ok(out)
}

/// Parse a `--crash NODE:SEC` / `--reboot NODE:SEC` / `--loss LINK:P`
/// style pair.
fn parse_pair(flag: &str, value: &str) -> Result<(usize, f64), String> {
    let Some((a, b)) = value.split_once(':') else {
        return Err(format!("--{flag} must look like ID:VALUE, got {value:?}"));
    };
    let id = a
        .parse::<usize>()
        .map_err(|_| format!("--{flag}: {a:?} is not an id"))?;
    let v = b
        .parse::<f64>()
        .map_err(|_| format!("--{flag}: {b:?} is not a number"))?;
    Ok((id, v))
}

/// `serve`: host the scenario's routers as a long-running daemon over
/// real loopback UDP, paced by `--scale` simulated seconds per wall
/// second, with bounded retry/backoff, overload shedding, crash-safe
/// checkpoints (`--resume`) and a predictive desim twin.
///
/// Exit contract: 0 on completion (after `--for-sim-secs`, or after
/// Ctrl-C when `--serve-obs` keeps serving a finished run); 130 when a
/// SIGINT drains a running daemon (the final checkpoint supports
/// `--resume`); 2 when `--resume` points at a checkpoint written under a
/// different run configuration.
fn serve(flags: &HashMap<String, String>) -> Result<String, CliError> {
    use routesync_live::{LiveConfig, LiveDaemon, Outcome};
    use routesync_netsim::{FaultPlan, ScenarioSpec};

    let spec_name = flags.get("spec").map(|s| s.as_str()).unwrap_or("nearnet");
    let stubs = get_usize(flags, "stubs", 2)?;
    let n = get_usize(flags, "n", 4)?;
    let jitter_ms = get_u64(flags, "jitter-ms", 60)?;
    let seed = get_u64(flags, "seed", 1993)?;
    let scale = get_f64(flags, "scale", 300.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err("--scale must be a positive number".into());
    }
    let jitter = Duration::from_millis(jitter_ms);
    let spec = match spec_name {
        "nearnet" => {
            if stubs == 0 {
                return Err("--stubs must be positive".into());
            }
            ScenarioSpec::nearnet_sized(stubs)
        }
        "lan" => {
            if n < 2 {
                return Err("--n must be at least 2".into());
            }
            ScenarioSpec::lan(n, jitter)
        }
        "mesh" => {
            if n < 3 {
                return Err("--n must be at least 3 for a mesh".into());
            }
            ScenarioSpec::random_mesh(n, n / 2, jitter)
        }
        "mbone" => ScenarioSpec::mbone_audiocast(),
        other => {
            return Err(format!("--spec must be nearnet, lan, mesh or mbone, got {other:?}").into())
        }
    };
    let mut plan = FaultPlan::new();
    let mut fault_desc = String::new();
    if let Some(v) = flags.get("loss") {
        let (link, p) = parse_pair("loss", v)?;
        if !(0.0..=1.0).contains(&p) {
            return Err("--loss probability must be in [0, 1]".into());
        }
        plan = plan.lossy_link(link, p);
        let _ = write!(fault_desc, ";loss={link}:{p}");
    }
    if let Some(v) = flags.get("crash") {
        let (node, at) = parse_pair("crash", v)?;
        plan = plan.crash_at(node, SimTime::from_secs_f64(at));
        let _ = write!(fault_desc, ";crash={node}:{at}");
    }
    if let Some(v) = flags.get("reboot") {
        let (node, at) = parse_pair("reboot", v)?;
        plan = plan.reboot_at(node, SimTime::from_secs_f64(at));
        let _ = write!(fault_desc, ";reboot={node}:{at}");
    }
    let spec = if plan.is_empty() {
        spec
    } else {
        spec.with_faults(plan)
    };
    let horizon_secs = get_f64(flags, "for-sim-secs", 0.0)?;
    let ingress_cap = get_usize(flags, "ingress-cap", 64)?;
    let twin = match flags.get("twin").map(|s| s.as_str()).unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--twin must be on or off, got {other:?}").into()),
    };
    // Everything that shapes the protocol trajectory goes into the
    // fingerprint; resuming a checkpoint written under a different
    // configuration is a usage error (exit 2). Pacing-only knobs
    // (--scale, --serve-obs, --twin) stay out.
    let fingerprint = format!(
        "serve;spec={spec_name};stubs={stubs};n={n};jitter_ms={jitter_ms};seed={seed};\
         horizon={horizon_secs};ingress_cap={ingress_cap}{fault_desc}"
    );

    routesync_exec::interrupt::install();
    // One explicit collector, exported and written to: nothing else in
    // the process (the twin's own simulator included) reaches it.
    let collector = routesync_obs::Collector::enabled();
    let serve_obs = Outputs {
        serve: flags.get("serve-obs").cloned(),
        ..Outputs::default()
    };
    let telemetry = Session::export("serve", serve_obs, collector.clone())
        .map_err(|e| CliError::Failure(format!("{e}\n")))?;

    let mut cfg = LiveConfig::new(spec, fingerprint, seed);
    cfg.time_scale = scale;
    if horizon_secs > 0.0 {
        cfg.horizon = SimTime::from_secs_f64(horizon_secs);
    }
    cfg.checkpoint = flags.get("resume").map(std::path::PathBuf::from);
    let every = get_f64(flags, "checkpoint-every-secs", 300.0)?;
    if every > 0.0 {
        cfg.checkpoint_every = Duration::from_secs_f64(every);
    }
    cfg.ingress_cap = ingress_cap;
    cfg.twin = twin;
    cfg.collector = collector;

    let mut daemon = LiveDaemon::new(cfg).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidInput {
            CliError::Usage(format!("--resume: {e}"))
        } else {
            CliError::Failure(format!("serve: cannot boot the daemon: {e}\n"))
        }
    })?;
    let resumed = daemon.resumed_at();
    if resumed > SimTime::ZERO {
        eprintln!("serve: resumed from checkpoint at t={resumed}");
    }
    let report = daemon
        .run()
        .map_err(|e| CliError::Failure(format!("serve: daemon error: {e}\n")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} at t={} after {} update rounds",
        match report.outcome {
            Outcome::Completed => "completed",
            Outcome::Interrupted => "interrupted",
        },
        report.sim_end,
        report.rounds
    );
    let _ = writeln!(
        out,
        "  routers: {}   sync windows: {}   onset: {}",
        report.tables.len(),
        report.detector.windows,
        report.detector.onset_t_ns.map_or_else(
            || "none".to_string(),
            |ns| format!("{:.0} s", ns as f64 / 1e9)
        ),
    );
    if let Some(max) = report.max_divergence {
        let _ = writeln!(out, "  max live-vs-twin divergence: {max:.4}");
    }
    if report.outcome == Outcome::Interrupted {
        let hint = flags
            .get("resume")
            .map(|p| format!("rerun with --resume {p} to continue; "))
            .unwrap_or_default();
        return Err(CliError::Interrupted(format!(
            "{out}interrupted — {hint}state checkpointed at t={}\n",
            report.sim_end
        )));
    }
    telemetry.serve_until_interrupted();
    Ok(out)
}

/// `conformance`: run the cross-model conformance fuzzer to a case/time
/// budget, or replay previously minimized reproducer lines.
///
/// The run is a pure function of `(--seed, --budget-cases,
/// --watchdog-steps)`: with no wall-clock budget the printed report and
/// every file under `--out` are byte-identical across invocations,
/// machines, and `--resume` boundaries (the output carries no wall-clock
/// content). Supervision: a panicking oracle is quarantined with a
/// replayable reproducer while the rest of the run completes;
/// `--watchdog-steps` censors cases that exceed a deterministic
/// simulation-step budget; `--deadline-secs` bounds the whole run's wall
/// clock (reported as `truncated`); `--resume ckpt` streams finished
/// verdicts to a crash-safe checkpoint and replays them on rerun. A run
/// with failures or quarantines exits 1; the report text is the same
/// either way.
fn conformance(flags: &HashMap<String, String>) -> Result<String, CliError> {
    use routesync_conformance::fuzz::{self, FuzzConfig};
    use routesync_conformance::Reproducer;

    if let Some(path) = flags.get("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failure(format!("cannot read {path:?}: {e}\n")))?;
        let mut out = String::new();
        let mut failures = 0usize;
        let mut total = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let repro = Reproducer::from_line(line).map_err(CliError::Failure)?;
            total += 1;
            match fuzz::replay(&repro) {
                Ok(()) => {
                    let _ = writeln!(out, "PASS {} seed={}", repro.spec.oracle.name(), repro.seed);
                }
                Err(msg) => {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "FAIL {} seed={}: {msg}",
                        repro.spec.oracle.name(),
                        repro.seed
                    );
                }
            }
        }
        let _ = writeln!(out, "replayed {total} cases, {failures} failing");
        if failures > 0 {
            return Err(CliError::Failure(out));
        }
        return Ok(out);
    }

    let budget_cases = get_usize(flags, "budget-cases", 200)?;
    if budget_cases == 0 {
        return Err("--budget-cases must be positive".into());
    }
    let seed = get_u64(flags, "seed", 1)?;
    // --deadline-secs is the supervised spelling of the wall budget; when
    // both are given the tighter one wins.
    let budget_secs = get_f64(flags, "budget-secs", 0.0)?;
    let deadline_secs = get_f64(flags, "deadline-secs", 0.0)?;
    let wall = match (budget_secs > 0.0, deadline_secs > 0.0) {
        (true, true) => budget_secs.min(deadline_secs),
        (true, false) => budget_secs,
        (false, true) => deadline_secs,
        (false, false) => 0.0,
    };
    let budget = (wall > 0.0).then(|| std::time::Duration::from_secs_f64(wall));
    let watchdog_steps = match flags.get("watchdog-steps") {
        None => None,
        Some(_) => Some(get_u64(flags, "watchdog-steps", 0)?),
    };
    let out_dir = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/conformance".to_string());
    let cfg = FuzzConfig {
        seed,
        budget_cases,
        budget,
        out_dir: Some(out_dir.into()),
        watchdog_steps,
        checkpoint: flags.get("resume").map(std::path::PathBuf::from),
    };
    let report = fuzz::fuzz_checkpointed(&cfg).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidInput {
            CliError::Usage(format!("--resume: {e}"))
        } else {
            CliError::Failure(format!("conformance checkpoint error: {e}\n"))
        }
    })?;
    if let Some(path) = flags.get("quarantine-out") {
        if !report.quarantined.is_empty() {
            let body = report.quarantined.join("\n") + "\n";
            routesync_exec::atomic_write(std::path::Path::new(path), body.as_bytes())
                .map_err(|e| CliError::Failure(format!("cannot write {path:?}: {e}\n")))?;
        }
    }
    let text = report.render();
    if report.interrupted {
        let done = report.cases;
        return Err(CliError::Interrupted(format!(
            "{text}interrupted — {done}/{budget_cases} cases checkpointed; \
             rerun with the same --resume flag to continue\n"
        )));
    }
    if report.failures.is_empty() && report.quarantined.is_empty() {
        Ok(text)
    } else {
        Err(CliError::Failure(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]).expect("ok"), USAGE);
        assert_eq!(run(&args("help")).expect("ok"), USAGE);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args("frobnicate")).is_err());
    }

    #[test]
    fn flag_parsing_rejects_malformed_input() {
        assert!(run(&args("simulate n 20")).is_err());
        assert!(run(&args("simulate --n")).is_err());
        assert!(run(&args("simulate --n twenty")).is_err());
        assert!(run(&args("simulate --start sideways")).is_err());
        assert!(run(&args("analyze --n 1")).is_err());
        assert!(run(&args("recommend --target 1.5")).is_err());
    }

    #[test]
    fn simulate_default_synchronizes() {
        let out = run(&args("simulate --horizon 300000 --seed 1993")).expect("ok");
        assert!(out.contains("SYNCHRONIZED"), "{out}");
    }

    #[test]
    fn simulate_engines_agree_on_output() {
        let base = "simulate --n 8 --horizon 80000 --seed 42 --plot --engine";
        let event = run(&args(&format!("{base} event"))).expect("ok");
        let fast = run(&args(&format!("{base} fast"))).expect("ok");
        let batched = run(&args(&format!("{base} batched"))).expect("ok");
        assert_eq!(event, fast);
        assert_eq!(fast, batched);
        assert!(run(&args("simulate --engine warp")).is_err());
    }

    #[test]
    fn simulate_sync_start_with_big_jitter_desynchronizes() {
        let out = run(&args(
            "simulate --start sync --tr 5 --horizon 200000 --seed 7",
        ))
        .expect("ok");
        assert!(out.contains("DESYNCHRONIZED"), "{out}");
    }

    #[test]
    fn simulate_plot_flag_adds_a_chart() {
        let out = run(&args("simulate --n 5 --horizon 5000 --seed 1 --plot")).expect("ok");
        assert!(out.contains("largest cluster per round"), "{out}");
        assert!(out.contains('┐'), "{out}");
    }

    #[test]
    fn simulate_telemetry_ends_with_the_run() {
        let dir = std::env::temp_dir().join(format!("routesync-cli-obs-{}", std::process::id()));
        let folded = dir.join("spans/simulate.folded");
        let mut argv = args("simulate --n 5 --horizon 5000 --seed 1 --engine fast --obs-folded");
        argv.push(folded.display().to_string());
        run(&argv).expect("ok");
        let body = std::fs::read_to_string(&folded).expect("folded stacks written");
        assert!(body.contains("core;fast;run "), "{body}");
        assert!(
            !routesync_obs::global().is_enabled(),
            "simulate left a live collector behind"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn analyze_reports_regimes() {
        let low = run(&args("analyze --tr 0.1")).expect("ok");
        assert!(low.contains("LOW randomization"), "{low}");
        let high = run(&args("analyze --tr 1.0")).expect("ok");
        assert!(high.contains("HIGH randomization"), "{high}");
        // Frozen clusters: never desynchronizes.
        let frozen = run(&args("analyze --tr 0.01")).expect("ok");
        assert!(frozen.contains("never"), "{frozen}");
    }

    #[test]
    fn recommend_is_consistent_with_analyze() {
        let out = run(&args("recommend --n 20 --tp 121 --tc 0.11")).expect("ok");
        assert!(out.contains("Tr >="), "{out}");
        // The number is parseable and within the expected band.
        let tr: f64 = out
            .split("Tr >= ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("parseable Tr");
        assert!(tr > 0.11 && tr < 1.1, "tr = {tr}");
    }

    #[test]
    fn nearnet_reports_the_papers_signature() {
        let out = run(&args("nearnet --probes 400")).expect("ok");
        assert!(out.contains("loss"), "{out}");
        assert!(out.contains("autocorrelation lag"), "{out}");
        assert!(run(&args("nearnet --mode sideways")).is_err());
        assert!(run(&args("nearnet --probes 0")).is_err());
    }

    #[test]
    fn conformance_small_budget_is_green_and_deterministic() {
        let dir = std::env::temp_dir().join("routesync-cli-conformance-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "conformance --budget-cases 8 --seed 1 --out {}",
            dir.display()
        );
        let first = run(&args(&cmd)).expect("fuzz run passes");
        assert!(first.contains("8 cases, 8 passed, 0 failed"), "{first}");
        let summary_a = std::fs::read_to_string(dir.join("summary.txt")).expect("summary");
        let second = run(&args(&cmd)).expect("fuzz run passes again");
        let summary_b = std::fs::read_to_string(dir.join("summary.txt")).expect("summary");
        assert_eq!(first, second, "conformance output must be byte-identical");
        assert_eq!(summary_a, summary_b);
        assert_eq!(first, summary_a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conformance_replays_a_reproducer_file() {
        use routesync_conformance::{CaseSpec, Oracle, Reproducer};
        let dir = std::env::temp_dir().join("routesync-cli-replay-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("repro.jsonl");
        let repro = Reproducer {
            seed: 3,
            spec: CaseSpec {
                oracle: Oracle::EngineEquivalence,
                n: 3,
                tp_ms: 10_000,
                tc_ms: 110,
                tr_ms: 100,
                sync_start: false,
                horizon_s: 1_000,
                faults: vec![],
                batch_width: 2,
                depth: 0,
            },
            message: String::new(),
        };
        std::fs::write(&path, format!("{}\n", repro.to_line())).expect("write");
        let out = run(&args(&format!("conformance --replay {}", path.display()))).expect("ok");
        assert!(out.contains("replayed 1 cases, 0 failing"), "{out}");
        assert!(run(&args("conformance --replay /nonexistent.jsonl")).is_err());
        assert!(run(&args("conformance --budget-cases 0")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_malformed_invocations() {
        assert!(run(&args("serve --spec sideways")).is_err());
        assert!(run(&args("serve --twin maybe")).is_err());
        assert!(run(&args("serve --scale 0")).is_err());
        assert!(run(&args("serve --loss 0:2.0")).is_err());
        assert!(run(&args("serve --crash one:5")).is_err());
        assert!(run(&args("serve --n 1 --spec lan")).is_err());
    }

    #[test]
    fn serve_runs_a_tiny_live_daemon_to_completion() {
        let out = run(&args(
            "serve --spec lan --n 2 --jitter-ms 50 --scale 600 --for-sim-secs 700 --twin off",
        ))
        .expect("ok");
        assert!(out.contains("completed"), "{out}");
        assert!(out.contains("routers: 2"), "{out}");
    }

    #[test]
    fn protocols_lists_all_four() {
        let out = run(&args("protocols")).expect("ok");
        for name in ["RIP", "IGRP", "DECnet", "EGP"] {
            assert!(out.contains(name), "{out}");
        }
    }
}
