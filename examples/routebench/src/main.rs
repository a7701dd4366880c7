//! `routebench` — the routesync benchmark.
//!
//! Four workloads, one process each (see `README.md` for why each exists
//! and which layer metric moves which end-to-end metric):
//!
//! * `sweep-sync` — the paper's time-to-synchronize sweep through both
//!   ensemble engines;
//! * `netsim-scale` — the packet simulator at 100k routers;
//! * `netsim-churn` — a 300-router mesh under link flaps, loss and data
//!   traffic;
//! * `live-mesh` — the UDP daemon hosting 256 routers on loopback.
//!
//! ```text
//! routebench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                  [--size full|smoke] [--out PATH]
//! routebench all --trials N --out DIR [--seconds S] [--seed N]
//! routebench compare BASE NEW
//! routebench smoke
//! ```
//!
//! A run repeats its workload's fixed unit of work for `--seconds`, checks
//! every output, and prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced units, then
//! probes single layers.

mod harness;
mod host;
mod live;
mod measure;
mod netsim;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde_json::Value;

use measure::{median, Checks, Metrics, Phase, Samples};

/// The benchmark definition at the repository root; the metric names and
/// units printed here are checked against it.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepSync,
    NetsimScale,
    NetsimChurn,
    LiveMesh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepSync,
        Workload::NetsimScale,
        Workload::NetsimChurn,
        Workload::LiveMesh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSync => "sweep-sync",
            Workload::NetsimScale => "netsim-scale",
            Workload::NetsimChurn => "netsim-churn",
            Workload::LiveMesh => "live-mesh",
        }
    }

    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (expected sweep-sync, netsim-scale, netsim-churn or live-mesh)")
            })
    }
}

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run every workload at about 1/50 of its size (the `smoke` check).
    pub smoke: bool,
}

impl Ctx {
    /// Run the workload's units for `--seconds` (see [`measure::measure`]).
    /// A traced run alternates untraced and traced units: a traced unit
    /// runs under an enabled global collector (so the crates' own counters
    /// and spans record; simulators resolve it when built) and the
    /// benchmark's span recorder, both left on for the probes afterwards.
    pub fn measure<S, R>(
        &self,
        setup: impl FnMut() -> Result<S, String>,
        run: impl FnMut(S) -> Result<R, String>,
    ) -> Result<(Phase<R>, Option<Phase<R>>), String> {
        let budget = Duration::from_secs_f64(self.seconds);
        if !self.trace {
            return measure::measure(budget, None, setup, run);
        }
        let collector = routesync_obs::Collector::enabled();
        trace::start();
        let switch = |on: bool| {
            routesync_obs::install(if on {
                collector.clone()
            } else {
                routesync_obs::Collector::disabled()
            });
            trace::record(on);
        };
        measure::measure(budget, Some(&switch), setup, run)
    }

    pub fn size(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// What a workload reports back.
pub struct Outcome {
    pub untraced: Samples,
    /// The traced phase's samples, for the tracing overhead.
    pub traced: Option<Samples>,
    pub checks: Checks,
    pub layers: Metrics,
    /// Workload-specific facts for the detailed record (digests, counts).
    pub details: Vec<(String, Value)>,
    /// Most worker threads the workload ran at once.
    pub threads: usize,
}

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// The metric catalogue and run length of `BENCHMARK.json`.
pub struct Catalogue {
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

impl Catalogue {
    pub fn load() -> Result<Catalogue, String> {
        let doc: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let decls = |key: &str| -> Result<Vec<MetricDecl>, String> {
            field(&doc, key)?
                .as_array()
                .ok_or_else(|| format!("BENCHMARK.json: {key} is not a list"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        field(m, k)
                            .ok()
                            .and_then(as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {k:?}"))
                    };
                    Ok(MetricDecl {
                        name: text("name")?,
                        unit: text("unit")?,
                        better: text("better")?,
                        bound: m.get("bound").and_then(as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
            run_seconds: field(&doc, "run_seconds")
                .ok()
                .and_then(as_f64)
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
        })
    }
}

struct RunArgs {
    workload: Workload,
    ctx: Ctx,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], catalogue: &Catalogue) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1993,
        seconds: catalogue.run_seconds,
        trace: false,
        smoke: false,
    };
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value()?)?),
            "--seed" => {
                ctx.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                ctx.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                ctx.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--size" => {
                ctx.smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    other => return Err(format!("--size must be full or smoke, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        ctx,
        out,
    })
}

/// Format the result line: every catalogue metric of the run's kind, in
/// catalogue order. A per-layer metric the workload does not exercise
/// reads 0; a measured metric missing from the catalogue, or measured in
/// another unit, is an error.
fn metrics_object(decls: &[MetricDecl], measured: &Metrics) -> Result<Value, String> {
    for (name, (_, unit)) in &measured.0 {
        let decl = decls
            .iter()
            .find(|d| &d.name == name)
            .ok_or_else(|| format!("metric {name} is not in BENCHMARK.json"))?;
        if decl.unit != *unit {
            return Err(format!(
                "metric {name} measured in {unit}, declared in {}",
                decl.unit
            ));
        }
    }
    Ok(Value::Object(
        decls
            .iter()
            .map(|d| {
                let value = measured.0.get(&d.name).map_or(0.0, |&(v, _)| v);
                (
                    d.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(d.unit.clone())),
                    ]),
                )
            })
            .collect(),
    ))
}

fn samples_value(s: &Samples) -> Value {
    let list = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::F64(x)).collect());
    Value::Object(vec![
        ("setup_s".into(), list(&s.setup_s)),
        ("run_s".into(), list(&s.run_s)),
        ("cpu_s".into(), list(&s.cpu_s)),
    ])
}

/// The result line's metrics: end-to-end from the untraced units, or
/// per-layer from a traced run.
fn result_metrics(outcome: &mut Outcome, catalogue: &Catalogue) -> Result<Value, String> {
    let untraced = &outcome.untraced;
    let Some(traced) = &outcome.traced else {
        let mut e2e = Metrics::default();
        e2e.set("setup_s", "s", median(&untraced.setup_s));
        e2e.set("run_s", "s", median(&untraced.run_s));
        e2e.set("cpu_s", "s", median(&untraced.cpu_s));
        e2e.set("peak_rss_mb", "MiB", untraced.peak_rss_kib / 1024.0);
        return metrics_object(&catalogue.end_to_end, &e2e);
    };
    let checks = &outcome.checks;
    let layers = &mut outcome.layers;
    layers.set(
        "checks.fail_pct",
        "%",
        100.0 * measure::ratio(checks.failed as f64, checks.attempted as f64),
    );
    layers.set(
        "obs.trace_overhead_pct",
        "%",
        100.0 * (median(&traced.cpu_s) / median(&untraced.cpu_s) - 1.0),
    );
    metrics_object(&catalogue.per_layer, layers)
}

/// The detailed record `--out` asks for.
fn record(workload: Workload, ctx: &Ctx, outcome: Outcome, build: Value, metrics: Value) -> Value {
    let checks = &outcome.checks;
    let mut record = vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::U64(ctx.seed)),
        ("seconds".into(), Value::F64(ctx.seconds)),
        ("trace".into(), Value::Bool(ctx.trace)),
        ("size".into(), Value::Str(ctx.size().into())),
        ("build".into(), build),
        ("correct".into(), Value::Bool(checks.correct())),
        ("attempted".into(), Value::U64(checks.attempted)),
        ("failed".into(), Value::U64(checks.failed)),
        (
            "errors".into(),
            Value::Array(checks.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("untraced".into(), samples_value(&outcome.untraced)),
        (
            "peak_rss_kib".into(),
            Value::F64(outcome.untraced.peak_rss_kib),
        ),
    ];
    if let Some(traced) = &outcome.traced {
        record.push(("traced".into(), samples_value(traced)));
    }
    record.push(("metrics".into(), metrics));
    record.push(("details".into(), Value::Object(outcome.details)));
    Value::Object(record)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load()?;
    let RunArgs { workload, ctx, out } = parse_run_args(args, &catalogue)?;
    let mut outcome = match workload {
        Workload::SweepSync => sweep::run(&ctx),
        Workload::NetsimScale => netsim::run(&ctx, netsim::Kind::Scale),
        Workload::NetsimChurn => netsim::run(&ctx, netsim::Kind::Churn),
        Workload::LiveMesh => live::run(&ctx),
    }?;
    let attempted = outcome.checks.attempted;
    outcome
        .checks
        .require(attempted > 0, || "no operation was checked".into());
    let metrics = result_metrics(&mut outcome, &catalogue)?;

    const SHOWN: usize = 10;
    let errors = &outcome.checks.errors;
    for e in errors.iter().take(SHOWN) {
        eprintln!("routebench: {}: check failed: {e}", workload.name());
    }
    if errors.len() > SHOWN {
        eprintln!(
            "routebench: {}: ... and {} more failed checks",
            workload.name(),
            errors.len() - SHOWN
        );
    }
    let build = host::build_block(outcome.threads);
    eprintln!(
        "routebench: build {}",
        serde_json::to_string(&build).expect("Value serializes")
    );
    let trace_dir = out
        .as_ref()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")));
    if let Some(paths) = trace::write(&trace_dir, workload.name())
        .map_err(|e| format!("writing trace files: {e}"))?
    {
        eprintln!(
            "routebench: spans in {} and {}",
            paths[0].display(),
            paths[1].display()
        );
    }

    let correct = outcome.checks.correct();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.checks.attempted)),
        ("failed".into(), Value::U64(outcome.checks.failed)),
        ("metrics".into(), metrics.clone()),
    ]);
    if let Some(path) = &out {
        let text = serde_json::to_string_pretty(&record(workload, &ctx, outcome, build, metrics))
            .expect("Value serializes");
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&line).expect("Value serializes")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const USAGE: &str = "usage:
  routebench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--size full|smoke] [--out PATH]
  routebench all --trials N --out DIR [--seconds S] [--seed N]
  routebench compare BASE NEW
  routebench smoke
workloads: sweep-sync, netsim-scale, netsim-churn, live-mesh";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => run(&args),
        Some("all") => harness::all(&args[1..]),
        Some("compare") => harness::compare(&args[1..]),
        Some("smoke") => harness::smoke(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("routebench: {msg}");
        ExitCode::from(2)
    })
}
