//! Driving the benchmark from outside a run: `all` (repeated trials and
//! their spread), `compare` (two sets of trials against the bounds in
//! `BENCHMARK.json`), and `smoke` (every workload at small size, output
//! checked against the catalogue). Each workload runs in a child process
//! of its own, so peak memory and the global collector stay per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::measure::quartiles;
use crate::{as_f64, as_str, field, Catalogue, MetricDecl, Workload};

/// Run this binary as a child on `args`; returns the parsed last line of
/// its stdout and whether it exited successfully.
fn run_child(args: &[String]) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("`{}` printed no result", args.join(" ")))?;
    let line = serde_json::from_str(last).map_err(|e| format!("result line {last:?}: {e}"))?;
    Ok((line, out.status.success()))
}

fn metric_values(line: &Value) -> Result<Vec<(String, f64)>, String> {
    let metrics = field(line, "metrics")?
        .as_object()
        .ok_or("metrics is not an object")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = field(m, "value")?;
            as_f64(v)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("{name}: value is not a number"))
        })
        .collect()
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `all --trials N --out DIR [--seconds S] [--seed N]`: N trials of every
/// workload, untraced, alternating the workload order from trial to
/// trial; trial `t` runs with seed `seed + t`. Writes each run's record
/// and `DIR/summary.json` (samples, median and quartiles per metric). A
/// run that fails its checks is left out of the summary and makes the
/// exit code 1.
pub fn all(args: &[String]) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load()?;
    let trials: u64 = flag_value(args, "--trials")
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .ok_or("all needs --trials N (N >= 1)")?;
    let dir = PathBuf::from(flag_value(args, "--out").ok_or("all needs --out DIR")?);
    let seconds =
        flag_value(args, "--seconds").map_or(catalogue.run_seconds.to_string(), str::to_string);
    let seed: u64 = flag_value(args, "--seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed needs a whole number")?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut samples: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed = 0;
    for t in 0..trials {
        let mut order = Workload::ALL.to_vec();
        if t % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let record = dir.join(format!("{}.t{t}.json", w.name()));
            let run_args: Vec<String> = [
                "run",
                "--workload",
                w.name(),
                "--seed",
                &(seed + t).to_string(),
                "--seconds",
                &seconds,
                "--trace",
                "0",
                "--out",
                &record.to_string_lossy(),
            ]
            .map(str::to_string)
            .to_vec();
            let (line, ok) = run_child(&run_args)?;
            if !ok {
                failed += 1;
                eprintln!(
                    "routebench all: trial {t} {} FAILED its checks; left out",
                    w.name()
                );
                continue;
            }
            for (name, value) in metric_values(&line)? {
                samples
                    .entry(w.name())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
            eprintln!("routebench all: trial {t} {} done", w.name());
        }
    }

    let unit_of = |name: &str| {
        catalogue
            .end_to_end
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
    };
    let mut workloads = Vec::new();
    println!(
        "{:<14} {:<12} {:>12} {:>8}",
        "workload", "metric", "median", "iqr %"
    );
    for (w, metrics) in &samples {
        let mut rows = Vec::new();
        for (name, xs) in metrics {
            let [q1, med, q3] = quartiles(xs);
            println!(
                "{w:<14} {name:<12} {med:>12.4} {:>8.2}",
                100.0 * (q3 - q1) / med
            );
            rows.push((
                name.clone(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(unit_of(name).into())),
                    ("median".into(), Value::F64(med)),
                    ("q1".into(), Value::F64(q1)),
                    ("q3".into(), Value::F64(q3)),
                    (
                        "samples".into(),
                        Value::Array(xs.iter().map(|&x| Value::F64(x)).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((w.to_string(), Value::Object(rows)));
    }
    let summary = Value::Object(vec![
        ("trials".into(), Value::U64(trials)),
        ("failed_runs".into(), Value::U64(failed)),
        ("seconds".into(), Value::Str(seconds)),
        ("first_seed".into(), Value::U64(seed)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = dir.join("summary.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&summary).expect("Value serializes") + "\n",
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("routebench all: wrote {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("routebench all: {failed} runs failed their checks");
        ExitCode::FAILURE
    })
}

fn load_summary(path: &Path) -> Result<Value, String> {
    let path = if path.is_dir() {
        path.join("summary.json")
    } else {
        path.to_path_buf()
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary_samples(summary: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    summary
        .get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("samples")?
        .as_array()?
        .iter()
        .map(as_f64)
        .collect()
}

/// One metric of one workload, NEW against BASE.
struct Judgement {
    base: f64,
    new: f64,
    /// How much worse NEW's median is, as a share of BASE's (negative:
    /// better).
    worse: f64,
    /// BASE's interquartile range as a share of its median.
    spread: f64,
    wins: usize,
    pairs: usize,
    verdict: &'static str,
}

/// Judge one metric by the rule its bound in `BENCHMARK.json` is written
/// for: pairs are trial `t` against trial `t` (same seed), ties count for
/// neither side.
fn judge(decl: &MetricDecl, base: &[f64], new: &[f64]) -> Judgement {
    let bound = decl.bound.unwrap_or(0.0);
    let lower_better = decl.better == "lower";
    let [b1, bm, b3] = quartiles(base);
    let [_, nm, _] = quartiles(new);
    let worse = if lower_better { nm - bm } else { bm - nm } / bm;
    let spread = (b3 - b1) / bm;
    let better = |n: f64, b: f64| if lower_better { n < b } else { n > b };
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better(n, b))
        .count();
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let verdict = if spread > bound && !all_better {
        "unresolved"
    } else if worse > bound {
        "regression"
    } else if wins * 10 >= pairs * 9 && -worse > spread {
        "gain"
    } else {
        "no change"
    };
    Judgement {
        base: bm,
        new: nm,
        worse,
        spread,
        wins,
        pairs,
        verdict,
    }
}

/// `compare BASE NEW`: every end-to-end metric of every workload in both
/// summaries (files or `all` output directories), judged against its
/// bound. Exits 1 when any metric regressed.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare needs BASE and NEW (summary.json files or `all` directories)".into());
    };
    let catalogue = Catalogue::load()?;
    let base = load_summary(Path::new(base))?;
    let new = load_summary(Path::new(new))?;
    let mut regressed = false;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>7} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "worse %", "bound %", "spread %", "wins"
    );
    for w in Workload::ALL {
        for decl in &catalogue.end_to_end {
            let (Some(b), Some(n)) = (
                summary_samples(&base, w.name(), &decl.name),
                summary_samples(&new, w.name(), &decl.name),
            ) else {
                continue;
            };
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let j = judge(decl, &b, &n);
            regressed |= j.verdict == "regression";
            println!(
                "{:<14} {:<12} {:>12.4} {:>12.4} {:>8.2} {:>7.1} {:>9.2} {:>6}  {}",
                w.name(),
                decl.name,
                j.base,
                j.new,
                100.0 * j.worse,
                100.0 * decl.bound.unwrap_or(0.0),
                100.0 * j.spread,
                format!("{}/{}", j.wins, j.pairs),
                j.verdict,
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Check one result line against the catalogue: exactly the four keys, a
/// passing run, and every declared metric with its unit and a finite
/// value (end-to-end values are never 0).
fn validate(line: &Value, decls: &[MetricDecl], end_to_end: bool) -> Result<(), String> {
    let keys: Vec<&str> = line
        .as_object()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if field(line, "correct")? != &Value::Bool(true) {
        return Err("correct is not true".into());
    }
    match (field(line, "attempted")?, field(line, "failed")?) {
        (Value::U64(a), Value::U64(0)) if *a >= 1 => {}
        (a, f) => return Err(format!("attempted {a:?}, failed {f:?}")),
    }
    let metrics = field(line, "metrics")?
        .as_object()
        .ok_or("metrics is not an object")?;
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
    if names != want {
        return Err(format!("metrics {names:?}, catalogue {want:?}"));
    }
    for ((name, m), decl) in metrics.iter().zip(decls) {
        let value = as_f64(field(m, "value")?).filter(|v| v.is_finite());
        let unit = field(m, "unit").ok().and_then(as_str);
        match (value, unit) {
            (Some(v), Some(u)) if u == decl.unit && (!end_to_end || v > 0.0) => {}
            _ => return Err(format!("{name}: {m:?} does not match unit {}", decl.unit)),
        }
    }
    Ok(())
}

/// `smoke`: every workload at about 1/50 size, untraced and traced, with
/// the full checks (goldens included) and the result lines validated
/// against `BENCHMARK.json`. Aims to finish in under 15 s.
pub fn smoke(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err("smoke takes no arguments".into());
    }
    let catalogue = Catalogue::load()?;
    let started = Instant::now();
    let mut failures = 0;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let t = Instant::now();
            let run_args: Vec<String> = [
                "run",
                "--workload",
                w.name(),
                "--size",
                "smoke",
                "--seed",
                "1993",
                "--seconds",
                "0.5",
                "--trace",
                trace,
            ]
            .map(str::to_string)
            .to_vec();
            let decls = if trace == "1" {
                &catalogue.per_layer
            } else {
                &catalogue.end_to_end
            };
            let verdict = run_child(&run_args).and_then(|(line, ok)| {
                if !ok {
                    return Err("the run failed its checks".into());
                }
                validate(&line, decls, trace == "0")
            });
            let status = match &verdict {
                Ok(()) => "ok".to_string(),
                Err(e) => {
                    failures += 1;
                    format!("FAILED: {e}")
                }
            };
            println!(
                "smoke {:<13} trace {trace}  {:>5.2} s  {status}",
                w.name(),
                t.elapsed().as_secs_f64()
            );
        }
    }
    let total = started.elapsed().as_secs_f64();
    println!("smoke: {failures} failed, {total:.1} s in total");
    if total > 15.0 {
        println!("smoke: warning: over the 15 s target");
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
