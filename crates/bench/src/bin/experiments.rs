//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p routesync-bench --bin experiments -- all
//! cargo run --release -p routesync-bench --bin experiments -- fig14 fig15
//! cargo run --release -p routesync-bench --bin experiments -- --fast all
//! ```
//!
//! CSVs land in `results/`; each experiment prints an ASCII rendering and
//! a PASS/FAIL shape check against the paper's qualitative claims.
//!
//! Each experiment runs as a one-cell supervised ensemble
//! (`routesync_exec::Ensemble`): a panicking figure is quarantined with
//! a reproducer while the remaining figures still run, `--deadline-secs`
//! bounds the whole batch (figures not started before the deadline are
//! quarantined, not silently skipped), and `--resume=CKPT` streams each
//! finished figure's report to a crash-safe checkpoint so an interrupted
//! `all` run picks up where it left off. See `docs/RESILIENCE.md`.

use routesync_bench::{Config, Experiment, ALL};
use routesync_exec::telemetry::{Outputs, Session};
use routesync_exec::{checkpoint, interrupt, Ensemble, Quarantine, RunFailure, SuperviseConfig};

const USAGE: &str = "\
usage: experiments [--fast] [--seed=N] [--out=DIR] [--threads=N]
                   [--obs=PATH.json] [--serve-obs=ADDR]
                   [--obs-series=PATH] [--obs-folded=PATH]
                   [--resume=CKPT] [--deadline-secs=S]
                   [--watchdog-steps=K] [--quarantine-out=PATH.jsonl]
                   <id...|all>

exit codes: 0 ok, 1 shape-check failures or quarantined experiments,
            2 usage, 130 interrupted (checkpoint durable)
";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::default();
    let mut obs = Outputs::default();
    let mut resume_path: Option<String> = None;
    let mut quarantine_out: Option<String> = None;
    // Figures run one at a time; this loop checks for Ctrl-C between
    // them, so the per-figure ensemble leaves interrupts alone.
    let mut sup = SuperviseConfig::default();
    let mut batch_deadline: Option<f64> = None;
    let mut usage_error = false;
    args.retain(|a| match a.as_str() {
        "--fast" => {
            cfg.fast = true;
            false
        }
        "--help" | "-h" => {
            print!("{USAGE}");
            std::process::exit(0);
        }
        _ if a.starts_with("--obs=") => {
            obs.snapshot = Some(a["--obs=".len()..].into());
            false
        }
        _ if a.starts_with("--serve-obs=") => {
            obs.serve = Some(a["--serve-obs=".len()..].to_string());
            false
        }
        _ if a.starts_with("--obs-series=") => {
            obs.series = Some(a["--obs-series=".len()..].into());
            false
        }
        _ if a.starts_with("--obs-folded=") => {
            obs.folded = Some(a["--obs-folded=".len()..].into());
            false
        }
        _ if a.starts_with("--seed=") => {
            match a["--seed=".len()..].parse() {
                Ok(seed) => cfg.seed = seed,
                Err(_) => {
                    eprintln!("experiments: --seed must be a non-negative integer");
                    usage_error = true;
                }
            }
            false
        }
        _ if a.starts_with("--out=") => {
            cfg.out_dir = a["--out=".len()..].into();
            false
        }
        _ if a.starts_with("--threads=") => {
            // Every ensemble a figure fans out runs on this many workers;
            // results are identical at any thread count.
            match a["--threads=".len()..].parse::<usize>() {
                Ok(n) if n > 0 => cfg.threads = n,
                _ => {
                    eprintln!("experiments: --threads must be a positive integer");
                    usage_error = true;
                }
            }
            false
        }
        _ if a.starts_with("--resume=") => {
            resume_path = Some(a["--resume=".len()..].to_string());
            false
        }
        _ if a.starts_with("--deadline-secs=") => {
            match a["--deadline-secs=".len()..].parse::<f64>() {
                Ok(secs) => batch_deadline = Some(secs),
                Err(_) => usage_error = true,
            }
            false
        }
        _ if a.starts_with("--watchdog-steps=") => {
            match a["--watchdog-steps=".len()..].parse::<u64>() {
                Ok(steps) => sup.watchdog_steps = Some(steps),
                Err(_) => usage_error = true,
            }
            false
        }
        _ if a.starts_with("--quarantine-out=") => {
            quarantine_out = Some(a["--quarantine-out=".len()..].to_string());
            false
        }
        _ if a.starts_with("--") => {
            eprintln!("experiments: unknown flag `{a}`");
            usage_error = true;
            false
        }
        _ => true,
    });
    let known: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    if usage_error || args.is_empty() {
        eprint!("{USAGE}");
        eprintln!("ids: {}", known.join(" "));
        std::process::exit(2);
    }
    let telemetry = Session::start("experiments", obs).unwrap_or_else(|err| {
        eprintln!("experiments: {err}");
        std::process::exit(1);
    });
    let selected: Vec<&(&str, Experiment)> = if args.iter().any(|a| a == "all") {
        ALL.iter().collect()
    } else {
        args.iter()
            .map(|id| {
                ALL.iter().find(|(name, _)| name == id).unwrap_or_else(|| {
                    eprintln!("experiments: unknown experiment id `{id}`");
                    eprintln!("ids: {}", known.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    };

    // Optional checkpoint: one record per finished experiment, keyed by
    // id, value `<passed 0|1>\n<rendered report>`.
    let meta = format!("experiments-v1 seed={} fast={}", cfg.seed, cfg.fast);
    let mut completed: std::collections::BTreeMap<String, String> = Default::default();
    let mut writer = match &resume_path {
        Some(path) => {
            interrupt::install();
            match checkpoint::resume(std::path::Path::new(path), &meta) {
                Ok((w, records)) => {
                    completed = records;
                    Some(w)
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                    eprintln!("experiments: {e}");
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("experiments: cannot resume checkpoint: {e}");
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
    }

    let batch_start = std::time::Instant::now();
    let mut failures = 0;
    let mut quarantines: Vec<String> = Vec::new();
    let mut interrupted = false;
    for &&(id, experiment) in &selected {
        let reproducer = format!(
            "{{\"cmd\":\"experiments\",\"id\":\"{id}\",\"seed\":{},\"fast\":{}}}",
            cfg.seed, cfg.fast
        );
        if let Some(record) = completed.get(id) {
            let (passed, report) = record.split_once('\n').unwrap_or(("0", record));
            println!("{report}");
            println!("({id} resumed from checkpoint)\n");
            if passed != "1" {
                failures += 1;
            }
            continue;
        }
        if interrupt::interrupted() {
            interrupted = true;
            break;
        }
        // The batch deadline quarantines experiments it cannot start —
        // explicit censoring instead of an open-ended run.
        let deadline_blown = batch_deadline
            .map(|limit| batch_start.elapsed().as_secs_f64() > limit)
            .unwrap_or(false);
        let outcome = if deadline_blown {
            Err(Quarantine {
                index: 0,
                failure: RunFailure::Deadline {
                    limit_secs: batch_deadline.unwrap_or(0.0),
                },
                reproducer: reproducer.clone(),
            })
        } else {
            let started = std::time::Instant::now();
            Ensemble::new(&[id])
                .limits(sup.clone())
                .describe(|_, _| reproducer.clone())
                .run(
                    || (),
                    |(), _ctx, _, _| {
                        let outcome = experiment(&cfg);
                        (outcome.report(), outcome.passed(), started.elapsed())
                    },
                )
                .into_result()
                .map(|mut single| single.remove(0))
        };
        match outcome {
            Ok((report, passed, took)) => {
                println!("{report}");
                println!("({id} took {took:.1?})\n");
                if !passed {
                    failures += 1;
                }
                if let Some(w) = &mut writer {
                    let value = format!("{}\n{report}", if passed { "1" } else { "0" });
                    if let Err(e) = w.append(id, &value) {
                        eprintln!("experiments: checkpoint append failed: {e}");
                    }
                }
            }
            Err(q) => {
                eprintln!(
                    "experiments: {id} quarantined ({}): {}",
                    q.failure.kind(),
                    q.failure.detail()
                );
                quarantines.push(q.to_line());
                failures += 1;
                // Quarantines are deliberately NOT checkpointed: a crash
                // or deadline may be environmental, so a resumed run
                // retries the experiment instead of replaying the upset.
            }
        }
    }

    if let Some(w) = &mut writer {
        if let Err(e) = w.sync() {
            eprintln!("experiments: checkpoint sync failed: {e}");
        }
    }
    if !quarantines.is_empty() {
        if let Some(path) = &quarantine_out {
            let body = quarantines.join("\n") + "\n";
            if let Err(e) = checkpoint::atomic_write(std::path::Path::new(path), body.as_bytes()) {
                eprintln!("experiments: failed to write --quarantine-out {path}: {e}");
            }
        }
    }
    if interrupted {
        eprintln!(
            "experiments: interrupted — finished experiments are checkpointed; \
             rerun with the same --resume flag to continue"
        );
        std::process::exit(130);
    }
    if let Err(err) = telemetry.write() {
        eprintln!("experiments: {err}");
        std::process::exit(1);
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed their shape checks or were quarantined");
        std::process::exit(1);
    }
    telemetry.serve_until_interrupted();
}
