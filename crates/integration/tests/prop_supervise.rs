//! End-to-end properties of the supervised execution layer: a
//! checkpointed ensemble killed after `k` cells and resumed must produce
//! byte-identical output at any thread count; a panicking cell must be
//! quarantined with the right taxonomy entry while the rest of the
//! ensemble completes; and checkpoint corruption must be detected loudly
//! while a torn tail (the signature of a crash mid-append) is truncated
//! and resumed over.
//!
//! The "kill" here is [`SuperviseConfig::drain_after`] — the
//! deterministic in-process stand-in for SIGINT/SIGKILL that stops
//! workers claiming new cells. The real kill-and-resume path (SIGKILL of
//! a live sweep process) is exercised by the CI smoke stage.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use routesync_core::{FastModel, FirstPassageUp, PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_exec::{checkpoint, Ensemble, RunFailure, SuperviseConfig};

const N: usize = 4;
const META: &str = "prop-supervise-v1 n=4 tp=121 tc=0.11 tr=2 horizon=2000";

fn params() -> PeriodicParams {
    PeriodicParams::new(
        N,
        Duration::from_secs_f64(121.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(2.0),
    )
}

/// Test policy: interrupt-heeding off (the SIGINT flag is process-global
/// and these tests must not couple to it), panic boundary on.
fn quiet() -> SuperviseConfig {
    SuperviseConfig {
        heed_interrupt: false,
        ..SuperviseConfig::new()
    }
}

/// One cell of the toy sweep: a real model run, rendered to a stable
/// string exactly like the sweep driver renders its metrics.
fn cell_value(model: &mut FastModel, seed: u64) -> String {
    model.reset(&StartState::Unsynchronized, seed);
    let mut fp = FirstPassageUp::new(N);
    let end = model.run(SimTime::from_secs(2_000), &mut fp);
    let first = fp
        .first(N)
        .map(|(t, _)| t.as_nanos().to_string())
        .unwrap_or_else(|| "none".to_string());
    format!("{}:{}", end.as_nanos(), first)
}

/// A miniature checkpointed sweep driver with the same shape as the real
/// one: resume the checkpoint, run only the missing cells under
/// supervision (streaming each finished cell to the checkpoint), and
/// render the final output from the complete key→value map in input
/// order. Returns `Ok(None)` when a drain stopped the run short.
fn run_checkpointed(
    path: &Path,
    seeds: &[u64],
    threads: usize,
    drain_after: Option<usize>,
) -> io::Result<Option<String>> {
    let (writer, cached) = checkpoint::resume(path, META)?;
    let pending: Vec<u64> = seeds
        .iter()
        .copied()
        .filter(|s| !cached.contains_key(&s.to_string()))
        .collect();
    let writer = Mutex::new(writer);
    let cfg = SuperviseConfig {
        drain_after,
        ..quiet()
    };
    let out = Ensemble::new(&pending)
        .threads(threads)
        .limits(cfg)
        .describe(|_i, &seed| format!("{{\"seed\":{seed}}}"))
        .sink(|i, result: Result<&String, _>| {
            if let Ok(value) = result {
                let mut w = writer.lock().unwrap();
                w.append(&pending[i].to_string(), value).expect("append");
            }
        })
        .run(
            || FastModel::new(params(), StartState::Unsynchronized, 0),
            |model, _ctx, _i, &seed| cell_value(model, seed),
        );
    writer.lock().unwrap().sync()?;

    let mut complete: BTreeMap<u64, String> = cached
        .into_iter()
        .map(|(k, v)| (k.parse::<u64>().expect("numeric key"), v))
        .collect();
    for (i, slot) in out.results.iter().enumerate() {
        if let Some(v) = slot.done() {
            complete.insert(pending[i], v.clone());
        }
    }
    if out.interrupted || complete.len() < seeds.len() {
        return Ok(None);
    }
    // Final output recomputed from the complete map in input order — the
    // invariant that makes resume byte-identical by construction.
    let mut rendered = String::new();
    for seed in seeds {
        rendered.push_str(&format!("{seed} {}\n", complete[seed]));
    }
    Ok(Some(rendered))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("routesync-prop-supervise");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Killing a checkpointed run after `k` cells and resuming yields output
/// byte-identical to an uninterrupted run — at thread counts 1, 2 and 4,
/// and for several kill points including "before anything finished".
#[test]
fn kill_after_k_and_resume_is_byte_identical_at_every_thread_count() {
    let seeds: Vec<u64> = (100..124).collect();

    // Reference: one clean, serial, uncheckpointed-in-spirit run.
    let clean_path = tmp("clean.ckpt");
    let _ = std::fs::remove_file(&clean_path);
    let clean = run_checkpointed(&clean_path, &seeds, 1, None)
        .expect("clean run")
        .expect("clean run completes");
    let _ = std::fs::remove_file(&clean_path);

    for threads in [1usize, 2, 4] {
        for kill_after in [0usize, 1, 7, 23] {
            let path = tmp(&format!("kill-{threads}-{kill_after}.ckpt"));
            let _ = std::fs::remove_file(&path);

            let first =
                run_checkpointed(&path, &seeds, threads, Some(kill_after)).expect("killed run I/O");
            assert!(
                first.is_none(),
                "drain_after={kill_after} must stop the run short (threads={threads})"
            );

            // The "process restart": resume from the checkpoint alone.
            let resumed = run_checkpointed(&path, &seeds, threads, None)
                .expect("resumed run I/O")
                .expect("resumed run completes");
            assert_eq!(
                resumed, clean,
                "resume not byte-identical (threads={threads}, kill_after={kill_after})"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A cell that panics mid-model-run is quarantined under the `panic`
/// taxonomy entry with its `(seed)` reproducer, and every other cell
/// still completes with the value it would have produced anyway.
#[test]
fn panicking_scenario_is_quarantined_with_correct_taxonomy() {
    let seeds: Vec<u64> = (0..32).collect();
    let bomb = 13u64;
    let out = Ensemble::new(&seeds)
        .threads(4)
        .limits(quiet())
        .describe(|_i, &seed| format!("{{\"seed\":{seed}}}"))
        .run(
            || FastModel::new(params(), StartState::Unsynchronized, 0),
            |model, _ctx, _i, &seed| {
                let v = cell_value(model, seed);
                assert!(seed != bomb, "injected scenario failure at seed {seed}");
                v
            },
        );
    assert_eq!(out.completed(), seeds.len() - 1);
    assert_eq!(out.quarantined.len(), 1);
    let q = &out.quarantined[0];
    assert_eq!(q.index, 13);
    assert_eq!(q.failure.kind(), "panic");
    assert!(q.failure.detail().contains("injected scenario failure"));
    assert_eq!(q.reproducer, "{\"seed\":13}");
    let line = q.to_line();
    assert!(line.starts_with("{\"failure\":\"panic\""), "{line}");

    // The survivors are unperturbed by their neighbour's panic: they
    // match a run with no bomb at all (worker scratch was rebuilt).
    let clean = Ensemble::new(&seeds)
        .threads(4)
        .limits(quiet())
        .describe(|_i, &seed| format!("{{\"seed\":{seed}}}"))
        .run(
            || FastModel::new(params(), StartState::Unsynchronized, 0),
            |model, _ctx, _i, &seed| cell_value(model, seed),
        );
    for (i, seed) in seeds.iter().enumerate() {
        if *seed == bomb {
            continue;
        }
        assert_eq!(
            out.results[i].done(),
            clean.results[i].done(),
            "seed {seed} perturbed by quarantine of seed {bomb}"
        );
    }
}

/// The watchdog taxonomy entry through the same ensemble surface: a cell
/// that ticks past its simulated-step budget trips at exactly the same
/// step on every thread count.
#[test]
fn runaway_scenario_trips_the_watchdog_deterministically() {
    let seeds: Vec<u64> = (0..8).collect();
    let cfg = SuperviseConfig {
        watchdog_steps: Some(500),
        ..quiet()
    };
    for threads in [1usize, 4] {
        let out = Ensemble::new(&seeds)
            .threads(threads)
            .limits(cfg.clone())
            .describe(|_i, &seed| format!("{{\"seed\":{seed}}}"))
            .run(
                || (),
                |(), ctx, _i, &seed| {
                    // Seed 5 "simulates" forever; the others stay in budget.
                    let steps = if seed == 5 { 10_000u64 } else { 100 };
                    for _ in 0..steps {
                        ctx.tick();
                    }
                    seed
                },
            );
        assert_eq!(out.quarantined.len(), 1, "threads={threads}");
        assert_eq!(
            out.quarantined[0].failure,
            RunFailure::Watchdog { steps: 501 },
            "watchdog must trip at budget+1 regardless of threads"
        );
        assert_eq!(out.completed(), 7, "threads={threads}");
    }
}

/// Bit-rot in a *complete* checkpoint frame is an error the driver
/// surfaces, never a silent "those cells were not run"; a torn trailing
/// frame is truncated and resumed over.
#[test]
fn checkpoint_corruption_is_loud_and_torn_tails_resume() {
    let seeds: Vec<u64> = (7..15).collect();

    // Build a partial checkpoint, then corrupt a payload bit.
    let path = tmp("corrupt-e2e.ckpt");
    let _ = std::fs::remove_file(&path);
    run_checkpointed(&path, &seeds, 2, Some(3)).expect("partial run");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    assert!(bytes.len() > 16, "checkpoint must contain records");
    let mid = bytes.len() - 3; // inside the last record's payload
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite");

    let err = run_checkpointed(&path, &seeds, 2, None).expect_err("corruption must surface");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("CRC"), "{err}");
    let _ = std::fs::remove_file(&path);

    // Torn tail: append half a frame (a crash mid-append), then resume.
    let path = tmp("torn-e2e.ckpt");
    let _ = std::fs::remove_file(&path);
    run_checkpointed(&path, &seeds, 2, Some(3)).expect("partial run");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        f.write_all(&[42, 0, 0, 0, 9, 9]).expect("torn bytes");
    }
    let loaded = checkpoint::load(&path).expect("torn tail is tolerated");
    assert!(loaded.torn_tail, "the half-frame must register as torn");

    let clean_path = tmp("torn-clean.ckpt");
    let _ = std::fs::remove_file(&clean_path);
    let clean = run_checkpointed(&clean_path, &seeds, 1, None)
        .expect("clean run")
        .expect("completes");
    let resumed = run_checkpointed(&path, &seeds, 2, None)
        .expect("resume over torn tail")
        .expect("completes");
    assert_eq!(resumed, clean, "torn-tail resume must stay byte-identical");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&clean_path);

    // A checkpoint from a different run configuration is refused.
    let path = tmp("meta-e2e.ckpt");
    let _ = std::fs::remove_file(&path);
    drop(checkpoint::Writer::create(&path, "some other run").expect("create"));
    let err = run_checkpointed(&path, &seeds, 1, None).expect_err("meta mismatch");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    let _ = std::fs::remove_file(&path);
}
