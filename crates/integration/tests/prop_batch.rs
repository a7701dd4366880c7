//! End-to-end properties of the batched ensemble engine (blocks of cells
//! run through one reused `FastModel`): the batched path must be
//! byte-identical to the scalar path for every recorder event — across
//! block widths, worker-thread counts, with and without a live obs
//! collector, and straight through a kill-and-resume checkpoint cycle
//! driven by `Ensemble` over blocks of seeds.
//!
//! "Byte-identical" here is literal: full `SendTrace` and `ClusterLog`
//! contents plus the cell summaries, not canonicalized or tail-trimmed.
//! The batched engine claims exact trace identity with `FastModel`
//! (the conformance `EngineEquivalence` oracle enforces the same
//! contract against the event engine).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use routesync_core::{
    batch, experiment, BatchedEnsemble, CellOut, ClusterLog, Engine, FastModel, FirstPassageUp,
    NodeId, PeriodicParams, SendTrace, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_exec::{checkpoint, Ensemble, SuperviseConfig};

const N: usize = 5;
const HORIZON_S: u64 = 2_500;
const META: &str = "prop-batch-v1 n=5 tp=10 tc=0.11 tr=0.2 horizon=2500";

fn params() -> PeriodicParams {
    PeriodicParams::new(
        N,
        Duration::from_secs_f64(10.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(0.2),
    )
}

fn horizon() -> SimTime {
    SimTime::from_secs(HORIZON_S)
}

/// Everything one cell produces, comparable bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
struct CellTrace {
    seed: u64,
    end_ns: u64,
    total_sends: u64,
    sends: Vec<(SimTime, NodeId)>,
    groups: Vec<(SimTime, u64, u32)>,
}

/// The ensemble path under test.
#[derive(Clone, Copy)]
enum Route {
    /// `run_ensemble` with `Engine::Scalar`.
    Scalar,
    /// `batch::run_blocks` at this block width.
    Blocks(usize),
}

type Traced = (SendTrace, ClusterLog);

fn make_trace(_seed: u64) -> Traced {
    (SendTrace::new(), ClusterLog::new())
}

fn finish_trace(out: CellOut, rec: Traced) -> CellTrace {
    CellTrace {
        seed: out.seed,
        end_ns: out.now.as_nanos(),
        total_sends: out.sends,
        sends: rec.0.sends().to_vec(),
        groups: rec.1.groups().to_vec(),
    }
}

/// Run `seeds` through `route` and collect full traces, in seed order.
fn traces_of(route: Route, seeds: &[u64], threads: usize) -> Vec<CellTrace> {
    let start = StartState::Unsynchronized;
    match route {
        Route::Scalar => experiment::run_ensemble(
            Engine::Scalar,
            params(),
            &start,
            seeds,
            horizon(),
            threads,
            make_trace,
            finish_trace,
        ),
        Route::Blocks(width) => batch::run_blocks(
            params(),
            &start,
            seeds,
            horizon(),
            threads,
            width,
            make_trace,
            finish_trace,
        ),
    }
}

/// The tentpole contract: batched output is byte-identical to scalar for
/// widths 1/8/64 at 1/2/4 worker threads — full send logs, full cluster
/// logs, same cell summaries, same order.
#[test]
fn batched_is_byte_identical_to_scalar_across_widths_and_threads() {
    let seeds: Vec<u64> = (0..40).map(|i| 1_000 + 17 * i).collect();
    let reference = traces_of(Route::Scalar, &seeds, 1);
    assert_eq!(reference.len(), seeds.len());
    for width in [1usize, 8, 64] {
        for threads in [1usize, 2, 4] {
            let got = traces_of(Route::Blocks(width), &seeds, threads);
            assert_eq!(
                got, reference,
                "batched diverged from scalar (width={width}, threads={threads})"
            );
        }
    }
    // And the scalar engine itself is thread-count invariant, so the
    // reference above is not an artifact of running it serially.
    assert_eq!(traces_of(Route::Scalar, &seeds, 4), reference);
}

/// A live obs collector must observe, never perturb: the batched traces
/// with instrumentation enabled are identical to the uninstrumented
/// ones, and the `core.batch.*` counters actually moved.
#[test]
fn obs_instrumentation_does_not_perturb_batched_traces() {
    let seeds: Vec<u64> = (0..16).map(|i| 7_000 + 13 * i).collect();
    let reference = traces_of(Route::Blocks(8), &seeds, 2);

    let live = routesync_obs::Collector::enabled();
    let scope = routesync_obs::scoped(live.clone());
    let instrumented = traces_of(Route::Blocks(8), &seeds, 2);
    drop(scope);
    let snap = live.snapshot();

    assert_eq!(
        instrumented, reference,
        "a live collector changed the batched traces"
    );
    // Exact: the collector is this test's scope, so sibling tests
    // running batched blocks concurrently cannot reach it.
    assert_eq!(
        snap.counters.get("core.batch.cells").copied(),
        Some(seeds.len() as u64),
        "core.batch.cells miscounted"
    );
}

/// One cell of the checkpointed driver, scalar flavour — the reference
/// the batched blocks must reproduce byte for byte.
fn scalar_cell_value(seed: u64) -> String {
    let mut model = FastModel::new(params(), StartState::Unsynchronized, seed);
    let mut fp = FirstPassageUp::new(N);
    let end = model.run(horizon(), &mut fp);
    let first = fp
        .first(N)
        .map(|(t, _)| t.as_nanos().to_string())
        .unwrap_or_else(|| "none".to_string());
    format!("{}:{}", end.as_nanos(), first)
}

/// A miniature checkpointed ensemble driver over the *batched* engine:
/// resume the checkpoint, run only the missing seeds in supervised
/// blocks, stream nothing mid-run (the block is the supervision unit),
/// append each completed seed afterwards, and render the final output
/// from the complete map in input order. `Ok(None)` when a drain stopped
/// the run short.
fn run_batched_checkpointed(
    path: &Path,
    seeds: &[u64],
    width: usize,
    threads: usize,
    drain_after_blocks: Option<usize>,
) -> io::Result<Option<String>> {
    let (writer, cached) = checkpoint::resume(path, META)?;
    let pending: Vec<u64> = seeds
        .iter()
        .copied()
        .filter(|s| !cached.contains_key(&s.to_string()))
        .collect();
    let writer = Mutex::new(writer);
    let cfg = SuperviseConfig {
        heed_interrupt: false,
        drain_after: drain_after_blocks,
        ..SuperviseConfig::new()
    };
    let blocks: Vec<&[u64]> = pending.chunks(width).collect();
    let out = Ensemble::new(&blocks).threads(threads).limits(cfg).run(
        || BatchedEnsemble::new(params(), width),
        |ens, _ctx, _i, chunk| {
            ens.reset(&StartState::Unsynchronized, chunk);
            let mut recs: Vec<FirstPassageUp> =
                chunk.iter().map(|_| FirstPassageUp::new(N)).collect();
            ens.run(horizon(), &mut recs);
            recs.iter()
                .enumerate()
                .map(|(c, fp)| {
                    let first = fp
                        .first(N)
                        .map(|(t, _)| t.as_nanos().to_string())
                        .unwrap_or_else(|| "none".to_string());
                    format!("{}:{}", ens.now(c).as_nanos(), first)
                })
                .collect::<Vec<String>>()
        },
    );
    // Completed blocks, expanded back to (seed, value) pairs.
    let done: Vec<(u64, &String)> = out
        .results
        .iter()
        .zip(&blocks)
        .filter_map(|(slot, chunk)| slot.done().map(|values| chunk.iter().copied().zip(values)))
        .flatten()
        .collect();
    {
        let mut w = writer.lock().unwrap();
        for (seed, v) in &done {
            w.append(&seed.to_string(), v).expect("append");
        }
        w.sync()?;
    }

    let mut complete: BTreeMap<u64, String> = cached
        .into_iter()
        .map(|(k, v)| (k.parse::<u64>().expect("numeric key"), v))
        .collect();
    for (seed, v) in done {
        complete.insert(seed, v.clone());
    }
    if out.interrupted || complete.len() < seeds.len() {
        return Ok(None);
    }
    let mut rendered = String::new();
    for seed in seeds {
        rendered.push_str(&format!("{seed} {}\n", complete[seed]));
    }
    Ok(Some(rendered))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("routesync-prop-batch");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Kill the batched checkpointed driver after `k` blocks and resume: the
/// final output must be byte-identical to a serial scalar reference —
/// the batched engine survives the full crash-recovery cycle without
/// breaking trace identity.
#[test]
fn batched_kill_and_resume_matches_the_scalar_reference() {
    let seeds: Vec<u64> = (300..324).collect();
    let mut reference = String::new();
    for &seed in &seeds {
        reference.push_str(&format!("{seed} {}\n", scalar_cell_value(seed)));
    }

    for width in [1usize, 8] {
        for threads in [1usize, 2, 4] {
            for kill_after in [0usize, 1, 2] {
                let path = tmp(&format!("kill-{width}-{threads}-{kill_after}.ckpt"));
                let _ = std::fs::remove_file(&path);

                let first =
                    run_batched_checkpointed(&path, &seeds, width, threads, Some(kill_after))
                        .expect("killed run I/O");
                assert!(
                    first.is_none(),
                    "drain_after={kill_after} blocks must stop the run short \
                     (width={width}, threads={threads})"
                );

                let resumed = run_batched_checkpointed(&path, &seeds, width, threads, None)
                    .expect("resumed run I/O")
                    .expect("resumed run completes");
                assert_eq!(
                    resumed, reference,
                    "resume diverged from the scalar reference \
                     (width={width}, threads={threads}, kill_after={kill_after})"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
