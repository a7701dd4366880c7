//! `sweep-sync`: the paper's time-to-synchronize sweep.
//!
//! N = 20 routers, Tp = 121 s, Tc = 0.11 s, and five jitter widths Tr on
//! both sides of the phase transition, each an ensemble of cells run to
//! full synchronization (`FirstPassageUp(N)`) or the horizon. One unit is
//! the sweep through `Engine::Scalar` and then through `Engine::Batched`
//! at two threads. The halves load the engines in opposite ways: at
//! Tr <= 0.1 s cells synchronize and stop early after large burst-join
//! clusters, at Tr >= 0.2 s they run the full horizon in singleton
//! bursts.

use routesync_core::batch::DEFAULT_WIDTH;
use routesync_core::experiment::run_ensemble;
use routesync_core::{
    BatchedEnsemble, Engine, FastModel, FirstPassageUp, NullRecorder, PeriodicModel,
    PeriodicParams, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_rng::SplitMix64;
use serde_json::Value;

use crate::measure::{median, nearest_rank, ratio, Checks, Metrics, Rate};
use crate::trace::timed;
use crate::{Ctx, Outcome};

const N: usize = 20;
const TR_MS: [u64; 5] = [20, 50, 100, 200, 300];
/// Points at or below this jitter synchronize; above it they do not.
const SYNC_TR_MS: u64 = 100;
/// Share of cells that must synchronize at each Tr <= 0.1 s point. Cells
/// that never do exist (at Tr = 0.05 s about 1.6 % of them lock into
/// equal clusters that cannot merge), so the floor leaves room for them.
const SYNC_FLOOR: f64 = 0.90;
/// Share of cells that may synchronize at each Tr >= 0.2 s point: about
/// one cell in 2000 still does within the horizon.
const SYNC_CEILING: f64 = 0.05;
const THREADS: usize = 2;
/// Cells per half in the event-driven control, and its shorter horizon.
const CONTROL_CELLS: usize = 32;
const CONTROL_HORIZON_S: u64 = 200_000;

/// One cell's outcome: the scalar and batched engines must agree on all
/// of it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    seed: u64,
    sends: u64,
    synced_at_ns: Option<u64>,
}

struct Point {
    tr_ms: u64,
    params: PeriodicParams,
    seeds: Vec<u64>,
}

impl Point {
    fn synchronizes(&self) -> bool {
        self.tr_ms <= SYNC_TR_MS
    }
}

struct UnitOut {
    scalar: Vec<Vec<Cell>>,
    batched: Vec<Vec<Cell>>,
    scalar_s: f64,
    batched_s: f64,
}

fn points(ctx: &Ctx) -> Vec<Point> {
    let cells = if ctx.smoke { 4 } else { 128 };
    let mut seeds = SplitMix64::new(ctx.seed);
    TR_MS
        .iter()
        .map(|&tr_ms| Point {
            tr_ms,
            params: PeriodicParams::new(
                N,
                Duration::from_secs(121),
                Duration::from_millis(110),
                Duration::from_millis(tr_ms),
            ),
            seeds: (0..cells).map(|_| seeds.next_u64_raw()).collect(),
        })
        .collect()
}

fn ensemble(engine: Engine, p: &Point, horizon: SimTime, threads: usize) -> Vec<Cell> {
    run_ensemble(
        engine,
        p.params,
        &StartState::Unsynchronized,
        &p.seeds,
        horizon,
        threads,
        |_| FirstPassageUp::new(N),
        |cell, rec| Cell {
            seed: cell.seed,
            sends: cell.sends,
            synced_at_ns: rec.first(N).map(|(t, _)| t.as_nanos()),
        },
    )
}

fn sweep(engine: Engine, points: &[Point], horizon: SimTime, threads: usize) -> Vec<Vec<Cell>> {
    let name = match engine {
        Engine::Scalar => "core.run_ensemble.scalar",
        Engine::Batched => "core.run_ensemble.batched",
    };
    points
        .iter()
        .map(|p| timed(name, || ensemble(engine, p, horizon, threads)).0)
        .collect()
}

fn unit(points: &[Point], horizon: SimTime) -> UnitOut {
    let (scalar, scalar_s) = timed("sweep.scalar", || {
        sweep(Engine::Scalar, points, horizon, THREADS)
    });
    let (batched, batched_s) = timed("sweep.batched", || {
        sweep(Engine::Batched, points, horizon, THREADS)
    });
    UnitOut {
        scalar,
        batched,
        scalar_s,
        batched_s,
    }
}

/// Set-up: every cell of both engines built and reset to its seed, worker
/// threads spawned, no simulated time run.
fn setup(points: &[Point]) {
    for engine in Engine::ALL {
        sweep(engine, points, SimTime::ZERO, THREADS);
    }
}

/// Every unit must reproduce `reference` (the first unit of the run)
/// through both engines.
fn check_units(points: &[Point], reference: &[Vec<Cell>], units: &[UnitOut], checks: &mut Checks) {
    for (k, u) in units.iter().enumerate() {
        for (pi, p) in points.iter().enumerate() {
            for (ci, cell) in u.scalar[pi].iter().enumerate() {
                checks.attempted += 1;
                let agrees = u.batched[pi][ci] == *cell && reference[pi][ci] == *cell;
                if !agrees {
                    checks.failed += 1;
                    checks.errors.push(format!(
                        "unit {k}, Tr {} ms, seed {}: scalar {:?}, batched {:?}, reference {:?}",
                        p.tr_ms, cell.seed, cell, u.batched[pi][ci], reference[pi][ci]
                    ));
                }
            }
        }
    }
}

/// The sync fractions must sit on the right side of the transition.
fn check_transition(points: &[Point], reference: &[Vec<Cell>], checks: &mut Checks) {
    for (p, cells) in points.iter().zip(reference) {
        let synced = cells.iter().filter(|c| c.synced_at_ns.is_some()).count() as f64;
        let share = synced / cells.len() as f64;
        let ok = if p.synchronizes() {
            share >= SYNC_FLOOR
        } else {
            share <= SYNC_CEILING
        };
        checks.require(ok, || {
            format!(
                "Tr {} ms: {synced}/{} cells synchronized",
                p.tr_ms,
                cells.len()
            )
        });
    }
}

/// Per-layer probes over the same cells as one unit, point by point so
/// the walls compared with each other are taken moments apart: the
/// ensemble at 2 threads and at 1, each cell through `FastModel::run`,
/// each block through `BatchedEnsemble::run`. Every probe must reproduce
/// the reference cells.
fn probe_layers(
    points: &[Point],
    reference: &[Vec<Cell>],
    horizon: SimTime,
    layers: &mut Metrics,
    checks: &mut Checks,
) {
    let half = |p: &Point| usize::from(!p.synchronizes());
    let (mut ensemble_2t_s, mut ensemble_1t_s) = (0.0, 0.0);
    let mut fast = [Rate::default(); 2];
    let mut batch = [Rate::default(); 2];
    let mut cell_s = Vec::new();
    for (p, cells) in points.iter().zip(reference) {
        ensemble_2t_s += timed("probe.ensemble.2t", || {
            ensemble(Engine::Scalar, p, horizon, THREADS)
        })
        .1;
        let (cells_1t, secs) = timed("probe.ensemble.1t", || {
            ensemble(Engine::Scalar, p, horizon, 1)
        });
        ensemble_1t_s += secs;
        checks.require(cells_1t == *cells, || {
            format!("Tr {} ms: the 1-thread ensemble differs", p.tr_ms)
        });

        let mut model = FastModel::new(p.params, StartState::Unsynchronized, 0);
        for cell in cells {
            model.reset(&StartState::Unsynchronized, cell.seed);
            let mut fp = FirstPassageUp::new(N);
            let (_, secs) = timed("core.FastModel::run", || model.run(horizon, &mut fp));
            checks.require(model.sends() == cell.sends, || {
                format!("Tr {} ms, seed {}: FastModel disagrees", p.tr_ms, cell.seed)
            });
            fast[half(p)].add(model.sends(), secs);
            cell_s.push(secs);
        }

        let mut block = BatchedEnsemble::new(p.params, DEFAULT_WIDTH);
        for cells in cells.chunks(DEFAULT_WIDTH) {
            let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
            block.reset(&StartState::Unsynchronized, &seeds);
            let mut recs: Vec<FirstPassageUp> =
                seeds.iter().map(|_| FirstPassageUp::new(N)).collect();
            let (_, secs) = timed("core.BatchedEnsemble::run", || {
                block.run(horizon, &mut recs)
            });
            let sends = (0..seeds.len()).map(|c| block.sends(c)).sum();
            checks.require(sends == cells.iter().map(|c| c.sends).sum::<u64>(), || {
                format!("Tr {} ms: a BatchedEnsemble block disagrees", p.tr_ms)
            });
            batch[half(p)].add(sends, secs);
        }
    }

    // The event-driven engine on desim, as a control: nothing the
    // ensemble engines do should move it.
    let mut periodic = Rate::default();
    for p in points
        .iter()
        .filter(|p| p.tr_ms == SYNC_TR_MS || p.tr_ms == 2 * SYNC_TR_MS)
    {
        for &seed in p.seeds.iter().take(CONTROL_CELLS) {
            let mut model = PeriodicModel::new(p.params, StartState::Unsynchronized, seed);
            let (_, secs) = timed("core.PeriodicModel::run", || {
                model.run(SimTime::from_secs(CONTROL_HORIZON_S), &mut NullRecorder)
            });
            periodic.add(model.sends(), secs);
        }
    }

    let cell_sum: f64 = cell_s.iter().sum();
    let tail = ratio(nearest_rank(&cell_s, 0.99), median(&cell_s));
    layers.set("core.fast.sends_per_s.sync", "1/s", fast[0].per_s());
    layers.set("core.fast.sends_per_s.unsync", "1/s", fast[1].per_s());
    layers.set("core.batch.sends_per_s.sync", "1/s", batch[0].per_s());
    layers.set("core.batch.sends_per_s.unsync", "1/s", batch[1].per_s());
    layers.set("core.fast.cell_tail_ratio", "ratio", tail);
    layers.set("desim.periodic.sends_per_s", "1/s", periodic.per_s());
    layers.set(
        "exec.parallel_efficiency",
        "ratio",
        ratio(ensemble_1t_s, THREADS as f64 * ensemble_2t_s),
    );
    layers.set("obs.span_coverage", "ratio", ratio(cell_sum, ensemble_1t_s));
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let points = points(ctx);
    let horizon = SimTime::from_secs(2_000_000);
    let mut checks = Checks::default();
    let mut layers = Metrics::default();

    let set_up = || {
        setup(&points);
        Ok(())
    };
    let run_unit = |()| Ok(unit(&points, horizon));

    let (untraced, traced) = ctx.measure(set_up, run_unit)?;
    let reference = untraced.results[0].scalar.clone();
    check_units(&points, &reference, &untraced.results, &mut checks);
    check_transition(&points, &reference, &mut checks);

    if let Some(traced) = &traced {
        check_units(&points, &reference, &traced.results, &mut checks);
        probe_layers(&points, &reference, horizon, &mut layers, &mut checks);

        let snap = routesync_obs::global().snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let (busy, idle) = (
            counter("exec.worker.busy_ns"),
            counter("exec.worker.idle_ns"),
        );
        layers.set(
            "exec.worker.idle_pct",
            "%",
            100.0 * ratio(idle, busy + idle),
        );

        let scalar: Vec<f64> = untraced.results.iter().map(|u| u.scalar_s).collect();
        let batched: Vec<f64> = untraced.results.iter().map(|u| u.batched_s).collect();
        layers.set(
            "core.batch.speedup",
            "ratio",
            median(&scalar) / median(&batched),
        );
        for sync in [true, false] {
            let half = if sync { "sync" } else { "unsync" };
            let cells = points
                .iter()
                .zip(&reference)
                .filter(|(p, _)| p.synchronizes() == sync)
                .flat_map(|(_, cells)| cells);
            let (sends, synced) = cells.fold((0u64, 0u64), |(s, k), c| {
                (s + c.sends, k + u64::from(c.synced_at_ns.is_some()))
            });
            layers.set(format!("core.sends.{half}"), "count", sends as f64);
            layers.set(format!("core.synced_cells.{half}"), "count", synced as f64);
        }
    }

    let details = points
        .iter()
        .zip(&reference)
        .map(|(p, cells)| {
            let synced = cells.iter().filter(|c| c.synced_at_ns.is_some()).count();
            let sends: u64 = cells.iter().map(|c| c.sends).sum();
            (
                format!("tr_{}ms", p.tr_ms),
                Value::Object(vec![
                    ("cells".into(), Value::U64(cells.len() as u64)),
                    ("synced".into(), Value::U64(synced as u64)),
                    ("sends".into(), Value::U64(sends)),
                ]),
            )
        })
        .collect();
    Ok(Outcome {
        untraced: untraced.samples,
        traced: traced.map(|t| t.samples),
        checks,
        layers,
        details,
        threads: THREADS,
    })
}
