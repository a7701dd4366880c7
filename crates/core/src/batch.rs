//! Block-of-cells ensemble wrapper around the one burst kernel.
//!
//! Every headline statistic in the paper is an *ensemble* quantity:
//! hundreds to thousands of independent runs of the same `(params, seed_i)`
//! system, differing only in the seed. [`BatchedEnsemble`] takes a block of
//! up to `width` such cells and runs them one after another through a
//! single reused [`crate::FastModel`], so its traces are the scalar
//! engine's by construction: for any `(params, seed)` the per-cell send
//! log, cluster log, round accounting and final counters are byte-for-byte
//! the same. [`run_blocks`] fans blocks out over the supervised ensemble
//! runner.
//!
//! Blocks add no speed over one cell per work item, and no semantics:
//! the block API and [`Engine::Batched`] exist only because routebench's
//! sweep-sync workload names them (`docs/PERFORMANCE.md` has the
//! measurements).

use routesync_desim::SimTime;

use crate::fast::FastModel;
use crate::params::{PeriodicParams, StartState};
use crate::record::Recorder;

/// Default cells-per-block width.
pub const DEFAULT_WIDTH: usize = 32;

/// A block of up to `width` independent Periodic Messages systems, run
/// cell by cell through one [`FastModel`].
pub struct BatchedEnsemble {
    width: usize,
    model: FastModel,
    start: StartState,
    seeds: Vec<u64>,
    /// `(now, sends)` per loaded cell, as of its last run.
    out: Vec<(SimTime, u64)>,
    /// Ensemble cells loaded (`core.batch.cells`).
    obs_cells: routesync_obs::Counter,
}

impl BatchedEnsemble {
    /// A block engine for up to `width` cells of the given parameters.
    ///
    /// Panics if the configuration needs the event-driven engine
    /// (non-`AfterProcessing` reset policy) or `width == 0`.
    pub fn new(params: PeriodicParams, width: usize) -> Self {
        assert!(width > 0, "need at least one cell per block");
        BatchedEnsemble {
            width,
            model: FastModel::new(params, StartState::Synchronized, 0),
            start: StartState::Synchronized,
            seeds: Vec::with_capacity(width),
            out: Vec::with_capacity(width),
            obs_cells: routesync_obs::global().counter("core.batch.cells"),
        }
    }

    /// Current simulated time of cell `c` (its last burst's reset instant).
    pub fn now(&self, c: usize) -> SimTime {
        self.out[c].0
    }

    /// Total routing messages sent by cell `c`.
    pub fn sends(&self, c: usize) -> u64 {
        self.out[c].1
    }

    /// Load one cell per seed (at most `width`), each to be run exactly
    /// like `FastModel::new(params, start, seed)`.
    pub fn reset(&mut self, start: &StartState, seeds: &[u64]) {
        assert!(
            !seeds.is_empty() && seeds.len() <= self.width,
            "block takes 1..=width cells, got {} (width {})",
            seeds.len(),
            self.width
        );
        if let StartState::Offsets(offsets) = start {
            assert_eq!(
                offsets.len(),
                self.model.params().n,
                "one offset per router"
            );
        }
        self.obs_cells.add(seeds.len() as u64);
        self.start.clone_from(start);
        self.seeds.clear();
        self.seeds.extend_from_slice(seeds);
        self.out.clear();
        self.out.resize(seeds.len(), (SimTime::ZERO, 0));
    }

    /// Run every loaded cell from its seed until its next burst would
    /// start at/after `horizon` or its recorder stops it, exactly as
    /// [`FastModel::run`]. `recorders[c]` observes cell `c`.
    pub fn run<R: Recorder>(&mut self, horizon: SimTime, recorders: &mut [R]) {
        assert_eq!(
            recorders.len(),
            self.seeds.len(),
            "one recorder per loaded cell"
        );
        let _span = routesync_obs::span!("core.batch.run");
        for (c, rec) in recorders.iter_mut().enumerate() {
            self.model.reset(&self.start, self.seeds[c]);
            let now = self.model.run(horizon, rec);
            self.out[c] = (now, self.model.sends());
        }
    }
}

/// Per-cell terminal state handed to the `finish` callback of
/// [`crate::experiment::run_ensemble`] and [`run_blocks`], uniform across
/// engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOut {
    /// The cell's seed.
    pub seed: u64,
    /// Simulated time reached (the last burst's reset instant).
    pub now: SimTime,
    /// Total routing messages the cell sent.
    pub sends: u64,
}

/// Run one cell per seed to `horizon` in blocks: seeds are chunked into
/// blocks of `width` cells, each block is one [`routesync_exec::Ensemble`]
/// item, and each worker reuses one [`BatchedEnsemble`].
///
/// `make` builds each cell's recorder; `finish` maps `(terminal state,
/// recorder)` to a result. Results are in seed order and byte-identical
/// to the scalar path ([`crate::experiment::run_ensemble`] with
/// [`Engine::Scalar`]) at any width and thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_blocks<R, T, M, F>(
    params: PeriodicParams,
    start: &StartState,
    seeds: &[u64],
    horizon: SimTime,
    threads: usize,
    width: usize,
    make: M,
    finish: F,
) -> Vec<T>
where
    R: Recorder + Send,
    T: Send,
    M: Fn(u64) -> R + Sync,
    F: Fn(CellOut, R) -> T + Sync,
{
    let width = width.max(1);
    let blocks: Vec<&[u64]> = seeds.chunks(width).collect();
    routesync_exec::Ensemble::new(&blocks)
        .threads(threads)
        .run(
            || BatchedEnsemble::new(params, width),
            |block_engine, _ctx, _i, block| {
                block_engine.reset(start, block);
                let mut recs: Vec<R> = block.iter().map(|&s| make(s)).collect();
                block_engine.run(horizon, &mut recs);
                recs.into_iter()
                    .enumerate()
                    .map(|(c, rec)| {
                        let (now, sends) = (block_engine.now(c), block_engine.sends(c));
                        finish(
                            CellOut {
                                seed: block[c],
                                now,
                                sends,
                            },
                            rec,
                        )
                    })
                    .collect::<Vec<T>>()
            },
        )
        .into_values()
        .into_iter()
        .flatten()
        .collect()
}

/// An engine selection for [`crate::experiment::run_ensemble`], named
/// only by routebench's sweep-sync workload. [`Engine::Scalar`] and
/// [`Engine::Batched`] are trace-identical; the choice only affects
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// One [`crate::FastModel`] per worker, reset per seed.
    Scalar,
    /// Blocks of [`DEFAULT_WIDTH`] cells ([`run_blocks`]), each run through
    /// one reused [`crate::FastModel`].
    Batched,
}

impl Engine {
    /// Both engines.
    pub const ALL: [Engine; 2] = [Engine::Scalar, Engine::Batched];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ClusterLog, FirstPassageUp, NullRecorder, SendTrace};
    use crate::FastModel;
    use routesync_desim::Duration;
    use routesync_rng::{JitterPolicy, TimerResetPolicy};

    fn params(n: usize, tr_ms: u64) -> PeriodicParams {
        PeriodicParams::new(
            n,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(tr_ms),
        )
    }

    /// Full per-cell traces from the batched engine at the given width
    /// must equal fresh scalar FastModel traces exactly — no canonical
    /// reordering, no boundary tail tolerance.
    fn assert_identical(
        p: PeriodicParams,
        start: StartState,
        seeds: &[u64],
        width: usize,
        horizon_s: u64,
    ) {
        let horizon = SimTime::from_secs(horizon_s);
        let mut batch = BatchedEnsemble::new(p, width);
        for chunk in seeds.chunks(width) {
            batch.reset(&start, chunk);
            let mut recs: Vec<(SendTrace, ClusterLog)> = chunk
                .iter()
                .map(|_| (SendTrace::new(), ClusterLog::new()))
                .collect();
            batch.run(horizon, &mut recs);
            for (c, &seed) in chunk.iter().enumerate() {
                let mut fast = FastModel::new(p, start.clone(), seed);
                let mut rec = (SendTrace::new(), ClusterLog::new());
                let now = fast.run(horizon, &mut rec);
                assert_eq!(
                    recs[c].0.sends(),
                    rec.0.sends(),
                    "send log diverges: width {width} seed {seed}"
                );
                assert_eq!(
                    recs[c].1.groups(),
                    rec.1.groups(),
                    "cluster log diverges: width {width} seed {seed}"
                );
                assert_eq!(batch.sends(c), fast.sends(), "seed {seed}");
                assert_eq!(batch.now(c), now, "seed {seed}");
            }
        }
    }

    #[test]
    fn identical_on_reference_parameters_across_widths() {
        let seeds: Vec<u64> = (1..=6).collect();
        for width in [1, 3, 8] {
            assert_identical(
                params(20, 100),
                StartState::Unsynchronized,
                &seeds,
                width,
                30_000,
            );
        }
    }

    #[test]
    fn identical_from_synchronized_start_with_large_jitter() {
        assert_identical(
            params(13, 308),
            StartState::Synchronized,
            &[7, 8, 9, 10],
            4,
            50_000,
        );
    }

    #[test]
    fn identical_with_zero_jitter_and_custom_offsets() {
        let offs: Vec<Duration> = (0..5)
            .map(|i| Duration::from_millis(1000 + 55 * i))
            .collect();
        assert_identical(params(5, 0), StartState::Offsets(offs), &[3, 4], 2, 20_000);
    }

    #[test]
    fn identical_under_alternative_jitter_policies() {
        let half = params(6, 0).with_jitter(JitterPolicy::UniformHalf {
            tp: Duration::from_secs(30),
        });
        assert_identical(half, StartState::Unsynchronized, &[1, 2, 3], 3, 20_000);
        let fixed = params(6, 0).with_jitter(JitterPolicy::FixedPerRouter {
            tp: Duration::from_secs(121),
            tr: Duration::from_secs(5),
        });
        assert_identical(fixed, StartState::Unsynchronized, &[4, 5, 6], 2, 40_000);
        let none = params(4, 0).with_jitter(JitterPolicy::None {
            tp: Duration::from_secs(121),
        });
        assert_identical(none, StartState::Unsynchronized, &[11, 12], 2, 20_000);
    }

    /// Early stops (FirstPassageUp) retire cells at the same instant and
    /// with the same passage table as the scalar engine, while the rest of
    /// the block keeps running.
    #[test]
    fn stop_conditions_retire_cells_identically() {
        let p = params(10, 100);
        let seeds: Vec<u64> = (1..=5).collect();
        let horizon = SimTime::from_secs(400_000);
        let mut batch = BatchedEnsemble::new(p, seeds.len());
        batch.reset(&StartState::Unsynchronized, &seeds);
        let mut recs: Vec<FirstPassageUp> = seeds.iter().map(|_| FirstPassageUp::new(10)).collect();
        batch.run(horizon, &mut recs);
        for (c, &seed) in seeds.iter().enumerate() {
            let mut fast = FastModel::new(p, StartState::Unsynchronized, seed);
            let mut fp = FirstPassageUp::new(10);
            fast.run(horizon, &mut fp);
            for size in 2..=10 {
                assert_eq!(
                    recs[c].first(size),
                    fp.first(size),
                    "seed {seed} size {size}"
                );
            }
            assert_eq!(batch.sends(c), fast.sends(), "seed {seed}");
        }
    }

    /// A reused (reset) block is bit-identical to a fresh one — the
    /// contract the block-per-worker dispatch relies on.
    #[test]
    fn reset_reproduces_fresh_block() {
        let p = params(8, 100);
        let horizon = SimTime::from_secs(30_000);
        let mut reused = BatchedEnsemble::new(p, 4);
        reused.reset(&StartState::Unsynchronized, &[100, 101, 102, 103]);
        let mut warm: Vec<NullRecorder> = (0..4).map(|_| NullRecorder).collect();
        reused.run(horizon, &mut warm);
        reused.reset(&StartState::Unsynchronized, &[7, 8]);
        let mut recs: Vec<(SendTrace, ClusterLog)> = (0..2)
            .map(|_| (SendTrace::new(), ClusterLog::new()))
            .collect();
        reused.run(horizon, &mut recs);
        let mut fresh = BatchedEnsemble::new(p, 4);
        fresh.reset(&StartState::Unsynchronized, &[7, 8]);
        let mut fresh_recs: Vec<(SendTrace, ClusterLog)> = (0..2)
            .map(|_| (SendTrace::new(), ClusterLog::new()))
            .collect();
        fresh.run(horizon, &mut fresh_recs);
        for c in 0..2 {
            assert_eq!(recs[c].0.sends(), fresh_recs[c].0.sends());
            assert_eq!(recs[c].1.groups(), fresh_recs[c].1.groups());
        }
    }

    /// The scalar and block paths agree cell-for-cell, at several widths
    /// and thread counts.
    #[test]
    fn engines_agree_cell_for_cell() {
        let p = params(12, 100);
        let seeds: Vec<u64> = (0..11).collect();
        let horizon = SimTime::from_secs(40_000);
        let scalar = crate::experiment::run_ensemble(
            Engine::Scalar,
            p,
            &StartState::Unsynchronized,
            &seeds,
            horizon,
            1,
            |_| ClusterLog::new(),
            |cell, rec| (cell, rec.groups().to_vec()),
        );
        for width in [1, 4, 32] {
            for threads in [1, 2] {
                let batched = run_blocks(
                    p,
                    &StartState::Unsynchronized,
                    &seeds,
                    horizon,
                    threads,
                    width,
                    |_| ClusterLog::new(),
                    |cell, rec| (cell, rec.groups().to_vec()),
                );
                assert_eq!(scalar, batched, "width {width} threads {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "AfterProcessing")]
    fn on_expiry_policy_rejected() {
        let p = params(5, 100).with_reset_policy(TimerResetPolicy::OnExpiry);
        let _ = BatchedEnsemble::new(p, 8);
    }

    #[test]
    #[should_panic(expected = "1..=width")]
    fn oversized_block_rejected() {
        let mut b = BatchedEnsemble::new(params(5, 100), 2);
        b.reset(&StartState::Unsynchronized, &[1, 2, 3]);
    }
}
