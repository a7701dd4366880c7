//! High-level experiment runners.
//!
//! These wrap [`PeriodicModel`] + recorder combinations into the one-call
//! measurements the paper's figures are built from: time to synchronize,
//! time to desynchronize, and per-cluster-size first-passage profiles, with
//! multi-seed averaging parallelized across OS threads.

use routesync_desim::SimTime;

use crate::model::PeriodicModel;
use crate::params::{PeriodicParams, StartState};
use crate::record::{FirstPassageDown, FirstPassageUp};

/// Result of running an unsynchronized start until full synchronization.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncReport {
    /// Whether a cluster of size `N` formed before the horizon.
    pub synchronized: bool,
    /// Time of full synchronization, in seconds.
    pub at_secs: Option<f64>,
    /// The same instant expressed in rounds of `Tp + Tc`.
    pub rounds: Option<f64>,
}

/// Result of running a synchronized start until complete break-up.
#[derive(Debug, Clone, PartialEq)]
pub struct DesyncReport {
    /// Whether the per-round largest cluster fell to 1 before the horizon.
    pub desynchronized: bool,
    /// Time of complete break-up, in seconds.
    pub at_secs: Option<f64>,
    /// The same instant expressed in rounds of `Tp + Tc`.
    pub rounds: Option<f64>,
}

/// Record a completed time-to-synchronize measurement into the global
/// `routesync-obs` registry (simulated milliseconds; no-op with no
/// collector installed). Shared by the event-driven and fast engines so
/// both feed the same `core.sync_time_ms` histogram.
pub(crate) fn record_sync_sample(at_secs: Option<f64>) {
    if !routesync_obs::enabled() {
        return;
    }
    if let Some(secs) = at_secs {
        routesync_obs::global()
            .histogram(
                "core.sync_time_ms",
                // 1 s … 12 h of simulated time, roughly log-spaced.
                &[
                    1_000, 10_000, 60_000, 300_000, 1_800_000, 7_200_000, 43_200_000,
                ],
            )
            .record((secs * 1_000.0) as u64);
    }
}

impl PeriodicModel {
    /// Run until all `N` routers reset simultaneously (full
    /// synchronization) or `max_secs` of simulated time elapse.
    pub fn run_until_synchronized(&mut self, max_secs: f64) -> SyncReport {
        let n = self.params().n;
        let round_len = self.params().round_len().as_secs_f64();
        let mut fp = FirstPassageUp::new(n);
        self.run(SimTime::from_secs_f64(max_secs), &mut fp);
        let at = fp.first(n).map(|(t, _)| t.as_secs_f64());
        record_sync_sample(at);
        SyncReport {
            synchronized: fp.reached(),
            at_secs: at,
            rounds: at.map(|s| s / round_len),
        }
    }

    /// Run until the per-round largest cluster falls to `target` or
    /// `max_secs` elapse. Meaningful from a synchronized (or clustered)
    /// start.
    pub fn run_until_cluster_at_most(&mut self, target: usize, max_secs: f64) -> DesyncReport {
        let n = self.params().n;
        let round_len = self.params().round_len().as_secs_f64();
        let mut fp = FirstPassageDown::new(n, target);
        self.run(SimTime::from_secs_f64(max_secs), &mut fp);
        let at = fp.first(target).map(|(t, _)| t.as_secs_f64());
        DesyncReport {
            desynchronized: fp.reached(),
            at_secs: at,
            rounds: at.map(|s| s / round_len),
        }
    }
}

/// First-passage profile upward: for one (reset) model, the time
/// (seconds) at which each cluster size `2..=N` was first reached, `None`
/// where the horizon hit first. Index `i` is cluster size `i` (indices
/// 0-1 unused/`Some(0)`). Fan seeds out with [`run_many`] from
/// [`StartState::Unsynchronized`].
pub fn passage_up_profile(model: &mut crate::FastModel, max_secs: f64) -> Vec<Option<f64>> {
    let n = model.params().n;
    let mut fp = FirstPassageUp::new(n);
    model.run(SimTime::from_secs_f64(max_secs), &mut fp);
    (0..=n)
        .map(|i| {
            if i < 2 {
                Some(0.0)
            } else {
                fp.first(i).map(|(t, _)| t.as_secs_f64())
            }
        })
        .collect()
}

/// First-passage profile downward, meaningful from a synchronized start:
/// the time at which the per-round largest cluster first fell to each
/// size `1..N`.
pub fn passage_down_profile(model: &mut crate::FastModel, max_secs: f64) -> Vec<Option<f64>> {
    let n = model.params().n;
    let mut fp = FirstPassageDown::new(n, 1);
    model.run(SimTime::from_secs_f64(max_secs), &mut fp);
    (0..=n)
        .map(|i| {
            if i == 0 || i >= n {
                Some(0.0)
            } else {
                fp.first(i).map(|(t, _)| t.as_secs_f64())
            }
        })
        .collect()
}

/// Average per-seed passage profiles element-wise over the runs where the
/// passage happened. Returns `(mean_secs, count)` per cluster size.
pub fn average_profiles(profiles: Vec<Vec<Option<f64>>>) -> Vec<(Option<f64>, usize)> {
    if profiles.is_empty() {
        return Vec::new();
    }
    let len = profiles[0].len();
    (0..len)
        .map(|i| {
            let vals: Vec<f64> = profiles.iter().filter_map(|p| p[i]).collect();
            if vals.is_empty() {
                (None, 0)
            } else {
                (
                    Some(vals.iter().sum::<f64>() / vals.len() as f64),
                    vals.len(),
                )
            }
        })
        .collect()
}

/// Run one simulation per seed in parallel, reusing a single
/// [`crate::FastModel`] (heap, node table, burst buffers) per worker
/// thread instead of rebuilding it per seed.
///
/// `f` receives the model already reset to `(start, seed)` and the seed
/// itself; its result must depend only on those (the reset contract is
/// asserted by `fast::tests::reset_reproduces_fresh_model`), which makes
/// the output independent of the thread count and bit-identical to a
/// serial loop.
pub fn run_many<R: Send>(
    params: PeriodicParams,
    start: StartState,
    seeds: &[u64],
    threads: usize,
    f: impl Fn(&mut crate::FastModel, u64) -> R + Sync,
) -> Vec<R> {
    let _span = routesync_obs::span!("core.experiment.run_many");
    count_runs(seeds.len());
    let start = &start;
    routesync_exec::Ensemble::new(seeds)
        .threads(threads)
        .run(
            || crate::FastModel::new(params, start.clone(), 0),
            |model, _ctx, _i, &seed| {
                model.reset(start, seed);
                f(model, seed)
            },
        )
        .into_values()
}

fn count_runs(cells: usize) {
    routesync_obs::global()
        .counter("core.experiment.runs")
        .add(cells as u64);
}

/// Run one simulation cell per seed through the selected
/// [`crate::Engine`], in parallel.
///
/// The scalar engine is [`run_many`]'s per-worker [`crate::FastModel`]
/// reuse; the batched engine advances blocks of
/// [`crate::batch::DEFAULT_WIDTH`] cells through the SoA kernel
/// ([`crate::batch::run_blocks`]). Both produce bit-identical recorder
/// traces for any `(params, start, seed)`, so the choice only affects
/// throughput.
///
/// `make` builds the recorder for a seed; `finish` folds the finished
/// recorder plus the cell summary ([`crate::CellOut`]) into the result.
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble<R, T, M, F>(
    engine: crate::Engine,
    params: PeriodicParams,
    start: &StartState,
    seeds: &[u64],
    horizon: SimTime,
    threads: usize,
    make: M,
    finish: F,
) -> Vec<T>
where
    R: crate::Recorder + Send,
    T: Send,
    M: Fn(u64) -> R + Sync,
    F: Fn(crate::CellOut, R) -> T + Sync,
{
    let _span = routesync_obs::span!("core.experiment.run_ensemble");
    match engine {
        crate::Engine::Scalar => run_many(params, start.clone(), seeds, threads, |model, seed| {
            let mut rec = make(seed);
            let now = model.run(horizon, &mut rec);
            let sends = model.sends();
            finish(crate::CellOut { seed, now, sends }, rec)
        }),
        crate::Engine::Batched => {
            count_runs(seeds.len());
            crate::batch::run_blocks(
                params,
                start,
                seeds,
                horizon,
                threads,
                crate::batch::DEFAULT_WIDTH,
                make,
                finish,
            )
        }
    }
}

/// Estimate the paper's `f(2)` — the expected number of rounds for the
/// first cluster of size 2 to form from an unsynchronized start — by Monte
/// Carlo. Used as the default free parameter of the Markov-chain model.
pub fn estimate_f2_rounds(params: PeriodicParams, seeds: &[u64], max_secs: f64) -> Option<f64> {
    let round_len = params.round_len().as_secs_f64();
    let threads = routesync_exec::resolve_threads(None);
    let times: Vec<f64> = run_many(
        params,
        StartState::Unsynchronized,
        seeds,
        threads,
        |model, _| {
            let mut fp = FirstPassageUp::new(2);
            model.run(SimTime::from_secs_f64(max_secs), &mut fp);
            fp.first(2).map(|(t, _)| t.as_secs_f64())
        },
    )
    .into_iter()
    .flatten()
    .collect();
    if times.is_empty() {
        None
    } else {
        Some(times.iter().sum::<f64>() / times.len() as f64 / round_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesync_desim::Duration;

    /// The paper's Figure 4 headline: N = 20, Tr = 0.1 s synchronizes well
    /// within 10⁵ seconds.
    #[test]
    fn reference_parameters_synchronize() {
        let params = PeriodicParams::paper_reference();
        let mut model = PeriodicModel::new(params, StartState::Unsynchronized, 1993);
        let report = model.run_until_synchronized(200_000.0);
        assert!(report.synchronized, "{report:?}");
        let rounds = report.rounds.expect("synchronized");
        assert!(rounds > 1.0 && rounds < 2000.0, "rounds = {rounds}");
    }

    /// With a large random component (Tr = 2.8·Tc, the paper's Figure 8
    /// right panel) a synchronized start breaks up quickly.
    #[test]
    fn large_jitter_breaks_up_synchronization() {
        let params = PeriodicParams::new(
            20,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_nanos((2.8f64 * 110_000_000.0) as u64),
        );
        let mut model = PeriodicModel::new(params, StartState::Synchronized, 77);
        let report = model.run_until_cluster_at_most(1, 2_000_000.0);
        assert!(report.desynchronized, "{report:?}");
    }

    /// With tiny jitter a synchronized start persists (the Figure 8 left
    /// panel shows Tr = 2.3·Tc unbroken after 10⁷ s; here we just check a
    /// shorter horizon with a much smaller Tr).
    #[test]
    fn small_jitter_preserves_synchronization() {
        let params = PeriodicParams::new(
            20,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(60), // Tr < Tc/2: clusters can never shed
        );
        let mut model = PeriodicModel::new(params, StartState::Synchronized, 77);
        let report = model.run_until_cluster_at_most(19, 100_000.0);
        assert!(!report.desynchronized, "{report:?}");
    }

    #[test]
    fn profiles_are_monotone_in_cluster_size() {
        let params = PeriodicParams::paper_reference();
        let mut model = crate::FastModel::new(params, StartState::Unsynchronized, 11);
        let up = passage_up_profile(&mut model, 300_000.0);
        let reached: Vec<f64> = up.iter().skip(2).filter_map(|x| *x).collect();
        for w in reached.windows(2) {
            assert!(w[1] >= w[0], "first passage must be monotone: {up:?}");
        }
        assert!(reached.len() >= 2, "at least small clusters form");
    }

    #[test]
    fn average_profiles_counts_only_completed_runs() {
        let avg = average_profiles(vec![vec![Some(10.0), None], vec![Some(20.0), Some(4.0)]]);
        assert_eq!(avg[0], (Some(15.0), 2));
        assert_eq!(avg[1], (Some(4.0), 1));
        assert!(average_profiles(vec![]).is_empty());
    }

    /// `run_many` is independent of the thread count — the reuse-with-reset
    /// fast path must be bit-identical to a serial fresh-model loop.
    #[test]
    fn run_many_is_thread_count_invariant() {
        let params = PeriodicParams::paper_reference();
        let seeds: Vec<u64> = (0..12).collect();
        let serial = run_many(params, StartState::Unsynchronized, &seeds, 1, |m, _| {
            m.run_until_synchronized(30_000.0)
        });
        for threads in [2, 4, 7] {
            let parallel = run_many(
                params,
                StartState::Unsynchronized,
                &seeds,
                threads,
                |m, _| m.run_until_synchronized(30_000.0),
            );
            assert_eq!(parallel, serial, "threads={threads}");
        }
        // And identical to per-seed fresh construction.
        let fresh: Vec<_> = seeds
            .iter()
            .map(|&s| {
                crate::FastModel::new(params, StartState::Unsynchronized, s)
                    .run_until_synchronized(30_000.0)
            })
            .collect();
        assert_eq!(serial, fresh);
    }

    #[test]
    fn f2_estimate_is_positive_and_finite() {
        let params = PeriodicParams::paper_reference();
        let f2 = estimate_f2_rounds(params, &[1, 2, 3, 4], 500_000.0)
            .expect("pairs form quickly at Tr = 0.1 s");
        assert!(f2 > 0.0 && f2 < 500.0, "f2 = {f2}");
    }
}
