//! Streaming synchronization detectors.
//!
//! The offline analysis in `routesync-core` (`analysis::order_parameter_series`)
//! computes the Kuramoto order parameter R(t) from a complete send trace
//! *after* a run. This module computes the same quantities **online**, one
//! send at a time, and publishes them as first-class gauges so the
//! streaming exporter (and any snapshot) can watch synchronization build
//! up while a simulation is still running:
//!
//! * **R(t)** — phases of each consecutive window of `n` sends mapped to
//!   the unit circle (`θ = 2πφ/T`), `R = |Σ exp(iθ)| / n`. The float
//!   operations replicate the offline series *exactly* (same offsets,
//!   same summation order), so online and post-hoc values are
//!   bit-identical — asserted by the integration suite.
//! * **Cluster count / cluster entropy** — per window, sends sharing an
//!   identical phase form one cluster (simultaneous expiries, §4.1 of
//!   the paper); the count walks from `n` (spread) to 1 (absorbed), and
//!   the normalized size entropy from 1 to 0 — the Markov chain's state
//!   collapsing toward absorption.
//! * **Sync onset** — the first *sustained* crossing of R above a
//!   threshold (`sustain` consecutive windows); the online estimate of
//!   the paper's time-to-sync (Figs 4–5) and the Markov model's
//!   absorption time f(i).
//!
//! Detectors are fed from recorder callbacks and the netsim update path;
//! they only ever *write* gauges and their own ring, so the PR 2
//! invariant (live collector ⇒ byte-identical simulation output;
//! disabled ⇒ one branch) holds for every detector site.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::metrics::Gauge;
use crate::{lock, Collector};

/// Fixed-point scale for publishing unit-interval values (R, entropy) as
/// integer gauges: value × 1e9, so gauge `1_000_000_000` means 1.0.
pub const GAUGE_FIXED_POINT: u64 = 1_000_000_000;

/// Geometry and decision rule for a [`SyncDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Senders per window (one round = `n` messages).
    pub n: usize,
    /// Cycle length in simulated nanoseconds (the paper's Tp).
    pub period_ns: u64,
    /// Sync-onset threshold on R (default 0.95).
    pub threshold: f64,
    /// Consecutive windows R must hold above `threshold` (default 3).
    pub sustain: usize,
    /// Retained R(t) points; older points are dropped oldest-first.
    pub capacity: usize,
}

impl DetectorConfig {
    /// Defaults for `n` routers on a cycle of `period_ns`.
    pub fn new(n: usize, period_ns: u64) -> Self {
        DetectorConfig {
            n,
            period_ns,
            threshold: 0.95,
            sustain: 3,
            capacity: 16_384,
        }
    }

    /// Override the onset decision rule.
    pub fn with_onset_rule(mut self, threshold: f64, sustain: usize) -> Self {
        self.threshold = threshold;
        self.sustain = sustain;
        self
    }
}

/// One R(t) point: a completed window of `n` sends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorPoint {
    /// Simulated time of the window's last send.
    pub t_ns: u64,
    /// Kuramoto order parameter of the window's phases.
    pub r: f64,
    /// Distinct phase clusters in the window.
    pub clusters: u64,
    /// Normalized entropy of the cluster-size distribution (1 = all
    /// singletons, 0 = one cluster).
    pub entropy: f64,
}

/// Exported detector state (the `detectors` key of a snapshot).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    /// Window size (senders per round).
    pub n: usize,
    /// Cycle length, simulated ns.
    pub period_ns: u64,
    /// Onset threshold on R.
    pub threshold: f64,
    /// Consecutive windows required above threshold.
    pub sustain: usize,
    /// Completed windows (including any whose points were dropped).
    pub windows: u64,
    /// Points dropped after the ring filled.
    pub points_dropped: u64,
    /// Sync onset: time of the first window of the first run of
    /// `sustain` consecutive windows with R ≥ threshold.
    pub onset_t_ns: Option<u64>,
    /// Retained R(t) points, oldest first.
    pub points: Vec<DetectorPoint>,
}

struct DetectorInner {
    /// Phase offsets (`t mod period`, ns) of the partial current window.
    window: Vec<u64>,
    points: VecDeque<DetectorPoint>,
    points_dropped: u64,
    windows: u64,
    /// Consecutive windows at/above threshold ending at the latest one.
    above: usize,
    /// First window time of the current above-threshold run.
    run_start_t_ns: u64,
    onset_t_ns: Option<u64>,
}

/// Registry-side detector cell; shared by every handle with the same name.
pub(crate) struct DetectorCell {
    cfg: DetectorConfig,
    inner: Mutex<DetectorInner>,
    r_gauge: Gauge,
    clusters_gauge: Gauge,
    entropy_gauge: Gauge,
    /// Onset time in ns once detected (0 until then — gauges are u64).
    onset_gauge: Gauge,
}

impl DetectorCell {
    pub(crate) fn new(name: &str, cfg: DetectorConfig, collector: &Collector) -> Self {
        assert!(cfg.n > 0, "detector needs at least one sender");
        assert!(cfg.period_ns > 0, "detector period must be positive");
        DetectorCell {
            cfg,
            inner: Mutex::new(DetectorInner {
                window: Vec::with_capacity(cfg.n),
                points: VecDeque::new(),
                points_dropped: 0,
                windows: 0,
                above: 0,
                run_start_t_ns: 0,
                onset_t_ns: None,
            }),
            r_gauge: collector.gauge(&format!("{name}.r")),
            clusters_gauge: collector.gauge(&format!("{name}.clusters")),
            entropy_gauge: collector.gauge(&format!("{name}.entropy")),
            onset_gauge: collector.gauge(&format!("{name}.onset_ns")),
        }
    }

    fn on_send(&self, t_ns: u64) {
        let mut inner = lock(&self.inner);
        let offset = t_ns % self.cfg.period_ns;
        inner.window.push(offset);
        if inner.window.len() < self.cfg.n {
            return;
        }
        // A full window: replicate core::analysis::order_parameter_series
        // bit-for-bit — same `t mod T` offsets in send order, seconds as
        // `ns as f64 / 1e9`, cos/sin accumulated in order.
        let period = self.cfg.period_ns as f64 / 1e9;
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for &off in &inner.window {
            let o = off as f64 / 1e9;
            let theta = 2.0 * std::f64::consts::PI * (o / period);
            re += theta.cos();
            im += theta.sin();
        }
        let n = self.cfg.n as f64;
        let r = (re * re + im * im).sqrt() / n;
        let (clusters, entropy) = cluster_stats(&mut inner.window);
        inner.window.clear();
        inner.windows += 1;

        if r >= self.cfg.threshold {
            if inner.above == 0 {
                inner.run_start_t_ns = t_ns;
            }
            inner.above += 1;
            if inner.above >= self.cfg.sustain && inner.onset_t_ns.is_none() {
                inner.onset_t_ns = Some(inner.run_start_t_ns);
                self.onset_gauge.set(inner.run_start_t_ns);
            }
        } else {
            inner.above = 0;
        }

        self.r_gauge
            .set((r * GAUGE_FIXED_POINT as f64).round() as u64);
        self.clusters_gauge.set(clusters);
        self.entropy_gauge
            .set((entropy * GAUGE_FIXED_POINT as f64).round() as u64);

        inner.points.push_back(DetectorPoint {
            t_ns,
            r,
            clusters,
            entropy,
        });
        if inner.points.len() > self.cfg.capacity {
            inner.points.pop_front();
            inner.points_dropped += 1;
        }
    }

    fn restore(&self, windows: u64, onset_t_ns: Option<u64>) {
        let mut inner = lock(&self.inner);
        inner.window.clear();
        inner.points.clear();
        inner.points_dropped = 0;
        inner.windows = windows;
        inner.above = 0;
        inner.run_start_t_ns = 0;
        inner.onset_t_ns = onset_t_ns;
        self.onset_gauge.set(onset_t_ns.unwrap_or(0));
    }

    fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.window.clear();
        inner.points.clear();
        inner.points_dropped = 0;
        inner.windows = 0;
        inner.above = 0;
        inner.run_start_t_ns = 0;
        inner.onset_t_ns = None;
        self.r_gauge.set(0);
        self.clusters_gauge.set(0);
        self.entropy_gauge.set(0);
        self.onset_gauge.set(0);
    }

    pub(crate) fn snapshot(&self) -> DetectorSnapshot {
        let inner = lock(&self.inner);
        DetectorSnapshot {
            n: self.cfg.n,
            period_ns: self.cfg.period_ns,
            threshold: self.cfg.threshold,
            sustain: self.cfg.sustain,
            windows: inner.windows,
            points_dropped: inner.points_dropped,
            onset_t_ns: inner.onset_t_ns,
            points: inner.points.iter().cloned().collect(),
        }
    }
}

/// Distinct-phase clusters in a window and the normalized entropy of
/// their size distribution. Sorts `window` in place (the caller is done
/// with send order by now).
fn cluster_stats(window: &mut [u64]) -> (u64, f64) {
    if window.is_empty() {
        return (0, 0.0);
    }
    window.sort_unstable();
    let n = window.len() as f64;
    let mut clusters = 0u64;
    let mut h = 0.0f64;
    let mut run = 1usize;
    for i in 1..=window.len() {
        if i < window.len() && window[i] == window[i - 1] {
            run += 1;
        } else {
            clusters += 1;
            let p = run as f64 / n;
            h -= p * p.ln();
            run = 1;
        }
    }
    let entropy = if window.len() > 1 { h / n.ln() } else { 0.0 };
    (clusters, entropy)
}

/// Handle to a streaming sync detector; no-op when the collector is
/// disabled.
#[derive(Clone, Default)]
pub struct SyncDetector(pub(crate) Option<Arc<DetectorCell>>);

impl SyncDetector {
    /// A handle that ignores every event.
    pub fn noop() -> Self {
        SyncDetector(None)
    }

    /// Whether this handle records anything.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Feed one periodic send at simulated instant `t_ns`.
    #[inline]
    pub fn on_send(&self, t_ns: u64) {
        if let Some(cell) = &self.0 {
            cell.on_send(t_ns);
        }
    }

    /// Clear all detector state (recorder-reuse contract between cells).
    pub fn reset(&self) {
        if let Some(cell) = &self.0 {
            cell.reset();
        }
    }

    /// Restore checkpointed progress: the completed-window count and any
    /// latched onset, for a process resuming mid-run (the live daemon's
    /// crash-recovery path). The point ring and any partial window are
    /// *not* restored — R(t) history restarts empty, and if the onset had
    /// not latched before the checkpoint its sustain run restarts
    /// conservatively from zero.
    pub fn restore(&self, windows: u64, onset_t_ns: Option<u64>) {
        if let Some(cell) = &self.0 {
            cell.restore(windows, onset_t_ns);
        }
    }

    /// Current exported state (default snapshot for a no-op handle).
    pub fn snapshot(&self) -> DetectorSnapshot {
        self.0
            .as_ref()
            .map_or_else(DetectorSnapshot::default, |cell| cell.snapshot())
    }

    /// The online sync-onset estimate, if R has sustained the threshold.
    pub fn onset_t_ns(&self) -> Option<u64> {
        self.0
            .as_ref()
            .and_then(|cell| lock(&cell.inner).onset_t_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn noop_detector_ignores_everything() {
        let d = SyncDetector::noop();
        d.on_send(SEC);
        assert!(!d.is_live());
        assert_eq!(d.snapshot(), DetectorSnapshot::default());
        assert_eq!(d.onset_t_ns(), None);
    }

    #[test]
    fn synchronized_sends_give_r_one_and_one_cluster() {
        let c = Collector::enabled();
        let d = c.sync_detector("test.sync", DetectorConfig::new(4, 100 * SEC));
        for round in 1..=3u64 {
            for _ in 0..4 {
                d.on_send(round * 100 * SEC + 5 * SEC);
            }
        }
        let snap = d.snapshot();
        assert_eq!(snap.windows, 3);
        for p in &snap.points {
            assert!((p.r - 1.0).abs() < 1e-12);
            assert_eq!(p.clusters, 1);
            assert_eq!(p.entropy, 0.0);
        }
        // Onset = first window of the sustained run (sustain = 3).
        assert_eq!(snap.onset_t_ns, Some(snap.points[0].t_ns));
        assert_eq!(c.snapshot().gauges["test.sync.r"], GAUGE_FIXED_POINT);
        assert_eq!(c.snapshot().gauges["test.sync.clusters"], 1);
    }

    #[test]
    fn spread_phases_give_low_r_many_clusters_and_no_onset() {
        let c = Collector::enabled();
        let d = c.sync_detector("test.spread", DetectorConfig::new(4, 100 * SEC));
        // Quarter-mark phases cancel exactly on the circle.
        for round in 1..=2u64 {
            for k in 0..4u64 {
                d.on_send(round * 100 * SEC + k * 25 * SEC);
            }
        }
        let snap = d.snapshot();
        assert_eq!(snap.windows, 2);
        assert!(snap.points[0].r < 1e-9);
        assert_eq!(snap.points[0].clusters, 4);
        assert!((snap.points[0].entropy - 1.0).abs() < 1e-12);
        assert_eq!(snap.onset_t_ns, None);
    }

    #[test]
    fn onset_requires_a_sustained_run() {
        let c = Collector::enabled();
        let cfg = DetectorConfig::new(2, 100 * SEC).with_onset_rule(0.9, 2);
        let d = c.sync_detector("test.sustain", cfg);
        // Window 1: synchronized. Window 2: spread (run broken).
        d.on_send(100 * SEC);
        d.on_send(100 * SEC);
        d.on_send(210 * SEC);
        d.on_send(260 * SEC);
        assert_eq!(d.onset_t_ns(), None);
        // Windows 3 and 4: synchronized — onset is window 3's end time.
        d.on_send(310 * SEC);
        d.on_send(310 * SEC);
        assert_eq!(d.onset_t_ns(), None);
        d.on_send(410 * SEC);
        d.on_send(410 * SEC);
        assert_eq!(d.onset_t_ns(), Some(310 * SEC));
        assert_eq!(d.snapshot().onset_t_ns, Some(310 * SEC));
    }

    #[test]
    fn reset_clears_state_for_recorder_reuse() {
        let c = Collector::enabled();
        let d = c.sync_detector("test.reset", DetectorConfig::new(2, 100 * SEC));
        for _ in 0..6 {
            d.on_send(100 * SEC);
        }
        assert!(d.onset_t_ns().is_some());
        d.reset();
        let snap = d.snapshot();
        assert_eq!(snap.windows, 0);
        assert!(snap.points.is_empty());
        assert_eq!(snap.onset_t_ns, None);
        assert_eq!(c.snapshot().gauges["test.reset.r"], 0);
    }

    #[test]
    fn same_name_resolves_the_same_detector() {
        let c = Collector::enabled();
        let a = c.sync_detector("test.shared", DetectorConfig::new(2, 100 * SEC));
        let b = c.sync_detector("test.shared", DetectorConfig::new(9, 999));
        a.on_send(100 * SEC);
        b.on_send(100 * SEC);
        // First registration wins the geometry; both handles fed one cell.
        assert_eq!(a.snapshot().windows, 1);
        assert_eq!(a.snapshot().n, 2);
    }

    #[test]
    fn ring_bound_drops_oldest_points() {
        let c = Collector::enabled();
        let mut cfg = DetectorConfig::new(1, 100 * SEC);
        cfg.capacity = 2;
        let d = c.sync_detector("test.bound", cfg);
        for k in 1..=5u64 {
            d.on_send(k * 100 * SEC);
        }
        let snap = d.snapshot();
        assert_eq!(snap.windows, 5);
        assert_eq!(snap.points.len(), 2);
        assert_eq!(snap.points_dropped, 3);
    }
}
