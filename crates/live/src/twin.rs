//! The predictive desim twin and the live-vs-twin divergence monitor.
//!
//! The same [`ScenarioSpec`] that boots the live daemon also builds a
//! deterministic discrete-event simulation. Before the daemon starts its
//! wall-clock loop, the twin runs that simulation to the horizon in
//! simulated time (milliseconds of CPU) and records the synchronization
//! trajectory the paper's model predicts: the Kuramoto order parameter
//! R(t) per update round and the sync-onset instant. While the daemon
//! runs, a [`DivergenceMonitor`] aligns the live detector's completed
//! windows with the twin's — window `k` of the live run against window
//! `k` of the prediction — and publishes the gap:
//!
//! * `live.twin.divergence` — |R_live − R_twin| of the newest comparable
//!   window, fixed-point ×1e9;
//! * `live.twin.divergence_max` — the worst gap seen so far;
//! * `live.twin.onset_delta_ns` — |onset_live − onset_twin| once both
//!   have latched;
//! * `live.twin.alarms` — counts each excursion of the per-window gap
//!   above the configured tolerance (one count per crossing, not per
//!   window, so a sustained excursion is one alarm).
//!
//! The twin's trajectory is fed into a *local* (never-installed)
//! collector, so twin bookkeeping is invisible to the daemon's exported
//! metrics and to any other detector registered in the process.

use routesync_desim::SimTime;
use routesync_netsim::ScenarioSpec;
use routesync_obs::{
    Collector, Counter, DetectorConfig, DetectorPoint, DetectorSnapshot, Gauge, GAUGE_FIXED_POINT,
};

/// The predicted synchronization trajectory of a scenario.
#[derive(Debug, Clone)]
pub struct TwinTrack {
    /// Predicted R(t) windows, oldest first (window 0 is the first
    /// completed round).
    pub points: Vec<DetectorPoint>,
    /// Completed windows (equals `points.len()` unless the ring
    /// overflowed).
    pub windows: u64,
    /// Predicted sync onset, simulated nanoseconds.
    pub onset_t_ns: Option<u64>,
    /// How far the prediction runs.
    pub horizon: SimTime,
}

impl TwinTrack {
    /// Run `spec` to `horizon` in simulated time and extract the
    /// predicted trajectory through a detector with the same geometry the
    /// live daemon uses (`n` senders on a cycle of `period_ns`).
    ///
    /// The detector is fed the periodic send instants (the update log),
    /// exactly what the daemon feeds its own detector and what netsim's
    /// `netsim.sync` detector sees. The spec is rebuilt with timeline
    /// recording on, which that log needs; everything else — seed,
    /// faults, topology — is exactly what the daemon runs, so the
    /// prediction covers the same crashes, reboots and link impairments
    /// the daemon will replay in wall-clock time.
    pub fn predict(
        spec: &ScenarioSpec,
        seed: u64,
        horizon: SimTime,
        n: usize,
        period_ns: u64,
    ) -> TwinTrack {
        let mut scen = spec.clone().with_timeline(true).build(seed);
        scen.sim.run_until(horizon);
        // A local, never-installed collector: twin state must not leak
        // into the daemon's exported registry.
        let local = Collector::enabled();
        let det = local.sync_detector("twin.sync", DetectorConfig::new(n, period_ns));
        for &(t, _node) in scen.sim.update_log() {
            det.on_send(t.as_nanos());
        }
        let snap = det.snapshot();
        TwinTrack {
            points: snap.points,
            windows: snap.windows,
            onset_t_ns: snap.onset_t_ns,
            horizon,
        }
    }

    /// The predicted point for absolute window index `w`, if retained.
    fn point(&self, w: u64) -> Option<&DetectorPoint> {
        let start = self.windows - self.points.len() as u64;
        if w < start || w >= self.windows {
            return None;
        }
        self.points.get((w - start) as usize)
    }
}

/// Compares the live detector's trajectory against a [`TwinTrack`] and
/// exports the divergence. Feed it live snapshots via
/// [`DivergenceMonitor::observe`]; each completed live window is compared
/// exactly once.
pub struct DivergenceMonitor {
    twin: TwinTrack,
    tolerance: f64,
    /// Absolute index of the next live window to compare.
    next_window: u64,
    max_seen: f64,
    in_alarm: bool,
    divergence: Gauge,
    divergence_max: Gauge,
    onset_delta: Gauge,
    alarms: Counter,
}

impl DivergenceMonitor {
    /// A monitor exporting `live.twin.*` on `collector`, alarming when a
    /// window's |ΔR| exceeds `tolerance`.
    pub fn new(twin: TwinTrack, tolerance: f64, collector: &Collector) -> Self {
        DivergenceMonitor {
            twin,
            tolerance,
            next_window: 0,
            max_seen: 0.0,
            in_alarm: false,
            divergence: collector.gauge("live.twin.divergence"),
            divergence_max: collector.gauge("live.twin.divergence_max"),
            onset_delta: collector.gauge("live.twin.onset_delta_ns"),
            alarms: collector.counter("live.twin.alarms"),
        }
    }

    /// The prediction being compared against.
    pub fn twin(&self) -> &TwinTrack {
        &self.twin
    }

    /// Worst per-window |ΔR| observed so far.
    pub fn max_divergence(&self) -> f64 {
        self.max_seen
    }

    /// Compare the not-yet-seen completed windows of `live` against the
    /// prediction and update the exported gauges.
    pub fn observe(&mut self, live: &DetectorSnapshot) {
        let live_start = live.windows - live.points.len() as u64;
        // Resume support: a restored detector restarts its point ring at
        // its checkpointed window count — skip ahead, never re-compare.
        if self.next_window < live_start {
            self.next_window = live_start;
        }
        while self.next_window < live.windows {
            let w = self.next_window;
            self.next_window += 1;
            let Some(live_pt) = live.points.get((w - live_start) as usize) else {
                continue;
            };
            let Some(twin_pt) = self.twin.point(w) else {
                continue;
            };
            let gap = (live_pt.r - twin_pt.r).abs();
            self.divergence
                .set((gap * GAUGE_FIXED_POINT as f64).round() as u64);
            if gap > self.max_seen {
                self.max_seen = gap;
                self.divergence_max
                    .set((gap * GAUGE_FIXED_POINT as f64).round() as u64);
            }
            if gap > self.tolerance {
                if !self.in_alarm {
                    self.in_alarm = true;
                    self.alarms.add(1);
                }
            } else {
                self.in_alarm = false;
            }
        }
        if let (Some(a), Some(b)) = (live.onset_t_ns, self.twin.onset_t_ns) {
            self.onset_delta.set(a.abs_diff(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesync_obs::DetectorConfig;

    const SEC: u64 = 1_000_000_000;

    fn track_from(points: &[(u64, f64)]) -> TwinTrack {
        let pts: Vec<DetectorPoint> = points
            .iter()
            .map(|&(t_ns, r)| DetectorPoint {
                t_ns,
                r,
                clusters: 1,
                entropy: 0.0,
            })
            .collect();
        TwinTrack {
            windows: pts.len() as u64,
            points: pts,
            onset_t_ns: None,
            horizon: SimTime::MAX,
        }
    }

    /// Identical trajectories diverge by exactly zero and never alarm.
    #[test]
    fn identical_trajectories_do_not_alarm() {
        let c = Collector::enabled();
        let det = c.sync_detector("t.sync", DetectorConfig::new(2, 100 * SEC));
        for round in 1..=5u64 {
            det.on_send(round * 100 * SEC);
            det.on_send(round * 100 * SEC + 10 * SEC);
        }
        let live = det.snapshot();
        let twin = track_from(
            &live
                .points
                .iter()
                .map(|p| (p.t_ns, p.r))
                .collect::<Vec<_>>(),
        );
        let mut mon = DivergenceMonitor::new(twin, 0.01, &c);
        mon.observe(&live);
        assert_eq!(mon.max_divergence(), 0.0);
        let snap = c.snapshot();
        assert_eq!(snap.counters["live.twin.alarms"], 0);
        assert_eq!(snap.gauges["live.twin.divergence"], 0);
    }

    /// A gap above tolerance alarms once per excursion, not per window.
    #[test]
    fn sustained_excursion_is_one_alarm() {
        let c = Collector::enabled();
        let det = c.sync_detector("t.gap", DetectorConfig::new(1, 100 * SEC));
        for round in 1..=4u64 {
            det.on_send(round * 100 * SEC); // R = 1 every window
        }
        let live = det.snapshot();
        // Twin predicts R = 1, 0.2, 0.2, 1 → windows 1 and 2 both exceed.
        let twin = track_from(&[
            (100 * SEC, 1.0),
            (200 * SEC, 0.2),
            (300 * SEC, 0.2),
            (400 * SEC, 1.0),
        ]);
        let mut mon = DivergenceMonitor::new(twin, 0.15, &c);
        mon.observe(&live);
        assert!((mon.max_divergence() - 0.8).abs() < 1e-12);
        assert_eq!(c.snapshot().counters["live.twin.alarms"], 1);
    }

    /// Observing the same snapshot twice compares nothing new.
    #[test]
    fn windows_are_compared_once() {
        let c = Collector::enabled();
        let det = c.sync_detector("t.once", DetectorConfig::new(1, 100 * SEC));
        det.on_send(100 * SEC);
        let live = det.snapshot();
        let twin = track_from(&[(100 * SEC, 0.0)]); // gap of 1.0
        let mut mon = DivergenceMonitor::new(twin, 0.5, &c);
        mon.observe(&live);
        mon.observe(&live);
        assert_eq!(c.snapshot().counters["live.twin.alarms"], 1);
    }

    /// The twin of a small LAN spec predicts a full-R trajectory from a
    /// synchronized start, and its horizon bounds the window count.
    #[test]
    fn predict_runs_the_spec() {
        let spec = ScenarioSpec::lan(4, routesync_desim::Duration::from_millis(60));
        let period = 120 * SEC;
        let twin = TwinTrack::predict(&spec, 9, SimTime::from_secs(1_000), 4, period);
        assert!(twin.windows >= 7, "got {} windows", twin.windows);
        assert!(twin.onset_t_ns.is_some(), "synchronized start must latch");
    }
}
