//! Trajectory telemetry as a composable [`Recorder`].
//!
//! [`Telemetry`] bridges the engines to the streaming instrumentation in
//! `routesync-obs`: every send is fed to an online sync detector
//! (Kuramoto R(t), cluster count/entropy, sustained-crossing sync onset
//! — see `routesync_obs::online`) and ticks the simulated-time series
//! sampler. Because [`crate::BatchedEnsemble`] runs each cell through a
//! [`crate::FastModel`], both ensemble engines drive recorders with
//! **identical callback sequences** per cell, and a detector fed through
//! this recorder produces byte-identical R(t) series on either engine —
//! the property `prop_series.rs` asserts.
//!
//! Like every obs component, `Telemetry` only *writes* metrics: with the
//! collector disabled each callback is one branch, and with it enabled
//! the simulation output is unchanged (the PR 2 invariant).

use routesync_desim::SimTime;
use routesync_obs::{DetectorConfig, SeriesTicker, SyncDetector};

use crate::model::NodeId;
use crate::params::PeriodicParams;
use crate::record::Recorder;

/// The default detector name for core-model runs.
pub const CORE_DETECTOR: &str = "core.sync";

/// Recorder that streams sends into an online sync detector and drives
/// the registry's simulated-time sampler. Compose it with any other
/// recorder via the tuple impl: `(Telemetry::from_global(..), FirstPassageUp::new(n))`.
pub struct Telemetry {
    detector: SyncDetector,
    ticker: SeriesTicker,
}

impl Telemetry {
    /// Resolve against the global collector under the default name, with
    /// the detector window matched to `params` (one window = one round
    /// of `n` sends on the cycle `round_len`, exactly like the offline
    /// [`crate::analysis::order_parameter_series`]). No-op handles when
    /// the collector is disabled.
    pub fn from_global(params: &PeriodicParams) -> Self {
        Self::named(CORE_DETECTOR, params)
    }

    /// Like [`Telemetry::from_global`] with an explicit detector name
    /// (distinct concurrent experiments get distinct detectors).
    pub fn named(name: &str, params: &PeriodicParams) -> Self {
        let obs = routesync_obs::global();
        Telemetry {
            detector: obs.sync_detector(
                name,
                DetectorConfig::new(params.n, params.round_len().as_nanos()),
            ),
            ticker: obs.series_ticker(),
        }
    }

    /// The underlying detector handle (onset, R(t) points).
    pub fn detector(&self) -> &SyncDetector {
        &self.detector
    }
}

impl Recorder for Telemetry {
    fn on_send(&mut self, t: SimTime, _node: NodeId) {
        self.detector.on_send(t.as_nanos());
        self.ticker.tick(t.as_nanos());
    }

    fn reset(&mut self) {
        self.detector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::order_parameter_series;
    use crate::fast::FastModel;
    use crate::params::{PeriodicParams, StartState};
    use crate::record::SendTrace;
    use routesync_desim::Duration;
    use routesync_obs::Collector;

    fn params() -> PeriodicParams {
        PeriodicParams::new(
            8,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(100),
        )
    }

    #[test]
    fn online_series_is_bit_identical_to_the_offline_analysis() {
        let live = Collector::enabled();
        let scope = routesync_obs::scoped(live.clone());
        let p = params();
        let mut model = FastModel::new(p, StartState::Unsynchronized, 1993);
        let mut rec = (Telemetry::from_global(&p), SendTrace::new());
        model.run(SimTime::from_secs(300_000), &mut rec);
        drop(scope);

        let offline = order_parameter_series(&rec.1, p.n, p.round_len());
        let online = rec.0.detector().snapshot();
        assert_eq!(online.points.len(), offline.len());
        for (point, (t_end, r)) in online.points.iter().zip(&offline) {
            assert_eq!(point.t_ns as f64 / 1e9, *t_end, "window end diverges");
            assert_eq!(point.r.to_bits(), r.to_bits(), "R diverges at {t_end}");
        }
        // And the detector published gauges into the registry.
        let snap = live.snapshot();
        assert!(snap.gauges.contains_key("core.sync.r"));
        assert!(snap.detectors.contains_key(CORE_DETECTOR));
    }

    #[test]
    fn disabled_collector_makes_telemetry_a_noop() {
        let _scope = routesync_obs::scoped(Collector::disabled());
        let p = params();
        let mut model = FastModel::new(p, StartState::Unsynchronized, 7);
        let mut rec = Telemetry::from_global(&p);
        model.run(SimTime::from_secs(50_000), &mut rec);
        assert!(!rec.detector().is_live());
        assert_eq!(rec.detector().snapshot().windows, 0);
    }
}
