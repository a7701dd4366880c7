//! Trajectory telemetry must be a pure observer (the PR 2 invariant,
//! re-asserted for every PR 7 component): running with a live collector,
//! a configured time series, online sync detectors, AND a live HTTP
//! exporter must not change a single byte of simulation output at any
//! thread count, on either ensemble engine. On top of that, the
//! telemetry must be *exact*: series counter deltas telescope to the
//! final snapshot counters, the batched engine's R(t) series is
//! byte-identical to the scalar engine's, and the online sync-onset
//! estimate agrees with the offline post-hoc computation.

use std::collections::BTreeSet;

use routesync_core::{
    analysis, experiment, BatchedEnsemble, Engine, FastModel, FirstPassageUp, PeriodicParams,
    Recorder, SendTrace, StartState, Telemetry,
};
use routesync_desim::{Duration, SimTime};
use routesync_netsim::ScenarioSpec;
use routesync_obs::{Collector, DetectorSnapshot, ObsServer, SeriesConfig};

fn paper_params(n: usize) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs_f64(121.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(2.0),
    )
}

/// Run an ensemble with the full telemetry recorder attached and render
/// the simulation results as the CSV an experiment would write.
fn ensemble_csv(engine: Engine, params: PeriodicParams, seeds: &[u64], threads: usize) -> String {
    let n = params.n;
    let rows = experiment::run_ensemble(
        engine,
        params,
        &StartState::Unsynchronized,
        seeds,
        SimTime::from_secs(30_000),
        threads,
        |_| (Telemetry::from_global(&params), FirstPassageUp::new(n)),
        |out, rec| {
            (
                out.seed,
                out.now.as_nanos(),
                rec.1.first(n).map(|(t, _)| t.as_nanos()),
            )
        },
    );
    let mut csv = String::from("seed,end_ns,first_sync_ns\n");
    for (seed, end, first) in rows {
        let first = first.map_or(-1i128, |t| t as i128);
        csv.push_str(&format!("{seed},{end},{first}\n"));
    }
    csv
}

/// Acceptance criterion: with a live collector, a configured time
/// series, per-cell sync detectors, and a live exporter serving over
/// loopback, the ensemble CSV is byte-identical to a disabled-collector
/// run — at threads 1/2/4, on both the scalar and the batched engine.
#[test]
fn full_telemetry_leaves_ensemble_output_byte_identical() {
    let params = paper_params(6);
    let seeds: Vec<u64> = (100..108).collect();

    for threads in [1usize, 2, 4] {
        let off_scalar = ensemble_csv(Engine::Scalar, params, &seeds, threads);
        let off_batched = ensemble_csv(Engine::Batched, params, &seeds, threads);

        let live = Collector::enabled();
        live.configure_series(SeriesConfig::every(1_000_000_000));
        let scope = routesync_obs::scoped(live.clone());
        let server = ObsServer::serve("127.0.0.1:0", live.clone()).expect("bind loopback");
        let on_scalar = ensemble_csv(Engine::Scalar, params, &seeds, threads);
        let on_batched = ensemble_csv(Engine::Batched, params, &seeds, threads);
        drop(scope);
        let snap = live.snapshot();
        server.shutdown();

        assert_eq!(
            off_scalar, on_scalar,
            "telemetry changed scalar CSV at {threads} threads"
        );
        assert_eq!(
            off_batched, on_batched,
            "telemetry changed batched CSV at {threads} threads"
        );
        assert_eq!(off_scalar, off_batched, "engines diverged");
        // The live leg must actually have recorded the trajectory.
        assert!(!snap.series.counter_sums().is_empty(), "empty series");
        assert!(
            snap.detectors.contains_key("core.sync"),
            "detector not registered"
        );
        assert!(snap.detectors["core.sync"].windows > 0, "no windows seen");
    }
}

/// Satellite 4a: the delta-encoded series telescopes exactly — base +
/// per-sample deltas + tail equals the final snapshot counters, for
/// every counter, at threads 1/2/4 (concurrent sampling must not lose
/// or double-count a single increment).
#[test]
fn series_deltas_sum_exactly_to_final_counters() {
    let params = paper_params(5);
    let seeds: Vec<u64> = (0..12).collect();

    for threads in [1usize, 2, 4] {
        let live = Collector::enabled();
        // A small capacity forces eviction-folding into `base` mid-run.
        live.configure_series(SeriesConfig {
            interval_ns: 500_000_000,
            capacity: 8,
        });
        let scope = routesync_obs::scoped(live.clone());
        ensemble_csv(Engine::Scalar, params, &seeds, threads);
        drop(scope);
        let snap = live.snapshot();

        let sums = snap.series.counter_sums();
        for (name, &total) in &snap.counters {
            assert_eq!(
                sums.get(name).copied().unwrap_or(0),
                total,
                "series deltas for `{name}` do not telescope at {threads} threads"
            );
        }
    }
}

fn detector_points(snap: &DetectorSnapshot) -> Vec<(u64, u64, u64, u64)> {
    snap.points
        .iter()
        .map(|p| (p.t_ns, p.r.to_bits(), p.clusters, p.entropy.to_bits()))
        .collect()
}

/// The batched engine feeds its detector the exact same send stream as
/// the scalar engine, so the R(t) series (times, order parameters,
/// cluster stats — every bit) must be identical.
#[test]
fn batched_r_series_bit_identical_to_scalar() {
    let params = paper_params(9);
    let horizon = SimTime::from_secs(200_000);

    for seed in [1u64, 42, 1993] {
        let live = Collector::enabled();
        let scope = routesync_obs::scoped(live.clone());

        let mut scalar = FastModel::new(params, StartState::Unsynchronized, seed);
        let mut rec = Telemetry::named("series.scalar", &params);
        scalar.run(horizon, &mut rec);

        let mut batched = BatchedEnsemble::new(params, 4);
        batched.reset(&StartState::Unsynchronized, &[seed]);
        let mut recs = vec![Telemetry::named("series.batched", &params)];
        batched.run(horizon, &mut recs);
        drop(scope);

        let snap = live.snapshot();

        let s = &snap.detectors["series.scalar"];
        let b = &snap.detectors["series.batched"];
        assert!(s.windows > 0, "seed {seed}: no windows");
        assert_eq!(s.windows, b.windows, "seed {seed}: window count");
        assert_eq!(
            detector_points(s),
            detector_points(b),
            "seed {seed}: R(t) series diverged between engines"
        );
        assert_eq!(s.onset_t_ns, b.onset_t_ns, "seed {seed}: onset");
    }
}

/// Replay a netsim update log through the offline analysis and compare
/// against the online `netsim.sync` detector snapshot.
fn assert_online_matches_offline(
    spec: ScenarioSpec,
    seed: u64,
    period: Duration,
    horizon_secs: u64,
) {
    let live = Collector::enabled();
    let scope = routesync_obs::scoped(live.clone());
    let scen = spec.with_timeline(true).build(seed);
    let mut sim = scen.sim;
    sim.run_until(SimTime::from_secs(horizon_secs));
    drop(scope);
    let log: Vec<(SimTime, usize)> = sim.update_log().to_vec();
    let snap = live.snapshot();

    // Reconstruct the offline post-hoc series from the recorded timeline.
    let routers: BTreeSet<usize> = log.iter().map(|&(_, node)| node).collect();
    let n = routers.len();
    assert!(n > 1, "timeline shows {n} senders");
    let mut trace = SendTrace::new();
    for &(t, node) in &log {
        trace.on_send(t, node);
    }
    let offline = analysis::order_parameter_series(&trace, n, period);
    let offline_onset = analysis::sync_onset(&offline, 0.95, 3);

    let online = &snap.detectors["netsim.sync"];
    assert_eq!(online.n, n, "detector n != timeline sender count");
    assert_eq!(
        online.points.len(),
        offline.len(),
        "window counts diverge (online {} vs offline {})",
        online.points.len(),
        offline.len()
    );
    for (point, (t_end, r)) in online.points.iter().zip(&offline) {
        assert_eq!(point.t_ns as f64 / 1e9, *t_end, "window ends diverge");
        assert_eq!(
            point.r.to_bits(),
            r.to_bits(),
            "R diverges at t = {t_end} s"
        );
    }
    // The online estimator must agree with the post-hoc one. Exactness is
    // what the implementation promises (identical float ops in identical
    // order); the paper-level requirement is one sampling interval.
    match (online.onset_t_ns, offline_onset) {
        (Some(on), Some(off)) => {
            assert_eq!(on as f64 / 1e9, off, "onset estimates diverge");
            assert!(
                (on as f64 / 1e9 - off).abs() <= period.as_secs_f64(),
                "onset estimates differ by more than one sampling interval"
            );
        }
        (on, off) => panic!("onset presence diverges: online {on:?}, offline {off:?}"),
    }
}

/// Acceptance criterion: on the nearnet scenario the online sync-onset
/// estimate agrees with the offline computation (IGRP 90 s updates).
#[test]
fn nearnet_online_onset_matches_offline() {
    assert_online_matches_offline(
        ScenarioSpec::nearnet(),
        1993,
        Duration::from_secs(90),
        1_500,
    );
}

/// Same agreement on the jittered broadcast-LAN scenario, where R(t) is
/// a non-trivial trajectory (DECnet 120 s updates, jitter half-width
/// 0.5 s, synchronized start).
#[test]
fn lan_online_detector_matches_offline_series() {
    assert_online_matches_offline(
        ScenarioSpec::lan(7, Duration::from_secs_f64(0.5)),
        7,
        Duration::from_secs(120),
        2_400,
    );
}
