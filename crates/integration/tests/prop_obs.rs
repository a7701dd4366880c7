//! The observability layer must be a pure observer: entering a live
//! collector must not change a single byte of any simulation output —
//! results, event ordering, or exported CSV. These tests run the same
//! workloads under a disabled and an enabled scoped collector and
//! compare the outputs byte for byte.

use proptest::prelude::*;
use routesync_core::{experiment, FastModel, FirstPassageUp, PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_netsim::{ScenarioSpec, TimerStart};
use routesync_obs::Collector;

/// Run a small ensemble and render it as the CSV an experiment would
/// write: one line per seed with the end time and first-passage time.
fn ensemble_csv(params: PeriodicParams, seeds: &[u64], threads: usize) -> String {
    let n = params.n;
    let rows = experiment::run_many(
        params,
        StartState::Unsynchronized,
        seeds,
        threads,
        move |m: &mut FastModel, seed: u64| {
            let mut fp = FirstPassageUp::new(n);
            let end = m.run(SimTime::from_secs(30_000), &mut fp);
            (seed, end.as_nanos(), fp.first(n).map(|(t, _)| t.as_nanos()))
        },
    );
    let mut csv = String::from("seed,end_ns,first_sync_ns\n");
    for (seed, end, first) in rows {
        let first = first.map_or(-1i128, |t| t as i128);
        csv.push_str(&format!("{seed},{end},{first}\n"));
    }
    csv
}

/// Run the packet-level simulator on a small LAN and render its counters
/// as CSV.
fn netsim_csv(n: usize, seed: u64) -> String {
    let scen = ScenarioSpec::lan(n, Duration::from_secs_f64(0.1))
        .with_start(TimerStart::Unsynchronized)
        .build(seed);
    let mut sim = scen.sim;
    let first = scen.routers[0];
    let last = *scen.routers.last().expect("lan has routers");
    sim.add_ping(
        first,
        last,
        Duration::from_secs_f64(1.01),
        200,
        SimTime::from_secs(1),
    );
    sim.run_until(SimTime::from_secs(120));
    let c = sim.counters();
    format!(
        "sent,delivered,forwarded,updates_sent,updates_processed,hellos_sent\n\
         {},{},{},{},{},{}\n",
        c.sent, c.delivered, c.forwarded, c.updates_sent, c.updates_processed, c.hellos_sent
    )
}

fn paper_params(n: usize) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs_f64(121.0),
        Duration::from_secs_f64(0.11),
        Duration::from_secs_f64(2.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Core ensembles produce byte-identical CSV with and without a live
    /// collector, at any thread count.
    #[test]
    fn core_csv_identical_disabled_vs_enabled(
        n in 3usize..8,
        seed0 in 0u64..1_000,
        threads in 1usize..6,
    ) {
        let seeds: Vec<u64> = (seed0..seed0 + 4).collect();

        let off = ensemble_csv(paper_params(n), &seeds, threads);

        let live = Collector::enabled();
        let scope = routesync_obs::scoped(live.clone());
        let on = ensemble_csv(paper_params(n), &seeds, threads);
        drop(scope);
        let snapshot = live.snapshot();

        prop_assert_eq!(&off, &on, "collector changed the core CSV");
        // The enabled leg must actually have observed the run.
        prop_assert!(
            snapshot.counters.get("core.fast.sends").copied().unwrap_or(0) > 0,
            "enabled collector recorded nothing"
        );
    }

    /// The packet-level simulator is likewise unchanged by observation.
    #[test]
    fn netsim_csv_identical_disabled_vs_enabled(
        n in 3usize..8,
        seed in 0u64..1_000,
    ) {
        let off = netsim_csv(n, seed);

        let live = Collector::enabled();
        let scope = routesync_obs::scoped(live.clone());
        let on = netsim_csv(n, seed);
        drop(scope);
        let snapshot = live.snapshot();

        prop_assert_eq!(&off, &on, "collector changed the netsim CSV");
        prop_assert!(
            snapshot.counters.get("netsim.packets.sent").copied().unwrap_or(0) > 0,
            "enabled collector recorded nothing"
        );
    }
}

/// A snapshot written by one collector round-trips through its JSON
/// export with every required top-level key present.
#[test]
fn snapshot_json_has_required_keys() {
    let live = Collector::enabled();
    let scope = routesync_obs::scoped(live.clone());
    ensemble_csv(paper_params(4), &[1, 2], 2);
    drop(scope);
    let snapshot = live.snapshot();

    let json = snapshot.to_json();
    for key in routesync_obs::REQUIRED_KEYS {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "snapshot JSON missing required key {key}"
        );
    }
    let back = routesync_obs::Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(back, snapshot);
}
