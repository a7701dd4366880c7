//! The advertisement builders' layer counters, `netsim.advert.rows_scanned`
//! and `netsim.advert.entries`, read from a collector scoped to the test's
//! own thread.

use routesync_desim::{Duration, SimTime};
use routesync_netsim::ScenarioSpec;
use routesync_obs::Collector;

/// Runs a scenario under a fresh scoped collector and returns the two
/// counters `(rows_scanned, entries)`.
fn advert_counters(spec: ScenarioSpec, seed: u64, horizon: SimTime) -> (u64, u64) {
    let obs = Collector::enabled();
    {
        let _scope = routesync_obs::scoped(obs.clone());
        let mut s = spec.build(seed);
        s.sim.run_until(horizon);
    }
    let snap = obs.snapshot();
    let read = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (
        read("netsim.advert.rows_scanned"),
        read("netsim.advert.entries"),
    )
}

/// Area advertisements read the table once per link area per update, not
/// once per link, so the rows read per entry emitted stay a small
/// constant as N grows. The flat builders read each row once per link and
/// write every row they read.
#[test]
fn area_builder_reads_a_few_rows_per_entry() {
    let (rows, entries) = advert_counters(
        ScenarioSpec::hierarchical_for(10_000),
        1993,
        SimTime::from_secs(360),
    );
    assert!(entries > 0, "no advertisement entries were counted");
    assert!(
        rows <= 4 * entries,
        "area builder read {rows} rows for {entries} entries"
    );

    let (rows, entries) = advert_counters(
        ScenarioSpec::random_mesh(12, 4, Duration::from_millis(30)),
        7,
        SimTime::from_secs(300),
    );
    assert!(entries > 0, "no advertisement entries were counted");
    assert_eq!(rows, entries, "a full flat advertisement writes every row");
}
