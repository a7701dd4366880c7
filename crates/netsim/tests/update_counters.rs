//! The update merge's layer counters, `netsim.update.entries` and
//! `netsim.update.probes`, read from a collector scoped to the test's own
//! thread.

use routesync_desim::{Duration, SimTime};
use routesync_netsim::ScenarioSpec;
use routesync_obs::Collector;

/// Runs a scenario under a fresh scoped collector and returns the two
/// counters `(entries, probes)`.
fn update_counters(spec: ScenarioSpec, seed: u64, horizon: SimTime) -> (u64, u64) {
    let obs = Collector::enabled();
    {
        let _scope = routesync_obs::scoped(obs.clone());
        let mut s = spec.build(seed);
        s.sim.run_until(horizon);
    }
    let snap = obs.snapshot();
    let read = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (read("netsim.update.entries"), read("netsim.update.probes"))
}

/// A received update is sorted by destination, like the table it lands
/// in, so the merge finds each entry on the row after the previous
/// entry's (one row compared per entry) instead of binary-searching the
/// whole table for it (about log2(60) + 1 ≈ 7 rows here). The converged
/// mesh measures exactly 1.00; the bound leaves 1 % for gallops.
#[test]
fn update_merge_compares_one_row_per_entry() {
    let (entries, probes) = update_counters(
        ScenarioSpec::random_mesh(60, 30, Duration::from_millis(30)),
        7,
        SimTime::from_secs(600),
    );
    assert!(entries > 0, "no update entries were merged");
    assert!(
        100 * probes <= 101 * entries,
        "the merge compared {probes} rows for {entries} entries"
    );
}
