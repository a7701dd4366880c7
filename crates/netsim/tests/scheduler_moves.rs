//! The scheduler's own layer counter, `desim.engine.moves`, on the packet
//! simulator's event stream, read from a collector scoped to the test's
//! own thread.

use routesync_desim::SimTime;
use routesync_netsim::ScenarioSpec;
use routesync_obs::Collector;

/// The radix queue moves each event down a few buckets before it pops, so
/// entries re-filed per event dispatched stay a small constant — a binary
/// heap at the same ~60k pending would sift through ~16 levels per pop.
#[test]
fn radix_queue_moves_a_few_entries_per_event() {
    let obs = Collector::enabled();
    {
        let _scope = routesync_obs::scoped(obs.clone());
        let mut s = ScenarioSpec::hierarchical_for(10_000).build(1993);
        s.sim.run_until(SimTime::from_secs(360));
    }
    let snap = obs.snapshot();
    let read = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let (moves, events) = (read("desim.engine.moves"), read("desim.engine.events"));
    assert!(events > 0, "no events were dispatched");
    assert!(
        moves <= 8 * events,
        "the scheduler moved {moves} entries for {events} events"
    );
}
