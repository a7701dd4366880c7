//! The per-kind event counters, `netsim.events.<kind>` and
//! `netsim.events.stale`, read from a collector scoped to the test's own
//! thread.

use routesync_desim::SimTime;
use routesync_netsim::ScenarioSpec;
use routesync_obs::Collector;

/// Every event the engine pops is counted under exactly one kind, so the
/// kinds add up to `desim.engine.events`; the stale pops are a share of
/// the two token-cancelled kinds.
#[test]
fn event_kinds_sum_to_the_engine_count() {
    let obs = Collector::enabled();
    {
        let _scope = routesync_obs::scoped(obs.clone());
        let mut s = ScenarioSpec::hierarchical_for(10_000).build(1);
        // Two busy periods: the synchronized start's burst and the next.
        s.sim.run_until(SimTime::from_secs(120));
        s.sim.run_until(SimTime::from_secs(360));
    }
    let snap = obs.snapshot();
    let read = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let kinds: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("netsim.events.") && *name != "netsim.events.stale")
        .map(|(name, &n)| (name.as_str(), n))
        .collect();
    let engine = read("desim.engine.events");
    assert!(engine > 0, "the run popped no events");
    assert_eq!(
        kinds.iter().map(|&(_, n)| n).sum::<u64>(),
        engine,
        "{kinds:?}"
    );
    let stale = read("netsim.events.stale");
    let cancellable = read("netsim.events.cpu_free") + read("netsim.events.dv_timer");
    assert!(0 < stale && stale < cancellable, "{stale} of {cancellable}");
}
