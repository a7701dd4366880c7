//! Properties of the fault-injection subsystem and the `ScenarioSpec`
//! redesign.
//!
//! The redesign's contract has two halves:
//!
//! 1. **No plan, no change.** A scenario built through `ScenarioSpec`
//!    with no (or an empty) `FaultPlan` must reproduce the pre-redesign
//!    constructors byte for byte — pinned here against golden counters
//!    and reset-timeline hashes captured from the code *before* the
//!    fault hooks existed, at several worker-thread counts.
//! 2. **Same plan, same faults.** A stochastic `FaultPlan` (flaps,
//!    loss) is a pure function of `(seed, plan)`: replaying it yields
//!    the identical fault event sequence and identical simulation.

use proptest::prelude::*;
use routesync_desim::{Duration, SimTime};
use routesync_netsim::{FaultPlan, NodeId, ScenarioSpec, TimerStart};

/// FNV-1a over the reset timeline rendered as "nanos,node" CSV lines —
/// the same rendering the figure CSVs use, so an equal hash means an
/// equal file.
fn reset_log_fnv(log: &[(SimTime, NodeId)]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (t, node) in log {
        for b in format!("{},{node}\n", t.as_nanos()).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Golden values captured from the pre-redesign `scenario::lan`
/// constructor (before the fault subsystem existed): 8 routers, 100 ms
/// jitter, synchronized start, seed 1993, run to 30 000 s.
const LAN_GOLDEN_UPDATES_SENT: u64 = 1984;
const LAN_GOLDEN_UPDATES_PROCESSED: u64 = 13888;
const LAN_GOLDEN_RESET_FNV: u64 = 0xd41cb8baf70ab6d7;

fn lan_fingerprint(seed: u64) -> (u64, u64, usize, u64) {
    let mut scen = ScenarioSpec::lan(8, Duration::from_millis(100))
        .with_faults(FaultPlan::new())
        .build(seed);
    scen.sim.run_until(SimTime::from_secs(30_000));
    let c = scen.sim.counters();
    assert!(scen.sim.fault_log().is_empty(), "empty plan logs no faults");
    (
        c.updates_sent,
        c.updates_processed,
        scen.sim.reset_log().len(),
        reset_log_fnv(scen.sim.reset_log()),
    )
}

#[test]
fn empty_plan_lan_matches_pre_redesign_golden_at_any_thread_count() {
    for threads in [1usize, 2, 4] {
        let results = routesync_exec::Ensemble::new(&[1993u64])
            .threads(threads)
            .run(|| (), |(), _ctx, _, &seed| lan_fingerprint(seed))
            .into_values();
        let (sent, processed, resets, fnv) = results[0];
        assert_eq!(sent, LAN_GOLDEN_UPDATES_SENT, "threads={threads}");
        assert_eq!(processed, LAN_GOLDEN_UPDATES_PROCESSED, "threads={threads}");
        assert_eq!(
            resets, LAN_GOLDEN_UPDATES_SENT as usize,
            "threads={threads}"
        );
        assert_eq!(fnv, LAN_GOLDEN_RESET_FNV, "threads={threads}");
    }
}

/// The builder stays pinned to the golden captured before the storage
/// redesign: arena/SoA tables and the flat adjacency must not move a
/// single reset.
#[test]
fn builder_lan_matches_golden() {
    let mut l = ScenarioSpec::lan(8, Duration::from_millis(100)).build(1993);
    l.sim.run_until(SimTime::from_secs(30_000));
    assert_eq!(l.sim.counters().updates_sent, LAN_GOLDEN_UPDATES_SENT);
    assert_eq!(reset_log_fnv(l.sim.reset_log()), LAN_GOLDEN_RESET_FNV);
}

/// Pre-redesign goldens for the traffic scenarios: nearnet with a
/// 400-probe ping train to 500 s, the audiocast with a 5 000-frame CBR
/// stream to 200 s, and the 12-router mesh to 20 000 s.
#[test]
fn empty_plan_traffic_scenarios_match_goldens() {
    let mut n = ScenarioSpec::nearnet().build(1993);
    let (berkeley, mit) = (n.hosts[0], n.hosts[1]);
    n.sim.add_ping(
        berkeley,
        mit,
        Duration::from_secs_f64(1.01),
        400,
        SimTime::from_secs(1),
    );
    n.sim.run_until(SimTime::from_secs(500));
    let c = n.sim.counters();
    assert_eq!(
        (c.sent, c.delivered, c.forwarded, c.drop_cpu),
        (791, 782, 3136, 9)
    );
    assert_eq!((c.updates_sent, c.updates_processed), (140, 130));
    assert_eq!(n.sim.ping_stats(berkeley).lost(), 9);

    let mut a = ScenarioSpec::mbone_audiocast().build(0xA0D10);
    let (source, sink) = (a.hosts[0], a.hosts[1]);
    a.sim.add_cbr(
        source,
        sink,
        Duration::from_millis(20),
        5000,
        SimTime::from_secs(1),
    );
    a.sim.run_until(SimTime::from_secs(200));
    let c = a.sim.counters();
    assert_eq!(
        (c.sent, c.delivered, c.forwarded, c.drop_cpu),
        (5000, 4821, 14493, 179)
    );
    assert_eq!((c.updates_sent, c.updates_processed), (180, 168));

    let mut m = ScenarioSpec::random_mesh(12, 6, Duration::from_millis(50)).build(7);
    m.sim.run_until(SimTime::from_secs(20_000));
    let c = m.sim.counters();
    assert_eq!((c.updates_sent, c.updates_processed), (5976, 5976));
    assert_eq!(m.sim.reset_log().len(), 1992);
}

/// A representative stochastic plan: two flapping ring links, one
/// flapping router, a lossy link, and a slow router.
fn stormy_plan() -> FaultPlan {
    FaultPlan::new()
        .flap_link(0, Duration::from_secs(300), Duration::from_secs(20))
        .flap_link(3, Duration::from_secs(450), Duration::from_secs(35))
        .flap_router(2, Duration::from_secs(700), Duration::from_secs(60))
        .lossy_link(5, 0.02)
        .slow_router(4, 1.5)
}

fn stormy_run(
    seed: u64,
) -> (
    Vec<routesync_netsim::FaultRecord>,
    routesync_netsim::Counters,
) {
    let mut scen = ScenarioSpec::random_mesh(8, 3, Duration::from_millis(50))
        .with_start(TimerStart::Unsynchronized)
        .with_faults(stormy_plan())
        .build(seed);
    scen.sim.run_until(SimTime::from_secs(5_000));
    (scen.sim.fault_log().to_vec(), scen.sim.counters().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `(seed, plan)` fully determines the fault sequence and the run.
    #[test]
    fn fault_sequence_is_a_pure_function_of_seed_and_plan(seed in 0u64..1_000_000) {
        let (log_a, counters_a) = stormy_run(seed);
        let (log_b, counters_b) = stormy_run(seed);
        prop_assert!(!log_a.is_empty(), "the plan must actually inject faults");
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(counters_a, counters_b);
    }
}
