//! Properties of the internet-scale redesign: the `TopologyStorage`
//! backings must be simulation-invariant, and the hierarchical area
//! model must stay deterministic across worker-thread counts and cope
//! with degenerate layouts (empty areas, single-router areas,
//! cross-area point-to-point links).

use proptest::prelude::*;
use routesync_desim::{Duration, SimTime};
use routesync_netsim::{
    AreaLayout, AreaMode, Backing, DvConfig, NetSim, NodeId, RouterConfig, ScenarioSpec, Topology,
};

/// FNV-1a over the update timeline — equal hash ⇒ equal timeline file.
fn update_log_fnv(log: &[(SimTime, NodeId)]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (t, node) in log {
        for b in format!("{},{node}\n", t.as_nanos()).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Run a hierarchical scenario and fingerprint everything observable.
fn hierarchy_fingerprint(seed: u64) -> (u64, u64, u64, u64) {
    let mut s = ScenarioSpec::hierarchical_for(40).build(seed);
    s.sim.add_ping(
        1,
        s.sim
            .area_model()
            .map(|(l, _)| l.members(1).start + 1)
            .unwrap(),
        Duration::from_secs_f64(1.01),
        50,
        SimTime::from_secs(1),
    );
    s.sim.run_until(SimTime::from_secs(600));
    let c = s.sim.counters();
    (
        c.updates_sent,
        c.delivered,
        s.sim.events_processed(),
        update_log_fnv(s.sim.update_log()),
    )
}

/// The hierarchical scenario is byte-identical at 1, 2, and 4 worker
/// threads — the determinism contract extends to the area model, the
/// delta updates, and the CSR adjacency.
#[test]
fn hierarchy_is_thread_count_invariant() {
    let baseline = hierarchy_fingerprint(1993);
    for threads in [1usize, 2, 4] {
        let results = routesync_exec::Ensemble::new(&[1993u64])
            .threads(threads)
            .run(|| (), |(), _ctx, _, &seed| hierarchy_fingerprint(seed))
            .into_values();
        assert_eq!(results[0], baseline, "threads={threads}");
    }
}

/// An area layout with an empty area and a cross-area point-to-point
/// link (no backbone LAN): the empty area owns no routes, the
/// cross-area link is treated as backbone, and traffic crosses it.
#[test]
fn empty_area_and_cross_area_link_route_correctly() {
    // Area 0 = {b0, e1}, area 1 = {} (empty), area 2 = {b2, e3}.
    let mut t = Topology::new();
    let b0 = t.add_router("b0");
    let e1 = t.add_router("e1");
    let b2 = t.add_router("b2");
    let e3 = t.add_router("e3");
    t.add_link(b0, e1, Duration::from_millis(2), 2_048_000, 50);
    t.add_link(b2, e3, Duration::from_millis(2), 2_048_000, 50);
    // Cross-area p2p link — spans areas 0 and 2, so it belongs to none.
    t.add_link(b0, b2, Duration::from_millis(5), 1_544_000, 50);
    let layout = AreaLayout::from_starts(vec![0, 2, 2, 4]);
    let cfg = RouterConfig::new(DvConfig::rip().with_triggered_delta(true));
    let mut sim = NetSim::with_areas(t, cfg, 7, layout, AreaMode::TotallyStubby);

    // Prepopulated converged state: edges hold self + border + default.
    assert_eq!(sim.table(e1).len(), 3);
    assert_eq!(sim.table(e3).len(), 3);
    sim.add_ping(
        e1,
        e3,
        Duration::from_secs_f64(1.01),
        40,
        SimTime::from_secs(1),
    );
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(sim.ping_stats(e1).lost(), 0, "pings cross both areas");
    assert_eq!(sim.counters().drop_no_route, 0);
    assert_eq!(sim.table(e1).len(), 3, "edge table stays O(1)");
}

/// `n == areas` degenerates every area to a single border router on the
/// backbone — no stub links at all. It must still build, converge, and
/// route between the (border) routers.
#[test]
fn single_router_areas_build_and_route() {
    let mut s = ScenarioSpec::hierarchical(4, 4, Duration::from_millis(1)).build(3);
    assert_eq!(s.routers.len(), 4);
    s.sim.add_ping(
        0,
        3,
        Duration::from_secs_f64(1.01),
        30,
        SimTime::from_secs(1),
    );
    s.sim.run_until(SimTime::from_secs(300));
    assert_eq!(s.sim.ping_stats(0).lost(), 0);
    assert_eq!(s.sim.counters().drop_no_route, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dense and CSR storage run byte-identically on random meshes: the
    /// backing is an implementation detail invisible to the simulation.
    #[test]
    fn dense_and_csr_storage_agree_on_random_meshes(
        n in 4usize..10,
        extra in 0usize..5,
        seed in 1u64..5_000,
    ) {
        let spec = || ScenarioSpec::random_mesh(n, extra, Duration::from_millis(30));
        let mut dense = spec().build(seed);
        let mut csr = spec().with_storage(Backing::Csr).build(seed);
        let horizon = SimTime::from_secs(800);
        dense.sim.run_until(horizon);
        csr.sim.run_until(horizon);
        prop_assert_eq!(dense.sim.counters(), csr.sim.counters());
        prop_assert_eq!(dense.sim.reset_log(), csr.sim.reset_log());
        prop_assert_eq!(dense.sim.update_log(), csr.sim.update_log());
    }

    /// The hierarchical scenario converges loss-free for arbitrary
    /// (n, areas) shapes: uneven area sizes, few big areas, many small
    /// ones.
    #[test]
    fn hierarchy_routes_for_arbitrary_shapes(
        n in 6usize..40,
        areas in 2usize..6,
        seed in 1u64..5_000,
    ) {
        prop_assume!(areas <= n);
        let mut s = ScenarioSpec::hierarchical(n, areas, Duration::from_millis(1))
            .build(seed);
        let (layout, _) = s.sim.area_model().expect("area model");
        prop_assert_eq!(layout.node_count(), n);
        // Ping from the first area's first edge (or border when the area
        // is all-border) to the last area's last member.
        let src = layout.members(0).start;
        let dst = layout.members(areas - 1).end - 1;
        s.sim.add_ping(src, dst, Duration::from_secs_f64(1.01), 20, SimTime::from_secs(1));
        s.sim.run_until(SimTime::from_secs(200));
        prop_assert_eq!(s.sim.ping_stats(src).lost(), 0);
        prop_assert_eq!(s.sim.counters().drop_no_route, 0);
    }
}
