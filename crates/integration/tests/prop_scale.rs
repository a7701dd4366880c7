//! Properties of the internet-scale redesign: the `TopologyStorage`
//! backings must be simulation-invariant, and the hierarchical area
//! model must stay deterministic across worker-thread counts and cope
//! with degenerate layouts (empty areas, single-router areas,
//! cross-area point-to-point links). The two-phase area-advertisement
//! builder must match a one-pass reference model byte for byte.

use proptest::prelude::*;
use routesync_desim::{Duration, SimTime};
use routesync_netsim::dv::area_link_advertisement;
use routesync_netsim::{
    AreaLayout, AreaMode, Backing, DvConfig, NetSim, NodeId, RouteEntry, RouterConfig,
    RoutingTable, ScenarioSpec, Topology, DEFAULT_DST,
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

/// Reference model of the area-aggregated advertisement for one link: a
/// single pass over the table per link, applying the link-independent
/// rules and split horizon together.
#[allow(clippy::too_many_arguments)]
fn advertisement_area_into(
    table: &RoutingTable,
    layout: &AreaLayout,
    mode: AreaMode,
    link_area: Option<usize>,
    originate_default: bool,
    link_peers: &[NodeId],
    split_horizon: bool,
    infinity: u32,
    only: Option<&[NodeId]>,
    out: &mut Vec<RouteEntry>,
) {
    let rows: Vec<_> = table.iter().collect();
    let first = out.len();
    let mut emit = |table: &RoutingTable, i: usize| {
        let (dst, route) = rows[i];
        let metric = route.metric;
        let next_hop = route.next_hop;
        let on_link = link_peers.contains(&next_hop);
        if dst == table.me() {
            out.push(RouteEntry { dst, metric });
            return;
        }
        if dst == DEFAULT_DST {
            // Held default routes chain outward on intra-area links
            // only; an originated default supersedes a held one.
            if link_area.is_some() && !originate_default && !(split_horizon && on_link) {
                out.push(RouteEntry { dst, metric });
            }
            return;
        }
        if let Some(agg) = layout.agg_area(dst) {
            let into_own_area = link_area == Some(agg);
            let stubbed = link_area.is_some() && mode == AreaMode::TotallyStubby;
            if !(into_own_area || stubbed || split_horizon && on_link) {
                out.push(RouteEntry { dst, metric });
            }
            return;
        }
        // Exact (physical) route: only inside its own area, and only
        // in Stub mode.
        if mode == AreaMode::Stub && link_area.is_some() && layout.area_of(dst) == link_area {
            let poisoned = split_horizon && on_link;
            out.push(RouteEntry {
                dst,
                metric: if poisoned { infinity } else { metric },
            });
        }
    };
    match only {
        None => {
            for i in 0..rows.len() {
                emit(table, i);
            }
        }
        Some(only) => {
            for &dst in only {
                if let Ok(i) = rows.binary_search_by_key(&dst, |r| r.0) {
                    emit(table, i);
                }
            }
        }
    }
    if originate_default && link_area.is_some() {
        out.push(RouteEntry {
            dst: DEFAULT_DST,
            metric: 0,
        });
    }
    out[first..].sort_unstable_by_key(|e| e.dst);
}

/// A random table on `layout` for router `me`: exact routes to members
/// and to ids past the layout, aggregates of real and unknown areas, and
/// a held default, with next hops among a few nearby ids.
fn random_table(layout: &AreaLayout, me: NodeId, picks: &[(u8, u64, u32, u64)]) -> RoutingTable {
    let n = layout.node_count() as u64;
    let mut t = RoutingTable::new(me);
    for &(kind, raw, metric, hop) in picks {
        let dst = match kind {
            0 => AreaLayout::agg_dst((raw % (layout.areas() as u64 + 1)) as usize),
            1 => DEFAULT_DST,
            _ => (raw % (n + 2)) as NodeId,
        };
        if dst != me {
            t.install(dst, metric, (hop % (n + 2)) as NodeId);
        }
    }
    t
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

prop_compose! {
    /// One table route for [`random_table`]: kind, destination draw,
    /// metric, next-hop draw.
    fn route_pick()(kind in 0u8..4, raw in 0u64..1_000, metric in 0u32..17, hop in 0u64..1_000)
        -> (u8, u64, u32, u64) {
        (kind, raw, metric, hop)
    }
}

prop_compose! {
    /// One dirty destination: a route the table holds, or any id.
    fn dirty_pick()(held in proptest::bool::ANY, raw in 0u64..1_000) -> (bool, u64) {
        (held, raw)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The two-phase builder (candidates once per link area, split
    /// horizon once per link) writes exactly what the one-pass reference
    /// writes, for every rule combination: both area modes, backbone /
    /// own-area / other-area links, origination and split horizon on and
    /// off, peers that do and do not hold next hops, and full or delta
    /// updates whose dirty set names destinations the table lacks.
    #[test]
    fn two_phase_area_advertisement_matches_reference(
        sizes in proptest::collection::vec(0usize..6, 1..6),
        stub in proptest::bool::ANY,
        me_raw in 0u64..1_000,
        picks in proptest::collection::vec(route_pick(), 0..30),
        link_kind in 0u8..3,
        originate_default in proptest::bool::ANY,
        split_horizon in proptest::bool::ANY,
        peers in proptest::collection::vec(0u64..1_000, 0..4),
        delta in proptest::bool::ANY,
        dirty in proptest::collection::vec(dirty_pick(), 0..12),
    ) {
        let layout = AreaLayout::from_sizes(&sizes);
        let n = layout.node_count();
        prop_assume!(n > 0);
        let mode = if stub { AreaMode::Stub } else { AreaMode::TotallyStubby };
        let me = me_raw as usize % n;
        let table = random_table(&layout, me, &picks);
        let own = layout.area_of(me).expect("me is a member");
        let link_area = match link_kind {
            0 => None,
            1 => Some(own),
            _ => Some((own + 1) % layout.areas()),
        };
        let link_peers: Vec<NodeId> = peers.iter().map(|&p| (p % (n as u64 + 2)) as NodeId).collect();
        // Dirty sets mix destinations the table holds with arbitrary ones.
        let rows: Vec<NodeId> = table.iter().map(|(d, _)| d).collect();
        let mut only: Vec<NodeId> = dirty
            .iter()
            .map(|&(held, raw)| if held { rows[raw as usize % rows.len()] } else { raw as NodeId })
            .collect();
        only.sort_unstable();
        only.dedup();
        let only = delta.then_some(only.as_slice());

        let mut want = Vec::new();
        advertisement_area_into(
            &table, &layout, mode, link_area, originate_default, &link_peers,
            split_horizon, 16, only, &mut want,
        );
        let mut candidates = Vec::new();
        table.area_candidates_into(
            &layout, mode, link_area, originate_default, split_horizon, only, &mut candidates,
        );
        let got = area_link_advertisement(&candidates, &link_peers, 16);
        prop_assert_eq!(&got, &want);
    }
}
