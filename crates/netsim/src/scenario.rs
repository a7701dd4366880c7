//! Canned topologies for the paper's measurement figures — built through
//! the [`ScenarioSpec`] builder — plus analysis helpers for
//! update-timeline clustering.
//!
//! ```
//! use routesync_desim::SimTime;
//! use routesync_netsim::{FaultPlan, ScenarioSpec};
//!
//! // The NEARnet ping scenario, with router 3 crashing mid-run:
//! let plan = FaultPlan::new()
//!     .crash_at(3, SimTime::from_secs(200))
//!     .reboot_at(3, SimTime::from_secs(300));
//! let mut scen = ScenarioSpec::nearnet().with_faults(plan).build(1993);
//! scen.sim.run_until(SimTime::from_secs(500));
//! assert!(!scen.sim.fault_log().is_empty());
//! ```
//!
//! Unlike the abstract Periodic Messages model — where coupled routers
//! re-arm their timers at literally the same nanosecond — the packet-level
//! simulator has transmission and propagation delays, so a "synchronized"
//! group of routers re-arms within a small window rather than at one
//! instant (exactly what the DECnet/IGRP measurements showed: bursts of
//! updates bunched together every period). [`cluster_windows`] groups a
//! reset timeline accordingly.

use routesync_desim::{Duration, SimTime};

use crate::area::{AreaLayout, AreaMode};
use crate::dv::DvConfig;
use crate::faults::FaultPlan;
use crate::sim::{ForwardingMode, NetSim, RouterConfig, TimerStart};
use crate::topology::{NodeId, Topology};

/// Which canned topology a [`ScenarioSpec`] builds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpecKind {
    Nearnet {
        stubs_per_core: usize,
    },
    MboneAudiocast,
    Lan {
        n: usize,
        jitter_tr: Duration,
    },
    RandomMesh {
        n: usize,
        chords: usize,
        jitter_tr: Duration,
    },
    Hierarchical {
        n: usize,
        areas: usize,
        jitter_tr: Duration,
        mode: AreaMode,
    },
}

/// A typed, buildable description of a measurement scenario: pick a
/// canned topology, optionally override the knobs experiments actually
/// vary, attach a [`FaultPlan`], and [`ScenarioSpec::build`] with a seed.
/// This is the **single** construction API — every consumer (`bench`,
/// `experiments`, `sweep`, the examples) goes through this one builder,
/// so faults and config overrides compose uniformly across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    kind: SpecKind,
    faults: FaultPlan,
    forwarding: Option<ForwardingMode>,
    start: Option<TimerStart>,
    record_timeline: Option<bool>,
}

/// A built scenario: the simulator plus handles to its interesting nodes.
pub struct Scenario {
    /// The simulator, ready to run (attach traffic first if the
    /// experiment needs any).
    pub sim: NetSim,
    /// Host nodes, in scenario-defined order (see the constructor docs;
    /// empty for the router-only LAN/mesh scenarios).
    pub hosts: Vec<NodeId>,
    /// The scenario's featured routers, in scenario-defined order (the
    /// backbone for `nearnet`, the tunnel path for `mbone_audiocast`,
    /// every router for `lan`/`random_mesh`).
    pub routers: Vec<NodeId>,
}

impl ScenarioSpec {
    /// The NEARnet-like ping scenario of Figures 1-2: Berkeley and MIT
    /// hosts (`hosts[0]`, `hosts[1]`) joined by a four-router backbone
    /// (`routers`, west to east) whose cores each serve five regional
    /// stub routers. IGRP-style 90-second updates from a synchronized
    /// start, ~300-route tables (`advertise_pad`), 1 ms/route processing,
    /// and forwarding **blocked during updates** — the pre-fix behaviour
    /// behind the paper's 90-second-periodic ping drops.
    ///
    /// Link ids, for fault plans: 0 = Berkeley access, 1..=3 = the
    /// backbone T1s (west-gw↔core-1, core-1↔core-2, core-2↔east-gw),
    /// 4 = MIT access, then the regional stub links in creation order.
    pub fn nearnet() -> Self {
        Self::nearnet_sized(5)
    }

    /// [`ScenarioSpec::nearnet`] with `stubs_per_core` regional stub
    /// routers hanging off each core instead of the default five — the
    /// same backbone and protocol config at a chosen router count
    /// (`4 + 2 × stubs_per_core` routers). `nearnet_sized(2)` is the
    /// 8-router variant the live-daemon smoke tests boot.
    pub fn nearnet_sized(stubs_per_core: usize) -> Self {
        Self::of(SpecKind::Nearnet { stubs_per_core })
    }

    /// The MBone audiocast scenario of Figure 3: source and sink hosts
    /// (`hosts[0]`, `hosts[1]`) across three tunnel routers (`routers`),
    /// each serving four leaves. RIP-style 30-second synchronized updates
    /// that block forwarding while processing — the conjectured cause of
    /// the workshop's 30-second-periodic loss spikes.
    ///
    /// Link ids: 0 = source access, 1..=2 = the tunnel E1s, 3 = sink
    /// access, then the leaf links in creation order.
    pub fn mbone_audiocast() -> Self {
        Self::of(SpecKind::MboneAudiocast)
    }

    /// `n` routers on one broadcast LAN (the paper's own DECnet
    /// Ethernet), 120-second updates with jitter half-width `jitter_tr`,
    /// synchronized start, timeline recording on — the packet-level
    /// counterpart of the abstract Periodic Messages model.
    ///
    /// Link ids: the LAN is link 0. Router ids are `0..n`.
    pub fn lan(n: usize, jitter_tr: Duration) -> Self {
        Self::of(SpecKind::Lan { n, jitter_tr })
    }

    /// `n` routers in a ring plus `chords` random extra links — a
    /// multi-hop topology where routing updates only reach *neighbours*,
    /// so any synchronization must spread transitively. DECnet-style
    /// 120-second updates with jitter half-width `jitter_tr`,
    /// synchronized start, timeline recording on. The chord placement
    /// draws from its own RNG stream of the build seed.
    ///
    /// Link ids: 0..n are the ring edges (`i` connects routers `i` and
    /// `(i+1) % n`), then the chords in placement order.
    pub fn random_mesh(n: usize, chords: usize, jitter_tr: Duration) -> Self {
        Self::of(SpecKind::RandomMesh {
            n,
            chords,
            jitter_tr,
        })
    }

    /// `n` routers in `areas` totally-stubby star areas behind one
    /// backbone LAN — the internet-scale topology (see `docs/SCALING.md`).
    /// Area `k` owns a contiguous id range: its border router first, then
    /// its edge routers, each on a point-to-point link to the border; all
    /// border routers share the backbone LAN. Routing state is
    /// hierarchical ([`NetSim::with_areas`]): aggregates on the backbone,
    /// an originated default inward, so tables stay O(√N) and
    /// construction never runs an all-pairs BFS. DECnet-style 120-second
    /// updates with jitter half-width `jitter_tr`, incremental triggered
    /// updates, no advertisement padding (at this scale the tables *are*
    /// the load), synchronized start.
    ///
    /// Link ids: area k's star links in creation order (areas in order),
    /// then the backbone LAN last. `routers` of the built [`Scenario`]
    /// are the border routers, in area order.
    pub fn hierarchical(n: usize, areas: usize, jitter_tr: Duration) -> Self {
        Self::of(SpecKind::Hierarchical {
            n,
            areas,
            jitter_tr,
            mode: AreaMode::TotallyStubby,
        })
    }

    /// [`ScenarioSpec::hierarchical`] with `areas ≈ √n` (clamped to
    /// `[2, n]`), the table-size-minimizing split — the shape the
    /// `sweep --param n` scale runs use. 1-millisecond jitter half-width.
    pub fn hierarchical_for(n: usize) -> Self {
        assert!(n >= 2, "a hierarchy needs at least two routers");
        let areas = (n as f64).sqrt().round() as usize;
        Self::hierarchical(n, areas.clamp(2, n), Duration::from_millis(1))
    }

    /// Override the area mode of a hierarchical scenario
    /// ([`AreaMode::Stub`] keeps intra-area exact routes). No effect on
    /// the other kinds.
    pub fn with_area_mode(mut self, new_mode: AreaMode) -> Self {
        if let SpecKind::Hierarchical { mode, .. } = &mut self.kind {
            *mode = new_mode;
        }
        self
    }

    fn of(kind: SpecKind) -> Self {
        ScenarioSpec {
            kind,
            faults: FaultPlan::new(),
            forwarding: None,
            start: None,
            record_timeline: None,
        }
    }

    /// Attach a fault plan, installed into the simulator at build time.
    /// An empty plan leaves the run bit-identical to one without it.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The attached fault plan (empty unless [`ScenarioSpec::with_faults`]
    /// was called). The live daemon reads this to replay the same
    /// scheduled faults and link impairments in wall-clock time that
    /// [`ScenarioSpec::build`] installs into the simulator.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Override the scenario's forwarding mode (e.g.
    /// [`ForwardingMode::Concurrent`] for the 1992-fix ablations).
    pub fn with_forwarding(mut self, mode: ForwardingMode) -> Self {
        self.forwarding = Some(mode);
        self
    }

    /// Override the initial timer phases (e.g.
    /// [`TimerStart::Unsynchronized`] for emergence experiments).
    pub fn with_start(mut self, start: TimerStart) -> Self {
        self.start = Some(start);
        self
    }

    /// Override timeline recording (reset/update logs). On by default for
    /// `lan`/`random_mesh`, off for the traffic and hierarchical
    /// scenarios.
    pub fn with_timeline(mut self, record: bool) -> Self {
        self.record_timeline = Some(record);
        self
    }

    /// Build the scenario: construct the topology, apply the overrides,
    /// seed the simulator, and install the fault plan. The same
    /// `(spec, seed)` always builds a byte-identical simulator.
    pub fn build(self, seed: u64) -> Scenario {
        let (topo, mut cfg, hosts, routers, areas) = match self.kind {
            SpecKind::Nearnet { stubs_per_core } => nearnet_parts(stubs_per_core),
            SpecKind::MboneAudiocast => audiocast_parts(),
            SpecKind::Lan { n, jitter_tr } => lan_parts(n, jitter_tr),
            SpecKind::RandomMesh {
                n,
                chords,
                jitter_tr,
            } => mesh_parts(n, chords, jitter_tr, seed),
            SpecKind::Hierarchical {
                n,
                areas,
                jitter_tr,
                mode,
            } => hierarchical_parts(n, areas, jitter_tr, mode),
        };
        if let Some(mode) = self.forwarding {
            cfg.forwarding = mode;
        }
        if let Some(start) = self.start {
            cfg.start = start;
        }
        if let Some(record) = self.record_timeline {
            cfg.record_timeline = record;
        }
        let mut sim = match areas {
            Some((layout, mode)) => NetSim::with_areas(topo, cfg, seed, layout, mode),
            None => NetSim::new(topo, cfg, seed),
        };
        sim.install_faults(&self.faults);
        Scenario {
            sim,
            hosts,
            routers,
        }
    }
}

/// The standard per-router config shared by all canned scenarios.
fn scenario_cfg(dv: DvConfig, pending_cap: usize, record_timeline: bool) -> RouterConfig {
    RouterConfig {
        dv,
        cost_per_route: Duration::from_millis(1),
        forwarding: ForwardingMode::BlockedDuringUpdates,
        pending_cap,
        start: TimerStart::Synchronized,
        prepopulate: true,
        record_timeline,
        record_paths: false,
    }
}

type ScenarioParts = (
    Topology,
    RouterConfig,
    Vec<NodeId>,
    Vec<NodeId>,
    Option<(AreaLayout, AreaMode)>,
);

fn nearnet_parts(stubs_per_core: usize) -> ScenarioParts {
    let mut t = Topology::new();
    let berkeley = t.add_host("berkeley");
    let mit = t.add_host("mit");
    let west = t.add_router("west-gw");
    let c1 = t.add_router("core-1");
    let c2 = t.add_router("core-2");
    let east = t.add_router("east-gw");
    let t1 = 1_544_000; // T1 line rate
    t.add_link(berkeley, west, Duration::from_millis(1), 10_000_000, 50);
    t.add_link(west, c1, Duration::from_millis(20), t1, 50);
    t.add_link(c1, c2, Duration::from_millis(5), t1, 50);
    t.add_link(c2, east, Duration::from_millis(20), t1, 50);
    t.add_link(east, mit, Duration::from_millis(1), 10_000_000, 50);
    // Regional stubs hanging off each core: their synchronized updates are
    // the control-plane load that keeps the cores busy for seconds.
    for (i, &core) in [c1, c2].iter().enumerate() {
        for j in 0..stubs_per_core {
            let stub = t.add_router(format!("regional-{i}-{j}"));
            t.add_link(core, stub, Duration::from_millis(3), t1, 50);
        }
    }
    let cfg = scenario_cfg(DvConfig::igrp().with_pad(280), 0, false);
    (t, cfg, vec![berkeley, mit], vec![west, c1, c2, east], None)
}

fn audiocast_parts() -> ScenarioParts {
    let mut t = Topology::new();
    let source = t.add_host("source");
    let sink = t.add_host("sink");
    let r: Vec<NodeId> = (0..3)
        .map(|i| t.add_router(format!("tunnel-{i}")))
        .collect();
    let e1 = 2_048_000;
    t.add_link(source, r[0], Duration::from_millis(1), 10_000_000, 50);
    t.add_link(r[0], r[1], Duration::from_millis(10), e1, 50);
    t.add_link(r[1], r[2], Duration::from_millis(10), e1, 50);
    t.add_link(r[2], sink, Duration::from_millis(1), 10_000_000, 50);
    for (i, &router) in r.iter().enumerate() {
        for j in 0..4 {
            let stub = t.add_router(format!("leaf-{i}-{j}"));
            t.add_link(router, stub, Duration::from_millis(2), e1, 50);
        }
    }
    let cfg = scenario_cfg(DvConfig::rip().with_pad(150), 0, false);
    (t, cfg, vec![source, sink], r, None)
}

/// DECnet-style 120-second jittered updates shared by `lan`/`random_mesh`.
fn decnet_dv(jitter_tr: Duration) -> DvConfig {
    DvConfig::decnet()
        .with_jitter(routesync_rng::JitterPolicy::Uniform {
            tp: Duration::from_secs(120),
            tr: jitter_tr,
        })
        .with_pad(100)
}

fn lan_parts(n: usize, jitter_tr: Duration) -> ScenarioParts {
    let mut t = Topology::new();
    let routers: Vec<NodeId> = (0..n).map(|i| t.add_router(format!("r{i}"))).collect();
    t.add_lan(&routers, Duration::from_micros(50), 10_000_000, 100);
    let cfg = scenario_cfg(decnet_dv(jitter_tr), 2, true);
    (t, cfg, Vec::new(), routers, None)
}

fn mesh_parts(n: usize, chords: usize, jitter_tr: Duration, seed: u64) -> ScenarioParts {
    assert!(n >= 3, "a ring needs at least three routers");
    let mut t = Topology::new();
    let routers: Vec<NodeId> = (0..n).map(|i| t.add_router(format!("m{i}"))).collect();
    let e1 = 2_048_000;
    for i in 0..n {
        t.add_link(
            routers[i],
            routers[(i + 1) % n],
            Duration::from_millis(2),
            e1,
            50,
        );
    }
    let mut rng = routesync_rng::stream(seed, 0xC0FFEE);
    let mut added = std::collections::HashSet::new();
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < chords && attempts < chords * 20 {
        attempts += 1;
        let a = routesync_rng::dist::below(&mut rng, n as u64) as usize;
        let b = routesync_rng::dist::below(&mut rng, n as u64) as usize;
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || hi == lo + 1 || (lo == 0 && hi == n - 1) {
            continue; // self-link or ring edge
        }
        if added.insert((lo, hi)) {
            t.add_link(routers[lo], routers[hi], Duration::from_millis(2), e1, 50);
            placed += 1;
        }
    }
    let cfg = scenario_cfg(decnet_dv(jitter_tr), 2, true);
    (t, cfg, Vec::new(), routers, None)
}

fn hierarchical_parts(
    n: usize,
    areas: usize,
    jitter_tr: Duration,
    mode: AreaMode,
) -> ScenarioParts {
    assert!(areas >= 2, "a hierarchy needs at least two areas");
    assert!(n >= areas, "every area needs at least its border router");
    let mut t = Topology::new();
    let base = n / areas;
    let extra = n % areas;
    let mut sizes = Vec::with_capacity(areas);
    let mut borders = Vec::with_capacity(areas);
    let e1 = 2_048_000;
    for k in 0..areas {
        let size = base + usize::from(k < extra);
        sizes.push(size);
        let b = t.add_router(format!("b{k}"));
        borders.push(b);
        for j in 1..size {
            let e = t.add_router(format!("e{k}-{j}"));
            t.add_link(b, e, Duration::from_millis(2), e1, 50);
        }
    }
    // A fast backbone segment joining every border router; diameter of
    // the whole hierarchy is 4 hops, far inside RIP's infinity of 16.
    t.add_lan(&borders, Duration::from_micros(50), 100_000_000, 100);
    let layout = AreaLayout::from_sizes(&sizes);
    // At this scale the real tables are the load: no synthetic padding,
    // incremental triggered updates, and a 10 µs/route CPU so a border's
    // update round stays well under the period (unsaturated regime).
    let dv = decnet_dv(jitter_tr).with_pad(0).with_triggered_delta(true);
    let mut cfg = scenario_cfg(dv, 2, false);
    cfg.cost_per_route = Duration::from_micros(10);
    (t, cfg, Vec::new(), borders, Some((layout, mode)))
}

/// Group a reset/update timeline into clusters: consecutive events whose
/// inter-arrival gap is at most `window` belong to the same cluster.
/// Returns `(start_time, size)` per cluster.
///
/// `log` must be time-sorted (the simulator's logs are).
pub fn cluster_windows(log: &[(SimTime, usize)], window: Duration) -> Vec<(SimTime, usize)> {
    let mut out: Vec<(SimTime, usize)> = Vec::new();
    let mut start: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    let mut size = 0usize;
    for &(t, _) in log {
        match last {
            Some(prev) if t.since(prev) <= window => {
                size += 1;
                last = Some(t);
            }
            _ => {
                if let Some(s) = start {
                    out.push((s, size));
                }
                start = Some(t);
                last = Some(t);
                size = 1;
            }
        }
    }
    if let Some(s) = start {
        out.push((s, size));
    }
    out
}

/// The largest cluster per period-sized bucket of the timeline — a
/// windowed analogue of the abstract model's cluster graph.
pub fn largest_cluster_series(
    log: &[(SimTime, usize)],
    window: Duration,
    period: Duration,
) -> Vec<(u64, usize)> {
    let clusters = cluster_windows(log, window);
    let mut out: Vec<(u64, usize)> = Vec::new();
    for (t, size) in clusters {
        let bucket = t.as_nanos() / period.as_nanos();
        match out.last_mut() {
            Some((b, max)) if *b == bucket => *max = (*max).max(size),
            _ => out.push((bucket, size)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_windows_groups_by_gap() {
        let s = |ms: u64| SimTime::from_millis(ms);
        let log = vec![
            (s(0), 0),
            (s(10), 1),
            (s(15), 2),
            (s(1000), 3),
            (s(1001), 4),
            (s(5000), 5),
        ];
        let clusters = cluster_windows(&log, Duration::from_millis(100));
        assert_eq!(clusters, vec![(s(0), 3), (s(1000), 2), (s(5000), 1)]);
    }

    #[test]
    fn cluster_windows_handles_empty_and_single() {
        assert!(cluster_windows(&[], Duration::from_millis(1)).is_empty());
        let one = vec![(SimTime::from_secs(1), 7)];
        assert_eq!(
            cluster_windows(&one, Duration::from_millis(1)),
            vec![(SimTime::from_secs(1), 1)]
        );
    }

    /// The hierarchical scenario keeps every table O(√N): edge routers
    /// hold self + border + default, borders hold their members plus one
    /// aggregate per area — and traffic between edge routers in
    /// different areas flows over the aggregates.
    #[test]
    fn hierarchical_tables_stay_small_and_route() {
        let mut s = ScenarioSpec::hierarchical(12, 3, Duration::from_millis(1)).build(11);
        assert_eq!(s.routers.len(), 3, "one border per area");
        let (layout, mode) = s.sim.area_model().expect("area model installed");
        assert_eq!(layout.areas(), 3);
        assert_eq!(mode, crate::area::AreaMode::TotallyStubby);
        // Area 0 = {0 border, 1..=3 edges}, area 1 = {4, 5..=7}, ...
        let edge_a = 1; // in area 0
        let edge_b = 5; // in area 1
        s.sim.add_ping(
            edge_a,
            edge_b,
            Duration::from_secs_f64(1.01),
            20,
            SimTime::from_secs(1),
        );
        s.sim.run_until(SimTime::from_secs(400));
        assert_eq!(s.sim.ping_stats(edge_a).lost(), 0, "cross-area pings");
        // Totally-stubby edge: self + border-direct + default = 3.
        assert_eq!(s.sim.table(edge_a).len(), 3);
        // Border: self + 3 members (LAN peers are direct too: 2 borders)
        // + own aggregate + 2 remote aggregates.
        assert_eq!(s.sim.table(0).len(), 9);
        // And the steady state holds: another few periods change nothing.
        s.sim.run_until(SimTime::from_secs(1_000));
        assert_eq!(s.sim.table(edge_a).len(), 3);
        assert_eq!(s.sim.table(0).len(), 9);
        assert_eq!(s.sim.counters().drop_no_route, 0);
    }

    /// Stub mode additionally converges intra-area exact routes on the
    /// edge routers (prepopulated, then sustained by the protocol).
    #[test]
    fn hierarchical_stub_mode_carries_intra_area_exacts() {
        let mut s = ScenarioSpec::hierarchical(12, 3, Duration::from_millis(1))
            .with_area_mode(crate::area::AreaMode::Stub)
            .build(11);
        // Edge 1 (area 0): self + border + default + exacts to members
        // 2 and 3 + remote aggregates for areas 1 and 2.
        assert_eq!(s.sim.table(1).len(), 7);
        assert_eq!(s.sim.table(1).metric(2), Some(2), "via the border");
        s.sim.run_until(SimTime::from_secs(700));
        assert_eq!(s.sim.table(1).len(), 7, "steady state");
        assert_eq!(s.sim.counters().drop_no_route, 0);
    }

    /// Attaching an empty [`FaultPlan`] must be a no-op: the built
    /// simulator runs bit-identically to one built without any plan, and
    /// its fault log stays empty.
    #[test]
    fn empty_fault_plan_builds_identical_sim() {
        let horizon = SimTime::from_secs(2_000);
        let spec = || {
            ScenarioSpec::lan(5, Duration::from_millis(200)).with_start(TimerStart::Unsynchronized)
        };
        let mut plain = spec().build(7);
        let mut with_empty = spec().with_faults(FaultPlan::new()).build(7);
        plain.sim.run_until(horizon);
        with_empty.sim.run_until(horizon);
        assert_eq!(plain.sim.counters(), with_empty.sim.counters());
        assert_eq!(plain.sim.reset_log(), with_empty.sim.reset_log());
        assert_eq!(plain.sim.update_log(), with_empty.sim.update_log());
        assert!(plain.sim.fault_log().is_empty());
        assert!(with_empty.sim.fault_log().is_empty());
    }

    #[test]
    fn largest_cluster_series_buckets_by_period() {
        let s = |sec: u64| SimTime::from_secs(sec);
        let log = vec![
            (s(10), 0),
            (s(10), 1), // cluster of 2 in bucket 0
            (s(50), 2), // lone in bucket 0
            (s(130), 3),
            (s(130), 4),
            (s(130), 5), // cluster of 3 in bucket 1
        ];
        let series = largest_cluster_series(&log, Duration::from_secs(1), Duration::from_secs(120));
        assert_eq!(series, vec![(0, 2), (1, 3)]);
    }
}
