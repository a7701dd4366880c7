//! The event-driven network simulator.
//!
//! The piece that matters for the paper is the **router CPU model**:
//! routing updates cost `cost_per_route × routes` of control-plane CPU, the
//! update timer is (by default) re-armed only when that processing
//! completes — the Periodic Messages coupling — and while the CPU is busy a
//! [`ForwardingMode::BlockedDuringUpdates`] router cannot forward data
//! packets. That last behaviour is what turned NEARnet's synchronized IGRP
//! updates into 90-second-periodic ping loss; the 1992 software fix is
//! [`ForwardingMode::Concurrent`].

use std::collections::{HashMap, VecDeque};

use routesync_desim::{Duration, Engine, SimTime, TokenGen};
use routesync_rng::MinStd;
use serde::{Deserialize, Serialize};

use crate::app::{App, CbrReceiverStats, PingStats};
use crate::area::{AreaLayout, AreaMode, DEFAULT_DST};
use crate::dv::{DvConfig, RoutingTable};
use crate::faults::{
    FaultKind, FaultPlan, FaultRecord, LinkFlapProfile, RouterFlapProfile, IMPAIR_STREAM,
    LINK_FLAP_STREAM, ROUTER_FLAP_STREAM,
};
use crate::packet::{Packet, Payload, RoutingUpdate};
use crate::router::{Emission, Env, Interfaces, Io, Output, Router};
use crate::topology::{LinkId, Medium, NodeId, NodeKind, Topology};

/// Whether the router can forward data packets while the control CPU is
/// processing routing updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForwardingMode {
    /// Data packets arriving during update processing wait in a small
    /// holding queue and overflow to the floor — the pre-1992 behaviour
    /// behind the paper's Figure 1.
    BlockedDuringUpdates,
    /// Forwarding is unaffected by control-plane load — the NEARnet fix.
    Concurrent,
}

/// Initial phases of the routing timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimerStart {
    /// Every router's first update fires at the same instant (the
    /// power-failure / triggered-wave scenario, and the steady state the
    /// NEARnet measurements caught).
    Synchronized,
    /// First updates drawn uniformly from `[0, Tp]`.
    Unsynchronized,
}

/// Per-router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Protocol parameters.
    pub dv: DvConfig,
    /// Control-CPU time per route entry (the paper quotes ~1 ms/route on
    /// the Xerox PARC ciscos).
    pub cost_per_route: Duration,
    /// Data-plane behaviour during update processing.
    pub forwarding: ForwardingMode,
    /// Holding-queue capacity for data packets while the CPU is busy.
    pub pending_cap: usize,
    /// Initial timer phases.
    pub start: TimerStart,
    /// Install shortest-path routes at t = 0 instead of waiting for the
    /// protocol to converge (steady-state experiments).
    pub prepopulate: bool,
    /// Record `(time, router)` for every timer re-arm and update send
    /// (needed by the synchronization analyses; off for pure traffic
    /// runs).
    pub record_timeline: bool,
    /// Record the router path of every delivered data packet (costs an
    /// allocation per hop; for path-validation tests and debugging).
    pub record_paths: bool,
}

impl RouterConfig {
    /// A reasonable default around a given protocol config.
    pub fn new(dv: DvConfig) -> Self {
        RouterConfig {
            dv,
            cost_per_route: Duration::from_millis(1),
            forwarding: ForwardingMode::BlockedDuringUpdates,
            pending_cap: 2,
            start: TimerStart::Synchronized,
            prepopulate: true,
            record_timeline: false,
            record_paths: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive {
        to: NodeId,
        pkt_id: u64,
    },
    HelloTimer {
        node: NodeId,
    },
    TxDone {
        link: LinkId,
        slot: usize,
    },
    CpuFree {
        node: NodeId,
        gen: u64,
    },
    DvTimer {
        node: NodeId,
        gen: u64,
    },
    AppTick {
        node: NodeId,
    },
    LinkDown {
        link: LinkId,
    },
    LinkUp {
        link: LinkId,
    },
    /// A scheduled fault-plan link transition (logged, unlike the raw
    /// `LinkDown`/`LinkUp` of `schedule_link_down/up`).
    FaultLink {
        link: LinkId,
        up: bool,
    },
    /// A stochastic link-flap transition; reschedules itself.
    LinkFlap {
        flap: usize,
        down: bool,
    },
    RouterCrash {
        node: NodeId,
    },
    RouterReboot {
        node: NodeId,
    },
    /// A stochastic router-flap transition; reschedules itself.
    RouterFlap {
        flap: usize,
        down: bool,
    },
}

/// Drop/delivery counters, readable after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Packets handed to the network by applications and protocols.
    pub sent: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Data packets forwarded by routers.
    pub forwarded: u64,
    /// Dropped: no route to destination.
    pub drop_no_route: u64,
    /// Dropped: link output queue full.
    pub drop_queue: u64,
    /// Dropped: router CPU busy with routing updates (blocked mode).
    pub drop_cpu: u64,
    /// Dropped: link was down.
    pub drop_link_down: u64,
    /// Dropped: TTL expired (a transient routing loop ate the packet).
    pub drop_ttl: u64,
    /// Routing updates transmitted (per link).
    pub updates_sent: u64,
    /// Routing updates processed.
    pub updates_processed: u64,
    /// Hello packets transmitted (per link).
    pub hellos_sent: u64,
    /// Dropped: lost to a fault-plan link impairment.
    pub drop_link_loss: u64,
    /// Dropped: addressed to (or queued on) a crashed router.
    pub drop_router_down: u64,
    /// Topology-affecting faults applied (link down/up transitions,
    /// crashes, reboots — the length of [`NetSim::fault_log`]).
    pub faults_injected: u64,
    /// Router reboots (cold starts) among the injected faults.
    pub reboots: u64,
    /// Triggered-update emissions (the storm metric: one per triggered
    /// emission, however many links it fans out over).
    pub updates_triggered: u64,
}

/// Instrumentation handles for the simulator's hot paths, resolved once at
/// construction from the global `routesync-obs` collector. With no
/// collector installed every handle is a no-op (a single branch per
/// record), so instrumented-off runs are bit-identical to pre-obs builds.
struct NetObs {
    packets_sent: routesync_obs::Counter,
    packets_moved: routesync_obs::Counter,
    packets_dropped: routesync_obs::Counter,
    updates_sent: routesync_obs::Counter,
    updates_processed: routesync_obs::Counter,
    /// In-flight slab high-water mark (allocation pressure).
    slab_high_water: routesync_obs::Gauge,
    /// Simulated nanoseconds of router control-plane CPU spent digesting
    /// and preparing routing updates.
    cpu_busy_ns: routesync_obs::Counter,
    /// Topology-affecting faults applied from a [`FaultPlan`].
    faults_injected: routesync_obs::Counter,
    /// Router reboots (cold starts) among the injected faults.
    faults_reboots: routesync_obs::Counter,
    /// Triggered-update emissions (update-storm intensity).
    updates_triggered: routesync_obs::Counter,
    /// Incremental (delta) triggered-update emissions.
    scale_delta_updates: routesync_obs::Counter,
    /// Forwarding decisions resolved through an aggregate or default
    /// route instead of an exact entry (hierarchical mode).
    scale_agg_hits: routesync_obs::Counter,
    /// Table rows (or dirtied destinations) read by advertisement-builder
    /// passes: one pass per link for flat tables, one per link area per
    /// update for area tables.
    advert_rows_scanned: routesync_obs::Counter,
    /// Route entries the advertisement builders wrote into update packets
    /// (padding excluded).
    advert_entries: routesync_obs::Counter,
    /// Route entries received updates merged into routing tables (padding
    /// excluded).
    update_entries: routesync_obs::Counter,
    /// Table rows those merges compared while locating their entries.
    update_probes: routesync_obs::Counter,
    /// Per-router busy attribution: `(sim-time, node)` trace events.
    trace: routesync_obs::Tracer,
    /// Online synchronization detector over periodic (non-triggered)
    /// update emissions: one window = one round of sends across all
    /// routers on the cycle `Tp`, publishing the Kuramoto order
    /// parameter R(t), cluster stats, and the sync-onset estimate as
    /// gauges (`netsim.sync.*`). Fed regardless of
    /// [`RouterConfig::record_timeline`] so live telemetry never
    /// changes simulation output.
    sync: routesync_obs::SyncDetector,
}

impl NetObs {
    fn resolve(routers: usize, period: Duration) -> Self {
        let obs = routesync_obs::global();
        let sync = if routers > 0 {
            obs.sync_detector(
                "netsim.sync",
                routesync_obs::DetectorConfig::new(routers, period.as_nanos()),
            )
        } else {
            routesync_obs::SyncDetector::noop()
        };
        NetObs {
            packets_sent: obs.counter("netsim.packets.sent"),
            packets_moved: obs.counter("netsim.packets.moved"),
            packets_dropped: obs.counter("netsim.packets.dropped"),
            updates_sent: obs.counter("netsim.updates.sent"),
            updates_processed: obs.counter("netsim.updates.processed"),
            slab_high_water: obs.gauge("netsim.slab.high_water"),
            cpu_busy_ns: obs.counter("netsim.router.busy_ns"),
            faults_injected: obs.counter("netsim.faults.injected"),
            faults_reboots: obs.counter("netsim.faults.reboots"),
            updates_triggered: obs.counter("netsim.updates.triggered"),
            scale_delta_updates: obs.counter("netsim.scale.delta_updates"),
            scale_agg_hits: obs.counter("netsim.scale.agg_hits"),
            advert_rows_scanned: obs.counter("netsim.advert.rows_scanned"),
            advert_entries: obs.counter("netsim.advert.entries"),
            update_entries: obs.counter("netsim.update.entries"),
            update_probes: obs.counter("netsim.update.probes"),
            trace: obs.tracer(),
            sync,
        }
    }
}

/// Flat CSR `(neighbour, link)` adjacency, sorted by neighbour id within
/// each node's range: binary-search lookups, two allocations total,
/// replacing the per-node `HashMap` that dominated construction at large
/// N. On duplicate neighbours (two shared links) the later link wins,
/// matching the `HashMap` insert order this replaces.
struct Adjacency {
    offsets: Vec<u32>,
    pairs: Vec<(NodeId, LinkId)>,
}

impl Adjacency {
    fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pairs: Vec<(NodeId, LinkId)> = Vec::new();
        offsets.push(0u32);
        let mut row: Vec<(NodeId, LinkId)> = Vec::new();
        for id in 0..n {
            row.clear();
            row.extend(topo.neighbors_iter(id));
            row.sort_by_key(|&(nb, _)| nb); // stable: ties keep link order
            let mut w = 0;
            for r in 0..row.len() {
                if r + 1 < row.len() && row[r + 1].0 == row[r].0 {
                    continue; // keep the last link to this neighbour
                }
                row[w] = row[r];
                w += 1;
            }
            row.truncate(w);
            pairs.extend_from_slice(&row);
            offsets.push(pairs.len() as u32);
        }
        Adjacency { offsets, pairs }
    }

    fn of(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.pairs[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    fn link_to(&self, node: NodeId, nbr: NodeId) -> Option<LinkId> {
        let row = self.of(node);
        row.binary_search_by_key(&nbr, |&(nb, _)| nb)
            .ok()
            .map(|i| row[i].1)
    }
}

/// Runtime state of the hierarchical area model ([`NetSim::with_areas`]).
/// Boxed behind an `Option`: without areas every hook is a single `None`
/// branch and the simulation is bit-identical to a pre-areas build.
struct AreaState {
    layout: AreaLayout,
    mode: AreaMode,
    /// Per node: border router of its area (attached to an out-of-area
    /// link), hence originates the default route inward.
    border: Vec<bool>,
    /// Per link: `Some(k)` for links entirely inside area `k`, `None` for
    /// backbone / cross-area links.
    link_area: Vec<Option<usize>>,
}

/// A per-link loss/reorder impairment with its dedicated RNG stream.
struct Impair {
    loss: f64,
    reorder: f64,
    reorder_delay: Duration,
    rng: MinStd,
}

/// Runtime state of an installed [`FaultPlan`]. Boxed behind an `Option`
/// on [`NetSim`]: with no plan installed (the overwhelmingly common case)
/// every fault hook is a single `None` branch and the simulation is
/// bit-identical to a pre-faults build.
struct FaultState {
    link_flaps: Vec<(LinkFlapProfile, MinStd)>,
    router_flaps: Vec<(RouterFlapProfile, MinStd)>,
    /// Per-link impairment (dense, indexed by link id).
    impairments: Vec<Option<Impair>>,
    /// Per-node crashed flag.
    crashed: Vec<bool>,
    /// Every applied topology-affecting fault, in application order.
    log: Vec<FaultRecord>,
}

struct TxSlot {
    busy: bool,
    queue: VecDeque<(Packet, Option<NodeId>)>,
}

struct LinkState {
    up: bool,
    slots: Vec<TxSlot>,
}

struct NodeState {
    kind: NodeKind,
    /// The control plane (hosts carry one too, but never run it).
    router: Router,
    /// Cancellation tokens of the pending `CpuFree` and `DvTimer` events.
    cpu_gen: TokenGen,
    timer_gen: TokenGen,
    pending_data: VecDeque<Packet>,
    app: Option<App>,
    /// Per-neighbour liveness (hello protocol): last hello heard and
    /// whether the adjacency is currently up.
    neighbor_liveness: HashMap<NodeId, (SimTime, bool)>,
    ping_stats: PingStats,
    cbr_stats: CbrReceiverStats,
}

/// One node's interfaces, as [`Router`] sees them: its links, in
/// topology order.
struct Ports<'a> {
    node: NodeId,
    topo: &'a Topology,
    links: &'a [LinkState],
    areas: Option<&'a AreaState>,
}

impl Ports<'_> {
    fn link(&self, i: usize) -> LinkId {
        self.topo.links_of(self.node)[i]
    }
}

impl Interfaces for Ports<'_> {
    fn count(&self) -> usize {
        self.topo.links_of(self.node).len()
    }

    fn up(&self, i: usize) -> bool {
        self.links[self.link(i)].up
    }

    fn peers_into(&self, i: usize, out: &mut Vec<NodeId>) {
        let nodes = self.topo.link(self.link(i)).nodes;
        out.extend(nodes.iter().copied().filter(|&m| m != self.node));
    }

    fn areas(&self) -> Option<(&AreaLayout, AreaMode, bool)> {
        self.areas
            .map(|st| (&st.layout, st.mode, st.border[self.node]))
    }

    fn link_area(&self, i: usize) -> Option<usize> {
        self.areas.and_then(|st| st.link_area[self.link(i)])
    }
}

/// The simulator. Build with [`NetSim::new`], attach traffic with
/// `add_ping`/`add_cbr`/`add_poisson`, then [`NetSim::run_until`].
pub struct NetSim {
    topo: Topology,
    cfg: RouterConfig,
    engine: Engine<Ev>,
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    /// In-flight packets: a slab indexed by the id carried in
    /// `Ev::Arrive` (keeps the event type `Copy` and cheap). Freed slots
    /// are recycled through `free_slots`, so a steady-state run stops
    /// allocating here entirely.
    in_flight: Vec<Option<Packet>>,
    free_slots: Vec<u64>,
    /// `(neighbor → link)` per node, flat and sorted.
    adjacency: Adjacency,
    counters: Counters,
    reset_log: Vec<(SimTime, NodeId)>,
    update_log: Vec<(SimTime, NodeId)>,
    delivered_paths: Vec<(NodeId, Vec<NodeId>)>,
    /// The routers' outputs and advertisement scratch.
    io: Io,
    /// Reusable neighbour list (always left cleared-or-stale, never read
    /// across calls).
    scratch_nodes: Vec<NodeId>,
    /// The master seed (fault-plan RNG streams derive from it).
    seed: u64,
    /// Installed fault plan, if any ([`NetSim::install_faults`]).
    faults: Option<Box<FaultState>>,
    /// Hierarchical area model, if any ([`NetSim::with_areas`]).
    areas: Option<Box<AreaState>>,
    obs: NetObs,
}

impl NetSim {
    /// Build a simulator over `topo`. Every router shares `cfg`; `seed`
    /// fixes all randomness.
    pub fn new(topo: Topology, cfg: RouterConfig, seed: u64) -> Self {
        Self::build(topo, cfg, seed, None)
    }

    /// Build a simulator with the hierarchical area model: routers carry
    /// aggregate routes for remote areas and (on edge routers) a default
    /// route instead of per-destination exacts, and advertisements follow
    /// the [`RoutingTable::area_candidates_into`] aggregation rules.
    /// With `cfg.prepopulate`, tables start in the converged hierarchical
    /// state directly — no O(N²) all-pairs BFS, which is what admits
    /// N = 100 000+ routers. Expects star-shaped areas (every non-border
    /// member adjacent to its border router), as built by
    /// [`crate::scenario::ScenarioSpec::hierarchical`].
    pub fn with_areas(
        topo: Topology,
        cfg: RouterConfig,
        seed: u64,
        layout: AreaLayout,
        mode: AreaMode,
    ) -> Self {
        Self::build(topo, cfg, seed, Some((layout, mode)))
    }

    fn build(
        topo: Topology,
        cfg: RouterConfig,
        seed: u64,
        areas: Option<(AreaLayout, AreaMode)>,
    ) -> Self {
        let n = topo.node_count();
        let engine = Engine::new();
        let adjacency = Adjacency::build(&topo);
        let areas = areas.map(|(layout, mode)| {
            layout.check(&topo);
            let link_area: Vec<Option<usize>> = (0..topo.link_count())
                .map(|l| layout.link_area(&topo, l))
                .collect();
            let border: Vec<bool> = (0..n)
                .map(|id| {
                    topo.kind(id) == NodeKind::Router
                        && topo.links_of(id).iter().any(|&l| link_area[l].is_none())
                })
                .collect();
            Box::new(AreaState {
                layout,
                mode,
                border,
                link_area,
            })
        });
        let mut nodes = Vec::with_capacity(n);
        for id in 0..n {
            let mut table = RoutingTable::new(id);
            for &(nb, _) in adjacency.of(id) {
                table.install_direct(nb);
            }
            if cfg.dv.triggered_delta && topo.kind(id) == NodeKind::Router {
                table.set_dirty_tracking(true);
            }
            let rng = routesync_rng::stream(seed, id as u64);
            nodes.push(NodeState {
                kind: topo.kind(id),
                router: Router::new(table, rng, &cfg),
                cpu_gen: TokenGen::new(),
                timer_gen: TokenGen::new(),
                pending_data: VecDeque::new(),
                app: None,
                neighbor_liveness: HashMap::new(),
                ping_stats: PingStats::default(),
                cbr_stats: CbrReceiverStats::default(),
            });
        }
        let links = (0..topo.link_count())
            .map(|l| LinkState {
                up: true,
                slots: topo
                    .link(l)
                    .nodes
                    .iter()
                    .map(|_| TxSlot {
                        busy: false,
                        queue: VecDeque::new(),
                    })
                    .collect(),
            })
            .collect();
        let routers = (0..n)
            .filter(|&id| topo.kind(id) == NodeKind::Router)
            .count();
        let obs = NetObs::resolve(routers, cfg.dv.jitter.tp());
        let mut sim = NetSim {
            topo,
            cfg,
            engine,
            nodes,
            links,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            adjacency,
            counters: Counters::default(),
            reset_log: Vec::new(),
            update_log: Vec::new(),
            delivered_paths: Vec::new(),
            io: Io::default(),
            scratch_nodes: Vec::new(),
            seed,
            faults: None,
            areas,
            obs,
        };
        if cfg.prepopulate {
            if sim.areas.is_some() {
                sim.install_hierarchy();
            } else {
                sim.install_routes();
            }
        }
        // Arm the routing timers.
        for id in sim.topo.routers() {
            let first = sim.nodes[id].router.first_fire(&cfg);
            let gen = sim.nodes[id].timer_gen.current();
            sim.engine.schedule(first, Ev::DvTimer { node: id, gen });
        }
        if let Some(hello) = cfg.dv.hello {
            for id in sim.topo.routers() {
                // Stagger the first hellos uniformly over one interval and
                // presume neighbours alive from t = 0.
                for (nb, _) in sim.topo.neighbors_iter(id) {
                    if sim.topo.kind(nb) == NodeKind::Router {
                        sim.nodes[id]
                            .neighbor_liveness
                            .insert(nb, (SimTime::ZERO, true));
                    }
                }
                let first =
                    routesync_rng::dist::UniformDuration::new(Duration::ZERO, hello.interval)
                        .sample(sim.nodes[id].router.rng());
                sim.engine
                    .schedule(SimTime::ZERO + first, Ev::HelloTimer { node: id });
            }
        }
        sim
    }

    /// Install shortest-path (hop count) routes on every router, for
    /// steady-state experiments that should not wait for convergence.
    fn install_routes(&mut self) {
        for (r, dst, metric, next_hop) in shortest_paths(&self.topo) {
            self.install_route(r, dst, metric, next_hop);
        }
    }

    /// Converged-state prepopulation for the hierarchical area model:
    /// border routers get their own aggregate (metric 0) plus one
    /// aggregate per reachable remote area via that area's border router;
    /// edge routers get the default route via their border router (and,
    /// in [`AreaMode::Stub`], intra-area exacts at metric 2). O(total
    /// table entries), not O(N²) — the whole point at N = 100k.
    fn install_hierarchy(&mut self) {
        let st = self.areas.take().expect("hierarchy without area state");
        let mut agg_routes = 0u64;
        let mut default_routes = 0u64;
        for k in 0..st.layout.areas() {
            for r in st.layout.members(k) {
                if self.nodes[r].kind != NodeKind::Router {
                    continue;
                }
                if st.border[r] {
                    self.install_route(r, AreaLayout::agg_dst(k), 0, r);
                    agg_routes += 1;
                    // Remote areas via their border routers on shared
                    // out-of-area (backbone) links.
                    for i in 0..self.adjacency.of(r).len() {
                        let (nb, l) = self.adjacency.of(r)[i];
                        if st.link_area[l].is_some()
                            || self.nodes[nb].kind != NodeKind::Router
                            || !st.border[nb]
                        {
                            continue;
                        }
                        if let Some(j) = st.layout.area_of(nb) {
                            if j != k {
                                self.install_route(r, AreaLayout::agg_dst(j), 1, nb);
                                agg_routes += 1;
                            }
                        }
                    }
                } else {
                    // First adjacent border router is the way out.
                    let Some(&(b, _)) =
                        self.adjacency.of(r).iter().find(|&&(nb, _)| {
                            self.nodes[nb].kind == NodeKind::Router && st.border[nb]
                        })
                    else {
                        continue; // area without a border router: isolated
                    };
                    self.install_route(r, DEFAULT_DST, 1, b);
                    default_routes += 1;
                    if st.mode == AreaMode::Stub {
                        // Converged stub-mode state: non-adjacent area
                        // members at metric 2 via the border router, and
                        // the remote-area aggregates the border will keep
                        // advertising onto stub links (only totally-stubby
                        // areas suppress those).
                        for m in st.layout.members(k) {
                            if m != r && self.nodes[r].router.table().metric(m).is_none() {
                                self.install_route(r, m, 2, b);
                            }
                        }
                        for j in 0..st.layout.areas() {
                            if j != k && !st.layout.members(j).is_empty() {
                                self.install_route(r, AreaLayout::agg_dst(j), 2, b);
                                agg_routes += 1;
                            }
                        }
                    }
                }
            }
        }
        let obs = routesync_obs::global();
        obs.gauge("netsim.scale.areas")
            .set(st.layout.areas() as u64);
        obs.gauge("netsim.scale.agg_routes").set(agg_routes);
        obs.gauge("netsim.scale.default_routes").set(default_routes);
        self.areas = Some(st);
    }

    /// The hierarchical area model installed at construction, if any.
    pub fn area_model(&self) -> Option<(&AreaLayout, AreaMode)> {
        self.areas.as_deref().map(|st| (&st.layout, st.mode))
    }

    /// Events processed by the discrete-event engine so far — the
    /// denominator of the `events/sec` throughput the scale benchmarks
    /// record.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Drop/delivery counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The simulated topology. Consumers that mirror the simulator's
    /// network outside the event loop — the live daemon building one UDP
    /// socket per adjacency — read the node/link structure from here so
    /// both worlds are guaranteed to agree.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-router configuration every node runs (protocol timers,
    /// processing cost, forwarding mode).
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// A node's routing table.
    pub fn table(&self, node: NodeId) -> &RoutingTable {
        self.nodes[node].router.table()
    }

    /// Overwrite one route on a router (scenario/test setup — e.g. to
    /// install a deliberately inconsistent state and watch the protocol or
    /// the TTL guard clean it up).
    pub fn install_route(&mut self, node: NodeId, dst: NodeId, metric: u32, next_hop: NodeId) {
        self.nodes[node]
            .router
            .table_mut()
            .install(dst, metric, next_hop);
    }

    /// Ping statistics recorded at `node` (the ping *sender*).
    pub fn ping_stats(&self, node: NodeId) -> &PingStats {
        &self.nodes[node].ping_stats
    }

    /// CBR receive statistics recorded at `node` (the audio *sink*).
    pub fn cbr_stats(&self, node: NodeId) -> &CbrReceiverStats {
        &self.nodes[node].cbr_stats
    }

    /// Timer re-arm instants per router (requires
    /// [`RouterConfig::record_timeline`]).
    pub fn reset_log(&self) -> &[(SimTime, NodeId)] {
        &self.reset_log
    }

    /// Periodic-update send instants per router (requires
    /// [`RouterConfig::record_timeline`]).
    pub fn update_log(&self) -> &[(SimTime, NodeId)] {
        &self.update_log
    }

    /// Router paths of delivered data packets, in delivery order
    /// (requires [`RouterConfig::record_paths`]).
    pub fn delivered_paths(&self) -> &[(NodeId, Vec<NodeId>)] {
        &self.delivered_paths
    }

    /// Attach a ping sender at `src` probing `dst`: `count` probes,
    /// `interval` apart, starting at `start`.
    pub fn add_ping(
        &mut self,
        src: NodeId,
        dst: NodeId,
        interval: Duration,
        count: u64,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Ping {
            dst,
            interval,
            count,
            sent: 0,
        });
        self.nodes[src].ping_stats = PingStats::with_capacity(count as usize);
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Attach a constant-bit-rate source at `src` streaming to `dst`.
    pub fn add_cbr(
        &mut self,
        src: NodeId,
        dst: NodeId,
        interval: Duration,
        count: u64,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Cbr {
            dst,
            interval,
            count,
            sent: 0,
        });
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Attach a Poisson background source at `src` towards `dst` with the
    /// given mean inter-packet interval, active until `until`.
    pub fn add_poisson(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mean_interval: Duration,
        until: SimTime,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Poisson {
            dst,
            mean_interval,
            until,
        });
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Take `link` down at `at` (routers on it poison dependent routes and
    /// emit triggered updates).
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.engine.schedule(at, Ev::LinkDown { link });
    }

    /// Bring `link` back up at `at`.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.engine.schedule(at, Ev::LinkUp { link });
    }

    /// Install a [`FaultPlan`]: schedule its timed events and seed its
    /// stochastic processes. Installing an **empty** plan is a no-op —
    /// the run stays bit-identical to one without the call. Stochastic
    /// faults draw from dedicated RNG streams derived from the master
    /// seed (never from the per-node RNGs), so the same `(seed, plan)`
    /// reproduces the same fault sequence byte-for-byte.
    ///
    /// Call before [`NetSim::run_until`]; installing a second non-empty
    /// plan replaces the first (its pending stochastic transitions keep
    /// firing but find the old state gone and re-derive from the new).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let n = self.topo.node_count();
        let mut st = Box::new(FaultState {
            link_flaps: plan
                .link_flaps
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (
                        *f,
                        routesync_rng::stream(self.seed, LINK_FLAP_STREAM + i as u64),
                    )
                })
                .collect(),
            router_flaps: plan
                .router_flaps
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (
                        *f,
                        routesync_rng::stream(self.seed, ROUTER_FLAP_STREAM + i as u64),
                    )
                })
                .collect(),
            impairments: (0..self.topo.link_count()).map(|_| None).collect(),
            crashed: vec![false; n],
            log: Vec::new(),
        });
        for imp in &plan.impairments {
            assert!(
                imp.link < self.topo.link_count(),
                "unknown link {}",
                imp.link
            );
            st.impairments[imp.link] = Some(Impair {
                loss: imp.loss,
                reorder: imp.reorder,
                reorder_delay: imp.reorder_delay,
                rng: routesync_rng::stream(self.seed, IMPAIR_STREAM + imp.link as u64),
            });
        }
        for s in &plan.slowdowns {
            assert!(
                self.topo.kind(s.node) == NodeKind::Router,
                "cpu slowdown target {} is not a router",
                s.node
            );
            self.nodes[s.node].router.set_slowdown(s.factor);
        }
        for ev in &plan.scheduled {
            let e = match ev.action {
                crate::faults::FaultAction::LinkDown(l) => Ev::FaultLink { link: l, up: false },
                crate::faults::FaultAction::LinkUp(l) => Ev::FaultLink { link: l, up: true },
                crate::faults::FaultAction::RouterCrash(r) => Ev::RouterCrash { node: r },
                crate::faults::FaultAction::RouterReboot(r) => Ev::RouterReboot { node: r },
            };
            self.engine.schedule(ev.at, e);
        }
        // First stochastic transitions: every flapping entity starts up
        // and fails after Exp(mtbf).
        for flap in 0..st.link_flaps.len() {
            let (prof, rng) = &mut st.link_flaps[flap];
            let dt = exp_duration(prof.mtbf, rng);
            self.engine
                .schedule(SimTime::ZERO + dt, Ev::LinkFlap { flap, down: true });
        }
        for flap in 0..st.router_flaps.len() {
            let (prof, rng) = &mut st.router_flaps[flap];
            assert!(
                self.topo.kind(prof.node) == NodeKind::Router,
                "router flap target {} is not a router",
                prof.node
            );
            let dt = exp_duration(prof.mtbf, rng);
            self.engine
                .schedule(SimTime::ZERO + dt, Ev::RouterFlap { flap, down: true });
        }
        self.faults = Some(st);
    }

    /// The topology-affecting faults applied so far, in application
    /// order. Empty when no [`FaultPlan`] is installed.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.faults.as_ref().map_or(&[], |f| &f.log)
    }

    /// Whether `node` is currently crashed by the installed fault plan.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed[node])
    }

    /// Run the simulation until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        let _span = routesync_obs::span!("netsim.run_until");
        loop {
            match self.engine.peek_time() {
                None => break,
                Some(t) if t >= horizon => break,
                Some(_) => {}
            }
            let (now, ev) = self.engine.pop().expect("peeked event vanished");
            self.dispatch(now, ev);
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive { to, pkt_id } => {
                let pkt = self.in_flight[pkt_id as usize]
                    .take()
                    .expect("arrival without in-flight packet");
                self.free_slots.push(pkt_id);
                self.on_arrive(now, to, pkt);
            }
            Ev::TxDone { link, slot } => self.on_tx_done(now, link, slot),
            Ev::CpuFree { node, gen } => {
                if self.nodes[node].cpu_gen.is_live(gen) {
                    self.on_cpu_free(now, node);
                }
            }
            Ev::DvTimer { node, gen } => {
                if self.nodes[node].timer_gen.is_live(gen) {
                    self.route(now, node, |r, env| r.on_timer(now, env));
                }
            }
            Ev::HelloTimer { node } => self.on_hello_timer(now, node),
            Ev::AppTick { node } => self.on_app_tick(now, node),
            Ev::LinkDown { link } => self.on_link_down(now, link),
            Ev::LinkUp { link } => self.on_link_up(now, link),
            Ev::FaultLink { link, up } => self.on_fault_link(now, link, up),
            Ev::LinkFlap { flap, down } => self.on_link_flap(now, flap, down),
            Ev::RouterCrash { node } => self.on_router_crash(now, node),
            Ev::RouterReboot { node } => self.on_router_reboot(now, node),
            Ev::RouterFlap { flap, down } => self.on_router_flap(now, flap, down),
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Queue `pkt` for transmission by `from` on `link`. `dst_hint` selects
    /// the receiving node on a broadcast medium (`None` = all attached).
    fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        link: LinkId,
        pkt: Packet,
        dst_hint: Option<NodeId>,
    ) {
        if !self.links[link].up {
            self.counters.drop_link_down += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        let slot = self.slot_of(link, from);
        if self.links[link].slots[slot].busy {
            let cap = self.topo.link(link).queue_cap;
            let q = &mut self.links[link].slots[slot].queue;
            if q.len() < cap {
                q.push_back((pkt, dst_hint));
            } else {
                self.counters.drop_queue += 1;
                self.obs.packets_dropped.inc();
            }
        } else {
            self.start_tx(now, link, slot, pkt, dst_hint);
        }
    }

    fn slot_of(&self, link: LinkId, node: NodeId) -> usize {
        self.topo
            .link(link)
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node not attached to link")
    }

    fn start_tx(
        &mut self,
        now: SimTime,
        link: LinkId,
        slot: usize,
        pkt: Packet,
        dst_hint: Option<NodeId>,
    ) {
        let l = self.topo.link(link);
        let tx_time = l.tx_time(pkt.size);
        let arrive_at = now + tx_time + l.delay;
        let sender = l.nodes[slot];
        let medium = l.medium;
        match (medium, dst_hint) {
            (Medium::PointToPoint, _) => {
                let to = self.topo.link(link).other_end(sender);
                self.deliver_on(link, arrive_at, to, pkt);
            }
            (Medium::Broadcast, Some(d)) => self.deliver_on(link, arrive_at, d, pkt),
            (Medium::Broadcast, None) => {
                // Every other attached node hears the frame; move the
                // packet into the last copy instead of cloning it.
                let count = self.topo.link(link).nodes.len();
                let mut remaining = count - 1;
                let mut pkt = Some(pkt);
                for i in 0..count {
                    let to = self.topo.link(link).nodes[i];
                    if to == sender {
                        continue;
                    }
                    remaining -= 1;
                    let copy = if remaining == 0 {
                        pkt.take().expect("broadcast packet reused")
                    } else {
                        pkt.as_ref().expect("broadcast packet gone").clone()
                    };
                    self.deliver_on(link, arrive_at, to, copy);
                }
            }
        }
        self.links[link].slots[slot].busy = true;
        self.engine
            .schedule(now + tx_time, Ev::TxDone { link, slot });
    }

    /// Deliver `pkt` over `link`, applying any fault-plan impairment:
    /// an independent loss draw, then an independent reorder draw that
    /// adds the impairment's extra delay. Without an installed plan this
    /// is a single branch in front of [`NetSim::schedule_arrival`].
    fn deliver_on(&mut self, link: LinkId, at: SimTime, to: NodeId, pkt: Packet) {
        let mut at = at;
        if let Some(f) = self.faults.as_deref_mut() {
            if let Some(imp) = f.impairments[link].as_mut() {
                if imp.loss > 0.0 && routesync_rng::dist::unit_f64(&mut imp.rng) < imp.loss {
                    self.counters.drop_link_loss += 1;
                    self.obs.packets_dropped.inc();
                    return;
                }
                if imp.reorder > 0.0 && routesync_rng::dist::unit_f64(&mut imp.rng) < imp.reorder {
                    at += imp.reorder_delay;
                }
            }
        }
        self.schedule_arrival(at, to, pkt);
    }

    /// Park `pkt` in the in-flight slab and schedule its arrival.
    fn schedule_arrival(&mut self, at: SimTime, to: NodeId, pkt: Packet) {
        self.obs.packets_moved.inc();
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.in_flight[id as usize] = Some(pkt);
                id
            }
            None => {
                self.in_flight.push(Some(pkt));
                self.obs
                    .slab_high_water
                    .record_max(self.in_flight.len() as u64);
                (self.in_flight.len() - 1) as u64
            }
        };
        self.engine.schedule(at, Ev::Arrive { to, pkt_id: id });
    }

    fn on_tx_done(&mut self, now: SimTime, link: LinkId, slot: usize) {
        self.links[link].slots[slot].busy = false;
        if let Some((pkt, hint)) = self.links[link].slots[slot].queue.pop_front() {
            if self.links[link].up {
                self.start_tx(now, link, slot, pkt, hint);
            } else {
                self.counters.drop_link_down += 1;
                self.obs.packets_dropped.inc();
            }
        }
    }

    // ------------------------------------------------------------------
    // Arrival, forwarding, local delivery
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, now: SimTime, to: NodeId, pkt: Packet) {
        if self.is_crashed(to) {
            // A crashed router hears nothing: data, hellos and routing
            // updates addressed to it all hit the floor.
            self.counters.drop_router_down += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        if matches!(pkt.payload, Payload::Hello) {
            if self.nodes[to].kind == NodeKind::Router {
                self.on_hello(now, to, pkt.src);
            }
            return;
        }
        if let Payload::Routing(update) = pkt.payload {
            // Hosts ignore routing chatter.
            if self.nodes[to].kind == NodeKind::Router {
                self.process_routing(now, to, &update);
            }
            return;
        }
        if pkt.dst == to {
            self.deliver_local(now, to, pkt);
            return;
        }
        match self.nodes[to].kind {
            NodeKind::Host => {
                // Hosts never relay.
                self.counters.drop_no_route += 1;
                self.obs.packets_dropped.inc();
            }
            NodeKind::Router => {
                let blocked = self.cfg.forwarding == ForwardingMode::BlockedDuringUpdates
                    && self.nodes[to].router.busy(now);
                if blocked {
                    if self.nodes[to].pending_data.len() < self.cfg.pending_cap {
                        self.nodes[to].pending_data.push_back(pkt);
                    } else {
                        self.counters.drop_cpu += 1;
                        self.obs.packets_dropped.inc();
                    }
                } else {
                    self.forward(now, to, pkt);
                }
            }
        }
    }

    fn forward(&mut self, now: SimTime, router: NodeId, mut pkt: Packet) {
        if pkt.ttl == 0 {
            self.counters.drop_ttl += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        pkt.ttl -= 1;
        if self.cfg.record_paths {
            pkt.hops.push(router);
        }
        let infinity = self.cfg.dv.infinity;
        let next = {
            let table = self.nodes[router].router.table();
            match table.lookup(pkt.dst, infinity) {
                Some(nh) => Some(nh),
                // Hierarchical fallback chain: exact → area aggregate →
                // default route.
                None => self.areas.as_deref().and_then(|st| {
                    let via = st
                        .layout
                        .area_of(pkt.dst)
                        .and_then(|k| table.lookup(AreaLayout::agg_dst(k), infinity))
                        .or_else(|| table.lookup(DEFAULT_DST, infinity));
                    if via.is_some() {
                        self.obs.scale_agg_hits.inc();
                    }
                    via
                }),
            }
        };
        match next.and_then(|nh| self.adjacency.link_to(router, nh).map(|l| (nh, l))) {
            None => {
                self.counters.drop_no_route += 1;
                self.obs.packets_dropped.inc();
            }
            Some((next, link)) => {
                self.counters.forwarded += 1;
                self.transmit(now, router, link, pkt, Some(next));
            }
        }
    }

    fn deliver_local(&mut self, now: SimTime, node: NodeId, pkt: Packet) {
        self.counters.delivered += 1;
        if self.cfg.record_paths && !matches!(pkt.payload, Payload::Routing(_) | Payload::Hello) {
            self.delivered_paths.push((node, pkt.hops.clone()));
        }
        match pkt.payload {
            Payload::Ping { seq, sent_ns } => {
                // Echo.
                let reply = Packet::new(node, pkt.src, pkt.size, Payload::Pong { seq, sent_ns });
                self.send_from(now, node, reply);
            }
            Payload::Pong { seq, sent_ns } => {
                let rtt = (now.as_nanos() - sent_ns) as f64 / 1e9;
                self.nodes[node].ping_stats.record(seq, rtt);
            }
            Payload::Audio { seq } => {
                self.nodes[node].cbr_stats.record(seq, now.as_secs_f64());
            }
            Payload::Data => {}
            Payload::Hello | Payload::Routing(_) => unreachable!("handled in on_arrive"),
        }
    }

    /// Send a locally originated packet from `node` (host or router).
    fn send_from(&mut self, now: SimTime, node: NodeId, pkt: Packet) {
        self.counters.sent += 1;
        self.obs.packets_sent.inc();
        if pkt.dst == node {
            self.deliver_local(now, node, pkt);
            return;
        }
        match self.nodes[node].kind {
            NodeKind::Router => self.forward(now, node, pkt),
            NodeKind::Host => {
                // Directly attached destination?
                if let Some(link) = self.adjacency.link_to(node, pkt.dst) {
                    let dst = pkt.dst;
                    self.transmit(now, node, link, pkt, Some(dst));
                    return;
                }
                // The default router: the first adjacent router.
                let default = self
                    .topo
                    .neighbors_iter(node)
                    .find(|&(nb, _)| self.topo.kind(nb) == NodeKind::Router);
                match default {
                    None => {
                        self.counters.drop_no_route += 1;
                        self.obs.packets_dropped.inc();
                    }
                    Some((r, _)) => {
                        let link = self
                            .adjacency
                            .link_to(node, r)
                            .expect("default router not adjacent");
                        self.transmit(now, node, link, pkt, Some(r));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Run one router entry point with this node's interfaces, then map
    /// its outputs onto the simulation.
    fn route<T>(
        &mut self,
        now: SimTime,
        node: NodeId,
        call: impl FnOnce(&mut Router, &mut Env<'_, Ports<'_>>) -> T,
    ) -> T {
        let ports = Ports {
            node,
            topo: &self.topo,
            links: &self.links,
            areas: self.areas.as_deref(),
        };
        let mut env = Env {
            cfg: &self.cfg,
            ifaces: &ports,
            io: &mut self.io,
        };
        let result = call(&mut self.nodes[node].router, &mut env);
        let mut out = std::mem::take(&mut self.io.out);
        for output in out.drain(..) {
            self.apply(now, node, output);
        }
        self.io.out = out;
        result
    }

    /// One router output, in the order the router produced it: engine
    /// ties at one instant are FIFO, so the schedule order is the
    /// simulation's.
    fn apply(&mut self, now: SimTime, node: NodeId, output: Output) {
        match output {
            Output::Busy { until, cost } => {
                self.obs.cpu_busy_ns.add(cost.as_nanos());
                self.obs
                    .trace
                    .record(now.as_nanos(), "netsim.cpu.busy", node as f64);
                let gen = self.nodes[node].cpu_gen.bump();
                self.engine.schedule(until, Ev::CpuFree { node, gen });
            }
            Output::Emit(Emission::Periodic) => {
                if self.cfg.record_timeline {
                    self.update_log.push((now, node));
                }
                // Streamed regardless of the timeline flag: the detector
                // only writes metrics, so it cannot change simulation
                // output.
                self.obs.sync.on_send(now.as_nanos());
            }
            Output::Emit(Emission::Triggered { delta }) => {
                self.counters.updates_triggered += 1;
                self.obs.updates_triggered.inc();
                if delta {
                    self.obs.scale_delta_updates.inc();
                }
            }
            Output::Emit(Emission::Keepalive) => {}
            Output::Advertise {
                iface,
                update,
                scanned,
            } => {
                self.obs.advert_rows_scanned.add(scanned as u64);
                self.obs.advert_entries.add(update.entries.len() as u64);
                // Padding models the ~300-route backbone tables: it costs
                // wire time and receiver CPU, but travels as a count.
                let size = Packet::routing_size(update.entries.len() + update.pad as usize);
                let pkt = Packet::new(node, node, size, Payload::Routing(update));
                self.counters.updates_sent += 1;
                self.obs.updates_sent.inc();
                let link = self.topo.links_of(node)[iface];
                self.transmit(now, node, link, pkt, None);
            }
            Output::Arm(at) => {
                if self.cfg.record_timeline {
                    self.reset_log.push((now, node));
                }
                let gen = self.nodes[node].timer_gen.current();
                self.engine.schedule(at, Ev::DvTimer { node, gen });
            }
        }
    }

    fn process_routing(&mut self, now: SimTime, node: NodeId, update: &RoutingUpdate) {
        self.counters.updates_processed += 1;
        self.obs.updates_processed.inc();
        // With areas installed, logical destinations (aggregates, default)
        // ride the ordinary Bellman-Ford path.
        let (origin, entries) = (update.origin, &update.entries);
        let merged = self.route(now, node, |r, env| {
            r.on_update(now, origin, entries, update.pad, env)
        });
        self.obs.update_entries.add(update.entries.len() as u64);
        self.obs.update_probes.add(merged.probes);
    }

    /// Adjacencies of `node` to `peers` changed.
    fn neighbors(&mut self, now: SimTime, node: NodeId, peers: &[NodeId], up: bool) {
        self.route(now, node, |r, env| r.on_neighbors(now, peers, up, env));
    }

    /// Periodic hello tick: greet every router neighbour and check for
    /// silent ones.
    fn on_hello_timer(&mut self, now: SimTime, node: NodeId) {
        let Some(hello) = self.cfg.dv.hello else {
            return;
        };
        // A crashed router sends nothing and declares nobody dead, but
        // its hello timer keeps ticking silently (below) so the RNG
        // stream and schedule stay deterministic across the outage.
        if !self.is_crashed(node) {
            // Send hellos on every up link (to all router neighbours).
            for li in 0..self.topo.links_of(node).len() {
                let link = self.topo.links_of(node)[li];
                if !self.links[link].up {
                    continue;
                }
                let pkt = Packet::new(node, node, 44, Payload::Hello);
                self.counters.hellos_sent += 1;
                self.transmit(now, node, link, pkt, None);
            }
            // Declare silent neighbours dead. The scratch buffer dodges a
            // Vec per tick; sorting pins down the HashMap's iteration
            // order so the failure sequence is reproducible.
            let dead_after = hello.dead_after();
            let mut silent = std::mem::take(&mut self.scratch_nodes);
            silent.clear();
            silent.extend(
                self.nodes[node]
                    .neighbor_liveness
                    .iter()
                    .filter(|&(_, &(last, alive))| alive && last + dead_after <= now)
                    .map(|(&nb, _)| nb),
            );
            silent.sort_unstable();
            for &nb in &silent {
                self.nodes[node]
                    .neighbor_liveness
                    .insert(nb, (SimTime::ZERO, false));
            }
            self.neighbors(now, node, &silent, false);
            self.scratch_nodes = silent;
        }
        // Re-arm with the standard 0.75-1.25x jitter.
        let lo = hello.interval.as_nanos() * 3 / 4;
        let hi = hello.interval.as_nanos() * 5 / 4;
        let next = routesync_rng::dist::UniformDuration::new(
            Duration::from_nanos(lo),
            Duration::from_nanos(hi),
        )
        .sample(self.nodes[node].router.rng());
        self.engine.schedule(now + next, Ev::HelloTimer { node });
    }

    /// A hello from `from` reached `node`: refresh (or resurrect) the
    /// adjacency.
    fn on_hello(&mut self, now: SimTime, node: NodeId, from: NodeId) {
        let was_alive = self.nodes[node]
            .neighbor_liveness
            .get(&from)
            .map(|&(_, alive)| alive);
        self.nodes[node].neighbor_liveness.insert(from, (now, true));
        if was_alive == Some(false) {
            self.neighbors(now, node, &[from], true);
        }
    }

    /// Whether `node` currently considers `neighbor` alive (always true
    /// without the hello protocol).
    pub fn neighbor_alive(&self, node: NodeId, neighbor: NodeId) -> bool {
        if self.cfg.dv.hello.is_none() {
            return true;
        }
        self.nodes[node]
            .neighbor_liveness
            .get(&neighbor)
            .is_some_and(|&(_, alive)| alive)
    }

    fn on_cpu_free(&mut self, now: SimTime, node: NodeId) {
        self.route(now, node, |r, env| r.on_cpu_free(now, env));
        // A deferred triggered update re-busies the CPU: the held data
        // waits for the next CpuFree.
        if self.nodes[node].router.busy(now) {
            return;
        }
        // Forward everything that waited out the control-plane burst.
        while let Some(pkt) = self.nodes[node].pending_data.pop_front() {
            self.forward(now, node, pkt);
        }
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    fn on_app_tick(&mut self, now: SimTime, node: NodeId) {
        if self.is_crashed(node) {
            // A crashed node's application dies with it (the remaining
            // train is simply never sent).
            return;
        }
        let Some(app) = self.nodes[node].app.clone() else {
            return;
        };
        match app {
            App::Ping {
                dst,
                interval,
                count,
                sent,
            } => {
                if sent >= count {
                    return;
                }
                let pkt = Packet::new(
                    node,
                    dst,
                    64,
                    Payload::Ping {
                        seq: sent,
                        sent_ns: now.as_nanos(),
                    },
                );
                self.nodes[node]
                    .ping_stats
                    .note_sent(sent, now.as_secs_f64());
                self.send_from(now, node, pkt);
                self.nodes[node].app = Some(App::Ping {
                    dst,
                    interval,
                    count,
                    sent: sent + 1,
                });
                if sent + 1 < count {
                    self.engine.schedule(now + interval, Ev::AppTick { node });
                }
            }
            App::Cbr {
                dst,
                interval,
                count,
                sent,
            } => {
                if sent >= count {
                    return;
                }
                // ~20 ms of 64 kbit/s PCM plus headers.
                let pkt = Packet::new(node, dst, 320, Payload::Audio { seq: sent });
                self.send_from(now, node, pkt);
                self.nodes[node].app = Some(App::Cbr {
                    dst,
                    interval,
                    count,
                    sent: sent + 1,
                });
                if sent + 1 < count {
                    self.engine.schedule(now + interval, Ev::AppTick { node });
                }
            }
            App::Poisson {
                dst,
                mean_interval,
                until,
            } => {
                if now >= until {
                    return;
                }
                let pkt = Packet::new(node, dst, 512, Payload::Data);
                self.send_from(now, node, pkt);
                let exp = routesync_rng::dist::Exp::new(mean_interval.as_secs_f64());
                let gap = exp.sample(self.nodes[node].router.rng()).max(1e-6);
                self.engine
                    .schedule(now + Duration::from_secs_f64(gap), Ev::AppTick { node });
            }
        }
    }

    // ------------------------------------------------------------------
    // Link failures
    // ------------------------------------------------------------------

    fn on_link_down(&mut self, now: SimTime, link: LinkId) {
        if !self.links[link].up {
            return;
        }
        self.links[link].up = false;
        for slot in &mut self.links[link].slots {
            self.counters.drop_link_down += slot.queue.len() as u64;
            self.obs.packets_dropped.add(slot.queue.len() as u64);
            slot.queue.clear();
        }
        if self.cfg.dv.hello.is_some() {
            // Failure detection is the hello protocol's job.
            return;
        }
        self.link_neighbors(now, link, false);
    }

    fn on_link_up(&mut self, now: SimTime, link: LinkId) {
        if self.links[link].up {
            return;
        }
        self.links[link].up = true;
        if self.cfg.dv.hello.is_some() {
            // Adjacencies come back when hellos resume.
            return;
        }
        self.link_neighbors(now, link, true);
    }

    /// Oracle failure detection for a link transition: each live router
    /// on it learns at once that its on-link neighbours (the live ones,
    /// when the link comes up) went away or came back.
    fn link_neighbors(&mut self, now: SimTime, link: LinkId, up: bool) {
        let mut peers = std::mem::take(&mut self.scratch_nodes);
        let attached = self.topo.link(link).nodes.len();
        for ri in 0..attached {
            let r = self.topo.link(link).nodes[ri];
            if self.topo.kind(r) != NodeKind::Router || self.is_crashed(r) {
                continue;
            }
            peers.clear();
            peers.extend(
                self.topo
                    .link(link)
                    .nodes
                    .iter()
                    .copied()
                    .filter(|&m| m != r && !(up && self.is_crashed(m))),
            );
            self.neighbors(now, r, &peers, up);
        }
        self.scratch_nodes = peers;
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Log a fault application and bump the injection counters.
    fn record_fault(&mut self, at: SimTime, kind: FaultKind, subject: usize) {
        self.counters.faults_injected += 1;
        self.obs.faults_injected.inc();
        if let Some(f) = self.faults.as_mut() {
            f.log.push(FaultRecord { at, kind, subject });
        }
    }

    /// A fault-plan link transition: like the raw `LinkDown`/`LinkUp`
    /// events but logged and counted. No-op transitions (downing a link
    /// that is already down) are not logged, which keeps the fault log a
    /// faithful record of what actually changed.
    fn on_fault_link(&mut self, now: SimTime, link: LinkId, up: bool) {
        if self.links[link].up == up {
            return;
        }
        self.record_fault(
            now,
            if up {
                FaultKind::LinkUp
            } else {
                FaultKind::LinkDown
            },
            link,
        );
        if up {
            self.on_link_up(now, link);
        } else {
            self.on_link_down(now, link);
        }
    }

    /// One transition of a stochastic link flap: apply it, then draw the
    /// dwell time until the opposite transition from the flap's own RNG
    /// stream.
    fn on_link_flap(&mut self, now: SimTime, flap: usize, down: bool) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let (prof, rng) = &mut f.link_flaps[flap];
        let link = prof.link;
        let dwell = exp_duration(if down { prof.mttr } else { prof.mtbf }, rng);
        self.engine
            .schedule(now + dwell, Ev::LinkFlap { flap, down: !down });
        self.on_fault_link(now, link, !down);
    }

    /// One transition of a stochastic router flap (crash or reboot).
    fn on_router_flap(&mut self, now: SimTime, flap: usize, down: bool) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let (prof, rng) = &mut f.router_flaps[flap];
        let node = prof.node;
        let dwell = exp_duration(if down { prof.mttr } else { prof.mtbf }, rng);
        self.engine
            .schedule(now + dwell, Ev::RouterFlap { flap, down: !down });
        if down {
            self.on_router_crash(now, node);
        } else {
            self.on_router_reboot(now, node);
        }
    }

    /// Crash a router: wipe its routing table, cancel its timers and CPU,
    /// and drop everything it was holding. While crashed, every packet
    /// addressed to it drops and its hello/app ticks are suppressed (the
    /// hello *timer* keeps ticking silently so the reboot resumes the
    /// same deterministic schedule).
    fn on_router_crash(&mut self, now: SimTime, node: NodeId) {
        if self.topo.kind(node) != NodeKind::Router {
            return;
        }
        {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if f.crashed[node] {
                return;
            }
            f.crashed[node] = true;
        }
        self.record_fault(now, FaultKind::RouterCrash, node);
        let nd = &mut self.nodes[node];
        // Invalidate every in-flight DvTimer and CpuFree for this node —
        // the same generation-token pattern that cancels stale timers.
        nd.timer_gen.bump();
        nd.cpu_gen.bump();
        nd.router.on_crash(now);
        let dropped = nd.pending_data.len() as u64;
        nd.pending_data.clear();
        self.counters.drop_router_down += dropped;
        self.obs.packets_dropped.add(dropped);
        if self.cfg.dv.hello.is_none() {
            // Oracle failure detection (mirrors `on_link_down`): router
            // neighbours poison routes through the dead router at once.
            // With hellos, neighbours time the adjacency out instead.
            let mut nbrs = std::mem::take(&mut self.scratch_nodes);
            nbrs.clear();
            nbrs.extend(
                self.topo
                    .neighbors_iter(node)
                    .filter(|&(m, _)| self.topo.kind(m) == NodeKind::Router)
                    .map(|(m, _)| m),
            );
            for &m in &nbrs {
                if !self.is_crashed(m) {
                    self.neighbors(now, m, &[node], false);
                }
            }
            self.scratch_nodes = nbrs;
        }
    }

    /// Reboot a crashed router: cold-start its table with only the
    /// self-route plus live direct links, announce itself with a
    /// triggered update (the Section 3.1 storm-injection path), and
    /// restart its periodic timer at a fresh phase.
    fn on_router_reboot(&mut self, now: SimTime, node: NodeId) {
        if self.topo.kind(node) != NodeKind::Router {
            return;
        }
        {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if !f.crashed[node] {
                return;
            }
            f.crashed[node] = false;
        }
        self.record_fault(now, FaultKind::RouterReboot, node);
        self.counters.reboots += 1;
        self.obs.faults_reboots.inc();
        let mut nbrs = std::mem::take(&mut self.scratch_nodes);
        nbrs.clear();
        nbrs.extend(
            self.topo
                .neighbors_iter(node)
                .filter(|&(_, l)| self.links[l].up)
                .map(|(m, _)| m),
        );
        // Cold start, announced through the triggered-update machinery,
        // and a periodic timer restarted at a phase set by the reboot
        // time: the perturbation whose re-absorption the resync
        // experiments measure.
        self.route(now, node, |r, env| r.on_reboot(now, &nbrs, env));
        if self.cfg.dv.hello.is_some() {
            // Presume neighbours alive from the reboot instant, exactly
            // like the initial build.
            self.nodes[node].neighbor_liveness.clear();
            for &m in &nbrs {
                if self.topo.kind(m) == NodeKind::Router {
                    self.nodes[node].neighbor_liveness.insert(m, (now, true));
                }
            }
        }
        if self.cfg.dv.hello.is_none() {
            // Oracle mode: neighbours resurrect their direct route and
            // propagate the good news.
            for &m in &nbrs {
                if self.topo.kind(m) == NodeKind::Router && !self.is_crashed(m) {
                    self.neighbors(now, m, &[node], true);
                }
            }
        }
        self.scratch_nodes = nbrs;
    }
}

/// Exponentially distributed duration with the given mean, floored at
/// 1 ms so back-to-back flap transitions can never collapse onto one
/// instant.
fn exp_duration(mean: Duration, rng: &mut MinStd) -> Duration {
    let secs = routesync_rng::dist::Exp::new(mean.as_secs_f64()).sample(rng);
    Duration::from_secs_f64(secs.max(1e-3))
}

/// Shortest-path (hop count) routes for a topology, as `(router, dst,
/// metric, next_hop)` install tuples: one BFS per destination, buffers
/// reused across destinations. Hosts can terminate paths but never relay.
fn shortest_paths(topo: &Topology) -> Vec<(NodeId, NodeId, u32, NodeId)> {
    let n = topo.node_count();
    let routers = topo.routers();
    let mut entries = Vec::new();
    let mut dist = vec![u32::MAX; n];
    let mut next_hop = vec![usize::MAX; n];
    let mut queue = VecDeque::with_capacity(n);
    for dst in 0..n {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        next_hop.iter_mut().for_each(|h| *h = usize::MAX);
        queue.clear();
        // BFS from the destination; expand only through routers.
        dist[dst] = 0;
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            if u != dst && topo.kind(u) != NodeKind::Router {
                continue; // hosts don't relay
            }
            for (v, _) in topo.neighbors_iter(u) {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    next_hop[v] = u;
                    queue.push_back(v);
                }
            }
        }
        for &r in &routers {
            if r != dst && dist[r] != u32::MAX {
                entries.push((r, dst, dist[r], next_hop[r]));
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    /// A node's state holds its [`super::Router`] without growing: at
    /// N = 100k every byte here is 100 kB of resident memory.
    #[test]
    fn per_node_state_does_not_grow() {
        assert!(std::mem::size_of::<super::NodeState>() <= 464);
    }
}
