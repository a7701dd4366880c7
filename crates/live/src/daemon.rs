//! The live daemon: N in-process distance-vector routers over real UDP.
//!
//! [`LiveDaemon`] hosts every router of a [`ScenarioSpec`] as an actor in
//! one single-threaded event loop. Adjacencies are *connected*
//! nonblocking `UdpSocket`s on loopback — one socket per (router, peer,
//! link) direction — so a crashed peer's closed port bounces ICMP
//! port-unreachable back as `ECONNREFUSED` on the sender's next send,
//! exercising the genuine retry path rather than a simulated one.
//!
//! Time is two-clocked: the loop runs in wall-clock time, but protocol
//! state advances on a *simulated* clock derived from it
//! (`sim_now = base + time_scale × wall_elapsed`). Timers, route
//! timeouts, checkpoint cadence and the sync detector all speak simulated
//! time, which is what lets the desim twin (same spec, same seed, pure
//! simulation) predict the live trajectory and lets a 90-second protocol
//! period elapse in a fraction of a wall second during tests.
//!
//! Robustness layers, inside-out:
//!
//! * **codec** — every datagram is framed by [`Advertisement`]
//!   (versioned, CRC-32); malformed input is counted and dropped.
//! * **retry/backoff** — transient send failures re-queue with
//!   decorrelated-jitter delays ([`crate::backoff`]), bounded by
//!   [`RetryPolicy::max_attempts`].
//! * **overload shedding** — per-router ingress queues are bounded;
//!   overflow is shed (counted), and sustained shedding stretches the
//!   router's advertisement period by powers of two up to
//!   [`LiveConfig::stretch_max`], recovering once the backlog drains.
//! * **liveness** — a silent neighbour past the protocol's route timeout
//!   fails its routes ([`RoutingTable::fail_via_with`]); its first
//!   datagram after that is a counted recovery.
//! * **checkpoints** — CRC-framed key-value checkpoints
//!   (`routesync_exec::checkpoint`) carry the full protocol state; a
//!   restarted daemon resumes byte-identically (the stored table JSON
//!   reloads and re-serializes to the same bytes). A checkpoint written
//!   under a different run configuration is refused at open
//!   (`ErrorKind::InvalidInput`), which the CLI maps to usage-error
//!   exit 2.
//! * **twin divergence** — when enabled, the live R(t) trajectory is
//!   compared window-by-window against the desim prediction
//!   ([`crate::twin`]), exported as `live.twin.*`.
//!
//! Metrics are under the `live.` prefix; `docs/OBSERVABILITY.md` lists
//! every row.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration as WallDuration, Instant};

use routesync_desim::{Duration, SimTime};
use routesync_exec::checkpoint::{self, Writer};
use routesync_exec::interrupt;
use routesync_netsim::{
    Advertisement, DvConfig, FaultAction, LinkId, NodeId, NodeKind, RoutingTable, ScenarioSpec,
    ScheduledFault, TimerStart,
};
use routesync_obs::{Collector, Counter, DetectorConfig, DetectorSnapshot, Gauge, SyncDetector};
use routesync_rng::{dist, JitterPolicy, MinStd, TimerResetPolicy};

use crate::backoff::DecorrelatedJitter;
use crate::poll::Poller;
use crate::twin::{DivergenceMonitor, TwinTrack};

/// RNG stream index for backoff draws — disjoint from per-node streams
/// (node ids) and from netsim's fault streams (`0xFA.. - 0xFC..`).
const BACKOFF_STREAM: u64 = 0xBA_C0FF;
/// Base RNG stream index for the live daemon's receiver-side link-loss
/// draws.
const LIVE_IMPAIR_STREAM: u64 = 0x11FE_0000;
/// Twin prediction horizon (simulated seconds) when the daemon itself
/// has none.
const DEFAULT_TWIN_HORIZON_SECS: u64 = 7_200;
/// Wall-clock sleep between two loop ticks.
const TICK: WallDuration = WallDuration::from_millis(1);

/// Bounded-retry policy for transient send failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per datagram (first try included) before it is dropped
    /// and counted in `live.retry.exhausted`.
    pub max_attempts: u32,
    /// Backoff floor.
    pub base: WallDuration,
    /// Backoff ceiling.
    pub cap: WallDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: WallDuration::from_micros(500),
            cap: WallDuration::from_millis(20),
        }
    }
}

/// Everything a [`LiveDaemon`] needs to boot. Construct with
/// [`LiveConfig::new`], then override the public fields.
pub struct LiveConfig {
    /// The scenario to host (topology, protocol config, fault plan).
    pub spec: ScenarioSpec,
    /// Canonical description of the run configuration; becomes the
    /// checkpoint meta, so a resume against a checkpoint written under a
    /// different configuration is refused.
    pub fingerprint: String,
    /// Master seed: per-router RNG streams, backoff and loss draws, and
    /// the twin all derive from it.
    pub seed: u64,
    /// Simulated seconds per wall-clock second.
    pub time_scale: f64,
    /// Stop (with a final checkpoint) once the simulated clock reaches
    /// this; [`SimTime::MAX`] runs until interrupted.
    pub horizon: SimTime,
    /// Checkpoint file; `None` disables crash safety.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence, simulated time.
    pub checkpoint_every: Duration,
    /// Per-router ingress queue bound; overflow is shed.
    pub ingress_cap: usize,
    /// Daemon-wide egress queue bound; overflow is shed.
    pub egress_cap: usize,
    /// Send retry policy.
    pub retry: RetryPolicy,
    /// Ceiling on the overload period stretch (a power of two).
    pub stretch_max: u32,
    /// Predict the trajectory with a desim twin and export divergence.
    pub twin: bool,
    /// Per-window |ΔR| above which `live.twin.alarms` fires.
    pub divergence_tolerance: f64,
    /// Where `live.*` metrics go. Hand the installed global collector to
    /// export over an `ObsServer`; a local one for tests.
    pub collector: Collector,
}

impl LiveConfig {
    /// Defaults: 300× time compression, no horizon, no checkpoint, twin
    /// on with a 0.15 tolerance, queues 64/256, stretch ceiling 8.
    pub fn new(spec: ScenarioSpec, fingerprint: impl Into<String>, seed: u64) -> Self {
        LiveConfig {
            spec,
            fingerprint: fingerprint.into(),
            seed,
            time_scale: 300.0,
            horizon: SimTime::MAX,
            checkpoint: None,
            checkpoint_every: Duration::from_secs(300),
            ingress_cap: 64,
            egress_cap: 256,
            retry: RetryPolicy::default(),
            stretch_max: 8,
            twin: true,
            divergence_tolerance: 0.15,
            collector: Collector::disabled(),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The simulated clock reached the horizon.
    Completed,
    /// SIGINT, [`interrupt::request`] or [`LiveDaemon::request_drain`]
    /// drained the daemon early; the final checkpoint supports
    /// resumption.
    Interrupted,
}

/// What a finished run hands back.
pub struct LiveReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Simulated clock at shutdown.
    pub sim_end: SimTime,
    /// Periodic update rounds fired across all routers.
    pub rounds: u64,
    /// Final routing tables by router id.
    pub tables: BTreeMap<NodeId, RoutingTable>,
    /// Final sync-detector state.
    pub detector: DetectorSnapshot,
    /// Worst live-vs-twin |ΔR| (when the twin ran).
    pub max_divergence: Option<f64>,
}

/// One adjacency endpoint: a connected UDP socket towards `peer` over
/// `link`.
struct Iface {
    peer: NodeId,
    link: LinkId,
    /// `None` while the owning router is crashed.
    sock: Option<UdpSocket>,
    local_addr: SocketAddr,
    /// Link admin state (fault plan `LinkDown`/`LinkUp`).
    up: bool,
    /// Simulated instant of the last valid datagram from `peer`.
    last_heard: Option<SimTime>,
    /// Whether the route-timeout liveness check has already fired.
    timed_out: bool,
    /// The last frame successfully handed to the kernel — the retransmit
    /// candidate when the peer's ICMP port-unreachable bounces back.
    last_frame: Option<Vec<u8>>,
    /// Consecutive refusals (bounds the bounce-retransmit loop).
    refusals: u32,
    /// Previous bounce-retransmit delay, for decorrelated growth.
    refusal_backoff_ns: u64,
}

/// One hosted router.
struct LiveRouter {
    id: NodeId,
    table: RoutingTable,
    ifaces: Vec<Iface>,
    /// Per-iface: every router on that iface's link (split-horizon set).
    link_peers: Vec<Vec<NodeId>>,
    /// All directly attached neighbours (hosts included) — the cold-start
    /// route set after a reboot.
    direct: Vec<NodeId>,
    jitter: JitterPolicy,
    rng: MinStd,
    /// Jitter samples drawn so far (burned on resume to re-align the
    /// stream).
    draws: u64,
    seq: u32,
    next_fire: SimTime,
    busy_until: SimTime,
    /// Advertisement-period multiplier under overload (1 = nominal).
    stretch: u32,
    crashed: bool,
    ingress: VecDeque<(NodeId, Advertisement)>,
    /// Ingress datagrams shed since the last overload window.
    sheds_since: u32,
    /// No route or neighbour of this router can time out, and no dead
    /// route is due for collection, before this instant: route aging
    /// skips the router until then.
    age_due: SimTime,
}

/// A datagram awaiting (re)transmission.
struct PendingSend {
    router: usize,
    iface: usize,
    frame: Vec<u8>,
    attempts: u32,
    not_before: Instant,
    prev_backoff_ns: u64,
}

/// `live.*` metric handles.
struct Metrics {
    codec_rx: Counter,
    codec_malformed: Counter,
    tx_datagrams: Counter,
    tx_updates: Counter,
    tx_triggered: Counter,
    tx_errors: Counter,
    retry_attempts: Counter,
    retry_exhausted: Counter,
    shed_ingress: Counter,
    shed_egress: Counter,
    overload_windows: Counter,
    stretch_gauge: Gauge,
    faults_lost: Counter,
    faults_crashes: Counter,
    faults_reboots: Counter,
    neighbor_timeouts: Counter,
    neighbor_recoveries: Counter,
    routes_expired: Counter,
    checkpoint_writes: Counter,
    sim_now: Gauge,
    loop_ticks: Counter,
    loop_ready: Counter,
    age_passes: Counter,
}

impl Metrics {
    fn new(c: &Collector) -> Metrics {
        Metrics {
            codec_rx: c.counter("live.codec.rx"),
            codec_malformed: c.counter("live.codec.malformed"),
            tx_datagrams: c.counter("live.tx.datagrams"),
            tx_updates: c.counter("live.tx.updates"),
            tx_triggered: c.counter("live.tx.triggered"),
            tx_errors: c.counter("live.tx.errors"),
            retry_attempts: c.counter("live.retry.attempts"),
            retry_exhausted: c.counter("live.retry.exhausted"),
            shed_ingress: c.counter("live.shed.ingress"),
            shed_egress: c.counter("live.shed.egress"),
            overload_windows: c.counter("live.overload.windows"),
            stretch_gauge: c.gauge("live.overload.stretch"),
            faults_lost: c.counter("live.faults.lost"),
            faults_crashes: c.counter("live.faults.crashes"),
            faults_reboots: c.counter("live.faults.reboots"),
            neighbor_timeouts: c.counter("live.neighbor.timeouts"),
            neighbor_recoveries: c.counter("live.neighbor.recoveries"),
            routes_expired: c.counter("live.routes.expired"),
            checkpoint_writes: c.counter("live.checkpoint.writes"),
            sim_now: c.gauge("live.sim_now_ns"),
            loop_ticks: c.counter("live.loop.ticks"),
            loop_ready: c.counter("live.loop.ready"),
            age_passes: c.counter("live.age.passes"),
        }
    }
}

/// The daemon itself. [`LiveDaemon::new`] binds sockets, builds (or
/// resumes) protocol state, and runs the twin; [`LiveDaemon::run`] is the
/// event loop.
pub struct LiveDaemon {
    dv: DvConfig,
    cost_per_route: Duration,
    time_scale: f64,
    horizon: SimTime,
    checkpoint_every: Duration,
    ingress_cap: usize,
    egress_cap: usize,
    retry: RetryPolicy,
    stretch_max: u32,
    routers: Vec<LiveRouter>,
    index_of: HashMap<NodeId, usize>,
    egress: VecDeque<PendingSend>,
    backoff: DecorrelatedJitter,
    /// Receiver-side per-link loss: probability and its dedicated stream.
    impair: HashMap<LinkId, (f64, MinStd)>,
    scheduled: Vec<ScheduledFault>,
    next_fault: usize,
    detector: SyncDetector,
    monitor: Option<DivergenceMonitor>,
    writer: Option<Writer>,
    sim_base: SimTime,
    rounds: u64,
    /// Every open adjacency socket, tagged `(router, iface)`.
    poller: Poller<(usize, usize)>,
    /// A socket was opened or closed since `poller` was last filled.
    sockets_changed: bool,
    /// The sockets the last tick's poll found readable.
    ready: Vec<(usize, usize)>,
    /// Receive buffer: one maximal UDP payload.
    rx_buf: Box<[u8]>,
    /// Set by [`LiveDaemon::request_drain`].
    drain_requested: bool,
    m: Metrics,
}

/// Is this send error worth retrying? `ConnectionRefused` is the ICMP
/// port-unreachable bounce from a crashed peer — it recovers when the
/// peer reboots and reconnects.
fn transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::ConnectionRefused
    )
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

impl LiveDaemon {
    /// Build the daemon: construct the scenario (for topology, config and
    /// t = 0 tables), bind and cross-connect one UDP socket per adjacency
    /// direction, run the twin prediction, and — when a checkpoint path
    /// is configured — create or resume the checkpoint. Resuming against
    /// a checkpoint whose meta differs from `cfg.fingerprint` fails with
    /// [`ErrorKind::InvalidInput`].
    pub fn new(cfg: LiveConfig) -> io::Result<LiveDaemon> {
        let scen = cfg.spec.clone().build(cfg.seed);
        let rcfg = *scen.sim.config();
        let dv = rcfg.dv;
        let tp = dv.jitter.tp();
        let topo = scen.sim.topology();
        let router_ids = topo.routers();
        let n = router_ids.len();
        assert!(n >= 2, "a live daemon needs at least two routers");

        // Pass 1: per-router state and bound-but-unconnected sockets.
        let mut routers = Vec::with_capacity(n);
        let mut index_of = HashMap::new();
        let mut registry: HashMap<(NodeId, LinkId, NodeId), SocketAddr> = HashMap::new();
        for &id in &router_ids {
            let mut rng = routesync_rng::stream(cfg.seed, id as u64);
            let jitter = dv.jitter.materialize(&mut rng);
            let mut ifaces = Vec::new();
            let mut link_peers = Vec::new();
            let mut direct = Vec::new();
            for (peer, link) in topo.neighbors_iter(id) {
                direct.push(peer);
                if topo.kind(peer) != NodeKind::Router {
                    continue;
                }
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                sock.set_nonblocking(true)?;
                let local_addr = sock.local_addr()?;
                registry.insert((id, link, peer), local_addr);
                link_peers.push(
                    topo.neighbors_iter(id)
                        .filter(|&(p, l)| l == link && topo.kind(p) == NodeKind::Router)
                        .map(|(p, _)| p)
                        .collect(),
                );
                ifaces.push(Iface {
                    peer,
                    link,
                    sock: Some(sock),
                    local_addr,
                    up: true,
                    last_heard: None,
                    timed_out: false,
                    last_frame: None,
                    refusals: 0,
                    refusal_backoff_ns: 0,
                });
            }
            // First fire: the same phase policy the simulator applies.
            let next_fire = match rcfg.start {
                TimerStart::Synchronized => SimTime::ZERO + tp,
                TimerStart::Unsynchronized => SimTime::ZERO
                    .saturating_add(Duration::from_nanos(dist::below(&mut rng, tp.as_nanos()))),
            };
            index_of.insert(id, routers.len());
            routers.push(LiveRouter {
                id,
                table: scen.sim.table(id).clone(),
                ifaces,
                link_peers,
                direct,
                jitter,
                rng,
                draws: 0,
                seq: 0,
                next_fire,
                busy_until: SimTime::ZERO,
                stretch: 1,
                crashed: false,
                ingress: VecDeque::new(),
                sheds_since: 0,
                age_due: SimTime::ZERO,
            });
        }
        // Pass 2: connect each socket to its peer's matching endpoint.
        for r in &routers {
            for iface in &r.ifaces {
                let peer_addr = registry
                    .get(&(iface.peer, iface.link, r.id))
                    .expect("adjacency sockets come in pairs");
                iface
                    .sock
                    .as_ref()
                    .expect("freshly built iface has a socket")
                    .connect(peer_addr)?;
            }
        }

        let mut impair = HashMap::new();
        for imp in cfg.spec.faults().impairments() {
            impair.insert(
                imp.link,
                (
                    imp.loss,
                    routesync_rng::stream(cfg.seed, LIVE_IMPAIR_STREAM + imp.link as u64),
                ),
            );
        }
        let mut scheduled = cfg.spec.faults().scheduled().to_vec();
        scheduled.sort_by_key(|f| f.at);

        let detector = cfg
            .collector
            .sync_detector("live.sync", DetectorConfig::new(n, tp.as_nanos()));
        let monitor = if cfg.twin {
            let twin_horizon = if cfg.horizon == SimTime::MAX {
                SimTime::from_secs(DEFAULT_TWIN_HORIZON_SECS)
            } else {
                cfg.horizon
            };
            let track = TwinTrack::predict(&cfg.spec, cfg.seed, twin_horizon, n, tp.as_nanos());
            Some(DivergenceMonitor::new(
                track,
                cfg.divergence_tolerance,
                &cfg.collector,
            ))
        } else {
            None
        };

        let mut daemon = LiveDaemon {
            dv,
            cost_per_route: rcfg.cost_per_route,
            time_scale: cfg.time_scale,
            horizon: cfg.horizon,
            checkpoint_every: cfg.checkpoint_every,
            ingress_cap: cfg.ingress_cap,
            egress_cap: cfg.egress_cap,
            retry: cfg.retry,
            stretch_max: cfg.stretch_max,
            routers,
            index_of,
            egress: VecDeque::new(),
            backoff: DecorrelatedJitter::new(
                cfg.retry.base,
                cfg.retry.cap,
                cfg.seed,
                BACKOFF_STREAM,
            ),
            impair,
            scheduled,
            next_fault: 0,
            detector,
            monitor,
            writer: None,
            sim_base: SimTime::ZERO,
            rounds: 0,
            poller: Poller::default(),
            sockets_changed: true,
            ready: Vec::new(),
            rx_buf: vec![0; 65_535].into_boxed_slice(),
            drain_requested: false,
            m: Metrics::new(&cfg.collector),
        };
        if let Some(path) = &cfg.checkpoint {
            let (writer, records) = checkpoint::resume(path, &cfg.fingerprint)?;
            daemon.writer = Some(writer);
            if !records.is_empty() {
                daemon.restore(&records)?;
            }
        }
        Ok(daemon)
    }

    /// The simulated clock the daemon resumed at ([`SimTime::ZERO`] for a
    /// fresh run).
    pub fn resumed_at(&self) -> SimTime {
        self.sim_base
    }

    /// Drain this daemon on its next tick, exactly as SIGINT drains
    /// every daemon in the process.
    pub fn request_drain(&mut self) {
        self.drain_requested = true;
    }

    /// Run to the horizon (or until interrupted), then write the final
    /// checkpoint and report.
    pub fn run(&mut self) -> io::Result<LiveReport> {
        let started = Instant::now();
        let mut next_ckpt = self.sim_base + self.checkpoint_every;
        let mut next_overload = self.sim_base + self.dv.jitter.tp() / 4;
        let mut last_observe = Instant::now();
        let outcome = loop {
            let sim_now = self.sim_base.saturating_add(Duration::from_secs_f64(
                started.elapsed().as_secs_f64() * self.time_scale,
            ));
            if self.drain_requested || interrupt::interrupted() {
                self.record_state(sim_now)?;
                break Outcome::Interrupted;
            }
            if sim_now >= self.horizon {
                // The run ends *at* the horizon: clamp the exported clock
                // so a completed daemon reports exactly its sim_end.
                self.m.sim_now.set(self.horizon.as_nanos());
                self.record_state(self.horizon)?;
                break Outcome::Completed;
            }
            self.m.sim_now.set(sim_now.as_nanos());
            self.m.loop_ticks.add(1);
            self.apply_faults(sim_now);
            self.pump_recv(sim_now);
            self.process_ingress(sim_now);
            self.fire_timers(sim_now);
            self.age_routes(sim_now);
            self.pump_egress();
            if sim_now >= next_overload {
                next_overload = sim_now + self.dv.jitter.tp() / 4;
                self.overload_window();
            }
            if self.writer.is_some() && sim_now >= next_ckpt {
                next_ckpt = sim_now + self.checkpoint_every;
                self.record_state(sim_now)?;
            }
            if self.monitor.is_some() && last_observe.elapsed() >= WallDuration::from_millis(100) {
                last_observe = Instant::now();
                let snap = self.detector.snapshot();
                if let Some(mon) = &mut self.monitor {
                    mon.observe(&snap);
                }
            }
            self.end_tick()?;
        };
        if let Some(mon) = &mut self.monitor {
            mon.observe(&self.detector.snapshot());
        }
        let sim_end = if outcome == Outcome::Completed {
            self.horizon
        } else {
            self.sim_base.saturating_add(Duration::from_secs_f64(
                started.elapsed().as_secs_f64() * self.time_scale,
            ))
        };
        Ok(LiveReport {
            outcome,
            sim_end,
            rounds: self.rounds,
            tables: self
                .routers
                .iter()
                .map(|r| (r.id, r.table.clone()))
                .collect(),
            detector: self.detector.snapshot(),
            max_divergence: self.monitor.as_ref().map(|m| m.max_divergence()),
        })
    }

    /// Apply scheduled faults whose instant has passed.
    fn apply_faults(&mut self, sim_now: SimTime) {
        while self.next_fault < self.scheduled.len()
            && self.scheduled[self.next_fault].at <= sim_now
        {
            let fault = self.scheduled[self.next_fault];
            self.next_fault += 1;
            match fault.action {
                FaultAction::RouterCrash(node) => self.crash(node),
                FaultAction::RouterReboot(node) => self.reboot(node, sim_now),
                FaultAction::LinkDown(link) => self.set_link(link, false, sim_now),
                FaultAction::LinkUp(link) => self.set_link(link, true, sim_now),
            }
        }
    }

    fn crash(&mut self, node: NodeId) {
        let Some(&idx) = self.index_of.get(&node) else {
            return;
        };
        let r = &mut self.routers[idx];
        if r.crashed {
            return;
        }
        r.crashed = true;
        r.table.reset();
        r.ingress.clear();
        for iface in &mut r.ifaces {
            // Dropping the socket closes the port: peers' connected sends
            // start bouncing ECONNREFUSED, driving their retry machinery.
            iface.sock = None;
            iface.last_heard = None;
            iface.timed_out = false;
            iface.last_frame = None;
            iface.refusals = 0;
            iface.refusal_backoff_ns = 0;
        }
        self.egress.retain(|ps| ps.router != idx);
        self.sockets_changed = true;
        self.m.faults_crashes.add(1);
    }

    fn reboot(&mut self, node: NodeId, sim_now: SimTime) {
        let Some(&idx) = self.index_of.get(&node) else {
            return;
        };
        if !self.routers[idx].crashed {
            return;
        }
        // Rebind each adjacency on a fresh port and re-point the peer's
        // connected socket at it.
        for k in 0..self.routers[idx].ifaces.len() {
            let (peer, link) = {
                let iface = &self.routers[idx].ifaces[k];
                (iface.peer, iface.link)
            };
            let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
                continue;
            };
            if sock.set_nonblocking(true).is_err() {
                continue;
            }
            let Ok(local_addr) = sock.local_addr() else {
                continue;
            };
            if let Some(&pidx) = self.index_of.get(&peer) {
                if let Some(piface) = self.routers[pidx]
                    .ifaces
                    .iter()
                    .position(|i| i.peer == node && i.link == link)
                {
                    let peer_iface = &self.routers[pidx].ifaces[piface];
                    let _ = sock.connect(peer_iface.local_addr);
                    if let Some(psock) = &peer_iface.sock {
                        let _ = psock.connect(local_addr);
                    }
                }
            }
            let iface = &mut self.routers[idx].ifaces[k];
            iface.sock = Some(sock);
            iface.local_addr = local_addr;
            iface.last_heard = None;
            iface.timed_out = false;
            iface.last_frame = None;
            iface.refusals = 0;
            iface.refusal_backoff_ns = 0;
        }
        self.sockets_changed = true;
        let r = &mut self.routers[idx];
        r.crashed = false;
        r.busy_until = sim_now;
        r.next_fire = sim_now; // cold start announces on the next tick
                               // Cold start: self route plus directly connected destinations.
        r.table.reset();
        let direct = r.direct.clone();
        for peer in direct {
            r.table.install_direct(peer);
        }
        self.m.faults_reboots.add(1);
        self.send_update(idx, sim_now, true);
    }

    fn set_link(&mut self, link: LinkId, up: bool, sim_now: SimTime) {
        let settle = self.settle_at(sim_now);
        for idx in 0..self.routers.len() {
            let mut changed = false;
            {
                let r = &mut self.routers[idx];
                for k in 0..r.ifaces.len() {
                    if r.ifaces[k].link != link || r.ifaces[k].up == up {
                        continue;
                    }
                    r.ifaces[k].up = up;
                    r.age_due = r.age_due.min(settle);
                    let peer = r.ifaces[k].peer;
                    if up {
                        r.ifaces[k].last_heard = None;
                        r.ifaces[k].timed_out = false;
                        r.table.install_direct(peer);
                        changed = true;
                    } else {
                        changed |= self.dv.infinity > 0
                            && r.table.fail_via_with(
                                peer,
                                self.dv.infinity,
                                sim_now,
                                self.dv.holddown,
                            );
                    }
                }
            }
            if changed && self.dv.triggered_updates && !self.routers[idx].crashed {
                self.send_update(idx, sim_now, true);
            }
        }
    }

    /// The earliest aging deadline a table or liveness change made at
    /// `now` can create: routes and neighbours time out `route_timeout`
    /// after they were last heard, and dead routes are collected
    /// `gc_timeout` after they died.
    fn settle_at(&self, now: SimTime) -> SimTime {
        now.saturating_add(self.dv.route_timeout.min(self.dv.gc_timeout))
    }

    /// End the tick: sleep out [`TICK`], then one `poll(2)` names the
    /// sockets the next tick reads. Waking on readability instead would
    /// run a tick, and a poll over every socket, per datagram burst.
    fn end_tick(&mut self) -> io::Result<()> {
        std::thread::sleep(TICK);
        if self.sockets_changed {
            self.sockets_changed = false;
            self.poller.clear();
            for (ridx, r) in self.routers.iter().enumerate() {
                for (k, iface) in r.ifaces.iter().enumerate() {
                    if let Some(sock) = &iface.sock {
                        self.poller.register(sock, (ridx, k));
                    }
                }
            }
        }
        self.ready.clear();
        self.poller.wait(WallDuration::ZERO, &mut self.ready)?;
        self.m.loop_ready.add(self.ready.len() as u64);
        Ok(())
    }

    /// Drain the sockets the last poll found readable into the bounded
    /// ingress queues.
    fn pump_recv(&mut self, sim_now: SimTime) {
        let ingress_cap = self.ingress_cap;
        let egress_cap = self.egress_cap;
        let max_attempts = self.retry.max_attempts;
        let settle = self.settle_at(sim_now);
        let LiveDaemon {
            routers,
            impair,
            m,
            egress,
            backoff,
            ready,
            rx_buf,
            ..
        } = self;
        for &(ridx, k) in ready.iter() {
            let LiveRouter {
                ifaces,
                crashed,
                ingress,
                sheds_since,
                age_due,
                ..
            } = &mut routers[ridx];
            let iface = &mut ifaces[k];
            let Some(sock) = &iface.sock else { continue };
            loop {
                match sock.recv(rx_buf) {
                    Ok(len) => {
                        m.codec_rx.add(1);
                        if !iface.up {
                            continue;
                        }
                        if let Some((p, rng)) = impair.get_mut(&iface.link) {
                            // Receiver-side loss: the wall-clock
                            // stand-in for the simulator's on-link
                            // impairment draw.
                            if dist::unit_f64(rng) < *p {
                                m.faults_lost.add(1);
                                continue;
                            }
                        }
                        match Advertisement::decode(&rx_buf[..len]) {
                            Ok(adv) if adv.sender == iface.peer => {
                                if iface.timed_out {
                                    iface.timed_out = false;
                                    m.neighbor_recoveries.add(1);
                                }
                                iface.last_heard = Some(sim_now);
                                *age_due = (*age_due).min(settle);
                                iface.refusals = 0;
                                iface.refusal_backoff_ns = 0;
                                if *crashed {
                                    continue;
                                }
                                if ingress.len() >= ingress_cap {
                                    *sheds_since += 1;
                                    m.shed_ingress.add(1);
                                } else {
                                    ingress.push_back((adv.sender, adv));
                                }
                            }
                            // A frame that decodes but claims the
                            // wrong sender is as untrustworthy as a
                            // bad checksum.
                            Ok(_) | Err(_) => m.codec_malformed.add(1),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                        // The asynchronous ICMP port-unreachable
                        // bounce from our own earlier send: the peer's
                        // port is closed (crashed, not yet rebooted).
                        // Retransmit the refused frame with backoff,
                        // bounded like any other transient failure.
                        iface.refusals += 1;
                        if iface.refusals >= max_attempts {
                            m.retry_exhausted.add(1);
                            iface.refusals = 0;
                            iface.refusal_backoff_ns = 0;
                        } else if let Some(frame) = iface.last_frame.clone() {
                            if egress.len() >= egress_cap {
                                m.shed_egress.add(1);
                            } else {
                                m.retry_attempts.add(1);
                                let delay = backoff.next_delay_ns(iface.refusal_backoff_ns);
                                iface.refusal_backoff_ns = delay;
                                egress.push_back(PendingSend {
                                    router: ridx,
                                    iface: k,
                                    frame,
                                    attempts: iface.refusals,
                                    not_before: Instant::now() + WallDuration::from_nanos(delay),
                                    prev_backoff_ns: delay,
                                });
                            }
                        }
                        continue;
                    }
                    Err(_) => break,
                }
            }
        }
    }

    /// Process queued updates while each router's simulated CPU is free;
    /// what stays queued is the backlog that overload shedding watches.
    fn process_ingress(&mut self, sim_now: SimTime) {
        let settle = self.settle_at(sim_now);
        for idx in 0..self.routers.len() {
            loop {
                let r = &mut self.routers[idx];
                if r.crashed || r.busy_until > sim_now {
                    break;
                }
                let Some((from, adv)) = r.ingress.pop_front() else {
                    break;
                };
                let cost = self
                    .cost_per_route
                    .saturating_mul((adv.entries.len() + self.dv.advertise_pad) as u64);
                r.busy_until = std::cmp::max(r.busy_until, sim_now) + cost;
                let merged = r.table.process_update_with(
                    from,
                    &adv.entries,
                    sim_now,
                    self.dv.infinity,
                    self.dv.holddown,
                );
                r.age_due = r.age_due.min(settle);
                if merged.changed && self.dv.triggered_updates {
                    self.send_update(idx, sim_now, true);
                }
            }
        }
    }

    /// Fire due periodic update timers.
    fn fire_timers(&mut self, sim_now: SimTime) {
        for idx in 0..self.routers.len() {
            while !self.routers[idx].crashed && self.routers[idx].next_fire <= sim_now {
                let fire_t = self.routers[idx].next_fire;
                // The detector is fed the *scheduled* instant, not the
                // wall-derived loop tick, so phase noise from OS
                // scheduling never pollutes R(t).
                self.detector.on_send(fire_t.as_nanos());
                self.rounds += 1;
                self.m.tx_updates.add(1);
                self.send_update(idx, fire_t, false);
                let r = &mut self.routers[idx];
                let own = self
                    .cost_per_route
                    .saturating_mul((r.table.len() + self.dv.advertise_pad) as u64);
                r.busy_until = std::cmp::max(r.busy_until, fire_t) + own;
                let interval = r.jitter.sample(&mut r.rng).saturating_mul(r.stretch as u64);
                r.draws += 1;
                r.next_fire = match self.dv.reset_policy {
                    // The paper's coupling: re-arm only once processing
                    // is done.
                    TimerResetPolicy::AfterProcessing => r.busy_until + interval,
                    TimerResetPolicy::OnExpiry => fire_t + interval,
                };
            }
        }
    }

    /// Encode the router's current advertisement for every up interface
    /// and queue the frames. `triggered` marks the cause for metrics.
    fn send_update(&mut self, idx: usize, sim_now: SimTime, triggered: bool) {
        let _ = sim_now;
        if triggered {
            self.m.tx_triggered.add(1);
        }
        let r = &mut self.routers[idx];
        r.seq = r.seq.wrapping_add(1);
        let mut adv = Advertisement {
            sender: r.id,
            seq: r.seq,
            delta: false,
            entries: Vec::new(),
        };
        let mut frames = Vec::new();
        for (k, iface) in r.ifaces.iter().enumerate() {
            if !iface.up || iface.sock.is_none() {
                continue;
            }
            adv.entries.clear();
            r.table.advertisement_into(
                &r.link_peers[k],
                self.dv.split_horizon,
                self.dv.infinity,
                &mut adv.entries,
            );
            frames.push((k, adv.encode()));
        }
        for (k, frame) in frames {
            if self.egress.len() >= self.egress_cap {
                self.m.shed_egress.add(1);
                self.routers[idx].sheds_since += 1;
                continue;
            }
            self.egress.push_back(PendingSend {
                router: idx,
                iface: k,
                frame,
                attempts: 0,
                not_before: Instant::now(),
                prev_backoff_ns: 0,
            });
        }
    }

    /// Route aging: per-neighbour liveness via the protocol's route
    /// timeout, table expiry, and garbage collection — for the routers
    /// whose next deadline (`age_due`) has come. Before it every check
    /// would be a no-op.
    fn age_routes(&mut self, sim_now: SimTime) {
        for idx in 0..self.routers.len() {
            let mut changed = false;
            {
                let r = &mut self.routers[idx];
                if r.crashed || r.age_due > sim_now {
                    continue;
                }
                self.m.age_passes.add(1);
                let mut due = SimTime::MAX;
                for iface in &mut r.ifaces {
                    if !iface.up || iface.timed_out {
                        continue;
                    }
                    let Some(heard) = iface.last_heard else {
                        continue;
                    };
                    if sim_now.since(heard) > self.dv.route_timeout {
                        iface.timed_out = true;
                        self.m.neighbor_timeouts.add(1);
                        changed |= r.table.fail_via_with(
                            iface.peer,
                            self.dv.infinity,
                            sim_now,
                            self.dv.holddown,
                        );
                    } else {
                        // Silent for longer than the timeout: one
                        // nanosecond past it.
                        let dead_at = heard
                            .saturating_add(self.dv.route_timeout)
                            .saturating_add(Duration::from_nanos(1));
                        due = due.min(dead_at);
                    }
                }
                if r.table
                    .expire(sim_now, self.dv.route_timeout, self.dv.infinity)
                {
                    self.m.routes_expired.add(1);
                    changed = true;
                }
                r.table
                    .gc_due(sim_now, self.dv.gc_timeout, self.dv.infinity);
                r.age_due = due.min(r.table.next_expiry(
                    self.dv.route_timeout,
                    self.dv.gc_timeout,
                    self.dv.infinity,
                ));
            }
            if changed && self.dv.triggered_updates {
                self.send_update(idx, sim_now, true);
            }
        }
    }

    /// Transmit due egress frames; transient errors re-queue with
    /// decorrelated-jitter backoff until the attempt budget runs out.
    fn pump_egress(&mut self) {
        let now = Instant::now();
        for _ in 0..self.egress.len() {
            let Some(mut ps) = self.egress.pop_front() else {
                break;
            };
            if ps.not_before > now {
                self.egress.push_back(ps);
                continue;
            }
            let r = &mut self.routers[ps.router];
            if r.crashed || !r.ifaces[ps.iface].up {
                continue;
            }
            let iface = &mut r.ifaces[ps.iface];
            let Some(sock) = &iface.sock else {
                continue;
            };
            match sock.send(&ps.frame) {
                Ok(_) => {
                    self.m.tx_datagrams.add(1);
                    // Keep the frame: it is the retransmit candidate if
                    // the peer's ICMP bounce arrives on the recv path.
                    iface.last_frame = Some(ps.frame);
                }
                Err(e) if transient(e.kind()) => {
                    ps.attempts += 1;
                    if ps.attempts >= self.retry.max_attempts {
                        self.m.retry_exhausted.add(1);
                    } else {
                        self.m.retry_attempts.add(1);
                        ps.prev_backoff_ns = self.backoff.next_delay_ns(ps.prev_backoff_ns);
                        ps.not_before = now + WallDuration::from_nanos(ps.prev_backoff_ns);
                        self.egress.push_back(ps);
                    }
                }
                Err(_) => self.m.tx_errors.add(1),
            }
        }
    }

    /// Overload control, evaluated every quarter period: sustained
    /// shedding doubles a router's advertisement period (graceful
    /// degradation — fewer, later updates beat dropped ones); a drained
    /// backlog halves it back toward nominal.
    fn overload_window(&mut self) {
        let mut max_stretch = 1;
        for r in &mut self.routers {
            if r.sheds_since > 0 {
                if r.stretch < self.stretch_max {
                    r.stretch = (r.stretch * 2).min(self.stretch_max);
                }
                self.m.overload_windows.add(1);
            } else if r.ingress.is_empty() && r.stretch > 1 {
                r.stretch /= 2;
            }
            r.sheds_since = 0;
            max_stretch = max_stretch.max(r.stretch);
        }
        self.m.stretch_gauge.set(max_stretch as u64);
    }

    /// Append the full protocol state to the checkpoint and fsync.
    /// Later records supersede earlier ones at load time, so each call is
    /// a complete, self-contained snapshot.
    fn record_state(&mut self, sim_now: SimTime) -> io::Result<()> {
        let det = self.detector.snapshot();
        let Some(w) = &mut self.writer else {
            return Ok(());
        };
        w.append("sim_ns", &sim_now.as_nanos().to_string())?;
        w.append("faults_applied", &self.next_fault.to_string())?;
        w.append("rounds", &self.rounds.to_string())?;
        w.append(
            "detector",
            &format!(
                "windows={};onset_ns={}",
                det.windows,
                det.onset_t_ns
                    .map_or_else(|| "none".to_string(), |v| v.to_string())
            ),
        )?;
        for r in &self.routers {
            let table_json = serde_json::to_string(&r.table)
                .map_err(|e| invalid_data(format!("table serialization failed: {e}")))?;
            w.append(&format!("router.{}.table", r.id), &table_json)?;
            let heard: Vec<String> = r
                .ifaces
                .iter()
                .map(|i| {
                    i.last_heard
                        .map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string())
                })
                .collect();
            let tout: String = r
                .ifaces
                .iter()
                .map(|i| if i.timed_out { '1' } else { '0' })
                .collect();
            let up: String = r
                .ifaces
                .iter()
                .map(|i| if i.up { '1' } else { '0' })
                .collect();
            w.append(
                &format!("router.{}.state", r.id),
                &format!(
                    "seq={};draws={};next_ns={};busy_ns={};stretch={};crashed={};heard={};tout={};up={}",
                    r.seq,
                    r.draws,
                    r.next_fire.as_nanos(),
                    r.busy_until.as_nanos(),
                    r.stretch,
                    u8::from(r.crashed),
                    heard.join("|"),
                    tout,
                    up,
                ),
            )?;
        }
        w.sync()?;
        self.m.checkpoint_writes.add(1);
        Ok(())
    }

    /// Rebuild protocol state from checkpoint records (freshly
    /// constructed sockets stay as they are; a crashed router's are
    /// dropped again).
    fn restore(&mut self, records: &BTreeMap<String, String>) -> io::Result<()> {
        let parse_u64 = |key: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| invalid_data(format!("checkpoint record '{key}' is not a number")))
        };
        if let Some(v) = records.get("sim_ns") {
            self.sim_base =
                SimTime::ZERO.saturating_add(Duration::from_nanos(parse_u64("sim_ns", v)?));
        }
        if let Some(v) = records.get("faults_applied") {
            self.next_fault = (parse_u64("faults_applied", v)? as usize).min(self.scheduled.len());
        }
        if let Some(v) = records.get("rounds") {
            self.rounds = parse_u64("rounds", v)?;
        }
        if let Some(v) = records.get("detector") {
            let kv = parse_kv(v);
            let windows = kv
                .get("windows")
                .map(|s| parse_u64("detector.windows", s))
                .transpose()?
                .unwrap_or(0);
            let onset = match kv.get("onset_ns").copied() {
                None | Some("none") => None,
                Some(s) => Some(parse_u64("detector.onset_ns", s)?),
            };
            self.detector.restore(windows, onset);
        }
        for idx in 0..self.routers.len() {
            let id = self.routers[idx].id;
            if let Some(tj) = records.get(&format!("router.{id}.table")) {
                self.routers[idx].table = serde_json::from_str(tj)
                    .map_err(|e| invalid_data(format!("router {id} table corrupt: {e}")))?;
            }
            let Some(st) = records.get(&format!("router.{id}.state")) else {
                continue;
            };
            let kv = parse_kv(st);
            let r = &mut self.routers[idx];
            if let Some(v) = kv.get("seq") {
                r.seq = parse_u64("seq", v)? as u32;
            }
            if let Some(v) = kv.get("draws") {
                r.draws = parse_u64("draws", v)?;
                // Replay the jitter stream to where the checkpoint left
                // it: the constructor's draws (materialize, initial
                // phase) already happened identically, so burning `draws`
                // samples re-aligns the stream exactly.
                for _ in 0..r.draws {
                    r.jitter.sample(&mut r.rng);
                }
            }
            if let Some(v) = kv.get("next_ns") {
                r.next_fire =
                    SimTime::ZERO.saturating_add(Duration::from_nanos(parse_u64("next_ns", v)?));
            }
            if let Some(v) = kv.get("busy_ns") {
                r.busy_until =
                    SimTime::ZERO.saturating_add(Duration::from_nanos(parse_u64("busy_ns", v)?));
            }
            if let Some(v) = kv.get("stretch") {
                r.stretch = (parse_u64("stretch", v)? as u32).clamp(1, self.stretch_max.max(1));
            }
            let crashed = kv.get("crashed").copied() == Some("1");
            if let Some(v) = kv.get("heard") {
                for (i, part) in v.split('|').enumerate() {
                    if i >= r.ifaces.len() {
                        break;
                    }
                    r.ifaces[i].last_heard = if part == "-" {
                        None
                    } else {
                        Some(
                            SimTime::ZERO
                                .saturating_add(Duration::from_nanos(parse_u64("heard", part)?)),
                        )
                    };
                }
            }
            if let Some(v) = kv.get("tout") {
                for (i, ch) in v.chars().enumerate() {
                    if i < r.ifaces.len() {
                        r.ifaces[i].timed_out = ch == '1';
                    }
                }
            }
            if let Some(v) = kv.get("up") {
                for (i, ch) in v.chars().enumerate() {
                    if i < r.ifaces.len() {
                        r.ifaces[i].up = ch == '1';
                    }
                }
            }
            if crashed {
                // Re-applying the crash drops the freshly bound sockets,
                // exactly as they were at checkpoint time (the counter
                // increment is harmless on a resumed fact).
                self.crash(id);
            }
        }
        Ok(())
    }
}

/// Parse `k=v;k=v` checkpoint record bodies.
fn parse_kv(s: &str) -> HashMap<&str, &str> {
    s.split(';')
        .filter_map(|part| part.split_once('='))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg(name: &str, seed: u64) -> LiveConfig {
        // Two LAN routers, tiny jitter, heavy time compression: a 120 s
        // protocol period elapses in ~0.2 wall seconds.
        let spec = ScenarioSpec::lan(2, Duration::from_millis(50));
        let mut cfg = LiveConfig::new(spec, format!("test-{name}"), seed);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(700);
        cfg.twin = false;
        cfg.collector = Collector::enabled();
        cfg
    }

    #[test]
    fn two_routers_converge_over_real_sockets() {
        let mut cfg = fast_cfg("converge", 11);
        cfg.collector = Collector::enabled();
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes");
        assert_eq!(report.outcome, Outcome::Completed);
        assert!(report.rounds >= 8, "only {} rounds fired", report.rounds);
        // Each router routes to the other at metric 1 (directly attached).
        for (&id, table) in &report.tables {
            let other = 1 - id;
            assert_eq!(table.lookup(other, 16), Some(other), "router {id}");
        }
        let snap = collector.snapshot();
        assert!(snap.counters["live.tx.datagrams"] >= 8);
        assert!(snap.counters["live.codec.rx"] >= 8);
        assert_eq!(snap.counters["live.codec.malformed"], 0);
        assert!(report.detector.windows >= 4);
    }

    #[test]
    fn loop_work_follows_traffic_and_deadlines() {
        let cfg = fast_cfg("loop", 17);
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        d.run().expect("run completes");
        let c = collector.snapshot().counters;
        let ticks = c["live.loop.ticks"];
        assert!(ticks >= 100, "only {ticks} ticks in ~1.2 wall seconds");
        // Aging every tick would be 2 passes per tick; deadlines come
        // round about once per route settle time (120 s simulated).
        let passes = c["live.age.passes"];
        assert!(passes >= 2, "routers never aged");
        assert!(passes * 4 < ticks, "{passes} aging passes in {ticks} ticks");
        // Sockets are read when the poll reports them, not every tick.
        let ready = c["live.loop.ready"];
        assert!(ready >= 1 && ready <= c["live.codec.rx"] + c["live.retry.attempts"]);
    }

    #[test]
    fn a_silent_neighbor_times_out_on_its_deadline() {
        use routesync_netsim::FaultPlan;
        // Router 1 speaks at ~120 s, then dies for good. A zero-slot
        // ingress queue sheds every advertisement, so router 0's table
        // holds no route with a timeout: only the neighbour's own
        // liveness deadline, one route timeout (360 s) after it was last
        // heard, can declare it dead.
        let plan = FaultPlan::new().crash_at(1, SimTime::from_secs(130));
        let spec = ScenarioSpec::lan(2, Duration::from_millis(50)).with_faults(plan);
        let mut cfg = LiveConfig::new(spec, "test-silent", 9);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(700);
        cfg.ingress_cap = 0;
        cfg.twin = false;
        cfg.collector = Collector::enabled();
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes");
        assert_eq!(collector.snapshot().counters["live.neighbor.timeouts"], 1);
        assert_eq!(report.tables[&0].lookup(1, 16), None);
    }

    #[test]
    fn twin_divergence_stays_small_on_the_same_spec() {
        let mut cfg = fast_cfg("twin", 23);
        cfg.twin = true;
        cfg.divergence_tolerance = 0.25;
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes");
        let max = report.max_divergence.expect("twin ran");
        assert!(
            max < 0.25,
            "live diverged from the twin by {max} on an identical spec"
        );
        assert_eq!(collector.snapshot().counters["live.twin.alarms"], 0);
    }

    #[test]
    fn overload_sheds_and_stretches_then_recovers() {
        let mut cfg = fast_cfg("overload", 31);
        cfg.ingress_cap = 0; // every arrival overflows: sustained overload
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes despite shedding");
        assert_eq!(report.outcome, Outcome::Completed);
        let snap = collector.snapshot();
        // With a zero-slot queue every arrival is shed, the stretch must
        // have engaged, and the daemon must still have finished (no
        // deadlock, no panic).
        assert!(snap.counters["live.shed.ingress"] > 0);
        assert!(snap.counters["live.overload.windows"] > 0);
        // Recovery: by the end the backlog is drained and stretch decayed.
        assert!(snap.gauges["live.overload.stretch"] <= 8);
    }

    #[test]
    fn checkpoint_round_trip_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("live-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);

        let mut cfg = fast_cfg("ckpt", 47);
        cfg.checkpoint = Some(path.clone());
        cfg.checkpoint_every = Duration::from_secs(120);
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes");
        assert_eq!(report.outcome, Outcome::Completed);
        drop(d);

        // Resume with the same fingerprint: tables reload and re-serialize
        // to exactly the stored bytes.
        let loaded = checkpoint::load(&path).expect("checkpoint loads");
        let records: BTreeMap<String, String> = loaded.records.into_iter().collect();
        assert!(records.contains_key("sim_ns"));
        for (key, value) in &records {
            let Some(rest) = key.strip_prefix("router.") else {
                continue;
            };
            if !rest.ends_with(".table") {
                continue;
            }
            let table: RoutingTable = serde_json::from_str(value).expect("table parses");
            let re = serde_json::to_string(&table).expect("re-serializes");
            assert_eq!(&re, value, "{key} must round-trip byte-identically");
        }

        let mut cfg2 = fast_cfg("ckpt", 47);
        cfg2.checkpoint = Some(path.clone());
        let d2 = LiveDaemon::new(cfg2).expect("resume succeeds");
        assert_eq!(
            d2.resumed_at(),
            SimTime::from_secs(700),
            "resumes at horizon"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_fingerprint_is_refused_with_invalid_input() {
        let dir = std::env::temp_dir().join(format!("live-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut cfg = fast_cfg("meta-a", 5);
        cfg.horizon = SimTime::from_secs(130);
        cfg.checkpoint = Some(path.clone());
        LiveDaemon::new(cfg)
            .expect("daemon boots")
            .run()
            .expect("short run completes");

        let mut other = fast_cfg("meta-b", 5);
        other.checkpoint = Some(path.clone());
        let err = match LiveDaemon::new(other) {
            Err(e) => e,
            Ok(_) => panic!("mismatched spec must refuse"),
        };
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupt_drains_with_a_final_checkpoint() {
        let dir = std::env::temp_dir().join(format!("live-int-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interrupt.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut cfg = fast_cfg("interrupt", 13);
        cfg.horizon = SimTime::MAX;
        cfg.checkpoint = Some(path.clone());
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        // Not the process-wide SIGINT flag: it would drain every other
        // daemon this test binary runs concurrently.
        d.request_drain();
        let report = d.run().expect("drains cleanly");
        assert_eq!(report.outcome, Outcome::Interrupted);
        assert!(checkpoint::load(&path).is_ok(), "final checkpoint valid");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_and_reboot_drive_retries_and_recovery() {
        use routesync_netsim::FaultPlan;
        let plan = FaultPlan::new()
            .crash_at(1, SimTime::from_secs(150))
            .reboot_at(1, SimTime::from_secs(400));
        let spec = ScenarioSpec::lan(2, Duration::from_millis(50)).with_faults(plan);
        let mut cfg = LiveConfig::new(spec, "test-crash", 3);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(1_200);
        cfg.twin = false;
        cfg.collector = Collector::enabled();
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes");
        assert_eq!(report.outcome, Outcome::Completed);
        let snap = collector.snapshot();
        assert_eq!(snap.counters["live.faults.crashes"], 1);
        assert_eq!(snap.counters["live.faults.reboots"], 1);
        // Sends into the closed port bounced ECONNREFUSED → real retries.
        assert!(
            snap.counters["live.retry.attempts"] > 0,
            "no retries despite a crashed peer: {:?}",
            snap.counters
        );
        // After the reboot the pair re-converges.
        for (&id, table) in &report.tables {
            let other = 1 - id;
            assert_eq!(table.lookup(other, 16), Some(other), "router {id}");
        }
    }
}
