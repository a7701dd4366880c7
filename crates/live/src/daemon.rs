//! The live daemon: N in-process distance-vector routers over real UDP.
//!
//! [`LiveDaemon`] hosts every router of a [`ScenarioSpec`] in one
//! single-threaded event loop. Each router's protocol is
//! [`routesync_netsim::Router`], the state machine `NetSim` drives too:
//! the daemon maps its outputs to UDP frames and to two deadlines per
//! router, its periodic timer and the instant its control CPU frees.
//! Adjacencies are *connected* nonblocking `UdpSocket`s on loopback, one
//! per (router, peer, link) direction, so a crashed peer's closed port
//! bounces `ECONNREFUSED` back and exercises the genuine retry path.
//!
//! The loop runs in wall-clock time, but protocol state advances on a
//! *simulated* clock (`sim_now = base + time_scale × wall_elapsed`). That
//! lets the desim twin (same spec, same seed) predict the live trajectory,
//! and a 90-second period elapse in a fraction of a wall second.
//!
//! Robustness layers, inside-out:
//!
//! * **codec** — every datagram is framed by [`Advertisement`]
//!   (versioned, CRC-32); malformed input is counted and dropped.
//! * **retry/backoff** — transient send failures re-queue with
//!   decorrelated-jitter delays ([`crate::backoff`]), bounded by
//!   [`RetryPolicy::max_attempts`].
//! * **overload shedding** — each router's backlog (queued updates plus
//!   those its CPU is still working through) is bounded; overflow is
//!   shed, and sustained shedding stretches the router's period by
//!   powers of two up to [`LiveConfig::stretch_max`].
//! * **liveness** — a neighbour silent for longer than the route timeout
//!   is reported down to its router; its next datagram reports it up.
//! * **checkpoints** — CRC-framed key-value checkpoints
//!   (`routesync_exec::checkpoint`) carry the full protocol state, and a
//!   restarted daemon resumes byte-identically. A checkpoint written under
//!   a different run configuration is refused (`ErrorKind::InvalidInput`,
//!   CLI exit 2).
//! * **twin divergence** — the live R(t) trajectory is compared
//!   window-by-window against the desim prediction ([`crate::twin`]).
//!
//! Metrics are under `live.`; `docs/OBSERVABILITY.md` lists every row.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration as WallDuration, Instant};

use routesync_desim::{Duration, SimTime};
use routesync_exec::checkpoint::{self, Writer};
use routesync_exec::interrupt;
use routesync_netsim::{
    Advertisement, Control, Emission, Env, FaultAction, FaultPlan, Interfaces, Io, LinkId, NetSim,
    NodeId, NodeKind, Output, Router, RouterConfig, RoutingTable, ScenarioSpec, ScheduledFault,
    Topology,
};
use routesync_obs::{Collector, Counter, DetectorConfig, DetectorSnapshot, Gauge, SyncDetector};
use routesync_rng::{dist, MinStd};
use serde::{Deserialize, Serialize};

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
    /// Per-router backlog bound (updates queued or still on the CPU);
    /// overflow is shed.
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
    /// Where `live.*` metrics go: the collector an `ObsServer` exports,
    /// or a local one for tests.
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
/// `link`. Its index in the router's `ifaces` is the core's interface
/// number.
struct Iface {
    peer: NodeId,
    link: LinkId,
    /// `None` while the owning router is crashed.
    sock: Option<UdpSocket>,
    local_addr: SocketAddr,
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

impl Iface {
    /// Forget the peer's liveness and the retransmit state.
    fn reset(&mut self) {
        self.last_heard = None;
        self.timed_out = false;
        self.last_frame = None;
        self.refusals = 0;
        self.refusal_backoff_ns = 0;
    }
}

/// One hosted router: the protocol core plus what only the daemon needs.
struct LiveRouter {
    id: NodeId,
    core: Router,
    ifaces: Vec<Iface>,
    /// Wire sequence number of the last update sent.
    seq: u32,
    /// When the periodic timer fires ([`SimTime::MAX`]: not armed).
    next_fire: SimTime,
    /// When the control CPU frees ([`SimTime::MAX`]: idle).
    cpu_free: SimTime,
    /// Advertisement-period multiplier under overload (1 = nominal).
    stretch: u32,
    crashed: bool,
    /// Valid updates, each flagged when it is the first from a
    /// neighbour that had timed out.
    ingress: VecDeque<(Advertisement, bool)>,
    /// When the CPU finishes each update it has taken but not yet
    /// worked through, in order. With `ingress`, bounded by the ingress
    /// cap.
    backlog: VecDeque<SimTime>,
    /// Ingress datagrams shed since the last overload window.
    sheds_since: u32,
    /// No neighbour can time out before this instant: the liveness
    /// check skips the router until then.
    live_due: SimTime,
}

/// A hosted router's checkpointed state, beside its table.
#[derive(Serialize, Deserialize)]
struct RouterRecord {
    control: Control,
    seq: u32,
    next_fire: SimTime,
    cpu_free: SimTime,
    stretch: u32,
    crashed: bool,
    backlog: Vec<SimTime>,
    /// Per interface: last heard, timed out.
    liveness: Vec<(Option<SimTime>, bool)>,
}

/// A hosted router's interfaces, as its [`Router`] sees them.
struct Ports<'a> {
    me: NodeId,
    ifaces: &'a [Iface],
    topo: &'a Topology,
    link_up: &'a [bool],
}

impl Interfaces for Ports<'_> {
    fn count(&self) -> usize {
        self.ifaces.len()
    }

    fn up(&self, i: usize) -> bool {
        self.link_up[self.ifaces[i].link]
    }

    fn peers_into(&self, i: usize, out: &mut Vec<NodeId>) {
        let nodes = self.topo.link(self.ifaces[i].link).nodes;
        out.extend(nodes.iter().copied().filter(|&m| m != self.me));
    }
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
    checkpoint_writes: Counter,
    sim_now: Gauge,
    loop_ticks: Counter,
    loop_ready: Counter,
    age_passes: Counter,
    stage_advance: Counter,
    stage_recv: Counter,
    stage_process: Counter,
    stage_liveness: Counter,
    stage_send: Counter,
    stage_wait: Counter,
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
            checkpoint_writes: c.counter("live.checkpoint.writes"),
            sim_now: c.gauge("live.sim_now_ns"),
            loop_ticks: c.counter("live.loop.ticks"),
            loop_ready: c.counter("live.loop.ready"),
            age_passes: c.counter("live.age.passes"),
            stage_advance: c.counter("live.stage.advance_ns"),
            stage_recv: c.counter("live.stage.recv_ns"),
            stage_process: c.counter("live.stage.process_ns"),
            stage_liveness: c.counter("live.stage.liveness_ns"),
            stage_send: c.counter("live.stage.send_ns"),
            stage_wait: c.counter("live.stage.wait_ns"),
        }
    }
}

/// The daemon itself. [`LiveDaemon::new`] binds sockets, builds (or
/// resumes) protocol state, and runs the twin; [`LiveDaemon::run`] is the
/// event loop.
pub struct LiveDaemon {
    rcfg: RouterConfig,
    topo: Topology,
    /// Per link: up, as the fault plan left it.
    link_up: Vec<bool>,
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
    /// The sockets the last tick's wait found readable.
    ready: Vec<(usize, usize)>,
    /// Receive buffer: one maximal UDP payload.
    rx_buf: Box<[u8]>,
    /// The routers' outputs and advertisement scratch.
    io: Io,
    /// Reusable neighbour list.
    scratch: Vec<NodeId>,
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

/// A nonblocking loopback socket on a fresh port.
fn bind() -> io::Result<(UdpSocket, SocketAddr)> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_nonblocking(true)?;
    let addr = sock.local_addr()?;
    Ok((sock, addr))
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Refuse a scenario the daemon would not run as its twin predicts:
/// features whose inputs have no live counterpart.
fn replayable(sim: &NetSim, plan: &FaultPlan) -> io::Result<()> {
    let refused = if sim.config().dv.hello.is_some() {
        Some("dv.hello (the wire has no hello frame)")
    } else if sim.area_model().is_some() {
        Some("an area model")
    } else if !plan.link_flaps().is_empty() || !plan.router_flaps().is_empty() {
        Some("link or router flap profiles")
    } else if plan.impairments().iter().any(|i| i.reorder > 0.0) {
        Some("reorder impairments")
    } else {
        None
    };
    match refused {
        Some(what) => Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("the live daemon cannot replay {what}"),
        )),
        None => Ok(()),
    }
}

/// The instant a neighbour last heard at `heard` has been silent for
/// longer than `timeout`: one nanosecond past it.
fn silent_after(heard: SimTime, timeout: Duration) -> SimTime {
    heard
        .saturating_add(timeout)
        .saturating_add(Duration::from_nanos(1))
}

/// Add the wall time since `mark` to the stage counter, and move `mark`
/// to now: one clock read per stage boundary.
fn lap(stage: &Counter, mark: &mut Instant) {
    let now = Instant::now();
    stage.add(now.duration_since(*mark).as_nanos() as u64);
    *mark = now;
}

/// Forget the backlog entries the CPU has worked through by `now`.
fn drain_done(backlog: &mut VecDeque<SimTime>, now: SimTime) {
    while backlog.front().is_some_and(|&done| done <= now) {
        backlog.pop_front();
    }
}

/// Parse the `detector` record: `windows=N;onset_ns=N|none`.
fn parse_detector(v: &str) -> Option<(u64, Option<u64>)> {
    let (windows, onset) = v.split_once(';')?;
    let windows = windows.strip_prefix("windows=")?.parse().ok()?;
    let onset = match onset.strip_prefix("onset_ns=")? {
        "none" => None,
        ns => Some(ns.parse().ok()?),
    };
    Some((windows, onset))
}

impl LiveDaemon {
    /// Build the daemon: construct the scenario (for topology, config and
    /// t = 0 tables), bind and cross-connect one UDP socket per adjacency
    /// direction, run the twin prediction, and — when a checkpoint path
    /// is configured — create or resume the checkpoint. A scenario using
    /// a feature the daemon cannot replay (hellos, areas, flap profiles,
    /// reordering), or a checkpoint whose meta differs from
    /// `cfg.fingerprint`, fails with [`ErrorKind::InvalidInput`].
    pub fn new(cfg: LiveConfig) -> io::Result<LiveDaemon> {
        let scen = cfg.spec.clone().build(cfg.seed);
        replayable(&scen.sim, cfg.spec.faults())?;
        let rcfg = *scen.sim.config();
        let tp = rcfg.dv.jitter.tp();
        let topo = scen.sim.topology().clone();
        let router_ids = topo.routers();
        let n = router_ids.len();
        assert!(n >= 2, "a live daemon needs at least two routers");

        // Pass 1: per-router state and bound-but-unconnected sockets.
        // Each core starts from the simulator's t = 0 table and the same
        // per-router random stream, so its jitter draws are the twin's.
        let mut routers = Vec::with_capacity(n);
        let mut index_of = HashMap::new();
        let mut registry: HashMap<(NodeId, LinkId, NodeId), SocketAddr> = HashMap::new();
        for &id in &router_ids {
            let rng = routesync_rng::stream(cfg.seed, id as u64);
            let mut core = Router::new(scen.sim.table(id).clone(), rng, &rcfg);
            let next_fire = core.first_fire(&rcfg);
            let mut ifaces = Vec::new();
            for (peer, link) in topo.neighbors_iter(id) {
                if topo.kind(peer) != NodeKind::Router {
                    continue;
                }
                let (sock, local_addr) = bind()?;
                registry.insert((id, link, peer), local_addr);
                ifaces.push(Iface {
                    peer,
                    link,
                    sock: Some(sock),
                    local_addr,
                    last_heard: None,
                    timed_out: false,
                    last_frame: None,
                    refusals: 0,
                    refusal_backoff_ns: 0,
                });
            }
            index_of.insert(id, routers.len());
            routers.push(LiveRouter {
                id,
                core,
                ifaces,
                seq: 0,
                next_fire,
                cpu_free: SimTime::MAX,
                stretch: 1,
                crashed: false,
                ingress: VecDeque::new(),
                backlog: VecDeque::new(),
                sheds_since: 0,
                live_due: SimTime::MAX,
            });
        }
        for s in cfg.spec.faults().slowdowns() {
            if let Some(&idx) = index_of.get(&s.node) {
                routers[idx].core.set_slowdown(s.factor);
            }
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
            rcfg,
            link_up: vec![true; topo.link_count()],
            topo,
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
            io: Io::default(),
            scratch: Vec::new(),
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
        let tp = self.rcfg.dv.jitter.tp();
        let mut next_ckpt = self.sim_base + self.checkpoint_every;
        let mut next_overload = self.sim_base + tp / 4;
        let mut last_observe = Instant::now();
        let outcome = loop {
            let mut mark = Instant::now();
            let sim_now = self.sim_base.saturating_add(Duration::from_secs_f64(
                mark.duration_since(started).as_secs_f64() * self.time_scale,
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
            self.advance(sim_now);
            lap(&self.m.stage_advance, &mut mark);
            self.pump_recv(sim_now);
            lap(&self.m.stage_recv, &mut mark);
            self.process_ingress(sim_now);
            lap(&self.m.stage_process, &mut mark);
            self.check_liveness(sim_now);
            lap(&self.m.stage_liveness, &mut mark);
            self.pump_egress();
            lap(&self.m.stage_send, &mut mark);
            if sim_now >= next_overload {
                next_overload = sim_now + tp / 4;
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
                .map(|r| (r.id, r.core.table().clone()))
                .collect(),
            detector: self.detector.snapshot(),
            max_divergence: self.monitor.as_ref().map(|m| m.max_divergence()),
        })
    }

    /// Run one entry point of router `idx`'s core at `now`, then map its
    /// outputs: deadlines into the router's `next_fire`/`cpu_free`,
    /// updates into frames on the egress queue.
    fn route<T>(
        &mut self,
        idx: usize,
        now: SimTime,
        call: impl FnOnce(&mut Router, &mut Env<'_, Ports<'_>>) -> T,
    ) -> T {
        let LiveRouter {
            id, core, ifaces, ..
        } = &mut self.routers[idx];
        let ports = Ports {
            me: *id,
            ifaces,
            topo: &self.topo,
            link_up: &self.link_up,
        };
        let mut env = Env {
            cfg: &self.rcfg,
            ifaces: &ports,
            io: &mut self.io,
        };
        let result = call(core, &mut env);
        let mut delta = false;
        let mut out = std::mem::take(&mut self.io.out);
        for output in out.drain(..) {
            let r = &mut self.routers[idx];
            match output {
                Output::Busy { until, .. } => r.cpu_free = until,
                Output::Arm(at) => {
                    // Overload stretches the period the router asked for.
                    let interval = at.since(now).saturating_mul(u64::from(r.stretch));
                    r.next_fire = now.saturating_add(interval);
                }
                Output::Emit(kind) => {
                    r.seq = r.seq.wrapping_add(1);
                    delta = kind == Emission::Triggered { delta: true };
                    match kind {
                        Emission::Periodic => {
                            // The detector is fed the *scheduled* instant,
                            // not the wall-derived loop tick, so phase
                            // noise from OS scheduling never pollutes R(t).
                            self.detector.on_send(now.as_nanos());
                            self.rounds += 1;
                            self.m.tx_updates.add(1);
                        }
                        Emission::Triggered { .. } => self.m.tx_triggered.add(1),
                        Emission::Keepalive => {}
                    }
                }
                Output::Advertise { iface, update, .. } => {
                    let frame = Advertisement {
                        sender: r.id,
                        seq: r.seq,
                        delta,
                        entries: update.entries,
                    }
                    .encode();
                    if self.egress.len() >= self.egress_cap {
                        self.m.shed_egress.add(1);
                        r.sheds_since += 1;
                        continue;
                    }
                    self.egress.push_back(PendingSend {
                        router: idx,
                        iface,
                        frame,
                        attempts: 0,
                        not_before: Instant::now(),
                        prev_backoff_ns: 0,
                    });
                }
            }
        }
        self.io.out = out;
        result
    }

    /// Bring every router up to `sim_now`: due timers and CPU-free
    /// instants fire at their own (scheduled) instants, interleaved in
    /// time order with due faults.
    fn advance(&mut self, sim_now: SimTime) {
        loop {
            let fault = self
                .scheduled
                .get(self.next_fault)
                .copied()
                .filter(|f| f.at <= sim_now);
            let until = fault.map_or(sim_now, |f| f.at);
            for idx in 0..self.routers.len() {
                self.run_deadlines(idx, until);
            }
            let Some(fault) = fault else {
                break;
            };
            self.next_fault += 1;
            match fault.action {
                FaultAction::RouterCrash(node) => self.crash(node, fault.at),
                FaultAction::RouterReboot(node) => self.reboot(node, fault.at),
                FaultAction::LinkDown(link) => self.set_link(link, false, fault.at),
                FaultAction::LinkUp(link) => self.set_link(link, true, fault.at),
            }
        }
    }

    /// Fire router `idx`'s timer and CPU-free deadlines up to `until`.
    fn run_deadlines(&mut self, idx: usize, until: SimTime) {
        loop {
            let r = &mut self.routers[idx];
            let at = r.next_fire.min(r.cpu_free);
            if at > until {
                return;
            }
            if r.next_fire == at {
                r.next_fire = SimTime::MAX;
                self.route(idx, at, |core, env| core.on_timer(at, env));
            } else {
                r.cpu_free = SimTime::MAX;
                self.route(idx, at, |core, env| core.on_cpu_free(at, env));
            }
        }
    }

    /// Crash a router: beside the core's state, its deadlines, queued
    /// datagrams and sockets go. Dropping a socket closes its port, so
    /// peers' connected sends start bouncing ECONNREFUSED, driving their
    /// retry machinery.
    fn crash(&mut self, node: NodeId, at: SimTime) {
        let Some(&idx) = self.index_of.get(&node) else {
            return;
        };
        let r = &mut self.routers[idx];
        if r.crashed {
            return;
        }
        r.core.on_crash(at);
        r.crashed = true;
        r.next_fire = SimTime::MAX;
        r.cpu_free = SimTime::MAX;
        r.ingress.clear();
        r.backlog.clear();
        for iface in &mut r.ifaces {
            iface.sock = None;
            iface.reset();
        }
        self.egress.retain(|ps| ps.router != idx);
        self.sockets_changed = true;
        self.m.faults_crashes.add(1);
    }

    fn reboot(&mut self, node: NodeId, at: SimTime) {
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
            let Ok((sock, local_addr)) = bind() else {
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
            iface.reset();
        }
        self.sockets_changed = true;
        self.routers[idx].crashed = false;
        self.m.faults_reboots.add(1);
        // Cold start: direct routes to every neighbour over an up link.
        let mut direct = std::mem::take(&mut self.scratch);
        direct.clear();
        direct.extend(
            self.topo
                .neighbors_iter(node)
                .filter(|&(_, l)| self.link_up[l])
                .map(|(m, _)| m),
        );
        self.route(idx, at, |core, env| core.on_reboot(at, &direct, env));
        self.scratch = direct;
    }

    /// A fault-plan link transition: every live hosted router on the link
    /// learns that its on-link neighbours (the live ones, when the link
    /// comes up) went away or came back.
    fn set_link(&mut self, link: LinkId, up: bool, at: SimTime) {
        if self.link_up[link] == up {
            return;
        }
        self.link_up[link] = up;
        let mut peers = std::mem::take(&mut self.scratch);
        for i in 0..self.topo.link(link).nodes.len() {
            let node = self.topo.link(link).nodes[i];
            let Some(&idx) = self.index_of.get(&node) else {
                continue;
            };
            if self.routers[idx].crashed {
                continue;
            }
            for iface in &mut self.routers[idx].ifaces {
                if iface.link == link {
                    iface.last_heard = None;
                    iface.timed_out = false;
                }
            }
            peers.clear();
            peers.extend(self.topo.link(link).nodes.iter().copied().filter(|&m| {
                m != node
                    && !(up
                        && self
                            .index_of
                            .get(&m)
                            .is_some_and(|&p| self.routers[p].crashed))
            }));
            self.route(idx, at, |core, env| core.on_neighbors(at, &peers, up, env));
        }
        self.scratch = peers;
    }

    /// End the tick: sleep out [`TICK`], then one non-blocking wait on
    /// the interest set names the sockets the next tick reads. The set is
    /// rebuilt only after a socket opened or closed. Waking on
    /// readability instead would run a tick per datagram burst.
    fn end_tick(&mut self) -> io::Result<()> {
        std::thread::sleep(TICK);
        let mut mark = Instant::now();
        if self.sockets_changed {
            self.sockets_changed = false;
            self.poller.clear();
            for (ridx, r) in self.routers.iter().enumerate() {
                for (k, iface) in r.ifaces.iter().enumerate() {
                    if let Some(sock) = &iface.sock {
                        self.poller.register(sock, (ridx, k))?;
                    }
                }
            }
        }
        self.ready.clear();
        self.poller.wait(WallDuration::ZERO, &mut self.ready)?;
        lap(&self.m.stage_wait, &mut mark);
        self.m.loop_ready.add(self.ready.len() as u64);
        Ok(())
    }

    /// Drain the sockets the last wait found readable into the bounded
    /// ingress queues.
    fn pump_recv(&mut self, sim_now: SimTime) {
        let ingress_cap = self.ingress_cap;
        let egress_cap = self.egress_cap;
        let max_attempts = self.retry.max_attempts;
        let silent_at = silent_after(sim_now, self.rcfg.dv.route_timeout);
        let LiveDaemon {
            routers,
            link_up,
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
                ingress,
                backlog,
                sheds_since,
                live_due,
                ..
            } = &mut routers[ridx];
            let iface = &mut ifaces[k];
            let Some(sock) = &iface.sock else { continue };
            loop {
                match sock.recv(rx_buf) {
                    Ok(len) => {
                        m.codec_rx.add(1);
                        if !link_up[iface.link] {
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
                                iface.last_heard = Some(sim_now);
                                *live_due = (*live_due).min(silent_at);
                                iface.refusals = 0;
                                iface.refusal_backoff_ns = 0;
                                drain_done(backlog, sim_now);
                                if ingress.len() + backlog.len() >= ingress_cap {
                                    *sheds_since += 1;
                                    m.shed_ingress.add(1);
                                } else {
                                    let recovered = std::mem::take(&mut iface.timed_out);
                                    if recovered {
                                        m.neighbor_recoveries.add(1);
                                    }
                                    ingress.push_back((adv, recovered));
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

    /// Hand the queued updates to the routers. Each charges its router's
    /// CPU as it arrives, so one landing in a busy period pushes back the
    /// timer reset, and counts toward the router's backlog until the CPU
    /// is next idle.
    fn process_ingress(&mut self, sim_now: SimTime) {
        // The wire carries only real entries; every router of a scenario
        // pads its updates alike.
        let pad = u32::try_from(self.rcfg.dv.advertise_pad).expect("advertise_pad fits in u32");
        for idx in 0..self.routers.len() {
            drain_done(&mut self.routers[idx].backlog, sim_now);
            while let Some((adv, recovered)) = self.routers[idx].ingress.pop_front() {
                self.route(idx, sim_now, |core, env| {
                    if recovered {
                        core.on_neighbors(sim_now, &[adv.sender], true, env);
                    }
                    core.on_update(sim_now, adv.sender, &adv.entries, pad, env)
                });
                let r = &mut self.routers[idx];
                if r.cpu_free != SimTime::MAX && r.cpu_free > sim_now {
                    r.backlog.push_back(r.cpu_free);
                }
            }
        }
    }

    /// Neighbour liveness, for the routers whose deadline (`live_due`)
    /// has come: a neighbour silent for longer than the route timeout is
    /// reported down to the router. Before the deadline every check would
    /// be a no-op.
    fn check_liveness(&mut self, sim_now: SimTime) {
        let timeout = self.rcfg.dv.route_timeout;
        let mut dead = std::mem::take(&mut self.scratch);
        for idx in 0..self.routers.len() {
            let r = &mut self.routers[idx];
            if r.crashed || r.live_due > sim_now {
                continue;
            }
            self.m.age_passes.add(1);
            dead.clear();
            let mut due = SimTime::MAX;
            for iface in &mut r.ifaces {
                if !self.link_up[iface.link] || iface.timed_out {
                    continue;
                }
                let Some(heard) = iface.last_heard else {
                    continue;
                };
                if sim_now.since(heard) > timeout {
                    iface.timed_out = true;
                    self.m.neighbor_timeouts.add(1);
                    dead.push(iface.peer);
                } else {
                    due = due.min(silent_after(heard, timeout));
                }
            }
            r.live_due = due;
            if !dead.is_empty() {
                self.route(idx, sim_now, |core, env| {
                    core.on_neighbors(sim_now, &dead, false, env)
                });
            }
        }
        self.scratch = dead;
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
            let iface = &mut r.ifaces[ps.iface];
            if r.crashed || !self.link_up[iface.link] {
                continue;
            }
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
            } else if r.ingress.is_empty() && r.backlog.is_empty() && r.stretch > 1 {
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
            let table_json = serde_json::to_string(r.core.table())
                .map_err(|e| invalid_data(format!("table serialization failed: {e}")))?;
            w.append(&format!("router.{}.table", r.id), &table_json)?;
            let record = RouterRecord {
                control: r.core.control().clone(),
                seq: r.seq,
                next_fire: r.next_fire,
                cpu_free: r.cpu_free,
                stretch: r.stretch,
                crashed: r.crashed,
                backlog: r.backlog.iter().copied().collect(),
                liveness: r
                    .ifaces
                    .iter()
                    .map(|i| (i.last_heard, i.timed_out))
                    .collect(),
            };
            let state_json = serde_json::to_string(&record)
                .map_err(|e| invalid_data(format!("state serialization failed: {e}")))?;
            w.append(&format!("router.{}.state", r.id), &state_json)?;
        }
        w.sync()?;
        self.m.checkpoint_writes.add(1);
        Ok(())
    }

    /// Rebuild protocol state from checkpoint records (freshly
    /// constructed sockets stay as they are; a crashed router's are
    /// dropped again). Every record is parsed before any is applied, so a
    /// corrupt or foreign checkpoint fails with
    /// [`ErrorKind::InvalidData`] and restores nothing.
    fn restore(&mut self, records: &BTreeMap<String, String>) -> io::Result<()> {
        let record = |key: &str| {
            records
                .get(key)
                .ok_or_else(|| invalid_data(format!("checkpoint lacks record '{key}'")))
        };
        let number = |key: &str| {
            record(key)?
                .parse::<u64>()
                .map_err(|_| invalid_data(format!("checkpoint record '{key}' is not a number")))
        };
        let sim_ns = number("sim_ns")?;
        let faults_applied = number("faults_applied")?;
        let rounds = number("rounds")?;
        let (windows, onset) = parse_detector(record("detector")?)
            .ok_or_else(|| invalid_data("checkpoint record 'detector' is malformed"))?;
        let mut parsed = Vec::with_capacity(self.routers.len());
        for r in &self.routers {
            let id = r.id;
            let table: RoutingTable = serde_json::from_str(record(&format!("router.{id}.table"))?)
                .map_err(|e| invalid_data(format!("router {id} table corrupt: {e}")))?;
            let state: RouterRecord = serde_json::from_str(record(&format!("router.{id}.state"))?)
                .map_err(|e| invalid_data(format!("router {id} state corrupt: {e}")))?;
            if state.liveness.len() != r.ifaces.len() {
                return Err(invalid_data(format!(
                    "router {id} state has the wrong interfaces"
                )));
            }
            parsed.push((table, state));
        }

        self.sim_base = SimTime::ZERO.saturating_add(Duration::from_nanos(sim_ns));
        self.next_fault = (faults_applied as usize).min(self.scheduled.len());
        self.rounds = rounds;
        self.detector.restore(windows, onset);
        // Link state is what the applied prefix of the fault plan left.
        for f in &self.scheduled[..self.next_fault] {
            match f.action {
                FaultAction::LinkDown(l) => self.link_up[l] = false,
                FaultAction::LinkUp(l) => self.link_up[l] = true,
                FaultAction::RouterCrash(_) | FaultAction::RouterReboot(_) => {}
            }
        }
        for (idx, (mut table, state)) in parsed.into_iter().enumerate() {
            table.set_dirty_tracking(self.rcfg.dv.triggered_delta);
            let r = &mut self.routers[idx];
            r.core = Router::from_parts(table, state.control);
            r.seq = state.seq;
            r.next_fire = state.next_fire;
            r.cpu_free = state.cpu_free;
            r.stretch = state.stretch.clamp(1, self.stretch_max.max(1));
            r.backlog = state.backlog.into();
            for (iface, &(heard, timed_out)) in r.ifaces.iter_mut().zip(&state.liveness) {
                iface.last_heard = heard;
                iface.timed_out = timed_out;
            }
            // The first liveness pass recomputes the deadline exactly.
            r.live_due = SimTime::ZERO;
            if state.crashed {
                // Crashing again drops the freshly bound sockets, exactly
                // as they were at checkpoint time (the counter increment
                // is harmless on a resumed fact).
                let id = self.routers[idx].id;
                self.crash(id, self.sim_base);
            }
        }
        Ok(())
    }
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
        // Sockets are read when the wait reports them, not every tick.
        let ready = c["live.loop.ready"];
        assert!(ready >= 1 && ready <= c["live.codec.rx"] + c["live.retry.attempts"]);
    }

    #[test]
    fn a_silent_neighbor_times_out_on_its_deadline() {
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
    fn a_cpu_bound_router_sheds_and_stretches() {
        // Router 0's CPU is 1000x slower: each update costs it ~105 s,
        // while each of its three peers sends one every ~120 s, so work
        // arrives faster than the CPU clears it. Unsynchronized peers
        // never deliver three datagrams in one loop tick: only the CPU
        // backlog can fill the three-slot queue.
        let plan = FaultPlan::new().slow_router(0, 1000.0);
        let spec = ScenarioSpec::lan(4, Duration::from_millis(50))
            .with_start(routesync_netsim::TimerStart::Unsynchronized)
            .with_faults(plan);
        let mut cfg = LiveConfig::new(spec, "test-cpu-bound", 37);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(700);
        cfg.ingress_cap = 3;
        cfg.twin = false;
        cfg.collector = Collector::enabled();
        let collector = cfg.collector.clone();
        let mut d = LiveDaemon::new(cfg).expect("daemon boots");
        let report = d.run().expect("run completes despite shedding");
        assert_eq!(report.outcome, Outcome::Completed);
        let snap = collector.snapshot();
        assert!(snap.counters["live.shed.ingress"] > 0);
        assert!(snap.counters["live.overload.windows"] > 0);
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

    /// A reboot opens fresh sockets, and the loop's readiness set
    /// follows: the rebooted router hears its peer again.
    #[test]
    fn a_rebooted_router_reads_its_new_sockets() {
        let plan = FaultPlan::new()
            .crash_at(1, SimTime::from_secs(150))
            .reboot_at(1, SimTime::from_secs(400));
        let spec = ScenarioSpec::lan(2, Duration::from_millis(50)).with_faults(plan);
        let mut cfg = LiveConfig::new(spec, "test-reboot-reads", 3);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(1_200);
        cfg.twin = false;
        let report = LiveDaemon::new(cfg)
            .expect("daemon boots")
            .run()
            .expect("run completes");
        let heard = report.tables[&1]
            .iter()
            .find(|&(dst, _)| dst == 0)
            .map(|(_, route)| route.last_heard);
        assert!(
            heard.is_some_and(|t| t > SimTime::from_secs(400) && t < SimTime::MAX),
            "router 1 never heard router 0 after its reboot: {heard:?}"
        );
    }

    /// The paper's coupling, live: a router re-arms its timer only once
    /// its CPU is through its own update *and* the peer's update that
    /// landed while it was busy.
    #[test]
    fn timer_resets_after_updates_that_land_while_busy() {
        // Both LAN routers fire at 120 s (synchronized start). A 1000x
        // slower CPU makes each update cost 102 s (2 routes plus 100
        // padding entries at 1 ms each; 170 ms of wall clock), so the
        // peer's update, which arrives within a loop tick or two, lands
        // in the busy period. The run ends after the CPU frees (324 s)
        // and before the timer fires again.
        let plan = FaultPlan::new()
            .slow_router(0, 1000.0)
            .slow_router(1, 1000.0);
        let spec = ScenarioSpec::lan(2, Duration::from_millis(50)).with_faults(plan);
        let dir = std::env::temp_dir().join(format!("live-coupling-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coupling.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut cfg = LiveConfig::new(spec, "test-coupling", 29);
        cfg.time_scale = 600.0;
        cfg.horizon = SimTime::from_secs(400);
        cfg.twin = false;
        cfg.checkpoint = Some(path.clone());
        LiveDaemon::new(cfg)
            .expect("daemon boots")
            .run()
            .expect("run completes");

        let records = checkpoint::load(&path).expect("checkpoint loads").records;
        let cost = Duration::from_secs(102);
        let shortest_interval = Duration::from_secs(120) - Duration::from_millis(50);
        let earliest = SimTime::from_secs(120) + cost + cost + shortest_interval;
        for id in 0..2 {
            let key = format!("router.{id}.state");
            let state: serde_json::Value =
                serde_json::from_str(&records[&key]).expect("state record is JSON");
            let next_fire = match state.get("next_fire") {
                Some(serde_json::Value::U64(ns)) => *ns,
                other => panic!("{key} has no next_fire: {other:?}"),
            };
            assert!(
                next_fire >= earliest.as_nanos(),
                "router {id} re-armed for {next_fire} ns, before {earliest}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    fn refusal(spec: ScenarioSpec) -> io::Error {
        let mut cfg = LiveConfig::new(spec, "test-refusal", 1);
        cfg.twin = false;
        match LiveDaemon::new(cfg) {
            Err(e) => e,
            Ok(_) => panic!("the daemon booted a scenario it cannot replay"),
        }
    }

    #[test]
    fn hellos_are_refused() {
        let mut topo = Topology::new();
        let a = topo.add_router("a");
        let b = topo.add_router("b");
        topo.add_link(a, b, Duration::from_millis(1), 10_000_000, 50);
        let dv =
            routesync_netsim::DvConfig::rip().with_hello(routesync_netsim::HelloConfig::standard());
        let sim = NetSim::new(topo, RouterConfig::new(dv), 1);
        let err = replayable(&sim, &FaultPlan::new()).expect_err("hellos refused");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("dv.hello"), "{err}");
    }

    #[test]
    fn areas_are_refused() {
        let err = refusal(ScenarioSpec::hierarchical(8, 2, Duration::from_millis(1)));
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("area model"), "{err}");
    }

    #[test]
    fn flap_profiles_are_refused() {
        let lan = || ScenarioSpec::lan(2, Duration::from_millis(50));
        let mean = Duration::from_secs(60);
        for plan in [
            FaultPlan::new().flap_link(0, mean, mean),
            FaultPlan::new().flap_router(1, mean, mean),
        ] {
            let err = refusal(lan().with_faults(plan));
            assert_eq!(err.kind(), ErrorKind::InvalidInput);
            assert!(err.to_string().contains("flap profiles"), "{err}");
        }
    }

    #[test]
    fn reorder_impairments_are_refused() {
        let lan = || ScenarioSpec::lan(2, Duration::from_millis(50));
        let plan = FaultPlan::new().reorder_link(0, 0.1, Duration::from_millis(5));
        let err = refusal(lan().with_faults(plan));
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("reorder"), "{err}");
        // Loss alone replays (receiver-side), so it boots.
        let mut cfg = LiveConfig::new(
            lan().with_faults(FaultPlan::new().lossy_link(0, 0.1)),
            "test-loss",
            1,
        );
        cfg.twin = false;
        assert!(LiveDaemon::new(cfg).is_ok());
    }
}
