//! The control plane of one distance-vector router, as a state machine
//! with no I/O.
//!
//! [`Router`] holds a router's table, its jittered update timer and the
//! control CPU the paper's coupling runs through, and touches no clock,
//! queue or socket. A driver calls one entry point per input, stamped
//! with the instant it happens at, and maps the [`Output`]s the router
//! pushes into the driver's [`Io`] to its own world: [`crate::NetSim`] to
//! desim events and packets, `routesync-live`'s daemon to UDP frames and
//! its own deadlines. The protocol is written here once, for simulated and
//! live routers alike.
//!
//! The paper's rule lives in [`Router::on_timer`] and
//! [`Router::on_cpu_free`]: under [`TimerResetPolicy::AfterProcessing`]
//! the timer is re-armed only once the CPU is free, after the router's own
//! update *and* every update that arrived while it was busy (each arrival
//! extends the busy period).

use routesync_desim::{Duration, SimTime};
use routesync_rng::{JitterPolicy, MinStd, TimerResetPolicy};
use serde::{Deserialize, Serialize};

use crate::area::{AreaLayout, AreaMode};
use crate::dv::{area_link_advertisement, AreaCandidate, RouteEntry, RoutingTable};
use crate::dv::{UpdateMode, UpdateOutcome};
use crate::packet::RoutingUpdate;
use crate::sim::{RouterConfig, TimerStart};
use crate::topology::NodeId;

/// What an [`Output::Emit`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emission {
    /// A timer-driven update: the send instants synchronization is
    /// measured on.
    Periodic,
    /// A triggered update, carrying only the changed routes if `delta`.
    Triggered {
        /// Only the routes changed since the last update.
        delta: bool,
    },
    /// An incremental-mode keepalive: no routes, no CPU.
    Keepalive,
}

/// One effect of an entry point, in the order the router produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// `cost` more control-CPU work was charged: the CPU is busy until
    /// `until`, when the driver calls [`Router::on_cpu_free`] (only the
    /// latest `Busy` counts).
    Busy {
        /// When the CPU frees.
        until: SimTime,
        /// The work just charged, fault-plan slowdown applied.
        cost: Duration,
    },
    /// An update goes out; its [`Output::Advertise`]s follow.
    Emit(Emission),
    /// Send `update` on the driver's interface `iface`.
    Advertise {
        /// The interface (see [`Interfaces`]).
        iface: usize,
        /// The update, split horizon applied for that interface.
        update: RoutingUpdate,
        /// Table rows read to build it (0 when an earlier interface of the
        /// same area already paid for the scan).
        scanned: usize,
    },
    /// Fire [`Router::on_timer`] at this instant, cancelling any earlier
    /// arm.
    Arm(SimTime),
}

/// A router's interfaces as its driver sees them, asked for only when the
/// router advertises.
pub trait Interfaces {
    /// Number of interfaces, up or down.
    fn count(&self) -> usize;
    /// Whether interface `i` is up.
    fn up(&self, i: usize) -> bool;
    /// Append interface `i`'s on-link peers (never the router itself) to
    /// `out`: the split-horizon set.
    fn peers_into(&self, i: usize, out: &mut Vec<NodeId>);
    /// The area model, if any: the layout, its mode, and whether this
    /// router borders its area (and so originates the default route).
    fn areas(&self) -> Option<(&AreaLayout, AreaMode, bool)> {
        None
    }
    /// The area of interface `i`'s link (`None`: a backbone link).
    fn link_area(&self, _i: usize) -> Option<usize> {
        None
    }
}

/// A driver's buffers: the outputs, plus scratch space for building
/// advertisements. One per driver, never one per router.
#[derive(Debug, Default)]
pub struct Io {
    /// Outputs of the calls since the driver last drained it.
    pub out: Vec<Output>,
    peers: Vec<NodeId>,
    dirty: Vec<NodeId>,
    candidates: Vec<AreaCandidate>,
    /// `(link area, start, end)`: each link area's range in `candidates`.
    classes: Vec<(Option<usize>, usize, usize)>,
}

/// What a driver lends the router for one call.
pub struct Env<'a, I> {
    /// The configuration every router shares.
    pub cfg: &'a RouterConfig,
    /// This router's interfaces.
    pub ifaces: &'a I,
    /// The driver's buffers.
    pub io: &'a mut Io,
}

/// Everything of a router but its table, which is what a checkpoint
/// stores beside the table to resume the router exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Control {
    rng: MinStd,
    jitter: JitterPolicy,
    busy_until: SimTime,
    arm_when_free: bool,
    pending_triggered: bool,
    sent_initial_full: bool,
    slowdown: f64,
}

/// One router's control plane. See the module docs.
#[derive(Debug, Clone)]
pub struct Router {
    table: RoutingTable,
    ctl: Control,
}

impl Router {
    /// A router over `table`, drawing its timer jitter from `rng` (its
    /// configuration-time draws are made here).
    pub fn new(table: RoutingTable, mut rng: MinStd, cfg: &RouterConfig) -> Self {
        let jitter = cfg.dv.jitter.materialize(&mut rng);
        let ctl = Control {
            rng,
            jitter,
            busy_until: SimTime::ZERO,
            arm_when_free: false,
            pending_triggered: false,
            sent_initial_full: false,
            slowdown: 1.0,
        };
        Router { table, ctl }
    }

    /// A router resumed from its table and [`Router::control`].
    pub fn from_parts(table: RoutingTable, ctl: Control) -> Self {
        Router { table, ctl }
    }

    /// The routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The routing table, for scenario set-up.
    pub(crate) fn table_mut(&mut self) -> &mut RoutingTable {
        &mut self.table
    }

    /// Everything but the table.
    pub fn control(&self) -> &Control {
        &self.ctl
    }

    /// The router's random stream. Its driver draws from it too (hello
    /// intervals, application gaps), so one seed fixes every draw's order.
    pub(crate) fn rng(&mut self) -> &mut MinStd {
        &mut self.ctl.rng
    }

    /// Scale every control-CPU cost by `factor` (a fault-plan slowdown).
    pub fn set_slowdown(&mut self, factor: f64) {
        self.ctl.slowdown = factor;
    }

    /// Whether the control CPU is busy at `now`.
    pub(crate) fn busy(&self, now: SimTime) -> bool {
        now < self.ctl.busy_until
    }

    /// When the first periodic update fires: one period in from a
    /// synchronized start, uniform over the first period otherwise.
    pub fn first_fire(&mut self, cfg: &RouterConfig) -> SimTime {
        let tp = cfg.dv.jitter.tp();
        SimTime::ZERO
            + match cfg.start {
                TimerStart::Synchronized => tp,
                TimerStart::Unsynchronized => {
                    routesync_rng::dist::UniformDuration::new(Duration::ZERO, tp)
                        .sample(&mut self.ctl.rng)
                }
            }
    }

    /// The periodic timer fired: age the table (periodic mode), send the
    /// full table or a keepalive, then re-arm by the reset policy.
    pub fn on_timer(&mut self, now: SimTime, env: &mut Env<'_, impl Interfaces>) {
        let dv = &env.cfg.dv;
        match dv.update_mode {
            UpdateMode::PeriodicFullTable => {
                // Housekeeping at update time: age out stale routes (their
                // poisoning rides along in this very update).
                self.table.expire(now, dv.route_timeout, dv.infinity);
                self.table.gc_due(now, dv.gc_timeout, dv.infinity);
                self.emit(now, false, env);
            }
            UpdateMode::Incremental if self.ctl.sent_initial_full => self.keepalive(env),
            UpdateMode::Incremental => {
                self.ctl.sent_initial_full = true;
                self.emit(now, false, env);
            }
        }
        match env.cfg.dv.reset_policy {
            TimerResetPolicy::AfterProcessing => {
                // The paper's coupling: re-arm once the CPU is free, after
                // this update and whatever arrives while it is busy.
                self.ctl.arm_when_free = true;
                if !self.busy(now) {
                    self.arm(now, env.io);
                }
            }
            TimerResetPolicy::OnExpiry => self.arm(now, env.io),
        }
    }

    /// An update from neighbour `from` arrived: charge the CPU for all of
    /// it (`pad` synthetic entries included), merge it, and send a
    /// triggered update if a route changed, now or once the CPU is free.
    pub fn on_update(
        &mut self,
        now: SimTime,
        from: NodeId,
        entries: &[RouteEntry],
        pad: u32,
        env: &mut Env<'_, impl Interfaces>,
    ) -> UpdateOutcome {
        let routes = entries.len() + pad as usize;
        self.charge(now, env.cfg.cost_per_route * routes as u64, env.io);
        let dv = &env.cfg.dv;
        let merged = self
            .table
            .process_update_with(from, entries, now, dv.infinity, dv.holddown);
        if merged.changed && dv.triggered_updates {
            self.note_change(now, env);
        }
        merged
    }

    /// The CPU went idle at `now`, the latest [`Output::Busy`] instant:
    /// send a deferred triggered update, then arm a timer waiting for it.
    pub fn on_cpu_free(&mut self, now: SimTime, env: &mut Env<'_, impl Interfaces>) {
        if self.ctl.pending_triggered {
            self.ctl.pending_triggered = false;
            self.emit(now, true, env);
            // The emission re-busied the CPU: arming waits for the next
            // CPU-free instant.
            if self.busy(now) {
                return;
            }
        }
        if self.ctl.arm_when_free {
            self.arm(now, env.io);
        }
    }

    /// Adjacencies to `peers` came up (direct routes) or went down (the
    /// routes through them are poisoned). One triggered update follows,
    /// however many peers changed.
    pub fn on_neighbors(
        &mut self,
        now: SimTime,
        peers: &[NodeId],
        up: bool,
        env: &mut Env<'_, impl Interfaces>,
    ) {
        let dv = &env.cfg.dv;
        let mut changed = up;
        for &peer in peers {
            if up {
                self.table.install_direct(peer);
            } else {
                changed |= self
                    .table
                    .fail_via_with(peer, dv.infinity, now, dv.holddown);
            }
        }
        if changed && dv.triggered_updates {
            self.note_change(now, env);
        }
    }

    /// The router crashed at `now`: its table, CPU backlog, deferred
    /// triggered update and pending arm are gone. The driver cancels its
    /// own timer and CPU-free deadlines.
    pub fn on_crash(&mut self, now: SimTime) {
        self.ctl.busy_until = now;
        self.ctl.arm_when_free = false;
        self.ctl.pending_triggered = false;
        self.ctl.sent_initial_full = false;
        self.table.reset();
    }

    /// The router rebooted at `now`: cold-start the table with direct
    /// routes to `direct`, announce it with a triggered update (the
    /// storm-injection path of the paper's Section 3.1), and arm the
    /// timer at a phase set by the reboot.
    pub fn on_reboot(
        &mut self,
        now: SimTime,
        direct: &[NodeId],
        env: &mut Env<'_, impl Interfaces>,
    ) {
        self.table.reset();
        for &peer in direct {
            self.table.install_direct(peer);
        }
        self.ctl.sent_initial_full = false;
        if env.cfg.dv.triggered_updates {
            self.note_change(now, env);
        }
        self.arm(now, env.io);
    }

    /// A route changed: send a triggered update, or defer it while busy.
    fn note_change(&mut self, now: SimTime, env: &mut Env<'_, impl Interfaces>) {
        if self.busy(now) {
            self.ctl.pending_triggered = true;
        } else {
            self.emit(now, true, env);
        }
    }

    /// Charge `cost` of control-CPU work at `now`, scaled by the slowdown.
    fn charge(&mut self, now: SimTime, mut cost: Duration, io: &mut Io) {
        let s = self.ctl.slowdown;
        if s != 1.0 {
            cost = Duration::from_nanos((cost.as_nanos() as f64 * s).round() as u64);
        }
        if cost.is_zero() {
            return;
        }
        let from = if self.busy(now) {
            self.ctl.busy_until
        } else {
            now
        };
        self.ctl.busy_until = from + cost;
        let until = self.ctl.busy_until;
        io.out.push(Output::Busy { until, cost });
    }

    fn arm(&mut self, now: SimTime, io: &mut Io) {
        self.ctl.arm_when_free = false;
        let interval = self.ctl.jitter.sample(&mut self.ctl.rng);
        io.out.push(Output::Arm(now + interval));
    }

    /// Send an update on every up interface: the full table or, with
    /// delta updates, a triggered update of only the dirtied routes (a
    /// periodic update flushes the dirty set: it re-advertises everything
    /// anyway).
    fn emit(&mut self, now: SimTime, triggered: bool, env: &mut Env<'_, impl Interfaces>) {
        let (cfg, ifaces) = (env.cfg, env.ifaces);
        let dv = &cfg.dv;
        if dv.triggered_delta {
            self.table.take_dirty_into(&mut env.io.dirty);
            // A periodic update may already have covered the change:
            // then there is nothing to say, and nothing is sent.
            if triggered && env.io.dirty.is_empty() {
                return;
            }
        }
        let delta = dv.triggered_delta && triggered;
        let kind = if triggered {
            Emission::Triggered { delta }
        } else {
            Emission::Periodic
        };
        env.io.out.push(Output::Emit(kind));
        let basis = if delta {
            env.io.dirty.len()
        } else {
            self.table.len()
        };
        // Preparation cost: the advertised table scan, plus padding.
        let pad = dv.advertise_pad;
        self.charge(now, cfg.cost_per_route * (basis + pad) as u64, env.io);
        let pad = u32::try_from(pad).expect("advertise_pad fits in u32");
        let Io {
            out,
            peers,
            dirty,
            candidates,
            classes,
        } = &mut *env.io;
        let only = delta.then_some(dirty.as_slice());
        candidates.clear();
        classes.clear();
        for i in (0..ifaces.count()).filter(|&i| ifaces.up(i)) {
            peers.clear();
            ifaces.peers_into(i, peers);
            let (entries, scanned) = match ifaces.areas() {
                // Area advertisements are built in two phases: the
                // candidates once per distinct link area, then split
                // horizon once per interface.
                Some((layout, mode, border)) => {
                    let area = ifaces.link_area(i);
                    let known = classes.iter().position(|c| c.0 == area);
                    let class = known.unwrap_or_else(|| {
                        let start = candidates.len();
                        let (split, table) = (dv.split_horizon, &self.table);
                        table.area_candidates_into(
                            layout, mode, area, border, split, only, candidates,
                        );
                        classes.push((area, start, candidates.len()));
                        classes.len() - 1
                    });
                    let (_, start, end) = classes[class];
                    let entries =
                        area_link_advertisement(&candidates[start..end], peers, dv.infinity);
                    (entries, if known.is_some() { 0 } else { basis })
                }
                None => {
                    // The entry list is owned by the update, so an
                    // allocation is inherent, but sized once.
                    let mut entries = Vec::with_capacity(basis);
                    let (split, inf) = (dv.split_horizon, dv.infinity);
                    match only {
                        Some(only) => self.table.advertisement_delta_into(
                            only,
                            peers,
                            split,
                            inf,
                            &mut entries,
                        ),
                        None => self
                            .table
                            .advertisement_into(peers, split, inf, &mut entries),
                    }
                    (entries, basis)
                }
            };
            let origin = self.table.me();
            let update = RoutingUpdate {
                origin,
                pad,
                entries,
            };
            out.push(Output::Advertise {
                iface: i,
                update,
                scanned,
            });
        }
    }

    /// An incremental-mode keepalive: an empty update on every up
    /// interface, with no table and (almost) no CPU.
    fn keepalive(&self, env: &mut Env<'_, impl Interfaces>) {
        env.io.out.push(Output::Emit(Emission::Keepalive));
        for i in (0..env.ifaces.count()).filter(|&i| env.ifaces.up(i)) {
            let update = RoutingUpdate {
                origin: self.table.me(),
                pad: 0,
                entries: Vec::new(),
            };
            env.io.out.push(Output::Advertise {
                iface: i,
                update,
                scanned: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dv::DvConfig;

    /// A fake driver: every interface up, one peer each.
    struct Peers(Vec<NodeId>);

    impl Interfaces for Peers {
        fn count(&self) -> usize {
            self.0.len()
        }
        fn up(&self, _i: usize) -> bool {
            true
        }
        fn peers_into(&self, i: usize, out: &mut Vec<NodeId>) {
            out.push(self.0[i]);
        }
    }

    const MS: Duration = Duration(1_000_000);
    /// RIP's period: no jitter, so every interval is exactly 30 s.
    const TP: Duration = Duration(30_000_000_000);

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Router 0 with a direct route to its one neighbour, 1.
    fn router(cfg: &RouterConfig) -> Router {
        let mut table = RoutingTable::new(0);
        table.install_direct(1);
        table.set_dirty_tracking(cfg.dv.triggered_delta);
        Router::new(table, routesync_rng::stream(1, 0), cfg)
    }

    fn cfg(dv: DvConfig) -> RouterConfig {
        RouterConfig::new(dv)
    }

    /// Run one entry point and return what it produced.
    fn drive(
        r: &mut Router,
        cfg: &RouterConfig,
        call: impl FnOnce(&mut Router, &mut Env<'_, Peers>),
    ) -> Vec<Output> {
        let mut io = Io::default();
        let peers = Peers(vec![1]);
        let mut env = Env {
            cfg,
            ifaces: &peers,
            io: &mut io,
        };
        call(r, &mut env);
        io.out
    }

    fn arms(out: &[Output]) -> Vec<SimTime> {
        out.iter()
            .filter_map(|o| match o {
                Output::Arm(at) => Some(*at),
                _ => None,
            })
            .collect()
    }

    fn emissions(out: &[Output]) -> Vec<Emission> {
        out.iter()
            .filter_map(|o| match o {
                Output::Emit(e) => Some(*e),
                _ => None,
            })
            .collect()
    }

    fn busy_until(out: &[Output]) -> Option<SimTime> {
        out.iter().rev().find_map(|o| match o {
            Output::Busy { until, .. } => Some(*until),
            _ => None,
        })
    }

    /// Two entries from neighbour 1: its self route and a new destination.
    fn update() -> [RouteEntry; 2] {
        [
            RouteEntry { dst: 1, metric: 0 },
            RouteEntry { dst: 7, metric: 1 },
        ]
    }

    /// (a) Under `AfterProcessing` an update landing inside the router's
    /// own busy period delays the arm by that update's cost; under
    /// `OnExpiry` the arm is fixed at the fire instant.
    #[test]
    fn updates_inside_the_busy_period_delay_the_arm() {
        let coupled = cfg(DvConfig::rip().with_pad(8));
        let mut r = router(&coupled);
        let fire = secs(100);
        let out = drive(&mut r, &coupled, |r, env| r.on_timer(fire, env));
        // Own update: 2 table rows plus 8 padding entries.
        let own = MS * 10;
        assert_eq!(emissions(&out), [Emission::Periodic]);
        assert_eq!(busy_until(&out), Some(fire + own));
        assert!(arms(&out).is_empty(), "armed while busy");
        let landed = fire + MS;
        let entries = update();
        let out = drive(&mut r, &coupled, |r, env| {
            r.on_update(landed, 1, &entries, 8, env);
        });
        // The peer's update: 2 entries plus 8 padding entries.
        let peer = MS * 10;
        assert_eq!(busy_until(&out), Some(fire + own + peer));
        let free = fire + own + peer;
        let out = drive(&mut r, &coupled, |r, env| r.on_cpu_free(free, env));
        // The new route triggered an update, deferred to CPU-free; its
        // preparation (3 rows + 8 padding) pushes the arm back again.
        assert_eq!(emissions(&out), [Emission::Triggered { delta: false }]);
        let prep = MS * 11;
        assert!(arms(&out).is_empty());
        let out = drive(&mut r, &coupled, |r, env| r.on_cpu_free(free + prep, env));
        assert_eq!(arms(&out), [free + prep + TP]);

        let mut dv = DvConfig::rip().with_pad(8);
        dv.reset_policy = TimerResetPolicy::OnExpiry;
        let uncoupled = cfg(dv);
        let mut r = router(&uncoupled);
        let out = drive(&mut r, &uncoupled, |r, env| r.on_timer(fire, env));
        assert_eq!(arms(&out), [fire + TP]);
        let out = drive(&mut r, &uncoupled, |r, env| {
            r.on_update(landed, 1, &entries, 8, env);
        });
        assert!(arms(&out).is_empty());
        let out = drive(&mut r, &uncoupled, |r, env| r.on_cpu_free(free, env));
        assert!(arms(&out).is_empty(), "OnExpiry never re-arms at CPU-free");
    }

    /// (b) A triggered update asked for while busy goes out exactly once,
    /// at CPU-free, with its preparation cost charged.
    #[test]
    fn a_triggered_update_waits_for_cpu_free_and_goes_out_once() {
        let c = cfg(DvConfig::rip());
        let mut r = router(&c);
        let t = secs(5);
        let entries = update();
        let out = drive(&mut r, &c, |r, env| {
            assert!(r.on_update(t, 1, &entries, 0, env).changed);
        });
        // Busy digesting the update: nothing sent yet.
        assert!(emissions(&out).is_empty());
        let free = busy_until(&out).expect("the update cost CPU");
        assert_eq!(free, t + MS * 2);
        let out = drive(&mut r, &c, |r, env| r.on_cpu_free(free, env));
        assert_eq!(emissions(&out), [Emission::Triggered { delta: false }]);
        // Preparation: the 3-row table scan.
        assert_eq!(busy_until(&out), Some(free + MS * 3));
        let sent: Vec<usize> = out
            .iter()
            .filter_map(|o| match o {
                Output::Advertise { iface, update, .. } => {
                    assert_eq!(update.entries.len(), 3);
                    Some(*iface)
                }
                _ => None,
            })
            .collect();
        assert_eq!(sent, [0]);
        let out = drive(&mut r, &c, |r, env| r.on_cpu_free(free + MS * 3, env));
        assert!(out.is_empty(), "sent twice: {out:?}");
    }

    /// (c) A crash drops the deferred triggered update and the pending
    /// arm; a reboot cold-starts with direct routes, one triggered
    /// announcement and a fresh arm.
    #[test]
    fn crash_forgets_and_reboot_cold_starts() {
        let c = cfg(DvConfig::rip());
        let mut r = router(&c);
        let fire = secs(30);
        drive(&mut r, &c, |r, env| r.on_timer(fire, env));
        let entries = update();
        let out = drive(&mut r, &c, |r, env| {
            r.on_update(fire + MS, 1, &entries, 0, env);
        });
        let free = busy_until(&out).unwrap();
        r.on_crash(fire + MS * 2);
        assert_eq!(r.table().len(), 1, "only the self route survives");
        assert!(!r.busy(fire + MS * 2));
        let out = drive(&mut r, &c, |r, env| r.on_cpu_free(free, env));
        assert!(out.is_empty(), "a crashed router's work survived: {out:?}");

        let boot = secs(90);
        let out = drive(&mut r, &c, |r, env| r.on_reboot(boot, &[1, 4], env));
        assert_eq!(emissions(&out), [Emission::Triggered { delta: false }]);
        assert_eq!(arms(&out), [boot + TP]);
        let routes: Vec<_> = r
            .table()
            .iter()
            .map(|(d, route)| (d, route.metric))
            .collect();
        assert_eq!(routes, [(0, 0), (1, 1), (4, 1)]);
    }

    /// (d) A delta-triggered update with nothing dirty sends nothing.
    #[test]
    fn a_delta_update_with_nothing_dirty_is_not_sent() {
        let c = cfg(DvConfig::rip().with_triggered_delta(true));
        let mut r = router(&c);
        // The periodic update flushes the dirty set.
        let out = drive(&mut r, &c, |r, env| r.on_timer(secs(30), env));
        let free = busy_until(&out).unwrap();
        // An adjacency event after the CPU frees asks for a triggered
        // update, but no route is dirty.
        let out = drive(&mut r, &c, |r, env| r.on_neighbors(free, &[], true, env));
        assert!(out.is_empty(), "{out:?}");
        // With a route dirtied, the delta carries just that route.
        let out = drive(&mut r, &c, |r, env| r.on_neighbors(free, &[1], false, env));
        assert_eq!(emissions(&out), [Emission::Triggered { delta: true }]);
        let Some(Output::Advertise { update, .. }) = out.last() else {
            panic!("no advertisement: {out:?}");
        };
        assert_eq!(update.entries, [RouteEntry { dst: 1, metric: 16 }]);
    }

    /// A checkpoint written before `MinStd` lost its algorithm tag still
    /// resumes: the tag is ignored and the stream continues unchanged.
    #[test]
    fn control_written_with_an_algorithm_tag_still_reads() {
        let old = r#"{"rng":{"state":1733673622,"algorithm":"CartaFold"},"jitter":{"Uniform":{"tp":120000000000,"tr":50000000}},"busy_until":0,"arm_when_free":false,"pending_triggered":false,"sent_initial_full":false,"slowdown":1.0}"#;
        let new = old.replace(r#","algorithm":"CartaFold""#, "");
        let mut from_old: Control = serde_json::from_str(old).expect("old format parses");
        let mut from_new: Control = serde_json::from_str(&new).expect("new format parses");
        assert_eq!(from_old, from_new);
        assert_eq!(serde_json::to_string(&from_old).unwrap(), new);
        assert_eq!(from_old.rng, MinStd::new(1_733_673_622));
        for _ in 0..16 {
            assert_eq!(from_old.rng.next(), from_new.rng.next());
        }
    }
}
