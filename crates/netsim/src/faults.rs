//! Deterministic fault injection: a typed plan of scheduled and
//! stochastic network faults.
//!
//! The paper's central claim is that synchronization is an emergent
//! *attractor*: perturbed systems drift back into lockstep (Section 4),
//! and triggered updates after topology changes are a key injection path
//! for coupling (Section 3.1). Testing that claim requires perturbing the
//! network — and doing it *reproducibly*, because every experiment in
//! this workspace promises byte-identical output for a given seed.
//!
//! A [`FaultPlan`] describes what goes wrong and when:
//!
//! * **scheduled events** — link down/up, router crash/reboot at exact
//!   simulated instants ([`FaultPlan::link_down_at`] and friends);
//! * **stochastic link flaps** — a link alternates up/down with
//!   exponentially distributed time-between-failures (MTBF) and
//!   time-to-repair (MTTR) ([`FaultPlan::flap_link`]);
//! * **stochastic router flaps** — the same alternation for whole
//!   routers: crash, then reboot ([`FaultPlan::flap_router`]);
//! * **link impairments** — per-packet loss and reordering probabilities
//!   ([`FaultPlan::lossy_link`], [`FaultPlan::reorder_link`]);
//! * **CPU slowdowns** — a per-router multiplier on control-plane
//!   processing cost, modelling an overloaded or under-provisioned
//!   router ([`FaultPlan::slow_router`]).
//!
//! Install a plan with [`crate::NetSim::install_faults`], or — the usual
//! route — pass it to [`crate::ScenarioSpec::with_faults`]. All stochastic
//! decisions draw from dedicated `routesync-rng` streams derived from the
//! simulator's seed, *never* from the per-node RNGs, so the same
//! `(seed, plan)` reproduces the same fault sequence byte-for-byte and an
//! empty plan leaves the simulation bit-identical to a fault-free run.
//!
//! The simulator logs every topology-affecting fault it applies as a
//! [`FaultRecord`]; read the sequence back with
//! [`crate::NetSim::fault_log`].

use routesync_desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};

use crate::area::AreaLayout;
use crate::topology::{LinkId, NodeId};

/// Base RNG stream index for stochastic link flaps (one stream per flap
/// profile). Far above any node id, so fault streams never collide with
/// the per-node RNGs (`stream(seed, node_id)`) or the topology-generation
/// stream used by the random-mesh scenario.
pub(crate) const LINK_FLAP_STREAM: u64 = 0xFA00_0000;
/// Base RNG stream index for stochastic router flaps.
pub(crate) const ROUTER_FLAP_STREAM: u64 = 0xFB00_0000;
/// Base RNG stream index for per-link loss/reorder draws.
pub(crate) const IMPAIR_STREAM: u64 = 0xFC00_0000;

/// One scheduled fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Take a link down (queued packets drop; attached routers poison
    /// dependent routes, exactly like `schedule_link_down`).
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Crash a router: its routing table is wiped, its timers stop, and
    /// every packet addressed to it drops until it reboots.
    RouterCrash(NodeId),
    /// Reboot a crashed router: it cold-starts with only its direct
    /// routes and announces itself with a triggered update — the storm
    /// injection path of the paper's Section 3.1.
    RouterReboot(NodeId),
}

/// A fault action bound to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A stochastic up/down alternation for one link: up for an
/// exponentially distributed time with mean `mtbf`, then down for an
/// exponentially distributed time with mean `mttr`, forever.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlapProfile {
    /// The flapping link.
    pub link: LinkId,
    /// Mean time between failures (mean of the up-time distribution).
    pub mtbf: Duration,
    /// Mean time to repair (mean of the down-time distribution).
    pub mttr: Duration,
}

/// A stochastic crash/reboot alternation for one router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterFlapProfile {
    /// The flapping router.
    pub node: NodeId,
    /// Mean time between crashes.
    pub mtbf: Duration,
    /// Mean outage duration before the reboot.
    pub mttr: Duration,
}

/// Per-packet loss and reordering on one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkImpairment {
    /// The impaired link.
    pub link: LinkId,
    /// Probability in `[0, 1]` that a packet on this link is lost.
    pub loss: f64,
    /// Probability in `[0, 1]` that a surviving packet is delayed by
    /// `reorder_delay` (arriving behind packets sent after it).
    pub reorder: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_delay: Duration,
}

/// A control-plane CPU slowdown for one router: every update-processing
/// and update-preparation cost is multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSlowdown {
    /// The slowed router.
    pub node: NodeId,
    /// Cost multiplier (`2.0` = half-speed CPU; must be `> 0`).
    pub factor: f64,
}

/// A complete fault schedule for one simulation run. Build with the
/// chainable methods, then hand to [`crate::ScenarioSpec::with_faults`]
/// or [`crate::NetSim::install_faults`].
///
/// ```
/// use routesync_desim::{Duration, SimTime};
/// use routesync_netsim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_at(3, SimTime::from_secs(600))
///     .reboot_at(3, SimTime::from_secs(900))
///     .flap_link(0, Duration::from_secs(400), Duration::from_secs(40))
///     .lossy_link(1, 0.01)
///     .slow_router(2, 2.0);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub(crate) scheduled: Vec<ScheduledFault>,
    pub(crate) link_flaps: Vec<LinkFlapProfile>,
    pub(crate) router_flaps: Vec<RouterFlapProfile>,
    pub(crate) impairments: Vec<LinkImpairment>,
    pub(crate) slowdowns: Vec<CpuSlowdown>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; installing it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
            && self.link_flaps.is_empty()
            && self.router_flaps.is_empty()
            && self.impairments.is_empty()
            && self.slowdowns.is_empty()
    }

    /// Schedule an arbitrary [`FaultAction`] at `at`.
    pub fn schedule(mut self, at: SimTime, action: FaultAction) -> Self {
        self.scheduled.push(ScheduledFault { at, action });
        self
    }

    /// Take `link` down at `at`.
    pub fn link_down_at(self, link: LinkId, at: SimTime) -> Self {
        self.schedule(at, FaultAction::LinkDown(link))
    }

    /// Bring `link` back up at `at`.
    pub fn link_up_at(self, link: LinkId, at: SimTime) -> Self {
        self.schedule(at, FaultAction::LinkUp(link))
    }

    /// Crash router `node` at `at`.
    pub fn crash_at(self, node: NodeId, at: SimTime) -> Self {
        self.schedule(at, FaultAction::RouterCrash(node))
    }

    /// Reboot router `node` at `at` (a no-op unless it is crashed then).
    pub fn reboot_at(self, node: NodeId, at: SimTime) -> Self {
        self.schedule(at, FaultAction::RouterReboot(node))
    }

    /// Crash every router in area `k` of `layout` at `at` — a whole-area
    /// outage, the hierarchical analogue of [`FaultPlan::crash_at`].
    /// Actions are scheduled in ascending node-id order, so the fault log
    /// is deterministic.
    pub fn crash_area_at(mut self, layout: &AreaLayout, k: usize, at: SimTime) -> Self {
        for node in layout.members(k) {
            self = self.crash_at(node, at);
        }
        self
    }

    /// Reboot every router in area `k` of `layout` at `at` (each reboot is
    /// a no-op for routers that are not crashed then). The resulting burst
    /// of triggered updates is the paper's Section 3.1 storm injection
    /// path, scaled to a whole area.
    pub fn reboot_area_at(mut self, layout: &AreaLayout, k: usize, at: SimTime) -> Self {
        for node in layout.members(k) {
            self = self.reboot_at(node, at);
        }
        self
    }

    /// Flap `link` stochastically: exponentially distributed up-times with
    /// mean `mtbf` and down-times with mean `mttr`.
    pub fn flap_link(mut self, link: LinkId, mtbf: Duration, mttr: Duration) -> Self {
        assert!(!mtbf.is_zero() && !mttr.is_zero(), "flap means must be > 0");
        self.link_flaps.push(LinkFlapProfile { link, mtbf, mttr });
        self
    }

    /// Flap router `node` stochastically: exponentially distributed
    /// up-times with mean `mtbf`, outages with mean `mttr`.
    pub fn flap_router(mut self, node: NodeId, mtbf: Duration, mttr: Duration) -> Self {
        assert!(!mtbf.is_zero() && !mttr.is_zero(), "flap means must be > 0");
        self.router_flaps
            .push(RouterFlapProfile { node, mtbf, mttr });
        self
    }

    /// Drop each packet on `link` independently with probability `loss`.
    pub fn lossy_link(self, link: LinkId, loss: f64) -> Self {
        self.impair(LinkImpairment {
            link,
            loss,
            reorder: 0.0,
            reorder_delay: Duration::ZERO,
        })
    }

    /// Delay each surviving packet on `link` by `delay` with probability
    /// `reorder` (so it arrives behind later traffic).
    pub fn reorder_link(self, link: LinkId, reorder: f64, delay: Duration) -> Self {
        self.impair(LinkImpairment {
            link,
            loss: 0.0,
            reorder,
            reorder_delay: delay,
        })
    }

    /// Add a combined loss/reorder impairment. At most one impairment per
    /// link; a second one for the same link replaces the first.
    pub fn impair(mut self, imp: LinkImpairment) -> Self {
        assert!(
            (0.0..=1.0).contains(&imp.loss) && (0.0..=1.0).contains(&imp.reorder),
            "probabilities must be in [0, 1]"
        );
        if let Some(existing) = self.impairments.iter_mut().find(|i| i.link == imp.link) {
            *existing = imp;
        } else {
            self.impairments.push(imp);
        }
        self
    }

    /// The scheduled (deterministic) fault actions, in insertion order.
    /// Read by consumers that apply plans outside the simulator — the
    /// live daemon replays crashes/reboots against real sockets.
    pub fn scheduled(&self) -> &[ScheduledFault] {
        &self.scheduled
    }

    /// The per-link impairments. At most one entry per link
    /// ([`FaultPlan::impair`] replaces).
    pub fn impairments(&self) -> &[LinkImpairment] {
        &self.impairments
    }

    /// The stochastic link flaps.
    pub fn link_flaps(&self) -> &[LinkFlapProfile] {
        &self.link_flaps
    }

    /// The stochastic router flaps.
    pub fn router_flaps(&self) -> &[RouterFlapProfile] {
        &self.router_flaps
    }

    /// The CPU slowdowns.
    pub fn slowdowns(&self) -> &[CpuSlowdown] {
        &self.slowdowns
    }

    /// Multiply router `node`'s control-plane CPU costs by `factor`.
    pub fn slow_router(mut self, node: NodeId, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "factor must be > 0");
        if let Some(existing) = self.slowdowns.iter_mut().find(|s| s.node == node) {
            existing.factor = factor;
        } else {
            self.slowdowns.push(CpuSlowdown { node, factor });
        }
        self
    }
}

/// What kind of fault a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A link went down (`subject` = link id).
    LinkDown,
    /// A link came back up (`subject` = link id).
    LinkUp,
    /// A router crashed (`subject` = node id).
    RouterCrash,
    /// A router rebooted (`subject` = node id).
    RouterReboot,
}

/// One applied topology-affecting fault, as logged by the simulator.
/// Per-packet loss/reorder decisions are *not* logged (they are counted
/// in [`crate::Counters`] instead); the log stays small and exactly
/// reproducible from `(seed, plan)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// When the fault was applied.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultKind,
    /// The link or node it happened to.
    pub subject: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::new()
            .link_down_at(0, SimTime::from_secs(1))
            .is_empty());
        assert!(!FaultPlan::new().slow_router(0, 2.0).is_empty());
    }

    #[test]
    fn area_faults_expand_to_member_actions_in_order() {
        let layout = AreaLayout::from_sizes(&[2, 3]);
        let plan = FaultPlan::new()
            .crash_area_at(&layout, 1, SimTime::from_secs(10))
            .reboot_area_at(&layout, 1, SimTime::from_secs(20));
        let crash: Vec<_> = plan.scheduled[..3].iter().map(|s| s.action).collect();
        assert_eq!(
            crash,
            vec![
                FaultAction::RouterCrash(2),
                FaultAction::RouterCrash(3),
                FaultAction::RouterCrash(4),
            ]
        );
        assert!(plan.scheduled[3..]
            .iter()
            .all(|s| s.at == SimTime::from_secs(20)
                && matches!(s.action, FaultAction::RouterReboot(n) if (2..5).contains(&n))));
        // An empty area expands to nothing.
        let empty = AreaLayout::from_starts(vec![0, 2, 2]);
        assert!(FaultPlan::new()
            .crash_area_at(&empty, 1, SimTime::from_secs(1))
            .is_empty());
    }

    #[test]
    fn impair_replaces_per_link() {
        let plan =
            FaultPlan::new()
                .lossy_link(2, 0.5)
                .reorder_link(2, 0.1, Duration::from_millis(5));
        assert_eq!(plan.impairments.len(), 1);
        assert_eq!(plan.impairments[0].loss, 0.0);
        assert_eq!(plan.impairments[0].reorder, 0.1);
        let plan = plan.lossy_link(3, 0.2);
        assert_eq!(plan.impairments.len(), 2);
    }

    #[test]
    fn slowdown_replaces_per_node() {
        let plan = FaultPlan::new().slow_router(1, 2.0).slow_router(1, 3.0);
        assert_eq!(plan.slowdowns.len(), 1);
        assert_eq!(plan.slowdowns[0].factor, 3.0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn out_of_range_loss_rejected() {
        let _ = FaultPlan::new().lossy_link(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn zero_slowdown_rejected() {
        let _ = FaultPlan::new().slow_router(0, 0.0);
    }
}
