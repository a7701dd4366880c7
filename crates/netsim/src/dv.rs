//! Distance-vector routing: tables and protocol configuration.
//!
//! This is the protocol family the paper's measurements concern — RIP,
//! IGRP, DECnet DNA IV, EGP and Hello all broadcast their full routing
//! table on a periodic timer. The table logic here is RIP-shaped
//! (RFC 1058): hop-count metric with an infinity of 16, split horizon with
//! poisoned reverse, triggered updates on metric changes, route timeout and
//! garbage collection. The *timing* of updates (the part the paper is
//! about) is driven by [`crate::sim::NetSim`] through the same
//! [`JitterPolicy`]/[`TimerResetPolicy`] knobs as the abstract model.
//!
//! The table itself is a sorted `Vec` of destinations, the search key,
//! beside one `Vec` of rows holding each destination's metric, next hop
//! and three clocks: two allocations per table, and every kernel reads one
//! row per entry it touches. A single destination is looked up by binary
//! search; an update's entries are merged in one forward pass (see
//! [`RoutingTable::process_update_with`]), linear in the table for a
//! sorted full-table update. Entry iteration is always in ascending destination
//! order — advertisements come out sorted without a sort, and behaviour is
//! reproducible without hashing anywhere. Beyond the classic full-table
//! advertisement the table supports **delta advertisements** (only
//! destinations dirtied since the last flush, for incremental triggered
//! updates) and **area-aggregated advertisements** (exact routes stay
//! inside their [`crate::area::AreaLayout`] area;
//! remote areas collapse to one aggregate entry; stub links receive an
//! originated default route) — the machinery that keeps tables small at
//! internet scale.

use std::hint::select_unpredictable;

use routesync_desim::{Duration, SimTime};
use routesync_rng::{JitterPolicy, TimerResetPolicy};
use serde::{Deserialize, Serialize};

use crate::area::{AreaLayout, AreaMode, DEFAULT_DST};
use crate::topology::NodeId;

/// One advertised route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Destination node.
    pub dst: NodeId,
    /// Advertised metric (hop count; `infinity` = unreachable).
    pub metric: u32,
}

/// Hello (neighbour liveness) protocol configuration.
///
/// The paper lists the DCN Hello protocol \[Mi83\] among the periodic
/// protocols matching its model. With hellos enabled, routers learn of
/// link failures by *missing hellos* (after `dead_multiplier` intervals)
/// instead of by oracle; each hello interval is drawn uniformly from
/// `[0.75, 1.25] × interval` — the jitter every modern hello protocol
/// applies, for exactly this paper's reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloConfig {
    /// Nominal hello interval (e.g. 10 s).
    pub interval: Duration,
    /// A neighbour is dead after this many silent intervals (e.g. 3-4).
    pub dead_multiplier: u32,
}

impl HelloConfig {
    /// OSPF-flavoured defaults: 10-second hellos, dead after 4 intervals.
    pub fn standard() -> Self {
        HelloConfig {
            interval: Duration::from_secs(10),
            dead_multiplier: 4,
        }
    }

    /// The dead interval.
    pub fn dead_after(&self) -> Duration {
        self.interval * self.dead_multiplier as u64
    }
}

/// When routing information is transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UpdateMode {
    /// The classic periodic full-table broadcast (RIP/IGRP/DECnet/EGP) —
    /// the behaviour the paper's model captures.
    #[default]
    PeriodicFullTable,
    /// BGP-style: one full advertisement at session start, then updates
    /// only on change; the periodic timer sends only a tiny keepalive.
    /// The paper's Section 3 footnote singles this design out ("BGP …
    /// only requires routers to send incremental update messages") — it
    /// removes the periodic control-plane burst entirely, so there is
    /// nothing to synchronize. Route aging is disabled (liveness is the
    /// hello protocol's job, as in real BGP sessions).
    Incremental,
}

/// Protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvConfig {
    /// Timer policy for periodic updates (carries `Tp` and `Tr`).
    pub jitter: JitterPolicy,
    /// Periodic full tables vs incremental-only.
    pub update_mode: UpdateMode,
    /// When the update timer is re-armed — the paper's central knob.
    pub reset_policy: TimerResetPolicy,
    /// Unreachable metric (16 for RIP).
    pub infinity: u32,
    /// A route not refreshed for this long times out to `infinity`
    /// (180 s for RIP).
    pub route_timeout: Duration,
    /// An unreachable route is kept (and advertised as poisoned) for this
    /// long before being deleted (RIP's garbage-collection timer, 120 s).
    pub gc_timeout: Duration,
    /// Whether metric changes emit immediate triggered updates.
    pub triggered_updates: bool,
    /// Incremental triggered updates: a triggered update carries only the
    /// routes that changed since the router last advertised, instead of
    /// the full table. Periodic updates still refresh everything. Off by
    /// default (classic RIP resends the full table), on in the
    /// internet-scale hierarchical scenarios.
    pub triggered_delta: bool,
    /// IGRP-style hold-down: after a destination becomes unreachable,
    /// ignore alternative routes to it (from anyone but the original next
    /// hop) for this long. Prevents believing stale "good news" during a
    /// failure cascade, at the price of slower legitimate recovery.
    pub holddown: Option<Duration>,
    /// Split horizon with poisoned reverse.
    pub split_horizon: bool,
    /// Neighbour liveness via periodic hellos. `None` = failures are
    /// signalled instantly by the simulator (an oracle — convenient for
    /// experiments that are not about detection latency).
    pub hello: Option<HelloConfig>,
    /// Extra synthetic entries counted into every update, modelling the
    /// large tables of 1992 backbone routers (NEARnet's carried ~300
    /// routes). They are counted for wire size and for the sender's and
    /// receiver's processing cost, but never materialised: an update
    /// carries them as a count, so receivers have nothing to filter.
    pub advertise_pad: usize,
}

impl DvConfig {
    /// RIP: 30-second updates (RFC 1058).
    pub fn rip() -> Self {
        DvConfig {
            jitter: JitterPolicy::None {
                tp: Duration::from_secs(30),
            },
            update_mode: UpdateMode::PeriodicFullTable,
            reset_policy: TimerResetPolicy::AfterProcessing,
            infinity: 16,
            route_timeout: Duration::from_secs(180),
            gc_timeout: Duration::from_secs(120),
            triggered_updates: true,
            triggered_delta: false,
            split_horizon: true,
            hello: None,
            holddown: None,
            advertise_pad: 0,
        }
    }

    /// IGRP: 90-second updates with a 280-second hold-down.
    pub fn igrp() -> Self {
        DvConfig {
            jitter: JitterPolicy::None {
                tp: Duration::from_secs(90),
            },
            route_timeout: Duration::from_secs(270),
            holddown: Some(Duration::from_secs(280)),
            ..Self::rip()
        }
    }

    /// DECnet DNA Phase IV: 120-second updates (the protocol whose
    /// synchronization on the authors' own Ethernet started this paper).
    pub fn decnet() -> Self {
        DvConfig {
            jitter: JitterPolicy::None {
                tp: Duration::from_secs(120),
            },
            route_timeout: Duration::from_secs(360),
            ..Self::rip()
        }
    }

    /// BGP-flavoured: incremental updates with 60-second keepalives and
    /// hello-based liveness; no periodic full-table burst, no route aging.
    pub fn bgp() -> Self {
        DvConfig {
            jitter: JitterPolicy::None {
                tp: Duration::from_secs(60),
            },
            update_mode: UpdateMode::Incremental,
            hello: Some(HelloConfig::standard()),
            // Aging is meaningless without periodic refresh.
            route_timeout: Duration::MAX,
            ..Self::rip()
        }
    }

    /// EGP: 180-second updates (NSFNET backbone to regionals).
    pub fn egp() -> Self {
        DvConfig {
            jitter: JitterPolicy::None {
                tp: Duration::from_secs(180),
            },
            route_timeout: Duration::from_secs(540),
            ..Self::rip()
        }
    }

    /// Replace the jitter policy (e.g. to apply the paper's fix).
    pub fn with_jitter(mut self, jitter: JitterPolicy) -> Self {
        self.jitter = jitter;
        self
    }

    /// Replace the hold-down setting.
    pub fn with_holddown(mut self, holddown: Option<Duration>) -> Self {
        self.holddown = holddown;
        self
    }

    /// Enable hello-based neighbour liveness.
    pub fn with_hello(mut self, hello: HelloConfig) -> Self {
        self.hello = Some(hello);
        self
    }

    /// Replace the advertised-table padding.
    pub fn with_pad(mut self, pad: usize) -> Self {
        self.advertise_pad = pad;
        self
    }

    /// Enable or disable incremental (delta) triggered updates.
    pub fn with_triggered_delta(mut self, delta: bool) -> Self {
        self.triggered_delta = delta;
        self
    }
}

/// A route as held in the table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Current metric.
    pub metric: u32,
    /// Next hop towards the destination.
    pub next_hop: NodeId,
    /// Last time this route was refreshed.
    pub last_heard: SimTime,
    /// If set, alternative routes to this destination are refused until
    /// this instant (hold-down).
    pub holddown_until: Option<SimTime>,
    /// When the route became unreachable (drives garbage collection).
    pub dead_since: Option<SimTime>,
}

/// "No hold-down" sentinel: `now < NO_HOLDDOWN` is false for every `now`,
/// exactly matching the `Option::None` semantics it encodes.
const NO_HOLDDOWN: SimTime = SimTime::ZERO;
/// "Not dead" sentinel (a real death instant is always an actual sim
/// time; guard before arithmetic).
const NOT_DEAD: SimTime = SimTime::MAX;

/// What one [`RoutingTable::process_update_with`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateOutcome {
    /// Whether any route changed (feeds triggered updates).
    pub changed: bool,
    /// Table rows compared while locating the update's entries: the
    /// merge's cost.
    pub probes: u64,
}

/// One table row: a destination's route, with the sentinel-encoded clocks
/// the kernels compare without unwrapping an `Option`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    next_hop: NodeId,
    last_heard: SimTime,
    /// [`NO_HOLDDOWN`] when no hold-down is active.
    holddown_until: SimTime,
    /// [`NOT_DEAD`] while the route is alive.
    dead_since: SimTime,
    metric: u32,
}

impl Row {
    /// A live route with no hold-down.
    fn live(metric: u32, next_hop: NodeId, last_heard: SimTime) -> Row {
        Row {
            next_hop,
            last_heard,
            holddown_until: NO_HOLDDOWN,
            dead_since: NOT_DEAD,
            metric,
        }
    }

    fn route(&self) -> Route {
        Route {
            metric: self.metric,
            next_hop: self.next_hop,
            last_heard: self.last_heard,
            holddown_until: (self.holddown_until != NO_HOLDDOWN).then_some(self.holddown_until),
            dead_since: (self.dead_since != NOT_DEAD).then_some(self.dead_since),
        }
    }
}

/// A router's routing table: sorted destinations and their rows.
/// Binary-search lookups, merged updates, ordered iteration, no hashing,
/// and two heap allocations (three with dirty tracking).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    me: NodeId,
    /// Sorted, and apart from the rows: a search passes many destinations
    /// but reads the route of only the one it finds, so it reads 8 bytes
    /// per destination passed rather than a whole row.
    dsts: Vec<NodeId>,
    /// `rows[i]` is the route to `dsts[i]`.
    rows: Vec<Row>,
    /// When set, destinations whose routes change are recorded in `dirty`
    /// (drives delta triggered updates).
    track_dirty: bool,
    dirty: Vec<NodeId>,
}

impl RoutingTable {
    /// A table for router `me`, containing only the self-route.
    pub fn new(me: NodeId) -> Self {
        let mut t = RoutingTable {
            me,
            dsts: Vec::new(),
            rows: Vec::new(),
            track_dirty: false,
            dirty: Vec::new(),
        };
        t.insert_self();
        t
    }

    fn insert_self(&mut self) {
        // Self-route: metric 0, never expires.
        self.insert(0, self.me, Row::live(0, self.me, SimTime::MAX));
    }

    /// The router this table belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Wipe the table back to the cold-start state: only the self-route
    /// survives. This is a router crash — direct routes come back via
    /// [`RoutingTable::install_direct`] on reboot, and everything else must
    /// be re-learned from neighbours' advertisements. Keeps the rows'
    /// capacity, so crash/reboot cycles do not reallocate.
    pub fn reset(&mut self) {
        self.dsts.clear();
        self.rows.clear();
        self.dirty.clear();
        self.insert_self();
    }

    fn find(&self, dst: NodeId) -> Result<usize, usize> {
        self.dsts.binary_search(&dst)
    }

    fn insert(&mut self, i: usize, dst: NodeId, row: Row) {
        self.dsts.insert(i, dst);
        self.rows.insert(i, row);
    }

    /// Keep the entries for which `keep(dst, row)` holds, in order.
    fn retain(&mut self, keep: impl Fn(NodeId, &Row) -> bool) {
        let mut w = 0;
        for r in 0..self.dsts.len() {
            if keep(self.dsts[r], &self.rows[r]) {
                self.dsts[w] = self.dsts[r];
                self.rows[w] = self.rows[r];
                w += 1;
            }
        }
        self.dsts.truncate(w);
        self.rows.truncate(w);
    }

    fn mark_dirty(&mut self, dst: NodeId) {
        if self.track_dirty {
            self.dirty.push(dst);
        }
    }

    /// Enable or disable dirty-destination tracking (delta updates).
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.track_dirty = on;
        if !on {
            self.dirty.clear();
        }
    }

    /// Whether any destination changed since the last dirty flush.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Move the dirtied destinations (sorted, deduplicated) into `out`
    /// and clear the internal set.
    pub fn take_dirty_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        out.append(&mut self.dirty);
        out.sort_unstable();
        out.dedup();
    }

    fn upsert(&mut self, dst: NodeId, metric: u32, next_hop: NodeId) {
        let row = Row::live(metric, next_hop, SimTime::MAX);
        match self.find(dst) {
            Ok(i) => self.rows[i] = row,
            Err(i) => self.insert(i, dst, row),
        }
        self.mark_dirty(dst);
    }

    /// Install a directly connected destination (metric 1, never expires —
    /// adjacency loss is signalled via [`RoutingTable::fail_via`]).
    pub fn install_direct(&mut self, neighbor: NodeId) {
        self.upsert(neighbor, 1, neighbor);
    }

    /// Install an arbitrary route (used for pre-converged scenarios).
    pub fn install(&mut self, dst: NodeId, metric: u32, next_hop: NodeId) {
        self.upsert(dst, metric, next_hop);
    }

    /// Bellman-Ford step for an update from `from` (a directly connected
    /// neighbour). Returns `true` if any route changed (feeds triggered
    /// updates).
    pub fn process_update(
        &mut self,
        from: NodeId,
        entries: &[RouteEntry],
        now: SimTime,
        infinity: u32,
    ) -> bool {
        self.process_update_with(from, entries, now, infinity, None)
            .changed
    }

    /// [`RoutingTable::process_update`] with an optional hold-down: after
    /// a route is lost, "good news" from anyone but the original next hop
    /// is refused until the hold-down expires.
    ///
    /// The entries are merged into the table in one forward pass. After an
    /// entry matches row `i` (or is inserted at `i`), the next one is first
    /// compared with row `i + 1` alone, so a sorted full-table refresh
    /// compares one row per entry; otherwise it is located by galloping
    /// from there (doubling the step, then binary-searching the bracket),
    /// so a sparse update of `k` entries into `n` rows costs
    /// `O(k log(n/k))`. Any order is accepted (the wire decoder does not
    /// enforce one): an entry at or below its predecessor restarts the
    /// search at row 0. Every entry lands on the row a binary search of
    /// the whole table would find, so the order changes only the cost,
    /// never the outcome.
    ///
    /// The common case, a matched row that does not change, is taken
    /// without data-dependent branches: `last_heard` is refreshed by a
    /// select, and one combined predicate over the metric and next hop
    /// decides whether the row may change. The changes themselves, and the
    /// hold-down test that can still refuse a better route, are in
    /// `RoutingTable::change_row`, so the hot loop never reads the
    /// hold-down clock.
    pub fn process_update_with(
        &mut self,
        from: NodeId,
        entries: &[RouteEntry],
        now: SimTime,
        infinity: u32,
        holddown: Option<Duration>,
    ) -> UpdateOutcome {
        let mut out = UpdateOutcome::default();
        // Every row below `cursor` sorts at or before the previous entry's
        // dst.
        let (mut cursor, mut prev) = (0, 0);
        for e in entries {
            if e.dst <= prev {
                cursor = 0;
            }
            prev = e.dst;
            let cand = (e.metric + 1).min(infinity);
            match self.seek(cursor, e.dst, &mut out.probes) {
                Ok(i) => {
                    // Updates from the current next hop are authoritative,
                    // better or worse, and refresh the route; anyone else
                    // only displaces it with a better metric (outside
                    // hold-down).
                    let row = &mut self.rows[i];
                    let via = row.next_hop == from;
                    row.last_heard = select_unpredictable(via, now, row.last_heard);
                    let metric = row.metric;
                    let may_change = (via & (metric != cand)) | (!via & (cand < metric));
                    if may_change && self.change_row(i, via, from, cand, now, infinity, holddown) {
                        out.changed = true;
                    }
                    cursor = i + 1;
                }
                Err(i) if cand < infinity => {
                    self.insert(i, e.dst, Row::live(cand, from, now));
                    self.mark_dirty(e.dst);
                    out.changed = true;
                    cursor = i + 1;
                }
                Err(i) => cursor = i,
            }
        }
        out
    }

    /// The rare half of [`RoutingTable::process_update_with`]: row `i`
    /// takes candidate metric `cand`, either from its own next hop (`via`:
    /// the metric changed, and a route that became unreachable starts its
    /// hold-down and gc clock) or as a better route from `from`, which a
    /// hold-down still in force refuses. Returns whether the row changed.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn change_row(
        &mut self,
        i: usize,
        via: bool,
        from: NodeId,
        cand: u32,
        now: SimTime,
        infinity: u32,
        holddown: Option<Duration>,
    ) -> bool {
        let row = &mut self.rows[i];
        if !via {
            if now < row.holddown_until {
                return false;
            }
            *row = Row::live(cand, from, now);
        } else if cand >= infinity && row.metric < infinity {
            // Route lost: start hold-down and the gc clock.
            row.holddown_until = holddown.map_or(NO_HOLDDOWN, |h| now + h);
            row.dead_since = now;
        } else if cand < infinity {
            row.dead_since = NOT_DEAD;
        }
        row.metric = cand;
        self.mark_dirty(self.dsts[i]);
        true
    }

    /// [`RoutingTable::find`] for a `dst` that every row below `lo` sorts
    /// before: compare row `lo` (the next row of a sorted update), and
    /// only if it sorts below `dst` gallop forward from the row after it,
    /// doubling the step, then binary-search the bracket. Adds the rows
    /// compared to `probes`.
    fn seek(&self, mut lo: usize, dst: NodeId, probes: &mut u64) -> Result<usize, usize> {
        *probes += 1;
        match self.dsts.get(lo) {
            Some(&d) if d == dst => return Ok(lo),
            Some(&d) if d < dst => lo += 1,
            _ => return Err(lo),
        }
        let mut hi = self.dsts.len();
        let mut step = 1;
        while let Some(&d) = self.dsts.get(lo + step - 1) {
            *probes += 1;
            if d >= dst {
                hi = lo + step - 1;
                break;
            }
            lo += step;
            step *= 2;
        }
        lo += self.dsts[lo..hi].partition_point(|&d| {
            *probes += 1;
            d < dst
        });
        match self.dsts.get(lo) {
            Some(&d) if d == dst => Ok(lo),
            _ => Err(lo),
        }
    }

    /// Mark every route through `next_hop` unreachable (link/neighbour
    /// failure). Returns `true` if anything changed.
    pub fn fail_via(&mut self, next_hop: NodeId, infinity: u32) -> bool {
        self.fail_via_with(next_hop, infinity, SimTime::ZERO, None)
    }

    /// [`RoutingTable::fail_via`] that also starts a hold-down on each
    /// lost route.
    pub fn fail_via_with(
        &mut self,
        next_hop: NodeId,
        infinity: u32,
        now: SimTime,
        holddown: Option<Duration>,
    ) -> bool {
        let mut changed = false;
        let hd = holddown.map_or(NO_HOLDDOWN, |h| now + h);
        for (&dst, row) in self.dsts.iter().zip(&mut self.rows) {
            if dst != self.me && row.next_hop == next_hop && row.metric < infinity {
                row.metric = infinity;
                row.holddown_until = hd;
                row.dead_since = now;
                changed = true;
                if self.track_dirty {
                    self.dirty.push(dst);
                }
            }
        }
        changed
    }

    /// Time out routes not refreshed within `timeout`. Returns `true` if
    /// anything changed.
    pub fn expire(&mut self, now: SimTime, timeout: Duration, infinity: u32) -> bool {
        let mut changed = false;
        for (&dst, row) in self.dsts.iter().zip(&mut self.rows) {
            if dst != self.me
                && row.last_heard != SimTime::MAX
                && row.metric < infinity
                && row.last_heard + timeout <= now
            {
                row.metric = infinity;
                row.dead_since = now;
                changed = true;
                if self.track_dirty {
                    self.dirty.push(dst);
                }
            }
        }
        changed
    }

    /// Drop every unreachable route immediately.
    pub fn gc(&mut self, infinity: u32) {
        let me = self.me;
        self.retain(|dst, r| dst == me || r.metric < infinity);
    }

    /// Drop unreachable routes that have been dead for at least `grace`
    /// (RIP's garbage-collection timer: the poisoned route is advertised
    /// for a while so neighbours hear the bad news, then deleted).
    pub fn gc_due(&mut self, now: SimTime, grace: Duration, infinity: u32) {
        let me = self.me;
        self.retain(|dst, r| {
            dst == me
                || r.metric < infinity
                || !(r.dead_since != NOT_DEAD && r.dead_since + grace <= now)
        });
    }

    /// Next hop towards `dst`, if a live route exists.
    pub fn lookup(&self, dst: NodeId, infinity: u32) -> Option<NodeId> {
        match self.find(dst) {
            Ok(i) if self.rows[i].metric < infinity => Some(self.rows[i].next_hop),
            _ => None,
        }
    }

    /// Metric towards `dst`.
    pub fn metric(&self, dst: NodeId) -> Option<u32> {
        self.find(dst).ok().map(|i| self.rows[i].metric)
    }

    /// Number of entries (including the self-route).
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Whether the table holds only the self-route.
    pub fn is_empty(&self) -> bool {
        self.dsts.len() <= 1
    }

    /// Iterate `(destination, route)` pairs in ascending destination
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Route)> + '_ {
        self.dsts
            .iter()
            .zip(&self.rows)
            .map(|(&dst, r)| (dst, r.route()))
    }

    /// The advertisement for an interface whose set of on-link neighbours
    /// is `link_peers`: with split horizon, routes learned through that
    /// interface are poisoned (advertised at `infinity`).
    pub fn advertisement(
        &self,
        link_peers: &[NodeId],
        split_horizon: bool,
        infinity: u32,
    ) -> Vec<RouteEntry> {
        let mut out = Vec::with_capacity(self.dsts.len());
        self.advertisement_into(link_peers, split_horizon, infinity, &mut out);
        out
    }

    /// [`RoutingTable::advertisement`] into a caller-supplied buffer, so a
    /// hot loop can reuse one allocation across links. Appends to `out`
    /// (callers clear or pre-fill as they see fit); appended entries are
    /// in ascending destination order.
    pub fn advertisement_into(
        &self,
        link_peers: &[NodeId],
        split_horizon: bool,
        infinity: u32,
        out: &mut Vec<RouteEntry>,
    ) {
        let me = self.me;
        out.extend(self.dsts.iter().zip(&self.rows).map(move |(&dst, r)| {
            // Two selects, not one on `split & (dst != me) & on_link`:
            // LLVM splits a select on a combined condition into nested
            // selects and turns one of them back into a branch on the
            // next hop, which no predictor learns from a mesh's tables.
            let poisoned = select_unpredictable(dst != me, infinity, r.metric);
            let reverse = split_horizon & on_link(link_peers, r.next_hop);
            RouteEntry {
                dst,
                metric: select_unpredictable(reverse, poisoned, r.metric),
            }
        }));
    }

    /// Like [`RoutingTable::advertisement_into`], but restricted to the
    /// destinations in `only` (sorted; destinations no longer present are
    /// skipped). This is the incremental triggered update: after a
    /// failure, only the dirtied routes go on the wire instead of the
    /// whole table.
    pub fn advertisement_delta_into(
        &self,
        only: &[NodeId],
        link_peers: &[NodeId],
        split_horizon: bool,
        infinity: u32,
        out: &mut Vec<RouteEntry>,
    ) {
        out.reserve(only.len());
        for &dst in only {
            let Ok(i) = self.find(dst) else { continue };
            let r = &self.rows[i];
            let poisoned = split_horizon & (dst != self.me) & on_link(link_peers, r.next_hop);
            out.push(RouteEntry {
                dst,
                metric: select_unpredictable(poisoned, infinity, r.metric),
            });
        }
    }

    /// The candidates of an area-aggregated advertisement: the entries it
    /// may carry on any link whose area is `link_area`, before split
    /// horizon. This is the first of two phases, and the scaling
    /// counterpart of [`RoutingTable::advertisement_into`]. A router runs
    /// it once per update for each distinct `link_area` among its up links
    /// (a border router has two, its own area and the backbone), then
    /// [`area_link_advertisement`] once per link. The rules:
    ///
    /// * exact routes are advertised only on links inside their own area
    ///   (and in [`AreaMode::TotallyStubby`] not even there — only the
    ///   sender's self route crosses a stub link);
    /// * aggregate routes (`AGG_BASE + k`) are advertised everywhere
    ///   except into area `k` itself and, under totally-stubby, not into
    ///   stub links (the default route covers them);
    /// * a border router (`originate_default`) originates the default
    ///   route at metric 0 on its intra-area links;
    /// * logical routes use plain split horizon (suppression, not
    ///   poisoned reverse), keeping backbone updates O(own entries)
    ///   instead of O(areas); exact routes keep classic poisoned reverse.
    ///
    /// With `only = Some(dirty)` the same rules apply restricted to the
    /// dirtied destinations (incremental triggered updates). Appended
    /// candidates are sorted by destination.
    #[allow(clippy::too_many_arguments)]
    pub fn area_candidates_into(
        &self,
        layout: &AreaLayout,
        mode: AreaMode,
        link_area: Option<usize>,
        originate_default: bool,
        split_horizon: bool,
        only: Option<&[NodeId]>,
        out: &mut Vec<AreaCandidate>,
    ) {
        let first = out.len();
        let mut consider = |dst: NodeId, r: &Row| {
            let split = if dst == self.me {
                SplitHorizon::Keep
            } else if dst == DEFAULT_DST {
                // Held default routes chain outward on intra-area links
                // only; an originated default supersedes a held one.
                if link_area.is_none() || originate_default {
                    return;
                }
                SplitHorizon::Omit
            } else if let Some(agg) = layout.agg_area(dst) {
                let into_own_area = link_area == Some(agg);
                let stubbed = link_area.is_some() && mode == AreaMode::TotallyStubby;
                if into_own_area || stubbed {
                    return;
                }
                SplitHorizon::Omit
            } else if mode == AreaMode::Stub
                && link_area.is_some()
                && layout.area_of(dst) == link_area
            {
                // Exact (physical) route: only inside its own area, and
                // only in Stub mode.
                SplitHorizon::Poison
            } else {
                return;
            };
            out.push(AreaCandidate {
                entry: RouteEntry {
                    dst,
                    metric: r.metric,
                },
                next_hop: r.next_hop,
                split: if split_horizon {
                    split
                } else {
                    SplitHorizon::Keep
                },
            });
        };
        match only {
            None => {
                for (&dst, r) in self.dsts.iter().zip(&self.rows) {
                    consider(dst, r);
                }
            }
            Some(only) => {
                for &dst in only {
                    if let Ok(i) = self.find(dst) {
                        consider(dst, &self.rows[i]);
                    }
                }
            }
        }
        if originate_default && link_area.is_some() {
            out.push(AreaCandidate {
                entry: RouteEntry {
                    dst: DEFAULT_DST,
                    metric: 0,
                },
                next_hop: self.me,
                split: SplitHorizon::Keep,
            });
        }
        out[first..].sort_unstable_by_key(|c| c.entry.dst);
    }
}

/// What split horizon does to an [`AreaCandidate`] on a link whose peers
/// include the candidate's next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitHorizon {
    /// Advertised unchanged: the self route, an originated default, or
    /// any route with split horizon off.
    Keep,
    /// Suppressed (plain split horizon, for logical routes).
    Omit,
    /// Advertised at `infinity` (poisoned reverse, for exact routes).
    Poison,
}

/// One entry an area-aggregated advertisement may carry, as found by
/// [`RoutingTable::area_candidates_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaCandidate {
    entry: RouteEntry,
    next_hop: NodeId,
    split: SplitHorizon,
}

/// The area-aggregated advertisement for one interface whose set of
/// on-link neighbours is `link_peers`: the second phase after
/// [`RoutingTable::area_candidates_into`], applying split horizon to each
/// candidate. The result keeps the candidates' destination order.
pub fn area_link_advertisement(
    candidates: &[AreaCandidate],
    link_peers: &[NodeId],
    infinity: u32,
) -> Vec<RouteEntry> {
    let mut out = Vec::with_capacity(candidates.len());
    for c in candidates {
        match c.split {
            SplitHorizon::Keep => out.push(c.entry),
            _ if !on_link(link_peers, c.next_hop) => out.push(c.entry),
            SplitHorizon::Omit => {}
            SplitHorizon::Poison => out.push(RouteEntry {
                dst: c.entry.dst,
                metric: infinity,
            }),
        }
    }
    out
}

/// Whether `next_hop` is one of a link's on-link neighbours `link_peers`:
/// the split-horizon test, written once for every advertisement kernel.
/// A point-to-point link has one peer and takes a single compare.
#[inline]
fn on_link(link_peers: &[NodeId], next_hop: NodeId) -> bool {
    match link_peers {
        [peer] => next_hop == *peer,
        peers => peers.contains(&next_hop),
    }
}

// Serde: the stable wire form is the sorted `(dst, route)` pair list —
// independent of the row layout.
impl Serialize for RoutingTable {
    fn to_value(&self) -> serde::Value {
        let routes: Vec<(NodeId, Route)> = self.iter().collect();
        serde::Value::Object(vec![
            ("me".to_string(), self.me.to_value()),
            ("routes".to_string(), routes.to_value()),
        ])
    }
}

impl Deserialize for RoutingTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let me = NodeId::from_value(
            v.get("me")
                .ok_or_else(|| serde::Error::custom("RoutingTable missing 'me'"))?,
        )?;
        let routes = Vec::<(NodeId, Route)>::from_value(
            v.get("routes")
                .ok_or_else(|| serde::Error::custom("RoutingTable missing 'routes'"))?,
        )?;
        let mut t = RoutingTable::new(me);
        for (dst, r) in routes {
            let row = Row {
                next_hop: r.next_hop,
                last_heard: r.last_heard,
                holddown_until: r.holddown_until.unwrap_or(NO_HOLDDOWN),
                dead_since: r.dead_since.unwrap_or(NOT_DEAD),
                metric: r.metric,
            };
            match t.find(dst) {
                Ok(i) => t.rows[i] = row,
                Err(i) => t.insert(i, dst, row),
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn bellman_ford_prefers_shorter_routes() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        // Node 1 advertises node 9 at metric 3 → via 1 at 4.
        assert!(t.process_update(1, &[RouteEntry { dst: 9, metric: 3 }], now(1), 16));
        assert_eq!(t.metric(9), Some(4));
        assert_eq!(t.lookup(9, 16), Some(1));
        // Node 2 advertises 9 at metric 1 → better, switch.
        assert!(t.process_update(2, &[RouteEntry { dst: 9, metric: 1 }], now(2), 16));
        assert_eq!(t.metric(9), Some(2));
        assert_eq!(t.lookup(9, 16), Some(2));
        // Node 1 advertising metric 5 is worse and not the next hop: no-op.
        assert!(!t.process_update(1, &[RouteEntry { dst: 9, metric: 5 }], now(3), 16));
        assert_eq!(t.lookup(9, 16), Some(2));
    }

    #[test]
    fn updates_from_next_hop_are_authoritative_even_when_worse() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 2 }], now(1), 16);
        assert_eq!(t.metric(9), Some(3));
        // The next hop's path degraded: we must follow it up.
        assert!(t.process_update(1, &[RouteEntry { dst: 9, metric: 7 }], now(2), 16));
        assert_eq!(t.metric(9), Some(8));
        // And a poisoned route from the next hop tears ours down.
        assert!(t.process_update(1, &[RouteEntry { dst: 9, metric: 16 }], now(3), 16));
        assert_eq!(t.metric(9), Some(16));
        assert_eq!(t.lookup(9, 16), None);
    }

    #[test]
    fn metrics_clamp_at_infinity() {
        let mut t = RoutingTable::new(0);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 15 }], now(1), 16);
        // 15 + 1 = 16 = infinity: not installed as fresh route.
        assert_eq!(t.lookup(9, 16), None);
    }

    #[test]
    fn split_horizon_poisons_reverse_routes() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        let adv = t.advertisement(&[1], true, 16);
        let get = |d: NodeId| adv.iter().find(|e| e.dst == d).expect("present").metric;
        assert_eq!(get(0), 0, "self route advertised normally");
        assert_eq!(get(1), 16, "route to the peer itself is poisoned");
        assert_eq!(get(9), 16, "route learned from this interface is poisoned");
        // On a different interface the same routes go out normally.
        let adv2 = t.advertisement(&[2], true, 16);
        let get2 = |d: NodeId| adv2.iter().find(|e| e.dst == d).expect("present").metric;
        assert_eq!(get2(9), 2);
        assert_eq!(get2(1), 1);
        // Without split horizon nothing is poisoned.
        let adv3 = t.advertisement(&[1], false, 16);
        let get3 = |d: NodeId| adv3.iter().find(|e| e.dst == d).expect("present").metric;
        assert_eq!(get3(9), 2);
    }

    #[test]
    fn expiry_and_gc() {
        let mut t = RoutingTable::new(0);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(10), 16);
        // Not yet expired at 100 s with a 180 s timeout.
        assert!(!t.expire(now(100), Duration::from_secs(180), 16));
        // Expired at 200 s.
        assert!(t.expire(now(200), Duration::from_secs(180), 16));
        assert_eq!(t.metric(9), Some(16));
        assert_eq!(t.len(), 2);
        t.gc(16);
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn direct_routes_never_expire() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        assert!(!t.expire(now(10_000), Duration::from_secs(180), 16));
        assert_eq!(t.metric(1), Some(1));
    }

    #[test]
    fn fail_via_poisons_all_dependent_routes() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.process_update(1, &[RouteEntry { dst: 8, metric: 1 }], now(1), 16);
        t.process_update(2, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        assert!(t.fail_via(1, 16));
        assert_eq!(t.metric(1), Some(16));
        assert_eq!(t.metric(8), Some(16));
        assert_eq!(t.metric(9), Some(2), "routes via 2 survive");
        assert!(!t.fail_via(1, 16), "idempotent");
    }

    #[test]
    fn presets_have_paper_periods() {
        assert_eq!(DvConfig::rip().jitter.tp(), Duration::from_secs(30));
        assert_eq!(DvConfig::igrp().jitter.tp(), Duration::from_secs(90));
        assert_eq!(DvConfig::decnet().jitter.tp(), Duration::from_secs(120));
        assert_eq!(DvConfig::egp().jitter.tp(), Duration::from_secs(180));
        assert!(DvConfig::rip().split_horizon);
        assert_eq!(DvConfig::rip().infinity, 16);
        assert!(!DvConfig::rip().triggered_delta);
    }

    #[test]
    fn holddown_refuses_alternative_good_news() {
        let hd = Some(Duration::from_secs(280));
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.process_update_with(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16, hd);
        assert_eq!(t.metric(9), Some(2));
        // The next hop poisons the route: hold-down starts.
        assert!(
            t.process_update_with(1, &[RouteEntry { dst: 9, metric: 16 }], now(10), 16, hd)
                .changed
        );
        assert_eq!(t.lookup(9, 16), None);
        // Node 2 now offers a perfectly good alternative — refused while
        // held down.
        assert!(
            !t.process_update_with(2, &[RouteEntry { dst: 9, metric: 1 }], now(20), 16, hd)
                .changed
        );
        assert_eq!(t.lookup(9, 16), None, "held down");
        // After the hold-down expires the alternative is accepted.
        assert!(
            t.process_update_with(2, &[RouteEntry { dst: 9, metric: 1 }], now(300), 16, hd)
                .changed
        );
        assert_eq!(t.lookup(9, 16), Some(2));
    }

    #[test]
    fn holddown_still_accepts_news_from_original_next_hop() {
        let hd = Some(Duration::from_secs(280));
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.process_update_with(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16, hd);
        t.process_update_with(1, &[RouteEntry { dst: 9, metric: 16 }], now(10), 16, hd);
        // The same next hop recovering is authoritative even in hold-down.
        assert!(
            t.process_update_with(1, &[RouteEntry { dst: 9, metric: 1 }], now(20), 16, hd)
                .changed
        );
        assert_eq!(t.lookup(9, 16), Some(1));
    }

    #[test]
    fn fail_via_with_holddown_blocks_alternatives() {
        let hd = Some(Duration::from_secs(100));
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.process_update_with(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16, hd);
        assert!(t.fail_via_with(1, 16, now(50), hd));
        assert!(
            !t.process_update_with(2, &[RouteEntry { dst: 9, metric: 1 }], now(60), 16, hd)
                .changed
        );
        assert!(
            t.process_update_with(2, &[RouteEntry { dst: 9, metric: 1 }], now(151), 16, hd)
                .changed
        );
    }

    #[test]
    fn no_holddown_means_immediate_recovery() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 16 }], now(10), 16);
        assert!(t.process_update(2, &[RouteEntry { dst: 9, metric: 1 }], now(11), 16));
        assert_eq!(t.lookup(9, 16), Some(2));
    }

    #[test]
    fn advertisement_is_sorted_and_complete() {
        let mut t = RoutingTable::new(5);
        t.install_direct(3);
        t.install_direct(8);
        let adv = t.advertisement(&[], true, 16);
        let dsts: Vec<NodeId> = adv.iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![3, 5, 8]);
    }

    #[test]
    fn arena_stays_sorted_under_arbitrary_insert_order() {
        let mut t = RoutingTable::new(7);
        for &d in &[42usize, 3, 19, 100, 1, 55] {
            t.process_update(1, &[RouteEntry { dst: d, metric: 2 }], now(1), 16);
        }
        let dsts: Vec<NodeId> = t.iter().map(|(d, _)| d).collect();
        let mut sorted = dsts.clone();
        sorted.sort_unstable();
        assert_eq!(dsts, sorted);
        assert_eq!(t.metric(19), Some(3));
        assert_eq!(t.metric(7), Some(0), "self route intact");
    }

    #[test]
    fn dirty_tracking_records_changes_once_flushed() {
        let mut t = RoutingTable::new(0);
        t.set_dirty_tracking(true);
        t.install_direct(1);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 3 }], now(2), 16);
        let mut dirty = Vec::new();
        t.take_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![1, 9], "sorted, deduplicated");
        assert!(!t.has_dirty(), "flush clears the set");
        // Unchanged re-advertisement dirties nothing.
        t.process_update(1, &[RouteEntry { dst: 9, metric: 3 }], now(3), 16);
        assert!(!t.has_dirty());
        // A failure dirties the affected routes.
        t.fail_via_with(1, 16, now(4), None);
        t.take_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![1, 9]);
    }

    #[test]
    fn delta_advertisement_is_restricted_to_dirty_routes() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        let mut out = Vec::new();
        t.advertisement_delta_into(&[2, 9, 77], &[], true, 16, &mut out);
        assert_eq!(
            out,
            vec![
                RouteEntry { dst: 2, metric: 1 },
                RouteEntry { dst: 9, metric: 2 },
            ],
            "missing destinations are skipped"
        );
    }

    /// The update step before the merge: a binary search of the whole
    /// table for every entry. The merge must reach the same row, and so
    /// the same decisions, for every entry.
    fn reference_process_update(
        t: &mut RoutingTable,
        from: NodeId,
        entries: &[RouteEntry],
        now: SimTime,
        infinity: u32,
        holddown: Option<Duration>,
    ) -> bool {
        let mut changed = false;
        for e in entries {
            let cand = (e.metric + 1).min(infinity);
            match t.find(e.dst) {
                Ok(i) if t.rows[i].next_hop == from => {
                    t.rows[i].last_heard = now;
                    if t.rows[i].metric != cand {
                        if cand >= infinity && t.rows[i].metric < infinity {
                            t.rows[i].holddown_until = holddown.map_or(NO_HOLDDOWN, |h| now + h);
                            t.rows[i].dead_since = now;
                        } else if cand < infinity {
                            t.rows[i].dead_since = NOT_DEAD;
                        }
                        t.rows[i].metric = cand;
                        changed = true;
                        t.mark_dirty(e.dst);
                    }
                }
                Ok(i) => {
                    let held = now < t.rows[i].holddown_until;
                    if cand < t.rows[i].metric && !held {
                        t.rows[i].metric = cand;
                        t.rows[i].next_hop = from;
                        t.rows[i].last_heard = now;
                        t.rows[i].holddown_until = NO_HOLDDOWN;
                        t.rows[i].dead_since = NOT_DEAD;
                        changed = true;
                        t.mark_dirty(e.dst);
                    }
                }
                Err(i) => {
                    if cand < infinity {
                        t.insert(i, e.dst, Row::live(cand, from, now));
                        changed = true;
                        t.mark_dirty(e.dst);
                    }
                }
            }
        }
        changed
    }

    /// A random table for router 4..34 over destinations 4..40: live,
    /// dead and held-down rows with next hops 1..=5, metrics up to and
    /// including `inf`, and clocks in 0..400 s.
    fn random_table(rng: &mut routesync_rng::MinStd, inf: u32) -> RoutingTable {
        use routesync_rng::dist::below;
        let mut t = RoutingTable::new(4 + below(rng, 30) as NodeId);
        for _ in 0..below(rng, 40) {
            let dst = 4 + below(rng, 36) as NodeId;
            let Err(i) = t.find(dst) else { continue };
            let at = |rng: &mut routesync_rng::MinStd| SimTime::from_secs(below(rng, 400));
            let holddown_until = if below(rng, 3) == 0 {
                at(rng)
            } else {
                NO_HOLDDOWN
            };
            let dead_since = if below(rng, 3) == 0 {
                at(rng)
            } else {
                NOT_DEAD
            };
            let (metric, next_hop) = (
                below(rng, inf as u64 + 1) as u32,
                1 + below(rng, 5) as NodeId,
            );
            let last_heard = at(rng);
            t.insert(
                i,
                dst,
                Row {
                    next_hop,
                    last_heard,
                    holddown_until,
                    dead_since,
                    metric,
                },
            );
        }
        t
    }

    /// Applies one update to `merged` by the merge and to `reference` by
    /// [`reference_process_update`], and asserts the same outcome, rows
    /// and dirty destinations.
    fn assert_merge_matches(
        merged: &mut RoutingTable,
        reference: &mut RoutingTable,
        update: (NodeId, &[RouteEntry], SimTime, Option<Duration>),
        case: &str,
    ) {
        const INF: u32 = 16;
        let (from, entries, now, holddown) = update;
        let got = merged.process_update_with(from, entries, now, INF, holddown);
        let want = reference_process_update(reference, from, entries, now, INF, holddown);
        assert_eq!(got.changed, want, "{case}");
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>(),
            "{case}"
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        merged.take_dirty_into(&mut a);
        reference.take_dirty_into(&mut b);
        assert_eq!(a, b, "{case}");
    }

    /// The merge against [`reference_process_update`] on random tables
    /// (live, dead and held-down rows) and random updates: sorted,
    /// sorted with duplicates, or in arbitrary order; destinations below
    /// and above every row; metrics up to and including infinity; with
    /// and without hold-down, dirty tracking on. Two fixed cases follow
    /// the cursor past the rows it must not skip: a duplicate right after
    /// the entry that inserted its row, and an entry right after an
    /// unreachable one that was not inserted.
    #[test]
    fn merge_matches_per_entry_binary_search() {
        use routesync_rng::dist::below;
        const INF: u32 = 16;
        for seed in 0..400 {
            let mut rng = routesync_rng::stream(seed, 0);
            let mut merged = random_table(&mut rng, INF);
            merged.set_dirty_tracking(true);
            let mut reference = merged.clone();
            for round in 0..20 {
                let mut entries: Vec<RouteEntry> = (0..below(&mut rng, 50))
                    .map(|_| RouteEntry {
                        dst: below(&mut rng, 45) as NodeId,
                        metric: below(&mut rng, INF as u64 + 1) as u32,
                    })
                    .collect();
                match below(&mut rng, 3) {
                    0 => entries.sort_by_key(|e| e.dst),
                    1 => {
                        entries.sort_by_key(|e| e.dst);
                        entries.dedup_by_key(|e| e.dst);
                    }
                    _ => {}
                }
                let from = 1 + below(&mut rng, 5) as NodeId;
                let now = SimTime::from_secs(100 + below(&mut rng, 400));
                let holddown = (below(&mut rng, 2) == 0)
                    .then(|| Duration::from_secs(1 + below(&mut rng, 300)));
                assert_merge_matches(
                    &mut merged,
                    &mut reference,
                    (from, &entries, now, holddown),
                    &format!("seed {seed} round {round}"),
                );
            }
        }

        let e = |dst, metric| RouteEntry { dst, metric };
        let cases: [(&str, &[RouteEntry]); 4] = [
            ("duplicate after insert, worse", &[e(3, 2), e(3, 5)]),
            (
                "duplicate after insert, better",
                &[e(3, 2), e(3, 0), e(9, 1)],
            ),
            ("after a skipped unreachable entry", &[e(3, INF), e(5, 2)]),
            (
                "after skipped entries past the end",
                &[e(10, INF), e(11, 1)],
            ),
        ];
        for (case, entries) in cases {
            let mut merged = RoutingTable::new(0);
            merged.set_dirty_tracking(true);
            merged.install(5, 4, 2);
            merged.install(9, 4, 2);
            let mut reference = merged.clone();
            assert_merge_matches(
                &mut merged,
                &mut reference,
                (1, entries, now(1), None),
                case,
            );
        }
    }

    /// The per-row split-horizon rule: a route is poisoned on a link whose
    /// peers include its next hop, unless it is the self route or split
    /// horizon is off. The peers come as a sorted set and are looked up
    /// by binary search, independently of the kernels' `on_link`.
    fn reference_advertisement(
        t: &RoutingTable,
        only: Option<&[NodeId]>,
        peer_set: &[NodeId],
        split_horizon: bool,
        infinity: u32,
    ) -> Vec<RouteEntry> {
        let mut out = Vec::new();
        for (dst, route) in t.iter() {
            if only.is_some_and(|only| only.binary_search(&dst).is_err()) {
                continue;
            }
            let reverse = peer_set.binary_search(&route.next_hop).is_ok();
            let metric = if split_horizon && dst != t.me() && reverse {
                infinity
            } else {
                route.metric
            };
            out.push(RouteEntry { dst, metric });
        }
        out
    }

    /// `advertisement_into`, `advertisement_delta_into` and
    /// `area_link_advertisement` against per-row reference loops: random
    /// tables with self, direct, dead and held-down rows; links of 0, 1
    /// and 3 peers; split horizon on and off; delta lists that name
    /// destinations the table does not hold.
    #[test]
    fn advertisement_kernels_match_per_row_reference() {
        use routesync_rng::dist::below;
        const INF: u32 = 16;
        for seed in 0..300 {
            let mut rng = routesync_rng::stream(seed, 1);
            let mut t = random_table(&mut rng, INF);
            for _ in 0..below(&mut rng, 3) {
                t.install_direct(1 + below(&mut rng, 5) as NodeId);
            }
            for peers in 0..3 {
                // Distinct peers in 1..=6, not necessarily sorted.
                let first = below(&mut rng, 6) as NodeId;
                let link_peers: Vec<NodeId> = (0..[0, 1, 3][peers])
                    .map(|j| 1 + (first + 2 * j) % 6)
                    .collect();
                let mut peer_set = link_peers.clone();
                peer_set.sort_unstable();
                let mut only: Vec<NodeId> = (0..below(&mut rng, 12))
                    .map(|_| below(&mut rng, 45) as NodeId)
                    .collect();
                only.sort_unstable();
                only.dedup();
                for split in [false, true] {
                    let case = format!("seed {seed} peers {link_peers:?} split {split}");
                    let mut full = vec![RouteEntry { dst: 99, metric: 7 }];
                    t.advertisement_into(&link_peers, split, INF, &mut full);
                    let want = reference_advertisement(&t, None, &peer_set, split, INF);
                    assert_eq!(full[0], RouteEntry { dst: 99, metric: 7 }, "{case}");
                    assert_eq!(full[1..], want[..], "{case}");

                    let mut delta = Vec::new();
                    t.advertisement_delta_into(&only, &link_peers, split, INF, &mut delta);
                    let want = reference_advertisement(&t, Some(&only), &peer_set, split, INF);
                    assert_eq!(delta, want, "{case} only {only:?}");

                    let candidates: Vec<AreaCandidate> = (0..below(&mut rng, 20))
                        .map(|_| AreaCandidate {
                            entry: RouteEntry {
                                dst: below(&mut rng, 45) as NodeId,
                                metric: below(&mut rng, INF as u64 + 1) as u32,
                            },
                            next_hop: below(&mut rng, 7) as NodeId,
                            split: [SplitHorizon::Keep, SplitHorizon::Omit, SplitHorizon::Poison]
                                [below(&mut rng, 3) as usize],
                        })
                        .collect();
                    let want: Vec<RouteEntry> = candidates
                        .iter()
                        .filter_map(|c| {
                            let reverse = peer_set.binary_search(&c.next_hop).is_ok();
                            match (c.split, reverse) {
                                (SplitHorizon::Keep, _) | (_, false) => Some(c.entry),
                                (SplitHorizon::Omit, true) => None,
                                (SplitHorizon::Poison, true) => Some(RouteEntry {
                                    dst: c.entry.dst,
                                    metric: INF,
                                }),
                            }
                        })
                        .collect();
                    let got = area_link_advertisement(&candidates, &link_peers, INF);
                    assert_eq!(got, want, "{case} candidates {candidates:?}");
                }
            }
        }
    }

    /// A sorted full-table update compares one row per entry (plus the
    /// self route, row 0, which the first entry steps over); the
    /// per-entry binary search compared about log2(n) + 1.
    #[test]
    fn sorted_update_probes_one_row_per_entry() {
        let mut t = RoutingTable::new(0);
        let entries: Vec<RouteEntry> = (1..300).map(|dst| RouteEntry { dst, metric: 2 }).collect();
        assert!(t.process_update_with(1, &entries, now(1), 16, None).changed);
        let refresh = t.process_update_with(1, &entries, now(2), 16, None);
        assert!(!refresh.changed);
        assert!(
            refresh.probes <= entries.len() as u64 + 1,
            "{} probes",
            refresh.probes
        );
        let mut reversed = entries.clone();
        reversed.reverse();
        let unsorted = t.process_update_with(1, &reversed, now(3), 16, None);
        assert!(
            unsorted.probes > refresh.probes,
            "order changes only the cost"
        );
    }

    #[test]
    fn table_roundtrips_through_serde() {
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        t.fail_via_with(1, 16, now(5), Some(Duration::from_secs(10)));
        let back = RoutingTable::from_value(&t.to_value()).expect("roundtrip");
        assert_eq!(back.me(), 0);
        assert_eq!(back.len(), t.len());
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = back.iter().collect();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod area_tests {
    use super::*;
    use crate::area::AreaLayout;

    fn now(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two areas of 3: border routers 0 and 3, stub routers 1,2 and 4,5.
    fn layout() -> AreaLayout {
        AreaLayout::from_sizes(&[3, 3])
    }

    /// Both phases for one link: candidates for `link_area`, then split
    /// horizon against `link_peers`.
    #[allow(clippy::too_many_arguments)]
    fn advertise(
        t: &RoutingTable,
        layout: &AreaLayout,
        mode: AreaMode,
        link_area: Option<usize>,
        originate_default: bool,
        link_peers: &[NodeId],
        split_horizon: bool,
        infinity: u32,
        only: Option<&[NodeId]>,
    ) -> Vec<RouteEntry> {
        let mut candidates = Vec::new();
        t.area_candidates_into(
            layout,
            mode,
            link_area,
            originate_default,
            split_horizon,
            only,
            &mut candidates,
        );
        area_link_advertisement(&candidates, link_peers, infinity)
    }

    fn border_table() -> RoutingTable {
        // Border router 0 of area 0: members 1,2 direct; backbone peer 3
        // direct; aggregate for area 1 via 3; own aggregate at 0.
        let mut t = RoutingTable::new(0);
        t.install_direct(1);
        t.install_direct(2);
        t.install_direct(3);
        t.install(AreaLayout::agg_dst(0), 0, 0);
        t.install(AreaLayout::agg_dst(1), 1, 3);
        t
    }

    #[test]
    fn stub_link_advertisement_is_self_plus_default_when_totally_stubby() {
        let t = border_table();
        let out = advertise(
            &t,
            &layout(),
            AreaMode::TotallyStubby,
            Some(0),
            true,
            &[1],
            true,
            16,
            None,
        );
        assert_eq!(
            out,
            vec![
                RouteEntry { dst: 0, metric: 0 },
                RouteEntry {
                    dst: DEFAULT_DST,
                    metric: 0
                },
            ]
        );
    }

    #[test]
    fn stub_mode_adds_intra_area_exacts() {
        let t = border_table();
        let out = advertise(
            &t,
            &layout(),
            AreaMode::Stub,
            Some(0),
            true,
            &[1],
            true,
            16,
            None,
        );
        let get = |d: NodeId| out.iter().find(|e| e.dst == d).map(|e| e.metric);
        assert_eq!(get(0), Some(0), "self");
        assert_eq!(get(1), Some(16), "on-link peer poisoned");
        assert_eq!(get(2), Some(1), "intra-area exact");
        assert_eq!(get(4), None, "inter-area exacts suppressed");
        assert_eq!(get(DEFAULT_DST), Some(0), "default originated");
        assert_eq!(
            get(AreaLayout::agg_dst(1)),
            Some(1),
            "stub (non-totally-stubby) links do carry aggregates"
        );
    }

    #[test]
    fn backbone_advertisement_carries_own_aggregate_only() {
        let t = border_table();
        // Backbone link to router 3 (spans areas → link_area None).
        let out = advertise(
            &t,
            &layout(),
            AreaMode::TotallyStubby,
            None,
            true,
            &[3],
            true,
            16,
            None,
        );
        assert_eq!(
            out,
            vec![
                RouteEntry { dst: 0, metric: 0 },
                RouteEntry {
                    dst: AreaLayout::agg_dst(0),
                    metric: 0
                },
            ],
            "members suppressed; remote aggregate split-horizoned away; \
             no default onto the backbone"
        );
    }

    #[test]
    fn aggregates_behave_like_ordinary_routes_on_receipt() {
        // A stub router receiving an aggregate installs, refreshes and
        // expires it through the standard Bellman-Ford path.
        let mut t = RoutingTable::new(4);
        t.install_direct(3);
        let agg = AreaLayout::agg_dst(0);
        assert!(t.process_update(
            3,
            &[RouteEntry {
                dst: agg,
                metric: 0
            }],
            now(1),
            16
        ));
        assert_eq!(t.lookup(agg, 16), Some(3));
        assert!(t.expire(now(400), Duration::from_secs(180), 16));
        assert_eq!(t.lookup(agg, 16), None);
    }

    #[test]
    fn delta_area_advertisement_respects_both_filters() {
        let t = border_table();
        // Only member 2 dirtied; stub link in Stub mode, no origination.
        let out = advertise(
            &t,
            &layout(),
            AreaMode::Stub,
            Some(0),
            false,
            &[1],
            true,
            16,
            Some(&[2]),
        );
        assert_eq!(out, vec![RouteEntry { dst: 2, metric: 1 }]);
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;

    fn now(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn gc_due_waits_for_the_grace_period() {
        let mut t = RoutingTable::new(0);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        // Poisoned by the next hop at t = 10.
        t.process_update(1, &[RouteEntry { dst: 9, metric: 16 }], now(10), 16);
        assert_eq!(t.metric(9), Some(16));
        // Still present within the grace window (advertised as poisoned).
        t.gc_due(now(100), Duration::from_secs(120), 16);
        assert_eq!(t.metric(9), Some(16));
        // Gone after it.
        t.gc_due(now(131), Duration::from_secs(120), 16);
        assert_eq!(t.metric(9), None);
    }

    #[test]
    fn revived_route_escapes_gc() {
        let mut t = RoutingTable::new(0);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 16 }], now(10), 16);
        // The next hop recovers the route before the grace expires.
        t.process_update(1, &[RouteEntry { dst: 9, metric: 2 }], now(50), 16);
        t.gc_due(now(500), Duration::from_secs(120), 16);
        assert_eq!(t.metric(9), Some(3));
    }

    #[test]
    fn expired_routes_are_gc_eligible() {
        let mut t = RoutingTable::new(0);
        t.process_update(1, &[RouteEntry { dst: 9, metric: 1 }], now(1), 16);
        assert!(t.expire(now(200), Duration::from_secs(180), 16));
        t.gc_due(now(200), Duration::from_secs(120), 16);
        assert_eq!(t.metric(9), Some(16), "grace not yet over");
        t.gc_due(now(321), Duration::from_secs(120), 16);
        assert_eq!(t.metric(9), None);
    }
}
