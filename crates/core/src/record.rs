//! Observers for the Periodic Messages simulation.
//!
//! The model reports two things: every routing message sent
//! ([`Recorder::on_send`]) and every *simultaneous-reset group* — a maximal
//! set of routers that re-armed their timers at the same instant, i.e. a
//! cluster ([`Recorder::on_cluster`]). Long runs (the paper's Figure 7
//! sweeps cover 10⁷ simulated seconds) make it impractical to log
//! everything, so each figure has a purpose-built recorder that keeps only
//! what it needs.

use routesync_desim::SimTime;
use serde::{Deserialize, Serialize};

use crate::model::NodeId;

/// Observer interface for [`crate::PeriodicModel::run`].
pub trait Recorder {
    /// A router sent a routing message at `t` (its timer expired, or it
    /// responded to a triggered update).
    fn on_send(&mut self, _t: SimTime, _node: NodeId) {}

    /// A maximal group of routers re-armed their timers simultaneously at
    /// `t`. `round` is the number of completed N-message rounds at the time
    /// the group was flushed. Lone routers appear as groups of size 1.
    fn on_cluster(&mut self, _t: SimTime, _round: u64, _nodes: &[NodeId]) {}

    /// Checked between events; returning `true` ends the run early.
    fn should_stop(&self) -> bool {
        false
    }

    /// Return to the freshly-constructed state, keeping allocations.
    /// Multi-seed drivers (`run_many`) call this between runs so recorder
    /// buffers are reused rather than reallocated per seed.
    fn reset(&mut self) {}
}

/// A recorder that keeps nothing (pure timing/throughput runs).
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Compose two recorders; both see every callback, and the run stops when
/// either asks to.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    #[inline]
    fn on_send(&mut self, t: SimTime, node: NodeId) {
        self.0.on_send(t, node);
        self.1.on_send(t, node);
    }

    #[inline]
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[NodeId]) {
        self.0.on_cluster(t, round, nodes);
        self.1.on_cluster(t, round, nodes);
    }

    #[inline]
    fn should_stop(&self) -> bool {
        self.0.should_stop() || self.1.should_stop()
    }

    #[inline]
    fn reset(&mut self) {
        self.0.reset();
        self.1.reset();
    }
}

/// Records every routing-message send — the raw data behind the paper's
/// Figure 4 time-offset plot.
#[derive(Debug, Clone, Default)]
pub struct SendTrace {
    sends: Vec<(SimTime, NodeId)>,
}

impl SendTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// All sends, in time order.
    pub fn sends(&self) -> &[(SimTime, NodeId)] {
        &self.sends
    }

    /// Figure 4's coordinates: for each send, `(time in seconds,
    /// time mod round_len in seconds, node)`.
    pub fn time_offsets(&self, round_len: routesync_desim::Duration) -> Vec<(f64, f64, NodeId)> {
        self.sends
            .iter()
            .map(|&(t, node)| (t.as_secs_f64(), (t % round_len).as_secs_f64(), node))
            .collect()
    }
}

impl Recorder for SendTrace {
    #[inline]
    fn on_send(&mut self, t: SimTime, node: NodeId) {
        self.sends.push((t, node));
    }

    #[inline]
    fn reset(&mut self) {
        self.sends.clear();
    }
}

/// What happened in an [`EventLog`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Timer expiry / message send (the "x" marks of the paper's Figure 5).
    Send,
    /// Timer re-armed (the "o" marks of Figure 5).
    Reset,
}

/// Full per-node event log — only for short runs and zoomed plots
/// (Figure 5).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<(SimTime, NodeId, EventKind)>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events in emission order (sends in time order; resets in time
    /// order; the two interleave with resets trailing their busy periods).
    pub fn events(&self) -> &[(SimTime, NodeId, EventKind)] {
        &self.events
    }
}

impl Recorder for EventLog {
    #[inline]
    fn on_send(&mut self, t: SimTime, node: NodeId) {
        self.events.push((t, node, EventKind::Send));
    }

    #[inline]
    fn on_cluster(&mut self, t: SimTime, _round: u64, nodes: &[NodeId]) {
        for &n in nodes {
            self.events.push((t, n, EventKind::Reset));
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.events.clear();
    }
}

/// Records every reset group as `(time, round, size)` — fine for runs up to
/// ~10⁵ simulated seconds; use [`RoundMax`] beyond that.
#[derive(Debug, Clone, Default)]
pub struct ClusterLog {
    groups: Vec<(SimTime, u64, u32)>,
}

impl ClusterLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All reset groups in time order.
    pub fn groups(&self) -> &[(SimTime, u64, u32)] {
        &self.groups
    }

    /// The largest group recorded so far (0 when empty).
    pub fn max_size(&self) -> u32 {
        self.groups.iter().map(|g| g.2).max().unwrap_or(0)
    }
}

impl Recorder for ClusterLog {
    #[inline]
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[NodeId]) {
        self.groups.push((t, round, nodes.len() as u32));
    }

    #[inline]
    fn reset(&mut self) {
        self.groups.clear();
    }
}

/// Per-round largest cluster — the paper's *cluster graph* (Figures 6-8).
///
/// One entry per completed round (rounds with no recorded group carry the
/// previous value, which happens when a big cluster's cycle is slightly
/// longer than the nominal round).
#[derive(Debug, Clone)]
pub struct RoundMax {
    /// `(round, time of last group in round, largest group size)`.
    series: Vec<(u64, SimTime, u32)>,
    cur_round: u64,
    cur_max: u32,
    cur_t: SimTime,
    started: bool,
}

impl RoundMax {
    /// An empty cluster graph.
    pub fn new() -> Self {
        RoundMax {
            series: Vec::new(),
            cur_round: 0,
            cur_max: 0,
            cur_t: SimTime::ZERO,
            started: false,
        }
    }

    /// Finalized `(round, time, max cluster)` entries.
    pub fn series(&self) -> &[(u64, SimTime, u32)] {
        &self.series
    }

    /// The largest per-round maximum seen so far (including the open
    /// round).
    pub fn max_ever(&self) -> u32 {
        self.series
            .iter()
            .map(|e| e.2)
            .max()
            .unwrap_or(0)
            .max(self.cur_max)
    }

    fn finalize_round(&mut self) {
        let carried = if self.cur_max == 0 {
            self.series.last().map(|e| e.2).unwrap_or(1)
        } else {
            self.cur_max
        };
        self.series.push((self.cur_round, self.cur_t, carried));
    }
}

impl Default for RoundMax {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for RoundMax {
    #[inline]
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[NodeId]) {
        if !self.started {
            self.started = true;
            self.cur_round = round;
        }
        while round > self.cur_round {
            self.finalize_round();
            self.cur_round += 1;
            self.cur_max = 0;
        }
        self.cur_max = self.cur_max.max(nodes.len() as u32);
        self.cur_t = t;
    }

    #[inline]
    fn reset(&mut self) {
        self.series.clear();
        self.cur_round = 0;
        self.cur_max = 0;
        self.cur_t = SimTime::ZERO;
        self.started = false;
    }
}

/// Detects the first time the system reaches each cluster size on the way
/// **up** from an unsynchronized start (Figure 10, and the stop condition
/// for "time to synchronize").
#[derive(Debug, Clone)]
pub struct FirstPassageUp {
    /// `first[i]` = first `(time, round)` at which a reset group of size
    /// ≥ i appeared (index 0 and 1 are filled immediately).
    first: Vec<Option<(SimTime, u64)>>,
    max_seen: usize,
    target: usize,
}

impl FirstPassageUp {
    /// Track passage times up to (and stop at) cluster size `target`.
    pub fn new(target: usize) -> Self {
        assert!(target >= 1);
        FirstPassageUp {
            first: vec![None; target + 1],
            max_seen: 0,
            target,
        }
    }

    /// First `(time, round)` a group of size ≥ `i` was seen.
    pub fn first(&self, i: usize) -> Option<(SimTime, u64)> {
        self.first.get(i).copied().flatten()
    }

    /// The largest group size seen.
    pub fn max_seen(&self) -> usize {
        self.max_seen
    }

    /// Whether the target size was reached.
    pub fn reached(&self) -> bool {
        self.max_seen >= self.target
    }
}

impl Recorder for FirstPassageUp {
    #[inline]
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[NodeId]) {
        let size = nodes.len().min(self.target);
        if size > self.max_seen {
            for i in (self.max_seen + 1)..=size {
                self.first[i] = Some((t, round));
            }
            self.max_seen = size;
        }
    }

    #[inline]
    fn should_stop(&self) -> bool {
        self.max_seen >= self.target
    }

    #[inline]
    fn reset(&mut self) {
        self.first.iter_mut().for_each(|slot| *slot = None);
        self.max_seen = 0;
    }
}

/// Detects the first time the per-round largest cluster falls to each size
/// on the way **down** from a synchronized start (Figure 11, and the stop
/// condition for "time to desynchronize").
///
/// State is evaluated per round (like the paper's Markov chain, whose state
/// is "the size of the largest cluster from a round of N routing
/// messages"), so a single round in which the big cluster happens to reset
/// just after the round boundary does not spuriously count as state 1.
#[derive(Debug, Clone)]
pub struct FirstPassageDown {
    first: Vec<Option<(SimTime, u64)>>,
    min_state: usize,
    target: usize,
    cur_round: u64,
    cur_max: usize,
    cur_t: SimTime,
    started: bool,
}

impl FirstPassageDown {
    /// Track downward passage times for states `target..=start_state`;
    /// stops when the per-round largest cluster reaches `target`.
    pub fn new(start_state: usize, target: usize) -> Self {
        assert!(target >= 1 && target <= start_state);
        FirstPassageDown {
            first: vec![None; start_state + 1],
            min_state: start_state,
            target,
            cur_round: 0,
            cur_max: 0,
            cur_t: SimTime::ZERO,
            started: false,
        }
    }

    /// First `(time, round)` at which the per-round largest cluster was
    /// ≤ `i`.
    pub fn first(&self, i: usize) -> Option<(SimTime, u64)> {
        self.first.get(i).copied().flatten()
    }

    /// The smallest per-round state reached.
    pub fn min_state(&self) -> usize {
        self.min_state
    }

    /// Whether the target state was reached.
    pub fn reached(&self) -> bool {
        self.min_state <= self.target
    }

    fn finalize_round(&mut self) {
        if self.cur_max == 0 {
            return; // empty round: carry the previous state, nothing to do
        }
        if self.cur_max < self.min_state {
            for i in self.cur_max..self.min_state {
                self.first[i] = Some((self.cur_t, self.cur_round));
            }
            self.min_state = self.cur_max;
        }
    }
}

impl Recorder for FirstPassageDown {
    #[inline]
    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[NodeId]) {
        if !self.started {
            self.started = true;
            self.cur_round = round;
        }
        if round > self.cur_round {
            self.finalize_round();
            self.cur_round = round;
            self.cur_max = 0;
        }
        self.cur_max = self.cur_max.max(nodes.len());
        self.cur_t = t;
    }

    #[inline]
    fn should_stop(&self) -> bool {
        self.min_state <= self.target
    }

    #[inline]
    fn reset(&mut self) {
        self.first.iter_mut().for_each(|slot| *slot = None);
        self.min_state = self.first.len() - 1;
        self.cur_round = 0;
        self.cur_max = 0;
        self.cur_t = SimTime::ZERO;
        self.started = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_trace_time_offsets() {
        let mut tr = SendTrace::new();
        let round = routesync_desim::Duration::from_secs(100);
        tr.on_send(SimTime::from_secs(250), 3);
        let pts = tr.time_offsets(round);
        assert_eq!(pts, vec![(250.0, 50.0, 3)]);
    }

    #[test]
    fn round_max_carries_empty_rounds() {
        let mut rm = RoundMax::new();
        rm.on_cluster(SimTime::from_secs(1), 0, &[0, 1, 2]);
        // Round 1 has no clusters; round 2 has a pair.
        rm.on_cluster(SimTime::from_secs(300), 2, &[0, 1]);
        rm.on_cluster(SimTime::from_secs(400), 3, &[4]);
        assert_eq!(
            rm.series().iter().map(|e| (e.0, e.2)).collect::<Vec<_>>(),
            vec![(0, 3), (1, 3), (2, 2)]
        );
        assert_eq!(rm.max_ever(), 3);
    }

    #[test]
    fn first_passage_up_fills_skipped_sizes() {
        let mut fp = FirstPassageUp::new(5);
        fp.on_cluster(SimTime::from_secs(10), 0, &[0]);
        assert_eq!(fp.max_seen(), 1);
        // A jump from 1 straight to 4 fills sizes 2, 3, 4 with the same
        // time.
        fp.on_cluster(SimTime::from_secs(20), 1, &[0, 1, 2, 3]);
        for i in 2..=4 {
            assert_eq!(fp.first(i), Some((SimTime::from_secs(20), 1)));
        }
        assert!(fp.first(5).is_none());
        assert!(!fp.should_stop());
        fp.on_cluster(SimTime::from_secs(30), 2, &[0, 1, 2, 3, 4]);
        assert!(fp.should_stop());
        assert!(fp.reached());
    }

    #[test]
    fn first_passage_up_clamps_oversized_groups() {
        let mut fp = FirstPassageUp::new(3);
        fp.on_cluster(SimTime::from_secs(5), 0, &[0, 1, 2, 3, 4]);
        assert!(fp.reached());
        assert_eq!(fp.first(3), Some((SimTime::from_secs(5), 0)));
    }

    #[test]
    fn first_passage_down_is_per_round() {
        let mut fp = FirstPassageDown::new(4, 1);
        // Round 0: the full cluster of 4.
        fp.on_cluster(SimTime::from_secs(10), 0, &[0, 1, 2, 3]);
        // Round 1: cluster of 3 plus a lone router — state 3, and the lone
        // size-1 group must NOT register as state 1.
        fp.on_cluster(SimTime::from_secs(130), 1, &[0, 1, 2]);
        fp.on_cluster(SimTime::from_secs(135), 1, &[3]);
        // Round 2 arrives: round 1 finalizes at state 3.
        fp.on_cluster(SimTime::from_secs(260), 2, &[0, 1, 2]);
        assert_eq!(fp.min_state(), 3);
        assert!(fp.first(3).is_some());
        assert!(fp.first(2).is_none());
        assert!(!fp.should_stop());
        // Rounds 3: everything lone — finalized when round 4 starts.
        fp.on_cluster(SimTime::from_secs(400), 3, &[0]);
        fp.on_cluster(SimTime::from_secs(405), 3, &[1]);
        fp.on_cluster(SimTime::from_secs(520), 4, &[0]);
        assert_eq!(fp.min_state(), 1);
        assert!(fp.should_stop());
        assert_eq!(fp.first(1).map(|f| f.1), Some(3));
        assert_eq!(fp.first(2).map(|f| f.1), Some(3));
    }

    #[test]
    fn composed_recorders_both_observe_and_stop() {
        let mut pair = (FirstPassageUp::new(2), ClusterLog::new());
        pair.on_cluster(SimTime::from_secs(1), 0, &[0]);
        assert!(!pair.should_stop());
        pair.on_cluster(SimTime::from_secs(2), 0, &[0, 1]);
        assert!(pair.should_stop());
        assert_eq!(pair.1.groups().len(), 2);
        assert_eq!(pair.1.max_size(), 2);
    }

    #[test]
    fn cluster_log_records_rounds() {
        let mut log = ClusterLog::new();
        log.on_cluster(SimTime::from_secs(1), 7, &[0, 1]);
        assert_eq!(log.groups(), &[(SimTime::from_secs(1), 7, 2)]);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut fp = FirstPassageUp::new(3);
        fp.on_cluster(SimTime::from_secs(5), 0, &[0, 1, 2]);
        assert!(fp.reached());
        fp.reset();
        assert!(!fp.reached());
        assert!(fp.first(2).is_none());

        let mut down = FirstPassageDown::new(4, 1);
        down.on_cluster(SimTime::from_secs(10), 0, &[0]);
        down.on_cluster(SimTime::from_secs(130), 1, &[0]);
        down.reset();
        assert_eq!(down.min_state(), 4);
        assert!(!down.should_stop());

        let mut pair = (SendTrace::new(), RoundMax::new());
        pair.on_send(SimTime::from_secs(1), 0);
        pair.on_cluster(SimTime::from_secs(1), 0, &[0, 1]);
        pair.reset();
        assert!(pair.0.sends().is_empty());
        assert_eq!(pair.1.max_ever(), 0);
    }

    #[test]
    fn event_log_interleaves_kinds() {
        let mut log = EventLog::new();
        log.on_send(SimTime::from_secs(1), 0);
        log.on_cluster(SimTime::from_secs(2), 0, &[0, 1]);
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.events()[0].2, EventKind::Send);
        assert_eq!(log.events()[1].2, EventKind::Reset);
    }
}
