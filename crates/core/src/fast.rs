//! A burst-based fast path for the Periodic Messages model.
//!
//! The event-driven [`crate::PeriodicModel`] schedules one `BusyEnd` event
//! per node per message — `O(N²)` events per round — because that is the
//! honest way to execute the model's rules. But on a broadcast network the
//! rules imply a closed form for a whole *burst*:
//!
//! Let the pending timer expiries, sorted, be `e₁ ≤ e₂ ≤ …`. The earliest
//! expiry starts a burst; after `j` messages every router (member or not)
//! is busy until `e₁ + j·Tc`, so the next expiry **joins the burst iff
//! `e_{j+1} < e₁ + j·Tc`** (strictly — an expiry exactly at the busy
//! boundary starts its own burst, matching the event-driven boundary
//! semantics). When no more expiries join, all `m` members reset
//! simultaneously at `e₁ + m·Tc` — that simultaneous reset *is* the
//! cluster.
//!
//! [`FastModel`] executes bursts directly from a **sorted expiry ring**: a
//! `VecDeque` of pending `(time, node id)` expiries kept in ascending
//! order, which is also the tie-break between equal times. A burst pops
//! its members off the front. Re-arming exploits the model's shape: a
//! router re-arms at `reset + U[Tp − Tr, Tp + Tr]` with `Tr ≪ Tp`, so a
//! fresh expiry lands behind nearly every pending one. A lone re-arm is a
//! `push_back`, or a binary search plus an insert that shifts the `k`
//! pending expiries later than it: on average `k ≈ (N − 1)·Tr/(3·Tp)`,
//! and less once busy periods space the resets out. A burst of `m` sorts
//! its new expiries and merges them into the ring's tail in one backward
//! pass: `O(m log m + k)`, not `O(m·k)`. The envelope is
//! `O(log N + k)` per send, against a binary heap's `O(log N)`; the ring
//! wins wherever `k` is small, which is every `Tr ≪ Tp` configuration,
//! and loses under wide jitter (`UniformHalf` makes `k ≈ N/6`; see
//! `docs/PERFORMANCE.md`). `core.fast.ring.moves` counts the `k`s.
//!
//! **Two burst shapes, one loop.** Most bursts have one member: nearly
//! every burst of an unsynchronized `Tr ≥ 0.2 s` run, and most of a
//! synchronizing run before it locks. When the second expiry does not
//! join (`e₂ ≥ e₁ + Tc`), the burst pops its router, emits the send and
//! re-arms that one router, and never touches the member buffer. A burst
//! of `m ≥ 2` collects its members into the buffer, then sorts and
//! merges as above. Everything else — the metrics, the round count, the
//! flush of the previous reset group and the set-up of the new one — is
//! shared code, so the shapes differ only in how they collect and
//! re-arm.
//!
//! **Rounds are counted, not divided.** The recorder's round is
//! `sends / N`. The model keeps it as a `(round, fill)` pair, with
//! `sends = round·N + fill` and `fill < N`, and adds each burst's `m`
//! sends to it. No burst has more than `N` members, so the fill wraps at
//! most once per burst. The pair persists across consecutive `run` calls
//! and is zeroed by `reset`.
//!
//! This is the only burst kernel: [`crate::BatchedEnsemble`] runs its
//! cells through a reused `FastModel`. Equivalence with the event engine
//! (identical send logs and cluster logs, for any parameters and seed) is
//! enforced by unit tests here and property tests in the integration
//! crate, which also hold the kernel to a naive linear-scan reference and
//! to full-trace goldens.
//!
//! Limitations (by design, asserted at construction): the fast path covers
//! the paper's Section 4-5 measurement configuration — the
//! `AfterProcessing` reset policy, no externally injected triggered
//! updates. For those, use the event-driven model.

use std::collections::VecDeque;

use routesync_desim::{Duration, SimTime};
use routesync_rng::{JitterPolicy, TimerResetPolicy, UniformDuration};

use crate::model::NodeId;
use crate::params::{PeriodicParams, StartState};
use crate::record::Recorder;

/// The burst-join rule: an expiry joins the running burst iff it lands
/// strictly inside the busy period; one exactly at the boundary starts its
/// own burst (matching the event-driven engine's strict `<`). The
/// `inject` feature's `PeriodicParams::merge_off_by_one` perturbs it,
/// and with it every ensemble engine built from those parameters.
#[inline]
#[cfg_attr(not(feature = "inject"), allow(unused_variables))]
fn joins_burst(e: SimTime, boundary: SimTime, params: &PeriodicParams) -> bool {
    #[cfg(feature = "inject")]
    if params.merge_off_by_one {
        return e < boundary + params.tc;
    }
    e < boundary
}

/// One router's re-arm draw, flattened from its (materialized) jitter
/// policy: a uniform interval on `[lo, lo + span]` nanoseconds from a raw
/// MinStd state (`routesync_rng::raw`). A zero span draws nothing,
/// exactly like [`JitterPolicy::sample`].
struct FastNode {
    lo: u64,
    span: u64,
    rng: u32,
}

impl FastNode {
    fn new(jitter: JitterPolicy, rng: u32) -> Self {
        let (lo, span) = match jitter {
            JitterPolicy::None { tp } => (tp.as_nanos(), 0),
            JitterPolicy::Uniform { tp, tr } => {
                let d = UniformDuration::centered(tp, tr);
                (d.lo().as_nanos(), d.hi().as_nanos() - d.lo().as_nanos())
            }
            JitterPolicy::UniformHalf { tp } => {
                let d = UniformDuration::new(tp / 2, tp + tp / 2);
                (d.lo().as_nanos(), d.hi().as_nanos() - d.lo().as_nanos())
            }
            // materialize() never returns FixedPerRouter.
            JitterPolicy::FixedPerRouter { tp, .. } => (tp.as_nanos(), 0),
        };
        FastNode { lo, span, rng }
    }

    #[inline]
    fn interval(&mut self) -> Duration {
        Duration::from_nanos(routesync_rng::raw::sample_uniform_nanos(
            &mut self.rng,
            self.lo,
            self.span,
        ))
    }
}

/// Instrumentation handles, resolved once at construction from the global
/// `routesync-obs` collector; all no-ops (one branch per burst) when no
/// collector is installed. Metric-only — nothing here feeds back into the
/// simulation, so enabled and disabled runs are bit-identical.
struct FastObs {
    /// Bursts executed (`core.fast.bursts`).
    bursts: routesync_obs::Counter,
    /// Routing messages sent (`core.fast.sends`).
    sends: routesync_obs::Counter,
    /// Pending expiries shifted or merged to make room for re-armed ones
    /// (`core.fast.ring.moves`).
    ring_moves: routesync_obs::Counter,
    /// Completed N-message rounds (`core.rounds`).
    rounds: routesync_obs::Counter,
    /// Burst-size changes between consecutive bursts
    /// (`core.cluster.transitions` — the Markov chain's state changes).
    transitions: routesync_obs::Counter,
    /// Burst-size distribution (`core.cluster.size`).
    cluster_size: routesync_obs::Histogram,
    /// Largest cluster seen (`core.cluster.largest` — the paper's Section 5
    /// Markov state high-water mark).
    cluster_largest: routesync_obs::Gauge,
}

impl FastObs {
    fn resolve() -> Self {
        let obs = routesync_obs::global();
        FastObs {
            bursts: obs.counter("core.fast.bursts"),
            sends: obs.counter("core.fast.sends"),
            ring_moves: obs.counter("core.fast.ring.moves"),
            rounds: obs.counter("core.rounds"),
            transitions: obs.counter("core.cluster.transitions"),
            cluster_size: obs.histogram("core.cluster.size", &[1, 2, 4, 8, 16, 32, 64, 128, 256]),
            cluster_largest: obs.gauge("core.cluster.largest"),
        }
    }
}

/// Burst-based simulator for the Periodic Messages model.
pub struct FastModel {
    params: PeriodicParams,
    nodes: Vec<FastNode>,
    /// Pending expiries, one per router, ascending by `(time, node)`.
    ring: VecDeque<(SimTime, NodeId)>,
    now: SimTime,
    /// Sends so far, as `round·N + fill` with `fill < N` (see the module
    /// docs on counting rounds).
    round: u64,
    fill: u64,
    /// Scratch: a burst of `m ≥ 2`'s members, then their re-armed
    /// expiries; reused across bursts and runs.
    members: Vec<(SimTime, NodeId)>,
    /// Scratch: the buffered reset group awaiting flush (see `run`).
    pending_ids: Vec<NodeId>,
    pending_at: Option<SimTime>,
    obs: FastObs,
    /// Previous burst's size, for the cluster-transition metric only.
    last_burst_len: usize,
}

impl FastModel {
    /// Build a fast model. Panics if the configuration needs the
    /// event-driven engine (non-`AfterProcessing` reset policy).
    pub fn new(params: PeriodicParams, start: StartState, seed: u64) -> Self {
        assert_eq!(
            params.reset_policy,
            TimerResetPolicy::AfterProcessing,
            "FastModel implements the paper's AfterProcessing semantics only"
        );
        let mut model = FastModel {
            params,
            nodes: Vec::with_capacity(params.n),
            ring: VecDeque::with_capacity(params.n),
            now: SimTime::ZERO,
            round: 0,
            fill: 0,
            members: Vec::with_capacity(params.n),
            pending_ids: Vec::with_capacity(params.n),
            pending_at: None,
            obs: FastObs::resolve(),
            last_burst_len: 0,
        };
        model.reset(&start, seed);
        model
    }

    /// Re-initialise for a fresh run with a new start state and seed,
    /// reusing every allocation (nodes, ring, scratch buffers). After
    /// `reset`, the model is indistinguishable from
    /// `FastModel::new(self.params, start, seed)`.
    pub fn reset(&mut self, start: &StartState, seed: u64) {
        self.ring.clear();
        self.nodes.clear();
        self.now = SimTime::ZERO;
        self.round = 0;
        self.fill = 0;
        self.members.clear();
        self.pending_ids.clear();
        self.pending_at = None;
        self.last_burst_len = 0;
        let tp = self.params.tp();
        if let StartState::Offsets(offsets) = start {
            assert_eq!(offsets.len(), self.params.n, "one offset per router");
        }
        for id in 0..self.params.n {
            // Draw order per router: its stream, then materialize
            // (FixedPerRouter consumes draws here), then the start state.
            let mut rng = routesync_rng::stream(seed, id as u64);
            let jitter = self.params.jitter.materialize(&mut rng);
            let first = match start {
                StartState::Unsynchronized => {
                    UniformDuration::new(Duration::ZERO, tp).sample(&mut rng)
                }
                StartState::Synchronized => tp,
                StartState::Offsets(offsets) => offsets[id],
            };
            self.ring.push_back((SimTime::ZERO + first, id));
            self.nodes.push(FastNode::new(jitter, rng.state()));
        }
        self.ring.make_contiguous().sort_unstable();
    }

    /// The model parameters.
    pub fn params(&self) -> &PeriodicParams {
        &self.params
    }

    /// Current simulated time (the last burst's reset instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total routing messages sent.
    pub fn sends(&self) -> u64 {
        self.round * self.params.n as u64 + self.fill
    }

    /// The current phase vector: each router's pending timer expiry
    /// modulo `period`, in nanoseconds, indexed by node id. Between
    /// bursts every router has exactly one pending expiry, so this is
    /// the instantaneous "where is everyone in the cycle" vector behind
    /// the Kuramoto order parameter R(t); feed it (scaled to seconds)
    /// to [`crate::analysis::order_parameter`].
    pub fn phase_offsets_into(&self, period: Duration, out: &mut Vec<u64>) {
        assert!(period.as_nanos() > 0, "period must be positive");
        out.clear();
        out.resize(self.params.n, 0);
        for &(t, id) in &self.ring {
            out[id] = t.as_nanos() % period.as_nanos();
        }
    }

    /// Re-arm a lone router: a `push_back` when its new expiry lands
    /// behind every pending one, otherwise a binary search and an insert.
    /// Returns how many pending expiries had to shift (`k`).
    #[inline]
    fn rearm_one(&mut self, entry: (SimTime, NodeId)) -> usize {
        let ring = &mut self.ring;
        if ring.back().is_none_or(|&last| last < entry) {
            ring.push_back(entry);
            return 0;
        }
        let at = ring.partition_point(|&e| e < entry);
        ring.insert(at, entry);
        ring.len() - 1 - at
    }

    /// Merge a burst's re-armed expiries (`self.members`, any order) into
    /// the ring: sort the new entries, grow the ring by `m`, and merge
    /// backwards so each pending entry later than the smallest new one
    /// moves exactly once. Returns how many moved (`k`).
    #[inline]
    fn rearm_burst(&mut self) -> usize {
        let ring = &mut self.ring;
        // `(time, node)` order, compared as one 128-bit key.
        self.members
            .sort_unstable_by_key(|&(t, id)| (u128::from(t.as_nanos()) << 64) | id as u128);
        let new = &self.members[..];
        let mut read = ring.len();
        ring.resize(read + new.len(), (SimTime::ZERO, 0));
        let mut write = ring.len();
        let mut left = new.len();
        let mut moved = 0;
        while left > 0 {
            write -= 1;
            if read > 0 && ring[read - 1] > new[left - 1] {
                read -= 1;
                ring[write] = ring[read];
                moved += 1;
            } else {
                left -= 1;
                ring[write] = new[left];
            }
        }
        moved
    }

    /// Hand the buffered reset group, if any, to the recorder with the
    /// current round.
    #[inline]
    fn flush<R: Recorder>(&mut self, recorder: &mut R) {
        if let Some(t) = self.pending_at.take() {
            recorder.on_cluster(t, self.round, &self.pending_ids);
        }
    }

    /// Run until the next burst would start at/after `horizon` or the
    /// recorder stops the run. Bursts are atomic: one that *starts* before
    /// the horizon is executed completely. Returns the time reached.
    pub fn run<R: Recorder>(&mut self, horizon: SimTime, recorder: &mut R) -> SimTime {
        let _span = routesync_obs::span!("core.fast.run");
        // Metrics accumulate in locals and flush once at exit, so the
        // per-burst cost with a live collector is a few register
        // increments and, when disabled, a single predictable branch.
        let obs_live = self.obs.bursts.is_live();
        let sends_at_entry = self.sends();
        let mut local_bursts = 0u64;
        let mut local_moves = 0u64;
        let mut local_transitions = 0u64;
        let mut local_largest = 0u64;
        let mut local_singles = 0u64;
        let mut local_sizes = self.obs.cluster_size.local();
        let tc = self.params.tc;
        let n = self.params.n as u64;
        // The burst-member and reset-group buffers live on the model so a
        // reused model (see `reset`) allocates nothing on the hot path.
        // The event-driven engine flushes a reset group to the recorder
        // only when the *next* group starts (its send counter then already
        // includes the following burst). Buffer one group to reproduce the
        // identical callback order and round accounting.
        loop {
            if recorder.should_stop() {
                break;
            }
            let Some(&(e1, first)) = self.ring.front() else {
                break;
            };
            if e1 >= horizon {
                break;
            }
            // Collect the burst and emit its sends in expiry order. A lone
            // router, the common case, never touches `members`.
            let lone = self
                .ring
                .get(1)
                .is_none_or(|&(e, _)| !joins_burst(e, e1 + tc, &self.params));
            self.ring.pop_front();
            let m = if lone {
                recorder.on_send(e1, first);
                1
            } else {
                self.members.clear();
                self.members.push((e1, first));
                while let Some(&(e, _)) = self.ring.front() {
                    let boundary = e1 + tc.saturating_mul(self.members.len() as u64);
                    if !joins_burst(e, boundary, &self.params) {
                        break;
                    }
                    self.members.push(self.ring.pop_front().expect("peeked"));
                }
                for &(e, node) in &self.members {
                    recorder.on_send(e, node);
                }
                self.members.len()
            };
            if obs_live {
                local_bursts += 1;
                // Singletons dominate unsynchronized runs; they go into
                // the size histogram in one lump at exit.
                if m == 1 {
                    local_singles += 1;
                } else {
                    local_sizes.record(m as u64);
                    local_largest = local_largest.max(m as u64);
                }
                if m != self.last_burst_len {
                    local_transitions += 1;
                    self.last_burst_len = m;
                }
            }
            // Count the burst's sends into the round (a burst has at most
            // N members, so the fill wraps at most once), then flush the
            // previous burst's reset group: its round now counts this
            // burst's sends, exactly like the event engine.
            self.fill += m as u64;
            if self.fill >= n {
                self.fill -= n;
                self.round += 1;
            }
            self.flush(recorder);
            // Simultaneous reset: the burst becomes the pending group.
            let reset = e1 + tc * m as u64;
            self.now = reset;
            self.pending_at = Some(reset);
            self.pending_ids.clear();
            // Re-arm everyone, in member order (each router draws from its
            // own stream, so only the ring order depends on the sort).
            if lone {
                self.pending_ids.push(first);
                let entry = (reset + self.nodes[first].interval(), first);
                local_moves += self.rearm_one(entry) as u64;
            } else {
                self.pending_ids
                    .extend(self.members.iter().map(|&(_, id)| id));
                for entry in &mut self.members {
                    entry.0 = reset + self.nodes[entry.1].interval();
                }
                local_moves += self.rearm_burst() as u64;
            }
        }
        self.flush(recorder);
        if obs_live {
            let sends_delta = self.sends() - sends_at_entry;
            self.obs.bursts.add(local_bursts);
            self.obs.sends.add(sends_delta);
            self.obs.ring_moves.add(local_moves);
            self.obs.transitions.add(local_transitions);
            local_sizes.record_n(1, local_singles);
            self.obs
                .cluster_largest
                .record_max(local_largest.max(local_singles.min(1)));
            self.obs.rounds.add(sends_delta / n);
            local_sizes.flush();
        }
        self.now
    }

    /// Run until all `N` routers reset in one burst (full
    /// synchronization) or `max_secs` elapse; mirrors
    /// [`crate::PeriodicModel::run_until_synchronized`].
    pub fn run_until_synchronized(&mut self, max_secs: f64) -> crate::SyncReport {
        let n = self.params.n;
        let round_len = self.params.round_len().as_secs_f64();
        let mut fp = crate::record::FirstPassageUp::new(n);
        self.run(SimTime::from_secs_f64(max_secs), &mut fp);
        let at = fp.first(n).map(|(t, _)| t.as_secs_f64());
        crate::experiment::record_sync_sample(at);
        crate::SyncReport {
            synchronized: fp.reached(),
            at_secs: at,
            rounds: at.map(|s| s / round_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PeriodicModel;
    use crate::record::{ClusterLog, SendTrace};
    use routesync_desim::Duration;

    fn params(n: usize, tr_ms: u64) -> PeriodicParams {
        PeriodicParams::new(
            n,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(tr_ms),
        )
    }

    /// Both engines produce identical send logs and cluster logs (up to a
    /// small horizon-boundary tail, since the fast model completes a burst
    /// the event model may leave half-finished at the horizon).
    fn assert_equivalent(p: PeriodicParams, start: StartState, seed: u64, horizon_s: u64) {
        let horizon = SimTime::from_secs(horizon_s);
        let mut slow = PeriodicModel::new(p, start.clone(), seed);
        let mut slow_rec = (SendTrace::new(), ClusterLog::new());
        slow.run(horizon, &mut slow_rec);
        let mut fast = FastModel::new(p, start, seed);
        let mut fast_rec = (SendTrace::new(), ClusterLog::new());
        fast.run(horizon, &mut fast_rec);

        // Canonicalize ties: expiries at the exact same instant are
        // processed in scheduling order by the event engine and in node-id
        // order by the fast engine; the order is semantically irrelevant
        // (per-node RNG streams), so sort within equal timestamps.
        let canonical = |sends: &[(SimTime, NodeId)]| {
            let mut v = sends.to_vec();
            v.sort_by_key(|&(t, id)| (t, id));
            v
        };
        let tail = 2 * p.n;
        let sends_slow = canonical(slow_rec.0.sends());
        let sends_fast = canonical(fast_rec.0.sends());
        let keep = sends_slow.len().min(sends_fast.len()).saturating_sub(tail);
        assert_eq!(
            &sends_slow[..keep],
            &sends_fast[..keep],
            "send logs diverge"
        );
        let cl_slow: Vec<(SimTime, u32)> = slow_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
        let cl_fast: Vec<(SimTime, u32)> = fast_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
        let keep = cl_slow.len().min(cl_fast.len()).saturating_sub(tail);
        assert_eq!(&cl_slow[..keep], &cl_fast[..keep], "cluster logs diverge");
        assert!(keep > 10, "equivalence window too small to be meaningful");
    }

    #[test]
    fn equivalent_on_the_reference_parameters() {
        assert_equivalent(params(20, 100), StartState::Unsynchronized, 1993, 100_000);
    }

    #[test]
    fn equivalent_from_synchronized_start_with_large_jitter() {
        assert_equivalent(params(20, 308), StartState::Synchronized, 7, 100_000);
    }

    #[test]
    fn equivalent_with_zero_jitter_and_custom_offsets() {
        let offs: Vec<Duration> = (0..5)
            .map(|i| Duration::from_millis(1000 + 55 * i))
            .collect();
        assert_equivalent(params(5, 0), StartState::Offsets(offs), 3, 50_000);
    }

    #[test]
    fn equivalent_across_seeds_and_sizes() {
        for seed in [1, 2, 3] {
            assert_equivalent(params(7, 150), StartState::Unsynchronized, seed, 60_000);
        }
        assert_equivalent(params(2, 60), StartState::Unsynchronized, 9, 60_000);
    }

    #[test]
    fn fast_model_synchronizes_the_reference_system() {
        let mut fast = FastModel::new(params(20, 100), StartState::Unsynchronized, 1993);
        let report = fast.run_until_synchronized(1_000_000.0);
        assert!(report.synchronized);
        // Same answer as the event-driven engine.
        let mut slow = PeriodicModel::new(params(20, 100), StartState::Unsynchronized, 1993);
        let slow_report = slow.run_until_synchronized(1_000_000.0);
        assert_eq!(report.at_secs, slow_report.at_secs);
    }

    #[test]
    fn fast_model_is_actually_faster() {
        // Not a benchmark, just a sanity ratio on a fixed workload.
        let horizon = SimTime::from_secs(200_000);
        let t0 = std::time::Instant::now();
        let mut slow = PeriodicModel::new(params(20, 100), StartState::Unsynchronized, 5);
        slow.run(horizon, &mut crate::record::NullRecorder);
        let slow_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let mut fast = FastModel::new(params(20, 100), StartState::Unsynchronized, 5);
        fast.run(horizon, &mut crate::record::NullRecorder);
        let fast_time = t1.elapsed();
        assert_eq!(slow.sends(), fast.sends());
        assert!(
            fast_time < slow_time,
            "fast {fast_time:?} should beat event-driven {slow_time:?}"
        );
    }

    /// A reused (reset) model is bit-identical to a freshly constructed
    /// one — the contract `run_many` relies on for cross-seed reuse.
    #[test]
    fn reset_reproduces_fresh_model() {
        let p = params(10, 100);
        let horizon = SimTime::from_secs(50_000);
        let mut reused = FastModel::new(p, StartState::Unsynchronized, 1);
        reused.run(horizon, &mut crate::record::NullRecorder);
        for seed in [5u64, 9, 42] {
            reused.reset(&StartState::Unsynchronized, seed);
            let mut rec_reused = (SendTrace::new(), ClusterLog::new());
            reused.run(horizon, &mut rec_reused);
            let mut fresh = FastModel::new(p, StartState::Unsynchronized, seed);
            let mut rec_fresh = (SendTrace::new(), ClusterLog::new());
            fresh.run(horizon, &mut rec_fresh);
            assert_eq!(rec_reused.0.sends(), rec_fresh.0.sends(), "seed {seed}");
            assert_eq!(rec_reused.1.groups(), rec_fresh.1.groups(), "seed {seed}");
            assert_eq!(reused.sends(), fresh.sends());
        }
    }

    /// `core.fast.ring.moves` over `core.fast.sends` for one run under a
    /// collector scoped to this thread. Also checks the burst metrics
    /// against each other: one size per burst, sizes summing to sends.
    fn ring_moves(p: PeriodicParams, start: StartState) -> (u64, u64) {
        let live = routesync_obs::Collector::enabled();
        let _scope = routesync_obs::scoped(live.clone());
        let mut fast = FastModel::new(p, start, 1993);
        let mut log = ClusterLog::new();
        fast.run(SimTime::from_secs(200_000), &mut log);
        let snap = live.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let sizes = &snap.histograms["core.cluster.size"];
        assert_eq!(count("core.fast.sends"), fast.sends());
        assert_eq!(sizes.count, count("core.fast.bursts"));
        assert_eq!(sizes.sum, fast.sends());
        let largest = snap.gauges["core.cluster.largest"];
        assert_eq!(largest, u64::from(log.max_size()));
        (count("core.fast.ring.moves"), fast.sends())
    }

    /// The ring's work stays within its envelope where the paper's
    /// configurations put it, and the counter tracks the `k ≈ N/6` cost
    /// of wide jitter.
    #[test]
    fn ring_moves_stay_within_the_envelope() {
        let (moves, sends) = ring_moves(params(20, 300), StartState::Unsynchronized);
        assert!(moves <= 2 * sends, "{moves} moves for {sends} sends");
        let (moves, sends) = ring_moves(params(20, 300), StartState::Synchronized);
        let bound = 2.0 * sends as f64 * 20f64.log2();
        assert!(moves as f64 <= bound, "{moves} moves for {sends} sends");
        let half = params(30, 0).with_jitter(JitterPolicy::UniformHalf {
            tp: Duration::from_secs(121),
        });
        let (moves, sends) = ring_moves(half, StartState::Unsynchronized);
        // (N − 1)·Tr/(3·Tp) with Tr = Tp/2: about 4.8 per send.
        let per_send = moves as f64 / sends as f64;
        assert!((3.0..7.0).contains(&per_send), "{per_send} moves per send");
    }

    /// One run's send trace and cluster log under `collector`.
    fn traced_run(
        p: PeriodicParams,
        start: &StartState,
        collector: routesync_obs::Collector,
    ) -> (SendTrace, ClusterLog) {
        let _scope = routesync_obs::scoped(collector);
        let mut fast = FastModel::new(p, start.clone(), 1993);
        let mut rec = (SendTrace::new(), ClusterLog::new());
        fast.run(SimTime::from_secs(200_000), &mut rec);
        rec
    }

    /// A live collector changes no output on either burst shape, and its
    /// burst metrics agree with the cluster log: size-1 groups in the
    /// histogram's first bucket, one transition per change of group size.
    /// Returns the share of sends that went out in lone bursts.
    fn obs_matches_the_log(p: PeriodicParams, start: StartState) -> f64 {
        let (sends, log) = traced_run(p, &start, routesync_obs::Collector::disabled());
        let live = routesync_obs::Collector::enabled();
        let (traced_sends, traced_log) = traced_run(p, &start, live.clone());
        assert_eq!(sends.sends(), traced_sends.sends(), "send traces differ");
        assert_eq!(log.groups(), traced_log.groups(), "cluster logs differ");

        let snap = live.snapshot();
        let groups = log.groups();
        let singles = groups.iter().filter(|g| g.2 == 1).count() as u64;
        assert_eq!(snap.histograms["core.cluster.size"].counts[0], singles);
        let mut last = 0;
        let mut changes = 0u64;
        for g in groups {
            changes += u64::from(g.2 != last);
            last = g.2;
        }
        assert_eq!(snap.counters["core.cluster.transitions"], changes);
        singles as f64 / sends.sends().len() as f64
    }

    #[test]
    fn obs_is_exact_on_lone_bursts() {
        let lone = obs_matches_the_log(params(20, 300), StartState::Unsynchronized);
        assert!(lone > 0.9, "{lone} of sends in lone bursts");
    }

    #[test]
    fn obs_is_exact_on_clusters() {
        let lone = obs_matches_the_log(params(20, 20), StartState::Synchronized);
        assert!(lone < 0.1, "{lone} of sends in lone bursts");
    }

    /// Counts sends and checks that every reset group carries
    /// `sends / N`, the round the event engine reports.
    struct RoundCheck {
        n: u64,
        sends: u64,
        groups: u64,
    }

    impl Recorder for RoundCheck {
        fn on_send(&mut self, _t: SimTime, _node: NodeId) {
            self.sends += 1;
        }

        fn on_cluster(&mut self, t: SimTime, round: u64, _nodes: &[NodeId]) {
            assert_eq!(round, self.sends / self.n, "group at {t}");
            self.groups += 1;
        }
    }

    /// The running `(round, fill)` count equals `sends / N` at every
    /// flush, from either start, across two consecutive `run` calls on one
    /// model, and again after `reset`.
    #[test]
    fn rounds_equal_sends_over_n_at_every_flush() {
        for (p, start) in [
            (params(20, 300), StartState::Unsynchronized),
            (params(20, 100), StartState::Unsynchronized),
            (params(20, 20), StartState::Synchronized),
            (params(7, 0), StartState::Synchronized),
        ] {
            let mut check = RoundCheck {
                n: p.n as u64,
                sends: 0,
                groups: 0,
            };
            let mut fast = FastModel::new(p, start.clone(), 11);
            fast.run(SimTime::from_secs(30_000), &mut check);
            fast.run(SimTime::from_secs(60_000), &mut check);
            assert_eq!(check.sends, fast.sends());
            assert!(check.sends > 10 * p.n as u64 && check.groups > 10);
            fast.reset(&start, 12);
            check.sends = 0;
            fast.run(SimTime::from_secs(30_000), &mut check);
            assert_eq!(check.sends, fast.sends());
        }
    }

    #[test]
    #[should_panic(expected = "AfterProcessing")]
    fn on_expiry_policy_rejected() {
        let p = params(5, 100).with_reset_policy(TimerResetPolicy::OnExpiry);
        let _ = FastModel::new(p, StartState::Unsynchronized, 1);
    }
}
