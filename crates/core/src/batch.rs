//! Structure-of-arrays batched ensemble engine.
//!
//! Every headline statistic in the paper is an *ensemble* quantity:
//! hundreds to thousands of independent runs of the same `(params, seed_i)`
//! system, differing only in the seed. [`crate::FastModel`] executes one
//! such cell at a time from a `BinaryHeap` of expiries — branchy
//! comparison-driven code whose per-event cost is dominated by heap
//! reshuffling and branch mispredictions. [`BatchedEnsemble`] instead lays
//! the whole block of cells out as flat columns and advances **W cells per
//! inner-loop pass**:
//!
//! * `expiry[node * W + cell]` — next timer expiry in nanoseconds,
//!   node-major so the per-pass argmin scans contiguous rows and
//!   auto-vectorizes across cells;
//! * `rng[node * W + cell]` — raw MinStd states (`routesync_rng::raw`),
//!   advanced with exactly the scalar arithmetic;
//! * per-cell columns for send counters, the buffered reset group, and the
//!   cluster high-water mark.
//!
//! One *pass* executes one burst per active cell: a vectorizable
//! expiry-select (argmin over the node lanes of every cell at once), a
//! lockstep burst-join loop (each round extends every still-open burst by
//! its next-smallest expiry, using the same [`crate::fast::joins_burst`]
//! rule — including any injected defect), then a scalar writeback phase
//! (send emission, cluster flush, simultaneous reset, re-arm draws).
//!
//! The engine is **trace-identical** to [`crate::FastModel`]: for any
//! `(params, seed)` the per-cell send log, cluster log, round accounting
//! and final counters are byte-for-byte the same, because the burst rule,
//! tie ordering (time, then node id), buffered one-burst-delayed cluster
//! flush, and every RNG draw are replicated exactly. The equivalence is
//! enforced by unit tests here, property tests in `routesync-integration`,
//! and the `EngineEquivalence` oracle in `routesync-conformance`.
//!
//! Like the scalar fast path, the batched engine covers the paper's
//! Section 4-5 measurement configuration only (`AfterProcessing` resets,
//! no injected triggered updates); anything else needs the event-driven
//! [`crate::PeriodicModel`].

use routesync_desim::{Duration, SimTime};
use routesync_rng::{JitterPolicy, TimerResetPolicy, UniformDuration};

use crate::fast::joins_burst;
use crate::model::NodeId;
use crate::params::{PeriodicParams, StartState};
use crate::record::Recorder;

/// Default cells-per-block width: big enough to fill SIMD lanes and hide
/// RNG latency, small enough that a block's columns stay in L1.
pub const DEFAULT_WIDTH: usize = 32;

/// Expiry lanes hold *packed keys*: `time_nanos << ID_BITS | node_id`.
/// One unsigned compare on keys IS the scalar heap's `(time, node id)`
/// lexicographic order, so the per-pass minima reduce to pure `min`/`max`
/// chains with no index bookkeeping (AVX-friendly), and ties break
/// identically to `BinaryHeap<Reverse<(SimTime, NodeId)>>` by construction.
const ID_BITS: u32 = 8;

/// Largest packable time: 2^56 ns ≈ 2.28 simulated years, far beyond any
/// horizon the experiments use. Times past it saturate to [`BUSY`], which
/// still orders after every real key and trips the horizon retire check.
const MAX_KEY_TIME: u64 = u64::MAX >> ID_BITS;

/// Sentinel key for a node that is mid-burst (popped from its lane).
/// Orders after every live key, so it loses every strict comparison.
const BUSY: u64 = u64::MAX;

/// Pack an expiry into its lane key.
#[inline]
fn key(t: u64, id: u64) -> u64 {
    if t >= MAX_KEY_TIME {
        BUSY
    } else {
        (t << ID_BITS) | id
    }
}

/// Sentinel for "no buffered reset group".
const NO_PENDING: u64 = u64::MAX;

/// Instrumentation handles, resolved once at construction from the global
/// `routesync-obs` collector; metric-only, so instrumented and bare runs
/// are bit-identical.
struct BatchObs {
    /// Ensemble cells started (`core.batch.cells`).
    cells: routesync_obs::Counter,
    /// Lockstep passes executed (`core.batch.passes`).
    passes: routesync_obs::Counter,
    /// Bursts executed across all cells (`core.batch.bursts`).
    bursts: routesync_obs::Counter,
    /// Routing messages sent across all cells (`core.batch.sends`).
    sends: routesync_obs::Counter,
}

impl BatchObs {
    fn resolve() -> Self {
        let obs = routesync_obs::global();
        BatchObs {
            cells: obs.counter("core.batch.cells"),
            passes: obs.counter("core.batch.passes"),
            bursts: obs.counter("core.batch.bursts"),
            sends: obs.counter("core.batch.sends"),
        }
    }
}

/// A block of up to `width` independent Periodic Messages systems advanced
/// in lockstep over structure-of-arrays state.
pub struct BatchedEnsemble {
    params: PeriodicParams,
    /// Capacity: cells per block. Fixed at construction; column strides.
    width: usize,
    /// Cells live in the current block (set by [`BatchedEnsemble::reset`]).
    cells: usize,
    n: usize,
    tc: u64,
    // --- node-major columns, index = node * width + cell ---
    expiry: Vec<u64>,
    rng: Vec<u32>,
    jit_lo: Vec<u64>,
    jit_span: Vec<u64>,
    // --- per-cell columns ---
    now: Vec<u64>,
    sends: Vec<u64>,
    /// `sends / n`, maintained incrementally (no division on the hot path).
    rounds_done: Vec<u64>,
    sends_into_round: Vec<u32>,
    pending_at: Vec<u64>,
    pending_len: Vec<u32>,
    /// Buffered reset-group members, stride `n` per cell.
    pending: Vec<NodeId>,
    high_water: Vec<u32>,
    /// Cell still short of its horizon / stop condition (1 = live, 0 =
    /// retired; a u64 mask so the columnar passes stay branchless).
    active: Vec<u64>,
    /// Per-pass scratch: 1 for cells taking the single-sender fast path.
    fast: Vec<u64>,
    // --- per-pass scratch: the two smallest lane keys per cell ---
    min1_k: Vec<u64>,
    min2_k: Vec<u64>,
    /// Burst members in join order (single burst; the block sweep is
    /// per-cell, so one buffer serves all cells).
    members: Vec<(u64, u64)>,
    obs: BatchObs,
}

impl BatchedEnsemble {
    /// A block engine for up to `width` cells of the given parameters.
    ///
    /// Panics if the configuration needs the event-driven engine
    /// (non-`AfterProcessing` reset policy) or `width == 0`.
    pub fn new(params: PeriodicParams, width: usize) -> Self {
        assert_eq!(
            params.reset_policy,
            TimerResetPolicy::AfterProcessing,
            "BatchedEnsemble implements the paper's AfterProcessing semantics only"
        );
        assert!(width > 0, "need at least one cell per block");
        assert!(
            params.n <= 1 << ID_BITS,
            "packed lane keys carry {}-bit node ids (N <= {})",
            ID_BITS,
            1u64 << ID_BITS
        );
        let n = params.n;
        BatchedEnsemble {
            params,
            width,
            cells: 0,
            n,
            tc: params.tc.as_nanos(),
            expiry: vec![0; n * width],
            rng: vec![1; n * width],
            jit_lo: vec![0; n * width],
            jit_span: vec![0; n * width],
            now: vec![0; width],
            sends: vec![0; width],
            rounds_done: vec![0; width],
            sends_into_round: vec![0; width],
            pending_at: vec![NO_PENDING; width],
            pending_len: vec![0; width],
            pending: vec![0; n * width],
            high_water: vec![0; width],
            active: vec![0; width],
            fast: vec![0; width],
            min1_k: vec![BUSY; width],
            min2_k: vec![BUSY; width],
            members: Vec::with_capacity(n),
            obs: BatchObs::resolve(),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &PeriodicParams {
        &self.params
    }

    /// Block capacity (cells per block).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cells live in the current block.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Current simulated time of cell `c` (its last burst's reset instant).
    pub fn now(&self, c: usize) -> SimTime {
        SimTime(self.now[c])
    }

    /// Total routing messages sent by cell `c`.
    pub fn sends(&self, c: usize) -> u64 {
        self.sends[c]
    }

    /// Largest simultaneous-reset group cell `c` has produced.
    pub fn high_water(&self, c: usize) -> u32 {
        self.high_water[c]
    }

    /// The current phase vector of cell `c`: each router's pending timer
    /// expiry modulo `period`, in nanoseconds, indexed by node id — the
    /// SoA counterpart of [`crate::FastModel::phase_offsets_into`],
    /// byte-identical to it after identical runs (lane `j` is node `j`;
    /// `BUSY` markers never survive a pass). Behind the Kuramoto order
    /// parameter R(t).
    pub fn phase_offsets_into(&self, c: usize, period: Duration, out: &mut Vec<u64>) {
        assert!(c < self.cells, "cell {c} out of range ({})", self.cells);
        assert!(period.as_nanos() > 0, "period must be positive");
        out.clear();
        let w = self.width;
        let p = period.as_nanos();
        for j in 0..self.n {
            out.push((self.expiry[j * w + c] >> ID_BITS) % p);
        }
    }

    /// Load one cell per seed (at most `width`), each initialised exactly
    /// like `FastModel::new(params, start, seed)`: per-node streams from
    /// [`routesync_rng::stream`], configuration-time jitter materialised,
    /// first expiries drawn per the start state. Reuses every column.
    pub fn reset(&mut self, start: &StartState, seeds: &[u64]) {
        assert!(
            !seeds.is_empty() && seeds.len() <= self.width,
            "block takes 1..=width cells, got {} (width {})",
            seeds.len(),
            self.width
        );
        self.cells = seeds.len();
        self.obs.cells.add(seeds.len() as u64);
        let w = self.width;
        let tp = self.params.tp();
        if let StartState::Offsets(offsets) = start {
            assert_eq!(offsets.len(), self.n, "one offset per router");
        }
        for (c, &seed) in seeds.iter().enumerate() {
            self.now[c] = 0;
            self.sends[c] = 0;
            self.rounds_done[c] = 0;
            self.sends_into_round[c] = 0;
            self.pending_at[c] = NO_PENDING;
            self.pending_len[c] = 0;
            self.high_water[c] = 0;
            self.active[c] = 1;
            for id in 0..self.n {
                // Identical draw order to FastModel::reset: stream, then
                // materialize (FixedPerRouter consumes draws here), then
                // the start-state draw.
                let mut rng = routesync_rng::stream(seed, id as u64);
                let jitter = self.params.jitter.materialize(&mut rng);
                let first = match start {
                    StartState::Unsynchronized => {
                        UniformDuration::new(routesync_desim::Duration::ZERO, tp).sample(&mut rng)
                    }
                    StartState::Synchronized => tp,
                    StartState::Offsets(offsets) => offsets[id],
                };
                let idx = id * w + c;
                self.expiry[idx] = key(first.as_nanos(), id as u64);
                self.rng[idx] = rng.state();
                // Flatten the (materialized) policy into draw bounds so the
                // hot loop samples without matching on the policy enum. A
                // zero span means "no draw", matching JitterPolicy::sample.
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
                self.jit_lo[idx] = lo;
                self.jit_span[idx] = span;
            }
        }
    }

    /// The vectorizable expiry-select: for every cell in the block, the
    /// two smallest lane keys. Cells are processed in fixed-width register
    /// blocks: the running minima live in locals sized to a SIMD register,
    /// so the node loop is a pure load/min/max chain with no round trips
    /// through the scratch columns.
    ///
    /// Keys are unique (the node id is packed into the low bits), so the
    /// textbook two-smallest recurrence over keys is exact, and key order
    /// IS the scalar heap's `(time, node id)` order.
    #[inline]
    fn twomin_pass(&mut self) {
        /// Cells per register block: 8 × u64 = one AVX-512 register (two
        /// AVX2 registers), the sweet spot for the accumulator chain.
        const CHUNK: usize = 8;
        let w = self.width;
        let cells = self.cells;
        let n = self.n;
        let expiry = &self.expiry[..n * w];
        let mut base = 0;
        while base + CHUNK <= cells {
            let mut m1 = [BUSY; CHUNK];
            let mut m2 = [BUSY; CHUNK];
            for j in 0..n {
                let row = &expiry[j * w + base..j * w + base + CHUNK];
                for k in 0..CHUNK {
                    let t = row[k];
                    let hi = if t > m1[k] { t } else { m1[k] };
                    m2[k] = if hi < m2[k] { hi } else { m2[k] };
                    m1[k] = if t < m1[k] { t } else { m1[k] };
                }
            }
            self.min1_k[base..base + CHUNK].copy_from_slice(&m1);
            self.min2_k[base..base + CHUNK].copy_from_slice(&m2);
            base += CHUNK;
        }
        // Remainder cells (blocks narrower than CHUNK), one at a time.
        for c in base..cells {
            let mut m1 = BUSY;
            let mut m2 = BUSY;
            for j in 0..n {
                let t = expiry[j * w + c];
                let hi = if t > m1 { t } else { m1 };
                m2 = if hi < m2 { hi } else { m2 };
                m1 = if t < m1 { t } else { m1 };
            }
            self.min1_k[c] = m1;
            self.min2_k[c] = m2;
        }
    }

    /// Run every cell until its next burst would start at/after `horizon`
    /// or its recorder stops it. Bursts are atomic, exactly as in
    /// [`crate::FastModel::run`]. `recorders[c]` observes cell `c`.
    pub fn run<R: Recorder>(&mut self, horizon: SimTime, recorders: &mut [R]) {
        assert_eq!(recorders.len(), self.cells, "one recorder per loaded cell");
        let _span = routesync_obs::span!("core.batch.run");
        let obs_live = self.obs.passes.is_live();
        let mut local_passes = 0u64;
        let mut local_bursts = 0u64;
        let mut local_sends = 0u64;
        let horizon = horizon.as_nanos();
        let w = self.width;
        let n = self.n;
        let tc = self.params.tc;
        let tc_n = self.tc;
        let idm = (1u64 << ID_BITS) - 1;
        let n32 = n as u32;
        let cells = self.cells;
        let mut live = cells;
        while live > 0 {
            local_passes += 1;
            // Phase 1: the vectorized select. One sweep yields, for every
            // cell, the burst seed (first minimum) *and* the key the join
            // rule must test next (second minimum) -- so the dominant
            // single-sender burst costs exactly one lane scan.
            self.twomin_pass();
            // The per-pass phases below index disjoint columns; binding
            // them as exact-length slices lets the bounds checks fold away
            // and keeps the masked passes branch-free.
            let min1_k = &self.min1_k[..cells];
            let min2_k = &self.min2_k[..cells];
            let fast = &mut self.fast[..cells];
            let active = &mut self.active[..cells];
            let sends_col = &mut self.sends[..cells];
            let sir = &mut self.sends_into_round[..cells];
            let rounds = &mut self.rounds_done[..cells];
            let pat = &mut self.pending_at[..cells];
            let plen = &mut self.pending_len[..cells];
            let pend = &mut self.pending[..cells * n];
            let hw = &mut self.high_water[..cells];
            let nowc = &mut self.now[..cells];
            let expiry = &mut self.expiry[..];
            let rng = &mut self.rng[..];
            let jlo = &self.jit_lo[..];
            let jsp = &self.jit_span[..];
            let members = &mut self.members;
            // Phase 2: classify. A cell is *slow* when its burst gains a
            // second member (min2 joins), it reached the horizon, or its
            // recorder stops it; everything else takes the branch-free
            // single-sender path. The loop is a pure mask computation
            // (vectorizable) whenever `should_stop` inlines to a constant.
            let mut any_slow = 0u64;
            for c in 0..cells {
                let e1 = min1_k[c] >> ID_BITS;
                let joins = joins_burst(
                    SimTime(min2_k[c] >> ID_BITS),
                    SimTime(e1.wrapping_add(tc_n)),
                    tc,
                );
                let slow = (joins | (e1 >= horizon) | recorders[c].should_stop()) as u64;
                fast[c] = active[c] & (1 - slow);
                any_slow |= active[c] & slow;
            }
            // Phase 3 (rare): slow cells, one at a time — retire-and-flush,
            // or a multi-member burst collected by rescanning that cell's
            // lanes (the busy-lane sentinel keeps joined lanes out).
            if any_slow != 0 {
                for c in 0..cells {
                    if active[c] == 0 || fast[c] != 0 {
                        continue;
                    }
                    let k1 = min1_k[c];
                    let e1 = k1 >> ID_BITS;
                    if recorders[c].should_stop() || e1 >= horizon {
                        active[c] = 0;
                        live -= 1;
                        if pat[c] != NO_PENDING {
                            let len = (plen[c] as usize).min(n);
                            recorders[c].on_cluster(
                                SimTime(pat[c]),
                                rounds[c],
                                &pend[c * n..c * n + len],
                            );
                            pat[c] = NO_PENDING;
                            plen[c] = 0;
                        }
                        continue;
                    }
                    local_bursts += 1;
                    // The classify pass saw min2 join, so the burst has at
                    // least two members.
                    let i1 = k1 & idm;
                    let k2 = min2_k[c];
                    members.clear();
                    members.push((e1, i1));
                    members.push((k2 >> ID_BITS, k2 & idm));
                    expiry[i1 as usize * w + c] = BUSY;
                    expiry[(k2 & idm) as usize * w + c] = BUSY;
                    loop {
                        // Next-smallest live lane; key order is (time,
                        // node) order.
                        let mut bk = BUSY;
                        for j in 0..n {
                            let t = expiry[j * w + c];
                            if t < bk {
                                bk = t;
                            }
                        }
                        let boundary = e1.wrapping_add(tc_n.saturating_mul(members.len() as u64));
                        if bk != BUSY && joins_burst(SimTime(bk >> ID_BITS), SimTime(boundary), tc)
                        {
                            let bi = bk & idm;
                            members.push((bk >> ID_BITS, bi));
                            expiry[bi as usize * w + c] = BUSY;
                        } else {
                            break;
                        }
                    }
                    let m = members.len();
                    // Emit sends in expiry order.
                    for &(t, id) in members.iter() {
                        recorders[c].on_send(SimTime(t), id as NodeId);
                    }
                    sends_col[c] += m as u64;
                    local_sends += m as u64;
                    // sends / n without the division: m <= n, one subtract.
                    let s = sir[c] + m as u32;
                    let ge = (s >= n32) as u32;
                    sir[c] = s - ge * n32;
                    rounds[c] += ge as u64;
                    // Flush the previous burst's reset group (its round
                    // counts this burst's sends, like the event engine).
                    if pat[c] != NO_PENDING {
                        let len = (plen[c] as usize).min(n);
                        recorders[c].on_cluster(
                            SimTime(pat[c]),
                            rounds[c],
                            &pend[c * n..c * n + len],
                        );
                    }
                    // Simultaneous reset and re-arm.
                    let reset = e1.wrapping_add(tc_n.wrapping_mul(m as u64));
                    nowc[c] = reset;
                    pat[c] = reset;
                    plen[c] = m as u32;
                    hw[c] = hw[c].max(m as u32);
                    for k in 0..m {
                        let id = members[k].1;
                        pend[c * n + k] = id as NodeId;
                        let idx = id as usize * w + c;
                        let interval = routesync_rng::raw::sample_uniform_nanos(
                            &mut rng[idx],
                            jlo[idx],
                            jsp[idx],
                        );
                        expiry[idx] = key(reset.saturating_add(interval), id);
                    }
                }
                if live == 0 {
                    break;
                }
            }
            // Phase 4 (columnar, masked): counters for every fast cell.
            let mut nfast = 0u64;
            for c in 0..cells {
                let f = fast[c];
                nfast += f;
                sends_col[c] += f;
                let s = sir[c] + f as u32;
                let ge = (s >= n32) as u32;
                sir[c] = s - ge * n32;
                rounds[c] += ge as u64;
            }
            local_bursts += nfast;
            local_sends += nfast;
            // Phase 5: recorder callbacks, in the engine-defined per-cell
            // order (send, then the delayed cluster flush). For observer-
            // free runs (`NullRecorder`) this loop compiles to nothing.
            for c in 0..cells {
                if fast[c] == 0 {
                    continue;
                }
                let k1 = min1_k[c];
                recorders[c].on_send(SimTime(k1 >> ID_BITS), (k1 & idm) as NodeId);
                if pat[c] != NO_PENDING {
                    let len = (plen[c] as usize).min(n);
                    recorders[c].on_cluster(SimTime(pat[c]), rounds[c], &pend[c * n..c * n + len]);
                }
            }
            // Phase 6 (columnar, masked): the simultaneous reset becomes
            // the new buffered group; `m = 1` folds the high-water update
            // into a max with the mask itself.
            for c in 0..cells {
                let f = fast[c];
                let reset = (min1_k[c] >> ID_BITS).wrapping_add(tc_n);
                pat[c] = if f != 0 { reset } else { pat[c] };
                nowc[c] = if f != 0 { reset } else { nowc[c] };
                plen[c] = if f != 0 { 1 } else { plen[c] };
                hw[c] = hw[c].max(f as u32);
            }
            // Phase 7 (scalar, tight): one jitter draw and one lane
            // re-arm per fast cell. Consecutive cells' generators are
            // independent, so the draws overlap in flight.
            for c in 0..cells {
                if fast[c] == 0 {
                    continue;
                }
                let k1 = min1_k[c];
                let i1 = (k1 & idm) as usize;
                pend[c * n] = i1;
                let idx = i1 * w + c;
                let interval =
                    routesync_rng::raw::sample_uniform_nanos(&mut rng[idx], jlo[idx], jsp[idx]);
                let reset = (k1 >> ID_BITS).wrapping_add(tc_n);
                expiry[idx] = key(reset.saturating_add(interval), i1 as u64);
            }
        }
        if obs_live {
            self.obs.passes.add(local_passes);
            self.obs.bursts.add(local_bursts);
            self.obs.sends.add(local_sends);
        }
    }
}

/// Per-cell terminal state handed to the `finish` callback of
/// [`crate::experiment::run_ensemble`] and [`run_blocks`], uniform across
/// engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOut {
    /// The cell's seed.
    pub seed: u64,
    /// Simulated time reached (the last burst's reset instant).
    pub now: SimTime,
    /// Total routing messages the cell sent.
    pub sends: u64,
}

/// Run one cell per seed to `horizon` through the SoA block kernel:
/// seeds are chunked into blocks of `width` cells, each block is one
/// [`routesync_exec::Ensemble`] item (each worker reusing one
/// [`BatchedEnsemble`]), and every block advances its cells in lockstep.
///
/// `make` builds each cell's recorder; `finish` maps `(terminal state,
/// recorder)` to a result. Results are in seed order and byte-identical
/// to the scalar path ([`crate::experiment::run_ensemble`] with
/// [`Engine::Scalar`]) at any width and thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_blocks<R, T, M, F>(
    params: PeriodicParams,
    start: &StartState,
    seeds: &[u64],
    horizon: SimTime,
    threads: usize,
    width: usize,
    make: M,
    finish: F,
) -> Vec<T>
where
    R: Recorder + Send,
    T: Send,
    M: Fn(u64) -> R + Sync,
    F: Fn(CellOut, R) -> T + Sync,
{
    let width = width.max(1);
    let blocks: Vec<&[u64]> = seeds.chunks(width).collect();
    routesync_exec::Ensemble::new(&blocks)
        .threads(threads)
        .run(
            || BatchedEnsemble::new(params, width),
            |block_engine, _ctx, _i, block| {
                block_engine.reset(start, block);
                let mut recs: Vec<R> = block.iter().map(|&s| make(s)).collect();
                block_engine.run(horizon, &mut recs);
                recs.into_iter()
                    .enumerate()
                    .map(|(c, rec)| {
                        let (now, sends) = (block_engine.now(c), block_engine.sends(c));
                        finish(
                            CellOut {
                                seed: block[c],
                                now,
                                sends,
                            },
                            rec,
                        )
                    })
                    .collect::<Vec<T>>()
            },
        )
        .into_values()
        .into_iter()
        .flatten()
        .collect()
}

/// A named engine selection for [`crate::experiment::run_ensemble`],
/// CLI flags and the bench and experiment binaries. [`Engine::Scalar`]
/// and [`Engine::Batched`] are trace-identical; the choice only affects
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// One [`crate::FastModel`] per worker, reset per seed.
    Scalar,
    /// The SoA block kernel ([`BatchedEnsemble`]) at [`DEFAULT_WIDTH`].
    Batched,
}

impl Engine {
    /// All engines, in the order help text lists them.
    pub const ALL: [Engine; 2] = [Engine::Scalar, Engine::Batched];

    /// Stable name used by `--engine` flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Batched => "batched",
        }
    }

    /// Parse an `--engine` flag value.
    pub fn from_name(name: &str) -> Result<Engine, String> {
        match name {
            "scalar" => Ok(Engine::Scalar),
            "batched" => Ok(Engine::Batched),
            other => Err(format!(
                "unknown engine {other:?} (expected scalar or batched)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        Engine::from_name(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ClusterLog, FirstPassageUp, NullRecorder, SendTrace};
    use crate::FastModel;
    use routesync_desim::Duration;

    fn params(n: usize, tr_ms: u64) -> PeriodicParams {
        PeriodicParams::new(
            n,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(tr_ms),
        )
    }

    /// Full per-cell traces from the batched engine at the given width
    /// must equal fresh scalar FastModel traces exactly — no canonical
    /// reordering, no boundary tail tolerance.
    fn assert_identical(
        p: PeriodicParams,
        start: StartState,
        seeds: &[u64],
        width: usize,
        horizon_s: u64,
    ) {
        let horizon = SimTime::from_secs(horizon_s);
        let mut batch = BatchedEnsemble::new(p, width);
        for chunk in seeds.chunks(width) {
            batch.reset(&start, chunk);
            let mut recs: Vec<(SendTrace, ClusterLog)> = chunk
                .iter()
                .map(|_| (SendTrace::new(), ClusterLog::new()))
                .collect();
            batch.run(horizon, &mut recs);
            for (c, &seed) in chunk.iter().enumerate() {
                let mut fast = FastModel::new(p, start.clone(), seed);
                let mut rec = (SendTrace::new(), ClusterLog::new());
                let now = fast.run(horizon, &mut rec);
                assert_eq!(
                    recs[c].0.sends(),
                    rec.0.sends(),
                    "send log diverges: width {width} seed {seed}"
                );
                assert_eq!(
                    recs[c].1.groups(),
                    rec.1.groups(),
                    "cluster log diverges: width {width} seed {seed}"
                );
                assert_eq!(batch.sends(c), fast.sends(), "seed {seed}");
                assert_eq!(batch.now(c), now, "seed {seed}");
            }
        }
    }

    #[test]
    fn identical_on_reference_parameters_across_widths() {
        let seeds: Vec<u64> = (1..=6).collect();
        for width in [1, 3, 8] {
            assert_identical(
                params(20, 100),
                StartState::Unsynchronized,
                &seeds,
                width,
                30_000,
            );
        }
    }

    #[test]
    fn identical_from_synchronized_start_with_large_jitter() {
        assert_identical(
            params(13, 308),
            StartState::Synchronized,
            &[7, 8, 9, 10],
            4,
            50_000,
        );
    }

    #[test]
    fn identical_with_zero_jitter_and_custom_offsets() {
        let offs: Vec<Duration> = (0..5)
            .map(|i| Duration::from_millis(1000 + 55 * i))
            .collect();
        assert_identical(params(5, 0), StartState::Offsets(offs), &[3, 4], 2, 20_000);
    }

    #[test]
    fn identical_under_alternative_jitter_policies() {
        let half = params(6, 0).with_jitter(JitterPolicy::UniformHalf {
            tp: Duration::from_secs(30),
        });
        assert_identical(half, StartState::Unsynchronized, &[1, 2, 3], 3, 20_000);
        let fixed = params(6, 0).with_jitter(JitterPolicy::FixedPerRouter {
            tp: Duration::from_secs(121),
            tr: Duration::from_secs(5),
        });
        assert_identical(fixed, StartState::Unsynchronized, &[4, 5, 6], 2, 40_000);
        let none = params(4, 0).with_jitter(JitterPolicy::None {
            tp: Duration::from_secs(121),
        });
        assert_identical(none, StartState::Unsynchronized, &[11, 12], 2, 20_000);
    }

    /// Early stops (FirstPassageUp) retire cells at the same instant and
    /// with the same passage table as the scalar engine, while the rest of
    /// the block keeps running.
    #[test]
    fn stop_conditions_retire_cells_identically() {
        let p = params(10, 100);
        let seeds: Vec<u64> = (1..=5).collect();
        let horizon = SimTime::from_secs(400_000);
        let mut batch = BatchedEnsemble::new(p, seeds.len());
        batch.reset(&StartState::Unsynchronized, &seeds);
        let mut recs: Vec<FirstPassageUp> = seeds.iter().map(|_| FirstPassageUp::new(10)).collect();
        batch.run(horizon, &mut recs);
        for (c, &seed) in seeds.iter().enumerate() {
            let mut fast = FastModel::new(p, StartState::Unsynchronized, seed);
            let mut fp = FirstPassageUp::new(10);
            fast.run(horizon, &mut fp);
            for size in 2..=10 {
                assert_eq!(
                    recs[c].first(size),
                    fp.first(size),
                    "seed {seed} size {size}"
                );
            }
            assert_eq!(batch.sends(c), fast.sends(), "seed {seed}");
        }
    }

    /// A reused (reset) block is bit-identical to a fresh one — the
    /// contract the block-per-worker dispatch relies on.
    #[test]
    fn reset_reproduces_fresh_block() {
        let p = params(8, 100);
        let horizon = SimTime::from_secs(30_000);
        let mut reused = BatchedEnsemble::new(p, 4);
        reused.reset(&StartState::Unsynchronized, &[100, 101, 102, 103]);
        let mut warm: Vec<NullRecorder> = (0..4).map(|_| NullRecorder).collect();
        reused.run(horizon, &mut warm);
        reused.reset(&StartState::Unsynchronized, &[7, 8]);
        let mut recs: Vec<(SendTrace, ClusterLog)> = (0..2)
            .map(|_| (SendTrace::new(), ClusterLog::new()))
            .collect();
        reused.run(horizon, &mut recs);
        let mut fresh = BatchedEnsemble::new(p, 4);
        fresh.reset(&StartState::Unsynchronized, &[7, 8]);
        let mut fresh_recs: Vec<(SendTrace, ClusterLog)> = (0..2)
            .map(|_| (SendTrace::new(), ClusterLog::new()))
            .collect();
        fresh.run(horizon, &mut fresh_recs);
        for c in 0..2 {
            assert_eq!(recs[c].0.sends(), fresh_recs[c].0.sends());
            assert_eq!(recs[c].1.groups(), fresh_recs[c].1.groups());
        }
    }

    /// The scalar and block paths agree cell-for-cell, at several widths
    /// and thread counts.
    #[test]
    fn engines_agree_cell_for_cell() {
        let p = params(12, 100);
        let seeds: Vec<u64> = (0..11).collect();
        let horizon = SimTime::from_secs(40_000);
        let scalar = crate::experiment::run_ensemble(
            Engine::Scalar,
            p,
            &StartState::Unsynchronized,
            &seeds,
            horizon,
            1,
            |_| ClusterLog::new(),
            |cell, rec| (cell, rec.groups().to_vec()),
        );
        for width in [1, 4, 32] {
            for threads in [1, 2] {
                let batched = run_blocks(
                    p,
                    &StartState::Unsynchronized,
                    &seeds,
                    horizon,
                    threads,
                    width,
                    |_| ClusterLog::new(),
                    |cell, rec| (cell, rec.groups().to_vec()),
                );
                assert_eq!(scalar, batched, "width {width} threads {threads}");
            }
        }
    }

    #[test]
    fn high_water_tracks_largest_cluster() {
        let p = params(6, 100);
        let mut batch = BatchedEnsemble::new(p, 1);
        batch.reset(&StartState::Synchronized, &[1]);
        let mut recs = vec![NullRecorder];
        batch.run(SimTime::from_secs(1_000), &mut recs);
        assert_eq!(batch.high_water(0), 6, "synchronized start bursts all 6");
    }

    #[test]
    fn phase_offsets_match_scalar_engine() {
        let p = params(12, 100);
        let period = p.round_len();
        let seeds = [41, 42, 43];
        let horizon = SimTime::from_secs(50_000);
        let mut batch = BatchedEnsemble::new(p, seeds.len());
        batch.reset(&StartState::Unsynchronized, &seeds);
        let mut recs: Vec<NullRecorder> = seeds.iter().map(|_| NullRecorder).collect();
        batch.run(horizon, &mut recs);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (c, &seed) in seeds.iter().enumerate() {
            let mut fast = FastModel::new(p, StartState::Unsynchronized, seed);
            fast.run(horizon, &mut NullRecorder);
            batch.phase_offsets_into(c, period, &mut got);
            fast.phase_offsets_into(period, &mut want);
            assert_eq!(got, want, "phase vector diverges: seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "AfterProcessing")]
    fn on_expiry_policy_rejected() {
        let p = params(5, 100).with_reset_policy(TimerResetPolicy::OnExpiry);
        let _ = BatchedEnsemble::new(p, 8);
    }

    #[test]
    #[should_panic(expected = "1..=width")]
    fn oversized_block_rejected() {
        let mut b = BatchedEnsemble::new(params(5, 100), 2);
        b.reset(&StartState::Unsynchronized, &[1, 2, 3]);
    }
}
