//! Property tests for the Periodic Messages model's invariants.

use proptest::prelude::*;
use routesync_core::{
    BatchedEnsemble, ClusterLog, EventLog, FastModel, PeriodicModel, PeriodicParams, Recorder,
    StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_rng::{JitterPolicy, UniformDuration};

/// A recorder asserting structural invariants while the model runs.
#[derive(Default)]
struct InvariantChecker {
    n: usize,
    last_cluster_time: Option<SimTime>,
    sends: u64,
    resets: u64,
    violations: Vec<String>,
}

impl Recorder for InvariantChecker {
    fn on_send(&mut self, _t: SimTime, node: usize) {
        self.sends += 1;
        if node >= self.n {
            self.violations
                .push(format!("send from unknown node {node}"));
        }
    }

    fn on_cluster(&mut self, t: SimTime, _round: u64, nodes: &[usize]) {
        self.resets += nodes.len() as u64;
        if nodes.is_empty() || nodes.len() > self.n {
            self.violations
                .push(format!("cluster of impossible size {}", nodes.len()));
        }
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != nodes.len() {
            self.violations
                .push(format!("duplicate node in cluster {nodes:?}"));
        }
        if let Some(prev) = self.last_cluster_time {
            if t < prev {
                self.violations
                    .push(format!("cluster time went backwards: {t} < {prev}"));
            }
        }
        self.last_cluster_time = Some(t);
    }
}

fn params(n: usize, tp_s: u64, tc_ms: u64, tr_ms: u64) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs(tp_s),
        Duration::from_millis(tc_ms),
        Duration::from_millis(tr_ms),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core structural invariants hold for arbitrary small configurations:
    /// clusters are well-formed, times are monotone, and every send is
    /// eventually matched by exactly one timer reset (up to the ≤ N busy
    /// periods still open at the horizon).
    #[test]
    fn model_invariants_hold(
        n in 2usize..8,
        tp_s in 10u64..200,
        tc_ms in 1u64..500,
        tr_ms in 0u64..1_000,
        seed in 0u64..1_000,
    ) {
        let p = params(n, tp_s, tc_ms, tr_ms);
        prop_assume!(p.tr() <= p.tp()); // the jitter policy requires it
        let mut model = PeriodicModel::new(p, StartState::Unsynchronized, seed);
        let mut checker = InvariantChecker { n, ..Default::default() };
        model.run(SimTime::from_secs(tp_s * 50), &mut checker);
        prop_assert!(checker.violations.is_empty(), "{:?}", checker.violations);
        prop_assert!(checker.sends > 0);
        prop_assert!(
            checker.sends - checker.resets <= n as u64,
            "sends {} vs resets {}",
            checker.sends,
            checker.resets
        );
        // Send count is within one round of the expected rate: each router
        // cycles every ~Tp (+ busy time, bounded by n·Tc per round).
        let round = tp_s as f64 + n as f64 * tc_ms as f64 / 1000.0;
        let expected = (tp_s * 50) as f64 / round * n as f64;
        prop_assert!(
            (checker.sends as f64) >= expected * 0.7 && (checker.sends as f64) <= expected * 1.3 + n as f64,
            "sends {} expected ~{expected}", checker.sends
        );
    }

    /// Determinism: the full event log is a function of (params, start,
    /// seed).
    #[test]
    fn runs_are_deterministic(
        n in 2usize..6,
        tr_ms in 0u64..500,
        seed in 0u64..1_000,
    ) {
        let p = params(n, 30, 100, tr_ms);
        let run = || {
            let mut model = PeriodicModel::new(p, StartState::Unsynchronized, seed);
            let mut log = EventLog::new();
            model.run(SimTime::from_secs(2_000), &mut log);
            log.events().to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    /// With zero jitter and initial offsets pairwise further apart than
    /// Tc (and periods identical), no cluster can ever form.
    #[test]
    fn no_spurious_clusters_without_jitter(
        n in 2usize..6,
        seed in 0u64..100,
    ) {
        // Offsets 2·Tc apart with Tc = 100 ms: gaps stay constant forever.
        let p = params(n, 60, 100, 0);
        let offsets: Vec<Duration> =
            (0..n).map(|i| Duration::from_millis(1_000 + 250 * i as u64)).collect();
        let mut model = PeriodicModel::new(p, StartState::Offsets(offsets), seed);
        let mut log = ClusterLog::new();
        model.run(SimTime::from_secs(6_000), &mut log);
        prop_assert!(log.groups().iter().all(|g| g.2 == 1),
            "cluster formed without any randomness: {:?}",
            log.groups().iter().find(|g| g.2 > 1));
    }

    /// A synchronized start with Tr < Tc/2 can never shed a single router
    /// (the paper's break-up precondition, Eq. 1).
    #[test]
    fn frozen_clusters_never_break(
        n in 2usize..7,
        seed in 0u64..100,
    ) {
        // Tc = 200 ms, Tr = 90 ms < Tc/2.
        let p = params(n, 30, 200, 90);
        let mut model = PeriodicModel::new(p, StartState::Synchronized, seed);
        let mut log = ClusterLog::new();
        model.run(SimTime::from_secs(30 * 200), &mut log);
        prop_assert!(!log.groups().is_empty());
        prop_assert!(
            log.groups().iter().all(|g| g.2 == n as u32),
            "a frozen cluster shed members: {:?}",
            log.groups().iter().find(|g| g.2 != n as u32)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The burst-based fast engine and the event-driven engine are
    /// observationally identical for arbitrary parameters, starts, and
    /// seeds (send logs and cluster logs, canonicalized within equal
    /// timestamps, up to the horizon-boundary tail).
    #[test]
    fn fast_engine_matches_event_engine(
        n in 2usize..10,
        tp_s in 20u64..200,
        tc_ms in 10u64..400,
        tr_ms in 0u64..1_000,
        sync_start in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let p = params(n, tp_s, tc_ms, tr_ms);
        prop_assume!(p.tr() <= p.tp());
        let start = if sync_start {
            StartState::Synchronized
        } else {
            StartState::Unsynchronized
        };
        let horizon = SimTime::from_secs(tp_s * 60);
        let mut slow = PeriodicModel::new(p, start.clone(), seed);
        let mut slow_rec = (routesync_core::SendTrace::new(), ClusterLog::new());
        slow.run(horizon, &mut slow_rec);
        let mut fast = routesync_core::FastModel::new(p, start, seed);
        let mut fast_rec = (routesync_core::SendTrace::new(), ClusterLog::new());
        fast.run(horizon, &mut fast_rec);

        let canonical = |sends: &[(SimTime, usize)]| {
            let mut v = sends.to_vec();
            v.sort_by_key(|&(t, id)| (t, id));
            v
        };
        let tail = 2 * n;
        let a = canonical(slow_rec.0.sends());
        let b = canonical(fast_rec.0.sends());
        let keep = a.len().min(b.len()).saturating_sub(tail);
        prop_assert_eq!(&a[..keep], &b[..keep]);
        let ca: Vec<(SimTime, u32)> = slow_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
        let cb: Vec<(SimTime, u32)> = fast_rec.1.groups().iter().map(|g| (g.0, g.2)).collect();
        let keep = ca.len().min(cb.len()).saturating_sub(tail);
        prop_assert_eq!(&ca[..keep], &cb[..keep]);
        prop_assert!(keep >= 10, "window too small: {keep}");
    }
}

/// Everything an engine reports: every send, and every reset group with
/// its round and members in the order the engine passed them — a
/// `SendTrace` and a `ClusterLog` plus the member ids `ClusterLog` drops.
#[derive(Debug, Default, PartialEq, Eq)]
struct FullTrace {
    sends: Vec<(SimTime, usize)>,
    clusters: Vec<(SimTime, u64, Vec<usize>)>,
}

impl Recorder for FullTrace {
    fn on_send(&mut self, t: SimTime, node: usize) {
        self.sends.push((t, node));
    }

    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[usize]) {
        self.clusters.push((t, round, nodes.to_vec()));
    }
}

/// A deliberately naive reference engine for the `AfterProcessing` model:
/// no queue at all, every step finds the smallest pending `(time, id)` by
/// a linear scan. It draws through the `MinStd`/`JitterPolicy` object API
/// and applies the burst rule as the event engine does: the next expiry
/// joins iff it is strictly before `e₁ + j·Tc`. Reset groups are flushed
/// one burst late, so a group's round counts the following burst's sends.
fn reference_run(
    p: PeriodicParams,
    start: &StartState,
    seed: u64,
    horizon: SimTime,
    rec: &mut impl Recorder,
) {
    let n = p.n;
    let (mut rngs, mut jitter, mut expiry) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..n {
        let mut rng = routesync_rng::stream(seed, id as u64);
        jitter.push(p.jitter.materialize(&mut rng));
        expiry.push(match start {
            StartState::Unsynchronized => {
                SimTime::ZERO + UniformDuration::new(Duration::ZERO, p.tp()).sample(&mut rng)
            }
            StartState::Synchronized => SimTime::ZERO + p.tp(),
            StartState::Offsets(offsets) => SimTime::ZERO + offsets[id],
        });
        rngs.push(rng);
    }
    let mut in_burst = vec![false; n];
    let mut sends = 0u64;
    let mut pending: Option<(SimTime, Vec<usize>)> = None;
    let next = |expiry: &[SimTime], in_burst: &[bool]| {
        (0..n)
            .filter(|&i| !in_burst[i])
            .min_by_key(|&i| (expiry[i], i))
    };
    while !rec.should_stop() {
        let first = next(&expiry, &in_burst).expect("n >= 1");
        let e1 = expiry[first];
        if e1 >= horizon {
            break;
        }
        let mut members = vec![first];
        in_burst[first] = true;
        while let Some(i) = next(&expiry, &in_burst) {
            if expiry[i] >= e1 + p.tc * members.len() as u64 {
                break;
            }
            members.push(i);
            in_burst[i] = true;
        }
        for &i in &members {
            sends += 1;
            rec.on_send(expiry[i], i);
        }
        if let Some((t, ids)) = pending.take() {
            rec.on_cluster(t, sends / n as u64, &ids);
        }
        let reset = e1 + p.tc * members.len() as u64;
        for &i in &members {
            in_burst[i] = false;
            expiry[i] = reset + jitter[i].sample(&mut rngs[i]);
        }
        pending = Some((reset, members));
    }
    if let Some((t, ids)) = pending {
        rec.on_cluster(t, sends / n as u64, &ids);
    }
}

/// The jitter policy selected by `kind`, centred on `tp` with half-width
/// `tr` where the policy has one.
fn jitter_of(kind: u8, tp: Duration, tr: Duration) -> JitterPolicy {
    match kind {
        0 => JitterPolicy::Uniform { tp, tr },
        1 => JitterPolicy::UniformHalf { tp },
        2 => JitterPolicy::None { tp },
        _ => JitterPolicy::FixedPerRouter { tp, tr },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FastModel` reproduces the naive reference engine send for send and
    /// group for group, with no canonical reordering and no horizon
    /// tolerance. Synchronized starts and `Offsets` with repeated entries
    /// put many expiries on the same instant, so the `(time, id)` tie
    /// order is exercised on every such case.
    #[test]
    fn fast_engine_matches_naive_reference(
        n in 1usize..65,
        tp_s in 10u64..200,
        tc_ms in 1u64..500,
        tr_choice in 0u64..1_200,
        jitter_kind in 0u8..4,
        start_kind in 0u8..3,
        distinct_offsets in 1u64..5,
        seed in 0u64..100_000,
    ) {
        let tp = Duration::from_secs(tp_s);
        // A sixth of the cases run without any jitter at all.
        let tr = Duration::from_millis(if tr_choice >= 1_000 { 0 } else { tr_choice });
        let p = PeriodicParams::new(n, tp, Duration::from_millis(tc_ms), tr)
            .with_jitter(jitter_of(jitter_kind, tp, tr));
        let start = match start_kind {
            0 => StartState::Unsynchronized,
            1 => StartState::Synchronized,
            // Few distinct values among n entries: heavy ties.
            _ => StartState::Offsets(
                (0..n as u64)
                    .map(|i| Duration::from_millis(500 + 37 * (i * 7919 % distinct_offsets)))
                    .collect(),
            ),
        };
        let horizon = SimTime::from_secs(tp_s * 40);
        let mut want = FullTrace::default();
        reference_run(p, &start, seed, horizon, &mut want);
        let mut fast = FastModel::new(p, start, seed);
        let mut got = FullTrace::default();
        let now = fast.run(horizon, &mut got);
        prop_assert!(!want.sends.is_empty());
        prop_assert_eq!(fast.sends(), want.sends.len() as u64);
        prop_assert_eq!(now, want.clusters.last().expect("at least one group").0);
        prop_assert_eq!(got, want);
    }
}

/// FNV-1a over a full trace's words: every send's `(time, id)`, and every
/// group's `(time, round, size, ids…)`.
#[derive(Debug)]
struct TraceDigest {
    hash: u64,
    sends: u64,
    groups: u64,
}

impl TraceDigest {
    fn new() -> Self {
        TraceDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            sends: 0,
            groups: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn summary(&self) -> (u64, u64, u64) {
        (self.sends, self.groups, self.hash)
    }
}

impl Recorder for TraceDigest {
    fn on_send(&mut self, t: SimTime, node: usize) {
        self.sends += 1;
        self.word(t.as_nanos());
        self.word(node as u64);
    }

    fn on_cluster(&mut self, t: SimTime, round: u64, nodes: &[usize]) {
        self.groups += 1;
        self.word(t.as_nanos());
        self.word(round);
        self.word(nodes.len() as u64);
        for &id in nodes {
            self.word(id as u64);
        }
    }
}

/// One pinned run: `(name, params, start, seed, horizon in seconds,
/// (sends, groups, digest))`.
type Golden = (
    &'static str,
    PeriodicParams,
    StartState,
    u64,
    u64,
    (u64, u64, u64),
);

fn goldens() -> Vec<Golden> {
    let paper = |n: usize, tr_ms: u64| {
        PeriodicParams::new(
            n,
            Duration::from_secs(121),
            Duration::from_millis(110),
            Duration::from_millis(tr_ms),
        )
    };
    let tp = Duration::from_secs(121);
    vec![
        (
            "n20 tr100 unsync",
            paper(20, 100),
            StartState::Unsynchronized,
            1993,
            1_000_000,
            (162_591, 14_864, 0xdf8b_169d_6d04_e716),
        ),
        (
            "n20 tr300 unsync",
            paper(20, 300),
            StartState::Unsynchronized,
            601,
            2_000_000,
            (330_270, 323_767, 0x960e_5b84_028c_a055),
        ),
        (
            "n20 tr300 sync",
            paper(20, 300),
            StartState::Synchronized,
            7,
            1_000_000,
            (164_953, 148_740, 0xa3b3_45ab_054e_df4a),
        ),
        (
            "n300 tr300 unsync",
            paper(300, 300),
            StartState::Unsynchronized,
            1993,
            200_000,
            (391_398, 3_937, 0xea5c_eeef_418d_7ba8),
        ),
        (
            "n300 tr50 sync",
            paper(300, 50),
            StartState::Synchronized,
            3,
            100_000,
            (194_700, 649, 0xb5bd_8548_b850_c0dc),
        ),
        (
            "n300 tc1 tr300 unsync",
            PeriodicParams::new(
                300,
                tp,
                Duration::from_millis(1),
                Duration::from_millis(300),
            ),
            StartState::Unsynchronized,
            42,
            100_000,
            (247_942, 247_328, 0xce5c_fdcf_2123_0596),
        ),
        (
            "n20 half unsync",
            paper(20, 0).with_jitter(JitterPolicy::UniformHalf { tp }),
            StartState::Unsynchronized,
            11,
            200_000,
            (32_996, 32_476, 0x92aa_2f45_fb7f_679e),
        ),
        (
            "n10 fixed unsync",
            paper(10, 0).with_jitter(JitterPolicy::FixedPerRouter {
                tp,
                tr: Duration::from_secs(5),
            }),
            StartState::Unsynchronized,
            4,
            200_000,
            (16_777, 16_644, 0x9c5f_ed7b_409c_3f8f),
        ),
        (
            "n6 none tied offsets",
            paper(6, 0).with_jitter(JitterPolicy::None { tp }),
            StartState::Offsets(
                [1_000, 1_000, 1_050, 1_000, 1_200, 1_050]
                    .map(Duration::from_millis)
                    .to_vec(),
            ),
            5,
            50_000,
            (2_466, 411, 0x4dc0_a978_c0a5_1e64),
        ),
    ]
}

/// Full-trace digests recorded with the binary-heap `FastModel` that
/// preceded the sorted expiry ring. Both ensemble engines must reproduce
/// them exactly, including at N = 300 and from synchronized starts.
#[test]
fn traces_match_pinned_goldens() {
    for (name, p, start, seed, horizon_s, want) in goldens() {
        let horizon = SimTime::from_secs(horizon_s);
        let mut fast = FastModel::new(p, start.clone(), seed);
        let mut digest = TraceDigest::new();
        fast.run(horizon, &mut digest);
        assert_eq!(digest.summary(), want, "{name}: FastModel");
        assert_eq!(fast.sends(), want.0, "{name}: FastModel send count");

        let mut block = BatchedEnsemble::new(p, 2);
        block.reset(&start, &[seed]);
        let mut recs = vec![TraceDigest::new()];
        block.run(horizon, &mut recs);
        assert_eq!(recs[0].summary(), want, "{name}: BatchedEnsemble");
        assert_eq!(block.sends(0), want.0, "{name}: BatchedEnsemble send count");
        assert_eq!(block.now(0), fast.now(), "{name}: BatchedEnsemble clock");
    }
}
