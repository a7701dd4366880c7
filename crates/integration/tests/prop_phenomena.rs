//! Property tests for the Section 1 phenomena models.

use proptest::prelude::*;
use routesync_desim::{Duration, SimTime};
use routesync_phenomena::client_server::{ClientServerModel, ClientServerParams};
use routesync_phenomena::external_clock::{self, ClockAlignment, ClockParams};
use routesync_phenomena::tcp::{DropPolicy, TcpBottleneck, TcpParams};
use routesync_rng::{JitterPolicy, MinStd};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TCP invariants: windows stay at/above the floor, the aggregate trace
    /// is complete, utilization metrics are sane, and runs are
    /// deterministic in the seed.
    #[test]
    fn tcp_invariants(
        k in 2usize..12,
        capacity in 20u64..400,
        buffer in 1u64..100,
        policy_tail in any::<bool>(),
        seed in 1u32..10_000,
    ) {
        let policy = if policy_tail { DropPolicy::TailDrop } else { DropPolicy::RandomSingle };
        let params = TcpParams { connections: k, capacity, buffer, policy, min_window: 1 };
        let run = |seed: u32| {
            let mut rng = MinStd::new(seed);
            let mut b = TcpBottleneck::new(params, &mut rng);
            let report = b.run(600, &mut rng);
            (report, b.windows().to_vec(), b.aggregate().to_vec())
        };
        let (report, windows, aggregate) = run(seed);
        prop_assert!(windows.iter().all(|&w| w >= 1));
        prop_assert_eq!(aggregate.len(), 600);
        prop_assert!(report.mean_utilization >= 0.0);
        prop_assert!(report.utilization_swing >= 0.0);
        prop_assert!(report.mass_halving_events <= report.halving_events);
        let again = run(seed);
        prop_assert_eq!(report, again.0);
    }

    /// Client-server invariants: recovery always completes within a long
    /// horizon, burst sizes never exceed the population, and the
    /// post-recovery timeout count is bounded by (clients × retries that
    /// fit the horizon).
    #[test]
    fn client_server_invariants(
        clients in 1usize..30,
        fixed in any::<bool>(),
        seed in 0u64..500,
    ) {
        let retry = if fixed {
            ClientServerParams::fixed_retry()
        } else {
            ClientServerParams::jittered_retry()
        };
        let params = ClientServerParams::sprite(clients, retry);
        let mut model = ClientServerModel::new(params, seed);
        let report = model.run(SimTime::from_secs(2_000));
        prop_assert!(report.peak_retry_burst <= clients);
        prop_assert!(
            report.recovery_secs.is_some(),
            "all clients must recover: {report:?}"
        );
        prop_assert!(report.recovery_secs.expect("checked") >= 0.0);
    }

    /// External clock: arrivals are conserved (modulo edge spill) and the
    /// uniform alignment is never burstier than on-the-hour.
    #[test]
    fn clock_invariants(
        users in 1usize..300,
        periods in 1u64..20,
        seed in 1u32..10_000,
    ) {
        let mut rng = MinStd::new(seed);
        let hour = external_clock::simulate(
            &ClockParams::hourly(users, ClockAlignment::OnTheHour),
            periods,
            60,
            &mut rng,
        );
        let uniform = external_clock::simulate(
            &ClockParams::hourly(users, ClockAlignment::UniformOffset),
            periods,
            60,
            &mut rng,
        );
        let expect = (users as u64) * periods;
        for p in [&hour, &uniform] {
            let total: u64 = p.bins.iter().sum();
            prop_assert!(total <= expect && total + users as u64 >= expect);
        }
        prop_assert!(hour.peak_to_mean() + 1e-9 >= uniform.peak_to_mean() || users < 4,
            "hour {} must be at least as bursty as uniform {}",
            hour.peak_to_mean(), uniform.peak_to_mean());
    }

    /// The storm model with zero-length outage behaves like a plain
    /// polling system regardless of retry policy: no post-recovery
    /// timeouts for modest populations.
    #[test]
    fn no_outage_no_storm(clients in 1usize..20, seed in 0u64..200) {
        let mut params = ClientServerParams::sprite(
            clients,
            ClientServerParams::fixed_retry(),
        );
        params.fail_from = SimTime::from_secs(50);
        params.fail_until = SimTime(params.fail_from.as_nanos() + 1);
        let mut model = ClientServerModel::new(params, seed);
        let report = model.run(SimTime::from_secs(800));
        prop_assert_eq!(report.timeouts_after_recovery, 0, "{:?}", report);
    }

    /// Jitter policy support sanity for the retry policies used by the
    /// storm model.
    #[test]
    fn retry_policies_draw_within_bounds(seed in 1u32..10_000) {
        let mut rng = MinStd::new(seed);
        for _ in 0..32 {
            let f = ClientServerParams::fixed_retry().sample(&mut rng);
            prop_assert_eq!(f, Duration::from_secs(10));
            let j = ClientServerParams::jittered_retry().sample(&mut rng);
            prop_assert!(j >= Duration::from_secs(5) && j <= Duration::from_secs(15));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seed-independence: the qualitative verdicts — tail drop
    /// synchronizes, random drop does not, the fixed-retry storm forms
    /// and recovery still completes, on-the-hour clocks are bursty —
    /// are properties of the parameters alone. Any seed yields the same
    /// classification.
    #[test]
    fn verdicts_are_seed_independent(base in 1u32..5_000) {
        for seed in [base, base + 10_000, base + 20_000] {
            let mut rng = MinStd::new(seed);
            let mut b = TcpBottleneck::new(TcpParams::classic(8, DropPolicy::TailDrop), &mut rng);
            let tail = b.run(600, &mut rng);
            prop_assert!(tail.is_synchronized(), "seed {}: {:?}", seed, tail);

            let mut rng = MinStd::new(seed);
            let mut b = TcpBottleneck::new(TcpParams::classic(8, DropPolicy::RandomSingle), &mut rng);
            let rand = b.run(600, &mut rng);
            // Structural, not statistical: a single random drop per
            // overflow can never halve 3/4 of eight connections at once.
            prop_assert!(!rand.is_synchronized(), "seed {}: {:?}", seed, rand);
            prop_assert_eq!(rand.mass_halving_events, 0);

            let params = ClientServerParams::sprite(40, ClientServerParams::fixed_retry());
            let storm = ClientServerModel::new(params, seed as u64).run(SimTime::from_secs(2_000));
            prop_assert!(storm.recovery_secs.is_some(), "seed {}: {:?}", seed, storm);
            prop_assert!(
                storm.timeouts_after_recovery > 0,
                "seed {}: the fixed-retry storm must overload the recovering server: {:?}",
                seed, storm
            );

            let mut rng = MinStd::new(seed);
            let hour = external_clock::simulate(
                &ClockParams::hourly(200, ClockAlignment::OnTheHour),
                10,
                60,
                &mut rng,
            );
            prop_assert!(hour.peak_to_mean() > 2.0, "seed {}: {:?}", seed, hour.peak_to_mean());
        }
    }

    /// Jitter-monotonicity: adding jitter only weakens the
    /// synchronization phenomena, monotonically along each model's
    /// jitter ladder — retry spread 0 → 2 s → 5 s, clock alignment
    /// on-the-hour → quarter-marks → uniform, drop policy tail → random.
    #[test]
    fn jitter_weakens_synchronization_monotonically(base in 1u32..10_000) {
        // Client-server: total peak burst over three seeds shrinks as
        // the retry spread grows (per-seed peaks are noisy at the bottom
        // of the ladder; the three-seed sum is not).
        let storm_peaks = |tr_secs: u64| -> usize {
            let retry = if tr_secs == 0 {
                ClientServerParams::fixed_retry()
            } else {
                JitterPolicy::Uniform {
                    tp: Duration::from_secs(10),
                    tr: Duration::from_secs(tr_secs),
                }
            };
            [base, base + 10_000, base + 20_000]
                .iter()
                .map(|&s| {
                    let params = ClientServerParams::sprite(40, retry);
                    ClientServerModel::new(params, s as u64)
                        .run(SimTime::from_secs(2_000))
                        .peak_retry_burst
                })
                .sum()
        };
        let fixed = storm_peaks(0);
        let half = storm_peaks(2);
        let full = storm_peaks(5);
        prop_assert!(
            fixed >= half && half >= full,
            "peak bursts must fall along the jitter ladder: {} >= {} >= {}",
            fixed, half, full
        );

        // External clock: burstiness falls as alignment loosens.
        let profile = |alignment| {
            let mut rng = MinStd::new(base);
            external_clock::simulate(&ClockParams::hourly(200, alignment), 10, 60, &mut rng)
        };
        let hour = profile(ClockAlignment::OnTheHour).peak_to_mean();
        let quarter = profile(ClockAlignment::QuarterMarks).peak_to_mean();
        let uniform = profile(ClockAlignment::UniformOffset).peak_to_mean();
        prop_assert!(
            hour + 1e-9 >= quarter && quarter + 1e-9 >= uniform,
            "peak-to-mean must fall along the alignment ladder: {} >= {} >= {}",
            hour, quarter, uniform
        );

        // TCP: randomizing the drop choice removes mass halvings and
        // lifts the utilization floor.
        let tcp = |policy| {
            let mut rng = MinStd::new(base);
            let mut b = TcpBottleneck::new(TcpParams::classic(8, policy), &mut rng);
            b.run(600, &mut rng)
        };
        let tail = tcp(DropPolicy::TailDrop);
        let rand = tcp(DropPolicy::RandomSingle);
        prop_assert!(tail.mass_halving_events > rand.mass_halving_events);
        prop_assert!(
            rand.min_utilization > tail.min_utilization,
            "random drop must lift the floor: {} vs {}",
            rand.min_utilization, tail.min_utilization
        );
    }

    /// Thread-invariance: an ensemble of phenomena runs fanned out with
    /// `Ensemble` yields identical reports at 1, 2 and 4 worker
    /// threads.
    #[test]
    fn ensembles_are_thread_invariant(base in 1u32..10_000) {
        let seeds: Vec<u32> = (0..6).map(|i| base + i * 1_013).collect();
        let run_all = |threads: usize| {
            routesync_exec::Ensemble::new(&seeds).threads(threads).run(|| (), |(), _ctx, _, &s| {
                let mut rng = MinStd::new(s);
                let mut b =
                    TcpBottleneck::new(TcpParams::classic(5, DropPolicy::TailDrop), &mut rng);
                let tcp = b.run(300, &mut rng);
                let params =
                    ClientServerParams::sprite(12, ClientServerParams::jittered_retry());
                let storm =
                    ClientServerModel::new(params, s as u64).run(SimTime::from_secs(1_000));
                let clock = external_clock::simulate(
                    &ClockParams::hourly(40, ClockAlignment::QuarterMarks),
                    4,
                    60,
                    &mut rng,
                );
                (tcp, storm, clock)
            }).into_values()
        };
        let one = run_all(1);
        prop_assert_eq!(&one, &run_all(2), "two threads must match one");
        prop_assert_eq!(&one, &run_all(4), "four threads must match one");
    }
}

/// Non-proptest determinism check across the whole phenomena crate.
#[test]
fn phenomena_are_deterministic() {
    let tcp = |seed| {
        let mut rng = MinStd::new(seed);
        let mut b = TcpBottleneck::new(TcpParams::classic(6, DropPolicy::RandomSingle), &mut rng);
        b.run(500, &mut rng)
    };
    assert_eq!(tcp(5), tcp(5));

    let clock = |seed| {
        let mut rng = MinStd::new(seed);
        external_clock::simulate(
            &ClockParams::hourly(50, ClockAlignment::QuarterMarks),
            6,
            60,
            &mut rng,
        )
    };
    assert_eq!(clock(5), clock(5));

    let _ = JitterPolicy::None {
        tp: Duration::from_secs(1),
    };
}
