//! Property tests for the deterministic parallel runner: at every thread
//! count, `Ensemble` must be indistinguishable from the serial map —
//! same values, same order — and worker panics must reach the caller
//! (through `Outcome::into_values`) instead of vanishing or wedging the
//! pool.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use routesync_core::{experiment, FastModel, FirstPassageUp, PeriodicParams, StartState};
use routesync_desim::{Duration, SimTime};
use routesync_exec::Ensemble;

proptest! {
    /// The parallel map equals the serial map for any items and thread
    /// count (including more threads than items).
    #[test]
    fn par_map_matches_serial(
        items in proptest::collection::vec(0u64..1_000_000, 0..200),
        threads in 1usize..12,
    ) {
        let f = |i: usize, &x: &u64| x.wrapping_mul(2654435761).rotate_left((i % 64) as u32);
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let parallel = Ensemble::new(&items)
            .threads(threads)
            .run(|| (), |(), _ctx, i, x| f(i, x))
            .into_values();
        prop_assert_eq!(parallel, serial);
    }

    /// Same for the stateful variant: worker-local state must not leak
    /// into the results' values or order.
    #[test]
    fn par_map_with_state_matches_serial(
        items in proptest::collection::vec(0u64..1_000_000, 0..200),
        threads in 1usize..12,
    ) {
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let parallel = Ensemble::new(&items)
            .threads(threads)
            .run(
                || 0u64, // a scratch accumulator, deliberately stateful
                |acc, _ctx, _i, &x| {
                    *acc = acc.wrapping_add(x);
                    x * 3 + 1
                },
            )
            .into_values();
        prop_assert_eq!(parallel, serial);
    }

    /// A panic in any worker, at any position, propagates to the caller.
    #[test]
    fn injected_panics_propagate(
        len in 1usize..64,
        bomb in 0usize..64,
        threads in 1usize..8,
    ) {
        let bomb = bomb % len;
        let items: Vec<usize> = (0..len).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Ensemble::new(&items)
                .threads(threads)
                .run(|| (), |(), _ctx, i, &x| {
                    assert!(i != bomb, "injected failure at {i}");
                    x
                })
                .into_values()
        }));
        prop_assert!(result.is_err(), "panic at index {} was swallowed", bomb);
    }

    /// After a panicking call the runner is still usable (no poisoned
    /// global state), and produces correct results.
    #[test]
    fn runner_survives_a_panicking_batch(threads in 1usize..8) {
        let items: Vec<u32> = (0..40).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            Ensemble::new(&items)
                .threads(threads)
                .run(|| (), |(), _ctx, _, &x| {
                    assert!(x != 17, "boom");
                    x
                })
                .into_values()
        }));
        let ok = Ensemble::new(&items)
            .threads(threads)
            .run(|| (), |(), _ctx, _, &x| x + 1)
            .into_values();
        let want: Vec<u32> = (1..41).collect();
        prop_assert_eq!(ok, want);
    }

    /// `experiment::run_many` (worker-reused models) is invariant in the
    /// thread count: N threads == 1 thread, bit for bit.
    #[test]
    fn run_many_thread_count_invariant(
        n in 3usize..8,
        seed0 in 0u64..1_000,
        threads in 2usize..8,
    ) {
        let params = PeriodicParams::new(
            n,
            Duration::from_secs_f64(121.0),
            Duration::from_secs_f64(0.11),
            Duration::from_secs_f64(2.0),
        );
        let seeds: Vec<u64> = (seed0..seed0 + 6).collect();
        let horizon = SimTime::from_secs(50_000);
        let measure = |m: &mut FastModel, _seed: u64| {
            let mut fp = FirstPassageUp::new(n);
            let end = m.run(horizon, &mut fp);
            (
                end.as_nanos(),
                fp.first(n).map(|(t, _)| t.as_nanos()),
            )
        };
        let one = experiment::run_many(
            params,
            StartState::Unsynchronized,
            &seeds,
            1,
            measure,
        );
        let many = experiment::run_many(
            params,
            StartState::Unsynchronized,
            &seeds,
            threads,
            measure,
        );
        prop_assert_eq!(one, many);
    }
}
