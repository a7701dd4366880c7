//! Harness self-tests for the related-literature phenomena oracles: flip
//! each deliberate model defect (cascade rollback off-by-one, two-type
//! unclamped jump, pulse short trim) and check the conformance fuzzer
//! (a) catches it with the matching analytical oracle, (b) shrinks it to
//! a one-line reproducer, and (c) that the reproducer replays to a
//! failure with the defect on and passes with it off.
//!
//! Own test binary for the same reason as `injected_bug.rs`: the defect
//! toggles are process-global, and `cargo test` runs test *binaries*
//! sequentially, so a flipped rule can never leak into other suites.
//! Within this binary the tests serialize on `TOGGLE_LOCK`, because the
//! toggles are process-global.

use std::sync::{Mutex, MutexGuard};

use routesync_conformance::fuzz::{self, FuzzConfig};
use routesync_conformance::spec::{FaultOp, Oracle, Reproducer};
use routesync_phenomena::{cascade, pulse, two_type};
use routesync_phenomena::{
    ByzantineWindow, CascadeParams, CascadeSim, ExchangeSchedule, PulseParams, PulseSim,
    TwoTypeParams, TwoTypeSim,
};
use routesync_rng::SplitMix64;

static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed assertion in one test must not cascade into spurious
    // poison panics in the rest of the binary.
    TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard so a toggle is reset even if an assertion panics midway.
struct DefectOn {
    set: fn(bool),
}

impl DefectOn {
    fn new(set: fn(bool)) -> Self {
        set(true);
        DefectOn { set }
    }
}

impl Drop for DefectOn {
    fn drop(&mut self) {
        (self.set)(false);
    }
}

/// Run a bounded fuzz with `set` flipped on and return the failures the
/// given oracle flagged, after the standard reproducer sanity checks.
fn catch_and_shrink(set: fn(bool), oracle: Oracle, dir_tag: &str) -> Vec<Reproducer> {
    let out_dir = std::env::temp_dir().join(format!("routesync-conformance-{dir_tag}"));
    let _ = std::fs::remove_dir_all(&out_dir);

    let report = {
        let _defect = DefectOn::new(set);
        fuzz::fuzz(&FuzzConfig {
            seed: 1,
            budget_cases: 40,
            out_dir: Some(out_dir.clone()),
            ..FuzzConfig::default()
        })
    };

    let hits: Vec<Reproducer> = report
        .failures
        .iter()
        .filter(|r| r.spec.oracle == oracle)
        .cloned()
        .collect();
    assert!(
        !hits.is_empty(),
        "injected defect for {} went undetected:\n{}",
        oracle.name(),
        report.render()
    );

    // Every hit is a one-line reproducer that round-trips, and the
    // on-disk artifacts contain it.
    let jsonl = std::fs::read_to_string(out_dir.join("reproducers.jsonl"))
        .expect("reproducers.jsonl written");
    for repro in &hits {
        let line = repro.to_line();
        assert!(!line.contains('\n'), "reproducer must be a single line");
        let parsed = Reproducer::from_line(&line).expect("reproducer line parses");
        assert_eq!(&parsed, repro);
        assert!(jsonl.lines().any(|l| l == line), "line missing from jsonl");
    }

    let _ = std::fs::remove_dir_all(&out_dir);
    hits
}

/// Replay the reproducer with the defect on (must fail with the recorded
/// message) and with it off (must pass).
fn replay_both_ways(set: fn(bool), repro: &Reproducer) {
    {
        let _defect = DefectOn::new(set);
        let err = fuzz::replay(repro).expect_err("reproducer must fail while defect is on");
        assert_eq!(err, repro.message);
    }
    assert_eq!(
        fuzz::replay(repro),
        Ok(()),
        "reproducer must pass once the defect is off"
    );
}

#[test]
fn fuzzer_catches_and_shrinks_the_cascade_rollback_bug() {
    let _serial = lock();
    let hits = catch_and_shrink(
        cascade::inject::set_rollback_off_by_one,
        Oracle::CascadeMeanField,
        "injected-cascade",
    );
    let repro = &hits[0];
    assert!(
        repro.spec.n <= 4,
        "shrinker left n = {} (spec: {})",
        repro.spec.n,
        repro.to_line()
    );
    assert!(repro.spec.faults.is_empty());
    replay_both_ways(cascade::inject::set_rollback_off_by_one, repro);
}

#[test]
fn fuzzer_catches_and_shrinks_the_two_type_jump_bug() {
    let _serial = lock();
    let hits = catch_and_shrink(
        two_type::inject::set_unclamped_jump,
        Oracle::TwoTypeTransition,
        "injected-two-type",
    );
    let repro = &hits[0];
    assert!(
        repro.spec.n <= 4,
        "shrinker left n = {} (spec: {})",
        repro.spec.n,
        repro.to_line()
    );
    assert!(repro.spec.faults.is_empty());
    replay_both_ways(two_type::inject::set_unclamped_jump, repro);
}

#[test]
fn fuzzer_catches_and_shrinks_the_pulse_trim_bug() {
    let _serial = lock();
    let hits = catch_and_shrink(
        pulse::inject::set_trim_short,
        Oracle::PulseConvergence,
        "injected-pulse",
    );
    let repro = &hits[0];
    // The short trim is vacuous without an equivocating node (t = f = 0
    // saturates), so the shrinker must keep at least one Byzantine
    // window, and the n > 3f resilience guard keeps n at 4 or above.
    assert!(
        !repro.spec.faults.is_empty(),
        "pulse defect needs a Byzantine node; shrinker dropped it: {}",
        repro.to_line()
    );
    assert!(repro
        .spec
        .faults
        .iter()
        .all(|f| matches!(f, FaultOp::Router { .. })));
    assert!(
        repro.spec.n >= 4,
        "n > 3f requires n >= 4 with one fault (spec: {})",
        repro.to_line()
    );
    replay_both_ways(pulse::inject::set_trim_short, repro);
}

/// The toggles genuinely perturb their models — each detection test above
/// would be vacuous if the defect never changed a trajectory.
#[test]
fn each_defect_toggle_perturbs_its_model() {
    let _serial = lock();

    // Cascade: with a clean rollback rule and no advance jitter, GVT
    // gains exactly one tick per round; the off-by-one recruits the
    // minimum cohort downwards and stalls it.
    let run_cascade = || {
        let mut rng = SplitMix64::new(9);
        let mut sim = CascadeSim::new(CascadeParams::unsynchronized(6, 0.3, 2), &mut rng);
        sim.run(200, &mut rng)
    };
    let clean = run_cascade();
    assert_eq!(clean.gvt_final - clean.gvt_initial, 200);
    let defective = {
        let _defect = DefectOn::new(cascade::inject::set_rollback_off_by_one);
        run_cascade()
    };
    assert!(
        defective.gvt_final - defective.gvt_initial < 200,
        "off-by-one rollback never stalled GVT"
    );

    // Two-type: supercritical exchanges with the clamp keep the lag
    // non-negative; the unclamped jump overshoots below zero.
    let run_two_type = || {
        let mut rng = SplitMix64::new(9);
        let params = TwoTypeParams::unit_jump(0.1, ExchangeSchedule::Periodic { every: 5 });
        TwoTypeSim::new(params).run(100, &mut rng)
    };
    let clean = run_two_type();
    assert!(clean.min_lag >= 0.0);
    let defective = {
        let _defect = DefectOn::new(two_type::inject::set_unclamped_jump);
        run_two_type()
    };
    assert!(
        defective.min_lag < 0.0,
        "unclamped jump never drove the lag negative (min_lag = {})",
        defective.min_lag
    );

    // Pulse: with the full trim, one Byzantine node out of four cannot
    // break the per-round halving; trimming one value short lets its
    // lies reach the midpoint.
    let run_pulse = || {
        let mut rng = SplitMix64::new(9);
        let params = PulseParams {
            n: 4,
            byzantine: vec![ByzantineWindow {
                node: 0,
                down_round: 0,
                up_round: 40,
            }],
            drift: 0.0,
            initial_spread: 100.0,
        };
        PulseSim::new(params, &mut rng).run(30, &mut rng)
    };
    let clean = run_pulse();
    assert!(clean.max_halving_excess <= 1e-9);
    let defective = {
        let _defect = DefectOn::new(pulse::inject::set_trim_short);
        run_pulse()
    };
    assert!(
        defective.max_halving_excess > 1.0,
        "short trim never broke the halving bound (excess = {})",
        defective.max_halving_excess
    );
}
