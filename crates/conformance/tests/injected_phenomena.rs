//! Harness self-test for the related-literature phenomena defects
//! (`RollbackOffByOne`, `UnclampedJump`, `TrimShort`): the fuzzer catches
//! each with its analytical oracle and shrinks it, and each defect really
//! perturbs its model. The shared checks are in `common/mod.rs`.

mod common;

use routesync_conformance::Defect;
use routesync_phenomena::{
    ByzantineWindow, CascadeParams, CascadeSim, ExchangeSchedule, PulseParams, PulseSim,
    TwoTypeParams, TwoTypeSim,
};
use routesync_rng::SplitMix64;

#[test]
fn fuzzer_catches_and_shrinks_the_cascade_rollback_bug() {
    common::catch_and_shrink(Defect::RollbackOffByOne);
}

#[test]
fn fuzzer_catches_and_shrinks_the_two_type_jump_bug() {
    common::catch_and_shrink(Defect::UnclampedJump);
}

#[test]
fn fuzzer_catches_and_shrinks_the_pulse_trim_bug() {
    common::catch_and_shrink(Defect::TrimShort);
}

/// Each phenomena defect genuinely perturbs its model — the detection
/// test above would be vacuous if one never changed a trajectory.
#[test]
fn each_defect_toggle_perturbs_its_model() {
    // Cascade: with a clean rollback rule and no advance jitter, GVT
    // gains exactly one tick per round; the off-by-one recruits the
    // minimum cohort downwards and stalls it.
    let run_cascade = |defective: bool| {
        let mut rng = SplitMix64::new(9);
        let mut sim = CascadeSim::new(CascadeParams::unsynchronized(6, 0.3, 2), &mut rng);
        sim.rollback_off_by_one = defective;
        sim.run(200, &mut rng)
    };
    let clean = run_cascade(false);
    assert_eq!(clean.gvt_final - clean.gvt_initial, 200);
    let defective = run_cascade(true);
    assert!(
        defective.gvt_final - defective.gvt_initial < 200,
        "off-by-one rollback never stalled GVT"
    );

    // Two-type: supercritical exchanges with the clamp keep the lag
    // non-negative; the unclamped jump overshoots below zero.
    let run_two_type = |defective: bool| {
        let mut rng = SplitMix64::new(9);
        let params = TwoTypeParams::unit_jump(0.1, ExchangeSchedule::Periodic { every: 5 });
        let mut sim = TwoTypeSim::new(params);
        sim.unclamped_jump = defective;
        sim.run(100, &mut rng)
    };
    let clean = run_two_type(false);
    assert!(clean.min_lag >= 0.0);
    let defective = run_two_type(true);
    assert!(
        defective.min_lag < 0.0,
        "unclamped jump never drove the lag negative (min_lag = {})",
        defective.min_lag
    );

    // Pulse: with the full trim, one Byzantine node out of four cannot
    // break the per-round halving; trimming one value short lets its
    // lies reach the midpoint.
    let run_pulse = |defective: bool| {
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
        let mut sim = PulseSim::new(params, &mut rng);
        sim.trim_short = defective;
        sim.run(30, &mut rng)
    };
    let clean = run_pulse(false);
    assert!(clean.max_halving_excess <= 1e-9);
    let defective = run_pulse(true);
    assert!(
        defective.max_halving_excess > 1.0,
        "short trim never broke the halving bound (excess = {})",
        defective.max_halving_excess
    );
}
