//! Harness self-test: flip the deliberate off-by-one in the fast
//! engine's cluster-merge rule and check the conformance fuzzer (a)
//! catches it, (b) shrinks it to a one-line reproducer, and (c) that the
//! reproducer replays to the same failure.
//!
//! This lives in its own test binary on purpose: the defect toggle is
//! process-global, and `cargo test` runs test *binaries* sequentially, so
//! the flipped rule can never leak into the other suites. Within this
//! binary the default runner runs the tests on parallel threads, so each
//! test holds [`TOGGLE`] for its whole body: otherwise one test's
//! `DefectOn` drop would switch the defect off under the other, and a
//! replay meant to run with the defect off could run with it on. The
//! `inject` cargo feature only compiles the hook in; the default-off
//! runtime toggle keeps every other test (which builds `routesync-core`
//! with the feature unified in) bit-identical to a featureless build.

use std::sync::{Mutex, MutexGuard};

use routesync_conformance::fuzz::{self, FuzzConfig};
use routesync_conformance::spec::{CaseSpec, Oracle, Reproducer};
use routesync_core::fast::inject;
use routesync_core::{BatchedEnsemble, ClusterLog, FastModel, PeriodicModel, SendTrace};

/// Held by each test for its whole body, so no two tests in this binary
/// see the process-global defect toggle at the same time.
static TOGGLE: Mutex<()> = Mutex::new(());

/// Takes [`TOGGLE`]. A test that panicked while holding it has already
/// switched the defect off through its `DefectOn` drop, so a poisoned
/// lock is safe to take over.
fn toggle_lock() -> MutexGuard<'static, ()> {
    TOGGLE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII guard so the toggle is reset even if an assertion panics midway.
struct DefectOn;

impl DefectOn {
    fn new() -> Self {
        inject::set_merge_off_by_one(true);
        DefectOn
    }
}

impl Drop for DefectOn {
    fn drop(&mut self) {
        inject::set_merge_off_by_one(false);
    }
}

#[test]
fn fuzzer_catches_and_shrinks_the_injected_merge_bug() {
    let _toggle = toggle_lock();
    let out_dir = std::env::temp_dir().join("routesync-conformance-injected-bug");
    let _ = std::fs::remove_dir_all(&out_dir);

    let report = {
        let _defect = DefectOn::new();
        fuzz::fuzz(&FuzzConfig {
            seed: 1,
            budget_cases: 40,
            out_dir: Some(out_dir.clone()),
            ..FuzzConfig::default()
        })
    };

    // (a) caught: the differential engine oracle must flag the defect.
    let engine_failures: Vec<&Reproducer> = report
        .failures
        .iter()
        .filter(|r| r.spec.oracle == Oracle::EngineEquivalence)
        .collect();
    assert!(
        !engine_failures.is_empty(),
        "the injected cluster-merge off-by-one went undetected:\n{}",
        report.render()
    );

    // (b) shrunk: the reproducer is one line, parses back, and its spec
    // sits at the shrinker's floors (small N, no faults).
    let repro = engine_failures[0];
    let line = repro.to_line();
    assert!(!line.contains('\n'), "reproducer must be a single line");
    let parsed = Reproducer::from_line(&line).expect("reproducer line parses");
    assert_eq!(&parsed, repro);
    assert!(
        repro.spec.n <= 4,
        "shrinker left n = {} (spec: {line})",
        repro.spec.n
    );
    assert!(repro.spec.faults.is_empty());

    // The on-disk artifacts match what the run reported.
    let jsonl = std::fs::read_to_string(out_dir.join("reproducers.jsonl"))
        .expect("reproducers.jsonl written");
    assert!(jsonl.lines().any(|l| l == line));
    let summary =
        std::fs::read_to_string(out_dir.join("summary.txt")).expect("summary.txt written");
    assert_eq!(summary, report.render());

    // (c) replays: with the defect on the reproducer still fails with the
    // same message; with it off, the exact same line passes.
    {
        let _defect = DefectOn::new();
        let err = fuzz::replay(&parsed).expect_err("reproducer must fail while defect is on");
        assert_eq!(err, parsed.message);
    }
    assert_eq!(
        fuzz::replay(&parsed),
        Ok(()),
        "reproducer must pass once the defect is off"
    );

    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `BatchedEnsemble` runs its cells through `FastModel`, so the injected
/// off-by-one must perturb both engines in exactly the same way: with
/// the defect on, the batched trace stays byte-identical to the fast
/// trace while both drift off the event engine. A batched path with its
/// own (correct) copy of the merge rule would dodge the defect and break
/// trace identity — this test guards against one coming back.
#[test]
fn batched_kernel_shares_the_injected_merge_rule() {
    let spec = CaseSpec {
        oracle: Oracle::EngineEquivalence,
        n: 6,
        tp_ms: 10_000,
        tc_ms: 110,
        tr_ms: 200,
        sync_start: false,
        horizon_s: 3_000,
        faults: Vec::new(),
        batch_width: 4,
        depth: 0,
    };
    let p = spec.params();
    let horizon = spec.horizon();
    let _toggle = toggle_lock();
    let _defect = DefectOn::new();

    let mut defect_changed_something = false;
    for seed in 1u64..=10 {
        let mut fast = FastModel::new(p, spec.start(), seed);
        let mut fast_rec = (SendTrace::new(), ClusterLog::new());
        fast.run(horizon, &mut fast_rec);

        let mut block = BatchedEnsemble::new(p, spec.batch_width);
        // Cell 2 carries the seed under test; the rest are decoys.
        let seeds = [seed ^ 0xA5A5, seed ^ 0x5A5A, seed, seed ^ 0xFFFF];
        block.reset(&spec.start(), &seeds);
        let mut recs: Vec<(SendTrace, ClusterLog)> = seeds
            .iter()
            .map(|_| (SendTrace::new(), ClusterLog::new()))
            .collect();
        block.run(horizon, &mut recs);

        assert_eq!(
            recs[2].0.sends(),
            fast_rec.0.sends(),
            "seed {seed}: batched and fast send logs must agree under the defect"
        );
        assert_eq!(
            recs[2].1.groups(),
            fast_rec.1.groups(),
            "seed {seed}: batched and fast cluster logs must agree under the defect"
        );

        let mut event = PeriodicModel::new(p, spec.start(), seed);
        let mut event_rec = (SendTrace::new(), ClusterLog::new());
        event.run(horizon, &mut event_rec);
        if event_rec.1.groups() != fast_rec.1.groups() {
            defect_changed_something = true;
        }
    }
    assert!(
        defect_changed_something,
        "the injected defect never perturbed a trace — the guard is vacuous"
    );
}
