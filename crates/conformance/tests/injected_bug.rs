//! Harness self-test for the fast engine's cluster-merge defect
//! (`Defect::MergeOffByOne`): the fuzzer catches and shrinks it, the
//! batched kernel shares it, and it reaches only the run it is given.
//! The shared checks are in `common/mod.rs`.

mod common;

use std::thread;

use routesync_conformance::fuzz::{self, FuzzConfig};
use routesync_conformance::spec::{CaseSpec, Oracle};
use routesync_conformance::Defect;
use routesync_core::{
    BatchedEnsemble, ClusterLog, FastModel, PeriodicModel, PeriodicParams, SendTrace,
};

use common::run;

#[test]
fn fuzzer_catches_and_shrinks_the_injected_merge_bug() {
    common::catch_and_shrink(Defect::MergeOffByOne);
}

/// A defect reaches only the run it is given: a clean fuzz beside a
/// defective one reports exactly what a clean fuzz reports alone.
#[test]
fn clean_and_defective_fuzz_runs_share_a_process() {
    let alone = run(None, None).render();
    let (clean, defective) = thread::scope(|s| {
        let clean = s.spawn(|| run(None, None));
        let defective = s.spawn(|| run(Some(Defect::MergeOffByOne), None));
        (clean.join().unwrap(), defective.join().unwrap())
    });
    assert_eq!(clean.render(), alone);
    assert!(
        defective
            .failures
            .iter()
            .any(|r| r.spec.oracle == Oracle::EngineEquivalence),
        "the merge defect went undetected beside a clean run:\n{}",
        defective.render()
    );
}

/// A checkpoint records the defect its verdicts were judged with, so a
/// clean run refuses to resume from a defective one.
#[test]
fn a_defective_checkpoint_does_not_resume_a_clean_run() {
    let path = std::env::temp_dir().join(format!(
        "routesync-conformance-defect-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cfg = |defect| FuzzConfig {
        budget_cases: 4,
        checkpoint: Some(path.clone()),
        defect,
        ..FuzzConfig::default()
    };
    fuzz::fuzz_checkpointed(&cfg(Some(Defect::MergeOffByOne))).expect("defective run");
    let err = fuzz::fuzz_checkpointed(&cfg(None)).expect_err("clean resume must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let _ = std::fs::remove_file(&path);
}

/// `BatchedEnsemble` runs its cells through `FastModel`, so the merge
/// defect must perturb both engines in exactly the same way: the batched
/// trace stays byte-identical to the fast trace while both drift off the
/// event engine. A batched path with its own (correct) copy of the merge
/// rule would dodge the defect and break trace identity — this test
/// guards against one coming back.
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
    let p = PeriodicParams {
        merge_off_by_one: true,
        ..spec.params()
    };
    let horizon = spec.horizon();

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
