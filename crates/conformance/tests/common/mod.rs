//! The injected-defect self-test shared by `injected_bug.rs` (the fast
//! engine's merge defect) and `injected_phenomena.rs` (the three
//! phenomena defects): run the conformance fuzzer with one deliberate
//! model defect and check that (a) the matching oracle catches it, (b) the
//! shrinker leaves a one-line reproducer at its floors, and (c) the
//! reproducer fails again with the defect and passes without it.
//!
//! A defect is a value the run is given ([`FuzzConfig::defect`],
//! [`fuzz::replay`]), not a process-wide switch: these tests need no lock,
//! run in parallel, and clean and defective runs share the process.

use routesync_conformance::fuzz::{self, FuzzConfig, FuzzReport};
use routesync_conformance::spec::{CaseSpec, FaultOp, Oracle, Reproducer};
use routesync_conformance::Defect;

/// The floor a defect's shrunk reproducer must reach.
type Floor = fn(&CaseSpec) -> bool;

/// Shrunk to a few routers, with no faults.
fn small(spec: &CaseSpec) -> bool {
    spec.n <= 4 && spec.faults.is_empty()
}

/// The short trim is vacuous without an equivocating node (t = f = 0
/// saturates), so the shrinker must keep a Byzantine `Router` window, and
/// the n > 3f resilience guard keeps n at 4 or above.
fn byzantine(spec: &CaseSpec) -> bool {
    !spec.faults.is_empty()
        && spec
            .faults
            .iter()
            .all(|f| matches!(f, FaultOp::Router { .. }))
        && spec.n >= 4
}

/// Each defect, the oracle that must catch it, and its floor.
const DEFECTS: [(Defect, Oracle, Floor); 4] = [
    (Defect::MergeOffByOne, Oracle::EngineEquivalence, small),
    (Defect::RollbackOffByOne, Oracle::CascadeMeanField, small),
    (Defect::UnclampedJump, Oracle::TwoTypeTransition, small),
    (Defect::TrimShort, Oracle::PulseConvergence, byzantine),
];

/// The bounded fuzz run every test here uses.
pub fn run(defect: Option<Defect>, out_dir: Option<std::path::PathBuf>) -> FuzzReport {
    fuzz::fuzz(&FuzzConfig {
        seed: 1,
        budget_cases: 40,
        out_dir,
        defect,
        ..FuzzConfig::default()
    })
}

/// Fuzzes with `defect` and asserts (a)–(c) for the row of [`DEFECTS`]
/// that names it.
pub fn catch_and_shrink(defect: Defect) {
    let (_, oracle, floor) = *DEFECTS
        .iter()
        .find(|(d, _, _)| *d == defect)
        .expect("every defect has a row");
    let out_dir = std::env::temp_dir().join(format!(
        "routesync-conformance-{defect:?}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out_dir);
    let report = run(Some(defect), Some(out_dir.clone()));

    // (a) caught by its oracle.
    let hits: Vec<&Reproducer> = report
        .failures
        .iter()
        .filter(|r| r.spec.oracle == oracle)
        .collect();
    assert!(
        !hits.is_empty(),
        "{defect:?} went undetected by {}:\n{}",
        oracle.name(),
        report.render()
    );

    // (b) every hit is a one-line reproducer that round-trips, the
    // on-disk artifacts match the report, and the first hit sits at the
    // shrinker's floors.
    let jsonl = std::fs::read_to_string(out_dir.join("reproducers.jsonl"))
        .expect("reproducers.jsonl written");
    for repro in &hits {
        let line = repro.to_line();
        assert!(!line.contains('\n'), "reproducer must be a single line");
        let parsed = Reproducer::from_line(&line).expect("reproducer line parses");
        assert_eq!(&&parsed, repro);
        assert!(jsonl.lines().any(|l| l == line), "line missing from jsonl");
    }
    let summary =
        std::fs::read_to_string(out_dir.join("summary.txt")).expect("summary.txt written");
    assert_eq!(summary, report.render());
    let repro = hits[0];
    assert!(
        floor(&repro.spec),
        "{defect:?}: shrinker stopped above its floor: {}",
        repro.to_line()
    );

    // (c) replays: with the defect the reproducer fails with the same
    // message; without it the exact same line passes.
    let err = fuzz::replay(repro, Some(defect)).expect_err("reproducer must fail with the defect");
    assert_eq!(err, repro.message);
    assert_eq!(
        fuzz::replay(repro, None),
        Ok(()),
        "reproducer must pass without the defect"
    );

    let _ = std::fs::remove_dir_all(&out_dir);
}
