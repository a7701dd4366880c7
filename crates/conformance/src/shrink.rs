//! Greedy spec minimization.
//!
//! Given a failing `(spec, seed)` the shrinker repeatedly tries cheaper
//! variants — fewer faults, fewer routers, shorter horizon, smaller
//! jitter, canonical timing constants — and adopts any variant that still
//! fails its oracle. The result is the one-line reproducer written to
//! `results/conformance/`: small enough to replay in well under a second
//! and to eyeball.
//!
//! Any failure counts when judging a candidate (the message may drift
//! while shrinking); the floors below keep candidates inside each
//! oracle's meaningful domain so a shrunk case still fails for a reason
//! worth reading.

use crate::oracles;
use crate::spec::{CaseSpec, Oracle};

/// Hard cap on adopted shrink steps; each step strictly reduces the spec,
/// so this is a safety net, not a tuning knob.
const MAX_STEPS: usize = 64;

/// Floors for shrink candidates. `n` below 2 has no clusters to merge;
/// horizons below ~20 periods leave the differential oracles' comparison
/// windows too small to mean anything, and the engine-equivalence oracle
/// states its own floor.
fn min_n() -> usize {
    2
}

fn min_horizon_s(spec: &CaseSpec) -> u64 {
    let tp_s = (spec.tp_ms / 1_000).max(1);
    let floor = (20 * tp_s).max(30);
    if spec.oracle == Oracle::EngineEquivalence {
        floor.max(oracles::equivalence_min_horizon_s(spec))
    } else {
        floor
    }
}

/// The cheaper variants of `spec` to try, in preference order (biggest
/// cost reduction first).
fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    // Dropping a fault op is the single biggest simplification.
    for i in 0..spec.faults.len() {
        let mut c = spec.clone();
        c.faults.remove(i);
        out.push(c);
    }
    if spec.n / 2 >= min_n() {
        let mut c = spec.clone();
        c.n /= 2;
        out.push(c);
    }
    if spec.n > min_n() {
        let mut c = spec.clone();
        c.n -= 1;
        out.push(c);
    }
    let floor = min_horizon_s(spec);
    if spec.horizon_s / 2 >= floor {
        let mut c = spec.clone();
        c.horizon_s /= 2;
        out.push(c);
    }
    if spec.tr_ms > 0 {
        let mut c = spec.clone();
        c.tr_ms /= 2;
        out.push(c);
    }
    // Canonical timing constants (the paper's reference values) read
    // better in a reproducer than fuzzer-mangled ones.
    if spec.tc_ms != 110 && spec.tc_ms > 1 {
        let mut c = spec.clone();
        c.tc_ms = 110.min(spec.tc_ms);
        out.push(c);
    }
    // Narrower batched blocks replay faster; width 1 is the floor.
    if spec.batch_width > 1 {
        let mut c = spec.clone();
        c.batch_width = (spec.batch_width / 2).max(1);
        out.push(c);
    }
    // Shallower anti-message cascades (cascade oracle); 0 = no cascade.
    if spec.depth > 0 {
        let mut c = spec.clone();
        c.depth /= 2;
        out.push(c);
    }
    out
}

/// Minimize a failing case. Returns the smallest spec found that still
/// fails under `check`, together with its failure message.
///
/// `check` must be the oracle the original failure came from (or any
/// stricter judge); the original `(spec, seed)` must fail it.
pub fn shrink(
    spec: &CaseSpec,
    seed: u64,
    message: String,
    check: impl Fn(&CaseSpec, u64) -> Result<(), String>,
) -> (CaseSpec, String) {
    let mut best = spec.clone();
    let mut best_msg = message;
    for _ in 0..MAX_STEPS {
        let mut improved = false;
        for cand in candidates(&best) {
            if let Err(msg) = check(&cand, seed) {
                best = cand;
                best_msg = msg;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultOp;

    fn base() -> CaseSpec {
        CaseSpec {
            oracle: Oracle::EngineEquivalence,
            n: 8,
            tp_ms: 10_000,
            tc_ms: 230,
            tr_ms: 400,
            sync_start: false,
            horizon_s: 4_000,
            faults: vec![FaultOp::Link {
                link: 0,
                down_s: 100,
                up_s: 200,
            }],
            batch_width: 16,
            depth: 3,
        }
    }

    #[test]
    fn shrinks_an_always_failing_spec_to_the_floors() {
        let (min, msg) = shrink(&base(), 7, "boom".into(), |_, _| Err("boom".into()));
        assert_eq!(min.n, 2);
        assert!(min.faults.is_empty());
        assert!(min.horizon_s >= min_horizon_s(&min));
        assert_eq!(min.tr_ms, 0);
        assert_eq!(min.batch_width, 1);
        assert_eq!(min.depth, 0);
        assert_eq!(msg, "boom");
    }

    #[test]
    fn keeps_the_original_when_no_candidate_fails() {
        let spec = base();
        let (min, msg) = shrink(&spec, 7, "original".into(), |s, _| {
            if *s == spec {
                Err("original".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(min, spec);
        assert_eq!(msg, "original");
    }

    #[test]
    fn respects_a_predicate_that_needs_the_fault() {
        // A failure that depends on having at least one fault op: the
        // shrinker must not drop the last one.
        let (min, _) = shrink(&base(), 7, "faulty".into(), |s, _| {
            if s.faults.is_empty() {
                Ok(())
            } else {
                Err("faulty".into())
            }
        });
        assert_eq!(min.faults.len(), 1);
        assert_eq!(min.n, 2);
    }
}
