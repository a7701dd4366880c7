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
//! while shrinking). A candidate is tried only if it lies in its oracle's
//! domain — [`fuzz::in_domain`]: the specs [`fuzz::sanitize`] leaves
//! unchanged — so a shrunk case is one the oracle's claim covers and
//! fails for a reason worth reading.

use crate::fuzz;
use crate::spec::CaseSpec;

/// Hard cap on adopted shrink steps; each step strictly reduces the spec,
/// so this is a safety net, not a tuning knob.
const MAX_STEPS: usize = 64;

/// The cheaper variants of `spec` to try, in preference order (biggest
/// cost reduction first): each differs from `spec` and lies in its
/// oracle's domain.
pub(crate) fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    // Dropping a fault op is the single biggest simplification.
    for i in 0..spec.faults.len() {
        let mut c = spec.clone();
        c.faults.remove(i);
        out.push(c);
    }
    let reductions: [fn(&mut CaseSpec); 8] = [
        |c| c.n /= 2,
        |c| c.n = c.n.saturating_sub(1),
        // The shortest horizon the domain admits: sanitize lifts 0 to it.
        |c| {
            c.horizon_s = 0;
            fuzz::sanitize(c);
        },
        |c| c.horizon_s /= 2,
        |c| c.tr_ms /= 2,
        // Canonical timing constants (the paper's reference values) read
        // better in a reproducer than fuzzer-mangled ones.
        |c| c.tc_ms = c.tc_ms.min(110),
        // Narrower batched blocks replay faster.
        |c| c.batch_width /= 2,
        // Shallower anti-message cascades (cascade oracle); 0 = no cascade.
        |c| c.depth /= 2,
    ];
    for reduce in reductions {
        let mut c = spec.clone();
        reduce(&mut c);
        out.push(c);
    }
    out.retain(|c| c != spec && fuzz::in_domain(c));
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
    use crate::spec::{FaultOp, Oracle};

    fn base() -> CaseSpec {
        CaseSpec {
            oracle: Oracle::EngineEquivalence,
            n: 8,
            tp_ms: 10_000,
            tc_ms: 230,
            tr_ms: 400,
            sync_start: false,
            horizon_s: 4_000,
            faults: vec![],
            batch_width: 16,
            depth: 0,
        }
    }

    /// The spec's corner of its oracle's domain: the fewest routers and
    /// the shortest horizon `sanitize` admits, everything else kept.
    fn corner(spec: &CaseSpec) -> CaseSpec {
        let mut c = spec.clone();
        c.n = 0;
        c.horizon_s = 0;
        fuzz::sanitize(&mut c);
        c
    }

    /// The floors are the domain's: an always-failing spec ends at its
    /// corner, for every oracle.
    #[test]
    fn shrinks_an_always_failing_spec_to_the_floors() {
        let (min, msg) = shrink(&base(), 7, "boom".into(), |_, _| Err("boom".into()));
        assert!(fuzz::in_domain(&min), "{min:?}");
        assert_eq!(min, corner(&min));
        assert_eq!(min.n, 2);
        assert_eq!(min.tr_ms, 0);
        assert_eq!(min.tc_ms, 110);
        assert_eq!(min.batch_width, 1);
        assert_eq!(msg, "boom");
        // Every oracle's canned case, faults and cascades included.
        for spec in fuzz::seed_corpus() {
            let (min, _) = shrink(&spec, 7, "boom".into(), |_, _| Err("boom".into()));
            assert!(fuzz::in_domain(&min), "{min:?}");
            assert_eq!(
                min,
                corner(&min),
                "{:?} stopped above its corner",
                spec.oracle
            );
            assert!(min.faults.is_empty() && min.depth == 0, "{min:?}");
        }
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
        // shrinker must not drop the last one. The LAN oracle's domain
        // admits Router and Link windows.
        let spec = CaseSpec {
            oracle: Oracle::NetsimTiming,
            n: 6,
            tp_ms: 120_000,
            tc_ms: 110,
            tr_ms: 1_000,
            sync_start: false,
            horizon_s: 1_800,
            faults: vec![
                FaultOp::Router {
                    node: 4,
                    down_s: 300,
                    up_s: 450,
                },
                FaultOp::Link {
                    link: 0,
                    down_s: 100,
                    up_s: 200,
                },
            ],
            batch_width: 1,
            depth: 0,
        };
        assert!(fuzz::in_domain(&spec));
        let (min, _) = shrink(&spec, 7, "faulty".into(), |s, _| {
            if s.faults.is_empty() {
                Ok(())
            } else {
                Err("faulty".into())
            }
        });
        assert!(fuzz::in_domain(&min), "{min:?}");
        assert_eq!(min.faults.len(), 1);
        assert_eq!(min.n, 3);
        assert_eq!(min.horizon_s, 900);
    }
}
