//! The conformance oracles as a `cargo test` suite: every canned corpus
//! case must pass its oracle, the analytical oracles must hold across an
//! (N, Tr/Tc) grid straddling the paper's phase transition, and a bounded
//! fuzz run must be bit-deterministic.

use std::collections::BTreeSet;

use routesync_conformance::fuzz::{self, FuzzConfig};
use routesync_conformance::oracles;
use routesync_conformance::spec::{CaseSpec, Oracle};

fn abstract_case(oracle: Oracle, n: usize, tr_ms: u64, horizon_s: u64) -> CaseSpec {
    CaseSpec {
        oracle,
        n,
        tp_ms: 10_000,
        tc_ms: 110,
        tr_ms,
        sync_start: false,
        horizon_s,
        faults: Vec::new(),
        batch_width: 1,
        depth: 0,
    }
}

#[test]
fn every_canned_case_passes_its_oracle() {
    for (i, spec) in fuzz::seed_corpus().iter().enumerate() {
        for seed in [1u64, 2, 3] {
            if let Err(msg) = oracles::check(spec, seed, None) {
                panic!(
                    "canned case {i} ({}) failed under seed {seed}: {msg}\nspec: {spec:?}",
                    spec.oracle.name()
                );
            }
        }
    }
}

/// The analytical oracles across a grid of (N, Tr/Tc) straddling the
/// phase transition: Tr/Tc < 1 deep in the synchronization regime,
/// Tr/Tc ≈ 9 well past the paper's recommended jitter.
#[test]
fn markov_oracles_hold_across_the_phase_transition_grid() {
    for n in [4usize, 8] {
        for tr_ms in [50u64, 220] {
            let spec = abstract_case(Oracle::MarkovSync, n, tr_ms, 20_000);
            oracles::markov_sync(&spec, 11, None)
                .unwrap_or_else(|msg| panic!("markov-sync failed at n={n}, tr={tr_ms}ms: {msg}"));
        }
        for tr_ms in [600u64, 2_000] {
            let spec = abstract_case(Oracle::MarkovDesync, n, tr_ms, 30_000);
            oracles::markov_desync(&spec, 11, None)
                .unwrap_or_else(|msg| panic!("markov-desync failed at n={n}, tr={tr_ms}ms: {msg}"));
        }
    }
}

/// The exact metamorphic oracles, swept over a few parameter corners
/// (thread invariance is itself checked at 1/2/4 threads inside the
/// oracle).
#[test]
fn metamorphic_oracles_hold_at_parameter_corners() {
    for (n, tr_ms) in [(2usize, 0u64), (5, 150), (10, 4_000)] {
        let spec = abstract_case(Oracle::ThreadInvariance, n, tr_ms, 2_000);
        oracles::thread_invariance(&spec, 5, None)
            .unwrap_or_else(|msg| panic!("thread-invariance failed at n={n}, tr={tr_ms}ms: {msg}"));
    }
    for (n, tr_ms) in [(3usize, 0u64), (4, 300), (6, 2_500)] {
        let spec = abstract_case(Oracle::Translation, n, tr_ms, 1_500);
        oracles::translation(&spec, 5, None)
            .unwrap_or_else(|msg| panic!("translation failed at n={n}, tr={tr_ms}ms: {msg}"));
    }
}

#[test]
fn engine_equivalence_holds_on_a_parameter_sweep() {
    for n in [2usize, 5, 9] {
        for tr_ms in [0u64, 110, 1_000] {
            for sync_start in [false, true] {
                let mut spec = abstract_case(Oracle::EngineEquivalence, n, tr_ms, 2_500);
                spec.sync_start = sync_start;
                oracles::engine_equivalence(&spec, 13, None).unwrap_or_else(|msg| {
                    panic!("engine-equivalence failed at n={n}, tr={tr_ms}ms, sync={sync_start}: {msg}")
                });
            }
        }
    }
}

/// A bounded fuzz run is a pure function of its seed: rendered reports
/// from two identical runs are byte-identical, and all cases pass.
#[test]
fn bounded_fuzz_run_is_deterministic_and_green() {
    let run = || {
        fuzz::fuzz(&FuzzConfig {
            seed: 1,
            budget_cases: 25,
            ..FuzzConfig::default()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.render(), b.render(), "fuzz run must be bit-deterministic");
    assert_eq!(a.cases, 25);
    assert!(
        a.failures.is_empty(),
        "unexpected failures:\n{}",
        a.render()
    );
    assert!(a.coverage_features > 0, "coverage signal must be non-empty");
    assert!(
        a.corpus_size >= fuzz::seed_corpus().len(),
        "corpus must retain the canned cases"
    );
}

/// Distinct fuzz seeds explore distinct case streams.
#[test]
fn fuzz_seeds_are_independent() {
    let specs_of = |seed: u64| {
        let mut rng = routesync_rng::SplitMix64::new(seed);
        let corpus: Vec<CaseSpec> = fuzz::seed_corpus();
        let _case_seed = rng.next_u64_raw();
        (0..10)
            .map(|_| {
                let i = (rng.next_u64_raw() as usize) % corpus.len();
                let mut s = fuzz::mutate(&corpus[i], &mut rng);
                fuzz::sanitize(&mut s);
                s
            })
            .collect::<Vec<_>>()
    };
    let a: BTreeSet<String> = specs_of(1).iter().map(|s| format!("{s:?}")).collect();
    let b: BTreeSet<String> = specs_of(2).iter().map(|s| format!("{s:?}")).collect();
    assert_ne!(a, b, "different fuzz seeds must mutate differently");
}
