//! Coverage signal for the fuzzer, derived from `routesync-obs` metrics.
//!
//! Every case runs under a fresh obs collector; the snapshot afterwards
//! tells us *which* event hooks and fault paths fired and at what order
//! of magnitude. A case that lights up a metric/magnitude combination no
//! earlier case reached is interesting — the fuzzer keeps its spec in the
//! corpus and mutates from it.
//!
//! Only deterministic namespaces feed the signal: simulation-domain
//! counters, gauges and histogram buckets under `core.`, `netsim.` and
//! `phenomena.`.
//! Wall-clock metrics (`exec.*` worker timings, span durations) are
//! excluded so the corpus — and therefore the whole fuzz run — is
//! bit-identical across machines and thread counts. So are the cost
//! counters (`COST_COUNTERS`) and netsim's per-kind event counts
//! (`EVENT_COUNTERS`): they count how much work a kernel or the event
//! loop did, not which behaviour a case reached, so a faster kernel must
//! not change the fuzzer's features or its watchdog steps.

use std::collections::BTreeSet;

use routesync_obs::Snapshot;

/// Namespaces whose metrics are pure functions of `(spec, seed)`.
const DETERMINISTIC_PREFIXES: [&str; 3] = ["core.", "netsim.", "phenomena."];

/// Implementation-cost counters: rows the update merge compared, rows
/// the advertisement builders scanned, and entries the fast engine's
/// sorted ring moved.
const COST_COUNTERS: [&str; 3] = [
    "netsim.update.probes",
    "netsim.advert.rows_scanned",
    "core.fast.ring.moves",
];

/// netsim's events popped per kind, and its stale pops: a breakdown of
/// `desim.engine.events`, which is outside the deterministic namespaces.
const EVENT_COUNTERS: &str = "netsim.events.";

fn deterministic(name: &str) -> bool {
    DETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p))
        && !COST_COUNTERS.contains(&name)
        && !name.starts_with(EVENT_COUNTERS)
}

/// Order-of-magnitude bucket: 0 for 0, otherwise the bit length of the
/// value (so 1, 2-3, 4-7, … share buckets).
fn magnitude(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// The coverage features a single case exercised.
pub fn features_of(snap: &Snapshot) -> BTreeSet<String> {
    let mut feats = BTreeSet::new();
    for (name, &v) in &snap.counters {
        if deterministic(name) && v > 0 {
            feats.insert(format!("c:{name}:{}", magnitude(v)));
        }
    }
    for (name, &v) in &snap.gauges {
        if deterministic(name) && v > 0 {
            feats.insert(format!("g:{name}:{}", magnitude(v)));
        }
    }
    for (name, h) in &snap.histograms {
        if !deterministic(name) {
            continue;
        }
        for (i, &c) in h.counts.iter().enumerate() {
            if c > 0 {
                feats.insert(format!("h:{name}:{i}"));
            }
        }
    }
    feats
}

/// A case's deterministic step count: the sum of its simulation-domain
/// counters. A pure function of `(spec, seed)` — the fuzzer's watchdog
/// budget compares against this, so a watchdog quarantine reproduces on
/// every machine, thread count, and resume.
pub fn deterministic_steps(snap: &Snapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|(name, _)| deterministic(name))
        .map(|(_, &v)| v)
        .sum()
}

/// The accumulated coverage of a fuzz run.
#[derive(Debug, Default)]
pub struct CoverageMap {
    features: BTreeSet<String>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge one case's features; returns how many were new.
    pub fn merge(&mut self, feats: &BTreeSet<String>) -> usize {
        let before = self.features.len();
        self.features.extend(feats.iter().cloned());
        self.features.len() - before
    }

    /// Total distinct features seen.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether no feature has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_buckets_are_coarse() {
        assert_eq!(magnitude(0), 0);
        assert_eq!(magnitude(1), 1);
        assert_eq!(magnitude(2), 2);
        assert_eq!(magnitude(3), 2);
        assert_eq!(magnitude(1000), 10);
    }

    #[test]
    fn only_deterministic_namespaces_count() {
        let mut snap = Snapshot::default();
        snap.counters.insert("core.fast.bursts".into(), 7);
        snap.counters.insert("exec.worker.busy_ns".into(), 1234);
        snap.counters.insert("netsim.updates.sent".into(), 0);
        let feats = features_of(&snap);
        assert_eq!(feats.len(), 1);
        assert!(feats
            .iter()
            .next()
            .expect("one")
            .starts_with("c:core.fast.bursts"));
    }

    #[test]
    fn cost_counters_change_neither_features_nor_steps() {
        let mut cheap = Snapshot::default();
        cheap.counters.insert("netsim.updates.sent".into(), 40);
        cheap.gauges.insert("netsim.sync.clusters".into(), 3);
        let mut costly = cheap.clone();
        let events = ["netsim.events.cpu_free", "netsim.events.stale"];
        for (k, name) in COST_COUNTERS.iter().chain(&events).enumerate() {
            cheap.counters.insert(name.to_string(), 1 + k as u64);
            costly.counters.insert(name.to_string(), 1_000_000 << k);
        }
        assert_eq!(features_of(&cheap), features_of(&costly));
        assert_eq!(deterministic_steps(&cheap), deterministic_steps(&costly));
        assert_eq!(deterministic_steps(&cheap), 40);
    }

    #[test]
    fn merge_counts_new_features_once() {
        let mut map = CoverageMap::new();
        let a: BTreeSet<String> = ["x".to_string(), "y".to_string()].into();
        assert_eq!(map.merge(&a), 2);
        assert_eq!(map.merge(&a), 0);
        assert_eq!(map.len(), 2);
    }
}
