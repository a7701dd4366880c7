//! Metric cells and the cheap handles the hot paths hold.
//!
//! Every metric is a pair: a shared **cell** (atomic storage owned by the
//! registry) and a clonable **handle** (`Option<Arc<cell>>`). A handle from
//! a disabled [`crate::Collector`] holds `None`, so recording through it is
//! a single well-predicted branch — no atomics, no clock reads, no locks.
//!
//! Cells are **sharded**: each writing thread picks a fixed shard (assigned
//! round-robin at first use) and only ever touches that shard's cache line,
//! so parallel ensemble workers never contend on a counter. Reads merge the
//! shards.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independent shards per counter/histogram. Eight covers the
/// worker counts this workspace runs with; threads beyond that share
/// shards (still correct, just contended).
pub(crate) const SHARDS: usize = 8;

/// A cache-line-aligned atomic, so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct PaddedU64(pub(crate) AtomicU64);

/// Round-robin shard assignment: each thread gets a stable index on first
/// use and keeps it for its lifetime.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// Monotonic counter storage: one padded atomic per shard.
#[derive(Default)]
pub(crate) struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    pub(crate) fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Handle to a monotonic counter. The default (and
/// [`Counter::noop`]) handle records nothing.
#[derive(Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// A handle that drops every record — what disabled collectors hand
    /// out.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.add(v);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.total())
    }

    /// Whether this handle actually records.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// Gauge storage: a single atomic (gauges are set, not accumulated, so
/// sharding would change semantics).
#[derive(Default)]
pub(crate) struct GaugeCell {
    value: AtomicU64,
}

impl GaugeCell {
    pub(crate) fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Handle to a gauge: a "latest value" cell with a high-water helper.
#[derive(Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// A handle that drops every record.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// One shard of a histogram: per-bucket counts plus sum/count for the
/// mean.
pub(crate) struct HistShard {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram storage. `bounds` are inclusive upper edges; a
/// value `v` lands in the first bucket with `v <= bounds[i]`, or in the
/// implicit overflow bucket past the last bound.
pub(crate) struct HistogramCell {
    bounds: Box<[u64]>,
    shards: [HistShard; SHARDS],
}

impl HistogramCell {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let nbuckets = bounds.len() + 1; // + overflow
        HistogramCell {
            bounds: bounds.into(),
            shards: std::array::from_fn(|_| HistShard {
                counts: (0..nbuckets).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    pub(crate) fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        let shard = &self.shards[shard_index()];
        shard.counts[idx].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Merge the shards into `(per-bucket counts, total count, total sum)`.
    pub(crate) fn merged(&self) -> (Vec<u64>, u64, u64) {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut count = 0;
        let mut sum = 0;
        for shard in &self.shards {
            for (acc, c) in counts.iter_mut().zip(shard.counts.iter()) {
                *acc += c.load(Ordering::Relaxed);
            }
            count += shard.count.load(Ordering::Relaxed);
            sum += shard.sum.load(Ordering::Relaxed);
        }
        (counts, count, sum)
    }
}

/// Handle to a fixed-bucket histogram.
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that drops every record.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.record(v);
        }
    }

    /// Total observations recorded (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.merged().1)
    }

    /// Merged per-bucket counts, including the trailing overflow bucket
    /// (empty for a no-op handle).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.as_ref().map_or_else(Vec::new, |c| c.merged().0)
    }

    /// A thread-local accumulator for tight loops: `record` touches only
    /// local memory, and the totals merge into the shared cell on
    /// [`LocalHistogram::flush`] (or drop). A no-op handle yields a no-op
    /// accumulator with no allocation.
    pub fn local(&self) -> LocalHistogram {
        LocalHistogram {
            counts: self
                .0
                .as_ref()
                .map_or_else(Vec::new, |c| vec![0; c.bounds().len() + 1]),
            cell: self.0.clone(),
            count: 0,
            sum: 0,
        }
    }
}

/// Local histogram accumulator from [`Histogram::local`]. Avoids the
/// per-record atomic traffic of the shared cell in single-threaded hot
/// loops; the cost moves to one batched merge per flush.
pub struct LocalHistogram {
    cell: Option<Arc<HistogramCell>>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl LocalHistogram {
    /// Record one observation into local memory (no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value `v` (no atomics).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if let Some(cell) = &self.cell {
            let idx = cell.bounds().partition_point(|&b| b < v);
            self.counts[idx] += n;
            self.count += n;
            self.sum += v * n;
        }
    }

    /// Merge the local tallies into the shared cell and reset them.
    pub fn flush(&mut self) {
        let Some(cell) = &self.cell else { return };
        if self.count == 0 {
            return;
        }
        let shard = &cell.shards[shard_index()];
        for (slot, c) in shard.counts.iter().zip(self.counts.iter_mut()) {
            if *c > 0 {
                slot.fetch_add(*c, Ordering::Relaxed);
                *c = 0;
            }
        }
        shard.count.fetch_add(self.count, Ordering::Relaxed);
        shard.sum.fetch_add(self.sum, Ordering::Relaxed);
        self.count = 0;
        self.sum = 0;
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let cell = HistogramCell::new(&[10, 100, 1000]);
        // At-or-below the first bound → bucket 0 (including zero).
        cell.record(0);
        cell.record(10);
        // Just above a bound → next bucket.
        cell.record(11);
        cell.record(100);
        // Past the last bound → overflow bucket.
        cell.record(1001);
        cell.record(u64::MAX);
        let (counts, count, _) = cell.merged();
        assert_eq!(counts, vec![2, 2, 0, 2]);
        assert_eq!(count, 6);
    }

    #[test]
    fn histogram_sum_and_count_merge_across_shards() {
        let cell = Arc::new(HistogramCell::new(&[5]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for v in 0..100u64 {
                        cell.record(v % 10);
                    }
                });
            }
        });
        let (counts, count, sum) = cell.merged();
        assert_eq!(count, 400);
        assert_eq!(sum, 4 * (0..100u64).map(|v| v % 10).sum::<u64>());
        assert_eq!(counts.iter().sum::<u64>(), 400);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        HistogramCell::new(&[10, 10]);
    }

    #[test]
    fn concurrent_counter_increments_merge_exactly() {
        let cell = Arc::new(CounterCell::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        cell.add(1);
                    }
                });
            }
        });
        assert_eq!(cell.total(), 80_000);
    }

    #[test]
    fn noop_handles_record_nothing() {
        let c = Counter::noop();
        c.inc();
        c.add(10);
        assert_eq!(c.value(), 0);
        assert!(!c.is_live());
        let g = Gauge::noop();
        g.set(5);
        g.record_max(9);
        assert_eq!(g.value(), 0);
        let h = Histogram::noop();
        h.record(3);
        assert_eq!(h.count(), 0);
        assert!(h.bucket_counts().is_empty());
    }

    #[test]
    fn local_histogram_flushes_into_shared_cell() {
        let h = Histogram(Some(Arc::new(HistogramCell::new(&[10, 100]))));
        let mut local = h.local();
        local.record(5);
        local.record(50);
        local.record(500);
        // Nothing shared until the flush.
        assert_eq!(h.count(), 0);
        local.flush();
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        // Flushing again is a no-op; dropping after more records merges.
        local.flush();
        assert_eq!(h.count(), 3);
        local.record(11);
        local.record_n(7, 3);
        drop(local);
        assert_eq!(h.bucket_counts(), vec![4, 2, 1]);

        // A no-op handle yields a no-op accumulator.
        let mut noop = Histogram::noop().local();
        noop.record(1);
        noop.record_n(1, 5);
        noop.flush();
    }

    #[test]
    fn gauge_high_water_only_rises() {
        let g = Gauge(Some(Arc::new(GaugeCell::default())));
        g.record_max(10);
        g.record_max(3);
        assert_eq!(g.value(), 10);
        g.set(2);
        assert_eq!(g.value(), 2);
    }
}
