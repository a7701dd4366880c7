//! # routesync-obs — zero-overhead-when-disabled instrumentation
//!
//! The paper's phenomena live in aggregate statistics — cluster-size
//! trajectories, round durations, outage periodicity — so the simulators
//! need first-class visibility into where events, packets, and wall-clock
//! go. This crate provides that without perturbing the workspace's core
//! guarantee: **with collection disabled, instrumented code is
//! byte-identical in behaviour to uninstrumented code** (one predictable
//! branch per record site; no atomics, no clock reads, no allocation).
//!
//! Three instruments, one registry:
//!
//! * **Metrics** — monotonic [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s. Storage is sharded across cache-line-padded atomics so
//!   parallel ensemble workers (see `routesync-exec`) never contend.
//! * **Spans** — nanosecond accumulation per label via the [`span!`]
//!   macro or [`SpanTimer`] handles; used to attribute wall-clock to
//!   subsystems (`BENCH_core.json`'s `obs` section).
//! * **Trace** — a bounded ring buffer of `(sim-time, label, value)`
//!   events ([`Tracer`]) with honest drop accounting.
//!
//! ## The collector handle
//!
//! A [`Collector`] is a clone-cheap handle to a registry, or to nothing:
//!
//! ```
//! use routesync_obs::Collector;
//!
//! let c = Collector::enabled();
//! let packets = c.counter("netsim.packets.sent");
//! packets.add(3);
//! assert_eq!(c.snapshot().counters["netsim.packets.sent"], 3);
//!
//! // A disabled collector hands out no-op handles: recording is a branch.
//! let off = Collector::disabled();
//! off.counter("netsim.packets.sent").add(3);
//! assert!(off.snapshot().counters.is_empty());
//! ```
//!
//! Simulator constructors resolve their handles from [`global`]: the
//! innermost [`scoped`] collector entered on this thread, else the
//! process-wide one, which stays disabled unless [`install`]ed (kept for
//! the routebench benchmark alone). Handles resolved before a scope is
//! entered stay no-op, so enter it before constructing the simulators
//! you want observed.
//!
//! A binary's run enters a scope through `routesync-exec`'s telemetry
//! session (the `--obs`, `--serve-obs`, `--obs-series` and
//! `--obs-folded` flags), and its ensemble workers inherit it. The
//! conformance fuzzer enters one per case and reads the case's coverage
//! back from it. No other thread records into a scope:
//!
//! ```
//! use routesync_obs::Collector;
//!
//! let case = Collector::enabled();
//! {
//!     let _scope = routesync_obs::scoped(case.clone());
//!     routesync_obs::global().counter("core.events").inc();
//! }
//! assert_eq!(case.snapshot().counters["core.events"], 1);
//! assert!(routesync_obs::global().snapshot().counters.is_empty());
//! ```
//!
//! ## Determinism
//!
//! Instrumentation must never change simulation output. Nothing in this
//! crate feeds back into model state; the integration suite's
//! `prop_obs.rs` property test runs ensembles with collection off and on
//! and asserts byte-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod online;
pub mod snapshot;
pub mod span;
pub mod timeseries;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub use export::{folded_stacks, ndjson_line, prometheus_text, series_document, ObsServer};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram};
pub use online::{
    DetectorConfig, DetectorPoint, DetectorSnapshot, SyncDetector, GAUGE_FIXED_POINT,
};
pub use snapshot::{
    HistogramSnapshot, Snapshot, SpanSnapshot, TraceEventSnapshot, TraceSnapshot, REQUIRED_KEYS,
    SCHEMA_VERSION,
};
pub use span::{SpanCache, SpanGuard, SpanTimer};
pub use timeseries::{SeriesConfig, SeriesSample, SeriesSnapshot, SeriesTicker};
pub use trace::{TraceEvent, Tracer};

use metrics::{CounterCell, GaugeCell, HistogramCell};
use online::DetectorCell;
use span::SpanCell;
use timeseries::SeriesCell;
use trace::TraceRing;

/// Default trace-ring capacity for [`Collector::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The metric store behind an enabled [`Collector`].
///
/// Registration (name → cell) takes a mutex; the hot paths never touch it
/// because handles are resolved once at construction time and cached.
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCell>>>,
    trace: Arc<Mutex<TraceRing>>,
    series: SeriesCell,
    detectors: Mutex<BTreeMap<String, Arc<DetectorCell>>>,
}

impl Registry {
    fn new(trace_capacity: usize) -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            trace: Arc::new(Mutex::new(TraceRing::new(trace_capacity))),
            series: SeriesCell::default(),
            detectors: Mutex::new(BTreeMap::new()),
        }
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to an instrumentation registry — or to nothing.
///
/// Cloning shares the registry. The [`Collector::disabled`] handle hands
/// out no-op instruments, making every record site a single branch.
#[derive(Clone, Default)]
pub struct Collector(Option<Arc<Registry>>);

impl Collector {
    /// The zero-cost handle: every instrument it resolves is a no-op.
    pub const fn disabled() -> Self {
        Collector(None)
    }

    /// A live collector with the default trace capacity.
    pub fn enabled() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A live collector whose trace ring holds `trace_capacity` events.
    pub fn with_trace_capacity(trace_capacity: usize) -> Self {
        Collector(Some(Arc::new(Registry::new(trace_capacity))))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Resolve (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|reg| {
            Arc::clone(
                lock(&reg.counters)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(CounterCell::default())),
            )
        }))
    }

    /// Resolve (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|reg| {
            Arc::clone(
                lock(&reg.gauges)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(GaugeCell::default())),
            )
        }))
    }

    /// Resolve (registering on first use) the histogram `name` with the
    /// given inclusive upper bucket `bounds` (strictly increasing; an
    /// overflow bucket is implicit). Bounds are fixed at registration —
    /// later resolutions reuse the first geometry.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        Histogram(self.0.as_ref().map(|reg| {
            Arc::clone(
                lock(&reg.histograms)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCell::new(bounds))),
            )
        }))
    }

    /// Resolve (registering on first use) the span label `name`.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer(self.0.as_ref().map(|reg| {
            Arc::clone(
                lock(&reg.spans)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(SpanCell::default())),
            )
        }))
    }

    /// The shared event-trace handle.
    pub fn tracer(&self) -> Tracer {
        Tracer(self.0.as_ref().map(|reg| Arc::clone(&reg.trace)))
    }

    /// Arm the simulated-time series sampler: from now on,
    /// [`SeriesTicker::tick`] calls take a delta-encoded registry sample
    /// at each `cfg.interval_ns` boundary. No-op on a disabled collector;
    /// reconfiguring restarts the series.
    pub fn configure_series(&self, cfg: SeriesConfig) {
        if let Some(reg) = &self.0 {
            reg.series.configure(cfg);
        }
    }

    /// The clock-hook handle simulation drivers tick as simulated time
    /// advances (one branch when disabled; one relaxed load when enabled
    /// but unconfigured).
    pub fn series_ticker(&self) -> SeriesTicker {
        SeriesTicker(self.0.clone())
    }

    /// Resolve (registering on first use) the streaming sync detector
    /// `name`. Like histograms, the first registration fixes the
    /// geometry; later resolutions share the same cell. The detector
    /// publishes `{name}.r`, `{name}.clusters`, `{name}.entropy` and
    /// `{name}.onset_ns` as first-class gauges.
    pub fn sync_detector(&self, name: &str, cfg: DetectorConfig) -> SyncDetector {
        SyncDetector(self.0.as_ref().map(|reg| {
            let existing = lock(&reg.detectors).get(name).cloned();
            match existing {
                Some(cell) => cell,
                None => {
                    // Build outside the map lock: gauge registration
                    // takes the gauges lock of the same registry.
                    let cell = Arc::new(DetectorCell::new(name, cfg, self));
                    Arc::clone(lock(&reg.detectors).entry(name.to_string()).or_insert(cell))
                }
            }
        }))
    }

    /// Export the whole registry. A disabled collector exports an empty
    /// snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let Some(reg) = &self.0 else {
            return Snapshot::default();
        };
        let mut snap = Snapshot::default();
        for (name, cell) in lock(&reg.counters).iter() {
            snap.counters.insert(name.clone(), cell.total());
        }
        for (name, cell) in lock(&reg.gauges).iter() {
            snap.gauges
                .insert(name.clone(), Gauge(Some(Arc::clone(cell))).value());
        }
        // The series tail is computed against the *same* totals exported
        // above, so `base + samples + tail` telescopes to them exactly.
        snap.series = reg.series.snapshot(&snap.counters, &snap.gauges);
        for (name, cell) in lock(&reg.detectors).iter() {
            snap.detectors.insert(name.clone(), cell.snapshot());
        }
        for (name, cell) in lock(&reg.histograms).iter() {
            let (counts, count, sum) = cell.merged();
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds: cell.bounds().to_vec(),
                    counts,
                    count,
                    sum,
                },
            );
        }
        for (name, cell) in lock(&reg.spans).iter() {
            let count = cell.count.total();
            let total_ns = cell.total_ns.total();
            snap.spans.insert(
                name.clone(),
                SpanSnapshot {
                    count,
                    total_ns,
                    mean_ns: if count == 0 {
                        0.0
                    } else {
                        total_ns as f64 / count as f64
                    },
                },
            );
        }
        {
            let ring = lock(&reg.trace);
            snap.trace.capacity = ring.capacity();
            snap.trace.dropped = ring.dropped();
            snap.trace.first_dropped_t_ns = ring.first_dropped_t_ns();
            snap.trace.events = ring
                .ordered()
                .into_iter()
                .map(|ev| TraceEventSnapshot {
                    t_ns: ev.t_ns,
                    label: ev.label.to_string(),
                    value: ev.value,
                })
                .collect();
        }
        snap
    }
}

// ---------------------------------------------------------------------
// The global collector
// ---------------------------------------------------------------------

/// Live collectors that recording sites may reach: one for an enabled
/// global collector plus one per entered enabled [`scoped`] collector.
/// Keeping both in one atomic keeps [`enabled`] a single load.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static EPOCH: AtomicU64 = AtomicU64::new(1);
static GLOBAL: Mutex<Collector> = Mutex::new(Collector::disabled());

thread_local! {
    static SCOPED: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install `collector` as the process-wide collector that instrumented
/// constructors (and [`span!`] call sites) resolve against.
///
/// Kept for one caller, the routebench benchmark, which installs a live
/// collector for its traced legs. Everything else enters a [`scoped`]
/// collector instead.
///
/// Handles resolved from the previous collector keep recording into it;
/// install **before** constructing the simulators you want observed.
/// Threads inside a [`scoped`] collector do not see the install.
pub fn install(collector: Collector) {
    let mut global = lock(&GLOBAL);
    if collector.is_enabled() {
        LIVE.fetch_add(1, Ordering::AcqRel);
    }
    if global.is_enabled() {
        LIVE.fetch_sub(1, Ordering::AcqRel);
    }
    *global = collector;
    EPOCH.fetch_add(1, Ordering::AcqRel);
}

/// Whether any collector is live — the single static branch gate for
/// instrumentation that must cost nothing when off (e.g. clock reads in
/// `routesync-exec` workers). True while the global collector is enabled
/// or any thread is inside an enabled [`scoped`] collector; the handles
/// [`global`] returns decide where (and whether) recording lands.
#[inline]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) > 0
}

/// The collector instrumented code on this thread records into: the
/// innermost [`scoped`] collector if one is entered, else the global one
/// (disabled by default).
pub fn global() -> Collector {
    current_scope().unwrap_or_else(|| lock(&GLOBAL).clone())
}

/// The [`scoped`] collector entered on this thread, if any. Code that fans
/// work out to other threads passes it on, so workers record into the
/// same scope.
pub fn current_scope() -> Option<Collector> {
    SCOPED.with(|s| s.borrow().clone())
}

/// Make `collector` this thread's collector until the returned guard drops
/// (panics included), shadowing the global one. Scopes nest; dropping a
/// guard restores whatever was entered before it.
pub fn scoped(collector: Collector) -> ScopeGuard {
    if collector.is_enabled() {
        LIVE.fetch_add(1, Ordering::AcqRel);
    }
    let live = collector.is_enabled();
    let previous = SCOPED.with(|s| s.replace(Some(collector)));
    ScopeGuard {
        previous,
        live,
        _not_send: PhantomData,
    }
}

/// Leaves a [`scoped`] collector on drop. Bound to the thread that
/// entered it.
#[must_use = "the scope ends when the guard drops; binding it to _ ends it immediately"]
pub struct ScopeGuard {
    previous: Option<Collector>,
    live: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPED.with(|s| *s.borrow_mut() = previous);
        if self.live {
            LIVE.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Monotone install counter; bumps on every [`install`]. Lets call-site
/// caches ([`SpanCache`]) notice a new collector without locking.
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share the process; serialize them.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn registry_resolves_the_same_cell_by_name() {
        let c = Collector::enabled();
        let a = c.counter("x");
        let b = c.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(c.snapshot().counters["x"], 5);
    }

    #[test]
    fn snapshot_covers_every_instrument_kind() {
        let c = Collector::with_trace_capacity(8);
        c.counter("c").inc();
        c.gauge("g").set(9);
        c.histogram("h", &[10, 20]).record(15);
        c.span("s").record_ns(500);
        c.tracer().record(42, "ev", 1.0);
        let snap = c.snapshot();
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(snap.gauges["g"], 9);
        assert_eq!(snap.histograms["h"].counts, vec![0, 1, 0]);
        assert_eq!(snap.spans["s"].total_ns, 500);
        assert_eq!(snap.spans["s"].count, 1);
        assert_eq!(snap.trace.events.len(), 1);
        assert_eq!(snap.trace.events[0].label, "ev");
        // And it survives the JSON round trip.
        let back = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn install_bumps_epoch_and_flips_enabled() {
        let _guard = global_lock();
        let before = epoch();
        install(Collector::enabled());
        assert!(enabled());
        assert!(epoch() > before);
        install(Collector::disabled());
        assert!(!enabled());
        assert!(global().snapshot().counters.is_empty());
    }

    #[test]
    fn span_macro_follows_collector_installs() {
        let _guard = global_lock();
        fn traced() {
            let _s = crate::span!("test.span_macro");
        }
        // Off: nothing recorded.
        install(Collector::disabled());
        traced();
        // On: entries land in the installed collector.
        let live = Collector::enabled();
        install(live.clone());
        traced();
        traced();
        assert_eq!(live.span("test.span_macro").count(), 2);
        // A fresh install re-resolves the call-site cache.
        let second = Collector::enabled();
        install(second.clone());
        traced();
        assert_eq!(second.span("test.span_macro").count(), 1);
        assert_eq!(live.span("test.span_macro").count(), 2);
        install(Collector::disabled());
    }

    #[test]
    fn scoped_collector_shadows_installs_on_its_own_thread_only() {
        let _guard = global_lock();
        let process = Collector::enabled();
        install(process.clone());
        let case = Collector::enabled();
        {
            let _scope = scoped(case.clone());
            global().counter("scoped.mine").inc();
            // Another thread keeps recording into the global collector,
            // and an install there does not reach into the scope.
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(current_scope().is_none());
                    global().counter("scoped.other").inc();
                    install(process.clone());
                });
            });
            {
                let _inner = scoped(Collector::disabled());
                global().counter("scoped.mine").inc();
            }
            global().counter("scoped.mine").inc();
            let _s = crate::span!("scoped.span");
        }
        assert!(current_scope().is_none());
        let mine = case.snapshot();
        assert_eq!(mine.counters["scoped.mine"], 2);
        assert!(!mine.counters.contains_key("scoped.other"));
        assert_eq!(mine.spans["scoped.span"].count, 1);
        let theirs = process.snapshot();
        assert_eq!(theirs.counters["scoped.other"], 1);
        assert!(!theirs.counters.contains_key("scoped.mine"));
        install(Collector::disabled());
        assert!(!enabled());
    }

    #[test]
    fn concurrent_counters_merge_through_the_collector() {
        let c = Collector::enabled();
        let counter = c.counter("merge");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..25_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().counters["merge"], 200_000);
    }
}
