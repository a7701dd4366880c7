//! Lightweight span timing: nanosecond accumulation per label.
//!
//! A [`SpanTimer`] handle starts guards; each [`SpanGuard`] reads the
//! monotonic clock on construction and adds the elapsed nanoseconds to the
//! span's cell when dropped. A no-op handle (from a disabled collector)
//! never touches the clock at all, so an instrumented-off hot loop pays one
//! branch per span.
//!
//! The [`crate::span!`] macro caches the handle in a per-call-site static,
//! re-resolving it only when a new collector is installed (see
//! [`crate::install`]), so `span!("calendar.dequeue")` costs one atomic
//! load plus one branch when collection is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::CounterCell;

/// Span storage: total nanoseconds and entry count.
#[derive(Default)]
pub(crate) struct SpanCell {
    pub(crate) total_ns: CounterCell,
    pub(crate) count: CounterCell,
}

/// Handle to a named span. Clone-cheap; start guards with
/// [`SpanTimer::start`].
#[derive(Clone, Default)]
pub struct SpanTimer(pub(crate) Option<Arc<SpanCell>>);

impl SpanTimer {
    /// A handle that records nothing and never reads the clock.
    pub fn noop() -> Self {
        SpanTimer(None)
    }

    /// Begin timing; the returned guard records on drop.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        SpanGuard(
            self.0
                .as_ref()
                .map(|cell| (Arc::clone(cell), Instant::now())),
        )
    }

    /// Add an externally measured duration (for callers that already have
    /// the elapsed time in hand).
    pub fn record_ns(&self, ns: u64) {
        if let Some(cell) = &self.0 {
            cell.total_ns.add(ns);
            cell.count.add(1);
        }
    }

    /// Accumulated nanoseconds (0 for a no-op handle).
    pub fn total_ns(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.total_ns.total())
    }

    /// Number of completed spans (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count.total())
    }
}

/// Live timing of one span entry; records on drop.
#[must_use = "a span guard records when dropped; binding it to _ ends the span immediately"]
pub struct SpanGuard(Option<(Arc<SpanCell>, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, started)) = self.0.take() {
            cell.total_ns.add(started.elapsed().as_nanos() as u64);
            cell.count.add(1);
        }
    }
}

/// Per-call-site cache behind the [`crate::span!`] macro.
///
/// Holds the span name plus the handle resolved from the global collector,
/// tagged with the install epoch it was resolved under. When a new
/// collector is installed the epoch moves and the next `start` re-resolves.
pub struct SpanCache {
    name: &'static str,
    epoch: AtomicU64,
    handle: Mutex<SpanTimer>,
}

impl SpanCache {
    /// A cache for the span named `name` (used by the macro expansion).
    pub const fn new(name: &'static str) -> Self {
        SpanCache {
            name,
            epoch: AtomicU64::new(0),
            handle: Mutex::new(SpanTimer(None)),
        }
    }

    /// Start a guard, re-resolving the cached handle if the global
    /// collector changed since last time. Inside a [`crate::scoped`]
    /// collector the span resolves from the scope and the shared cache is
    /// left alone.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard(None);
        }
        if let Some(scope) = crate::current_scope() {
            return scope.span(self.name).start();
        }
        let epoch = crate::epoch();
        let mut handle = self.handle.lock().unwrap_or_else(|e| e.into_inner());
        if self.epoch.load(Ordering::Acquire) != epoch {
            *handle = crate::global().span(self.name);
            self.epoch.store(epoch, Ordering::Release);
        }
        handle.start()
    }
}

/// Time the rest of the enclosing scope under a static label.
///
/// ```
/// fn dequeue() {
///     let _span = routesync_obs::span!("calendar.dequeue");
///     // ... work ...
/// } // elapsed nanoseconds accumulate under "calendar.dequeue" here
/// ```
///
/// With no collector installed this is one atomic load and one branch; the
/// clock is never read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __ROUTESYNC_SPAN: $crate::SpanCache = $crate::SpanCache::new($name);
        __ROUTESYNC_SPAN.start()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_count_and_time() {
        let timer = SpanTimer(Some(Arc::new(SpanCell::default())));
        for _ in 0..3 {
            let _g = timer.start();
        }
        assert_eq!(timer.count(), 3);
        timer.record_ns(1_000);
        assert!(timer.total_ns() >= 1_000);
        assert_eq!(timer.count(), 4);
    }

    #[test]
    fn noop_timer_records_nothing() {
        let timer = SpanTimer::noop();
        let _g = timer.start();
        drop(_g);
        assert_eq!(timer.count(), 0);
        assert_eq!(timer.total_ns(), 0);
    }
}
