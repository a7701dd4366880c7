//! Deterministic, supervised parallel ensemble runner.
//!
//! Monte-Carlo ensembles dominate this workspace's wall time: every figure
//! and sweep runs the same simulation over hundreds of independent seeds
//! or grid points. Those runs are embarrassingly parallel, but naive
//! parallelism breaks the repository's core guarantee — byte-identical
//! output for a given seed, regardless of machine or thread count.
//!
//! [`Ensemble`] is the one runner every fan-out in the workspace goes
//! through, and it keeps that guarantee by construction:
//!
//! * work items are claimed **one at a time from a shared atomic
//!   counter** (work stealing without queues or locks), so threads never
//!   idle while work remains;
//! * each result is tagged with its **input index** and placed back in
//!   input order, so the output is identical to the serial map no matter
//!   how the claims interleave;
//! * each item's computation sees only its own inputs — callers derive
//!   per-item RNG seeds from the item, never from shared mutable state.
//!
//! Every item runs as a supervised **cell** (see [`supervise`]): inside
//! a panic boundary, under the optional [`SuperviseConfig`] limits
//! (deterministic watchdog, wall-clock deadline, allocation guard,
//! graceful SIGINT drain via [`interrupt`]), with a streaming sink for
//! crash-safe CRC-framed checkpoints ([`checkpoint`]). A run with no
//! limits is just a supervised run whose [`Outcome::into_values`]
//! re-raises any failed cell on the caller. See `docs/RESILIENCE.md`.
//!
//! A block of seeds for a batched engine is just an item, so the runner
//! has no block-width knob.
//!
//! A binary's telemetry flags are one [`telemetry::Session`].

// `deny` rather than `forbid`: the `interrupt` module registers one
// SIGINT handler through libc and carries the only `allow(unsafe_code)`.
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod interrupt;
pub mod supervise;
pub mod telemetry;

pub use checkpoint::atomic_write;
pub use supervise::{
    CellResult, Ensemble, Outcome, Quarantine, RunCtx, RunFailure, SuperviseConfig,
};

/// Resolve the worker-thread count for an ensemble run.
///
/// Order of precedence: an explicit `Some(n)` request, then the
/// `ROUTESYNC_THREADS` environment variable, then the machine's available
/// parallelism. Always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(var) = std::env::var("ROUTESYNC_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
