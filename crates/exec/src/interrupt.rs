//! Cooperative SIGINT handling for drainable ensemble runs.
//!
//! The supervised executor ([`crate::supervise`]) checks
//! [`interrupted`] before claiming each new cell. Binaries that
//! checkpoint call [`install`] once at startup; the first Ctrl-C then
//! stops *new* work while in-flight cells finish and their results drain
//! to the checkpoint — a graceful stop instead of a lost sweep. A second
//! Ctrl-C falls back to the default disposition and kills the process
//! (the checkpoint's append-only framing keeps even that crash safe).
//!
//! The handler itself only stores to an `AtomicU64` — async-signal-safe
//! by construction. On non-Unix targets [`install`] is a no-op and
//! [`interrupted`] only ever reports a programmatic [`request`].
//!
//! `PENDING` and `INSTALLED` are the one process-global state a run
//! reads on purpose: a signal handler can reach only statics. A test that
//! calls [`request`] drains every supervised run in its binary, so the
//! supervisor's own tests turn `heed_interrupt` off.

#![allow(unsafe_code)] // one libc call: signal(2) registration

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How many SIGINTs (or programmatic [`request`]s) have arrived.
static PENDING: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Whether a drain has been requested (Ctrl-C or [`request`]).
pub fn interrupted() -> bool {
    PENDING.load(Ordering::Relaxed) != 0
}

/// Programmatically request a drain, exactly as a SIGINT would. Used by
/// tests to exercise the graceful-stop path deterministically.
pub fn request() {
    PENDING.fetch_add(1, Ordering::Relaxed);
}

/// Clear a pending drain request (between independent runs in one
/// process, e.g. the test suite).
pub fn reset() {
    PENDING.store(0, Ordering::Relaxed);
}

#[cfg(unix)]
mod imp {
    use super::{Ordering, INSTALLED, PENDING};

    const SIGINT: i32 = 2;
    /// `SIG_DFL`: restore the default disposition so a second Ctrl-C
    /// terminates the process instead of queueing another drain request.
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        PENDING.fetch_add(1, Ordering::Relaxed);
        // Second Ctrl-C should kill: fall back to the default handler.
        // `signal` is async-signal-safe per POSIX.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Register the SIGINT drain handler (idempotent). Call once from
/// binaries that stream results to a checkpoint.
pub fn install() {
    imp::install()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reset_roundtrip() {
        reset();
        assert!(!interrupted());
        request();
        assert!(interrupted());
        reset();
        assert!(!interrupted());
    }
}
