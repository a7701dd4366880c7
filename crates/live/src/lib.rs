//! routesync-live: a crash-safe distance-vector daemon over real UDP.
//!
//! Everything else in this workspace studies the synchronization of
//! periodic routing messages *in simulation*. This crate closes the loop
//! with reality: the same [`ScenarioSpec`](routesync_netsim::ScenarioSpec)
//! that drives the discrete-event simulator boots a long-running daemon
//! whose routers exchange genuine datagrams over nonblocking loopback
//! UDP sockets — real packet loss, real `ECONNREFUSED` bounces from
//! crashed peers, real wall-clock jitter — while a *desim twin* (the pure
//! simulation of the identical spec and seed) predicts the trajectory the
//! paper's model expects, and the daemon continuously reports how far
//! reality has diverged from it.
//!
//! Module map:
//!
//! * [`daemon`] — the event loop: UDP adjacencies, bounded ingress with
//!   overload shedding, bounded retry, liveness timeouts, fault replay,
//!   CRC-framed checkpoints with byte-identical resume.
//! * [`backoff`] — decorrelated-jitter retry delays (jittered by
//!   construction; synchronized retries are the paper's failure mode).
//! * `poll` — an epoll interest set, filled once, whose one wait per
//!   loop tick names the sockets that have something to read.
//! * [`twin`] — the predictive simulation track and the live-vs-twin
//!   divergence monitor exporting `live.twin.*`.
//!
//! See `docs/LIVE.md` for the architecture, the robustness knobs, and
//! the exit-code contract of the `routesync serve` CLI front-end.

pub mod backoff;
pub mod daemon;
mod poll;
pub mod twin;

pub use backoff::DecorrelatedJitter;
pub use daemon::{LiveConfig, LiveDaemon, LiveReport, Outcome, RetryPolicy};
pub use twin::{DivergenceMonitor, TwinTrack};
