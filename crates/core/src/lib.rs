//! # routesync-core — the Periodic Messages model
//!
//! This crate implements the abstract model at the centre of Floyd &
//! Jacobson, *"The Synchronization of Periodic Routing Messages"* (SIGCOMM
//! 1993), Sections 3-4.
//!
//! ## The model
//!
//! `N` routers share a broadcast network. Each router runs the loop
//! (paper Section 3):
//!
//! 1. Prepare and send a routing message (taking `Tc` seconds — the *busy
//!    period*).
//! 2. Incoming routing messages that arrive during the busy period are also
//!    processed, each extending the busy period by `Tc`.
//! 3. Only after its own message **and** all incoming messages are processed
//!    does the router re-arm its timer, drawing the next interval uniformly
//!    from `[Tp − Tr, Tp + Tr]`.
//! 4. A message that arrives while the router is idle is processed
//!    immediately (again taking `Tc`); a *triggered* update additionally
//!    makes the router send its own message at once, without waiting for the
//!    timer.
//!
//! Rule 3 is the weak coupling: if router B's timer expires while B happens
//! to be processing router A's message, both finish their combined work at
//! the same instant and re-arm their timers **simultaneously** — they have
//! formed a *cluster* and will tend to stay together. Clusters drift through
//! phase space faster than lone routers (a cluster of `i` advances
//! ≈ `(i−1)·Tc` per round), sweeping up every router they pass. The random
//! component `Tr` is the only force breaking clusters apart.
//!
//! ## What the crate provides
//!
//! * [`PeriodicModel`] — an exact event-driven simulation of the model on
//!   the `routesync-desim` engine, with triggered updates, both timer-reset
//!   policies, and per-router jitter policies.
//! * [`FastModel`] — a burst-based fast path (~N× fewer events) for the
//!   long parameter sweeps, proven observationally identical to the
//!   event-driven engine by unit and property tests.
//! * [`record`] — pluggable observers: send traces (Figure 4), detailed
//!   event logs (Figure 5), cluster graphs (Figures 6-8), first-passage
//!   detectors (Figures 10-12).
//! * [`experiment`] — one-call experiment runners (time-to-synchronize,
//!   time-to-desynchronize, multi-seed sweeps with `std::thread::scope`).
//!
//! ## Example
//!
//! ```
//! use routesync_core::{PeriodicModel, PeriodicParams, StartState};
//!
//! // The paper's Figure 4 configuration.
//! let params = PeriodicParams::paper_reference();
//! let mut model = PeriodicModel::new(params, StartState::Unsynchronized, 4);
//! let report = model.run_until_synchronized(1_000_000.0);
//! assert!(report.synchronized);
//!
//! // The burst-based fast engine gives the identical answer, ~N× faster.
//! let mut fast = routesync_core::FastModel::new(params, StartState::Unsynchronized, 4);
//! assert_eq!(fast.run_until_synchronized(1_000_000.0).at_secs, report.at_secs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod experiment;
pub mod fast;
pub mod model;
pub mod params;
pub mod record;
pub mod telemetry;

pub use analysis::{order_parameter, order_parameter_series, phase_entropy, sync_onset};
pub use batch::{BatchedEnsemble, CellOut, Engine};
pub use experiment::{DesyncReport, SyncReport};
pub use fast::FastModel;
pub use model::{NodeId, PeriodicModel};
pub use params::{PeriodicParams, StartState, TriggerResponse};
pub use telemetry::Telemetry;

pub use record::{
    ClusterLog, EventKind, EventLog, FirstPassageDown, FirstPassageUp, NullRecorder, Recorder,
    RoundMax, SendTrace,
};
