//! # routesync-desim — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation core used by every other
//! crate in the `routesync` workspace.
//!
//! Design goals (in the spirit of event-driven network stacks such as
//! smoltcp): simplicity, robustness, exhaustive documentation, and **no
//! cleverness at the type level**. The engine is synchronous and
//! single-threaded; parallelism in the workspace happens *across* independent
//! simulation runs, never inside one.
//!
//! ## Determinism
//!
//! Two properties make every simulation in this workspace reproducible
//! byte-for-byte:
//!
//! 1. [`SimTime`] is an integer number of nanoseconds. The Periodic Messages
//!    model of Floyd & Jacobson defines a *cluster* as a set of routers that
//!    reset their timers at the **same instant**; integer time makes "same
//!    instant" a well-defined equality instead of a floating-point tolerance.
//! 2. Events scheduled for the same instant pop in FIFO order of scheduling,
//!    for every scheduler implementation.
//!
//! ## Schedulers
//!
//! A simulation never schedules before the instant it last popped
//! ([`Engine::schedule`] asserts this), so the [`Scheduler`] contract is a
//! *monotone* priority queue: a push must not be earlier than the last
//! popped time. Two implementations are provided:
//!
//! * [`RadixQueue`] — the default. A monotone radix queue (Ahuja et al.,
//!   JACM 1990): `O(1)` push and `peek_time`, and a pop costs the entries
//!   it moves down between buckets, counted in `desim.engine.moves` —
//!   about four per pop on the packet simulator's 100k-router scenario,
//!   where a binary heap sifted through ~19 levels at ~600k pending.
//!   Ties pop FIFO by construction, with no sequence numbers. A push below
//!   the last popped time panics.
//! * [`CalendarQueue`] — Brown's calendar queue. Its `push` and `pop` are
//!   amortized `O(1)` only while event times spread evenly enough for its
//!   bucket-width estimate, as in a hold loop started from uniform timer
//!   phases; but `peek_time` scans every bucket, so a caller that peeks
//!   once per event (as `NetSim::run_until` does) pays `O(buckets)` per
//!   event. On the packet simulator's 100k-router scenario, whose
//!   synchronized start packs 100k timers into one millisecond, it ran
//!   more than 20× slower than a binary heap (2-vCPU host). Kept only for
//!   routebench's `desim.calendar.holds_per_s` probe.
//!
//! ## Example
//!
//! ```
//! use routesync_desim::{Duration, Engine, SimTime};
//!
//! // Count ticks of a periodic timer.
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Tick }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_secs(1), Ev::Tick);
//! let mut ticks = 0u32;
//! while let Some((t, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Tick => {
//!             ticks += 1;
//!             if ticks < 10 {
//!                 engine.schedule(t + Duration::from_secs(1), Ev::Tick);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(ticks, 10);
//! assert_eq!(engine.now(), SimTime::from_secs(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod radix;
pub mod scheduler;
pub mod time;
pub mod token;

pub use calendar::CalendarQueue;
pub use engine::{Engine, RunOutcome};
pub use radix::RadixQueue;
pub use scheduler::Scheduler;
pub use time::{Duration, SimTime};
pub use token::{TokenGen, TokenSlab};
