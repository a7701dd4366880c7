//! Cross-model conformance harness for the routesync workspace.
//!
//! The repository models the same system — Floyd & Jacobson's periodic
//! routing messages — at four levels: an event-driven simulator
//! (`routesync-core::PeriodicModel`), an algebraic fast engine
//! (`FastModel`), a packet-level network simulator (`routesync-netsim`),
//! and the paper's Markov-chain analysis (`routesync-markov`). Each pair
//! of levels makes a checkable promise, and this crate is where all of
//! those promises are enforced mechanically:
//!
//! * **differential oracles** — the two abstract engines must agree
//!   trajectory-for-trajectory; the packet simulator's update timing must
//!   obey the abstract timer rules once forwarding effects are disabled;
//! * **analytical oracles** — simulated passage times must land within a
//!   (wide, documented) envelope of the chain's `f`/`g` closed forms on
//!   both sides of the paper's phase transition;
//! * **metamorphic oracles** — thread-count invariance, start-time
//!   translation invariance, monotonicity in the jitter `Tr`, and
//!   empty-fault-plan equivalence.
//!
//! The [`fuzz`](mod@fuzz) module drives these oracles with a deterministic,
//! coverage-guided generator (coverage = `routesync-obs` metrics from the
//! deterministic namespaces; see [`coverage`]), and every failure is
//! shrunk ([`shrink`]) to a one-line `(seed, spec)` reproducer
//! ([`spec::Reproducer`]) that `conformance --replay` re-runs verbatim.
//!
//! Run it as a test suite (`cargo test -p routesync-conformance`) or via
//! the CLI (`routesync conformance --budget-cases 200 --seed 1`).

#![warn(missing_docs)]

pub mod coverage;
pub mod fuzz;
pub mod oracles;
pub mod shrink;
pub mod spec;

pub use fuzz::{fuzz, FuzzConfig, FuzzReport};
pub use spec::{CaseSpec, Defect, FaultOp, Oracle, Reproducer};
