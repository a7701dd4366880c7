//! # routesync-markov — the Markov-chain model of cluster dynamics
//!
//! Section 5 of Floyd & Jacobson models the Periodic Messages system as a
//! birth-death Markov chain whose state is the size of the largest cluster
//! in a round of `N` routing messages. The transition probabilities are
//! closed-form:
//!
//! * **Break-up** (Eq. 1): the head router leaves a cluster of `i` when the
//!   gap between the first two of `i` uniform timer draws exceeds `Tc`:
//!   `p_{i,i−1} = (1 − Tc/(2·Tr))^{i−1}` (requires `Tr > Tc/2`; below that a
//!   cluster can never shed members).
//! * **Growth** (Eq. 2): a cluster of `i` drifts `(i−1)·Tc − Tr·(i−1)/(i+1)`
//!   per round towards the next lone router, whose distance ahead is
//!   exponential with mean `Tp/(N−i+1)`:
//!   `p_{i,i+1} = 1 − exp(−((N−i+1)/Tp)·((i−1)·Tc − Tr·(i−1)/(i+1)))`.
//!
//! From these the paper derives `f(i)` — the expected number of rounds to
//! first reach cluster size `i` from an unsynchronized start — and `g(i)` —
//! the expected rounds to fall back to size `i` from full synchronization —
//! and reads off the **phase transition**: the fraction of time the system
//! is unsynchronized, `f(N)/(f(N)+g(1))`, flips abruptly from ≈0 to ≈1 as
//! `Tr` crosses a threshold (Figure 14), and back as `N` grows (Figure 15).
//!
//! This crate implements:
//!
//! * [`BirthDeath`] — exact first-passage times, stationary distribution,
//!   and Monte-Carlo simulation for any birth-death chain (the textbook
//!   recursions, used as ground truth).
//! * [`PeriodicChain`] — the paper's chain: Eq. 1/Eq. 2 probabilities,
//!   `f(i)`, `g(i)`, the unsynchronized fraction, randomization-region
//!   classification (Figure 12's low/moderate/high), and a guideline solver
//!   for the minimum `Tr` that keeps a network predominately
//!   unsynchronized.
//! * [`paper`] — the recursion exactly as printed in the paper (Eqs. 3-6
//!   with the `t_{j,j±1}` terms), kept verbatim for comparison; see that
//!   module's docs for the known discrepancy in the printed `t` formula.
//! * [`meanfield`] — closed-form limits for the related-literature models
//!   in `routesync-phenomena` (cascade rollback, two-type clocks, pulse
//!   synchronization), which the conformance oracles check ensemble
//!   simulations against.
//!
//! The free parameter `f(2)` (equivalently `p_{1,2}`) is *not* given in
//! closed form by the paper ("based both on simulations and on an
//! approximate analysis that is not given here"); use the paper's reference
//! value 19 rounds, your own estimate, or
//! [`routesync_core::experiment::estimate_f2_rounds`] (a Monte Carlo
//! estimate over an explicit seed list and thread count).

//! ## Example
//!
//! ```
//! use routesync_markov::{ChainParams, PeriodicChain};
//!
//! // The paper's reference system, with the recommended jitter applied.
//! let params = ChainParams::paper_reference().with_tr(60.5); // Tr = Tp/2
//! let chain = PeriodicChain::new(params);
//! assert!(chain.fraction_unsynchronized(19.0) > 0.999);
//!
//! // And with the (too small) jitter the 1993 Internet actually had:
//! let chain = PeriodicChain::new(ChainParams::paper_reference());
//! assert!(chain.fraction_unsynchronized(19.0) < 0.001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod birthdeath;
pub mod chain;
pub mod meanfield;
pub mod paper;

pub use birthdeath::BirthDeath;
pub use chain::{ChainParams, PeriodicChain, Region};
pub use meanfield::{
    cascade_sync_rounds, pulse_convergence_bound, two_type_critical_rate, two_type_growth_rate,
};
