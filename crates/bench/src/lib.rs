//! # routesync-bench — experiment harness
//!
//! One regenerator per table/figure of Floyd & Jacobson (SIGCOMM '93), plus
//! the ablations called out in `DESIGN.md`. The `experiments` binary
//! (`cargo run --release -p routesync-bench --bin experiments -- all`)
//! writes a CSV per figure under `results/` and prints an ASCII rendering
//! plus a shape check against the paper's claims.
//!
//! Criterion performance benchmarks live in `benches/`.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod extensions;
pub mod fault_experiments;
pub mod fig_core;
pub mod fig_markov;
pub mod fig_measure;
pub mod phenomena_ext;

pub use common::{Config, Outcome};

/// An experiment's regenerator.
pub type Experiment = fn(&Config) -> Outcome;

/// Every experiment, in paper order: its id and its regenerator.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig1", fig_measure::fig1),
    ("fig2", fig_measure::fig2),
    ("fig3", fig_measure::fig3),
    ("fig4", fig_core::fig4),
    ("fig5", fig_core::fig5),
    ("fig6", fig_core::fig6),
    ("fig7", fig_core::fig7),
    ("fig8", fig_core::fig8),
    ("fig9", fig_markov::fig9),
    ("fig10", fig_markov::fig10),
    ("fig11", fig_markov::fig11),
    ("fig12", fig_markov::fig12),
    ("fig13", fig_markov::fig13),
    ("fig14", fig_markov::fig14),
    ("fig15", fig_markov::fig15),
    ("ablation_reset_policy", ablations::reset_policy),
    ("ablation_jitter_policy", ablations::jitter_policy),
    ("ablation_forwarding", ablations::forwarding),
    ("ext_tcp", extensions::tcp_windows),
    ("ext_client_server", extensions::client_server),
    ("ext_clock", extensions::external_clock),
    ("ext_fixed_periods", extensions::fixed_periods),
    ("ext_stationary", extensions::stationary),
    ("ext_mesh", extensions::mesh),
    ("ext_flap", extensions::flap_storm),
    ("ext_incremental", extensions::incremental),
    ("ext_resync", fault_experiments::resync),
    ("ext_flap_sync", fault_experiments::flap_sync),
    ("ext_cascade", phenomena_ext::cascade),
    ("ext_two_type", phenomena_ext::two_type),
    ("ext_pulse", phenomena_ext::pulse),
];
