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

/// Every experiment id, in paper order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation_reset_policy",
    "ablation_jitter_policy",
    "ablation_forwarding",
    "ext_tcp",
    "ext_client_server",
    "ext_clock",
    "ext_fixed_periods",
    "ext_stationary",
    "ext_mesh",
    "ext_flap",
    "ext_incremental",
    "ext_resync",
    "ext_flap_sync",
    "ext_cascade",
    "ext_two_type",
    "ext_pulse",
];

/// Run one experiment by id.
pub fn run(id: &str, cfg: &Config) -> Outcome {
    match id {
        "fig1" => fig_measure::fig1(cfg),
        "fig2" => fig_measure::fig2(cfg),
        "fig3" => fig_measure::fig3(cfg),
        "fig4" => fig_core::fig4(cfg),
        "fig5" => fig_core::fig5(cfg),
        "fig6" => fig_core::fig6(cfg),
        "fig7" => fig_core::fig7(cfg),
        "fig8" => fig_core::fig8(cfg),
        "fig9" => fig_markov::fig9(cfg),
        "fig10" => fig_markov::fig10(cfg),
        "fig11" => fig_markov::fig11(cfg),
        "fig12" => fig_markov::fig12(cfg),
        "fig13" => fig_markov::fig13(cfg),
        "fig14" => fig_markov::fig14(cfg),
        "fig15" => fig_markov::fig15(cfg),
        "ablation_reset_policy" => ablations::reset_policy(cfg),
        "ablation_jitter_policy" => ablations::jitter_policy(cfg),
        "ablation_forwarding" => ablations::forwarding(cfg),
        "ext_tcp" => extensions::tcp_windows(cfg),
        "ext_client_server" => extensions::client_server(cfg),
        "ext_clock" => extensions::external_clock(cfg),
        "ext_fixed_periods" => extensions::fixed_periods(cfg),
        "ext_stationary" => extensions::stationary(cfg),
        "ext_mesh" => extensions::mesh(cfg),
        "ext_flap" => extensions::flap_storm(cfg),
        "ext_incremental" => extensions::incremental(cfg),
        "ext_resync" => fault_experiments::resync(cfg),
        "ext_flap_sync" => fault_experiments::flap_sync(cfg),
        "ext_cascade" => phenomena_ext::cascade(cfg),
        "ext_two_type" => phenomena_ext::two_type(cfg),
        "ext_pulse" => phenomena_ext::pulse(cfg),
        other => panic!("unknown experiment id {other:?} (see routesync_bench::ALL)"),
    }
}
