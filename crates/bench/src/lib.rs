//! The experiment harness: regenerates every table and figure of the
//! paper plus the in-text quantitative claims.
//!
//! Each `fig*` / `table*` / `exp_*` module exposes `run() -> Report`;
//! the `report` binary prints them (`cargo run -p ddpm-bench --bin
//! report -- all`). EXPERIMENTS.md records paper-vs-measured for each.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`tables`] | Tables 1–3 (scheme scalability) |
//! | [`fig1`] | Fig. 1 (topology properties) |
//! | [`fig2`] | Fig. 2 (routing under faults) |
//! | [`fig3`] | Fig. 3 (marking worked examples) |
//! | [`exp_ppm_convergence`] | §2/§4.2 convergence bound |
//! | [`exp_ambiguity`] | §4.2 XOR/bit-difference ambiguity |
//! | [`exp_dpm`] | §4.3 DPM signature instability |
//! | [`exp_identification`] | §5 single-packet identification |
//! | [`exp_end_to_end`] | §1/§2 detect → identify → block pipeline |
//! | [`exp_compromised`] | §4.1/§6.2 one compromised switch vs. authenticated DDPM |
//! | [`exp_defenses`] | §2 defence matrix: attacker profiles × defences |
//! | [`exp_indirect`] | §6.3 indirect networks (butterfly, irregular) |
//! | [`exp_flooding_traceback`] | §2 controlled-flooding traceback vs. DDPM |
//! | [`exp_ablation`] | misroute budget, buffer depth, selection policy, codec mode |
//! | [`exp_bakeoff`] | cross-scheme plugin bake-off (Tables 1–3, measured) |
//! | [`exp_resilience`] | §4.1 attribution under dynamic fault churn |
//! | [`exp_soak`] | liveness/invariant chaos soak + failure replay |
//! | [`exp_adversarial`] | §4.1/§6.2 Byzantine grid: schemes × behaviors × compromised switches |
//! | [`exp_service_load`] | E-SERVE: resident multi-tenant service, ingest + online identify |
//! | [`exp_scale`] | E-SCALE: Table 3 maxima end to end — wave-staged floods, bounded memory |
//!
//! E-ADV, E-BAKEOFF, E-RESIL and the soak are scenario grids: each
//! cell is a scenario JSON value run through [`grid`], and each report
//! row carries the cell that reproduces it.

pub mod exp_ablation;
pub mod exp_adversarial;
pub mod exp_ambiguity;
pub mod exp_bakeoff;
pub mod exp_compromised;
pub mod exp_defenses;
pub mod exp_dpm;
pub mod exp_end_to_end;
pub mod exp_flooding_traceback;
pub mod exp_identification;
pub mod exp_indirect;
pub mod exp_ppm_convergence;
pub mod exp_resilience;
pub mod exp_scale;
pub mod exp_service_load;
pub mod exp_soak;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod grid;
pub mod tables;
pub mod util;

pub use util::{Report, RunCtx, TextTable};

/// An experiment entry: its key and runner. Every runner takes the
/// shared [`RunCtx`] (seed override, quick mode, trace directory).
pub type Experiment = (&'static str, fn(&RunCtx) -> Report);

/// Every experiment, in paper order: `(key, runner)`.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("fig1", fig1::run),
        ("fig2", fig2::run),
        ("fig3a", fig3::run_fig3a),
        ("fig3b", fig3::run_fig3b),
        ("fig3c", fig3::run_fig3c),
        ("ppm-conv", exp_ppm_convergence::run),
        ("ambiguity", exp_ambiguity::run),
        ("dpm", exp_dpm::run),
        ("ident", exp_identification::run),
        ("e2e", exp_end_to_end::run),
        ("compromised", exp_compromised::run),
        ("defenses", exp_defenses::run_experiment),
        ("indirect", exp_indirect::run),
        ("flooding", exp_flooding_traceback::run),
        ("ablation", exp_ablation::run),
        ("bakeoff", exp_bakeoff::run),
        ("resilience", exp_resilience::run),
        ("soak", exp_soak::run),
        ("adversarial", exp_adversarial::run),
        ("service_load", exp_service_load::run),
        ("scale", exp_scale::run),
    ]
}
