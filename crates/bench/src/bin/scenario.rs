//! Declarative scenario runner.
//!
//! ```text
//! cargo run --release -p ddpm-bench --bin scenario -- scenarios/syn_flood_torus.json
//! cargo run --release -p ddpm-bench --bin scenario -- --json out.json config.json
//! cargo run --release -p ddpm-bench --bin scenario -- \
//!     --checkpoint-every 500 --checkpoint-dir target/ckpt config.json
//! cargo run --release -p ddpm-bench --bin scenario -- --resume target/ckpt
//! ```
//!
//! Reads a JSON [`ddpm_serve::scenario::ScenarioConfig`], runs the
//! simulation, prints the summary (and, for an attack scenario, the
//! attack sources the `"scheme"` plugin's victim-side collector names),
//! optionally writing the machine-readable result.
//!
//! `--checkpoint-every`/`--checkpoint-dir` enable (or override the
//! scenario file's `"checkpoint"` block's) crash-consistent
//! checkpointing; `--resume DIR` restores the newest usable checkpoint
//! in DIR and runs the scenario to completion, bit-identical to the
//! uninterrupted run.

use ddpm_serve::scenario::{
    resume_scenario, run_scenario_with_source, ScenarioConfig, ScenarioOutcome,
};
use ddpm_sim::CheckpointConfig;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: scenario [--json OUT.json] \
                     [--checkpoint-every N] [--checkpoint-dir DIR] CONFIG.json\n\
                     \x20      scenario [--json OUT.json] --resume DIR";

fn finish(out: ScenarioOutcome, json_out: Option<String>) -> ExitCode {
    print!("{}", out.text);
    if let Some(dest) = json_out {
        if let Err(e) = ddpm_bench::util::write_json(Path::new(&dest), &out.json) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_out: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut ckpt_every: Option<u64> = None;
    let mut ckpt_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = it.next(),
            "--checkpoint-every" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => ckpt_every = Some(n),
                _ => {
                    eprintln!("--checkpoint-every wants a positive cycle count");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-dir" => ckpt_dir = it.next(),
            "--resume" => resume_dir = it.next(),
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => config_path = Some(other.to_string()),
        }
    }

    if let Some(dir) = resume_dir {
        if config_path.is_some() {
            eprintln!("--resume replays the checkpoint's embedded config; drop CONFIG.json");
            return ExitCode::FAILURE;
        }
        return match resume_scenario(Path::new(&dir)) {
            Ok(out) => finish(out, json_out),
            Err(msg) => {
                eprintln!("resume failed: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(path) = config_path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg: ScenarioConfig = match serde_json::from_str(&raw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid config {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // CLI checkpoint flags layer over the scenario file's block: either
    // flag overrides that field, and `--checkpoint-every` alone enables
    // checkpointing into `--checkpoint-dir` or a default directory.
    cfg.checkpoint = match (cfg.checkpoint.take(), ckpt_every, ckpt_dir) {
        (Some(ck), every, dir) => Some(CheckpointConfig {
            every: every.unwrap_or(ck.every),
            dir: dir.map_or(ck.dir, Into::into),
            ..ck
        }),
        (None, Some(every), dir) => Some(CheckpointConfig::new(
            every,
            dir.unwrap_or_else(|| "target/checkpoints".to_string()),
        )),
        (None, None, Some(_)) => {
            eprintln!("--checkpoint-dir without a cadence: add --checkpoint-every N");
            return ExitCode::FAILURE;
        }
        (None, None, None) => None,
    };
    match run_scenario_with_source(&cfg, &raw) {
        Ok(out) => finish(out, json_out),
        Err(msg) => {
            eprintln!("scenario failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
