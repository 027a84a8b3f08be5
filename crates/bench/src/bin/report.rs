//! The experiment driver.
//!
//! ```text
//! cargo run --release -p ddpm-bench --bin report -- all
//! cargo run --release -p ddpm-bench --bin report -- table3 fig2 ident
//! cargo run --release -p ddpm-bench --bin report -- --json results ident
//! cargo run --release -p ddpm-bench --bin report -- --trace traces ident
//! cargo run --release -p ddpm-bench --bin report -- --list
//! ```
//!
//! Each experiment prints its paper-style table; `--json DIR` writes
//! machine-readable results to `DIR/<key>.json`, `--trace DIR` makes
//! simulator-backed experiments write NDJSON packet traces to
//! `DIR/<key>.ndjson`.

use ddpm_bench::{all_experiments, RunCtx};
use ddpm_sim::Engine;
use std::path::PathBuf;
use std::process::ExitCode;

/// What parsing one flag does to the accumulating CLI state.
enum Apply {
    JsonDir,
    TraceDir,
    Seed,
    Threads,
    Quick,
    SoakSecs,
    SoakDir,
    Engine,
    Shards,
    CheckpointEvery,
    CheckpointDir,
    List,
    Help,
}

/// One CLI flag: spelling, whether it consumes a value, help text.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
    apply: Apply,
}

/// The whole CLI, declaratively. `usage()` and the parse loop both walk
/// this table, so a new flag is one new row — not a new match arm plus
/// hand-maintained help text.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--json",
        value: Some("DIR"),
        help: "write machine-readable results to DIR/<key>.json",
        apply: Apply::JsonDir,
    },
    Flag {
        name: "--trace",
        value: Some("DIR"),
        help: "write NDJSON packet traces to DIR/<key>.ndjson",
        apply: Apply::TraceDir,
    },
    Flag {
        name: "--seed",
        value: Some("N"),
        help: "override every experiment's built-in RNG seed",
        apply: Apply::Seed,
    },
    Flag {
        name: "--threads",
        value: Some("N"),
        help: "cap worker threads for parallel sweeps (default: all cores)",
        apply: Apply::Threads,
    },
    Flag {
        name: "--quick",
        value: None,
        help: "shrink workloads ~8x (smoke-test mode)",
        apply: Apply::Quick,
    },
    Flag {
        name: "--soak-secs",
        value: Some("N"),
        help: "wall-clock budget for the `soak` experiment, in seconds",
        apply: Apply::SoakSecs,
    },
    Flag {
        name: "--soak-dir",
        value: Some("DIR"),
        help: "where `soak` writes repro bundles (default target/soak-bundles)",
        apply: Apply::SoakDir,
    },
    Flag {
        name: "--engine",
        value: Some("NAME"),
        help: "pin the execution engine: serial or sharded (see --shards)",
        apply: Apply::Engine,
    },
    Flag {
        name: "--shards",
        value: Some("N"),
        help: "spatial shard count for the sharded engine (implies --engine sharded)",
        apply: Apply::Shards,
    },
    Flag {
        name: "--checkpoint-every",
        value: Some("N"),
        help: "checkpoint cadence in cycles for `resume` (overrides the stored one)",
        apply: Apply::CheckpointEvery,
    },
    Flag {
        name: "--checkpoint-dir",
        value: Some("DIR"),
        help: "default checkpoint directory for `resume` (positional DIR wins)",
        apply: Apply::CheckpointDir,
    },
    Flag {
        name: "--list",
        value: None,
        help: "print the experiment keys and exit",
        apply: Apply::List,
    },
    Flag {
        name: "--help",
        value: None,
        help: "print this help",
        apply: Apply::Help,
    },
];

fn usage() -> String {
    let mut s = String::from(
        "usage: report [flags] <experiment>... | all\n\
         \x20      report [flags] replay <bundle.json>\n\
         \x20      report [flags] resume [<checkpoint-dir>]\n\nflags:\n",
    );
    for f in FLAGS {
        let head = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_string(),
        };
        s.push_str(&format!("  {head:<14} {}\n", f.help));
    }
    let keys: Vec<&str> = all_experiments().iter().map(|(k, _)| *k).collect();
    s.push_str(&format!("\nexperiments: {}", keys.join(" ")));
    s
}

struct Cli {
    json_dir: Option<PathBuf>,
    ctx: RunCtx,
    threads: Option<usize>,
    engine_name: Option<String>,
    shards: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    wanted: Vec<String>,
}

/// Parses argv. `Ok(None)` means an informational flag (`--list`,
/// `--help`) already printed its output.
fn parse(args: Vec<String>) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        json_dir: None,
        ctx: RunCtx::default(),
        threads: None,
        engine_name: None,
        shards: None,
        checkpoint_every: None,
        checkpoint_dir: None,
        wanted: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let Some(flag) = FLAGS
            .iter()
            .find(|f| f.name == a || (a == "-h" && f.name == "--help"))
        else {
            if a.starts_with('-') {
                return Err(format!("unknown flag `{a}`"));
            }
            cli.wanted.push(a);
            continue;
        };
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{} needs a {}", flag.name, flag.value.unwrap_or("value")))
        };
        match flag.apply {
            Apply::JsonDir => cli.json_dir = Some(PathBuf::from(value()?)),
            Apply::TraceDir => cli.ctx.trace_dir = Some(PathBuf::from(value()?)),
            Apply::Seed => {
                let v = value()?;
                cli.ctx.seed = Some(v.parse().map_err(|_| format!("bad --seed value `{v}`"))?);
            }
            Apply::Threads => {
                let v = value()?;
                cli.threads = Some(v.parse().map_err(|_| format!("bad --threads value `{v}`"))?);
            }
            Apply::Quick => cli.ctx.quick = true,
            Apply::SoakSecs => {
                let v = value()?;
                cli.ctx.soak_secs =
                    Some(v.parse().map_err(|_| format!("bad --soak-secs value `{v}`"))?);
            }
            Apply::SoakDir => cli.ctx.soak_dir = Some(PathBuf::from(value()?)),
            Apply::Engine => cli.engine_name = Some(value()?),
            Apply::Shards => {
                let v = value()?;
                cli.shards = Some(v.parse().map_err(|_| format!("bad --shards value `{v}`"))?);
            }
            Apply::CheckpointEvery => {
                let v = value()?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value `{v}`"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
                cli.checkpoint_every = Some(n);
            }
            Apply::CheckpointDir => cli.checkpoint_dir = Some(PathBuf::from(value()?)),
            Apply::List => {
                for (k, _) in all_experiments() {
                    println!("{k}");
                }
                return Ok(None);
            }
            Apply::Help => {
                println!("{}", usage());
                return Ok(None);
            }
        }
    }
    // `--engine`/`--shards` compose in either order; a bare `--shards N`
    // (N > 1) is an unambiguous ask for the sharded engine.
    cli.ctx.engine = match (&cli.engine_name, cli.shards) {
        (Some(name), shards) => Some(Engine::parse(name, shards.unwrap_or(1).max(1))?),
        (None, Some(n)) if n > 1 => Some(Engine::Sharded { shards: n }),
        _ => None,
    };
    if cli.wanted.is_empty() {
        return Err("no experiments named".into());
    }
    Ok(Some(cli))
}

fn main() -> ExitCode {
    let mut cli = match parse(std::env::args().skip(1).collect()) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = cli.threads {
        // The sweeps parallelise through rayon; its pool sizes itself
        // from this variable at spawn time.
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    // `replay <bundle>` is a positional subcommand, not an experiment:
    // it re-runs a captured soak failure and verifies it reproduces.
    if cli.wanted.first().map(String::as_str) == Some("replay") {
        let Some(bundle) = cli.wanted.get(1) else {
            eprintln!("replay needs a bundle path\n\n{}", usage());
            return ExitCode::FAILURE;
        };
        return match ddpm_bench::exp_soak::replay(std::path::Path::new(bundle)) {
            Ok(report) => {
                println!("{}", report.render());
                if report.json["reproduced"].as_bool() == Some(true) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    // `resume <dir>` restores the newest usable checkpoint (written by a
    // `"checkpoint"`-enabled scenario run that was killed or interrupted)
    // and runs the scenario to completion — bit-identical, digest
    // included, to the run that was never interrupted.
    if cli.wanted.first().map(String::as_str) == Some("resume") {
        let dir = match (cli.wanted.get(1), &cli.checkpoint_dir) {
            (Some(d), _) => PathBuf::from(d),
            (None, Some(d)) => d.clone(),
            (None, None) => {
                eprintln!("resume needs a checkpoint dir (positional or --checkpoint-dir)\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        return match ddpm_serve::scenario::resume_scenario_with(&dir, cli.checkpoint_every)
        {
            Ok(out) => {
                print!("{}", out.text);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("resume failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run_all = cli.wanted.iter().any(|w| w == "all");
    let experiments = all_experiments();
    let known: Vec<&str> = experiments.iter().map(|(k, _)| *k).collect();
    // Dash/underscore leniency: `service-load` finds `service_load`
    // (exact keys like `ppm-conv` always win).
    for w in &mut cli.wanted {
        if !known.contains(&w.as_str()) {
            let swapped = w.replace('-', "_");
            if known.contains(&swapped.as_str()) {
                *w = swapped;
            }
        }
    }
    for w in &cli.wanted {
        if w != "all" && !known.contains(&w.as_str()) {
            eprintln!("unknown experiment `{w}`\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    for dir in [&cli.json_dir, &cli.ctx.trace_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut failed = false;
    for (key, runner) in experiments {
        if !run_all && !cli.wanted.iter().any(|w| w == key) {
            continue;
        }
        let report = runner(&cli.ctx);
        println!("{}", report.render());
        // The chaos soak is a pass/fail check, not a measurement: any
        // invariant violation must fail the invocation (CI keys off the
        // exit code and uploads the repro bundles it names).
        if key == "soak" && report.json["violations"].as_u64().unwrap_or(0) > 0 {
            failed = true;
        }
        if let Some(dir) = &cli.json_dir {
            let path = dir.join(format!("{key}.json"));
            if let Err(e) = ddpm_bench::util::write_json(&path, &report.json) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
