//! `ddpm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. The line before it is the provenance stamp. A failed
//! correctness check makes the exit code 1.

use ddpm_perfbench::gen::{scenarios, FloodShape, Workload};
use ddpm_perfbench::trace::Tracer;
use ddpm_perfbench::{run, stamp, DEFAULT_SEED};
use serde_json::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: ddpm-perfbench --workload <fabric-dor|adaptive-auth|serve-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs: Vec<String> = scenarios(a.workload, a.seed, false)
        .into_iter()
        .map(|s| s.text)
        .collect();
    let params = json!({
        "shape": FloodShape::of(a.workload, false).to_json(),
        "scenarios": inputs,
    });
    println!(
        "{}",
        stamp::stamp(a.workload.name(), a.seed, a.seconds, a.trace, params)
    );
    let tracer = Tracer::new(a.trace);
    let budget = Duration::from_secs(a.seconds);
    let r = match run(a.workload, a.seed, budget, false, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", a.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if a.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.ndjson", a.workload.name(), a.seed));
        match tracer.write_ndjson(&path) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", r.detail());
    println!("{}", r.to_json());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
