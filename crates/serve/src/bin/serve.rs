//! The `serve` binary: the attribution service on a TCP port.
//!
//! ```text
//! serve [--listen ADDR] [--workers N] [--stride CYCLES]
//!       [--checkpoint-root DIR] [--checkpoint-every CYCLES] [--keep N]
//! ```
//!
//! On startup the server resumes every tenant checkpointed under the
//! checkpoint root (if any), then prints a single NDJSON ready line to
//! stdout — `{"ready":true,"addr":"<ip:port>","resumed":[...],
//! "failed":[{"tenant":...,"error":...}]}` — so a parent process can
//! bind port 0 and learn the actual address. A tenant whose checkpoints
//! cannot be resumed is listed under `failed` with the reason; the
//! others resume.
//!
//! SIGINT/SIGTERM trigger a graceful drain: in-flight strides finish,
//! every unfinished tenant writes a final checkpoint, and the process
//! exits 0. Restarting with the same `--checkpoint-root` resumes every
//! tenant bit-identically (the simulator's determinism contract).

use ddpm_serve::{Server, ServerConfig};
use serde_json::json;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    listen: String,
    cfg: ServerConfig,
}

fn usage() -> &'static str {
    "usage: serve [--listen ADDR] [--workers N] [--stride CYCLES]\n\
     \x20             [--checkpoint-root DIR] [--checkpoint-every CYCLES] [--keep N]\n\
     \n\
     Hosts the ddpm attribution service: NDJSON verbs tenant.create,\n\
     tenant.inject, tenant.step, tenant.identify, tenant.stats,\n\
     tenant.snapshot, tenant.subscribe, tenant.outcome, tenant.destroy,\n\
     server.info, server.drain. SIGINT drains (checkpoints every live\n\
     tenant) and exits; restart with the same --checkpoint-root to\n\
     resume. See DESIGN.md §13 and EXPERIMENTS.md E-SERVE."
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        listen: "127.0.0.1:4650".into(),
        cfg: ServerConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} needs a value\n\n{}", usage()))
        };
        match arg.as_str() {
            "--listen" => cli.listen = value("--listen")?,
            "--workers" => {
                cli.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--stride" => {
                cli.cfg.stride = value("--stride")?
                    .parse()
                    .map_err(|e| format!("--stride: {e}"))?;
            }
            "--checkpoint-root" => {
                cli.cfg.checkpoint_root = Some(PathBuf::from(value("--checkpoint-root")?));
            }
            "--checkpoint-every" => {
                cli.cfg.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--keep" => {
                cli.cfg.keep = value("--keep")?
                    .parse()
                    .map_err(|e| format!("--keep: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    Ok(cli)
}

fn run() -> Result<(), String> {
    let cli = parse_args()?;
    let listener = TcpListener::bind(&cli.listen)
        .map_err(|e| format!("binding {}: {e}", cli.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let server = Server::new(cli.cfg);
    let found = server.resume_tenants()?;
    // The ready line is machine-readable on purpose: parents bind
    // port 0 and need the real address; the smoke harness also learns
    // which tenants a restart recovered.
    println!(
        "{}",
        json!({
            "ready": true,
            "addr": addr.to_string(),
            "resumed": found.resumed.iter().map(|n| json!(n.as_str())).collect::<Vec<_>>(),
            "failed": found
                .failed
                .iter()
                .map(|(n, e)| json!({"tenant": n.as_str(), "error": e.as_str()}))
                .collect::<Vec<_>>(),
        })
    );
    // Cooperative shutdown: the same SIGINT/SIGTERM flag the
    // checkpointing runner uses, polled by the accept loop.
    ddpm_checkpoint::interrupt::install();
    server.serve(&listener, &ddpm_checkpoint::interrupt::requested)?;
    eprintln!("serve: draining");
    server.drain()?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}
