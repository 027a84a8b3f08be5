//! E-SERVE — multi-tenant service load: aggregate ingest throughput
//! with online `identify()` answered concurrently.
//!
//! For each tenant count the experiment boots an in-process
//! [`ddpm_serve::Server`] on a loopback listener, creates that many
//! independently-seeded autorun tenants over the wire, and lets the
//! worker pool advance them while a query thread round-robins
//! `tenant.identify` across the fleet until every tenant reaches
//! quiescence. Two rates come out of the same wall-clock window:
//!
//! * **ingest pps** — packets the fleet injected, summed across
//!   tenants, over the window (how much simulation the service
//!   sustains);
//! * **identify qps** — online attribution queries answered over the
//!   same window (the queries contend with the strides for each
//!   tenant's lock, so this is the honest serving rate, not an idle
//!   one).
//!
//! The acceptance claim this experiment carries: at four or more
//! concurrent tenants the service still ingests while `identify`
//! answers online — both rates stay positive and every query returns
//! the scenario's true zombie set.
//!
//! Rows also land in `BENCH_sim_throughput.json` as `engine:
//! "serve-<N>t"` entries (merged, so the criterion bench's rows
//! survive; `--quick` rows go to the copy under `target/` instead),
//! and the full payload goes to `results/service_load.json` via
//! `report -- --json results service-load`.

use crate::util::{fnum, merge_bench_rows, Report, RunCtx, TextTable};
use ddpm_serve::{ServeClient, Server, ServerConfig};
use serde_json::{json, Value};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tenant counts swept; the ≥4 row carries the acceptance claim.
const TENANT_COUNTS: [usize; 3] = [1, 4, 8];
/// Worker threads advancing the fleet in every cell.
const WORKERS: usize = 4;
/// Stride bound per worker pass.
const STRIDE: u64 = 4096;

/// One cell's measurements.
struct Cell {
    tenants: usize,
    wall_secs: f64,
    packets: u64,
    ingest_pps: f64,
    queries: u64,
    identify_qps: f64,
    all_queries_named_zombies: bool,
}

/// The per-tenant scenario: a torus flood sized so a cell runs long
/// enough to measure, seeded per tenant index.
fn tenant_scenario(ctx: &RunCtx, seed: u64) -> Value {
    json!({
        "topology": {"kind": "torus", "dims": [6, 6]},
        "router": "fully_adaptive",
        "scheme": "ddpm",
        "seed": seed,
        "background_interval": 20,
        "horizon": ctx.scaled(40_000),
        "attack": {
            "kind": "udp_flood",
            "zombies": [3, 22], "victim": 14,
            "packets_per_zombie": ctx.scaled32(1600), "interval": 12
        },
    })
}

/// Runs one tenant-count cell: boot, create, query-while-ingesting,
/// measure, drain.
///
/// # Errors
/// Transport or server failures, as human-readable text.
fn run_cell(ctx: &RunCtx, tenants: usize, base_seed: u64) -> Result<Cell, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let serve_stop = Arc::clone(&stop);
    let serve_thread = std::thread::spawn(move || -> Result<(), String> {
        let server = Server::new(ServerConfig {
            workers: WORKERS,
            stride: STRIDE,
            ..ServerConfig::default()
        });
        server.serve(&listener, &|| serve_stop.load(Ordering::SeqCst))?;
        server.drain()
    });

    let names: Vec<String> = (0..tenants).map(|i| format!("t{i}")).collect();
    let mut client = ServeClient::connect(&addr)?;
    let t0 = Instant::now();
    for (i, name) in names.iter().enumerate() {
        client.call(
            "tenant.create",
            &json!({"name": name.as_str(), "autorun": true,
                    "scenario": tenant_scenario(ctx, base_seed + i as u64)}),
        )?;
    }

    // Query thread: round-robin online identify across the fleet while
    // the worker pool ingests, until told the fleet is done.
    let done = Arc::new(AtomicBool::new(false));
    let qdone = Arc::clone(&done);
    let qaddr = addr.clone();
    let qnames = names.clone();
    let query_thread = std::thread::spawn(move || -> Result<(u64, bool), String> {
        let mut client = ServeClient::connect(&qaddr)?;
        let mut queries = 0u64;
        let mut all_named = true;
        while !qdone.load(Ordering::SeqCst) {
            for name in &qnames {
                let a = client.call("tenant.identify", &json!({"tenant": name.as_str()}))?;
                queries += 1;
                // Once anything has been observed, the candidates must
                // be exactly the scenario's true zombies.
                if a["observed"].as_u64().unwrap_or(0) > 0 {
                    let candidates: Vec<u64> = a["candidates"]
                        .as_array()
                        .map(|c| c.iter().filter_map(Value::as_u64).collect())
                        .unwrap_or_default();
                    all_named &= candidates == [3, 22];
                }
            }
        }
        Ok((queries, all_named))
    });

    for name in &names {
        client.wait_done(name, 20, 3000)?;
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::SeqCst);
    let (queries, all_named) = query_thread
        .join()
        .map_err(|_| "query thread panicked".to_string())??;

    let mut packets = 0u64;
    for name in &names {
        let stats = client.call("tenant.stats", &json!({"tenant": name.as_str()}))?;
        packets += stats["benign"]["injected"].as_u64().unwrap_or(0)
            + stats["attack"]["injected"].as_u64().unwrap_or(0);
    }
    stop.store(true, Ordering::SeqCst);
    serve_thread
        .join()
        .map_err(|_| "serve thread panicked".to_string())??;

    Ok(Cell {
        tenants,
        wall_secs,
        packets,
        ingest_pps: packets as f64 / wall_secs,
        queries,
        identify_qps: queries as f64 / wall_secs,
        all_queries_named_zombies: all_named,
    })
}

/// Runs the service-load sweep.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let base_seed = ctx.seed_or(0x5E4E);
    let mut t = TextTable::new(&[
        "tenants",
        "wall (s)",
        "packets",
        "ingest pps",
        "identify queries",
        "identify qps",
        "online attribution",
    ]);
    let mut rows = Vec::new();
    let mut bench_rows = Vec::new();
    let mut sustained_at_4plus = false;
    for tenants in TENANT_COUNTS {
        match run_cell(ctx, tenants, base_seed) {
            Ok(c) => {
                t.row(&[
                    c.tenants.to_string(),
                    fnum(c.wall_secs),
                    c.packets.to_string(),
                    fnum(c.ingest_pps),
                    c.queries.to_string(),
                    fnum(c.identify_qps),
                    if c.all_queries_named_zombies {
                        "exact".into()
                    } else {
                        "WRONG".into()
                    },
                ]);
                if c.tenants >= 4
                    && c.ingest_pps > 0.0
                    && c.queries > 0
                    && c.all_queries_named_zombies
                {
                    sustained_at_4plus = true;
                }
                rows.push(json!({
                    "tenants": c.tenants,
                    "wall_secs": c.wall_secs,
                    "packets": c.packets,
                    "ingest_pps": c.ingest_pps,
                    "identify_queries": c.queries,
                    "identify_qps": c.identify_qps,
                    "online_attribution_exact": c.all_queries_named_zombies,
                }));
                bench_rows.push(json!({
                    "topology": "6x6 torus",
                    "router": "fully_adaptive",
                    "telemetry": "off",
                    "engine": format!("serve-{}t", c.tenants),
                    "packets": c.packets,
                    "packets_per_sec": c.ingest_pps,
                    "identify_qps": c.identify_qps,
                }));
            }
            Err(e) => {
                t.row(&[
                    tenants.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("FAILED: {e}"),
                ]);
                rows.push(json!({"tenants": tenants, "error": e}));
            }
        }
    }
    let mut body = format!(
        "In-process `ddpm-serve` on a loopback listener, {WORKERS} workers, stride \
         {STRIDE}; each tenant an independently seeded 6x6 torus flood (seed base \
         {base_seed:#x}). A query thread round-robins `tenant.identify` while the \
         pool ingests; both rates share one wall-clock window.\n\n{}\n",
        t.render()
    );
    body.push_str(if sustained_at_4plus {
        "PASS: >=4 concurrent tenants sustained ingest while identify answered \
         online with the exact zombie set.\n"
    } else {
        "FAIL: the >=4-tenant cell did not sustain ingest with online identify.\n"
    });

    // Merge the serve-* rows into the shared throughput bench document
    // (the criterion bench's sim rows survive, and vice versa).
    if let Err(e) = merge_bench_rows(
        &ctx.bench_rows_path(),
        "sim_throughput",
        &|r| {
            r["engine"]
                .as_str()
                .is_some_and(|e| e.starts_with("serve"))
        },
        bench_rows,
    ) {
        body.push_str(&format!("(bench rows not merged: {e})\n"));
    }

    Report {
        key: "service_load",
        title: "Service load — resident multi-tenant ingest with online identify".into(),
        body,
        json: json!({
            "seed": base_seed,
            "workers": WORKERS,
            "stride": STRIDE,
            "tenant_counts": TENANT_COUNTS.to_vec(),
            "sustained_at_4plus": sustained_at_4plus,
            "rows": rows,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claim on the quick workload: a 4-tenant fleet
    /// ingests while identify answers online with the exact zombies.
    #[test]
    fn quick_cell_sustains_ingest_with_online_identify() {
        let ctx = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        let cell = run_cell(&ctx, 4, 0x5E4E).expect("cell runs");
        assert_eq!(cell.tenants, 4);
        assert!(cell.packets > 0, "fleet ingested nothing");
        assert!(cell.queries > 0, "no identify answered online");
        assert!(cell.all_queries_named_zombies, "online attribution drifted");
    }
}
