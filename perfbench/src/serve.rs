//! The `serve-durable` workload: an in-process `ddpm-serve` on loopback
//! with two workers, stride 4096 and a checkpoint root, hosting four
//! autorun tenants while two client connections run closed loops of
//! `tenant.identify`, round-robin over the tenants; the first connection
//! also drains `tenant.subscribe` once per round.
//!
//! A run repeats whole rounds (boot, create, ingest under queries, every
//! outcome, drain) until its time is spent, and reports the median
//! round for each timed phase. Unlike the simulator's passes, rounds
//! differ by thread scheduling as well as by host interference, so the
//! fastest round measures the luckiest schedule, not the code. Ingest
//! runs from the first `tenant.create` to the last tenant done; identify
//! samples count only within it.

use crate::gen::{FloodShape, Scenario};
use crate::layers::{self, identify_line, with_server, ServeLayer};
use crate::report::Report;
use crate::sim::fits;
use crate::stats::{median, quantile};
use crate::trace::{Ctx, Tracer};
use crate::world::{run_pass, Pass, STRIDE};
use ddpm_serve::{proto, ServeClient, Server, ServerConfig};
use ddpm_telemetry::{shared, NullSink, TelemetryConfig};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client connections generating load.
const CONNECTIONS: usize = 2;
/// Interval between the harness's in-process `tenant.stats` polls.
const POLL: Duration = Duration::from_millis(20);
/// Identify requests per connection in the idle phase after ingest.
const IDLE_REQUESTS: usize = 50;

/// Runs every tenant scenario standalone once, untimed by the
/// end-to-end metrics and split over `CONNECTIONS` threads: the digests
/// the served tenants must match and the hop/packet counts of their
/// ingest.
///
/// # Errors
/// Scenario build failures.
pub fn references(
    scs: &[Scenario],
    shape: &FloodShape,
    tracer: &Tracer,
) -> Result<Vec<Pass>, String> {
    let per_thread = scs.len().div_ceil(CONNECTIONS);
    std::thread::scope(|s| {
        let parts: Vec<_> = scs
            .chunks(per_thread)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|sc| {
                            run_pass(sc, shape, None, tracer, Ctx::default(), &mut |_, _| {})
                                .map(|(pass, _)| pass)
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut out = Vec::new();
        for p in parts {
            out.extend(p.join().expect("reference run panicked")?);
        }
        Ok(out)
    })
}

/// One round's measurements.
struct Round {
    setup: Duration,
    ingest: Duration,
    verdict: Duration,
    identify_ns: Vec<f64>,
    serve: ServeLayer,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// (completion instant, round trip ns) of each identify.
    identify: Vec<(Instant, f64)>,
    /// (completion instant, in-process handle ns), traced runs only.
    handle: Vec<(Instant, f64)>,
    subscribe: Vec<f64>,
    subscribe_bytes: Vec<f64>,
    /// `tenant.outcome` answers, by tenant index.
    outcomes: Vec<(usize, Result<Value, String>)>,
    checks: u64,
    failures: Vec<String>,
}

fn candidates(v: &Value) -> Vec<u64> {
    v["candidates"]
        .as_array()
        .map(|c| c.iter().filter_map(Value::as_u64).collect())
        .unwrap_or_default()
}

/// A closed loop of identify requests, round-robin over `names`, until
/// `stop` (checked before every request); then the outcomes of this
/// connection's share of the tenants.
/// Every answer that has observed attack packets must name exactly the
/// tenant's zombies.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    conn: u64,
    names: &[String],
    zombies: &[Vec<u64>],
    subscribe: bool,
    server: Option<&Server>,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.checks += 1;
            log.failures.push(e);
            return log;
        }
    };
    let mut n = 0u64;
    'rounds: loop {
        for (i, name) in names.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                break 'rounds;
            }
            n += 1;
            let ctx = Ctx::root((conn << 40) | n);
            let (got, t) = tracer.span("serve.wire_identify", ctx, |_| {
                client.tenant_call("tenant.identify", name)
            });
            log.identify.push((Instant::now(), t.as_nanos() as f64));
            log.checks += 1;
            match got {
                Ok(v)
                    if v["observed"].as_u64().unwrap_or(0) > 0 && candidates(&v) != zombies[i] =>
                {
                    log.failures.push(format!(
                        "tenant {name} identified {:?}, zombies are {:?}",
                        candidates(&v),
                        zombies[i]
                    ))
                }
                Ok(_) => {}
                Err(e) => log.failures.push(format!("tenant.identify {name}: {e}")),
            }
            if let Some(server) = server {
                let line = identify_line(n, name);
                let (_, t) =
                    tracer.span("serve.handle_identify", ctx, |_| server.handle_line(&line));
                log.handle.push((Instant::now(), t.as_nanos() as f64));
            }
        }
        if subscribe && !stop.load(Ordering::SeqCst) {
            let ctx = Ctx::root((conn << 40) | n);
            let (got, t) = tracer.span("serve.subscribe", ctx, |_| {
                client.tenant_call("tenant.subscribe", &names[0])
            });
            log.checks += 1;
            match got {
                Ok(v) => {
                    log.subscribe.push(t.as_nanos() as f64);
                    log.subscribe_bytes.push(v.to_string().len() as f64);
                }
                Err(e) => log.failures.push(format!("tenant.subscribe: {e}")),
            }
        }
    }
    for (i, name) in names.iter().enumerate() {
        if i % CONNECTIONS == (conn as usize - 1) % CONNECTIONS {
            log.outcomes
                .push((i, client.tenant_call("tenant.outcome", name)));
        }
    }
    log
}

/// Is `name` done, asked in process?
fn tenant_done(server: &Server, name: &str) -> Result<bool, String> {
    let resp: Value = serde_json::from_str(
        &server.handle_line(&json!({"verb": "tenant.stats", "tenant": name}).to_string()),
    )
    .map_err(|e| e.to_string())?;
    resp["done"]
        .as_bool()
        .ok_or_else(|| format!("tenant.stats {name}: {resp}"))
}

/// One round: boot, create every tenant, ingest under the client
/// loops, collect every outcome, drain.
fn round(
    scs: &[Scenario],
    refs: &[Pass],
    k: usize,
    traced: bool,
    tracer: &Tracer,
    r: &mut Report,
) -> Result<Round, String> {
    let names: Vec<String> = (0..scs.len()).map(|i| format!("t{i}")).collect();
    let zombies: Vec<Vec<u64>> = scs
        .iter()
        .map(|s| s.zombies.iter().map(|&z| u64::from(z)).collect())
        .collect();
    let root = layers::scratch_dir(&format!("serve-{k}"));
    let cfg = ServerConfig {
        workers: 2,
        stride: STRIDE,
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    };
    let boot = Instant::now();
    let result = with_server(cfg, |server, addr| {
        let mut client = ServeClient::connect(addr)?;
        // Workers start on a tenant as soon as it is created, so ingest
        // starts with the first create.
        let ingest_start = Instant::now();
        for (i, (name, sc)) in names.iter().zip(scs).enumerate() {
            let scenario: Value = serde_json::from_str(&sc.text).map_err(|e| e.to_string())?;
            let created = client.call(
                "tenant.create",
                &json!({"name": name.as_str(), "autorun": true, "telemetry": i == 0, "scenario": scenario}),
            );
            r.tally(
                1,
                created.err().map(|e| format!("tenant.create {name}: {e}")),
            );
        }
        let ready = Instant::now();

        let stop = AtomicBool::new(false);
        let (logs, done_at) = std::thread::scope(|s| {
            let loops: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (names, zombies, stop) = (&names, &zombies, &stop);
                    let in_process = traced.then_some(server);
                    s.spawn(move || {
                        client_loop(
                            addr,
                            c as u64 + 1,
                            names,
                            zombies,
                            c == 0,
                            in_process,
                            stop,
                            tracer,
                        )
                    })
                })
                .collect();
            let mut pending: Vec<&String> = names.iter().collect();
            let mut poll_err = None;
            while !pending.is_empty() && poll_err.is_none() {
                std::thread::sleep(POLL);
                let mut still = Vec::new();
                for name in pending {
                    match tenant_done(server, name) {
                        Ok(true) => {}
                        Ok(false) => still.push(name),
                        Err(e) => poll_err = Some(e),
                    }
                }
                pending = still;
            }
            let done_at = Instant::now();
            stop.store(true, Ordering::SeqCst);
            let logs: Vec<ClientLog> = loops
                .into_iter()
                .map(|h| h.join().expect("client loop panicked"))
                .collect();
            match poll_err {
                Some(e) => Err(e),
                None => Ok((logs, done_at)),
            }
        })?;
        let verdict = boot.elapsed();
        for (i, out) in logs.iter().flat_map(|l| &l.outcomes) {
            let (name, want) = (&names[*i], &refs[*i].digest);
            let bad = match out {
                Err(e) => Some(format!("tenant.outcome {name}: {e}")),
                Ok(v) if v["digest"].as_str() != Some(want.as_str()) => Some(format!(
                    "tenant {name} digest {} differs from its standalone run {want}",
                    v["digest"]
                )),
                Ok(v) if candidates(&v["summary"]["attribution"]) != zombies[*i] => Some(format!(
                    "tenant {name} outcome attribution {}",
                    v["summary"]["attribution"]
                )),
                Ok(_) => None,
            };
            r.tally(1, bad);
        }

        // Idle phase (traced runs): the same verbs with nothing ingesting.
        let mut serve = ServeLayer::default();
        if traced {
            for i in 0..IDLE_REQUESTS * CONNECTIONS {
                let name = &names[i % names.len()];
                let line = identify_line(i as u64, name);
                let ctx = Ctx::root((9 << 40) | i as u64);
                let (_, t) = tracer.span("serve.parse", ctx, |_| {
                    std::hint::black_box(proto::parse_request(&line))
                });
                serve.parse.push(t.as_nanos() as f64);
                let (_, t) = tracer.span("serve.handle_identify_idle", ctx, |_| {
                    server.handle_line(&line)
                });
                let handle_idle = t.as_nanos() as f64;
                let (got, t) = tracer.span("serve.wire_identify_idle", ctx, |_| {
                    client.tenant_call("tenant.identify", name)
                });
                serve.record("tenant.identify (idle)", &got);
                serve.wire_overhead.push(t.as_nanos() as f64 - handle_idle);
            }
        }
        Ok((
            ready - boot,
            done_at - ingest_start,
            done_at,
            verdict,
            logs,
            serve,
        ))
    });
    let _ = std::fs::remove_dir_all(&root);
    let (setup, ingest, done_at, verdict, logs, mut serve) = result?;
    let live = |v: &[(Instant, f64)]| -> Vec<f64> {
        v.iter()
            .filter(|(at, _)| *at <= done_at)
            .map(|s| s.1)
            .collect()
    };
    let mut identify_ns = Vec::new();
    for log in logs {
        r.tally(log.checks, log.failures);
        identify_ns.extend(live(&log.identify));
        serve.handle.extend(live(&log.handle));
        serve.subscribe.extend(log.subscribe);
        serve.subscribe_bytes.extend(log.subscribe_bytes);
    }
    Ok(Round {
        setup,
        ingest,
        verdict,
        identify_ns,
        serve,
    })
}

/// Puts the end-to-end metrics of `rounds`.
fn put_end_to_end(r: &mut Report, rounds: &[Round], refs: &[Pass]) {
    let hop_events: u64 = refs.iter().map(|x| x.hop_events).sum();
    let packets: u64 = refs.iter().map(|x| x.completed).sum();
    let secs = |f: fn(&Round) -> Duration| -> f64 {
        median(
            &rounds
                .iter()
                .map(|x| f(x).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let ingest = secs(|x| x.ingest);
    let identify: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.identify_ns.iter().map(|ns| ns / 1e3))
        .collect();
    r.put("setup_s", secs(|x| x.setup), "s");
    r.put("hop_events_per_s", hop_events as f64 / ingest, "1/s");
    r.put("pps", packets as f64 / ingest, "1/s");
    r.put("verdict_s", secs(|x| x.verdict), "s");
    r.put("identify_p50_us", quantile(&identify, 0.5), "us");
    r.put("identify_p90_us", quantile(&identify, 0.9), "us");
    r.note("rounds", json!(rounds.len()));
    r.note("identify_samples", json!(identify.len()));
}

/// Checks the standalone references: conservation and attribution per
/// tenant, and the pinned digests when given.
fn check_refs(r: &mut Report, refs: &[Pass], pinned: Option<&[&str]>) {
    for (i, x) in refs.iter().enumerate() {
        r.tally(x.checks, x.failures.iter().cloned());
        if let Some(p) = pinned {
            r.tally(
                1,
                (x.digest != p[i]).then(|| {
                    format!(
                        "tenant {i} digest {} differs from pinned {}",
                        x.digest, p[i]
                    )
                }),
            );
        }
    }
}

/// The untraced run.
///
/// # Errors
/// Scenario or server failures.
pub fn run(
    scs: &[Scenario],
    shape: &FloodShape,
    budget: Duration,
    pinned: Option<&[&str]>,
) -> Result<Report, String> {
    let off = Tracer::new(false);
    let mut r = Report::default();
    let refs = references(scs, shape, &off)?;
    check_refs(&mut r, &refs, pinned);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while fits(start, rounds.len(), budget) {
        rounds.push(round(scs, &refs, rounds.len(), false, &off, &mut r)?);
    }
    put_end_to_end(&mut r, &rounds, &refs);
    Ok(r)
}

/// The traced run: the layer probes on tenant 0's standalone world, one
/// traced round, and untraced rounds for `trace.overhead`.
///
/// # Errors
/// Scenario or server failures.
pub fn run_traced(
    scs: &[Scenario],
    shape: &FloodShape,
    budget: Duration,
    pinned: Option<&[&str]>,
    tracer: &Tracer,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut r = Report::default();
    let off = Tracer::new(false);
    let refs = references(scs, shape, &off)?;
    check_refs(&mut r, &refs, pinned);

    // Tenant 0 standalone, traced, with a mid-run checkpoint.
    let ctx = Ctx::root(1);
    let mut ckpt = None;
    let (traced_pass, world) = run_pass(&scs[0], shape, None, tracer, ctx, &mut |w, c| {
        ckpt = Some(layers::checkpoint(w, tracer, c));
    })?;
    r.tally(
        1,
        (traced_pass.digest != refs[0].digest)
            .then(|| "traced tenant pass changed the digest".to_string()),
    );
    layers::front_end(&mut r, &scs[0], tracer, Ctx::root(2))?;
    layers::sim_and_core(&mut r, &scs[0], &world, &traced_pass, tracer, Ctx::root(2))?;
    layers::put_checkpoint(&mut r, ckpt.transpose()?);
    let mut plain = Vec::new();
    let mut telemetry = Vec::new();
    for _ in 0..3 {
        plain.push(run_pass(&scs[0], shape, None, &off, Ctx::default(), &mut |_, _| {})?.0);
        let tc = TelemetryConfig::events_to(shared(NullSink));
        telemetry.push(
            run_pass(
                &scs[0],
                shape,
                Some(tc),
                &off,
                Ctx::default(),
                &mut |_, _| {},
            )?
            .0,
        );
    }
    let step = |ps: &[Pass]| median(&ps.iter().map(|p| p.step.as_secs_f64()).collect::<Vec<_>>());
    r.put(
        "telemetry.on_cost_ratio",
        step(&telemetry) / step(&plain),
        "ratio",
    );

    let traced_round = round(scs, &refs, 0, true, tracer, &mut r)?;
    let mut serve = traced_round.serve;
    serve.stride = tracer.durations("sim.stride");
    serve.standalone_identify = traced_pass.identify_ns.clone();
    r.tally(serve.checks, serve.failures.drain(..));
    serve.put(&mut r);
    // Ledger: the loaded wire round trip against the loaded in-process
    // handle plus the idle wire cost.
    let rt = median(&traced_round.identify_ns);
    let est = median(&serve.handle) + median(&serve.wire_overhead);
    r.put("ledger.residual_share", 1.0 - est / rt, "ratio");

    let mut plain_rounds = Vec::new();
    while plain_rounds.is_empty() || fits(start, plain_rounds.len() + 1, budget) {
        plain_rounds.push(round(
            scs,
            &refs,
            plain_rounds.len() + 1,
            false,
            &off,
            &mut r,
        )?);
    }
    let packets: u64 = refs.iter().map(|x| x.completed).sum();
    let pps = |ingest: Duration| packets as f64 / ingest.as_secs_f64();
    let plain_pps = median(
        &plain_rounds
            .iter()
            .map(|x| pps(x.ingest))
            .collect::<Vec<_>>(),
    );
    r.put(
        "trace.overhead",
        plain_pps / pps(traced_round.ingest) - 1.0,
        "ratio",
    );
    Ok(r)
}
