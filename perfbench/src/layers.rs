//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public functions from outside, on the workload's own inputs:
//! its scenario, its delivered packets and their source/destination
//! pairs, and a mid-run snapshot of its world.

use crate::gen::Scenario;
use crate::report::Report;
use crate::stats::{max, median};
use crate::trace::{Ctx, Tracer};
use crate::world::{build, Pass, STRIDE};
use ddpm_attack::{BackgroundTraffic, FloodAttack, PacketFactory};
use ddpm_core::build_scheme_with;
use ddpm_net::{AddrMap, Packet, TrafficClass};
use ddpm_routing::{trace_path, SelectionPolicy};
use ddpm_serve::scenario::{AttackSpec, ScenarioConfig};
use ddpm_serve::{proto, ScenarioWorld, ServeClient, Server, ServerConfig};
use ddpm_sim::{MarkEnv, SimTime};
use ddpm_topology::{Coord, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Repeats of each cheap call, for a median.
const REPEATS: usize = 5;
/// Source/destination pairs replayed through routing and marking.
const ROUTE_SAMPLES: usize = 20_000;
/// Strides the serve probe advances its tenant before querying it.
const PROBE_STRIDES: usize = 4;
/// Identify requests the serve probe sends.
const PROBE_REQUESTS: usize = 200;
/// How long [`with_server`] waits for `Server::drain` to join the
/// workers; a healthy drain of finished tenants takes milliseconds.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

static STUCK_DRAINS: AtomicU64 = AtomicU64::new(0);

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn config(text: &str) -> Result<ScenarioConfig, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Where checkpoint files of this process go (removed at exit).
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{tag}-{}", std::process::id()))
}

/// `ddpm-topology` and `ddpm-attack`: building the fabric and generating
/// the workload the scenario describes, as `ScenarioWorld::build` does.
///
/// # Errors
/// An unparsable scenario.
pub fn front_end(r: &mut Report, sc: &Scenario, tracer: &Tracer, ctx: Ctx) -> Result<(), String> {
    let cfg = config(&sc.text)?;
    let mut topo = None;
    let build_ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (t, d) = tracer.span("topology.build", ctx, |_| cfg.topology.build());
            topo = Some(t);
            d.as_nanos() as f64
        })
        .collect();
    let topo = topo.expect("REPEATS > 0");
    let mut packets = 0;
    let gen_ns: Vec<f64> = (0..REPEATS.min(3))
        .map(|_| {
            let (n, d) = tracer.span("attack.generate", ctx, |_| generate(&cfg, &topo));
            packets = n;
            d.as_nanos() as f64
        })
        .collect();
    r.put("topology.build_ms", ms(median(&build_ns)), "ms");
    r.put("attack.generate_ms", ms(median(&gen_ns)), "ms");
    r.put("attack.packets", packets as f64, "count");
    Ok(())
}

/// Background plus flood, generated the way the scenario runner does.
fn generate(cfg: &ScenarioConfig, topo: &Topology) -> usize {
    let mut factory = PacketFactory::new(AddrMap::for_topology(topo));
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut w = BackgroundTraffic::uniform(cfg.background_interval, cfg.horizon).generate(
        topo,
        &mut factory,
        &mut rng,
    );
    if let Some(AttackSpec::UdpFlood {
        zombies,
        victim,
        packets_per_zombie,
        interval,
    }) = &cfg.attack
    {
        let flood = FloodAttack {
            packets_per_zombie: *packets_per_zombie,
            interval: *interval,
            start: SimTime::ZERO,
            ..FloodAttack::new(
                zombies.iter().map(|&z| NodeId(z)).collect(),
                NodeId(*victim),
            )
        };
        w.extend(flood.generate(&mut factory, &mut rng));
    }
    std::hint::black_box(w).len()
}

/// `ddpm-sim`, `ddpm-routing` and `ddpm-core`, read off a finished
/// traced pass and replayed on its delivered packets.
///
/// # Errors
/// A scheme the scenario names but the topology cannot host.
pub fn sim_and_core(
    r: &mut Report,
    sc: &Scenario,
    world: &ScenarioWorld,
    pass: &Pass,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<(), String> {
    let stats = world.sim().stats();
    let strides = tracer.durations("sim.stride");
    r.put("scenario.build_ms", ms(pass.setup.as_nanos() as f64), "ms");
    r.put(
        "scenario.outcome_ms",
        ms(pass.outcome.as_nanos() as f64),
        "ms",
    );
    r.put("sim.stride_ms_p50", ms(median(&strides)), "ms");
    r.put("sim.stride_ms_max", ms(max(&strides)), "ms");
    r.put(
        "sim.ns_per_hop_event",
        pass.step.as_nanos() as f64 / pass.hop_events as f64,
        "ns",
    );
    r.put("sim.hop_events", pass.hop_events as f64, "count");
    r.put(
        "sim.delivered",
        (stats.benign.delivered + stats.attack.delivered) as f64,
        "count",
    );
    r.put(
        "sim.dropped",
        (stats.benign.dropped() + stats.attack.dropped()) as f64,
        "count",
    );
    r.put("sim.peak_arena_bytes", stats.peak_arena_bytes as f64, "B");
    r.put("sim.port_bytes", stats.port_bytes as f64, "B");

    // Routing: the workload's own injector/destination pairs, evenly
    // sampled from the delivered log, traced hop by hop.
    let topo = world.topology();
    let cfg = world.config();
    let delivered = world.sim().delivered();
    let every = (delivered.len() / ROUTE_SAMPLES).max(1);
    let samples: Vec<Packet> = delivered.iter().step_by(every).map(|d| d.packet).collect();
    let router = cfg.router.build(topo);
    let faults = FaultSet::none();
    let max_hops = 4 * topo.diameter() + 64;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let (paths, route_t) = tracer.span("routing.trace_path", ctx, |_| {
        samples
            .iter()
            .map(|p| {
                let (src, dst) = (topo.coord(p.true_source), topo.coord(p.dest_node));
                trace_path(
                    topo,
                    &faults,
                    router,
                    SelectionPolicy::ProductiveFirstRandom,
                    &mut rng,
                    &src,
                    &dst,
                    max_hops,
                )
            })
            .collect::<Result<Vec<Vec<Coord>>, _>>()
    });
    let paths = paths.map_err(|e| format!("routing replay: {e:?}"))?;
    let hops: usize = paths.iter().map(|p| p.len() - 1).sum();
    r.put(
        "routing.ns_per_hop",
        route_t.as_nanos() as f64 / hops as f64,
        "ns",
    );
    r.put("routing.hops", hops as f64, "count");

    // Marking: the scheme's switch-side hooks along those paths.
    let spec = cfg
        .scheme
        .ok_or("benchmark scenarios always name a `scheme`")?;
    let scheme = build_scheme_with(spec, topo, cfg.tag_bits)?;
    let env = MarkEnv { topo };
    let (_, mark_t) = tracer.span("core.mark", ctx, |_| {
        for (p, path) in samples.iter().zip(&paths) {
            let mut pkt = *p;
            scheme.on_inject(&mut pkt, &path[0], &env);
            for w in path.windows(2) {
                scheme.on_forward(&mut pkt, &w[0], &w[1], &env, &mut rng);
            }
            scheme.on_deliver(&mut pkt, &path[path.len() - 1], &env, &mut rng);
            std::hint::black_box(pkt);
        }
    });
    r.put("core.mark_ns", mark_t.as_nanos() as f64 / hops as f64, "ns");

    // Victim side: the run's real attack packets at the victim.
    let victim = NodeId(sc.victim);
    let at_victim: Vec<&Packet> = delivered
        .iter()
        .map(|d| &d.packet)
        .filter(|p| p.dest_node == victim && p.class == TrafficClass::Attack)
        .collect();
    let mut collector = scheme.collector(topo, victim);
    let (_, observe_t) = tracer.span("core.observe", ctx, |_| {
        for p in &at_victim {
            collector.observe_packet(p);
        }
    });
    let attribute_ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (a, t) = tracer.span("core.attribute", ctx, |_| collector.attribute());
            std::hint::black_box(a);
            t.as_nanos() as f64
        })
        .collect();
    r.put(
        "core.observe_ns",
        observe_t.as_nanos() as f64 / at_victim.len().max(1) as f64,
        "ns",
    );
    r.put("core.attribute_us", median(&attribute_ns) / 1e3, "us");

    let mut answer = None;
    let identify_ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (a, t) = tracer.span("core.identify", ctx, |_| world.identify(None));
            answer = Some(a);
            t.as_nanos() as f64
        })
        .collect();
    let answer = answer.expect("REPEATS > 0")?;
    r.put("core.identify_ms", ms(median(&identify_ns)), "ms");
    r.put("core.observed", answer.observed as f64, "count");
    r.put("core.rejected", answer.rejected as f64, "count");
    Ok(())
}

/// One mid-run checkpoint's phases, ns, and its encoded size.
pub struct CheckpointSample {
    snapshot: f64,
    encode: f64,
    store: f64,
    decode: f64,
    bytes: usize,
}

/// `ddpm-checkpoint`: snapshot, encode, durable store and decode of the
/// live world, the work `ScenarioWorld::checkpoint_now` and resume do.
///
/// # Errors
/// Store or decode failures.
pub fn checkpoint(
    world: &ScenarioWorld,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<CheckpointSample, String> {
    let (snap, snapshot) = tracer.span("checkpoint.snapshot", ctx, |_| world.sim().snapshot());
    let (bytes, encode) = tracer.span("checkpoint.encode", ctx, |_| {
        ddpm_checkpoint::encode_snapshot(&snap)
    });
    let dir = scratch_dir("ckpt");
    let source = world.source().unwrap_or("");
    let stamp = ddpm_checkpoint::fingerprint(source);
    let (stored, store) = tracer.span("checkpoint.store", ctx, |_| {
        ddpm_checkpoint::store(&dir, stamp, source, &snap, 1)
    });
    let _ = std::fs::remove_dir_all(&dir);
    stored.map_err(|e| format!("checkpoint store: {e}"))?;
    let (back, decode) = tracer.span("checkpoint.decode", ctx, |_| {
        ddpm_checkpoint::decode_snapshot(&bytes)
    });
    let back = back.map_err(|e| format!("checkpoint decode: {e:?}"))?;
    if back.now != snap.now {
        return Err(format!(
            "checkpoint round trip moved the clock: {} -> {}",
            snap.now, back.now
        ));
    }
    Ok(CheckpointSample {
        snapshot: snapshot.as_nanos() as f64,
        encode: encode.as_nanos() as f64,
        store: store.as_nanos() as f64,
        decode: decode.as_nanos() as f64,
        bytes: bytes.len(),
    })
}

/// Records a checkpoint sample (NaN metrics when none was taken).
pub fn put_checkpoint(r: &mut Report, c: Option<CheckpointSample>) {
    let (s, e, st, d, b) = c.map_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN), |c| {
        (c.snapshot, c.encode, c.store, c.decode, c.bytes as f64)
    });
    r.put("checkpoint.snapshot_ms", ms(s), "ms");
    r.put("checkpoint.encode_ms", ms(e), "ms");
    r.put("checkpoint.store_ms", ms(st), "ms");
    r.put("checkpoint.decode_ms", ms(d), "ms");
    r.put("checkpoint.bytes", b, "B");
}

/// The `ddpm-serve` layer's numbers.
#[derive(Default)]
pub struct ServeLayer {
    /// `proto::parse_request` of an identify line, ns.
    pub parse: Vec<f64>,
    /// `Server::handle_line` of an identify line, ns.
    pub handle: Vec<f64>,
    /// Wire round trip minus in-process handling of the same identify, ns.
    pub wire_overhead: Vec<f64>,
    /// Standalone `ScenarioWorld::identify` on an equal world, ns.
    pub standalone_identify: Vec<f64>,
    /// Standalone tenant `step(STRIDE)`, ns.
    pub stride: Vec<f64>,
    /// Wire round trip of `tenant.subscribe`, ns.
    pub subscribe: Vec<f64>,
    /// Bytes of each subscribe response.
    pub subscribe_bytes: Vec<f64>,
    /// Checks and requests attempted.
    pub checks: u64,
    /// Failures among them.
    pub failures: Vec<String>,
}

impl ServeLayer {
    /// Records the serve-layer metrics.
    pub fn put(&self, r: &mut Report) {
        let handle = median(&self.handle);
        r.put("serve.subscribe_us", median(&self.subscribe) / 1e3, "us");
        r.put("serve.subscribe_bytes", median(&self.subscribe_bytes), "B");
        r.put("serve.parse_us", median(&self.parse) / 1e3, "us");
        r.put("serve.handle_identify_us", handle / 1e3, "us");
        r.put("serve.wire_us", median(&self.wire_overhead) / 1e3, "us");
        r.put("serve.tenant_stride_ms", ms(median(&self.stride)), "ms");
        r.put(
            "serve.lock_wait_us",
            (handle - median(&self.standalone_identify)) / 1e3,
            "us",
        );
    }

    /// Counts one request and its failure, if any.
    pub fn record<T>(&mut self, what: &str, res: &Result<T, String>) {
        self.checks += 1;
        if let Err(e) = res {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// The identify request line for `tenant`.
#[must_use]
pub fn identify_line(id: u64, tenant: &str) -> String {
    json!({"id": id, "verb": "tenant.identify", "tenant": tenant}).to_string()
}

/// Boots an in-process server on a loopback listener, runs `body` with
/// it and its address, then stops serving and drains it.
///
/// # Errors
/// Bind or serve failures, or `body`'s error.
pub fn with_server<T>(
    cfg: ServerConfig,
    body: impl FnOnce(&Server, &str) -> Result<T, String>,
) -> Result<T, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server = Server::new(cfg);
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(&listener, &|| stop.load(Ordering::SeqCst)));
        let out = body(&server, &addr);
        stop.store(true, Ordering::SeqCst);
        let served = serving
            .join()
            .map_err(|_| "serve thread panicked".to_string());
        out.and_then(|v| served.and_then(|s| s.map(|()| v)))
    });
    let drained = drain(server);
    let v = out?;
    drained.map(|()| v)
}

/// `Server::drain`, waiting at most [`DRAIN_WAIT`]. The drain can miss
/// its own shutdown wake-up: it notifies the workers without holding the
/// run-queue lock, so a worker woken by the notification that enters
/// drain mode can read the shutdown flag just before it is set, then
/// wait for good, and the join never returns. Such a worker, and the
/// thread joining it, stay parked until the process exits; the run goes
/// on and [`stuck_drains`] counts it. Timings never include the drain.
fn drain(server: Server) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.drain());
    });
    rx.recv_timeout(DRAIN_WAIT).unwrap_or_else(|_| {
        STUCK_DRAINS.fetch_add(1, Ordering::Relaxed);
        eprintln!("warning: Server::drain did not return within {DRAIN_WAIT:?}");
        Ok(())
    })
}

/// Drains of this process that did not return within [`DRAIN_WAIT`].
#[must_use]
pub fn stuck_drains() -> u64 {
    STUCK_DRAINS.load(Ordering::Relaxed)
}

/// The serve layer on an idle server: one paused tenant running the
/// workload's scenario, advanced `PROBE_STRIDES` strides over the wire
/// (with a telemetry subscribe after each), then queried in process and
/// over the wire, next to a standalone world stepped identically.
///
/// # Errors
/// Server boot or scenario failures.
pub fn serve_probe(sc: &Scenario, tracer: &Tracer, ctx: Ctx) -> Result<ServeLayer, String> {
    let scenario: Value = serde_json::from_str(&sc.text).map_err(|e| e.to_string())?;
    let (mut standalone, _) = build(&sc.text, None, tracer, ctx)?;
    let cfg = ServerConfig {
        workers: 1,
        stride: STRIDE,
        ..ServerConfig::default()
    };
    with_server(cfg, |server, addr| {
        let mut l = ServeLayer::default();
        let mut client = ServeClient::connect(addr)?;
        let created = client.call(
            "tenant.create",
            &json!({"name": "probe", "autorun": false, "telemetry": true, "scenario": scenario}),
        );
        l.record("tenant.create", &created);
        created?;
        for _ in 0..PROBE_STRIDES {
            let stepped = client.call("tenant.step", &json!({"tenant": "probe", "cycles": STRIDE}));
            l.record("tenant.step", &stepped);
            let (events, t) = tracer.span("serve.subscribe", ctx, |_| {
                client.tenant_call("tenant.subscribe", "probe")
            });
            l.record("tenant.subscribe", &events);
            l.subscribe.push(t.as_nanos() as f64);
            l.subscribe_bytes
                .push(events.map(|v| v.to_string().len()).unwrap_or(0) as f64);
            let (_, t) = tracer.span("serve.tenant_stride", ctx, |_| standalone.step(STRIDE));
            l.stride.push(t.as_nanos() as f64);
        }
        let want = standalone.identify(None)?;
        for i in 0..PROBE_REQUESTS {
            let req = Ctx {
                parent: ctx.parent,
                request: ctx.request * 1_000_000 + i as u64,
            };
            let line = identify_line(i as u64, "probe");
            let (_, t) = tracer.span("serve.parse", req, |_| {
                std::hint::black_box(proto::parse_request(&line))
            });
            l.parse.push(t.as_nanos() as f64);
            let (resp, handle) =
                tracer.span("serve.handle_identify", req, |_| server.handle_line(&line));
            l.handle.push(handle.as_nanos() as f64);
            let (wired, t) = tracer.span("serve.wire_identify", req, |_| {
                client.tenant_call("tenant.identify", "probe")
            });
            l.wire_overhead
                .push(t.as_nanos() as f64 - handle.as_nanos() as f64);
            let (_, t) = tracer.span("serve.identify_standalone", req, |_| {
                standalone.identify(None)
            });
            l.standalone_identify.push(t.as_nanos() as f64);
            // Stride invisibility: the tenant answers what the
            // standalone world at the same cycle answers.
            let agree = wired.and_then(|v| {
                let resp: Value = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let same = |b: &Value| {
                    b["observed"].as_u64() == Some(want.observed)
                        && b["cycle"].as_u64() == Some(want.cycle)
                        && b["candidates"]
                            .as_array()
                            .map(|c| c.iter().filter_map(Value::as_u64).collect::<Vec<_>>())
                            == Some(want.candidates.iter().map(|&c| u64::from(c)).collect())
                };
                if same(&v) && same(&resp) {
                    Ok(())
                } else {
                    Err(format!(
                        "tenant answered {v} / {resp}, standalone world {want:?}"
                    ))
                }
            });
            l.record("tenant.identify", &agree);
        }
        Ok(l)
    })
}
