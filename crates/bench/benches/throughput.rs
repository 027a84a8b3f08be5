//! E2E simulator throughput (packets/sec) per topology × routing,
//! telemetry off vs on — the perf baseline the telemetry overhead
//! contract is measured against (DESIGN.md "Observability") — plus a
//! fabric-size sweep over 8×8–64×64 (EXPERIMENTS.md E-PERF).
//!
//! Besides the Criterion console report, the run writes
//! `BENCH_sim_throughput.json` at the workspace root: one row per
//! (topology, router, telemetry) cell with median packets/sec,
//! so later PRs can diff throughput without re-parsing bench output.
//! The JSON cells are measured round-robin — every cell gets one run
//! per round, rounds repeat, the row is the per-cell median — so slow
//! drift on a shared host (noisy neighbours, frequency steps) hits
//! every cell alike instead of whichever happened to run in a bad
//! window; without this the telemetry-on/off deltas sign-flip run to
//! run.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ddpm_attack::PacketFactory;
use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SimConfig, SimTime, Simulation};
use ddpm_telemetry::{shared, NullSink, TelemetryConfig};
use ddpm_topology::{FaultSet, NodeId, Topology};
use serde_json::json;
use std::time::Instant;

const PACKETS: u64 = 2_000;

/// The swept grid: a representative shape per topology family and the
/// deterministic vs fully adaptive routing extremes.
fn grid() -> Vec<(Topology, Router)> {
    let mut g = Vec::new();
    for topo in [
        Topology::mesh2d(8),
        Topology::torus(&[8, 8]),
        Topology::hypercube(6),
    ] {
        for router in Router::all_for(&topo) {
            if matches!(router, Router::DimensionOrder | Router::FullyAdaptive { .. }) {
                g.push((topo.clone(), router));
            }
        }
    }
    g
}

/// One full simulation: inject `PACKETS` uniform benign packets, run to
/// quiescence, return packets injected (the throughput numerator).
fn run_sim(topo: &Topology, router: Router, tcfg: TelemetryConfig) -> u64 {
    let scheme = DdpmScheme::new(topo).expect("bench shapes fit the MF");
    let map = AddrMap::for_topology(topo);
    let faults = FaultSet::none();
    let mut factory = PacketFactory::new(map);
    let mut sim = Simulation::new(
        topo,
        &faults,
        router,
        SelectionPolicy::ProductiveFirstRandom,
        &scheme,
        SimConfig::seeded(42).to_builder().telemetry(tcfg).build(),
    );
    let n = topo.num_nodes() as u32;
    for k in 0..PACKETS {
        let s = NodeId((k as u32 * 13 + 1) % n);
        let d = NodeId((k as u32 * 29 + 7) % n);
        if s == d {
            continue;
        }
        sim.schedule(SimTime(k * INJECT_STRIDE), factory.benign(s, d, L4::udp(1, 7), 128));
    }
    sim.run();
    PACKETS
}

/// Injection cadence — packet `k` enters at cycle `k*3`.
const INJECT_STRIDE: u64 = 3;

/// The checkpoint-overhead pair (EXPERIMENTS.md E-CKPT): one
/// measurement is `CKPT_BATCH` back-to-back 64×64 runs (~2 s of
/// simulation), a mid-run on-disk checkpoint in every `CKPT_EVERY`th —
/// ten per measurement, i.e. one per 10% of the measured run, each
/// storing the live simulator image. A single `PACKETS` run is ~18 ms,
/// too short to state a 10-checkpoint cadence against (ten fsyncs
/// dwarf it however cheap the snapshot is), and a single run scaled to
/// ~1 s pre-schedules so many injections that every snapshot hauls the
/// multi-megabyte future-workload backlog — checkpoint cost must be
/// measured at a realistic cadence *and* bounded state, which the
/// batch shape gives.
const CKPT_BATCH: usize = 100;
const CKPT_EVERY: usize = 10;

/// One checkpoint-cell measurement; `dir` present = the checkpointing
/// variant, absent = its no-store baseline. Both variants split every
/// run at the same mid-run cycle so the pair differs only in
/// `ddpm_checkpoint::store` calls (`run_until` segmentation is
/// digest-neutral and effectively free).
fn run_ckpt_batch(topo: &Topology, router: Router, dir: Option<&std::path::Path>) -> u64 {
    let scheme = DdpmScheme::new(topo).expect("bench shapes fit the MF");
    let faults = FaultSet::none();
    let pause_at = PACKETS * INJECT_STRIDE / 2;
    for i in 0..CKPT_BATCH {
        let map = AddrMap::for_topology(topo);
        let mut factory = PacketFactory::new(map);
        let mut sim = Simulation::new(
            topo,
            &faults,
            router,
            SelectionPolicy::ProductiveFirstRandom,
            &scheme,
            SimConfig::seeded(42),
        );
        let n = topo.num_nodes() as u32;
        for k in 0..PACKETS {
            let s = NodeId((k as u32 * 13 + 1) % n);
            let d = NodeId((k as u32 * 29 + 7) % n);
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k * INJECT_STRIDE), factory.benign(s, d, L4::udp(1, 7), 128));
        }
        if !sim.run_until(pause_at) {
            if i % CKPT_EVERY == CKPT_EVERY - 1 {
                if let Some(dir) = dir {
                    ddpm_checkpoint::store(dir, 0, "", &sim.snapshot(), 2)
                        .expect("bench checkpoint store");
                }
            }
            sim.run();
        }
    }
    CKPT_BATCH as u64 * PACKETS
}

/// A telemetry variant under test, as a fresh-config factory (configs
/// holding sinks are consumed per run).
type Variant = (&'static str, fn() -> TelemetryConfig);

/// Disabled (the zero-cost contract) and events-on into a discarding
/// sink (the enabled-overhead ceiling without file I/O noise).
fn variants() -> [Variant; 2] {
    [
        ("telemetry-off", TelemetryConfig::off as fn() -> TelemetryConfig),
        ("telemetry-on", || TelemetryConfig::events_to(shared(NullSink))),
    ]
}

/// The fabric-size sweep: 8×8 up to 64×64, with the 32×32 torus as the
/// headline Criterion shape.
fn fabrics() -> Vec<Topology> {
    vec![
        Topology::mesh2d(8),
        Topology::torus(&[16, 16]),
        Topology::torus(&[32, 32]),
        Topology::torus(&[64, 64]),
    ]
}

/// One JSON cell: its row labels plus a closure running the full
/// simulation it measures.
struct Cell {
    topology: String,
    router: String,
    telemetry: &'static str,
    packets: u64,
    run: Box<dyn Fn() -> u64>,
}

/// Every JSON cell, in row order: the telemetry grid, then the fabric
/// sweep with a telemetry-off and a telemetry-on row per fabric (the
/// batched sink fan-out contract, DESIGN.md §9, measured on the same
/// shapes).
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (topo, router) in grid() {
        for (tname, tcfg) in variants() {
            let t = topo.clone();
            cells.push(Cell {
                topology: topo.describe(),
                router: router.name().to_string(),
                telemetry: tname,
                packets: PACKETS,
                run: Box::new(move || run_sim(&t, router, tcfg())),
            });
        }
    }
    for topo in fabrics() {
        let router = Router::DimensionOrder;
        let t = topo.clone();
        cells.push(Cell {
            topology: topo.describe(),
            router: router.name().to_string(),
            telemetry: "telemetry-off",
            packets: PACKETS,
            run: Box::new(move || run_sim(&t, router, TelemetryConfig::off())),
        });
        let t = topo.clone();
        cells.push(Cell {
            topology: topo.describe(),
            router: router.name().to_string(),
            telemetry: "telemetry-on",
            packets: PACKETS,
            run: Box::new(move || {
                run_sim(&t, router, TelemetryConfig::events_to(shared(NullSink)))
            }),
        });
    }
    // Checkpoint overhead on the largest fabric: serial 64×64 torus,
    // ten mid-run on-disk checkpoints per ~2 s measured batch, diffed
    // against its own same-shape no-store baseline row (EXPERIMENTS.md
    // E-CKPT, ≤5%).
    {
        let topo = Topology::torus(&[64, 64]);
        let router = Router::DimensionOrder;
        let batch = CKPT_BATCH as u64 * PACKETS;
        let t = topo.clone();
        cells.push(Cell {
            topology: topo.describe(),
            router: router.name().to_string(),
            telemetry: "checkpoint-off",
            packets: batch,
            run: Box::new(move || run_ckpt_batch(&t, router, None)),
        });
        let dir = std::env::temp_dir().join(format!("ddpm-bench-ckpt-{}", std::process::id()));
        let t = topo.clone();
        cells.push(Cell {
            topology: topo.describe(),
            router: router.name().to_string(),
            telemetry: "checkpoint-10pct",
            packets: batch,
            run: Box::new(move || run_ckpt_batch(&t, router, Some(&dir))),
        });
    }
    cells
}

/// Measurement rounds per cell for the JSON medians.
const ROUNDS: usize = 9;

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    for (topo, router) in grid() {
        for (tname, tcfg) in variants() {
            let label = format!("{}/{}/{tname}", topo.describe(), router.name());
            group.bench_with_input(BenchmarkId::from(label), &(), |b, ()| {
                b.iter_batched(|| (), |()| run_sim(&topo, router, tcfg()), BatchSize::SmallInput);
            });
        }
    }
    // The Criterion console entry for the fabric sweep covers the
    // headline 32×32 torus; the JSON rows cover the full sweep.
    {
        let topo = Topology::torus(&[32, 32]);
        let router = Router::DimensionOrder;
        let label = format!("{}/{}/serial", topo.describe(), router.name());
        group.bench_with_input(BenchmarkId::from(label), &(), |b, ()| {
            b.iter_batched(
                || (),
                |()| run_sim(&topo, router, TelemetryConfig::off()),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // Round-robin JSON measurement: one run of every cell per round.
    let cells = cells();
    let mut samples: Vec<Vec<f64>> = cells.iter().map(|_| Vec::with_capacity(ROUNDS)).collect();
    for _ in 0..ROUNDS {
        for (cell, pps) in cells.iter().zip(&mut samples) {
            let t = Instant::now();
            let pkts = (cell.run)();
            pps.push(pkts as f64 / t.elapsed().as_secs_f64());
        }
    }
    let mut rows = Vec::new();
    for (cell, mut pps) in cells.iter().zip(samples) {
        pps.sort_by(|a, b| a.total_cmp(b));
        rows.push(json!({
            "topology": cell.topology,
            "router": cell.router,
            "telemetry": cell.telemetry,
            // Row label the regression gate and the service-load /
            // scale writers key on; every simulator row is serial.
            "engine": "serial",
            "packets": cell.packets,
            "packets_per_sec": pps[ROUNDS / 2],
        }));
    }

    // Workspace root, independent of the bench harness's cwd. The
    // service-load experiment co-owns this file (its rows have
    // `engine: "serve-*"`); merge so neither writer clobbers the other.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_throughput.json");
    ddpm_bench::util::merge_bench_rows(
        std::path::Path::new(out),
        "sim_throughput",
        &|r| {
            // Claim only this bench's rows: the service-load rows
            // (`engine: "serve-*"`) and the E-SCALE suite's rows
            // (`suite: "scale"`) are merged in by their experiments
            // and must survive a bench rerun.
            !r["engine"]
                .as_str()
                .is_some_and(|e| e.starts_with("serve"))
                && r["suite"].as_str() != Some("scale")
        },
        rows,
    )
    .expect("write BENCH_sim_throughput.json");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("ddpm-bench-ckpt-{}", std::process::id())),
    );
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
