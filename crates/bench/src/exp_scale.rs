//! E-SCALE — Table 3 at full scale: flood + attribution on each
//! maximum fabric the paper claims DDPM covers.
//!
//! Table 3 of the paper bounds the marking field's reach: up to the
//! 128×128 mesh and torus, the 32×32×8 3-D mesh and the 2^16-node
//! hypercube. Earlier experiments exercise those *bounds* analytically
//! (`table3`); this one actually builds each maximum fabric, runs a
//! spoofed UDP flood across it, and attributes the flood back to its
//! true sources — end to end, at full size.
//!
//! Memory is the point as much as correctness. The flood is
//! **wave-scheduled**: packets are scheduled one wave at a time, with
//! the event loop drained between waves ([`Simulation::schedule`] +
//! [`Simulation::run_until`]), so the scheduled backlog is one wave and
//! the arena the packets in flight — never the whole schedule. Each cell reports the measured peaks
//! (`SimStats::peak_arena_bytes`, `SimStats::port_bytes`) alongside
//! throughput, and the release-only `scale_smoke` test pins a hard
//! byte ceiling on the 128×128 cell.
//!
//! `--quick` shrinks the fabrics to micro members of the same
//! families (16×16 grids, 8×8×4 mesh, 2^10 hypercube) so the cell
//! logic stays debug-testable; the full Table 3 maxima run under
//! `report -- scale` in release. Rows land in
//! `BENCH_sim_throughput.json` tagged `"suite": "scale"` (merged — the
//! criterion bench's rows survive, and vice versa; `--quick` rows go
//! to the copy under `target/` instead), and the payload goes to
//! `results/scale.json` via `report -- --json results scale`.

use crate::util::{fnum, merge_bench_rows, Report, RunCtx, TextTable};
use ddpm_attack::PacketFactory;
use ddpm_core::{identify::attack_census, DdpmScheme};
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::time::Instant;

/// Zombies per fabric — spread across the node space by stride.
const ZOMBIES: u32 = 16;
/// Per-zombie injection cadence in cycles. 16 zombies at one packet
/// per 64 cycles offer 0.25 packets/cycle — exactly the victim's
/// service rate (one packet per `service_cycles = 4`), so the fabric
/// runs saturated without degenerating into a pure drop storm.
const INTERVAL: u64 = 64;
/// Rounds scheduled per wave before the event loop drains to the wave
/// boundary; bounds the waiting backlog at `ZOMBIES * WAVE_ROUNDS`
/// packets regardless of flood length.
const WAVE_ROUNDS: u64 = 256;

/// The fabric axis: the Table 3 maxima, or micro members of the same
/// families under `--quick` (debug-fast, same cell logic).
fn fabrics(quick: bool) -> Vec<(&'static str, Topology)> {
    if quick {
        vec![
            ("mesh16x16", Topology::mesh(&[16, 16])),
            ("torus16x16", Topology::torus(&[16, 16])),
            ("mesh8x8x4", Topology::mesh(&[8, 8, 4])),
            ("cube10", Topology::hypercube(10)),
        ]
    } else {
        vec![
            ("mesh128x128", Topology::mesh(&[128, 128])),
            ("torus128x128", Topology::torus(&[128, 128])),
            ("mesh32x32x8", Topology::mesh(&[32, 32, 8])),
            ("cube16", Topology::hypercube(16)),
        ]
    }
}

/// One fabric's measurements. Public so the release-only
/// `scale_smoke` regression test can pin the memory ceilings a cell
/// reports without re-deriving the wave-scheduled flood.
pub struct Cell {
    pub fabric: &'static str,
    pub nodes: u64,
    pub injected: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub wall_secs: f64,
    pub pps: f64,
    pub peak_arena_bytes: u64,
    pub port_bytes: u64,
    /// Deepest backlog of scheduled packets waiting for their cycle.
    pub staged_peak: u64,
    pub attribution_exact: bool,
}

/// Runs one wave-scheduled flood on `topo` and attributes it.
pub fn run_cell(
    ctx: &RunCtx,
    fabric: &'static str,
    topo: &Topology,
    seed: u64,
) -> Result<Cell, String> {
    let n = topo.num_nodes() as u32;
    let scheme = DdpmScheme::new(topo)
        .map_err(|e| format!("{fabric}: Table 3 claims DDPM fits, but: {e}"))?;
    let faults = FaultSet::none();
    let victim = NodeId(n / 2);
    let zombies: Vec<NodeId> = (0..ZOMBIES)
        .map(|i| NodeId((i * (n / ZOMBIES) + 3) % n))
        .filter(|&z| z != victim)
        .collect();
    let map = AddrMap::for_topology(topo);
    let mut factory = PacketFactory::new(map.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::new(
        topo,
        &faults,
        Router::DimensionOrder,
        SelectionPolicy::ProductiveFirstRandom,
        &scheme,
        SimConfig::seeded(seed),
    );

    let rounds = u64::from(ctx.scaled32(2000));
    let started = Instant::now();
    let mut staged_peak = 0u64;
    // Phase-stagger the zombies across the interval: synchronized
    // injection makes every round's burst collide at the same DOR
    // merge link and deterministically drop the same stream each
    // round, starving one source out of the census.
    let phase = (INTERVAL / u64::from(ZOMBIES)).max(1);
    for round in 0..rounds {
        let t = round * INTERVAL;
        for (i, &z) in zombies.iter().enumerate() {
            // Spoofed source: the header claims a random in-cluster
            // address — identification must come from the marks.
            let claimed = map.ip_of(NodeId(rng.gen_range(0..n)));
            let mut p = factory.attack(z, claimed, victim, L4::udp(9, 7), 128);
            // The default TTL of 64 cannot cross a diameter-254
            // fabric; give the flood the headroom the topology needs.
            p.header.ttl = u8::MAX;
            sim.schedule(SimTime(t + i as u64 * phase), p);
        }
        staged_peak = staged_peak.max(sim.waiting() as u64);
        if round % WAVE_ROUNDS == WAVE_ROUNDS - 1 {
            sim.run_until(t + 1);
        }
    }
    let stats = sim.run();
    let wall_secs = started.elapsed().as_secs_f64();

    let census = attack_census(topo, &scheme, sim.delivered());
    let named: BTreeSet<u32> = census.keys().map(|node| node.0).collect();
    let truth: BTreeSet<u32> = zombies.iter().map(|z| z.0).collect();

    Ok(Cell {
        fabric,
        nodes: topo.num_nodes(),
        injected: stats.attack.injected,
        delivered: stats.attack.delivered,
        dropped: stats.attack.dropped(),
        wall_secs,
        pps: stats.attack.injected as f64 / wall_secs.max(1e-9),
        peak_arena_bytes: stats.peak_arena_bytes,
        port_bytes: stats.port_bytes,
        staged_peak,
        attribution_exact: named == truth,
    })
}

/// Runs E-SCALE.
pub fn run(ctx: &RunCtx) -> Report {
    let seed = ctx.seed_or(0x5CA1_E204);
    let mut table = TextTable::new(&[
        "fabric", "nodes", "injected", "delivered", "dropped", "wall s", "pps",
        "arena peak B", "port B", "staged peak", "attribution",
    ]);
    let mut cells: Vec<Value> = Vec::new();
    let mut bench_rows: Vec<Value> = Vec::new();
    let mut body = String::new();
    let mut all_exact = true;

    for (fabric, topo) in fabrics(ctx.quick) {
        match run_cell(ctx, fabric, &topo, seed) {
            Ok(c) => {
                all_exact &= c.attribution_exact;
                table.row(&[
                    c.fabric.to_string(),
                    c.nodes.to_string(),
                    c.injected.to_string(),
                    c.delivered.to_string(),
                    c.dropped.to_string(),
                    format!("{:.2}", c.wall_secs),
                    fnum(c.pps),
                    c.peak_arena_bytes.to_string(),
                    c.port_bytes.to_string(),
                    c.staged_peak.to_string(),
                    if c.attribution_exact { "exact" } else { "DIVERGED" }.to_string(),
                ]);
                bench_rows.push(json!({
                    "suite": "scale",
                    "topology": c.fabric,
                    "router": "dimension-order",
                    "telemetry": "telemetry-off",
                    "engine": "serial",
                    "packets": c.injected,
                    "packets_per_sec": c.pps,
                }));
                cells.push(json!({
                    "fabric": c.fabric,
                    "nodes": c.nodes,
                    "injected": c.injected,
                    "delivered": c.delivered,
                    "dropped": c.dropped,
                    "wall_secs": c.wall_secs,
                    "packets_per_sec": c.pps,
                    "peak_arena_bytes": c.peak_arena_bytes,
                    "port_bytes": c.port_bytes,
                    "staged_backlog_peak": c.staged_peak,
                    "attribution_exact": c.attribution_exact,
                }));
            }
            Err(e) => {
                all_exact = false;
                body.push_str(&format!("{fabric}: FAILED — {e}\n"));
            }
        }
    }

    body.push_str(&table.render());
    body.push_str(&format!(
        "\nEvery flood is wave-scheduled ({ZOMBIES} zombies x {WAVE_ROUNDS}-round waves, \
         interval {INTERVAL}): the waiting backlog stays one wave and the packet arena \
         the packets in flight, not the schedule length.\n{}\n",
        if all_exact {
            "Attribution EXACT: the DDPM census named exactly the true zombie set on \
             every fabric."
        } else {
            "Attribution DIVERGED on at least one fabric (see table): the census did \
             not match the true zombie set."
        },
    ));

    if let Err(e) = merge_bench_rows(
        &ctx.bench_rows_path(),
        "sim_throughput",
        &|r| r["suite"].as_str() == Some("scale"),
        bench_rows,
    ) {
        body.push_str(&format!("(bench rows not merged: {e})\n"));
    }

    Report {
        key: "scale",
        title: "E-SCALE — Table 3 maxima end to end: wave-scheduled floods, bounded memory, \
                full-fabric attribution"
            .into(),
        body,
        json: json!({
            "seed": seed,
            "zombies": ZOMBIES,
            "interval": INTERVAL,
            "wave_rounds": WAVE_ROUNDS,
            "quick": ctx.quick,
            "all_attribution_exact": all_exact,
            "cells": cells,
        }),
    }
}
