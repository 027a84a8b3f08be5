//! E-IDENT — DDPM single-packet identification, swept wide.
//!
//! The headline reproduction: "we propose a new method, Deterministic
//! Distance Packet Marking (DDPM), which finds a source directly without
//! identifying paths. … The victim needs only one packet to identify
//! the source." (§1). We sweep:
//!
//! * topology family × size (mesh, torus, hypercube up to Table 3
//!   scale),
//! * routing class (deterministic / partially / fully adaptive),
//! * random link-fault rates,
//! * spoofing strategies,
//!
//! and report per-packet identification accuracy, plus the
//! packets-to-identify comparison against PPM (DPM identifies a
//! signature, not a source, so it has no entry).

use crate::util::{RunCtx, fnum, Report, TextTable};
use ddpm_attack::{PacketFactory, SpoofStrategy};
use ddpm_core::analysis::ppm_expected_packets;
use ddpm_core::identify::score_ddpm;
use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SimConfig, SimTime, Simulation};
use ddpm_telemetry::TelemetryConfig;
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde_json::json;

/// One sweep cell.
#[derive(Clone, Debug)]
struct Cell {
    topo: String,
    router: &'static str,
    fault_rate: f64,
    spoof: &'static str,
    delivered: u64,
    accuracy: f64,
}

#[allow(clippy::too_many_arguments)] // a flat sweep-cell descriptor
fn run_cell(
    topo: &Topology,
    router: Router,
    fault_rate: f64,
    spoof: SpoofStrategy,
    spoof_name: &'static str,
    seed: u64,
    packets: u64,
    tcfg: TelemetryConfig,
) -> Cell {
    let scheme = DdpmScheme::new(topo).expect("within Table 3 scale");
    let map = AddrMap::for_topology(topo);
    let mut rng = SmallRng::seed_from_u64(seed);
    let faults = FaultSet::random(topo, fault_rate, || rng.gen::<f64>());
    let mut factory = PacketFactory::new(map.clone());
    let mut sim = Simulation::new(
        topo,
        &faults,
        router,
        SelectionPolicy::Random,
        &scheme,
        SimConfig {
            telemetry: tcfg,
            ..SimConfig::seeded(seed ^ 0xABCD)
        },
    );
    let n = topo.num_nodes() as u32;
    let victim = NodeId(n - 1);
    for k in 0..packets {
        let src = NodeId(rng.gen_range(0..n - 1));
        let claimed = spoof.claimed_ip(&map, src, &mut rng);
        let p = factory.attack(src, claimed, victim, L4::udp(1, 7), 256);
        sim.schedule(SimTime(k * 6), p);
    }
    sim.run();
    let report = score_ddpm(topo, &scheme, sim.delivered());
    Cell {
        topo: topo.describe(),
        router: router.name(),
        fault_rate,
        spoof: spoof_name,
        delivered: report.total,
        accuracy: report.accuracy(),
    }
}

/// Process-level multi-attacker comparison: packets the victim must
/// receive to identify ALL `m` zombies (equal traffic shares, path
/// length `d`, marking probability `p`). DDPM: the first packet from
/// each zombie suffices (an m-coupon collector). PPM: every edge of all
/// m paths must be sampled.
fn packets_to_identify_all(
    m: u32,
    d: u32,
    p: f64,
    trials: u32,
    rng: &mut rand::rngs::SmallRng,
) -> (f64, f64) {
    use rand::Rng;
    let mut ddpm_total = 0u64;
    let mut ppm_total = 0u64;
    for _ in 0..trials {
        // DDPM: one packet from each zombie.
        let mut seen = vec![false; m as usize];
        let mut missing = m;
        let mut pkts = 0u64;
        while missing > 0 {
            pkts += 1;
            let z = rng.gen_range(0..m as usize);
            if !seen[z] {
                seen[z] = true;
                missing -= 1;
            }
        }
        ddpm_total += pkts;

        // PPM: collect all d edges of each of the m paths; each packet
        // belongs to one zombie and carries the most-downstream mark.
        let mut have = vec![vec![false; d as usize]; m as usize];
        let mut missing = m * d;
        let mut pkts = 0u64;
        while missing > 0 {
            pkts += 1;
            let z = rng.gen_range(0..m as usize);
            let mut winner: Option<usize> = None;
            for i in 0..d as usize {
                if rng.gen_bool(p) {
                    winner = Some(i);
                }
            }
            if let Some(i) = winner {
                if !have[z][i] {
                    have[z][i] = true;
                    missing -= 1;
                }
            }
            if pkts > 50_000_000 {
                break;
            }
        }
        ppm_total += pkts;
    }
    (
        ddpm_total as f64 / f64::from(trials),
        ppm_total as f64 / f64::from(trials),
    )
}

/// Runs the identification sweep.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let packets = ctx.scaled(600);
    let base_seed = ctx.seed_or(1000);
    let topologies = vec![
        Topology::mesh2d(8),
        Topology::mesh2d(16),
        Topology::torus(&[8, 8]),
        Topology::mesh(&[8, 8, 4]),
        Topology::hypercube(8),
        Topology::mesh2d(64),
    ];
    let spoofs: [(SpoofStrategy, &'static str); 3] = [
        (SpoofStrategy::None, "none"),
        (SpoofStrategy::RandomInCluster, "random-in-cluster"),
        (SpoofStrategy::FrameNode(NodeId(1)), "frame-node"),
    ];
    // Build the cell list, then evaluate in parallel (rayon): this is
    // the biggest sweep in the harness.
    let mut jobs = Vec::new();
    for topo in &topologies {
        for router in Router::all_for(topo) {
            for &fault_rate in &[0.0, 0.02] {
                // Turn models / DOR block under faults by design; only
                // sweep faults where the routing can cope.
                if fault_rate > 0.0
                    && !matches!(
                        router,
                        Router::FullyAdaptive { .. } | Router::MinimalAdaptive
                    )
                {
                    continue;
                }
                for (spoof, spoof_name) in spoofs {
                    jobs.push((topo.clone(), router, fault_rate, spoof, spoof_name));
                }
            }
        }
    }
    let cells: Vec<Cell> = jobs
        .par_iter()
        .enumerate()
        .map(|(i, (topo, router, fr, spoof, spoof_name))| {
            // One representative cell carries the --trace output; every
            // cell writing the same file would clobber it.
            let tcfg = if i == 0 {
                ctx.telemetry_for("ident")
            } else {
                TelemetryConfig::off()
            };
            run_cell(
                topo,
                *router,
                *fr,
                *spoof,
                spoof_name,
                base_seed + i as u64,
                packets,
                tcfg,
            )
        })
        .collect();

    let mut t = TextTable::new(&[
        "topology",
        "routing",
        "fault rate",
        "spoofing",
        "packets delivered",
        "identification accuracy",
    ]);
    let mut rows = Vec::new();
    let mut min_acc = 1.0f64;
    let mut total_delivered = 0u64;
    for c in &cells {
        min_acc = min_acc.min(c.accuracy);
        total_delivered += c.delivered;
        t.row(&[
            c.topo.clone(),
            c.router.to_string(),
            fnum(c.fault_rate),
            c.spoof.to_string(),
            c.delivered.to_string(),
            fnum(c.accuracy),
        ]);
        rows.push(json!({
            "topology": c.topo, "router": c.router, "fault_rate": c.fault_rate,
            "spoof": c.spoof, "delivered": c.delivered, "accuracy": c.accuracy,
        }));
    }

    // Packets-to-identify comparison.
    let mut cmp = TextTable::new(&["scheme", "packets to identify one source (8x8 mesh, d=14)"]);
    cmp.row_strs(&["DDPM", "1 (any routing, any path)"]);
    cmp.row(&[
        "PPM (p=0.04)".into(),
        format!(
            "~{} (stable route only)",
            fnum(ppm_expected_packets(14, 0.04))
        ),
    ]);

    // Distributed attacks: packets to identify ALL m zombies.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xD15);
    let mut multi = TextTable::new(&[
        "attackers m",
        "DDPM packets (measured)",
        "PPM packets (measured, p=0.04, d=14)",
        "ratio",
    ]);
    let mut multi_rows = Vec::new();
    for m in [1u32, 2, 4, 8] {
        let (ddpm_pkts, ppm_pkts) = packets_to_identify_all(m, 14, 0.04, 40, &mut rng);
        multi.row(&[
            m.to_string(),
            fnum(ddpm_pkts),
            fnum(ppm_pkts),
            fnum(ppm_pkts / ddpm_pkts),
        ]);
        multi_rows.push(json!({"m": m, "ddpm": ddpm_pkts, "ppm": ppm_pkts}));
    }
    cmp.row_strs(&[
        "DPM",
        "identifies a path signature, not a source; unstable under adaptive routing",
    ]);

    let body = format!(
        "{}\nSweep cells: {}   minimum accuracy: {}   (expected: 1.0 everywhere)\n\n{}\n",
        t.render(),
        cells.len(),
        fnum(min_acc),
        cmp.render()
    );
    let body = format!(
        "{body}\nDistributed attacks — packets until every zombie is identified\n\
         (\"The primary drawback of the PPM is that it is not robust to\n\
         distributed attacks\", §2):\n{}\n",
        multi.render()
    );
    Report {
        key: "ident",
        title: "DDPM single-packet source identification — full sweep (§5)".into(),
        body,
        json: json!({
            "cells": rows,
            "min_accuracy": min_acc,
            "total_delivered": total_delivered,
            "multi_attacker": multi_rows,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_swept_cell_is_perfectly_accurate() {
        let r = run(&RunCtx::default());
        assert_eq!(r.json["min_accuracy"], 1.0, "{}", r.body);
        assert!(r.json["total_delivered"].as_u64().unwrap() > 10_000);
    }

    #[test]
    fn single_cell_under_heavy_faults() {
        let topo = Topology::torus(&[8, 8]);
        let c = run_cell(
            &topo,
            Router::fully_adaptive_for(&topo),
            0.05,
            SpoofStrategy::RandomInCluster,
            "random",
            77,
            600,
            TelemetryConfig::off(),
        );
        assert!(c.delivered > 0);
        assert_eq!(c.accuracy, 1.0);
    }
}
