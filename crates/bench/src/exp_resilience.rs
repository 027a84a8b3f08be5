//! E-RESIL — attribution resilience under dynamic fault churn.
//!
//! The paper assumes a mostly healthy interconnect (§4.1 lists failed
//! links only as a routing nuisance, Fig. 2). This experiment stresses
//! the stronger operational claim behind DDPM's design: because every
//! delivered packet carries its own complete distance vector, **faults
//! may cost delivery but can never corrupt attribution**. We sweep
//!
//! * topology family (mesh, torus, hypercube),
//! * routing class (deterministic / partially / fully adaptive),
//! * fault churn intensity (random link & switch fail/repair cycles),
//!
//! running each cell twice — with graceful degradation (injection and
//! reroute retries) on and off — and verify that every packet the victim
//! receives still identifies its true source exactly, while the typed
//! fault-drop counters account for every loss.

use crate::util::{RunCtx, fnum, Report, TextTable};
use ddpm_attack::PacketFactory;
use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{InvariantConfig, RetryPolicy, SimConfig, SimTime, Simulation};
use ddpm_topology::{ChurnConfig, FaultSchedule, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde_json::json;

/// Packets injected per run.
const PACKETS: u64 = 1200;
/// Injection cadence in cycles.
const INJECT_EVERY: u64 = 3;

/// One churn intensity level of the sweep.
#[derive(Clone, Copy, Debug)]
struct ChurnLevel {
    name: &'static str,
    link_rate: f64,
    switch_rate: f64,
}

const LEVELS: [ChurnLevel; 3] = [
    ChurnLevel {
        name: "low",
        link_rate: 0.01,
        switch_rate: 0.003,
    },
    ChurnLevel {
        name: "mid",
        link_rate: 0.03,
        switch_rate: 0.008,
    },
    ChurnLevel {
        name: "high",
        link_rate: 0.06,
        switch_rate: 0.015,
    },
];

/// Measurements from one (topology, router, churn, retry-mode) run.
#[derive(Clone, Debug)]
struct RunOutcome {
    delivered: u64,
    injected: u64,
    fault_drops: u64,
    misattributed: u64,
    window_ratio: f64,
    recovery_mean: Option<f64>,
    degraded_cycles: u64,
    fault_events: u64,
    violations: u64,
}

/// One sweep cell: the same churn schedule with retries on and off.
#[derive(Clone, Debug)]
struct Cell {
    topo: String,
    router: &'static str,
    churn: &'static str,
    tolerant: RunOutcome,
    brittle: RunOutcome,
}

fn run_once(
    topo: &Topology,
    router: Router,
    level: ChurnLevel,
    retries: u32,
    seed: u64,
    packets: u64,
) -> RunOutcome {
    let scheme = DdpmScheme::new(topo).expect("sweep topologies fit the field");
    let map = AddrMap::for_topology(topo);
    let mut rng = SmallRng::seed_from_u64(seed);
    let churn = ChurnConfig {
        horizon: packets * INJECT_EVERY,
        period: 250,
        link_rate: level.link_rate,
        switch_rate: level.switch_rate,
        down_time: 400,
    };
    let schedule = FaultSchedule::churn(topo, &churn, || rng.gen::<f64>());
    // Recording (not strict) so the whole sweep doubles as an invariant
    // audit: violations are tallied into the report instead of aborting.
    let base = SimConfig::seeded(seed ^ 0x5EED);
    let cfg = SimConfig {
        invariants: InvariantConfig::recording(),
        retry: if retries > 0 {
            RetryPolicy::capped(retries, base.service_cycles.max(1), 256)
        } else {
            RetryPolicy::OFF
        },
        ..base
    };
    let faults = FaultSet::none();
    // Productive-first selection. Since PR 3 `SelectionPolicy::Random`
    // self-upgrades to productive-first on turn-model routers (see
    // `SelectionPolicy::pick_for`), so this pin is belt-and-braces: the
    // sweep measures resilience, not selection-policy variance.
    let mut sim = Simulation::new(
        topo,
        &faults,
        router,
        SelectionPolicy::ProductiveFirstRandom,
        &scheme,
        cfg,
    );
    sim.schedule_faults(&schedule);
    let n = topo.num_nodes() as u32;
    let mut factory = PacketFactory::new(map);
    for k in 0..packets {
        let src = NodeId(rng.gen_range(0..n));
        let mut dst = NodeId(rng.gen_range(0..n));
        while dst == src {
            dst = NodeId(rng.gen_range(0..n));
        }
        let p = factory.benign(src, dst, L4::udp(9, 9), 64);
        sim.schedule(SimTime(k * INJECT_EVERY), p);
    }
    let stats = sim.run();
    // The resilience invariant: faults cost delivery, never attribution.
    let mut misattributed = 0u64;
    for d in sim.delivered() {
        let dest = topo.coord(d.packet.dest_node);
        let got = scheme
            .attribute(topo, &dest, d.packet.header.identification)
            .single()
            .expect("delivered marking decodes");
        if got != d.packet.true_source {
            misattributed += 1;
        }
    }
    let t = stats.total();
    RunOutcome {
        delivered: t.delivered,
        injected: t.injected,
        fault_drops: stats.fault_drops(),
        misattributed,
        window_ratio: stats.faults.window_delivery_ratio(),
        recovery_mean: stats.faults.recovery.mean(),
        degraded_cycles: stats.faults.degraded_cycles,
        fault_events: stats.faults.events_applied,
        violations: sim.violations().len() as u64,
    }
}

fn run_cell(
    topo: &Topology,
    router: Router,
    level: ChurnLevel,
    seed: u64,
    packets: u64,
) -> Cell {
    Cell {
        topo: topo.describe(),
        router: router.name(),
        churn: level.name,
        tolerant: run_once(topo, router, level, 6, seed, packets),
        brittle: run_once(topo, router, level, 0, seed, packets),
    }
}

/// Runs the resilience sweep.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let packets = ctx.scaled(PACKETS);
    let base_seed = ctx.seed_or(0xC11A0);
    let topologies = vec![
        Topology::mesh2d(8),
        Topology::torus(&[8, 8]),
        Topology::hypercube(6),
    ];
    let mut jobs = Vec::new();
    for topo in &topologies {
        let mut routers = vec![
            Router::DimensionOrder,
            Router::MinimalAdaptive,
            Router::fully_adaptive_for(topo),
        ];
        if matches!(topo.kind(), ddpm_topology::TopologyKind::Mesh) && topo.ndims() == 2 {
            routers.push(Router::WestFirst);
        }
        for router in routers {
            for level in LEVELS {
                jobs.push((topo.clone(), router, level));
            }
        }
    }
    let cells: Vec<Cell> = jobs
        .par_iter()
        .enumerate()
        .map(|(i, (topo, router, level))| run_cell(topo, *router, *level, base_seed + i as u64, packets))
        .collect();

    let mut t = TextTable::new(&[
        "topology",
        "routing",
        "churn",
        "fault events",
        "delivery (retry)",
        "delivery (no retry)",
        "fault window (retry)",
        "fault drops",
        "recovery (cyc)",
        "misattributed",
    ]);
    let mut rows = Vec::new();
    let mut total_fault_drops = 0u64;
    let mut total_mis = 0u64;
    let mut total_delivered = 0u64;
    let mut total_violations = 0u64;
    let (mut retry_ratio_sum, mut brittle_ratio_sum) = (0.0f64, 0.0f64);
    for c in &cells {
        let ratio = |o: &RunOutcome| o.delivered as f64 / o.injected.max(1) as f64;
        total_fault_drops += c.tolerant.fault_drops + c.brittle.fault_drops;
        total_mis += c.tolerant.misattributed + c.brittle.misattributed;
        total_delivered += c.tolerant.delivered + c.brittle.delivered;
        total_violations += c.tolerant.violations + c.brittle.violations;
        retry_ratio_sum += ratio(&c.tolerant);
        brittle_ratio_sum += ratio(&c.brittle);
        t.row(&[
            c.topo.clone(),
            c.router.to_string(),
            c.churn.to_string(),
            c.tolerant.fault_events.to_string(),
            fnum(ratio(&c.tolerant)),
            fnum(ratio(&c.brittle)),
            fnum(c.tolerant.window_ratio),
            (c.tolerant.fault_drops + c.brittle.fault_drops).to_string(),
            c.tolerant
                .recovery_mean
                .map_or_else(|| "-".to_string(), fnum),
            (c.tolerant.misattributed + c.brittle.misattributed).to_string(),
        ]);
        rows.push(json!({
            "topology": c.topo, "router": c.router, "churn": c.churn,
            "fault_events": c.tolerant.fault_events,
            "retry": {
                "delivered": c.tolerant.delivered,
                "injected": c.tolerant.injected,
                "fault_drops": c.tolerant.fault_drops,
                "window_ratio": c.tolerant.window_ratio,
                "recovery_mean": c.tolerant.recovery_mean,
                "degraded_cycles": c.tolerant.degraded_cycles,
                "misattributed": c.tolerant.misattributed,
            },
            "no_retry": {
                "delivered": c.brittle.delivered,
                "fault_drops": c.brittle.fault_drops,
                "misattributed": c.brittle.misattributed,
            },
        }));
    }
    let ncells = cells.len().max(1) as f64;
    let body = format!(
        "{}\nSweep cells: {} (each run twice: retries on / off, same churn schedule)\n\
         Delivered packets checked for attribution: {}   misattributed: {} (expected 0)\n\
         Fault-typed drops across the sweep: {} (expected > 0: churn really bites)\n\
         Runtime invariant violations (checker recording on every run): {} (expected 0)\n\
         Mean delivery ratio: {} with graceful degradation vs {} without\n\n\
         Faults cost delivery, never attribution: every delivered packet still\n\
         carries a complete distance vector, so the victim's single-packet\n\
         identification is unaffected by link/switch churn.\n",
        t.render(),
        cells.len(),
        total_delivered,
        total_mis,
        total_fault_drops,
        total_violations,
        fnum(retry_ratio_sum / ncells),
        fnum(brittle_ratio_sum / ncells),
    );
    Report {
        key: "resilience",
        title: "Attribution resilience under dynamic fault churn (link & switch fail/repair)"
            .into(),
        body,
        json: json!({
            "cells": rows,
            "total_misattributed": total_mis,
            "total_fault_drops": total_fault_drops,
            "total_violations": total_violations,
            "total_delivered": total_delivered,
            "mean_delivery_retry": retry_ratio_sum / ncells,
            "mean_delivery_no_retry": brittle_ratio_sum / ncells,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_fault_bitten_yet_perfectly_attributed() {
        let r = run(&RunCtx::default());
        // ≥3 topologies × ≥3 routings × 3 churn levels.
        assert!(r.json["cells"].as_array().unwrap().len() >= 27, "{}", r.body);
        assert_eq!(r.json["total_misattributed"], 0u64, "{}", r.body);
        assert_eq!(r.json["total_violations"], 0u64, "{}", r.body);
        assert!(
            r.json["total_fault_drops"].as_u64().unwrap() > 0,
            "churn must cause typed drops\n{}",
            r.body
        );
        assert!(r.json["total_delivered"].as_u64().unwrap() > 10_000);
        let with = r.json["mean_delivery_retry"].as_f64().unwrap();
        let without = r.json["mean_delivery_no_retry"].as_f64().unwrap();
        assert!(
            with >= without,
            "graceful degradation must not lose deliveries: {with} vs {without}"
        );
    }

    #[test]
    fn single_cell_dor_mesh_under_high_churn() {
        let topo = Topology::mesh2d(8);
        let c = run_cell(&topo, Router::DimensionOrder, LEVELS[2], 42, PACKETS);
        assert_eq!(c.tolerant.misattributed + c.brittle.misattributed, 0);
        assert!(c.tolerant.fault_events > 0);
        assert!(c.tolerant.delivered > 0);
    }
}
