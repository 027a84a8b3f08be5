//! E-ABLATION — the design choices DESIGN.md calls out, swept.
//!
//! 1. **Misroute budget** (fully adaptive routing's livelock guard):
//!    delivery ratio and path inflation under link faults;
//! 2. **Output-buffer depth**: benign delivery under a flood — the
//!    resource knob DDoS pressure acts on;
//! 3. **Selection policy**: latency under load for First / Random /
//!    ProductiveFirstRandom;
//! 4. **Codec mode**: the paper's signed packing vs. our residue
//!    extension — identical accuracy, double capacity.

use crate::util::{RunCtx, fnum, Report, TextTable};
use ddpm_attack::{BackgroundTraffic, FloodAttack, PacketFactory};
use ddpm_core::identify::score_ddpm;
use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, CodecMode, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{NoMarking, SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

/// Misroute-budget sweep under random faults.
fn misroute_sweep(t: &mut TextTable, ctx: &RunCtx) -> Vec<serde_json::Value> {
    let topo = Topology::mesh2d(8);
    let map = AddrMap::for_topology(&topo);
    let mut rows = Vec::new();
    for budget in [0u32, 2, 4, 8, 16] {
        let mut rng = SmallRng::seed_from_u64(ctx.seed_or(77));
        let faults = FaultSet::random(&topo, 0.06, || rng.gen::<f64>());
        let marker = NoMarking;
        let mut factory = PacketFactory::new(map.clone());
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::FullyAdaptive {
                misroute_budget: budget,
            },
            SelectionPolicy::ProductiveFirstRandom,
            &marker,
            SimConfig::seeded(ctx.seed_or(77)),
        );
        for k in 0..ctx.scaled(600) {
            let s = NodeId((k as u32 * 13 + 1) % 64);
            let d = NodeId((k as u32 * 29 + 7) % 64);
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k * 6), factory.benign(s, d, L4::udp(1, 7), 128));
        }
        let stats = sim.run();
        let ratio = stats.benign.delivery_ratio();
        let hops = stats.benign.mean_hops().unwrap_or(0.0);
        t.row(&[
            budget.to_string(),
            fnum(ratio),
            fnum(hops),
            stats.benign.dropped_blocked.to_string(),
        ]);
        rows.push(json!({
            "budget": budget, "delivery_ratio": ratio,
            "mean_hops": hops, "blocked": stats.benign.dropped_blocked,
        }));
    }
    rows
}

/// Buffer-depth sweep under a flood.
fn buffer_sweep(t: &mut TextTable, ctx: &RunCtx) -> Vec<serde_json::Value> {
    let topo = Topology::torus(&[8, 8]);
    let map = AddrMap::for_topology(&topo);
    let mut rows = Vec::new();
    for buffer in [4u32, 8, 16, 32, 64] {
        let faults = FaultSet::none();
        let marker = NoMarking;
        let mut rng = SmallRng::seed_from_u64(ctx.seed_or(5));
        let mut factory = PacketFactory::new(map.clone());
        let mut workload = BackgroundTraffic::uniform(24, ctx.scaled(3_000))
            .generate(&topo, &mut factory, &mut rng);
        let flood = FloodAttack {
            packets_per_zombie: ctx.scaled32(400),
            interval: 4,
            ..FloodAttack::new(vec![NodeId(3), NodeId(40)], NodeId(27))
        };
        workload.extend(flood.generate(&mut factory, &mut rng));
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::ProductiveFirstRandom,
            &marker,
            SimConfig {
                buffer_packets: buffer,
                ..SimConfig::seeded(ctx.seed_or(5))
            },
        );
        for (time, p) in workload {
            sim.schedule(time, p);
        }
        let stats = sim.run();
        t.row(&[
            buffer.to_string(),
            fnum(stats.benign.delivery_ratio()),
            fnum(stats.attack.delivery_ratio()),
            fnum(stats.benign.latency.mean().unwrap_or(0.0)),
        ]);
        rows.push(json!({
            "buffer": buffer,
            "benign_delivery": stats.benign.delivery_ratio(),
            "attack_delivery": stats.attack.delivery_ratio(),
            "benign_latency": stats.benign.latency.mean(),
        }));
    }
    rows
}

/// Selection-policy sweep on a loaded healthy mesh.
fn selection_sweep(t: &mut TextTable, ctx: &RunCtx) -> Vec<serde_json::Value> {
    let topo = Topology::mesh2d(8);
    let map = AddrMap::for_topology(&topo);
    let mut rows = Vec::new();
    for (policy, name) in [
        (SelectionPolicy::First, "first"),
        (SelectionPolicy::Random, "random"),
        (SelectionPolicy::ProductiveFirstRandom, "productive-first"),
    ] {
        let faults = FaultSet::none();
        let marker = NoMarking;
        let mut factory = PacketFactory::new(map.clone());
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::FullyAdaptive { misroute_budget: 8 },
            policy,
            &marker,
            SimConfig::seeded(ctx.seed_or(9)),
        );
        // Transpose-like load that benefits from path diversity.
        for k in 0..ctx.scaled(800) {
            let s = NodeId((k % 64) as u32);
            let c = topo.coord(s);
            let d = topo.index(&ddpm_topology::Coord::new(&[c.get(1), c.get(0)]));
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k), factory.benign(s, d, L4::udp(1, 7), 128));
        }
        let stats = sim.run();
        t.row(&[
            name.to_string(),
            fnum(stats.benign.latency.mean().unwrap_or(0.0)),
            fnum(stats.benign.mean_hops().unwrap_or(0.0)),
            fnum(stats.benign.delivery_ratio()),
        ]);
        rows.push(json!({
            "policy": name,
            "latency": stats.benign.latency.mean(),
            "mean_hops": stats.benign.mean_hops(),
            "delivery": stats.benign.delivery_ratio(),
        }));
    }
    rows
}

/// Codec-mode comparison: accuracy and capacity.
fn codec_sweep(t: &mut TextTable, ctx: &RunCtx) -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    for (mode, name) in [
        (CodecMode::Signed, "signed (paper)"),
        (CodecMode::Residue, "residue (extension)"),
    ] {
        let topo = Topology::mesh2d(16);
        let scheme = DdpmScheme::with_mode(&topo, mode).unwrap();
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let mut factory = PacketFactory::new(map);
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &scheme,
            SimConfig::seeded(ctx.seed_or(4)),
        );
        for k in 0..ctx.scaled(500) {
            let s = NodeId((k as u32 * 7 + 3) % 256);
            let d = NodeId((k as u32 * 31 + 11) % 256);
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k * 4), factory.benign(s, d, L4::udp(1, 7), 128));
        }
        sim.run();
        let report = score_ddpm(&topo, &scheme, sim.delivered());
        let max =
            ddpm_core::analysis::max_square_mesh(16, |t| ddpm_core::analysis::ddpm_bits(t, mode));
        t.row(&[
            name.to_string(),
            scheme.codec().bits_used().to_string(),
            fnum(report.accuracy()),
            format!("{max}x{max}"),
        ]);
        rows.push(json!({
            "mode": name, "bits": scheme.codec().bits_used(),
            "accuracy": report.accuracy(), "max_square_mesh": max,
        }));
    }
    rows
}

/// Runs the ablation battery.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let mut t1 = TextTable::new(&[
        "misroute budget",
        "delivery ratio (6% faults)",
        "mean hops",
        "blocked drops",
    ]);
    let r1 = misroute_sweep(&mut t1, ctx);
    let mut t2 = TextTable::new(&[
        "buffer (pkts/port)",
        "benign delivery",
        "attack delivery",
        "benign latency",
    ]);
    let r2 = buffer_sweep(&mut t2, ctx);
    let mut t3 = TextTable::new(&["selection policy", "latency", "mean hops", "delivery"]);
    let r3 = selection_sweep(&mut t3, ctx);
    let mut t4 = TextTable::new(&["codec", "MF bits (16x16)", "accuracy", "max square mesh"]);
    let r4 = codec_sweep(&mut t4, ctx);
    let body = format!(
        "Misroute budget under 6% link faults (fully adaptive, 8x8 mesh):\n{}\n\
         Output-buffer depth under a 2-zombie flood (8x8 torus):\n{}\n\
         Selection policy under transpose load (8x8 mesh):\n{}\n\
         Distance codec (identical accuracy, double capacity for residues):\n{}\n",
        t1.render(),
        t2.render(),
        t3.render(),
        t4.render()
    );
    Report {
        key: "ablation",
        title: "Ablations — misroute budget / buffers / selection / codec".into(),
        body,
        json: json!({
            "misroute": r1, "buffer": r2, "selection": r3, "codec": r4,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misroute_budget_buys_delivery_under_faults() {
        let mut t = TextTable::new(&["a", "b", "c", "d"]);
        let rows = misroute_sweep(&mut t, &RunCtx::default());
        let ratio = |i: usize| rows[i]["delivery_ratio"].as_f64().unwrap();
        // Budget 0 = minimal adaptive only: blocked flows exist.
        assert!(ratio(0) < 1.0);
        // Generous budgets strictly improve on none.
        assert!(ratio(4) > ratio(0));
    }

    #[test]
    fn small_buffers_hurt_everyone() {
        let mut t = TextTable::new(&["a", "b", "c", "d"]);
        let rows = buffer_sweep(&mut t, &RunCtx::default());
        let benign = |i: usize| rows[i]["benign_delivery"].as_f64().unwrap();
        assert!(
            benign(0) < benign(4),
            "tiny buffers must lose benign traffic"
        );
    }

    #[test]
    fn codec_modes_are_equally_accurate() {
        let mut t = TextTable::new(&["a", "b", "c", "d"]);
        let rows = codec_sweep(&mut t, &RunCtx::default());
        for r in &rows {
            assert_eq!(r["accuracy"], 1.0);
        }
        assert_eq!(rows[0]["max_square_mesh"], 128);
        assert_eq!(rows[1]["max_square_mesh"], 256);
    }
}
