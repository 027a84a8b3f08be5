//! E-DEFENSES — the §2 defence matrix.
//!
//! Section 2 surveys the defences DDPM competes with; this experiment
//! puts them in one arena. Two attacker profiles against the same
//! victim on an 8×8 torus under fully adaptive routing:
//!
//! * a **spoofing flooder** (random in-cluster source addresses), and
//! * a **non-spoofing flooder** (floods under its own address — ingress
//!   filtering's blind spot).
//!
//! Four defences: none; per-switch ingress filtering (Ferguson & Senie,
//! the paper's §2 baseline); DPM signature blocking at the victim; and
//! DDPM identify → quarantine. Reported: attack packets delivered and
//! benign collateral, per cell.

use crate::util::{RunCtx, Report, TextTable};
use ddpm_attack::{BackgroundTraffic, FloodAttack, PacketFactory, SpoofStrategy, Workload};
use ddpm_core::dpm::DpmScheme;
use ddpm_core::filter::{IngressFilter, SignatureFilter, SourceQuarantine};
use ddpm_core::identify::attack_census;
use ddpm_core::DdpmScheme;
use ddpm_net::AddrMap;
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{Filter, Marker, NoFilter, SimConfig, SimStats, Simulation};
use ddpm_telemetry::TelemetryConfig;
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::json;

fn build_workload(
    topo: &Topology,
    spoof: SpoofStrategy,
    seed: u64,
    ctx: &RunCtx,
) -> (Workload, Vec<NodeId>) {
    let map = AddrMap::for_topology(topo);
    let mut factory = PacketFactory::new(map);
    let mut rng = SmallRng::seed_from_u64(seed);
    let zombies = vec![NodeId(3), NodeId(40), NodeId(61)];
    let mut w =
        BackgroundTraffic::uniform(32, ctx.scaled(4_000)).generate(topo, &mut factory, &mut rng);
    let flood = FloodAttack {
        spoof,
        packets_per_zombie: ctx.scaled32(300),
        interval: 8,
        ..FloodAttack::new(zombies.clone(), NodeId(27))
    };
    w.extend(flood.generate(&mut factory, &mut rng));
    (w, zombies)
}

fn run(
    topo: &Topology,
    workload: &Workload,
    marker: &dyn Marker,
    filter: &dyn Filter,
    seed: u64,
    tcfg: TelemetryConfig,
) -> (SimStats, Vec<ddpm_sim::Delivered>) {
    let faults = FaultSet::none();
    let mut sim = Simulation::with_filter(
        topo,
        &faults,
        Router::fully_adaptive_for(topo),
        SelectionPolicy::ProductiveFirstRandom,
        marker,
        filter,
        SimConfig {
            buffer_packets: 64,
            telemetry: tcfg,
            ..SimConfig::seeded(seed)
        },
    );
    for (t, p) in workload {
        sim.schedule(*t, *p);
    }
    let stats = sim.run();
    let delivered = sim.into_delivered();
    (stats, delivered)
}

/// One defence row for a given attacker profile.
fn defense_rows(
    topo: &Topology,
    spoof: SpoofStrategy,
    profile: &str,
    t: &mut TextTable,
    rows: &mut Vec<serde_json::Value>,
    ctx: &RunCtx,
    tcfg: TelemetryConfig,
) {
    let seed = ctx.seed_or(17);
    let (workload, zombies) = build_workload(topo, spoof, seed, ctx);
    let map = AddrMap::for_topology(topo);
    let ddpm = DdpmScheme::new(topo).unwrap();

    let mut push = |defense: &str, stats: &SimStats| {
        t.row(&[
            profile.to_string(),
            defense.to_string(),
            stats.attack.delivered.to_string(),
            format!("{:.3}", 1.0 - stats.attack.delivery_ratio()),
            stats.benign.dropped_filtered.to_string(),
        ]);
        rows.push(json!({
            "profile": profile, "defense": defense,
            "attack_delivered": stats.attack.delivered,
            "attack_blocked_fraction": 1.0 - stats.attack.delivery_ratio(),
            "benign_filtered": stats.benign.dropped_filtered,
        }));
    };

    // 1. No defence (carries the --trace output when tracing is on).
    let (stats, delivered) = run(topo, &workload, &ddpm, &NoFilter, seed, tcfg);
    push("none", &stats);

    // 2. Ingress filtering.
    let ingress = IngressFilter::new(topo.clone(), map.clone());
    let (stats, _) = run(topo, &workload, &ddpm, &ingress, seed, TelemetryConfig::off());
    push("ingress filter", &stats);

    // 3. DPM signature blocking: the victim learns signatures during a
    //    realistic detection window (the first 40 attack packets it
    //    receives), then filters. Under adaptive routing the attack
    //    keeps minting unseen signatures (leak), and colliding benign
    //    flows get caught in the blocklist (collateral).
    let dpm = DpmScheme::new();
    let (_, learn) = run(topo, &workload, &dpm, &NoFilter, seed, TelemetryConfig::off());
    let sigfilter = SignatureFilter::new();
    sigfilter.block_all(
        learn
            .iter()
            .filter(|d| d.packet.class == ddpm_net::TrafficClass::Attack)
            .take(40)
            .map(|d| d.packet.header.identification.raw()),
    );
    let (stats, _) = run(topo, &workload, &dpm, &sigfilter, seed + 1, TelemetryConfig::off());
    push("dpm signature blocking", &stats);

    // 4. DDPM identify -> quarantine (census from the undefended run).
    let census = attack_census(topo, &ddpm, &delivered);
    let quarantine = SourceQuarantine::new();
    let census_floor = ctx.scaled(50);
    for (node, count) in census {
        if count >= census_floor {
            assert!(zombies.contains(&node), "never quarantine an innocent");
            quarantine.block(topo.coord(node));
        }
    }
    let (stats, _) = run(topo, &workload, &ddpm, &quarantine, seed + 1, TelemetryConfig::off());
    push("ddpm quarantine", &stats);
}

/// Runs the defence matrix.
#[must_use]
pub fn run_experiment(ctx: &RunCtx) -> Report {
    let topo = Topology::torus(&[8, 8]);
    let mut t = TextTable::new(&[
        "attacker",
        "defense",
        "attack delivered",
        "attack blocked",
        "benign filtered",
    ]);
    let mut rows = Vec::new();
    defense_rows(
        &topo,
        SpoofStrategy::RandomInCluster,
        "spoofing flood",
        &mut t,
        &mut rows,
        ctx,
        ctx.telemetry_for("defenses"),
    );
    defense_rows(
        &topo,
        SpoofStrategy::None,
        "non-spoofing flood",
        &mut t,
        &mut rows,
        ctx,
        TelemetryConfig::off(),
    );
    let body = format!(
        "3 zombies flood node n27 of the {topo} under fully adaptive routing.\n\n{}\n\
         Reading (the §2 survey, measured): ingress filtering kills spoofing\n\
         outright but is blind to a flooder using its own address; DPM signature\n\
         blocking leaks under adaptive routing whichever way the attacker spoofs;\n\
         DDPM quarantine stops both profiles completely, with zero innocent\n\
         collateral (only the zombies' own traffic is filtered).\n",
        t.render()
    );
    Report {
        key: "defenses",
        title: "Defence matrix: none / ingress / DPM / DDPM (§2)".into(),
        body,
        json: json!({"rows": rows}),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shapes_match_the_papers_survey() {
        let r = run_experiment(&RunCtx::default());
        let rows = r.json["rows"].as_array().unwrap();
        let cell = |profile: &str, defense: &str| -> u64 {
            rows.iter()
                .find(|v| v["profile"] == profile && v["defense"] == defense)
                .unwrap()["attack_delivered"]
                .as_u64()
                .unwrap()
        };
        // Ingress kills the spoofed flood, save the handful of packets
        // whose random "spoof" happened to be the attacker's own address
        // (probability 1/N per packet — those are not spoofed at all).
        assert!(
            cell("spoofing flood", "ingress filter") * 20 < cell("spoofing flood", "none"),
            "ingress should block ~all spoofed packets"
        );
        // …but is useless against an honest-address flooder.
        assert_eq!(
            cell("non-spoofing flood", "ingress filter"),
            cell("non-spoofing flood", "none")
        );
        // DPM blocking leaks under adaptive routing (unseen signatures
        // keep appearing after the learning window)…
        assert!(cell("spoofing flood", "dpm signature blocking") > 0);
        // …and hits benign flows whose signatures collide (collateral).
        let collateral = |profile: &str, defense: &str| -> u64 {
            rows.iter()
                .find(|v| v["profile"] == profile && v["defense"] == defense)
                .unwrap()["benign_filtered"]
                .as_u64()
                .unwrap()
        };
        assert!(collateral("spoofing flood", "dpm signature blocking") > 0);
        // DDPM quarantine stops both profiles completely.
        assert_eq!(cell("spoofing flood", "ddpm quarantine"), 0);
        assert_eq!(cell("non-spoofing flood", "ddpm quarantine"), 0);
    }
}
