//! E-DDOS — the full pipeline: detect → identify → block.
//!
//! The paper's deployment story (§1–§2): a handful of compromised nodes
//! inside the cluster SYN-flood a victim with spoofed in-cluster
//! addresses; firewalls and ingress filtering see nothing wrong; the
//! victim detects the flood, uses DDPM to identify the *true* injecting
//! nodes from single packets, and quarantines them at their own
//! switches ("Once a source … is identified, we can protect our system
//! by blocking packets from that source").
//!
//! Phase A runs the attack undefended and measures denial of service
//! (benign SYN rejection at the victim's half-open table) and detection
//! latency. Phase B re-runs the same workload with the identified
//! sources quarantined and measures suppression and collateral damage.

use crate::util::{RunCtx, fnum, Report, TextTable};
use ddpm_attack::{
    BackgroundTraffic, DetectionVerdict, EntropyDetector, HalfOpenTable, PacketFactory,
    SynFloodAttack, SynHalfOpenDetector, Workload,
};
use ddpm_core::filter::SourceQuarantine;
use ddpm_core::identify::attack_census;
use ddpm_core::DdpmScheme;
use ddpm_net::AddrMap;
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{Delivered, SimConfig, SimStats, SimTime, Simulation};
use ddpm_telemetry::TelemetryConfig;
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::json;
use std::collections::BTreeSet;

/// Scenario parameters.
pub struct E2eScenario {
    pub topo: Topology,
    pub victim: NodeId,
    pub zombies: Vec<NodeId>,
    pub seed: u64,
}

impl Default for E2eScenario {
    fn default() -> Self {
        Self {
            topo: Topology::torus(&[8, 8]),
            victim: NodeId(27),
            zombies: vec![NodeId(3), NodeId(12), NodeId(40), NodeId(55), NodeId(61)],
            seed: 2004,
        }
    }
}

/// Measured outcome of one phase.
pub struct PhaseOutcome {
    pub stats: SimStats,
    pub benign_syn_rejected: u64,
    pub benign_syn_total: u64,
    pub alarm_entropy: DetectionVerdict,
    pub alarm_halfopen: DetectionVerdict,
    pub delivered: Vec<Delivered>,
}

fn build_workload(sc: &E2eScenario, factory: &mut PacketFactory, ctx: &RunCtx) -> Workload {
    let mut rng = SmallRng::seed_from_u64(sc.seed);
    // Benign background including benign SYNs to the victim's service.
    let bg = BackgroundTraffic::uniform(24, ctx.scaled(6_000));
    let mut w = bg.generate(&sc.topo, factory, &mut rng);
    // Benign clients opening connections to the victim: one SYN each
    // every ~60 cycles.
    for (i, client) in [NodeId(5), NodeId(18), NodeId(33), NodeId(48)]
        .iter()
        .enumerate()
    {
        for k in 0..ctx.scaled(100) {
            let t = SimTime(k * 60 + i as u64 * 13);
            let l4 = ddpm_net::L4::tcp_syn(2000 + k as u16, 80, k as u32);
            w.push((t, factory.benign(*client, sc.victim, l4, 40)));
        }
    }
    // The SYN flood starts at t = 1500 (after a benign warm-up).
    let flood = SynFloodAttack {
        start: SimTime(1_500),
        interval: 6,
        syns_per_zombie: ctx.scaled32(500),
        ..SynFloodAttack::new(sc.zombies.clone(), sc.victim)
    };
    w.extend(flood.generate(factory, &mut rng));
    w
}

fn run_phase(
    sc: &E2eScenario,
    workload: &Workload,
    quarantine: Option<&SourceQuarantine>,
    scheme: &DdpmScheme,
    tcfg: TelemetryConfig,
) -> PhaseOutcome {
    let faults = FaultSet::none();
    let router = Router::fully_adaptive_for(&sc.topo);
    let cfg = SimConfig {
        buffer_packets: 64,
        telemetry: tcfg,
        ..SimConfig::seeded(sc.seed)
    };
    let default_q = SourceQuarantine::new();
    let q = quarantine.unwrap_or(&default_q);
    let mut sim = Simulation::with_filter(
        &sc.topo,
        &faults,
        router,
        SelectionPolicy::ProductiveFirstRandom,
        scheme,
        q,
        cfg,
    );
    for (t, p) in workload {
        sim.schedule(*t, *p);
    }
    let stats = sim.run();

    // Victim-side processing in delivery order.
    let mut table = HalfOpenTable::new(128, 2_000);
    let mut entropy = EntropyDetector::new(64, 4.5);
    let mut halfopen = SynHalfOpenDetector::new(96);
    let mut benign_syn_total = 0u64;
    for d in sim.delivered() {
        if d.packet.dest_node != sc.victim {
            continue;
        }
        if d.packet.l4.is_syn() && d.packet.class == ddpm_net::TrafficClass::Benign {
            benign_syn_total += 1;
        }
        table.on_packet(&d.packet, d.delivered_at);
        entropy.observe(&d.packet, d.delivered_at);
        halfopen.observe(&table, d.delivered_at);
    }
    PhaseOutcome {
        stats,
        benign_syn_rejected: table.rejected_benign,
        benign_syn_total,
        alarm_entropy: entropy.verdict(),
        alarm_halfopen: halfopen.verdict(),
        delivered: sim.into_delivered(),
    }
}

/// Runs the end-to-end pipeline experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let sc = E2eScenario {
        seed: ctx.seed_or(2004),
        ..E2eScenario::default()
    };
    let scheme = DdpmScheme::new(&sc.topo).expect("8x8 torus fits");
    let map = AddrMap::for_topology(&sc.topo);
    let mut factory = PacketFactory::new(map);
    let workload = build_workload(&sc, &mut factory, ctx);

    // Phase A: undefended (carries the --trace output when tracing is on).
    let a = run_phase(&sc, &workload, None, &scheme, ctx.telemetry_for("e2e"));

    // Identification: census of DDPM-identified sources over the
    // victim's attack-class stream (in deployment the "attack" label
    // comes from the detector's attack window; ground-truth labels give
    // the same set here because the flood dominates that window).
    let victim_stream: Vec<Delivered> = a
        .delivered
        .iter()
        .filter(|d| d.packet.dest_node == sc.victim)
        .cloned()
        .collect();
    let census = attack_census(&sc.topo, &scheme, &victim_stream);
    let mut identified: Vec<(NodeId, u64)> = census.into_iter().collect();
    identified.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
    let threshold = ctx.scaled(50);
    // Ordered sets: the report lists sources in ascending node order, so
    // two runs at one seed print identical text and JSON.
    let identified_sources: BTreeSet<NodeId> = identified
        .iter()
        .filter(|&&(_, c)| c >= threshold)
        .map(|&(n, _)| n)
        .collect();
    let truth: BTreeSet<NodeId> = sc.zombies.iter().copied().collect();
    let precision_ok = identified_sources.is_subset(&truth);
    let recall_ok = truth.is_subset(&identified_sources);

    // Phase B: quarantine the identified sources at their own switches.
    let quarantine = SourceQuarantine::new();
    for n in &identified_sources {
        quarantine.block(sc.topo.coord(*n));
    }
    let b = run_phase(&sc, &workload, Some(&quarantine), &scheme, TelemetryConfig::off());

    let suppression =
        1.0 - b.stats.attack.delivered as f64 / a.stats.attack.delivered.max(1) as f64;
    let benign_a = a.stats.benign.delivered;
    let benign_b = b.stats.benign.delivered;
    let rej_a = a.benign_syn_rejected as f64 / a.benign_syn_total.max(1) as f64;
    let rej_b = b.benign_syn_rejected as f64 / b.benign_syn_total.max(1) as f64;

    let mut t = TextTable::new(&["metric", "undefended (A)", "quarantined (B)"]);
    t.row(&[
        "attack packets delivered to victim".into(),
        a.stats.attack.delivered.to_string(),
        b.stats.attack.delivered.to_string(),
    ]);
    t.row(&[
        "benign packets delivered".into(),
        benign_a.to_string(),
        benign_b.to_string(),
    ]);
    t.row(&[
        "benign SYN rejection at victim".into(),
        fnum(rej_a),
        fnum(rej_b),
    ]);
    t.row(&[
        "benign latency (mean cycles)".into(),
        fnum(a.stats.benign.latency.mean().unwrap_or(0.0)),
        fnum(b.stats.benign.latency.mean().unwrap_or(0.0)),
    ]);

    let alarm = |v: DetectionVerdict| match v {
        DetectionVerdict::Alarm { at } => format!("alarm at {at}"),
        DetectionVerdict::Normal => "no alarm".into(),
    };
    let id_list: Vec<String> = identified_sources
        .iter()
        .map(|n| format!("{n}={}", sc.topo.coord(*n)))
        .collect();
    let body = format!(
        "Scenario: {} zombies SYN-flood node {} on the {} (spoofed in-cluster sources),\n\
         fully adaptive routing, benign background + 4 legitimate clients.\n\n\
         Detection (phase A): entropy detector: {}; half-open detector: {}\n\
         Identification     : {} sources above threshold: {}\n\
         vs ground truth    : precision {} recall {}\n\n{}\n\
         Attack suppression by quarantine: {}\n",
        sc.zombies.len(),
        sc.victim,
        sc.topo,
        alarm(a.alarm_entropy),
        alarm(a.alarm_halfopen),
        identified_sources.len(),
        id_list.join(", "),
        if precision_ok { "1.0" } else { "<1.0" },
        if recall_ok { "1.0" } else { "<1.0" },
        t.render(),
        fnum(suppression),
    );
    Report {
        key: "e2e",
        title: "End-to-end: detect -> identify (DDPM) -> quarantine (§1–§2)".into(),
        body,
        json: json!({
            "zombies": sc.zombies.iter().map(|n| n.0).collect::<Vec<_>>(),
            "identified": identified_sources.iter().map(|n| n.0).collect::<Vec<_>>(),
            "precision_ok": precision_ok,
            "recall_ok": recall_ok,
            "attack_delivered_before": a.stats.attack.delivered,
            "attack_delivered_after": b.stats.attack.delivered,
            "suppression": suppression,
            "benign_syn_rejection_before": rej_a,
            "benign_syn_rejection_after": rej_b,
            "benign_delivered_before": benign_a,
            "benign_delivered_after": benign_b,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_identifies_and_suppresses() {
        let r = run(&RunCtx::default());
        assert_eq!(r.json["precision_ok"], true, "{}", r.body);
        assert_eq!(r.json["recall_ok"], true, "{}", r.body);
        let suppression = r.json["suppression"].as_f64().unwrap();
        assert!(
            suppression > 0.99,
            "quarantine should kill ~all attack traffic: {suppression}"
        );
        let before = r.json["benign_syn_rejection_before"].as_f64().unwrap();
        let after = r.json["benign_syn_rejection_after"].as_f64().unwrap();
        assert!(
            before > after,
            "denial of service must improve: {before} -> {after}"
        );
    }

    #[test]
    fn quick_run_lists_sources_in_order_and_repeats_exactly() {
        let ctx = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        let first = run(&ctx);
        let ids: Vec<u64> = first.json["identified"]
            .as_array()
            .expect("identified is a list")
            .iter()
            .map(|v| v.as_u64().expect("node ids are integers"))
            .collect();
        assert!(!ids.is_empty(), "{}", first.body);
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "identified sources not ascending: {ids:?}"
        );
        let second = run(&ctx);
        assert_eq!(first.json, second.json);
        assert_eq!(first.body, second.body);
    }
}
