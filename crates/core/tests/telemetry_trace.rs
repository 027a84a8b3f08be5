//! The acceptance test for the telemetry event schema's core promise:
//! the mark-event trail of a traced DDPM run is the victim's evidence.
//! For sampled packets, the *accumulated* marking vector — the last
//! `Mark` event's `mf` — must reproduce exactly what `identify()`
//! answers from the delivered packet, and that answer must be the true
//! injector.

use ddpm_core::DdpmScheme;
use ddpm_indirect::{Butterfly, MinSimulation, PortMarking};
use ddpm_net::{AddrMap, Ipv4Header, MarkingField, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SimConfig, SimTime, Simulation};
use ddpm_telemetry::{shared, EventKind, MemorySink, TelemetryConfig};
use ddpm_topology::{FaultSet, NodeId, Topology};
use proptest::prelude::*;

fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId) -> Packet {
    Packet {
        id: PacketId(id),
        header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
        l4: L4::udp(1, 7),
        true_source: src,
        dest_node: dst,
        class: TrafficClass::Attack,
    }
}

#[test]
fn mark_trail_reproduces_identify_answer() {
    let topo = Topology::mesh2d(8);
    let scheme = DdpmScheme::new(&topo).unwrap();
    let map = AddrMap::for_topology(&topo);
    let faults = FaultSet::none();
    let sink = MemorySink::new();
    let cfg = SimConfig {
        telemetry: TelemetryConfig::events_to(shared(sink.clone())),
        ..SimConfig::seeded(7)
    };
    let mut sim = Simulation::new(
        &topo,
        &faults,
        Router::fully_adaptive_for(&topo),
        SelectionPolicy::Random,
        &scheme,
        cfg,
    );
    let victim = NodeId(63);
    // A spread of sources, including corner/edge/interior placements.
    let sources = [NodeId(0), NodeId(5), NodeId(17), NodeId(42), NodeId(56)];
    for (k, src) in sources.iter().enumerate() {
        sim.schedule(SimTime(k as u64 * 10), mk_packet(&map, k as u64, *src, victim));
    }
    sim.run();

    let delivered = sim.delivered();
    assert_eq!(delivered.len(), sources.len(), "lossless healthy run");
    let dest_coord = topo.coord(victim);
    for d in delivered {
        let pkt = d.packet.id.0;
        let trail = sink.events_for(pkt);
        assert!(!trail.is_empty(), "packet {pkt} left no events");

        // The accumulated marking vector: the last Mark event's mf.
        let last_mark = trail
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::Mark { mf, .. } => Some(mf),
                _ => None,
            })
            .expect("DDPM marks every packet at least at injection");

        // It must be byte-identical to what the victim received...
        assert_eq!(last_mark, d.packet.header.identification.raw());
        let deliver_mf = trail
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Deliver { mf, .. } => Some(mf),
                _ => None,
            })
            .expect("delivered packet must have a Deliver event");
        assert_eq!(last_mark, deliver_mf);

        // ...and identify() on that accumulated vector must name the
        // true injector — the single-packet identification claim, now
        // auditable hop by hop from the trace.
        let identified = scheme
            .attribute(&topo, &dest_coord, MarkingField::new(last_mark))
            .single()
            .expect("in-range marking vector");
        assert_eq!(identified, d.packet.true_source, "packet {pkt}");
    }
}

#[test]
fn traced_run_equals_untraced_run() {
    // Telemetry must observe, never perturb: same seed with and without
    // a sink must deliver the same packets with the same markings.
    let topo = Topology::torus(&[4, 4]);
    let scheme = DdpmScheme::new(&topo).unwrap();
    let map = AddrMap::for_topology(&topo);
    let faults = FaultSet::none();
    let run = |tcfg: TelemetryConfig| {
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &scheme,
            SimConfig {
                telemetry: tcfg,
                ..SimConfig::seeded(99)
            },
        );
        for k in 0..40u64 {
            let src = NodeId((k % 15) as u32);
            sim.schedule(SimTime(k * 3), mk_packet(&map, k, src, NodeId(15)));
        }
        sim.run();
        sim.delivered()
            .iter()
            .map(|d| (d.packet.id.0, d.packet.header.identification.raw(), d.delivered_at))
            .collect::<Vec<_>>()
    };
    let plain = run(TelemetryConfig::off());
    let traced = run(TelemetryConfig::events_to(shared(MemorySink::new())));
    assert_eq!(plain, traced);
}

/// The accumulated marking vector a packet's trail ends with: the last
/// `Mark` event's `mf`, cross-checked against the `Deliver` event. When
/// the field never changed from its injected value (an all-zero vector)
/// there is no `Mark` event and the delivered `mf` *is* the trail end.
fn trail_mf(sink: &MemorySink, pkt: u64) -> u16 {
    let trail = sink.events_for(pkt);
    let delivered = trail
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Deliver { mf, .. } => Some(mf),
            _ => None,
        })
        .expect("delivered packet must leave a Deliver event");
    let last_mark = trail.iter().rev().find_map(|e| match e.kind {
        EventKind::Mark { mf, .. } => Some(mf),
        _ => None,
    });
    if let Some(mark) = last_mark {
        assert_eq!(mark, delivered, "trail end must equal the delivered MF");
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential form of the paper's central claim: one packet,
    /// any adaptive path, two independently written simulators. For a
    /// random mesh/torus/hypercube the direct-network simulator's DDPM
    /// mark trail, and for a butterfly covering the same terminal
    /// indices the staged simulator's port-marking trail, must *both*
    /// reconstruct the identical true source via `identify()` — from
    /// the trace alone, never from the (spoofable) header addresses.
    #[test]
    fn direct_and_indirect_trails_identify_the_same_source(
        kind in 0u8..3,
        n in 3u16..6,
        seed in any::<u64>(),
        picks in any::<u64>(),
    ) {
        let topo = match kind {
            0 => Topology::mesh(&[n, n]),
            1 => Topology::torus(&[n, n]),
            _ => Topology::hypercube(usize::from(n)),
        };
        let nodes = topo.num_nodes();
        let src = NodeId((picks % nodes) as u32);
        let dst = NodeId(((picks >> 24) % nodes) as u32);
        prop_assume!(src != dst);
        let map = AddrMap::for_topology(&topo);

        // Direct network: fully adaptive routing with seeded random
        // selection, so each case exercises a different lawful path.
        let scheme = DdpmScheme::new(&topo).unwrap();
        let sink = MemorySink::new();
        let cfg = SimConfig {
            telemetry: TelemetryConfig::events_to(shared(sink.clone())),
            ..SimConfig::seeded(seed)
        };
        let mut sim = Simulation::new(
            &topo,
            &FaultSet::none(),
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &scheme,
            cfg,
        );
        sim.schedule(SimTime::ZERO, mk_packet(&map, 1, src, dst));
        sim.run();
        prop_assert_eq!(sim.delivered().len(), 1, "lone packet, healthy net");
        let direct = scheme
            .attribute(&topo, &topo.coord(dst), MarkingField::new(trail_mf(&sink, 1)))
            .single()
            .expect("in-range marking vector");

        // Staged fabric: the smallest 2-ary butterfly whose terminals
        // cover the same node indices.
        let mut stages = 1u8;
        while (1u64 << stages) < nodes {
            stages += 1;
        }
        let fly = Butterfly::new(2, stages);
        let port_scheme = PortMarking::new(fly).unwrap();
        let fly_sink = MemorySink::new();
        let fly_cfg = SimConfig {
            telemetry: TelemetryConfig::events_to(shared(fly_sink.clone())),
            ..SimConfig::default()
        };
        let mut fly_sim = MinSimulation::with_config(fly, port_scheme, &fly_cfg);
        fly_sim.schedule(SimTime::ZERO, mk_packet(&map, 1, src, dst));
        fly_sim.run();
        prop_assert_eq!(fly_sim.delivered().len(), 1, "lone packet, healthy fly");
        let indirect = port_scheme.identify(MarkingField::new(trail_mf(&fly_sink, 1)));

        prop_assert_eq!(direct, src);
        prop_assert_eq!(indirect, src);
        prop_assert_eq!(direct, indirect, "the two simulators must agree");
    }
}
