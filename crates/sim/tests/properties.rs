//! Property-based tests for the discrete-event simulator.
//!
//! Beyond the unit tests, these pin the queueing-theoretic invariants
//! the congestion results rest on: per-port FIFO ordering, conservation
//! under every drop cause at once, latency floors, and bitwise
//! reproducibility.

use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{NoMarking, SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId) -> Packet {
    Packet {
        id: PacketId(id),
        header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
        l4: L4::udp(1, 7),
        true_source: src,
        dest_node: dst,
        class: TrafficClass::Benign,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-flow packets on a deterministic route never reorder: the
    /// per-port serialisation discipline is FIFO.
    #[test]
    fn same_flow_fifo_under_deterministic_routing(
        n in 3u16..8,
        packets in 2u64..60,
        gap in 0u64..12,
        seed in any::<u64>(),
    ) {
        let topo = Topology::mesh2d(n);
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo, &faults, Router::DimensionOrder, SelectionPolicy::First,
            &marker, SimConfig::seeded(seed),
        );
        let dst = NodeId(u32::from(n) * u32::from(n) - 1);
        for k in 0..packets {
            sim.schedule(SimTime(k * gap), mk_packet(&map, k, NodeId(0), dst));
        }
        sim.run();
        let order: Vec<u64> = sim.delivered().iter().map(|d| d.packet.id.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(order, sorted, "same-flow packets reordered");
    }

    /// Conservation holds with every drop cause active simultaneously:
    /// tiny buffers, short TTLs, random faults, bit errors, hop limits.
    #[test]
    fn conservation_under_combined_stress(
        seed in any::<u64>(),
        ttl in 2u8..20,
        ber in 0.0f64..0.05,
        fault_rate in 0.0f64..0.15,
        burst in 10u64..150,
    ) {
        let topo = Topology::torus(&[6, 6]);
        let map = AddrMap::for_topology(&topo);
        let mut rng = SmallRng::seed_from_u64(seed);
        let faults = FaultSet::random(&topo, fault_rate, || rng.gen::<f64>());
        let marker = NoMarking;
        let cfg = SimConfig {
            buffer_packets: 2,
            bit_error_rate: ber,
            max_hops: 24,
            ..SimConfig::seeded(seed)
        };
        let mut sim = Simulation::new(
            &topo, &faults, Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random, &marker, cfg,
        );
        for k in 0..burst {
            let s = NodeId((k as u32 * 5) % 36);
            let d = NodeId((k as u32 * 7 + 3) % 36);
            if s == d { continue; }
            let mut p = mk_packet(&map, k, s, d);
            p.header.ttl = ttl;
            sim.schedule(SimTime(k % 7), p);
        }
        let stats = sim.run();
        prop_assert!(stats.accounted(0), "conservation violated: {stats:?}");
    }

    /// Latency never undercuts the physical floor, whatever the load.
    #[test]
    fn latency_floor_universal(
        seed in any::<u64>(),
        burst in 1u64..120,
        service in 1u64..8,
        link in 0u64..6,
    ) {
        let topo = Topology::mesh2d(5);
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let marker = NoMarking;
        let cfg = SimConfig {
            service_cycles: service,
            link_latency: link,
            ..SimConfig::seeded(seed)
        };
        let mut sim = Simulation::new(
            &topo, &faults, Router::DimensionOrder, SelectionPolicy::First,
            &marker, cfg,
        );
        for k in 0..burst {
            let s = NodeId((k as u32 * 3) % 24);
            sim.schedule(SimTime::ZERO, mk_packet(&map, k, s, NodeId(24)));
        }
        sim.run();
        for d in sim.delivered() {
            let hops = u64::from(topo.min_hops(
                &topo.coord(d.packet.true_source),
                &topo.coord(d.packet.dest_node),
            ));
            prop_assert!(d.latency() >= hops * (service + link));
        }
    }

    /// Bitwise reproducibility: identical configs and schedules produce
    /// identical delivery transcripts, and the transcript changes with
    /// the seed only through the simulator's declared randomness.
    #[test]
    fn runs_are_reproducible(seed in any::<u64>(), burst in 5u64..60) {
        let topo = Topology::torus(&[5, 5]);
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let marker = NoMarking;
        let transcript = |s: u64| {
            let mut sim = Simulation::new(
                &topo, &faults, Router::MinimalAdaptive, SelectionPolicy::Random,
                &marker,
                SimConfig {
                    record_paths: true,
                    ..SimConfig::seeded(s)
                },
            );
            for k in 0..burst {
                let a = NodeId((k as u32 * 11 + 1) % 25);
                let b = NodeId((k as u32 * 13 + 2) % 25);
                if a == b { continue; }
                sim.schedule(SimTime(k), mk_packet(&map, k, a, b));
            }
            sim.run();
            sim.delivered()
                .iter()
                .enumerate()
                .map(|(i, d)| (d.packet.id, d.delivered_at, d.hops, sim.path(i).map(<[_]>::to_vec)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(transcript(seed), transcript(seed));
    }
}
