//! Property-based tests for the PR's central robustness claim: dynamic
//! faults may cost delivery, but can never corrupt DDPM attribution.
//!
//! Random small topologies × random fault churn × random traffic, with
//! graceful degradation (injection + reroute retries) enabled: every
//! packet that still reaches its destination must identify its true
//! injector from the marking field alone, the run must terminate, and
//! the drop accounting must balance exactly.

use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{RetryPolicy, SimConfig, SimTime, Simulation};
use ddpm_topology::{ChurnConfig, FaultSchedule, FaultSet, NodeId, Topology};
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

fn small_topology(kind: u8, n: u16) -> Topology {
    match kind % 3 {
        0 => Topology::mesh2d(n),
        1 => Topology::torus(&[n, n]),
        _ => Topology::hypercube(usize::from(n)),
    }
}

fn router_for(which: u8, topo: &Topology) -> Router {
    match which % 3 {
        0 => Router::DimensionOrder,
        1 => Router::MinimalAdaptive,
        _ => Router::fully_adaptive_for(topo),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random fault schedules never produce a delivered packet whose
    /// DDPM-identified source differs from the true injector, and the
    /// simulator terminates with exact loss accounting.
    #[test]
    fn churn_never_corrupts_attribution(
        kind in 0u8..3,
        n in 3u16..6,
        router_sel in 0u8..3,
        packets in 20u64..120,
        link_rate in 0.0f64..0.2,
        switch_rate in 0.0f64..0.06,
        retries in 0u32..6,
        seed in any::<u64>(),
    ) {
        let topo = small_topology(kind, n);
        let scheme = DdpmScheme::new(&topo).expect("small topologies fit");
        let map = AddrMap::for_topology(&topo);
        let router = router_for(router_sel, &topo);
        let mut rng = SmallRng::seed_from_u64(seed);
        let horizon = packets * 4;
        let churn = ChurnConfig {
            horizon,
            period: (horizon / 6).max(1),
            link_rate,
            switch_rate,
            down_time: horizon / 4,
        };
        let schedule = FaultSchedule::churn(&topo, &churn, || rng.gen::<f64>());
        prop_assert!(schedule.validate(&topo).is_ok());

        let faults = FaultSet::none();
        let mut sim = Simulation::new(
            &topo, &faults, router, SelectionPolicy::Random, &scheme,
            SimConfig {
                retry: RetryPolicy::capped(retries, 4, 64),
                ..SimConfig::seeded(seed ^ 0xFA17)
            },
        );
        sim.schedule_faults(&schedule);
        let nodes = topo.num_nodes() as u32;
        for k in 0..packets {
            let src = NodeId(rng.gen_range(0..nodes));
            let mut dst = NodeId(rng.gen_range(0..nodes));
            while dst == src {
                dst = NodeId(rng.gen_range(0..nodes));
            }
            sim.schedule(SimTime(k * 4), mk_packet(&map, k, src, dst));
        }
        let stats = sim.run(); // termination: run() returning IS the property

        prop_assert!(stats.accounted(0), "injected != delivered + dropped");
        for d in sim.delivered() {
            let dest = topo.coord(d.packet.dest_node);
            let got = scheme
                .attribute(&topo, &dest, d.packet.header.identification)
                .single();
            prop_assert_eq!(
                got,
                Some(d.packet.true_source),
                "fault churn corrupted attribution for packet {:?}",
                d.packet.id
            );
        }
    }

    /// With no churn at all, retries configured or not, the fault
    /// bookkeeping stays zeroed — the layer is pay-for-use.
    #[test]
    fn healthy_runs_report_no_fault_activity(
        n in 3u16..6,
        packets in 10u64..60,
        retries in 0u32..4,
        seed in any::<u64>(),
    ) {
        let topo = Topology::mesh2d(n);
        let scheme = DdpmScheme::new(&topo).expect("fits");
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let mut sim = Simulation::new(
            &topo, &faults, Router::DimensionOrder, SelectionPolicy::First,
            &scheme,
            SimConfig {
                retry: RetryPolicy::capped(retries, 4, 64),
                ..SimConfig::seeded(seed)
            },
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes = topo.num_nodes() as u32;
        for k in 0..packets {
            let src = NodeId(rng.gen_range(0..nodes));
            let mut dst = NodeId(rng.gen_range(0..nodes));
            while dst == src {
                dst = NodeId(rng.gen_range(0..nodes));
            }
            sim.schedule(SimTime(k * 4), mk_packet(&map, k, src, dst));
        }
        let stats = sim.run();
        prop_assert_eq!(stats.faults.events_applied, 0);
        prop_assert_eq!(stats.fault_drops(), 0);
        prop_assert_eq!(stats.faults.degraded_cycles, 0);
        prop_assert_eq!(stats.faults.window_delivery_ratio(), 1.0);
        prop_assert!(stats.accounted(0));
    }
}
