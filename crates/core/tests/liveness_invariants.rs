//! Liveness and conservation properties of the full marking pipeline.
//!
//! These tests run the real `DdpmScheme` through the simulator with the
//! watchdog and the strict invariant checker armed, under randomised
//! fault churn and retry policies: any conservation breach, marking
//! inconsistency or fault-set incoherence panics the run, so a green
//! property is a machine-checked "zero violations" claim. The second
//! half pins the PR 3 turn-model fix: `Random` selection on a west-first
//! mesh used to livelock (EXPERIMENTS.md E-RESIL); it now delivers every
//! benign packet.

use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{InvariantConfig, RetryPolicy, SimConfig, SimTime, Simulation, WatchdogConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Packet conservation (`injected == delivered + dropped`) and every
    /// other runtime invariant hold across random fault schedules and
    /// retry policies, with the watchdog escalating whatever the churn
    /// wedges. The checker runs strict, so a violation aborts the case.
    #[test]
    fn conservation_under_random_churn_and_retries(
        seed in any::<u64>(),
        side in 4u16..7,
        burst in 40u64..160,
        link_rate in 0.0f64..0.08,
        switch_rate in 0.0f64..0.02,
        down_time in 50u64..400,
        retries in 0u32..6,
        age_idx in 0usize..3,
    ) {
        let max_age = [96u64, 512, 2048][age_idx];
        let topo = Topology::torus(&[side, side]);
        let n = u32::from(side) * u32::from(side);
        let map = AddrMap::for_topology(&topo);
        let scheme = DdpmScheme::new(&topo).expect("torus fits the codec");
        let churn = FaultSchedule::churn(
            &topo,
            &ChurnConfig {
                horizon: 2000,
                period: 100,
                link_rate,
                switch_rate,
                down_time,
            },
            {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE);
                move || rng.gen::<f64>()
            },
        );
        let cfg = SimConfig {
            watchdog: Some(WatchdogConfig {
                check_period: 64,
                max_age,
                stall_cycles: 4096,
                escape: Some(Router::DimensionOrder),
            }),
            invariants: InvariantConfig::strict(),
            retry: if retries > 0 {
                RetryPolicy::capped(retries, 4, 256)
            } else {
                RetryPolicy::OFF
            },
            ..SimConfig::seeded(seed)
        };
        let mut sim = Simulation::new(
            &topo,
            &FaultSet::none(),
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &scheme,
            cfg,
        );
        sim.schedule_faults(&churn);
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..burst {
            let s = NodeId(rng.gen_range(0..n));
            let d = NodeId(rng.gen_range(0..n));
            if s == d {
                continue;
            }
            sim.schedule(SimTime(rng.gen_range(0..600)), mk_packet(&map, k, s, d));
        }
        let stats = sim.run();
        prop_assert!(stats.accounted(0), "conservation violated: {stats:?}");
        prop_assert!(
            sim.violations().is_empty(),
            "invariant violations: {:?}",
            sim.violations()
        );
        prop_assert_eq!(
            stats.benign.injected,
            stats.benign.delivered + stats.benign.dropped(),
            "every packet must end in a typed outcome"
        );
    }

    /// The PR 3 selection fix, as a property: `Random` on a turn-model
    /// router (upgraded internally to productive-first) delivers 100% of
    /// a benign workload on a healthy mesh, for any seed and load.
    #[test]
    fn west_first_random_delivers_everything_on_a_healthy_mesh(
        seed in any::<u64>(),
        burst in 20u64..120,
    ) {
        let topo = Topology::mesh2d(8);
        let map = AddrMap::for_topology(&topo);
        let scheme = DdpmScheme::new(&topo).expect("mesh fits the codec");
        // Watchdog armed as a backstop: if the livelock ever regressed,
        // the run would end in typed drops (caught by the delivery
        // assert) instead of hanging the test suite.
        let cfg = SimConfig {
            watchdog: Some(WatchdogConfig::default()),
            invariants: InvariantConfig::strict(),
            ..SimConfig::seeded(seed)
        };
        let mut sim = Simulation::new(
            &topo,
            &FaultSet::none(),
            Router::WestFirst,
            SelectionPolicy::Random,
            &scheme,
            cfg,
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..burst {
            let s = NodeId(rng.gen_range(0..64));
            let d = NodeId(rng.gen_range(0..64));
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k % 16), mk_packet(&map, k, s, d));
        }
        let stats = sim.run();
        prop_assert_eq!(
            stats.benign.delivered,
            stats.benign.injected,
            "west-first + Random must deliver everything: {:?}",
            stats
        );
        prop_assert_eq!(stats.watchdog.livelocks, 0, "no watchdog escalations expected");
    }
}
