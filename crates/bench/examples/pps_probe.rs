//! Quick serial-throughput probe: the 8x8 mesh DOR telemetry-off cell
//! of the criterion bench, timed directly. Handy while tuning the hot
//! path without a full `cargo bench` round.

use ddpm_attack::PacketFactory;
use ddpm_core::DdpmScheme;
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use std::time::Instant;

fn main() {
    let topo = Topology::mesh2d(8);
    let scheme = DdpmScheme::new(&topo).expect("fits");
    let faults = FaultSet::none();
    const PACKETS: u64 = 2_000;
    let mut best = 0f64;
    for _ in 0..15 {
        let map = AddrMap::for_topology(&topo);
        let mut factory = PacketFactory::new(map);
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::ProductiveFirstRandom,
            &scheme,
            SimConfig::seeded(42),
        );
        let n = topo.num_nodes() as u32;
        let t = Instant::now();
        for k in 0..PACKETS {
            let s = NodeId((k as u32 * 13 + 1) % n);
            let d = NodeId((k as u32 * 29 + 7) % n);
            if s == d {
                continue;
            }
            sim.schedule(SimTime(k * 3), factory.benign(s, d, L4::udp(1, 7), 128));
        }
        sim.run();
        let pps = PACKETS as f64 / t.elapsed().as_secs_f64();
        best = best.max(pps);
    }
    println!("best {best:.0} pps");
}
