//! Why route-recording traceback fails in direct networks — and DDPM
//! doesn't.
//!
//! ```text
//! cargo run --release --example adaptive_vs_deterministic
//! ```
//!
//! Reproduces the paper's core argument (§4) as a live demo: one flow
//! under dimension-order vs. fully adaptive routing, observed through
//! DPM signatures and DDPM identifications side by side.

use ddpm::prelude::*;
use std::collections::HashSet;

fn run_flow(
    topo: &Topology,
    router: Router,
    policy: SelectionPolicy,
    marker: &dyn Marker,
    packets: u64,
) -> (Vec<Delivered>, Vec<Vec<NodeId>>) {
    let faults = FaultSet::none();
    let map = AddrMap::for_topology(topo);
    let mut factory = PacketFactory::new(map);
    let mut sim = Simulation::new(
        topo,
        &faults,
        router,
        policy,
        marker,
        SimConfig {
            record_paths: true,
            ..SimConfig::seeded(64)
        },
    );
    let src = NodeId(0);
    let dst = NodeId(topo.num_nodes() as u32 - 1);
    for k in 0..packets {
        sim.schedule(SimTime(k * 8), factory.benign(src, dst, L4::udp(1, 7), 128));
    }
    sim.run();
    let paths = (0..sim.delivered().len())
        .map(|i| sim.path(i).expect("paths are recorded").to_vec())
        .collect();
    (sim.into_delivered(), paths)
}

fn main() {
    let topo = Topology::mesh2d(8);
    println!("one flow, corner to corner on a {topo}, 300 packets\n");

    for (router, policy, label) in [
        (
            Router::DimensionOrder,
            SelectionPolicy::First,
            "dimension-order (stable routes)",
        ),
        (
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            "minimal adaptive (unstable routes)",
        ),
        (
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            "fully adaptive (unstable + non-minimal)",
        ),
    ] {
        println!("== {label} ==");

        // How many distinct paths did the flow actually take?
        let (plain, plain_paths) = run_flow(&topo, router, policy, &NoMarking, 300);
        let paths: HashSet<_> = plain_paths.into_iter().collect();
        let hops: HashSet<u32> = plain.iter().map(|d| d.hops).collect();
        println!(
            "  distinct paths taken : {:4}   hop counts seen: {:?}",
            paths.len(),
            {
                let mut h: Vec<u32> = hops.into_iter().collect();
                h.sort_unstable();
                h
            }
        );

        // DPM: one signature per path shape -> fragmentation.
        let (dpm_runs, _) = run_flow(&topo, router, policy, &DpmScheme::new(), 300);
        let sigs: HashSet<u16> = dpm_runs
            .iter()
            .map(|d| d.packet.header.identification.raw())
            .collect();
        println!(
            "  DPM signatures       : {:4}   (victim must learn & block each one)",
            sigs.len()
        );

        // DDPM: every packet identifies the same — correct — source.
        let scheme = DdpmScheme::new(&topo).expect("fits");
        let (ddpm_runs, _) = run_flow(&topo, router, policy, &scheme, 300);
        let ids: HashSet<Option<NodeId>> = ddpm_runs
            .iter()
            .map(|d| {
                scheme
                    .attribute(
                        &topo,
                        &topo.coord(d.packet.dest_node),
                        d.packet.header.identification,
                    )
                    .single()
            })
            .collect();
        println!(
            "  DDPM identifications : {:4}   -> {:?}\n",
            ids.len(),
            ids.iter().collect::<Vec<_>>()
        );
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&Some(NodeId(0))));
    }

    println!(
        "takeaway: adaptive routing multiplies what a path-recording scheme must\n\
         learn, while DDPM's answer never changes — the paper's §5 claim."
    );
}
