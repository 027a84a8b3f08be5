//! End-to-end: a live run checkpointed **through disk** mid-flight,
//! loaded back, restored into a fresh world and continued, reproduces
//! the uninterrupted run bit-for-bit.
//!
//! `ddpm-sim`'s own resume tests pin `snapshot()`/`restore()` in
//! memory; this one additionally crosses the binary codec and the
//! atomic file discipline, so any field the codec drops or distorts
//! shows up as a fingerprint diff here.

use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{
    InvariantConfig, NoMarking, RetryPolicy, SimConfig, SimTime, Simulation, WatchdogConfig,
};
use ddpm_topology::{ChurnConfig, FaultSchedule, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const NODES: u32 = 36;
const PACKETS: u64 = 220;

fn stress_cfg() -> SimConfig {
    SimConfig {
        buffer_packets: 3,
        bit_error_rate: 0.01,
        max_hops: 48,
        record_paths: true,
        retry: RetryPolicy::capped(3, 4, 64),
        watchdog: Some(WatchdogConfig {
            check_period: 64,
            max_age: 512,
            stall_cycles: 4096,
            escape: Some(Router::DimensionOrder),
        }),
        invariants: InvariantConfig::recording(),
        ..SimConfig::seeded(0xC0FFEE)
    }
}

fn churn(topo: &Topology) -> FaultSchedule {
    let mut rng = SmallRng::seed_from_u64(7);
    FaultSchedule::churn(
        topo,
        &ChurnConfig {
            horizon: 600,
            period: 100,
            link_rate: 0.02,
            switch_rate: 0.005,
            down_time: 150,
        },
        move || rng.gen::<f64>(),
    )
}

fn build<'a>(topo: &'a Topology, marker: &'a NoMarking) -> Simulation<'a> {
    let map = AddrMap::for_topology(topo);
    let mut sim = Simulation::new(
        topo,
        &FaultSet::none(),
        Router::fully_adaptive_for(topo),
        SelectionPolicy::Random,
        marker,
        stress_cfg(),
    );
    sim.schedule_faults(&churn(topo));
    for k in 0..PACKETS {
        let s = NodeId((k as u32 * 5) % NODES);
        let d = NodeId((k as u32 * 11 + 3) % NODES);
        if s == d {
            continue;
        }
        sim.schedule(
            SimTime(k * 2),
            Packet {
                id: PacketId(k),
                header: Ipv4Header::new(map.ip_of(s), map.ip_of(d), Protocol::Udp, 64),
                l4: L4::udp(1, 7),
                true_source: s,
                dest_node: d,
                class: TrafficClass::Benign,
            },
        );
    }
    sim
}

fn fingerprint_run(sim: &Simulation<'_>) -> String {
    let mut out = String::new();
    for (i, d) in sim.delivered().iter().enumerate() {
        out.push_str(&format!("D {:?} {:?}\n", d, sim.path(i)));
    }
    for (id, r) in sim.drops() {
        out.push_str(&format!("X {:?} {:?}\n", id, r));
    }
    for v in sim.violations() {
        out.push_str(&format!("V {:?}\n", v));
    }
    out.push_str(&format!("S {:?}\n", sim.stats()));
    out
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddpm-ckpt-e2e-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resume_through_disk_is_bit_identical() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let expected = {
        let mut sim = build(&topo, &marker);
        sim.run();
        fingerprint_run(&sim)
    };

    let dir = tmpdir("resume");
    let fp = ddpm_checkpoint::fingerprint("disk_resume stress scenario");
    for pause in [1, 137, 555] {
        let mut first = build(&topo, &marker);
        let done = first.run_until(pause);
        ddpm_checkpoint::store(&dir, fp, "scenario-json-here", &first.snapshot(), 2)
            .expect("store");
        drop(first);

        let scan = ddpm_checkpoint::latest(&dir, Some(fp)).expect("scan");
        assert!(scan.skipped.is_empty(), "no rejects expected: {:?}", scan.skipped);
        let (_, ckpt) = scan.best.expect("checkpoint present");
        assert_eq!(ckpt.scenario, "scenario-json-here");
        assert_eq!(ckpt.cycle, ckpt.snapshot.now);

        let mut second = Simulation::new(
            &topo,
            &FaultSet::none(),
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &marker,
            stress_cfg(),
        );
        second.restore(ckpt.snapshot);
        if !done {
            second.run();
        }
        assert_eq!(
            fingerprint_run(&second),
            expected,
            "disk resume from pause {pause} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn encode_of_real_snapshot_is_lossless_and_deterministic() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut sim = build(&topo, &marker);
    sim.run_until(400);
    let snap = sim.snapshot();
    let bytes = ddpm_checkpoint::encode_snapshot(&snap);
    assert_eq!(
        bytes,
        ddpm_checkpoint::encode_snapshot(&snap),
        "encoding is a pure function"
    );
    let back = ddpm_checkpoint::decode_snapshot(&bytes).expect("decodes");
    assert_eq!(
        format!("{snap:?}"),
        format!("{back:?}"),
        "codec must preserve every field of a live mid-run snapshot"
    );
}
