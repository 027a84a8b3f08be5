//! Snapshot/restore bit-identity for the event loop.
//!
//! The checkpoint contract (`ddpm-checkpoint` builds on it): a run
//! paused at **any** event boundary via `run_until`, snapshotted,
//! restored into a freshly built simulation and continued, produces
//! exactly the deliveries, drops, violations and statistics of the
//! uninterrupted run. These tests pin that contract on a scenario with
//! every piece of machinery live at once — dynamic fault churn, the
//! watchdog, injection/reroute retries, bit errors, tight buffers and
//! the invariant checker — so no dynamic state can hide outside the
//! snapshot.

use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{
    InvariantConfig, NoMarking, RetryPolicy, SimConfig, SimTime, Simulation, WatchdogConfig,
};
use ddpm_topology::{ChurnConfig, FaultSchedule, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Builds the stress scenario and schedules its traffic + faults.
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
        sim.schedule(SimTime(k * 2), mk_packet(&map, k, s, d));
    }
    sim
}

/// Everything observable about a finished run, as one comparable string.
fn fingerprint(sim: &Simulation<'_>) -> String {
    let mut out = String::new();
    for d in sim.delivered() {
        out.push_str(&format!("D {:?}\n", d));
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

fn reference() -> String {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut sim = build(&topo, &marker);
    sim.run();
    fingerprint(&sim)
}

#[test]
fn segmented_run_matches_uninterrupted_run() {
    let expected = reference();
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut sim = build(&topo, &marker);
    let mut limit = 37; // deliberately not aligned to anything
    while !sim.run_until(limit) {
        limit += 113;
    }
    assert_eq!(fingerprint(&sim), expected, "segmentation changed the run");
}

#[test]
fn snapshot_restore_is_bit_identical_at_many_pause_points() {
    let expected = reference();
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    // 64..384 land on watchdog-sweep cycles (every 64) that are also
    // injection cycles (every even cycle): the resumed segment opens
    // with a sweep or an injection at the boundary itself.
    for pause in [0, 1, 50, 64, 128, 137, 192, 256, 300, 384, 555, 1000, 2500] {
        let mut first = build(&topo, &marker);
        let done = first.run_until(pause);
        let snap = first.snapshot();
        assert_eq!(
            snap.live_flights() as u64,
            snap.live_count,
            "snapshot live bookkeeping diverged at pause {pause}"
        );
        drop(first);
        // A fresh world: same static config, no traffic scheduled — the
        // snapshot carries every pending event.
        let mut second = Simulation::new(
            &topo,
            &FaultSet::none(),
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &marker,
            stress_cfg(),
        );
        second.restore(snap);
        if !done {
            second.run();
        }
        assert_eq!(
            fingerprint(&second),
            expected,
            "resume from pause {pause} diverged"
        );
    }
}

#[test]
fn snapshot_roundtrips_through_restore() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut first = build(&topo, &marker);
    first.run_until(400);
    let snap = first.snapshot();
    let mut second = Simulation::new(
        &topo,
        &FaultSet::none(),
        Router::fully_adaptive_for(&topo),
        SelectionPolicy::Random,
        &marker,
        stress_cfg(),
    );
    second.restore(snap.clone());
    let again = second.snapshot();
    assert_eq!(
        format!("{snap:?}"),
        format!("{again:?}"),
        "snapshot → restore → snapshot must be the identity"
    );
}

/// A stale handle whose arena slot sits at the generation-counter
/// ceiling is still detected as the typed `stale_handle` violation —
/// wraparound can never panic or resurrect a freed packet.
#[test]
fn stale_event_near_generation_wraparound_is_a_typed_violation() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut first = build(&topo, &marker);
    first.run_until(1);
    let mut snap = first.snapshot();
    // Forge the failure the guard exists for: a queued event whose
    // packet's slot was freed — with the generation counter parked at
    // the ceiling, one bump away from wrapping to 0.
    let victim = snap
        .slots
        .iter()
        .position(|s| s.flight.as_ref().is_some_and(|f| !f.launched))
        .expect("a not-yet-launched packet with a queued Inject");
    snap.slots[victim].flight = None;
    snap.slots[victim].generation = u32::MAX;
    let mut second = Simulation::new(
        &topo,
        &FaultSet::none(),
        Router::fully_adaptive_for(&topo),
        SelectionPolicy::Random,
        &marker,
        stress_cfg(),
    );
    second.restore(snap);
    second.run(); // must not panic
    let stale: Vec<_> = second
        .violations()
        .iter()
        .filter(|v| v.invariant == "stale_handle")
        .collect();
    assert!(
        !stale.is_empty(),
        "freed slot at generation ceiling must surface as stale_handle"
    );
    assert!(
        stale.iter().all(|v| v.pkt == victim as u64),
        "violation must name the forged handle: {stale:?}"
    );
}
