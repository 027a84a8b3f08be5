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
use ddpm_routing::{RouteState, Router, SelectionPolicy};
use ddpm_sim::event::EventKind;
use ddpm_sim::{
    FlightSnap, InvariantConfig, NoMarking, RetryPolicy, SimConfig, SimSnapshot, SimTime,
    Simulation, SlotSnap, WatchdogConfig,
};
use ddpm_telemetry::{MemorySink, TelemetryConfig};
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

/// The stress config with its packets' telemetry trail kept in `sink`.
fn traced(sink: &MemorySink) -> SimConfig {
    SimConfig {
        telemetry: TelemetryConfig::events_to(ddpm_telemetry::shared(sink.clone())),
        ..stress_cfg()
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

/// The stress scenario's traffic, in schedule order.
fn traffic(topo: &Topology) -> Vec<(SimTime, Packet)> {
    let map = AddrMap::for_topology(topo);
    (0..PACKETS)
        .filter_map(|k| {
            let s = NodeId((k as u32 * 5) % NODES);
            let d = NodeId((k as u32 * 11 + 3) % NODES);
            (s != d).then(|| (SimTime(k * 2), mk_packet(&map, k, s, d)))
        })
        .collect()
}

/// Builds the stress scenario under `cfg` and schedules its traffic +
/// faults.
fn build<'a>(topo: &'a Topology, marker: &'a NoMarking, cfg: SimConfig) -> Simulation<'a> {
    let mut sim = fresh(topo, marker, cfg);
    sim.schedule_faults(&churn(topo));
    for (t, p) in traffic(topo) {
        sim.schedule(t, p);
    }
    sim
}

/// A fresh world for `restore`: the stress scenario's static half
/// under `cfg`, no traffic or faults scheduled.
fn fresh<'a>(topo: &'a Topology, marker: &'a NoMarking, cfg: SimConfig) -> Simulation<'a> {
    Simulation::new(
        topo,
        &FaultSet::none(),
        Router::fully_adaptive_for(topo),
        SelectionPolicy::Random,
        marker,
        cfg,
    )
}

/// The record a packet with handle `handle` scheduled at `time` holds
/// before its injection, built independently of the simulator: fresh
/// routing state with the router's misroute budget, the per-packet RNG
/// seeded by a splitmix of the handle, timestamps at the schedule time,
/// no switch yet, the packet's own marking field on the wire, and every
/// counter and flag clear.
fn scheduled_record(topo: &Topology, handle: usize, time: SimTime, packet: Packet) -> FlightSnap {
    let seed = stress_cfg().seed ^ (handle as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    FlightSnap {
        packet,
        state: RouteState::with_budget(Router::fully_adaptive_for(topo).misroute_budget()),
        rng: SmallRng::seed_from_u64(seed).state(),
        injected_at: time.cycles(),
        inject_attempts: 0,
        reroutes: 0,
        under_fault: false,
        launched: false,
        escaped: false,
        escaped_at: 0,
        last_hop_at: time.cycles(),
        last_node: u32::MAX,
        wire_mf: packet.header.identification.raw(),
    }
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
    let mut sim = build(&topo, &marker, stress_cfg());
    sim.run();
    fingerprint(&sim)
}

#[test]
fn segmented_run_matches_uninterrupted_run() {
    let expected = reference();
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut sim = build(&topo, &marker, stress_cfg());
    let mut limit = 37; // deliberately not aligned to anything
    while !sim.run_until(limit) {
        limit += 113;
    }
    assert_eq!(fingerprint(&sim), expected, "segmentation changed the run");
}

/// Every run here leaves its telemetry trail in a sink, so besides the
/// fingerprint each delivered packet's route is compared: the first
/// segment's trail followed by the resumed segment's must be the
/// uninterrupted run's.
#[test]
fn snapshot_restore_is_bit_identical_at_many_pause_points() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let whole = MemorySink::new();
    let expected = {
        let mut sim = build(&topo, &marker, traced(&whole));
        sim.run();
        fingerprint(&sim)
    };
    // 64..384 land on watchdog-sweep cycles (every 64) that are also
    // injection cycles (every even cycle): the resumed segment opens
    // with a sweep or an injection at the boundary itself.
    for pause in [0, 1, 50, 64, 128, 137, 192, 256, 300, 384, 555, 1000, 2500] {
        let before = MemorySink::new();
        let mut first = build(&topo, &marker, traced(&before));
        let done = first.run_until(pause);
        let snap = first.snapshot();
        assert_eq!(
            snap.live_flights() as u64,
            snap.live_count,
            "snapshot live bookkeeping diverged at pause {pause}"
        );
        // A paused run still stages part of its trail.
        first.telemetry_mut().expect("traced").finish();
        drop(first);
        // A fresh world: same static config, no traffic scheduled — the
        // snapshot carries every pending event.
        let after = MemorySink::new();
        let mut second = fresh(&topo, &marker, traced(&after));
        second.restore(snap);
        if !done {
            second.run();
        }
        assert_eq!(
            fingerprint(&second),
            expected,
            "resume from pause {pause} diverged"
        );
        for d in second.delivered() {
            let id = d.packet.id.0;
            assert_eq!(
                [before.path(id), after.path(id)].concat(),
                whole.path(id),
                "packet {id} took another route after resuming from pause {pause}"
            );
        }
    }
}

#[test]
fn snapshot_roundtrips_through_restore() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut first = build(&topo, &marker, stress_cfg());
    first.run_until(400);
    let snap = first.snapshot();
    let mut second = fresh(&topo, &marker, stress_cfg());
    second.restore(snap.clone());
    let again = second.snapshot();
    assert_eq!(
        format!("{snap:?}"),
        format!("{again:?}"),
        "snapshot → restore → snapshot must be the identity"
    );
}

/// An event for a packet that already left the arena — its handle
/// names no slot — is the typed `stale_handle` violation, never a
/// panic or an act on whichever packet holds a slot now.
#[test]
fn stale_event_for_a_departed_handle_is_a_typed_violation() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut first = build(&topo, &marker, stress_cfg());
    first.run_until(400);
    let mut snap = first.snapshot();
    // Forge the failure the guard exists for: a queued arrival of the
    // first packet, long since delivered or dropped.
    assert!(
        snap.slots.iter().all(|s| s.handle != 0),
        "handle 0 has left"
    );
    let mut forged = *snap.events.last().expect("events pending");
    forged.time = SimTime(snap.now + 1);
    forged.seq = snap.queue_seq;
    forged.kind = EventKind::Arrive {
        pkt: 0,
        node: 3,
        from: 2,
    };
    snap.queue_seq += 1;
    snap.events.push(forged);
    let mut second = fresh(&topo, &marker, stress_cfg());
    second.restore(snap);
    second.run(); // must not panic
    let stale: Vec<_> = second
        .violations()
        .iter()
        .filter(|v| v.invariant == "stale_handle")
        .collect();
    assert_eq!(stale.len(), 1, "one forged event, one violation: {stale:?}");
    assert_eq!(stale[0].pkt, 0, "the violation names the forged handle");
}

/// A packet waits outside the arena until its cycle: a snapshot holds
/// it among the scheduled packets, with its handle, and only launched
/// packets hold a slot — before the run, at pauses, and for a packet
/// scheduled mid-run.
#[test]
fn waiting_packets_snapshot_as_scheduled_not_as_slots() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let schedule = traffic(&topo);
    let last = schedule.iter().map(|(t, _)| t.cycles()).max().unwrap();
    // `None`: snapshot before the run starts.
    let pauses = std::iter::once(None).chain([0, 1, 50, 137, 300, last].map(Some));
    for pause in pauses {
        let mut sim = build(&topo, &marker, stress_cfg());
        let from = pause.unwrap_or(0);
        let mut want: Vec<(u64, u64, Packet)> = schedule
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| t.cycles() >= from)
            .map(|(h, (t, p))| (t.cycles(), h as u64, *p))
            .collect();
        if let Some(p) = pause {
            assert!(!sim.run_until(p), "pause {p} lies before the run's end");
            let map = AddrMap::for_topology(&topo);
            let packet = mk_packet(&map, 9_999, NodeId(1), NodeId(20));
            let at = SimTime(p + 5);
            let handle = sim.schedule(at, packet);
            assert_eq!(
                handle,
                schedule.len(),
                "a mid-run packet takes the next handle"
            );
            want.push((at.cycles(), handle as u64, packet));
        }
        want.sort_by_key(|&(t, h, _)| (t, h));
        let snap = sim.snapshot();
        assert!(
            snap.slots.iter().all(|s| s.flight.launched),
            "only launched packets hold a slot at pause {pause:?}"
        );
        assert_eq!(snap.scheduled, want, "waiting packets at pause {pause:?}");
        assert_eq!(
            snap.next_handle,
            schedule.len() as u64 + u64::from(pause.is_some())
        );
    }
}

/// A snapshot in the version-3 shape: the packet with the smallest
/// handle still waiting at cycle 50 moved from the scheduled packets
/// into a slot holding `flight`, with its `Inject` queued.
fn v3_shaped(edit: impl FnOnce(&mut FlightSnap)) -> (SimSnapshot, u64) {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let mut first = build(&topo, &marker, stress_cfg());
    first.run_until(50);
    let mut snap = first.snapshot();
    let (at, handle, packet) = snap.scheduled.remove(0);
    let mut flight = scheduled_record(&topo, handle as usize, SimTime(at), packet);
    edit(&mut flight);
    let pos = snap.slots.partition_point(|s| s.handle < handle);
    snap.slots.insert(pos, SlotSnap { handle, flight });
    let mut inject = *snap.events.last().expect("events pending");
    inject.time = SimTime(at);
    inject.seq = snap.queue_seq;
    inject.kind = EventKind::Inject {
        pkt: handle as usize,
    };
    snap.queue_seq += 1;
    snap.events.push(inject);
    snap.events.sort_by_key(|e| e.canonical_key());
    (snap, handle)
}

/// A never-launched flight exactly as scheduled — how a version-3
/// snapshot holds a waiting packet — goes back to the scheduled
/// packets on restore, and the run continues as if it had never left.
#[test]
fn fresh_flight_in_a_slot_restores_as_a_waiting_packet() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let (snap, handle) = v3_shaped(|_| {});
    let mut second = fresh(&topo, &marker, stress_cfg());
    second.restore(snap);
    let again = second.snapshot();
    assert!(again.slots.iter().all(|s| s.handle != handle));
    assert_eq!(
        again.scheduled[0].1, handle,
        "it waits again, first in line"
    );
    second.run();
    assert_eq!(fingerprint(&second), reference());
}

/// A never-launched flight that does not match its scheduled record —
/// here, its RNG stream was edited — is restored as a live record: the
/// edit survives a snapshot round trip and steers the continued run,
/// which still resumes bit-identically from any later pause.
#[test]
fn edited_uninjected_flight_restores_as_a_live_record() {
    let topo = Topology::torus(&[6, 6]);
    let marker = NoMarking;
    let edited = SmallRng::seed_from_u64(0xED17).state();
    let (snap, _) = v3_shaped(|f| f.rng = edited);

    let mut second = fresh(&topo, &marker, stress_cfg());
    second.restore(snap.clone());
    let again = second.snapshot();
    assert_eq!(
        again.slots, snap.slots,
        "the edited flight must come back exactly as written"
    );
    second.run();
    let edited_run = fingerprint(&second);
    assert_ne!(
        edited_run,
        reference(),
        "the edited RNG stream must steer the resumed run"
    );

    // The edited world itself pauses and resumes bit-identically.
    let mut third = fresh(&topo, &marker, stress_cfg());
    third.restore(snap);
    assert!(!third.run_until(300));
    let mut fourth = fresh(&topo, &marker, stress_cfg());
    fourth.restore(third.snapshot());
    fourth.run();
    assert_eq!(fingerprint(&fourth), edited_run);
}
