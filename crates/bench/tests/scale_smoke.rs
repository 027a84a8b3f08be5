//! Release-only memory-ceiling regressions for both injection paths.
//!
//! E-SCALE's claim is that a full-fabric flood runs in a bounded
//! footprint: the wave-scheduled injector keeps the packet arena and the
//! waiting backlog proportional to the in-flight window, never the
//! schedule length. The first test re-runs the 128×128-mesh cell (the
//! largest 2-D fabric Table 3 covers) and pins hard byte ceilings on
//! the peaks [`ddpm_sim::SimStats`] reports, so a regression that
//! reintroduces whole-schedule materialisation — or fattens the
//! per-packet arena rows — fails CI instead of silently eating memory.
//! The second pins the eager path ([`Simulation::schedule`] before the
//! first cycle): a scheduled packet takes an arena slot only while it
//! is in flight, so the arena is sized by the packets in flight, never
//! by the schedule.
//!
//! Measured peaks (2026-08, full cell, 32 000 packets): the arena
//! topped out at 1 868 696 B, a row per packet ever admitted, and the
//! waiting backlog at 4 111 packets (16 zombies × 256-round waves,
//! plus the partial wave in flight). The budgets below give roughly 2×
//! headroom over those numbers — tight enough that going
//! resident-per-scheduled-packet (~100 B × 32 000 extra) blows it.
//! Since slots recycle (2026-10) the arena peaks at 9 450 B.
//!
//! Debug builds skip: the cell is a 32 000-packet × ~130-hop flood
//! and only finishes promptly in release (CI runs
//! `cargo test --release -p ddpm-bench --test scale_smoke`).

use ddpm_bench::exp_scale;
use ddpm_bench::RunCtx;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{NoMarking, SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Ceiling on the in-flight packet arena for the 128×128 cell.
const ARENA_BUDGET_BYTES: u64 = 4 << 20;
/// Exact size of the per-port byte table: 16 384 nodes × 4 ports × 8 B.
const PORT_TABLE_BYTES: u64 = 16_384 * 4 * 8;
/// Ceiling on the staged backlog: one full wave (16 zombies ×
/// 256 rounds) plus one round of slack for the partial wave in flight.
const STAGED_BUDGET_PKTS: u64 = 16 * 256 + 16;

#[test]
fn mesh128_flood_stays_under_committed_memory_budget() {
    if cfg!(debug_assertions) {
        eprintln!("scale_smoke: skipped in debug (release-only memory gate)");
        return;
    }
    let ctx = RunCtx::default();
    let topo = Topology::mesh(&[128, 128]);
    let cell = exp_scale::run_cell(&ctx, "mesh128x128", &topo, 0x5CA1_E204)
        .expect("128x128 mesh is within Table 3's DDPM bounds");

    assert_eq!(cell.nodes, 16_384);
    assert_eq!(cell.injected, 32_000, "flood size is deterministic");
    assert_eq!(
        cell.delivered, 32_000,
        "a phase-staggered 0.25 pkt/cycle flood saturates without drops"
    );
    assert!(
        cell.attribution_exact,
        "DDPM census must name exactly the true zombie set at full scale"
    );
    assert!(
        cell.peak_arena_bytes <= ARENA_BUDGET_BYTES,
        "packet arena peaked at {} B, budget {} B — the arena no \
         longer holds only the packets in flight",
        cell.peak_arena_bytes,
        ARENA_BUDGET_BYTES
    );
    assert_eq!(
        cell.port_bytes, PORT_TABLE_BYTES,
        "per-port accounting table changed size"
    );
    assert!(
        cell.staged_peak <= STAGED_BUDGET_PKTS,
        "waiting backlog peaked at {} packets, budget {} — wave \
         draining stopped bounding the schedule",
        cell.staged_peak,
        STAGED_BUDGET_PKTS
    );
}

/// Packets in the eager flood.
const EAGER_PACKETS: u64 = 100_000;
/// One arena slot row: handle, flags, wire MF, last switch, two
/// counters, three timestamps and the cold-record pointer.
const SLOT_ROW_BYTES: u64 = 55;
/// One boxed cold record: packet, route state, RNG stream and path.
const COLD_RECORD_BYTES: u64 = 120;
/// Packets in flight at once. The flood below loads each port to about
/// a quarter of its capacity and keeps a few hundred packets in
/// flight; this allows 4 096.
const IN_FLIGHT_CEILING: u64 = 4_096;

#[test]
fn eager_flood_arena_tracks_packets_in_flight() {
    if cfg!(debug_assertions) {
        eprintln!("scale_smoke: skipped in debug (release-only memory gate)");
        return;
    }
    // The arena holds one slot row and one cold record per packet in
    // flight at its peak, and nothing per scheduled packet. Measured
    // (2026-10): 76 475 B for 437 packets in flight, under a 716 800 B
    // budget. An arena with a row per scheduled packet reads 5 500 000 B
    // or more; the one with a row and a stored packet per scheduled
    // packet that preceded it peaked at 9 951 480 B.
    let budget = IN_FLIGHT_CEILING * (SLOT_ROW_BYTES + COLD_RECORD_BYTES);
    assert!(
        EAGER_PACKETS * SLOT_ROW_BYTES > budget,
        "the budget must refuse one slot row per scheduled packet"
    );
    let topo = Topology::torus(&[16, 16]);
    let map = AddrMap::for_topology(&topo);
    let nodes = topo.num_nodes();
    let marker = NoMarking;
    let mut sim = Simulation::new(
        &topo,
        &FaultSet::none(),
        Router::DimensionOrder,
        SelectionPolicy::First,
        &marker,
        SimConfig::seeded(0xEA6E),
    );
    // Every node sends one packet every 32 cycles to a random other
    // node: 16×16 torus, 8 hops on average, 4 cycles per packet per port.
    let mut rng = SmallRng::seed_from_u64(0xF100D);
    for k in 0..EAGER_PACKETS {
        let src = NodeId((k % nodes) as u32);
        let dst = loop {
            let d = NodeId(rng.gen_range(0..nodes as u32));
            if d != src {
                break d;
            }
        };
        let packet = Packet {
            id: PacketId(k),
            header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
            l4: L4::udp(1, 7),
            true_source: src,
            dest_node: dst,
            class: TrafficClass::Attack,
        };
        sim.schedule(SimTime(k / nodes * 32 + k % 32), packet);
    }
    let stats = sim.run();
    let total = stats.total();
    assert_eq!(total.injected, EAGER_PACKETS);
    assert_eq!(total.delivered + total.dropped(), EAGER_PACKETS);
    eprintln!(
        "scale_smoke: eager arena peak {} B, {} packets in flight",
        stats.peak_arena_bytes, stats.peak_in_flight
    );
    assert!(
        stats.peak_in_flight <= IN_FLIGHT_CEILING,
        "{} packets in flight at once, ceiling {IN_FLIGHT_CEILING}",
        stats.peak_in_flight
    );
    assert!(
        stats.peak_arena_bytes <= stats.peak_in_flight * (SLOT_ROW_BYTES + COLD_RECORD_BYTES),
        "eager packet arena peaked at {} B for {} packets in flight — the \
         arena holds more than the packets in flight",
        stats.peak_arena_bytes,
        stats.peak_in_flight
    );
    assert!(
        stats.peak_arena_bytes <= budget,
        "eager packet arena peaked at {} B, budget {budget} B — scheduled \
         packets hold arena memory before injection",
        stats.peak_arena_bytes
    );
}
