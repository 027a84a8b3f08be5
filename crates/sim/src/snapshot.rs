//! Complete dynamic simulator state as plain data, for checkpointing.
//!
//! A [`SimSnapshot`] captures everything about a run that *changes* as
//! simulated time passes: the event queue (wheel **and** heap
//! spillover, with the tie-break sequence counter), the packets in
//! flight by handle (including each packet's private RNG stream
//! position), the packets scheduled and not yet admitted, the traffic
//! source's cursor, the dense port busy array, live faults,
//! statistics, the delivered/drop logs that feed the scenario digest,
//! and the watchdog/invariant-checker state.
//!
//! What it deliberately does **not** capture is the *static* half of a
//! simulation — topology, router, marker, filter, config — and the
//! traffic source's waiting packets, which the driver reconstructs
//! deterministically from the scenario description before calling
//! [`crate::Simulation::restore`] and [`crate::Simulation::attach`]. The `ddpm-checkpoint`
//! crate owns the on-disk encoding of this struct plus a fingerprint
//! of that static half, so a snapshot can never be restored into a
//! mismatched world.
//!
//! The contract: `snapshot()` at any event boundary, `restore()` into
//! a freshly built simulation, and the continued run is bit-identical
//! to the uninterrupted one — same deliveries, drops, violations,
//! statistics and therefore the same `ScenarioOutcome.digest`.

use crate::event::Event;
use crate::invariant::Violation;
use crate::network::{Delivered, DropReason};
use crate::stats::SimStats;
use ddpm_net::{Packet, PacketId};
use ddpm_routing::RouteState;
use ddpm_telemetry::PacketEvent;
use ddpm_topology::NodeId;

/// One in-flight packet's complete dynamic state.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightSnap {
    /// The packet itself (header, transport, ground truth).
    pub packet: Packet,
    /// Switch-visible routing bookkeeping.
    pub state: RouteState,
    /// The packet's private RNG stream position (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Cycle the packet was injected.
    pub injected_at: u64,
    /// Recorded node path (empty unless `record_paths`).
    pub path: Vec<NodeId>,
    /// Source-side injection attempts so far.
    pub inject_attempts: u32,
    /// Reroute retries so far at the current stranding.
    pub reroutes: u32,
    /// True if the packet was injected while faults were active.
    pub under_fault: bool,
    /// True once the packet actually entered the network.
    pub launched: bool,
    /// True once the watchdog moved it onto the escape router.
    pub escaped: bool,
    /// Cycle of the escape, if any.
    pub escaped_at: u64,
    /// Cycle of the packet's most recent hop.
    pub last_hop_at: u64,
    /// Switch currently holding (or last seen holding) the packet.
    pub last_node: u32,
    /// Marking-field value as last observed on the wire.
    pub wire_mf: u16,
}

/// One packet in flight, named by its handle.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotSnap {
    /// The packet's handle (its RNG seed and same-cycle tie-break).
    pub handle: u64,
    /// The packet's dynamic state.
    pub flight: FlightSnap,
}

/// Complete dynamic simulator state at one event boundary.
#[derive(Clone, Debug)]
pub struct SimSnapshot {
    /// Simulated time of the last processed event.
    pub now: u64,
    /// Every pending event in canonical order (wheel + spillover); a
    /// packet event names its packet by handle.
    pub events: Vec<Event>,
    /// The queue's insertion-sequence counter.
    pub queue_seq: u64,
    /// The packets in flight, by ascending handle.
    pub slots: Vec<SlotSnap>,
    /// The next handle `Simulation::schedule` hands out.
    pub next_handle: u64,
    /// Packets scheduled and not yet admitted, as `(time, handle,
    /// packet)` in admission order.
    pub scheduled: Vec<(u64, u64, Packet)>,
    /// Packets the attached traffic source had yielded, when the run
    /// has one.
    pub source_cursor: Option<u64>,
    /// Dense per-port busy-until times.
    pub ports: Vec<u64>,
    /// Run statistics accumulated so far.
    pub stats: SimStats,
    /// Delivered-packet log (feeds the scenario digest).
    pub delivered: Vec<Delivered>,
    /// Node path of each delivery, parallel to `delivered`; empty
    /// unless `record_paths`.
    pub paths: Vec<Vec<NodeId>>,
    /// Drop log (feeds the scenario digest).
    pub drops: Vec<(PacketId, DropReason)>,
    /// Failed links of the live fault set (normalised, sorted).
    pub failed_links: Vec<(NodeId, NodeId)>,
    /// Failed switches of the live fault set (sorted).
    pub failed_switches: Vec<NodeId>,
    /// Cycle at which the current degraded window opened, if faults
    /// are active.
    pub degraded_since: Option<u64>,
    /// Cycle of the repair that restored full health, while awaiting
    /// the next delivery (time-to-recovery sampling).
    pub pending_recovery: Option<u64>,
    /// Packets currently materialised in the network.
    pub live_count: u64,
    /// Conservation mirror: packets launched so far.
    pub injected_total: u64,
    /// Conservation mirror: packets delivered so far.
    pub delivered_total: u64,
    /// Conservation mirror: packets dropped so far.
    pub dropped_total: u64,
    /// `(cycle, node)` of the most recently retired packet
    /// (attribution for events that race a packet's death).
    pub gone_info: (u64, u32),
    /// Cycle of the last global progress (delivery or forward).
    pub last_progress: u64,
    /// True while a watchdog sweep is scheduled.
    pub watchdog_armed: bool,
    /// High-water mark of packet-arena bytes so far.
    pub peak_arena_bytes: u64,
    /// High-water mark of packets in flight so far.
    pub peak_in_flight: u64,
    /// Invariant violations recorded so far.
    pub violations: Vec<Violation>,
    /// The invariant checker's bounded trace tail, oldest first.
    pub trace_tail: Vec<PacketEvent>,
    /// True once the checker's synthetic self-test violation fired.
    pub selftest_fired: bool,
    /// The marking-plane adversary's dynamic state, when the run has
    /// one. The core simulator neither reads nor writes this — the
    /// scenario driver captures it from `AdversaryModel` at snapshot
    /// time and restores it before resuming, so a resumed adversarial
    /// run tampers bit-identically to the uninterrupted one.
    pub adversary: Option<crate::adversary::AdversaryState>,
}

impl SimSnapshot {
    /// Number of launched packets in this snapshot (recomputed from the
    /// slots; equals [`SimSnapshot::live_count`] for any snapshot the
    /// simulator produced).
    #[must_use]
    pub fn live_flights(&self) -> usize {
        self.slots.iter().filter(|s| s.flight.launched).count()
    }
}
