//! The simulation engine.

use crate::config::SimConfig;
use crate::event::{Event, EventKind, EventQueue};
use crate::filter::{Filter, NoFilter};
use crate::invariant::{InvariantChecker, Violation};
use crate::mark::{MarkEnv, Marker};
use crate::snapshot::{FlightSnap, SimSnapshot, SlotSnap};
use crate::source::{Scheduled, TrafficSource};
use crate::stats::SimStats;
use crate::time::SimTime;
use ddpm_net::{Packet, TrafficClass};
use ddpm_routing::{Candidate, RouteCtx, RouteState, Router, SelectionPolicy};
use ddpm_telemetry::{EventKind as TelEvent, PacketEvent, RetryKind, Telemetry};
use ddpm_topology::{
    Coord, Direction, FaultEvent, FaultSchedule, FaultSet, NodeId, Topology,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Why a packet was discarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Output buffer full — congestion loss, the resource DDoS exhausts.
    BufferOverflow,
    /// TTL reached zero.
    TtlExpired,
    /// Routing offered no admissible output port (Fig. 2 blocking).
    Blocked,
    /// Per-packet hop limit hit (livelock guard).
    HopLimit,
    /// Discarded by an installed mitigation filter.
    Filtered,
    /// Header damaged in transit; checksum verification failed at the
    /// receiving switch.
    Corrupted,
    /// Lost fail-stop at a switch that failed: the packet was queued at
    /// the switch or committed to one of its links when it died.
    SwitchDown,
    /// Lost on the wire of a link that failed mid-flight.
    LinkDown,
    /// Stranded by faults with no admissible output port; the reroute
    /// retry budget ([`crate::RetryPolicy`]) ran out before the network
    /// healed.
    RerouteExhausted,
    /// The packet's source switch was down at injection time and the
    /// injection retry budget ran out.
    SourceDown,
    /// The liveness watchdog escalated: the packet exceeded
    /// [`crate::WatchdogConfig::max_age`], was rerouted onto the escape
    /// router, and still failed to arrive within another `max_age`.
    LivelockEscaped,
    /// The liveness watchdog declared a network-wide deadlock (no
    /// delivery or forward for [`crate::WatchdogConfig::stall_cycles`])
    /// and dropped every live packet — a typed outcome where a lesser
    /// simulator would hang.
    DeadlockVictim,
}

impl DropReason {
    /// Stable identifier used in telemetry `drop` events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BufferOverflow => "buffer_overflow",
            Self::TtlExpired => "ttl_expired",
            Self::Blocked => "blocked",
            Self::HopLimit => "hop_limit",
            Self::Filtered => "filtered",
            Self::Corrupted => "corrupted",
            Self::SwitchDown => "switch_down",
            Self::LinkDown => "link_down",
            Self::RerouteExhausted => "reroute_exhausted",
            Self::SourceDown => "source_down",
            Self::LivelockEscaped => "livelock_escaped",
            Self::DeadlockVictim => "deadlock_victim",
        }
    }
}

/// A packet that reached its destination compute node.
///
/// A long run keeps one record per delivery (the victim's view), so
/// the record's size is most of such a run's memory: 824 106 records
/// on perfbench's `adaptive-auth` workload. The path a packet took is
/// not recorded: a caller that wants it rebuilds it from the telemetry
/// trail (each `Forward` event names its `next` switch).
#[derive(Clone, Debug)]
pub struct Delivered {
    /// The packet as received — its header carries the final marking
    /// field the victim analyses.
    pub packet: Packet,
    /// When the source compute node injected it.
    pub injected_at: SimTime,
    /// When the destination compute node received it.
    pub delivered_at: SimTime,
    /// Switch-to-switch hops taken.
    pub hops: u32,
}

// The delivery log grows by one record per delivered packet; a larger
// record costs every long run memory in proportion.
const _: () = assert!(std::mem::size_of::<Delivered>() == 72);

impl Delivered {
    /// End-to-end latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }
}

struct InFlight {
    packet: Packet,
    state: RouteState,
    /// Per-packet RNG stream, seeded from `(SimConfig::seed, handle)`.
    /// Giving every packet its own stream (instead of one global RNG
    /// consumed in processing order) makes each packet's random
    /// decisions independent of how *other* packets' events interleave,
    /// and lets segmented and resumed runs reproduce it bit-for-bit.
    rng: SmallRng,
    injected_at: SimTime,
    /// Injection attempts made against a downed source switch.
    inject_attempts: u32,
    /// Reroute retries consumed while stranded (cumulative per packet).
    reroutes: u32,
    /// True if injected while at least one fault was active (feeds the
    /// fault-window delivery ratio).
    under_fault: bool,
    /// True once the injection was counted (`injected` incremented) —
    /// only launched packets participate in conservation and watchdog
    /// accounting.
    launched: bool,
    /// True once the watchdog rerouted the packet onto the escape
    /// router.
    escaped: bool,
    /// Cycle of the escape (starts the second `max_age` grace period).
    escaped_at: u64,
    /// Cycle of the packet's most recent hop (injection counts as hop
    /// zero). Recent hops with an over-age packet mean livelock; a long
    /// hop drought means starvation — and, after an escape, a drought
    /// is what escalates to the typed drop (a packet still hopping
    /// under the escape router is converging and is left alone).
    last_hop_at: u64,
    /// Last switch that handled the packet — where watchdog actions and
    /// drops are attributed.
    last_node: u32,
    /// Marking-field value when the packet was committed to the wire;
    /// the checker asserts links never rewrite it.
    wire_mf: u16,
}

/// A packet's cold payload: the structured fields (header, routing
/// state, RNG) an event touches at most a handful of times. Boxed
/// behind one pointer per slot so the dead majority of a long flood
/// costs only the hot scalars below.
struct PktCold {
    packet: Packet,
    state: RouteState,
    rng: SmallRng,
}

// Every packet in flight holds one boxed cold record; a larger record
// costs a flood's peak memory in proportion.
const _: () = assert!(std::mem::size_of::<PktCold>() == 96);

/// [`Pkts::flags`] bits.
const F_UNDER_FAULT: u8 = 1;
const F_LAUNCHED: u8 = 1 << 1;
const F_ESCAPED: u8 = 1 << 2;

/// [`Pkts::handles`] entry of a free slot.
const FREE: u64 = u64::MAX;

/// Panic message shared by every accessor that requires residency.
const RESIDENT: &str = "packet resident in the arena";

/// Fabrics up to this many nodes get a dense node → [`Coord`] table on
/// the simulation (the per-hop `coord()` divisions dominate the release
/// hot path otherwise). Covers every Table 3 maximum (2^16 nodes) at
/// ~2 MiB; larger fabrics fall back to computing so memory stays
/// bounded by the O(N) port array alone.
const COORD_CACHE_MAX_NODES: u64 = 1 << 17;

/// In-flight packet storage, struct-of-arrays: a slot index addresses a
/// set of parallel dense arrays. The scalars the event loop and
/// watchdog sweeps actually read (flags, timestamps, last switch, wire
/// marking field) live in their own cache-friendly arrays; the
/// structured payload lives in one boxed [`PktCold`] per occupied slot.
///
/// A packet takes a slot when the simulator admits it from its traffic
/// source, just before its injection cycle, and gives the slot back to
/// the free list when it is delivered or dropped. The arena therefore
/// holds the packets in flight: its high-water mark is the peak number
/// of packets in flight, not the length of the schedule.
///
/// A slot stores the handle of the packet it holds. The handle, not the
/// slot, is the packet's identity — its canonical `pkey` and the seed
/// of its RNG stream — and every packet event carries both. An event
/// whose handle no longer matches its slot's is stale: the stored
/// handle is the slot's generation, one that never wraps.
struct Pkts {
    /// Handle of the packet in each slot, [`FREE`] when empty.
    handles: Vec<u64>,
    /// Packed `F_*` booleans.
    flags: Vec<u8>,
    /// Marking-field value committed to the wire (checker invariant).
    wire_mf: Vec<u16>,
    /// Last switch that handled the packet (`u32::MAX` pre-injection).
    last_node: Vec<u32>,
    /// Injection attempts made against a downed source switch.
    inject_attempts: Vec<u32>,
    /// Reroute retries consumed while stranded.
    reroutes: Vec<u32>,
    injected_at: Vec<SimTime>,
    /// Cycle of the most recent hop (injection counts as hop zero).
    last_hop_at: Vec<u64>,
    /// Cycle of the watchdog escape, when `F_ESCAPED` is set.
    escaped_at: Vec<u64>,
    cold: Vec<Option<Box<PktCold>>>,
    /// Empty slots, reused last-freed first.
    vacant: Vec<u32>,
    /// Occupied slots: packets in flight.
    resident: usize,
    /// High-water mark of `resident` ([`SimStats::peak_in_flight`]).
    peak_resident: usize,
    /// High-water mark of [`Pkts::bytes`] — the arena term of the
    /// peak-memory telemetry ([`SimStats::peak_arena_bytes`]).
    peak_bytes: u64,
}

impl Pkts {
    fn new() -> Self {
        Self {
            handles: Vec::new(),
            flags: Vec::new(),
            wire_mf: Vec::new(),
            last_node: Vec::new(),
            inject_attempts: Vec::new(),
            reroutes: Vec::new(),
            injected_at: Vec::new(),
            last_hop_at: Vec::new(),
            escaped_at: Vec::new(),
            cold: Vec::new(),
            vacant: Vec::new(),
            resident: 0,
            peak_resident: 0,
            peak_bytes: 0,
        }
    }

    fn len(&self) -> usize {
        self.handles.len()
    }

    /// Approximate heap footprint of the arena in bytes: the dense hot
    /// arrays and one boxed cold record per occupied slot.
    fn bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_slot = (size_of::<u64>()
            + 3 * size_of::<u32>()
            + size_of::<u8>()
            + size_of::<u16>()
            + size_of::<SimTime>()
            + 2 * size_of::<u64>()
            + size_of::<Option<Box<PktCold>>>()) as u64;
        self.len() as u64 * per_slot + self.resident as u64 * size_of::<PktCold>() as u64
    }

    /// Puts `flight` (the packet with handle `handle`) into a free
    /// slot, growing the arena only when none is free, and returns the
    /// slot.
    fn insert(&mut self, handle: u64, flight: InFlight) -> u32 {
        let slot = match self.vacant.pop() {
            Some(s) => s as usize,
            None => {
                let s = self.len();
                self.handles.push(FREE);
                self.flags.push(0);
                self.wire_mf.push(0);
                self.last_node.push(u32::MAX);
                self.inject_attempts.push(0);
                self.reroutes.push(0);
                self.injected_at.push(SimTime::ZERO);
                self.last_hop_at.push(0);
                self.escaped_at.push(0);
                self.cold.push(None);
                s
            }
        };
        self.handles[slot] = handle;
        self.flags[slot] = (u8::from(flight.under_fault) * F_UNDER_FAULT)
            | (u8::from(flight.launched) * F_LAUNCHED)
            | (u8::from(flight.escaped) * F_ESCAPED);
        self.wire_mf[slot] = flight.wire_mf;
        self.last_node[slot] = flight.last_node;
        self.inject_attempts[slot] = flight.inject_attempts;
        self.reroutes[slot] = flight.reroutes;
        self.injected_at[slot] = flight.injected_at;
        self.last_hop_at[slot] = flight.last_hop_at;
        self.escaped_at[slot] = flight.escaped_at;
        self.cold[slot] = Some(Box::new(PktCold {
            packet: flight.packet,
            state: flight.state,
            rng: flight.rng,
        }));
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
        self.peak_bytes = self.peak_bytes.max(self.bytes());
        u32::try_from(slot).expect("fewer than 2^32 packets in flight")
    }

    /// Does slot `slot` hold the packet with handle `handle`?
    fn holds(&self, slot: usize, handle: usize) -> bool {
        self.handles.get(slot) == Some(&(handle as u64))
    }

    /// Gathers slot `i`'s arrays and the given cold record back into
    /// the assembled transfer form.
    fn assemble(&self, i: usize, c: PktCold) -> InFlight {
        InFlight {
            packet: c.packet,
            state: c.state,
            rng: c.rng,
            injected_at: self.injected_at[i],
            inject_attempts: self.inject_attempts[i],
            reroutes: self.reroutes[i],
            under_fault: self.flags[i] & F_UNDER_FAULT != 0,
            launched: self.flags[i] & F_LAUNCHED != 0,
            escaped: self.flags[i] & F_ESCAPED != 0,
            escaped_at: self.escaped_at[i],
            last_hop_at: self.last_hop_at[i],
            last_node: self.last_node[i],
            wire_mf: self.wire_mf[i],
        }
    }

    /// Declares the packet in slot `i` dead: reclaims its cold record
    /// and returns the slot to the free list.
    fn free(&mut self, i: usize) -> InFlight {
        let cold = self.cold[i].take().expect("double drop of a packet");
        self.resident -= 1;
        self.handles[i] = FREE;
        self.vacant.push(i as u32);
        self.assemble(i, *cold)
    }

    // Cold-record accessors. All panic with [`RESIDENT`] on an empty
    // slot — events guarantee residency, and a violation of that is the
    // stale-handle bug the stored handles exist to catch.

    fn packet(&self, i: usize) -> &Packet {
        &self.cold[i].as_ref().expect(RESIDENT).packet
    }

    fn packet_mut(&mut self, i: usize) -> &mut Packet {
        &mut self.cold[i].as_mut().expect(RESIDENT).packet
    }

    fn state(&self, i: usize) -> &RouteState {
        &self.cold[i].as_ref().expect(RESIDENT).state
    }

    fn rng_mut(&mut self, i: usize) -> &mut SmallRng {
        &mut self.cold[i].as_mut().expect(RESIDENT).rng
    }

    /// The whole cold record — the split borrow the marker hooks need
    /// (`&mut packet` and `&mut rng` simultaneously).
    fn cold_mut(&mut self, i: usize) -> &mut PktCold {
        self.cold[i].as_mut().expect(RESIDENT)
    }

    fn flag(&self, i: usize, bit: u8) -> bool {
        self.flags[i] & bit != 0
    }

    fn set_flag(&mut self, i: usize, bit: u8, on: bool) {
        if on {
            self.flags[i] |= bit;
        } else {
            self.flags[i] &= !bit;
        }
    }
}

/// The snapshot form of a record.
fn flight_snap(f: &InFlight) -> FlightSnap {
    FlightSnap {
        packet: f.packet,
        state: f.state,
        rng: f.rng.state(),
        injected_at: f.injected_at.cycles(),
        inject_attempts: f.inject_attempts,
        reroutes: f.reroutes,
        under_fault: f.under_fault,
        launched: f.launched,
        escaped: f.escaped,
        escaped_at: f.escaped_at,
        last_hop_at: f.last_hop_at,
        last_node: f.last_node,
        wire_mf: f.wire_mf,
    }
}

/// A discrete-event simulation run over one network.
///
/// Typical usage:
/// 1. build with [`Simulation::new`] (or [`Simulation::with_filter`]);
/// 2. optionally [`Simulation::schedule_faults`] a dynamic
///    [`FaultSchedule`];
/// 3. [`Simulation::attach`] a [`TrafficSource`], or
///    [`Simulation::schedule`] packets at their injection times, or both;
/// 4. [`Simulation::run`] to quiescence;
/// 5. inspect [`Simulation::stats`], [`Simulation::delivered`] and
///    [`Simulation::drops`].
///
/// The `faults` argument seeds the simulation's **live** fault state;
/// every per-hop routing decision consults the live state, so scheduled
/// [`FaultEvent`]s take effect on packets already in the network.
pub struct Simulation<'a> {
    topo: &'a Topology,
    /// Live fault state: the initial `FaultSet` plus every applied
    /// [`FaultEvent`] so far.
    live: FaultSet,
    router: Router,
    policy: SelectionPolicy,
    marker: &'a dyn Marker,
    filter: &'a dyn Filter,
    cfg: SimConfig,
    queue: EventQueue,
    pkts: Pkts,
    /// Packets given to [`Simulation::schedule`] and not admitted yet.
    scheduled: Scheduled,
    /// The attached traffic source ([`Simulation::attach`]), if any.
    source: Option<Box<dyn TrafficSource + 'a>>,
    /// The next handle [`Simulation::schedule`] hands out.
    next_handle: u64,
    /// The cursor of a restored snapshot's traffic source, until
    /// [`Simulation::attach`] moves the rebuilt source past it.
    resume_cursor: Option<u64>,
    /// Reusable routing-candidate buffer: `forward_from` swaps it out,
    /// fills it via `candidates_into`, and swaps it back, so
    /// steady-state forwarding never allocates.
    cand_buf: Vec<Candidate>,
    /// Dense node → coordinate table. `coord()` divides once per
    /// dimension, which the per-event path pays on every arrival;
    /// memoising it trades `num_nodes * size_of::<Coord>()` bytes for
    /// division-free lookups. Left empty above
    /// [`COORD_CACHE_MAX_NODES`] so giant fabrics stay bounded — the
    /// accessor falls back to computing.
    coords: Vec<Coord>,
    /// Per directed output port: the cycle until which it is busy.
    /// Dense, indexed `node * port_stride + (dim * 2 + sign)` — the
    /// hot-path replacement for the old `HashMap<(u32, Direction), u64>`.
    ports: Vec<u64>,
    /// Ports per switch in the dense table (`2 * ndims`).
    port_stride: usize,
    now: SimTime,
    stats: SimStats,
    delivered: Vec<Delivered>,
    drops: Vec<(ddpm_net::PacketId, DropReason)>,
    /// When the current degraded period started, if one is open.
    degraded_since: Option<u64>,
    /// Set when the last repair restored full health; cleared (and
    /// recorded as time-to-recovery) by the next delivery.
    pending_recovery: Option<u64>,
    /// Live telemetry, `None` when [`SimConfig::telemetry`] is off — the
    /// zero-cost path: every hook below is one `Option` check.
    tele: Option<Box<Telemetry>>,
    /// Packets launched (injection counted) but not yet delivered or
    /// dropped — the `in_flight` term of the conservation invariant.
    live_count: u64,
    /// Running totals mirroring the per-class stats counters, kept so
    /// the per-event conservation check is three integer loads instead
    /// of a full `SimStats::total()` fold.
    injected_total: u64,
    delivered_total: u64,
    dropped_total: u64,
    /// `(packet id, last node)` of the most recent packet to leave the
    /// arena (freed on delivery or drop). The post-event hooks
    /// attribute their checks with this when the event's own packet is
    /// already gone.
    gone_info: (u64, u32),
    /// Cycle of the last delivery or forward: the network-level
    /// progress signal the watchdog's deadlock detector watches.
    last_progress: u64,
    /// True while a watchdog sweep is scheduled. The watchdog arms at
    /// the first injection and disarms when nothing is live.
    watchdog_armed: bool,
    /// Latched by the run close-out (degraded-window accounting,
    /// end-time stamp, telemetry finish) so segmented runs via
    /// [`Simulation::run_until`] finalize exactly once.
    finalized: bool,
    /// Runtime invariant checker (violation log + trace tail).
    checker: InvariantChecker,
    /// Cached "is anyone observing lifecycle events" flag — telemetry
    /// or the checker's trace tail. Hoisted out of the hot loop: both
    /// inputs are fixed for a run.
    obs: bool,
    /// Dense per-node "marking plane compromised" flags from
    /// [`SimConfig::adversary`] (empty when every switch is honest).
    /// The core only *flags* — `MarkTamper` telemetry at compromised
    /// forwards — the tampering itself lives in the driver's `Marker`.
    compromised: Vec<bool>,
    /// The adversary behavior name carried by `MarkTamper` events.
    adv_behavior: &'static str,
    /// Cached [`InvariantChecker::enabled`], likewise fixed for a run.
    checking: bool,
}

static NO_FILTER: NoFilter = NoFilter;

impl<'a> Simulation<'a> {
    /// Builds a simulation without mitigation filters.
    #[must_use]
    pub fn new(
        topo: &'a Topology,
        faults: &FaultSet,
        router: Router,
        policy: SelectionPolicy,
        marker: &'a dyn Marker,
        cfg: SimConfig,
    ) -> Self {
        Self::with_filter(topo, faults, router, policy, marker, &NO_FILTER, cfg)
    }

    /// Builds a simulation with a mitigation [`Filter`] installed.
    #[must_use]
    pub fn with_filter(
        topo: &'a Topology,
        faults: &FaultSet,
        router: Router,
        policy: SelectionPolicy,
        marker: &'a dyn Marker,
        filter: &'a dyn Filter,
        cfg: SimConfig,
    ) -> Self {
        let degraded_since = (!faults.is_empty()).then_some(0);
        let tele = Telemetry::from_config(&cfg.telemetry).map(Box::new);
        let checker = InvariantChecker::new(cfg.invariants);
        let obs = tele.as_ref().is_some_and(|t| t.events_on()) || checker.tail_on();
        let checking = checker.enabled();
        let port_stride = 2 * topo.ndims();
        let ports = vec![0u64; topo.num_nodes() as usize * port_stride];
        let coords = if topo.num_nodes() <= COORD_CACHE_MAX_NODES {
            (0..topo.num_nodes() as u32)
                .map(|n| topo.coord(NodeId(n)))
                .collect()
        } else {
            Vec::new()
        };
        let (compromised, adv_behavior) = match &cfg.adversary {
            Some(spec) => {
                let mut dense = vec![false; topo.num_nodes() as usize];
                for s in &spec.switches {
                    if let Some(flag) = dense.get_mut(s.0 as usize) {
                        *flag = true;
                    }
                }
                (dense, spec.behavior.as_str())
            }
            None => (Vec::new(), ""),
        };
        // Size the wheel to the worst-case hot-path look-ahead: a full
        // output buffer serialising ahead of this packet, plus the link,
        // plus every way an event can be deferred — retry backoff
        // (capped at max_delay) and the watchdog's next sweep. Sized
        // from the config rather than a 64×64-era constant, so Table 3
        // fabrics with long backoffs keep the heap out of steady state.
        let deferral = cfg
            .retry
            .max_delay
            .max(cfg.watchdog.as_ref().map_or(0, |w| w.check_period));
        let horizon = (u64::from(cfg.buffer_packets) + 2) * cfg.service_cycles.max(1)
            + cfg.link_latency
            + deferral
            + 1;
        Self {
            topo,
            live: faults.clone(),
            router,
            policy,
            marker,
            filter,
            cfg,
            queue: EventQueue::with_horizon(horizon),
            pkts: Pkts::new(),
            scheduled: Scheduled::default(),
            source: None,
            next_handle: 0,
            resume_cursor: None,
            cand_buf: Vec::new(),
            coords,
            ports,
            port_stride,
            now: SimTime::ZERO,
            stats: SimStats::default(),
            delivered: Vec::new(),
            drops: Vec::new(),
            degraded_since,
            pending_recovery: None,
            tele,
            live_count: 0,
            injected_total: 0,
            delivered_total: 0,
            dropped_total: 0,
            gone_info: (0, u32::MAX),
            last_progress: 0,
            watchdog_armed: false,
            finalized: false,
            checker,
            obs,
            compromised,
            adv_behavior,
            checking,
        }
    }

    /// Schedules every event of a dynamic [`FaultSchedule`]. Call before
    /// scheduling traffic: the queue breaks time ties by insertion
    /// order, so faults registered first apply before same-cycle packet
    /// events.
    pub fn schedule_faults(&mut self, schedule: &FaultSchedule) {
        for (t, event) in schedule.iter() {
            self.queue.push(SimTime(t), EventKind::Fault { event });
        }
    }

    /// The live fault state (initial faults plus applied events).
    #[must_use]
    pub fn live_faults(&self) -> &FaultSet {
        &self.live
    }

    /// Attaches the run's traffic source. Its packets take handles
    /// `0..source.handles()`, so attach it before scheduling anything;
    /// after [`Simulation::restore`], attach the rebuilt source instead,
    /// and it is moved past the packets the snapshot's run had drawn.
    ///
    /// # Panics
    /// If a source is already attached, or if packets were scheduled
    /// before a fresh attach.
    pub fn attach(&mut self, mut source: Box<dyn TrafficSource + 'a>) {
        assert!(
            self.source.is_none(),
            "a traffic source is already attached"
        );
        match self.resume_cursor.take() {
            Some(cursor) => {
                for _ in 0..cursor {
                    source
                        .pop()
                        .expect("rebuilt source ends before the snapshot's cursor");
                }
            }
            None => {
                assert!(
                    self.next_handle == 0,
                    "attach the traffic source before scheduling packets"
                );
                self.next_handle = source.handles();
            }
        }
        self.source = Some(source);
    }

    /// Schedules `packet` for injection at `time` and returns its
    /// handle, the next one free. The packet waits outside the arena
    /// until its cycle comes up.
    pub fn schedule(&mut self, time: SimTime, packet: Packet) -> usize {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.scheduled.push(time.cycles(), handle, packet);
        handle as usize
    }

    /// Packets scheduled and not yet admitted into the arena.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.scheduled.len()
    }

    /// The record of a packet with handle `handle` scheduled at `time`,
    /// before its injection.
    fn fresh_flight(&self, handle: u64, time: SimTime, packet: Packet) -> InFlight {
        InFlight {
            packet,
            state: RouteState::with_budget(self.router.misroute_budget()),
            // Decorrelate per-packet streams from the run seed with a
            // splitmix of the handle (golden-ratio increment).
            rng: SmallRng::seed_from_u64(
                self.cfg.seed ^ (handle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            injected_at: time,
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

    /// `(time, handle)` of the next packet either source offers.
    fn next_arrival(&self) -> Option<(u64, u64)> {
        let own = self.scheduled.peek();
        match self.source.as_ref().and_then(|s| s.peek()) {
            Some(s) => Some(own.map_or(s, |o| o.min(s))),
            None => own,
        }
    }

    /// Admits every packet due at the next cycle to activate, when that
    /// cycle is below `limit`: each takes an arena slot and queues its
    /// `Inject`. Called between cycles only, so a packet is in the
    /// arena from its injection cycle on and never before.
    fn admit_due(&mut self, limit: u64) {
        let Some((t, _)) = self.next_arrival() else {
            return;
        };
        if t >= limit || self.queue.next_cycle().is_some_and(|q| q < t) {
            return;
        }
        while let Some((_, handle)) = self.next_arrival().filter(|&(at, _)| at == t) {
            let packet = if self.scheduled.peek() == Some((t, handle)) {
                self.scheduled.pop()
            } else {
                self.source.as_mut().and_then(|s| s.pop())
            }
            .expect("peeked")
            .2;
            let flight = self.fresh_flight(handle, SimTime(t), packet);
            let slot = self.pkts.insert(handle, flight);
            self.queue.push_at(
                SimTime(t),
                EventKind::Inject {
                    pkt: handle as usize,
                },
                slot,
            );
        }
    }

    /// Runs every event with fire time below `limit`, admitting traffic
    /// as its cycles come up.
    fn drain(&mut self, limit: u64) {
        assert!(
            self.resume_cursor.is_none(),
            "the snapshot carries a traffic-source cursor: attach the rebuilt source first"
        );
        // Observer and checker status are fixed for a run: hoist both
        // out of the per-event path (`checking` here, `self.obs` at
        // every emission site) so a telemetry-off run pays nothing.
        let profiling = self.tele.as_ref().is_some_and(|t| t.profiling());
        let checking = self.checking;
        loop {
            if self.queue.idle() {
                self.admit_due(limit);
            }
            let Some(ev) = self.queue.pop_before(limit) else {
                break;
            };
            self.dispatch(ev, profiling, checking);
        }
    }

    /// Runs the event loop to quiescence and returns the statistics.
    pub fn run(&mut self) -> SimStats {
        self.drain(u64::MAX);
        self.finalize_run();
        self.stats
    }

    /// Runs every pending event with fire time strictly below `limit` —
    /// one serial segment of a checkpointed run. Returns `true` once the
    /// run reached quiescence (the close-out has happened and
    /// [`Simulation::stats`] is final), `false` when it paused at the
    /// segment boundary with events still pending. Pausing between
    /// events is always safe: a [`Simulation::snapshot`] taken here and
    /// restored elsewhere continues bit-identically.
    /// Calling again after quiescence is a cheap no-op returning `true`
    /// — a resident driver (the attribution service) may race a stride
    /// against a completion it has not observed yet.
    pub fn run_until(&mut self, limit: u64) -> bool {
        if self.finalized {
            return true;
        }
        self.drain(limit);
        if self.next_event_time().is_some() {
            return false;
        }
        self.finalize_run();
        true
    }

    /// Has the run reached quiescence (close-out done, stats final)?
    /// Once true, further [`Simulation::run_until`] calls are no-ops
    /// and [`Simulation::schedule`] must not be called.
    #[must_use]
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// One serial event: advance time, run the handler, post-checks,
    /// optional phase profiling. Shared by [`Simulation::run`] and
    /// [`Simulation::run_until`].
    #[inline]
    fn dispatch(&mut self, ev: Event, profiling: bool, checking: bool) {
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        let t0 = profiling.then(Instant::now);
        let slot = ev.slot as usize;
        let phase = match ev.kind {
            EventKind::Inject { pkt } => {
                self.handle_inject(slot, pkt);
                "inject"
            }
            EventKind::Arrive { pkt, node, .. } => {
                self.handle_arrive(slot, pkt, node);
                "arrive"
            }
            EventKind::Reroute { pkt, node } => {
                self.handle_reroute(slot, pkt, node);
                "reroute"
            }
            EventKind::Fault { event } => {
                self.handle_fault(event);
                "fault"
            }
            EventKind::Watchdog => {
                self.handle_watchdog();
                "watchdog"
            }
        };
        if checking {
            self.post_event_checks(&ev);
        }
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            self.tele
                .as_mut()
                .expect("profiling implies telemetry")
                .profile(phase, elapsed);
        }
    }

    /// Close-out of a finished run: degraded-window accounting, the
    /// end-time stamp and the telemetry finish. Idempotent, so a
    /// segmented run finalizes exactly once.
    fn finalize_run(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        if let Some(t0) = self.degraded_since.take() {
            self.stats.faults.degraded_cycles += self.now.cycles() - t0;
        }
        self.stats.end_time = self.now.cycles();
        // Peak-memory telemetry: the arena's high-water marks and the
        // (static) port table. Kept out of `SimStats`'s Debug form — the
        // numbers are layout-dependent and must not leak into
        // conformance digests.
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.pkts.peak_bytes);
        self.stats.peak_in_flight = self
            .stats
            .peak_in_flight
            .max(self.pkts.peak_resident as u64);
        self.stats.port_bytes = (self.ports.len() * std::mem::size_of::<u64>()) as u64;
        debug_assert_eq!(self.live_count, 0, "run ended with live packets");
        debug_assert!(self.stats.accounted(0), "packet conservation violated");
        if let Some(t) = self.tele.as_mut() {
            t.finish();
            if t.degraded() {
                self.stats.telemetry_degraded = true;
            }
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Packets delivered so far, in delivery order — the victim's view.
    #[must_use]
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// Drop log: `(packet id, reason)` in drop order.
    #[must_use]
    pub fn drops(&self) -> &[(ddpm_net::PacketId, DropReason)] {
        &self.drops
    }

    /// Consumes the simulation, returning the delivered list (avoids a
    /// clone for large runs).
    #[must_use]
    pub fn into_delivered(self) -> Vec<Delivered> {
        self.delivered
    }

    /// Live telemetry state, when enabled. Lets callers read event
    /// counts, the latency histogram and the phase profile after a run.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tele.as_deref()
    }

    /// Invariant violations detected this run (empty when correct, or
    /// when the checker is disabled).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// The trailing window of lifecycle events kept by the invariant
    /// checker for repro bundles, oldest first.
    #[must_use]
    pub fn trace_tail(&self) -> Vec<PacketEvent> {
        self.checker.tail_events()
    }

    /// Packets launched but not yet delivered or dropped.
    #[must_use]
    pub fn live_count(&self) -> u64 {
        self.live_count
    }

    // ------------------------------------------------------------------
    // Checkpoint support (`ddpm-checkpoint`): complete dynamic state
    // out, and back in, bit-identically.
    // ------------------------------------------------------------------

    /// Captures the complete dynamic state of this simulation as plain
    /// data — valid at any event boundary (between
    /// [`Simulation::run_until`] segments, or before the run starts).
    /// The static half (topology, router, marker, filter, config) is
    /// not captured, and neither is the attached traffic source: only
    /// its cursor. [`Simulation::restore`] expects the static half
    /// rebuilt from the scenario description, and the source rebuilt
    /// and re-attached.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot {
        let (mut events, queue_seq) = self.queue.snapshot_events();
        // Slots are where packets happen to live; the snapshot names
        // packets by handle only.
        for e in &mut events {
            e.slot = 0;
        }
        let mut slots: Vec<SlotSnap> = (0..self.pkts.len())
            .filter_map(|i| {
                let c = self.pkts.cold[i].as_ref()?;
                Some(SlotSnap {
                    handle: self.pkts.handles[i],
                    flight: FlightSnap {
                        packet: c.packet,
                        state: c.state,
                        rng: c.rng.state(),
                        injected_at: self.pkts.injected_at[i].cycles(),
                        inject_attempts: self.pkts.inject_attempts[i],
                        reroutes: self.pkts.reroutes[i],
                        under_fault: self.pkts.flag(i, F_UNDER_FAULT),
                        launched: self.pkts.flag(i, F_LAUNCHED),
                        escaped: self.pkts.flag(i, F_ESCAPED),
                        escaped_at: self.pkts.escaped_at[i],
                        last_hop_at: self.pkts.last_hop_at[i],
                        last_node: self.pkts.last_node[i],
                        wire_mf: self.pkts.wire_mf[i],
                    },
                })
            })
            .collect();
        slots.sort_unstable_by_key(|s| s.handle);
        let (failed_links, failed_switches) = self.live.to_parts();
        SimSnapshot {
            now: self.now.cycles(),
            events,
            queue_seq,
            slots,
            next_handle: self.next_handle,
            scheduled: self.scheduled.to_vec(),
            source_cursor: self
                .source
                .as_ref()
                .map(|s| s.cursor())
                .or(self.resume_cursor),
            ports: self.ports.clone(),
            stats: self.stats,
            delivered: self.delivered.clone(),
            drops: self.drops.clone(),
            failed_links,
            failed_switches,
            degraded_since: self.degraded_since,
            pending_recovery: self.pending_recovery,
            live_count: self.live_count,
            injected_total: self.injected_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            gone_info: self.gone_info,
            last_progress: self.last_progress,
            watchdog_armed: self.watchdog_armed,
            peak_arena_bytes: self.pkts.peak_bytes,
            peak_in_flight: self.pkts.peak_resident as u64,
            violations: self.checker.violations().to_vec(),
            trace_tail: self.checker.tail_events(),
            selftest_fired: self.checker.selftest_fired(),
            // Populated by the scenario driver, which owns the
            // AdversaryModel; the core simulator never reads it.
            adversary: None,
        }
    }

    /// Reinstalls a [`SimSnapshot`] into this **freshly built**
    /// simulation. Do not [`Simulation::schedule`] packets or
    /// [`Simulation::schedule_faults`] first — the snapshot holds every
    /// pending event, the packets scheduled and not yet admitted, and
    /// the remaining fault schedule. When it carries a traffic-source
    /// cursor, [`Simulation::attach`] the rebuilt source before running.
    /// Continuing is then bit-identical to the uninterrupted run.
    ///
    /// A packet still exactly as scheduled — how a version-3 snapshot
    /// holds a packet waiting for its first injection, with its
    /// `Inject` queued — goes back to the scheduled packets instead of
    /// the arena.
    ///
    /// # Panics
    /// If this simulation already scheduled packets or processed
    /// events, or if the snapshot's port table does not match the
    /// topology (the snapshot was taken in a different world).
    pub fn restore(&mut self, snap: SimSnapshot) {
        assert!(
            self.pkts.len() == 0
                && self.queue.is_empty()
                && self.now == SimTime::ZERO
                && self.next_arrival().is_none()
                && self.source.is_none(),
            "restore target must be freshly built"
        );
        assert_eq!(
            snap.ports.len(),
            self.ports.len(),
            "snapshot was taken on a different topology"
        );
        let mut slot_of: HashMap<u64, u32> = HashMap::with_capacity(snap.slots.len());
        let mut waiting: HashSet<u64> = HashSet::new();
        for SlotSnap { handle, flight: f } in snap.slots {
            let fresh = self.fresh_flight(handle, SimTime(f.injected_at), f.packet);
            if flight_snap(&fresh) == f {
                self.scheduled.push(f.injected_at, handle, f.packet);
                waiting.insert(handle);
                continue;
            }
            let flight = InFlight {
                packet: f.packet,
                state: f.state,
                rng: SmallRng::from_state(f.rng),
                injected_at: SimTime(f.injected_at),
                inject_attempts: f.inject_attempts,
                reroutes: f.reroutes,
                under_fault: f.under_fault,
                launched: f.launched,
                escaped: f.escaped,
                escaped_at: f.escaped_at,
                last_hop_at: f.last_hop_at,
                last_node: f.last_node,
                wire_mf: f.wire_mf,
            };
            slot_of.insert(handle, self.pkts.insert(handle, flight));
        }
        let events = snap
            .events
            .into_iter()
            .filter(
                |e| !matches!(e.kind, EventKind::Inject { pkt } if waiting.contains(&(pkt as u64))),
            )
            .map(|mut e| {
                if let EventKind::Inject { pkt }
                | EventKind::Arrive { pkt, .. }
                | EventKind::Reroute { pkt, .. } = e.kind
                {
                    // A handle without a slot is stale; the slot past
                    // the arena's end makes the handler report it.
                    e.slot = slot_of.get(&(pkt as u64)).copied().unwrap_or(u32::MAX);
                }
                e
            })
            .collect();
        self.queue = EventQueue::restore(self.queue.horizon(), events, snap.queue_seq);
        for (t, h, p) in snap.scheduled {
            self.scheduled.push(t, h, p);
        }
        self.next_handle = snap.next_handle;
        self.resume_cursor = snap.source_cursor;
        // The restored high-water marks supersede anything accumulated
        // while re-populating — a resumed run's peaks continue the
        // uninterrupted run's exactly.
        self.pkts.peak_bytes = self.pkts.peak_bytes.max(snap.peak_arena_bytes);
        self.pkts.peak_resident = self.pkts.peak_resident.max(snap.peak_in_flight as usize);
        self.ports = snap.ports;
        self.now = SimTime(snap.now);
        self.stats = snap.stats;
        self.delivered = snap.delivered;
        self.drops = snap.drops;
        self.live = FaultSet::from_parts(snap.failed_links, snap.failed_switches);
        self.degraded_since = snap.degraded_since;
        self.pending_recovery = snap.pending_recovery;
        self.live_count = snap.live_count;
        self.injected_total = snap.injected_total;
        self.delivered_total = snap.delivered_total;
        self.dropped_total = snap.dropped_total;
        self.gone_info = snap.gone_info;
        self.last_progress = snap.last_progress;
        self.watchdog_armed = snap.watchdog_armed;
        self.checker
            .restore_state(snap.violations, snap.trace_tail, snap.selftest_fired);
    }

    fn class_of(&self, pkt: usize) -> TrafficClass {
        self.pkts.packet(pkt).class
    }

    /// Dense index of a directed output port: `node * 2·ndims + dim·2 +
    /// sign` (hypercubes use only the `Plus` half of each pair).
    #[inline]
    fn port_index(&self, node: u32, dir: Direction) -> usize {
        let d = dir.dim() * 2 + usize::from(dir.sign == ddpm_topology::Sign::Minus);
        node as usize * self.port_stride + d
    }

    /// Records one lifecycle event for in-flight packet `pkt` at switch
    /// `node`: it feeds telemetry (when events are on) and the checker's
    /// trace tail. Only call behind `self.obs`.
    fn emit(&mut self, pkt: usize, node: u32, kind: TelEvent) {
        let id = self.pkts.packet(pkt).id.0;
        self.emit_id(id, node, kind);
    }

    /// [`Simulation::emit`] for a packet already freed from the arena
    /// (drop and delivery events fire after the storage is reclaimed).
    fn emit_id(&mut self, pkt_id: u64, node: u32, kind: TelEvent) {
        let ev = PacketEvent {
            cycle: self.now.cycles(),
            pkt: pkt_id,
            node,
            kind,
        };
        self.sink_event(ev);
    }

    fn sink_event(&mut self, ev: PacketEvent) {
        if let Some(t) = self.tele.as_mut() {
            if t.events_on() {
                t.record(ev);
            }
        }
        self.checker.record_tail(ev);
    }

    /// Records an invariant violation: telemetry event, trace tail,
    /// violation log — then panics if the config says so.
    fn report_violation(&mut self, pkt: u64, node: u32, invariant: &'static str, detail: String) {
        let cycle = self.now.cycles();
        let ev = PacketEvent {
            cycle,
            pkt,
            node,
            kind: TelEvent::Violation { invariant },
        };
        self.sink_event(ev);
        let panic_now = self.checker.report(Violation {
            cycle,
            pkt,
            node,
            invariant,
            detail,
        });
        if panic_now {
            let v = self.checker.violations().last().expect("just pushed");
            panic!(
                "invariant violation `{invariant}` at cycle {cycle}, pkt {pkt}, node {node}: {}",
                v.detail
            );
        }
    }

    /// Post-event invariant checks: conservation after every handled
    /// event, plus the synthetic self-test injection when configured.
    fn post_event_checks(&mut self, ev: &Event) {
        let (pkt_id, node) = match ev.kind {
            EventKind::Inject { pkt }
            | EventKind::Arrive { pkt, .. }
            | EventKind::Reroute { pkt, .. } => {
                let slot = ev.slot as usize;
                if self.pkts.holds(slot, pkt) {
                    (self.pkts.packet(slot).id.0, self.pkts.last_node[slot])
                } else {
                    // The handler freed the packet (delivered or dropped
                    // it) during this very event.
                    self.gone_info
                }
            }
            EventKind::Fault { .. } | EventKind::Watchdog => (0, u32::MAX),
        };
        // O(1) conservation: the running totals mirror the per-class
        // stats counters; `SimStats::accounted` (a full counter fold)
        // remains the end-of-run cross-check.
        if self.injected_total != self.delivered_total + self.dropped_total + self.live_count {
            let t = self.stats.total();
            self.report_violation(
                pkt_id,
                node,
                "conservation",
                format!(
                    "injected {} != delivered {} + dropped {} + in_flight {}",
                    t.injected,
                    t.delivered,
                    t.dropped(),
                    self.live_count
                ),
            );
        }
        if let Some(at) = self.checker.selftest_pending() {
            if self.now.cycles() >= at {
                self.checker.mark_selftest_fired();
                self.report_violation(
                    pkt_id,
                    node,
                    "selftest",
                    format!("synthetic violation scheduled at cycle {at} (InvariantConfig::selftest_at)"),
                );
            }
        }
    }

    /// Kills the packet with a typed drop: bumps the per-class counter,
    /// appends the drop log and emits the `drop` event.
    fn drop_packet(&mut self, pkt: usize, node: u32, reason: DropReason) {
        // Frees the arena slot (reclaiming the path buffer and RNG) and
        // bumps its generation — a stale event for this handle can never
        // act on a resurrected packet.
        let flight = self.pkts.free(pkt);
        debug_assert!(flight.launched, "drop of an uninjected packet");
        self.gone_info = (flight.packet.id.0, flight.last_node);
        self.live_count -= 1;
        self.dropped_total += 1;
        let class = flight.packet.class;
        let c = self.stats.class_mut(class);
        match reason {
            DropReason::BufferOverflow => c.dropped_buffer += 1,
            DropReason::TtlExpired => c.dropped_ttl += 1,
            DropReason::Blocked => c.dropped_blocked += 1,
            DropReason::HopLimit => c.dropped_hop_limit += 1,
            DropReason::Filtered => c.dropped_filtered += 1,
            DropReason::Corrupted => c.dropped_corrupt += 1,
            DropReason::SwitchDown => c.dropped_switch_down += 1,
            DropReason::LinkDown => c.dropped_link_down += 1,
            DropReason::RerouteExhausted => c.dropped_reroute += 1,
            DropReason::SourceDown => c.dropped_source_down += 1,
            DropReason::LivelockEscaped => c.dropped_livelock += 1,
            DropReason::DeadlockVictim => c.dropped_deadlock += 1,
        }
        let id = flight.packet.id;
        self.drops.push((id, reason));
        if self.obs {
            self.emit_id(
                id.0,
                node,
                TelEvent::Drop {
                    reason: reason.as_str(),
                },
            );
        }
    }

    /// Applies one scheduled [`FaultEvent`] to the live fault state and
    /// enforces fail-stop semantics: packets committed to a component
    /// that just died are claimed now, with a typed drop — never
    /// silently lost.
    fn handle_fault(&mut self, ev: FaultEvent) {
        let was_healthy = self.live.is_empty();
        self.live.apply(self.topo, ev);
        self.stats.faults.events_applied += 1;
        match ev {
            FaultEvent::LinkDown { a, b } => {
                // Packets on the wire of this link die with it.
                let lost = self.queue.extract(|k| {
                    matches!(k, EventKind::Arrive { node, from, .. }
                        if (NodeId(*node), NodeId(*from)) == (a, b)
                            || (NodeId(*node), NodeId(*from)) == (b, a))
                });
                for e in lost {
                    if let EventKind::Arrive { node, .. } = e.kind {
                        self.drop_packet(e.slot as usize, node, DropReason::LinkDown);
                    }
                }
            }
            FaultEvent::SwitchDown { node } => {
                // Fail-stop: the switch's buffers vanish. That claims
                // packets in flight toward it, packets it had already
                // committed to an output port (future arrivals with
                // `from == node`), and packets parked at it awaiting a
                // reroute retry.
                let lost = self.queue.extract(|k| match k {
                    EventKind::Arrive { node: n, from, .. } => *n == node.0 || *from == node.0,
                    EventKind::Reroute { node: n, .. } => *n == node.0,
                    EventKind::Inject { .. } | EventKind::Fault { .. } | EventKind::Watchdog => {
                        false
                    }
                });
                for e in lost {
                    if let EventKind::Arrive { node, .. } | EventKind::Reroute { node, .. } = e.kind
                    {
                        self.drop_packet(e.slot as usize, node, DropReason::SwitchDown);
                    }
                }
            }
            FaultEvent::LinkUp { .. } | FaultEvent::SwitchUp { .. } => {}
        }
        if was_healthy && !self.live.is_empty() {
            self.degraded_since = Some(self.now.cycles());
        } else if !was_healthy && self.live.is_empty() {
            if let Some(t0) = self.degraded_since.take() {
                self.stats.faults.degraded_cycles += self.now.cycles() - t0;
            }
            self.pending_recovery = Some(self.now.cycles());
        }
    }

    /// Guard against an event firing on a packet that already died. In a
    /// correct run this never happens — every death path eagerly
    /// extracts the packet's pending events — so a hit is a simulator
    /// bug: the slot no longer holds the event's handle, and it is
    /// reported as a typed `stale_handle` violation rather than a panic
    /// (and can never act on the slot's next packet).
    fn stale_event(&mut self, slot: usize, pkt: usize) -> bool {
        if self.pkts.holds(slot, pkt) {
            return false;
        }
        if self.checking {
            self.report_violation(
                pkt as u64,
                u32::MAX,
                "stale_handle",
                format!("event fired for freed packet handle {pkt} (its arena slot moved on)"),
            );
        }
        true
    }

    fn handle_inject(&mut self, slot: usize, handle: usize) {
        if self.stale_event(slot, handle) {
            return;
        }
        let pkt = slot;
        let src_id = self.pkts.packet(pkt).true_source;
        let src = self.coord_of(src_id.0);
        self.pkts.last_node[pkt] = src_id.0;
        if self.pkts.inject_attempts[pkt] == 0 {
            self.pkts.set_flag(pkt, F_LAUNCHED, true);
            self.live_count += 1;
            self.injected_total += 1;
            self.stats.class_mut(self.class_of(pkt)).injected += 1;
            let under = !self.live.is_empty();
            self.pkts.set_flag(pkt, F_UNDER_FAULT, under);
            if under {
                self.stats.faults.window_injected += 1;
            }
        }
        // Lazy watchdog arming: the first injection of a quiet period
        // schedules the sweep cadence; `last_progress` starts *now* so a
        // late first injection is not misread as a historic stall.
        if let Some(wd) = self.cfg.watchdog {
            if !self.watchdog_armed {
                let t = self.now.cycles();
                self.watchdog_armed = true;
                self.last_progress = t;
                self.queue
                    .push(SimTime(t + wd.check_period.max(1)), EventKind::Watchdog);
            }
        }
        // Source-side graceful degradation: a downed local switch makes
        // the compute node hold the packet and retry with exponential
        // backoff (the config's RetryPolicy) rather than lose it.
        if self.live.is_node_dead(src_id) {
            let attempt = self.pkts.inject_attempts[pkt];
            if attempt < self.cfg.retry.retries {
                self.pkts.inject_attempts[pkt] = attempt + 1;
                let at = self.now.cycles() + self.cfg.retry.delay(attempt);
                self.queue
                    .push_at(SimTime(at), EventKind::Inject { pkt: handle }, slot as u32);
                if self.obs {
                    self.emit(
                        pkt,
                        src_id.0,
                        TelEvent::Retry {
                            what: RetryKind::Inject,
                            attempt,
                        },
                    );
                }
            } else {
                self.drop_packet(pkt, src_id.0, DropReason::SourceDown);
            }
            return;
        }
        if self.obs {
            self.emit(pkt, src_id.0, TelEvent::Inject);
        }
        // The source switch resets the marking field (§5) — forged MF
        // values die here.
        let env = MarkEnv { topo: self.topo };
        let mf_before = self.pkts.packet(pkt).header.identification.raw();
        self.marker
            .on_inject(&mut self.pkts.cold_mut(pkt).packet, &src, &env);
        let mf_after = self.pkts.packet(pkt).header.identification.raw();
        if mf_after != mf_before && self.obs {
            let scheme = self.marker.name();
            self.emit(pkt, src_id.0, TelEvent::Mark { mf: mf_after, scheme });
        }
        if self.filter.block_at_injection(self.pkts.packet(pkt), &src) {
            self.drop_packet(pkt, src_id.0, DropReason::Filtered);
            return;
        }
        self.forward_from(pkt, src_id.0, &src);
    }

    fn handle_arrive(&mut self, slot: usize, handle: usize, node: u32) {
        if self.stale_event(slot, handle) {
            return;
        }
        let pkt = slot;
        // Mark-in-transit invariant: links never rewrite the marking
        // field — it must arrive exactly as the previous switch sent it
        // (modelled bit errors happen below, at arrival processing).
        if self.checking {
            let got = self.pkts.packet(pkt).header.identification.raw();
            let sent = self.pkts.wire_mf[pkt];
            if got != sent {
                self.report_violation(
                    self.pkts.packet(pkt).id.0,
                    node,
                    "mark_in_transit",
                    format!("marking field changed on the wire: sent {sent:#06x}, arrived {got:#06x}"),
                );
            }
        }
        self.pkts.last_node[pkt] = node;
        // Link-level bit errors: flip one random header bit in transit;
        // the receiving switch checksums and discards the damaged packet.
        if self.cfg.bit_error_rate > 0.0 {
            let ber = self.cfg.bit_error_rate;
            let p = self.pkts.cold_mut(pkt);
            let corrupted = if p.rng.gen_bool(ber) {
                let mut bytes = p.packet.header.to_bytes();
                let bit = p.rng.gen_range(0..160u32);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                match ddpm_net::Ipv4Header::parse(&bytes) {
                    Ok(h) => {
                        // A flip that still parses (impossible for single-bit
                        // errors under RFC 1071, kept for defence in depth).
                        p.packet.header = h;
                        false
                    }
                    Err(_) => true,
                }
            } else {
                false
            };
            if corrupted {
                self.drop_packet(pkt, node, DropReason::Corrupted);
                return;
            }
        }
        let node_id = NodeId(node);
        let cur = self.coord_of(node);
        if node_id == self.pkts.packet(pkt).dest_node {
            // The destination switch runs marking logic one final time
            // before delivery (needed by PPM's edge completion).
            let env = MarkEnv { topo: self.topo };
            let p = self.pkts.cold_mut(pkt);
            let mf_before = p.packet.header.identification.raw();
            self.marker.on_deliver(&mut p.packet, &cur, &env, &mut p.rng);
            let mf_after = p.packet.header.identification.raw();
            if mf_after != mf_before && self.obs {
                let scheme = self.marker.name();
                self.emit(pkt, node, TelEvent::Mark { mf: mf_after, scheme });
            }
            if self.filter.block_at_delivery(self.pkts.packet(pkt), &cur) {
                self.drop_packet(pkt, node, DropReason::Filtered);
                return;
            }
            // Commit: the packet leaves the arena here — its storage is
            // reclaimed in place and the slot generation advances, so no
            // stale event can ever resurrect it.
            let flight = self.pkts.free(pkt);
            self.gone_info = (flight.packet.id.0, node);
            if flight.under_fault {
                self.stats.faults.window_delivered += 1;
            }
            if let Some(t0) = self.pending_recovery.take() {
                self.stats.faults.recovery.record(self.now.cycles() - t0);
            }
            let c = self.stats.class_mut(flight.packet.class);
            c.delivered += 1;
            let latency = self.now - flight.injected_at;
            c.latency.record(latency);
            c.total_hops += u64::from(flight.state.hops);
            let hops = flight.state.hops;
            self.live_count -= 1;
            self.delivered_total += 1;
            self.last_progress = self.now.cycles();
            let pkt_id = flight.packet.id.0;
            self.delivered.push(Delivered {
                packet: flight.packet,
                injected_at: flight.injected_at,
                delivered_at: self.now,
                hops,
            });
            if self.obs {
                self.emit_id(
                    pkt_id,
                    node,
                    TelEvent::Deliver {
                        mf: mf_after,
                        latency,
                        hops,
                    },
                );
            }
            return;
        }
        // Intermediate switch: TTL check, then forward.
        if !self.pkts.packet_mut(pkt).header.decrement_ttl() {
            self.drop_packet(pkt, node, DropReason::TtlExpired);
            return;
        }
        self.forward_from(pkt, node, &cur);
    }

    /// Looks up a node's coordinate, division-free when the dense cache
    /// is resident (it always is at Table 3 scale).
    #[inline]
    fn coord_of(&self, node: u32) -> Coord {
        match self.coords.get(node as usize) {
            Some(c) => *c,
            None => self.topo.coord(NodeId(node)),
        }
    }

    fn forward_from(&mut self, pkt: usize, node: u32, cur: &Coord) {
        if self.pkts.state(pkt).hops >= self.cfg.max_hops {
            self.drop_packet(pkt, node, DropReason::HopLimit);
            return;
        }
        let dst = self.coord_of(self.pkts.packet(pkt).dest_node.0);
        // Escaped packets travel the watchdog's recovery router under
        // deterministic selection; everyone else uses the configured
        // pair. `pick_for` upgrades `Random` to productive-first on
        // turn-model routers (the E-RESIL livelock fix).
        let (router, policy) = if self.pkts.flag(pkt, F_ESCAPED) {
            let esc = self
                .cfg
                .watchdog
                .and_then(|w| w.escape)
                .unwrap_or(self.router);
            (esc, SelectionPolicy::First)
        } else {
            (self.router, self.policy)
        };
        // Per-hop re-query against the LIVE fault state: links and
        // switches that died since the previous hop are excluded, ones
        // that healed are available again.
        let ctx = RouteCtx::new(self.topo, &self.live);
        // The candidate buffer lives on the simulation and is recycled
        // every hop — the forwarding hot path allocates nothing.
        let mut cands = std::mem::take(&mut self.cand_buf);
        router.candidates_into(&ctx, cur, &dst, self.pkts.state(pkt), &mut cands);
        let picked = policy.pick_for(&router, &cands, self.pkts.rng_mut(pkt));
        let chosen = picked.map(|i| cands[i]);
        cands.clear();
        self.cand_buf = cands;
        let Some(chosen) = chosen else {
            // Stranded. With a retry budget the switch parks the
            // packet and retries after a backoff — transient faults may
            // heal. Without one (the default), this is a Blocked drop,
            // as before dynamic faults existed.
            let tried = self.pkts.reroutes[pkt];
            if tried < self.cfg.retry.retries {
                self.pkts.reroutes[pkt] = tried + 1;
                let at = self.now.cycles() + self.cfg.retry.delay(tried);
                let handle = self.pkts.handles[pkt] as usize;
                self.queue.push_at(
                    SimTime(at),
                    EventKind::Reroute { pkt: handle, node },
                    pkt as u32,
                );
                if self.obs {
                    self.emit(
                        pkt,
                        node,
                        TelEvent::Retry {
                            what: RetryKind::Reroute,
                            attempt: tried,
                        },
                    );
                }
            } else if self.cfg.retry.retries > 0 {
                self.drop_packet(pkt, node, DropReason::RerouteExhausted);
            } else {
                self.drop_packet(pkt, node, DropReason::Blocked);
            }
            return;
        };

        // Fault-coherence invariant: routing already filtered faulty
        // links, so a chosen hop onto one is a simulator bug.
        if self.checking && self.live.is_faulty(self.topo, cur, &chosen.next) {
            self.report_violation(
                self.pkts.packet(pkt).id.0,
                node,
                "fault_coherence",
                format!("routing committed {cur} -> {} over a faulty link", chosen.next),
            );
        }

        // Output-port contention: the port serialises one packet per
        // `service_cycles`; backlog beyond `buffer_packets` is dropped.
        let port = self.port_index(node, chosen.dir);
        let busy_until = self.ports[port];
        let backlog = busy_until.saturating_sub(self.now.cycles()) / self.cfg.service_cycles.max(1);
        if backlog >= u64::from(self.cfg.buffer_packets) {
            self.drop_packet(pkt, node, DropReason::BufferOverflow);
            return;
        }

        // Switch-side marking happens once the output port is decided
        // (Fig. 4: Routing() first, then Δ computed and stored).
        let env = MarkEnv { topo: self.topo };
        let p = self.pkts.cold_mut(pkt);
        let mf_before = p.packet.header.identification.raw();
        self.marker
            .on_forward(&mut p.packet, cur, &chosen.next, &env, &mut p.rng);
        let mf_after = p.packet.header.identification.raw();
        p.state.record_hop(chosen.productive, chosen.dir);
        self.pkts.wire_mf[pkt] = mf_after;
        self.pkts.last_hop_at[pkt] = self.now.cycles();
        self.last_progress = self.now.cycles();

        let depart = busy_until.max(self.now.cycles()) + self.cfg.service_cycles;
        self.ports[port] = depart;
        let arrive = depart + self.cfg.link_latency;
        let next_id = self.topo.index(&chosen.next).0;
        if self.obs {
            if mf_after != mf_before {
                let scheme = self.marker.name();
                self.emit(pkt, node, TelEvent::Mark { mf: mf_after, scheme });
            }
            // Ground truth for adversarial runs: this forward crossed a
            // compromised marking plane (whether or not the field moved
            // — `skip` tampers by *not* moving it).
            if self.compromised.get(node as usize).copied().unwrap_or(false) {
                let behavior = self.adv_behavior;
                self.emit(pkt, node, TelEvent::MarkTamper { mf: mf_after, behavior });
            }
            self.emit(pkt, node, TelEvent::Forward { next: next_id });
        }
        self.queue.push_at(
            SimTime(arrive),
            EventKind::Arrive {
                pkt: self.pkts.handles[pkt] as usize,
                node: next_id,
                from: node,
            },
            pkt as u32,
        );
    }

    /// A parked packet's backoff expired: re-query routing against the
    /// live fault state.
    fn handle_reroute(&mut self, slot: usize, handle: usize, node: u32) {
        if self.stale_event(slot, handle) {
            return;
        }
        let pkt = slot;
        let node_id = NodeId(node);
        debug_assert!(
            !self.live.is_node_dead(node_id),
            "SwitchDown claims parked packets eagerly"
        );
        let cur = self.coord_of(node);
        self.forward_from(pkt, node, &cur);
    }

    /// Removes every pending event belonging to a packet in `doomed`
    /// (handles; its single Inject/Arrive/Reroute) so nothing fires on
    /// the dead.
    fn extract_events_of(&mut self, doomed: &HashSet<usize>) {
        self.queue.extract(|k| match k {
            EventKind::Inject { pkt }
            | EventKind::Arrive { pkt, .. }
            | EventKind::Reroute { pkt, .. } => doomed.contains(pkt),
            EventKind::Fault { .. } | EventKind::Watchdog => false,
        });
    }

    /// One watchdog sweep: deadlock detection at network level, then
    /// per-packet age checks with two-stage escalation (escape route,
    /// then typed drop). Reschedules itself while packets are live.
    fn handle_watchdog(&mut self) {
        let Some(wd) = self.cfg.watchdog else {
            return;
        };
        if self.live_count == 0 {
            // Quiet network: disarm. The next injection re-arms.
            self.watchdog_armed = false;
            return;
        }
        self.stats.watchdog.checks += 1;
        let now = self.now.cycles();

        // Network-level stall: nothing delivered or forwarded for
        // `stall_cycles` while packets are live — every one of them is
        // parked or retrying against each other. Declare deadlock and
        // recover by claiming all victims with a typed drop.
        // Launched packets in handle order, the order a sweep acts in.
        let mut launched: Vec<(u64, usize)> = (0..self.pkts.len())
            .filter(|&i| self.pkts.cold[i].is_some() && self.pkts.flag(i, F_LAUNCHED))
            .map(|i| (self.pkts.handles[i], i))
            .collect();
        launched.sort_unstable();
        if now.saturating_sub(self.last_progress) >= wd.stall_cycles {
            self.stats.watchdog.deadlocks += 1;
            let doomed: HashSet<usize> = launched.iter().map(|&(h, _)| h as usize).collect();
            self.extract_events_of(&doomed);
            for (_, pkt) in launched {
                let node = self.pkts.last_node[pkt];
                if self.obs {
                    self.emit(
                        pkt,
                        node,
                        TelEvent::Watchdog {
                            action: "deadlock_detected",
                        },
                    );
                }
                self.drop_packet(pkt, node, DropReason::DeadlockVictim);
            }
            self.watchdog_armed = false;
            return;
        }

        // Per-packet age checks. A first breach of `max_age` is
        // classified (hopped recently = livelock, hop drought =
        // starvation) and escalated to the escape router. After the
        // escape, the typed drop fires only when the packet is past the
        // grace period *and* has stopped hopping — one still moving
        // under the (deterministic, deadlock-free) escape router is
        // converging on its destination, and `max_hops` bounds it
        // regardless.
        let mut detected: Vec<(usize, bool)> = Vec::new();
        let mut drop_now: Vec<usize> = Vec::new();
        for (_, i) in launched {
            let age = now.saturating_sub(self.pkts.injected_at[i].cycles());
            self.stats.watchdog.max_age_seen = self.stats.watchdog.max_age_seen.max(age);
            let drought = now.saturating_sub(self.pkts.last_hop_at[i]) >= wd.max_age;
            if !self.pkts.flag(i, F_ESCAPED) {
                if age >= wd.max_age {
                    detected.push((i, !drought));
                }
            } else if now.saturating_sub(self.pkts.escaped_at[i]) >= wd.max_age && drought {
                drop_now.push(i);
            }
        }

        for &(i, moving) in &detected {
            if moving {
                self.stats.watchdog.livelocks += 1;
            } else {
                self.stats.watchdog.starvations += 1;
            }
            if self.obs {
                let node = self.pkts.last_node[i];
                let action = if moving {
                    "livelock_detected"
                } else {
                    "starvation_detected"
                };
                self.emit(i, node, TelEvent::Watchdog { action });
            }
        }

        if wd.escape.is_some() {
            // Recovery stage: put detected packets on the escape router
            // with a fresh reroute allowance, and wake any that are
            // parked in a long retry backoff so the escape takes effect
            // promptly.
            let escaping: HashSet<usize> = detected
                .iter()
                .map(|&(i, _)| self.pkts.handles[i] as usize)
                .collect();
            let parked = self
                .queue
                .extract(|k| matches!(k, EventKind::Reroute { pkt, .. } if escaping.contains(pkt)));
            for e in parked {
                self.queue.push_at(SimTime(now + 1), e.kind, e.slot);
            }
            for (i, _) in detected {
                self.stats.watchdog.escapes += 1;
                self.pkts.set_flag(i, F_ESCAPED, true);
                self.pkts.escaped_at[i] = now;
                self.pkts.reroutes[i] = 0;
                if self.obs {
                    let node = self.pkts.last_node[i];
                    self.emit(i, node, TelEvent::Watchdog { action: "escape" });
                }
            }
        } else {
            // No recovery router configured: escalate straight to the
            // typed drop.
            drop_now.extend(detected.iter().map(|&(i, _)| i));
        }

        if !drop_now.is_empty() {
            let doomed: HashSet<usize> = drop_now
                .iter()
                .map(|&i| self.pkts.handles[i] as usize)
                .collect();
            self.extract_events_of(&doomed);
            for pkt in drop_now {
                let node = self.pkts.last_node[pkt];
                self.drop_packet(pkt, node, DropReason::LivelockEscaped);
            }
        }

        if self.live_count > 0 {
            self.queue
                .push(SimTime(now + wd.check_period.max(1)), EventKind::Watchdog);
        } else {
            self.watchdog_armed = false;
        }
    }

    /// The configuration this simulation was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The topology this simulation runs over.
    #[must_use]
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The current simulated time, in cycles: the fire time of the last
    /// dispatched event.
    #[must_use]
    pub fn now_cycles(&self) -> u64 {
        self.now.cycles()
    }

    /// Fire time of the earliest pending event or injection, if any. A
    /// stride driver uses it to guarantee progress across event-time
    /// gaps.
    #[must_use]
    pub fn next_event_time(&self) -> Option<u64> {
        let arrival = self.next_arrival().map(|(t, _)| t);
        match self.queue.next_time() {
            Some(q) => Some(arrival.map_or(q, |a| a.min(q))),
            None => arrival,
        }
    }

    /// Mutable live telemetry, when enabled — lets a driver annotate the
    /// stream (resume markers, post-run attribution events).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.tele.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use crate::mark::NoMarking;
    use ddpm_net::{AddrMap, Ipv4Header, PacketId, Protocol, L4};
    use ddpm_telemetry::{MemorySink, TelemetryConfig};

    /// `cfg` with its packets' telemetry trail kept in `sink`.
    fn traced(sink: &MemorySink, cfg: SimConfig) -> SimConfig {
        SimConfig {
            telemetry: TelemetryConfig::events_to(ddpm_telemetry::shared(sink.clone())),
            ..cfg
        }
    }

    fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId, class: TrafficClass) -> Packet {
        Packet {
            id: PacketId(id),
            header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
            l4: L4::udp(4000, 53),
            true_source: src,
            dest_node: dst,
            class,
        }
    }

    #[test]
    fn single_packet_delivery_latency() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let cfg = SimConfig {
            link_latency: 2,
            service_cycles: 4,
            ..SimConfig::default()
        };
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        // (0,0) -> (3,0): 3 hops, each hop = 4 service + 2 link = 6.
        sim.schedule(
            SimTime(10),
            mk_packet(&map, 1, NodeId(0), NodeId(12), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.delivered, 1);
        assert_eq!(sim.delivered().len(), 1);
        let d = &sim.delivered()[0];
        assert_eq!(d.hops, 3);
        assert_eq!(d.latency(), 18);
        assert_eq!(d.delivered_at, SimTime(28));
    }

    #[test]
    fn telemetry_trail_gives_the_path() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let sink = MemorySink::new();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            traced(&sink, SimConfig::default()),
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Benign),
        );
        sim.run();
        // (0,0) -> (1,0) -> (1,1): dimension order.
        assert_eq!(sink.path(1), [0, 4, 5]);
    }

    #[test]
    fn port_serialisation_queues_packets() {
        // Two packets leaving the same switch on the same port: the
        // second is delayed by one service time.
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            link_latency: 1,
            service_cycles: 10,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        for id in 0..2 {
            sim.schedule(
                SimTime::ZERO,
                mk_packet(&map, id, NodeId(0), NodeId(4), TrafficClass::Benign),
            );
        }
        sim.run();
        let times: Vec<u64> = sim.delivered().iter().map(|d| d.delivered_at.0).collect();
        assert_eq!(times, vec![11, 21]);
    }

    #[test]
    fn buffer_overflow_drops_under_flood() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            link_latency: 1,
            service_cycles: 10,
            buffer_packets: 4,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        // 20 packets injected simultaneously into one port of capacity 4.
        for id in 0..20 {
            sim.schedule(
                SimTime::ZERO,
                mk_packet(&map, id, NodeId(0), NodeId(4), TrafficClass::Attack),
            );
        }
        let stats = sim.run();
        assert!(stats.attack.dropped_buffer > 0, "flood must overflow");
        assert_eq!(
            stats.attack.delivered + stats.attack.dropped(),
            stats.attack.injected
        );
    }

    #[test]
    fn ttl_expiry_drops() {
        let topo = Topology::mesh2d(8);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig::default(),
        );
        let mut p = mk_packet(&map, 1, NodeId(0), NodeId(63), TrafficClass::Benign);
        p.header.ttl = 3; // needs 14 hops
        sim.schedule(SimTime::ZERO, p);
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_ttl, 1);
        assert_eq!(stats.benign.delivered, 0);
    }

    #[test]
    fn blocked_routing_drops() {
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        // Isolate (0,0) partially: XY from (0,0) to (2,0) needs east.
        faults.add(&topo, &Coord::new(&[0, 0]), &Coord::new(&[1, 0]));
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig::default(),
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(8), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_blocked, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Topology::mesh2d(6);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let run = |seed: u64| {
            let sink = MemorySink::new();
            let mut sim = Simulation::new(
                &topo,
                &faults,
                Router::fully_adaptive_for(&topo),
                SelectionPolicy::Random,
                &marker,
                traced(&sink, SimConfig::seeded(seed)),
            );
            for id in 0..50u64 {
                let s = NodeId((id % 36) as u32);
                let d = NodeId(((id * 7 + 3) % 36) as u32);
                if s == d {
                    continue;
                }
                let mut p = mk_packet(&map, id, s, d, TrafficClass::Benign);
                p.header.ttl = 64;
                sim.schedule(SimTime(id), p);
            }
            sim.run();
            sim.delivered()
                .iter()
                .map(|d| (d.packet.id, d.delivered_at, sink.path(d.packet.id.0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(123), run(123), "same seed must reproduce exactly");
        assert_ne!(run(123), run(456), "different seeds should diverge");
    }

    #[test]
    fn injection_filter_quarantines_source() {
        struct BlockNode0;
        impl Filter for BlockNode0 {
            fn block_at_injection(&self, _pkt: &Packet, src: &Coord) -> bool {
                *src == Coord::new(&[0, 0])
            }
        }
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let filter = BlockNode0;
        let mut sim = Simulation::with_filter(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            &filter,
            SimConfig::default(),
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Attack),
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 2, NodeId(1), NodeId(5), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.attack.dropped_filtered, 1);
        assert_eq!(stats.benign.delivered, 1);
    }

    #[test]
    fn adaptive_routing_spreads_over_multiple_paths() {
        // §4.1: "Depending on the network's state and the adaptivity of
        // the routing, packets with the same source and the same
        // destination may take very different paths."
        let topo = Topology::mesh2d(6);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let sink = MemorySink::new();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &marker,
            traced(&sink, SimConfig::seeded(5)),
        );
        for id in 0..40u64 {
            sim.schedule(
                SimTime(id * 3),
                mk_packet(&map, id, NodeId(0), NodeId(35), TrafficClass::Benign),
            );
        }
        sim.run();
        let distinct: std::collections::HashSet<_> = sim
            .delivered()
            .iter()
            .map(|d| sink.path(d.packet.id.0))
            .collect();
        assert!(distinct.len() > 5, "expected many distinct paths");
    }

    #[test]
    fn link_down_mid_flight_claims_packet() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig::default(),
        );
        // Injected at 0, the packet departs (0,0) at cycle 4 and is on
        // the wire to (1,0) until cycle 6. The link dies at cycle 5.
        sim.schedule_faults(&FaultSchedule::from_events(vec![(
            5,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(4),
            },
        )]));
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(12), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_link_down, 1, "lost on the wire");
        assert_eq!(stats.benign.delivered, 0);
        assert_eq!(sim.drops(), &[(ddpm_net::PacketId(1), DropReason::LinkDown)]);
        assert_eq!(stats.faults.events_applied, 1);
        assert!(stats.accounted(0), "fail-stop, never silent loss");
    }

    #[test]
    fn switch_down_fail_stop_claims_queued_packets() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            link_latency: 1,
            service_cycles: 10,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        // Switch (1,0) dies at cycle 15 with a backlog serialising
        // through it; everything committed to it is claimed.
        sim.schedule_faults(&FaultSchedule::from_events(vec![(
            15,
            FaultEvent::SwitchDown { node: NodeId(4) },
        )]));
        for id in 0..6 {
            sim.schedule(
                SimTime::ZERO,
                mk_packet(&map, id, NodeId(0), NodeId(8), TrafficClass::Benign),
            );
        }
        let stats = sim.run();
        assert!(stats.benign.dropped_switch_down > 0, "fail-stop losses");
        assert!(
            stats.benign.delivered < 6,
            "the outage must cost deliveries"
        );
        assert!(stats.accounted(0));
    }

    #[test]
    fn stranded_packet_retry_rides_out_a_transient_fault() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig {
                retry: RetryPolicy::capped(8, 4, 64),
                ..SimConfig::default()
            },
        );
        // XY from (0,0) to (2,0) needs the east link, down during
        // [1, 50): without retries this is a Blocked drop (see
        // `blocked_routing_drops`); with them the switch parks the
        // packet until the repair.
        sim.schedule_faults(&FaultSchedule::from_events(vec![
            (
                1,
                FaultEvent::LinkDown {
                    a: NodeId(0),
                    b: NodeId(4),
                },
            ),
            (
                50,
                FaultEvent::LinkUp {
                    a: NodeId(0),
                    b: NodeId(4),
                },
            ),
        ]));
        sim.schedule(
            SimTime(5),
            mk_packet(&map, 1, NodeId(0), NodeId(8), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.delivered, 1, "the packet waits out the outage");
        assert_eq!(stats.benign.dropped(), 0);
        assert_eq!(stats.faults.window_injected, 1);
        assert_eq!(stats.faults.window_delivered, 1);
        assert_eq!(stats.faults.window_delivery_ratio(), 1.0);
        assert_eq!(stats.faults.recovery.count, 1, "time-to-recovery sampled");
        assert!(stats.faults.degraded_cycles >= 49);
    }

    #[test]
    fn reroute_exhaustion_is_a_typed_drop() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig {
                retry: RetryPolicy::capped(2, 4, 32),
                ..SimConfig::default()
            },
        );
        // The east link never comes back: the budget runs dry.
        sim.schedule_faults(&FaultSchedule::from_events(vec![(
            1,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(4),
            },
        )]));
        sim.schedule(
            SimTime(5),
            mk_packet(&map, 1, NodeId(0), NodeId(8), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_reroute, 1);
        assert_eq!(stats.benign.dropped_blocked, 0, "typed, not generic");
        assert_eq!(
            sim.drops(),
            &[(ddpm_net::PacketId(1), DropReason::RerouteExhausted)]
        );
    }

    #[test]
    fn injection_retry_waits_out_a_source_switch_outage() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig {
                retry: RetryPolicy::capped(8, 4, 64),
                ..SimConfig::default()
            },
        );
        sim.schedule_faults(&FaultSchedule::from_events(vec![
            (1, FaultEvent::SwitchDown { node: NodeId(0) }),
            (40, FaultEvent::SwitchUp { node: NodeId(0) }),
        ]));
        sim.schedule(
            SimTime(5),
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.injected, 1, "counted once across retries");
        assert_eq!(stats.benign.delivered, 1);
        assert!(
            sim.delivered()[0].delivered_at > SimTime(40),
            "held until the switch came back"
        );
    }

    #[test]
    fn source_down_without_retries_is_a_typed_drop() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig::default(),
        );
        sim.schedule_faults(&FaultSchedule::from_events(vec![(
            1,
            FaultEvent::SwitchDown { node: NodeId(0) },
        )]));
        sim.schedule(
            SimTime(5),
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_source_down, 1);
        assert_eq!(
            sim.drops(),
            &[(ddpm_net::PacketId(1), DropReason::SourceDown)]
        );
        assert!(stats.accounted(0));
    }

    #[test]
    fn adaptive_routing_detours_around_a_dynamic_fault() {
        use ddpm_topology::{FaultEvent, FaultSchedule};
        // The per-hop live re-query in action: an adaptive router picks
        // a different productive port when its preferred link dies
        // mid-journey — no retries needed.
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let sink = MemorySink::new();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::First,
            &marker,
            traced(&sink, SimConfig::default()),
        );
        // Kill the (0,0)–(1,0) link before the packet leaves; minimal
        // adaptive still has the (0,0)–(0,1) productive hop.
        sim.schedule_faults(&FaultSchedule::from_events(vec![(
            1,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(4),
            },
        )]));
        sim.schedule(
            SimTime(5),
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.delivered, 1);
        assert_eq!(sink.path(1), [0, 1, 5], "detoured via (0,1)");
    }

    #[test]
    fn watchdog_starvation_escape_rescues_a_blocked_packet() {
        use crate::watchdog::WatchdogConfig;
        // XY from (0,0) to (1,1) is blocked by a dead east link and a
        // huge retry backoff parks the packet far beyond max_age. The
        // watchdog classifies it starved (no hop progress) and escapes
        // it onto minimal-adaptive, which detours via (0,1) — rescued,
        // not dropped.
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        faults.add(&topo, &Coord::new(&[0, 0]), &Coord::new(&[1, 0]));
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            retry: RetryPolicy::capped(100, 512, 512),
            watchdog: Some(WatchdogConfig {
                check_period: 16,
                max_age: 64,
                stall_cycles: 1 << 40,
                escape: Some(Router::MinimalAdaptive),
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(5), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.delivered, 1, "escape route rescued it");
        assert_eq!(stats.benign.dropped(), 0);
        assert_eq!(stats.watchdog.starvations, 1);
        assert_eq!(stats.watchdog.escapes, 1);
        assert_eq!(stats.watchdog.livelocks, 0);
        assert!(stats.watchdog.checks >= 4);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn watchdog_deadlock_is_a_typed_drop_never_a_hang() {
        use crate::watchdog::WatchdogConfig;
        // Same blocked packet, but the stall detector is armed tighter
        // than the retry backoff: the network makes no progress, so the
        // watchdog declares deadlock and claims the packet with a typed
        // reason instead of letting retries spin.
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        faults.add(&topo, &Coord::new(&[0, 0]), &Coord::new(&[1, 0]));
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            retry: RetryPolicy::capped(1000, 512, 512),
            watchdog: Some(WatchdogConfig {
                check_period: 16,
                max_age: 1 << 40,
                stall_cycles: 128,
                escape: Some(Router::DimensionOrder),
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(8), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_deadlock, 1);
        assert_eq!(stats.watchdog.deadlocks, 1);
        assert_eq!(
            sim.drops(),
            &[(ddpm_net::PacketId(1), DropReason::DeadlockVictim)]
        );
        assert!(stats.accounted(0));
        assert!(
            stats.end_time < 1000,
            "deadlock recovery must cut the retry spin short"
        );
    }

    #[test]
    fn watchdog_escalates_to_livelock_escaped_when_escape_also_fails() {
        use crate::watchdog::WatchdogConfig;
        // The escape router is dimension-order — blocked by the same
        // dead link. One max_age after the escape, the second escalation
        // stage fires: the typed LivelockEscaped drop.
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        faults.add(&topo, &Coord::new(&[0, 0]), &Coord::new(&[1, 0]));
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            retry: RetryPolicy::capped(1000, 32, 32),
            watchdog: Some(WatchdogConfig {
                check_period: 16,
                max_age: 64,
                stall_cycles: 1 << 40,
                escape: Some(Router::DimensionOrder),
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(8), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.dropped_livelock, 1);
        assert_eq!(stats.watchdog.escapes, 1);
        assert_eq!(
            sim.drops(),
            &[(ddpm_net::PacketId(1), DropReason::LivelockEscaped)]
        );
        assert!(stats.accounted(0));
    }

    #[test]
    fn watchdog_classifies_a_moving_overage_packet_as_livelock() {
        use crate::watchdog::WatchdogConfig;
        // With max_age tightened below normal transit time, a healthy
        // long-haul packet is over age *while still making hops* — the
        // livelock classification — and the DOR escape still lands it.
        let topo = Topology::mesh2d(8);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            watchdog: Some(WatchdogConfig {
                check_period: 4,
                max_age: 8,
                stall_cycles: 1 << 40,
                escape: Some(Router::DimensionOrder),
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &marker,
            cfg,
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(63), TrafficClass::Benign),
        );
        let stats = sim.run();
        assert_eq!(stats.benign.delivered, 1);
        assert_eq!(stats.watchdog.livelocks, 1);
        assert_eq!(stats.watchdog.starvations, 0);
        assert!(stats.watchdog.max_age_seen >= 8);
    }

    #[test]
    fn invariant_selftest_injects_a_recorded_violation() {
        use crate::invariant::InvariantConfig;
        // The chaos self-test: a synthetic violation at a chosen cycle
        // proves the detection → record → trace-tail pipeline works
        // end-to-end (the soak harness replays bundles through this).
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            invariants: InvariantConfig {
                selftest_at: Some(10),
                ..InvariantConfig::recording()
            },
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(12), TrafficClass::Benign),
        );
        sim.run();
        let vs = sim.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].invariant, "selftest");
        assert!(vs[0].cycle >= 10);
        assert!(
            !sim.trace_tail().is_empty(),
            "the repro tail captured events"
        );
        // Determinism: a second identical run reports the identical
        // violation identity — the property replay relies on.
        let mut sim2 = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            SimConfig {
                invariants: InvariantConfig {
                    selftest_at: Some(10),
                    ..InvariantConfig::recording()
                },
                ..SimConfig::default()
            },
        );
        sim2.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(12), TrafficClass::Benign),
        );
        sim2.run();
        assert_eq!(sim2.violations()[0].identity(), vs[0].identity());
    }

    #[test]
    fn link_corruption_is_detected_and_dropped() {
        let topo = Topology::mesh2d(8);
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(&topo);
        let marker = NoMarking;
        let cfg = SimConfig {
            bit_error_rate: 0.05,
            ..SimConfig::seeded(13)
        };
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &marker,
            cfg,
        );
        for id in 0..300u64 {
            sim.schedule(
                SimTime(id * 4),
                mk_packet(&map, id, NodeId(0), NodeId(63), TrafficClass::Benign),
            );
        }
        let stats = sim.run();
        assert!(
            stats.benign.dropped_corrupt > 0,
            "5% BER over 14 hops must corrupt some packets"
        );
        assert!(stats.benign.delivered > 0, "most packets still arrive");
        assert!(stats.accounted(0));
        // Single-bit damage is always caught: no delivered packet can
        // carry a corrupted header (checksum would have failed).
        for d in sim.delivered() {
            assert!(ddpm_net::Ipv4Header::parse(&d.packet.header.to_bytes()).is_ok());
        }
    }
}
