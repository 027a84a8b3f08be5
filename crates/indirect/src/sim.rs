//! A compact discrete-event model of the butterfly fabric.
//!
//! Same modelling level as `ddpm-sim` (store-and-forward, per-output-
//! port serialisation, finite buffers, seeded determinism), specialised
//! to the staged fabric: a packet's route is the unique
//! [`crate::Butterfly::route`], so the event loop only has to arbitrate
//! port contention, apply the marking scheme, and deliver.
//!
//! Statistics use the same [`SimStats`]/[`ddpm_sim::ClassCounters`]
//! shape as the direct-network simulator, and telemetry emits the same
//! NDJSON event schema — one trace consumer and one report shape work
//! for every topology family.

use crate::butterfly::Butterfly;
use crate::marking::PortMarking;
use ddpm_net::Packet;
use ddpm_sim::{InvariantChecker, SimConfig, SimStats, SimTime, Violation};
use ddpm_telemetry::{EventKind as TelEvent, PacketEvent, Telemetry, TelemetryConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A packet delivered to its destination terminal.
#[derive(Clone, Debug)]
pub struct MinDelivered {
    /// The packet as received (final marking field included).
    pub packet: Packet,
    /// Injection time at the source terminal.
    pub injected_at: SimTime,
    /// Delivery time at the destination terminal.
    pub delivered_at: SimTime,
}

/// Event: packet `pkt` arrives at stage `stage` (or at the destination
/// terminal when `stage == n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Ev {
    time: SimTime,
    seq: u64,
    pkt: usize,
    stage: u8,
}

/// A butterfly simulation run.
pub struct MinSimulation {
    fly: Butterfly,
    scheme: PortMarking,
    /// Per-packet cycles through one switch output port.
    pub service_cycles: u64,
    /// Stage-to-stage link latency in cycles.
    pub link_latency: u64,
    /// Output buffer depth per port.
    pub buffer_packets: u32,
    pkts: Vec<(Packet, SimTime)>,
    /// Stages actually crossed per packet — the `stage_coverage`
    /// invariant compares this against the fabric depth at delivery.
    crossed: Vec<u8>,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    /// Busy-until cycle per output port, indexed
    /// `(stage · switches_per_stage + switch) · radix + out_port` —
    /// the dense mirror of the direct simulator's port array.
    ports: Vec<u64>,
    /// Ports per switch, cached for [`Self::port_index`].
    radix: usize,
    /// Switches per stage, cached for [`Self::port_index`].
    switches_per_stage: usize,
    stats: SimStats,
    delivered: Vec<MinDelivered>,
    /// Packets injected but not yet delivered or dropped.
    live: u64,
    /// Live telemetry, `None` when disabled — the zero-cost path.
    tele: Option<Box<Telemetry>>,
    /// Runtime invariant checking — the same machinery (and defaults)
    /// as the direct-network simulator.
    checker: InvariantChecker,
}

impl MinSimulation {
    /// Builds a run over `fly` with `scheme` installed in every switch,
    /// default timing and no telemetry.
    #[must_use]
    pub fn new(fly: Butterfly, scheme: PortMarking) -> Self {
        Self::with_config(fly, scheme, &SimConfig::default())
    }

    /// Builds a run taking timing, buffering and telemetry from `cfg`
    /// (the same [`SimConfig`] the direct-network simulator uses; knobs
    /// with no butterfly counterpart — routing retries, bit errors —
    /// are ignored).
    #[must_use]
    pub fn with_config(fly: Butterfly, scheme: PortMarking, cfg: &SimConfig) -> Self {
        let radix = usize::from(fly.radix());
        let switches_per_stage = usize::try_from(fly.switches_per_stage())
            .expect("butterfly stage fits in memory");
        let ports = vec![0u64; usize::from(fly.stages()) * switches_per_stage * radix];
        Self {
            fly,
            scheme,
            service_cycles: cfg.service_cycles,
            link_latency: cfg.link_latency,
            buffer_packets: cfg.buffer_packets,
            pkts: Vec::new(),
            crossed: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            ports,
            radix,
            switches_per_stage,
            stats: SimStats::default(),
            delivered: Vec::new(),
            live: 0,
            tele: Telemetry::from_config(&cfg.telemetry).map(Box::new),
            checker: InvariantChecker::new(cfg.invariants),
        }
    }

    /// Installs telemetry on an already-built run (keeps the terse
    /// `new()` + field-tweak construction style usable with tracing).
    pub fn set_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.tele = Telemetry::from_config(cfg).map(Box::new);
    }

    /// Live telemetry state, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tele.as_deref()
    }

    /// Schedules `packet` for injection at `time`.
    pub fn schedule(&mut self, time: SimTime, packet: Packet) {
        let idx = self.pkts.len();
        self.pkts.push((packet, time));
        self.crossed.push(0);
        self.push_ev(time, idx, 0);
    }

    fn push_ev(&mut self, time: SimTime, pkt: usize, stage: u8) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time,
            seq,
            pkt,
            stage,
        }));
    }

    /// Dense trace-node index of a stage switch. Terminals keep their
    /// own ids; switches are numbered after them, stage-major, so every
    /// node in a trace line is unambiguous.
    fn switch_node(&self, stage: u8, switch: u32) -> u32 {
        let base = self.fly.terminals() + u64::from(stage) * self.fly.switches_per_stage();
        (base + u64::from(switch)) as u32
    }

    /// Dense index of a switch output port in [`Self::ports`].
    #[inline]
    fn port_index(&self, stage: u8, switch: u32, out_port: u16) -> usize {
        (usize::from(stage) * self.switches_per_stage + switch as usize) * self.radix
            + usize::from(out_port)
    }

    #[inline]
    fn tele_on(&self) -> bool {
        self.tele.as_ref().is_some_and(|t| t.events_on())
    }

    /// True when lifecycle events have at least one consumer: live
    /// telemetry, or the invariant checker's trace tail.
    #[inline]
    fn obs_on(&self) -> bool {
        self.tele_on() || self.checker.tail_on()
    }

    /// Records one lifecycle event to every active consumer. Only call
    /// behind [`MinSimulation::obs_on`].
    fn emit(&mut self, cycle: u64, pkt: usize, node: u32, kind: TelEvent) {
        let ev = PacketEvent {
            cycle,
            pkt: self.pkts[pkt].0.id.0,
            node,
            kind,
        };
        if self.tele_on() {
            self.tele
                .as_mut()
                .expect("tele_on implies telemetry")
                .record(ev);
        }
        self.checker.record_tail(ev);
    }

    /// Records (and, per config, panics on) one invariant violation.
    fn report_violation(
        &mut self,
        cycle: u64,
        pkt: u64,
        node: u32,
        invariant: &'static str,
        detail: String,
    ) {
        let v = Violation {
            cycle,
            pkt,
            node,
            invariant,
            detail,
        };
        let msg = format!("invariant violation: {v:?}");
        if self.checker.report(v) {
            panic!("{msg}");
        }
    }

    /// Runs to quiescence.
    pub fn run(&mut self) -> SimStats {
        let profiling = self.tele.as_ref().is_some_and(|t| t.profiling());
        let mut end = 0u64;
        while let Some(Reverse(ev)) = self.events.pop() {
            end = end.max(ev.time.cycles());
            let t0 = profiling.then(Instant::now);
            let phase = if ev.stage == self.fly.stages() {
                "deliver"
            } else {
                "stage"
            };
            self.handle(ev);
            if self.checker.enabled() {
                self.post_event_checks(ev.time.cycles());
            }
            if let Some(t0) = t0 {
                let elapsed = t0.elapsed();
                self.tele
                    .as_mut()
                    .expect("profiling implies telemetry")
                    .profile(phase, elapsed);
            }
        }
        self.stats.end_time = self.stats.end_time.max(end);
        debug_assert_eq!(self.live, 0, "run ended with packets unaccounted");
        debug_assert!(self.stats.accounted(0), "packet conservation violated");
        if let Some(t) = self.tele.as_mut() {
            t.finish();
        }
        self.stats
    }

    /// Checks that run after every event while the checker is enabled:
    /// packet conservation, and the synthetic self-test violation.
    fn post_event_checks(&mut self, cycle: u64) {
        if let Some(at) = self.checker.selftest_pending() {
            if cycle >= at {
                self.checker.mark_selftest_fired();
                self.report_violation(
                    cycle,
                    0,
                    u32::MAX,
                    "selftest",
                    format!("synthetic self-test violation requested at cycle {at}"),
                );
            }
        }
        if !self.stats.accounted(self.live) {
            let t = self.stats.total();
            self.report_violation(
                cycle,
                0,
                u32::MAX,
                "conservation",
                format!(
                    "injected {} != delivered {} + dropped {} + in_flight {}",
                    t.injected,
                    t.delivered,
                    t.dropped(),
                    self.live
                ),
            );
        }
    }

    fn handle(&mut self, ev: Ev) {
        let n = self.fly.stages();
        let (packet, injected_at) = self.pkts[ev.pkt];
        if ev.stage == 0 && ev.time == injected_at {
            self.stats.class_mut(packet.class).injected += 1;
            self.live += 1;
            if self.obs_on() {
                self.emit(ev.time.cycles(), ev.pkt, packet.true_source.0, TelEvent::Inject);
            }
            // Injection edge: the fabric clears the marking field.
            let before = self.pkts[ev.pkt].0.header.identification.raw();
            self.scheme
                .on_inject(&mut self.pkts[ev.pkt].0.header.identification);
            let after = self.pkts[ev.pkt].0.header.identification.raw();
            if after != before && self.obs_on() {
                self.emit(
                    ev.time.cycles(),
                    ev.pkt,
                    packet.true_source.0,
                    TelEvent::Mark {
                        mf: after,
                        scheme: self.scheme.name(),
                    },
                );
            }
        }
        if ev.stage == n {
            // Arrived at the destination terminal.
            let (packet, injected_at) = self.pkts[ev.pkt];
            let latency = ev.time - injected_at;
            let c = self.stats.class_mut(packet.class);
            c.delivered += 1;
            c.latency.record(latency);
            c.total_hops += u64::from(n);
            self.live -= 1;
            if self.checker.enabled() && self.crossed[ev.pkt] != n {
                self.report_violation(
                    ev.time.cycles(),
                    packet.id.0,
                    packet.dest_node.0,
                    "stage_coverage",
                    format!(
                        "delivered after crossing {} stages, fabric has {n}",
                        self.crossed[ev.pkt]
                    ),
                );
            }
            if self.obs_on() {
                self.emit(
                    ev.time.cycles(),
                    ev.pkt,
                    packet.dest_node.0,
                    TelEvent::Deliver {
                        mf: packet.header.identification.raw(),
                        latency,
                        hops: u32::from(n),
                    },
                );
                // The victim-side half of the scheme runs on delivery:
                // port marking answers from a single packet, so every
                // delivery carries its attribution in the trace.
                let att = self.scheme.attribute(packet.header.identification);
                self.emit(
                    ev.time.cycles(),
                    ev.pkt,
                    packet.dest_node.0,
                    TelEvent::Attribute {
                        scheme: self.scheme.name(),
                        candidates: att.candidates.len() as u32,
                        confidence_pm: (att.confidence * 1000.0).round() as u32,
                    },
                );
            }
            self.delivered.push(MinDelivered {
                packet,
                injected_at,
                delivered_at: ev.time,
            });
            return;
        }
        // Cross stage `ev.stage`.
        let route = self.fly.route(packet.true_source, packet.dest_node);
        let hop = route[usize::from(ev.stage)];
        let here = self.switch_node(hop.stage, hop.switch);
        let port = self.port_index(hop.stage, hop.switch, hop.out_port);
        let busy = self.ports[port];
        let backlog = busy.saturating_sub(ev.time.cycles()) / self.service_cycles.max(1);
        if backlog >= u64::from(self.buffer_packets) {
            self.stats.class_mut(packet.class).dropped_buffer += 1;
            self.live -= 1;
            if self.obs_on() {
                self.emit(
                    ev.time.cycles(),
                    ev.pkt,
                    here,
                    TelEvent::Drop {
                        reason: "buffer_overflow",
                    },
                );
            }
            return;
        }
        let before = self.pkts[ev.pkt].0.header.identification.raw();
        self.scheme.on_stage(
            &mut self.pkts[ev.pkt].0.header.identification,
            hop.stage,
            hop.in_port,
        );
        let after = self.pkts[ev.pkt].0.header.identification.raw();
        let depart = busy.max(ev.time.cycles()) + self.service_cycles;
        self.ports[port] = depart;
        self.crossed[ev.pkt] += 1;
        if self.obs_on() {
            if after != before {
                self.emit(
                    ev.time.cycles(),
                    ev.pkt,
                    here,
                    TelEvent::Mark {
                        mf: after,
                        scheme: self.scheme.name(),
                    },
                );
            }
            let next = if usize::from(ev.stage) + 1 < route.len() {
                let h = route[usize::from(ev.stage) + 1];
                self.switch_node(h.stage, h.switch)
            } else {
                packet.dest_node.0
            };
            self.emit(ev.time.cycles(), ev.pkt, here, TelEvent::Forward { next });
        }
        self.push_ev(SimTime(depart + self.link_latency), ev.pkt, ev.stage + 1);
    }

    /// Delivered packets, in delivery order.
    #[must_use]
    pub fn delivered(&self) -> &[MinDelivered] {
        &self.delivered
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Invariant violations recorded so far (empty in a correct run).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// The checker's trailing lifecycle events, oldest first.
    #[must_use]
    pub fn trace_tail(&self) -> Vec<ddpm_telemetry::PacketEvent> {
        self.checker.tail_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::{AddrMap, Ipv4Header, PacketId, Protocol, TrafficClass, L4};
    use ddpm_sim::ClassCounters;
    use ddpm_telemetry::{shared, MemorySink};
    use ddpm_topology::{NodeId, Topology};

    fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId, class: TrafficClass) -> Packet {
        Packet {
            id: PacketId(id),
            header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
            l4: L4::udp(1, 7),
            true_source: src,
            dest_node: dst,
            class,
        }
    }

    /// An address map with as many entries as the fly has terminals
    /// (AddrMap only needs a node count; reuse a topology of equal size).
    fn map_for(fly: &Butterfly) -> AddrMap {
        let n = fly.terminals();
        let side = (n as f64).sqrt() as u16;
        assert_eq!(u64::from(side) * u64::from(side), n, "square only in tests");
        AddrMap::for_topology(&Topology::mesh2d(side))
    }

    #[test]
    fn every_delivered_packet_identifies_its_terminal() {
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let mut sim = MinSimulation::new(fly, scheme);
        for id in 0..200u64 {
            let s = NodeId((id as u32 * 5 + 1) % 16);
            let d = NodeId((id as u32 * 3 + 7) % 16);
            if s == d {
                continue;
            }
            // Spoof every header.
            let mut p = mk_packet(&map, id, s, d, TrafficClass::Attack);
            p.header.src = map.ip_of(NodeId((id as u32 * 11) % 16));
            sim.schedule(SimTime(id * 4), p);
        }
        let stats = sim.run();
        assert!(stats.attack.delivered > 0);
        for d in sim.delivered() {
            assert_eq!(
                scheme.identify(d.packet.header.identification),
                d.packet.true_source
            );
        }
    }

    #[test]
    fn latency_floor_matches_stage_count() {
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let mut sim = MinSimulation::new(fly, scheme);
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 0, NodeId(0), NodeId(15), TrafficClass::Benign),
        );
        sim.run();
        let d = &sim.delivered()[0];
        // 4 stages × (4 service + 2 link) = 24 cycles.
        assert_eq!(d.delivered_at - d.injected_at, 24);
    }

    #[test]
    fn hotspot_flood_overflows_buffers() {
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let mut sim = MinSimulation::new(fly, scheme);
        sim.buffer_packets = 4;
        for id in 0..100u64 {
            let s = NodeId((id % 15) as u32);
            let p = mk_packet(&map, id, s, NodeId(15), TrafficClass::Attack);
            sim.schedule(SimTime::ZERO, p);
        }
        let stats = sim.run();
        assert!(stats.attack.dropped_buffer > 0, "hotspot must congest");
        assert!(stats.accounted(0));
    }

    #[test]
    fn contention_serialises_shared_ports() {
        let fly = Butterfly::new(2, 2);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let mut sim = MinSimulation::new(fly, scheme);
        // Two packets from the same source to the same destination share
        // the whole route.
        for id in 0..2 {
            sim.schedule(
                SimTime::ZERO,
                mk_packet(&map, id, NodeId(0), NodeId(3), TrafficClass::Benign),
            );
        }
        sim.run();
        let t: Vec<u64> = sim.delivered().iter().map(|d| d.delivered_at.0).collect();
        assert_eq!(t.len(), 2);
        assert!(t[1] > t[0], "second packet must queue behind the first");
    }

    #[test]
    fn stats_share_the_direct_network_shape() {
        // The unification satellite: one counter block for both
        // simulators, so exp_* reports read the same fields everywhere.
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let mut sim = MinSimulation::new(fly, scheme);
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 0, NodeId(0), NodeId(15), TrafficClass::Benign),
        );
        let stats: SimStats = sim.run();
        let total: ClassCounters = stats.total();
        assert_eq!(total.injected, 1);
        assert_eq!(total.delivered, 1);
        assert_eq!(total.latency.count, 1);
        assert_eq!(total.latency.max, 24);
        assert_eq!(stats.benign.mean_hops(), Some(4.0));
        assert_eq!(stats.end_time, 24);
    }

    #[test]
    fn trace_spells_the_source_digit_by_digit() {
        // Same schema as the direct simulator: inject → (mark, forward)
        // per stage → deliver, and the last mark equals the delivered MF.
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let sink = MemorySink::new();
        let cfg = SimConfig {
            telemetry: TelemetryConfig::events_to(shared(sink.clone())),
            ..SimConfig::default()
        };
        let mut sim = MinSimulation::with_config(fly, scheme, &cfg);
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 7, NodeId(9), NodeId(15), TrafficClass::Attack),
        );
        sim.run();
        let events = sink.events_for(7);
        assert!(matches!(events[0].kind, TelEvent::Inject));
        let marks: Vec<u16> = events
            .iter()
            .filter_map(|e| match e.kind {
                TelEvent::Mark { mf, scheme } => {
                    assert_eq!(scheme, "port", "mark events name the scheme");
                    Some(mf)
                }
                _ => None,
            })
            .collect();
        // The trace ends deliver → attribute: the victim's answer rides
        // in the same stream as the evidence that produced it.
        let last = events.last().unwrap();
        let TelEvent::Attribute {
            scheme: att_scheme,
            candidates,
            confidence_pm,
        } = last.kind
        else {
            panic!("trace must end with attribute, got {last:?}");
        };
        assert_eq!((att_scheme, candidates, confidence_pm), ("port", 1, 1000));
        let deliver = &events[events.len() - 2];
        let TelEvent::Deliver { mf, latency, hops } = deliver.kind else {
            panic!("attribute must follow deliver, got {deliver:?}");
        };
        assert_eq!(marks.last().copied(), Some(mf), "marks reproduce the MF");
        assert_eq!(latency, 24);
        assert_eq!(hops, 4);
        assert_eq!(
            scheme.identify(ddpm_net::MarkingField::new(mf)),
            NodeId(9),
            "the victim identifies the true source from the traced MF"
        );
        assert_eq!(sim.telemetry().unwrap().count_of("forward"), 4);
    }

    #[test]
    fn checked_run_records_no_violations() {
        // The butterfly mirror of the direct simulator's invariant
        // checking: conservation after every event and stage coverage
        // at delivery, clean across a congested run with drops.
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let cfg = SimConfig {
            invariants: ddpm_sim::InvariantConfig::strict(),
            buffer_packets: 4,
            ..SimConfig::default()
        };
        let mut sim = MinSimulation::with_config(fly, scheme, &cfg);
        for id in 0..100u64 {
            let s = NodeId((id % 15) as u32);
            sim.schedule(
                SimTime::ZERO,
                mk_packet(&map, id, s, NodeId(15), TrafficClass::Attack),
            );
        }
        let stats = sim.run();
        assert!(stats.attack.dropped_buffer > 0, "drops must be exercised");
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn selftest_violation_is_recorded_with_a_trace_tail() {
        // The chaos self-test drives the violation machinery end to end
        // without a real bug — same contract as the direct simulator.
        let fly = Butterfly::new(2, 4);
        let scheme = PortMarking::new(fly).unwrap();
        let map = map_for(&fly);
        let cfg = SimConfig {
            invariants: ddpm_sim::InvariantConfig {
                selftest_at: Some(5),
                ..ddpm_sim::InvariantConfig::recording()
            },
            ..SimConfig::default()
        };
        let mut sim = MinSimulation::with_config(fly, scheme, &cfg);
        sim.schedule(
            SimTime::ZERO,
            mk_packet(&map, 1, NodeId(0), NodeId(15), TrafficClass::Benign),
        );
        sim.run();
        let vs = sim.violations();
        assert_eq!(vs.len(), 1, "self-test fires exactly once");
        assert_eq!(vs[0].invariant, "selftest");
        assert!(vs[0].cycle >= 5);
        assert!(!sim.trace_tail().is_empty(), "tail captured for the bundle");
    }
}
