//! Binary codec for [`SimSnapshot`].
//!
//! A deliberately boring little-endian format: fixed-width integers,
//! `u32`-length-prefixed strings and sequences, one tag byte per enum
//! variant. No self-description — the [`crate::FORMAT_VERSION`] in the
//! checkpoint header is the only schema negotiation — but every decode
//! is fully validated: truncation, unknown tags and unknown interned
//! identifiers all surface as a typed [`DecodeError`] rather than a
//! panic or a silently wrong snapshot.
//!
//! The `&'static str` identifiers embedded in violations and telemetry
//! events (invariant names, watchdog actions, drop reasons) are written
//! as plain strings and re-interned on decode against the closed
//! vocabulary in `intern`; the vocabulary is append-only, exactly
//! like the NDJSON schema it mirrors.

use ddpm_net::{Ipv4Header, L4, MarkingField, Packet, PacketId, Protocol, TcpFlags, TrafficClass};
use ddpm_routing::RouteState;
use ddpm_sim::event::{Event, EventKind};
use ddpm_sim::network::{Delivered, DropReason};
use ddpm_sim::snapshot::{FlightSnap, SimSnapshot, SlotSnap};
use ddpm_sim::stats::{ClassCounters, FaultStats, SimStats};
use ddpm_sim::watchdog::WatchdogStats;
use ddpm_sim::{AdversaryState, SimTime, Violation};
use ddpm_telemetry::{EventKind as TelKind, LatencyStats, PacketEvent, RetryKind};
use ddpm_topology::{FaultEvent, NodeId};
use std::fmt;
use std::net::Ipv4Addr;

/// Why a byte stream failed to decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The stream ended before the value it promised.
    Truncated,
    /// An enum tag byte outside the known range.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// An embedded string was not valid UTF-8.
    BadUtf8,
    /// An interned identifier outside the closed vocabulary (a newer
    /// writer, or corruption that survived the checksum).
    UnknownIdent(String),
    /// Bytes left over after the root value — length corruption.
    TrailingBytes(usize),
    /// A delivery or flight record carries a recorded path. Format 4
    /// keeps a slot for one in each record; the simulator no longer
    /// records paths, so a file that fills a slot is refused.
    RecordedPath {
        /// Which record: `"delivery"` or `"flight"`.
        record: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            DecodeError::BadUtf8 => write!(f, "embedded string is not UTF-8"),
            DecodeError::UnknownIdent(s) => write!(f, "unknown interned identifier {s:?}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
            DecodeError::RecordedPath { record } => {
                write!(f, "{record} record carries a recorded path")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The closed vocabulary of `&'static str` identifiers a snapshot can
/// embed. Append-only — removing or renaming an entry orphans every
/// existing checkpoint that uses it.
const IDENTS: &[&str] = &[
    // Invariant identifiers (`Violation::invariant`).
    "conservation",
    "mark_in_transit",
    // No longer checked; old violation logs name it.
    "path_consistency",
    "fault_coherence",
    "stale_handle",
    "selftest",
    // Watchdog actions (`EventKind::Watchdog`).
    "deadlock_detected",
    "livelock_detected",
    "starvation_detected",
    "escape",
    // Drop reasons (`DropReason::as_str`, embedded in trace events).
    "buffer_overflow",
    "ttl_expired",
    "blocked",
    "hop_limit",
    "filtered",
    "corrupted",
    "switch_down",
    "link_down",
    "reroute_exhausted",
    "source_down",
    "livelock_escaped",
    "deadlock_victim",
    // Marking-scheme names (`Marker::name`, embedded in the
    // Mark/Attribute/AuthReject telemetry events a snapshot buffers).
    "none",
    "ddpm",
    "dpm",
    "ppm-edge",
    "ppm-xor",
    "ppm-bitdiff",
    "ppm-ams",
    "ppm-fms",
    "tracemax",
    "port",
    "auth-ddpm",
    "auth-dpm",
    "auth-ppm-edge",
    "auth-ppm-xor",
    "auth-tracemax",
    // Adversary behaviors (`AdversaryBehavior::as_str`, embedded in
    // MarkTamper telemetry events).
    "skip",
    "frame",
    "randomize",
    "replay",
    "mark-flood",
    "collude",
];

/// Re-interns `s` against the closed vocabulary.
fn intern(s: &str) -> Result<&'static str, DecodeError> {
    IDENTS
        .iter()
        .find(|&&k| k == s)
        .copied()
        .ok_or_else(|| DecodeError::UnknownIdent(s.to_string()))
}

/// Little-endian byte writer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("sequence longer than u32::MAX"));
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

/// Validating little-endian byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        // A sequence of n elements needs at least n bytes — reject
        // absurd lengths before any attempt to reserve memory for them.
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn ident(&mut self) -> Result<&'static str, DecodeError> {
        intern(&self.str()?)
    }
}

// --------------------------------------------------------------------
// Leaf types
// --------------------------------------------------------------------

fn put_node(w: &mut Writer, n: NodeId) {
    w.u32(n.0);
}

fn get_node(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId(r.u32()?))
}

fn put_header(w: &mut Writer, h: &Ipv4Header) {
    w.u8(h.tos);
    w.u16(h.total_length);
    w.u16(h.identification.raw());
    w.u16(h.flags_fragment);
    w.u8(h.ttl);
    w.u8(h.protocol.number());
    w.u32(u32::from(h.src));
    w.u32(u32::from(h.dst));
}

fn get_header(r: &mut Reader<'_>) -> Result<Ipv4Header, DecodeError> {
    Ok(Ipv4Header {
        tos: r.u8()?,
        total_length: r.u16()?,
        identification: MarkingField::new(r.u16()?),
        flags_fragment: r.u16()?,
        ttl: r.u8()?,
        protocol: Protocol::from_number(r.u8()?),
        src: Ipv4Addr::from(r.u32()?),
        dst: Ipv4Addr::from(r.u32()?),
    })
}

fn put_l4(w: &mut Writer, l4: &L4) {
    match *l4 {
        L4::Udp { src_port, dst_port } => {
            w.u8(0);
            w.u16(src_port);
            w.u16(dst_port);
        }
        L4::Tcp {
            src_port,
            dst_port,
            flags,
            seq,
        } => {
            w.u8(1);
            w.u16(src_port);
            w.u16(dst_port);
            w.u8(flags.to_byte());
            w.u32(seq);
        }
        L4::Icmp { kind } => {
            w.u8(2);
            w.u8(kind);
        }
    }
}

fn get_l4(r: &mut Reader<'_>) -> Result<L4, DecodeError> {
    match r.u8()? {
        0 => Ok(L4::Udp {
            src_port: r.u16()?,
            dst_port: r.u16()?,
        }),
        1 => Ok(L4::Tcp {
            src_port: r.u16()?,
            dst_port: r.u16()?,
            flags: TcpFlags::from_byte(r.u8()?),
            seq: r.u32()?,
        }),
        2 => Ok(L4::Icmp { kind: r.u8()? }),
        tag => Err(DecodeError::BadTag { what: "L4", tag }),
    }
}

fn put_packet(w: &mut Writer, p: &Packet) {
    w.u64(p.id.0);
    put_header(w, &p.header);
    put_l4(w, &p.l4);
    put_node(w, p.true_source);
    put_node(w, p.dest_node);
    w.u8(match p.class {
        TrafficClass::Benign => 0,
        TrafficClass::Attack => 1,
    });
}

fn get_packet(r: &mut Reader<'_>) -> Result<Packet, DecodeError> {
    Ok(Packet {
        id: PacketId(r.u64()?),
        header: get_header(r)?,
        l4: get_l4(r)?,
        true_source: get_node(r)?,
        dest_node: get_node(r)?,
        class: match r.u8()? {
            0 => TrafficClass::Benign,
            1 => TrafficClass::Attack,
            tag => return Err(DecodeError::BadTag { what: "TrafficClass", tag }),
        },
    })
}

fn put_route_state(w: &mut Writer, s: &RouteState) {
    w.u32(s.hops);
    w.u32(s.misroutes_used);
    w.u32(s.misroute_budget);
    w.u16(s.moved_plus);
    w.u16(s.moved_minus);
}

fn get_route_state(r: &mut Reader<'_>) -> Result<RouteState, DecodeError> {
    Ok(RouteState {
        hops: r.u32()?,
        misroutes_used: r.u32()?,
        misroute_budget: r.u32()?,
        moved_plus: r.u16()?,
        moved_minus: r.u16()?,
    })
}

fn put_fault_event(w: &mut Writer, e: &FaultEvent) {
    match *e {
        FaultEvent::LinkDown { a, b } => {
            w.u8(0);
            put_node(w, a);
            put_node(w, b);
        }
        FaultEvent::LinkUp { a, b } => {
            w.u8(1);
            put_node(w, a);
            put_node(w, b);
        }
        FaultEvent::SwitchDown { node } => {
            w.u8(2);
            put_node(w, node);
        }
        FaultEvent::SwitchUp { node } => {
            w.u8(3);
            put_node(w, node);
        }
    }
}

fn get_fault_event(r: &mut Reader<'_>) -> Result<FaultEvent, DecodeError> {
    match r.u8()? {
        0 => Ok(FaultEvent::LinkDown {
            a: get_node(r)?,
            b: get_node(r)?,
        }),
        1 => Ok(FaultEvent::LinkUp {
            a: get_node(r)?,
            b: get_node(r)?,
        }),
        2 => Ok(FaultEvent::SwitchDown { node: get_node(r)? }),
        3 => Ok(FaultEvent::SwitchUp { node: get_node(r)? }),
        tag => Err(DecodeError::BadTag { what: "FaultEvent", tag }),
    }
}

fn put_event(w: &mut Writer, e: &Event) {
    w.u64(e.time.0);
    w.u64(e.seq);
    match e.kind {
        EventKind::Inject { pkt } => {
            w.u8(0);
            w.u64(pkt as u64);
        }
        EventKind::Arrive { pkt, node, from } => {
            w.u8(1);
            w.u64(pkt as u64);
            w.u32(node);
            w.u32(from);
        }
        EventKind::Reroute { pkt, node } => {
            w.u8(2);
            w.u64(pkt as u64);
            w.u32(node);
        }
        EventKind::Fault { event } => {
            w.u8(3);
            put_fault_event(w, &event);
        }
        EventKind::Watchdog => w.u8(4),
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
    let time = SimTime(r.u64()?);
    let seq = r.u64()?;
    let kind = match r.u8()? {
        0 => EventKind::Inject {
            pkt: r.u64()? as usize,
        },
        1 => EventKind::Arrive {
            pkt: r.u64()? as usize,
            node: r.u32()?,
            from: r.u32()?,
        },
        2 => EventKind::Reroute {
            pkt: r.u64()? as usize,
            node: r.u32()?,
        },
        3 => EventKind::Fault {
            event: get_fault_event(r)?,
        },
        4 => EventKind::Watchdog,
        tag => return Err(DecodeError::BadTag { what: "EventKind", tag }),
    };
    Ok(Event {
        time,
        seq,
        kind,
        slot: 0,
    })
}

fn put_latency(w: &mut Writer, l: &LatencyStats) {
    w.u64(l.count);
    w.u64(l.sum);
    w.u64(l.min);
    w.u64(l.max);
}

fn get_latency(r: &mut Reader<'_>) -> Result<LatencyStats, DecodeError> {
    Ok(LatencyStats {
        count: r.u64()?,
        sum: r.u64()?,
        min: r.u64()?,
        max: r.u64()?,
    })
}

fn put_class(w: &mut Writer, c: &ClassCounters) {
    w.u64(c.injected);
    w.u64(c.delivered);
    w.u64(c.dropped_buffer);
    w.u64(c.dropped_ttl);
    w.u64(c.dropped_blocked);
    w.u64(c.dropped_hop_limit);
    w.u64(c.dropped_filtered);
    w.u64(c.dropped_corrupt);
    w.u64(c.dropped_switch_down);
    w.u64(c.dropped_link_down);
    w.u64(c.dropped_reroute);
    w.u64(c.dropped_source_down);
    w.u64(c.dropped_livelock);
    w.u64(c.dropped_deadlock);
    put_latency(w, &c.latency);
    w.u64(c.total_hops);
}

fn get_class(r: &mut Reader<'_>) -> Result<ClassCounters, DecodeError> {
    Ok(ClassCounters {
        injected: r.u64()?,
        delivered: r.u64()?,
        dropped_buffer: r.u64()?,
        dropped_ttl: r.u64()?,
        dropped_blocked: r.u64()?,
        dropped_hop_limit: r.u64()?,
        dropped_filtered: r.u64()?,
        dropped_corrupt: r.u64()?,
        dropped_switch_down: r.u64()?,
        dropped_link_down: r.u64()?,
        dropped_reroute: r.u64()?,
        dropped_source_down: r.u64()?,
        dropped_livelock: r.u64()?,
        dropped_deadlock: r.u64()?,
        latency: get_latency(r)?,
        total_hops: r.u64()?,
    })
}

fn put_stats(w: &mut Writer, s: &SimStats) {
    put_class(w, &s.benign);
    put_class(w, &s.attack);
    w.u64(s.faults.events_applied);
    w.u64(s.faults.window_injected);
    w.u64(s.faults.window_delivered);
    w.u64(s.faults.degraded_cycles);
    put_latency(w, &s.faults.recovery);
    w.u64(s.watchdog.checks);
    w.u64(s.watchdog.livelocks);
    w.u64(s.watchdog.starvations);
    w.u64(s.watchdog.deadlocks);
    w.u64(s.watchdog.escapes);
    w.u64(s.watchdog.max_age_seen);
    w.u64(s.end_time);
    w.bool(s.telemetry_degraded);
    w.u64(s.peak_arena_bytes);
    w.u64(s.port_bytes);
    w.u64(s.peak_in_flight);
}

/// `v3`: a version-3 payload, whose stats end before `peak_in_flight`.
fn get_stats(r: &mut Reader<'_>, v3: bool) -> Result<SimStats, DecodeError> {
    Ok(SimStats {
        benign: get_class(r)?,
        attack: get_class(r)?,
        faults: FaultStats {
            events_applied: r.u64()?,
            window_injected: r.u64()?,
            window_delivered: r.u64()?,
            degraded_cycles: r.u64()?,
            recovery: get_latency(r)?,
        },
        watchdog: WatchdogStats {
            checks: r.u64()?,
            livelocks: r.u64()?,
            starvations: r.u64()?,
            deadlocks: r.u64()?,
            escapes: r.u64()?,
            max_age_seen: r.u64()?,
        },
        end_time: r.u64()?,
        telemetry_degraded: r.bool()?,
        peak_arena_bytes: r.u64()?,
        port_bytes: r.u64()?,
        peak_in_flight: if v3 { 0 } else { r.u64()? },
    })
}

fn drop_reason_tag(d: DropReason) -> u8 {
    match d {
        DropReason::BufferOverflow => 0,
        DropReason::TtlExpired => 1,
        DropReason::Blocked => 2,
        DropReason::HopLimit => 3,
        DropReason::Filtered => 4,
        DropReason::Corrupted => 5,
        DropReason::SwitchDown => 6,
        DropReason::LinkDown => 7,
        DropReason::RerouteExhausted => 8,
        DropReason::SourceDown => 9,
        DropReason::LivelockEscaped => 10,
        DropReason::DeadlockVictim => 11,
    }
}

fn drop_reason_from_tag(tag: u8) -> Result<DropReason, DecodeError> {
    Ok(match tag {
        0 => DropReason::BufferOverflow,
        1 => DropReason::TtlExpired,
        2 => DropReason::Blocked,
        3 => DropReason::HopLimit,
        4 => DropReason::Filtered,
        5 => DropReason::Corrupted,
        6 => DropReason::SwitchDown,
        7 => DropReason::LinkDown,
        8 => DropReason::RerouteExhausted,
        9 => DropReason::SourceDown,
        10 => DropReason::LivelockEscaped,
        11 => DropReason::DeadlockVictim,
        tag => return Err(DecodeError::BadTag { what: "DropReason", tag }),
    })
}

/// One delivery record, followed by the format's `0u8` "no path" tag.
fn put_delivered(w: &mut Writer, d: &Delivered) {
    put_packet(w, &d.packet);
    w.u64(d.injected_at.0);
    w.u64(d.delivered_at.0);
    w.u32(d.hops);
    w.u8(0);
}

fn get_delivered(r: &mut Reader<'_>) -> Result<Delivered, DecodeError> {
    let d = Delivered {
        packet: get_packet(r)?,
        injected_at: SimTime(r.u64()?),
        delivered_at: SimTime(r.u64()?),
        hops: r.u32()?,
    };
    match r.u8()? {
        0 => Ok(d),
        _ => Err(DecodeError::RecordedPath { record: "delivery" }),
    }
}

fn put_violation(w: &mut Writer, v: &Violation) {
    w.u64(v.cycle);
    w.u64(v.pkt);
    w.u32(v.node);
    w.str(v.invariant);
    w.str(&v.detail);
}

fn get_violation(r: &mut Reader<'_>) -> Result<Violation, DecodeError> {
    Ok(Violation {
        cycle: r.u64()?,
        pkt: r.u64()?,
        node: r.u32()?,
        invariant: r.ident()?,
        detail: r.str()?,
    })
}

fn put_tel_event(w: &mut Writer, e: &PacketEvent) {
    w.u64(e.cycle);
    w.u64(e.pkt);
    w.u32(e.node);
    match e.kind {
        TelKind::Inject => w.u8(0),
        TelKind::Forward { next } => {
            w.u8(1);
            w.u32(next);
        }
        TelKind::Mark { mf, scheme } => {
            w.u8(2);
            w.u16(mf);
            w.str(scheme);
        }
        TelKind::Retry { what, attempt } => {
            w.u8(3);
            w.u8(match what {
                RetryKind::Inject => 0,
                RetryKind::Reroute => 1,
            });
            w.u32(attempt);
        }
        TelKind::Drop { reason } => {
            w.u8(4);
            w.str(reason);
        }
        TelKind::Deliver { mf, latency, hops } => {
            w.u8(5);
            w.u16(mf);
            w.u64(latency);
            w.u32(hops);
        }
        TelKind::Watchdog { action } => {
            w.u8(6);
            w.str(action);
        }
        TelKind::Violation { invariant } => {
            w.u8(7);
            w.str(invariant);
        }
        TelKind::Attribute {
            scheme,
            candidates,
            confidence_pm,
        } => {
            w.u8(8);
            w.str(scheme);
            w.u32(candidates);
            w.u32(confidence_pm);
        }
        TelKind::MarkTamper { mf, behavior } => {
            w.u8(9);
            w.u16(mf);
            w.str(behavior);
        }
        TelKind::AuthReject { scheme } => {
            w.u8(10);
            w.str(scheme);
        }
    }
}

fn get_tel_event(r: &mut Reader<'_>) -> Result<PacketEvent, DecodeError> {
    let cycle = r.u64()?;
    let pkt = r.u64()?;
    let node = r.u32()?;
    let kind = match r.u8()? {
        0 => TelKind::Inject,
        1 => TelKind::Forward { next: r.u32()? },
        2 => TelKind::Mark {
            mf: r.u16()?,
            scheme: r.ident()?,
        },
        3 => TelKind::Retry {
            what: match r.u8()? {
                0 => RetryKind::Inject,
                1 => RetryKind::Reroute,
                tag => return Err(DecodeError::BadTag { what: "RetryKind", tag }),
            },
            attempt: r.u32()?,
        },
        4 => TelKind::Drop { reason: r.ident()? },
        5 => TelKind::Deliver {
            mf: r.u16()?,
            latency: r.u64()?,
            hops: r.u32()?,
        },
        6 => TelKind::Watchdog { action: r.ident()? },
        7 => TelKind::Violation {
            invariant: r.ident()?,
        },
        8 => TelKind::Attribute {
            scheme: r.ident()?,
            candidates: r.u32()?,
            confidence_pm: r.u32()?,
        },
        9 => TelKind::MarkTamper {
            mf: r.u16()?,
            behavior: r.ident()?,
        },
        10 => TelKind::AuthReject { scheme: r.ident()? },
        tag => return Err(DecodeError::BadTag { what: "PacketEvent", tag }),
    };
    Ok(PacketEvent {
        cycle,
        pkt,
        node,
        kind,
    })
}

fn put_flight(w: &mut Writer, f: &FlightSnap) {
    put_packet(w, &f.packet);
    put_route_state(w, &f.state);
    for word in f.rng {
        w.u64(word);
    }
    w.u64(f.injected_at);
    // The format's path length, always zero.
    w.u32(0);
    w.u32(f.inject_attempts);
    w.u32(f.reroutes);
    w.bool(f.under_fault);
    w.bool(f.launched);
    w.bool(f.escaped);
    w.u64(f.escaped_at);
    w.u64(f.last_hop_at);
    w.u32(f.last_node);
    w.u16(f.wire_mf);
}

fn get_flight(r: &mut Reader<'_>) -> Result<FlightSnap, DecodeError> {
    let packet = get_packet(r)?;
    let state = get_route_state(r)?;
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let injected_at = r.u64()?;
    if r.u32()? != 0 {
        return Err(DecodeError::RecordedPath { record: "flight" });
    }
    Ok(FlightSnap {
        packet,
        state,
        rng,
        injected_at,
        inject_attempts: r.u32()?,
        reroutes: r.u32()?,
        under_fault: r.bool()?,
        launched: r.bool()?,
        escaped: r.bool()?,
        escaped_at: r.u64()?,
        last_hop_at: r.u64()?,
        last_node: r.u32()?,
        wire_mf: r.u16()?,
    })
}

fn put_adversary(w: &mut Writer, st: &AdversaryState) {
    w.len(st.last_seen.len());
    for &seen in &st.last_seen {
        match seen {
            None => w.u8(0),
            Some(mf) => {
                w.u8(1);
                w.u16(mf);
            }
        }
    }
    w.len(st.tampered.len());
    for &t in &st.tampered {
        w.u64(t);
    }
}

fn get_adversary(r: &mut Reader<'_>) -> Result<AdversaryState, DecodeError> {
    let n = r.seq_len()?;
    let mut last_seen = Vec::with_capacity(n);
    for _ in 0..n {
        last_seen.push(match r.u8()? {
            0 => None,
            1 => Some(r.u16()?),
            tag => return Err(DecodeError::BadTag { what: "Option<u16>", tag }),
        });
    }
    let n = r.seq_len()?;
    let mut tampered = Vec::with_capacity(n);
    for _ in 0..n {
        tampered.push(r.u64()?);
    }
    Ok(AdversaryState { last_seen, tampered })
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.u64(x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(DecodeError::BadTag { what: "Option<u64>", tag }),
    }
}

// --------------------------------------------------------------------
// Root
// --------------------------------------------------------------------

/// Encodes a snapshot into the flat payload format.
#[must_use]
pub fn encode_snapshot(snap: &SimSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(snap.now);
    w.len(snap.events.len());
    for e in &snap.events {
        put_event(&mut w, e);
    }
    w.u64(snap.queue_seq);
    w.len(snap.slots.len());
    for s in &snap.slots {
        w.u64(s.handle);
        put_flight(&mut w, &s.flight);
    }
    w.u64(snap.next_handle);
    w.len(snap.scheduled.len());
    for (t, h, p) in &snap.scheduled {
        w.u64(*t);
        w.u64(*h);
        put_packet(&mut w, p);
    }
    put_opt_u64(&mut w, snap.source_cursor);
    w.len(snap.ports.len());
    for &p in &snap.ports {
        w.u64(p);
    }
    put_stats(&mut w, &snap.stats);
    w.len(snap.delivered.len());
    for d in &snap.delivered {
        put_delivered(&mut w, d);
    }
    w.len(snap.drops.len());
    for &(id, reason) in &snap.drops {
        w.u64(id.0);
        w.u8(drop_reason_tag(reason));
    }
    w.len(snap.failed_links.len());
    for &(a, b) in &snap.failed_links {
        put_node(&mut w, a);
        put_node(&mut w, b);
    }
    w.len(snap.failed_switches.len());
    for &n in &snap.failed_switches {
        put_node(&mut w, n);
    }
    put_opt_u64(&mut w, snap.degraded_since);
    put_opt_u64(&mut w, snap.pending_recovery);
    w.u64(snap.live_count);
    w.u64(snap.injected_total);
    w.u64(snap.delivered_total);
    w.u64(snap.dropped_total);
    w.u64(snap.gone_info.0);
    w.u32(snap.gone_info.1);
    w.u64(snap.last_progress);
    w.bool(snap.watchdog_armed);
    w.len(snap.violations.len());
    for v in &snap.violations {
        put_violation(&mut w, v);
    }
    w.len(snap.trace_tail.len());
    for e in &snap.trace_tail {
        put_tel_event(&mut w, e);
    }
    w.bool(snap.selftest_fired);
    match &snap.adversary {
        None => w.u8(0),
        Some(st) => {
            w.u8(1);
            put_adversary(&mut w, st);
        }
    }
    w.u64(snap.peak_arena_bytes);
    w.u64(snap.peak_in_flight);
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_snapshot`], validating every
/// byte (the whole buffer must be consumed).
///
/// # Errors
/// A [`DecodeError`] naming the first malformed construct.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SimSnapshot, DecodeError> {
    decode_snapshot_version(bytes, crate::FORMAT_VERSION)
}

/// [`decode_snapshot`] for a payload of format `version`: the current
/// one, or version 3. A version-3 payload held an arena row for every
/// packet ever scheduled — the waiting ones as their fresh records —
/// and a staged run's waiting packets in a backlog that took the next
/// handles in order; it decodes into the current shape with the same
/// handles, and `Simulation::restore` moves the waiting packets out of
/// the arena.
///
/// # Errors
/// A [`DecodeError`] naming the first malformed construct.
pub(crate) fn decode_snapshot_version(
    bytes: &[u8],
    version: u32,
) -> Result<SimSnapshot, DecodeError> {
    let v3 = version == 3;
    let mut r = Reader::new(bytes);
    let now = r.u64()?;
    let n = r.seq_len()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(&mut r)?);
    }
    let queue_seq = r.u64()?;
    let n = r.seq_len()?;
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        if v3 {
            // Per-handle rows: a generation counter, then the record of
            // a packet still in the arena.
            r.u32()?;
            match r.u8()? {
                0 => {}
                1 => slots.push(SlotSnap {
                    handle: i as u64,
                    flight: get_flight(&mut r)?,
                }),
                tag => return Err(DecodeError::BadTag { what: "Option<FlightSnap>", tag }),
            }
        } else {
            slots.push(SlotSnap {
                handle: r.u64()?,
                flight: get_flight(&mut r)?,
            });
        }
    }
    let mut next_handle = n as u64;
    let mut scheduled = Vec::new();
    let mut source_cursor = None;
    if !v3 {
        next_handle = r.u64()?;
        let n = r.seq_len()?;
        scheduled.reserve(n);
        for _ in 0..n {
            scheduled.push((r.u64()?, r.u64()?, get_packet(&mut r)?));
        }
        source_cursor = get_opt_u64(&mut r)?;
    }
    let n = r.seq_len()?;
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        ports.push(r.u64()?);
    }
    let stats = get_stats(&mut r, v3)?;
    let n = r.seq_len()?;
    let mut delivered = Vec::with_capacity(n);
    for _ in 0..n {
        delivered.push(get_delivered(&mut r)?);
    }
    let n = r.seq_len()?;
    let mut drops = Vec::with_capacity(n);
    for _ in 0..n {
        let id = PacketId(r.u64()?);
        drops.push((id, drop_reason_from_tag(r.u8()?)?));
    }
    let n = r.seq_len()?;
    let mut failed_links = Vec::with_capacity(n);
    for _ in 0..n {
        failed_links.push((get_node(&mut r)?, get_node(&mut r)?));
    }
    let n = r.seq_len()?;
    let mut failed_switches = Vec::with_capacity(n);
    for _ in 0..n {
        failed_switches.push(get_node(&mut r)?);
    }
    let degraded_since = get_opt_u64(&mut r)?;
    let pending_recovery = get_opt_u64(&mut r)?;
    let live_count = r.u64()?;
    let injected_total = r.u64()?;
    let delivered_total = r.u64()?;
    let dropped_total = r.u64()?;
    let gone_info = (r.u64()?, r.u32()?);
    let last_progress = r.u64()?;
    let watchdog_armed = r.bool()?;
    let n = r.seq_len()?;
    let mut violations = Vec::with_capacity(n);
    for _ in 0..n {
        violations.push(get_violation(&mut r)?);
    }
    let n = r.seq_len()?;
    let mut trace_tail = Vec::with_capacity(n);
    for _ in 0..n {
        trace_tail.push(get_tel_event(&mut r)?);
    }
    let selftest_fired = r.bool()?;
    let adversary = match r.u8()? {
        0 => None,
        1 => Some(get_adversary(&mut r)?),
        tag => return Err(DecodeError::BadTag { what: "Option<AdversaryState>", tag }),
    };
    if v3 {
        // The staged backlog: each packet took the next handle as it
        // was admitted.
        let n = r.seq_len()?;
        scheduled.reserve(n);
        for _ in 0..n {
            let t = r.u64()?;
            scheduled.push((t, next_handle, get_packet(&mut r)?));
            next_handle += 1;
        }
        // Its high-water mark.
        r.u64()?;
    }
    let peak_arena_bytes = r.u64()?;
    let peak_in_flight = if v3 { 0 } else { r.u64()? };
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(SimSnapshot {
        now,
        events,
        queue_seq,
        slots,
        next_handle,
        scheduled,
        source_cursor,
        ports,
        stats,
        delivered,
        drops,
        failed_links,
        failed_switches,
        degraded_since,
        pending_recovery,
        live_count,
        injected_total,
        delivered_total,
        dropped_total,
        gone_info,
        last_progress,
        watchdog_armed,
        violations,
        trace_tail,
        selftest_fired,
        adversary,
        peak_arena_bytes,
        peak_in_flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flight(seed: u64) -> FlightSnap {
        FlightSnap {
            packet: Packet {
                id: PacketId(seed),
                header: Ipv4Header::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 7),
                    Protocol::Tcp,
                    64,
                ),
                l4: L4::tcp_syn(1000, 80, 42),
                true_source: NodeId(3),
                dest_node: NodeId(9),
                class: TrafficClass::Attack,
            },
            state: RouteState {
                hops: 4,
                misroutes_used: 1,
                misroute_budget: 2,
                moved_plus: 0b01,
                moved_minus: 0b10,
            },
            rng: [seed, seed ^ 1, seed ^ 2, seed ^ 3],
            injected_at: 17,
            inject_attempts: 2,
            reroutes: 1,
            under_fault: true,
            launched: true,
            escaped: false,
            escaped_at: 0,
            last_hop_at: 29,
            last_node: 5,
            wire_mf: 0xBEEF,
        }
    }

    fn sample_snapshot() -> SimSnapshot {
        let mut stats = SimStats::default();
        stats.benign.injected = 7;
        stats.benign.latency.record(12);
        stats.attack.dropped_livelock = 1;
        stats.faults.events_applied = 3;
        stats.faults.recovery.record(5);
        stats.watchdog.checks = 2;
        stats.end_time = 0;
        stats.telemetry_degraded = true;
        SimSnapshot {
            now: 400,
            events: vec![
                Event {
                    time: SimTime(401),
                    seq: 9,
                    kind: EventKind::Arrive {
                        pkt: 1,
                        node: 4,
                        from: 3,
                    },
                    slot: 0,
                },
                Event {
                    time: SimTime(450),
                    seq: 2,
                    kind: EventKind::Fault {
                        event: FaultEvent::LinkUp {
                            a: NodeId(1),
                            b: NodeId(2),
                        },
                    },
                    slot: 0,
                },
                Event {
                    time: SimTime(464),
                    seq: 3,
                    kind: EventKind::Watchdog,
                    slot: 0,
                },
                Event {
                    time: SimTime(470),
                    seq: 5,
                    kind: EventKind::Reroute { pkt: 2, node: 8 },
                    slot: 0,
                },
                Event {
                    time: SimTime(480),
                    seq: 6,
                    kind: EventKind::Inject { pkt: 3 },
                    slot: 0,
                },
            ],
            queue_seq: 11,
            slots: vec![
                SlotSnap {
                    handle: 1,
                    flight: sample_flight(1),
                },
                SlotSnap {
                    handle: 2,
                    flight: sample_flight(2),
                },
            ],
            next_handle: 9,
            scheduled: vec![(500, 8, sample_flight(8).packet)],
            source_cursor: Some(6),
            ports: vec![0, 17, 404, u64::MAX],
            stats,
            delivered: vec![Delivered {
                packet: sample_flight(4).packet,
                injected_at: SimTime(10),
                delivered_at: SimTime(60),
                hops: 6,
            }],
            drops: vec![
                (PacketId(5), DropReason::BufferOverflow),
                (PacketId(6), DropReason::DeadlockVictim),
            ],
            failed_links: vec![(NodeId(1), NodeId(2))],
            failed_switches: vec![NodeId(30)],
            degraded_since: Some(390),
            pending_recovery: None,
            live_count: 1,
            injected_total: 7,
            delivered_total: 1,
            dropped_total: 2,
            gone_info: (399, 12),
            last_progress: 398,
            watchdog_armed: true,
            violations: vec![Violation {
                cycle: 100,
                pkt: 3,
                node: u32::MAX,
                invariant: "stale_handle",
                detail: "handle 3 gen 7 != slot gen 8".to_string(),
            }],
            trace_tail: vec![
                PacketEvent {
                    cycle: 1,
                    pkt: 2,
                    node: 3,
                    kind: TelKind::Drop {
                        reason: "reroute_exhausted",
                    },
                },
                PacketEvent {
                    cycle: 2,
                    pkt: 2,
                    node: 3,
                    kind: TelKind::Watchdog {
                        action: "livelock_detected",
                    },
                },
                PacketEvent {
                    cycle: 3,
                    pkt: 2,
                    node: 3,
                    kind: TelKind::Retry {
                        what: RetryKind::Reroute,
                        attempt: 1,
                    },
                },
                PacketEvent {
                    cycle: 4,
                    pkt: 2,
                    node: 3,
                    kind: TelKind::MarkTamper {
                        mf: 0x0BAD,
                        behavior: "mark-flood",
                    },
                },
                PacketEvent {
                    cycle: 5,
                    pkt: 2,
                    node: 3,
                    kind: TelKind::AuthReject { scheme: "auth-ddpm" },
                },
            ],
            selftest_fired: true,
            adversary: Some(AdversaryState {
                last_seen: vec![Some(0xBEEF), None],
                tampered: vec![12, 0],
            }),
            peak_arena_bytes: 4096,
            peak_in_flight: 3,
        }
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("decodes");
        // SimSnapshot has no PartialEq (SimStats doesn't derive it);
        // Debug covers every field, including the conditional
        // telemetry_degraded one, which the sample sets.
        assert_eq!(format!("{snap:?}"), format!("{back:?}"));
    }

    #[test]
    fn format_4_bytes_are_pinned() {
        // FNV-1a of the path-less sample's encoding, as written when
        // the simulator could still record paths: dropping that option
        // must not move a byte of the format.
        let bytes = encode_snapshot(&sample_snapshot());
        assert_eq!(bytes.len(), 1487);
        assert_eq!(crate::fnv64(&bytes), 0xb4ec_ce5a_0249_18df);
    }

    #[test]
    fn recorded_paths_are_refused() {
        // The sample as encoded when it still carried paths: `[3, 4,
        // 5]` in each of its two flights and `[0, 1]` in its delivery.
        let fixture: &[u8] = include_bytes!("../tests/fixtures/paths_v4.bin");
        assert_eq!(fixture.len(), 1523);
        assert_eq!(crate::fnv64(fixture), 0xb39e_9622_12a4_dc4d);
        // Flights come first in the format.
        assert_eq!(
            decode_snapshot(fixture).expect_err("a flight path must be refused"),
            DecodeError::RecordedPath { record: "flight" }
        );
        // Emptied flight paths (length 3 and three nodes, now length
        // 0) leave the delivery's path tag to refuse.
        let flight_path: Vec<u8> = [3u32, 3, 4, 5].iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut bytes = fixture.to_vec();
        for _ in 0..2 {
            let at = bytes
                .windows(flight_path.len())
                .position(|w| w == flight_path)
                .expect("flight path present");
            bytes.splice(at..at + flight_path.len(), [0; 4]);
        }
        assert!(!bytes.windows(flight_path.len()).any(|w| w == flight_path));
        assert_eq!(
            decode_snapshot(&bytes).expect_err("a delivery path must be refused"),
            DecodeError::RecordedPath { record: "delivery" }
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut])
                .expect_err("a proper prefix must never decode");
            // Any typed error is acceptable; a panic is not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes).expect_err("over-long payload must be rejected"),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn unknown_ident_rejected() {
        let mut snap = sample_snapshot();
        snap.violations[0].detail = String::new();
        let bytes = encode_snapshot(&snap);
        // Corrupt the interned "stale_handle" into an unknown word of
        // the same length so lengths stay consistent.
        let pos = bytes
            .windows(12)
            .position(|w| w == b"stale_handle")
            .expect("ident present");
        let mut bad = bytes.clone();
        bad[pos..pos + 12].copy_from_slice(b"stale_handlf");
        assert_eq!(
            decode_snapshot(&bad).expect_err("unknown ident must be rejected"),
            DecodeError::UnknownIdent("stale_handlf".to_string())
        );
    }

    #[test]
    fn vocabulary_matches_the_simulator() {
        // Every DropReason::as_str value must be internable — a new
        // variant without a vocabulary entry would orphan checkpoints.
        for reason in [
            DropReason::BufferOverflow,
            DropReason::TtlExpired,
            DropReason::Blocked,
            DropReason::HopLimit,
            DropReason::Filtered,
            DropReason::Corrupted,
            DropReason::SwitchDown,
            DropReason::LinkDown,
            DropReason::RerouteExhausted,
            DropReason::SourceDown,
            DropReason::LivelockEscaped,
            DropReason::DeadlockVictim,
        ] {
            assert!(intern(reason.as_str()).is_ok(), "{:?}", reason);
            assert_eq!(
                drop_reason_from_tag(drop_reason_tag(reason)),
                Ok(reason),
                "tag roundtrip"
            );
        }
        // Every Marker::name the workspace ships must be internable —
        // Mark/Attribute events embed it, and a checkpoint taken mid-run
        // buffers those events. (The marker crates sit above this one in
        // the dependency graph, so the list is spelled out literally;
        // `telemetry_trace`-style integration tests exercise the real
        // schemes end to end.)
        for scheme in [
            "none",
            "ddpm",
            "dpm",
            "ppm-edge",
            "ppm-xor",
            "ppm-bitdiff",
            "ppm-ams",
            "ppm-fms",
            "tracemax",
            "port",
            "auth-ddpm",
            "auth-dpm",
            "auth-ppm-edge",
            "auth-ppm-xor",
            "auth-tracemax",
        ] {
            assert!(intern(scheme).is_ok(), "{scheme}");
        }
        // Every adversary behavior name must be internable — MarkTamper
        // events embed it.
        for behavior in ["skip", "frame", "randomize", "replay", "mark-flood", "collude"] {
            assert!(intern(behavior).is_ok(), "{behavior}");
        }
    }
}
