//! Packet lifecycle events and their NDJSON wire format.
//!
//! Both simulators (`ddpm-sim`'s direct networks and `ddpm-indirect`'s
//! staged fabrics) emit the **same** event schema, so one trace consumer
//! works for every topology family. The schema is pinned by a golden
//! test; extend it by *adding* keys, never by renaming or reordering the
//! existing ones.

/// Which retry loop a [`EventKind::Retry`] event came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetryKind {
    /// Source-side injection retry: the local switch was down.
    Inject,
    /// In-network reroute retry: routing offered no admissible port.
    Reroute,
}

impl RetryKind {
    /// Stable identifier used on the wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Inject => "inject",
            Self::Reroute => "reroute",
        }
    }
}

/// What happened to the packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A compute node handed the packet to its local switch.
    Inject,
    /// A switch committed the packet to an output port toward `next`.
    Forward {
        /// Dense index of the next switch.
        next: u32,
    },
    /// A switch rewrote the marking field; `mf` is the value *after* the
    /// update. The sequence of mark events for one packet is the full
    /// evidence trail behind the victim's attribution answer.
    Mark {
        /// Marking-field value after the update.
        mf: u16,
        /// Name of the marking scheme that wrote the field (the
        /// `Marker::name()` of the run's scheme, e.g. `ddpm`).
        scheme: &'static str,
    },
    /// A retry was scheduled (graceful degradation under faults).
    Retry {
        /// Which retry loop.
        what: RetryKind,
        /// 0-based attempt number.
        attempt: u32,
    },
    /// The packet was discarded.
    Drop {
        /// Stable drop-reason identifier (e.g. `buffer_overflow`).
        reason: &'static str,
    },
    /// The packet reached its destination compute node.
    Deliver {
        /// Final marking-field value as received by the victim.
        mf: u16,
        /// End-to-end latency in cycles.
        latency: u64,
        /// Switch-to-switch hops taken.
        hops: u32,
    },
    /// The liveness watchdog acted on the packet (detection or
    /// escalation). `action` is a stable identifier such as
    /// `livelock_detected`, `starvation_detected`, `deadlock_detected`
    /// or `escape` (rerouted onto the escape router).
    Watchdog {
        /// Stable action identifier.
        action: &'static str,
    },
    /// The runtime invariant checker recorded a violation (conservation,
    /// per-hop consistency or fault-set coherence). Every violation also
    /// produces an on-disk repro bundle when the harness asks for one.
    Violation {
        /// Stable invariant identifier (e.g. `conservation`).
        invariant: &'static str,
    },
    /// A compromised switch's marking plane touched the packet's
    /// marking field — the adversary-model ground truth trail. `mf` is
    /// the field value *after* the (possibly tampering) update; honest
    /// observers cannot see this event, it exists so traces and the
    /// robustness experiments can score what the adversary actually
    /// did.
    MarkTamper {
        /// Marking-field value after the compromised switch's update.
        mf: u16,
        /// Stable adversary-behavior identifier (e.g. `skip`, `frame`).
        behavior: &'static str,
    },
    /// A victim-side authenticated collector refused a delivered
    /// packet's mark: the keyed tag did not verify (fail-closed).
    /// Emitted by drivers next to [`EventKind::Attribute`].
    AuthReject {
        /// Name of the `auth-*` scheme that rejected the mark.
        scheme: &'static str,
    },
    /// The victim-side collector answered an attribution query: the
    /// scheme's current candidate source set, summarised. Emitted by
    /// drivers when they run a scheme's `Collector` (per delivery in the
    /// indirect simulator, post-run in scenario runs).
    Attribute {
        /// Name of the scheme that produced the answer.
        scheme: &'static str,
        /// Number of candidate sources implicated.
        candidates: u32,
        /// Confidence in per-mille (0–1000), so the event stays `Eq`.
        confidence_pm: u32,
    },
}

impl EventKind {
    /// Number of distinct kinds (for counter arrays).
    pub const COUNT: usize = 11;

    /// Dense index of this kind, stable across runs.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            Self::Inject => 0,
            Self::Forward { .. } => 1,
            Self::Mark { .. } => 2,
            Self::Retry { .. } => 3,
            Self::Drop { .. } => 4,
            Self::Deliver { .. } => 5,
            Self::Watchdog { .. } => 6,
            Self::Violation { .. } => 7,
            Self::MarkTamper { .. } => 8,
            Self::AuthReject { .. } => 9,
            Self::Attribute { .. } => 10,
        }
    }

    /// Stable identifier used on the wire.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Inject => "inject",
            Self::Forward { .. } => "forward",
            Self::Mark { .. } => "mark",
            Self::Retry { .. } => "retry",
            Self::Drop { .. } => "drop",
            Self::Deliver { .. } => "deliver",
            Self::Watchdog { .. } => "watchdog",
            Self::Violation { .. } => "violation",
            Self::MarkTamper { .. } => "mark_tamper",
            Self::AuthReject { .. } => "auth_reject",
            Self::Attribute { .. } => "attribute",
        }
    }

    /// Names in [`EventKind::index`] order (for summaries).
    #[must_use]
    pub fn names() -> [&'static str; Self::COUNT] {
        [
            "inject",
            "forward",
            "mark",
            "retry",
            "drop",
            "deliver",
            "watchdog",
            "violation",
            "mark_tamper",
            "auth_reject",
            "attribute",
        ]
    }
}

/// One packet lifecycle event with its cycle timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketEvent {
    /// Simulated cycle at which the event happened.
    pub cycle: u64,
    /// Packet id (`ddpm_net::PacketId`'s raw value).
    pub pkt: u64,
    /// Dense index of the switch (or terminal) where it happened.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl PacketEvent {
    /// Renders the event as one NDJSON line (no trailing newline).
    ///
    /// Every line carries `cycle`, `event`, `pkt`, `node` in that order,
    /// followed by kind-specific keys. All values are numbers or
    /// fixed-vocabulary strings, so no escaping is ever needed.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        self.write_ndjson(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// [`PacketEvent::to_ndjson`], appended to `out`.
    ///
    /// # Errors
    /// Whatever `out` reports.
    pub fn write_ndjson(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        write!(
            out,
            "{{\"cycle\":{},\"event\":\"{}\",\"pkt\":{},\"node\":{}",
            self.cycle,
            self.kind.as_str(),
            self.pkt,
            self.node
        )?;
        match self.kind {
            EventKind::Inject => out.write_str("}"),
            EventKind::Forward { next } => write!(out, ",\"next\":{next}}}"),
            EventKind::Mark { mf, scheme } => write!(out, ",\"mf\":{mf},\"scheme\":\"{scheme}\"}}"),
            EventKind::Retry { what, attempt } => {
                write!(
                    out,
                    ",\"kind\":\"{}\",\"attempt\":{attempt}}}",
                    what.as_str()
                )
            }
            EventKind::Drop { reason } => write!(out, ",\"reason\":\"{reason}\"}}"),
            EventKind::Deliver { mf, latency, hops } => {
                write!(out, ",\"mf\":{mf},\"latency\":{latency},\"hops\":{hops}}}")
            }
            EventKind::Watchdog { action } => write!(out, ",\"action\":\"{action}\"}}"),
            EventKind::Violation { invariant } => write!(out, ",\"invariant\":\"{invariant}\"}}"),
            EventKind::MarkTamper { mf, behavior } => {
                write!(out, ",\"mf\":{mf},\"behavior\":\"{behavior}\"}}")
            }
            EventKind::AuthReject { scheme } => write!(out, ",\"scheme\":\"{scheme}\"}}"),
            EventKind::Attribute {
                scheme,
                candidates,
                confidence_pm,
            } => write!(
                out,
                ",\"scheme\":\"{scheme}\",\"candidates\":{candidates},\
                 \"confidence_pm\":{confidence_pm}}}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> PacketEvent {
        PacketEvent {
            cycle: 12,
            pkt: 7,
            node: 3,
            kind,
        }
    }

    /// Golden test: the NDJSON schema both simulators emit. Changing any
    /// of these lines is a breaking change for trace consumers — add
    /// keys instead.
    #[test]
    fn ndjson_schema_is_pinned() {
        assert_eq!(
            ev(EventKind::Inject).to_ndjson(),
            r#"{"cycle":12,"event":"inject","pkt":7,"node":3}"#
        );
        assert_eq!(
            ev(EventKind::Forward { next: 9 }).to_ndjson(),
            r#"{"cycle":12,"event":"forward","pkt":7,"node":3,"next":9}"#
        );
        assert_eq!(
            ev(EventKind::Mark {
                mf: 0x21,
                scheme: "ddpm"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"mark","pkt":7,"node":3,"mf":33,"scheme":"ddpm"}"#
        );
        assert_eq!(
            ev(EventKind::Retry {
                what: RetryKind::Reroute,
                attempt: 2
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"retry","pkt":7,"node":3,"kind":"reroute","attempt":2}"#
        );
        assert_eq!(
            ev(EventKind::Drop {
                reason: "buffer_overflow"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"drop","pkt":7,"node":3,"reason":"buffer_overflow"}"#
        );
        assert_eq!(
            ev(EventKind::Deliver {
                mf: 33,
                latency: 18,
                hops: 3
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"deliver","pkt":7,"node":3,"mf":33,"latency":18,"hops":3}"#
        );
        assert_eq!(
            ev(EventKind::Watchdog {
                action: "livelock_detected"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"watchdog","pkt":7,"node":3,"action":"livelock_detected"}"#
        );
        assert_eq!(
            ev(EventKind::Violation {
                invariant: "conservation"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"violation","pkt":7,"node":3,"invariant":"conservation"}"#
        );
        assert_eq!(
            ev(EventKind::MarkTamper {
                mf: 0xBEEF,
                behavior: "frame"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"mark_tamper","pkt":7,"node":3,"mf":48879,"behavior":"frame"}"#
        );
        assert_eq!(
            ev(EventKind::AuthReject {
                scheme: "auth-ddpm"
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"auth_reject","pkt":7,"node":3,"scheme":"auth-ddpm"}"#
        );
        assert_eq!(
            ev(EventKind::Attribute {
                scheme: "ppm-edge",
                candidates: 2,
                confidence_pm: 500
            })
            .to_ndjson(),
            r#"{"cycle":12,"event":"attribute","pkt":7,"node":3,"scheme":"ppm-edge","candidates":2,"confidence_pm":500}"#
        );
    }

    #[test]
    fn kind_indices_are_dense_and_stable() {
        let kinds = [
            EventKind::Inject,
            EventKind::Forward { next: 0 },
            EventKind::Mark { mf: 0, scheme: "x" },
            EventKind::Retry {
                what: RetryKind::Inject,
                attempt: 0,
            },
            EventKind::Drop { reason: "x" },
            EventKind::Deliver {
                mf: 0,
                latency: 0,
                hops: 0,
            },
            EventKind::Watchdog { action: "x" },
            EventKind::Violation { invariant: "x" },
            EventKind::MarkTamper {
                mf: 0,
                behavior: "x",
            },
            EventKind::AuthReject { scheme: "x" },
            EventKind::Attribute {
                scheme: "x",
                candidates: 0,
                confidence_pm: 0,
            },
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(EventKind::names()[i], k.as_str());
        }
    }
}
