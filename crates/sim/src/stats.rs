//! Run statistics.
//!
//! The per-class counter block lives in `ddpm-telemetry` as
//! [`ClassCounters`] — one shape shared by this simulator, the indirect
//! (`ddpm-indirect`) simulator, and every experiment report. This module
//! keeps the direct-network aggregates built on top of it.

use crate::watchdog::WatchdogStats;
use ddpm_net::TrafficClass;

pub use ddpm_telemetry::{ClassCounters, LatencyStats};

/// Dynamic-fault bookkeeping for one run (aggregate across traffic
/// classes; the per-class fault drops live in [`ClassCounters`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Fault events applied from the schedule.
    pub events_applied: u64,
    /// Packets injected while at least one fault was active.
    pub window_injected: u64,
    /// Of those, packets that were still delivered.
    pub window_delivered: u64,
    /// Total cycles during which at least one fault was active.
    pub degraded_cycles: u64,
    /// Time-to-recovery samples: cycles from the repair that restored
    /// full health to the next successful delivery.
    pub recovery: LatencyStats,
}

impl FaultStats {
    /// Delivery ratio of packets injected while faults were active —
    /// the graceful-degradation headline number. `1.0` when no packet
    /// was injected under faults.
    #[must_use]
    pub fn window_delivery_ratio(&self) -> f64 {
        if self.window_injected == 0 {
            return 1.0;
        }
        self.window_delivered as f64 / self.window_injected as f64
    }
}

/// Full-run statistics, split by traffic class.
#[derive(Clone, Copy, Default)]
pub struct SimStats {
    /// Counters for benign traffic.
    pub benign: ClassCounters,
    /// Counters for attack traffic.
    pub attack: ClassCounters,
    /// Dynamic-fault bookkeeping (zeroed when no schedule is installed).
    pub faults: FaultStats,
    /// Liveness-watchdog bookkeeping (zeroed when no watchdog is
    /// installed).
    pub watchdog: WatchdogStats,
    /// Simulated end time (cycles at last event).
    pub end_time: u64,
    /// True if a telemetry sink failed mid-run and was degraded to a
    /// null sink (the simulation itself completed normally; only the
    /// trace is incomplete).
    pub telemetry_degraded: bool,
    /// High-water mark of packet-arena bytes (struct-of-arrays slots +
    /// resident cold payloads + staged-injection backlog). Memory
    /// telemetry, excluded from `Debug` so conformance digests are
    /// untouched.
    pub peak_arena_bytes: u64,
    /// Bytes of the dense per-port busy table (fixed per topology).
    /// Memory telemetry, excluded from `Debug` like
    /// [`SimStats::peak_arena_bytes`].
    pub port_bytes: u64,
}

// Hand-written so the conformance digest (which hashes `{stats:?}`)
// is unchanged for healthy runs: the `telemetry_degraded` field is
// printed only when set. Must otherwise match derived output exactly.
impl std::fmt::Debug for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SimStats");
        d.field("benign", &self.benign)
            .field("attack", &self.attack)
            .field("faults", &self.faults)
            .field("watchdog", &self.watchdog)
            .field("end_time", &self.end_time);
        if self.telemetry_degraded {
            d.field("telemetry_degraded", &self.telemetry_degraded);
        }
        d.finish()
    }
}

impl SimStats {
    /// The counter block for `class`.
    #[must_use]
    pub fn class(&self, class: TrafficClass) -> &ClassCounters {
        match class {
            TrafficClass::Benign => &self.benign,
            TrafficClass::Attack => &self.attack,
        }
    }

    /// Mutable counter block for `class`.
    pub fn class_mut(&mut self, class: TrafficClass) -> &mut ClassCounters {
        match class {
            TrafficClass::Benign => &mut self.benign,
            TrafficClass::Attack => &mut self.attack,
        }
    }

    /// Combined totals across classes.
    #[must_use]
    pub fn total(&self) -> ClassCounters {
        let mut t = self.benign;
        t.absorb(&self.attack);
        t
    }

    /// Fault-caused drops across both traffic classes.
    #[must_use]
    pub fn fault_drops(&self) -> u64 {
        self.benign.dropped_fault() + self.attack.dropped_fault()
    }

    /// Conservation check: every injected packet is delivered, dropped,
    /// or still in flight.
    #[must_use]
    pub fn accounted(&self, in_flight: u64) -> bool {
        let t = self.total();
        t.injected == t.delivered + t.dropped() + in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine() {
        let mut s = SimStats::default();
        s.benign.injected = 10;
        s.benign.delivered = 8;
        s.benign.dropped_buffer = 2;
        s.attack.injected = 5;
        s.attack.delivered = 5;
        s.benign.latency.record(4);
        s.attack.latency.record(2);
        s.attack.latency.record(8);
        let t = s.total();
        assert_eq!(t.injected, 15);
        assert_eq!(t.delivered, 13);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.latency.count, 3);
        assert_eq!(t.latency.min, 2);
        assert_eq!(t.latency.max, 8);
        assert!(s.accounted(0));
        assert!(!s.accounted(1));
    }

    #[test]
    fn fault_drops_roll_up() {
        let mut s = SimStats::default();
        s.benign.injected = 4;
        s.benign.dropped_switch_down = 1;
        s.benign.dropped_link_down = 1;
        s.attack.injected = 3;
        s.attack.dropped_reroute = 1;
        s.attack.dropped_source_down = 1;
        assert_eq!(s.fault_drops(), 4);
        assert_eq!(s.total().dropped(), 4, "fault drops count as drops");
        assert!(s.accounted(3));
    }

    #[test]
    fn degraded_flag_is_invisible_in_debug_until_set() {
        let mut s = SimStats::default();
        let healthy = format!("{s:?}");
        assert!(
            !healthy.contains("telemetry_degraded"),
            "healthy runs keep the pre-existing Debug shape (digest stability)"
        );
        assert!(healthy.starts_with("SimStats {"));
        s.telemetry_degraded = true;
        assert!(format!("{s:?}").contains("telemetry_degraded: true"));
    }

    #[test]
    fn memory_telemetry_never_prints() {
        let s = SimStats {
            peak_arena_bytes: 123,
            port_bytes: 456,
            ..SimStats::default()
        };
        let out = format!("{s:?}");
        assert!(
            !out.contains("arena") && !out.contains("port_bytes"),
            "memory fields must stay out of the digested Debug shape"
        );
    }

    #[test]
    fn window_ratio_defaults_to_one() {
        let f = FaultStats::default();
        assert_eq!(f.window_delivery_ratio(), 1.0);
        let f = FaultStats {
            window_injected: 8,
            window_delivered: 6,
            ..FaultStats::default()
        };
        assert_eq!(f.window_delivery_ratio(), 0.75);
    }
}
