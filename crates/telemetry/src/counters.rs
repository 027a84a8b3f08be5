//! The shared per-traffic-class counter block.
//!
//! `ClassCounters` is the one counter shape both simulators
//! (`ddpm-sim` and `ddpm-indirect`) and every `exp_*` report use.

use crate::metrics::LatencyStats;

/// Counters for one traffic class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounters {
    /// Packets handed to source switches.
    pub injected: u64,
    /// Packets delivered to their destination compute node.
    pub delivered: u64,
    /// Packets dropped on output-buffer overflow (congestion loss).
    pub dropped_buffer: u64,
    /// Packets dropped on TTL exhaustion.
    pub dropped_ttl: u64,
    /// Packets dropped because routing offered no admissible port.
    pub dropped_blocked: u64,
    /// Packets dropped by the per-packet hop limit.
    pub dropped_hop_limit: u64,
    /// Packets dropped by an installed traceback filter (mitigation).
    pub dropped_filtered: u64,
    /// Packets discarded after link corruption (checksum mismatch).
    pub dropped_corrupt: u64,
    /// Packets lost fail-stop at a failed switch (queued or in flight
    /// toward it when it died).
    pub dropped_switch_down: u64,
    /// Packets lost on the wire of a link that failed mid-flight.
    pub dropped_link_down: u64,
    /// Packets dropped after exhausting reroute retries while stranded
    /// by faults.
    pub dropped_reroute: u64,
    /// Packets dropped after exhausting injection retries at a downed
    /// source switch.
    pub dropped_source_down: u64,
    /// Packets dropped by the liveness watchdog after the escape path
    /// also failed to deliver them (livelock escalation).
    pub dropped_livelock: u64,
    /// Packets dropped by the liveness watchdog when the whole network
    /// stopped making progress (deadlock recovery).
    pub dropped_deadlock: u64,
    /// End-to-end latency of delivered packets.
    pub latency: LatencyStats,
    /// Total hops of delivered packets.
    pub total_hops: u64,
}

impl ClassCounters {
    /// All drops combined.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_buffer
            + self.dropped_ttl
            + self.dropped_blocked
            + self.dropped_hop_limit
            + self.dropped_filtered
            + self.dropped_corrupt
            + self.dropped_fault()
            + self.dropped_liveness()
    }

    /// Drops taken by the liveness watchdog (livelock escalation plus
    /// deadlock recovery) — typed outcomes where a lesser simulator
    /// would simply hang.
    #[must_use]
    pub fn dropped_liveness(&self) -> u64 {
        self.dropped_livelock + self.dropped_deadlock
    }

    /// Drops directly caused by dynamic faults (fail-stop losses plus
    /// exhausted retries).
    #[must_use]
    pub fn dropped_fault(&self) -> u64 {
        self.dropped_switch_down
            + self.dropped_link_down
            + self.dropped_reroute
            + self.dropped_source_down
    }

    /// Delivered fraction of injected.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Mean hops of delivered packets.
    #[must_use]
    pub fn mean_hops(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.total_hops as f64 / self.delivered as f64)
    }

    /// Folds `other`'s counters into `self` (used for cross-class
    /// totals).
    pub fn absorb(&mut self, other: &ClassCounters) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dropped_buffer += other.dropped_buffer;
        self.dropped_ttl += other.dropped_ttl;
        self.dropped_blocked += other.dropped_blocked;
        self.dropped_hop_limit += other.dropped_hop_limit;
        self.dropped_filtered += other.dropped_filtered;
        self.dropped_corrupt += other.dropped_corrupt;
        self.dropped_switch_down += other.dropped_switch_down;
        self.dropped_link_down += other.dropped_link_down;
        self.dropped_reroute += other.dropped_reroute;
        self.dropped_source_down += other.dropped_source_down;
        self.dropped_livelock += other.dropped_livelock;
        self.dropped_deadlock += other.dropped_deadlock;
        self.total_hops += other.total_hops;
        self.latency.merge(&other.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_empty_is_one() {
        let c = ClassCounters::default();
        assert_eq!(c.delivery_ratio(), 1.0);
    }

    #[test]
    fn absorb_combines_counters_and_latency() {
        let mut a = ClassCounters {
            injected: 10,
            delivered: 8,
            dropped_buffer: 2,
            ..ClassCounters::default()
        };
        a.latency.record(4);
        let mut b = ClassCounters {
            injected: 5,
            delivered: 5,
            ..ClassCounters::default()
        };
        b.latency.record(2);
        b.latency.record(8);
        a.absorb(&b);
        assert_eq!(a.injected, 15);
        assert_eq!(a.delivered, 13);
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.latency.count, 3);
        assert_eq!(a.latency.min, 2);
        assert_eq!(a.latency.max, 8);
    }

    #[test]
    fn fault_drops_roll_up_into_dropped() {
        let c = ClassCounters {
            dropped_switch_down: 1,
            dropped_link_down: 1,
            dropped_reroute: 1,
            dropped_source_down: 1,
            ..ClassCounters::default()
        };
        assert_eq!(c.dropped_fault(), 4);
        assert_eq!(c.dropped(), 4);
    }

    #[test]
    fn liveness_drops_roll_up_into_dropped() {
        let c = ClassCounters {
            dropped_livelock: 2,
            dropped_deadlock: 3,
            ..ClassCounters::default()
        };
        assert_eq!(c.dropped_liveness(), 5);
        assert_eq!(c.dropped(), 5);
    }
}
