//! Liveness watchdog: configuration and statistics.
//!
//! The watchdog is the simulator's answer to the three classic
//! interconnect liveness failures:
//!
//! * **deadlock** — the whole network stops making progress (no packet
//!   delivered or forwarded for [`WatchdogConfig::stall_cycles`]);
//! * **livelock** — a packet keeps moving but never arrives (its age
//!   exceeds [`WatchdogConfig::max_age`] while its hop count still
//!   grows), the turn-model + random-selection pathology documented in
//!   EXPERIMENTS.md E-RESIL;
//! * **starvation** — a packet sits parked (retry backoff, contention)
//!   past [`WatchdogConfig::max_age`] while the rest of the network
//!   progresses.
//!
//! Escalation is two-staged and always ends in a **typed outcome**,
//! never a silent hang: an overage packet is first rerouted onto the
//! [`WatchdogConfig::escape`] router (deadlock-free dimension-order by
//! default) with a fresh reroute allowance; if it is still unresolved
//! one `max_age` later it is dropped as
//! [`crate::DropReason::LivelockEscaped`]. A network-wide stall drops
//! every live packet as [`crate::DropReason::DeadlockVictim`].

use ddpm_routing::Router;

/// Tunable liveness-watchdog parameters. Install via
/// [`crate::SimConfig::watchdog`]; `None` (the default) disables the
/// watchdog entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles between watchdog sweeps. The watchdog arms itself lazily
    /// at the first injection and disarms when nothing is in flight, so
    /// an idle network pays nothing.
    pub check_period: u64,
    /// A packet older than this (cycles since injection) is considered
    /// livelocked or starved and is escalated. Also the grace period an
    /// escaped packet gets on the escape router before the typed drop.
    pub max_age: u64,
    /// If no packet is delivered *or forwarded* for this many cycles
    /// while packets are live, the network is declared deadlocked and
    /// every live packet is dropped as a
    /// [`crate::DropReason::DeadlockVictim`]. Keep this comfortably
    /// above the largest retry backoff ([`crate::RetryPolicy`]'s
    /// `max_delay`) so legitimate waits are not misdiagnosed.
    pub stall_cycles: u64,
    /// Recovery router for escalated packets. `Some(router)` reroutes
    /// the packet over it (selection forced to deterministic `First`);
    /// `None` skips the recovery stage and drops immediately.
    pub escape: Option<Router>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            check_period: 128,
            max_age: 4096,
            stall_cycles: 2048,
            escape: Some(Router::DimensionOrder),
        }
    }
}

/// What the watchdog saw and did during one run. Lives in
/// [`crate::SimStats::watchdog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Sweeps performed.
    pub checks: u64,
    /// Packets detected livelocked: over age and still accumulating
    /// hops — wandering without arriving.
    pub livelocks: u64,
    /// Packets detected starved: over age with no hop progress since
    /// the previous sweep while the network as a whole progressed.
    pub starvations: u64,
    /// Network-wide deadlock declarations (each drops all live packets).
    pub deadlocks: u64,
    /// Packets rerouted onto the escape router.
    pub escapes: u64,
    /// Oldest in-flight age observed at any sweep, in cycles.
    pub max_age_seen: u64,
}

impl WatchdogStats {
    /// Total liveness detections across all three failure classes.
    #[must_use]
    pub fn detections(&self) -> u64 {
        self.livelocks + self.starvations + self.deadlocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_leave_room_for_retry_backoff() {
        let wd = WatchdogConfig::default();
        assert!(wd.stall_cycles > 256, "must exceed default retry max_delay");
        assert!(wd.max_age > wd.stall_cycles);
        assert!(wd.check_period < wd.stall_cycles);
        assert_eq!(wd.escape, Some(Router::DimensionOrder));
    }

    #[test]
    fn detections_sum_all_classes() {
        let s = WatchdogStats {
            livelocks: 2,
            starvations: 1,
            deadlocks: 1,
            ..WatchdogStats::default()
        };
        assert_eq!(s.detections(), 4);
    }
}
