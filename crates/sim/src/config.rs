//! Simulator configuration.

use crate::adversary::AdversarySpec;
use crate::invariant::InvariantConfig;
use crate::watchdog::WatchdogConfig;
use ddpm_telemetry::TelemetryConfig;

/// A bounded exponential-backoff retry policy, used for graceful
/// degradation under dynamic faults: source-side injection retries when
/// the local switch is down, and in-network reroute retries when a
/// packet is stranded with no admissible output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries before the packet is dropped (0 = fail
    /// immediately, the pre-fault-tolerance behaviour).
    pub retries: u32,
    /// Delay before the first retry, in cycles. Doubles per attempt.
    pub backoff: u64,
    /// Upper bound on the per-attempt delay, in cycles.
    pub max_delay: u64,
}

impl RetryPolicy {
    /// No retries: fail on first contact with a fault.
    pub const OFF: Self = Self {
        retries: 0,
        backoff: 0,
        max_delay: 0,
    };

    /// `retries` attempts with exponential backoff starting at `backoff`
    /// cycles, capped at `max_delay`.
    #[must_use]
    pub fn capped(retries: u32, backoff: u64, max_delay: u64) -> Self {
        Self {
            retries,
            backoff,
            max_delay,
        }
    }

    /// Delay before retry number `attempt` (0-based):
    /// `min(backoff · 2^attempt, max_delay)`, and at least one cycle so
    /// retries always advance simulated time.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> u64 {
        let shifted = self.backoff.saturating_mul(1u64 << attempt.min(32));
        shifted.min(self.max_delay).max(1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::OFF
    }
}

/// Crash-consistent checkpointing knobs. The simulator itself is
/// checkpoint-agnostic — it only exposes [`crate::Simulation::snapshot`]
/// and `run_until` — so this block is pure driver configuration: the
/// scenario runner (`ddpm-serve`) reads it and calls into
/// `ddpm-checkpoint` to write snapshots at the configured cadence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Cycles between checkpoints. A checkpoint is written at the first
    /// opportunity at or after each multiple of `every`.
    pub every: u64,
    /// Directory checkpoints are written into (created if absent).
    pub dir: std::path::PathBuf,
    /// How many of the most recent checkpoints to retain (older ones
    /// are pruned after each successful write). Minimum 1.
    pub keep: usize,
    /// Test hook: abort the process (simulating a crash) once simulated
    /// time reaches this cycle, *without* writing a final checkpoint —
    /// everything since the last on-disk checkpoint is genuinely lost.
    pub crash_at: Option<u64>,
}

impl CheckpointConfig {
    /// Checkpoints every `every` cycles into `dir`, keeping the default
    /// two most recent files (so a torn final write always leaves a
    /// usable predecessor).
    #[must_use]
    pub fn new(every: u64, dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            every: every.max(1),
            dir: dir.into(),
            keep: 2,
            crash_at: None,
        }
    }
}

/// Tunable parameters of a simulation run: plain data, built with
/// struct-update syntax over [`SimConfig::seeded`] (or `default()`):
///
/// ```
/// use ddpm_sim::{RetryPolicy, SimConfig};
/// let cfg = SimConfig {
///     link_latency: 1,
///     retry: RetryPolicy::capped(6, 4, 256),
///     ..SimConfig::seeded(42)
/// };
/// assert_eq!(cfg.retry.retries, 6);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Propagation latency of one link, in cycles.
    pub link_latency: u64,
    /// Serialisation time of one packet through one output port, in
    /// cycles (1/port bandwidth).
    pub service_cycles: u64,
    /// Output-buffer capacity per port, in packets. When a port's backlog
    /// reaches this depth, further packets are dropped — the resource the
    /// volumetric DDoS attacks of §1 exhaust.
    pub buffer_packets: u32,
    /// Hard per-packet hop limit (livelock guard, in addition to TTL).
    pub max_hops: u32,
    /// Per-traversal probability that a link flips one random bit of the
    /// 20-byte IP header. The receiving switch verifies the Internet
    /// checksum and discards damaged packets (every single-bit error is
    /// detected by RFC 1071 arithmetic), so corruption costs delivery,
    /// never correctness.
    pub bit_error_rate: f64,
    /// Graceful degradation under dynamic faults, one policy for both
    /// places a fault can stop a packet. Injection: when a packet's
    /// local switch is down, the compute node re-offers it after a
    /// backoff instead of losing it. Reroute: when routing offers no
    /// admissible output port (a transient fault may heal), the switch
    /// parks the packet and re-queries the *live* fault state after a
    /// backoff. [`RetryPolicy::OFF`] (default) drops immediately — as
    /// `Blocked` when stranded in the network, the pre-fault-tolerance
    /// behaviour.
    pub retry: RetryPolicy,
    /// What the run records and where it goes (events, profiling,
    /// sinks). Fully off by default — the zero-cost path.
    pub telemetry: TelemetryConfig,
    /// Liveness watchdog (deadlock/livelock/starvation detection with
    /// escape-route recovery). `None` (default) disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Runtime invariant checking (conservation, mark-in-transit,
    /// fault coherence). On by default in debug builds, opt-in for
    /// release.
    pub invariants: InvariantConfig,
    /// RNG seed. Identical configs + identical injections ⇒ identical
    /// runs.
    pub seed: u64,
    /// Compromised-switch adversary (driver-interpreted): which
    /// switches' marking planes misbehave
    /// and how. The simulator core uses it only to flag `MarkTamper`
    /// telemetry at compromised switches; the tampering `Marker`
    /// wrapper itself is built by the driver (`ddpm-attack`). `None`
    /// (default) means every switch is honest.
    pub adversary: Option<AdversarySpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            link_latency: 2,
            service_cycles: 4,
            buffer_packets: 16,
            max_hops: 256,
            bit_error_rate: 0.0,
            retry: RetryPolicy::OFF,
            telemetry: TelemetryConfig::default(),
            watchdog: None,
            invariants: InvariantConfig::default(),
            seed: 0xDD9A,
            adversary: None,
        }
    }
}

impl SimConfig {
    /// Config with a given seed, other parameters default.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_every_clamps() {
        assert_eq!(CheckpointConfig::new(0, "x").every, 1, "cadence clamps to 1");
    }

    #[test]
    fn defaults_are_off() {
        let def = SimConfig::seeded(7);
        assert_eq!(def.seed, 7);
        assert_eq!(def.link_latency, SimConfig::default().link_latency);
        assert_eq!(def.retry, RetryPolicy::OFF);
        assert!(!def.telemetry.enabled());
        assert_eq!(def.watchdog, None, "watchdog is opt-in");
        assert_eq!(def.adversary, None, "switches are honest by default");
        assert_eq!(
            def.invariants.enabled,
            cfg!(debug_assertions),
            "checker defaults on in debug, off in release"
        );
    }

    #[test]
    fn retry_delay_doubles_and_caps() {
        let p = RetryPolicy::capped(6, 8, 50);
        assert_eq!(p.delay(0), 8);
        assert_eq!(p.delay(1), 16);
        assert_eq!(p.delay(2), 32);
        assert_eq!(p.delay(3), 50, "capped");
        assert_eq!(p.delay(63), 50, "huge attempts saturate, no overflow");
        assert_eq!(RetryPolicy::OFF.delay(0), 1, "time always advances");
    }
}
