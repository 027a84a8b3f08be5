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
/// scenario runner (`ddpm-bench`) reads it and calls into
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

/// Tunable parameters of a simulation run.
///
/// Construct via [`SimConfig::builder`]:
///
/// ```
/// use ddpm_sim::{RetryPolicy, SimConfig};
/// let cfg = SimConfig::builder()
///     .link_latency(1)
///     .seed(42)
///     .fault_tolerance(RetryPolicy::capped(6, 4, 256))
///     .build();
/// assert_eq!(cfg.reroute_retry.retries, 6);
/// ```
///
/// `Default` and direct field access remain available so existing
/// callers migrate incrementally.
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
    /// Record the full node path of every delivered packet. Costs memory;
    /// used by path-reconstruction experiments and debugging.
    pub record_paths: bool,
    /// Per-traversal probability that a link flips one random bit of the
    /// 20-byte IP header. The receiving switch verifies the Internet
    /// checksum and discards damaged packets (every single-bit error is
    /// detected by RFC 1071 arithmetic), so corruption costs delivery,
    /// never correctness.
    pub bit_error_rate: f64,
    /// Source-side injection retry policy: when a packet's local switch
    /// is down at injection time, the compute node re-offers the packet
    /// after a backoff instead of losing it. [`RetryPolicy::OFF`]
    /// (default) drops immediately.
    pub inject_retry: RetryPolicy,
    /// In-network reroute retry policy: when routing offers no admissible
    /// output port (a transient fault may heal), the switch parks the
    /// packet and re-queries the *live* fault state after a backoff.
    /// [`RetryPolicy::OFF`] (default) drops as `Blocked` immediately —
    /// the pre-fault-tolerance behaviour.
    pub reroute_retry: RetryPolicy,
    /// What the run records and where it goes (events, profiling,
    /// sinks). Fully off by default — the zero-cost path.
    pub telemetry: TelemetryConfig,
    /// Liveness watchdog (deadlock/livelock/starvation detection with
    /// escape-route recovery). `None` (default) disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Runtime invariant checking (conservation, mark-in-transit,
    /// fault coherence, path consistency). On by default in debug
    /// builds, opt-in for release.
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
    /// Crash-consistent checkpointing (driver-interpreted; `None`
    /// disables it). Results are checkpoint-invariant: a checkpointed
    /// and resumed run reproduces the uninterrupted run bit-for-bit.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            link_latency: 2,
            service_cycles: 4,
            buffer_packets: 16,
            max_hops: 256,
            record_paths: false,
            bit_error_rate: 0.0,
            inject_retry: RetryPolicy::OFF,
            reroute_retry: RetryPolicy::OFF,
            telemetry: TelemetryConfig::default(),
            watchdog: None,
            invariants: InvariantConfig::default(),
            seed: 0xDD9A,
            adversary: None,
            checkpoint: None,
        }
    }
}

impl SimConfig {
    /// Starts a builder from the defaults.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Continues building from an existing config (e.g. one parsed from
    /// a scenario file).
    #[must_use]
    pub fn to_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { cfg: self }
    }

    /// Config with a given seed, other parameters default.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Config with paths recorded (reconstruction experiments).
    #[must_use]
    pub fn with_paths(mut self) -> Self {
        self.record_paths = true;
        self
    }
}

/// Fluent constructor for [`SimConfig`]; finish with
/// [`SimConfigBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the per-link propagation latency, in cycles.
    #[must_use]
    pub fn link_latency(mut self, cycles: u64) -> Self {
        self.cfg.link_latency = cycles;
        self
    }

    /// Sets the per-port packet serialisation time, in cycles.
    #[must_use]
    pub fn service_cycles(mut self, cycles: u64) -> Self {
        self.cfg.service_cycles = cycles;
        self
    }

    /// Sets the output-buffer depth per port, in packets.
    #[must_use]
    pub fn buffer_packets(mut self, packets: u32) -> Self {
        self.cfg.buffer_packets = packets;
        self
    }

    /// Sets the per-packet hop limit.
    #[must_use]
    pub fn max_hops(mut self, hops: u32) -> Self {
        self.cfg.max_hops = hops;
        self
    }

    /// Records the full node path of every delivered packet.
    #[must_use]
    pub fn record_paths(mut self, on: bool) -> Self {
        self.cfg.record_paths = on;
        self
    }

    /// Sets the per-traversal single-bit link error probability.
    #[must_use]
    pub fn bit_error_rate(mut self, rate: f64) -> Self {
        self.cfg.bit_error_rate = rate;
        self
    }

    /// Enables graceful degradation: `policy` governs both injection and
    /// reroute retries. (This folds the old `with_fault_tolerance`
    /// constructor into the builder.)
    #[must_use]
    pub fn fault_tolerance(mut self, policy: RetryPolicy) -> Self {
        self.cfg.inject_retry = policy;
        self.cfg.reroute_retry = policy;
        self
    }

    /// Sets the source-side injection retry policy alone.
    #[must_use]
    pub fn inject_retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.inject_retry = policy;
        self
    }

    /// Sets the in-network reroute retry policy alone.
    #[must_use]
    pub fn reroute_retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.reroute_retry = policy;
        self
    }

    /// Sets the telemetry configuration.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Installs the liveness watchdog.
    #[must_use]
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.cfg.watchdog = Some(watchdog);
        self
    }

    /// Sets the invariant-checker configuration.
    #[must_use]
    pub fn invariants(mut self, invariants: InvariantConfig) -> Self {
        self.cfg.invariants = invariants;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Installs a compromised-switch adversary (see
    /// [`SimConfig::adversary`]).
    #[must_use]
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.cfg.adversary = Some(adversary);
        self
    }

    /// Enables crash-consistent checkpointing (results are
    /// checkpoint-invariant; see [`CheckpointConfig`]).
    #[must_use]
    pub fn checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.cfg.checkpoint = Some(checkpoint);
        self
    }

    /// Finishes, yielding the config.
    #[must_use]
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryBehavior;
    use ddpm_topology::NodeId;

    #[test]
    fn builder_covers_every_knob() {
        let adversary = AdversarySpec::new(
            vec![NodeId(5)],
            AdversaryBehavior::Skip,
            None,
            3,
        );
        let cfg = SimConfig::builder()
            .link_latency(1)
            .service_cycles(3)
            .buffer_packets(9)
            .max_hops(77)
            .record_paths(true)
            .bit_error_rate(0.25)
            .fault_tolerance(RetryPolicy::capped(4, 2, 100))
            .telemetry(TelemetryConfig::profiled())
            .watchdog(WatchdogConfig::default())
            .invariants(InvariantConfig::strict())
            .seed(42)
            .adversary(adversary.clone())
            .checkpoint(CheckpointConfig::new(500, "/tmp/ckpt"))
            .build();
        assert_eq!(cfg.link_latency, 1);
        assert_eq!(cfg.service_cycles, 3);
        assert_eq!(cfg.buffer_packets, 9);
        assert_eq!(cfg.max_hops, 77);
        assert!(cfg.record_paths);
        assert_eq!(cfg.bit_error_rate, 0.25);
        assert_eq!(cfg.inject_retry.retries, 4);
        assert_eq!(cfg.reroute_retry, cfg.inject_retry);
        assert!(cfg.telemetry.profile);
        assert_eq!(cfg.watchdog, Some(WatchdogConfig::default()));
        assert!(cfg.invariants.enabled && cfg.invariants.panic_on_violation);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.adversary, Some(adversary));
        let ck = cfg.checkpoint.expect("checkpoint knob set");
        assert_eq!(ck.every, 500);
        assert_eq!(ck.dir, std::path::PathBuf::from("/tmp/ckpt"));
        assert_eq!(ck.keep, 2, "default retention keeps a fallback");
        assert_eq!(ck.crash_at, None);
    }

    #[test]
    fn checkpoint_defaults_off_and_every_clamps() {
        assert_eq!(SimConfig::default().checkpoint, None);
        assert_eq!(CheckpointConfig::new(0, "x").every, 1, "cadence clamps to 1");
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = SimConfig::builder().build();
        let def = SimConfig::default();
        assert_eq!(built.link_latency, def.link_latency);
        assert_eq!(built.seed, def.seed);
        assert_eq!(built.reroute_retry, RetryPolicy::OFF);
        assert!(!built.telemetry.enabled());
        assert_eq!(built.watchdog, None, "watchdog is opt-in");
        assert_eq!(built.adversary, None, "switches are honest by default");
        assert_eq!(
            built.invariants.enabled,
            cfg!(debug_assertions),
            "checker defaults on in debug, off in release"
        );
    }

    #[test]
    fn to_builder_resumes_from_existing_config() {
        let cfg = SimConfig::seeded(7)
            .to_builder()
            .reroute_retry(RetryPolicy::capped(2, 1, 10))
            .build();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.reroute_retry.retries, 2);
        assert_eq!(cfg.inject_retry, RetryPolicy::OFF, "only reroute set");
    }

    #[test]
    fn legacy_shorthands_still_work() {
        let c = SimConfig::seeded(42).with_paths();
        assert_eq!(c.seed, 42);
        assert!(c.record_paths);
        assert_eq!(c.link_latency, SimConfig::default().link_latency);
        assert_eq!(c.reroute_retry, RetryPolicy::OFF);
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
