//! Runtime invariant checking.
//!
//! The simulator's correctness rests on a handful of invariants that
//! should hold at *every* event, not just at the end of a run:
//!
//! * **conservation** — `injected == delivered + dropped + in_flight`;
//! * **mark_in_transit** — the marking field never changes on the wire
//!   (only switches rewrite it; link bit errors are checksummed and
//!   dropped);
//! * **fault_coherence** — routing never commits a packet to a faulty
//!   link or a dead switch.
//!
//! The [`InvariantChecker`] verifies these as the run executes. It is
//! on by default in debug builds (so every test runs checked) and
//! opt-in for release builds. Alongside the violation log it keeps a
//! bounded ring of the most recent lifecycle events — the **trace
//! tail** — which the soak harness snapshots into an on-disk repro
//! bundle so any failure can be replayed with `report -- replay`.

use ddpm_telemetry::PacketEvent;
use std::collections::VecDeque;

/// Invariant-checker knobs, installed via
/// [`crate::SimConfig::invariants`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantConfig {
    /// Master switch. Defaults to on in debug builds (tests), off in
    /// release (benchmarks pay nothing).
    pub enabled: bool,
    /// How many trailing lifecycle events to keep for repro bundles.
    /// `0` disables the tail (violations are still detected).
    pub trace_tail: usize,
    /// Panic on the first violation (default in debug builds) instead
    /// of logging it. The soak harness turns this off so it can capture
    /// the violation into a bundle and keep fuzzing.
    pub panic_on_violation: bool,
    /// Chaos self-test: inject one synthetic violation at the first
    /// event at or after this cycle. This exercises the entire
    /// violation → bundle → replay pipeline deterministically without
    /// needing a real simulator bug.
    pub selftest_at: Option<u64>,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self {
            enabled: cfg!(debug_assertions),
            trace_tail: 256,
            panic_on_violation: cfg!(debug_assertions),
            selftest_at: None,
        }
    }
}

impl InvariantConfig {
    /// Checking force-enabled (release-mode opt-in), panicking on the
    /// first violation.
    #[must_use]
    pub fn strict() -> Self {
        Self {
            enabled: true,
            panic_on_violation: true,
            ..Self::default()
        }
    }

    /// Checking force-enabled but *recording* violations instead of
    /// panicking — the soak-harness mode.
    #[must_use]
    pub fn recording() -> Self {
        Self {
            enabled: true,
            panic_on_violation: false,
            ..Self::default()
        }
    }

    /// Checking fully disabled, even in debug builds.
    #[must_use]
    pub fn off() -> Self {
        Self {
            enabled: false,
            panic_on_violation: false,
            ..Self::default()
        }
    }
}

/// One recorded invariant violation. `(cycle, pkt, invariant)` is the
/// identity used by `report -- replay` to confirm a bundle reproduces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Simulated cycle at which the violation was detected.
    pub cycle: u64,
    /// Raw id of the packet being processed (0 for packet-less events).
    pub pkt: u64,
    /// Switch where it was detected (`u32::MAX` for network-level).
    pub node: u32,
    /// Stable invariant identifier (e.g. `conservation`).
    pub invariant: &'static str,
    /// Human-readable specifics (observed vs expected values).
    pub detail: String,
}

impl Violation {
    /// The replay identity: same seed ⇒ same `(cycle, pkt, invariant)`.
    #[must_use]
    pub fn identity(&self) -> (u64, u64, &'static str) {
        (self.cycle, self.pkt, self.invariant)
    }
}

/// Runtime invariant checker state: the violation log plus the bounded
/// trace tail. Owned by the simulation; inspect after a run via
/// `Simulation::violations` / `Simulation::trace_tail`.
#[derive(Debug)]
pub struct InvariantChecker {
    cfg: InvariantConfig,
    violations: Vec<Violation>,
    tail: VecDeque<PacketEvent>,
    selftest_fired: bool,
}

impl InvariantChecker {
    /// Builds a checker from its config.
    #[must_use]
    pub fn new(cfg: InvariantConfig) -> Self {
        Self {
            cfg,
            violations: Vec::new(),
            tail: VecDeque::new(),
            selftest_fired: false,
        }
    }

    /// Is checking active?
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Is the trace tail being recorded?
    #[inline]
    #[must_use]
    pub fn tail_on(&self) -> bool {
        self.cfg.enabled && self.cfg.trace_tail > 0
    }

    /// The config this checker was built with.
    #[must_use]
    pub fn config(&self) -> &InvariantConfig {
        &self.cfg
    }

    /// Appends one lifecycle event to the bounded tail.
    pub fn record_tail(&mut self, ev: PacketEvent) {
        if !self.tail_on() {
            return;
        }
        if self.tail.len() == self.cfg.trace_tail {
            self.tail.pop_front();
        }
        self.tail.push_back(ev);
    }

    /// Records a violation; returns true if the caller should panic
    /// (per [`InvariantConfig::panic_on_violation`]).
    pub fn report(&mut self, v: Violation) -> bool {
        self.violations.push(v);
        self.cfg.panic_on_violation
    }

    /// The cycle at which the synthetic self-test violation is still
    /// due, if any.
    #[must_use]
    pub fn selftest_pending(&self) -> Option<u64> {
        if self.selftest_fired {
            return None;
        }
        self.cfg.selftest_at
    }

    /// Marks the self-test violation as injected.
    pub fn mark_selftest_fired(&mut self) {
        self.selftest_fired = true;
    }

    /// Violations recorded so far (empty in a correct run).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The trailing lifecycle events, oldest first.
    #[must_use]
    pub fn tail_events(&self) -> Vec<PacketEvent> {
        self.tail.iter().copied().collect()
    }

    /// True once the synthetic self-test violation has been injected.
    #[must_use]
    pub fn selftest_fired(&self) -> bool {
        self.selftest_fired
    }

    /// Reinstalls checkpointed state into a freshly built checker: the
    /// violation log, the trace tail (oldest first; truncated to the
    /// configured bound) and the self-test latch.
    pub fn restore_state(
        &mut self,
        violations: Vec<Violation>,
        tail: Vec<PacketEvent>,
        selftest_fired: bool,
    ) {
        self.violations = violations;
        self.tail = tail
            .into_iter()
            .rev()
            .take(self.cfg.trace_tail)
            .rev()
            .collect();
        self.selftest_fired = selftest_fired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_telemetry::EventKind;

    fn ev(cycle: u64) -> PacketEvent {
        PacketEvent {
            cycle,
            pkt: 1,
            node: 0,
            kind: EventKind::Inject,
        }
    }

    #[test]
    fn tail_is_bounded_and_ordered() {
        let mut c = InvariantChecker::new(InvariantConfig {
            enabled: true,
            trace_tail: 3,
            ..InvariantConfig::recording()
        });
        for t in 0..10 {
            c.record_tail(ev(t));
        }
        let cycles: Vec<u64> = c.tail_events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "last N, oldest first");
    }

    #[test]
    fn disabled_checker_records_nothing() {
        let mut c = InvariantChecker::new(InvariantConfig::off());
        c.record_tail(ev(0));
        assert!(!c.tail_on());
        assert!(c.tail_events().is_empty());
    }

    #[test]
    fn report_honours_panic_flag() {
        let v = Violation {
            cycle: 1,
            pkt: 2,
            node: 3,
            invariant: "conservation",
            detail: String::new(),
        };
        let mut strict = InvariantChecker::new(InvariantConfig::strict());
        assert!(strict.report(v.clone()));
        let mut soft = InvariantChecker::new(InvariantConfig::recording());
        assert!(!soft.report(v.clone()));
        assert_eq!(soft.violations(), std::slice::from_ref(&v));
        assert_eq!(v.identity(), (1, 2, "conservation"));
    }

    #[test]
    fn selftest_fires_once() {
        let mut c = InvariantChecker::new(InvariantConfig {
            selftest_at: Some(50),
            ..InvariantConfig::recording()
        });
        assert_eq!(c.selftest_pending(), Some(50));
        c.mark_selftest_fired();
        assert_eq!(c.selftest_pending(), None);
    }
}
