//! Telemetry for the DDPM simulators: packet lifecycle events, counter
//! and latency-histogram metrics, a per-phase event-loop profiler, and
//! pluggable sinks (NDJSON file, in-memory, console summary).
//!
//! ## Design
//!
//! The paper's single-packet identification claim rests on *per-packet*
//! evidence — the marking field accumulated hop by hop. Aggregate
//! counters can confirm the claim statistically but cannot explain any
//! one packet. This crate records the explanation: every `mark` event
//! carries the field value after the update, so a trace replays exactly
//! how `identify()`'s answer was assembled, under deterministic *and*
//! adaptive routing.
//!
//! ## Overhead contract
//!
//! * **Disabled** (the default): simulators hold no [`Telemetry`] at
//!   all — each lifecycle point costs one `Option` discriminant check.
//!   `bench_throughput` (in `ddpm-bench`) tracks this: disabled-mode
//!   throughput must stay within noise of a build without the hooks.
//! * **Events on**: one enum construction + counter bump + `Vec` push
//!   per event; sink fan-out (mutex lock + dynamic dispatch) is paid
//!   once per 256-event batch, not per event. [`NullSink`] isolates
//!   the dispatch cost; [`NdjsonSink`] adds buffered formatting I/O.
//! * **Profiling on**: two `Instant::now()` reads per dispatched event.
//!
//! Both `ddpm-sim` (direct networks) and `ddpm-indirect` (staged
//! fabrics) emit the same schema — see [`PacketEvent::to_ndjson`] —
//! configured through one [`TelemetryConfig`] carried in
//! `ddpm_sim::SimConfig`.

#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use config::TelemetryConfig;
pub use counters::ClassCounters;
pub use event::{EventKind, PacketEvent, RetryKind};
pub use metrics::{Histogram, LatencyStats};
pub use profile::{BarrierWait, EngineProfile, PhaseCost, PhaseProfiler};
pub use sink::{shared, BroadcastSink, EventSink, MemorySink, NdjsonSink, NullSink, SharedSink};

use std::time::Duration;

/// The live telemetry state a simulator carries while running.
///
/// Built from a [`TelemetryConfig`] via [`Telemetry::from_config`];
/// `None` means fully disabled, and simulators skip every hook behind a
/// single `Option` check.
pub struct Telemetry {
    events_on: bool,
    console: bool,
    counts: [u64; EventKind::COUNT],
    latency: Histogram,
    profiler: Option<PhaseProfiler>,
    engine: Option<EngineProfile>,
    sinks: Vec<SharedSink>,
    /// Events staged since the last sink flush — see [`Telemetry::record`].
    staged: Vec<PacketEvent>,
}

/// How many events accumulate before the sinks are paid their mutex
/// locks. Sized so hot-path runs amortise the lock + dynamic dispatch
/// to well under one per event without holding noticeable memory.
const FLUSH_BATCH: usize = 256;

impl Telemetry {
    /// Builds the runtime state for `cfg`, or `None` when everything is
    /// off.
    ///
    /// # Panics
    /// When `cfg.trace_path` cannot be created — a simulation silently
    /// dropping its requested trace would be worse.
    #[must_use]
    pub fn from_config(cfg: &TelemetryConfig) -> Option<Self> {
        if !cfg.enabled() {
            return None;
        }
        let mut sinks = Vec::new();
        if let Some(path) = &cfg.trace_path {
            let file = if cfg.trace_append {
                NdjsonSink::append(path)
            } else {
                NdjsonSink::create(path)
            }
            .unwrap_or_else(|e| panic!("cannot create telemetry trace {}: {e}", path.display()));
            sinks.push(shared(file));
        }
        if let Some(s) = &cfg.sink {
            sinks.push(s.clone());
        }
        Some(Self {
            events_on: cfg.events,
            console: cfg.console_summary,
            counts: [0; EventKind::COUNT],
            latency: Histogram::default(),
            profiler: cfg.profile.then(PhaseProfiler::default),
            engine: None,
            sinks,
            staged: Vec::new(),
        })
    }

    /// Are lifecycle events being recorded? Simulators check this before
    /// constructing an event.
    #[inline]
    #[must_use]
    pub fn events_on(&self) -> bool {
        self.events_on
    }

    /// Is the phase profiler running?
    #[inline]
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Records one lifecycle event: bumps its counter, folds delivery
    /// latency into the histogram, and stages it for the sinks.
    ///
    /// Sink fan-out is batched: events are staged in order and emitted
    /// `FLUSH_BATCH` at a time (and unconditionally from
    /// [`Telemetry::finish`]), so the per-event hot-path cost is a
    /// counter bump and a `Vec` push rather than a mutex lock per sink.
    /// Sinks observe the exact same event sequence, just later; reads
    /// through a [`MemorySink`] are only defined after `finish()`.
    pub fn record(&mut self, ev: PacketEvent) {
        self.counts[ev.kind.index()] += 1;
        if let EventKind::Deliver { latency, .. } = ev.kind {
            self.latency.record(latency);
        }
        if self.sinks.is_empty() {
            return;
        }
        self.staged.push(ev);
        if self.staged.len() >= FLUSH_BATCH {
            self.flush();
        }
    }

    /// Drains staged events to every sink, locking each sink once per
    /// batch instead of once per event.
    fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        for s in &self.sinks {
            let mut sink = s.lock().expect("telemetry sink poisoned");
            for ev in &self.staged {
                sink.emit(ev);
            }
        }
        self.staged.clear();
    }

    /// Records an event generated *after* the event loop drained and
    /// [`Telemetry::finish`] ran — e.g. the victim-side `attribute`
    /// answer a driver computes once all deliveries are in — and pushes
    /// it straight through to the sinks so it is not stranded in the
    /// staging buffer.
    pub fn record_post_run(&mut self, ev: PacketEvent) {
        self.record(ev);
        self.flush();
        for s in &self.sinks {
            s.lock().expect("telemetry sink poisoned").finish();
        }
    }

    /// Attributes `elapsed` event-loop time to `phase`.
    pub fn profile(&mut self, phase: &'static str, elapsed: Duration) {
        if let Some(p) = self.profiler.as_mut() {
            p.add(phase, elapsed);
        }
    }

    /// Event counts in [`EventKind::index`] order.
    #[must_use]
    pub fn event_counts(&self) -> [u64; EventKind::COUNT] {
        self.counts
    }

    /// Count for one event kind by wire name (`"mark"`, `"drop"`, …).
    #[must_use]
    pub fn count_of(&self, name: &str) -> u64 {
        EventKind::names()
            .iter()
            .position(|&n| n == name)
            .map_or(0, |i| self.counts[i])
    }

    /// Delivery-latency histogram (fed by `deliver` events).
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The phase profiler, when enabled.
    #[must_use]
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// Attaches the sharded engine's run profile (coordinator round
    /// costs + per-worker barrier waits). The engine calls this once
    /// before `finish()` when profiling is on.
    pub fn set_engine_profile(&mut self, profile: EngineProfile) {
        self.engine = Some(profile);
    }

    /// The sharded engine's run profile, when one was attached.
    #[must_use]
    pub fn engine_profile(&self) -> Option<&EngineProfile> {
        self.engine.as_ref()
    }

    /// The run summary as printable text.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::from("— telemetry —\n");
        for (name, n) in EventKind::names().iter().zip(self.counts) {
            if n > 0 {
                out.push_str(&format!("{name:<8} {n}\n"));
            }
        }
        if self.latency.count() > 0 {
            out.push_str(&format!(
                "latency  mean {:.1}  p50 ≤{}  p99 ≤{}  max {} cycles\n",
                self.latency.summary.mean().unwrap_or(0.0),
                self.latency.quantile(0.5).unwrap_or(0),
                self.latency.quantile(0.99).unwrap_or(0),
                self.latency.summary.max,
            ));
        }
        if let Some(p) = &self.profiler {
            out.push_str(&p.render());
        }
        if let Some(e) = &self.engine {
            out.push_str(&e.render());
        }
        out
    }

    /// Ends the run: drains staged events, flushes sinks and prints the
    /// console summary when configured. Simulators call this when their
    /// event loop drains.
    pub fn finish(&mut self) {
        self.flush();
        for s in &self.sinks {
            s.lock().expect("telemetry sink poisoned").finish();
        }
        if self.console {
            println!("{}", self.summary());
        }
    }

    /// True if any sink permanently gave up on its output (persistent
    /// I/O failure) — the trace is incomplete even though the run
    /// finished. Simulators surface this as `SimStats::telemetry_degraded`.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.sinks
            .iter()
            .any(|s| s.lock().expect("telemetry sink poisoned").degraded())
    }

    /// Announces a checkpoint resume at `cycle` to every sink, so
    /// file-backed traces carry an explicit `resume` record delimiting
    /// the restart point.
    pub fn note_resume(&mut self, cycle: u64) {
        self.flush();
        for s in &self.sinks {
            s.lock()
                .expect("telemetry sink poisoned")
                .resume_marker(cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_nothing() {
        assert!(Telemetry::from_config(&TelemetryConfig::off()).is_none());
    }

    #[test]
    fn record_updates_counts_histogram_and_sinks() {
        let sink = MemorySink::new();
        let cfg = TelemetryConfig::events_to(shared(sink.clone()));
        let mut t = Telemetry::from_config(&cfg).expect("enabled");
        assert!(t.events_on());
        assert!(!t.profiling());
        t.record(PacketEvent {
            cycle: 0,
            pkt: 1,
            node: 0,
            kind: EventKind::Inject,
        });
        t.record(PacketEvent {
            cycle: 18,
            pkt: 1,
            node: 9,
            kind: EventKind::Deliver {
                mf: 3,
                latency: 18,
                hops: 3,
            },
        });
        t.finish();
        assert_eq!(t.count_of("inject"), 1);
        assert_eq!(t.count_of("deliver"), 1);
        assert_eq!(t.count_of("drop"), 0);
        assert_eq!(t.latency().count(), 1);
        assert_eq!(t.latency().summary.max, 18);
        assert_eq!(sink.events().len(), 2);
        let s = t.summary();
        assert!(s.contains("inject"), "{s}");
        assert!(s.contains("latency"), "{s}");
    }

    #[test]
    fn sink_fanout_is_batched_but_complete_and_ordered() {
        let sink = MemorySink::new();
        let cfg = TelemetryConfig::events_to(shared(sink.clone()));
        let mut t = Telemetry::from_config(&cfg).expect("enabled");
        let total = FLUSH_BATCH + FLUSH_BATCH / 2;
        for i in 0..total {
            t.record(PacketEvent {
                cycle: i as u64,
                pkt: i as u64,
                node: 0,
                kind: EventKind::Inject,
            });
        }
        // One full batch has flushed; the remainder is still staged.
        assert_eq!(sink.events().len(), FLUSH_BATCH);
        t.finish();
        let evs = sink.events();
        assert_eq!(evs.len(), total);
        assert!(evs.iter().enumerate().all(|(i, e)| e.pkt == i as u64));
    }

    #[test]
    fn profiler_collects_when_enabled() {
        let mut t = Telemetry::from_config(&TelemetryConfig::profiled()).expect("enabled");
        assert!(t.profiling());
        assert!(!t.events_on());
        t.profile("arrive", Duration::from_micros(2));
        t.profile("arrive", Duration::from_micros(4));
        let p = t.profiler().unwrap();
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.phases()[0].count, 2);
        assert!(t.summary().contains("arrive"));
    }

    #[test]
    fn engine_profile_attaches_and_renders() {
        let mut t = Telemetry::from_config(&TelemetryConfig::profiled()).expect("enabled");
        assert!(t.engine_profile().is_none());
        let mut e = EngineProfile::default();
        e.rounds.add("window", Duration::from_micros(7));
        e.barrier_waits.push(BarrierWait::default());
        t.set_engine_profile(e);
        assert!(t.engine_profile().is_some());
        let s = t.summary();
        assert!(s.contains("— engine —"), "{s}");
        assert!(s.contains("window"), "{s}");
    }
}
