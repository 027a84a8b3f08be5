//! Pluggable event sinks.

use crate::event::{EventKind, PacketEvent};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Consumes packet lifecycle events as a simulation runs.
pub trait EventSink: Send {
    /// Receives one event.
    fn emit(&mut self, ev: &PacketEvent);

    /// Called once at end of run; flush buffers here.
    fn finish(&mut self) {}

    /// True once the sink has permanently given up on its output (e.g.
    /// persistent I/O failure). A degraded sink silently discards
    /// further events — the run itself is never killed for a trace.
    fn degraded(&self) -> bool {
        false
    }

    /// Called when a run resumes from a checkpoint, so file-backed
    /// sinks can delimit the restart (an NDJSON `resume` record).
    fn resume_marker(&mut self, _cycle: u64) {}
}

/// A sink shareable between a config (cloneable) and a running
/// simulation.
pub type SharedSink = Arc<Mutex<dyn EventSink>>;

/// Wraps a sink for use in [`crate::TelemetryConfig`].
pub fn shared(sink: impl EventSink + 'static) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// How many times a failing NDJSON write is retried (with exponential
/// backoff) before the sink degrades to discarding events.
const WRITE_RETRIES: u32 = 3;

/// Streams events as NDJSON (one JSON object per line) to any writer.
///
/// I/O failures degrade gracefully: a failing write is retried
/// `WRITE_RETRIES` times with exponential backoff (1 ms, 2 ms, 4 ms),
/// and if the writer still refuses, the sink prints **one** console
/// warning, flips to [`EventSink::degraded`] and behaves like
/// [`NullSink`] from then on. A simulation is never killed — and never
/// stalled indefinitely — by a full disk or a yanked volume; the
/// `telemetry_degraded` flag in `SimStats` records that the trace is
/// incomplete.
pub struct NdjsonSink<W: Write + Send> {
    out: BufWriter<W>,
    degraded: bool,
}

impl<W: Write + Send> NdjsonSink<W> {
    /// A sink writing NDJSON lines to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: BufWriter::new(out),
            degraded: false,
        }
    }

    /// Writes one line, retrying with backoff; degrades on persistent
    /// failure.
    fn write_line(&mut self, line: &str) {
        for attempt in 0..=WRITE_RETRIES {
            match writeln!(self.out, "{line}") {
                Ok(()) => return,
                Err(e) => {
                    if attempt == WRITE_RETRIES {
                        self.degrade(&e);
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
            }
        }
    }

    fn degrade(&mut self, err: &std::io::Error) {
        self.degraded = true;
        eprintln!(
            "warning: telemetry trace write failed after {WRITE_RETRIES} retries ({err}); \
             discarding further trace events (run continues, stats flagged degraded)"
        );
    }
}

impl NdjsonSink<std::fs::File> {
    /// A sink writing NDJSON to the file at `path` (truncating).
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }

    /// A sink appending NDJSON to the file at `path`, creating it if
    /// absent — the reopen mode a checkpoint resume uses so the events
    /// already traced before the crash are preserved.
    ///
    /// # Errors
    /// Propagates file-open failures.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(
            std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)?,
        ))
    }
}

impl<W: Write + Send> EventSink for NdjsonSink<W> {
    fn emit(&mut self, ev: &PacketEvent) {
        if self.degraded {
            return;
        }
        self.write_line(&ev.to_ndjson());
    }

    fn finish(&mut self) {
        if self.degraded {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.degrade(&e);
        }
    }

    fn degraded(&self) -> bool {
        self.degraded
    }

    fn resume_marker(&mut self, cycle: u64) {
        if self.degraded {
            return;
        }
        self.write_line(&format!("{{\"cycle\":{cycle},\"event\":\"resume\"}}"));
    }
}

/// Buffers events in memory; cloning shares the buffer, so a test can
/// keep one handle while the simulation owns the other.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<PacketEvent>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<PacketEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Events recorded for one packet id, in emission order.
    #[must_use]
    pub fn events_for(&self, pkt: u64) -> Vec<PacketEvent> {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|e| e.pkt == pkt)
            .copied()
            .collect()
    }

    /// The switches packet `pkt` visited, rebuilt from its trail: the
    /// `Inject` event's node, then each `Forward`'s `next`.
    #[must_use]
    pub fn path(&self, pkt: u64) -> Vec<u32> {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|e| e.pkt == pkt)
            .filter_map(|e| match e.kind {
                EventKind::Inject => Some(e.node),
                EventKind::Forward { next } => Some(next),
                _ => None,
            })
            .collect()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, ev: &PacketEvent) {
        self.events.lock().expect("sink poisoned").push(*ev);
    }
}

/// Discards every event. Useful for measuring the cost of event
/// construction and dispatch alone (the `bench_throughput` overhead
/// benchmark).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _ev: &PacketEvent) {}
}

/// Inner state of a [`BroadcastSink`].
struct BroadcastBuf {
    events: std::collections::VecDeque<PacketEvent>,
    capacity: usize,
    dropped: u64,
}

/// A bounded publish/subscribe buffer: the simulation emits into it,
/// a consumer [`drain`](BroadcastSink::drain)s it at its own pace.
///
/// Cloning shares the buffer (like [`MemorySink`]), but the backlog is
/// capped: once `capacity` events are queued undrained, the oldest are
/// discarded and counted, so a subscriber that stops reading bounds
/// the producer's memory instead of exhausting it. The attribution
/// service hangs one of these off every telemetry-enabled tenant; a
/// `tenant.subscribe` call drains it. Telemetry is digest-neutral, so
/// dropping backlog never perturbs the simulation itself.
#[derive(Clone)]
pub struct BroadcastSink {
    buf: Arc<Mutex<BroadcastBuf>>,
}

impl BroadcastSink {
    /// A sink retaining at most `capacity` undrained events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(BroadcastBuf {
                events: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// Removes and returns every buffered event, plus the count of
    /// events discarded to the capacity cap since the previous drain.
    #[must_use]
    pub fn drain(&self) -> (Vec<PacketEvent>, u64) {
        let mut buf = self.buf.lock().expect("sink poisoned");
        let dropped = std::mem::take(&mut buf.dropped);
        (buf.events.drain(..).collect(), dropped)
    }

    /// Events currently buffered.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.buf.lock().expect("sink poisoned").events.len()
    }
}

impl EventSink for BroadcastSink {
    fn emit(&mut self, ev: &PacketEvent) {
        let mut buf = self.buf.lock().expect("sink poisoned");
        if buf.events.len() == buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pkt: u64) -> PacketEvent {
        PacketEvent {
            cycle: 1,
            pkt,
            node: 0,
            kind: EventKind::Inject,
        }
    }

    #[test]
    fn memory_sink_shares_buffer_across_clones() {
        let sink = MemorySink::new();
        let mut writer = sink.clone();
        writer.emit(&ev(1));
        writer.emit(&ev(2));
        writer.emit(&ev(1));
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.events_for(1).len(), 2);
    }

    #[test]
    fn ndjson_sink_writes_lines() {
        let mut sink = NdjsonSink::new(Vec::new());
        sink.emit(&ev(5));
        sink.finish();
        let text = String::from_utf8(sink.out.into_inner().unwrap()).unwrap();
        assert_eq!(text, "{\"cycle\":1,\"event\":\"inject\",\"pkt\":5,\"node\":0}\n");
    }

    #[test]
    fn ndjson_sink_emits_resume_marker() {
        let mut sink = NdjsonSink::new(Vec::new());
        sink.resume_marker(42);
        sink.finish();
        let text = String::from_utf8(sink.out.into_inner().unwrap()).unwrap();
        assert_eq!(text, "{\"cycle\":42,\"event\":\"resume\"}\n");
    }

    #[test]
    fn broadcast_sink_bounds_backlog_and_counts_drops() {
        let sink = BroadcastSink::with_capacity(2);
        let mut writer = sink.clone();
        writer.emit(&ev(1));
        writer.emit(&ev(2));
        writer.emit(&ev(3)); // evicts pkt 1
        assert_eq!(sink.backlog(), 2);
        let (events, dropped) = sink.drain();
        assert_eq!(
            events.iter().map(|e| e.pkt).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(dropped, 1);
        let (events, dropped) = sink.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0, "drop counter resets per drain");
    }

    /// A writer that fails every write, for exercising degradation.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn ndjson_sink_degrades_after_bounded_retries_instead_of_panicking() {
        // A tiny BufWriter capacity forces the failure to surface on the
        // first emit rather than hiding in the buffer until finish().
        let mut sink = NdjsonSink {
            out: BufWriter::with_capacity(1, BrokenWriter),
            degraded: false,
        };
        assert!(!EventSink::degraded(&sink));
        sink.emit(&ev(1));
        assert!(EventSink::degraded(&sink), "persistent failure degrades");
        // Further emits and finish() are silent no-ops, not retries.
        sink.emit(&ev(2));
        sink.resume_marker(9);
        sink.finish();
        assert!(EventSink::degraded(&sink));
    }
}
