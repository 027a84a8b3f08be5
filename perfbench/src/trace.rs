//! In-memory spans recorded by the benchmark around its calls into the
//! crates under test.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and a request id shared by
//! every span of one request or pass. Nothing is written until the run
//! ends ([`Tracer::write_ndjson`]). A disabled tracer still times the
//! call — the end-to-end metrics need the duration — but records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// Id shared by the spans of one request or pass.
    pub request: u64,
    /// Layer-qualified name, e.g. `sim.stride`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Where a span sits: its parent span and its request id.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Request id.
    pub request: u64,
}

impl Ctx {
    /// A root context for request `request`.
    #[must_use]
    pub fn root(request: u64) -> Self {
        Self { parent: 0, request }
    }
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Does this tracer record?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id before its body runs, so children can name it.
    fn open(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent: 0,
            request: 0,
            name: "",
            start_ns: 0,
            end_ns: 0,
        });
        id
    }

    /// Runs `f` inside a span named `name` under `ctx`, returning its
    /// result and wall duration. `f` receives the context its own
    /// children should use.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> (T, Duration) {
        let id = self.open();
        let child = Ctx {
            parent: id,
            request: ctx.request,
        };
        let t0 = Instant::now();
        let out = f(child);
        let t1 = Instant::now();
        if self.enabled {
            let (start_ns, end_ns) = (self.since_origin(t0), self.since_origin(t1));
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans[(id - 1) as usize] = Span {
                id,
                parent: ctx.parent,
                request: ctx.request,
                name,
                start_ns,
                end_ns,
            };
        }
        (out, t1 - t0)
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations (ns) of every finished span named `name`, in start order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<Span> = self
            .spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect();
        v.sort_by_key(|s| s.start_ns);
        v.iter().map(|s| s.ns() as f64).collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O failures creating or writing `path`.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
