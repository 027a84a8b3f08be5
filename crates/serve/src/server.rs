//! The resident multi-tenant server.
//!
//! A [`Server`] owns a set of named **tenants** — each a
//! [`ScenarioWorld`] — and a pool of worker threads that advance
//! autorun tenants round-robin in bounded strides: a worker claims the
//! tenant at the head of the run queue, steps it one stride, re-queues
//! it if unfinished, and moves on. The stride bound is the fairness
//! unit: no tenant can monopolise a worker. A stride runs in slices,
//! and the slice bounds control-plane latency: a request announces
//! itself on the tenant's waiting count before taking its lock, and a
//! worker that ends a slice while a request waits ends the stride there
//! and hands the tenant over instead of re-queueing it, so the request
//! waits at most one slice. The request re-queues the tenant when it is
//! done.
//!
//! Requests arrive as parsed [`proto`] envelopes; [`Server::handle`]
//! is the single dispatch point, shared by the TCP connection threads
//! and by in-process users (the bench harness drives an embedded
//! server through the same code path the wire uses).
//!
//! With a checkpoint root configured, every tenant checkpoints into
//! `<root>/<name>/` at the configured cycle cadence, alongside a
//! `tenant.json` metadata file. A worker only copies the state under
//! the tenant lock; the server's writer thread encodes the copy and
//! writes it to disk, so neither the tenant nor the worker waits on the
//! disk. [`Server::resume_tenants`] rebuilds the full tenant set from
//! such a root after a crash or drain, and the simulator's determinism
//! contract makes the resumed runs bit-identical continuations.

use crate::proto::{self, Envelope, Request};
use crate::world::{CapturedCheckpoint, ScenarioWorld};
use ddpm_sim::CheckpointConfig;
use ddpm_telemetry::{BroadcastSink, PacketEvent, TelemetryConfig};
use serde_json::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// The tenants [`Server::resume_tenants`] found under the checkpoint
/// root.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Resumed {
    /// Tenants resumed, by name, ascending.
    pub resumed: Vec<String>,
    /// Tenants that could not resume, as `(name, reason)`, ascending.
    pub failed: Vec<(String, String)>,
}

/// Maximum telemetry events a tenant buffers between `subscribe`
/// drains (oldest dropped beyond this; the drop count is reported).
const TELEMETRY_BACKLOG: usize = 65_536;

/// Longest request line a connection accepts, in bytes (newline
/// excluded). A longer line is answered with an error and the
/// connection is closed, so one client cannot grow a connection
/// thread's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Slices per worker stride. A request waits for a busy tenant at most
/// one slice, not a whole stride; stride boundaries are digest-neutral,
/// so slicing changes no outcome.
const SLICES: u64 = 8;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads advancing autorun tenants (minimum 1).
    pub workers: usize,
    /// Default stride bound, in simulated cycles, for both worker
    /// advancement and `tenant.step` without an explicit `cycles`.
    pub stride: u64,
    /// Root directory for per-tenant checkpoint subdirectories; `None`
    /// disables service-side checkpointing.
    pub checkpoint_root: Option<PathBuf>,
    /// Cycle cadence for service-side tenant checkpoints: a tenant is
    /// due once it has run this many cycles past its last checkpoint.
    /// A due tenant is captured at the end of its next stride that
    /// finds the checkpoint writer idle, so a slow disk stretches the
    /// cadence rather than stalling ingest.
    pub checkpoint_every: u64,
    /// Checkpoints retained per tenant.
    pub keep: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            stride: 4096,
            checkpoint_root: None,
            checkpoint_every: 8192,
            keep: 2,
        }
    }
}

/// Cached end-of-run summary (computed once; `outcome()` records
/// post-run telemetry, so it must not be recomputed per request).
struct FinishedOutcome {
    text: String,
    json: Value,
    digest: String,
}

/// One tenant: the world plus its service-side bookkeeping.
struct Tenant {
    world: ScenarioWorld,
    autorun: bool,
    sink: Option<BroadcastSink>,
    /// Set while the tenant sits in the run queue or under a worker's
    /// stride, so concurrent enqueues cannot double-queue it. Cleared
    /// when a worker hands the tenant to a waiting request.
    queued: bool,
    /// Cycle of the last service-side checkpoint.
    checkpointed_at: u64,
    outcome: Option<FinishedOutcome>,
}

impl Tenant {
    fn stats_body(&self) -> Value {
        let stats = self.world.sim().stats();
        json!({
            "cycle": self.world.now_cycles(),
            "done": self.world.done(),
            "autorun": self.autorun,
            "live": self.world.sim().live_count(),
            "benign": {"injected": stats.benign.injected, "delivered": stats.benign.delivered},
            "attack": {"injected": stats.attack.injected, "delivered": stats.attack.delivered,
                       "dropped": stats.attack.dropped()},
            "injected_extra": self.world.injected_packets(),
        })
    }
}

/// A tenant's lock plus the count of requests waiting for it.
struct Slot {
    /// Requests waiting for (or holding) `tenant`. Read by workers at
    /// every slice boundary; kept outside the lock it announces demand
    /// for.
    waiting: AtomicUsize,
    /// The newest cycle written into the tenant's checkpoint directory,
    /// held for each write there so that writes never overlap and never
    /// land an older checkpoint after a newer one. Whoever holds it
    /// never takes `tenant`.
    written: Mutex<u64>,
    tenant: Mutex<Tenant>,
}

/// A cadence checkpoint captured by a worker, waiting for the writer.
struct PendingWrite {
    name: String,
    slot: Arc<Slot>,
    checkpoint: CapturedCheckpoint,
}

struct Inner {
    cfg: ServerConfig,
    tenants: Mutex<HashMap<String, Arc<Slot>>>,
    runq: Mutex<VecDeque<String>>,
    work: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Set from a cadence capture until the writer has stored it. While
    /// set, workers capture nothing, so at most one copy of a world
    /// waits for the disk and a slow disk defers cadence checkpoints
    /// instead of stalling the workers.
    write_pending: AtomicBool,
    /// The capture waiting for the writer.
    write: Mutex<Option<PendingWrite>>,
    write_work: Condvar,
    /// Set once the workers are joined: the writer stores what is
    /// waiting and exits.
    writes_closed: AtomicBool,
}

/// The resident attribution service. Cheap to clone (shared state);
/// dropped workers are joined by [`Server::drain`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
    writer: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server with `cfg.workers` advancement threads.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            cfg: ServerConfig {
                workers: cfg.workers.max(1),
                stride: cfg.stride.max(1),
                checkpoint_every: cfg.checkpoint_every.max(1),
                ..cfg
            },
            tenants: Mutex::new(HashMap::new()),
            runq: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            write_pending: AtomicBool::new(false),
            write: Mutex::new(None),
            write_work: Condvar::new(),
            writes_closed: AtomicBool::new(false),
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let writer = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("serve-writer".into())
                .spawn(move || writer_loop(&inner))
                .expect("spawn checkpoint writer")
        };
        Self {
            inner,
            workers,
            writer: Some(writer),
        }
    }

    /// The effective configuration (after floor clamping).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Rebuilds every tenant checkpointed under the configured root:
    /// scans `<root>/*/tenant.json`, resumes each world from its newest
    /// usable checkpoint, and re-queues autorun tenants. A tenant that
    /// cannot resume is reported in [`Resumed::failed`] with the reason
    /// and left out; every other tenant resumes. Both lists are empty
    /// when no root is configured or the root does not exist yet.
    ///
    /// # Errors
    /// The root cannot be listed.
    pub fn resume_tenants(&self) -> Result<Resumed, String> {
        let mut out = Resumed::default();
        let Some(root) = self.inner.cfg.checkpoint_root.clone() else {
            return Ok(out);
        };
        if !root.is_dir() {
            return Ok(out);
        }
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name().into_string().ok()?;
                entry
                    .path()
                    .join("tenant.json")
                    .is_file()
                    .then_some(name)
            })
            .collect();
        names.sort_unstable();
        for name in names {
            match self.resume_tenant(&root.join(&name), &name) {
                Ok(()) => out.resumed.push(name),
                Err(e) => out.failed.push((name, e)),
            }
        }
        Ok(out)
    }

    /// Resumes tenant `name` from its checkpoint directory `dir`.
    fn resume_tenant(&self, dir: &std::path::Path, name: &str) -> Result<(), String> {
        let meta_path = dir.join("tenant.json");
        let meta_text = std::fs::read_to_string(&meta_path)
            .map_err(|e| format!("{}: {e}", meta_path.display()))?;
        let meta: Value = serde_json::from_str(&meta_text)
            .map_err(|e| format!("{}: {e}", meta_path.display()))?;
        let autorun = meta["autorun"].as_bool().unwrap_or(true);
        let telemetry = meta["telemetry"].as_bool().unwrap_or(false);
        let sink = telemetry.then(|| BroadcastSink::with_capacity(TELEMETRY_BACKLOG));
        let tc = sink
            .clone()
            .map(|s| TelemetryConfig::events_to(ddpm_telemetry::shared(s)));
        let (cfg, source, ckpt) =
            crate::scenario::load_resume(dir, Some(self.inner.cfg.checkpoint_every))?;
        let world = ScenarioWorld::build_with(&cfg, Some(&source), Some(ckpt), tc)?;
        // The checkpoint may predate quiescence by a partial stride;
        // `done` is discovered on the next advancement, so start from
        // "not done" and let the workers (or explicit steps) find out —
        // identical to how the standalone resume path re-runs the tail.
        let checkpointed_at = world.now_cycles();
        let tenant = Tenant {
            world,
            autorun,
            sink,
            queued: false,
            checkpointed_at,
            outcome: None,
        };
        self.insert_tenant(name.to_owned(), tenant)
    }

    fn insert_tenant(&self, name: String, tenant: Tenant) -> Result<(), String> {
        let autorun = tenant.autorun;
        {
            let mut tenants = self.inner.tenants.lock().expect("tenants poisoned");
            if tenants.contains_key(&name) {
                return Err(format!("tenant `{name}` already exists"));
            }
            tenants.insert(
                name.clone(),
                Arc::new(Slot {
                    waiting: AtomicUsize::new(0),
                    written: Mutex::new(0),
                    tenant: Mutex::new(tenant),
                }),
            );
        }
        if autorun {
            self.enqueue(&name);
        }
        Ok(())
    }

    fn enqueue(&self, name: &str) {
        enqueue(&self.inner, name);
    }

    fn slot(&self, name: &str) -> Result<Arc<Slot>, String> {
        self.inner
            .tenants
            .lock()
            .expect("tenants poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no such tenant `{name}`"))
    }

    /// Runs `f` on tenant `name` under its lock, ahead of the workers:
    /// the request counts itself as waiting first, so a worker ending a
    /// stride hands the tenant over rather than re-queueing it, and the
    /// request re-queues it afterwards.
    fn with_tenant<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Tenant) -> Result<R, String>,
    ) -> Result<R, String> {
        let slot = self.slot(name)?;
        slot.waiting.fetch_add(1, Ordering::SeqCst);
        let result = f(&mut slot.tenant.lock().expect("tenant poisoned"));
        slot.waiting.fetch_sub(1, Ordering::SeqCst);
        self.enqueue(name);
        result
    }

    /// Handles one request line end to end: parse, dispatch, respond.
    /// Always returns a response line (never closes the conversation).
    /// Even when the request fails to parse, a recoverable `"id"` is
    /// echoed so clients can correlate the error.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        match proto::parse_request(line) {
            Ok(env) => self.handle(&env),
            Err(e) => {
                let id = serde_json::from_str::<Value>(line)
                    .ok()
                    .and_then(|v| v.get("id").cloned());
                proto::err_response(id.as_ref(), &e)
            }
        }
    }

    /// Dispatches a parsed request and builds its response line.
    #[must_use]
    pub fn handle(&self, env: &Envelope) -> String {
        let id = env.id.as_ref();
        let line = match &env.req {
            // Rendered straight from the drained events, outside the
            // tenant lock: a full backlog is the largest response.
            Request::Subscribe { tenant } => self
                .subscribe(tenant)
                .map(|(events, dropped)| proto::events_response(id, &events, dropped)),
            req => self.dispatch(req).map(|body| proto::ok_response(id, &body)),
        };
        line.unwrap_or_else(|e| proto::err_response(id, &e))
    }

    /// Drains a tenant's telemetry backlog under its lock.
    fn subscribe(&self, tenant: &str) -> Result<(Vec<PacketEvent>, u64), String> {
        self.with_tenant(tenant, |t| match &t.sink {
            Some(sink) => Ok(sink.drain()),
            None => Err(format!(
                "tenant `{tenant}` was created without telemetry; \
                 pass \"telemetry\": true at create"
            )),
        })
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(&self, req: &Request) -> Result<Value, String> {
        match req {
            Request::Create {
                name,
                config,
                source,
                autorun,
                telemetry,
            } => {
                if self.inner.draining.load(Ordering::SeqCst) {
                    return Err("server is draining; not accepting new tenants".into());
                }
                validate_name(name)?;
                let mut cfg = (**config).clone();
                // Service-side checkpointing into <root>/<name> overrides
                // whatever directory the inline scenario named: tenants
                // of one server must never share a checkpoint dir, and
                // the crash hook is a single-process test device.
                if let Some(root) = &self.inner.cfg.checkpoint_root {
                    let dir = root.join(name);
                    cfg.checkpoint = Some(CheckpointConfig {
                        every: self.inner.cfg.checkpoint_every,
                        dir: dir.clone(),
                        keep: self.inner.cfg.keep.max(1),
                        crash_at: None,
                    });
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                    let meta = json!({"autorun": *autorun, "telemetry": *telemetry});
                    std::fs::write(dir.join("tenant.json"), meta.to_string())
                        .map_err(|e| format!("writing tenant meta: {e}"))?;
                }
                let sink = telemetry.then(|| BroadcastSink::with_capacity(TELEMETRY_BACKLOG));
                let tc = sink
                    .clone()
                    .map(|s| TelemetryConfig::events_to(ddpm_telemetry::shared(s)));
                let world = ScenarioWorld::build_with(&cfg, Some(source), None, tc)?;
                let nodes = world.topology().num_nodes();
                let tenant = Tenant {
                    world,
                    autorun: *autorun,
                    sink,
                    queued: false,
                    checkpointed_at: 0,
                    outcome: None,
                };
                self.insert_tenant(name.clone(), tenant)?;
                Ok(json!({"tenant": name.as_str(), "nodes": nodes, "autorun": *autorun}))
            }
            Request::Inject { tenant, attack } => self.with_tenant(tenant, |t| {
                let (first_cycle, packets) = t.world.inject(attack)?;
                Ok(json!({"first_cycle": first_cycle, "packets": packets}))
            }),
            Request::Step { tenant, cycles } => self.with_tenant(tenant, |t| {
                let done = t.world.step(cycles.unwrap_or(self.inner.cfg.stride));
                Ok(json!({"cycle": t.world.now_cycles(), "done": done}))
            }),
            Request::Identify { tenant, victim } => self.with_tenant(tenant, |t| {
                let a = t.world.identify(*victim)?;
                Ok(json!({
                    "scheme": a.scheme,
                    "cycle": a.cycle,
                    "victim": a.victim,
                    "observed": a.observed,
                    "rejected": a.rejected,
                    "candidates": a.candidates.iter().map(|&c| json!(c)).collect::<Vec<_>>(),
                    "confidence": a.confidence,
                }))
            }),
            Request::Stats { tenant } => self.with_tenant(tenant, |t| Ok(t.stats_body())),
            Request::Snapshot { tenant } => {
                let slot = self.slot(tenant)?;
                self.with_tenant(tenant, |t| match checkpoint_locked(&slot, t)? {
                    Some(path) => Ok(json!({
                        "path": path.display().to_string(),
                        "cycle": t.world.now_cycles(),
                    })),
                    None => Err(
                        "tenant has no checkpoint directory (start the server with a \
                         checkpoint root, or put a `checkpoint` block in the scenario)"
                            .into(),
                    ),
                })
            }
            Request::Subscribe { .. } => unreachable!("`handle` answers subscribe"),
            Request::Outcome { tenant } => self.with_tenant(tenant, |t| {
                if !t.world.done() {
                    return Err(format!(
                        "tenant `{tenant}` is still running (cycle {}); outcome is \
                         available once done",
                        t.world.now_cycles()
                    ));
                }
                if t.outcome.is_none() {
                    let out = t.world.outcome();
                    t.outcome = Some(FinishedOutcome {
                        text: out.text,
                        json: out.json,
                        digest: out.digest,
                    });
                }
                let out = t.outcome.as_ref().expect("just cached");
                Ok(json!({
                    "digest": out.digest.as_str(),
                    "summary": out.json.clone(),
                    "text": out.text.as_str(),
                }))
            }),
            Request::Destroy { tenant } => {
                let slot = {
                    let mut tenants = self.inner.tenants.lock().expect("tenants poisoned");
                    tenants
                        .remove(tenant)
                        .ok_or_else(|| format!("no such tenant `{tenant}`"))?
                };
                // Wait out any in-flight stride and checkpoint write,
                // then drop the world. A cadence write still queued
                // finds a newer cycle written and skips.
                let _tenant = slot.tenant.lock().expect("tenant poisoned");
                *slot.written.lock().expect("written poisoned") = u64::MAX;
                if let Some(root) = &self.inner.cfg.checkpoint_root {
                    let dir = root.join(tenant);
                    if dir.is_dir() {
                        std::fs::remove_dir_all(&dir)
                            .map_err(|e| format!("removing {}: {e}", dir.display()))?;
                    }
                }
                Ok(json!({"destroyed": tenant.as_str()}))
            }
            Request::Info => {
                let tenants = self.inner.tenants.lock().expect("tenants poisoned");
                let mut names: Vec<&String> = tenants.keys().collect();
                names.sort_unstable();
                let rows: Vec<Value> = names
                    .iter()
                    .map(|name| {
                        let t = tenants[name.as_str()]
                            .tenant
                            .lock()
                            .expect("tenant poisoned");
                        json!({
                            "name": name.as_str(),
                            "cycle": t.world.now_cycles(),
                            "done": t.world.done(),
                            "autorun": t.autorun,
                        })
                    })
                    .collect();
                Ok(json!({
                    "tenants": rows,
                    "workers": self.inner.cfg.workers,
                    "stride": self.inner.cfg.stride,
                    "draining": self.inner.draining.load(Ordering::SeqCst),
                }))
            }
            Request::Drain => {
                let drained = self.begin_drain()?;
                Ok(json!({"draining": true, "checkpointed": drained}))
            }
        }
    }

    /// Enters drain mode: stop advancing tenants, refuse new ones, and
    /// write a final checkpoint for every unfinished tenant that has a
    /// checkpoint directory. Idempotent. Returns how many tenants were
    /// checkpointed.
    ///
    /// # Errors
    /// The first checkpoint write failure (drain keeps the server in
    /// draining mode regardless).
    pub fn begin_drain(&self) -> Result<usize, String> {
        self.inner.signal(&self.inner.draining);
        let slots: Vec<(String, Arc<Slot>)> = {
            let tenants = self.inner.tenants.lock().expect("tenants poisoned");
            let mut v: Vec<_> = tenants
                .iter()
                .map(|(k, s)| (k.clone(), Arc::clone(s)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut checkpointed = 0;
        for (name, slot) in slots {
            let mut t = slot.tenant.lock().expect("tenant poisoned");
            if !t.world.done() && t.world.config().checkpoint.is_some() {
                checkpoint_locked(&slot, &mut t)
                    .map_err(|e| format!("draining tenant `{name}`: {e}"))?;
                checkpointed += 1;
            }
        }
        Ok(checkpointed)
    }

    /// Drains (checkpointing unfinished tenants) and joins the worker
    /// pool. The terminal call — consumes the server.
    ///
    /// # Errors
    /// As [`Self::begin_drain`]; workers are joined either way.
    pub fn drain(mut self) -> Result<(), String> {
        let result = self.begin_drain().map(|_| ());
        self.inner.signal(&self.inner.shutdown);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        {
            let _write = self.inner.write.lock().expect("write poisoned");
            self.inner.writes_closed.store(true, Ordering::SeqCst);
            self.inner.write_work.notify_all();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        result
    }

    /// Serves connections on `listener` until `stop` reads true.
    ///
    /// The listener is switched to non-blocking and polled, so the loop
    /// notices `stop` (e.g. a SIGINT flag) within ~50 ms even while
    /// idle. Each connection gets a thread running the line loop.
    ///
    /// # Errors
    /// Listener-level I/O failures (per-connection errors only end that
    /// connection).
    pub fn serve(&self, listener: &TcpListener, stop: &dyn Fn() -> bool) -> Result<(), String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            if stop() {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let server = self.clone_handle();
                    conns.push(
                        thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || connection_loop(&server, stream))
                            .expect("spawn connection thread"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(std::time::Duration::from_millis(50));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Connections still open keep their threads until the process
        // exits; requests racing the shutdown see drain-mode errors.
        Ok(())
    }

    /// A connection-scoped handle sharing this server's state (workers
    /// and the checkpoint writer are owned by the original).
    fn clone_handle(&self) -> Server {
        Server {
            inner: Arc::clone(&self.inner),
            workers: Vec::new(),
            writer: None,
        }
    }
}

impl Inner {
    /// Raises `flag` and wakes every worker. Both happen under the
    /// run-queue lock, which a worker holds from its flag check until
    /// it sleeps, so no worker can miss the wakeup.
    fn signal(&self, flag: &AtomicBool) {
        let _runq = self.runq.lock().expect("runq poisoned");
        flag.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }
}

/// Puts autorun tenant `name` on the run queue unless it is already
/// queued, under a worker stride, or done.
fn enqueue(inner: &Inner, name: &str) {
    let Some(slot) = inner
        .tenants
        .lock()
        .expect("tenants poisoned")
        .get(name)
        .cloned()
    else {
        return;
    };
    {
        let mut t = slot.tenant.lock().expect("tenant poisoned");
        if t.queued || !t.autorun || t.world.done() {
            return;
        }
        t.queued = true;
    }
    inner
        .runq
        .lock()
        .expect("runq poisoned")
        .push_back(name.to_owned());
    inner.work.notify_one();
}

/// The worker loop: claim the next queued tenant, advance it one
/// stride, capture a checkpoint for the writer if the cadence came due,
/// re-queue if unfinished and no request is waiting for it.
fn worker_loop(inner: &Inner) {
    loop {
        let name = {
            let mut runq = inner.runq.lock().expect("runq poisoned");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.draining.load(Ordering::SeqCst) {
                    if let Some(name) = runq.pop_front() {
                        break name;
                    }
                }
                runq = inner.work.wait(runq).expect("runq poisoned");
            }
        };
        let Some(slot) = inner
            .tenants
            .lock()
            .expect("tenants poisoned")
            .get(&name)
            .cloned()
        else {
            continue; // destroyed while queued
        };
        let (requeue, captured) = {
            let mut t = slot.tenant.lock().expect("tenant poisoned");
            let done = advance(&slot, &mut t.world, inner.cfg.stride);
            let mut captured = None;
            // Cadence checkpoint: copy the state here and leave the
            // encoding and the disk to the writer thread. While the
            // writer still holds a copy, skip; the next stride is due
            // again.
            if !done
                && t.world.config().checkpoint.is_some()
                && t.world.now_cycles().saturating_sub(t.checkpointed_at)
                    >= inner.cfg.checkpoint_every
                && !inner.write_pending.swap(true, Ordering::SeqCst)
            {
                match t.world.capture_checkpoint() {
                    Ok(Some(c)) => {
                        t.checkpointed_at = c.cycle();
                        captured = Some(c);
                    }
                    Ok(None) => inner.write_pending.store(false, Ordering::SeqCst),
                    Err(e) => {
                        inner.write_pending.store(false, Ordering::SeqCst);
                        eprintln!("warning: tenant `{name}`: {e}");
                    }
                }
            }
            // A waiting request takes the tenant next and re-queues it.
            let handoff = slot.waiting.load(Ordering::SeqCst) > 0;
            t.queued = !done && t.autorun && !handoff;
            (t.queued, captured)
        };
        if let Some(checkpoint) = captured {
            *inner.write.lock().expect("write poisoned") = Some(PendingWrite {
                name: name.clone(),
                slot: Arc::clone(&slot),
                checkpoint,
            });
            inner.write_work.notify_one();
        }
        if requeue {
            inner
                .runq
                .lock()
                .expect("runq poisoned")
                .push_back(name);
            inner.work.notify_one();
        }
    }
}

/// Advances `world` by one stride of `stride` cycles in slices of
/// `stride / SLICES`, stopping early at a slice boundary when a request
/// is waiting for the tenant. Returns whether the world is done.
fn advance(slot: &Slot, world: &mut ScenarioWorld, stride: u64) -> bool {
    let slice = stride.div_ceil(SLICES);
    let end = world.now_cycles().saturating_add(stride);
    loop {
        let done = world.step(slice.min(end.saturating_sub(world.now_cycles())));
        if done || world.now_cycles() >= end || slot.waiting.load(Ordering::SeqCst) > 0 {
            return done;
        }
    }
}

/// The checkpoint writer: encodes and stores the workers' cadence
/// captures, one at a time, until the workers are gone. A failure must
/// not kill the run (the next cadence or the drain retries it).
fn writer_loop(inner: &Inner) {
    loop {
        let w = {
            let mut write = inner.write.lock().expect("write poisoned");
            loop {
                if let Some(w) = write.take() {
                    break w;
                }
                if inner.writes_closed.load(Ordering::SeqCst) {
                    return;
                }
                write = inner.write_work.wait(write).expect("write poisoned");
            }
        };
        {
            let mut written = w.slot.written.lock().expect("written poisoned");
            let cycle = w.checkpoint.cycle();
            if cycle > *written {
                match w.checkpoint.store() {
                    Ok(_) => *written = cycle,
                    Err(e) => eprintln!("warning: tenant `{}`: {e}", w.name),
                }
            }
        }
        inner.write_pending.store(false, Ordering::SeqCst);
    }
}

/// Writes a checkpoint of `t` now, after any write of the same tenant
/// in flight. The caller holds `t`'s lock.
fn checkpoint_locked(slot: &Slot, t: &mut Tenant) -> Result<Option<PathBuf>, String> {
    let mut written = slot.written.lock().expect("written poisoned");
    let path = t.world.checkpoint_now()?;
    if path.is_some() {
        t.checkpointed_at = t.world.now_cycles();
        *written = t.checkpointed_at;
    }
    Ok(path)
}

/// Per-connection line loop: read request lines, write response lines.
///
/// Every response goes out as one `write_all` of the line and its
/// newline on a `TCP_NODELAY` socket, so it leaves in one segment
/// instead of waiting on the peer's delayed ACK. A line longer than
/// [`MAX_REQUEST_LINE`] is answered with an error and ends the
/// connection.
fn connection_loop(server: &Server, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte over the cap tells an overlong line from one at it.
        let cap = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            let e =
                format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection");
            let _ = send_line(&mut writer, proto::err_response(None, &e));
            let _ = writer.shutdown(Shutdown::Write);
            break;
        }
        let response = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => server.handle_line(line),
            Err(_) => proto::err_response(None, "request line is not valid UTF-8"),
        };
        if send_line(&mut writer, response).is_err() {
            break;
        }
    }
}

/// Writes `line` and its newline with one `write_all`, so the pair
/// leaves as one segment.
pub(crate) fn send_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Tenant names become directory names; keep them path-safe.
fn validate_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if ok && !name.starts_with('.') {
        Ok(())
    } else {
        Err(format!(
            "invalid tenant name `{name}` (1-64 chars of [A-Za-z0-9._-], \
             not starting with a dot)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_path_safe() {
        assert!(validate_name("t1").is_ok());
        assert!(validate_name("soak-chaos_mix.v2").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
    }
}
