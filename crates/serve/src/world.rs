//! The resident scenario world.
//!
//! The one-shot runner (`scenario::execute`) used to build topology,
//! faults, marker and simulation on one stack frame, run to
//! completion, and summarise. A *tenant* of the attribution service
//! needs the same world to outlive any single call: advanced in
//! bounded strides by whichever worker thread claims it next, injected
//! into and queried mid-flight, checkpointed between strides, and only
//! summarised once it drains. [`ScenarioWorld`] is that split —
//! build / advance / outcome — with the construction, scheduling and
//! digest code kept line-for-line equivalent to the historical
//! `execute()` so the outcome digest of a world driven in arbitrary
//! stride interleavings is identical to the standalone run's.

use crate::scenario::{AttackSpec, ScenarioConfig, ScenarioOutcome};
use ddpm_attack::{
    stream, AdversaryModel, BackgroundTraffic, FloodAttack, HandleOrder, LazyWorkload,
    PacketFactory, SpoofStrategy, Stream, SynFloodAttack, TrafficPattern,
};
use ddpm_checkpoint::Fnv64;
use ddpm_core::build_scheme_with;
use ddpm_net::{AddrMap, TrafficClass};
use ddpm_routing::Router;
use ddpm_sim::{
    Attribution, Collector, InvariantConfig, Marker, MarkingScheme, RetryPolicy, SchemeSpec,
    SimConfig, SimSnapshot, SimTime, Simulation, TrafficSource,
};
use ddpm_telemetry::{EventKind as TelEvent, PacketEvent, TelemetryConfig};
use ddpm_topology::{FaultSchedule, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Extends a borrow of heap-owned data to `'static`.
///
/// # Safety
/// The caller must guarantee that the allocation owning `*r` outlives
/// every use of the returned reference and is neither moved out of its
/// box nor reassigned in the meantime. [`ScenarioWorld`] upholds this
/// structurally: the borrowing fields (`sim`, `adversary`, `resident`)
/// are declared before the owning boxes, so they drop first, and no
/// method hands out `&mut` access to the boxes themselves.
unsafe fn extend<T: ?Sized>(r: &T) -> &'static T {
    &*(r as *const T)
}

/// A checkpoint copied out of a world but not yet on disk, from
/// [`ScenarioWorld::capture_checkpoint`].
pub struct CapturedCheckpoint {
    dir: PathBuf,
    keep: usize,
    stamp: u64,
    scenario: String,
    snap: SimSnapshot,
}

impl CapturedCheckpoint {
    /// The simulated cycle the checkpoint resumes from.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.snap.now
    }

    /// Encodes the checkpoint and writes it atomically into its
    /// directory, pruning to the configured retention. Two writes into
    /// one directory must not overlap; the caller serialises them.
    ///
    /// # Errors
    /// I/O failures.
    pub fn store(&self) -> Result<PathBuf, String> {
        ddpm_checkpoint::store(&self.dir, self.stamp, &self.scenario, &self.snap, self.keep)
            .map_err(|e| format!("checkpoint into {}: {e}", self.dir.display()))
    }
}

/// An online attribution answer, as reported by [`ScenarioWorld::identify`].
///
/// The same victim-side evidence the end-of-run summary reports, but
/// computed from the delivered stream *so far* — a mid-flight query
/// over a live tenant, not a post-mortem.
#[derive(Clone, Debug)]
pub struct OnlineAttribution {
    /// The plugin scheme that produced the answer.
    pub scheme: &'static str,
    /// Simulated cycle at which the query was answered.
    pub cycle: u64,
    /// The victim node the collector was built for.
    pub victim: u32,
    /// Attack-class packets observed (delivered to the victim so far).
    pub observed: u64,
    /// Marks rejected fail-closed (auth-* schemes).
    pub rejected: u64,
    /// Implicated source nodes, ascending. Shared: the resident
    /// collector's answer is built once per change, and every query
    /// hands out the same list.
    pub candidates: Arc<[u32]>,
    /// The scheme's evidence-backed confidence in `[0, 1]`.
    pub confidence: f64,
}

impl OnlineAttribution {
    /// `collector`'s current answer for `victim`, stamped with `cycle`.
    fn of(scheme: &'static str, cycle: u64, victim: NodeId, collector: &mut dyn Collector) -> Self {
        let att: Attribution = collector.attribute();
        Self {
            scheme,
            cycle,
            victim: victim.0,
            observed: collector.observed(),
            rejected: collector.rejected(),
            candidates: att.candidates.iter().map(|c| c.0).collect(),
            confidence: att.confidence,
        }
    }
}

/// The attack victim's collector, kept caught up with the delivered
/// log: every advancement feeds it only the deliveries since the last
/// one, so an identify costs a cache read instead of an O(delivered)
/// replay.
struct Resident {
    collector: Box<dyn Collector>,
    victim: NodeId,
    /// Delivered-log entries already scanned.
    fed: usize,
    /// Latest delivery cycle among the packets fed (telemetry stamp).
    last_cycle: u64,
    /// The answer as of the last time `observed()` moved, which every
    /// query copies and stamps with the current cycle. Every
    /// collector's answer is a pure function of what it observed, so
    /// this equals a fresh replay over the same deliveries.
    answer: OnlineAttribution,
}

/// A resident, stride-steppable scenario world.
///
/// Built once from a [`ScenarioConfig`] (optionally restoring a
/// checkpoint), then advanced with [`step`](Self::step) — each call a
/// bounded `Simulation::run_until` segment — until
/// [`done`](Self::done). Stride boundaries are digest-neutral by the
/// simulator's contract, so however the strides are sized and
/// interleaved, [`outcome`](Self::outcome) reports exactly what the
/// one-shot runner would have.
///
/// The struct is self-referential: `sim` borrows the boxed topology,
/// fault set and marker; `adversary` borrows the boxed plugin; the
/// resident collector borrows the boxed plugin and topology. The
/// borrows are lifetime-extended to `'static` at construction, which
/// is sound because the referents are heap allocations owned by fields
/// declared *after* the borrowers (Rust drops fields in declaration
/// order, so the borrowers go first) and never moved or reassigned.
/// `ScenarioWorld` is `Send` — a tenant migrates freely between the
/// service's worker threads — but not `Sync`; concurrent access goes
/// through the per-tenant mutex in `server.rs`.
pub struct ScenarioWorld {
    // ---- borrowers: must drop before the owners below --------------
    sim: Simulation<'static>,
    adversary: Option<Box<AdversaryModel<'static>>>,
    resident: Option<Resident>,
    // ---- owners of the borrowed-from allocations --------------------
    plugin: Box<dyn MarkingScheme>,
    faults: Box<FaultSet>,
    topo: Box<Topology>,
    // ---- inert owned state ------------------------------------------
    cfg: ScenarioConfig,
    source: Option<String>,
    router: Router,
    schedule: FaultSchedule,
    factory: PacketFactory,
    rng: SmallRng,
    /// Fingerprint stamp for checkpoint files (source text, or a
    /// config-derived stamp for programmatic runs).
    stamp: u64,
    /// Monotone count of `inject` calls, namespacing mid-flight packet
    /// ids away from the scheduled workload's.
    injected_packets: u64,
    done: bool,
}

impl ScenarioWorld {
    /// Builds the world: topology, faults, marker plugin, adversary,
    /// simulation — and either attaches the configured workload as the
    /// run's traffic source (fresh run) or restores `resume`'s snapshot.
    ///
    /// Equivalent to [`Self::build_with`] with no telemetry override.
    ///
    /// # Errors
    /// Every validation wall of the one-shot runner: scheme/topology
    /// and router/topology mismatches, out-of-range nodes, invalid
    /// fault schedules, adversary misconfiguration, checkpoint/adversary
    /// state mismatches on resume.
    pub fn build(
        cfg: &ScenarioConfig,
        source: Option<&str>,
        resume: Option<ddpm_checkpoint::Checkpoint>,
    ) -> Result<Self, String> {
        Self::build_with(cfg, source, resume, None)
    }

    /// [`Self::build`] with an optional telemetry override, which
    /// replaces the simulation's (default-off) telemetry config — the
    /// service uses this to install the per-tenant broadcast sink.
    /// Telemetry is digest-neutral, so the override never changes the
    /// outcome.
    ///
    /// # Errors
    /// As [`Self::build`].
    pub fn build_with(
        cfg: &ScenarioConfig,
        source: Option<&str>,
        resume: Option<ddpm_checkpoint::Checkpoint>,
        telemetry: Option<TelemetryConfig>,
    ) -> Result<Self, String> {
        let topo = Box::new(cfg.topology.build());
        // SAFETY: `topo`, `faults`, `plugin` and `adversary` are boxed and
        // stored in the returned struct, declared after the fields that
        // borrow them; see the struct docs for the full argument.
        let topo_ref: &'static Topology = unsafe { extend(&*topo) };
        let n = topo_ref.num_nodes();
        let router = cfg.router.build(topo_ref);
        router
            .check_topology(topo_ref)
            .map_err(|e| format!("router: {e}"))?;
        let map = AddrMap::for_topology(topo_ref);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let faults = Box::new(FaultSet::random(topo_ref, cfg.fault_rate, || rng.gen::<f64>()));
        let faults_ref: &'static FaultSet = unsafe { extend(&*faults) };
        let schedule = FaultSchedule::from_events(cfg.fault_schedule.clone());
        schedule
            .validate(topo_ref)
            .map_err(|e| format!("fault_schedule: {e}"))?;

        // The `"scheme"` knob selects a two-sided plugin (absent = `none`);
        // scheme/topology mismatches (e.g. tracemax on a long-diameter
        // mesh, DDPM on an oversized one) surface here as loader errors.
        let spec = cfg.scheme.unwrap_or(SchemeSpec::None);
        let plugin = build_scheme_with(spec, topo_ref, cfg.tag_bits)?;
        let plugin_ref: &'static dyn MarkingScheme = unsafe { extend(&*plugin) };
        // The `"adversary"` block wraps the plugin marker: compromised
        // switches run the configured behavior, everyone else delegates to
        // the honest scheme. Range checks (switches/framed vs. the built
        // topology) surface here as loader errors.
        let adversary: Option<Box<AdversaryModel<'static>>> = match &cfg.adversary {
            None => None,
            Some(a) => Some(Box::new(
                AdversaryModel::new(plugin_ref, spec, topo_ref, a.clone(), cfg.tag_bits)
                    .map_err(|e| format!("adversary: {e}"))?,
            )),
        };
        let marker: &'static dyn Marker = match &adversary {
            Some(a) => unsafe { extend(&**a) },
            None => plugin_ref,
        };

        let check_node = |id: u32, what: &str| -> Result<NodeId, String> {
            if u64::from(id) < n {
                Ok(NodeId(id))
            } else {
                Err(format!("{what} {id} out of range (cluster has {n} nodes)"))
            }
        };

        // The workload is pulled as simulated time reaches it: one
        // counting pass here leaves `factory` and `rng` where generating
        // it whole would, for `inject` to continue from.
        let mut factory = PacketFactory::new(map.clone());
        let mut streams: Vec<Stream<'static>> = Vec::new();
        if cfg.background_interval > 0 {
            streams.extend(
                BackgroundTraffic {
                    pattern: TrafficPattern::Uniform,
                    interval: cfg.background_interval,
                    duration: cfg.horizon,
                    start: SimTime::ZERO,
                }
                .streams(topo_ref),
            );
        }
        if let Some(attack) = &cfg.attack {
            streams.extend(attack_streams(attack, &check_node)?);
        }
        // `staged_injection` picks the handle numbering only: time
        // order, or the generators' order.
        let order = if cfg.staged_injection {
            HandleOrder::Time
        } else {
            HandleOrder::Generation
        };
        let workload = LazyWorkload::new(streams, &mut factory, &mut rng, order);

        let defaults = SimConfig::seeded(cfg.seed);
        let sim_cfg = SimConfig {
            // Lets the core flag compromised nodes: it emits `MarkTamper`
            // telemetry at every marking touch by a compromised switch.
            adversary: cfg.adversary.clone(),
            retry: if cfg.fault_retries > 0 {
                RetryPolicy::capped(cfg.fault_retries, defaults.service_cycles.max(1), 256)
            } else {
                RetryPolicy::OFF
            },
            watchdog: cfg.watchdog,
            // Recording, not strict: a scenario run should report the
            // violation to its user, not abort the process.
            invariants: if cfg.invariants {
                InvariantConfig {
                    selftest_at: cfg.invariants_selftest_at,
                    ..InvariantConfig::recording()
                }
            } else {
                defaults.invariants
            },
            telemetry: telemetry.unwrap_or_default(),
            ..defaults
        };
        let mut sim = Simulation::new(topo_ref, faults_ref, router, cfg.policy, marker, sim_cfg);
        match resume {
            None => {
                sim.schedule_faults(&schedule);
                sim.attach(Box::new(workload));
            }
            Some(mut ckpt) => {
                // The snapshot carries the complete mid-run state — event
                // queue (remaining fault events included), packets in
                // flight, RNG streams, port clocks — and the workload's
                // cursor; `restore` insists on a freshly built world, so
                // nothing is scheduled here. A version-3 snapshot holds
                // the rest of its workload itself and has no cursor.
                let at = ckpt.cycle;
                if let Some(state) = ckpt.snapshot.adversary.take() {
                    match &adversary {
                        Some(adv) => adv
                            .restore(state)
                            .map_err(|e| format!("resume adversary: {e}"))?,
                        None => {
                            return Err(
                                "checkpoint carries adversary state but the scenario \
                                 configures no adversary"
                                    .into(),
                            )
                        }
                    }
                }
                let cursor = ckpt.snapshot.source_cursor;
                if cursor.is_some_and(|c| c > workload.handles()) {
                    return Err(
                        "checkpoint's workload cursor is past the scenario's workload".into(),
                    );
                }
                sim.restore(ckpt.snapshot);
                if cursor.is_some() {
                    sim.attach(Box::new(workload));
                }
                if let Some(t) = sim.telemetry_mut() {
                    t.note_resume(at);
                }
            }
        }
        let stamp = match source {
            Some(s) if !s.is_empty() => ddpm_checkpoint::fingerprint(s),
            _ => ddpm_checkpoint::fingerprint(&format!("programmatic {:?}", sim.config())),
        };
        // The victim was range-checked with the attack above.
        let resident = attack_victim(cfg).map(|victim| {
            let victim = NodeId(victim);
            let mut collector = plugin_ref.collector(topo_ref, victim);
            let answer = OnlineAttribution::of(plugin_ref.name(), 0, victim, &mut *collector);
            Resident {
                collector,
                victim,
                fed: 0,
                last_cycle: 0,
                answer,
            }
        });
        let mut world = Self {
            sim,
            adversary,
            resident,
            plugin,
            faults,
            topo,
            cfg: cfg.clone(),
            source: source.map(str::to_owned),
            router,
            schedule,
            factory,
            rng,
            stamp,
            injected_packets: 0,
            done: false,
        };
        // A restored snapshot carries the deliveries made before it.
        world.absorb();
        Ok(world)
    }

    /// Resumes the newest usable checkpoint in `dir` as a resident
    /// world, without running it anywhere. `every_override` replaces
    /// the checkpoint cadence for the continued run.
    ///
    /// # Errors
    /// As [`crate::scenario::load_resume`] and [`Self::build`].
    pub fn resume(dir: &std::path::Path, every_override: Option<u64>) -> Result<Self, String> {
        let (cfg, source, ckpt) = crate::scenario::load_resume(dir, every_override)?;
        Self::build(&cfg, Some(&source), Some(ckpt))
    }

    /// The scenario config the world was built from (checkpoint block
    /// included, as possibly redirected on resume).
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The embedded scenario source text, if the run is resumable.
    #[must_use]
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The built topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The marking scheme plugin the run marks with. An adversary wraps
    /// its marker, never its collector, so this is the honest scheme the
    /// victim decodes with.
    #[must_use]
    pub fn scheme(&self) -> &dyn MarkingScheme {
        &*self.plugin
    }

    /// The compromised marking plane, if the scenario configures one. Its
    /// per-packet ground truth ([`AdversaryModel::was_tampered`]) is what
    /// the victim cannot see and a report can.
    #[must_use]
    pub fn adversary(&self) -> Option<&AdversaryModel<'_>> {
        self.adversary.as_deref()
    }

    /// Read access to the live simulation: stats so far, delivered
    /// stream, drops, violations, current cycle.
    ///
    /// The simulation borrows the world's own topology, so nothing
    /// reached through it may outlive the world — this does not
    /// compile:
    ///
    /// ```compile_fail,E0597
    /// use ddpm_serve::scenario::{ScenarioConfig, ScenarioWorld};
    /// use ddpm_topology::Topology;
    /// use serde_json::FromJson;
    ///
    /// let v = serde_json::json!({
    ///     "topology": {"kind": "mesh", "dims": [4, 4]},
    ///     "router": "dimension_order",
    ///     "horizon": 100
    /// });
    /// let cfg = ScenarioConfig::from_json(&v).unwrap();
    /// let t: &'static Topology = {
    ///     let w = ScenarioWorld::build(&cfg, None, None).unwrap();
    ///     w.sim().topology()
    /// };
    /// println!("{}", t.num_nodes());
    /// ```
    #[must_use]
    pub fn sim(&self) -> &Simulation<'_> {
        &self.sim
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now_cycles(&self) -> u64 {
        self.sim.now_cycles()
    }

    /// Has the run reached quiescence (statistics final)?
    #[must_use]
    pub fn done(&self) -> bool {
        self.done
    }

    /// The victim node of the configured attack, if any.
    #[must_use]
    pub fn victim(&self) -> Option<u32> {
        attack_victim(&self.cfg)
    }

    /// Feeds the resident collector every delivery since the last call,
    /// and re-runs `attribute()` only if it observed something new.
    /// Every method that advances the simulation ends here.
    fn absorb(&mut self) {
        let Some(r) = &mut self.resident else { return };
        let delivered = self.sim.delivered();
        let before = r.collector.observed();
        for d in &delivered[r.fed..] {
            if d.packet.dest_node == r.victim && d.packet.class == TrafficClass::Attack {
                // observe_packet, not observe: the auth-* collectors
                // verify the delivered header's keyed tag and reject
                // fail-closed; everyone else falls back to plain field
                // observation.
                r.collector.observe_packet(&d.packet);
                r.last_cycle = r.last_cycle.max(d.delivered_at.0);
            }
        }
        r.fed = delivered.len();
        if r.collector.observed() != before {
            r.answer = OnlineAttribution::of(self.plugin.name(), 0, r.victim, &mut *r.collector);
        }
    }

    /// Advances the world by one bounded stride of at most `cycles`
    /// simulated cycles (at least up to the next pending event, so
    /// every call makes progress). Returns `true` once the run has
    /// reached quiescence; further calls are no-ops.
    pub fn step(&mut self, cycles: u64) -> bool {
        if self.done {
            return true;
        }
        // Guarantee progress even when the stride lands inside an
        // event-time gap (the clock only advances by dispatching): the
        // limit always covers at least the earliest pending event.
        let base = self.sim.now_cycles().saturating_add(cycles.max(1));
        let limit = match self.sim.next_event_time() {
            Some(t) => base.max(t.saturating_add(1)),
            None => base,
        };
        self.done = self.sim.run_until(limit);
        self.absorb();
        self.done
    }

    /// Schedules an extra attack mid-flight, starting `interval`-spaced
    /// from the next cycle. The flood is generated with the world's
    /// resident RNG and packet factory, so a given sequence of inject
    /// calls against a given world is deterministic. Returns
    /// `(first_cycle, packets_scheduled)`.
    ///
    /// # Errors
    /// Out-of-range nodes, or a world that has already drained (a
    /// finalized run cannot accept new packets).
    pub fn inject(&mut self, attack: &AttackSpec) -> Result<(u64, usize), String> {
        if self.done {
            return Err("world has drained; cannot inject into a completed run".into());
        }
        let n = self.topo.num_nodes();
        let check_node = |id: u32, what: &str| -> Result<NodeId, String> {
            if u64::from(id) < n {
                Ok(NodeId(id))
            } else {
                Err(format!("{what} {id} out of range (cluster has {n} nodes)"))
            }
        };
        let workload = stream::drain(
            attack_streams(attack, &check_node)?,
            &mut self.factory,
            &mut self.rng,
        );
        let base = self.sim.now_cycles() + 1;
        let count = workload.len();
        for (t, p) in workload {
            self.sim.schedule(SimTime(base + t.0), p);
        }
        self.injected_packets += count as u64;
        Ok((base, count))
    }

    /// Packets scheduled by [`inject`](Self::inject) so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Answers an attribution query *online*, from the delivered stream
    /// so far, and returns the scheme collector's current best answer
    /// (fail-closed tag verification included for auth-* schemes).
    /// Works mid-flight and after completion; read-only, so it never
    /// perturbs the run.
    ///
    /// The attack victim — `None`, or an explicit `victim` equal to it —
    /// is answered from the resident collector in O(1). Any other
    /// explicit victim is answered by building its collector and
    /// replaying every attack-class packet delivered to it to date.
    ///
    /// # Errors
    /// No victim (neither an `attack` block nor an explicit `victim`
    /// argument), or a victim out of range.
    // The resident answer is a copy of a few words, so it is inlined
    // into the caller: a query made between strides then runs beside
    // code the caller's loop just ran, not in a function the stride
    // pushed out of the instruction cache. On perfbench's
    // `adaptive-auth` (2-vCPU Xeon host) a resident query read about
    // 0.5 µs as a call and 0.07 µs inlined.
    #[inline]
    pub fn identify(&self, victim: Option<u32>) -> Result<OnlineAttribution, String> {
        if let Some(r) = &self.resident {
            if victim.is_none_or(|v| v == r.victim.0) {
                return Ok(OnlineAttribution {
                    cycle: self.sim.now_cycles(),
                    ..r.answer.clone()
                });
            }
        }
        self.replay_identify(victim)
    }

    /// [`Self::identify`] for a victim the resident collector does not
    /// serve: builds its collector and replays the delivered log.
    fn replay_identify(&self, victim: Option<u32>) -> Result<OnlineAttribution, String> {
        let cycle = self.sim.now_cycles();
        let Some(victim) = victim else {
            return Err(
                "no victim to attribute for: the scenario has no `attack` block; \
                 pass an explicit `victim`"
                    .into(),
            );
        };
        let n = self.topo.num_nodes();
        if u64::from(victim) >= n {
            return Err(format!("victim {victim} out of range (cluster has {n} nodes)"));
        }
        let victim = NodeId(victim);
        let mut collector = self.plugin.collector(&self.topo, victim);
        for d in self.sim.delivered() {
            if d.packet.dest_node == victim && d.packet.class == TrafficClass::Attack {
                collector.observe_packet(&d.packet);
            }
        }
        Ok(OnlineAttribution::of(
            self.plugin.name(),
            cycle,
            victim,
            &mut *collector,
        ))
    }

    /// Writes a checkpoint of the current state into the configured
    /// checkpoint directory (snapshot + adversary state + embedded
    /// scenario source). Returns `Ok(None)` when the config has no
    /// checkpoint block.
    ///
    /// # Errors
    /// I/O failures, or a drained world (a finalized run has nothing
    /// left to resume).
    pub fn checkpoint_now(&mut self) -> Result<Option<PathBuf>, String> {
        self.capture_checkpoint()?
            .map(|c| c.store())
            .transpose()
    }

    /// The in-memory half of [`Self::checkpoint_now`]: copies the state
    /// a checkpoint holds, to be encoded and written by
    /// [`CapturedCheckpoint::store`] without the world. The service
    /// captures under the tenant lock and writes after releasing it.
    /// Returns `Ok(None)` when the config has no checkpoint block.
    ///
    /// # Errors
    /// A drained world (a finalized run has nothing left to resume).
    pub fn capture_checkpoint(&self) -> Result<Option<CapturedCheckpoint>, String> {
        let Some(ck) = &self.cfg.checkpoint else {
            return Ok(None);
        };
        if self.done {
            return Err("world has drained; nothing left to checkpoint".into());
        }
        let mut snap = self.sim.snapshot();
        if let Some(adv) = &self.adversary {
            snap.adversary = Some(adv.state());
        }
        Ok(Some(CapturedCheckpoint {
            dir: ck.dir.clone(),
            keep: ck.keep,
            stamp: self.stamp,
            scenario: self.source.clone().unwrap_or_default(),
            snap,
        }))
    }

    /// Runs the world to completion: the plain event loop, or — with a
    /// checkpoint block configured — the segmented checkpointing loop
    /// (`every`-cycle strides, atomic checkpoint at each pause, the
    /// `crash_at` abort hook, cooperative SIGINT handling).
    ///
    /// # Errors
    /// Checkpoint I/O failures, or the cooperative-interrupt report
    /// naming the resume command.
    pub fn run_to_completion(&mut self) -> Result<(), String> {
        match self.cfg.checkpoint.clone() {
            None => {
                self.sim.run();
                self.done = true;
                self.absorb();
                Ok(())
            }
            Some(ck) => {
                let result = self.run_checkpointed(&ck);
                self.absorb();
                result
            }
        }
    }

    /// Segmented execution with on-disk checkpoints.
    ///
    /// Runs the simulation in `every`-cycle segments, writing an atomic
    /// checkpoint (temp + fsync + rename, see `ddpm-checkpoint`) at each
    /// pause. Pausing and continuing the simulation is digest-neutral by
    /// construction — `run_until` stops only at clean event boundaries —
    /// so checkpointed, resumed and plain runs all report the same
    /// outcome.
    ///
    /// `crash_at` aborts the process once the run reaches that cycle,
    /// *before* any further write: the deterministic stand-in for SIGKILL
    /// used by the kill-and-resume harness. Everything since the last
    /// on-disk checkpoint is genuinely lost, which is the point.
    ///
    /// SIGINT/SIGTERM are handled cooperatively: the in-flight segment
    /// finishes, a final checkpoint lands on disk, and the run returns an
    /// error explaining how to resume instead of dying mid-write.
    fn run_checkpointed(&mut self, ck: &ddpm_sim::CheckpointConfig) -> Result<(), String> {
        ddpm_checkpoint::interrupt::install();
        let every = ck.every.max(1);
        let mut target = (self.sim.now_cycles() / every + 1) * every;
        loop {
            if let Some(crash) = ck.crash_at.filter(|&c| c < target) {
                // The crash point lands inside this segment: run up to it
                // and die there. Not-done after draining every event below
                // `crash` means simulated time has reached the crash point
                // (the next event is at or past it), so abort either way.
                if self.sim.run_until(crash) {
                    self.done = true;
                    return Ok(());
                }
                std::process::abort();
            }
            if self.sim.run_until(target) {
                self.done = true;
                return Ok(());
            }
            // Read the interrupt flag *before* storing so the checkpoint
            // that announces the interruption is already safely on disk.
            let interrupted = ddpm_checkpoint::interrupt::requested();
            let path = self
                .checkpoint_now()?
                .expect("checkpoint block is configured");
            if interrupted {
                return Err(format!(
                    "interrupted at cycle {}: final checkpoint written to {}; \
                     resume with `report -- resume {}`",
                    self.sim.now_cycles(),
                    path.display(),
                    ck.dir.display(),
                ));
            }
            target += every;
        }
    }

    /// The run's summary: human text, machine JSON and the behavioural
    /// digest. Valid once the run is [`done`](Self::done); the digest
    /// hashes the delivered/drop/violation/stats streams, so a world
    /// driven in any stride interleaving digests identically to the
    /// one-shot run.
    ///
    /// Note: computing the outcome records the post-run attribution
    /// telemetry events; call it once per run.
    #[must_use]
    pub fn outcome(&mut self) -> ScenarioOutcome {
        let cfg = &self.cfg;
        let p = &self.plugin;
        let topo: &Topology = &self.topo;
        let router = self.router;
        let stats = *self.sim.stats();
        let sim = &mut self.sim;

        // The digest hashes the text `D …`/`X …`/`V …`/`S …` lines as
        // they are formatted, without building the (hundreds of MB)
        // dump: one overall hash and one per section. A `D` line ends
        // in ` None`, the column where the path the packet took was
        // once printed, so every digest stays what it was.
        let mut h = Fnv64::new();
        for d in sim.delivered() {
            writeln!(
                h,
                "D {:?} {:?} {:?} {} None",
                d.packet, d.injected_at, d.delivered_at, d.hops
            )
            .expect("hashing cannot fail");
        }
        let d_hash = h.end_section();
        for (id, reason) in sim.drops() {
            writeln!(h, "X {id:?} {reason:?}").expect("hashing cannot fail");
        }
        let x_hash = h.end_section();
        for v in sim.violations() {
            writeln!(h, "V {v:?}").expect("hashing cannot fail");
        }
        let v_hash = h.end_section();
        writeln!(h, "S {stats:?}").expect("hashing cannot fail");
        let s_hash = h.end_section();
        let digest = format!(
            "{:016x} delivered={} dropped={} violations={} D={d_hash:016x} X={x_hash:016x} \
             V={v_hash:016x} S={s_hash:016x}",
            h.finish(),
            sim.delivered().len(),
            sim.drops().len(),
            sim.violations().len(),
        );

        let mut text = format!(
            "scenario: {topo}, {} routing, {} scheme, {} failed links\n\
             benign : {} injected, {} delivered ({:.1}% | mean latency {:.1} cyc)\n\
             attack : {} injected, {} delivered, {} dropped\n",
            router,
            p.name(),
            self.faults.failed_links(),
            stats.benign.injected,
            stats.benign.delivered,
            stats.benign.delivery_ratio() * 100.0,
            stats.benign.latency.mean().unwrap_or(0.0),
            stats.attack.injected,
            stats.attack.delivered,
            stats.attack.dropped(),
        );
        text.push_str(&format!(
            "memory : {} B packet-arena peak ({} packets in flight){}, {} B port table\n",
            stats.peak_arena_bytes,
            stats.peak_in_flight,
            if cfg.staged_injection {
                " (staged injection)"
            } else {
                ""
            },
            stats.port_bytes,
        ));
        if !self.schedule.is_empty() {
            text.push_str(&format!(
                "faults : {} events applied, {} fault drops, \
                 fault-window delivery {:.1}%, {} degraded cycles\n",
                stats.faults.events_applied,
                stats.fault_drops(),
                stats.faults.window_delivery_ratio() * 100.0,
                stats.faults.degraded_cycles,
            ));
        }
        if cfg.watchdog.is_some() {
            let wd = &stats.watchdog;
            text.push_str(&format!(
                "liveness: {} sweeps — {} livelocks, {} starvations, {} deadlocks, \
                 {} escapes (oldest in-flight age {} cyc)\n",
                wd.checks, wd.livelocks, wd.starvations, wd.deadlocks, wd.escapes, wd.max_age_seen,
            ));
        }
        if cfg.invariants {
            let violations = sim.violations();
            match violations.first() {
                None => text.push_str("invariants: 0 violations\n"),
                Some(first) => text.push_str(&format!(
                    "invariants: {} VIOLATIONS — first at cycle {}: {} ({})\n",
                    violations.len(),
                    first.cycle,
                    first.invariant,
                    first.detail,
                )),
            }
        }
        // Victim-side attribution: the resident collector has seen every
        // attack-class packet the victim received, in delivery order.
        // Text/JSON only — the behavioural digest hashes the
        // delivered/drop/violation/stats streams, which this post-run
        // analysis does not touch.
        let mut attribution_json = json!(null);
        if let Some(r) = &self.resident {
            let victim = r.victim;
            let last_cycle = r.last_cycle;
            let att = &r.answer;
            let observed = att.observed;
            let rejected = att.rejected;
            let candidates = &att.candidates;
            if candidates.is_empty() {
                text.push_str(&format!(
                    "attrib : {} collector saw {observed} attack packets, named no source\n",
                    p.name()
                ));
            } else {
                text.push_str(&format!(
                    "attrib : {} collector saw {observed} attack packets -> {} candidate(s) \
                     at confidence {:.2}:\n",
                    p.name(),
                    candidates.len(),
                    att.confidence,
                ));
                for &node in candidates.iter() {
                    let node = NodeId(node);
                    text.push_str(&format!("         {node} at {}\n", topo.coord(node)));
                }
            }
            if rejected > 0 {
                text.push_str(&format!(
                    "         {rejected} mark(s) rejected fail-closed (tag did not verify)\n"
                ));
            }
            if let Some(t) = sim.telemetry_mut() {
                if rejected > 0 {
                    t.record_post_run(PacketEvent {
                        cycle: last_cycle,
                        pkt: rejected,
                        node: victim.0,
                        kind: TelEvent::AuthReject { scheme: p.name() },
                    });
                }
                t.record_post_run(PacketEvent {
                    cycle: last_cycle,
                    pkt: 0,
                    node: victim.0,
                    kind: TelEvent::Attribute {
                        scheme: p.name(),
                        candidates: candidates.len() as u32,
                        confidence_pm: (att.confidence * 1000.0).round() as u32,
                    },
                });
            }
            attribution_json = json!({
                "scheme": p.name(),
                "observed": observed,
                "rejected": rejected,
                "candidates": candidates.iter().map(|&n| json!(n)).collect::<Vec<_>>(),
                "confidence": att.confidence,
            });
        }
        // Adversary ground truth (the honest victim cannot see this; the
        // report can): what the compromised marking plane actually did.
        let mut adversary_json = json!(null);
        if let Some(adv) = &self.adversary {
            let spec = adv.spec();
            let tampered = adv.total_tampered();
            text.push_str(&format!(
                "adversary: {} compromised switch(es), behavior {}, {} mark(s) tampered\n",
                spec.switches.len(),
                spec.behavior.as_str(),
                tampered,
            ));
            adversary_json = json!({
                "switches": spec.switches.iter().map(|s| json!(s.0)).collect::<Vec<_>>(),
                "behavior": spec.behavior.as_str(),
                "framed": spec.framed.map_or(json!(null), |f| json!(f.0)),
                "seed": spec.seed,
                "tampered": tampered,
            });
        }
        let watchdog_json = if cfg.watchdog.is_some() {
            json!({
                "checks": stats.watchdog.checks,
                "livelocks": stats.watchdog.livelocks,
                "starvations": stats.watchdog.starvations,
                "deadlocks": stats.watchdog.deadlocks,
                "escapes": stats.watchdog.escapes,
                "max_age_seen": stats.watchdog.max_age_seen,
            })
        } else {
            json!(null)
        };
        let invariants_json = if cfg.invariants {
            json!(sim
                .violations()
                .iter()
                .map(|v| json!({
                    "cycle": v.cycle,
                    "pkt": v.pkt,
                    "node": v.node,
                    "invariant": v.invariant,
                    "detail": v.detail.clone(),
                }))
                .collect::<Vec<_>>())
        } else {
            json!(null)
        };
        let json = json!({
            "topology": topo.describe(),
            "router": router.name(),
            "failed_links": self.faults.failed_links(),
            "watchdog": watchdog_json,
            "violations": invariants_json,
            "faults": {
                "events_applied": stats.faults.events_applied,
                "fault_drops": stats.fault_drops(),
                "window_delivery_ratio": stats.faults.window_delivery_ratio(),
                "degraded_cycles": stats.faults.degraded_cycles,
            },
            "benign": {
                "injected": stats.benign.injected,
                "delivered": stats.benign.delivered,
                "mean_latency": stats.benign.latency.mean(),
            },
            "attack": {
                "injected": stats.attack.injected,
                "delivered": stats.attack.delivered,
                "dropped": stats.attack.dropped(),
            },
            "memory": {
                "peak_arena_bytes": stats.peak_arena_bytes,
                "peak_in_flight": stats.peak_in_flight,
                "port_bytes": stats.port_bytes,
                "staged_injection": cfg.staged_injection,
            },
            "scheme": p.name(),
            "tag_bits": match cfg.tag_bits {
                Some(t) => json!(t),
                None => json!(null),
            },
            "adversary": adversary_json,
            "attribution": attribution_json,
        });
        ScenarioOutcome { text, json, digest }
    }
}

/// The victim node of `cfg`'s attack, if it configures one.
fn attack_victim(cfg: &ScenarioConfig) -> Option<u32> {
    cfg.attack.as_ref().map(|a| match a {
        AttackSpec::UdpFlood { victim, .. } | AttackSpec::SynFlood { victim, .. } => *victim,
    })
}

/// The injector streams of an [`AttackSpec`], range-checking zombies
/// and victim against the topology via `check_node`.
fn attack_streams(
    attack: &AttackSpec,
    check_node: &dyn Fn(u32, &str) -> Result<NodeId, String>,
) -> Result<Vec<Stream<'static>>, String> {
    match attack {
        AttackSpec::UdpFlood {
            zombies,
            victim,
            packets_per_zombie,
            interval,
        } => {
            let zombies = zombies
                .iter()
                .map(|&z| check_node(z, "zombie"))
                .collect::<Result<Vec<_>, _>>()?;
            let flood = FloodAttack {
                packets_per_zombie: *packets_per_zombie,
                interval: *interval,
                ..FloodAttack::new(zombies, check_node(*victim, "victim")?)
            };
            Ok(flood.streams())
        }
        AttackSpec::SynFlood {
            zombies,
            victim,
            syns_per_zombie,
            interval,
        } => {
            let zombies = zombies
                .iter()
                .map(|&z| check_node(z, "zombie"))
                .collect::<Result<Vec<_>, _>>()?;
            let flood = SynFloodAttack {
                syns_per_zombie: *syns_per_zombie,
                interval: *interval,
                spoof: SpoofStrategy::RandomInCluster,
                ..SynFloodAttack::new(zombies, check_node(*victim, "victim")?)
            };
            Ok(flood.streams())
        }
    }
}
