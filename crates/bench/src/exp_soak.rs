//! E-SOAK — deterministic chaos soak with one-command failure replay.
//!
//! The liveness/invariant machinery of PR 3 claims "no silent hangs,
//! no unaccounted packets" under *any* combination of topology,
//! routing, churn and adversarial switches. This harness earns that
//! claim the only way it can be earned: by fuzzing the combination
//! space under a wall-clock budget with the watchdog armed and the
//! invariant checker recording.
//!
//! Every fuzz case is a pure function of its seed (a [`SoakCase`]), so
//! a violation is never a heisenbug: the harness snapshots the case,
//! the violation, the trailing lifecycle events and the fault schedule
//! into an on-disk **repro bundle** (`ddpm-repro-bundle/2`), and
//! `report -- replay <bundle>` re-runs it and confirms the identical
//! violation — same cycle, same packet, same invariant.
//!
//! ```text
//! cargo run --release -p ddpm-bench --bin report -- --soak-secs 60 soak
//! cargo run --release -p ddpm-bench --bin report -- replay target/soak-bundles/bundle-*.json
//! ```

use crate::util::{fnum, Report, RunCtx};
use ddpm_attack::{AdversaryModel, PacketFactory};
use ddpm_core::build_scheme;
use ddpm_net::{AddrMap, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_serve::scenario::{RouterSpec, TopologySpec};
use ddpm_sim::{
    AdversaryBehavior, AdversarySpec, Engine, InvariantConfig, Marker, RetryPolicy, SchemeSpec,
    SimConfig, SimStats, SimTime, Simulation, Violation, WatchdogConfig,
};
use ddpm_telemetry::PacketEvent;
use ddpm_topology::{ChurnConfig, FaultEvent, FaultSchedule, FaultSet, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Error as JsonError, FromJson, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bundle schema tag; bump on any incompatible layout change.
pub const BUNDLE_SCHEMA: &str = "ddpm-repro-bundle/2";

/// One fully-determined fuzz case: everything a run needs, so the same
/// case always produces the same events, the same drops and (if any)
/// the same violation.
#[derive(Clone, Debug)]
pub struct SoakCase {
    /// Cluster under test.
    pub topology: TopologySpec,
    /// Routing algorithm.
    pub router: RouterSpec,
    /// Output-port selection policy.
    pub policy: SelectionPolicy,
    /// Seed for churn generation, workload and the simulator RNG.
    pub seed: u64,
    /// Benign packets injected.
    pub packets: u64,
    /// Injection cadence in cycles.
    pub inject_every: u64,
    /// Churn: how often the fail/repair sampler runs, in cycles.
    pub churn_period: u64,
    /// Churn: per-period link-failure probability.
    pub link_rate: f64,
    /// Churn: per-period switch-failure probability.
    pub switch_rate: f64,
    /// Churn: repair delay in cycles.
    pub down_time: u64,
    /// Marking scheme under test — the fuzzer alternates plain and
    /// authenticated DDPM so the tag verify/seal path soaks too.
    pub scheme: SchemeSpec,
    /// Compromised marking plane, if any: switches × behavior × framed
    /// node, all deterministic from the adversary seed.
    pub adversary: Option<AdversarySpec>,
    /// Injection/reroute retry budget (0 = fail fast).
    pub retries: u32,
    /// Watchdog sweep period in cycles.
    pub check_period: u64,
    /// Watchdog per-packet age bound.
    pub max_age: u64,
    /// Watchdog network-stall bound.
    pub stall_cycles: u64,
    /// Chaos self-test: inject one synthetic violation at this cycle
    /// (exercises the violation → bundle → replay pipeline).
    pub selftest_at: Option<u64>,
    /// Execution engine the case runs under. Part of the fuzzed axis
    /// space: engines are deterministically equivalent, so a violation
    /// found under one engine must replay identically under the same
    /// engine — and the bundle records which one produced it.
    pub engine: Engine,
}

fn policy_name(p: SelectionPolicy) -> &'static str {
    match p {
        SelectionPolicy::First => "first",
        SelectionPolicy::Random => "random",
        SelectionPolicy::ProductiveFirstRandom => "productive_first_random",
    }
}

fn policy_from(v: &Value) -> Result<SelectionPolicy, JsonError> {
    match v.as_str() {
        Some("first") => Ok(SelectionPolicy::First),
        Some("random") => Ok(SelectionPolicy::Random),
        Some("productive_first_random") => Ok(SelectionPolicy::ProductiveFirstRandom),
        _ => Err(JsonError::msg(
            "policy must be one of first, random, productive_first_random",
        )),
    }
}

fn router_name(r: RouterSpec) -> &'static str {
    match r {
        RouterSpec::DimensionOrder => "dimension_order",
        RouterSpec::WestFirst => "west_first",
        RouterSpec::NorthLast => "north_last",
        RouterSpec::NegativeFirst => "negative_first",
        RouterSpec::MinimalAdaptive => "minimal_adaptive",
        RouterSpec::FullyAdaptive => "fully_adaptive",
    }
}

fn topology_json(t: &TopologySpec) -> Value {
    match t {
        TopologySpec::Mesh { dims } => json!({"kind": "mesh", "dims": dims_json(dims)}),
        TopologySpec::Torus { dims } => json!({"kind": "torus", "dims": dims_json(dims)}),
        TopologySpec::Hypercube { n } => json!({"kind": "hypercube", "n": *n as u64}),
    }
}

fn dims_json(dims: &[u16]) -> Value {
    Value::Array(dims.iter().map(|&d| json!(u64::from(d))).collect())
}

fn engine_json(e: Engine) -> Value {
    match e {
        Engine::Serial => json!({"name": "serial"}),
        Engine::Sharded { shards } => json!({"name": "sharded", "shards": shards as u64}),
    }
}

fn adversary_json(a: &AdversarySpec) -> Value {
    json!({
        "switches": Value::Array(
            a.switches.iter().map(|s| json!(u64::from(s.0))).collect()
        ),
        "behavior": a.behavior.as_str(),
        "framed": a.framed.map_or(Value::Null, |f| json!(u64::from(f.0))),
        "seed": a.seed,
    })
}

fn adversary_from(v: Option<&Value>) -> Result<Option<AdversarySpec>, JsonError> {
    let Some(a) = v.filter(|a| !matches!(a, Value::Null)) else {
        return Ok(None);
    };
    let node = |x: &Value, what: &str| {
        x.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(NodeId)
            .ok_or_else(|| JsonError::msg(format!("adversary `{what}` must be a node id")))
    };
    let switches = a
        .get("switches")
        .and_then(Value::as_array)
        .ok_or_else(|| JsonError::msg("adversary `switches` must be an array"))?
        .iter()
        .map(|s| node(s, "switches"))
        .collect::<Result<Vec<_>, _>>()?;
    let behavior = AdversaryBehavior::parse(
        a.get("behavior")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonError::msg("adversary `behavior` must be a string"))?,
    )
    .map_err(JsonError::msg)?;
    let framed = match a.get("framed") {
        None | Some(Value::Null) => None,
        Some(x) => Some(node(x, "framed")?),
    };
    let seed = a
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| JsonError::msg("adversary `seed` must be a non-negative integer"))?;
    Ok(Some(AdversarySpec::new(switches, behavior, framed, seed)))
}

fn engine_from(v: Option<&Value>) -> Result<Engine, JsonError> {
    match v {
        // Pre-engine bundles (all serial) parse unchanged.
        None | Some(Value::Null) => Ok(Engine::Serial),
        Some(e) => {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| JsonError::msg("`engine.name` must be a string"))?;
            let shards = e.get("shards").and_then(Value::as_u64).unwrap_or(1) as usize;
            Engine::parse(name, shards).map_err(JsonError::msg)
        }
    }
}

impl SoakCase {
    /// Serialises the case; `from_json` inverts this exactly.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "topology": topology_json(&self.topology),
            "router": router_name(self.router),
            "policy": policy_name(self.policy),
            "seed": self.seed,
            "packets": self.packets,
            "inject_every": self.inject_every,
            "churn": {
                "period": self.churn_period,
                "link_rate": self.link_rate,
                "switch_rate": self.switch_rate,
                "down_time": self.down_time,
            },
            "scheme": self.scheme.as_str(),
            "adversary": self.adversary.as_ref().map_or(Value::Null, adversary_json),
            "retries": u64::from(self.retries),
            "watchdog": {
                "check_period": self.check_period,
                "max_age": self.max_age,
                "stall_cycles": self.stall_cycles,
            },
            "selftest_at": self.selftest_at.map_or(Value::Null, |c| json!(c)),
            "engine": engine_json(self.engine),
        })
    }
}

impl FromJson for SoakCase {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let get = |key: &str| {
            v.get(key)
                .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
        };
        let num = |key: &str| {
            get(key)?
                .as_u64()
                .ok_or_else(|| JsonError::msg(format!("`{key}` must be a non-negative integer")))
        };
        let churn = get("churn")?;
        let wd = get("watchdog")?;
        let sub = |obj: &Value, key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| JsonError::msg(format!("`{key}` must be a non-negative integer")))
        };
        let rate = |key: &str| {
            churn
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| JsonError::msg(format!("churn `{key}` must be a number")))
        };
        let scheme = SchemeSpec::parse(
            get("scheme")?
                .as_str()
                .ok_or_else(|| JsonError::msg("`scheme` must be a string"))?,
        )
        .map_err(JsonError::msg)?;
        let selftest_at = match v.get("selftest_at") {
            None | Some(Value::Null) => None,
            Some(x) => Some(
                x.as_u64()
                    .ok_or_else(|| JsonError::msg("`selftest_at` must be a cycle number"))?,
            ),
        };
        Ok(Self {
            topology: TopologySpec::from_json(get("topology")?)?,
            router: RouterSpec::from_json(get("router")?)?,
            policy: policy_from(get("policy")?)?,
            seed: num("seed")?,
            packets: num("packets")?,
            inject_every: num("inject_every")?,
            churn_period: sub(churn, "period")?,
            link_rate: rate("link_rate")?,
            switch_rate: rate("switch_rate")?,
            down_time: sub(churn, "down_time")?,
            scheme,
            adversary: adversary_from(v.get("adversary"))?,
            retries: u32::try_from(num("retries")?)
                .map_err(|_| JsonError::msg("`retries` does not fit in u32"))?,
            check_period: sub(wd, "check_period")?,
            max_age: sub(wd, "max_age")?,
            stall_cycles: sub(wd, "stall_cycles")?,
            selftest_at,
            engine: engine_from(v.get("engine"))?,
        })
    }
}

/// Everything one case run yields: the run statistics, the recorded
/// violations (empty when healthy), the checker's trace tail and the
/// generated fault schedule — the last two feed the repro bundle.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Run statistics (watchdog counters included).
    pub stats: SimStats,
    /// Invariant violations, in detection order.
    pub violations: Vec<Violation>,
    /// Trailing lifecycle events at end of run.
    pub tail: Vec<PacketEvent>,
    /// The churn schedule the case generated (for the bundle).
    pub schedule: Vec<(u64, FaultEvent)>,
}

/// Runs one case to completion. Deterministic: the same case always
/// returns the same outcome.
///
/// # Errors
/// Human-readable message when the case is malformed (topology too
/// large for the scheme's MF budget, adversary spec out of range).
pub fn run_case(case: &SoakCase) -> Result<CaseOutcome, String> {
    let topo = case.topology.build();
    let n = topo.num_nodes() as u32;
    let router = case.router.build(&topo);
    let scheme = build_scheme(case.scheme, &topo)
        .map_err(|e| format!("{}: {e}", case.scheme.as_str()))?;
    let evil = match &case.adversary {
        Some(spec) => Some(
            AdversaryModel::new(&*scheme, case.scheme, &topo, spec.clone(), None)
                .map_err(|e| format!("adversary: {e}"))?,
        ),
        None => None,
    };
    let marker: &dyn Marker = match &evil {
        Some(e) => e,
        None => &*scheme,
    };
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let churn = ChurnConfig {
        horizon: case.packets * case.inject_every,
        period: case.churn_period,
        link_rate: case.link_rate,
        switch_rate: case.switch_rate,
        down_time: case.down_time,
    };
    let schedule = FaultSchedule::churn(&topo, &churn, || rng.gen::<f64>());
    let mut builder = SimConfig::builder()
        .seed(case.seed ^ 0x50AC)
        .engine(case.engine)
        .watchdog(WatchdogConfig {
            check_period: case.check_period,
            max_age: case.max_age,
            stall_cycles: case.stall_cycles,
            escape: Some(Router::DimensionOrder),
        })
        .invariants(InvariantConfig {
            selftest_at: case.selftest_at,
            ..InvariantConfig::recording()
        });
    if case.retries > 0 {
        builder = builder.fault_tolerance(RetryPolicy::capped(case.retries, 4, 256));
    }
    let faults = FaultSet::none();
    let mut sim = Simulation::new(&topo, &faults, router, case.policy, marker, builder.build());
    sim.schedule_faults(&schedule);
    let map = AddrMap::for_topology(&topo);
    let mut factory = PacketFactory::new(map);
    for k in 0..case.packets {
        let src = NodeId(rng.gen_range(0..n));
        let mut dst = NodeId(rng.gen_range(0..n));
        while dst == src {
            dst = NodeId(rng.gen_range(0..n));
        }
        sim.schedule(
            SimTime(k * case.inject_every),
            factory.benign(src, dst, L4::udp(9, 9), 64),
        );
    }
    let stats = ddpm_engine::run(&mut sim);
    Ok(CaseOutcome {
        stats,
        violations: sim.violations().to_vec(),
        tail: sim.trace_tail(),
        schedule: schedule.iter().collect(),
    })
}

fn fault_event_json(at: u64, ev: FaultEvent) -> Value {
    match ev {
        FaultEvent::LinkDown { a, b } => {
            json!({"at": at, "kind": "link_down", "a": a.0, "b": b.0})
        }
        FaultEvent::LinkUp { a, b } => json!({"at": at, "kind": "link_up", "a": a.0, "b": b.0}),
        FaultEvent::SwitchDown { node } => json!({"at": at, "kind": "switch_down", "node": node.0}),
        FaultEvent::SwitchUp { node } => json!({"at": at, "kind": "switch_up", "node": node.0}),
    }
}

/// Renders the repro bundle for a failed case (first violation wins —
/// later ones are usually cascade noise from the same root cause).
#[must_use]
pub fn bundle_json(case: &SoakCase, out: &CaseOutcome) -> Value {
    let v = out.violations.first().expect("bundle needs a violation");
    json!({
        "schema": BUNDLE_SCHEMA,
        "case": case.to_json(),
        // Which engine produced the violation, duplicated out of the
        // case for greppability across a bundle directory.
        "engine": engine_json(case.engine),
        "violation": {
            "cycle": v.cycle,
            "pkt": v.pkt,
            "node": v.node,
            "invariant": v.invariant,
            "detail": v.detail.clone(),
        },
        "violations_total": out.violations.len() as u64,
        "trace_tail": Value::Array(
            out.tail.iter().map(|e| Value::String(e.to_ndjson())).collect()
        ),
        "fault_schedule": Value::Array(
            out.schedule.iter().map(|&(at, ev)| fault_event_json(at, ev)).collect()
        ),
    })
}

/// Writes the bundle for a failed case into `dir`, returning its path.
///
/// # Errors
/// I/O or serialisation failures, as human-readable text.
pub fn write_bundle(dir: &Path, case: &SoakCase, out: &CaseOutcome) -> Result<PathBuf, String> {
    let path = dir.join(format!("bundle-{:#x}.json", case.seed));
    crate::util::write_json(&path, &bundle_json(case, out))?;
    Ok(path)
}

/// Re-runs a repro bundle and checks the violation reproduces with the
/// identical identity (cycle, packet, invariant). The report's JSON
/// carries `reproduced: bool`; the driver exits non-zero on `false`.
///
/// # Errors
/// Unreadable/of-the-wrong-schema bundles, or a case that fails to run.
pub fn replay(path: &Path) -> Result<Report, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bundle: Value =
        serde_json::from_str(&raw).map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
    match bundle.get("schema").and_then(Value::as_str) {
        Some(BUNDLE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported bundle schema `{other}`")),
        None => return Err(format!("{}: missing `schema` tag", path.display())),
    }
    let case = SoakCase::from_json(
        bundle
            .get("case")
            .ok_or_else(|| format!("{}: missing `case`", path.display()))?,
    )
    .map_err(|e| format!("{}: bad case: {e}", path.display()))?;
    let want = bundle
        .get("violation")
        .ok_or_else(|| format!("{}: missing `violation`", path.display()))?;
    let want_id = (
        want.get("cycle").and_then(Value::as_u64).unwrap_or(0),
        want.get("pkt").and_then(Value::as_u64).unwrap_or(0),
        want.get("invariant")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
    );
    let out = run_case(&case)?;
    let got = out.violations.first();
    let got_id = got.map(|v| (v.cycle, v.pkt, v.invariant.to_string()));
    let reproduced = got_id.as_ref() == Some(&want_id);
    let verdict = match (&got_id, reproduced) {
        (_, true) => format!(
            "REPRODUCED: {} at cycle {} (packet {})",
            want_id.2, want_id.0, want_id.1
        ),
        (Some(g), false) => format!(
            "DIVERGED: bundle says {} at cycle {} (packet {}), replay got {} at cycle {} (packet {})",
            want_id.2, want_id.0, want_id.1, g.2, g.0, g.1
        ),
        (None, false) => format!(
            "DIVERGED: bundle says {} at cycle {} (packet {}), replay was clean",
            want_id.2, want_id.0, want_id.1
        ),
    };
    let body = format!(
        "bundle : {}\ncase   : seed {:#x}, {} packets, {} engine\nverdict: {verdict}\n",
        path.display(),
        case.seed,
        case.packets,
        case.engine.as_str(),
    );
    Ok(Report {
        key: "replay",
        title: format!("Replay of {}", path.display()),
        body,
        json: json!({
            "bundle": path.display().to_string(),
            "reproduced": reproduced,
            "expected": {
                "cycle": want_id.0, "pkt": want_id.1, "invariant": want_id.2,
            },
            "observed": got.map_or(Value::Null, |v| json!({
                "cycle": v.cycle, "pkt": v.pkt, "invariant": v.invariant,
            })),
        }),
    })
}

/// Draws the next fuzz case. Everything derives from `rng` (itself
/// seeded from the soak's base seed) plus the per-case `seed`, so the
/// whole soak is reproducible from `--seed`.
fn random_case(rng: &mut SmallRng, seed: u64, quick: bool, engine: Option<Engine>) -> SoakCase {
    let topology = match rng.gen_range(0..5u32) {
        0 => TopologySpec::Mesh { dims: vec![4, 4] },
        1 => TopologySpec::Mesh { dims: vec![8, 8] },
        2 => TopologySpec::Torus { dims: vec![4, 4] },
        3 => TopologySpec::Torus { dims: vec![8, 8] },
        _ => TopologySpec::Hypercube { n: 4 },
    };
    let is_mesh2d = matches!(&topology, TopologySpec::Mesh { dims } if dims.len() == 2);
    let router = match rng.gen_range(0..if is_mesh2d { 4u32 } else { 3u32 }) {
        0 => RouterSpec::DimensionOrder,
        1 => RouterSpec::MinimalAdaptive,
        2 => RouterSpec::FullyAdaptive,
        _ => RouterSpec::WestFirst,
    };
    let policy = match rng.gen_range(0..3u32) {
        0 => SelectionPolicy::First,
        1 => SelectionPolicy::Random,
        _ => SelectionPolicy::ProductiveFirstRandom,
    };
    let nodes: u32 = match &topology {
        TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => {
            dims.iter().map(|&d| u32::from(d)).product()
        }
        TopologySpec::Hypercube { n } => 1 << *n,
    };
    // The scheme axis: plain vs. authenticated DDPM, so the tag
    // verify/seal path (and its interaction with reroutes and parking)
    // soaks under the same churn as the plain path.
    let scheme = if rng.gen_bool(0.5) {
        SchemeSpec::Ddpm
    } else {
        SchemeSpec::AuthDdpm
    };
    // The adversary axis: ~30% of cases compromise 1–2 switches with a
    // behavior drawn from the full grid. Framing behaviors pick an
    // innocent outside the compromised set.
    let adversary = rng.gen_bool(0.3).then(|| {
        let behavior = AdversaryBehavior::ALL[rng.gen_range(0..AdversaryBehavior::ALL.len())];
        let count = rng.gen_range(1..=2u32);
        let switches: Vec<NodeId> = (0..count).map(|_| NodeId(rng.gen_range(0..nodes))).collect();
        let framed = behavior.needs_framed().then(|| loop {
            let f = NodeId(rng.gen_range(0..nodes));
            if !switches.contains(&f) {
                break f;
            }
        });
        AdversarySpec::new(switches, behavior, framed, rng.gen())
    });
    SoakCase {
        topology,
        router,
        policy,
        seed,
        packets: if quick { 120 } else { 400 },
        inject_every: 3,
        churn_period: 200,
        link_rate: [0.01, 0.03, 0.08][rng.gen_range(0..3usize)],
        switch_rate: [0.003, 0.01, 0.02][rng.gen_range(0..3usize)],
        down_time: 400,
        scheme,
        adversary,
        retries: if rng.gen_bool(0.5) { 4 } else { 0 },
        check_period: 64,
        // The tight bound trips on healthy long-haul packets (transit
        // under congestion runs past 96 cycles), so the soak exercises
        // detection + escape on every few cases, not only on real bugs.
        max_age: [96, 512, 2048][rng.gen_range(0..3usize)],
        stall_cycles: 2048,
        selftest_at: None,
        // The engine axis: serial and sharded runs of the same case are
        // interchangeable (deterministic equivalence), so fuzzing it
        // doubles as a continuous cross-engine consistency check. A
        // `--engine` override (CI's sharded smoke) pins every case.
        engine: engine.unwrap_or_else(|| match rng.gen_range(0..3u32) {
            0 => Engine::Serial,
            1 => Engine::Sharded { shards: 2 },
            _ => Engine::Sharded { shards: 4 },
        }),
    }
}

/// Runs the chaos soak for the wall-clock budget.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let secs = ctx.soak_secs.unwrap_or(if ctx.quick { 1 } else { 8 });
    let budget = Duration::from_secs(secs);
    let bundle_dir = ctx
        .soak_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/soak-bundles"));
    let base = ctx.seed_or(0x50A_C4A0);
    let mut rng = SmallRng::seed_from_u64(base);
    let start = Instant::now();
    let (mut cases, mut injected, mut delivered, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let (mut livelocks, mut starvations, mut deadlocks, mut escapes) = (0u64, 0u64, 0u64, 0u64);
    let (mut liveness_drops, mut violations) = (0u64, 0u64);
    let mut bundles: Vec<String> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Ctrl-C / SIGTERM stop the soak *between* cases: the in-flight
    // case runs to completion, its repro bundle (if any) lands on disk,
    // and the summary below still prints. The exit code stays keyed to
    // real violations only.
    ddpm_checkpoint::interrupt::install();
    // Always at least one case, however small the budget.
    while cases == 0
        || (start.elapsed() < budget && !ddpm_checkpoint::interrupt::requested())
    {
        let case = random_case(&mut rng, base.wrapping_add(cases), ctx.quick, ctx.engine);
        cases += 1;
        match run_case(&case) {
            Ok(out) => {
                let t = out.stats.total();
                injected += t.injected;
                delivered += t.delivered;
                dropped += t.dropped();
                liveness_drops += t.dropped_liveness();
                livelocks += out.stats.watchdog.livelocks;
                starvations += out.stats.watchdog.starvations;
                deadlocks += out.stats.watchdog.deadlocks;
                escapes += out.stats.watchdog.escapes;
                if !out.violations.is_empty() {
                    violations += out.violations.len() as u64;
                    match write_bundle(&bundle_dir, &case, &out) {
                        Ok(p) => bundles.push(p.display().to_string()),
                        Err(e) => errors.push(e),
                    }
                }
            }
            Err(e) => errors.push(format!("case {:#x}: {e}", case.seed)),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let interrupted = ddpm_checkpoint::interrupt::requested();
    let body = format!(
        "{}Budget {secs} s (spent {}) — {cases} fuzz cases over topology x routing x \
         selection x churn x scheme x adversary\n\
         packets: {injected} injected, {delivered} delivered, {dropped} dropped \
         ({liveness_drops} by the watchdog)\n\
         watchdog: {livelocks} livelocks, {starvations} starvations, {deadlocks} deadlocks, \
         {escapes} escapes — every overage ended in delivery or a typed drop, never a hang\n\
         invariants: {violations} violations, {} repro bundles written{}\n{}",
        if interrupted {
            "INTERRUPTED (SIGINT/SIGTERM): finished the in-flight case, \
             flushed bundles, stopped early\n"
        } else {
            ""
        },
        fnum(elapsed),
        bundles.len(),
        if bundles.is_empty() {
            String::new()
        } else {
            format!(" to {}", bundle_dir.display())
        },
        if errors.is_empty() {
            String::new()
        } else {
            format!("case errors: {errors:?}\n")
        },
    );
    Report {
        key: "soak",
        title: "Chaos soak — liveness watchdog + invariant checker under fuzzed adversity".into(),
        body,
        json: json!({
            "budget_secs": secs,
            "interrupted": interrupted,
            "cases": cases,
            "injected": injected,
            "delivered": delivered,
            "dropped": dropped,
            "liveness_drops": liveness_drops,
            "watchdog": {
                "livelocks": livelocks,
                "starvations": starvations,
                "deadlocks": deadlocks,
                "escapes": escapes,
            },
            "violations": violations,
            "bundles": Value::Array(bundles.into_iter().map(Value::String).collect()),
            "errors": Value::Array(errors.into_iter().map(Value::String).collect()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case(seed: u64) -> SoakCase {
        SoakCase {
            topology: TopologySpec::Mesh { dims: vec![4, 4] },
            router: RouterSpec::MinimalAdaptive,
            policy: SelectionPolicy::Random,
            seed,
            packets: 80,
            inject_every: 3,
            churn_period: 100,
            link_rate: 0.05,
            switch_rate: 0.01,
            down_time: 200,
            scheme: SchemeSpec::Ddpm,
            adversary: Some(AdversarySpec::new(
                vec![NodeId(5)],
                AdversaryBehavior::Skip,
                None,
                0x5EED,
            )),
            retries: 4,
            check_period: 64,
            max_age: 1024,
            stall_cycles: 2048,
            selftest_at: None,
            engine: Engine::Serial,
        }
    }

    #[test]
    fn case_json_roundtrips() {
        let case = tiny_case(0xABCD);
        let back = SoakCase::from_json(&case.to_json()).expect("parses back");
        assert_eq!(case.to_json(), back.to_json());
        // And the optional fields survive as null.
        let mut c2 = tiny_case(1);
        c2.adversary = None;
        c2.selftest_at = Some(9);
        c2.engine = Engine::Sharded { shards: 4 };
        let b2 = SoakCase::from_json(&c2.to_json()).expect("parses back");
        assert_eq!(c2.to_json(), b2.to_json());
        // A framing adversary under the auth scheme round-trips whole.
        let mut c3 = tiny_case(2);
        c3.scheme = SchemeSpec::AuthDdpm;
        c3.adversary = Some(AdversarySpec::new(
            vec![NodeId(3), NodeId(9)],
            AdversaryBehavior::Collude,
            Some(NodeId(12)),
            0xF00D,
        ));
        let b3 = SoakCase::from_json(&c3.to_json()).expect("parses back");
        assert_eq!(c3.to_json(), b3.to_json());
    }

    #[test]
    fn schema_1_bundle_is_rejected() {
        // Schema-1 cases carried no scheme and a bare `compromised`
        // switch; they are no longer upgraded, so replay refuses the
        // bundle by its schema tag and a scheme-less case fails to parse.
        let case = json!({
            "topology": {"kind": "mesh", "dims": [4u64, 4u64]},
            "router": "minimal_adaptive",
            "policy": "random",
            "seed": 4u64,
            "packets": 80u64,
            "inject_every": 3u64,
            "churn": {
                "period": 100u64, "link_rate": 0.05,
                "switch_rate": 0.01, "down_time": 200u64,
            },
            "compromised": 5u64,
            "retries": 4u64,
            "watchdog": {
                "check_period": 64u64, "max_age": 1024u64, "stall_cycles": 2048u64,
            },
        });
        let err = SoakCase::from_json(&case).unwrap_err().to_string();
        assert!(err.contains("missing field `scheme`"), "{err}");

        let dir = std::env::temp_dir().join(format!("ddpm-soak-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bundle-v1.json");
        let bundle = json!({"schema": "ddpm-repro-bundle/1", "case": case});
        std::fs::write(&p, serde_json::to_string(&bundle).unwrap()).unwrap();
        let err = replay(&p).unwrap_err();
        assert!(
            err.contains("unsupported bundle schema `ddpm-repro-bundle/1`"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_case_is_deterministic_and_violation_free() {
        let a = run_case(&tiny_case(7)).expect("runs");
        let b = run_case(&tiny_case(7)).expect("runs");
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.stats.total().injected, b.stats.total().injected);
        assert_eq!(a.stats.total().delivered, b.stats.total().delivered);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn bundle_replay_roundtrip_reproduces_the_violation() {
        // The chaos self-test stands in for a real bug: the violation
        // must survive the disk round-trip and replay byte-identically.
        let mut case = tiny_case(0xFA11);
        case.selftest_at = Some(50);
        // Run the repro pipeline under the sharded engine: the bundle
        // must record it and the replay must honour it.
        case.engine = Engine::Sharded { shards: 2 };
        let out = run_case(&case).expect("runs");
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(!out.tail.is_empty(), "tail captured");
        let dir = std::env::temp_dir().join(format!("ddpm-soak-{}", std::process::id()));
        let path = write_bundle(&dir, &case, &out).expect("bundle written");
        let report = replay(&path).expect("replays");
        assert_eq!(
            report.json["reproduced"],
            true,
            "{}",
            report.body
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("ddpm-soak-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.json");
        std::fs::write(&p, "{\"schema\": \"something-else/9\"}").unwrap();
        let err = replay(&p).unwrap_err();
        assert!(err.contains("unsupported bundle schema"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
