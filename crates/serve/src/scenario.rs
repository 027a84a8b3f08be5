//! Declarative scenario configs — the description language shared by
//! the `scenario` binary and the `ddpm-serve` tenant service.
//!
//! A downstream user describes a cluster, a routing algorithm, a
//! marking scheme, benign background and an attack in JSON; the runner
//! executes it and reports statistics, detection and the victim-side
//! attribution.
//! See `scenarios/*.json` at the repository root for ready-made files.
//!
//! The one-shot entry points ([`run_scenario`], [`resume_scenario`])
//! build, run and summarise a world in one call. The service keeps
//! worlds resident instead: [`crate::ScenarioWorld`] (in `world.rs`)
//! is the same build/run/outcome machinery split apart so a simulation
//! can be advanced in strides, injected into and queried mid-flight.

use ddpm_sim::{
    AdversaryBehavior, AdversarySpec, CheckpointConfig, SchemeSpec, WatchdogConfig,
};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_topology::{FaultEvent, NodeId, Topology, MAX_DIMS};
use serde_json::{json, Error as JsonError, FromJson, Value};
use std::path::Path;

pub use crate::world::ScenarioWorld;

// ---------------------------------------------------------------------
// Manual JSON extraction helpers.
//
// The vendored `serde_json` shim (see vendor/README.md) has no derive
// macros, so the config types below implement `FromJson` by hand. The
// wire format is unchanged from the original serde derives: externally
// the enums are snake_case strings, the struct-like variants are
// objects tagged with `"kind"`, and absent fields take the documented
// defaults.
// ---------------------------------------------------------------------

/// Rejects typo'd / unsupported keys. A silently ignored field is the
/// worst failure mode a declarative config can have — a user writing
/// `"fault_retires": 6` would get fail-fast behaviour with no hint —
/// so every object in the schema is checked against its full key list
/// and the error names both the offender and the accepted spellings.
pub(crate) fn reject_unknown(v: &Value, what: &str, allowed: &[&str]) -> Result<(), JsonError> {
    let Some(obj) = v.as_object() else {
        return Ok(()); // non-objects are diagnosed by the caller
    };
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(JsonError::msg(format!(
                "unknown field `{key}` in {what} (accepted fields: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

pub(crate) fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    match v.get(key) {
        Some(x) if !x.is_null() => Ok(x),
        _ => Err(JsonError::msg(format!("missing field `{key}`"))),
    }
}

pub(crate) fn as_u64(v: &Value, key: &str) -> Result<u64, JsonError> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| JsonError::msg(format!("`{key}` must be a non-negative integer")))
}

pub(crate) fn as_u32(v: &Value, key: &str) -> Result<u32, JsonError> {
    u32::try_from(as_u64(v, key)?)
        .map_err(|_| JsonError::msg(format!("`{key}` does not fit in u32")))
}

pub(crate) fn opt_u64(v: &Value, key: &str, default: u64) -> Result<u64, JsonError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| JsonError::msg(format!("`{key}` must be a non-negative integer"))),
    }
}

pub(crate) fn opt_u32(v: &Value, key: &str, default: u32) -> Result<u32, JsonError> {
    u32::try_from(opt_u64(v, key, u64::from(default))?)
        .map_err(|_| JsonError::msg(format!("`{key}` does not fit in u32")))
}

pub(crate) fn opt_f64(v: &Value, key: &str, default: f64) -> Result<f64, JsonError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| JsonError::msg(format!("`{key}` must be a number"))),
    }
}

pub(crate) fn kind_tag<'a>(v: &'a Value, what: &str) -> Result<&'a str, JsonError> {
    if v.as_object().is_none() {
        return Err(JsonError::msg(format!("{what} must be an object")));
    }
    req(v, "kind")?
        .as_str()
        .ok_or_else(|| JsonError::msg(format!("{what} `kind` must be a string")))
}

pub(crate) fn u32_list(v: &Value, key: &str) -> Result<Vec<u32>, JsonError> {
    let arr = req(v, key)?
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("`{key}` must be an array")))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::msg(format!("`{key}` entries must be u32")))
        })
        .collect()
}

pub(crate) fn dims_list(v: &Value, key: &str) -> Result<Vec<u16>, JsonError> {
    let arr = req(v, key)?
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("`{key}` must be an array")))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| JsonError::msg(format!("`{key}` entries must be u16")))
        })
        .collect()
}

/// Topology selection.
#[derive(Clone, Debug)]
pub enum TopologySpec {
    /// k-ary n-dimensional mesh with the given per-dimension radices.
    Mesh {
        /// Radix of each dimension, innermost first.
        dims: Vec<u16>,
    },
    /// k-ary n-dimensional torus (wraparound mesh).
    Torus {
        /// Radix of each dimension, innermost first.
        dims: Vec<u16>,
    },
    /// n-dimensional hypercube (2^n nodes).
    Hypercube {
        /// Dimension count.
        n: usize,
    },
}

/// Largest cluster a scenario may describe. `NodeId` is a `u32` and the
/// simulator allocates per-node state, so an absurd radix list (say
/// `[60000, 60000]`) must be an error message, not an OOM or overflow.
const MAX_SCENARIO_NODES: u64 = 1 << 20;

/// Validates radices the way `Topology::mesh`/`torus` would assert
/// them, but as an actionable error instead of a panic.
fn checked_dims(v: &Value, what: &str) -> Result<Vec<u16>, JsonError> {
    let dims = dims_list(v, "dims")?;
    if dims.is_empty() || dims.len() > MAX_DIMS {
        return Err(JsonError::msg(format!(
            "{what} `dims` must have 1..={MAX_DIMS} entries, got {}",
            dims.len()
        )));
    }
    if let Some(&k) = dims.iter().find(|&&k| k < 2) {
        return Err(JsonError::msg(format!(
            "{what} radix {k} out of range: every `dims` entry must be >= 2"
        )));
    }
    let nodes = dims.iter().map(|&k| u64::from(k)).product::<u64>();
    if nodes > MAX_SCENARIO_NODES {
        return Err(JsonError::msg(format!(
            "{what} with dims {dims:?} has {nodes} nodes; \
             the scenario runner caps clusters at {MAX_SCENARIO_NODES}"
        )));
    }
    Ok(dims)
}

impl FromJson for TopologySpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        reject_unknown(v, "topology", &["kind", "dims", "n"])?;
        match kind_tag(v, "topology")? {
            "mesh" => Ok(TopologySpec::Mesh {
                dims: checked_dims(v, "mesh")?,
            }),
            "torus" => Ok(TopologySpec::Torus {
                dims: checked_dims(v, "torus")?,
            }),
            "hypercube" => {
                let n = as_u64(v, "n")?;
                if !(1..=MAX_DIMS as u64).contains(&n) {
                    return Err(JsonError::msg(format!(
                        "hypercube dimension {n} out of range 1..={MAX_DIMS}"
                    )));
                }
                Ok(TopologySpec::Hypercube { n: n as usize })
            }
            other => Err(JsonError::msg(format!(
                "unknown topology kind `{other}` (expected mesh, torus or hypercube)"
            ))),
        }
    }
}

impl TopologySpec {
    /// Materialises the topology.
    #[must_use]
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::Mesh { dims } => Topology::mesh(dims),
            TopologySpec::Torus { dims } => Topology::torus(dims),
            TopologySpec::Hypercube { n } => Topology::hypercube(*n),
        }
    }
}

/// Routing selection.
#[derive(Clone, Copy, Debug)]
pub enum RouterSpec {
    /// Deterministic dimension-order (e-cube) routing.
    DimensionOrder,
    /// West-first turn-model routing.
    WestFirst,
    /// North-last turn-model routing.
    NorthLast,
    /// Negative-first turn-model routing.
    NegativeFirst,
    /// Minimal adaptive routing (productive directions only).
    MinimalAdaptive,
    /// Fully adaptive routing with a bounded misroute budget.
    FullyAdaptive,
}

impl FromJson for RouterSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("dimension_order") => Ok(RouterSpec::DimensionOrder),
            Some("west_first") => Ok(RouterSpec::WestFirst),
            Some("north_last") => Ok(RouterSpec::NorthLast),
            Some("negative_first") => Ok(RouterSpec::NegativeFirst),
            Some("minimal_adaptive") => Ok(RouterSpec::MinimalAdaptive),
            Some("fully_adaptive") => Ok(RouterSpec::FullyAdaptive),
            _ => Err(JsonError::msg(
                "router must be one of dimension_order, west_first, north_last, \
                 negative_first, minimal_adaptive, fully_adaptive",
            )),
        }
    }
}

impl RouterSpec {
    /// Materialises the router for `topo`.
    #[must_use]
    pub fn build(self, topo: &Topology) -> Router {
        match self {
            RouterSpec::DimensionOrder => Router::DimensionOrder,
            RouterSpec::WestFirst => Router::WestFirst,
            RouterSpec::NorthLast => Router::NorthLast,
            RouterSpec::NegativeFirst => Router::NegativeFirst,
            RouterSpec::MinimalAdaptive => Router::MinimalAdaptive,
            RouterSpec::FullyAdaptive => Router::fully_adaptive_for(topo),
        }
    }
}

/// Parses a `"policy"` value: how a switch picks among the router's
/// candidate output ports.
fn policy(v: &Value) -> Result<SelectionPolicy, JsonError> {
    match v.as_str() {
        Some("first") => Ok(SelectionPolicy::First),
        Some("random") => Ok(SelectionPolicy::Random),
        Some("productive_first_random") => Ok(SelectionPolicy::ProductiveFirstRandom),
        _ => Err(JsonError::msg(
            "policy must be one of first, random, productive_first_random",
        )),
    }
}

/// Attack selection.
#[derive(Clone, Debug)]
pub enum AttackSpec {
    /// Volumetric UDP flood from a set of zombie nodes.
    UdpFlood {
        /// Compromised source nodes.
        zombies: Vec<u32>,
        /// Flooded destination node.
        victim: u32,
        /// Packets each zombie sends.
        packets_per_zombie: u32,
        /// Cycles between consecutive packets per zombie.
        interval: u64,
    },
    /// SYN flood with spoofed source addresses.
    SynFlood {
        /// Compromised source nodes.
        zombies: Vec<u32>,
        /// Flooded destination node.
        victim: u32,
        /// SYNs each zombie sends.
        syns_per_zombie: u32,
        /// Cycles between consecutive SYNs per zombie.
        interval: u64,
    },
}

impl FromJson for AttackSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        reject_unknown(
            v,
            "attack",
            &[
                "kind",
                "zombies",
                "victim",
                "packets_per_zombie",
                "syns_per_zombie",
                "interval",
            ],
        )?;
        match kind_tag(v, "attack")? {
            "udp_flood" => Ok(AttackSpec::UdpFlood {
                zombies: u32_list(v, "zombies")?,
                victim: as_u32(v, "victim")?,
                packets_per_zombie: as_u32(v, "packets_per_zombie")?,
                interval: as_u64(v, "interval")?,
            }),
            "syn_flood" => Ok(AttackSpec::SynFlood {
                zombies: u32_list(v, "zombies")?,
                victim: as_u32(v, "victim")?,
                syns_per_zombie: as_u32(v, "syns_per_zombie")?,
                interval: as_u64(v, "interval")?,
            }),
            other => Err(JsonError::msg(format!(
                "unknown attack kind `{other}` (expected udp_flood or syn_flood)"
            ))),
        }
    }
}

/// One timestamped fault event of a scenario's `fault_schedule`.
///
/// Wire format: `{"at": 100, "kind": "link_down", "a": 0, "b": 1}` for
/// link events, `{"at": 100, "kind": "switch_down", "node": 5}` for
/// switch events.
fn fault_event(v: &Value) -> Result<(u64, FaultEvent), JsonError> {
    reject_unknown(v, "fault event", &["at", "kind", "a", "b", "node"])?;
    let at = as_u64(v, "at")?;
    let ev = match kind_tag(v, "fault event")? {
        "link_down" => FaultEvent::LinkDown {
            a: NodeId(as_u32(v, "a")?),
            b: NodeId(as_u32(v, "b")?),
        },
        "link_up" => FaultEvent::LinkUp {
            a: NodeId(as_u32(v, "a")?),
            b: NodeId(as_u32(v, "b")?),
        },
        "switch_down" => FaultEvent::SwitchDown {
            node: NodeId(as_u32(v, "node")?),
        },
        "switch_up" => FaultEvent::SwitchUp {
            node: NodeId(as_u32(v, "node")?),
        },
        other => {
            return Err(JsonError::msg(format!(
                "unknown fault event kind `{other}` (expected link_down, \
                 link_up, switch_down or switch_up)"
            )))
        }
    };
    Ok((at, ev))
}

/// Renders one fault event in the `fault_schedule` wire format; the
/// inverse of the parser above. Programs that generate schedules (the
/// chaos soak's churn sampler) write them through this.
#[must_use]
pub fn fault_event_json(at: u64, ev: FaultEvent) -> Value {
    match ev {
        FaultEvent::LinkDown { a, b } => json!({"at": at, "kind": "link_down", "a": a.0, "b": b.0}),
        FaultEvent::LinkUp { a, b } => json!({"at": at, "kind": "link_up", "a": a.0, "b": b.0}),
        FaultEvent::SwitchDown { node } => json!({"at": at, "kind": "switch_down", "node": node.0}),
        FaultEvent::SwitchUp { node } => json!({"at": at, "kind": "switch_up", "node": node.0}),
    }
}

/// Optional liveness-watchdog block.
///
/// Wire format: `{"check_period": 128, "max_age": 4096, "stall_cycles":
/// 2048, "escape": "dor"}`, every field optional with the
/// [`WatchdogConfig`] defaults; `"escape": "off"` drops overage packets
/// without the recovery-reroute stage. Absent block = watchdog off
/// (the historical behaviour).
fn watchdog_block(v: &Value) -> Result<Option<WatchdogConfig>, JsonError> {
    let Some(w) = v.get("watchdog").filter(|w| !w.is_null()) else {
        return Ok(None);
    };
    if w.as_object().is_none() {
        return Err(JsonError::msg("`watchdog` must be an object"));
    }
    reject_unknown(
        w,
        "watchdog",
        &["check_period", "max_age", "stall_cycles", "escape"],
    )?;
    let defaults = WatchdogConfig::default();
    let escape = match w.get("escape") {
        None | Some(Value::Null) => defaults.escape,
        Some(e) => match e.as_str() {
            Some("dor") | Some("dimension_order") => Some(Router::DimensionOrder),
            Some("minimal_adaptive") => Some(Router::MinimalAdaptive),
            Some("off") => None,
            _ => {
                return Err(JsonError::msg(
                    "`watchdog.escape` must be one of dor, minimal_adaptive, off",
                ))
            }
        },
    };
    let cfg = WatchdogConfig {
        check_period: opt_u64(w, "check_period", defaults.check_period)?,
        max_age: opt_u64(w, "max_age", defaults.max_age)?,
        stall_cycles: opt_u64(w, "stall_cycles", defaults.stall_cycles)?,
        escape,
    };
    if cfg.check_period == 0 || cfg.max_age == 0 || cfg.stall_cycles == 0 {
        return Err(JsonError::msg(
            "`watchdog` periods must be positive (use no watchdog block to disable it)",
        ));
    }
    Ok(Some(cfg))
}

/// Optional crash-consistent checkpoint block.
///
/// Wire format: `{"every": 500, "dir": "target/ckpt", "keep": 2,
/// "crash_at": 1800}`. `every` (cycles between checkpoints) and `dir`
/// are required; `keep` defaults to 2; `crash_at` is a test hook that
/// aborts the process at that cycle *without* a final write, standing
/// in for SIGKILL in the kill-and-resume harness. Absent block =
/// checkpointing off (the historical behaviour).
fn checkpoint_block(v: &Value) -> Result<Option<CheckpointConfig>, JsonError> {
    let Some(c) = v.get("checkpoint").filter(|c| !c.is_null()) else {
        return Ok(None);
    };
    if c.as_object().is_none() {
        return Err(JsonError::msg("`checkpoint` must be an object"));
    }
    reject_unknown(c, "checkpoint", &["every", "dir", "keep", "crash_at"])?;
    let every = as_u64(c, "every")?;
    if every == 0 {
        return Err(JsonError::msg(
            "`checkpoint.every` must be positive (omit the block to disable checkpointing)",
        ));
    }
    let dir = req(c, "dir")?
        .as_str()
        .ok_or_else(|| JsonError::msg("`checkpoint.dir` must be a path string"))?;
    let keep = opt_u64(c, "keep", 2)? as usize;
    if keep == 0 {
        return Err(JsonError::msg(
            "`checkpoint.keep` must be at least 1 (the newest checkpoint has to survive)",
        ));
    }
    let crash_at = match c.get("crash_at") {
        None | Some(Value::Null) => None,
        Some(x) => Some(x.as_u64().ok_or_else(|| {
            JsonError::msg("`checkpoint.crash_at` must be a non-negative cycle number")
        })?),
    };
    Ok(Some(CheckpointConfig {
        every,
        dir: dir.into(),
        keep,
        crash_at,
    }))
}

/// Parses the `"adversary"` block: a set of switches whose marking
/// plane is compromised, the behavior they run, and (for the framing
/// behaviors) the innocent node their forged marks implicate. The
/// in-range checks against the built topology live in
/// [`AdversaryModel::new`]; the parser enforces shape only.
fn adversary_block(v: &Value) -> Result<Option<AdversarySpec>, JsonError> {
    let Some(a) = v.get("adversary").filter(|a| !a.is_null()) else {
        return Ok(None);
    };
    if a.as_object().is_none() {
        return Err(JsonError::msg("`adversary` must be an object"));
    }
    reject_unknown(a, "adversary", &["switches", "behavior", "framed", "seed"])?;
    let switches: Vec<NodeId> = u32_list(a, "switches")?.into_iter().map(NodeId).collect();
    if switches.is_empty() {
        return Err(JsonError::msg(
            "`adversary.switches` must name at least one compromised switch",
        ));
    }
    let behavior = req(a, "behavior")?
        .as_str()
        .ok_or_else(|| JsonError::msg("`adversary.behavior` must be a string"))?;
    let behavior = AdversaryBehavior::parse(behavior).map_err(JsonError::msg)?;
    let framed = match a.get("framed") {
        None | Some(Value::Null) => None,
        Some(x) => Some(NodeId(
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::msg("`adversary.framed` must be a node id"))?,
        )),
    };
    if behavior.needs_framed() && framed.is_none() {
        return Err(JsonError::msg(format!(
            "`adversary.behavior` `{}` needs an `adversary.framed` node to blame",
            behavior.as_str()
        )));
    }
    let seed = opt_u64(a, "seed", 0x0BAD_5EED)?;
    Ok(Some(AdversarySpec::new(switches, behavior, framed, seed)))
}

fn fault_schedule(v: &Value) -> Result<Vec<(u64, FaultEvent)>, JsonError> {
    match v.get("fault_schedule") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(x) => x
            .as_array()
            .ok_or_else(|| JsonError::msg("`fault_schedule` must be an array"))?
            .iter()
            .map(fault_event)
            .collect(),
    }
}

/// Full scenario description.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Cluster interconnect to build.
    pub topology: TopologySpec,
    /// Routing algorithm for every switch.
    pub router: RouterSpec,
    /// Output-port selection among the router's candidates (`"policy":
    /// "first" | "random" | "productive_first_random"`; default
    /// `productive_first_random`).
    pub policy: SelectionPolicy,
    /// Marking scheme (`"scheme": "ddpm" | "dpm" | "ppm-edge" |
    /// "ppm-xor" | "tracemax" | "none"`, or an `auth-*` wrapper).
    /// Selects a two-sided [`ddpm_sim::MarkingScheme`] — switch-side
    /// marker plus victim-side collector. Unknown names and
    /// scheme/topology mismatches are loader errors, never panics.
    /// Absent = `none`.
    pub scheme: Option<SchemeSpec>,
    /// Keyed-tag width for `auth-*` schemes (`"tag_bits": N`). Carves
    /// `N` bits off the inner scheme's MF budget; absent = the scheme's
    /// default (all spare bits, capped). Feasibility walls (tag too
    /// narrow/wide, no spare room, non-auth scheme) are loader errors.
    pub tag_bits: Option<u32>,
    /// Byzantine marking-plane adversary (`"adversary": {...}` block;
    /// absent = every switch honest). Requires `scheme`: the adversary
    /// wraps the plugin marker and needs the scheme's mark layout to
    /// forge plausible fields.
    pub adversary: Option<AdversarySpec>,
    /// RNG seed (default 2004).
    pub seed: u64,
    /// Random link-failure rate, 0.0..1.0 (default 0).
    pub fault_rate: f64,
    /// Benign per-node injection interval in cycles (0 = no background;
    /// default 32).
    pub background_interval: u64,
    /// Simulation horizon for the background, in cycles (default 4000).
    pub horizon: u64,
    /// DDoS attack to overlay on the background, if any.
    pub attack: Option<AttackSpec>,
    /// Bounded-memory injection (`"staged_injection": true`): the
    /// workload is time-sorted and parked in the simulator's staged
    /// backlog, materialising into real packets lazily as simulated
    /// time reaches them, so a flood's footprint is its in-flight
    /// window rather than the whole schedule. When the workload is
    /// already time-ordered (a pure flood), staged materialisation is
    /// order-equivalent to eager scheduling and reproduces its digest
    /// exactly; a mixed workload gets time-sorted first, which changes
    /// packet-id assignment order and thus the digest — each mode is
    /// bit-reproducible (and checkpoint/resume safe) either way.
    /// Default false.
    pub staged_injection: bool,
    /// Timestamped dynamic fault events (link/switch fail and repair),
    /// applied mid-run by the simulator. Empty by default.
    pub fault_schedule: Vec<(u64, FaultEvent)>,
    /// Injection/reroute retry budget for graceful degradation under the
    /// fault schedule (default 0 = fail-fast, the historical behaviour).
    pub fault_retries: u32,
    /// Liveness watchdog (`"watchdog": {...}` block; absent = off).
    pub watchdog: Option<WatchdogConfig>,
    /// Run with the invariant checker recording violations
    /// (`"invariants": true`); the runner reports any violations in its
    /// output instead of panicking. Default false.
    pub invariants: bool,
    /// Invariant-checker self-test hook (`"invariants_selftest_at":
    /// cycle`; requires `"invariants": true`): the checker records one
    /// synthetic `selftest` violation at the first event at or after
    /// that cycle, exercising the violation → repro bundle → replay
    /// pipeline without a real bug. Absent = off.
    pub invariants_selftest_at: Option<u64>,
    /// Crash-consistent checkpointing (`"checkpoint": {...}` block;
    /// absent = off). Checkpointing is digest-neutral: a checkpointed
    /// run — and a run resumed from any of its checkpoints — reports
    /// exactly the digest of the uninterrupted run.
    pub checkpoint: Option<CheckpointConfig>,
}

impl FromJson for ScenarioConfig {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::msg("scenario config must be a JSON object"));
        }
        reject_unknown(
            v,
            "scenario config",
            &[
                "topology",
                "router",
                "policy",
                "scheme",
                "tag_bits",
                "adversary",
                "seed",
                "fault_rate",
                "background_interval",
                "horizon",
                "attack",
                "staged_injection",
                "fault_schedule",
                "fault_retries",
                "watchdog",
                "invariants",
                "invariants_selftest_at",
                "checkpoint",
            ],
        )?;
        let attack = match v.get("attack") {
            None | Some(Value::Null) => None,
            Some(a) => Some(AttackSpec::from_json(a)?),
        };
        let scheme = match v.get("scheme") {
            None | Some(Value::Null) => None,
            Some(s) => {
                let name = s
                    .as_str()
                    .ok_or_else(|| JsonError::msg("`scheme` must be a string"))?;
                Some(SchemeSpec::parse(name).map_err(JsonError::msg)?)
            }
        };
        let tag_bits = match v.get("tag_bits") {
            None | Some(Value::Null) => None,
            Some(_) => Some(as_u32(v, "tag_bits")?),
        };
        match (tag_bits, scheme) {
            (Some(_), None) => {
                return Err(JsonError::msg(
                    "`tag_bits` requires an auth-* `scheme` (the tag is carved out of \
                     the plugin scheme's marking field)",
                ))
            }
            (Some(_), Some(s)) if !s.is_auth() => {
                return Err(JsonError::msg(format!(
                    "scheme `{}` takes no `tag_bits` (only auth-* schemes carry a tag)",
                    s.as_str()
                )))
            }
            _ => {}
        }
        let adversary = adversary_block(v)?;
        if adversary.is_some() && scheme.is_none() {
            return Err(JsonError::msg(
                "`adversary` requires the `scheme` knob: the adversary wraps the \
                 plugin marker and forges marks in that scheme's layout",
            ));
        }
        let fault_rate = opt_f64(v, "fault_rate", 0.0)?;
        if !(0.0..=1.0).contains(&fault_rate) {
            return Err(JsonError::msg(format!(
                "`fault_rate` {fault_rate} out of range 0.0..=1.0"
            )));
        }
        let staged_injection = match v.get("staged_injection") {
            None | Some(Value::Null) => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| JsonError::msg("`staged_injection` must be a boolean"))?,
        };
        let invariants = match v.get("invariants") {
            None | Some(Value::Null) => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| JsonError::msg("`invariants` must be a boolean"))?,
        };
        let invariants_selftest_at = match v.get("invariants_selftest_at") {
            None | Some(Value::Null) => None,
            Some(_) if !invariants => {
                return Err(JsonError::msg(
                    "`invariants_selftest_at` requires `\"invariants\": true` \
                     (the self-test violation is recorded by the invariant checker)",
                ))
            }
            Some(_) => Some(as_u64(v, "invariants_selftest_at")?),
        };
        Ok(Self {
            topology: TopologySpec::from_json(req(v, "topology")?)?,
            router: RouterSpec::from_json(req(v, "router")?)?,
            policy: match v.get("policy") {
                None | Some(Value::Null) => SelectionPolicy::ProductiveFirstRandom,
                Some(p) => policy(p)?,
            },
            scheme,
            tag_bits,
            adversary,
            seed: opt_u64(v, "seed", 2004)?,
            fault_rate,
            background_interval: opt_u64(v, "background_interval", 32)?,
            horizon: opt_u64(v, "horizon", 4000)?,
            attack,
            staged_injection,
            fault_schedule: fault_schedule(v)?,
            fault_retries: opt_u32(v, "fault_retries", 0)?,
            watchdog: watchdog_block(v)?,
            invariants,
            invariants_selftest_at,
            checkpoint: checkpoint_block(v)?,
        })
    }
}

/// The runner's output: human text plus machine JSON.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Human-readable run summary.
    pub text: String,
    /// Machine-readable run summary.
    pub json: serde_json::Value,
    /// Order-sensitive fingerprint of everything the run observed:
    /// an FNV-1a hash over the delivered-packet stream (ids, headers
    /// with final marking fields, timestamps, hops), the typed drop
    /// stream, every invariant violation, and the full [`ddpm_sim::SimStats`],
    /// plus human-readable counts. Two runs are behaviourally
    /// identical iff their digests match — the stride and
    /// kill-and-resume harnesses use this to prove segmentation and
    /// resume exact.
    ///
    /// Alongside the overall hash the digest carries one FNV-1a hash
    /// per stream (`D=` delivered packets, `X=` drops, `V=` invariant
    /// violations, `S=` stats), so a mismatch can be localised to the
    /// first diverging stream instead of a bare "hashes differ".
    pub digest: String,
}

/// Executes a scenario.
///
/// Programmatic runs have no JSON source text to embed, so any
/// checkpoints they write cannot be resumed by [`resume_scenario`];
/// use [`run_scenario_with_source`] for resumable runs.
///
/// # Errors
/// Returns a human-readable message for invalid configs (e.g. a
/// topology too large for the chosen marking scheme).
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<ScenarioOutcome, String> {
    execute(cfg, None, None)
}

/// Executes a scenario parsed from `source`, the raw JSON text.
///
/// The source text is embedded verbatim in every checkpoint (and its
/// FNV-1a fingerprint stamps the file), which is what lets
/// [`resume_scenario`] rebuild an identical world without guessing:
/// resume re-parses the embedded text, skips workload generation, and
/// restores the snapshot.
///
/// # Errors
/// As [`run_scenario`].
pub fn run_scenario_with_source(
    cfg: &ScenarioConfig,
    source: &str,
) -> Result<ScenarioOutcome, String> {
    execute(cfg, Some(source), None)
}

/// Resumes the newest usable checkpoint in `dir` and runs the scenario
/// to completion. See [`resume_scenario_with`].
///
/// # Errors
/// As [`resume_scenario_with`].
pub fn resume_scenario(dir: &Path) -> Result<ScenarioOutcome, String> {
    resume_scenario_with(dir, None)
}

/// Resumes the newest usable checkpoint in `dir`, optionally overriding
/// the checkpoint cadence for the continued run.
///
/// Corrupt or torn files in `dir` are skipped (with a warning on
/// stderr) in favour of the newest one that validates, so a crash
/// mid-write never strands the run. The continued run keeps
/// checkpointing into `dir`; the `crash_at` test hook, if the original
/// config carried one, is cleared — the crash it simulated has already
/// happened.
///
/// The resumed run's [`ScenarioOutcome`] is bit-identical to the
/// uninterrupted run's, digest included.
///
/// # Errors
/// If `dir` holds no usable checkpoint, the checkpoint embeds no
/// scenario source (programmatic runs are not resumable), or the
/// embedded scenario no longer parses.
pub fn resume_scenario_with(
    dir: &Path,
    every_override: Option<u64>,
) -> Result<ScenarioOutcome, String> {
    let (cfg, source, ckpt) = load_resume(dir, every_override)?;
    execute(&cfg, Some(&source), Some(ckpt))
}

/// Loads the newest usable checkpoint in `dir` and re-derives the run
/// it belongs to: the parsed [`ScenarioConfig`] (with its checkpoint
/// block redirected back into `dir` and the `crash_at` hook cleared),
/// the embedded scenario source text, and the checkpoint itself.
///
/// This is the shared first half of [`resume_scenario_with`]; the
/// service uses it to rebuild resident tenants from their per-tenant
/// checkpoint directories without running them to completion.
///
/// # Errors
/// As [`resume_scenario_with`].
pub fn load_resume(
    dir: &Path,
    every_override: Option<u64>,
) -> Result<(ScenarioConfig, String, ddpm_checkpoint::Checkpoint), String> {
    let scan = ddpm_checkpoint::latest(dir, None)
        .map_err(|e| format!("scanning {}: {e}", dir.display()))?;
    for (path, err) in &scan.skipped {
        eprintln!("warning: skipping unusable checkpoint {}: {err}", path.display());
    }
    let Some((path, ckpt)) = scan.best else {
        return Err(format!(
            "no usable checkpoint in {} ({} unusable file(s) skipped)",
            dir.display(),
            scan.skipped.len()
        ));
    };
    if ckpt.scenario.is_empty() {
        return Err(format!(
            "{}: checkpoint embeds no scenario config (written by a programmatic run); \
             only scenario-file runs can be resumed",
            path.display()
        ));
    }
    if ddpm_checkpoint::fingerprint(&ckpt.scenario) != ckpt.fingerprint {
        return Err(format!(
            "{}: embedded scenario text does not match the checkpoint's fingerprint stamp",
            path.display()
        ));
    }
    let parsed = serde_json::from_str::<Value>(&ckpt.scenario)
        .map_err(|e| format!("{}: embedded scenario is not JSON: {e}", path.display()))?;
    let mut cfg = ScenarioConfig::from_json(&parsed)
        .map_err(|e| format!("{}: embedded scenario is invalid: {e}", path.display()))?;
    // Keep checkpointing into the directory we resumed from (the
    // original config may name a relative path that no longer exists
    // from this working directory) and disarm the crash hook.
    cfg.checkpoint = match (cfg.checkpoint.take(), every_override) {
        (Some(ck), every) => Some(CheckpointConfig {
            every: every.unwrap_or(ck.every),
            dir: dir.to_path_buf(),
            keep: ck.keep,
            crash_at: None,
        }),
        (None, Some(every)) => Some(CheckpointConfig::new(every, dir)),
        (None, None) => None,
    };
    let source = ckpt.scenario.clone();
    Ok((cfg, source, ckpt))
}

fn execute(
    cfg: &ScenarioConfig,
    source: Option<&str>,
    resume: Option<ddpm_checkpoint::Checkpoint>,
) -> Result<ScenarioOutcome, String> {
    let mut world = ScenarioWorld::build(cfg, source, resume)?;
    world.run_to_completion()?;
    Ok(world.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cfg() -> ScenarioConfig {
        serde_json::from_str(
            r#"{
                "topology": {"kind": "torus", "dims": [8, 8]},
                "router": "fully_adaptive",
                "scheme": "ddpm",
                "attack": {
                    "kind": "udp_flood",
                    "zombies": [3, 40], "victim": 27,
                    "packets_per_zombie": 100, "interval": 8
                }
            }"#,
        )
        .expect("valid config")
    }

    #[test]
    fn json_config_roundtrip_and_run() {
        let cfg = sample_cfg();
        assert_eq!(cfg.seed, 2004, "defaults applied");
        assert_eq!(cfg.policy, SelectionPolicy::ProductiveFirstRandom);
        assert_eq!(cfg.invariants_selftest_at, None);
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("attrib :"), "{}", out.text);
        let att = &out.json["attribution"];
        let nodes: Vec<u64> = att["candidates"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(nodes, vec![3, 40], "collector names exactly the zombies");
        assert_eq!(att["confidence"].as_f64(), Some(1.0));
    }

    #[test]
    fn invalid_zombie_is_reported() {
        let mut cfg = sample_cfg();
        cfg.attack = Some(AttackSpec::UdpFlood {
            zombies: vec![999],
            victim: 0,
            packets_per_zombie: 1,
            interval: 1,
        });
        let err = run_scenario(&cfg).unwrap_err();
        assert!(err.contains("zombie 999 out of range"), "{err}");
    }

    #[test]
    fn oversized_topology_for_ddpm_is_reported() {
        let mut cfg = sample_cfg();
        cfg.topology = TopologySpec::Mesh {
            dims: vec![200, 200],
        };
        cfg.attack = None;
        cfg.background_interval = 0;
        let err = run_scenario(&cfg).unwrap_err();
        assert!(err.contains("ddpm"), "{err}");
    }

    #[test]
    fn fault_schedule_parses_applies_and_is_reported() {
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "minimal_adaptive",
                "scheme": "ddpm",
                "background_interval": 8,
                "horizon": 2000,
                "fault_retries": 4,
                "fault_schedule": [
                    {"at": 100, "kind": "link_down", "a": 0, "b": 1},
                    {"at": 300, "kind": "switch_down", "node": 5},
                    {"at": 900, "kind": "switch_up", "node": 5},
                    {"at": 900, "kind": "link_up", "a": 0, "b": 1}
                ]
            }"#,
        )
        .expect("valid config");
        assert_eq!(cfg.fault_schedule.len(), 4);
        assert_eq!(cfg.fault_retries, 4);
        let written: Vec<_> = cfg
            .fault_schedule
            .iter()
            .map(|&(at, ev)| fault_event(&fault_event_json(at, ev)).expect("parses back"))
            .collect();
        assert_eq!(written, cfg.fault_schedule, "the writer inverts the parser");
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("faults :"), "{}", out.text);
        assert_eq!(out.json["faults"]["events_applied"], 4u64);
    }

    #[test]
    fn invalid_fault_schedule_is_rejected() {
        let mut cfg = sample_cfg();
        // Nodes 0 and 5 are not adjacent in an 8x8 torus.
        cfg.fault_schedule = vec![(
            10,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(5),
            },
        )];
        let err = run_scenario(&cfg).unwrap_err();
        assert!(err.contains("fault_schedule"), "{err}");
    }

    #[test]
    fn scheme_knob_runs_with_attribution() {
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "dimension_order",
                "scheme": "ddpm",
                "background_interval": 0,
                "attack": {
                    "kind": "udp_flood",
                    "zombies": [1, 6], "victim": 14,
                    "packets_per_zombie": 50, "interval": 4
                }
            }"#,
        )
        .expect("valid config");
        assert_eq!(cfg.scheme, Some(SchemeSpec::Ddpm));
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("ddpm scheme"), "{}", out.text);
        assert!(out.text.contains("attrib :"), "{}", out.text);
        assert_eq!(out.json["scheme"].as_str(), Some("ddpm"));
        let att = &out.json["attribution"];
        assert_eq!(att["scheme"].as_str(), Some("ddpm"));
        let cands: Vec<u64> = att["candidates"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(cands, vec![1, 6], "collector names exactly the zombies");
        assert!(att["confidence"].as_f64().unwrap() > 0.99);
    }

    #[test]
    fn unknown_scheme_name_is_rejected() {
        let err = serde_json::from_str::<ScenarioConfig>(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "dimension_order",
                "scheme": "pmm"
            }"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown scheme `pmm`"), "{err}");
        assert!(err.contains("tracemax"), "lists accepted names: {err}");
    }

    #[test]
    fn legacy_marking_field_is_an_unknown_field() {
        let err = serde_json::from_str::<ScenarioConfig>(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "dimension_order",
                "marking": "ddpm"
            }"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown field `marking`"), "{err}");
        assert!(err.contains("scheme"), "lists accepted fields: {err}");
    }

    #[test]
    fn scheme_topology_mismatch_is_an_error_not_a_panic() {
        // Tracemax records 6 hops; an 8x8 mesh has diameter 14.
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [8, 8]},
                "router": "dimension_order",
                "scheme": "tracemax",
                "background_interval": 0
            }"#,
        )
        .expect("parses; feasibility is checked against the built topology");
        let err = run_scenario(&cfg).unwrap_err();
        assert!(err.contains("tracemax"), "{err}");
        assert!(err.contains("8x8 mesh"), "{err}");
        // XOR-PPM needs power-of-two radices.
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [3, 4]},
                "router": "dimension_order",
                "scheme": "ppm-xor",
                "background_interval": 0
            }"#,
        )
        .expect("parses");
        let err = run_scenario(&cfg).unwrap_err();
        assert!(err.contains("ppm-xor"), "{err}");
    }

    #[test]
    fn unknown_top_level_field_is_rejected_with_spellings() {
        // Typos, and the removed execution-engine knobs.
        for (key, value) in [
            ("fault_retires", "6"),
            ("selection_policy", r#""first""#),
            ("selftest_at", "50"),
            ("engine", r#""sharded""#),
            ("shards", "4"),
        ] {
            let raw = format!(
                r#"{{
                    "topology": {{"kind": "mesh", "dims": [4, 4]}},
                    "router": "dimension_order",
                    "scheme": "ddpm",
                    "{key}": {value}
                }}"#
            );
            let err = serde_json::from_str::<ScenarioConfig>(&raw)
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
            for accepted in ["fault_retries", "policy", "invariants_selftest_at"] {
                assert!(err.contains(accepted), "lists accepted fields: {err}");
            }
        }
    }

    #[test]
    fn unknown_nested_fields_are_rejected() {
        for (raw, offender) in [
            (
                r#"{"topology": {"kind": "mesh", "dims": [4, 4], "wrap": true},
                    "router": "dimension_order"}"#,
                "`wrap` in topology",
            ),
            (
                r#"{"topology": {"kind": "mesh", "dims": [4, 4]},
                    "router": "dimension_order",
                    "attack": {"kind": "udp_flood", "zombies": [1], "victim": 2,
                               "packets_per_zombie": 1, "interval": 1, "rate": 9}}"#,
                "`rate` in attack",
            ),
            (
                r#"{"topology": {"kind": "mesh", "dims": [4, 4]},
                    "router": "dimension_order",
                    "fault_schedule": [{"at": 1, "kind": "switch_down", "node": 0, "sev": 2}]}"#,
                "`sev` in fault event",
            ),
            (
                r#"{"topology": {"kind": "mesh", "dims": [4, 4]},
                    "router": "dimension_order",
                    "watchdog": {"max_age": 64, "periods": 3}}"#,
                "`periods` in watchdog",
            ),
        ] {
            let err = serde_json::from_str::<ScenarioConfig>(raw)
                .unwrap_err()
                .to_string();
            assert!(err.contains(offender), "expected {offender}, got: {err}");
        }
    }

    #[test]
    fn out_of_range_topologies_error_instead_of_panicking() {
        for (raw, needle) in [
            (r#"{"kind": "mesh", "dims": []}"#, "1..=16 entries"),
            (r#"{"kind": "torus", "dims": [4, 1]}"#, "radix 1 out of range"),
            (r#"{"kind": "mesh", "dims": [1200, 1200]}"#, "caps clusters"),
            (r#"{"kind": "hypercube", "n": 40}"#, "out of range 1..=16"),
        ] {
            let err = serde_json::from_str::<TopologySpec>(raw)
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "expected `{needle}`, got: {err}");
        }
    }

    #[test]
    fn bad_scalar_ranges_are_rejected() {
        let base = |extra: &str| {
            format!(
                r#"{{"topology": {{"kind": "mesh", "dims": [4, 4]}},
                    "router": "dimension_order", {extra}}}"#
            )
        };
        let err = serde_json::from_str::<ScenarioConfig>(&base(r#""fault_rate": 1.5"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("out of range 0.0..=1.0"), "{err}");
        let err = serde_json::from_str::<ScenarioConfig>(&base(r#""watchdog": {"max_age": 0}"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("must be positive"), "{err}");
        for (extra, needle) in [
            (r#""invariants": "yes""#, "must be a boolean"),
            (
                r#""policy": "fastest""#,
                "policy must be one of first, random, productive_first_random",
            ),
            (r#""policy": 1"#, "policy must be one of"),
            (r#""invariants_selftest_at": 50"#, "requires `\"invariants\": true`"),
            (
                r#""invariants": false, "invariants_selftest_at": 50"#,
                "requires `\"invariants\": true`",
            ),
            (
                r#""invariants": true, "invariants_selftest_at": "soon""#,
                "`invariants_selftest_at` must be a non-negative integer",
            ),
        ] {
            let err = serde_json::from_str::<ScenarioConfig>(&base(extra))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "expected `{needle}`, got: {err}");
        }
    }

    #[test]
    fn watchdog_and_invariants_knobs_parse_and_report() {
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "minimal_adaptive",
                "scheme": "ddpm",
                "background_interval": 16,
                "horizon": 1500,
                "invariants": true,
                "watchdog": {"check_period": 32, "max_age": 96, "stall_cycles": 4096,
                             "escape": "dor"}
            }"#,
        )
        .expect("valid config");
        let wd = cfg.watchdog.expect("watchdog installed");
        assert_eq!((wd.check_period, wd.max_age), (32, 96));
        assert_eq!(wd.escape, Some(Router::DimensionOrder));
        assert!(cfg.invariants);
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("liveness:"), "{}", out.text);
        assert!(out.text.contains("invariants: 0 violations"), "{}", out.text);
        assert_eq!(out.json["violations"].as_array().map(Vec::len), Some(0));
        assert!(out.json["watchdog"]["checks"].as_u64().unwrap() > 0);

        // The selection policy and the checker's self-test hook.
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "minimal_adaptive",
                "policy": "first",
                "scheme": "ddpm",
                "background_interval": 16,
                "horizon": 600,
                "invariants": true,
                "invariants_selftest_at": 100
            }"#,
        )
        .expect("valid config");
        assert_eq!(cfg.policy, SelectionPolicy::First);
        assert_eq!(cfg.invariants_selftest_at, Some(100));
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("invariants: 1 VIOLATIONS"), "{}", out.text);
        assert_eq!(out.json["violations"][0]["invariant"].as_str(), Some("selftest"));
        assert!(out.json["violations"][0]["cycle"].as_u64().unwrap() >= 100);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ddpm-scenario-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_block_parses_and_rejects() {
        let cfg: ScenarioConfig = serde_json::from_str(
            r#"{
                "topology": {"kind": "mesh", "dims": [4, 4]},
                "router": "dimension_order",
                "scheme": "ddpm",
                "checkpoint": {"every": 200, "dir": "target/ckpt", "keep": 3, "crash_at": 400}
            }"#,
        )
        .expect("valid config");
        let ck = cfg.checkpoint.expect("checkpoint block parsed");
        assert_eq!((ck.every, ck.keep, ck.crash_at), (200, 3, Some(400)));
        assert_eq!(ck.dir, Path::new("target/ckpt"));

        for (extra, needle) in [
            (r#""checkpoint": {"dir": "x"}"#, "missing field `every`"),
            (r#""checkpoint": {"every": 0, "dir": "x"}"#, "must be positive"),
            (r#""checkpoint": {"every": 5}"#, "missing field `dir`"),
            (
                r#""checkpoint": {"every": 5, "dir": "x", "keep": 0}"#,
                "at least 1",
            ),
            (
                r#""checkpoint": {"every": 5, "dir": "x", "cadence": 1}"#,
                "unknown field `cadence`",
            ),
        ] {
            let raw = format!(
                r#"{{"topology": {{"kind": "mesh", "dims": [4, 4]}},
                    "router": "dimension_order", {extra}}}"#
            );
            let err = serde_json::from_str::<ScenarioConfig>(&raw)
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "expected `{needle}`, got: {err}");
        }
    }

    #[test]
    fn checkpointed_run_and_resume_reproduce_the_plain_digest() {
        let raw = r#"{
            "topology": {"kind": "torus", "dims": [6, 6]},
            "router": "fully_adaptive",
            "scheme": "ddpm",
            "horizon": 1200,
            "invariants": true,
            "attack": {"kind": "udp_flood", "zombies": [3, 17], "victim": 30,
                       "packets_per_zombie": 80, "interval": 8}
        }"#;
        let plain: ScenarioConfig = serde_json::from_str(raw).expect("valid config");
        let reference = run_scenario(&plain).expect("plain run").digest;

        let dir = tmpdir("roundtrip");
        let mut cfg = plain.clone();
        cfg.checkpoint = Some(CheckpointConfig::new(250, &dir));
        let out = run_scenario_with_source(&cfg, raw).expect("checkpointed run");
        assert_eq!(out.digest, reference, "checkpointing must be digest-neutral");
        assert!(
            !ddpm_checkpoint::list(&dir).expect("checkpoint dir").is_empty(),
            "checkpoints were written"
        );

        // Resume from the newest on-disk checkpoint (mid-run state of a
        // completed run) and replay the tail: same digest, bit for bit.
        let resumed = resume_scenario(&dir).expect("resume");
        assert_eq!(resumed.digest, reference, "resume must be bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adversary_block_runs_with_auth_containment() {
        // The compromised switch at node 5 sits on zombie 1's DOR path
        // (0,1)->(1,1)->(2,1)->(3,1)->(3,2); zombie 6's stream crosses
        // only honest switches.
        let raw = r#"{
            "topology": {"kind": "mesh", "dims": [4, 4]},
            "router": "dimension_order",
            "scheme": "auth-ddpm",
            "tag_bits": 8,
            "background_interval": 0,
            "adversary": {"switches": [5], "behavior": "frame", "framed": 9, "seed": 77},
            "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": 14,
                       "packets_per_zombie": 50, "interval": 4}
        }"#;
        let cfg: ScenarioConfig = serde_json::from_str(raw).expect("valid config");
        assert_eq!(cfg.tag_bits, Some(8));
        let spec = cfg.adversary.as_ref().expect("adversary parsed");
        assert_eq!(spec.behavior, AdversaryBehavior::Frame);
        assert_eq!(spec.framed, Some(NodeId(9)));
        let out = run_scenario(&cfg).expect("runs");
        assert!(out.text.contains("adversary:"), "{}", out.text);
        let tampered = out.json["adversary"]["tampered"].as_u64().unwrap();
        assert!(tampered > 0, "the evil switch saw zombie 1's whole stream");
        // The forged marks carry no valid keyed tag: the victim rejects
        // them fail-closed and never names the framed node.
        let att = &out.json["attribution"];
        assert!(att["rejected"].as_u64().unwrap() > 0, "{att:?}");
        let cands: Vec<u64> = att["candidates"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert!(cands.contains(&6), "the clean stream still attributes: {cands:?}");
        assert!(!cands.contains(&9), "framed innocent must not be named: {cands:?}");
    }

    #[test]
    fn adversary_and_tag_bits_misuse_is_rejected() {
        let base = |extra: &str| {
            format!(
                r#"{{"topology": {{"kind": "mesh", "dims": [4, 4]}},
                    "router": "dimension_order", {extra}}}"#
            )
        };
        for (extra, needle) in [
            (
                r#""adversary": {"switches": [5], "behavior": "skip"}"#,
                "requires the `scheme` knob",
            ),
            (
                r#""scheme": "ddpm", "adversary": {"switches": [], "behavior": "skip"}"#,
                "at least one compromised switch",
            ),
            (
                r#""scheme": "ddpm", "adversary": {"switches": [5], "behavior": "detour"}"#,
                "unknown adversary behavior `detour`",
            ),
            (
                r#""scheme": "ddpm", "adversary": {"switches": [5], "behavior": "frame"}"#,
                "needs an `adversary.framed` node",
            ),
            (
                r#""scheme": "ddpm",
                    "adversary": {"switches": [5], "behavior": "skip", "strength": 2}"#,
                "unknown field `strength`",
            ),
            (r#""tag_bits": 8"#, "requires an auth-* `scheme`"),
            (r#""scheme": "ddpm", "tag_bits": 8"#, "takes no `tag_bits`"),
        ] {
            let err = serde_json::from_str::<ScenarioConfig>(&base(extra))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "expected `{needle}`, got: {err}");
        }
        // Range checks need the built topology, so they surface at run
        // time — as loader errors, never panics.
        let narrow: ScenarioConfig =
            serde_json::from_str(&base(r#""scheme": "auth-ddpm", "tag_bits": 2"#))
                .expect("parses; width is checked against the scheme");
        let err = run_scenario(&narrow).unwrap_err();
        assert!(err.contains("tags must be"), "{err}");
        let stray: ScenarioConfig = serde_json::from_str(&base(
            r#""scheme": "ddpm", "adversary": {"switches": [99], "behavior": "skip"}"#,
        ))
        .expect("parses; node range is checked against the topology");
        let err = run_scenario(&stray).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn adversarial_checkpoint_and_resume_are_digest_neutral() {
        // `replay` is the stateful behavior (per-switch last-seen mark
        // cache), so this exercises adversary state capture in the
        // checkpoint and restore on resume — a dropped cache would
        // shift the replayed mark stream and move the D digest.
        let raw = r#"{
            "topology": {"kind": "mesh", "dims": [4, 4]},
            "router": "dimension_order",
            "scheme": "auth-ddpm",
            "horizon": 1200,
            "adversary": {"switches": [5, 10], "behavior": "replay", "seed": 31},
            "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": 14,
                       "packets_per_zombie": 80, "interval": 8}
        }"#;
        let plain: ScenarioConfig = serde_json::from_str(raw).expect("valid config");
        let reference = run_scenario(&plain).expect("plain run").digest;

        let dir = tmpdir("adversary");
        let mut cfg = plain.clone();
        cfg.checkpoint = Some(CheckpointConfig::new(250, &dir));
        let out = run_scenario_with_source(&cfg, raw).expect("checkpointed run");
        assert_eq!(out.digest, reference, "checkpointing must be digest-neutral");

        let resumed = resume_scenario(&dir).expect("resume");
        assert_eq!(resumed.digest, reference, "resume must be bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_whose_scenario_names_an_engine_does_not_resume() {
        // A checkpoint embeds its scenario source and resume re-parses
        // it, so a checkpoint written from a source that still carried
        // the removed `engine`/`shards` keys is refused, naming the key.
        let raw = r#"{
            "topology": {"kind": "mesh", "dims": [4, 4]},
            "router": "dimension_order",
            "scheme": "ddpm",
            "horizon": 600,
            "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": 15,
                       "packets_per_zombie": 40, "interval": 8}
        }"#;
        let mut cfg: ScenarioConfig = serde_json::from_str(raw).expect("valid config");
        let written = tmpdir("engine-src");
        cfg.checkpoint = Some(CheckpointConfig::new(200, &written));
        run_scenario_with_source(&cfg, raw).expect("checkpointed run");
        let (_, ckpt) = ddpm_checkpoint::latest(&written, None)
            .expect("scan")
            .best
            .expect("a checkpoint was written");

        let legacy = raw.replacen(
            r#""scheme": "ddpm","#,
            r#""scheme": "ddpm", "engine": "sharded", "shards": 4,"#,
            1,
        );
        let dir = tmpdir("engine-ckpt");
        ddpm_checkpoint::store(
            &dir,
            ddpm_checkpoint::fingerprint(&legacy),
            &legacy,
            &ckpt.snapshot,
            1,
        )
        .expect("store legacy checkpoint");
        let err = resume_scenario(&dir).unwrap_err();
        assert!(err.contains("embedded scenario is invalid"), "{err}");
        assert!(err.contains("unknown field `engine`"), "{err}");
        std::fs::remove_dir_all(&written).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_empty_or_foreign_dir_is_a_clean_error() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = resume_scenario(&dir).unwrap_err();
        assert!(err.contains("no usable checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shipped_scenario_files_parse_and_run() {
        // The JSON files under scenarios/ are part of the public
        // interface; keep them loadable and runnable.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut found = 0;
        for entry in std::fs::read_dir(dir).expect("scenarios dir exists") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            found += 1;
            let raw = std::fs::read_to_string(&path).expect("readable");
            let cfg: ScenarioConfig =
                serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let out = run_scenario(&cfg).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(out.text.contains("scenario:"));
        }
        assert!(
            found >= 5,
            "expected the shipped scenario files, found {found}"
        );
    }
}
