//! E-SOAK — deterministic chaos soak with one-command failure replay.
//!
//! The liveness/invariant machinery of PR 3 claims "no silent hangs,
//! no unaccounted packets" under *any* combination of topology,
//! routing, churn and adversarial switches. This harness earns that
//! claim the only way it can be earned: by fuzzing the combination
//! space under a wall-clock budget with the watchdog armed and the
//! invariant checker recording.
//!
//! Every fuzz case is a scenario (the JSON language of `scenarios/`),
//! drawn as a pure function of its seed: the churn sampler's output is
//! its explicit `fault_schedule`. A case runs through the same
//! fail-closed loader and [`ScenarioWorld`] as every other scenario,
//! so a violation is never a heisenbug: the harness writes the
//! scenario, the violation and the trailing lifecycle events into an
//! on-disk **repro bundle** (`ddpm-repro-bundle/3`), and
//! `report -- replay <bundle>` re-parses the scenario, re-runs it and
//! confirms the identical violation — same cycle, same packet, same
//! invariant.
//!
//! ```text
//! cargo run --release -p ddpm-bench --bin report -- --soak-secs 60 soak
//! cargo run --release -p ddpm-bench --bin report -- replay target/soak-bundles/bundle-*.json
//! ```

use crate::grid::run_cell;
use crate::util::{fnum, Report, RunCtx};
use ddpm_serve::ScenarioWorld;
use ddpm_sim::AdversaryBehavior;
use ddpm_topology::ChurnConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bundle schema tag; bump on any incompatible layout change.
pub const BUNDLE_SCHEMA: &str = "ddpm-repro-bundle/3";

/// Cycles between benign injections, network-wide: a case injects
/// about `horizon / INJECT_EVERY` packets whatever its node count.
const INJECT_EVERY: u64 = 3;

/// Renders the repro bundle for a failed case, run to completion in
/// `world` (first violation wins — later ones are usually cascade noise
/// from the same root cause).
#[must_use]
pub fn bundle_json(scenario: &Value, world: &ScenarioWorld) -> Value {
    let violations = world.sim().violations();
    let v = violations.first().expect("bundle needs a violation");
    json!({
        "schema": BUNDLE_SCHEMA,
        "scenario": scenario.clone(),
        "violation": {
            "cycle": v.cycle,
            "pkt": v.pkt,
            "node": v.node,
            "invariant": v.invariant,
            "detail": v.detail.clone(),
        },
        "violations_total": violations.len() as u64,
        "trace_tail": Value::Array(
            world.sim().trace_tail().iter().map(|e| Value::String(e.to_ndjson())).collect(),
        ),
    })
}

/// Writes the bundle for a failed case into `dir`, returning its path.
///
/// # Errors
/// I/O or serialisation failures, as human-readable text.
pub fn write_bundle(
    dir: &Path,
    scenario: &Value,
    world: &ScenarioWorld,
) -> Result<PathBuf, String> {
    let seed = scenario["seed"].as_u64().unwrap_or(0);
    let path = dir.join(format!("bundle-{seed:#x}.json"));
    crate::util::write_json(&path, &bundle_json(scenario, world))?;
    Ok(path)
}

/// A repro-bundle field that is missing or of the wrong type. Replay
/// refuses such a bundle rather than compare against a made-up
/// violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleFieldError {
    /// The offending field, e.g. `violation.cycle`.
    pub field: &'static str,
    /// What the field must hold.
    pub expected: &'static str,
}

impl std::fmt::Display for BundleFieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bundle field `{}` must be {}", self.field, self.expected)
    }
}

/// Reads the violation a bundle records as `(cycle, packet,
/// invariant)`: the identity a replay must reproduce. All three fields
/// are required, with their types.
///
/// # Errors
/// The first missing or mistyped field.
pub fn violation_id(bundle: &Value) -> Result<(u64, u64, String), BundleFieldError> {
    let bad = |field, expected| BundleFieldError { field, expected };
    let v = bundle
        .get("violation")
        .filter(|v| v.as_object().is_some())
        .ok_or(bad("violation", "an object"))?;
    let int = |key: &str, field| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or(bad(field, "a non-negative integer"))
    };
    let cycle = int("cycle", "violation.cycle")?;
    let pkt = int("pkt", "violation.pkt")?;
    let invariant = v
        .get("invariant")
        .and_then(Value::as_str)
        .ok_or(bad("violation.invariant", "a string"))?;
    Ok((cycle, pkt, invariant.to_string()))
}

/// Re-runs a repro bundle and checks the violation reproduces with the
/// identical identity (cycle, packet, invariant). The report's JSON
/// carries `reproduced: bool`; the driver exits non-zero on `false`.
///
/// # Errors
/// Unreadable/of-the-wrong-schema bundles, a missing or mistyped
/// violation field ([`BundleFieldError`]), a scenario the loader
/// refuses, or a case that fails to run.
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
    let scenario = bundle
        .get("scenario")
        .ok_or_else(|| format!("{}: missing `scenario`", path.display()))?;
    let want_id = violation_id(&bundle).map_err(|e| format!("{}: {e}", path.display()))?;
    let world = run_cell(scenario).map_err(|e| format!("{}: {e}", path.display()))?;
    let got = world.sim().violations().first();
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
        "bundle : {}\ncase   : seed {:#x}, {} packets\nverdict: {verdict}\n",
        path.display(),
        scenario["seed"].as_u64().unwrap_or(0),
        world.sim().stats().total().injected,
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

/// Draws the next fuzz case as a scenario. Everything derives from
/// `rng` (itself seeded from the soak's base seed) plus the per-case
/// `seed`, so the whole soak is reproducible from `--seed`.
fn random_case(rng: &mut SmallRng, seed: u64, quick: bool) -> Value {
    let (topology, nodes, mesh2d) = match rng.gen_range(0..5u32) {
        0 => (json!({"kind": "mesh", "dims": [4, 4]}), 16u32, true),
        1 => (json!({"kind": "mesh", "dims": [8, 8]}), 64, true),
        2 => (json!({"kind": "torus", "dims": [4, 4]}), 16, false),
        3 => (json!({"kind": "torus", "dims": [8, 8]}), 64, false),
        _ => (json!({"kind": "hypercube", "n": 4}), 16, false),
    };
    let router = match rng.gen_range(0..if mesh2d { 4u32 } else { 3u32 }) {
        0 => "dimension_order",
        1 => "minimal_adaptive",
        2 => "fully_adaptive",
        _ => "west_first",
    };
    let policy = ["first", "random", "productive_first_random"][rng.gen_range(0..3usize)];
    // The scheme axis: plain vs. authenticated DDPM, so the tag
    // verify/seal path (and its interaction with reroutes and parking)
    // soaks under the same churn as the plain path.
    let scheme = if rng.gen_bool(0.5) { "ddpm" } else { "auth-ddpm" };
    // The adversary axis: ~30% of cases compromise 1–2 switches with a
    // behavior drawn from the full grid. Framing behaviors pick an
    // innocent outside the compromised set.
    let adversary = rng.gen_bool(0.3).then(|| {
        let behavior = AdversaryBehavior::ALL[rng.gen_range(0..AdversaryBehavior::ALL.len())];
        let count = rng.gen_range(1..=2u32);
        let switches: Vec<u32> = (0..count).map(|_| rng.gen_range(0..nodes)).collect();
        let framed = behavior.needs_framed().then(|| loop {
            let f = rng.gen_range(0..nodes);
            if !switches.contains(&f) {
                break f;
            }
        });
        json!({
            "switches": switches,
            "behavior": behavior.as_str(),
            "framed": framed,
            "seed": rng.gen::<u64>(),
        })
    });
    let link_rate = [0.01, 0.03, 0.08][rng.gen_range(0..3usize)];
    let switch_rate = [0.003, 0.01, 0.02][rng.gen_range(0..3usize)];
    let retries: u64 = if rng.gen_bool(0.5) { 4 } else { 0 };
    // The tight bound trips on healthy long-haul packets (transit
    // under congestion runs past 96 cycles), so the soak exercises
    // detection + escape on every few cases, not only on real bugs.
    let max_age: u64 = [96, 512, 2048][rng.gen_range(0..3usize)];
    let horizon = if quick { 120 } else { 400 } * INJECT_EVERY;
    let churn = ChurnConfig {
        horizon,
        period: 200,
        link_rate,
        switch_rate,
        down_time: 400,
    };
    let fault_schedule = crate::grid::churn_schedule(&topology, &churn, seed);
    json!({
        "topology": topology,
        "router": router,
        "policy": policy,
        "scheme": scheme,
        "adversary": adversary,
        "seed": seed,
        // Every node injects on its own jittered clock, so the
        // per-node interval scales with the node count.
        "background_interval": u64::from(nodes) * INJECT_EVERY,
        "horizon": horizon,
        "fault_schedule": fault_schedule,
        "fault_retries": retries,
        "watchdog": {
            "check_period": 64,
            "max_age": max_age,
            "stall_cycles": 2048,
            "escape": "dor",
        },
        "invariants": true,
    })
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
        let seed = base.wrapping_add(cases);
        let case = random_case(&mut rng, seed, ctx.quick);
        cases += 1;
        match run_cell(&case) {
            Ok(world) => {
                let stats = world.sim().stats();
                let t = stats.total();
                injected += t.injected;
                delivered += t.delivered;
                dropped += t.dropped();
                liveness_drops += t.dropped_liveness();
                livelocks += stats.watchdog.livelocks;
                starvations += stats.watchdog.starvations;
                deadlocks += stats.watchdog.deadlocks;
                escapes += stats.watchdog.escapes;
                if !world.sim().violations().is_empty() {
                    violations += world.sim().violations().len() as u64;
                    match write_bundle(&bundle_dir, &case, &world) {
                        Ok(p) => bundles.push(p.display().to_string()),
                        Err(e) => errors.push(e),
                    }
                }
            }
            Err(e) => errors.push(format!("case {seed:#x}: {e}")),
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
    use ddpm_serve::scenario::ScenarioConfig;
    use serde_json::FromJson;

    fn tiny_case(seed: u64) -> Value {
        json!({
            "topology": {"kind": "mesh", "dims": [4, 4]},
            "router": "minimal_adaptive",
            "policy": "random",
            "scheme": "ddpm",
            "adversary": {"switches": [5], "behavior": "skip", "seed": 0x5EED},
            "seed": seed,
            "background_interval": 48,
            "horizon": 240,
            "fault_schedule": [
                {"at": 100, "kind": "link_down", "a": 0, "b": 1},
                {"at": 100, "kind": "switch_down", "node": 6},
                {"at": 300, "kind": "link_up", "a": 0, "b": 1},
                {"at": 300, "kind": "switch_up", "node": 6},
            ],
            "fault_retries": 4,
            "watchdog": {"check_period": 64, "max_age": 1024, "stall_cycles": 2048},
            "invariants": true,
        })
    }

    fn with_selftest(mut case: Value, at: u64) -> Value {
        if let Value::Object(m) = &mut case {
            m.insert("invariants_selftest_at".to_string(), json!(at));
        }
        case
    }

    fn write_raw(tag: &str, bundle: &Value) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ddpm-soak-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bundle.json");
        std::fs::write(&p, serde_json::to_string(bundle).unwrap()).unwrap();
        (dir, p)
    }

    #[test]
    fn drawn_cases_load_through_the_scenario_loader() {
        let mut rng = SmallRng::seed_from_u64(9);
        for k in 0..20 {
            let case = random_case(&mut rng, k, true);
            ScenarioConfig::from_json(&case).unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }

    #[test]
    fn older_bundle_schemas_are_refused_by_their_tag() {
        // `/1` and `/2` bundles carried a soak-private case schema; the
        // `/3` bundle is a scenario, so older ones no longer replay.
        for schema in ["ddpm-repro-bundle/1", "ddpm-repro-bundle/2"] {
            let (dir, p) = write_raw("old", &json!({"schema": schema, "case": tiny_case(4)}));
            let err = replay(&p).unwrap_err();
            assert!(err.contains(&format!("unsupported bundle schema `{schema}`")), "{err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn bundle_whose_scenario_has_an_unknown_key_is_refused() {
        let case = with_selftest(tiny_case(0xFA12), 50);
        let world = run_cell(&case).expect("runs");
        let Value::Object(mut scenario) = case else {
            panic!("a case is a JSON object")
        };
        scenario.insert("engine".to_string(), json!("sharded"));
        let bundle = bundle_json(&Value::Object(scenario), &world);
        let (dir, p) = write_raw("unknown", &bundle);
        let err = replay(&p).unwrap_err();
        assert!(err.contains("unknown field `engine`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_case_is_deterministic_and_violation_free() {
        let a = run_cell(&tiny_case(7)).expect("runs");
        let b = run_cell(&tiny_case(7)).expect("runs");
        let (a, b) = (a.sim(), b.sim());
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.stats().faults.events_applied > 0, "the fault schedule applied");
        assert_eq!(a.stats().total().injected, b.stats().total().injected);
        assert_eq!(a.stats().total().delivered, b.stats().total().delivered);
        assert_eq!(a.trace_tail(), b.trace_tail());
    }

    #[test]
    fn bundle_replay_roundtrip_reproduces_the_violation() {
        // The chaos self-test stands in for a real bug: the violation
        // must survive the disk round-trip and replay byte-identically.
        let case = with_selftest(tiny_case(0xFA11), 50);
        let world = run_cell(&case).expect("runs");
        let violations = world.sim().violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(!world.sim().trace_tail().is_empty(), "tail captured");
        let dir = std::env::temp_dir().join(format!("ddpm-soak-{}", std::process::id()));
        let path = write_bundle(&dir, &case, &world).expect("bundle written");
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

        // A bundle whose violation is incomplete or mistyped is refused
        // before anything runs, naming the bad field.
        for (violation, field) in [
            (Value::Null, "violation"),
            (json!("selftest"), "violation"),
            (json!({}), "violation.cycle"),
            (json!({"cycle": "12", "pkt": 3, "invariant": "selftest"}), "violation.cycle"),
            (json!({"cycle": 12, "invariant": "selftest"}), "violation.pkt"),
            (json!({"cycle": 12, "pkt": -3, "invariant": "selftest"}), "violation.pkt"),
            (json!({"cycle": 12, "pkt": 3}), "violation.invariant"),
            (json!({"cycle": 12, "pkt": 3, "invariant": 7}), "violation.invariant"),
        ] {
            let bundle = json!({
                "schema": BUNDLE_SCHEMA,
                "scenario": tiny_case(1),
                "violation": violation,
            });
            assert_eq!(violation_id(&bundle).unwrap_err().field, field, "{bundle}");
            let (dir, p) = write_raw("field", &bundle);
            let err = replay(&p).unwrap_err();
            assert!(err.contains(&format!("bundle field `{field}` must be")), "{err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
