//! Service determinism: every shipped scenario, driven through the
//! resident service in arbitrary bounded strides, reports exactly the
//! digest pinned by the simulator's conformance suite for the
//! standalone one-shot run.
//!
//! The pinned corpus (`crates/sim/tests/conformance_digests.txt`) is
//! the ground truth the whole repo converges on; comparing against it
//! (rather than re-running the one-shot runner here) both halves this
//! suite's cost and rules out the two paths drifting together.

use ddpm_serve::scenario::{AttackSpec, ScenarioConfig, ScenarioWorld};
use ddpm_serve::{Server, ServerConfig};
use serde_json::{json, FromJson, Value};
use std::collections::HashMap;
use std::path::PathBuf;

fn manifest(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The `scenario/<name> <digest...>` rows of the pinned corpus.
fn pinned_digests() -> HashMap<String, String> {
    let raw = std::fs::read_to_string(manifest("../sim/tests/conformance_digests.txt"))
        .expect("pinned conformance corpus");
    raw.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("scenario/")?;
            let (name, digest) = rest.split_once(' ')?;
            Some((name.to_owned(), digest.to_owned()))
        })
        .collect()
}

fn shipped_scenarios() -> Vec<(String, String, ScenarioConfig)> {
    let dir = manifest("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let raw = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let v: Value = serde_json::from_str(&raw)
                .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
            let cfg = ScenarioConfig::from_json(&v)
                .unwrap_or_else(|e| panic!("{}: bad config: {e}", path.display()));
            (name, raw, cfg)
        })
        .collect()
}

#[test]
fn every_shipped_scenario_stride_run_matches_the_pinned_digest() {
    let pinned = pinned_digests();
    let scenarios = shipped_scenarios();
    assert!(scenarios.len() >= 5, "expected the shipped scenario files");
    // Deliberately awkward stride schedule: a tiny opener, a huge
    // middle, ragged remainders — nothing lines up with event cadence,
    // checkpoint cadence or the sharded engine's window barriers.
    let strides = [13u64, 50_000, 977, 1, 4096];
    for (name, _raw, cfg) in scenarios {
        let want = pinned
            .get(&name)
            .unwrap_or_else(|| panic!("no pinned digest for scenario/{name}"));
        let mut world = ScenarioWorld::build(&cfg, None, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut i = 0usize;
        while !world.step(strides[i % strides.len()]) {
            i += 1;
        }
        assert_eq!(
            &world.outcome().digest, want,
            "{name}: service stride run diverged from the pinned one-shot digest"
        );
    }
}

/// Drives one scenario through the full wire-facing dispatch path
/// (`Server::handle_line`, autorun off, explicit `tenant.step` calls)
/// and checks the reported outcome digest against the pinned corpus.
#[test]
fn wire_level_step_loop_matches_the_pinned_digest() {
    let pinned = pinned_digests();
    let (name, raw, _cfg) = shipped_scenarios()
        .into_iter()
        .find(|(name, ..)| name == "udp_flood_hypercube")
        .expect("shipped scenario present");
    let scenario: Value = serde_json::from_str(&raw).expect("scenario JSON");
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let create = server.handle_line(
        &json!({"id": 1, "verb": "tenant.create", "name": "t", "autorun": false,
                "scenario": scenario})
        .to_string(),
    );
    let create: Value = serde_json::from_str(&create).expect("response JSON");
    assert_eq!(create["ok"].as_bool(), Some(true), "{create}");
    let mut done = false;
    let mut cycles = 709u64; // ragged, grows each call
    while !done {
        let resp = server.handle_line(
            &json!({"id": 2, "verb": "tenant.step", "tenant": "t", "cycles": cycles})
                .to_string(),
        );
        let resp: Value = serde_json::from_str(&resp).expect("response JSON");
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
        done = resp["done"].as_bool() == Some(true);
        cycles = cycles * 2 + 31;
    }
    let out = server.handle_line(
        &json!({"id": 3, "verb": "tenant.outcome", "tenant": "t"}).to_string(),
    );
    let out: Value = serde_json::from_str(&out).expect("response JSON");
    assert_eq!(out["ok"].as_bool(), Some(true), "{out}");
    assert_eq!(
        out["digest"].as_str().expect("digest string"),
        pinned[&name],
        "wire-level digest diverged from the pinned one-shot digest"
    );
    server.drain().expect("drain");
}

/// Online identify at quiescence agrees with the outcome's attribution
/// block on every shipped attack scenario — the mid-flight query path
/// and the post-run summary are the same computation — and names only
/// the scenario's zombies: all of them when every switch is honest.
#[test]
fn online_identify_at_quiescence_matches_the_outcome_attribution() {
    let mut checked = 0;
    for (name, _raw, cfg) in shipped_scenarios() {
        let Some(attack) = &cfg.attack else { continue };
        let (AttackSpec::UdpFlood { zombies, .. } | AttackSpec::SynFlood { zombies, .. }) = attack;
        let mut zombies = zombies.clone();
        zombies.sort_unstable();
        let mut world = ScenarioWorld::build(&cfg, None, None).expect("builds");
        while !world.step(10_000) {}
        let online = world
            .identify(None)
            .unwrap_or_else(|e| panic!("{name}: identify: {e}"));
        let outcome = world.outcome();
        let att = &outcome.json["attribution"];
        assert_eq!(att["scheme"].as_str(), Some(online.scheme), "{name}");
        assert_eq!(att["observed"].as_u64(), Some(online.observed), "{name}");
        assert_eq!(att["rejected"].as_u64(), Some(online.rejected), "{name}");
        let candidates: Vec<u32> = att["candidates"]
            .as_array()
            .expect("candidates array")
            .iter()
            .map(|c| u32::try_from(c.as_u64().unwrap()).unwrap())
            .collect();
        assert_eq!(candidates, online.candidates, "{name}");
        let confidence = att["confidence"].as_f64().expect("confidence");
        assert!((confidence - online.confidence).abs() < 1e-12, "{name}");
        assert!(
            online.candidates.iter().all(|c| zombies.contains(c)),
            "{name}: named a non-zombie: {:?} vs zombies {zombies:?}",
            online.candidates
        );
        if cfg.adversary.is_none() {
            assert_eq!(
                online.candidates, zombies,
                "{name}: honest fabric names every zombie"
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 7,
        "expected the shipped attack scenarios, checked {checked}"
    );
}
