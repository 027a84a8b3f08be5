//! The deterministic-equivalence golden suite.
//!
//! The sharded engine's contract is absolute: for any scenario, the
//! delivered-packet stream (ids, headers with final marking fields,
//! timestamps, hops), the typed drop stream, every invariant verdict
//! and the full `SimStats` are bit-identical to the serial event loop,
//! for any shard count, under any worker-thread count. These tests pin
//! that contract over every shipped scenario file, with the invariant
//! checker recording throughout.

use ddpm_serve::scenario::{run_scenario, ScenarioConfig};
use ddpm_sim::Engine;
use serde_json::FromJson;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> ScenarioConfig {
    let path = scenarios_dir().join(name);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let v = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
    ScenarioConfig::from_json(&v).unwrap_or_else(|e| panic!("{}: bad config: {e}", path.display()))
}

fn digest_under(cfg: &ScenarioConfig, engine: Engine) -> String {
    let mut cfg = cfg.clone();
    cfg.engine = engine;
    // Run with the checker recording so invariant verdicts are part of
    // the compared fingerprint.
    cfg.invariants = true;
    run_scenario(&cfg)
        .unwrap_or_else(|e| panic!("scenario failed under {engine:?}: {e}"))
        .digest
}

#[test]
fn every_shipped_scenario_is_bit_identical_across_engines() {
    let mut checked = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let cfg = load(&name);
        let serial = digest_under(&cfg, Engine::Serial);
        for shards in [2, 4] {
            let sharded = digest_under(&cfg, Engine::Sharded { shards });
            assert_eq!(
                serial, sharded,
                "{name}: sharded({shards}) diverged from serial"
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected the shipped scenario files, saw {checked}");
}

#[test]
fn sharded_digest_is_independent_of_worker_thread_count() {
    // The scenario with the most machinery in play: dynamic faults,
    // watchdog, background + attack traffic.
    let cfg = load("chaos_torus_flood.json");
    let serial = digest_under(&cfg, Engine::Serial);
    let mut digests = Vec::new();
    for threads in ["1", "4"] {
        // Engine workers read RAYON_NUM_THREADS at spawn time, so the
        // same 4-shard run executes on 1 worker, then on 4.
        std::env::set_var("RAYON_NUM_THREADS", threads);
        digests.push(digest_under(&cfg, Engine::Sharded { shards: 4 }));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        digests[0], digests[1],
        "4-shard run diverged between 1 and 4 worker threads"
    );
    assert_eq!(digests[0], serial, "4-shard run diverged from serial");
}
