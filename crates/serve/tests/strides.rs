//! Stride re-entry hardening.
//!
//! A resident driver (the attribution service) advances a simulation
//! through many bounded `run_until` calls instead of one `run`. These
//! tests pin that the segmentation is invisible: any stride schedule —
//! tiny strides, huge strides, zero-length strides, redundant calls
//! after quiescence — yields the same `ScenarioOutcome` digest as the
//! one-shot run.

use ddpm_serve::scenario::{run_scenario, ScenarioConfig, ScenarioWorld};
use serde_json::FromJson;

fn cfg() -> ScenarioConfig {
    let raw = r#"{
        "topology": {"kind": "torus", "dims": [6, 6]},
        "router": "fully_adaptive",
        "scheme": "ddpm",
        "seed": 77,
        "background_interval": 24,
        "horizon": 1500,
        "attack": {
            "kind": "udp_flood",
            "zombies": [3, 22], "victim": 14,
            "packets_per_zombie": 120, "interval": 6
        }
    }"#;
    let v = serde_json::from_str(raw).expect("valid JSON");
    ScenarioConfig::from_json(&v).expect("valid config")
}

fn stride_digest(cfg: &ScenarioConfig, strides: &[u64]) -> String {
    let mut world = ScenarioWorld::build(cfg, None, None).expect("builds");
    let mut i = 0;
    while !world.step(strides[i % strides.len()]) {
        i += 1;
        assert!(i < 1_000_000, "stride schedule failed to converge");
    }
    world.outcome().digest
}

#[test]
fn any_stride_schedule_matches_the_one_shot_run() {
    let cfg = cfg();
    let oneshot = run_scenario(&cfg).expect("one-shot run").digest;
    for strides in [
        &[1_000_000][..],  // single stride covering the whole run
        &[97][..],         // many tiny uneven strides
        &[1, 5000, 3][..], // wildly mixed
    ] {
        assert_eq!(
            stride_digest(&cfg, strides),
            oneshot,
            "stride schedule {strides:?} diverged"
        );
    }
}

#[test]
fn run_until_after_quiescence_is_a_cheap_true_noop() {
    let cfg = cfg();
    let mut world = ScenarioWorld::build(&cfg, None, None).expect("builds");
    while !world.step(10_000) {}
    let cycle = world.now_cycles();
    // Redundant strides after done: still done, clock frozen.
    for _ in 0..3 {
        assert!(world.step(1234));
        assert_eq!(world.now_cycles(), cycle);
    }
    let baseline = run_scenario(&cfg).expect("one-shot").digest;
    assert_eq!(world.outcome().digest, baseline);
}

#[test]
fn zero_stride_makes_progress_instead_of_spinning() {
    // step() clamps a zero stride to one cycle, so a caller looping on
    // step(0) terminates rather than livelocking.
    let cfg = cfg();
    let mut world = ScenarioWorld::build(&cfg, None, None).expect("builds");
    let mut calls = 0u64;
    while !world.step(0) {
        calls += 1;
        assert!(calls < 10_000_000, "zero stride must still advance time");
    }
    assert_eq!(
        world.outcome().digest,
        run_scenario(&cfg).expect("one-shot").digest
    );
}
