//! A checkpoint captured from a world and written later holds the
//! captured state, not the state at write time.
//!
//! The service copies a tenant's checkpoint under the tenant lock and
//! writes it after releasing the lock, while another worker may already
//! be advancing the same tenant. The file must still resume at the
//! captured cycle and finish with the uninterrupted run's digest.

use ddpm_serve::scenario::{ScenarioConfig, ScenarioWorld};
use serde_json::{json, FromJson};

#[test]
fn a_capture_written_after_the_world_moved_on_resumes_at_the_captured_cycle() {
    let dir = std::env::temp_dir().join(format!("ddpm-captured-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v = json!({
        "topology": {"kind": "torus", "dims": [4, 4]},
        "router": "fully_adaptive",
        "scheme": "ddpm",
        "seed": 5,
        "background_interval": 24,
        "horizon": 2500,
        "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": 14,
                   "packets_per_zombie": 120, "interval": 8},
        "checkpoint": {"every": 100_000, "dir": dir.display().to_string()},
    });
    let source = v.to_string();
    let cfg = ScenarioConfig::from_json(&v).expect("config parses");
    let mut world = ScenarioWorld::build(&cfg, Some(&source), None).expect("builds");
    while world.now_cycles() < 1200 {
        assert!(!world.step(400), "run must still be mid-flight");
    }
    let captured = world
        .capture_checkpoint()
        .expect("capture")
        .expect("checkpoint dir");
    assert_eq!(captured.cycle(), world.now_cycles());
    assert!(!world.step(400), "run must still be mid-flight");
    assert!(world.now_cycles() > captured.cycle());

    let path = captured.store().expect("store");
    assert_eq!(
        path.file_name().and_then(|n| n.to_str()),
        Some(ddpm_checkpoint::file_name(captured.cycle()).as_str())
    );
    let mut resumed = ScenarioWorld::resume(&dir, None).expect("resumes");
    assert_eq!(resumed.now_cycles(), captured.cycle());

    while !world.step(1000) {}
    while !resumed.step(1000) {}
    assert_eq!(world.outcome().digest, resumed.outcome().digest);
    assert!(
        world.capture_checkpoint().is_err(),
        "a drained world has nothing to checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
