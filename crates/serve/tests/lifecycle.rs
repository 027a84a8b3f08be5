//! Server start-up and shutdown under stress.
//!
//! `drain` raises the shutdown flag and wakes the workers. A worker
//! that has just read the flag as clear and is about to sleep must
//! still see that wakeup, or `drain` hangs forever in `join`. Many
//! back-to-back boot/drain cycles give that window many chances.
//!
//! Workers leave cadence checkpoints to the server's writer thread, so
//! a drain can meet a write in flight. The final checkpoints must still
//! be the newest on disk, and the tenants must resume from them to
//! their solo digests.

use ddpm_serve::scenario::{run_scenario, ScenarioConfig};
use ddpm_serve::{Server, ServerConfig};
use serde_json::{json, FromJson, Value};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn drain_never_loses_a_worker_wakeup() {
    for i in 0..500 {
        let (done, finished) = mpsc::channel();
        let cycle = std::thread::spawn(move || {
            let server = Server::new(ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            });
            done.send(server.drain()).expect("report drain");
        });
        match finished.recv_timeout(Duration::from_secs(5)) {
            Ok(result) => result.expect("drain"),
            // A hung cycle cannot be joined; fail with it detached.
            Err(e) => panic!("boot/drain cycle {i} did not finish within 5 s: {e}"),
        }
        cycle.join().expect("boot/drain thread");
    }
}

fn call(server: &Server, req: &Value) -> Value {
    let resp: Value = serde_json::from_str(&server.handle_line(&req.to_string())).expect("json");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{req} failed: {resp}");
    resp
}

#[test]
fn drained_mid_run_with_cadence_writes_tenants_resume_to_their_solo_digests() {
    let root = std::env::temp_dir().join(format!("ddpm-lifecycle-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServerConfig {
        workers: 2,
        stride: 512,
        checkpoint_root: Some(root.clone()),
        checkpoint_every: 1024,
        ..ServerConfig::default()
    };
    let scenarios: Vec<Value> = (0..3u64)
        .map(|seed| {
            json!({
                "topology": {"kind": "torus", "dims": [6, 6]}, "router": "fully_adaptive",
                "scheme": "ddpm", "seed": seed, "background_interval": 16, "horizon": 40_000,
                "attack": {"kind": "udp_flood", "zombies": [3, 20], "victim": 8,
                           "packets_per_zombie": 400, "interval": 12},
            })
        })
        .collect();

    let server = Server::new(cfg.clone());
    for (i, sc) in scenarios.iter().enumerate() {
        call(
            &server,
            &json!({"verb": "tenant.create", "name": format!("t{i}"), "autorun": true,
                    "scenario": sc}),
        );
    }
    // Let several cadences pass, then drain while the run is under way.
    let deadline = Instant::now() + Duration::from_secs(30);
    while call(&server, &json!({"verb": "tenant.stats", "tenant": "t0"}))["cycle"]
        .as_u64()
        .expect("cycle")
        < 8192
    {
        assert!(Instant::now() < deadline, "t0 made no progress");
        std::thread::sleep(Duration::from_millis(2));
    }
    let running = (0..scenarios.len())
        .filter(|i| {
            call(&server, &json!({"verb": "tenant.stats", "tenant": format!("t{i}")}))["done"]
                == false
        })
        .count();
    assert!(running > 0, "every tenant finished before the drain");
    server.drain().expect("drain");

    let server = Server::new(cfg);
    let deadline = Instant::now() + Duration::from_secs(60);
    let found = server.resume_tenants().expect("resume");
    assert_eq!(found.resumed, ["t0", "t1", "t2"]);
    assert_eq!(found.failed, []);
    for (i, sc) in scenarios.iter().enumerate() {
        let name = format!("t{i}");
        while call(&server, &json!({"verb": "tenant.stats", "tenant": name}))["done"] != true {
            assert!(Instant::now() < deadline, "{name} stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        let out = call(&server, &json!({"verb": "tenant.outcome", "tenant": name}));
        let solo = run_scenario(&ScenarioConfig::from_json(sc).expect("config")).expect("solo");
        assert_eq!(
            out["digest"].as_str(),
            Some(solo.digest.as_str()),
            "{name} diverged"
        );
    }
    server.drain().expect("drain");
    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant whose checkpoints are all corrupt does not keep the others
/// from resuming: it is reported failed, with the reason, and the good
/// tenant resumes and runs out to its solo digest.
#[test]
fn a_corrupt_tenant_fails_alone_and_the_rest_resume() {
    let root = std::env::temp_dir().join(format!("ddpm-lifecycle-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServerConfig {
        workers: 1,
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    };
    let scenario = json!({
        "topology": {"kind": "torus", "dims": [4, 4]}, "router": "fully_adaptive",
        "scheme": "ddpm", "seed": 3, "background_interval": 24, "horizon": 3000,
        "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": 14,
                   "packets_per_zombie": 100, "interval": 8},
    });
    let server = Server::new(cfg.clone());
    for name in ["a-corrupt", "b-good"] {
        call(
            &server,
            &json!({"verb": "tenant.create", "name": name, "autorun": false, "scenario": scenario}),
        );
        call(
            &server,
            &json!({"verb": "tenant.step", "tenant": name, "cycles": 700}),
        );
    }
    server.drain().expect("drain");
    // Tear every checkpoint of the first tenant.
    let mut torn = 0;
    for entry in std::fs::read_dir(root.join("a-corrupt")).expect("tenant dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "ddpm") {
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).expect("write");
            torn += 1;
        }
    }
    assert!(torn > 0, "the drain wrote checkpoints");

    let server = Server::new(cfg);
    let found = server.resume_tenants().expect("resume");
    assert_eq!(found.resumed, ["b-good"]);
    assert_eq!(found.failed.len(), 1);
    assert_eq!(found.failed[0].0, "a-corrupt");
    assert!(
        found.failed[0].1.contains("no usable checkpoint"),
        "reason: {}",
        found.failed[0].1
    );
    let info: Value =
        serde_json::from_str(&server.handle_line(r#"{"verb":"server.info"}"#)).expect("json");
    assert_eq!(info["tenants"].as_array().map(Vec::len), Some(1));
    while call(
        &server,
        &json!({"verb": "tenant.step", "tenant": "b-good", "cycles": 100_000}),
    )["done"]
        != true
    {}
    let out = call(
        &server,
        &json!({"verb": "tenant.outcome", "tenant": "b-good"}),
    );
    let solo = run_scenario(&ScenarioConfig::from_json(&scenario).expect("config")).expect("solo");
    assert_eq!(out["digest"].as_str(), Some(solo.digest.as_str()));
    server.drain().expect("drain");
    let _ = std::fs::remove_dir_all(&root);
}
