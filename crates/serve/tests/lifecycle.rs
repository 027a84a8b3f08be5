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
    let mut resumed = server.resume_tenants().expect("resume");
    resumed.sort();
    assert_eq!(resumed, ["t0", "t1", "t2"]);
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
