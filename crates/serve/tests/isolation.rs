//! Tenant isolation under interleaving.
//!
//! Property: however many differently-configured tenants share a
//! server, and however their strides interleave, each tenant's outcome
//! digest equals the digest of the same scenario run solo. Tenants are
//! independent seeded worlds; the multiplexing must be invisible.

use ddpm_serve::scenario::{run_scenario, ScenarioConfig};
use ddpm_serve::{Server, ServerConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use serde_json::{json, FromJson, Value};

/// A small scenario from a handful of orthogonal knobs, varied enough
/// to cover torus, mesh and hypercube fabrics and several plugin
/// schemes, small enough that a proptest case stays quick.
fn scenario_json(knobs: (u8, u8, u64)) -> Value {
    let (shape, scheme, seed) = knobs;
    let topology = match shape % 3 {
        0 => json!({"kind": "torus", "dims": [5, 5]}),
        1 => json!({"kind": "mesh", "dims": [4, 4]}),
        _ => json!({"kind": "hypercube", "n": 4}),
    };
    let scheme = match scheme % 4 {
        0 => "ddpm",
        1 => "dpm",
        2 => "ppm-edge",
        _ => "tracemax",
    };
    let attack = json!({
        "kind": "udp_flood",
        "zombies": [1, 9], "victim": 13,
        "packets_per_zombie": 60, "interval": 9
    });
    json!({
        "topology": topology, "router": "fully_adaptive", "scheme": scheme,
        "seed": seed, "background_interval": 40, "horizon": 900,
        "attack": attack,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 2–4 random tenants, interleaved in random bounded strides via
    /// the wire-facing dispatch path, each digest == its solo run.
    #[test]
    fn interleaved_tenants_match_their_solo_digests(
        tenant_knobs in pvec((any::<u8>(), any::<u8>(), any::<u64>()), 2..5),
        stride_seq in pvec(1u64..6000, 8..25),
    ) {
        let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let scenarios: Vec<Value> = tenant_knobs.iter().map(|&k| scenario_json(k)).collect();
        for (i, sc) in scenarios.iter().enumerate() {
            let resp: Value = serde_json::from_str(&server.handle_line(
                &json!({"verb": "tenant.create", "name": format!("t{i}"),
                        "autorun": false, "scenario": sc.clone()}).to_string(),
            )).expect("json");
            prop_assert_eq!(resp["ok"].as_bool(), Some(true), "create failed: {}", resp);
        }
        // Round-robin with ragged strides until every tenant finishes;
        // the stride sequence (not the tenant order) is the random part.
        let n = scenarios.len();
        let mut done = vec![false; n];
        let mut step = 0usize;
        while done.iter().any(|d| !d) {
            let i = step % n;
            if !done[i] {
                let cycles = stride_seq[step % stride_seq.len()];
                let resp: Value = serde_json::from_str(&server.handle_line(
                    &json!({"verb": "tenant.step", "tenant": format!("t{i}"),
                            "cycles": cycles}).to_string(),
                )).expect("json");
                prop_assert_eq!(resp["ok"].as_bool(), Some(true), "step failed: {}", resp);
                done[i] = resp["done"].as_bool() == Some(true);
            }
            step += 1;
        }
        for (i, sc) in scenarios.iter().enumerate() {
            let resp: Value = serde_json::from_str(&server.handle_line(
                &json!({"verb": "tenant.outcome", "tenant": format!("t{i}")}).to_string(),
            )).expect("json");
            prop_assert_eq!(resp["ok"].as_bool(), Some(true), "outcome failed: {}", resp);
            let cfg = ScenarioConfig::from_json(sc).expect("config");
            let solo = run_scenario(&cfg).expect("solo run");
            prop_assert_eq!(
                resp["digest"].as_str().expect("digest"),
                solo.digest.as_str(),
                "tenant t{} diverged from its solo run", i
            );
        }
        server.drain().expect("drain");
    }
}
