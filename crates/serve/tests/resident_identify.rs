//! The resident collector answers exactly what a fresh replay would.
//!
//! `ScenarioWorld` keeps one collector for the attack victim and feeds
//! it only the deliveries of each new stride. Every scheme's
//! `attribute()` is a pure function of what it observed, so after any
//! stride the resident answer must equal a collector built from
//! scratch and replayed over the whole delivered log — for every
//! scheme, honest or under a framing adversary, however the strides
//! are cut.

use ddpm_core::build_scheme_with;
use ddpm_net::TrafficClass;
use ddpm_serve::scenario::{AttackSpec, ScenarioConfig, ScenarioWorld};
use ddpm_serve::OnlineAttribution;
use ddpm_sim::SchemeSpec;
use ddpm_topology::NodeId;
use proptest::prelude::*;
use serde_json::{json, FromJson, Value};

const VICTIM: u32 = 14;

/// The three 16-node fabrics the bake-off runs on.
fn topology(i: usize) -> Value {
    match i {
        0 => json!({"kind": "mesh", "dims": [4, 4]}),
        1 => json!({"kind": "torus", "dims": [4, 4]}),
        _ => json!({"kind": "hypercube", "n": 4}),
    }
}

fn scenario(spec: SchemeSpec, topo: usize, adaptive: bool, frame: bool, seed: u64) -> Value {
    let mut v = json!({
        "topology": topology(topo),
        "router": if adaptive { "fully_adaptive" } else { "dimension_order" },
        "scheme": spec.as_str(),
        "seed": seed,
        "background_interval": 24,
        "horizon": 2500,
        "attack": {"kind": "udp_flood", "zombies": [1, 6], "victim": VICTIM,
                   "packets_per_zombie": 120, "interval": 8},
    });
    if let (true, Value::Object(m)) = (frame, &mut v) {
        m.insert(
            "adversary".into(),
            json!({"switches": [5, 10], "behavior": "frame", "framed": 9, "seed": seed ^ 177}),
        );
    }
    v
}

/// A collector built from scratch and fed every attack-class packet
/// delivered to `victim` so far.
fn fresh_replay(world: &ScenarioWorld, victim: u32) -> OnlineAttribution {
    let cfg = world.config();
    let spec = cfg.scheme.unwrap_or(SchemeSpec::None);
    let scheme = build_scheme_with(spec, world.topology(), cfg.tag_bits).expect("scheme builds");
    let mut collector = scheme.collector(world.topology(), NodeId(victim));
    for d in world.sim().delivered() {
        if d.packet.dest_node == NodeId(victim) && d.packet.class == TrafficClass::Attack {
            collector.observe_packet(&d.packet);
        }
    }
    let att = collector.attribute();
    OnlineAttribution {
        scheme: scheme.name(),
        cycle: world.now_cycles(),
        victim,
        observed: collector.observed(),
        rejected: collector.rejected(),
        candidates: att.candidates.iter().map(|c| c.0).collect(),
        confidence: att.confidence,
    }
}

fn same_answer(got: &OnlineAttribution, want: &OnlineAttribution) -> Result<(), String> {
    let fields = |a: &OnlineAttribution| {
        (
            a.scheme,
            a.cycle,
            a.victim,
            a.observed,
            a.rejected,
            a.candidates.clone(),
            a.confidence.to_bits(),
        )
    };
    if fields(got) == fields(want) {
        Ok(())
    } else {
        Err(format!("resident {got:?} != fresh replay {want:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every stride, for every scheme, `identify(None)` equals a
    /// fresh collector replayed over `sim().delivered()`.
    #[test]
    fn resident_identify_equals_a_fresh_replay_after_every_stride(
        topo in 0usize..3,
        adaptive in 0u8..2,
        frame in 0u8..2,
        seed in 0u64..10_000,
        strides in proptest::collection::vec(1u64..1500, 1..6),
    ) {
        let mut built = 0;
        for spec in SchemeSpec::ALL {
            let v = scenario(spec, topo, adaptive == 1, frame == 1, seed);
            let cfg = ScenarioConfig::from_json(&v).expect("config parses");
            // Per-topology feasibility walls (e.g. tracemax on a
            // long-diameter mesh) surface as build errors; skip those.
            let Ok(mut world) = ScenarioWorld::build(&cfg, None, None) else { continue };
            built += 1;
            let mut i = 0;
            loop {
                let done = world.step(strides[i % strides.len()]);
                i += 1;
                let got = world.identify(None).expect("attack victim");
                let want = fresh_replay(&world, VICTIM);
                if let Err(e) = same_answer(&got, &want) {
                    prop_assert!(false, "{} after stride {i}: {e}", spec.as_str());
                }
                let explicit = world.identify(Some(VICTIM)).expect("attack victim");
                prop_assert!(same_answer(&explicit, &want).is_ok(), "{}", spec.as_str());
                if done {
                    break;
                }
            }
        }
        prop_assert!(built >= 9, "only {built} schemes built on topology {topo}");
    }
}

/// A victim other than the attack's is answered by replay: here the
/// victim of a second flood injected mid-flight, which the resident
/// collector never sees.
#[test]
fn explicit_foreign_victim_is_answered_by_replay() {
    let cfg = ScenarioConfig::from_json(&scenario(SchemeSpec::Ddpm, 1, false, false, 7))
        .expect("config parses");
    let mut world = ScenarioWorld::build(&cfg, None, None).expect("builds");
    world.step(300);
    let second = AttackSpec::UdpFlood {
        zombies: vec![2, 11],
        victim: 3,
        packets_per_zombie: 60,
        interval: 10,
    };
    world.inject(&second).expect("inject");
    while !world.step(700) {
        let mid = world.identify(Some(3)).expect("in range");
        same_answer(&mid, &fresh_replay(&world, 3)).unwrap();
    }
    let foreign = world.identify(Some(3)).expect("in range");
    same_answer(&foreign, &fresh_replay(&world, 3)).unwrap();
    assert_eq!(foreign.victim, 3);
    assert_eq!(*foreign.candidates, [2, 11]);
    assert!(foreign.observed > 0);
    // The attack victim's answer is untouched by the second flood.
    let own = world.identify(None).expect("attack victim");
    assert_eq!(own.victim, VICTIM);
    assert_eq!(*own.candidates, [1, 6]);
    same_answer(&own, &fresh_replay(&world, VICTIM)).unwrap();
    // Out of range is still an error, not a replay.
    assert!(world.identify(Some(16)).is_err());
}

/// A world resumed from a checkpoint starts its resident collector
/// from the deliveries the snapshot carries, so its answers match the
/// uninterrupted world's mid-flight and at the end.
#[test]
fn resumed_world_answers_like_the_uninterrupted_one() {
    let dir = std::env::temp_dir().join(format!("ddpm-resident-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut v = scenario(SchemeSpec::AuthDdpm, 2, true, true, 11);
    if let Value::Object(m) = &mut v {
        m.insert(
            "checkpoint".into(),
            json!({"every": 100_000, "dir": dir.display().to_string()}),
        );
    }
    let source = v.to_string();
    let cfg = ScenarioConfig::from_json(&v).expect("config parses");
    let mut world = ScenarioWorld::build(&cfg, Some(&source), None).expect("builds");
    while world.now_cycles() < 1200 {
        assert!(!world.step(400), "run must still be mid-flight");
    }
    world
        .checkpoint_now()
        .expect("checkpoint")
        .expect("checkpoint dir");
    let mut resumed = ScenarioWorld::resume(&dir, None).expect("resumes");
    let before = world.identify(None).expect("attack victim");
    assert!(
        before.observed > 0,
        "nothing delivered before the checkpoint"
    );
    same_answer(&resumed.identify(None).expect("attack victim"), &before).unwrap();
    same_answer(&before, &fresh_replay(&resumed, VICTIM)).unwrap();
    while !world.step(1000) {}
    while !resumed.step(1000) {}
    let (a, b) = (world.outcome(), resumed.outcome());
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.json["attribution"], b.json["attribution"]);
    let _ = std::fs::remove_dir_all(&dir);
}
