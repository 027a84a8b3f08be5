//! The seeded workload generator: determinism, ground-truth sanity and
//! adversary placement.

use ddpm_perfbench::gen::{minimal_box, scenarios, FloodShape, Workload};
use ddpm_serve::scenario::ScenarioConfig;

const SEEDS: std::ops::Range<u64> = 0..64;

#[test]
fn the_same_seed_gives_byte_identical_scenarios() {
    for w in Workload::ALL {
        for seed in [0, 1, 7, u64::MAX] {
            let a: Vec<String> = scenarios(w, seed, false)
                .into_iter()
                .map(|s| s.text)
                .collect();
            let b: Vec<String> = scenarios(w, seed, false)
                .into_iter()
                .map(|s| s.text)
                .collect();
            assert_eq!(a, b, "{} seed {seed}", w.name());
            for text in &a {
                let cfg: Result<ScenarioConfig, _> = serde_json::from_str(text);
                assert!(
                    cfg.is_ok(),
                    "{} seed {seed}: {text} does not parse",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn zombies_are_distinct_in_range_and_never_the_victim() {
    for w in Workload::ALL {
        let shape = FloodShape::of(w, false);
        for seed in SEEDS {
            for sc in scenarios(w, seed, false) {
                assert_eq!(sc.nodes, shape.nodes());
                assert!(sc.victim < sc.nodes);
                assert_eq!(sc.zombies.len(), shape.zombies);
                assert!(
                    sc.zombies.windows(2).all(|p| p[0] < p[1]),
                    "sorted and distinct"
                );
                assert!(sc.zombies.iter().all(|&z| z < sc.nodes && z != sc.victim));
            }
        }
    }
}

#[test]
fn the_adversary_never_sits_on_a_zombie_the_victim_or_an_attack_path() {
    let shape = FloodShape::of(Workload::AdaptiveAuth, false);
    for seed in SEEDS {
        let sc = &scenarios(Workload::AdaptiveAuth, seed, false)[0];
        let adv = sc
            .adversary
            .as_ref()
            .expect("adaptive-auth has an adversary");
        assert_eq!(adv.switches.len(), shape.adversary_switches);
        assert!(adv.switches.windows(2).all(|p| p[0] < p[1]));
        for &s in &adv.switches {
            assert!(s < sc.nodes && s != sc.victim && !sc.zombies.contains(&s));
            for &z in &sc.zombies {
                assert!(
                    !minimal_box(z, sc.victim, shape.dims).contains(&s),
                    "seed {seed}: switch {s} on zombie {z}'s path"
                );
            }
        }
        assert!(adv.framed < sc.nodes && adv.framed != sc.victim);
        assert!(!sc.zombies.contains(&adv.framed) && !adv.switches.contains(&adv.framed));
    }
    for w in [Workload::FabricDor, Workload::ServeDurable] {
        assert!(scenarios(w, 3, false).iter().all(|s| s.adversary.is_none()));
    }
}

#[test]
fn minimal_boxes_span_the_short_way_round() {
    // 8x8 torus: node 1 -> node 6 in one row goes 1, 0, 7, 6.
    let mut b = minimal_box(1, 6, [8, 8]);
    b.sort_unstable();
    assert_eq!(b, vec![0, 1, 6, 7]);
    // A tie (distance 4 both ways) keeps both ways round.
    assert_eq!(minimal_box(0, 4, [8, 8]).len(), 8);
    // Two dimensions: the full rectangle of minimal paths.
    assert_eq!(minimal_box(0, 8 * 2 + 2, [8, 8]).len(), 9);
}

#[test]
fn two_seeds_differ() {
    for w in Workload::ALL {
        let a = scenarios(w, 1, false);
        let b = scenarios(w, 2, false);
        assert_ne!(a[0].text, b[0].text, "{}", w.name());
    }
    // The tenants of one serve-durable run differ from each other too.
    let t = scenarios(Workload::ServeDurable, 1, false);
    assert!(t.windows(2).all(|p| p[0].text != p[1].text));
}
