//! The conformance corpus: pinned `ScenarioOutcome.digest` values for
//! every shipped scenario file plus a grid of (topology × routing ×
//! churn) micro-configs.
//!
//! The digest fingerprints everything a run observes — delivered
//! packets (ids, headers with final marking fields, timestamps, hops,
//! paths), typed drops, invariant verdicts and the full `SimStats` —
//! so any rewrite of the hot path (event queue, packet storage, port
//! state, telemetry batching) diffs bit-for-bit against pre-rewrite
//! behaviour. The golden file was blessed against the BinaryHeap +
//! HashMap + `Box<InFlight>` implementation this suite was introduced
//! with; the cycle-wheel/slab/dense-array hot path must reproduce it
//! exactly.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```bash
//! DDPM_BLESS=1 cargo test -p ddpm-sim --test conformance
//! ```
//!
//! and review the diff of `tests/conformance_digests.txt` like any
//! other source change.

use ddpm_routing::SelectionPolicy;
use ddpm_serve::scenario::{run_scenario, AttackSpec, RouterSpec, ScenarioConfig, TopologySpec};
use ddpm_sim::{AdversaryBehavior, AdversarySpec, SchemeSpec, WatchdogConfig};
use ddpm_topology::{FaultEvent, NodeId};
use serde_json::FromJson;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/conformance_digests.txt";

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn manifest(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The topology axis: one representative of each family, small enough
/// that the full grid stays quick in debug builds.
fn topologies() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("mesh6x6", TopologySpec::Mesh { dims: vec![6, 6] }),
        ("torus6x6", TopologySpec::Torus { dims: vec![6, 6] }),
        ("cube5", TopologySpec::Hypercube { n: 5 }),
    ]
}

/// The routing axis: the deterministic baseline, a partially adaptive
/// midpoint and the fully adaptive extreme (valid on every family).
fn routers() -> Vec<(&'static str, RouterSpec)> {
    vec![
        ("dor", RouterSpec::DimensionOrder),
        ("minadapt", RouterSpec::MinimalAdaptive),
        ("fulladapt", RouterSpec::FullyAdaptive),
    ]
}

/// The churn axis: quiet background traffic, a UDP flood, and the
/// flood under mid-run switch churn with retries, the liveness
/// watchdog and the invariant checker — the paths whose event ordering
/// the scheduler rewrite must preserve exactly.
fn churn_levels() -> Vec<&'static str> {
    vec!["quiet", "flood", "chaos"]
}

fn micro_config(topo: &TopologySpec, router: RouterSpec, churn: &str) -> ScenarioConfig {
    let attack = AttackSpec::UdpFlood {
        zombies: vec![3, 17],
        victim: 30,
        packets_per_zombie: 150,
        interval: 8,
    };
    let mut cfg = ScenarioConfig {
        topology: topo.clone(),
        router,
        policy: SelectionPolicy::ProductiveFirstRandom,
        scheme: Some(SchemeSpec::Ddpm),
        tag_bits: None,
        adversary: None,
        seed: 2004,
        fault_rate: 0.0,
        background_interval: 48,
        horizon: 1500,
        attack: None,
        staged_injection: false,
        fault_schedule: Vec::new(),
        fault_retries: 0,
        watchdog: None,
        invariants: false,
        invariants_selftest_at: None,
        checkpoint: None,
    };
    match churn {
        "quiet" => {}
        "flood" => cfg.attack = Some(attack),
        "chaos" => {
            cfg.attack = Some(attack);
            cfg.fault_schedule = vec![
                (300, FaultEvent::SwitchDown { node: NodeId(9) }),
                (900, FaultEvent::SwitchUp { node: NodeId(9) }),
            ];
            cfg.fault_retries = 4;
            cfg.watchdog = Some(WatchdogConfig {
                check_period: 64,
                max_age: 768,
                stall_cycles: 4096,
                escape: Some(ddpm_routing::Router::DimensionOrder),
            });
            cfg.invariants = true;
        }
        other => panic!("unknown churn level {other}"),
    }
    cfg
}

/// The scheme axis: every `MarkingScheme` plugin on a 16-node member of
/// each topology family — the only sizes all six schemes' MF-bit
/// budgets accept (EdgePpm caps at 5x5 meshes, Tracemax at diameter 6,
/// XorPpm needs power-of-two radices).
fn scheme_topologies() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("mesh4x4", TopologySpec::Mesh { dims: vec![4, 4] }),
        ("torus4x4", TopologySpec::Torus { dims: vec![4, 4] }),
        ("cube4", TopologySpec::Hypercube { n: 4 }),
    ]
}

fn scheme_config(topo: &TopologySpec, spec: SchemeSpec) -> ScenarioConfig {
    ScenarioConfig {
        topology: topo.clone(),
        router: RouterSpec::DimensionOrder,
        policy: SelectionPolicy::ProductiveFirstRandom,
        scheme: Some(spec),
        tag_bits: None,
        adversary: None,
        seed: 2004,
        fault_rate: 0.0,
        background_interval: 48,
        horizon: 1500,
        attack: Some(AttackSpec::UdpFlood {
            zombies: vec![3, 5],
            victim: 14,
            packets_per_zombie: 150,
            interval: 8,
        }),
        staged_injection: false,
        fault_schedule: Vec::new(),
        fault_retries: 0,
        watchdog: None,
        invariants: false,
        invariants_selftest_at: None,
        checkpoint: None,
    }
}

/// The adversary axis: a framing compromised switch on the flood path,
/// pinned for the plain scheme it pollutes and the auth wrappers that
/// contain it. The digest hashes delivered headers with their final
/// marking fields, so any drift in the adversary's forge stream — or
/// in the honest path it wraps — diffs bit-for-bit.
fn adversary_schemes() -> Vec<SchemeSpec> {
    vec![SchemeSpec::Ddpm, SchemeSpec::AuthDdpm, SchemeSpec::AuthDpm]
}

fn adversary_config(topo: &TopologySpec, spec: SchemeSpec) -> ScenarioConfig {
    let mut cfg = scheme_config(topo, spec);
    cfg.adversary = Some(AdversarySpec::new(
        vec![NodeId(5)],
        AdversaryBehavior::Frame,
        Some(NodeId(9)),
        0x0BAD_5EED,
    ));
    cfg
}

/// Every corpus entry as `(name, digest)`, in a fixed order: the
/// shipped scenario files (sorted by name), then the micro grid, then
/// the scheme-axis grid, then the adversary grid.
fn corpus_digests() -> Vec<(String, String)> {
    let mut out = Vec::new();

    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "expected the shipped scenario files");
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let v = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
        let cfg = ScenarioConfig::from_json(&v)
            .unwrap_or_else(|e| panic!("{}: bad config: {e}", path.display()));
        let outcome =
            run_scenario(&cfg).unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
        out.push((format!("scenario/{name}"), outcome.digest));
    }

    for (tname, topo) in topologies() {
        for (rname, router) in routers() {
            for churn in churn_levels() {
                let cfg = micro_config(&topo, router, churn);
                let name = format!("grid/{tname}/{rname}/{churn}");
                let outcome =
                    run_scenario(&cfg).unwrap_or_else(|e| panic!("{name} failed: {e}"));
                out.push((name, outcome.digest));
            }
        }
    }

    for (tname, topo) in scheme_topologies() {
        for spec in SchemeSpec::ALL {
            let cfg = scheme_config(&topo, spec);
            let name = format!("scheme/{tname}/{}", spec.as_str());
            match run_scenario(&cfg) {
                Ok(outcome) => out.push((name, outcome.digest)),
                // Feasibility walls (e.g. `auth-ppm-edge` leaves no
                // room for a tag on 16 nodes) are corpus facts too:
                // pin the wall message so a budget change that flips a
                // cell feasible — or reworded walls — shows up as a
                // golden diff, not silence.
                Err(e) if e.contains("unavailable") => {
                    out.push((name, format!("infeasible: {e}")));
                }
                Err(e) => panic!("{name} failed: {e}"),
            }
        }
    }

    for (tname, topo) in scheme_topologies() {
        for spec in adversary_schemes() {
            let cfg = adversary_config(&topo, spec);
            let name = format!("adversary/{tname}/{}", spec.as_str());
            let outcome =
                run_scenario(&cfg).unwrap_or_else(|e| panic!("{name} failed: {e}"));
            out.push((name, outcome.digest));
        }
    }

    for (name, cfg) in scale_cells() {
        let outcome = run_scenario(&cfg).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        out.push((name, outcome.digest));
    }
    out
}

/// The scale axis: micro members of the Table 3 fabric families —
/// a 16×16×4 3-D mesh and the 2^10 hypercube — flooded the same way
/// the full-size scale suite floods the 128×128 grids, plus each cell
/// re-run under `staged_injection`. A pure flood is already
/// time-ordered, so the staged (bounded-memory, lazily materialised)
/// run must reproduce the eager digest *exactly* — the golden file
/// pins both lines, locking that order-equivalence. Appended after
/// the original corpus so the pre-existing golden lines stay
/// byte-identical.
fn scale_cells() -> Vec<(String, ScenarioConfig)> {
    let flood = |topo: TopologySpec, victim: u32, staged: bool| ScenarioConfig {
        topology: topo,
        router: RouterSpec::DimensionOrder,
        policy: SelectionPolicy::ProductiveFirstRandom,
        scheme: Some(SchemeSpec::Ddpm),
        tag_bits: None,
        adversary: None,
        seed: 2004,
        fault_rate: 0.0,
        background_interval: 0,
        horizon: 1500,
        attack: Some(AttackSpec::UdpFlood {
            zombies: vec![3, 257, 511],
            victim,
            packets_per_zombie: 200,
            interval: 4,
        }),
        staged_injection: staged,
        fault_schedule: Vec::new(),
        fault_retries: 0,
        watchdog: None,
        invariants: false,
        invariants_selftest_at: None,
        checkpoint: None,
    };
    let mesh = TopologySpec::Mesh {
        dims: vec![16, 16, 4],
    };
    let cube = TopologySpec::Hypercube { n: 10 };
    vec![
        ("scale/mesh16x16x4/flood".into(), flood(mesh.clone(), 700, false)),
        ("scale/mesh16x16x4/staged".into(), flood(mesh, 700, true)),
        ("scale/cube10/flood".into(), flood(cube.clone(), 700, false)),
        ("scale/cube10/staged".into(), flood(cube, 700, true)),
    ]
}

fn render(digests: &[(String, String)]) -> String {
    let mut s = String::from(
        "# Pinned ScenarioOutcome digests — regenerate with DDPM_BLESS=1 (see conformance.rs)\n",
    );
    for (name, digest) in digests {
        writeln!(s, "{name} {digest}").unwrap();
    }
    s
}

/// Splits a digest string into named fields: the leading overall hash,
/// then each `key=value` token (counts and per-stream hashes).
fn digest_fields(d: &str) -> Vec<(&str, &str)> {
    d.split_whitespace()
        .enumerate()
        .map(|(i, tok)| match tok.split_once('=') {
            Some(kv) => kv,
            None if i == 0 => ("overall", tok),
            None => ("?", tok),
        })
        .collect()
}

/// Localises a digest mismatch: names the first per-stream field that
/// differs (the delivered-packet stream, the drop stream, the
/// violation stream, or the stats block) so a `DDPM_BLESS=1` review
/// sees *which* behaviour moved, not just that two hashes differ.
fn first_divergence(want: &str, got: &str) -> String {
    fn describe(key: &str) -> &str {
        match key {
            "D" => "delivered-packet stream",
            "X" => "drop stream",
            "V" => "violation stream",
            "S" => "stats block",
            "delivered" => "delivered count",
            "dropped" => "dropped count",
            "violations" => "violation count",
            other => other,
        }
    }
    let (w, g) = (digest_fields(want), digest_fields(got));
    if w.len() != g.len() {
        return "digest layout changed (field count differs — a golden file predating \
                per-stream digests, or a digest format change): re-bless and review"
            .to_string();
    }
    // The counts and per-stream hashes localise the change; the overall
    // hash (field 0) only confirms it, so scan it last.
    for ((wk, wv), (gk, gv)) in w.iter().zip(&g).skip(1).chain(w.iter().zip(&g).take(1)) {
        if wk == gk && wv != gv {
            return format!(
                "first diverging field: {} ({wk}: pinned {wv}, got {gv})",
                describe(wk)
            );
        }
    }
    "overall digest diverged but every per-stream field matches (hash layout change?)"
        .to_string()
}

#[test]
fn corpus_digests_match_golden_file() {
    let digests = corpus_digests();
    let rendered = render(&digests);
    let golden_path = manifest(GOLDEN);
    if std::env::var_os("DDPM_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
        eprintln!("blessed {} ({} entries)", golden_path.display(), digests.len());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun once with DDPM_BLESS=1 to create it",
            golden_path.display()
        )
    });
    let mut pinned = std::collections::BTreeMap::new();
    for line in golden.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, digest) = line.split_once(' ').expect("golden line is `name digest...`");
        pinned.insert(name.to_string(), digest.to_string());
    }
    assert_eq!(
        pinned.len(),
        digests.len(),
        "corpus size changed: golden has {}, run produced {} — bless intentionally",
        pinned.len(),
        digests.len()
    );
    let mut diverged = Vec::new();
    for (name, digest) in &digests {
        match pinned.get(name) {
            None => diverged.push(format!("{name}: missing from golden file")),
            Some(want) if want != digest => {
                diverged.push(format!(
                    "{name}:\n  pinned {want}\n  got    {digest}\n  {}",
                    first_divergence(want, digest)
                ));
            }
            Some(_) => {}
        }
    }
    assert!(
        diverged.is_empty(),
        "conformance digests diverged from pre-rewrite behaviour:\n{}\n\
         If this change is intentional, re-bless with DDPM_BLESS=1 and review the diff.",
        diverged.join("\n")
    );
}
