//! Quick-profile smoke: every registered experiment must run under
//! `--quick` scaling and produce JSON that round-trips losslessly —
//! the contract `report --quick all` and CI rely on. Also home of the
//! throughput regression gate over `BENCH_sim_throughput.json`.

use ddpm_bench::grid::run_cell;
use ddpm_bench::{all_experiments, exp_adversarial, exp_bakeoff, exp_resilience, RunCtx};
use ddpm_serve::scenario::ScenarioConfig;
use ddpm_serve::ScenarioWorld;
use serde_json::{FromJson, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[test]
fn every_experiment_runs_quick_and_roundtrips_json() {
    let ctx = RunCtx {
        quick: true,
        ..RunCtx::default()
    };
    // Quick runs write their bench rows under target/: the committed
    // BENCH_sim_throughput.json keeps its full-scale rows byte for byte.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = root.join("BENCH_sim_throughput.json");
    let before = std::fs::read(&committed).expect("committed bench rows");
    let mut seen = Vec::new();
    for (key, runner) in all_experiments() {
        let report = runner(&ctx);
        assert_eq!(report.key, key, "registry key must match the report's");
        assert!(!report.title.is_empty(), "{key}: empty title");
        assert!(!report.body.is_empty(), "{key}: empty body");
        assert!(!report.body.contains("bench rows not merged"), "{key}: {}", report.body);
        assert!(
            !report.json.is_null(),
            "{key}: machine-readable payload missing"
        );
        let text = serde_json::to_string_pretty(&report.json)
            .unwrap_or_else(|e| panic!("{key}: unserialisable JSON: {e}"));
        let back: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{key}: JSON does not parse back: {e}"));
        assert_eq!(back, report.json, "{key}: JSON round-trip lost data");
        seen.push(key);
    }
    assert!(seen.len() >= 24, "experiment registry shrank: {seen:?}");
    assert!(
        std::fs::read(&committed).expect("committed bench rows") == before,
        "a quick run rewrote {}",
        committed.display()
    );
    let quick_rows = ctx.bench_rows_path();
    assert!(quick_rows.starts_with(root.join("target")), "{}", quick_rows.display());
    assert!(quick_rows.exists(), "quick rows land under target/");
}

#[test]
fn quick_tracing_writes_an_ndjson_trace() {
    let dir = std::env::temp_dir().join(format!("ddpm-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ctx = RunCtx {
        quick: true,
        trace_dir: Some(dir.clone()),
        ..RunCtx::default()
    };
    let (_, runner) = all_experiments()
        .into_iter()
        .find(|(k, _)| *k == "ident")
        .expect("ident experiment registered");
    runner(&ctx);
    let trace = dir.join("ident.ndjson");
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(body.lines().count() > 0, "trace is empty");
    for line in body.lines().take(50) {
        let v: serde_json::Value = serde_json::from_str(line).expect("each line is JSON");
        assert!(
            v["cycle"].as_u64().is_some()
                && v["event"].as_str().is_some()
                && v["pkt"].as_u64().is_some()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `key` under `--quick` and checks that every value under a
/// `"scenario"` key in its JSON — one per run row, `rows` in all —
/// loads through the strict scenario loader.
fn quick_rows(key: &str, rows: impl Fn(&Value) -> usize) -> Value {
    fn collect(v: &Value, out: &mut Vec<Value>) {
        match v {
            Value::Object(m) => m.iter().for_each(|(k, x)| match k.as_str() {
                "scenario" => out.push(x.clone()),
                _ => collect(x, out),
            }),
            Value::Array(a) => a.iter().for_each(|x| collect(x, out)),
            _ => {}
        }
    }
    let (_, runner) = all_experiments().into_iter().find(|(k, _)| *k == key).expect(key);
    let json = runner(&RunCtx {
        quick: true,
        ..RunCtx::default()
    })
    .json;
    let mut found = Vec::new();
    collect(&json, &mut found);
    assert_eq!(found.len(), rows(&json), "{key}: one scenario per run row");
    for s in &found {
        ScenarioConfig::from_json(s).unwrap_or_else(|e| panic!("{key}: {s}: {e}"));
    }
    json
}

/// Re-runs a row's scenario: strict loader, then `ScenarioWorld`.
fn rerun(row: &Value) -> ScenarioWorld {
    run_cell(&row["scenario"]).unwrap_or_else(|e| panic!("{row}: {e}"))
}

/// Every measured field equals the row's.
fn assert_reproduces(row: &Value, measured: &Value) {
    for (key, v) in measured.as_object().expect("measurements").iter() {
        assert_eq!(&row[key.as_str()], v, "`{key}` of {row}");
    }
}

/// The scenario-grid experiments: every row carries the scenario it
/// ran, every such scenario loads through the strict loader, and
/// re-running a row's scenario through `ScenarioWorld` reproduces the
/// row's numbers.
#[test]
fn scenario_grid_rows_reproduce() {
    let len = |v: &Value| v.as_array().expect("rows").len();

    // E-ADV: grid cells (a feasibility wall included) and calibration.
    let adv = quick_rows("adversarial", |j| len(&j["grid"]) + len(&j["calibration"]));
    let grid = adv["grid"].as_array().expect("grid");
    let row = grid
        .iter()
        .find(|r| r["scheme"] == "auth-ddpm" && r["behavior"] == "frame" && r["switches"] == 4)
        .expect("auth-ddpm frame row");
    assert_reproduces(row, &exp_adversarial::score(&rerun(row)));
    let wall = grid.iter().find(|r| !r["infeasible"].is_null()).expect("a wall");
    let refused = run_cell(&wall["scenario"]).err();
    assert_eq!(refused.as_deref(), wall["infeasible"].as_str(), "{wall}");
    let row = &adv["calibration"][1];
    let (tampered, accepted) = exp_adversarial::forgery_acceptance(&rerun(row));
    assert_eq!(row["tampered"], tampered, "{row}");
    assert_eq!(row["accepted"], accepted, "{row}");

    // E-BAKEOFF: a PPM row, whose numbers hang on every per-packet draw.
    let bake = quick_rows("bakeoff", |j| {
        j["topologies"].as_array().expect("topologies").iter().map(|t| len(&t["rows"])).sum()
    });
    let row = &bake["topologies"][0]["rows"][3];
    assert_eq!(row["scheme"], "ppm-edge");
    assert_reproduces(row, &exp_bakeoff::score(&rerun(row)));

    // E-RESIL: every cell ran twice, retries on and off.
    let resil = quick_rows("resilience", |j| 2 * len(&j["cells"]));
    let cell = &resil["cells"][len(&resil["cells"]) - 1];
    for row in [&cell["retry"], &cell["no_retry"]] {
        assert_reproduces(row, &exp_resilience::score(&rerun(row)));
    }
}

/// Mean serial `telemetry-off` throughput per `(topology, router)` from
/// a `BENCH_sim_throughput.json` payload (duplicated configurations are
/// averaged — the bench emits the same cell from several sweeps).
fn serial_off_pps(raw: &str, what: &str) -> BTreeMap<(String, String), f64> {
    let v: serde_json::Value =
        serde_json::from_str(raw).unwrap_or_else(|e| panic!("{what}: not JSON: {e}"));
    let rows = v["rows"].as_array().unwrap_or_else(|| panic!("{what}: no rows"));
    let mut sums: BTreeMap<(String, String), (f64, u32)> = BTreeMap::new();
    for row in rows {
        if row["engine"].as_str() != Some("serial")
            || row["telemetry"].as_str() != Some("telemetry-off")
        {
            continue;
        }
        let key = (
            row["topology"].as_str().expect("topology").to_string(),
            row["router"].as_str().expect("router").to_string(),
        );
        let pps = row["packets_per_sec"].as_f64().expect("packets_per_sec");
        let e = sums.entry(key).or_insert((0.0, 0));
        e.0 += pps;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (sum, n))| (k, sum / f64::from(n)))
        .collect()
}

/// The throughput regression gate: serial `telemetry-off` rows in the
/// repo-root `BENCH_sim_throughput.json` (rewritten by `cargo bench -p
/// ddpm-bench --bench throughput`, which CI runs immediately before
/// this test) must not fall more than 20% below the committed baseline
/// snapshot in `tests/throughput_baseline.json`.
#[test]
fn serial_telemetry_off_throughput_has_not_regressed() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bench_path = manifest.join("../../BENCH_sim_throughput.json");
    let baseline_path = manifest.join("tests/throughput_baseline.json");
    let bench = std::fs::read_to_string(&bench_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", bench_path.display()));
    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let current = serial_off_pps(&bench, "BENCH_sim_throughput.json");
    let pinned = serial_off_pps(&baseline, "throughput_baseline.json");
    assert!(!pinned.is_empty(), "baseline has no serial telemetry-off rows");

    let mut regressions = Vec::new();
    for ((topo, router), base) in &pinned {
        let Some(now) = current.get(&(topo.clone(), router.clone())) else {
            regressions.push(format!("{topo} / {router}: row vanished from the bench"));
            continue;
        };
        if *now < base * 0.8 {
            regressions.push(format!(
                "{topo} / {router}: {now:.0} pps is {:.0}% of the {base:.0} pps baseline",
                now / base * 100.0
            ));
        }
    }
    assert!(
        regressions.is_empty(),
        "serial telemetry-off throughput regressed >20% vs tests/throughput_baseline.json:\n{}\n\
         If the slowdown is intentional, refresh the baseline snapshot and say why in the PR.",
        regressions.join("\n")
    );
}

/// The removed execution-engine flags are unknown flags like any other:
/// usage on stderr, exit status 1.
#[test]
fn removed_engine_flags_exit_1_with_usage() {
    for args in [&["--engine", "sharded", "table3"][..], &["--shards", "4", "table3"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("spawn report");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{}`", args[0])), "{err}");
        assert!(err.contains("usage: report"), "{err}");
    }
}
