//! Quick-profile smoke: every registered experiment must run under
//! `--quick` scaling and produce JSON that round-trips losslessly —
//! the contract `report --quick all` and CI rely on. Also home of the
//! throughput regression gate over `BENCH_sim_throughput.json`.

use ddpm_bench::{all_experiments, RunCtx};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[test]
fn every_experiment_runs_quick_and_roundtrips_json() {
    let ctx = RunCtx {
        quick: true,
        ..RunCtx::default()
    };
    let mut seen = Vec::new();
    for (key, runner) in all_experiments() {
        let report = runner(&ctx);
        assert_eq!(report.key, key, "registry key must match the report's");
        assert!(!report.title.is_empty(), "{key}: empty title");
        assert!(!report.body.is_empty(), "{key}: empty body");
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
