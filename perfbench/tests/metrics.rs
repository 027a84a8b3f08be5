//! A quick-sized run of every workload emits exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit.

use ddpm_perfbench::gen::Workload;
use ddpm_perfbench::trace::Tracer;
use serde_json::Value;
use std::time::Duration;

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench[kind]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn quick_runs_emit_every_named_metric_with_its_unit() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the simulator is too slow unoptimised; run with --release");
        return;
    }
    for (kind, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(kind);
        for w in Workload::ALL {
            let tracer = Tracer::new(trace);
            let r = ddpm_perfbench::run(w, 5, Duration::ZERO, true, &tracer).expect("quick run");
            let got: Vec<(String, String)> = r
                .names()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(got, want, "{} {kind}", w.name());
            assert!(r.correct(), "{} {kind}: {:?}", w.name(), r.failures);
            assert!(r.attempted > 0);
        }
    }
}
