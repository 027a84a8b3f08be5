//! The repository benchmark: three seeded workloads run end to end
//! through the public entry points of the DDPM crates, plus a traced
//! run that times each layer from outside. See `README.md` here for the
//! workloads, the metrics and how to run them.

pub mod gen;
pub mod layers;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod world;

use gen::{scenarios, FloodShape, Workload};
use report::Report;
use std::time::Duration;
use trace::Tracer;

/// The seed whose outcome digests the benchmark pins.
pub const DEFAULT_SEED: u64 = 1;

/// Outcome digests at [`DEFAULT_SEED`], full size: one per scenario
/// (per tenant for `serve-durable`). A change to the simulator that
/// alters behaviour shows here first.
pub fn pinned(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::FabricDor => &[
            "8706bc06744dbfa0 delivered=820247 dropped=0 violations=0 D=a23e3069677202dc \
             X=cbf29ce484222325 V=cbf29ce484222325 S=dd6cef26702c9d2f",
        ],
        Workload::AdaptiveAuth => &[
            "b90ec01b06a7a840 delivered=824106 dropped=0 violations=0 D=cbf528a404a58190 \
             X=cbf29ce484222325 V=cbf29ce484222325 S=b1ef3bc8c90bce09",
        ],
        Workload::ServeDurable => &[
            "92569e84ddf75d86 delivered=150397 dropped=0 violations=0 D=b549bca24b2a4b25 \
             X=cbf29ce484222325 V=cbf29ce484222325 S=37778cdcf0d47586",
            "c7c512544899ccf6 delivered=150379 dropped=0 violations=0 D=c321b85db8a36bc5 \
             X=cbf29ce484222325 V=cbf29ce484222325 S=90353badb70f2496",
            "5c34b46c1bd5dc75 delivered=150373 dropped=0 violations=0 D=4668acfb904e9153 \
             X=cbf29ce484222325 V=cbf29ce484222325 S=3a15edb5f495bb77",
            "e628fec6f928362f delivered=150415 dropped=0 violations=0 D=02b10519d630b528 \
             X=cbf29ce484222325 V=cbf29ce484222325 S=2e7e309bb24e7c6a",
        ],
    }
}

/// Runs `workload` at `seed` for about `budget`: the end-to-end metrics
/// when `tracer` is disabled, the per-layer ledger when it records.
/// `quick` shrinks the inputs for tests.
///
/// # Errors
/// Scenario, server or I/O failures that stop the run (correctness
/// failures are tallied in the report instead).
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    quick: bool,
    tracer: &Tracer,
) -> Result<Report, String> {
    let scs = scenarios(workload, seed, quick);
    let shape = FloodShape::of(workload, quick);
    let pins = (seed == DEFAULT_SEED && !quick).then(|| pinned(workload));
    let trace = tracer.enabled();
    let mut r = match (workload, trace) {
        (Workload::ServeDurable, false) => serve::run(&scs, &shape, budget, pins),
        (Workload::ServeDurable, true) => serve::run_traced(&scs, &shape, budget, pins, tracer),
        (_, false) => sim::run(&scs[0], &shape, budget, pins.map(|p| p[0])),
        (_, true) => sim::run_traced(&scs[0], &shape, budget, pins.map(|p| p[0]), tracer),
    }?;
    if !trace {
        r.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    r.note("stuck_drains", serde_json::json!(layers::stuck_drains()));
    Ok(r)
}
