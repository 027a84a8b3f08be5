//! One pass of a scenario through `ddpm_serve::ScenarioWorld`: scenario
//! text to a world ready to step, a stride loop with an online
//! `identify` after every stride, and the outcome digest.

use crate::gen::{FloodShape, Scenario};
use crate::trace::{Ctx, Tracer};
use ddpm_serve::scenario::ScenarioConfig;
use ddpm_serve::ScenarioWorld;
use ddpm_telemetry::TelemetryConfig;
use std::time::Duration;

/// The service's stride bound, in cycles (its default), used by every
/// server the benchmark boots.
pub const STRIDE: u64 = 4096;

/// What one pass measured and produced.
pub struct Pass {
    /// Scenario text to a world ready to step.
    pub setup: Duration,
    /// Each stride's time, in order.
    pub strides: Vec<Duration>,
    /// Sum of the stride times.
    pub step: Duration,
    /// `ScenarioWorld::outcome`.
    pub outcome: Duration,
    /// Delivered hop events.
    pub hop_events: u64,
    /// Packets delivered plus dropped.
    pub completed: u64,
    /// Online `identify` latencies, ns, one per stride.
    pub identify_ns: Vec<f64>,
    /// The outcome digest.
    pub digest: String,
    /// Correctness failures, as messages.
    pub failures: Vec<String>,
    /// Checks attempted.
    pub checks: u64,
}

/// Parses scenario text and builds the world, inside a `scenario.build` span.
///
/// # Errors
/// Parse or build failures.
pub fn build(
    text: &str,
    telemetry: Option<TelemetryConfig>,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<(ScenarioWorld, Duration), String> {
    let (world, t) = tracer.span("scenario.build", ctx, |_| {
        let cfg: ScenarioConfig = serde_json::from_str(text).map_err(|e| e.to_string())?;
        ScenarioWorld::build_with(&cfg, Some(text), None, telemetry)
    });
    Ok((world?, t))
}

/// Runs `sc` once, in strides of `shape.stride`. `mid_run` is called
/// once, the first time the world's clock passes half the horizon (the traced run hangs the checkpoint
/// layer there).
///
/// # Errors
/// Scenario parse or build failures (a workload bug, not a measurement).
pub fn run_pass(
    sc: &Scenario,
    shape: &FloodShape,
    telemetry: Option<TelemetryConfig>,
    tracer: &Tracer,
    ctx: Ctx,
    mid_run: &mut dyn FnMut(&mut ScenarioWorld, Ctx),
) -> Result<(Pass, ScenarioWorld), String> {
    let (mut world, setup) = build(&sc.text, telemetry, tracer, ctx)?;
    let mut strides = Vec::new();
    let mut identify_ns = Vec::new();
    let mut failures = Vec::new();
    let mut mid_done = false;
    loop {
        let (done, t) = tracer.span("sim.stride", ctx, |_| world.step(shape.stride));
        strides.push(t);
        if !mid_done && world.now_cycles() >= shape.horizon / 2 && !done {
            mid_done = true;
            mid_run(&mut world, ctx);
        }
        let (answer, t) = tracer.span("core.identify_online", ctx, |_| world.identify(None));
        identify_ns.push(t.as_nanos() as f64);
        if let Err(e) = answer {
            failures.push(format!("online identify: {e}"));
        }
        if done {
            break;
        }
    }
    let (out, outcome) = tracer.span("scenario.outcome", ctx, |_| world.outcome());

    let stats = *world.sim().stats();
    let delivered = stats.benign.delivered + stats.attack.delivered;
    let dropped = stats.benign.dropped() + stats.attack.dropped();
    let injected = stats.benign.injected + stats.attack.injected;
    let mut checks = 2;
    if injected != delivered + dropped
        || delivered != world.sim().delivered().len() as u64
        || dropped != world.sim().drops().len() as u64
    {
        failures.push(format!(
            "conservation: injected {injected} != delivered {delivered} + dropped {dropped} \
             (logs: {} delivered, {} dropped)",
            world.sim().delivered().len(),
            world.sim().drops().len()
        ));
    }
    let named: Vec<u64> = out.json["attribution"]["candidates"]
        .as_array()
        .map(|c| c.iter().filter_map(serde_json::Value::as_u64).collect())
        .unwrap_or_default();
    let truth: Vec<u64> = sc.zombies.iter().map(|&z| u64::from(z)).collect();
    if named != truth {
        failures.push(format!(
            "attribution named {named:?}, zombies are {truth:?}"
        ));
    }
    checks += identify_ns.len() as u64;
    Ok((
        Pass {
            setup,
            step: strides.iter().sum(),
            strides,
            outcome,
            hop_events: stats.benign.total_hops + stats.attack.total_hops,
            completed: delivered + dropped,
            identify_ns,
            digest: out.digest,
            failures,
            checks,
        },
        world,
    ))
}
