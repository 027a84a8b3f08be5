//! The simulator workloads, `fabric-dor` and `adaptive-auth`.
//!
//! A run repeats whole passes (text → world → stride loop → outcome) of
//! the one seeded scenario until its time is spent. The scenario is
//! deterministic, so every pass does the same work and must produce the
//! same digest, and the run reports the fastest time of each step across
//! passes: interference from other work on the host only ever adds time,
//! and on a shared host the fastest repetition spreads about half as much
//! from run to run as the median one.

use crate::gen::{FloodShape, Scenario};
use crate::layers;
use crate::report::Report;
use crate::stats::{min, quantile};
use crate::trace::{Ctx, Tracer};
use crate::world::{build, run_pass, Pass};
use ddpm_telemetry::{shared, NullSink, TelemetryConfig};
use serde_json::json;
use std::time::{Duration, Instant};

/// Passes every run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 2;
/// Set-up-only builds per run, on top of each pass's own set-up.
const SETUP_SAMPLES: usize = 5;

/// Would one more repetition, as long as the average so far, still end
/// within `budget`?
#[must_use]
pub fn fits(start: Instant, done: usize, budget: Duration) -> bool {
    let spent = start.elapsed();
    done == 0 || spent + spent / done as u32 <= budget
}

/// The step loop's time: over stride positions, the sum of each
/// stride's fastest time across passes. Every pass runs the same strides,
/// so a burst of host noise that slowed one pass's stride drops out.
fn step_secs(passes: &[Pass]) -> f64 {
    let strides = passes.iter().map(|p| p.strides.len()).min().unwrap_or(0);
    (0..strides)
        .map(|i| {
            min(&passes
                .iter()
                .map(|p| p.strides[i].as_secs_f64())
                .collect::<Vec<_>>())
        })
        .sum()
}

/// End-to-end metrics of a set of passes plus extra set-up samples.
fn put_end_to_end(r: &mut Report, passes: &[Pass], mut setups: Vec<f64>) {
    setups.extend(passes.iter().map(|p| p.setup.as_secs_f64()));
    let setup = min(&setups);
    let step = step_secs(passes);
    let outcome = min(&passes
        .iter()
        .map(|p| p.outcome.as_secs_f64())
        .collect::<Vec<_>>());
    let identify: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.identify_ns.iter().map(|ns| ns / 1e3))
        .collect();
    r.put("setup_s", setup, "s");
    r.put(
        "hop_events_per_s",
        passes[0].hop_events as f64 / step,
        "1/s",
    );
    r.put("pps", passes[0].completed as f64 / step, "1/s");
    r.put("verdict_s", setup + step + outcome, "s");
    r.put("identify_p50_us", quantile(&identify, 0.5), "us");
    r.put("identify_p90_us", quantile(&identify, 0.9), "us");
}

/// Tallies each pass's checks, and that every pass reproduced the first
/// pass's digest (and the pinned one, when given).
fn check_passes(r: &mut Report, passes: &[Pass], pinned: Option<&str>) {
    for p in passes {
        r.tally(p.checks, p.failures.iter().cloned());
        let want = pinned.unwrap_or(&passes[0].digest);
        r.tally(
            1,
            (p.digest != want).then(|| format!("digest {} differs from {want}", p.digest)),
        );
    }
}

/// The untraced run: passes until `budget` is spent.
///
/// # Errors
/// Scenario build failures.
pub fn run(
    sc: &Scenario,
    shape: &FloodShape,
    budget: Duration,
    pinned: Option<&str>,
) -> Result<Report, String> {
    let tracer = Tracer::new(false);
    let start = Instant::now();
    // The first build of a process pays the allocator's first touch;
    // users pay that once, so it is left out of the samples.
    drop(build(&sc.text, None, &tracer, Ctx::default())?);
    let setups = (0..SETUP_SAMPLES)
        .map(|_| build(&sc.text, None, &tracer, Ctx::default()).map(|(_, t)| t.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || fits(start, passes.len(), budget) {
        let (pass, _) = run_pass(sc, shape, None, &tracer, Ctx::default(), &mut |_, _| {})?;
        passes.push(pass);
    }
    let mut r = Report::default();
    put_end_to_end(&mut r, &passes, setups);
    check_passes(&mut r, &passes, pinned);
    r.note("passes", json!(passes.len()));
    r.note("setup_samples", json!(SETUP_SAMPLES + passes.len()));
    r.note(
        "identify_samples",
        json!(passes.iter().map(|p| p.identify_ns.len()).sum::<usize>()),
    );
    Ok(r)
}

/// The traced run: an untraced warm-up pass, one traced pass carrying
/// every layer probe, then untraced and telemetry-on passes alternating
/// until `budget` is spent (for `trace.overhead` and
/// `telemetry.on_cost_ratio`).
///
/// # Errors
/// Scenario build failures.
pub fn run_traced(
    sc: &Scenario,
    shape: &FloodShape,
    budget: Duration,
    pinned: Option<&str>,
    tracer: &Tracer,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut r = Report::default();
    let off = Tracer::new(false);
    // The first pass of a process pays the allocator's first touch, which
    // must not land on the traced pass: `trace.overhead` compares it with
    // warm passes.
    let (warm_up, _) = run_pass(sc, shape, None, &off, Ctx::default(), &mut |_, _| {})?;
    let root = Ctx::root(1);
    let mut ckpt = None;
    let (traced, world) = run_pass(sc, shape, None, tracer, root, &mut |w, ctx| {
        ckpt = Some(layers::checkpoint(w, tracer, ctx));
    })?;
    let mut plain = Vec::new();
    let mut telemetry = Vec::new();
    // Each iteration is two passes; warm-up and traced pass count as two more.
    while plain.is_empty() || fits(start, 2 * plain.len() + 2, budget) {
        let (p, _) = run_pass(sc, shape, None, &off, Ctx::default(), &mut |_, _| {})?;
        plain.push(p);
        let tc = TelemetryConfig::events_to(shared(NullSink));
        let (p, _) = run_pass(sc, shape, Some(tc), &off, Ctx::default(), &mut |_, _| {})?;
        telemetry.push(p);
    }
    check_passes(&mut r, std::slice::from_ref(&warm_up), pinned);
    check_passes(
        &mut r,
        std::slice::from_ref(&traced),
        Some(pinned.unwrap_or(&warm_up.digest)),
    );
    check_passes(&mut r, &plain, Some(&traced.digest));
    check_passes(&mut r, &telemetry, Some(&traced.digest));

    let ctx = Ctx::root(2);
    layers::front_end(&mut r, sc, tracer, ctx)?;
    layers::sim_and_core(&mut r, sc, &world, &traced, tracer, ctx)?;
    layers::put_checkpoint(&mut r, ckpt.transpose()?);
    r.put(
        "telemetry.on_cost_ratio",
        step_secs(&telemetry) / step_secs(&plain),
        "ratio",
    );
    let probe = layers::serve_probe(sc, tracer, Ctx::root(3))?;
    r.tally(probe.checks, probe.failures.iter().cloned());
    probe.put(&mut r);

    // Ledger: the stride loop against the layers timed outside it.
    let est_ns = traced.hop_events as f64
        * (r.get("routing.ns_per_hop").unwrap_or(f64::NAN)
            + r.get("core.mark_ns").unwrap_or(f64::NAN));
    r.put(
        "ledger.residual_share",
        1.0 - est_ns / traced.step.as_nanos() as f64,
        "ratio",
    );
    // Untraced over traced hop_events_per_s, less one.
    r.put(
        "trace.overhead",
        traced.step.as_secs_f64() / step_secs(&plain) - 1.0,
        "ratio",
    );
    Ok(r)
}
