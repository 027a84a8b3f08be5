//! Experiment cells as scenarios: the one way the grid experiments
//! (E-ADV, E-BAKEOFF, E-RESIL and the chaos soak) assemble a run.
//!
//! A cell is a scenario JSON value in the language of `scenarios/`. It
//! loads through the fail-closed [`ScenarioConfig::from_json`] and runs
//! in a [`ScenarioWorld`], the same path the `scenario` binary, the
//! service and perfbench take. Each experiment keeps only its grid and
//! its victim-side scoring over the finished world; every report row
//! carries the cell it ran, so `scenario -- cell.json` reproduces it.

use ddpm_serve::scenario::{fault_event_json, ScenarioConfig, TopologySpec};
use ddpm_serve::ScenarioWorld;
use ddpm_topology::{ChurnConfig, FaultSchedule, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, FromJson, Value};

/// Loads one cell through the scenario loader and runs it to
/// completion. Deterministic: the same cell always yields the same
/// finished world.
///
/// # Errors
/// The loader's message for a malformed cell (unknown keys included),
/// or the world's for an infeasible one (a topology too large for the
/// scheme's MF budget, an adversary spec out of range).
pub fn run_cell(cell: &Value) -> Result<ScenarioWorld, String> {
    let cfg = ScenarioConfig::from_json(cell).map_err(|e| format!("scenario: {e}"))?;
    let mut world = ScenarioWorld::build(&cfg, None, None)?;
    world.run_to_completion()?;
    Ok(world)
}

/// Builds the topology a cell's `"topology"` value describes.
///
/// # Panics
/// If the value is not a valid topology spec — grids write their own.
#[must_use]
pub fn topology(spec: &Value) -> Topology {
    TopologySpec::from_json(spec)
        .unwrap_or_else(|e| panic!("grid topology {spec}: {e}"))
        .build()
}

/// The 16-node member of each topology family: the only sizes every
/// base scheme's MF budget accepts.
#[must_use]
pub fn sixteen_node_topologies() -> Vec<Value> {
    vec![
        json!({"kind": "mesh", "dims": [4, 4]}),
        json!({"kind": "torus", "dims": [4, 4]}),
        json!({"kind": "hypercube", "n": 4}),
    ]
}

/// Draws a random link/switch fail-and-repair churn on `topology` as a
/// cell's `"fault_schedule"` value. The draw is a pure function of
/// `seed`.
#[must_use]
pub fn churn_schedule(topology: &Value, churn: &ChurnConfig, seed: u64) -> Value {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schedule = FaultSchedule::churn(&self::topology(topology), churn, || rng.gen::<f64>());
    Value::Array(
        schedule
            .iter()
            .map(|(at, ev)| fault_event_json(at, ev))
            .collect(),
    )
}

/// A report row: `labels` (the cell's coordinates and scenario) with
/// every field of `measured` added.
#[must_use]
pub fn row(mut labels: Value, measured: &Value) -> Value {
    if let (Value::Object(row), Some(m)) = (&mut labels, measured.as_object()) {
        for (k, v) in m.iter() {
            row.insert(k.clone(), v.clone());
        }
    }
    labels
}
