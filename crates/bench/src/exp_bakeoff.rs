//! E-BAKEOFF — every [`MarkingScheme`] plugin under identical traffic.
//!
//! The two-sided plugin API makes the paper's qualitative comparison
//! (§4 vs §5, Tables 1–3) directly measurable: each scheme is a
//! switch-side marker plus a victim-side collector, so the same seeded
//! flood can be replayed per scheme and per topology and the victim's
//! view compared like for like:
//!
//! * **packets to identify** — deliveries the collector needed before
//!   its candidate set covered every true zombie (DDPM's single-packet
//!   claim vs PPM's coupon-collector convergence);
//! * **false-attribution rate** — fraction of the final candidate set
//!   that is *not* a true zombie (DPM's signature collisions, PPM's
//!   spurious mark combinations);
//! * **MF-bit budget** and **per-hop cost** — the scheme's static price
//!   (`mf_bits()` / `per_hop_cost()` introspection).
//!
//! Routing is dimension-order with deterministic selection so every
//! scheme sees byte-identical deliveries; the 16-node members of each
//! family are the only sizes all six base MF budgets accept. The
//! `auth-*` variants carve tag bits out of the same field, so a few
//! land on the feasibility wall here — those cells are recorded as
//! infeasible rather than dropped.
//!
//! [`MarkingScheme`]: ddpm_sim::MarkingScheme

use crate::grid::{row, run_cell, sixteen_node_topologies, topology};
use crate::util::{fnum, Report, RunCtx, TextTable};
use ddpm_serve::ScenarioWorld;
use ddpm_sim::SchemeSpec;
use ddpm_topology::NodeId;
use rayon::prelude::*;
use serde_json::{json, Value};

/// Flooding sources shared by every run (in range on 16 nodes).
const ZOMBIES: [u32; 2] = [3, 5];
/// Flood target shared by every run.
const VICTIM: u32 = 14;

/// One (topology, scheme) cell as a scenario: `packets_per_zombie`
/// packets from each zombie to the victim on an otherwise idle fabric,
/// identical across schemes by construction — only the marker differs
/// between cells.
///
/// Each zombie sends every 12 cycles, so the combined rate on any
/// shared edge stays under the port service rate: the comparison
/// measures what each *collector* extracts from the same deliveries,
/// so contention must not silently starve one zombie's stream (on the
/// hypercube both DOR paths share the victim's ingress edge).
#[must_use]
pub fn cell(topology: &Value, spec: SchemeSpec, seed: u64, packets_per_zombie: u64) -> Value {
    json!({
        "topology": topology.clone(),
        "router": "dimension_order",
        "policy": "first",
        "scheme": spec.as_str(),
        "seed": seed,
        "background_interval": 0,
        "attack": {
            "kind": "udp_flood",
            "zombies": ZOMBIES.to_vec(),
            "victim": VICTIM,
            "packets_per_zombie": packets_per_zombie,
            "interval": 12,
        },
    })
}

/// Scores a finished cell: the victim's collector replays the
/// deliveries in order, noting when its candidate set first covers
/// every zombie.
///
/// The measurements: the scheme's static price (`mf_bits`,
/// `per_hop_cost`), `packets_to_identify` (deliveries until the
/// candidate set covered every zombie; null = never), the final
/// `candidates` count, `false_attribution_rate` (the fraction of
/// candidates that are not true zombies), `confidence`, and the attack
/// deliveries `observed`.
#[must_use]
pub fn score(world: &ScenarioWorld) -> Value {
    let scheme = world.scheme();
    let zombies: Vec<NodeId> = ZOMBIES.iter().map(|&z| NodeId(z)).collect();
    let mut collector = scheme.collector(world.topology(), NodeId(VICTIM));
    let mut packets_to_identify = None;
    for d in world.sim().delivered() {
        // observe_packet, not observe: the auth-* collectors verify the
        // delivered header's keyed tag (an honest run passes); everyone
        // else defaults to plain field observation.
        collector.observe_packet(&d.packet);
        if packets_to_identify.is_none() {
            let att = collector.attribute();
            if zombies.iter().all(|z| att.implicates(*z)) {
                packets_to_identify = Some(collector.observed());
            }
        }
    }
    let att = collector.attribute();
    let wrong = att
        .candidates
        .iter()
        .filter(|c| !zombies.contains(c))
        .count();
    let false_rate = if att.candidates.is_empty() {
        0.0
    } else {
        wrong as f64 / att.candidates.len() as f64
    };
    json!({
        "scheme": scheme.name(),
        "mf_bits": scheme.mf_bits(),
        "per_hop_cost": scheme.per_hop_cost().describe(),
        "packets_to_identify": packets_to_identify,
        "candidates": att.candidates.len(),
        "false_attribution_rate": false_rate,
        "confidence": att.confidence,
        "observed": collector.observed(),
    })
}

/// Runs one cell and scores it.
///
/// # Errors
/// The scheme's feasibility wall when its MF budget rejects the
/// topology.
pub fn measure(cell: &Value) -> Result<Value, String> {
    run_cell(cell).map(|world| score(&world))
}

/// Runs the bake-off.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let seed = ctx.seed_or(2004);
    let ppz = ctx.scaled(200);
    let mut body = format!(
        "Identical seeded flood per topology: zombies {:?} -> victim {VICTIM}, \
         {ppz} packets each, dimension-order routing (seed {seed}).\n\
         `pkts->id` = deliveries until the collector's candidate set covered \
         every zombie.\n\n",
        ZOMBIES,
    );
    // Every (topology, scheme) cell is an independent seeded scenario,
    // so the grid fans out on the rayon pool; `par_iter` collects in
    // cell order, so the report (tables and JSON alike) is
    // byte-identical to the serial sweep.
    let topos = sixteen_node_topologies();
    let cells: Vec<Value> = topos
        .iter()
        .flat_map(|t| {
            SchemeSpec::ALL
                .iter()
                .map(move |&spec| cell(t, spec, seed, ppz))
        })
        .collect();
    let rows: Vec<Result<Value, String>> = cells.par_iter().map(measure).collect();
    let mut outcomes = cells.into_iter().zip(rows);
    let mut jtopos = Vec::new();
    for topo in &topos {
        let mut t = TextTable::new(&[
            "scheme",
            "MF bits",
            "per-hop cost",
            "pkts->id",
            "candidates",
            "false-attrib",
            "confidence",
        ]);
        let mut jrows = Vec::new();
        for spec in SchemeSpec::ALL {
            // A scheme whose MF budget rejects this topology is a
            // recorded feasibility wall, not a missing row: auth-*
            // variants pay tag bits out of the same 16-bit field.
            let (scenario, measured) = outcomes.next().expect("one row per cell");
            match measured {
                Ok(m) => {
                    let num = |key: &str| m[key].as_f64().expect("a measured number");
                    t.row(&[
                        spec.as_str().to_string(),
                        m["mf_bits"].to_string(),
                        m["per_hop_cost"].as_str().expect("a cost").to_string(),
                        m["packets_to_identify"]
                            .as_u64()
                            .map_or_else(|| "never".into(), |n| n.to_string()),
                        m["candidates"].to_string(),
                        fnum(num("false_attribution_rate")),
                        fnum(num("confidence")),
                    ]);
                    jrows.push(row(json!({"scenario": scenario}), &m));
                }
                Err(e) => {
                    t.row_strs(&[spec.as_str(), "-", "infeasible", "-", "-", "-", "-"]);
                    jrows.push(json!({
                        "scheme": spec.as_str(),
                        "infeasible": e,
                        "scenario": scenario,
                    }));
                }
            }
        }
        let topo = topology(topo).describe();
        body.push_str(&format!("{topo}:\n{}\n", t.render()));
        jtopos.push(json!({"topology": topo, "rows": jrows}));
    }
    body.push_str(
        "DDPM and tracemax identify from the first packet per zombie; DPM needs\n\
         its signature table and inherits collision false-attribution; the PPM\n\
         variants pay the coupon-collector convergence the analysis predicts;\n\
         `none` is the no-marking floor (the victim learns nothing).\n",
    );
    Report {
        key: "bakeoff",
        title: "Scheme bake-off — all plugins under identical seeded floods".into(),
        body,
        json: json!({
            "seed": seed,
            "zombies": ZOMBIES.to_vec(),
            "victim": VICTIM,
            "packets_per_zombie": ppz,
            "topologies": jtopos,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_schemes_identify_immediately() {
        for topo in sixteen_node_topologies() {
            for spec in [SchemeSpec::Ddpm, SchemeSpec::Tracemax] {
                let row = measure(&cell(&topo, spec, 7, 40)).unwrap();
                // One packet from each zombie suffices; the second
                // zombie's first delivery closes the set.
                let n = row["packets_to_identify"].as_u64().expect("must identify");
                assert!(n <= 4, "{spec:?} on {topo}: {n} packets");
                assert_eq!(row["candidates"], 2, "{spec:?} on {topo}");
                assert_eq!(row["false_attribution_rate"], 0.0, "{spec:?} on {topo}");
            }
        }
    }

    #[test]
    fn no_marking_never_identifies() {
        let mesh = &sixteen_node_topologies()[0];
        let row = measure(&cell(mesh, SchemeSpec::None, 7, 10)).unwrap();
        assert!(row["packets_to_identify"].is_null(), "{row}");
        assert_eq!(row["candidates"], 0);
        assert_eq!(row["mf_bits"], 0);
    }

    #[test]
    fn full_grid_produces_a_row_per_scheme() {
        let ctx = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        let report = run(&ctx);
        let topos = report.json["topologies"].as_array().unwrap();
        assert_eq!(topos.len(), 3);
        for t in topos {
            let rows = t["rows"].as_array().unwrap();
            assert_eq!(rows.len(), SchemeSpec::ALL.len());
            // auth-ppm-edge pays its tag out of an already-full field:
            // a recorded feasibility wall on every 16-node topology.
            let wall = rows
                .iter()
                .find(|r| r["scheme"] == "auth-ppm-edge")
                .unwrap();
            assert!(wall["infeasible"].as_str().is_some(), "{wall:?}");
            // auth-ddpm fits everywhere at 16 nodes and verifies an
            // honest flood completely.
            let auth = rows.iter().find(|r| r["scheme"] == "auth-ddpm").unwrap();
            assert!(auth["infeasible"].is_null(), "{auth:?}");
            assert!(auth["packets_to_identify"].as_u64().is_some(), "{auth:?}");
        }
        assert!(report.body.contains("tracemax"), "{}", report.body);
    }

    #[test]
    fn ppm_converges_slower_than_ddpm() {
        let mesh = &sixteen_node_topologies()[0];
        let ddpm = measure(&cell(mesh, SchemeSpec::Ddpm, 7, 200)).unwrap();
        let ppm = measure(&cell(mesh, SchemeSpec::PpmEdge, 7, 200)).unwrap();
        let d = ddpm["packets_to_identify"].as_u64().unwrap();
        if let Some(p) = ppm["packets_to_identify"].as_u64() {
            assert!(p > d, "probabilistic ({p}) vs deterministic ({d})");
        } // else: did not converge in the horizon — even slower.
    }
}
