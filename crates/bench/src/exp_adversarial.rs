//! E-ADV — the Byzantine attribution grid (§4.1 relaxed, measured).
//!
//! The paper assumes switches cannot be compromised and sketches
//! authentication as the remedy (§6.2). This experiment drops the
//! assumption wholesale and measures what every scheme does about it:
//! the full grid of
//!
//! * **topologies** — the 16-node member of each family;
//! * **schemes** — the unauthenticated baselines (`ddpm`, `dpm`,
//!   `ppm-edge`, `tracemax`) against their keyed-tag `auth-*` wrappers
//!   (infeasible cells, e.g. `auth-tracemax` on the 4x4 mesh, are
//!   recorded, not dropped);
//! * **behaviors** — all six [`AdversaryBehavior`]s;
//! * **compromised-switch counts** — 1, 2 and 4 switches from a fixed
//!   pool that straddles the flood paths.
//!
//! Per cell the victim's own collector (quorum/outlier filtering
//! included) reports: whether the framed innocent ends up *convicted*
//! (implicated at conviction confidence), how many true zombies the
//! attribution still names (survival), and how many marks were
//! rejected fail-closed. The committed claims:
//!
//! * every `auth-*` scheme convicts **zero** framed innocents under
//!   every behavior × count;
//! * the unauthenticated baselines measurably frame under the forging
//!   behaviors;
//! * the realized tag-forgery acceptance tracks the `2^-t` design
//!   value within 3x (calibration rows at t = 4 and t = 8, scored
//!   against the adversary's own per-packet tamper ground truth).

use crate::grid::{row, run_cell, sixteen_node_topologies, topology};
use crate::util::{fnum, Report, RunCtx, TextTable};
use ddpm_serve::ScenarioWorld;
use ddpm_sim::{AdversaryBehavior, Attribution, SchemeSpec};
use ddpm_topology::NodeId;
use rayon::prelude::*;
use serde_json::{json, Value};

/// Flooding sources (in range on 16 nodes; paths cross the pool).
const ZOMBIES: [u32; 2] = [1, 6];
/// Flood target.
const VICTIM: u32 = 14;
/// The innocent node the forging behaviors implicate. Chosen outside
/// every scheme's *honest* candidate set on every grid topology (DPM's
/// route-signature collisions implicate {3, 9, 11, 12} alongside the
/// true zombies, and ppm-edge's reconstruction names 10) so that a
/// conviction of this node is adversary-induced by construction.
const FRAMED: u32 = 7;
/// Compromised-switch pool: cell with count `n` takes the first `n`.
/// Disjoint from zombies, victim and the framed node. Ordered so the
/// dimension-order flood paths are crossed early: switch 10 forwards
/// zombie 6's stream on the mesh and the torus, switch 2 forwards
/// zombie 1's on the hypercube, so every topology has tampered
/// deliveries from count 2 on (the torus wraps around 5 and 13 —
/// off-path compromised switches are a measured grid fact, not a bug).
const SWITCH_POOL: [u32; 4] = [10, 2, 5, 13];
/// The switch-count axis.
const COUNTS: [usize; 3] = [1, 2, 4];

/// The scheme axis: each baseline next to its auth wrapper where the
/// 16-node MF budget allows one (`auth-ppm-edge` fits nowhere at 16
/// nodes and `auth-ppm-xor` mirrors `auth-ddpm`'s containment, so the
/// grid keeps the three wrappers with distinct inner layouts).
const SCHEMES: [SchemeSpec; 7] = [
    SchemeSpec::Ddpm,
    SchemeSpec::Dpm,
    SchemeSpec::PpmEdge,
    SchemeSpec::Tracemax,
    SchemeSpec::AuthDdpm,
    SchemeSpec::AuthDpm,
    SchemeSpec::AuthTracemax,
];

/// The shared flood (identical across cells of one run): interleaved
/// zombie streams, each paced at 12 cycles — together under the port
/// service rate on a shared edge.
fn flood(packets_per_zombie: u64) -> Value {
    json!({
        "kind": "udp_flood",
        "zombies": ZOMBIES.to_vec(),
        "victim": VICTIM,
        "packets_per_zombie": packets_per_zombie,
        "interval": 12,
    })
}

/// One grid cell as a scenario: the shared flood on `topology`, marked
/// by `spec`, with the first `count` pool switches running `behavior`.
#[must_use]
pub fn cell(
    topology: &Value,
    spec: SchemeSpec,
    behavior: AdversaryBehavior,
    count: usize,
    seed: u64,
    packets_per_zombie: u64,
) -> Value {
    json!({
        "topology": topology.clone(),
        "router": "dimension_order",
        "policy": "first",
        "scheme": spec.as_str(),
        "adversary": {
            "switches": SWITCH_POOL[..count].to_vec(),
            "behavior": behavior.as_str(),
            "framed": behavior.needs_framed().then_some(FRAMED),
            "seed": seed ^ 0xADC0_11DE,
        },
        "seed": seed,
        "background_interval": 0,
        "attack": flood(packets_per_zombie),
    })
}

/// Scores a finished cell from the victim's side: the honest collector
/// over every delivery, with tag verification (fail-closed) for the
/// `auth-*` schemes, plus the adversary's own tamper ground truth.
///
/// The measurements: `survival` (true zombies still implicated),
/// `framed_implicated`, `framed_convicted` (implicated at conviction
/// confidence — the number that must be zero for every `auth-*`
/// scheme), the collector's `confidence`, the attack deliveries it
/// `observed` and `rejected` fail-closed, and `tampered_delivered`
/// (deliveries the adversary touched).
#[must_use]
pub fn score(world: &ScenarioWorld) -> Value {
    let a = world.identify(None).expect("the flood names its victim");
    let att = Attribution {
        candidates: a.candidates.iter().copied().map(NodeId).collect(),
        confidence: a.confidence,
    };
    let framed = NodeId(FRAMED);
    json!({
        "framed_implicated": att.implicates(framed),
        "framed_convicted": att.convicts(framed),
        "survival": ZOMBIES.iter().filter(|&&z| att.implicates(NodeId(z))).count(),
        "confidence": att.confidence,
        "observed": a.observed,
        "rejected": a.rejected,
        "tampered_delivered": tampered_delivered(world),
    })
}

/// Delivered packets some compromised switch misbehaved on. Counts
/// packets, where the adversary's `total_tampered` counts marks.
fn tampered_delivered(world: &ScenarioWorld) -> u64 {
    let adv = world
        .adversary()
        .expect("every adversarial cell has an adversary");
    world
        .sim()
        .delivered()
        .iter()
        .filter(|d| adv.was_tampered(d.packet.id))
        .count() as u64
}

/// A tag-forgery calibration cell: `auth-ddpm` at an explicit tag
/// width under the mark-flood behavior on the 4x4 mesh. Switches 5 and
/// 10 sit on the mesh's two flood paths (1->14 crosses 5, 6->14
/// crosses 10), so *both* streams are tampered and every delivery
/// exercises the verifier.
#[must_use]
pub fn calibration_cell(tag_bits: u32, packets_per_zombie: u64, seed: u64) -> Value {
    json!({
        "topology": {"kind": "mesh", "dims": [4, 4]},
        "router": "dimension_order",
        "policy": "first",
        "scheme": "auth-ddpm",
        "tag_bits": tag_bits,
        "adversary": {
            "switches": [5, 10],
            "behavior": "mark-flood",
            "framed": FRAMED,
            "seed": seed ^ u64::from(tag_bits),
        },
        "seed": seed,
        "background_interval": 0,
        "attack": flood(packets_per_zombie),
    })
}

/// Scores a calibration cell against the adversary's per-packet tamper
/// ground truth. Returns `(tampered, accepted)`: delivered packets the
/// adversary touched, and how many of those the victim's verifier
/// nevertheless accepted. The design value is `2^-t` per tag check.
/// An honest switch that rejects a forged tag leaves it in place, so
/// every honest hop after the compromised ones checks it again against
/// two TTL values: the measured rate sits above `2^-t`, and the
/// committed bound is 3x.
#[must_use]
pub fn forgery_acceptance(world: &ScenarioWorld) -> (u64, u64) {
    let tampered = tampered_delivered(world);
    // Honest streams verify completely (the bake-off pins that), so
    // every rejection is a tampered packet: the accepted remainder is
    // the realized forgery acceptance.
    let rejected = world.identify(None).expect("the flood names its victim").rejected;
    (tampered, tampered.saturating_sub(rejected))
}

/// Runs the adversarial grid.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let seed = ctx.seed_or(0xADC0);
    let ppz = ctx.scaled(160);

    let mut body = format!(
        "Grid: 16-node mesh/torus/hypercube x {} schemes x {} behaviors x \
         1/2/4 compromised switches (pool {:?}), zombies {:?} -> victim {VICTIM}, \
         framed innocent {FRAMED}, {ppz} packets per zombie (seed {seed}).\n\
         `convicted` = the victim's quorum collector implicates the framed node at \
         conviction confidence; `survival` = true zombies still named.\n\n",
        SCHEMES.len(),
        AdversaryBehavior::ALL.len(),
        SWITCH_POOL,
        ZOMBIES,
    );

    // Every grid cell is an independent seeded scenario, so the sweep
    // fans out on the rayon pool; `par_iter` collects in cell order, so
    // the assembled report (tables and JSON alike) is byte-identical to
    // the serial sweep. A scheme whose MF budget rejects a topology
    // fails every one of its cells at world build, cheaply.
    let topos = sixteen_node_topologies();
    let mut cells = Vec::new();
    for topo in &topos {
        for spec in SCHEMES {
            for behavior in AdversaryBehavior::ALL {
                for (ci, &count) in COUNTS.iter().enumerate() {
                    let cell_seed = seed.wrapping_add(ci as u64);
                    cells.push(cell(topo, spec, behavior, count, cell_seed, ppz));
                }
            }
        }
    }
    let computed: Vec<Result<Value, String>> = cells
        .par_iter()
        .map(|c| run_cell(c).map(|world| score(&world)))
        .collect();
    let per_scheme = AdversaryBehavior::ALL.len() * COUNTS.len();
    let mut outcomes = cells.iter().zip(&computed);

    let mut jrows = Vec::new();
    for topo in &topos {
        let topo = topology(topo).describe();
        let mut t = TextTable::new(&[
            "scheme",
            "behavior",
            "convicted @1/2/4",
            "survival @1/2/4",
            "rejected @1/2/4",
        ]);
        for spec in SCHEMES {
            let scheme: Vec<_> = outcomes.by_ref().take(per_scheme).collect();
            // Feasibility walls are grid facts, not missing rows.
            if let (scenario, Err(e)) = scheme[0] {
                t.row_strs(&[spec.as_str(), "-", "infeasible", "-", "-"]);
                jrows.push(json!({
                    "topology": topo,
                    "scheme": spec.as_str(),
                    "infeasible": e,
                    "scenario": scenario.clone(),
                }));
                continue;
            }
            for (&behavior, by_count) in AdversaryBehavior::ALL
                .iter()
                .zip(scheme.chunks(COUNTS.len()))
            {
                let expect = "a feasible scheme runs every cell";
                let measured: Vec<&Value> = by_count
                    .iter()
                    .map(|(_, m)| m.as_ref().expect(expect))
                    .collect();
                for ((&count, (scenario, _)), m) in COUNTS.iter().zip(by_count).zip(&measured) {
                    let labels = json!({
                        "topology": topo,
                        "scheme": spec.as_str(),
                        "behavior": behavior.as_str(),
                        "switches": count,
                        "scenario": (*scenario).clone(),
                    });
                    jrows.push(row(labels, m));
                }
                let column = |key: &str| {
                    let values: Vec<String> = measured.iter().map(|m| m[key].to_string()).collect();
                    values.join("/")
                };
                t.row(&[
                    spec.as_str().to_string(),
                    behavior.as_str().to_string(),
                    column("framed_convicted"),
                    column("survival"),
                    column("rejected"),
                ]);
            }
        }
        body.push_str(&format!("{topo}:\n{}\n", t.render()));
    }

    // Forgery-acceptance calibration against the 2^-t design value.
    let cal_ppz = ctx.scaled(1500);
    let mut cal = TextTable::new(&[
        "tag bits",
        "tampered delivered",
        "accepted",
        "measured rate",
        "design 2^-t",
    ]);
    let mut jcal = Vec::new();
    for tag_bits in [4u32, 8] {
        let scenario = calibration_cell(tag_bits, cal_ppz, seed);
        let (tampered, accepted) =
            forgery_acceptance(&run_cell(&scenario).expect("auth-ddpm fits a 4x4 mesh"));
        let rate = if tampered == 0 {
            0.0
        } else {
            accepted as f64 / tampered as f64
        };
        let design = f64::from(1u32 << tag_bits).recip();
        cal.row(&[
            tag_bits.to_string(),
            tampered.to_string(),
            accepted.to_string(),
            fnum(rate),
            fnum(design),
        ]);
        jcal.push(json!({
            "tag_bits": tag_bits,
            "tampered": tampered,
            "accepted": accepted,
            "measured_rate": rate,
            "design_rate": design,
            "scenario": scenario,
        }));
    }
    body.push_str(&format!(
        "Forgery-acceptance calibration (auth-ddpm, mark-flood, 4x4 mesh, \
         {cal_ppz} packets per zombie):\n{}\n\
         Reading: the auth-* wrappers convict zero framed innocents in every \
         cell — pollution is rejected fail-closed and the quorum filter drops \
         the ~2^-t lucky forgeries as outliers — while the unauthenticated \
         baselines convict the framed node wholesale under the forging \
         behaviors. Survival degrades only on streams whose every path \
         crosses a compromised switch; the clean streams keep attributing.\n",
        cal.render(),
    ));

    Report {
        key: "adversarial",
        title: "Byzantine attribution grid — schemes x behaviors x compromised switches"
            .into(),
        body,
        json: json!({
            "seed": seed,
            "zombies": ZOMBIES.to_vec(),
            "victim": VICTIM,
            "framed": FRAMED,
            "switch_pool": SWITCH_POOL.to_vec(),
            "packets_per_zombie": ppz,
            "grid": jrows,
            "calibration": jcal,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline acceptance claim, on the quick grid: zero framed
    /// convictions for every auth-* cell under every behavior and
    /// count; measured framing for the unauthenticated baselines.
    #[test]
    fn auth_schemes_never_convict_the_framed_innocent() {
        let ctx = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        let report = run(&ctx);
        let grid = report.json["grid"].as_array().unwrap();
        assert!(grid.len() > 100, "full grid ran: {} rows", grid.len());

        let mut auth_cells = 0;
        let mut unauth_framings = 0;
        for row in grid {
            if !row["infeasible"].is_null() {
                continue;
            }
            let scheme = row["scheme"].as_str().unwrap();
            if scheme.starts_with("auth-") {
                auth_cells += 1;
                assert_eq!(
                    row["framed_convicted"], false,
                    "auth cell convicted the framed innocent: {row:?}"
                );
            } else if row["framed_convicted"].as_bool() == Some(true) {
                unauth_framings += 1;
            }
        }
        assert!(auth_cells > 50, "auth cells measured: {auth_cells}");
        assert!(
            unauth_framings > 0,
            "the unauthenticated baselines must measurably frame"
        );

        // The deterministic baseline frames wholesale: whenever a
        // ddpm + frame cell has any tampered delivery, the framed node
        // is convicted — and the full pool (count 4) reaches a flood
        // path on every topology, so each one measures that conviction.
        let mut topos_framed = 0;
        for row in grid {
            if row["scheme"] == "ddpm" && row["behavior"] == "frame" {
                let tampered = row["tampered_delivered"].as_u64().unwrap();
                if tampered > 0 {
                    assert_eq!(row["framed_convicted"], true, "{row:?}");
                }
                if row["switches"].as_u64() == Some(4) {
                    assert!(tampered > 0, "count-4 pool misses every path: {row:?}");
                    topos_framed += 1;
                }
            }
        }
        assert_eq!(topos_framed, 3, "one wholesale-framing proof per topology");

        // Calibration rows exist for both committed widths.
        let cal = report.json["calibration"].as_array().unwrap();
        assert_eq!(cal.len(), 2);
    }

    /// Realized forgery acceptance within 3x of the 2^-t design value,
    /// at full sample sizes (the committed acceptance bound).
    #[test]
    fn forgery_acceptance_tracks_the_design_rate() {
        for (tag_bits, ppz) in [(4u32, 800u64), (8, 3000)] {
            let world = run_cell(&calibration_cell(tag_bits, ppz, 7)).unwrap();
            let (tampered, accepted) = forgery_acceptance(&world);
            assert!(
                tampered > ppz,
                "both zombie streams cross the evil pool: {tampered}"
            );
            let rate = accepted as f64 / tampered as f64;
            let design = f64::from(1u32 << tag_bits).recip();
            assert!(
                rate <= 3.0 * design,
                "t={tag_bits}: measured {rate} above 3x the design {design}"
            );
            assert!(
                rate >= design / 3.0,
                "t={tag_bits}: measured {rate} below a third of the design {design} \
                 ({accepted}/{tampered}) — the verifier is rejecting more than tags"
            );
        }
    }
}
