//! Fully adaptive routing.
//!
//! "Fully adaptive routing does not have such restrictions, so it can
//! forward all the packets successfully" (§3, Fig. 2(c)). Two variants:
//!
//! * [`minimal`] — any productive (distance-reducing) direction; never
//!   misroutes, so it can still block under pathological fault patterns;
//! * [`fully`] — additionally offers non-minimal hops while the packet's
//!   misroute budget lasts, implementing the livelock-avoidance scheme
//!   §4.1 alludes to ("many adaptive routing algorithms allow a packet to
//!   revisit the same node. To prevent livelock … livelock avoidance (or,
//!   recovery) schemes").

use crate::route::{Candidate, RouteCtx};
use crate::state::RouteState;
use ddpm_topology::Coord;

/// All live productive hops from `cur` toward `dst`.
#[must_use]
pub fn minimal(ctx: &RouteCtx<'_>, cur: &Coord, dst: &Coord) -> Vec<Candidate> {
    let mut out = Vec::new();
    minimal_into(ctx, cur, dst, &mut out);
    out
}

/// Allocation-free form of [`minimal`]; appends into `out`.
pub fn minimal_into(ctx: &RouteCtx<'_>, cur: &Coord, dst: &Coord, out: &mut Vec<Candidate>) {
    live_hops_into(ctx, cur, dst, false, out);
}

/// All live hops: productive first, then misroutes while the budget
/// lasts.
#[must_use]
pub fn fully(ctx: &RouteCtx<'_>, cur: &Coord, dst: &Coord, state: &RouteState) -> Vec<Candidate> {
    let mut out = Vec::new();
    fully_into(ctx, cur, dst, state, &mut out);
    out
}

/// Allocation-free form of [`fully`]; appends into `out`.
pub fn fully_into(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
    out: &mut Vec<Candidate>,
) {
    live_hops_into(ctx, cur, dst, state.can_misroute(), out);
}

/// One pass over the live neighbours of `cur`: the productive hops in
/// neighbour order, then (with `misroute`) the others in neighbour
/// order. The base distance `min_hops(cur, dst)` is computed once;
/// misroutes are appended as found and each productive hop is inserted
/// ahead of them, so the result matches a productive pass followed by a
/// misroute pass without walking the neighbours twice.
fn live_hops_into(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    misroute: bool,
    out: &mut Vec<Candidate>,
) {
    let remaining = ctx.topo.min_hops(cur, dst);
    let mut split = out.len();
    ctx.for_each_live_neighbor(cur, |dir, next| {
        if ctx.is_productive_from(remaining, &next, dst) {
            out.insert(
                split,
                Candidate {
                    next,
                    dir,
                    productive: true,
                },
            );
            split += 1;
        } else if misroute {
            out.push(Candidate {
                next,
                dir,
                productive: false,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteCtx, Router};
    use crate::selection::{trace_path, SelectionPolicy};
    use ddpm_topology::{FaultSet, Topology};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn minimal_offers_every_productive_direction() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        let cands = minimal(&ctx, &Coord::new(&[0, 0]), &Coord::new(&[2, 2]));
        assert_eq!(cands.len(), 2); // east and north both productive
        assert!(cands.iter().all(|c| c.productive));
    }

    #[test]
    fn torus_equidistant_offers_both_ring_directions() {
        let topo = Topology::torus(&[4, 4]);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        // Distance 2 both ways around the dim-0 ring.
        let cands = minimal(&ctx, &Coord::new(&[0, 0]), &Coord::new(&[2, 0]));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn fully_respects_budget() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        let with_budget = RouteState::with_budget(4);
        let without = RouteState::with_budget(0);
        let cur = Coord::new(&[1, 1]);
        let dst = Coord::new(&[3, 1]);
        let c1 = fully(&ctx, &cur, &dst, &with_budget);
        let c0 = fully(&ctx, &cur, &dst, &without);
        assert!(c1.len() > c0.len(), "budget should add misroute options");
        assert!(c0.iter().all(|c| c.productive));
        assert!(c1[0].productive, "productive candidates come first");
    }

    #[test]
    fn minimal_adaptive_delivers_all_pairs_minimally() {
        for topo in [
            Topology::mesh2d(4),
            Topology::torus(&[4, 4]),
            Topology::hypercube(4),
        ] {
            let faults = FaultSet::none();
            let mut rng = SmallRng::seed_from_u64(3);
            for s in topo.all_nodes() {
                for d in topo.all_nodes() {
                    if s == d {
                        continue;
                    }
                    let path = trace_path(
                        &topo,
                        &faults,
                        Router::MinimalAdaptive,
                        SelectionPolicy::Random,
                        &mut rng,
                        &s,
                        &d,
                        128,
                    )
                    .unwrap();
                    assert_eq!(path.len() as u32 - 1, topo.min_hops(&s, &d));
                }
            }
        }
    }

    #[test]
    fn fully_adaptive_survives_fault_patterns_that_block_minimal() {
        // Block every productive first hop out of the source; only a
        // misroute can escape.
        let topo = Topology::mesh2d(4);
        let s = Coord::new(&[0, 0]);
        let d = Coord::new(&[2, 0]);
        let mut faults = FaultSet::none();
        faults.add(&topo, &s, &Coord::new(&[1, 0])); // east (productive)
        let mut rng = SmallRng::seed_from_u64(11);
        // Minimal adaptive: north hop from (0,0) is unproductive toward
        // (2,0)? No: (0,1) is 3 hops from (2,0) vs 2 from (0,0) — north is
        // unproductive, so minimal blocks at the source.
        assert!(trace_path(
            &topo,
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &mut rng,
            &s,
            &d,
            64
        )
        .is_err());
        let path = trace_path(
            &topo,
            &faults,
            Router::FullyAdaptive { misroute_budget: 6 },
            SelectionPolicy::ProductiveFirstRandom,
            &mut rng,
            &s,
            &d,
            64,
        )
        .expect("fully adaptive must deliver");
        assert_eq!(path.last(), Some(&d));
        assert!(path.len() as u32 - 1 > topo.min_hops(&s, &d));
    }
}
