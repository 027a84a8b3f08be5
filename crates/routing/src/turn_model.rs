//! Turn-model partially adaptive routing.
//!
//! "West-first routing forwards packets west first, if necessary, and
//! then forwards east, south and north adaptively." (§3, Fig. 2(b)). The
//! turn model forbids the turns that would close a cycle: once a
//! west-first packet has left its westward phase it may never turn west
//! again — which is exactly why Fig. 2(c)'s fault pattern (all paths must
//! turn west just east of the destination) defeats it.
//!
//! Alongside west-first we provide north-last (the other classic 2-D
//! turn model) and negative-first, which generalises to n-dimensional
//! meshes. All three are mesh-only: turn models assume a network without
//! wrap-around cycles.
//!
//! Candidate ordering: productive hops first, then permitted
//! non-productive (misroute) hops. Selection policies prefer productive
//! hops, so misroutes only happen around faults or congestion.

use crate::route::{Candidate, RouteCtx, Router};
use crate::state::RouteState;
use ddpm_topology::{Coord, Direction, Topology};

/// Pushes the hop `cur → dir` if its link is live, judged productive by
/// the one dimension it changes.
fn push_if_live(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    dir: Direction,
    out: &mut Vec<Candidate>,
) {
    if let Some(next) = ctx.topo.neighbor(cur, dir) {
        if !ctx.faults.is_faulty(ctx.topo, cur, &next) {
            out.push(Candidate {
                next,
                dir,
                productive: ctx.topo.hop_is_productive(cur, dir, dst),
            });
        }
    }
}

fn order_productive_first(cands: &mut [Candidate]) {
    // Stable, and at most `degree` elements — the std sort runs its
    // allocation-free insertion path at these lengths.
    cands.sort_by_key(|c| !c.productive);
}

fn assert_defined_on(router: Router, topo: &Topology) {
    if let Err(e) = router.check_topology(topo) {
        panic!("{e}");
    }
}

/// West-first candidates (2-D mesh).
///
/// A packet may travel west only while west is the *only* direction it
/// has ever taken — turning (back) into west after an east/north/south
/// move is exactly the turn the model prohibits. That is why Fig. 2(c)
/// defeats west-first: "all paths should turn west at the right side
/// node of D. West-first routing cannot route in this situation because
/// packets should turn west at the last turn, not first."
///
/// # Panics
/// Panics if the topology is not a 2-D mesh.
#[must_use]
pub fn west_first(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(3);
    west_first_into(ctx, cur, dst, state, &mut out);
    out
}

/// Allocation-free form of [`west_first`]; appends into `out`.
///
/// # Panics
/// Panics if the topology is not a 2-D mesh.
pub fn west_first_into(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
    out: &mut Vec<Candidate>,
) {
    assert_defined_on(Router::WestFirst, ctx.topo);
    let dx = dst.get(0) - cur.get(0);
    let west = Direction::minus(0);
    if dx < 0 {
        // Westward phase: legal only if the packet has moved nowhere but
        // west so far; otherwise it is stuck (blocked), by the model.
        if !state.moved_any_except(west) {
            push_if_live(ctx, cur, dst, west, out);
        }
        return;
    }
    // Adaptive phase: east, north, south — productive or not.
    push_if_live(ctx, cur, dst, Direction::plus(0), out); // east
    push_if_live(ctx, cur, dst, Direction::plus(1), out); // north
    push_if_live(ctx, cur, dst, Direction::minus(1), out); // south
    order_productive_first(out);
}

/// North-last candidates (2-D mesh).
///
/// Packets travel east/west/south adaptively; the northward run is taken
/// only once the east–west offset is closed, and can never be left.
///
/// # Panics
/// Panics if the topology is not a 2-D mesh.
#[must_use]
pub fn north_last(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(3);
    north_last_into(ctx, cur, dst, state, &mut out);
    out
}

/// Allocation-free form of [`north_last`]; appends into `out`.
///
/// # Panics
/// Panics if the topology is not a 2-D mesh.
pub fn north_last_into(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
    out: &mut Vec<Candidate>,
) {
    assert_defined_on(Router::NorthLast, ctx.topo);
    let north = Direction::plus(1);
    let dx = dst.get(0) - cur.get(0);
    let dy = dst.get(1) - cur.get(1);
    if state.has_moved(north) {
        // Once the northward run starts it cannot be left.
        if dy > 0 {
            push_if_live(ctx, cur, dst, north, out);
        }
        return;
    }
    if dx == 0 && dy > 0 {
        // Start the final northward run.
        push_if_live(ctx, cur, dst, north, out);
        return;
    }
    push_if_live(ctx, cur, dst, Direction::plus(0), out); // east
    push_if_live(ctx, cur, dst, Direction::minus(0), out); // west
    push_if_live(ctx, cur, dst, Direction::minus(1), out); // south
    order_productive_first(out);
}

/// Negative-first candidates (n-dimensional mesh).
///
/// Phase 1 takes all required negative-direction hops (adaptively, in
/// any dimension order); phase 2 takes positive-direction hops. Turns
/// from positive back to negative are forbidden.
///
/// # Panics
/// Panics if the topology is not a mesh.
#[must_use]
pub fn negative_first(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(ctx.topo.ndims());
    negative_first_into(ctx, cur, dst, state, &mut out);
    out
}

/// Allocation-free form of [`negative_first`]; appends into `out`.
///
/// # Panics
/// Panics if the topology is not a mesh.
pub fn negative_first_into(
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
    out: &mut Vec<Candidate>,
) {
    assert_defined_on(Router::NegativeFirst, ctx.topo);
    let n = ctx.topo.ndims();
    let needs_negative = (0..n).any(|d| dst.get(d) < cur.get(d));
    if needs_negative {
        // Negative moves are legal only before any positive move; a
        // packet that overshot positively and now needs a negative hop
        // is blocked (the prohibited positive→negative turn).
        if !state.moved_any_positive() {
            for d in 0..n {
                push_if_live(ctx, cur, dst, Direction::minus(d), out);
            }
        }
    } else {
        for d in 0..n {
            push_if_live(ctx, cur, dst, Direction::plus(d), out);
        }
    }
    order_productive_first(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteCtx, Router};
    use crate::selection::{trace_path, SelectionPolicy};
    use crate::state::RouteState;
    use ddpm_topology::FaultSet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn west_first_goes_west_exclusively_when_needed() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        let cands = west_first(
            &ctx,
            &Coord::new(&[3, 1]),
            &Coord::new(&[0, 3]),
            &RouteState::default(),
        );
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].next, Coord::new(&[2, 1]));
        assert!(cands[0].productive);
    }

    #[test]
    fn west_first_adaptive_phase_offers_three_sides() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        let cands = west_first(
            &ctx,
            &Coord::new(&[1, 1]),
            &Coord::new(&[3, 2]),
            &RouteState::default(),
        );
        // east (productive), north (productive), south (misroute).
        assert_eq!(cands.len(), 3);
        assert!(cands[0].productive && cands[1].productive);
        assert!(!cands[2].productive);
        assert_eq!(cands[2].next, Coord::new(&[1, 0]));
    }

    #[test]
    fn west_first_routes_around_east_fault() {
        // Fig. 2(b): the east link out of the source fails; west-first
        // detours via north/south while XY blocks.
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        let s = Coord::new(&[0, 1]);
        let d = Coord::new(&[2, 1]);
        faults.add(&topo, &s, &Coord::new(&[1, 1]));
        let mut rng = SmallRng::seed_from_u64(7);
        // XY blocks:
        assert!(trace_path(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &mut rng,
            &s,
            &d,
            64
        )
        .is_err());
        // West-first delivers:
        let path = trace_path(
            &topo,
            &faults,
            Router::WestFirst,
            SelectionPolicy::ProductiveFirstRandom,
            &mut rng,
            &s,
            &d,
            64,
        )
        .expect("west-first must deliver");
        assert_eq!(path.last(), Some(&d));
    }

    #[test]
    fn north_last_defers_north() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        // dx != 0: north not offered even though dy > 0.
        let cands = north_last(
            &ctx,
            &Coord::new(&[0, 0]),
            &Coord::new(&[2, 2]),
            &RouteState::default(),
        );
        assert!(cands.iter().all(|c| c.dir != Direction::plus(1)));
        // dx == 0: only north.
        let cands = north_last(
            &ctx,
            &Coord::new(&[2, 0]),
            &Coord::new(&[2, 2]),
            &RouteState::default(),
        );
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].dir, Direction::plus(1));
    }

    #[test]
    fn negative_first_phases() {
        let topo = Topology::mesh(&[4, 4, 4]);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        // Needs a negative move in dim 2: all candidates negative.
        let cands = negative_first(
            &ctx,
            &Coord::new(&[1, 1, 3]),
            &Coord::new(&[3, 1, 0]),
            &RouteState::default(),
        );
        assert!(cands
            .iter()
            .all(|c| c.dir.sign == ddpm_topology::Sign::Minus));
        // No negative moves needed: all candidates positive.
        let cands = negative_first(
            &ctx,
            &Coord::new(&[1, 1, 0]),
            &Coord::new(&[3, 2, 0]),
            &RouteState::default(),
        );
        assert!(cands
            .iter()
            .all(|c| c.dir.sign == ddpm_topology::Sign::Plus));
    }

    #[test]
    fn turn_models_deliver_all_pairs_on_healthy_mesh() {
        let topo = Topology::mesh2d(4);
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(42);
        for router in [Router::WestFirst, Router::NorthLast, Router::NegativeFirst] {
            for s in topo.all_nodes() {
                for d in topo.all_nodes() {
                    if s == d {
                        continue;
                    }
                    let path = trace_path(
                        &topo,
                        &faults,
                        router,
                        SelectionPolicy::ProductiveFirstRandom,
                        &mut rng,
                        &s,
                        &d,
                        128,
                    )
                    .unwrap_or_else(|e| panic!("{router}: {s}->{d}: {e}"));
                    assert_eq!(path.last(), Some(&d));
                    // Healthy network, productive-first selection: minimal.
                    assert_eq!(path.len() as u32 - 1, topo.min_hops(&s, &d));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2-D meshes")]
    fn west_first_rejects_torus() {
        let topo = Topology::torus(&[4, 4]);
        let faults = FaultSet::none();
        let ctx = RouteCtx::new(&topo, &faults);
        let state = RouteState::default();
        let _ =
            Router::WestFirst.candidates(&ctx, &Coord::new(&[0, 0]), &Coord::new(&[1, 1]), &state);
    }
}
