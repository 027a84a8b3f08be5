//! Property-based tests for the routing algorithms.
//!
//! The key invariants:
//! * on a healthy network every algorithm delivers every pair;
//! * deterministic routing is path-stable, adaptive routing is not
//!   forced to be;
//! * minimal algorithms produce minimal paths;
//! * candidates never include faulty links;
//! * the fully adaptive misroute budget bounds path inflation;
//! * the one-pass adaptive and turn-model routers offer exactly the
//!   candidates, in exactly the order, of their two-pass definitions.

use ddpm_routing::{trace_path, Candidate, RouteCtx, RouteState, Router, SelectionPolicy};
use ddpm_topology::{Coord, Direction, FaultSet, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (3u16..=8, 3u16..=8).prop_map(|(a, b)| Topology::mesh(&[a, b])),
        (3u16..=6, 3u16..=6).prop_map(|(a, b)| Topology::torus(&[a, b])),
        (2usize..=6).prop_map(Topology::hypercube),
        (2u16..=4, 2u16..=4, 2u16..=4).prop_map(|(a, b, c)| Topology::mesh(&[a, b, c])),
    ]
}

fn arb_case() -> impl Strategy<Value = (Topology, u32, u32, u64)> {
    arb_topology().prop_flat_map(|t| {
        let n = t.num_nodes() as u32;
        (Just(t), 0..n, 0..n, any::<u64>())
    })
}

proptest! {
    #[test]
    fn all_routers_deliver_on_healthy_network((topo, si, di, seed) in arb_case()) {
        let s = topo.coord(NodeId(si));
        let d = topo.coord(NodeId(di));
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(seed);
        for router in Router::all_for(&topo) {
            let max = topo.diameter() * 4 + router.misroute_budget() + 8;
            let path = trace_path(
                &topo, &faults, router,
                SelectionPolicy::ProductiveFirstRandom,
                &mut rng, &s, &d, max,
            );
            let path = path.unwrap_or_else(|e| panic!("{router} failed {s}->{d} on {topo}: {e}"));
            prop_assert_eq!(path.first(), Some(&s));
            prop_assert_eq!(path.last(), Some(&d));
            // Consecutive entries are single hops.
            for w in path.windows(2) {
                prop_assert_eq!(topo.min_hops(&w[0], &w[1]), 1);
            }
            // Productive-first selection on a healthy network: minimal.
            prop_assert_eq!(path.len() as u32 - 1, topo.min_hops(&s, &d));
        }
    }

    #[test]
    fn deterministic_router_is_path_stable((topo, si, di, seed) in arb_case()) {
        let s = topo.coord(NodeId(si));
        let d = topo.coord(NodeId(di));
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(seed);
        let p1 = trace_path(&topo, &faults, Router::DimensionOrder,
            SelectionPolicy::Random, &mut rng, &s, &d, 256).unwrap();
        let p2 = trace_path(&topo, &faults, Router::DimensionOrder,
            SelectionPolicy::Random, &mut rng, &s, &d, 256).unwrap();
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn candidates_never_cross_faults((topo, si, di, seed) in arb_case()) {
        let s = topo.coord(NodeId(si));
        let d = topo.coord(NodeId(di));
        if s == d { return Ok(()); }
        let mut counter = seed;
        let faults = FaultSet::random(&topo, 0.3, || {
            // xorshift-ish deterministic sampler
            counter ^= counter << 13;
            counter ^= counter >> 7;
            counter ^= counter << 17;
            (counter % 1000) as f64 / 1000.0
        });
        for router in Router::all_for(&topo) {
            let ctx = RouteCtx::new(&topo, &faults);
            let state = RouteState::with_budget(router.misroute_budget());
            for c in router.candidates(&ctx, &s, &d, &state) {
                prop_assert!(!faults.is_faulty(&topo, &s, &c.next),
                    "{} offered faulty link {} -> {}", router, s, c.next);
                prop_assert_eq!(
                    c.productive,
                    topo.min_hops(&c.next, &d) < topo.min_hops(&s, &d)
                );
            }
        }
    }

    #[test]
    fn fully_adaptive_path_length_bounded((topo, si, di, seed) in arb_case()) {
        let s = topo.coord(NodeId(si));
        let d = topo.coord(NodeId(di));
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(seed);
        let budget = 6;
        let path = trace_path(
            &topo, &faults,
            Router::FullyAdaptive { misroute_budget: budget },
            SelectionPolicy::Random, // misroutes whenever it fancies
            &mut rng, &s, &d,
            topo.diameter() + 2 * budget + 4,
        );
        if let Ok(path) = &path {
            // Each misroute adds at most 2 hops of inflation.
            prop_assert!(
                path.len() as u32 - 1 <= topo.min_hops(&s, &d) + 2 * budget,
                "path too long: {} vs minimal {}", path.len() - 1, topo.min_hops(&s, &d)
            );
        }
        // HopBudgetExhausted is impossible: budget accounting caps
        // wandering below the max_hops we passed. Blocked is impossible on
        // a healthy network. So the trace must succeed.
        prop_assert!(path.is_ok());
    }
}

/// Meshes (2-D for the turn models, 3-D for negative-first), tori down
/// to the radix-2 ring whose two ring directions reach the same
/// neighbour, and hypercubes.
fn arb_equivalence_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2u16..=6, 2u16..=6).prop_map(|(a, b)| Topology::mesh(&[a, b])),
        (2u16..=4, 2u16..=4, 2u16..=3).prop_map(|(a, b, c)| Topology::mesh(&[a, b, c])),
        (2u16..=5, 2u16..=5).prop_map(|(a, b)| Topology::torus(&[a, b])),
        (2u16..=3).prop_map(|k| Topology::torus(&[k])),
        (1usize..=5).prop_map(Topology::hypercube),
    ]
}

/// The live neighbour of `cur` in direction `dir`, if any.
fn live(ctx: &RouteCtx<'_>, cur: &Coord, dir: Direction) -> Option<Coord> {
    ctx.topo
        .neighbor(cur, dir)
        .filter(|next| !ctx.faults.is_faulty(ctx.topo, cur, next))
}

/// The two-pass definition the routers must reproduce. Adaptive: every
/// live productive neighbour, then (fully adaptive, budget left) every
/// live non-productive one, each pass in neighbour order. Turn models:
/// the directions the model admits, each judged by
/// `RouteCtx::is_productive`, productive first (stable).
fn reference(
    router: Router,
    ctx: &RouteCtx<'_>,
    cur: &Coord,
    dst: &Coord,
    state: &RouteState,
) -> Vec<Candidate> {
    if cur == dst {
        return Vec::new();
    }
    let cand = |(dir, next): (Direction, Coord)| Candidate {
        next,
        dir,
        productive: ctx.is_productive(cur, &next, dst),
    };
    let dirs: Vec<Direction> = match router {
        Router::MinimalAdaptive | Router::FullyAdaptive { .. } => {
            let mut out: Vec<Candidate> = ctx
                .live_neighbors(cur)
                .into_iter()
                .map(cand)
                .filter(|c| c.productive)
                .collect();
            if matches!(router, Router::FullyAdaptive { .. }) && state.can_misroute() {
                out.extend(
                    ctx.live_neighbors(cur)
                        .into_iter()
                        .map(cand)
                        .filter(|c| !c.productive),
                );
            }
            return out;
        }
        Router::WestFirst => {
            let west = Direction::minus(0);
            if dst.get(0) < cur.get(0) {
                if state.moved_any_except(west) {
                    vec![]
                } else {
                    vec![west]
                }
            } else {
                vec![Direction::plus(0), Direction::plus(1), Direction::minus(1)]
            }
        }
        Router::NorthLast => {
            let north = Direction::plus(1);
            let (dx, dy) = (dst.get(0) - cur.get(0), dst.get(1) - cur.get(1));
            if state.has_moved(north) {
                if dy > 0 {
                    vec![north]
                } else {
                    vec![]
                }
            } else if dx == 0 && dy > 0 {
                vec![north]
            } else {
                vec![Direction::plus(0), Direction::minus(0), Direction::minus(1)]
            }
        }
        Router::NegativeFirst => {
            let n = ctx.topo.ndims();
            if (0..n).any(|d| dst.get(d) < cur.get(d)) {
                if state.moved_any_positive() {
                    vec![]
                } else {
                    (0..n).map(Direction::minus).collect()
                }
            } else {
                (0..n).map(Direction::plus).collect()
            }
        }
        Router::DimensionOrder => unreachable!("not a one-pass router"),
    };
    let mut out: Vec<Candidate> = dirs
        .into_iter()
        .filter_map(|dir| live(ctx, cur, dir).map(|next| cand((dir, next))))
        .collect();
    out.sort_by_key(|c| !c.productive);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_routers_match_their_two_pass_definition(
        topo in arb_equivalence_topology(),
        pair in (any::<u64>(), any::<u64>()),
        fault_rate in prop_oneof![Just(0.0), Just(0.15), Just(0.4)],
        dead_switch in any::<u64>(),
        seed in any::<u64>(),
        (budget, used) in (0u32..4, 0u32..4),
        (moved_plus, moved_minus) in (0u16..8, 0u16..8),
    ) {
        let n = topo.num_nodes() as u64;
        let s = topo.coord(NodeId((pair.0 % n) as u32));
        let d = topo.coord(NodeId((pair.1 % n) as u32));
        let mut counter = seed | 1;
        let mut faults = FaultSet::random(&topo, fault_rate, || {
            counter ^= counter << 13;
            counter ^= counter >> 7;
            counter ^= counter << 17;
            (counter % 1000) as f64 / 1000.0
        });
        if dead_switch.is_multiple_of(4) {
            faults.fail_switch(NodeId((dead_switch / 4 % n) as u32));
        }
        let ctx = RouteCtx::new(&topo, &faults);
        // Budgets of 0 and >0, partly spent; an arbitrary turn history
        // (within the topology's dimensions) for the turn models.
        let dims_mask = (1u16 << topo.ndims()) - 1;
        let state = RouteState {
            hops: used,
            misroutes_used: used.min(budget),
            misroute_budget: budget,
            moved_plus: moved_plus & dims_mask,
            moved_minus: moved_minus & dims_mask,
        };
        let mut routers = vec![
            Router::MinimalAdaptive,
            Router::FullyAdaptive { misroute_budget: budget },
        ];
        if matches!(topo, Topology::Mesh(_)) {
            if topo.ndims() == 2 {
                routers.extend([Router::WestFirst, Router::NorthLast]);
            }
            routers.push(Router::NegativeFirst);
        }
        let mut out = vec![Candidate { next: s, dir: Direction::plus(0), productive: true }];
        for router in routers {
            let want = reference(router, &ctx, &s, &d, &state);
            // A dirty reused buffer, as in the simulator's forwarding path.
            router.candidates_into(&ctx, &s, &d, &state, &mut out);
            prop_assert_eq!(&out, &want, "{} at {} -> {} on {}", router, s, d, topo);
        }
    }
}
