//! Per-hop routing decision cost, as the simulator's forwarding path
//! pays it: `Router::candidates_into` into a reused buffer, then
//! `SelectionPolicy::pick_for` under the scenario default
//! (productive-first random). One iteration is one decision; the
//! iterations cycle through every ordered source/destination pair of
//! the 8×8 torus with no faults.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddpm_routing::{RouteCtx, RouteState, Router, SelectionPolicy};
use ddpm_topology::{Coord, FaultSet, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_router(c: &mut Criterion, topo: &Topology, router: Router) {
    let faults = FaultSet::none();
    let ctx = RouteCtx::new(topo, &faults);
    let pairs: Vec<(Coord, Coord)> = topo
        .all_nodes()
        .flat_map(|s| topo.all_nodes().map(move |d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect();
    let state = RouteState::with_budget(router.misroute_budget());
    let policy = SelectionPolicy::ProductiveFirstRandom;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut cands = Vec::new();
    let mut i = 0;
    c.bench_function(format!("route/decision/{}/{topo}", router.name()), |b| {
        b.iter(|| {
            let (cur, dst) = &pairs[i];
            i = (i + 1) % pairs.len();
            router.candidates_into(&ctx, black_box(cur), black_box(dst), &state, &mut cands);
            black_box(policy.pick_for(&router, &cands, &mut rng))
        });
    });
}

fn routing_benches(c: &mut Criterion) {
    let torus = Topology::torus(&[8, 8]);
    bench_router(c, &torus, Router::DimensionOrder);
    bench_router(c, &torus, Router::fully_adaptive_for(&torus));
}

criterion_group!(benches, routing_benches);
criterion_main!(benches);
