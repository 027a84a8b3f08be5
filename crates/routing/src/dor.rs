//! Dimension-order (deterministic) routing.
//!
//! "XY routing forwards packets along rows first and then along columns
//! later. Just one turn is allowed." (§3, Fig. 2(a)). Generalised to n
//! dimensions: correct dimension 0 fully, then dimension 1, and so on —
//! e-cube routing on the hypercube.
//!
//! The algorithm offers exactly one output port; if that port's link is
//! faulty the packet is **blocked**, reproducing Fig. 2(b)'s observation
//! that "XY routing cannot forward any packets because it cannot use the
//! right-side links first."

use crate::route::{Candidate, RouteCtx};
use ddpm_topology::{Coord, Direction, Sign, Topology};

/// The single dimension-order candidate, or empty if its link is faulty.
#[must_use]
pub fn candidates(ctx: &RouteCtx<'_>, cur: &Coord, dst: &Coord) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(1);
    candidates_into(ctx, cur, dst, &mut out);
    out
}

/// Allocation-free form of [`candidates`]; appends into `out`.
pub fn candidates_into(ctx: &RouteCtx<'_>, cur: &Coord, dst: &Coord, out: &mut Vec<Candidate>) {
    let Some(dir) = next_direction(ctx.topo, cur, dst) else {
        return;
    };
    let Some(next) = ctx.topo.neighbor(cur, dir) else {
        return;
    };
    if ctx.faults.is_faulty(ctx.topo, cur, &next) {
        return;
    }
    out.push(Candidate {
        next,
        dir,
        productive: true,
    });
}

/// The unique dimension-order output direction for `cur → dst`, or
/// `None` if already delivered.
#[must_use]
pub fn next_direction(topo: &Topology, cur: &Coord, dst: &Coord) -> Option<Direction> {
    for d in 0..topo.ndims() {
        if cur.get(d) == dst.get(d) {
            continue;
        }
        let sign = match topo {
            Topology::Mesh(_) => {
                if dst.get(d) > cur.get(d) {
                    Sign::Plus
                } else {
                    Sign::Minus
                }
            }
            Topology::Torus(t) => {
                let k = t.dims()[d] as i16;
                // Both coordinates lie in `[0, k)`: wrap by compare-and-add.
                let diff = dst.get(d) - cur.get(d);
                let fwd = if diff < 0 { diff + k } else { diff };
                // Shortest ring direction; ties (fwd == k/2) go Plus.
                if i32::from(fwd) * 2 <= i32::from(k) {
                    Sign::Plus
                } else {
                    Sign::Minus
                }
            }
            Topology::Hypercube(_) => Sign::Plus, // bit toggle
        };
        return Some(Direction { dim: d as u8, sign });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteCtx;
    use crate::state::RouteState;
    use crate::Router;
    use ddpm_topology::FaultSet;

    fn walk(topo: &Topology, faults: &FaultSet, src: &Coord, dst: &Coord) -> Option<Vec<Coord>> {
        let ctx = RouteCtx::new(topo, faults);
        let state = RouteState::default();
        let mut cur = *src;
        let mut path = vec![cur];
        for _ in 0..=topo.diameter() {
            if cur == *dst {
                return Some(path);
            }
            let cands = Router::DimensionOrder.candidates(&ctx, &cur, dst, &state);
            cur = cands.first()?.next;
            path.push(cur);
        }
        (cur == *dst).then_some(path)
    }

    #[test]
    fn xy_routes_rows_then_columns() {
        // From (0,2) to (3,0) on a 4×4 mesh: X (dim 0) corrected first.
        let topo = Topology::mesh2d(4);
        let path = walk(
            &topo,
            &FaultSet::none(),
            &Coord::new(&[0, 2]),
            &Coord::new(&[3, 0]),
        )
        .unwrap();
        assert_eq!(
            path,
            vec![
                Coord::new(&[0, 2]),
                Coord::new(&[1, 2]),
                Coord::new(&[2, 2]),
                Coord::new(&[3, 2]),
                Coord::new(&[3, 1]),
                Coord::new(&[3, 0]),
            ]
        );
    }

    #[test]
    fn dor_is_minimal_everywhere() {
        for topo in [
            Topology::mesh2d(4),
            Topology::torus(&[5, 4]),
            Topology::hypercube(4),
        ] {
            let faults = FaultSet::none();
            for s in topo.all_nodes() {
                for d in topo.all_nodes() {
                    let path = walk(&topo, &faults, &s, &d)
                        .unwrap_or_else(|| panic!("{topo}: blocked {s}->{d}"));
                    assert_eq!(
                        path.len() as u32 - 1,
                        topo.min_hops(&s, &d),
                        "{topo}: non-minimal {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_prefers_wraparound_when_shorter() {
        let topo = Topology::torus(&[8, 8]);
        let path = walk(
            &topo,
            &FaultSet::none(),
            &Coord::new(&[7, 0]),
            &Coord::new(&[1, 0]),
        )
        .unwrap();
        // 7 -> 0 -> 1 across the seam (2 hops), not 7->6->...->1 (6 hops).
        assert_eq!(path.len(), 3);
        assert_eq!(path[1], Coord::new(&[0, 0]));
    }

    #[test]
    fn blocked_by_fault_on_mandatory_link() {
        let topo = Topology::mesh2d(4);
        let mut faults = FaultSet::none();
        // Fail the east link out of (0,0); XY to (2,0) must use it.
        faults.add(&topo, &Coord::new(&[0, 0]), &Coord::new(&[1, 0]));
        let ctx = RouteCtx::new(&topo, &faults);
        let cands = candidates(&ctx, &Coord::new(&[0, 0]), &Coord::new(&[2, 0]));
        assert!(cands.is_empty(), "XY must block, not detour");
    }

    #[test]
    fn ecube_fixes_lowest_dimension_first() {
        let topo = Topology::hypercube(3);
        let path = walk(
            &topo,
            &FaultSet::none(),
            &Coord::new(&[1, 0, 1]),
            &Coord::new(&[0, 1, 0]),
        )
        .unwrap();
        assert_eq!(
            path,
            vec![
                Coord::new(&[1, 0, 1]),
                Coord::new(&[0, 0, 1]),
                Coord::new(&[0, 1, 1]),
                Coord::new(&[0, 1, 0]),
            ]
        );
    }
}
