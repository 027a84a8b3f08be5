//! The k-ary n-cube (torus).
//!
//! "Torus or k-ary n-cube is similar to n-dimensional mesh. The only
//! difference is that two nodes X and Y are neighboring if and only if the
//! two coordinates are the same except only one dimension such that
//! `x_i = (y_i ± 1) mod k`. … Its degree is `2n` and diameter is
//! `Σ ⌊k_i / 2⌋`." (§3)
//!
//! ## Distance-vector semantics on the torus
//!
//! A single hop across the wrap-around channel changes the raw coordinate
//! difference by `∓(k−1)`, but the *travelled displacement* is `±1`. DDPM
//! must accumulate the travelled displacement (the paper's modular
//! arithmetic); the victim then recovers the source as
//! `s_i = (d_i − v_i) mod k_i`, which is exact because `s_i ∈ [0, k_i)`.
//! [`Torus::reduce`] keeps the accumulated vector in the symmetric residue
//! range `[−⌊k/2⌋, ⌈k/2⌉−1]` so it stays within the marking-field budget
//! no matter how far an adaptive (even non-minimal) path wanders.

use crate::coord::Coord;
use crate::direction::{Direction, Sign};

/// `v mod k` for `v` in `[−k, 2k)`: one compare-and-add instead of the
/// integer division `rem_euclid` costs. The per-hop callers' operands
/// are a coordinate in `[0, k)` plus a unit step, or the difference of
/// two coordinates, so they always fall in that range.
#[inline]
fn wrap(v: i32, k: i32) -> i32 {
    debug_assert!(-k <= v && v < 2 * k, "{v} outside [-{k}, {})", 2 * k);
    if v < 0 {
        v + k
    } else if v >= k {
        v - k
    } else {
        v
    }
}

/// A k-ary n-cube with per-dimension radices `k_i ≥ 2`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Torus {
    dims: Vec<u16>,
}

impl Torus {
    /// Builds a torus with the given per-dimension radices.
    ///
    /// # Panics
    /// Panics if `dims` is empty, has more than [`crate::MAX_DIMS`]
    /// entries, or any radix is `< 2`.
    #[must_use]
    pub fn new(dims: &[u16]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= crate::MAX_DIMS,
            "torus must have 1..={} dimensions",
            crate::MAX_DIMS
        );
        assert!(
            dims.iter().all(|&k| k >= 2),
            "every torus radix must be >= 2, got {dims:?}"
        );
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Convenience constructor for the paper's `k`-ary 2-cube (Fig. 1(b)
    /// is the 4-ary 2-cube).
    #[must_use]
    pub fn kary2cube(k: u16) -> Self {
        Self::new(&[k, k])
    }

    /// Per-dimension radices.
    #[must_use]
    pub fn dims(&self) -> &[u16] {
        &self.dims
    }

    /// Number of dimensions.
    #[must_use]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total node count `Π k_i`.
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        self.dims.iter().map(|&k| u64::from(k)).product()
    }

    /// True if `c` is a valid node coordinate.
    #[must_use]
    pub fn contains(&self, c: &Coord) -> bool {
        c.ndims() == self.ndims()
            && c.iter()
                .zip(self.dims.iter())
                .all(|(v, &k)| v >= 0 && (v as u16) < k)
    }

    /// Row-major linear index of a coordinate.
    ///
    /// # Panics
    /// Panics if `c` is not a node of this torus.
    #[must_use]
    pub fn index(&self, c: &Coord) -> u32 {
        assert!(
            self.contains(c),
            "{c} is not a node of torus {:?}",
            self.dims
        );
        let mut idx: u64 = 0;
        for (v, &k) in c.iter().zip(self.dims.iter()) {
            idx = idx * u64::from(k) + v as u64;
        }
        idx as u32
    }

    /// Inverse of [`Torus::index`].
    ///
    /// # Panics
    /// Panics if `idx >= self.num_nodes()`.
    #[must_use]
    pub fn coord(&self, idx: u32) -> Coord {
        assert!(
            u64::from(idx) < self.num_nodes(),
            "index {idx} out of range for torus {:?}",
            self.dims
        );
        let mut rem = u64::from(idx);
        let n = self.ndims();
        // Stack buffer: `coord` sits on the simulator's per-event path,
        // so it must not allocate.
        let mut vals = [0i16; crate::MAX_DIMS];
        for d in (0..n).rev() {
            let k = u64::from(self.dims[d]);
            vals[d] = (rem % k) as i16;
            rem /= k;
        }
        Coord::new(&vals[..n])
    }

    /// The neighbour of `c` in direction `dir` (always exists: wrap-around).
    #[must_use]
    pub fn neighbor(&self, c: &Coord, dir: Direction) -> Option<Coord> {
        debug_assert!(self.contains(c));
        let d = dir.dim();
        if d >= self.ndims() {
            return None;
        }
        let k = i32::from(self.dims[d]);
        let v = wrap(i32::from(c.get(d)) + i32::from(dir.sign.delta()), k);
        Some(c.with(d, v as i16))
    }

    /// All `2n` port directions.
    #[must_use]
    pub fn directions(&self) -> Vec<Direction> {
        let mut out = Vec::with_capacity(2 * self.ndims());
        for d in 0..self.ndims() {
            out.push(Direction::plus(d));
            out.push(Direction::minus(d));
        }
        out
    }

    /// Switch degree, `2n`.
    ///
    /// Note: on a radix-2 ring the +1 and −1 neighbours coincide; we keep
    /// the port count at `2n` for uniformity, matching the paper's degree
    /// formula.
    #[must_use]
    pub fn degree(&self) -> usize {
        2 * self.ndims()
    }

    /// Diameter `Σ ⌊k_i / 2⌋`.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        self.dims.iter().map(|&k| u32::from(k) / 2).sum()
    }

    /// Minimal hop count between two nodes (per-dimension ring distance).
    #[must_use]
    pub fn min_hops(&self, a: &Coord, b: &Coord) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        (0..self.ndims())
            .map(|d| {
                let k = i32::from(self.dims[d]);
                let diff = wrap(i32::from(b.get(d)) - i32::from(a.get(d)), k);
                diff.min(k - diff) as u32
            })
            .sum()
    }

    /// True if the hop from `cur` along `dir` shortens the minimal
    /// distance to `dst`. The hop changes one dimension, so only that
    /// ring is judged: with the forward offset `f = (dst − cur) mod k`,
    /// `+` is productive iff `0 < f ≤ k/2` and `−` iff `f ≥ k/2`, `f ≠ 0`
    /// (both on a tie, and both on the radix-2 ring whose two ports
    /// reach the same neighbour). Equal to
    /// `min_hops(neighbor(cur, dir), dst) < min_hops(cur, dst)`, without
    /// a distance over every dimension.
    #[must_use]
    pub fn hop_is_productive(&self, cur: &Coord, dir: Direction, dst: &Coord) -> bool {
        debug_assert!(self.contains(cur) && self.contains(dst));
        let d = dir.dim();
        let k = i32::from(self.dims[d]);
        let fwd = wrap(i32::from(dst.get(d)) - i32::from(cur.get(d)), k);
        fwd != 0
            && match dir.sign {
                Sign::Plus => 2 * fwd <= k,
                Sign::Minus => 2 * fwd >= k,
            }
    }

    /// Reduces an accumulated distance vector to the canonical symmetric
    /// residue range `[−⌊k/2⌋, ⌈k/2⌉−1]` per dimension.
    #[must_use]
    pub fn reduce(&self, v: &Coord) -> Coord {
        debug_assert_eq!(v.ndims(), self.ndims());
        let mut out = *v;
        for d in 0..self.ndims() {
            let k = self.dims[d] as i32;
            let mut r = i32::from(v.get(d)).rem_euclid(k); // [0, k)
            if r >= (k + 1) / 2 {
                r -= k;
            }
            out.set(d, r as i16);
        }
        out
    }

    /// Per-hop travelled displacement `Δ` for a single torus hop: `±1` in
    /// the changed dimension, chosen by travel direction (not by raw
    /// coordinate difference, which would be `∓(k−1)` across the seam).
    ///
    /// Returns `None` if `from` and `to` are not neighbours. On a radix-2
    /// ring the two directions coincide; `+1` is returned (both are equal
    /// mod 2, so source recovery is unaffected).
    #[must_use]
    pub fn hop_displacement(&self, from: &Coord, to: &Coord) -> Option<Coord> {
        if !self.contains(from) || !self.contains(to) || from == to {
            return None;
        }
        let mut changed = None;
        for d in 0..self.ndims() {
            if from.get(d) != to.get(d) {
                if changed.is_some() {
                    return None; // more than one dimension changed
                }
                changed = Some(d);
            }
        }
        let d = changed?;
        let k = i32::from(self.dims[d]);
        let fwd = wrap(i32::from(to.get(d)) - i32::from(from.get(d)), k);
        let delta = if fwd == 1 {
            1
        } else if fwd == k - 1 {
            -1
        } else {
            return None; // not a single hop
        };
        Some(Coord::zero(self.ndims()).with(d, delta))
    }

    /// Victim-side inversion: `s_i = (d_i − v_i) mod k_i`.
    ///
    /// Unlike the mesh this never fails for well-formed inputs: every
    /// residue names a valid node.
    #[must_use]
    pub fn source_from_distance(&self, dest: &Coord, v: &Coord) -> Option<Coord> {
        if dest.ndims() != self.ndims() || v.ndims() != self.ndims() {
            return None;
        }
        let mut s = Coord::zero(self.ndims());
        for d in 0..self.ndims() {
            let k = self.dims[d] as i16;
            s.set(d, (dest.get(d) - v.get(d)).rem_euclid(k));
        }
        Some(s)
    }

    /// The direction of travel for a hop from `from` to neighbouring `to`.
    #[must_use]
    pub fn hop_direction(&self, from: &Coord, to: &Coord) -> Option<Direction> {
        let delta = self.hop_displacement(from, to)?;
        let dim = (0..self.ndims()).find(|&d| delta.get(d) != 0)?;
        let sign = if delta.get(dim) > 0 {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Some(Direction {
            dim: dim as u8,
            sign,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig1b_properties() {
        // Fig. 1(b) is the 4-ary 2-cube: degree 2n = 4, diameter Σ k/2 = 4.
        let t = Torus::kary2cube(4);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.num_nodes(), 16);
    }

    #[test]
    fn index_coord_roundtrip() {
        let t = Torus::new(&[3, 5]);
        for idx in 0..t.num_nodes() as u32 {
            assert_eq!(t.index(&t.coord(idx)), idx);
        }
    }

    #[test]
    fn wraparound_neighbors() {
        let t = Torus::kary2cube(4);
        let edge = Coord::new(&[3, 0]);
        assert_eq!(
            t.neighbor(&edge, Direction::plus(0)),
            Some(Coord::new(&[0, 0]))
        );
        assert_eq!(
            t.neighbor(&edge, Direction::minus(1)),
            Some(Coord::new(&[3, 3]))
        );
    }

    #[test]
    fn min_hops_uses_wraparound() {
        let t = Torus::kary2cube(8);
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[7, 0]);
        assert_eq!(t.min_hops(&a, &b), 1); // across the seam
        let c = Coord::new(&[4, 4]);
        assert_eq!(t.min_hops(&a, &c), 8); // two half-rings
    }

    #[test]
    fn hop_displacement_across_seam_is_unit() {
        let t = Torus::kary2cube(4);
        let a = Coord::new(&[3, 2]);
        let b = Coord::new(&[0, 2]);
        assert_eq!(t.hop_displacement(&a, &b), Some(Coord::new(&[1, 0])));
        assert_eq!(t.hop_displacement(&b, &a), Some(Coord::new(&[-1, 0])));
    }

    #[test]
    fn source_recovery_modular() {
        let t = Torus::kary2cube(4);
        // Destination (0,0), accumulated V = (1,0): source is (−1,0) mod 4
        // = (3,0).
        assert_eq!(
            t.source_from_distance(&Coord::new(&[0, 0]), &Coord::new(&[1, 0])),
            Some(Coord::new(&[3, 0]))
        );
    }

    #[test]
    fn reduce_symmetric_range() {
        let t = Torus::kary2cube(8);
        assert_eq!(t.reduce(&Coord::new(&[5, -5])), Coord::new(&[-3, 3]));
        assert_eq!(t.reduce(&Coord::new(&[4, -4])), Coord::new(&[-4, -4]));
        assert_eq!(t.reduce(&Coord::new(&[3, 0])), Coord::new(&[3, 0]));
        // Reduction never changes the recovered source.
        let dest = Coord::new(&[1, 1]);
        let v = Coord::new(&[13, -9]);
        assert_eq!(
            t.source_from_distance(&dest, &v),
            t.source_from_distance(&dest, &t.reduce(&v))
        );
    }

    #[test]
    fn odd_radix_reduce() {
        let t = Torus::new(&[5]);
        // Symmetric range for k=5 is [-2, 2].
        for raw in -12i16..=12 {
            let r = t.reduce(&Coord::new(&[raw]));
            assert!((-2..=2).contains(&r.get(0)), "raw {raw} -> {r}");
            assert_eq!(
                (raw - r.get(0)).rem_euclid(5),
                0,
                "reduction must preserve residue"
            );
        }
    }

    #[test]
    fn non_neighbor_displacement_is_none() {
        let t = Torus::kary2cube(5);
        let a = Coord::new(&[0, 0]);
        assert_eq!(t.hop_displacement(&a, &Coord::new(&[2, 0])), None);
        assert_eq!(t.hop_displacement(&a, &Coord::new(&[1, 1])), None);
        assert_eq!(t.hop_displacement(&a, &a), None);
    }

    /// Tori with every radix 2..=12 in every dimension position, in
    /// one to three dimensions.
    fn radix_sweep() -> Vec<Torus> {
        let mut out = Vec::new();
        for k in 2..=12 {
            out.push(Torus::new(&[k]));
            for j in [2, 3, 12] {
                out.push(Torus::new(&[k, j]));
                out.push(Torus::new(&[j, k]));
            }
            out.push(Torus::new(&[k, 2, 3]));
            out.push(Torus::new(&[3, k, 2]));
            out.push(Torus::new(&[2, 3, k]));
        }
        out
    }

    fn nodes(t: &Torus) -> Vec<Coord> {
        (0..t.num_nodes() as u32).map(|i| t.coord(i)).collect()
    }

    #[test]
    fn compare_and_add_wraps_equal_their_rem_euclid_forms() {
        for t in radix_sweep() {
            let all = nodes(&t);
            for a in &all {
                for d in 0..t.ndims() {
                    let k = t.dims()[d] as i16;
                    for dir in [Direction::plus(d), Direction::minus(d)] {
                        let want = a.with(d, (a.get(d) + dir.sign.delta()).rem_euclid(k));
                        assert_eq!(t.neighbor(a, dir), Some(want), "{t:?} {a} {dir:?}");
                    }
                }
                for b in &all {
                    let want: u32 = (0..t.ndims())
                        .map(|d| {
                            let k = t.dims()[d] as i16;
                            let diff = (b.get(d) - a.get(d)).rem_euclid(k);
                            diff.min(k - diff) as u32
                        })
                        .sum();
                    assert_eq!(t.min_hops(a, b), want, "{t:?} {a} {b}");
                    assert_eq!(
                        t.hop_displacement(a, b),
                        rem_euclid_displacement(&t, a, b),
                        "{t:?} {a} {b}"
                    );
                }
            }
        }
    }

    /// [`Torus::hop_displacement`] as defined by `rem_euclid`.
    fn rem_euclid_displacement(t: &Torus, from: &Coord, to: &Coord) -> Option<Coord> {
        let changed: Vec<usize> = (0..t.ndims())
            .filter(|&d| from.get(d) != to.get(d))
            .collect();
        let [d] = changed[..] else {
            return None;
        };
        let k = t.dims()[d] as i16;
        let fwd = (to.get(d) - from.get(d)).rem_euclid(k);
        let delta = if fwd == 1 {
            1
        } else if fwd == k - 1 {
            -1
        } else {
            return None;
        };
        Some(Coord::zero(t.ndims()).with(d, delta))
    }

    #[test]
    fn hop_direction_across_seam() {
        let t = Torus::kary2cube(4);
        assert_eq!(
            t.hop_direction(&Coord::new(&[3, 0]), &Coord::new(&[0, 0])),
            Some(Direction::plus(0))
        );
    }
}
