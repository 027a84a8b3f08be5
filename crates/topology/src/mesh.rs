//! The n-dimensional mesh.
//!
//! "An n-dimensional mesh has `k_0 × k_1 × … × k_{n-1}` nodes. … X and Y
//! are neighboring if and only if the two indexes are same except only one
//! dimension such that `x_i = y_i ± 1`. The degree and the diameter of
//! n-dimensional mesh is `2n` and `Σ (k_i − 1)` respectively." (§3)

use crate::coord::Coord;
use crate::direction::{Direction, Sign};

/// An n-dimensional mesh with per-dimension radices `k_i ≥ 2`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mesh {
    dims: Vec<u16>,
}

impl Mesh {
    /// Builds a mesh with the given per-dimension sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty, has more than [`crate::MAX_DIMS`]
    /// entries, or any radix is `< 2`.
    #[must_use]
    pub fn new(dims: &[u16]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= crate::MAX_DIMS,
            "mesh must have 1..={} dimensions",
            crate::MAX_DIMS
        );
        assert!(
            dims.iter().all(|&k| k >= 2),
            "every mesh radix must be >= 2, got {dims:?}"
        );
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Convenience constructor for the paper's `n × n` 2-D mesh.
    #[must_use]
    pub fn square(n: u16) -> Self {
        Self::new(&[n, n])
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

    /// Row-major linear index of a coordinate (dimension 0 most
    /// significant).
    ///
    /// # Panics
    /// Panics if `c` is not a node of this mesh.
    #[must_use]
    pub fn index(&self, c: &Coord) -> u32 {
        assert!(
            self.contains(c),
            "{c} is not a node of mesh {:?}",
            self.dims
        );
        let mut idx: u64 = 0;
        for (v, &k) in c.iter().zip(self.dims.iter()) {
            idx = idx * u64::from(k) + v as u64;
        }
        idx as u32
    }

    /// Inverse of [`Mesh::index`].
    ///
    /// # Panics
    /// Panics if `idx >= self.num_nodes()`.
    #[must_use]
    pub fn coord(&self, idx: u32) -> Coord {
        assert!(
            u64::from(idx) < self.num_nodes(),
            "index {idx} out of range for mesh {:?}",
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

    /// The neighbour of `c` in direction `dir`, or `None` at the boundary.
    #[must_use]
    pub fn neighbor(&self, c: &Coord, dir: Direction) -> Option<Coord> {
        debug_assert!(self.contains(c));
        let d = dir.dim();
        if d >= self.ndims() {
            return None;
        }
        let v = c.get(d) + dir.sign.delta();
        if v < 0 || (v as u16) >= self.dims[d] {
            None
        } else {
            Some(c.with(d, v))
        }
    }

    /// All port directions a mesh switch can have (boundary switches have
    /// fewer live ports; use [`Mesh::neighbor`] to filter).
    #[must_use]
    pub fn directions(&self) -> Vec<Direction> {
        let mut out = Vec::with_capacity(2 * self.ndims());
        for d in 0..self.ndims() {
            out.push(Direction::plus(d));
            out.push(Direction::minus(d));
        }
        out
    }

    /// Maximum switch degree, `2n`.
    #[must_use]
    pub fn degree(&self) -> usize {
        2 * self.ndims()
    }

    /// Diameter `Σ (k_i − 1)`.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        self.dims.iter().map(|&k| u32::from(k) - 1).sum()
    }

    /// Minimal hop count between two nodes (L1 distance).
    #[must_use]
    pub fn min_hops(&self, a: &Coord, b: &Coord) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        (*b - *a).l1_norm()
    }

    /// True if the hop from `cur` along `dir` shortens the minimal
    /// distance to `dst`: the hop moves toward `dst` in its one
    /// dimension, i.e. its sign is the sign of `dst − cur` there.
    #[must_use]
    pub fn hop_is_productive(&self, cur: &Coord, dir: Direction, dst: &Coord) -> bool {
        let d = dir.dim();
        match dir.sign {
            Sign::Plus => dst.get(d) > cur.get(d),
            Sign::Minus => dst.get(d) < cur.get(d),
        }
    }

    /// Per-hop displacement `Δ = to − from` for a single mesh hop.
    ///
    /// Returns `None` if `from` and `to` are not neighbours.
    #[must_use]
    pub fn hop_displacement(&self, from: &Coord, to: &Coord) -> Option<Coord> {
        let delta = *to - *from;
        if delta.l1_norm() == 1 && self.contains(from) && self.contains(to) {
            Some(delta)
        } else {
            None
        }
    }

    /// Victim-side inversion: `S = D − V`.
    ///
    /// Returns `None` if the implied source falls outside the mesh (which
    /// cannot happen for honestly marked packets — see the crate tests).
    #[must_use]
    pub fn source_from_distance(&self, dest: &Coord, v: &Coord) -> Option<Coord> {
        if dest.ndims() != self.ndims() || v.ndims() != self.ndims() {
            return None;
        }
        let s = *dest - *v;
        self.contains(&s).then_some(s)
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
    fn paper_fig1a_properties() {
        // Fig. 1(a) is a 4×4 2-D mesh: "the network's degree is four and
        // its diameter six".
        let m = Mesh::square(4);
        assert_eq!(m.degree(), 4);
        assert_eq!(m.diameter(), 6);
        assert_eq!(m.num_nodes(), 16);
    }

    #[test]
    fn index_coord_roundtrip_small() {
        let m = Mesh::new(&[3, 4, 5]);
        for idx in 0..m.num_nodes() as u32 {
            let c = m.coord(idx);
            assert!(m.contains(&c));
            assert_eq!(m.index(&c), idx);
        }
    }

    #[test]
    fn neighbors_at_corner() {
        let m = Mesh::square(4);
        let corner = Coord::new(&[0, 0]);
        assert_eq!(m.neighbor(&corner, Direction::minus(0)), None);
        assert_eq!(m.neighbor(&corner, Direction::minus(1)), None);
        assert_eq!(
            m.neighbor(&corner, Direction::plus(0)),
            Some(Coord::new(&[1, 0]))
        );
        assert_eq!(
            m.neighbor(&corner, Direction::plus(1)),
            Some(Coord::new(&[0, 1]))
        );
    }

    #[test]
    fn neighbor_out_of_dim_is_none() {
        let m = Mesh::square(4);
        assert_eq!(m.neighbor(&Coord::new(&[1, 1]), Direction::plus(5)), None);
    }

    #[test]
    fn min_hops_is_l1() {
        let m = Mesh::square(8);
        let a = Coord::new(&[1, 2]);
        let b = Coord::new(&[6, 0]);
        assert_eq!(m.min_hops(&a, &b), 7);
        assert_eq!(m.min_hops(&a, &a), 0);
    }

    #[test]
    fn hop_displacement_requires_adjacency() {
        let m = Mesh::square(4);
        let a = Coord::new(&[1, 1]);
        assert_eq!(
            m.hop_displacement(&a, &Coord::new(&[2, 1])),
            Some(Coord::new(&[1, 0]))
        );
        assert_eq!(m.hop_displacement(&a, &Coord::new(&[2, 2])), None);
        assert_eq!(m.hop_displacement(&a, &a), None);
    }

    #[test]
    fn source_recovery() {
        let m = Mesh::square(4);
        let dest = Coord::new(&[2, 3]);
        let v = Coord::new(&[1, 2]);
        assert_eq!(m.source_from_distance(&dest, &v), Some(Coord::new(&[1, 1])));
        // A vector pointing outside the mesh yields None.
        let bogus = Coord::new(&[5, 0]);
        assert_eq!(m.source_from_distance(&dest, &bogus), None);
    }

    #[test]
    fn hop_direction_signs() {
        let m = Mesh::square(4);
        let a = Coord::new(&[1, 1]);
        assert_eq!(
            m.hop_direction(&a, &Coord::new(&[0, 1])),
            Some(Direction::minus(0))
        );
        assert_eq!(
            m.hop_direction(&a, &Coord::new(&[1, 2])),
            Some(Direction::plus(1))
        );
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn rejects_radix_one() {
        let _ = Mesh::new(&[4, 1]);
    }

    #[test]
    fn three_dim_diameter() {
        let m = Mesh::new(&[4, 4, 4]);
        assert_eq!(m.diameter(), 9);
        assert_eq!(m.degree(), 6);
    }
}
