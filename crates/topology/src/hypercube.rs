//! The n-cube hypercube.
//!
//! "An n-cube hypercube … is an n-dimensional mesh where `k_i = 2` for
//! `0 ≤ i ≤ n−1`. Its degree and diameter is `n`." (§3)
//!
//! DDPM on the hypercube accumulates the distance vector with XOR: "In the
//! hypercube, a switch toggles just one dimension at each hop, so V' is
//! always one bit different from V" (§5). Each `d_i` of the vector says
//! whether dimension `i` of the current node differs from the source.

use crate::coord::Coord;
use crate::direction::{Direction, Sign};

/// An n-cube hypercube, `1 ≤ n ≤ 16`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hypercube {
    n: u8,
}

impl Hypercube {
    /// Builds an n-cube.
    ///
    /// # Panics
    /// Panics unless `1 <= n <= 16` (16 is the largest cube the paper's
    /// 16-bit marking field addresses, Table 3).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=crate::MAX_DIMS).contains(&n),
            "hypercube dimension must be 1..={}, got {n}",
            crate::MAX_DIMS
        );
        Self { n: n as u8 }
    }

    /// Number of dimensions `n`.
    #[must_use]
    pub fn ndims(&self) -> usize {
        self.n as usize
    }

    /// Every radix is 2.
    #[must_use]
    pub fn dims(&self) -> Vec<u16> {
        vec![2; self.ndims()]
    }

    /// Total node count `2^n`.
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        1u64 << self.n
    }

    /// True if `c` is a valid node coordinate (each component 0 or 1).
    #[must_use]
    pub fn contains(&self, c: &Coord) -> bool {
        c.ndims() == self.ndims() && c.iter().all(|v| v == 0 || v == 1)
    }

    /// Linear index: dimension 0 is the most significant bit, matching the
    /// mesh/torus row-major convention.
    ///
    /// # Panics
    /// Panics if `c` is not a node of this cube.
    #[must_use]
    pub fn index(&self, c: &Coord) -> u32 {
        assert!(self.contains(c), "{c} is not a node of the {}-cube", self.n);
        let mut idx = 0u32;
        for v in c.iter() {
            idx = (idx << 1) | u32::from(v as u16 & 1);
        }
        idx
    }

    /// Inverse of [`Hypercube::index`].
    ///
    /// # Panics
    /// Panics if `idx >= 2^n`.
    #[must_use]
    pub fn coord(&self, idx: u32) -> Coord {
        assert!(
            u64::from(idx) < self.num_nodes(),
            "index {idx} out of range for the {}-cube",
            self.n
        );
        let n = self.ndims();
        let mut vals = [0i16; crate::MAX_DIMS];
        for (d, val) in vals.iter_mut().enumerate().take(n) {
            *val = ((idx >> (n - 1 - d)) & 1) as i16;
        }
        Coord::new(&vals[..n])
    }

    /// The neighbour of `c` across dimension `dir.dim` (bit toggle).
    ///
    /// The sign of `dir` is ignored: both signs reach the same neighbour.
    #[must_use]
    pub fn neighbor(&self, c: &Coord, dir: Direction) -> Option<Coord> {
        debug_assert!(self.contains(c));
        let d = dir.dim();
        if d >= self.ndims() {
            return None;
        }
        Some(c.with(d, c.get(d) ^ 1))
    }

    /// One port per dimension (sign normalised to `Plus`).
    #[must_use]
    pub fn directions(&self) -> Vec<Direction> {
        (0..self.ndims()).map(Direction::plus).collect()
    }

    /// Degree `n`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.ndims()
    }

    /// Diameter `n`.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        u32::from(self.n)
    }

    /// Minimal hop count: Hamming distance.
    #[must_use]
    pub fn min_hops(&self, a: &Coord, b: &Coord) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        a.xor(b).hamming_weight()
    }

    /// True if the hop from `cur` along `dir` shortens the minimal
    /// distance to `dst`: the toggled bit differs from `dst`'s.
    #[must_use]
    pub fn hop_is_productive(&self, cur: &Coord, dir: Direction, dst: &Coord) -> bool {
        let d = dir.dim();
        cur.get(d) != dst.get(d)
    }

    /// Per-hop displacement: the toggled dimension as a one-hot vector.
    ///
    /// Returns `None` if `from` and `to` are not neighbours.
    #[must_use]
    pub fn hop_displacement(&self, from: &Coord, to: &Coord) -> Option<Coord> {
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        let delta = from.xor(to);
        (delta.hamming_weight() == 1).then_some(delta)
    }

    /// Victim-side inversion: `S = D ⊕ V`.
    #[must_use]
    pub fn source_from_distance(&self, dest: &Coord, v: &Coord) -> Option<Coord> {
        if dest.ndims() != self.ndims() || v.ndims() != self.ndims() {
            return None;
        }
        // Normalise V to bits first: an accumulated vector is already
        // 0/1-valued, but a forged one may not be.
        let mut bits = vec![0i16; self.ndims()];
        for (d, b) in bits.iter_mut().enumerate() {
            *b = v.get(d) & 1;
        }
        let s = dest.xor(&Coord::new(&bits));
        self.contains(&s).then_some(s)
    }

    /// The direction of travel for a hop from `from` to neighbouring `to`.
    #[must_use]
    pub fn hop_direction(&self, from: &Coord, to: &Coord) -> Option<Direction> {
        let delta = self.hop_displacement(from, to)?;
        let dim = (0..self.ndims()).find(|&d| delta.get(d) != 0)?;
        Some(Direction {
            dim: dim as u8,
            sign: Sign::Plus,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig1c_properties() {
        // Fig. 1(c) is the 3-cube: degree 3, diameter 3, 8 nodes.
        let h = Hypercube::new(3);
        assert_eq!(h.degree(), 3);
        assert_eq!(h.diameter(), 3);
        assert_eq!(h.num_nodes(), 8);
    }

    #[test]
    fn index_coord_roundtrip() {
        let h = Hypercube::new(4);
        for idx in 0..h.num_nodes() as u32 {
            assert_eq!(h.index(&h.coord(idx)), idx);
        }
    }

    #[test]
    fn neighbors_are_bit_toggles() {
        let h = Hypercube::new(3);
        let c = Coord::new(&[1, 0, 1]);
        assert_eq!(
            h.neighbor(&c, Direction::plus(0)),
            Some(Coord::new(&[0, 0, 1]))
        );
        assert_eq!(
            h.neighbor(&c, Direction::plus(2)),
            Some(Coord::new(&[1, 0, 0]))
        );
        // Sign is irrelevant.
        assert_eq!(
            h.neighbor(&c, Direction::minus(0)),
            h.neighbor(&c, Direction::plus(0))
        );
    }

    #[test]
    fn min_hops_is_hamming() {
        let h = Hypercube::new(4);
        let a = Coord::new(&[0, 0, 0, 0]);
        let b = Coord::new(&[1, 0, 1, 1]);
        assert_eq!(h.min_hops(&a, &b), 3);
    }

    #[test]
    fn paper_fig3c_source_recovery() {
        // (0,0,0) identifies the source (1,1,0) by XORing its coordinate
        // and the distance vector (1,1,0). (§5)
        let h = Hypercube::new(3);
        assert_eq!(
            h.source_from_distance(&Coord::new(&[0, 0, 0]), &Coord::new(&[1, 1, 0])),
            Some(Coord::new(&[1, 1, 0]))
        );
    }

    #[test]
    fn displacement_is_one_hot() {
        let h = Hypercube::new(3);
        let a = Coord::new(&[0, 1, 0]);
        let b = Coord::new(&[0, 1, 1]);
        assert_eq!(h.hop_displacement(&a, &b), Some(Coord::new(&[0, 0, 1])));
        assert_eq!(h.hop_displacement(&a, &Coord::new(&[1, 0, 0])), None);
        assert_eq!(h.hop_displacement(&a, &a), None);
    }

    #[test]
    fn sixteen_cube_scale() {
        // Table 3: DDPM marks up to the 16-cube (65 536 nodes).
        let h = Hypercube::new(16);
        assert_eq!(h.num_nodes(), 65_536);
        assert_eq!(h.diameter(), 16);
        let last = h.coord(65_535);
        assert_eq!(h.index(&last), 65_535);
        assert!(last.iter().all(|v| v == 1));
    }
}
