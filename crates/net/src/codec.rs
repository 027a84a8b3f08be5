//! Packing DDPM distance vectors into the 16-bit Marking Field.
//!
//! Table 3 of the paper fixes the packing convention:
//!
//! > "To support n × n 2-D mesh and torus, each half of the MF contains
//! > the distance in one dimension. The distance can be negative, so half
//! > of MF can represent 2^7 nodes in one dimension. … For a 3-D mesh and
//! > torus, DDPM can mark nodes by splitting the MF into two five-bits
//! > and one six-bits. … For the hypercube, the whole MF can be used for
//! > the distance vector, so DDPM can mark 16-cube hypercube."
//!
//! [`CodecMode::Signed`] reproduces that convention exactly: each
//! dimension gets `⌈log₂ k⌉ + 1` bits holding a two's-complement
//! distance. [`CodecMode::Residue`] is our documented extension: since
//! the victim only needs `v_i mod k_i` to compute
//! `s_i = (d_i − v_i) mod k_i` (the source coordinate is always in
//! `[0, k_i)`), storing residues in `⌈log₂ k⌉` bits is lossless and
//! doubles the addressable radix per dimension. DESIGN.md §4 records this
//! substitution; the Table 3 reproduction uses `Signed`.

use crate::marking_field::{MarkingField, MF_BITS};
use ddpm_topology::{Coord, Topology, TopologyKind};
use std::fmt;

/// How per-dimension distances are represented in the MF.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CodecMode {
    /// The paper's convention: two's-complement signed distance,
    /// `⌈log₂ k⌉ + 1` bits per mesh/torus dimension.
    Signed,
    /// Extension: residue `v mod k`, `⌈log₂ k⌉` bits per dimension.
    Residue,
}

/// Errors from building or using a [`DistanceCodec`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The topology needs more bits than the 16-bit MF provides. This is
    /// precisely the scalability limit Table 3 charts.
    FieldTooSmall {
        /// Bits the topology would need.
        needed: u32,
    },
    /// A distance component cannot be represented (only possible for
    /// vectors that did not come from honest accumulation).
    ComponentOutOfRange {
        /// Offending dimension.
        dim: usize,
        /// Offending component value.
        value: i16,
    },
    /// Vector dimensionality does not match the codec.
    DimensionMismatch {
        /// Dimensions the codec was built for.
        expected: usize,
        /// Dimensions the vector supplied.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::FieldTooSmall { needed } => {
                write!(f, "topology needs {needed} marking bits, MF has {MF_BITS}")
            }
            CodecError::ComponentOutOfRange { dim, value } => {
                write!(
                    f,
                    "distance component {value} in dimension {dim} unrepresentable"
                )
            }
            CodecError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected}-dimensional vector, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A layout mapping per-dimension distance sub-fields onto the MF.
///
/// Dimension 0 occupies the most significant bits, mirroring the
/// row-major node indexing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistanceCodec {
    kind: TopologyKind,
    dims: Vec<u16>,
    widths: Vec<u32>,
    offsets: Vec<u32>,
    mode: CodecMode,
}

/// Bits needed to store values `0..k`.
fn bits_for(k: u16) -> u32 {
    debug_assert!(k >= 2);
    u32::from(k - 1).ilog2() + 1
}

impl DistanceCodec {
    /// Builds the codec for `topo` under `mode`.
    ///
    /// # Errors
    /// [`CodecError::FieldTooSmall`] if the topology exceeds the MF — the
    /// Table 3 scalability boundary.
    pub fn for_topology(topo: &Topology, mode: CodecMode) -> Result<Self, CodecError> {
        let kind = topo.kind();
        let dims = topo.dims();
        let widths: Vec<u32> = dims
            .iter()
            .map(|&k| match (kind, mode) {
                (TopologyKind::Hypercube, _) => 1,
                (_, CodecMode::Signed) => bits_for(k) + 1,
                (_, CodecMode::Residue) => bits_for(k),
            })
            .collect();
        let needed: u32 = widths.iter().sum();
        if needed > MF_BITS {
            return Err(CodecError::FieldTooSmall { needed });
        }
        // Dimension 0 most significant: offsets descend.
        let mut offsets = vec![0u32; widths.len()];
        let mut off = needed;
        for (d, &w) in widths.iter().enumerate() {
            off -= w;
            offsets[d] = off;
        }
        Ok(Self {
            kind,
            dims,
            widths,
            offsets,
            mode,
        })
    }

    /// Total marking bits this layout uses.
    #[must_use]
    pub fn bits_used(&self) -> u32 {
        self.widths.iter().sum()
    }

    /// The representation mode.
    #[must_use]
    pub fn mode(&self) -> CodecMode {
        self.mode
    }

    /// Per-dimension sub-field widths.
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Encodes a canonical distance vector into the MF.
    ///
    /// # Errors
    /// [`CodecError::DimensionMismatch`] or
    /// [`CodecError::ComponentOutOfRange`] for malformed vectors. Vectors
    /// produced by [`Topology::accumulate`] always encode.
    pub fn encode(&self, v: &Coord) -> Result<MarkingField, CodecError> {
        if v.ndims() != self.dims.len() {
            return Err(CodecError::DimensionMismatch {
                expected: self.dims.len(),
                got: v.ndims(),
            });
        }
        let mut mf = MarkingField::zero();
        for d in 0..self.dims.len() {
            let val = v.get(d);
            let w = self.widths[d];
            let stored: u16 = match (self.kind, self.mode) {
                (TopologyKind::Hypercube, _) => (val & 1) as u16,
                (_, CodecMode::Signed) => {
                    let min = -(1i32 << (w - 1));
                    let max = (1i32 << (w - 1)) - 1;
                    let vi = i32::from(val);
                    if vi < min || vi > max {
                        return Err(CodecError::ComponentOutOfRange { dim: d, value: val });
                    }
                    (vi as u32 & ((1u32 << w) - 1)) as u16
                }
                (_, CodecMode::Residue) => {
                    let k = i32::from(self.dims[d]);
                    i32::from(val).rem_euclid(k) as u16
                }
            };
            mf.set_bits(self.offsets[d], w, stored);
        }
        Ok(mf)
    }

    /// Decodes the MF back into a distance vector.
    ///
    /// `Signed` mode sign-extends each sub-field; `Residue` mode yields
    /// components in `[0, k_i)`. Either form feeds
    /// [`DistanceCodec::recover_source`].
    #[must_use]
    pub fn decode(&self, mf: MarkingField) -> Coord {
        // Hot path (runs once per switch hop): build the Coord in place,
        // no heap allocation.
        let mut out = Coord::zero(self.dims.len());
        for d in 0..self.dims.len() {
            let w = self.widths[d];
            let raw = mf.get_bits(self.offsets[d], w);
            let val = match (self.kind, self.mode) {
                (TopologyKind::Hypercube, _) => (raw & 1) as i16,
                (_, CodecMode::Signed) => {
                    // Sign-extend from w bits.
                    let shift = 16 - w;
                    ((raw << shift) as i16) >> shift
                }
                (_, CodecMode::Residue) => raw as i16,
            };
            out.set(d, val);
        }
        out
    }

    /// Applies one hop's displacement directly to the marking field —
    /// the switch fast path. A hop changes exactly one dimension, so
    /// only that sub-field is read, updated, canonicalised (symmetric
    /// residue on the torus, modular residue in `Residue` mode, XOR on
    /// the hypercube) and written back: O(1) in the dimension count and
    /// allocation-free. Equivalent to
    /// `encode(topo.accumulate(&decode(mf), delta))`, which the property
    /// tests pin down.
    ///
    /// # Errors
    /// [`CodecError::DimensionMismatch`] for a wrong-arity delta;
    /// [`CodecError::ComponentOutOfRange`] if the update would leave the
    /// signed range (impossible for honest single-hop deltas).
    pub fn apply_hop(&self, mf: &mut MarkingField, delta: &Coord) -> Result<(), CodecError> {
        if delta.ndims() != self.dims.len() {
            return Err(CodecError::DimensionMismatch {
                expected: self.dims.len(),
                got: delta.ndims(),
            });
        }
        for d in 0..self.dims.len() {
            let dd = delta.get(d);
            if dd == 0 {
                continue;
            }
            let w = self.widths[d];
            let raw = mf.get_bits(self.offsets[d], w);
            let stored: u16 = match (self.kind, self.mode) {
                (TopologyKind::Hypercube, _) => (raw ^ (dd as u16)) & 1,
                (_, CodecMode::Signed) => {
                    // Sign-extend, add, reduce to the canonical range.
                    let shift = 16 - w;
                    let cur = i32::from(((raw << shift) as i16) >> shift);
                    let k = i32::from(self.dims[d]);
                    let mut v = cur + i32::from(dd);
                    if matches!(self.kind, TopologyKind::Torus) {
                        // An honest field plus a unit step lies in
                        // `[−k, 2k)`: wrap by comparison. Only a tampered
                        // field or delta takes the division.
                        v = if (0..k).contains(&v) {
                            v
                        } else if (-k..0).contains(&v) {
                            v + k
                        } else if (k..2 * k).contains(&v) {
                            v - k
                        } else {
                            v.rem_euclid(k)
                        };
                        if v >= (k + 1) / 2 {
                            v -= k;
                        }
                    }
                    let min = -(1i32 << (w - 1));
                    let max = (1i32 << (w - 1)) - 1;
                    if v < min || v > max {
                        return Err(CodecError::ComponentOutOfRange {
                            dim: d,
                            value: v as i16,
                        });
                    }
                    (v as u32 & ((1u32 << w) - 1)) as u16
                }
                (_, CodecMode::Residue) => {
                    let k = i32::from(self.dims[d]);
                    (i32::from(raw) + i32::from(dd)).rem_euclid(k) as u16
                }
            };
            mf.set_bits(self.offsets[d], w, stored);
        }
        Ok(())
    }

    /// Victim-side identification: decodes the MF and inverts it against
    /// the destination coordinate, `S = D ⊖ V` (§5, Fig. 4: `S := X − V`).
    ///
    /// Returns `None` only for vectors no honest marking run can produce
    /// (e.g. a signed mesh distance pointing outside the network).
    #[must_use]
    pub fn recover_source(&self, topo: &Topology, dest: &Coord, mf: MarkingField) -> Option<Coord> {
        let v = self.decode(mf);
        match (self.kind, self.mode) {
            // Residues need modular inversion even on the mesh: the
            // decoded component is v mod k, not v itself.
            (TopologyKind::Mesh, CodecMode::Residue) => {
                let mut s = Coord::zero(self.dims.len());
                for d in 0..self.dims.len() {
                    let k = i32::from(self.dims[d]);
                    s.set(
                        d,
                        (i32::from(dest.get(d)) - i32::from(v.get(d))).rem_euclid(k) as i16,
                    );
                }
                topo.contains(&s).then_some(s)
            }
            _ => topo.source_from_distance(dest, &v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_topology::NodeId;

    #[test]
    fn paper_table3_layouts() {
        // 128×128 mesh: two 8-bit signed halves, 16 bits total.
        let m = Topology::mesh2d(128);
        let c = DistanceCodec::for_topology(&m, CodecMode::Signed).unwrap();
        assert_eq!(c.widths(), &[8, 8]);
        assert_eq!(c.bits_used(), 16);

        // 3-D mesh of 8192 nodes fits (paper: "two five-bits and one
        // six-bits"); width split depends on the radix assignment.
        let m3 = Topology::mesh(&[16, 16, 32]);
        let c3 = DistanceCodec::for_topology(&m3, CodecMode::Signed).unwrap();
        assert_eq!(c3.bits_used(), 16);
        assert_eq!(c3.widths(), &[5, 5, 6]);

        // 16-cube hypercube: one bit per dimension.
        let h = Topology::hypercube(16);
        let ch = DistanceCodec::for_topology(&h, CodecMode::Signed).unwrap();
        assert_eq!(ch.bits_used(), 16);
        assert!(ch.widths().iter().all(|&w| w == 1));
    }

    #[test]
    fn oversized_topology_rejected() {
        let too_big = Topology::mesh2d(256); // needs 2×9 = 18 bits signed
        assert_eq!(
            DistanceCodec::for_topology(&too_big, CodecMode::Signed),
            Err(CodecError::FieldTooSmall { needed: 18 })
        );
        // …but fits in residue mode (extension).
        assert!(DistanceCodec::for_topology(&too_big, CodecMode::Residue).is_ok());
    }

    #[test]
    fn encode_decode_roundtrip_signed() {
        let topo = Topology::mesh2d(16);
        let codec = DistanceCodec::for_topology(&topo, CodecMode::Signed).unwrap();
        for v0 in -15i16..=15 {
            for v1 in [-15i16, -1, 0, 1, 15] {
                let v = Coord::new(&[v0, v1]);
                let mf = codec.encode(&v).unwrap();
                assert_eq!(codec.decode(mf), v);
            }
        }
    }

    #[test]
    fn recover_source_all_pairs_all_modes() {
        for topo in [
            Topology::mesh2d(5),
            Topology::torus(&[4, 6]),
            Topology::hypercube(4),
        ] {
            for mode in [CodecMode::Signed, CodecMode::Residue] {
                let codec = DistanceCodec::for_topology(&topo, mode).unwrap();
                for s in topo.all_nodes() {
                    for d in topo.all_nodes() {
                        let v = topo.expected_distance(&s, &d);
                        let mf = codec.encode(&v).unwrap();
                        assert_eq!(
                            codec.recover_source(&topo, &d, mf),
                            Some(s),
                            "{topo} {mode:?}: {s} -> {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_component_rejected() {
        let topo = Topology::mesh2d(16);
        let codec = DistanceCodec::for_topology(&topo, CodecMode::Signed).unwrap();
        // widths are 5 bits signed: range [-16, 15]; 17 is out.
        assert_eq!(
            codec.encode(&Coord::new(&[17, 0])),
            Err(CodecError::ComponentOutOfRange { dim: 0, value: 17 })
        );
        // Residue mode canonicalises instead.
        let rcodec = DistanceCodec::for_topology(&topo, CodecMode::Residue).unwrap();
        assert!(rcodec.encode(&Coord::new(&[17, 0])).is_ok());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let topo = Topology::mesh2d(4);
        let codec = DistanceCodec::for_topology(&topo, CodecMode::Signed).unwrap();
        assert_eq!(
            codec.encode(&Coord::new(&[1, 2, 3])),
            Err(CodecError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn residue_mode_doubles_capacity() {
        // The extension addresses a 256×256 mesh end to end.
        let topo = Topology::mesh2d(256);
        let codec = DistanceCodec::for_topology(&topo, CodecMode::Residue).unwrap();
        assert_eq!(codec.bits_used(), 16);
        let s = topo.coord(NodeId(0));
        let d = topo.coord(NodeId(65_535));
        let v = topo.expected_distance(&s, &d);
        let mf = codec.encode(&v).unwrap();
        assert_eq!(codec.recover_source(&topo, &d, mf), Some(s));
    }

    /// [`DistanceCodec::apply_hop`] with every wrap done by `rem_euclid`.
    fn rem_euclid_apply_hop(
        c: &DistanceCodec,
        mf: &mut MarkingField,
        delta: &Coord,
    ) -> Result<(), CodecError> {
        for d in 0..c.dims.len() {
            let dd = delta.get(d);
            if dd == 0 {
                continue;
            }
            let w = c.widths[d];
            let raw = mf.get_bits(c.offsets[d], w);
            let k = i32::from(c.dims[d]);
            let stored: u16 = match (c.kind, c.mode) {
                (TopologyKind::Hypercube, _) => (raw ^ (dd as u16)) & 1,
                (_, CodecMode::Signed) => {
                    let shift = 16 - w;
                    let mut v = i32::from(((raw << shift) as i16) >> shift) + i32::from(dd);
                    if matches!(c.kind, TopologyKind::Torus) {
                        v = v.rem_euclid(k);
                        if v >= (k + 1) / 2 {
                            v -= k;
                        }
                    }
                    if v < -(1i32 << (w - 1)) || v > (1i32 << (w - 1)) - 1 {
                        return Err(CodecError::ComponentOutOfRange {
                            dim: d,
                            value: v as i16,
                        });
                    }
                    (v as u32 & ((1u32 << w) - 1)) as u16
                }
                (_, CodecMode::Residue) => (i32::from(raw) + i32::from(dd)).rem_euclid(k) as u16,
            };
            mf.set_bits(c.offsets[d], w, stored);
        }
        Ok(())
    }

    #[test]
    fn apply_hop_equals_its_rem_euclid_form_on_every_raw_field() {
        let mut topos: Vec<Topology> = (2..=12).map(|k| Topology::torus(&[k])).collect();
        topos.extend([
            Topology::torus(&[8, 8]),
            Topology::torus(&[5, 7]),
            Topology::torus(&[3, 4, 5]),
            Topology::torus(&[128, 128]),
            Topology::mesh(&[5, 16]),
            Topology::hypercube(4),
        ]);
        for topo in topos {
            for mode in [CodecMode::Signed, CodecMode::Residue] {
                let Ok(codec) = DistanceCodec::for_topology(&topo, mode) else {
                    continue;
                };
                for d in 0..topo.ndims() {
                    let k = topo.dim_size(d) as i16;
                    // Honest unit steps, then deltas a tampered or
                    // malformed call could pass: past one and two radii,
                    // and the extremes.
                    let deltas = [
                        -1,
                        1,
                        -2,
                        2,
                        k - 1,
                        -k + 1,
                        k,
                        -k,
                        k + 1,
                        -k - 1,
                        2 * k,
                        -2 * k,
                        2 * k + 1,
                        -2 * k - 1,
                        i16::MAX,
                        i16::MIN,
                    ];
                    // Every raw sub-field value: canonical, non-canonical
                    // (a tampered field) and, in signed mode, the
                    // extremes of the sign-extended range.
                    for raw in 0..(1u16 << codec.widths[d]) {
                        for dd in deltas {
                            let mut base = MarkingField::new(0xA5C3);
                            base.set_bits(codec.offsets[d], codec.widths[d], raw);
                            let delta = Coord::zero(topo.ndims()).with(d, dd);
                            let (mut got, mut want) = (base, base);
                            let case = format!("{topo} {mode:?} dim {d} raw {raw:#x} delta {dd}");
                            assert_eq!(
                                codec.apply_hop(&mut got, &delta),
                                rem_euclid_apply_hop(&codec, &mut want, &delta),
                                "{case}"
                            );
                            assert_eq!(got, want, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_negative_distance_signed_encoding() {
        let topo = Topology::torus(&[8, 8]);
        let codec = DistanceCodec::for_topology(&topo, CodecMode::Signed).unwrap();
        let v = Coord::new(&[-4, 3]);
        let mf = codec.encode(&v).unwrap();
        assert_eq!(codec.decode(mf), v);
    }
}
