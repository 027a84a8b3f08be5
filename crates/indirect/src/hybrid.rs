//! Hybrid (cluster-based) networks — the second half of §6.3.
//!
//! "Multiple backbone buses and cluster-based networks are examples of
//! hybrid networks" (§3); "hybrid networks and irregular networks do
//! not have a universal regularity and it may need a completely
//! different approach" (§6.3). The canonical cluster-based shape: `G`
//! groups of `M` compute nodes, each group hanging off one group switch
//! (a crossbar — one hop to any member), with the group switches joined
//! by a regular **direct** backbone (mesh / torus / hypercube) running
//! adaptive routing.
//!
//! The "different approach" turns out to be a synthesis of the two
//! schemes already in this repository:
//!
//! * across the backbone, group switches run plain **DDPM** over group
//!   coordinates — the accumulated vector names the *source group*
//!   regardless of the adaptive backbone path;
//! * at injection, the source group switch records the **local port**
//!   (= member index) the packet came in on — the stage-port idea from
//!   the MIN scheme, one level deep.
//!
//! Marking field layout: `[member : m][group distance vector : b]` with
//! `m + b ≤ 16`. The victim reads `source = (own group ⊖ V, member)`
//! from a **single packet**. A 2¹⁰-switch hypercube backbone with
//! 64-member groups addresses 65 536 nodes in exactly 16 bits — the
//! same ceiling as Table 3.

use ddpm_net::{CodecError, CodecMode, DistanceCodec, MarkingField, MF_BITS};
use ddpm_topology::{Coord, NodeId, Topology};
use std::fmt;

/// A two-level cluster-based network.
#[derive(Clone, Debug)]
pub struct HybridCluster {
    backbone: Topology,
    members_per_group: u16,
}

impl HybridCluster {
    /// Builds a hybrid cluster: one group switch per `backbone` node,
    /// each serving `members_per_group` compute nodes.
    ///
    /// # Panics
    /// Panics if `members_per_group == 0` or the total node count
    /// overflows `u32`.
    #[must_use]
    pub fn new(backbone: Topology, members_per_group: u16) -> Self {
        assert!(members_per_group >= 1, "groups cannot be empty");
        let total = backbone.num_nodes() * u64::from(members_per_group);
        assert!(total <= u64::from(u32::MAX), "node space overflows");
        Self {
            backbone,
            members_per_group,
        }
    }

    /// The backbone connecting group switches.
    #[must_use]
    pub fn backbone(&self) -> &Topology {
        &self.backbone
    }

    /// Compute nodes per group.
    #[must_use]
    pub fn members_per_group(&self) -> u16 {
        self.members_per_group
    }

    /// Total compute nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        self.backbone.num_nodes() * u64::from(self.members_per_group)
    }

    /// Splits a node id into `(group coordinate, member index)`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn split(&self, node: NodeId) -> (Coord, u16) {
        assert!(u64::from(node.0) < self.num_nodes(), "node out of range");
        let m = u32::from(self.members_per_group);
        let group = self.backbone.coord(ddpm_topology::NodeId(node.0 / m));
        let member = (node.0 % m) as u16;
        (group, member)
    }

    /// Joins `(group coordinate, member index)` into a node id.
    ///
    /// # Panics
    /// Panics if the group is not a backbone node or `member` is out of
    /// range.
    #[must_use]
    pub fn join(&self, group: &Coord, member: u16) -> NodeId {
        assert!(member < self.members_per_group, "member out of range");
        let g = self.backbone.index(group).0;
        NodeId(g * u32::from(self.members_per_group) + u32::from(member))
    }
}

impl fmt::Display for HybridCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} backbone x {} members ({} nodes)",
            self.backbone,
            self.members_per_group,
            self.num_nodes()
        )
    }
}

/// Errors from building [`HybridMarking`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HybridMarkingError {
    /// The backbone's distance codec alone does not fit.
    Codec(CodecError),
    /// Member bits plus group-vector bits exceed the 16-bit MF.
    FieldTooSmall {
        /// Total bits the layout would need.
        needed: u32,
    },
}

impl fmt::Display for HybridMarkingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridMarkingError::Codec(e) => write!(f, "backbone codec: {e}"),
            HybridMarkingError::FieldTooSmall { needed } => {
                write!(f, "hybrid marking needs {needed} bits, MF has {MF_BITS}")
            }
        }
    }
}

impl std::error::Error for HybridMarkingError {}

/// Bits needed for the member sub-field.
#[must_use]
pub fn member_bits(members_per_group: u16) -> u32 {
    if members_per_group <= 1 {
        0
    } else {
        u32::from(members_per_group - 1).ilog2() + 1
    }
}

/// Hierarchical marking for hybrid clusters: DDPM over the backbone
/// plus injection-port recording at the source group switch.
#[derive(Clone, Debug)]
pub struct HybridMarking {
    codec: DistanceCodec,
    vec_bits: u32,
    member_bits: u32,
    members_per_group: u16,
    ndims: usize,
}

impl HybridMarking {
    /// Builds the scheme for `cluster` using the paper's signed codec.
    ///
    /// # Errors
    /// [`HybridMarkingError`] when the combined layout exceeds 16 bits.
    pub fn new(cluster: &HybridCluster) -> Result<Self, HybridMarkingError> {
        Self::with_mode(cluster, CodecMode::Signed)
    }

    /// Builds with an explicit codec mode.
    pub fn with_mode(cluster: &HybridCluster, mode: CodecMode) -> Result<Self, HybridMarkingError> {
        let codec = DistanceCodec::for_topology(cluster.backbone(), mode)
            .map_err(HybridMarkingError::Codec)?;
        let vec_bits = codec.bits_used();
        let member_bits = member_bits(cluster.members_per_group());
        let needed = vec_bits + member_bits;
        if needed > MF_BITS {
            return Err(HybridMarkingError::FieldTooSmall { needed });
        }
        Ok(Self {
            codec,
            vec_bits,
            member_bits,
            members_per_group: cluster.members_per_group(),
            ndims: cluster.backbone().ndims(),
        })
    }

    /// Total marking bits used.
    #[must_use]
    pub fn bits_used(&self) -> u32 {
        self.vec_bits + self.member_bits
    }

    /// Injection at the source group switch: record the local input
    /// port (member index) and zero the group vector.
    ///
    /// # Panics
    /// Panics if `member` is out of range.
    pub fn on_inject(&self, mf: &mut MarkingField, member: u16) {
        assert!(member < self.members_per_group);
        mf.clear();
        let zero = self
            .codec
            .encode(&Coord::zero(self.ndims))
            .expect("zero encodes")
            .raw();
        mf.set_bits(0, self.vec_bits, zero);
        if self.member_bits > 0 {
            mf.set_bits(self.vec_bits, self.member_bits, member);
        }
    }

    /// One backbone hop `cur → next` between group switches (plain DDPM
    /// accumulation on the group coordinates).
    ///
    /// # Panics
    /// Panics if the hop is not a backbone link (cannot happen for hops
    /// produced by the routing layer).
    pub fn on_backbone_hop(
        &self,
        mf: &mut MarkingField,
        backbone: &Topology,
        cur: &Coord,
        next: &Coord,
    ) {
        let v = self
            .codec
            .decode(MarkingField::new(mf.get_bits(0, self.vec_bits)));
        let delta = backbone
            .hop_displacement(cur, next)
            .expect("backbone hops follow real links");
        let v_new = backbone.accumulate(&v, &delta);
        let enc = self
            .codec
            .encode(&v_new)
            .expect("accumulated vectors stay in range")
            .raw();
        mf.set_bits(0, self.vec_bits, enc);
    }

    /// Victim-side identification in the shared
    /// [`ddpm_sim::Attribution`] shape: the full source node from one
    /// packet (a singleton candidate set with full confidence), or the
    /// empty attribution when the field decodes to no valid source.
    #[must_use]
    pub fn attribute(
        &self,
        cluster: &HybridCluster,
        dest_group: &Coord,
        mf: MarkingField,
    ) -> ddpm_sim::Attribution {
        match self.decode(cluster, dest_group, mf) {
            Some(node) => ddpm_sim::Attribution::exact(node),
            None => ddpm_sim::Attribution::none(),
        }
    }

    /// The full source node, from one packet, given the victim's own
    /// group coordinate; the decode behind [`HybridMarking::attribute`].
    fn decode(
        &self,
        cluster: &HybridCluster,
        dest_group: &Coord,
        mf: MarkingField,
    ) -> Option<NodeId> {
        let vec_field = MarkingField::new(mf.get_bits(0, self.vec_bits));
        let group = self
            .codec
            .recover_source(cluster.backbone(), dest_group, vec_field)?;
        let member = if self.member_bits > 0 {
            mf.get_bits(self.vec_bits, self.member_bits)
        } else {
            0
        };
        if member >= self.members_per_group {
            return None;
        }
        Some(cluster.join(&group, member))
    }

    /// Marks a whole journey (convenience for tests/experiments): the
    /// source member injects at its group switch, the packet follows
    /// `backbone_path` (group-switch coordinates), and the marking field
    /// on delivery is returned.
    #[must_use]
    pub fn mark_journey(
        &self,
        cluster: &HybridCluster,
        src_member: u16,
        backbone_path: &[Coord],
    ) -> MarkingField {
        let mut mf = MarkingField::new(0xFFFF); // attacker garbage, reset anyway
        self.on_inject(&mut mf, src_member);
        for w in backbone_path.windows(2) {
            self.on_backbone_hop(&mut mf, cluster.backbone(), &w[0], &w[1]);
        }
        mf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_routing::{trace_path, Router, SelectionPolicy};
    use ddpm_topology::FaultSet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample() -> (HybridCluster, HybridMarking) {
        let cluster = HybridCluster::new(Topology::torus(&[4, 4]), 8);
        let marking = HybridMarking::new(&cluster).unwrap();
        (cluster, marking)
    }

    #[test]
    fn split_join_bijection() {
        let (cluster, _) = sample();
        for id in 0..cluster.num_nodes() as u32 {
            let (g, m) = cluster.split(NodeId(id));
            assert_eq!(cluster.join(&g, m), NodeId(id));
        }
    }

    #[test]
    fn layout_fits() {
        let (_, marking) = sample();
        // 4x4 torus signed: 2*(2+1) = 6 bits; 8 members: 3 bits.
        assert_eq!(marking.bits_used(), 9);
    }

    #[test]
    fn identify_across_adaptive_backbone_paths() {
        let (cluster, marking) = sample();
        let backbone = cluster.backbone().clone();
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(3);
        for src in 0..cluster.num_nodes() as u32 {
            let src = NodeId(src);
            let (sg, sm) = cluster.split(src);
            let (dg, _) = cluster.split(NodeId((src.0 * 7 + 13) % cluster.num_nodes() as u32));
            if sg == dg {
                continue; // intra-group traffic never touches the backbone
            }
            let path = trace_path(
                &backbone,
                &faults,
                Router::fully_adaptive_for(&backbone),
                SelectionPolicy::Random,
                &mut rng,
                &sg,
                &dg,
                64,
            )
            .unwrap();
            let mf = marking.mark_journey(&cluster, sm, &path);
            assert_eq!(marking.attribute(&cluster, &dg, mf).single(), Some(src));
        }
    }

    #[test]
    fn scalability_hits_the_two_to_sixteen_ceiling() {
        // 2^10 hypercube backbone (10 bits) x 64 members (6 bits) =
        // 65 536 nodes in exactly 16 bits.
        let cluster = HybridCluster::new(Topology::hypercube(10), 64);
        let marking = HybridMarking::new(&cluster).unwrap();
        assert_eq!(marking.bits_used(), 16);
        assert_eq!(cluster.num_nodes(), 65_536);
        // One more member bit overflows.
        let too_big = HybridCluster::new(Topology::hypercube(10), 128);
        assert!(matches!(
            HybridMarking::new(&too_big),
            Err(HybridMarkingError::FieldTooSmall { needed: 17 })
        ));
    }

    #[test]
    fn forged_field_dies_at_the_group_switch() {
        let (cluster, marking) = sample();
        let sg = cluster.backbone().coord(ddpm_topology::NodeId(1));
        let dg = cluster.backbone().coord(ddpm_topology::NodeId(14));
        let faults = FaultSet::none();
        let mut rng = SmallRng::seed_from_u64(4);
        let path = trace_path(
            cluster.backbone(),
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &mut rng,
            &sg,
            &dg,
            64,
        )
        .unwrap();
        // mark_journey preloads 0xFFFF and the injection reset clears it.
        let mf = marking.mark_journey(&cluster, 5, &path);
        let att = marking.attribute(&cluster, &dg, mf);
        assert!(att.is_identified());
        assert_eq!(att.single(), Some(cluster.join(&sg, 5)));
    }

    #[test]
    fn single_member_groups_use_zero_member_bits() {
        let cluster = HybridCluster::new(Topology::mesh2d(4), 1);
        let marking = HybridMarking::new(&cluster).unwrap();
        assert_eq!(member_bits(1), 0);
        let sg = cluster.backbone().coord(ddpm_topology::NodeId(0));
        let dg = cluster.backbone().coord(ddpm_topology::NodeId(15));
        let path = vec![
            sg,
            Coord::new(&[1, 0]),
            Coord::new(&[2, 0]),
            Coord::new(&[3, 0]),
            Coord::new(&[3, 1]),
            Coord::new(&[3, 2]),
            dg,
        ];
        let mf = marking.mark_journey(&cluster, 0, &path);
        assert_eq!(marking.attribute(&cluster, &dg, mf).single(), Some(NodeId(0)));
    }
}
