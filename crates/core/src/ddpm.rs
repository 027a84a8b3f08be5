//! Deterministic Distance Packet Marking — the paper's contribution.
//!
//! Fig. 4 of the paper, executed by every switch:
//!
//! ```text
//! if X = D then V := Extract_MF(); S := X ⊖ V; endif   (victim side)
//! Y := Routing(V);                                     (pick next hop)
//! V := Extract_MF(); Δ := Y − X; V' := V + Δ;          (accumulate)
//! Store_MF(V');                                        (rewrite header)
//! ```
//!
//! plus the injection rule: "For each packet, V is set to a zero vector
//! when the packet first enters a switch from a computing node." Because
//! the *switch* performs the reset, an attacker that pre-loads a forged
//! distance vector in the Identification field gains nothing.
//!
//! The per-switch work is one extract, one add (or XOR), one store —
//! "a switch performs only simple functions such as addition,
//! subtraction, and XOR, so we expect they would not affect overall
//! performance" (§6.2). The `marking` Criterion bench measures this.

use ddpm_net::{CodecError, CodecMode, DistanceCodec, Packet};
use ddpm_sim::{Attribution, MarkEnv, Marker};
use ddpm_topology::{Coord, Topology};
use rand::rngs::SmallRng;

/// The DDPM scheme: switch-side marking plus victim-side identification.
#[derive(Clone, Debug)]
pub struct DdpmScheme {
    codec: DistanceCodec,
    ndims: usize,
}

impl DdpmScheme {
    /// Builds DDPM for `topo` using the paper's signed packing
    /// convention (Table 3).
    ///
    /// # Errors
    /// [`CodecError::FieldTooSmall`] when the topology exceeds the
    /// 16-bit marking field — the Table 3 scalability boundary.
    pub fn new(topo: &Topology) -> Result<Self, CodecError> {
        Self::with_mode(topo, CodecMode::Signed)
    }

    /// Builds DDPM with an explicit [`CodecMode`] (the `Residue` mode is
    /// the documented capacity extension).
    pub fn with_mode(topo: &Topology, mode: CodecMode) -> Result<Self, CodecError> {
        Ok(Self {
            codec: DistanceCodec::for_topology(topo, mode)?,
            ndims: topo.ndims(),
        })
    }

    /// The marking-field layout in use.
    #[must_use]
    pub fn codec(&self) -> &DistanceCodec {
        &self.codec
    }

    /// Victim-side identification from a **single packet**: given the
    /// destination coordinate and the received marking field, returns
    /// the coordinate of the switch that injected the packet.
    ///
    /// "The victim needs only one packet to identify the source." (§1)
    #[must_use]
    pub fn identify(
        &self,
        topo: &Topology,
        dest: &Coord,
        mf: ddpm_net::MarkingField,
    ) -> Option<Coord> {
        self.codec.recover_source(topo, dest, mf)
    }

    /// Victim-side identification in the shared [`Attribution`] shape:
    /// DDPM answers from a single packet, so the result is either a
    /// singleton candidate set with full confidence or the empty
    /// attribution (out-of-range vector — tampered or corrupted).
    #[must_use]
    pub fn attribute(
        &self,
        topo: &Topology,
        dest: &Coord,
        mf: ddpm_net::MarkingField,
    ) -> Attribution {
        match self.identify(topo, dest, mf) {
            Some(src) => Attribution::exact(topo.index(&src)),
            None => Attribution::none(),
        }
    }
}

impl Marker for DdpmScheme {
    fn name(&self) -> &'static str {
        "ddpm"
    }

    fn on_inject(&self, pkt: &mut Packet, _src: &Coord, _env: &MarkEnv<'_>) {
        // Zero vector, encoded. (Encoding zero always succeeds.)
        let zero = Coord::zero(self.ndims);
        pkt.header.identification = self
            .codec
            .encode(&zero)
            .expect("zero vector always encodes");
    }

    fn on_forward(
        &self,
        pkt: &mut Packet,
        cur: &Coord,
        next: &Coord,
        env: &MarkEnv<'_>,
        _rng: &mut SmallRng,
    ) {
        let delta = env
            .topo
            .hop_displacement(cur, next)
            .expect("simulator only forwards along real links");
        // On an honestly marked packet the accumulated vector telescopes
        // to `cur − src`, so a single-hop update can never leave the
        // codec range. A *tampered* vector (a compromised switch
        // skipping or forging its update, §6.2 threat) can push the
        // honest update out of range — and this switch cannot tell
        // tampering from truth, so it must not crash the fabric over
        // it. Leaving the field untouched keeps the packet flowing;
        // the garbage vector then misattributes or is rejected at the
        // victim, which is exactly how the compromised-switch
        // experiments score tampering.
        if let Err(e) = self.codec.apply_hop(&mut pkt.header.identification, &delta) {
            debug_assert!(
                matches!(e, ddpm_net::CodecError::ComponentOutOfRange { .. }),
                "only adversarial out-of-range is tolerated, got {e:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::{AddrMap, Ipv4Header, MarkingField, PacketId, Protocol, TrafficClass, L4};
    use ddpm_routing::{Router, SelectionPolicy};
    use ddpm_sim::{SimConfig, SimTime, Simulation};
    use ddpm_topology::{FaultSet, NodeId};

    fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            id: PacketId(id),
            header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
            l4: L4::udp(999, 53),
            true_source: src,
            dest_node: dst,
            class: TrafficClass::Attack,
        }
    }

    /// End-to-end: every delivered packet identifies its true source,
    /// whatever the topology, router, and fault pattern.
    #[test]
    fn identifies_true_source_across_topologies_and_routers() {
        for topo in [
            Topology::mesh2d(6),
            Topology::torus(&[5, 5]),
            Topology::hypercube(5),
            Topology::mesh(&[4, 4, 4]),
        ] {
            let scheme = DdpmScheme::new(&topo).unwrap();
            let map = AddrMap::for_topology(&topo);
            let faults = FaultSet::none();
            for router in Router::all_for(&topo) {
                let mut sim = Simulation::new(
                    &topo,
                    &faults,
                    router,
                    SelectionPolicy::Random,
                    &scheme,
                    SimConfig::seeded(99),
                );
                let n = topo.num_nodes() as u32;
                for id in 0..200u64 {
                    let s = NodeId((id as u32 * 13 + 5) % n);
                    let d = NodeId((id as u32 * 7 + 1) % n);
                    if s == d {
                        continue;
                    }
                    sim.schedule(SimTime(id), mk_packet(&map, id, s, d));
                }
                sim.run();
                assert!(!sim.delivered().is_empty());
                for del in sim.delivered() {
                    let dest = topo.coord(del.packet.dest_node);
                    let got = scheme
                        .attribute(&topo, &dest, del.packet.header.identification)
                        .single();
                    assert_eq!(
                        got,
                        Some(del.packet.true_source),
                        "{topo} / {router}: misidentified"
                    );
                }
            }
        }
    }

    /// Spoofed source addresses do not fool DDPM: identification uses
    /// the marking field, not the (forged) source IP.
    #[test]
    fn spoofing_does_not_evade_identification() {
        let topo = Topology::mesh2d(4);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::MinimalAdaptive,
            SelectionPolicy::Random,
            &scheme,
            SimConfig::seeded(1),
        );
        let mut p = mk_packet(&map, 1, NodeId(3), NodeId(12));
        p.header.src = map.ip_of(NodeId(9)); // spoofed
        sim.schedule(SimTime::ZERO, p);
        sim.run();
        let del = &sim.delivered()[0];
        assert!(del.packet.is_spoofed(&map));
        let dest = topo.coord(del.packet.dest_node);
        assert_eq!(
            scheme
                .attribute(&topo, &dest, del.packet.header.identification)
                .single(),
            Some(NodeId(3)),
            "must identify the true injector, not the spoofed address"
        );
    }

    /// An attacker pre-loading a forged marking field gains nothing: the
    /// injection switch resets it (§5).
    #[test]
    fn forged_marking_field_is_reset_at_injection() {
        let topo = Topology::mesh2d(4);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            &scheme,
            SimConfig::seeded(2),
        );
        let mut p = mk_packet(&map, 7, NodeId(5), NodeId(10));
        p.header.identification = MarkingField::new(0xBEEF); // forged
        sim.schedule(SimTime::ZERO, p);
        sim.run();
        let del = &sim.delivered()[0];
        let dest = topo.coord(del.packet.dest_node);
        assert_eq!(
            scheme
                .attribute(&topo, &dest, del.packet.header.identification)
                .single(),
            Some(NodeId(5))
        );
    }

    /// The Fig. 3(b) worked example: forced adaptive path from (1,1) to
    /// (2,3) with the exact distance-vector sequence from §5.
    #[test]
    fn paper_fig3b_vector_sequence() {
        let topo = Topology::mesh2d(4);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let env = MarkEnv { topo: &topo };
        let map = AddrMap::for_topology(&topo);
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(0)
        };
        let path = [
            Coord::new(&[1, 1]),
            Coord::new(&[2, 1]),
            Coord::new(&[3, 1]),
            Coord::new(&[3, 0]),
            Coord::new(&[2, 0]),
            Coord::new(&[2, 1]),
            Coord::new(&[2, 2]),
            Coord::new(&[2, 3]),
        ];
        let expected = [
            Coord::new(&[1, 0]),
            Coord::new(&[2, 0]),
            Coord::new(&[2, -1]),
            Coord::new(&[1, -1]),
            Coord::new(&[1, 0]),
            Coord::new(&[1, 1]),
            Coord::new(&[1, 2]),
        ];
        let mut pkt = mk_packet(&map, 0, topo.index(&path[0]), topo.index(&path[7]));
        scheme.on_inject(&mut pkt, &path[0], &env);
        for (i, w) in path.windows(2).enumerate() {
            scheme.on_forward(&mut pkt, &w[0], &w[1], &env, &mut rng);
            assert_eq!(
                scheme.codec().decode(pkt.header.identification),
                expected[i],
                "vector after hop {i}"
            );
        }
        assert_eq!(
            scheme.identify(&topo, &path[7], pkt.header.identification),
            Some(path[0])
        );
    }

    /// The Fig. 3(c) worked example on the 3-cube.
    #[test]
    fn paper_fig3c_vector_sequence() {
        let topo = Topology::hypercube(3);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let env = MarkEnv { topo: &topo };
        let map = AddrMap::for_topology(&topo);
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(0)
        };
        // Source (1,1,0), destination (0,0,0); the paper's vector
        // sequence is (1,0,0),(1,0,1),(0,0,1),(0,1,1),(0,1,0),(1,1,0) —
        // six hops, toggling dims 0,2,0,1,2,0.
        let path = [
            Coord::new(&[1, 1, 0]),
            Coord::new(&[0, 1, 0]),
            Coord::new(&[0, 1, 1]),
            Coord::new(&[1, 1, 1]),
            Coord::new(&[1, 0, 1]),
            Coord::new(&[1, 0, 0]),
            Coord::new(&[0, 0, 0]),
        ];
        let expected = [
            Coord::new(&[1, 0, 0]),
            Coord::new(&[1, 0, 1]),
            Coord::new(&[0, 0, 1]),
            Coord::new(&[0, 1, 1]),
            Coord::new(&[0, 1, 0]),
            Coord::new(&[1, 1, 0]),
        ];
        let mut pkt = mk_packet(&map, 0, topo.index(&path[0]), topo.index(&path[6]));
        scheme.on_inject(&mut pkt, &path[0], &env);
        for (i, w) in path.windows(2).enumerate() {
            scheme.on_forward(&mut pkt, &w[0], &w[1], &env, &mut rng);
            assert_eq!(
                scheme.codec().decode(pkt.header.identification),
                expected[i],
                "vector after hop {i}"
            );
        }
        assert_eq!(
            scheme.identify(&topo, &path[6], pkt.header.identification),
            Some(path[0])
        );
    }

    #[test]
    fn residue_mode_also_identifies() {
        let topo = Topology::mesh2d(16);
        let scheme = DdpmScheme::with_mode(&topo, CodecMode::Residue).unwrap();
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &scheme,
            SimConfig::seeded(3),
        );
        for id in 0..100 {
            let s = NodeId((id * 31 + 2) as u32 % 256);
            let d = NodeId((id * 17 + 9) as u32 % 256);
            if s == d {
                continue;
            }
            sim.schedule(SimTime(id), mk_packet(&map, id, s, d));
        }
        sim.run();
        for del in sim.delivered() {
            let dest = topo.coord(del.packet.dest_node);
            assert_eq!(
                scheme
                    .attribute(&topo, &dest, del.packet.header.identification)
                    .single(),
                Some(del.packet.true_source)
            );
        }
    }

    #[test]
    fn oversized_topology_is_rejected() {
        assert!(DdpmScheme::new(&Topology::mesh2d(129)).is_err());
        assert!(DdpmScheme::new(&Topology::mesh2d(128)).is_ok());
    }
}
