//! Victim-side identification front-ends and accuracy scoring.
//!
//! These helpers turn a victim's delivered-packet stream into the
//! numbers the experiments report: per-packet identification outcomes
//! (scored against simulator ground truth) and an attack-source census
//! feeding mitigation.

use crate::ddpm::DdpmScheme;
use ddpm_net::TrafficClass;
use ddpm_sim::Delivered;
use ddpm_topology::{NodeId, Topology};
use std::collections::HashMap;

/// Outcome counts of scoring an identification scheme against ground
/// truth.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentificationReport {
    /// Packets examined.
    pub total: u64,
    /// Identified exactly the true injecting node.
    pub correct: u64,
    /// Identified some other node (false attribution).
    pub wrong: u64,
    /// The scheme produced no identification.
    pub unidentified: u64,
}

impl IdentificationReport {
    /// Fraction identified correctly.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.correct as f64 / self.total as f64
    }
}

/// Scores DDPM per-packet identification over a delivered stream.
///
/// This is the headline measurement: under DDPM every delivered packet
/// identifies its true source ("The victim needs only one packet to
/// identify the source", §1), so accuracy is 1.0 across every router and
/// fault pattern — verified by the `ident` experiment and the
/// integration tests.
#[must_use]
pub fn score_ddpm(
    topo: &Topology,
    scheme: &DdpmScheme,
    delivered: &[Delivered],
) -> IdentificationReport {
    let mut r = IdentificationReport::default();
    for d in delivered {
        r.total += 1;
        let dest = topo.coord(d.packet.dest_node);
        match scheme.attribute(topo, &dest, d.packet.header.identification).single() {
            Some(node) if node == d.packet.true_source => r.correct += 1,
            Some(_) => r.wrong += 1,
            None => r.unidentified += 1,
        }
    }
    r
}

/// Census of identified sources over the **attack-class** packets a
/// victim received: identified node → packet count. Feeds the
/// quarantine filter in the end-to-end pipeline.
#[must_use]
pub fn attack_census(
    topo: &Topology,
    scheme: &DdpmScheme,
    delivered: &[Delivered],
) -> HashMap<NodeId, u64> {
    let mut census = HashMap::new();
    for d in delivered {
        if d.packet.class != TrafficClass::Attack {
            continue;
        }
        let dest = topo.coord(d.packet.dest_node);
        if let Some(node) = scheme
            .attribute(topo, &dest, d.packet.header.identification)
            .single()
        {
            *census.entry(node).or_insert(0) += 1;
        }
    }
    census
}

/// The spoofed-source census a victim would compute *without* any
/// marking scheme: it can only trust the (forged) source address field.
/// Used by experiments as the "no traceback" baseline.
#[must_use]
pub fn naive_census(
    map: &ddpm_net::AddrMap,
    delivered: &[Delivered],
) -> HashMap<Option<NodeId>, u64> {
    let mut census = HashMap::new();
    for d in delivered {
        if d.packet.class != TrafficClass::Attack {
            continue;
        }
        *census.entry(map.node_of(d.packet.header.src)).or_insert(0) += 1;
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::{AddrMap, Ipv4Header, MarkingField, Packet, PacketId, Protocol, L4};
    use ddpm_sim::SimTime;

    fn delivered_with_mf(
        topo: &Topology,
        map: &AddrMap,
        true_src: NodeId,
        spoof_src: NodeId,
        dst: NodeId,
        mf: MarkingField,
        class: TrafficClass,
    ) -> Delivered {
        let mut header = Ipv4Header::new(map.ip_of(spoof_src), map.ip_of(dst), Protocol::Udp, 64);
        header.identification = mf;
        let _ = topo;
        Delivered {
            packet: Packet {
                id: PacketId(0),
                header,
                l4: L4::udp(1, 2),
                true_source: true_src,
                dest_node: dst,
                class,
            },
            injected_at: SimTime::ZERO,
            delivered_at: SimTime(10),
            hops: 3,
        }
    }

    #[test]
    fn report_counts_and_accuracy() {
        let topo = Topology::mesh2d(4);
        let map = AddrMap::for_topology(&topo);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let src = NodeId(3);
        let dst = NodeId(12);
        let v = topo.expected_distance(&topo.coord(src), &topo.coord(dst));
        let good_mf = scheme.codec().encode(&v).unwrap();
        let bad_v = topo.expected_distance(&topo.coord(NodeId(7)), &topo.coord(dst));
        let bad_mf = scheme.codec().encode(&bad_v).unwrap();
        let stream = vec![
            delivered_with_mf(
                &topo,
                &map,
                src,
                NodeId(9),
                dst,
                good_mf,
                TrafficClass::Attack,
            ),
            delivered_with_mf(
                &topo,
                &map,
                src,
                NodeId(9),
                dst,
                bad_mf,
                TrafficClass::Attack,
            ),
        ];
        let r = score_ddpm(&topo, &scheme, &stream);
        assert_eq!(r.total, 2);
        assert_eq!(r.correct, 1);
        assert_eq!(r.wrong, 1);
        assert_eq!(r.accuracy(), 0.5);
    }

    #[test]
    fn census_ignores_benign_and_uses_marking_not_header() {
        let topo = Topology::mesh2d(4);
        let map = AddrMap::for_topology(&topo);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let dst = NodeId(15);
        let mk = |src: NodeId, class| {
            let v = topo.expected_distance(&topo.coord(src), &topo.coord(dst));
            let mf = scheme.codec().encode(&v).unwrap();
            // Spoofed header always claims node 0.
            delivered_with_mf(&topo, &map, src, NodeId(0), dst, mf, class)
        };
        let stream = vec![
            mk(NodeId(3), TrafficClass::Attack),
            mk(NodeId(3), TrafficClass::Attack),
            mk(NodeId(7), TrafficClass::Attack),
            mk(NodeId(9), TrafficClass::Benign),
        ];
        let census = attack_census(&topo, &scheme, &stream);
        assert_eq!(census.get(&NodeId(3)), Some(&2));
        assert_eq!(census.get(&NodeId(7)), Some(&1));
        assert_eq!(census.len(), 2);
        // The naive census sees only the forged claim.
        let naive = naive_census(&map, &stream);
        assert_eq!(naive.get(&Some(NodeId(0))), Some(&3));
        assert_eq!(naive.len(), 1);
    }

    #[test]
    fn empty_stream_is_fully_accurate() {
        let topo = Topology::mesh2d(4);
        let scheme = DdpmScheme::new(&topo).unwrap();
        let r = score_ddpm(&topo, &scheme, &[]);
        assert_eq!(r.accuracy(), 1.0);
    }
}
