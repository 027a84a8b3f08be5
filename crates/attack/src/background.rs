//! Benign cluster traffic.
//!
//! Experiments need a background against which attacks stand out and
//! collateral damage is measurable. These are the standard interconnect
//! evaluation patterns:
//!
//! * **uniform random** — each packet picks a uniform destination;
//! * **transpose** — node `(x, y)` talks to `(y, x)` (a classic
//!   adversarial-permutation pattern for 2-D meshes);
//! * **hot spot** — a fraction of traffic converges on one node (e.g. a
//!   file server), the rest uniform;
//! * **nearest neighbour** — stencil-style communication with one of
//!   the physical neighbours.

use crate::scenario::{PacketFactory, Workload};
use crate::stream::{self, Stream};
use ddpm_sim::SimTime;
use ddpm_topology::{NodeId, Topology};
use rand::Rng;

/// The spatial distribution of benign traffic.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrafficPattern {
    /// Uniform random destinations.
    Uniform,
    /// `(x, y) → (y, x)`; 2-D topologies only. Nodes on the diagonal
    /// fall back to uniform.
    Transpose,
    /// `fraction` of packets go to `node`, the rest uniform.
    HotSpot {
        /// The hot node (e.g. a file server).
        node: NodeId,
        /// Fraction of traffic aimed at it, `0.0..=1.0`.
        fraction: f64,
    },
    /// A uniformly chosen physical neighbour.
    NearestNeighbor,
}

impl TrafficPattern {
    /// A destination for a packet from `src`.
    pub(crate) fn pick_dest<R: Rng + ?Sized>(
        self,
        topo: &Topology,
        src: NodeId,
        rng: &mut R,
    ) -> NodeId {
        let n = topo.num_nodes() as u32;
        let uniform = |rng: &mut R| loop {
            let d = NodeId(rng.gen_range(0..n));
            if d != src {
                break d;
            }
        };
        match self {
            TrafficPattern::Uniform => uniform(rng),
            TrafficPattern::Transpose => {
                let c = topo.coord(src);
                if topo.ndims() == 2 {
                    let t = ddpm_topology::Coord::new(&[c.get(1), c.get(0)]);
                    if topo.contains(&t) && t != c {
                        return topo.index(&t);
                    }
                }
                uniform(rng)
            }
            TrafficPattern::HotSpot { node, fraction } => {
                if node != src && rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    node
                } else {
                    uniform(rng)
                }
            }
            TrafficPattern::NearestNeighbor => {
                let nbs = topo.neighbors(&topo.coord(src));
                let (_, c) = nbs[rng.gen_range(0..nbs.len())];
                topo.index(&c)
            }
        }
    }
}

/// A benign background workload.
#[derive(Clone, Debug)]
pub struct BackgroundTraffic {
    /// Destination distribution.
    pub pattern: TrafficPattern,
    /// Mean cycles between injections per node (exponential-ish via
    /// uniform jitter).
    pub interval: u64,
    /// Workload horizon in cycles.
    pub duration: u64,
    /// First injection time.
    pub start: SimTime,
}

impl BackgroundTraffic {
    /// Uniform background with the given per-node interval and horizon.
    #[must_use]
    pub fn uniform(interval: u64, duration: u64) -> Self {
        Self {
            pattern: TrafficPattern::Uniform,
            interval,
            duration,
            start: SimTime::ZERO,
        }
    }

    /// One stream per node, in node order: every node injects on its
    /// own jittered clock for the whole horizon.
    #[must_use]
    pub fn streams<'t>(&self, topo: &'t Topology) -> Vec<Stream<'t>> {
        (0..topo.num_nodes() as u32)
            .map(|src| {
                Stream::benign(
                    topo,
                    NodeId(src),
                    self.pattern,
                    self.interval,
                    self.start.cycles(),
                    self.duration,
                )
            })
            .collect()
    }

    /// Generates the benign schedule: every node injects on its own
    /// jittered clock for the whole horizon.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        factory: &mut PacketFactory,
        rng: &mut R,
    ) -> Workload {
        stream::drain(self.streams(topo), factory, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::{AddrMap, TrafficClass};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(topo: &Topology) -> (PacketFactory, SmallRng) {
        (
            PacketFactory::new(AddrMap::for_topology(topo)),
            SmallRng::seed_from_u64(11),
        )
    }

    #[test]
    fn uniform_covers_many_destinations() {
        let topo = Topology::mesh2d(6);
        let (mut f, mut rng) = setup(&topo);
        let bg = BackgroundTraffic::uniform(16, 2048);
        let w = bg.generate(&topo, &mut f, &mut rng);
        assert!(!w.is_empty());
        assert!(w.iter().all(|(_, p)| p.class == TrafficClass::Benign));
        assert!(w.iter().all(|(_, p)| p.true_source != p.dest_node));
        let dests: std::collections::HashSet<NodeId> = w.iter().map(|(_, p)| p.dest_node).collect();
        assert!(dests.len() > 20);
    }

    #[test]
    fn transpose_maps_xy_to_yx() {
        let topo = Topology::mesh2d(4);
        let (mut f, mut rng) = setup(&topo);
        let bg = BackgroundTraffic {
            pattern: TrafficPattern::Transpose,
            ..BackgroundTraffic::uniform(32, 512)
        };
        let w = bg.generate(&topo, &mut f, &mut rng);
        for (_, p) in &w {
            let s = topo.coord(p.true_source);
            if s.get(0) != s.get(1) {
                let d = topo.coord(p.dest_node);
                assert_eq!((d.get(0), d.get(1)), (s.get(1), s.get(0)));
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let topo = Topology::mesh2d(6);
        let (mut f, mut rng) = setup(&topo);
        let hot = NodeId(0);
        let bg = BackgroundTraffic {
            pattern: TrafficPattern::HotSpot {
                node: hot,
                fraction: 0.5,
            },
            ..BackgroundTraffic::uniform(16, 2048)
        };
        let w = bg.generate(&topo, &mut f, &mut rng);
        let to_hot = w.iter().filter(|(_, p)| p.dest_node == hot).count();
        let frac = to_hot as f64 / w.len() as f64;
        assert!(frac > 0.35, "hotspot fraction too low: {frac}");
    }

    #[test]
    fn nearest_neighbor_is_one_hop() {
        let topo = Topology::torus(&[4, 4]);
        let (mut f, mut rng) = setup(&topo);
        let bg = BackgroundTraffic {
            pattern: TrafficPattern::NearestNeighbor,
            ..BackgroundTraffic::uniform(32, 512)
        };
        let w = bg.generate(&topo, &mut f, &mut rng);
        for (_, p) in &w {
            assert_eq!(
                topo.min_hops(&topo.coord(p.true_source), &topo.coord(p.dest_node)),
                1
            );
        }
    }

    #[test]
    fn horizon_respected() {
        let topo = Topology::mesh2d(4);
        let (mut f, mut rng) = setup(&topo);
        let bg = BackgroundTraffic {
            start: SimTime(100),
            ..BackgroundTraffic::uniform(8, 300)
        };
        let w = bg.generate(&topo, &mut f, &mut rng);
        assert!(w.iter().all(|(t, _)| t.0 >= 100 && t.0 < 400));
    }
}
