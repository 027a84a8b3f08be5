//! Volumetric multi-zombie floods (TFN / trinoo style).
//!
//! "The first generation DDoS attacks dump huge number of packets to a
//! specific target system by using DDoS attack tools such as Tribe Flood
//! Network (TFN) and trinoo. Aggregated traffic causes system-slowdown
//! or even breakdown because of too large amount of traffic to handle."
//! (§1). A [`FloodAttack`] coordinates a set of compromised nodes
//! (zombies) to inject spoofed UDP or ICMP traffic at a fixed per-zombie
//! rate for a fixed duration.

use crate::scenario::{PacketFactory, Workload};
use crate::spoof::SpoofStrategy;
use crate::stream::{self, Stream};
use ddpm_sim::SimTime;
use ddpm_topology::NodeId;
use rand::Rng;

/// A coordinated volumetric flood.
#[derive(Clone, Debug)]
pub struct FloodAttack {
    /// Compromised nodes injecting attack traffic.
    pub zombies: Vec<NodeId>,
    /// The target node.
    pub victim: NodeId,
    /// Cycles between consecutive packets *per zombie*.
    pub interval: u64,
    /// Attack start time.
    pub start: SimTime,
    /// Packets each zombie sends.
    pub packets_per_zombie: u32,
    /// Spoofing strategy.
    pub spoof: SpoofStrategy,
    /// Use ICMP echo instead of UDP.
    pub icmp: bool,
}

impl FloodAttack {
    /// A default-shaped flood: UDP, random in-cluster spoofing.
    #[must_use]
    pub fn new(zombies: Vec<NodeId>, victim: NodeId) -> Self {
        Self {
            zombies,
            victim,
            interval: 8,
            start: SimTime::ZERO,
            packets_per_zombie: 100,
            spoof: SpoofStrategy::RandomInCluster,
            icmp: false,
        }
    }

    /// Total packets the attack will inject.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.zombies.len() as u64 * u64::from(self.packets_per_zombie)
    }

    /// One stream per zombie, in zombie order. Zombies de-synchronise
    /// slightly, like independent agents.
    ///
    /// # Panics
    /// Panics if a zombie targets itself.
    #[must_use]
    pub fn streams(&self) -> Vec<Stream<'static>> {
        self.zombies
            .iter()
            .enumerate()
            .map(|(zi, &zombie)| {
                let phase = (zi as u64 * 3) % self.interval.max(1);
                Stream::flood(
                    zombie,
                    self.victim,
                    self.spoof,
                    self.icmp,
                    self.start.cycles() + phase,
                    self.interval,
                    self.packets_per_zombie,
                )
            })
            .collect()
    }

    /// Generates the injection schedule.
    ///
    /// # Panics
    /// Panics if a zombie targets itself.
    pub fn generate<R: Rng + ?Sized>(&self, factory: &mut PacketFactory, rng: &mut R) -> Workload {
        stream::drain(self.streams(), factory, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::{AddrMap, TrafficClass, L4};
    use ddpm_topology::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (PacketFactory, SmallRng) {
        let topo = Topology::mesh2d(8);
        (
            PacketFactory::new(AddrMap::for_topology(&topo)),
            SmallRng::seed_from_u64(7),
        )
    }

    #[test]
    fn generates_expected_count_and_class() {
        let (mut f, mut rng) = setup();
        let attack = FloodAttack {
            zombies: vec![NodeId(1), NodeId(2), NodeId(3)],
            victim: NodeId(60),
            packets_per_zombie: 10,
            ..FloodAttack::new(vec![], NodeId(60))
        };
        let w = attack.generate(&mut f, &mut rng);
        assert_eq!(w.len(), 30);
        assert!(w
            .iter()
            .all(|(_, p)| p.class == TrafficClass::Attack && p.dest_node == NodeId(60)));
    }

    #[test]
    fn per_zombie_rate_respected() {
        let (mut f, mut rng) = setup();
        let attack = FloodAttack {
            zombies: vec![NodeId(5)],
            victim: NodeId(0),
            interval: 10,
            packets_per_zombie: 5,
            start: SimTime(100),
            ..FloodAttack::new(vec![], NodeId(0))
        };
        let w = attack.generate(&mut f, &mut rng);
        let times: Vec<u64> = w.iter().map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![100, 110, 120, 130, 140]);
    }

    #[test]
    fn spoofed_sources_hide_zombies() {
        let (mut f, mut rng) = setup();
        let attack = FloodAttack::new(vec![NodeId(9)], NodeId(0));
        let w = attack.generate(&mut f, &mut rng);
        let spoofed = w.iter().filter(|(_, p)| p.is_spoofed(f.map())).count();
        // Random in-cluster spoofing: all but (statistically) ~1/N.
        assert!(spoofed as f64 / w.len() as f64 > 0.9);
        // Ground truth is preserved for evaluation.
        assert!(w.iter().all(|(_, p)| p.true_source == NodeId(9)));
    }

    #[test]
    #[should_panic(expected = "cannot flood itself")]
    fn zombie_equal_victim_rejected() {
        let (mut f, mut rng) = setup();
        let attack = FloodAttack::new(vec![NodeId(0)], NodeId(0));
        let _ = attack.generate(&mut f, &mut rng);
    }

    #[test]
    fn icmp_mode() {
        let (mut f, mut rng) = setup();
        let mut attack = FloodAttack::new(vec![NodeId(1)], NodeId(2));
        attack.icmp = true;
        attack.packets_per_zombie = 3;
        let w = attack.generate(&mut f, &mut rng);
        assert!(w.iter().all(|(_, p)| matches!(p.l4, L4::Icmp { kind: 8 })));
    }
}
