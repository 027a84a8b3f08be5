//! TCP SYN flooding and the victim's half-open connection table.
//!
//! "TCP SYN flooding attack makes as many TCP half-open connections as
//! the victim host is limited to receive. However, the individual
//! connection has nothing wrong except that the connection does not
//! complete three-way handshaking." (§1).
//!
//! [`SynFloodAttack`] generates the spoofed SYNs; [`HalfOpenTable`]
//! models the victim's backlog so the experiments can report the actual
//! denial metric: the fraction of *legitimate* connection attempts
//! rejected because the backlog was full of attack state.

use crate::scenario::{PacketFactory, Workload};
use crate::spoof::SpoofStrategy;
use crate::stream::{self, Stream};
use ddpm_net::{Packet, TrafficClass, L4};
use ddpm_sim::SimTime;
use ddpm_topology::NodeId;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A distributed SYN flood.
#[derive(Clone, Debug)]
pub struct SynFloodAttack {
    /// Compromised nodes sending the SYNs.
    pub zombies: Vec<NodeId>,
    /// The flooded service node.
    pub victim: NodeId,
    /// Target service port.
    pub port: u16,
    /// Cycles between SYNs per zombie.
    pub interval: u64,
    /// Attack start time.
    pub start: SimTime,
    /// SYNs each zombie sends.
    pub syns_per_zombie: u32,
    /// Source-address forging strategy.
    pub spoof: SpoofStrategy,
}

impl SynFloodAttack {
    /// A default-shaped SYN flood against `victim:80`.
    #[must_use]
    pub fn new(zombies: Vec<NodeId>, victim: NodeId) -> Self {
        Self {
            zombies,
            victim,
            port: 80,
            interval: 16,
            start: SimTime::ZERO,
            syns_per_zombie: 64,
            spoof: SpoofStrategy::RandomInCluster,
        }
    }

    /// One stream per zombie, in zombie order.
    ///
    /// # Panics
    /// Panics if a zombie targets itself.
    #[must_use]
    pub fn streams(&self) -> Vec<Stream<'static>> {
        self.zombies
            .iter()
            .enumerate()
            .map(|(zi, &zombie)| {
                let phase = (zi as u64 * 5) % self.interval.max(1);
                Stream::syn(
                    zombie,
                    self.victim,
                    self.spoof,
                    self.port,
                    self.start.cycles() + phase,
                    self.interval,
                    self.syns_per_zombie,
                )
            })
            .collect()
    }

    /// Generates the SYN schedule. Spoofed SYNs never complete the
    /// handshake — the SYN-ACK goes to the forged address.
    pub fn generate<R: Rng + ?Sized>(&self, factory: &mut PacketFactory, rng: &mut R) -> Workload {
        stream::drain(self.streams(), factory, rng)
    }
}

/// Key identifying one pending handshake.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ConnKey {
    src_ip: Ipv4Addr,
    src_port: u16,
}

/// Outcome of feeding one packet to the table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SynOutcome {
    /// SYN accepted: backlog slot allocated.
    Accepted,
    /// SYN rejected: backlog full — **service denied**.
    Rejected,
    /// Handshake completed: slot released.
    Completed,
    /// Not a handshake packet; ignored by the table.
    Ignored,
}

/// The victim's half-open (SYN backlog) table.
///
/// Entries expire after `timeout` cycles, mirroring a real SYN-received
/// timer; spoofed entries are only ever reclaimed by that timer.
#[derive(Clone, Debug)]
pub struct HalfOpenTable {
    capacity: usize,
    timeout: u64,
    pending: HashMap<ConnKey, SimTime>,
    /// Legitimate SYNs rejected (the denial metric numerator).
    pub rejected_benign: u64,
    /// Attack SYNs rejected.
    pub rejected_attack: u64,
    /// Total SYNs accepted.
    pub accepted: u64,
}

impl HalfOpenTable {
    /// A table with `capacity` slots and `timeout`-cycle expiry.
    #[must_use]
    pub fn new(capacity: usize, timeout: u64) -> Self {
        Self {
            capacity,
            timeout,
            pending: HashMap::with_capacity(capacity),
            rejected_benign: 0,
            rejected_attack: 0,
            accepted: 0,
        }
    }

    /// Current backlog occupancy.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.pending.len()
    }

    fn expire(&mut self, now: SimTime) {
        let timeout = self.timeout;
        self.pending.retain(|_, t0| now.since(*t0) < timeout);
    }

    /// Feeds one delivered packet to the victim's TCP stack model.
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> SynOutcome {
        self.expire(now);
        let L4::Tcp {
            src_port, flags, ..
        } = pkt.l4
        else {
            return SynOutcome::Ignored;
        };
        let key = ConnKey {
            src_ip: pkt.header.src,
            src_port,
        };
        if flags.syn && !flags.ack {
            if self.pending.len() >= self.capacity {
                match pkt.class {
                    TrafficClass::Benign => self.rejected_benign += 1,
                    TrafficClass::Attack => self.rejected_attack += 1,
                }
                return SynOutcome::Rejected;
            }
            self.pending.insert(key, now);
            self.accepted += 1;
            SynOutcome::Accepted
        } else if flags.ack && !flags.syn {
            if self.pending.remove(&key).is_some() {
                SynOutcome::Completed
            } else {
                SynOutcome::Ignored
            }
        } else {
            SynOutcome::Ignored
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_net::AddrMap;
    use ddpm_net::TcpFlags;
    use ddpm_topology::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn factory() -> PacketFactory {
        let topo = Topology::mesh2d(8);
        PacketFactory::new(AddrMap::for_topology(&topo))
    }

    #[test]
    fn flood_generates_spoofed_syns() {
        let mut f = factory();
        let mut rng = SmallRng::seed_from_u64(3);
        let atk = SynFloodAttack::new(vec![NodeId(1), NodeId(2)], NodeId(63));
        let w = atk.generate(&mut f, &mut rng);
        assert_eq!(w.len(), 128);
        assert!(w.iter().all(|(_, p)| p.l4.is_syn()));
    }

    #[test]
    fn backlog_fills_and_rejects() {
        let mut f = factory();
        let mut table = HalfOpenTable::new(4, 1_000_000);
        let mut rng = SmallRng::seed_from_u64(1);
        // 6 spoofed attack SYNs into a 4-slot table.
        for i in 0..6u16 {
            let claimed = SpoofStrategy::RandomInCluster.claimed_ip(f.map(), NodeId(1), &mut rng);
            let p = f.attack(
                NodeId(1),
                claimed,
                NodeId(0),
                L4::tcp_syn(1000 + i, 80, 1),
                40,
            );
            table.on_packet(&p, SimTime(u64::from(i)));
        }
        assert_eq!(table.occupancy(), 4);
        assert_eq!(table.rejected_attack, 2);
        // A legitimate SYN is now denied.
        let honest = f.benign(NodeId(5), NodeId(0), L4::tcp_syn(2000, 80, 9), 40);
        assert_eq!(table.on_packet(&honest, SimTime(10)), SynOutcome::Rejected);
        assert_eq!(table.rejected_benign, 1);
    }

    #[test]
    fn handshake_completion_frees_slot() {
        let mut f = factory();
        let mut table = HalfOpenTable::new(1, 1_000_000);
        let syn = f.benign(NodeId(5), NodeId(0), L4::tcp_syn(2000, 80, 9), 40);
        assert_eq!(table.on_packet(&syn, SimTime(0)), SynOutcome::Accepted);
        assert_eq!(table.occupancy(), 1);
        let ack = f.benign(
            NodeId(5),
            NodeId(0),
            L4::Tcp {
                src_port: 2000,
                dst_port: 80,
                flags: TcpFlags::ack(),
                seq: 10,
            },
            40,
        );
        assert_eq!(table.on_packet(&ack, SimTime(5)), SynOutcome::Completed);
        assert_eq!(table.occupancy(), 0);
    }

    #[test]
    fn timeout_reclaims_spoofed_slots() {
        let mut f = factory();
        let mut table = HalfOpenTable::new(2, 100);
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..2u16 {
            let claimed = SpoofStrategy::RandomInCluster.claimed_ip(f.map(), NodeId(1), &mut rng);
            let p = f.attack(NodeId(1), claimed, NodeId(0), L4::tcp_syn(i, 80, 1), 40);
            table.on_packet(&p, SimTime(0));
        }
        assert_eq!(table.occupancy(), 2);
        // After the timeout the slots are reclaimable.
        let honest = f.benign(NodeId(5), NodeId(0), L4::tcp_syn(999, 80, 1), 40);
        assert_eq!(table.on_packet(&honest, SimTime(200)), SynOutcome::Accepted);
    }

    #[test]
    fn non_tcp_ignored() {
        let mut f = factory();
        let mut table = HalfOpenTable::new(2, 100);
        let p = f.benign(NodeId(5), NodeId(0), L4::udp(1, 2), 64);
        assert_eq!(table.on_packet(&p, SimTime(0)), SynOutcome::Ignored);
    }
}
