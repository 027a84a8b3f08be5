//! Workloads one packet at a time.
//!
//! Every generator here is **injector-major**: it draws one node's or
//! zombie's whole schedule, in time order, before the next one's, all
//! from one RNG and one [`PacketFactory`]. A [`Stream`] is one
//! injector's share of that schedule; [`drain`] runs streams one after
//! another and reproduces the eager generator exactly.
//!
//! [`LazyWorkload`] is the same workload as a simulator
//! [`TrafficSource`]. One counting pass runs the streams as the eager
//! generator would, records each stream's starting RNG state, factory
//! and index, and leaves the caller's RNG and factory where the eager
//! generation leaves them. The workload then replays each stream from
//! its recorded start on demand and merges the streams by `(time,
//! index)`: the packets, their ids and their handles are those of the
//! eager workload, but only one pending packet per stream exists at a
//! time.

use crate::background::TrafficPattern;
use crate::scenario::{PacketFactory, Workload};
use crate::spoof::SpoofStrategy;
use ddpm_net::{Packet, L4};
use ddpm_sim::{SimTime, TrafficSource};
use ddpm_topology::{NodeId, Topology};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Payload carried by flood packets (bytes).
const FLOOD_PAYLOAD: u16 = 512;

/// How a stream times and draws its packets.
#[derive(Clone, Copy, Debug)]
enum Kind<'t> {
    /// A benign node on its own jittered clock until `end`.
    Benign {
        topo: &'t Topology,
        pattern: TrafficPattern,
        start: u64,
        end: u64,
    },
    /// A flooding zombie: UDP (or ICMP echo) at a fixed rate.
    Flood {
        victim: NodeId,
        spoof: SpoofStrategy,
        icmp: bool,
    },
    /// A SYN-flooding zombie.
    Syn {
        victim: NodeId,
        spoof: SpoofStrategy,
        port: u16,
    },
}

/// One injector's packets, in time order.
#[derive(Clone, Copy, Debug)]
pub struct Stream<'t> {
    src: NodeId,
    kind: Kind<'t>,
    /// Time of the next packet; `None` once exhausted.
    next: Option<u64>,
    /// Cycles between packets (benign: their mean).
    interval: u64,
    /// Fixed-rate streams: packets left.
    left: u32,
}

impl<'t> Stream<'t> {
    /// Node `src`'s benign stream: its first injection falls uniformly
    /// in `[start, start + interval)`, then it injects every
    /// `interval / 2 + U[0, interval]` cycles until `start + duration`.
    pub(crate) fn benign(
        topo: &'t Topology,
        src: NodeId,
        pattern: TrafficPattern,
        interval: u64,
        start: u64,
        duration: u64,
    ) -> Self {
        Self {
            src,
            kind: Kind::Benign {
                topo,
                pattern,
                start,
                end: start + duration,
            },
            next: None,
            interval,
            left: 0,
        }
    }

    /// A UDP (or ICMP echo) flood from `zombie`: `count` packets,
    /// `interval` apart, from `first`.
    pub(crate) fn flood(
        zombie: NodeId,
        victim: NodeId,
        spoof: SpoofStrategy,
        icmp: bool,
        first: u64,
        interval: u64,
        count: u32,
    ) -> Self {
        assert_ne!(zombie, victim, "zombie cannot flood itself");
        Self {
            src: zombie,
            kind: Kind::Flood {
                victim,
                spoof,
                icmp,
            },
            next: (count > 0).then_some(first),
            interval,
            left: count,
        }
    }

    /// A SYN flood from `zombie` on `victim:port`.
    pub(crate) fn syn(
        zombie: NodeId,
        victim: NodeId,
        spoof: SpoofStrategy,
        port: u16,
        first: u64,
        interval: u64,
        count: u32,
    ) -> Self {
        assert_ne!(zombie, victim, "zombie cannot flood itself");
        Self {
            src: zombie,
            kind: Kind::Syn {
                victim,
                spoof,
                port,
            },
            next: (count > 0).then_some(first),
            interval,
            left: count,
        }
    }

    /// Starts the stream. A benign stream draws its first injection
    /// time here; every other stream draws nothing.
    #[must_use]
    pub(crate) fn open<R: Rng + ?Sized>(mut self, rng: &mut R) -> Self {
        if let Kind::Benign { start, end, .. } = self.kind {
            let t = start + rng.gen_range(0..self.interval.max(1));
            self.next = (t < end).then_some(t);
        }
        self
    }

    /// Time of the next packet, `None` once the stream is exhausted.
    #[must_use]
    pub(crate) fn peek(&self) -> Option<u64> {
        self.next
    }

    /// Draws the next packet and advances the stream.
    ///
    /// # Panics
    /// If the stream is exhausted.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        factory: &mut PacketFactory,
        rng: &mut R,
    ) -> (SimTime, Packet) {
        let t = self.next.expect("stream exhausted");
        let src = self.src;
        let packet = match self.kind {
            Kind::Benign {
                topo, pattern, end, ..
            } => {
                let dst = pattern.pick_dest(topo, src, rng);
                let l4 = L4::udp(rng.gen_range(1024..=u16::MAX), 9999);
                let packet = factory.benign(src, dst, l4, 256);
                // Jittered inter-arrival: uniform in [interval/2, 3*interval/2].
                let gap = self.interval / 2 + rng.gen_range(0..=self.interval.max(1));
                let next = t + gap.max(1);
                self.next = (next < end).then_some(next);
                return (SimTime(t), packet);
            }
            Kind::Flood {
                victim,
                spoof,
                icmp,
            } => {
                let claimed = spoof.claimed_ip(factory.map(), src, rng);
                let l4 = if icmp {
                    L4::Icmp { kind: 8 }
                } else {
                    L4::udp(rng.gen_range(1024..=u16::MAX), 7) // echo port
                };
                factory.attack(src, claimed, victim, l4, FLOOD_PAYLOAD)
            }
            Kind::Syn {
                victim,
                spoof,
                port,
            } => {
                let claimed = spoof.claimed_ip(factory.map(), src, rng);
                let l4 = L4::tcp_syn(rng.gen_range(1024..=u16::MAX), port, rng.gen());
                factory.attack(src, claimed, victim, l4, 40)
            }
        };
        self.left -= 1;
        self.next = (self.left > 0).then_some(t + self.interval);
        (SimTime(t), packet)
    }
}

/// Runs `streams` one after another: the eager workload.
pub fn drain<'t, R: Rng + ?Sized>(
    streams: impl IntoIterator<Item = Stream<'t>>,
    factory: &mut PacketFactory,
    rng: &mut R,
) -> Workload {
    let mut out = Workload::new();
    for stream in streams {
        let mut s = stream.open(rng);
        while s.peek().is_some() {
            out.push(s.draw(factory, rng));
        }
    }
    out
}

/// How a [`LazyWorkload`] numbers its packets' handles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandleOrder {
    /// In generation order: the eager workload's index.
    Generation,
    /// In time order, generation order within a cycle: the workload's
    /// index after a stable sort by time.
    Time,
}

/// One stream, replayable from its recorded start.
struct Part<'t> {
    stream: Stream<'t>,
    factory: PacketFactory,
    rng: SmallRng,
}

/// A workload generated as the simulator pulls it. See the module
/// docs.
pub struct LazyWorkload<'t> {
    parts: Vec<Part<'t>>,
    /// `(time, index, part)` of each unexhausted part's next packet,
    /// earliest first; `index` is the packet's place in the eager
    /// workload.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    order: HandleOrder,
    len: u64,
    drawn: u64,
}

impl<'t> LazyWorkload<'t> {
    /// Counts `streams` as [`drain`] would generate them from `factory`
    /// and `rng`, leaving both exactly where [`drain`] leaves them, and
    /// records where each stream starts.
    pub fn new(
        streams: impl IntoIterator<Item = Stream<'t>>,
        factory: &mut PacketFactory,
        rng: &mut SmallRng,
        order: HandleOrder,
    ) -> Self {
        let mut parts = Vec::new();
        let mut heap = BinaryHeap::new();
        let mut len = 0u64;
        for stream in streams {
            let mut part = Part {
                stream,
                factory: factory.clone(),
                rng: rng.clone(),
            };
            let mut s = stream.open(rng);
            let mut n = 0;
            while s.peek().is_some() {
                s.draw(factory, rng);
                n += 1;
            }
            if n == 0 {
                continue;
            }
            part.stream = part.stream.open(&mut part.rng);
            let first = part.stream.peek().expect("the counting pass drew a packet");
            heap.push(Reverse((first, len, parts.len() as u32)));
            parts.push(part);
            len += n;
        }
        Self {
            parts,
            heap,
            order,
            len,
            drawn: 0,
        }
    }

    fn handle(&self, index: u64) -> u64 {
        match self.order {
            HandleOrder::Generation => index,
            HandleOrder::Time => self.drawn,
        }
    }
}

impl TrafficSource for LazyWorkload<'_> {
    fn peek(&self) -> Option<(u64, u64)> {
        let Reverse((t, index, _)) = *self.heap.peek()?;
        Some((t, self.handle(index)))
    }

    fn pop(&mut self) -> Option<(u64, u64, Packet)> {
        let Reverse((t, index, p)) = self.heap.pop()?;
        let handle = self.handle(index);
        let part = &mut self.parts[p as usize];
        let (at, packet) = part.stream.draw(&mut part.factory, &mut part.rng);
        debug_assert_eq!(at.0, t);
        if let Some(next) = part.stream.peek() {
            self.heap.push(Reverse((next, index + 1, p)));
        }
        self.drawn += 1;
        Some((t, handle, packet))
    }

    fn handles(&self) -> u64 {
        self.len
    }

    fn cursor(&self) -> u64 {
        self.drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackgroundTraffic, FloodAttack, SynFloodAttack};
    use ddpm_net::AddrMap;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn streams(topo: &Topology, code: u64) -> Vec<Stream<'_>> {
        let n = topo.num_nodes() as u32;
        let bg = BackgroundTraffic::uniform(4 + code % 20, 50 + code % 300);
        let flood = FloodAttack {
            packets_per_zombie: (code % 30) as u32,
            interval: 1 + code % 7,
            ..FloodAttack::new(vec![NodeId(1), NodeId(n - 1)], NodeId(0))
        };
        let syn = SynFloodAttack {
            syns_per_zombie: (code % 11) as u32,
            interval: 1 + code % 5,
            ..SynFloodAttack::new(vec![NodeId(2)], NodeId(3))
        };
        let mut out = bg.streams(topo);
        out.extend(flood.streams());
        out.extend(syn.streams());
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lazy workload yields the eager workload's packets with
        /// their eager or time-sorted indices as handles, in
        /// `(time, handle)` order, and leaves the generator state where
        /// the eager generation does.
        #[test]
        fn lazy_workload_replays_the_eager_one(code in any::<u64>(), seed in any::<u64>()) {
            let topo = Topology::torus(&[3 + (code % 4) as u16, 4]);
            let map = AddrMap::for_topology(&topo);
            let mut f1 = PacketFactory::new(map.clone());
            let mut r1 = SmallRng::seed_from_u64(seed);
            let eager = drain(streams(&topo, code), &mut f1, &mut r1);
            for order in [HandleOrder::Generation, HandleOrder::Time] {
                let mut f2 = PacketFactory::new(map.clone());
                let mut r2 = SmallRng::seed_from_u64(seed);
                let mut lazy = LazyWorkload::new(streams(&topo, code), &mut f2, &mut r2, order);
                prop_assert_eq!(f2.issued(), f1.issued());
                prop_assert_eq!(r2.state(), r1.state());
                prop_assert_eq!(lazy.handles(), eager.len() as u64);
                let mut want: Vec<(u64, u64, Packet)> = eager
                    .iter()
                    .enumerate()
                    .map(|(i, (t, p))| (t.0, i as u64, *p))
                    .collect();
                want.sort_by_key(|&(t, i, _)| (t, i));
                if order == HandleOrder::Time {
                    for (k, w) in want.iter_mut().enumerate() {
                        w.1 = k as u64;
                    }
                }
                let mut got = Vec::new();
                while let Some(peeked) = lazy.peek() {
                    let item = lazy.pop().expect("peeked");
                    prop_assert_eq!((item.0, item.1), peeked);
                    got.push(item);
                }
                prop_assert_eq!(lazy.cursor(), eager.len() as u64);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!((g.0, g.1, g.2.id), (w.0, w.1, w.2.id));
                    prop_assert_eq!(format!("{:?}", g.2), format!("{:?}", w.2));
                }
            }
        }
    }
}
