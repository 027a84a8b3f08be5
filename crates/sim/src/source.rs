//! Traffic into the simulator.
//!
//! Packets enter a run from a [`TrafficSource`]: a stream in
//! nondecreasing injection time that the simulator pulls from just
//! before it activates each cycle. Only then does a packet take an
//! arena slot and queue its `Inject`, so the arena and the event queue
//! hold the packets in flight, never the schedule.
//!
//! Every packet comes with its **handle**. The handle seeds the
//! packet's RNG stream and breaks same-cycle ties in the event queue,
//! so a source that yields the same packets with the same handles
//! yields the same run, however lazily it produces them.

use ddpm_net::Packet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stream of packets in nondecreasing `(time, handle)` order.
///
/// A source numbers its packets with handles `0..handles()`, each used
/// once; the simulator attaches it before anything else takes a handle.
/// It must be able to continue from any [`cursor`](Self::cursor): a
/// checkpoint records the cursor instead of the waiting packets, and a
/// resumed run rebuilds the source and skips that many packets.
pub trait TrafficSource: Send {
    /// `(time, handle)` of the next packet, without drawing it.
    fn peek(&self) -> Option<(u64, u64)>;

    /// Draws the next packet: `(time, handle, packet)`.
    fn pop(&mut self) -> Option<(u64, u64, Packet)>;

    /// How many handles the source numbers its packets with.
    fn handles(&self) -> u64;

    /// Packets drawn so far.
    fn cursor(&self) -> u64;
}

/// One packet handed to [`crate::Simulation::schedule`].
struct Waiting {
    time: u64,
    handle: u64,
    packet: Packet,
}

impl PartialEq for Waiting {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.handle) == (other.time, other.handle)
    }
}

impl Eq for Waiting {}

impl PartialOrd for Waiting {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Waiting {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.handle).cmp(&(other.time, other.handle))
    }
}

/// The packets [`crate::Simulation::schedule`] was given and the
/// simulator has not admitted yet: the `Vec`-backed source of library
/// callers, tests and mid-run injections, ordered by `(time, handle)`.
#[derive(Default)]
pub(crate) struct Scheduled {
    heap: BinaryHeap<Reverse<Waiting>>,
}

impl Scheduled {
    pub(crate) fn push(&mut self, time: u64, handle: u64, packet: Packet) {
        self.heap.push(Reverse(Waiting {
            time,
            handle,
            packet,
        }));
    }

    pub(crate) fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse(w)| (w.time, w.handle))
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, u64, Packet)> {
        let Reverse(w) = self.heap.pop()?;
        // Hand memory back as the schedule drains.
        if self.heap.len() < self.heap.capacity() / 4 {
            self.heap.shrink_to_fit();
        }
        Some((w.time, w.handle, w.packet))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every waiting packet in admission order.
    pub(crate) fn to_vec(&self) -> Vec<(u64, u64, Packet)> {
        let mut all: Vec<(u64, u64, Packet)> = self
            .heap
            .iter()
            .map(|Reverse(w)| (w.time, w.handle, w.packet))
            .collect();
        all.sort_unstable_by_key(|&(t, h, _)| (t, h));
        all
    }
}
