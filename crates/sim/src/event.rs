//! The event queue.
//!
//! [`EventQueue`] is a hot-path replacement introduced by the
//! single-core overhaul (DESIGN.md §9), pinned by the conformance corpus
//! (`tests/conformance.rs`): it must reproduce the original
//! `BinaryHeap` behaviour bit-for-bit. It is a bucketed cycle-wheel:
//! O(1) schedule/pop for the bounded `service + latency` scheduling
//! horizon of a switch fabric. Everything scheduled before the first
//! pop — the up-front injection timeline — waits in one sorted run;
//! later far-future timers (watchdog sweeps, fault schedules, retry
//! backoffs) fall back to a heap. Ties drain in the canonical
//! `(cycle, rank, pkey, seq)` order.

use crate::time::SimTime;
use ddpm_topology::FaultEvent;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A compute node hands a packet to its local switch.
    Inject {
        /// In-flight packet handle.
        pkt: usize,
    },
    /// A packet arrives at the switch of `node`.
    Arrive {
        /// In-flight packet handle.
        pkt: usize,
        /// Dense index of the switch it arrives at.
        node: u32,
        /// Dense index of the switch it departed from (`node` itself for
        /// source-switch entry). Identifies the traversed link so a
        /// mid-flight link failure can claim the packet.
        from: u32,
    },
    /// A stranded packet retries routing at the switch of `node` after a
    /// backoff (graceful degradation under faults).
    Reroute {
        /// In-flight packet handle.
        pkt: usize,
        /// Dense index of the switch holding the packet.
        node: u32,
    },
    /// A scheduled change to the network's health is applied.
    Fault {
        /// The change.
        event: FaultEvent,
    },
    /// A liveness-watchdog sweep (see [`crate::WatchdogConfig`]): checks
    /// network progress and per-packet ages, then reschedules itself
    /// while packets are live.
    Watchdog,
}

/// A scheduled event, ordered by the **canonical key**
/// `(time, rank, packet, seq)`:
///
/// * `rank` — fault events first, then the watchdog sweep, then packet
///   events. Global events at a cycle always precede packet events at
///   that cycle.
/// * `packet` — the in-flight handle, for packet events. A live packet
///   has at most one pending event, so `(time, packet)` is unique and
///   the same-cycle order is identical however events were inserted —
///   the property that lets a restored queue (checkpoint resume) drain
///   exactly like the original.
/// * `seq` — insertion sequence, the final tie-break (same-cycle fault
///   events apply in schedule order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence number (final tie-breaker).
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Event {
    /// The canonical ordering key the queue drains by.
    #[must_use]
    pub fn canonical_key(&self) -> (u64, u8, u64, u64) {
        let (rank, pkey) = self.rank_pkey();
        (self.time.0, rank, pkey, self.seq)
    }

    fn rank_pkey(&self) -> (u8, u64) {
        match self.kind {
            EventKind::Fault { .. } => (0, 0),
            EventKind::Watchdog => (1, 0),
            EventKind::Inject { pkt }
            | EventKind::Arrive { pkt, .. }
            | EventKind::Reroute { pkt, .. } => (2, pkt as u64),
        }
    }

    /// The canonical key without its time, packed into one integer as
    /// `rank << 120 | pkey << 64 | seq`: among the events of one cycle
    /// it orders exactly like [`Event::canonical_key`], and two keys
    /// compare as two words instead of a four-field tuple.
    fn cycle_key(&self) -> u128 {
        let (rank, pkey) = self.rank_pkey();
        debug_assert!(
            pkey < 1 << 56,
            "packet handle {pkey} overflows the packed key"
        );
        (u128::from(rank) << 120) | (u128::from(pkey) << 64) | u128::from(self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.canonical_key().cmp(&self.canonical_key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list, laid out as a bucketed
/// **cycle-wheel** beside a pre-start run and a heap spillover.
///
/// A switch fabric schedules almost every event within a bounded
/// look-ahead of the current cycle (`buffer · service + latency`), so
/// the queue keeps a ring of per-cycle buckets covering that horizon:
/// scheduling is a `Vec::push` into the bucket `time % horizon`, and
/// popping drains one bucket at a time.
///
/// Everything pushed before the queue's first activation — the whole
/// up-front injection timeline of a run, or every event of a restored
/// checkpoint — is appended to one **pre-start run**, sorted once by
/// the canonical key at the first activation and drained from its tail.
/// Only far-future events pushed after the start — watchdog sweeps,
/// fault schedules, deep retry backoffs, mid-run injections — spill
/// into a conventional binary heap, off the per-packet hot path.
///
/// Drain order is **identical** to the old all-heap queue: when a cycle
/// activates, its bucket is merged with the run's and the heap's events
/// due the same cycle and sorted once by the canonical key; same-cycle
/// insertions during the drain binary-insert into the sorted remainder,
/// which is exactly the order a heap would have produced for them.
pub struct EventQueue {
    /// Events of the active cycle, sorted *descending* by canonical key
    /// (pop takes from the back). All share `time == cur_time`.
    cur: Vec<Event>,
    /// The active (or most recently activated) cycle.
    cur_time: u64,
    /// The ring: bucket `t & mask` holds events for cycle `t`, valid
    /// only for `t` in `[floor, floor + horizon)`.
    wheel: Vec<Vec<Event>>,
    mask: u64,
    /// Lower bound on every pending event's time; the wheel covers
    /// `[floor, floor + horizon)`.
    floor: u64,
    /// First wheel cycle the next activation scan needs to look at
    /// (cycles in `[floor, scan_from)` are known empty).
    scan_from: u64,
    /// Far-future spillover (`time >= floor + horizon` at push time,
    /// after the start).
    overflow: BinaryHeap<Event>,
    /// The pre-start run: every event pushed before the first
    /// activation. Unordered until `started`, then sorted *descending*
    /// by canonical key (drained from the back).
    run: Vec<Event>,
    /// Earliest fire time in `run` while it is still unordered.
    run_min: Option<u64>,
    /// Set by the first activation, which sorts `run`.
    started: bool,
    len: usize,
    seq: u64,
}

impl EventQueue {
    /// An empty queue whose wheel covers at least `horizon` cycles of
    /// look-ahead (rounded up to a power of two, clamped to a sane
    /// range). Callers size this as `buffer · service + latency` plus
    /// any retry/watchdog deferral so the hot-path arrivals never touch
    /// the spillover heap. The ceiling admits the look-ahead the
    /// Table 3 maxima need (a 128×128 mesh re-injects across a
    /// 254-hop diameter with backoff); one wheel slot is one `Vec`, so
    /// even the full 65 536-slot wheel is a few MiB of empty vectors.
    #[must_use]
    pub fn with_horizon(horizon: u64) -> Self {
        let h = horizon.clamp(4, 65_536).next_power_of_two().max(64);
        Self {
            cur: Vec::new(),
            cur_time: 0,
            wheel: (0..h).map(|_| Vec::new()).collect(),
            mask: h - 1,
            floor: 0,
            scan_from: 0,
            overflow: BinaryHeap::new(),
            run: Vec::new(),
            run_min: None,
            started: false,
            len: 0,
            seq: 0,
        }
    }

    /// The wheel's look-ahead span in cycles.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.mask + 1
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Event { time, seq, kind });
        self.len += 1;
    }

    /// Places an already-sequenced event (push and the `extract`
    /// rebuild share this; `len` is maintained by the callers).
    fn insert(&mut self, ev: Event) {
        let t = ev.time.0;
        if !self.started {
            self.run_min = Some(self.run_min.map_or(t, |m| m.min(t)));
            self.run.push(ev);
        } else if t == self.cur_time && !self.cur.is_empty() {
            // Same-cycle insertion while the cycle is draining: keep
            // `cur` sorted (descending) so the remaining pops stay in
            // canonical order — a heap would do exactly this.
            let key = ev.cycle_key();
            let pos = self.cur.partition_point(|e| e.cycle_key() > key);
            self.cur.insert(pos, ev);
        } else if t >= self.floor + self.horizon() {
            self.overflow.push(ev);
        } else {
            debug_assert!(t >= self.floor, "event scheduled into the past: {t} < floor {}", self.floor);
            self.wheel[(t & self.mask) as usize].push(ev);
            if t < self.scan_from {
                self.scan_from = t;
            }
        }
    }

    /// The cycle the next activation will land on, advancing the scan
    /// cursor past buckets it proves empty. `None` iff the queue is
    /// empty.
    fn peek_cycle(&mut self) -> Option<u64> {
        if let Some(e) = self.cur.last() {
            return Some(e.time.0);
        }
        if self.len == 0 {
            return None;
        }
        let off_wheel = self.off_wheel_min();
        let end = self.floor + self.horizon();
        while self.scan_from < end {
            if !self.wheel[(self.scan_from & self.mask) as usize].is_empty() {
                let w = self.scan_from;
                return Some(off_wheel.map_or(w, |o| o.min(w)));
            }
            self.scan_from += 1;
        }
        off_wheel
    }

    /// Earliest fire time among the events not on the wheel: the
    /// pre-start run and the spillover heap.
    fn off_wheel_min(&self) -> Option<u64> {
        let run_t = if self.started {
            self.run.last().map(|e| e.time.0)
        } else {
            self.run_min
        };
        run_t.into_iter().chain(self.overflow.peek().map(|e| e.time.0)).min()
    }

    /// Activates cycle `t`: merges its wheel bucket with the run's and
    /// the heap's events due the same cycle into `cur`, sorted
    /// descending by canonical key. The first activation sorts the
    /// pre-start run.
    fn activate(&mut self, t: u64) {
        debug_assert!(self.cur.is_empty());
        if !self.started {
            self.started = true;
            self.run
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.canonical_key()));
        }
        if t < self.floor + self.horizon() {
            let slot = &mut self.wheel[(t & self.mask) as usize];
            std::mem::swap(&mut self.cur, slot);
        }
        while self.overflow.peek().is_some_and(|e| e.time.0 == t) {
            self.cur.push(self.overflow.pop().expect("peeked"));
        }
        let sorted = if self.run.last().is_some_and(|e| e.time.0 == t) {
            // The run's tail is already in drain order: alone, it needs
            // no sort.
            let alone = self.cur.is_empty();
            // `t` is the earliest pending cycle, so the due events are
            // the run's tail: count them back from the end rather than
            // binary-search the whole run.
            let tail = self.run.iter().rev().take_while(|e| e.time.0 == t).count();
            let due = self.run.len() - tail;
            self.cur.extend(self.run.drain(due..));
            if self.run.is_empty() {
                self.run = Vec::new();
            }
            alone
        } else {
            false
        };
        if !sorted {
            // Every event here fires at `t`, so the packed key orders
            // them canonically; `seq` makes each key unique, so the
            // unstable sort is deterministic.
            self.cur
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.cycle_key()));
        }
        self.cur_time = t;
        self.floor = t;
        self.scan_from = t + 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.cur.is_empty() {
            let t = self.peek_cycle()?;
            self.activate(t);
        }
        self.len -= 1;
        self.cur.pop()
    }

    /// Pops the earliest event iff it fires strictly before `end` —
    /// the segment drain of `Simulation::run_until`, without a separate
    /// peek scan.
    pub fn pop_before(&mut self, end: u64) -> Option<Event> {
        if self.cur.is_empty() {
            let t = self.peek_cycle()?;
            if t >= end {
                return None;
            }
            self.activate(t);
        } else if self.cur_time >= end {
            return None;
        }
        self.len -= 1;
        self.cur.pop()
    }

    /// Removes and returns every pending event matching `pred`, in
    /// canonical `(time, rank, packet, seq)` order. Used for fail-stop
    /// semantics: when a switch or link dies, the packets committed to
    /// it are claimed (and counted) instead of silently firing later.
    pub fn extract(&mut self, mut pred: impl FnMut(&EventKind) -> bool) -> Vec<Event> {
        // The run is filtered in place, which keeps a started run in
        // drain order.
        let mut out = Vec::new();
        self.run.retain(|e| {
            let hit = pred(&e.kind);
            if hit {
                out.push(*e);
            }
            !hit
        });
        if !self.started {
            self.run_min = self.run.iter().map(|e| e.time.0).min();
        }
        let mut all: Vec<Event> = Vec::with_capacity(self.len - out.len());
        all.append(&mut self.cur);
        for slot in &mut self.wheel {
            all.append(slot);
        }
        all.extend(std::mem::take(&mut self.overflow));
        let (hits, keep): (Vec<Event>, Vec<Event>) =
            all.into_iter().partition(|e| pred(&e.kind));
        out.extend(hits);
        self.len = self.run.len() + keep.len();
        for ev in keep {
            // Original `seq` values are preserved, so the surviving
            // events keep their canonical order exactly.
            self.insert(ev);
        }
        out.sort_by_key(Event::canonical_key);
        out
    }

    /// Fire time of the earliest pending event, without popping it.
    #[must_use]
    pub fn next_time(&self) -> Option<u64> {
        if let Some(e) = self.cur.last() {
            return Some(e.time.0);
        }
        if self.len == 0 {
            return None;
        }
        let off_wheel = self.off_wheel_min();
        let end = self.floor + self.horizon();
        let mut t = self.scan_from;
        while t < end {
            if !self.wheel[(t & self.mask) as usize].is_empty() {
                return Some(off_wheel.map_or(t, |o| o.min(t)));
            }
            t += 1;
        }
        off_wheel
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event in canonical `(time, rank, packet, seq)`
    /// order, plus the sequence counter — the queue's complete logical
    /// state, without disturbing it. Feed both through
    /// [`EventQueue::restore`] to rebuild an equivalent queue.
    #[must_use]
    pub fn snapshot_events(&self) -> (Vec<Event>, u64) {
        let mut all: Vec<Event> = Vec::with_capacity(self.len);
        all.extend(self.cur.iter().copied());
        for slot in &self.wheel {
            all.extend(slot.iter().copied());
        }
        all.extend(self.overflow.iter().copied());
        all.extend(self.run.iter().copied());
        all.sort_by_key(Event::canonical_key);
        (all, self.seq)
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot_events`] capture.
    /// Placement differs from the original queue (the rebuilt queue has
    /// not started, so every event joins the pre-start run), but drain
    /// order is canonical-key driven and therefore identical; `seq`
    /// continues the original counter so later pushes keep their
    /// tie-break position.
    #[must_use]
    pub fn restore(horizon: u64, events: Vec<Event>, seq: u64) -> Self {
        let mut q = Self::with_horizon(horizon);
        q.len = events.len();
        q.seq = seq;
        for ev in events {
            q.insert(ev);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpm_topology::NodeId;
    use proptest::prelude::*;

    /// A queue past its first activation, so later far-future pushes
    /// take the spillover heap instead of the pre-start run.
    fn started(horizon: u64) -> EventQueue {
        let mut q = EventQueue::with_horizon(horizon);
        q.push(SimTime(0), EventKind::Watchdog);
        assert_eq!(q.pop().unwrap().kind, EventKind::Watchdog);
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(5), EventKind::Inject { pkt: 0 });
        q.push(SimTime(1), EventKind::Inject { pkt: 1 });
        q.push(SimTime(3), EventKind::Inject { pkt: 2 });
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(7), EventKind::Inject { pkt: 10 });
        q.push(SimTime(7), EventKind::Inject { pkt: 20 });
        q.push(SimTime(7), EventKind::Inject { pkt: 30 });
        let pkts: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Inject { pkt }
                | EventKind::Arrive { pkt, .. }
                | EventKind::Reroute { pkt, .. } => pkt,
                EventKind::Fault { .. } | EventKind::Watchdog => {
                    unreachable!("no faults or watchdog ticks queued")
                }
            })
            .collect();
        assert_eq!(pkts, vec![10, 20, 30]);
    }

    #[test]
    fn extract_claims_matching_events_in_order() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(9), EventKind::Arrive { pkt: 0, node: 7, from: 3 });
        q.push(SimTime(2), EventKind::Arrive { pkt: 1, node: 5, from: 7 });
        q.push(SimTime(4), EventKind::Arrive { pkt: 2, node: 7, from: 6 });
        q.push(SimTime(1), EventKind::Inject { pkt: 3 });
        let claimed = q.extract(|k| matches!(k, EventKind::Arrive { node, from, .. } if *node == 7 || *from == 7));
        let pkts: Vec<usize> = claimed
            .iter()
            .map(|e| match e.kind {
                EventKind::Arrive { pkt, .. } => pkt,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pkts, vec![1, 2, 0], "claimed in (time, seq) order");
        assert_eq!(q.len(), 1, "unrelated events survive");
        // The queue still pops correctly after the rebuild.
        assert_eq!(q.pop().unwrap().kind, EventKind::Inject { pkt: 3 });
    }

    #[test]
    fn canonical_order_is_insertion_independent() {
        // Same cycle, inserted in scrambled order: faults first (in
        // schedule order), then the watchdog, then packet events by
        // handle — regardless of insertion sequence.
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(4), EventKind::Inject { pkt: 9 });
        q.push(SimTime(4), EventKind::Watchdog);
        q.push(
            SimTime(4),
            EventKind::Fault {
                event: FaultEvent::SwitchDown { node: NodeId(1) },
            },
        );
        q.push(SimTime(4), EventKind::Arrive { pkt: 2, node: 1, from: 0 });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Fault { .. }));
        assert!(matches!(kinds[1], EventKind::Watchdog));
        assert!(matches!(kinds[2], EventKind::Arrive { pkt: 2, .. }));
        assert!(matches!(kinds[3], EventKind::Inject { pkt: 9 }));
    }

    #[test]
    fn packed_cycle_key_orders_like_the_canonical_key() {
        let pkts = [0, 1, 2, 1 << 40, (1 << 56) - 1];
        let seqs = [0, 1, 7, u64::MAX - 1, u64::MAX];
        let mut kinds = vec![
            EventKind::Watchdog,
            EventKind::Fault {
                event: FaultEvent::SwitchDown { node: NodeId(1) },
            },
        ];
        for pkt in pkts {
            kinds.push(EventKind::Inject { pkt });
            kinds.push(EventKind::Arrive { pkt, node: 1, from: 0 });
            kinds.push(EventKind::Reroute { pkt, node: 1 });
        }
        let events: Vec<Event> = kinds
            .iter()
            .flat_map(|&kind| {
                seqs.iter().map(move |&seq| Event {
                    time: SimTime(5),
                    seq,
                    kind,
                })
            })
            .collect();
        for a in &events {
            for b in &events {
                assert_eq!(
                    a.cycle_key().cmp(&b.cycle_key()),
                    a.canonical_key().cmp(&b.canonical_key()),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::with_horizon(64);
        assert_eq!(q.next_time(), None);
        q.push(SimTime(9), EventKind::Inject { pkt: 0 });
        q.push(SimTime(3), EventKind::Inject { pkt: 1 });
        assert_eq!(q.next_time(), Some(3));
        assert_eq!(q.len(), 2, "peek leaves the queue intact");
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::with_horizon(64);
        assert!(q.is_empty());
        q.push(SimTime(0), EventKind::Inject { pkt: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_the_spillover_heap() {
        // Events far beyond the wheel horizon (watchdog sweeps, fault
        // schedules) spill to the heap and still pop in order, merged
        // with near events — including a same-cycle wheel/heap merge.
        let mut q = started(8);
        let h = q.horizon();
        q.push(SimTime(10 * h), EventKind::Inject { pkt: 0 });
        q.push(SimTime(2), EventKind::Inject { pkt: 1 });
        q.push(SimTime(3 * h + 5), EventKind::Watchdog);
        q.push(SimTime(h - 1), EventKind::Inject { pkt: 2 });
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![2, h - 1, 3 * h + 5, 10 * h]);
    }

    #[test]
    fn spillover_merges_with_wheel_bucket_at_the_same_cycle() {
        let mut q = started(8);
        let h = q.horizon();
        let t = 2 * h + 3;
        // Scheduled while `t` is beyond the horizon → heap.
        q.push(SimTime(t), EventKind::Inject { pkt: 7 });
        // Advance the wheel close to `t`...
        q.push(SimTime(t - 2), EventKind::Inject { pkt: 1 });
        assert_eq!(q.pop().unwrap().time.0, t - 2);
        // ...so this lands in the wheel bucket for the same cycle `t`.
        q.push(SimTime(t), EventKind::Inject { pkt: 3 });
        let pkts: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.canonical_key().2)
            .collect();
        assert_eq!(pkts, vec![3, 7], "same cycle drains by pkey, not by origin");
    }

    #[test]
    fn same_cycle_push_during_drain_keeps_canonical_order() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(5), EventKind::Inject { pkt: 2 });
        q.push(SimTime(5), EventKind::Inject { pkt: 8 });
        assert_eq!(q.pop().unwrap().canonical_key().2, 2);
        // Mid-drain insertions at the active cycle, straddling pkt 8.
        q.push(SimTime(5), EventKind::Inject { pkt: 4 });
        q.push(SimTime(5), EventKind::Inject { pkt: 9 });
        let pkts: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.canonical_key().2)
            .collect();
        assert_eq!(pkts, vec![4, 8, 9]);
    }

    #[test]
    fn push_at_just_drained_cycle_is_not_lost() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(3), EventKind::Inject { pkt: 0 });
        assert_eq!(q.pop().unwrap().time.0, 3);
        assert!(q.is_empty());
        // A handler firing at cycle 3 schedules more same-cycle work
        // after the bucket drained.
        q.push(SimTime(3), EventKind::Reroute { pkt: 0, node: 1 });
        assert_eq!(q.next_time(), Some(3));
        assert_eq!(q.pop().unwrap().time.0, 3);
    }

    #[test]
    fn pop_before_respects_the_window_edge() {
        let mut q = EventQueue::with_horizon(64);
        q.push(SimTime(4), EventKind::Inject { pkt: 0 });
        q.push(SimTime(9), EventKind::Inject { pkt: 1 });
        assert_eq!(q.pop_before(9).unwrap().time.0, 4);
        assert!(q.pop_before(9).is_none(), "event at the edge stays queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(10).unwrap().time.0, 9);
        assert!(q.pop_before(u64::MAX).is_none());
    }

    #[test]
    fn extract_spans_wheel_spillover_and_active_cycle() {
        let mut q = EventQueue::with_horizon(8);
        let h = q.horizon();
        q.push(SimTime(1), EventKind::Arrive { pkt: 0, node: 7, from: 7 });
        q.push(SimTime(1), EventKind::Arrive { pkt: 1, node: 2, from: 2 });
        q.push(SimTime(3), EventKind::Arrive { pkt: 2, node: 7, from: 1 });
        q.push(SimTime(5 * h), EventKind::Arrive { pkt: 3, node: 7, from: 4 });
        // Activate cycle 1 so one match sits in `cur` mid-drain.
        assert_eq!(q.pop().unwrap().canonical_key().2, 0);
        let claimed = q.extract(|k| matches!(k, EventKind::Arrive { node, .. } if *node == 7));
        let pkts: Vec<u64> = claimed.iter().map(|e| e.canonical_key().2).collect();
        assert_eq!(pkts, vec![2, 3], "claimed across wheel and heap in order");
        // The survivor (pkt 1 at the active cycle) still pops.
        assert_eq!(q.pop().unwrap().canonical_key().2, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn pre_start_events_drain_from_one_sorted_run() {
        // The up-front timeline — far-future times included — lands in
        // the run, not the heap, and merges with later wheel and heap
        // events at the same cycle in canonical order.
        let mut q = EventQueue::with_horizon(8);
        let h = q.horizon();
        for (t, pkt) in [(3 * h, 9), (5, 4), (3 * h, 2), (5, 1), (40 * h, 0)] {
            q.push(SimTime(t), EventKind::Inject { pkt });
        }
        assert_eq!((q.run.len(), q.overflow.len()), (5, 0));
        assert_eq!(q.next_time(), Some(5), "the unsorted run still peeks");
        assert_eq!(q.pop().unwrap().canonical_key().2, 1);
        q.push(SimTime(3 * h), EventKind::Arrive { pkt: 5, node: 0, from: 0 });
        assert_eq!(q.overflow.len(), 1, "a far push after the start spills");
        q.push(SimTime(h), EventKind::Reroute { pkt: 7, node: 0 });
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.canonical_key().2))
            .collect();
        assert_eq!(
            order,
            vec![(5, 4), (h, 7), (3 * h, 2), (3 * h, 5), (3 * h, 9), (40 * h, 0)]
        );
        assert_eq!(q.run.capacity(), 0, "a drained run frees its storage");
    }

    #[test]
    fn snapshot_restore_preserves_drain_order_and_seq() {
        let mut q = EventQueue::with_horizon(8);
        let h = q.horizon();
        q.push(SimTime(4), EventKind::Inject { pkt: 3 });
        q.push(SimTime(4), EventKind::Watchdog);
        q.push(
            SimTime(4),
            EventKind::Fault {
                event: FaultEvent::SwitchDown { node: NodeId(2) },
            },
        );
        q.push(SimTime(9 * h), EventKind::Inject { pkt: 1 }); // spillover
        q.push(SimTime(2), EventKind::Arrive { pkt: 0, node: 1, from: 1 });
        // Partially drain so `cur` holds active-cycle residue.
        assert_eq!(q.pop().unwrap().time.0, 2);

        let (events, seq) = q.snapshot_events();
        assert_eq!(events.len(), q.len());
        let mut r = EventQueue::restore(h, events, seq);
        // Future pushes continue the original tie-break counter.
        q.push(SimTime(4), EventKind::Inject { pkt: 5 });
        r.push(SimTime(4), EventKind::Inject { pkt: 5 });
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.canonical_key()).collect();
        let b: Vec<_> = std::iter::from_fn(|| r.pop()).map(|e| e.canonical_key()).collect();
        assert_eq!(a, b, "restored queue drains identically");
    }

    /// An event kind from a small code: packet events on a few handles,
    /// so same-cycle ties are common, plus watchdog sweeps and faults.
    fn kind_of(code: u64) -> EventKind {
        let pkt = (code / 5 % 12) as usize;
        match code % 5 {
            0 => EventKind::Inject { pkt },
            1 => EventKind::Arrive {
                pkt,
                node: (code / 60 % 4) as u32,
                from: 0,
            },
            2 => EventKind::Reroute { pkt, node: 1 },
            3 => EventKind::Watchdog,
            _ => EventKind::Fault {
                event: FaultEvent::SwitchDown {
                    node: NodeId((code / 60 % 4) as u32),
                },
            },
        }
    }

    /// A look-ahead from a code: the same cycle, inside the 64-cycle
    /// wheel, or far past it.
    fn ahead(code: u64) -> u64 {
        match code % 4 {
            0 => 0,
            1 => code % 8,
            2 => code % 64,
            _ => 64 + code % 5000,
        }
    }

    /// The canonical order a plain `BinaryHeap<Event>` would drain.
    fn heap_order(r: &BinaryHeap<Event>) -> Vec<Event> {
        let mut v = r.clone().into_sorted_vec();
        v.reverse();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wheel, the pre-start run and the spillover heap together
        /// drain exactly like one `BinaryHeap<Event>`: through a bulk
        /// pre-start batch (same-cycle ties, far-future times), pushes
        /// after the start, mid-run `extract`, `snapshot_events` /
        /// `restore` round trips and `pop_before` segments.
        #[test]
        fn queue_drains_like_a_reference_heap(
            batch in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..120),
            ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX), 0..240),
        ) {
            let mut q = EventQueue::with_horizon(8);
            let mut r: BinaryHeap<Event> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let push = |q: &mut EventQueue, r: &mut BinaryHeap<Event>, seq: &mut u64, t: u64, kind| {
                q.push(SimTime(t), kind);
                r.push(Event { time: SimTime(t), seq: *seq, kind });
                *seq += 1;
            };
            for &(a, b) in &batch {
                // Pre-start: a small spread of times gives ties; every
                // fourth code reaches far past the wheel.
                push(&mut q, &mut r, &mut seq, ahead(a) * (1 + a % 3), kind_of(b));
            }
            for &(op, a, b) in &ops {
                match op {
                    0..=3 => push(&mut q, &mut r, &mut seq, now + ahead(a), kind_of(b)),
                    4 | 5 => {
                        let got = q.pop();
                        prop_assert_eq!(got, r.pop());
                        if let Some(e) = got {
                            now = e.time.0;
                        }
                    }
                    6 => {
                        let end = now + ahead(a);
                        let want = if r.peek().is_some_and(|e| e.time.0 < end) {
                            r.pop()
                        } else {
                            None
                        };
                        let got = q.pop_before(end);
                        prop_assert_eq!(got, want);
                        if let Some(e) = got {
                            now = e.time.0;
                        }
                    }
                    7 => {
                        let m = (a % 3) as usize;
                        let hit = |k: &EventKind| match *k {
                            EventKind::Inject { pkt }
                            | EventKind::Arrive { pkt, .. }
                            | EventKind::Reroute { pkt, .. } => pkt % 3 == m,
                            EventKind::Fault { .. } => b % 2 == 0,
                            EventKind::Watchdog => false,
                        };
                        let (want, keep): (Vec<Event>, Vec<Event>) =
                            heap_order(&r).into_iter().partition(|e| hit(&e.kind));
                        r = keep.into_iter().collect();
                        prop_assert_eq!(q.extract(hit), want);
                    }
                    8 => {
                        let (events, qseq) = q.snapshot_events();
                        prop_assert_eq!(&events, &heap_order(&r));
                        prop_assert_eq!(qseq, seq);
                        q = EventQueue::restore(q.horizon(), events, qseq);
                    }
                    _ => {
                        prop_assert_eq!(q.next_time(), r.peek().map(|e| e.time.0));
                    }
                }
                prop_assert_eq!(q.len(), r.len());
            }
            let rest: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(rest, heap_order(&r));
        }
    }
}
