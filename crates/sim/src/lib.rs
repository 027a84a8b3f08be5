//! Packet-level discrete-event simulation of cluster interconnects.
//!
//! This crate is the evaluation substrate for the DDPM reproduction: a
//! deterministic discrete-event simulator of a direct network in which
//! every node couples a compute element with a switch (§4.1: "one node
//! consists of a switch and a computing node, but they are separate
//! entities"). Switches route (via `ddpm-routing`), mark packets (via a
//! [`mark::Marker`] hook implemented by `ddpm-core`'s schemes), contend
//! for output ports, and drop packets on buffer overflow or TTL
//! exhaustion.
//!
//! ## Fidelity level
//!
//! The paper's claims concern header marking and source identification,
//! not flow control, so we simulate at **packet granularity** with
//! store-and-forward switching: per-port serialisation delay, link
//! latency, and finite output buffers. This preserves everything the
//! evaluation needs — paths, hop counts, congestion, loss — at a small
//! fraction of the cost of a flit-level wormhole model (see DESIGN.md §4
//! for the substitution note).
//!
//! ## Determinism
//!
//! Runs are exactly reproducible: every in-flight packet carries its own
//! [`rand::rngs::SmallRng`] stream seeded from `(run seed, handle)`, so
//! a packet's random decisions are independent of how other packets'
//! events interleave, and the event queue orders same-cycle events by a
//! canonical `(time, rank, packet, seq)` key rather than raw insertion
//! order. Together these make a run paused at any event boundary
//! ([`Simulation::run_until`]), snapshotted and resumed elsewhere
//! bit-identical to the uninterrupted run.

#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod event;
pub mod filter;
pub mod invariant;
pub mod mark;
pub mod network;
pub mod scheme;
pub mod snapshot;
pub mod source;
pub mod stats;
pub mod time;
pub mod watchdog;

pub use adversary::{AdversaryBehavior, AdversarySpec, AdversaryState};
pub use config::{CheckpointConfig, RetryPolicy, SimConfig};
pub use filter::{Filter, NoFilter};
pub use invariant::{InvariantChecker, InvariantConfig, Violation};
pub use mark::{MarkEnv, Marker, NoMarking};
pub use network::{Delivered, DropReason, Simulation};
pub use scheme::{Attribution, Collector, HopCost, MarkingScheme, SchemeSpec, CONVICTION_CONFIDENCE};
pub use snapshot::{FlightSnap, SimSnapshot, SlotSnap};
pub use source::TrafficSource;
pub use stats::{ClassCounters, FaultStats, LatencyStats, SimStats};
pub use time::SimTime;
pub use watchdog::{WatchdogConfig, WatchdogStats};
