//! DDoS attack workloads, benign background traffic, and detection.
//!
//! Section 1 of the paper frames the threat: "once a hacker breaks in
//! the cluster, the impact of DDoS attack within a cluster would be even
//! severe since one infected system, which is believed to be
//! trustworthy, may instantly paralyze the whole cluster through the
//! high speed network." This crate builds those workloads:
//!
//! * [`flood`] — first-generation volumetric floods "by using DDoS
//!   attack tools such as Tribe Flood Network (TFN) and trinoo":
//!   multiple compromised zombies dumping UDP/ICMP at one victim;
//! * [`synflood`] — the TCP SYN flood of §1, with the victim's
//!   half-open connection table modelled so denial of service is
//!   *measured*, not asserted;
//! * [`worm`] — second-generation attacks: an epidemic scanner whose
//!   "total traffic increases exponentially";
//! * [`spoof`] — source-address spoofing strategies (§4.1: "attackers
//!   generate packets with spoofed IP addresses");
//! * [`background`] — benign cluster traffic patterns (uniform random,
//!   transpose, hot-spot, nearest-neighbour) so experiments measure
//!   collateral damage;
//! * [`detect`] — concrete detectors (rate, source-entropy, half-open
//!   count). The paper assumes detection exists (§6.1); we implement it
//!   so the end-to-end pipeline — detect → identify → block — runs.
//! * [`scenario`] — composition glue used by examples and benches.
//! * [`stream`] — the generators one injector and one packet at a
//!   time, and [`LazyWorkload`], a workload the simulator pulls as
//!   simulated time reaches it.
//! * [`adversary`] — the Byzantine marking-plane adversary: compromised
//!   switches that skip, forge, randomize or replay the mark (§4.1's
//!   "to prevent even the small probability of compromising switch"
//!   made concrete), contained by the `auth-*` schemes.

#![warn(missing_docs)]

pub mod adversary;
pub mod background;
pub mod console;
pub mod detect;
pub mod flood;
pub mod scenario;
pub mod spoof;
pub mod stream;
pub mod synflood;
pub mod worm;

pub use adversary::AdversaryModel;
pub use background::{BackgroundTraffic, TrafficPattern};
pub use console::{ConsoleConfig, VictimConsole};
pub use detect::{DetectionVerdict, EntropyDetector, RateDetector, SynHalfOpenDetector};
pub use flood::FloodAttack;
pub use scenario::{PacketFactory, Workload};
pub use spoof::SpoofStrategy;
pub use stream::{HandleOrder, LazyWorkload, Stream};
pub use synflood::{HalfOpenTable, SynFloodAttack};
pub use worm::WormOutbreak;
