//! The two-sided marking-scheme plugin API.
//!
//! [`Marker`] (in [`crate::mark`]) is the *switch side* of a traceback
//! scheme: what every switch writes into the 16-bit marking field as a
//! packet travels. This module adds the *victim side* and ties the two
//! together:
//!
//! * [`Collector`] — victim-side state fed one marking field per
//!   delivered packet ([`Collector::observe`]), queryable online for the
//!   current best attribution ([`Collector::attribute`]).
//! * [`Attribution`] — the shared result type every scheme answers
//!   with: a candidate source set plus a confidence score, replacing the
//!   per-scheme ad-hoc `identify()` shapes.
//! * [`MarkingScheme`] — the full plugin: a [`Marker`] that also
//!   declares its marking-field bit budget, its per-hop switch cost and
//!   how to build a [`Collector`] for a given victim.
//! * [`SchemeSpec`] — the data-only scheme selector carried by
//!   [`crate::SimConfig`] and scenario files; the concrete scheme
//!   objects live in `ddpm-core` (which depends on this crate, not the
//!   other way round), built via `ddpm_core::scheme::build_scheme`.
//!
//! The contract [`Collector::attribute`] must honour — and the one the
//! cross-scheme property test pins — is: the candidate set either
//! contains every true source whose packets were observed, or the
//! scheme's documented ambiguity applies (e.g. a Tracemax path longer
//! than the field can record, a DPM signature produced by a non-minimal
//! adaptive path). A scheme may over-approximate (extra candidates cost
//! false-attribution rate, measured by the bake-off) but silently
//! dropping a true source is a bug.

use crate::mark::Marker;
use ddpm_net::{MarkingField, Packet};
use ddpm_topology::{NodeId, Topology};

/// Confidence at or above which an attribution counts as a
/// *conviction* — the victim would act (quarantine, block) on it.
///
/// The Byzantine-robustness contract is phrased against this line: a
/// minority of polluted marks may smuggle a framed innocent into the
/// candidate list, but quorum filtering plus fail-closed rejection must
/// keep the confidence below it, so pollution degrades confidence
/// instead of flipping the attribution.
pub const CONVICTION_CONFIDENCE: f64 = 0.5;

/// A victim-side attribution answer, shared by every scheme.
///
/// `candidates` is the set of nodes the scheme currently implicates as
/// packet sources, deduplicated and sorted by node id so results are
/// deterministic and comparable across runs. `confidence` in `[0, 1]`
/// is the scheme's own estimate of how much of the observed evidence
/// backs the candidate set (each scheme documents its exact semantics —
/// decoded fraction for DDPM/Tracemax, matched-signature fraction for
/// DPM, reconstruction completeness for PPM).
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// Implicated source nodes, sorted ascending, no duplicates.
    pub candidates: Vec<NodeId>,
    /// Evidence-backed confidence in `[0, 1]`; `0.0` means "no answer".
    pub confidence: f64,
}

impl Attribution {
    /// The empty answer: no candidates, zero confidence.
    #[must_use]
    pub fn none() -> Self {
        Self {
            candidates: Vec::new(),
            confidence: 0.0,
        }
    }

    /// A single-source answer with full confidence — the shape the
    /// paper's per-packet DDPM `identify()` produces.
    #[must_use]
    pub fn exact(node: NodeId) -> Self {
        Self {
            candidates: vec![node],
            confidence: 1.0,
        }
    }

    /// An answer from an arbitrary candidate collection: sorts,
    /// deduplicates and clamps `confidence` into `[0, 1]`.
    #[must_use]
    pub fn from_candidates(mut candidates: Vec<NodeId>, confidence: f64) -> Self {
        candidates.sort_unstable_by_key(|n| n.0);
        candidates.dedup();
        Self {
            candidates,
            confidence: confidence.clamp(0.0, 1.0),
        }
    }

    /// True when exactly one candidate remains — the scheme has
    /// *identified* a source rather than narrowed a set.
    #[must_use]
    pub fn is_identified(&self) -> bool {
        self.candidates.len() == 1
    }

    /// The identified source when [`Attribution::is_identified`], else
    /// `None`: the accessor for callers that need a single source.
    #[must_use]
    pub fn single(&self) -> Option<NodeId> {
        match self.candidates.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Does the candidate set implicate `node`?
    #[must_use]
    pub fn implicates(&self, node: NodeId) -> bool {
        self.candidates.binary_search_by_key(&node.0, |n| n.0).is_ok()
    }

    /// Does this attribution *convict* `node` — implicate it with
    /// confidence at or above [`CONVICTION_CONFIDENCE`]?
    #[must_use]
    pub fn convicts(&self, node: NodeId) -> bool {
        self.confidence >= CONVICTION_CONFIDENCE && self.implicates(node)
    }

    /// Quorum/outlier-filtered attribution from a support census.
    ///
    /// `support` maps candidate → packets backing it; `observed` is the
    /// total packets the collector was fed (including ones it could not
    /// decode or refused to trust). Candidates survive only with
    /// absolute support ≥ 2 **and** at least a quarter of the strongest
    /// candidate's support — so isolated polluted marks (a corrupted
    /// field, a `2^-t` tag-forgery fluke) are outliers that drop out
    /// rather than co-equal suspects. Confidence is the kept fraction:
    /// `kept_support / observed`, which a minority of polluted or
    /// rejected marks *degrades* instead of flipping.
    ///
    /// Below four observed packets there is no quorum to speak of and
    /// every candidate is kept — preserving the paper's single-packet
    /// DDPM identification for low-volume victims.
    #[must_use]
    pub fn from_census<I>(support: I, observed: u64) -> Self
    where
        I: IntoIterator<Item = (NodeId, u64)>,
    {
        let entries: Vec<(NodeId, u64)> = support.into_iter().collect();
        let top = entries.iter().map(|&(_, c)| c).max().unwrap_or(0);
        if top == 0 || observed == 0 {
            return Self::none();
        }
        let floor = if observed >= 4 {
            2.max(top.div_ceil(4))
        } else {
            1
        };
        let mut kept_support = 0u64;
        let mut candidates = Vec::new();
        for (node, count) in entries {
            if count >= floor {
                kept_support += count;
                candidates.push(node);
            }
        }
        Self::from_candidates(candidates, kept_support as f64 / observed as f64)
    }
}

/// Victim-side collection state for one scheme at one victim.
///
/// Built by [`MarkingScheme::collector`]; fed the marking field of each
/// packet the victim receives, in delivery order. [`Collector::attribute`]
/// may be called at any point (it is *online*), and takes `&mut self` so
/// implementations can cache expensive work — e.g. PPM graph
/// reconstruction reuses its last result until a new mark arrives.
///
/// `Send` is a supertrait so a service tenant can keep its victim's
/// collector resident while the tenant migrates between worker threads.
pub trait Collector: Send {
    /// Ingests the marking field of one delivered packet.
    fn observe(&mut self, mf: MarkingField);

    /// Ingests one delivered packet with its full header visible.
    ///
    /// Authenticated collectors need more than the 16 marking bits —
    /// the keyed tag binds the source/destination addresses and the
    /// residual TTL — so the driver feeds whole packets through this
    /// entry point. The default forwards to [`Collector::observe`];
    /// schemes that only read the field need not override it.
    fn observe_packet(&mut self, pkt: &Packet) {
        self.observe(pkt.header.identification);
    }

    /// The current best attribution given everything observed so far.
    fn attribute(&mut self) -> Attribution;

    /// How many packets have been observed.
    fn observed(&self) -> u64;

    /// Packets whose marks this collector refused to trust (failed tag
    /// verification — the fail-closed count). `0` for unauthenticated
    /// schemes, which trust everything.
    fn rejected(&self) -> u64 {
        0
    }
}

/// Per-hop switch cost of a scheme, for the bake-off's cost column.
///
/// These are *model* counts read off each scheme's `on_forward` — the
/// work a hardware switch would add to its pipeline per forwarded
/// packet — not measured host cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopCost {
    /// Marking-field sub-field writes per hop (worst case).
    pub field_writes: u32,
    /// Arithmetic/hash operations per hop (adds, xors, mixes).
    pub arith_ops: u32,
    /// Whether the hop draws randomness (probabilistic marking).
    pub probabilistic: bool,
}

impl HopCost {
    /// Compact rendering for report tables, e.g. `1w+2a+rng`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = format!("{}w+{}a", self.field_writes, self.arith_ops);
        if self.probabilistic {
            s.push_str("+rng");
        }
        s
    }
}

/// The full two-sided plugin: switch-side marking plus victim-side
/// collection, with budget/cost introspection.
///
/// `MarkingScheme: Marker` means any scheme slots directly into
/// [`crate::Simulation::new`]'s `&dyn Marker` parameter (trait
/// upcasting), so the simulator core stays scheme-agnostic. `Send` is
/// a supertrait so a boxed scheme can live inside a service tenant
/// that migrates between worker threads; every shipped scheme is
/// already `Send` (their state is plain data behind mutexes).
pub trait MarkingScheme: Marker + Send {
    /// How many of the 16 marking-field bits the scheme actually uses
    /// on this topology (its MF-bit budget).
    fn mf_bits(&self) -> u32;

    /// The per-hop switch cost model.
    fn per_hop_cost(&self) -> HopCost;

    /// Builds the victim-side collector for packets delivered to
    /// `victim` on `topo`.
    fn collector<'a>(&'a self, topo: &'a Topology, victim: NodeId) -> Box<dyn Collector + 'a>;
}

impl Marker for Box<dyn MarkingScheme> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_inject(
        &self,
        pkt: &mut Packet,
        src: &ddpm_topology::Coord,
        env: &crate::mark::MarkEnv<'_>,
    ) {
        (**self).on_inject(pkt, src, env);
    }

    fn on_forward(
        &self,
        pkt: &mut Packet,
        cur: &ddpm_topology::Coord,
        next: &ddpm_topology::Coord,
        env: &crate::mark::MarkEnv<'_>,
        rng: &mut rand::rngs::SmallRng,
    ) {
        (**self).on_forward(pkt, cur, next, env, rng);
    }

    fn on_deliver(
        &self,
        pkt: &mut Packet,
        dest: &ddpm_topology::Coord,
        env: &crate::mark::MarkEnv<'_>,
        rng: &mut rand::rngs::SmallRng,
    ) {
        (**self).on_deliver(pkt, dest, env, rng);
    }
}

/// Boxed schemes are schemes, so generic wrappers (the `auth-*`
/// discipline in `ddpm-core`, the adversary model in `ddpm-attack`) can
/// compose over a factory-built `Box<dyn MarkingScheme>` without a
/// monomorphized arm per concrete type.
impl MarkingScheme for Box<dyn MarkingScheme> {
    fn mf_bits(&self) -> u32 {
        (**self).mf_bits()
    }

    fn per_hop_cost(&self) -> HopCost {
        (**self).per_hop_cost()
    }

    fn collector<'a>(&'a self, topo: &'a Topology, victim: NodeId) -> Box<dyn Collector + 'a> {
        (**self).collector(topo, victim)
    }
}

/// [`NoMarking`]'s collector: counts packets, attributes nothing.
struct NullCollector {
    observed: u64,
}

impl Collector for NullCollector {
    fn observe(&mut self, _mf: MarkingField) {
        self.observed += 1;
    }

    fn attribute(&mut self) -> Attribution {
        Attribution::none()
    }

    fn observed(&self) -> u64 {
        self.observed
    }
}

impl MarkingScheme for crate::mark::NoMarking {
    fn mf_bits(&self) -> u32 {
        0
    }

    fn per_hop_cost(&self) -> HopCost {
        HopCost::default()
    }

    fn collector<'a>(&'a self, _topo: &'a Topology, _victim: NodeId) -> Box<dyn Collector + 'a> {
        Box::new(NullCollector { observed: 0 })
    }
}

/// The data-only scheme selector: which traceback scheme a run uses.
///
/// One parse/display spelling set shared by scenario files and CLI
/// flags. The concrete scheme
/// objects are built from this in `ddpm-core` (`scheme::build_scheme`),
/// which owns the per-topology feasibility checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeSpec {
    /// No marking, no attribution — the baseline.
    None,
    /// Deterministic distance-based packet marking (the paper's scheme).
    Ddpm,
    /// Deterministic packet marking: per-switch signature bits (Savage
    /// DPM lineage, §4.3's foil).
    Dpm,
    /// Probabilistic edge marking (Fig. 3(a) lineage).
    PpmEdge,
    /// Probabilistic XOR-compressed edge marking (Fig. 3(b) lineage).
    PpmXor,
    /// Tracemax-style deterministic per-hop path recording
    /// (arXiv 2004.09327 lineage): every switch appends its outgoing
    /// direction, the victim replays the whole path from one packet.
    Tracemax,
    /// DDPM under the split-trust keyed-tag wrapper: tag bits carved
    /// from the spare marking-field budget, fail-closed collection.
    AuthDdpm,
    /// DPM under the keyed-tag wrapper (slot walk confined to the
    /// remaining low bits).
    AuthDpm,
    /// Edge PPM under the keyed-tag wrapper.
    AuthPpmEdge,
    /// XOR PPM under the keyed-tag wrapper.
    AuthPpmXor,
    /// Tracemax under the keyed-tag wrapper (path-recording capacity
    /// shrunk to free the tag bits).
    AuthTracemax,
}

impl SchemeSpec {
    /// Every selectable scheme, in canonical (report-table) order:
    /// unauthenticated baselines first, then their `auth-*` twins.
    pub const ALL: [SchemeSpec; 11] = [
        SchemeSpec::None,
        SchemeSpec::Ddpm,
        SchemeSpec::Dpm,
        SchemeSpec::PpmEdge,
        SchemeSpec::PpmXor,
        SchemeSpec::Tracemax,
        SchemeSpec::AuthDdpm,
        SchemeSpec::AuthDpm,
        SchemeSpec::AuthPpmEdge,
        SchemeSpec::AuthPpmXor,
        SchemeSpec::AuthTracemax,
    ];

    /// Parses a scheme name as written in scenario files.
    ///
    /// # Errors
    /// Unknown names report the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "none" => Ok(SchemeSpec::None),
            "ddpm" => Ok(SchemeSpec::Ddpm),
            "dpm" => Ok(SchemeSpec::Dpm),
            "ppm-edge" => Ok(SchemeSpec::PpmEdge),
            "ppm-xor" => Ok(SchemeSpec::PpmXor),
            "tracemax" => Ok(SchemeSpec::Tracemax),
            "auth-ddpm" => Ok(SchemeSpec::AuthDdpm),
            "auth-dpm" => Ok(SchemeSpec::AuthDpm),
            "auth-ppm-edge" => Ok(SchemeSpec::AuthPpmEdge),
            "auth-ppm-xor" => Ok(SchemeSpec::AuthPpmXor),
            "auth-tracemax" => Ok(SchemeSpec::AuthTracemax),
            other => Err(format!(
                "unknown scheme `{other}` (none|ddpm|dpm|ppm-edge|ppm-xor|tracemax\
                 |auth-ddpm|auth-dpm|auth-ppm-edge|auth-ppm-xor|auth-tracemax)"
            )),
        }
    }

    /// The canonical name — matches the scheme's [`Marker::name`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SchemeSpec::None => "none",
            SchemeSpec::Ddpm => "ddpm",
            SchemeSpec::Dpm => "dpm",
            SchemeSpec::PpmEdge => "ppm-edge",
            SchemeSpec::PpmXor => "ppm-xor",
            SchemeSpec::Tracemax => "tracemax",
            SchemeSpec::AuthDdpm => "auth-ddpm",
            SchemeSpec::AuthDpm => "auth-dpm",
            SchemeSpec::AuthPpmEdge => "auth-ppm-edge",
            SchemeSpec::AuthPpmXor => "auth-ppm-xor",
            SchemeSpec::AuthTracemax => "auth-tracemax",
        }
    }

    /// True for the keyed-tag (`auth-*`) wrappers.
    #[must_use]
    pub fn is_auth(self) -> bool {
        self.base() != self
    }

    /// The unauthenticated scheme underneath an `auth-*` wrapper;
    /// identity for everything else.
    #[must_use]
    pub fn base(self) -> SchemeSpec {
        match self {
            SchemeSpec::AuthDdpm => SchemeSpec::Ddpm,
            SchemeSpec::AuthDpm => SchemeSpec::Dpm,
            SchemeSpec::AuthPpmEdge => SchemeSpec::PpmEdge,
            SchemeSpec::AuthPpmXor => SchemeSpec::PpmXor,
            SchemeSpec::AuthTracemax => SchemeSpec::Tracemax,
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mark::NoMarking;

    #[test]
    fn attribution_constructors_normalise() {
        let a = Attribution::from_candidates(vec![NodeId(7), NodeId(3), NodeId(7)], 1.7);
        assert_eq!(a.candidates, vec![NodeId(3), NodeId(7)]);
        assert!((a.confidence - 1.0).abs() < f64::EPSILON);
        assert!(!a.is_identified());
        assert_eq!(a.single(), None);
        assert!(a.implicates(NodeId(3)));
        assert!(!a.implicates(NodeId(5)));

        let e = Attribution::exact(NodeId(9));
        assert!(e.is_identified());
        assert_eq!(e.single(), Some(NodeId(9)));

        let n = Attribution::none();
        assert!(n.candidates.is_empty());
        assert_eq!(n.single(), None);
        assert!(!n.implicates(NodeId(0)));
    }

    #[test]
    fn no_marking_scheme_observes_but_never_attributes() {
        let topo = Topology::mesh2d(4);
        let scheme = NoMarking;
        assert_eq!(scheme.mf_bits(), 0);
        assert_eq!(scheme.per_hop_cost(), HopCost::default());
        assert_eq!(scheme.per_hop_cost().describe(), "0w+0a");
        let mut c = scheme.collector(&topo, NodeId(0));
        c.observe(MarkingField::new(0xBEEF));
        c.observe(MarkingField::zero());
        assert_eq!(c.observed(), 2);
        assert_eq!(c.attribute(), Attribution::none());
    }

    #[test]
    fn scheme_spec_parses_and_round_trips() {
        for spec in SchemeSpec::ALL {
            assert_eq!(SchemeSpec::parse(spec.as_str()), Ok(spec));
        }
        let err = SchemeSpec::parse("pmm").unwrap_err();
        assert!(err.contains("unknown scheme `pmm`"), "{err}");
        assert!(err.contains("ppm-edge"), "{err}");
    }

    #[test]
    fn auth_variants_name_their_base() {
        assert_eq!(SchemeSpec::AuthDdpm.base(), SchemeSpec::Ddpm);
        assert_eq!(SchemeSpec::AuthTracemax.base(), SchemeSpec::Tracemax);
        assert!(SchemeSpec::AuthDpm.is_auth());
        assert!(!SchemeSpec::Dpm.is_auth());
        assert_eq!(SchemeSpec::Ddpm.base(), SchemeSpec::Ddpm);
        for spec in SchemeSpec::ALL {
            assert_eq!(
                spec.is_auth(),
                spec.as_str().starts_with("auth-"),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn census_quorum_filters_outliers_but_keeps_co_sources() {
        // Three zombies at similar volume plus one polluted singleton:
        // the singleton is an outlier, the zombies all survive.
        let a = Attribution::from_census(
            vec![
                (NodeId(3), 40),
                (NodeId(9), 35),
                (NodeId(12), 30),
                (NodeId(5), 1),
            ],
            110,
        );
        assert_eq!(a.candidates, vec![NodeId(3), NodeId(9), NodeId(12)]);
        assert!((a.confidence - 105.0 / 110.0).abs() < 1e-9);
        assert!(a.convicts(NodeId(9)));
        assert!(!a.implicates(NodeId(5)));

        // A pair of laundered forgeries against a strong true source:
        // below a quarter of the top candidate, so still filtered.
        let a = Attribution::from_census(vec![(NodeId(1), 60), (NodeId(8), 2)], 80);
        assert_eq!(a.candidates, vec![NodeId(1)]);

        // Nothing but pollution: the candidate may survive the floor but
        // confidence collapses — degraded, not flipped.
        let a = Attribution::from_census(vec![(NodeId(8), 2)], 300);
        assert!(a.confidence < CONVICTION_CONFIDENCE);
        assert!(!a.convicts(NodeId(8)));

        // Single-packet identification (the paper's DDPM claim) is
        // preserved below the quorum volume.
        let a = Attribution::from_census(vec![(NodeId(4), 1)], 1);
        assert_eq!(a.candidates, vec![NodeId(4)]);

        // Empty census: the empty answer.
        assert_eq!(Attribution::from_census(Vec::new(), 10), Attribution::none());
    }

    #[test]
    fn observe_packet_defaults_to_the_field() {
        use ddpm_net::{AddrMap, Ipv4Header, PacketId, Protocol, TrafficClass, L4};
        let topo = Topology::mesh2d(4);
        let map = AddrMap::for_topology(&topo);
        let mut c = NoMarking.collector(&topo, NodeId(0));
        let pkt = Packet {
            id: PacketId(0),
            header: Ipv4Header::new(map.ip_of(NodeId(1)), map.ip_of(NodeId(2)), Protocol::Udp, 64),
            l4: L4::udp(1, 2),
            true_source: NodeId(1),
            dest_node: NodeId(2),
            class: TrafficClass::Attack,
        };
        c.observe_packet(&pkt);
        assert_eq!(c.observed(), 1);
        assert_eq!(c.rejected(), 0);
    }

    #[test]
    fn scheme_upcasts_to_marker() {
        // The whole point of `MarkingScheme: Marker`: a boxed scheme
        // plugs into any `&dyn Marker` slot without an adapter.
        let boxed: Box<dyn MarkingScheme> = Box::new(NoMarking);
        let marker: &dyn Marker = &*boxed;
        assert_eq!(marker.name(), "none");
    }
}
