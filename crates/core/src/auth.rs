//! The split-trust keyed-tag wrapper — §4.1/§6.2, generalised to every
//! marking scheme.
//!
//! The paper assumes switches cannot be compromised, then hedges: "To
//! prevent even the small probability of compromising switch, we should
//! add an authentication function working on the switching layer.
//! Before putting this function into a switch, rigorous research is
//! required to consider a trade-off between performance and security."
//! (§4.1). [`Authenticated`] is that function as a *wrapper*: any
//! [`MarkingScheme`] slides inside it and gains tag verification at
//! every hop, with the tag bits carved out of the same 16-bit field the
//! inner scheme already budgets.
//!
//! ## Threat model (split trust)
//!
//! Trusted switches share a marking key `K` held in a secure element;
//! compute nodes never see it, and the *marking plane* of a compromised
//! switch is assumed to have lost access to it too (the standard
//! split-trust assumption of switch-security work; see DESIGN.md §12).
//! Such a switch can still corrupt the marking field in flight — under
//! an unauthenticated scheme that **frames an innocent node** (see
//! `ddpm_attack::AdversaryModel`). Under [`Authenticated`]:
//!
//! * the field is split `[inner : b][tag : t]`, the tag a truncated
//!   keyed PRF over `(inner value, src, dst, writer TTL)`;
//! * every switch verifies the incoming tag *before* running the inner
//!   update; on a mismatch it leaves the field untouched, so invalidity
//!   propagates (honest switches never re-legitimise a corrupted field);
//! * the victim trusts only packets whose final tag verifies — corrupted
//!   packets are counted and discarded instead of feeding the inner
//!   collector. Fail closed.
//!
//! ## TTL binding
//!
//! The tag covers the TTL *as the writing switch saw it*. The simulator
//! decrements TTL exactly once per intermediate-switch arrival (never at
//! the source or destination switch), so a verifier accepts a tag
//! computed over `ttl_now` (same-switch writer: the injection seal, or a
//! parked-and-rerouted packet) or `ttl_now + 1` (the previous switch).
//! The victim accepts `ttl_now` only. This pins the mark to its hop:
//! a switch that silently *skips* the update ships a tag two TTL steps
//! stale, which no downstream verifier accepts, and a replayed
//! `(field, tag)` pair from another hop of the same flow dies the same
//! way. The dual-accept window doubles the forgery acceptance to at
//! most `2 · 2^-t` per packet — the experiments measure the realised
//! rate against this model.
//!
//! ## The trade-off, quantified
//!
//! Tag bits come out of the inner scheme's own budget, so
//! authentication costs addressable scale (DDPM, DPM) or recording
//! capacity (Tracemax), plus one PRF evaluation per hop (the `marking`
//! Criterion bench). Schemes whose honest budget leaves fewer than
//! [`MIN_TAG_BITS`] spare bits on a topology are *infeasible* there —
//! [`AuthError::NoRoomForTag`] is the feasibility wall, reported by
//! `build_scheme` like any other.

use ddpm_net::{MarkingField, Packet, MF_BITS};
use ddpm_sim::{Attribution, Collector, HopCost, MarkEnv, Marker, MarkingScheme};
use ddpm_topology::{Coord, NodeId, Topology};
use rand::rngs::SmallRng;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed PRF over a few words (NOT a cryptographic MAC; a stand-in
/// with the right interface — see the module docs).
#[must_use]
pub fn prf(key: u64, parts: &[u64]) -> u64 {
    let mut h = key ^ 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h ^= mix(p.wrapping_add(h));
        h = h.rotate_left(23).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    mix(h)
}

/// Minimum acceptable tag width.
pub const MIN_TAG_BITS: u32 = 4;

/// Maximum tag width the default carve-out takes (wider tags buy
/// nothing once forgery is already negligible, and starve the inner
/// scheme for no reason).
pub const MAX_TAG_BITS: u32 = 12;

/// The default tag width for a scheme leaving `spare` MF bits: all of
/// them, clamped to `[MIN_TAG_BITS, MAX_TAG_BITS]`; `None` when even
/// the minimum does not fit.
#[must_use]
pub fn default_tag_bits(spare: u32) -> Option<u32> {
    (spare >= MIN_TAG_BITS).then(|| spare.min(MAX_TAG_BITS))
}

/// Errors from wrapping a scheme in [`Authenticated`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthError {
    /// The requested tag does not fit next to the inner scheme's bits
    /// (or is below the minimum meaningful width).
    NoRoomForTag {
        /// MF bits the inner scheme leaves over.
        spare: u32,
        /// The tag width asked for.
        requested: u32,
        /// Smallest acceptable tag width.
        minimum: u32,
    },
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::NoRoomForTag {
                spare,
                requested,
                minimum,
            } => {
                write!(
                    f,
                    "a {requested}-bit tag does not fit: {spare} spare MF bits \
                     (tags must be {minimum}..={MAX_TAG_BITS} bits)"
                )
            }
        }
    }
}

impl std::error::Error for AuthError {}

/// Any marking scheme under the split-trust keyed-tag discipline.
///
/// Field layout: `[inner : b][tag : t]` with `b = inner.mf_bits()` and
/// `b + t <= 16`. See the module docs for the verification protocol.
pub struct Authenticated<S> {
    inner: S,
    name: &'static str,
    key: u64,
    inner_bits: u32,
    tag_bits: u32,
    /// Tamper events observed by honest switches (verification failures
    /// at `on_forward`/`on_deliver`).
    tampered_seen: AtomicU64,
}

impl<S: MarkingScheme> Authenticated<S> {
    /// Wraps `inner` with a `tag_bits`-wide keyed tag under `key`.
    ///
    /// `name` is the wrapped scheme's report name (`"auth-ddpm"`, …) —
    /// the caller owns the naming because `Marker::name` must return a
    /// `&'static str`.
    ///
    /// # Errors
    /// [`AuthError::NoRoomForTag`] when `tag_bits` is below
    /// [`MIN_TAG_BITS`], above [`MAX_TAG_BITS`], or wider than the MF
    /// bits the inner scheme leaves spare.
    pub fn new(inner: S, name: &'static str, key: u64, tag_bits: u32) -> Result<Self, AuthError> {
        let inner_bits = inner.mf_bits();
        let spare = MF_BITS - inner_bits.min(MF_BITS);
        if !(MIN_TAG_BITS..=MAX_TAG_BITS).contains(&tag_bits) || tag_bits > spare {
            return Err(AuthError::NoRoomForTag {
                spare,
                requested: tag_bits,
                minimum: MIN_TAG_BITS,
            });
        }
        Ok(Self {
            inner,
            name,
            key,
            inner_bits,
            tag_bits,
            tampered_seen: AtomicU64::new(0),
        })
    }

    /// Tag width in bits.
    #[must_use]
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Inner-scheme field width in bits.
    #[must_use]
    pub fn inner_bits(&self) -> u32 {
        self.inner_bits
    }

    /// The wrapped (unauthenticated) scheme.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Tamper events honest switches have detected so far.
    #[must_use]
    pub fn tampered_seen(&self) -> u64 {
        self.tampered_seen.load(Ordering::Relaxed)
    }

    fn tag_for(&self, inner_val: u16, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> u16 {
        let t = prf(
            self.key,
            &[
                u64::from(inner_val),
                u64::from(u32::from(src)),
                u64::from(u32::from(dst)),
                u64::from(ttl),
            ],
        );
        (t & ((1u64 << self.tag_bits) - 1)) as u16
    }

    fn split(&self, mf: MarkingField) -> (u16, u16) {
        let inner_val = mf.get_bits(0, self.inner_bits);
        let tag = mf.get_bits(self.inner_bits, self.tag_bits);
        (inner_val, tag)
    }

    /// Writes `inner_val` back with a fresh tag over this switch's TTL.
    fn seal(&self, pkt: &mut Packet, inner_val: u16) {
        let tag = self.tag_for(inner_val, pkt.header.src, pkt.header.dst, pkt.header.ttl);
        let mut mf = MarkingField::zero();
        mf.set_bits(0, self.inner_bits, inner_val);
        mf.set_bits(self.inner_bits, self.tag_bits, tag);
        pkt.header.identification = mf;
    }

    /// In-flight verification: accepts a tag computed over `ttl_now`
    /// (same-switch writer) or `ttl_now + 1` (the previous switch).
    /// The previous switch is tried first: every honest in-flight hop
    /// matches it, so an honest check costs one PRF, not two.
    fn verify_in_flight(&self, pkt: &Packet) -> bool {
        let (inner_val, tag) = self.split(pkt.header.identification);
        let (src, dst, ttl) = (pkt.header.src, pkt.header.dst, pkt.header.ttl);
        tag == self.tag_for(inner_val, src, dst, ttl.saturating_add(1))
            || tag == self.tag_for(inner_val, src, dst, ttl)
    }

    /// Victim-side verification of a *delivered* packet: the destination
    /// switch never decrements TTL, so the last writer's TTL is exactly
    /// `ttl_now`. Returns the verified inner field value, or `None`
    /// (fail closed).
    #[must_use]
    pub fn verify_delivered(&self, pkt: &Packet) -> Option<MarkingField> {
        let (inner_val, tag) = self.split(pkt.header.identification);
        (tag == self.tag_for(inner_val, pkt.header.src, pkt.header.dst, pkt.header.ttl))
            .then(|| MarkingField::new(inner_val))
    }

    fn flag_tamper(&self) {
        // A plain count, ordered against nothing: relaxed suffices.
        self.tampered_seen.fetch_add(1, Ordering::Relaxed);
    }
}

impl<S: MarkingScheme> fmt::Debug for Authenticated<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Authenticated")
            .field("name", &self.name)
            .field("inner_bits", &self.inner_bits)
            .field("tag_bits", &self.tag_bits)
            .finish_non_exhaustive()
    }
}

impl<S: MarkingScheme> Marker for Authenticated<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_inject(&self, pkt: &mut Packet, src: &Coord, env: &MarkEnv<'_>) {
        // The injection switch resets the field (§5), so there is
        // nothing to verify yet — run the inner reset, then seal.
        self.inner.on_inject(pkt, src, env);
        let inner_val = pkt.header.identification.get_bits(0, self.inner_bits);
        self.seal(pkt, inner_val);
    }

    fn on_forward(
        &self,
        pkt: &mut Packet,
        cur: &Coord,
        next: &Coord,
        env: &MarkEnv<'_>,
        rng: &mut SmallRng,
    ) {
        // Verify BEFORE updating; never re-legitimise a corrupted field.
        if !self.verify_in_flight(pkt) {
            self.flag_tamper();
            return;
        }
        let (inner_val, _) = self.split(pkt.header.identification);
        pkt.header.identification = MarkingField::new(inner_val);
        self.inner.on_forward(pkt, cur, next, env, rng);
        let new_val = pkt.header.identification.get_bits(0, self.inner_bits);
        self.seal(pkt, new_val);
    }

    fn on_deliver(&self, pkt: &mut Packet, dest: &Coord, env: &MarkEnv<'_>, rng: &mut SmallRng) {
        // The destination switch never decrements TTL: the last writer
        // computed its tag over exactly `ttl_now`.
        let Some(inner_mf) = self.verify_delivered(pkt) else {
            self.flag_tamper();
            return;
        };
        pkt.header.identification = inner_mf;
        self.inner.on_deliver(pkt, dest, env, rng);
        let new_val = pkt.header.identification.get_bits(0, self.inner_bits);
        self.seal(pkt, new_val);
    }
}

/// The fail-closed collector: verifies each delivered packet's tag and
/// feeds only verified inner fields to the wrapped scheme's collector.
struct AuthCollector<'a, S: MarkingScheme> {
    auth: &'a Authenticated<S>,
    inner: Box<dyn Collector + 'a>,
    total: u64,
    rejected: u64,
}

impl<S: MarkingScheme> Collector for AuthCollector<'_, S> {
    fn observe(&mut self, _mf: MarkingField) {
        // A bare field carries no header, so the tag cannot be checked —
        // fail closed, as an unverifiable mark deserves.
        self.total += 1;
        self.rejected += 1;
    }

    fn observe_packet(&mut self, pkt: &Packet) {
        self.total += 1;
        match self.auth.verify_delivered(pkt) {
            Some(inner_mf) => self.inner.observe(inner_mf),
            None => self.rejected += 1,
        }
    }

    fn attribute(&mut self) -> Attribution {
        if self.total == 0 {
            return Attribution::none();
        }
        // The inner scheme answers from verified evidence only; its
        // confidence is then discounted by the verified fraction, so
        // pollution (rejected marks) degrades the answer instead of
        // entering it.
        let att = self.inner.attribute();
        let verified = (self.total - self.rejected) as f64;
        Attribution::from_candidates(att.candidates, att.confidence * verified / self.total as f64)
    }

    fn observed(&self) -> u64 {
        self.total
    }

    fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl<S: MarkingScheme> MarkingScheme for Authenticated<S> {
    fn mf_bits(&self) -> u32 {
        self.inner_bits + self.tag_bits
    }

    fn per_hop_cost(&self) -> HopCost {
        // On top of the inner scheme: one PRF verify, one PRF re-seal,
        // one tag sub-field write.
        let c = self.inner.per_hop_cost();
        HopCost {
            field_writes: c.field_writes + 1,
            arith_ops: c.arith_ops + 2,
            probabilistic: c.probabilistic,
        }
    }

    fn collector<'a>(&'a self, topo: &'a Topology, victim: NodeId) -> Box<dyn Collector + 'a> {
        Box::new(AuthCollector {
            auth: self,
            inner: self.inner.collector(topo, victim),
            total: 0,
            rejected: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpm::DdpmScheme;
    use ddpm_net::{AddrMap, Ipv4Header, PacketId, Protocol, TrafficClass, L4};
    use ddpm_routing::{Router, SelectionPolicy};
    use ddpm_sim::{SimConfig, SimTime, Simulation};
    use ddpm_topology::{FaultSet, Topology};
    use rand::SeedableRng;

    fn mk_packet(map: &AddrMap, id: u64, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            id: PacketId(id),
            header: Ipv4Header::new(map.ip_of(src), map.ip_of(dst), Protocol::Udp, 64),
            l4: L4::udp(1, 7),
            true_source: src,
            dest_node: dst,
            class: TrafficClass::Attack,
        }
    }

    fn auth_ddpm(topo: &Topology, key: u64, tag_bits: u32) -> Authenticated<DdpmScheme> {
        let inner = DdpmScheme::new(topo).unwrap();
        Authenticated::new(inner, "auth-ddpm", key, tag_bits).unwrap()
    }

    #[test]
    fn layout_splits_the_field() {
        let topo = Topology::mesh2d(8);
        let auth = auth_ddpm(&topo, 0xBEEF, 8);
        assert_eq!(auth.inner_bits(), 8);
        assert_eq!(auth.tag_bits(), 8);
        assert_eq!(auth.mf_bits(), 16);
        assert_eq!(auth.name(), "auth-ddpm");
    }

    #[test]
    fn tag_width_walls_are_checked() {
        let topo = Topology::mesh2d(8); // DDPM leaves 8 spare bits
        let inner = DdpmScheme::new(&topo).unwrap();
        let err = Authenticated::new(inner, "auth-ddpm", 1, 12).unwrap_err();
        assert!(
            matches!(
                err,
                AuthError::NoRoomForTag {
                    spare: 8,
                    requested: 12,
                    ..
                }
            ),
            "{err}"
        );
        let inner = DdpmScheme::new(&topo).unwrap();
        assert!(Authenticated::new(inner, "auth-ddpm", 1, 2).is_err());
        assert_eq!(default_tag_bits(3), None);
        assert_eq!(default_tag_bits(6), Some(6));
        assert_eq!(default_tag_bits(14), Some(MAX_TAG_BITS));
    }

    #[test]
    fn honest_run_verifies_and_identifies() {
        let topo = Topology::torus(&[6, 6]);
        let auth = auth_ddpm(&topo, 0xD00D, 8);
        let map = AddrMap::for_topology(&topo);
        let faults = FaultSet::none();
        let victim = NodeId(21);
        let mut sim = Simulation::new(
            &topo,
            &faults,
            Router::fully_adaptive_for(&topo),
            SelectionPolicy::Random,
            &auth,
            SimConfig::seeded(5),
        );
        for id in 0..150u64 {
            let s = NodeId((id as u32 * 7 + 1) % 36);
            if s == victim {
                continue;
            }
            sim.schedule(SimTime(id * 4), mk_packet(&map, id, s, victim));
        }
        sim.run();
        assert!(!sim.delivered().is_empty());
        let mut c = auth.collector(&topo, victim);
        for d in sim.delivered() {
            assert!(auth.verify_delivered(&d.packet).is_some());
            c.observe_packet(&d.packet);
        }
        assert_eq!(c.rejected(), 0);
        let att = c.attribute();
        assert!(att.confidence > 0.9, "{att:?}");
        for d in sim.delivered() {
            assert!(att.implicates(d.packet.true_source), "{att:?}");
        }
        assert_eq!(auth.tampered_seen(), 0);
    }

    #[test]
    fn midpath_tamper_is_detected_not_misattributed() {
        // Manually corrupt the field between two hops, as a compromised
        // switch would, and check fail-closed behaviour end to end.
        let topo = Topology::mesh2d(8);
        let auth = auth_ddpm(&topo, 7, 8);
        let map = AddrMap::for_topology(&topo);
        let env = MarkEnv { topo: &topo };
        let mut rng = SmallRng::seed_from_u64(0);
        let path = [
            Coord::new(&[0, 0]),
            Coord::new(&[1, 0]),
            Coord::new(&[2, 0]),
            Coord::new(&[3, 0]),
            Coord::new(&[4, 0]),
        ];
        let mut pkt = mk_packet(&map, 9, topo.index(&path[0]), topo.index(&path[4]));
        auth.on_inject(&mut pkt, &path[0], &env);
        auth.on_forward(&mut pkt, &path[0], &path[1], &env, &mut rng);
        // The compromised switch rewrites the field to frame (6,6)
        // (keeping the stale tag — it has no key to forge a new one)…
        pkt.header.ttl -= 1; // arrival at the evil switch
        let framed = Coord::new(&[6, 6]);
        let frame_v = topo.expected_distance(&framed, &path[2]);
        let forged = auth.inner().codec().encode(&frame_v).unwrap().raw();
        let (_, old_tag) = auth.split(pkt.header.identification);
        let mut mf = MarkingField::zero();
        mf.set_bits(0, auth.inner_bits(), forged);
        mf.set_bits(auth.inner_bits(), auth.tag_bits(), old_tag);
        pkt.header.identification = mf;
        // …honest switches downstream refuse to touch it…
        for hop in 2..=4 {
            pkt.header.ttl -= 1;
            auth.on_forward(&mut pkt, &path[hop - 1], &path[hop], &env, &mut rng);
        }
        assert_eq!(auth.tampered_seen(), 3, "every honest hop flags it");
        // …and the victim refuses to trust it (fail closed), rather than
        // convicting the framed node.
        assert_eq!(auth.verify_delivered(&pkt), None);
        let mut c = auth.collector(&topo, topo.index(&path[4]));
        c.observe_packet(&pkt);
        assert_eq!(c.rejected(), 1);
        assert_eq!(c.attribute(), Attribution::none());
    }

    #[test]
    fn skipped_update_ships_a_stale_tag() {
        // A switch that silently skips the marking update leaves a tag
        // two TTL steps stale by the time the next honest switch looks.
        let topo = Topology::mesh2d(8);
        let auth = auth_ddpm(&topo, 3, 8);
        let map = AddrMap::for_topology(&topo);
        let env = MarkEnv { topo: &topo };
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[1, 0]);
        let c = Coord::new(&[2, 0]);
        let d = Coord::new(&[3, 0]);
        let mut pkt = mk_packet(&map, 1, topo.index(&a), topo.index(&d));
        auth.on_inject(&mut pkt, &a, &env);
        auth.on_forward(&mut pkt, &a, &b, &env, &mut rng);
        pkt.header.ttl -= 1; // arrive at b — the evil switch skips marking
        pkt.header.ttl -= 1; // arrive at c
        auth.on_forward(&mut pkt, &c, &d, &env, &mut rng);
        assert_eq!(auth.tampered_seen(), 1, "the stale tag is flagged");
        // The victim (one more hop, no decrement at destination) also
        // refuses it.
        assert_eq!(auth.verify_delivered(&pkt), None);
    }

    #[test]
    fn prf_is_key_and_input_sensitive() {
        let a = prf(1, &[1, 2, 3]);
        assert_ne!(a, prf(2, &[1, 2, 3]));
        assert_ne!(a, prf(1, &[1, 2, 4]));
        assert_ne!(a, prf(1, &[1, 2]));
        assert_eq!(a, prf(1, &[1, 2, 3]));
    }

    #[test]
    fn forgery_acceptance_tracks_tag_width() {
        // A keyless forger's field passes the victim check with
        // probability 2^-t: sweeping the *entire* 16-bit field space,
        // each inner value has exactly one matching tag among 2^t, so
        // the realized acceptance must sit within 3x of the design
        // value at every supported width. t = 12 leaves only 4 inner
        // bits — too few for the 8x8 mesh's DDPM vector — so it runs
        // on the 2x2 mesh (the width/scale trade-off the capacity
        // table quantifies).
        for (tag_bits, radix) in [(4u32, 8u16), (8, 8), (12, 2)] {
            let topo = Topology::mesh2d(radix);
            let auth = auth_ddpm(&topo, 99, tag_bits);
            let map = AddrMap::for_topology(&topo);
            let victim = NodeId(u32::from(radix) * u32::from(radix) - 1);
            let mut pkt = mk_packet(&map, 0, NodeId(0), victim);
            let mut accepted = 0u32;
            for field in 0..=u16::MAX {
                pkt.header.identification = MarkingField::new(field);
                if auth.verify_delivered(&pkt).is_some() {
                    accepted += 1;
                }
            }
            let rate = f64::from(accepted) / f64::from(u32::from(u16::MAX) + 1);
            let design = f64::from(1u32 << tag_bits).recip();
            assert!(
                rate <= 3.0 * design,
                "t={tag_bits}: acceptance {rate} above 3x the design {design}"
            );
            assert!(
                rate >= design / 3.0,
                "t={tag_bits}: acceptance {rate} below a third of the design \
                 {design} — the verifier rejects more than bad tags"
            );
        }
    }
}
