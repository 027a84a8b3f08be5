//! Cross-scheme Byzantine properties of the [`AdversaryModel`].
//!
//! The load-bearing property: for every `auth-*` scheme, on random
//! topologies, behaviors and compromised-switch sets, the adversary
//! can never *induce* a conviction of the framed innocent — if the
//! victim's quorum collector convicts the framed node under attack, it
//! convicted it on the identical honest run too (a pre-existing
//! collision class of the inner scheme, e.g. DPM's route-signature
//! ambiguity, not a forgery that got through). The unauthenticated
//! baseline is measured alongside: a framing switch on a flood path
//! pollutes the plain-DDPM census with the framed node.

use ddpm_attack::AdversaryModel;
use ddpm_core::build_scheme_with;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{
    AdversaryBehavior, AdversarySpec, Attribution, Marker, SchemeSpec, SimConfig, SimTime,
    Simulation,
};
use ddpm_topology::{FaultSet, NodeId, Topology};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (3u16..=8, 3u16..=8).prop_map(|(a, b)| Topology::mesh(&[a, b])),
        (3u16..=8, 3u16..=8).prop_map(|(a, b)| Topology::torus(&[a, b])),
        (3usize..=6).prop_map(Topology::hypercube),
    ]
}

fn arb_behavior() -> impl Strategy<Value = AdversaryBehavior> {
    (0usize..AdversaryBehavior::ALL.len()).prop_map(|i| AdversaryBehavior::ALL[i])
}

/// Runs the fixed two-zombie flood with the given marker and returns
/// the victim-side attribution of `scheme`'s collector plus how many
/// deliveries the collector rejected fail-closed.
fn run_and_attribute(
    topo: &Topology,
    spec: SchemeSpec,
    marker: &dyn Marker,
    zombies: &[NodeId],
    victim: NodeId,
    seed: u64,
) -> (Attribution, u64, Vec<Packet>) {
    let scheme = build_scheme_with(spec, topo, None).expect("caller checked feasibility");
    let map = AddrMap::for_topology(topo);
    let faults = FaultSet::none();
    let cfg = SimConfig::seeded(seed);
    let mut sim = Simulation::new(
        topo,
        &faults,
        Router::DimensionOrder,
        SelectionPolicy::First,
        marker,
        cfg,
    );
    let mut id = 0u64;
    for (zi, z) in zombies.iter().enumerate() {
        for k in 0..30u64 {
            sim.schedule(
                SimTime(k * 12 + zi as u64 * 6),
                Packet {
                    id: PacketId(id),
                    header: Ipv4Header::new(map.ip_of(*z), map.ip_of(victim), Protocol::Udp, 64),
                    l4: L4::udp(999, 53),
                    true_source: *z,
                    dest_node: victim,
                    class: TrafficClass::Attack,
                },
            );
            id += 1;
        }
    }
    sim.run();
    let mut coll = scheme.collector(topo, victim);
    let mut delivered = Vec::new();
    for d in sim.delivered() {
        coll.observe_packet(&d.packet);
        delivered.push(d.packet);
    }
    (coll.attribute(), coll.rejected(), delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auth schemes: no adversary-induced framed conviction, ever.
    #[test]
    fn auth_schemes_admit_no_induced_framing(
        topo in arb_topology(),
        behavior in arb_behavior(),
        switch_seed in any::<u64>(),
        nswitches in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let n = topo.num_nodes() as u32;
        let victim = NodeId(n - 1);
        let zombies = [NodeId(1), NodeId(n / 2)];
        let framed = NodeId(n / 3 + 1);
        prop_assume!(framed != victim && !zombies.contains(&framed));

        // A random compromised set avoiding the named roles.
        let mut switches = Vec::new();
        let mut s = switch_seed;
        while switches.len() < nswitches {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let cand = NodeId((s >> 33) as u32 % n);
            if cand != victim && cand != framed && !zombies.contains(&cand)
                && !switches.contains(&cand)
            {
                switches.push(cand);
            }
        }
        let aspec = AdversarySpec::new(
            switches,
            behavior,
            behavior.needs_framed().then_some(framed),
            seed,
        );

        for spec in [SchemeSpec::AuthDdpm, SchemeSpec::AuthDpm, SchemeSpec::AuthTracemax] {
            // Feasibility walls (tag bits vs. topology) are out of scope here.
            let Ok(scheme) = build_scheme_with(spec, &topo, None) else { continue };
            let (clean, clean_rejected, _) =
                run_and_attribute(&topo, spec, &*scheme, &zombies, victim, seed);
            prop_assert_eq!(clean_rejected, 0, "honest {} run must verify", spec.as_str());

            let adv = AdversaryModel::new(&*scheme, spec, &topo, aspec.clone(), None)
                .expect("roles are disjoint by construction");
            let (att, _, _) = run_and_attribute(&topo, spec, &adv, &zombies, victim, seed);
            prop_assert!(
                !att.convicts(framed) || clean.convicts(framed),
                "{} on {}: behavior {} with {:?} induced a conviction of innocent {:?}",
                spec.as_str(), topo.describe(), behavior.as_str(), aspec, framed,
            );
        }
    }

    /// The unauthenticated baseline measurably frames: a framing switch
    /// that touches a flood path pollutes the plain-DDPM census with
    /// the framed node on every tampered delivery.
    #[test]
    fn plain_ddpm_framing_is_measurable(
        topo in arb_topology(),
        seed in any::<u64>(),
    ) {
        let n = topo.num_nodes() as u32;
        let victim = NodeId(n - 1);
        let zombies = [NodeId(1), NodeId(n / 2)];
        let framed = NodeId(n / 3 + 1);
        prop_assume!(framed != victim && !zombies.contains(&framed));
        let spec = SchemeSpec::Ddpm;
        let scheme = build_scheme_with(spec, &topo, None).expect("ddpm fits every topology here");

        // Compromise the victim's own last-hop neighbourhood: the first
        // forwarding neighbour guarantees path coverage.
        let evil: Vec<NodeId> = topo
            .neighbors(&topo.coord(victim))
            .into_iter()
            .map(|(_, c)| topo.index(&c))
            .filter(|nb| *nb != framed && !zombies.contains(nb))
            .take(2)
            .collect();
        prop_assume!(!evil.is_empty());
        let aspec = AdversarySpec::new(evil, AdversaryBehavior::Frame, Some(framed), seed);
        let adv = AdversaryModel::new(&*scheme, spec, &topo, aspec, None).unwrap();
        let (att, _, delivered) = run_and_attribute(&topo, spec, &adv, &zombies, victim, seed);
        let tampered = delivered.iter().filter(|p| adv.was_tampered(p.id)).count();
        if tampered > 0 {
            prop_assert!(
                att.implicates(framed),
                "{} tampered deliveries on {} but innocent {:?} not implicated",
                tampered, topo.describe(), framed,
            );
        }
    }
}
