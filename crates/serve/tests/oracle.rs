//! A deliberately naive reference simulator, used as a differential
//! oracle for the simulator core.
//!
//! The model re-implements the core's event loop in the plainest form
//! available: one `BinaryHeap` keyed `(cycle, rank, handle, seq)`, a
//! `HashMap` of port clocks keyed by `(switch, direction)`, one boxed
//! record per packet looked up by handle, and the workload generated
//! whole up front. It shares with the simulator only what the core
//! does not own: the router's candidate list, the selection policy,
//! the marking scheme's hooks, the traffic generators and the per-packet
//! RNG seeding rule `seed ^ (handle + 1) · φ`.
//!
//! A proptest draws small scenarios — meshes, tori and hypercubes of up
//! to 64 nodes; dimension-order, turn-model and adaptive routing; every
//! `SchemeSpec`; random static link faults; eager and staged injection —
//! and drives a `ScenarioWorld` through strides with pauses. At a pause
//! it may inject another flood (`ScenarioWorld::inject`, eager runs
//! only) or snapshot the world, round-trip the snapshot through the
//! checkpoint codec and continue in a freshly built world. The
//! delivered (`D`), drop (`X`) and statistics (`S`) streams must equal
//! the model's, line for line.
//!
//! Out of scope for now: the watchdog, dynamic fault schedules, retries,
//! bit errors, filters and adversaries. A staged run gets no mid-run
//! injections, because how a staged run numbers them has changed over
//! time and the model follows only the scheduled-run rule.

use ddpm_attack::{
    BackgroundTraffic, FloodAttack, PacketFactory, SpoofStrategy, SynFloodAttack, TrafficPattern,
    Workload,
};
use ddpm_checkpoint::{decode_snapshot, encode_snapshot, Checkpoint};
use ddpm_core::build_scheme_with;
use ddpm_net::{AddrMap, Packet};
use ddpm_routing::{Candidate, RouteCtx, RouteState, Router, SelectionPolicy};
use ddpm_serve::scenario::{AttackSpec, ScenarioConfig, ScenarioWorld};
use ddpm_sim::{
    Delivered, DropReason, MarkEnv, Marker, MarkingScheme, SchemeSpec, SimConfig, SimStats, SimTime,
};
use ddpm_topology::{Direction, FaultSet, NodeId, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, FromJson, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A queued model event: `(cycle, rank, handle, seq, act)`. Every
/// model event is a packet event, so the rank is always 2.
type Queued = Reverse<(u64, u8, u64, u64, Act)>;

/// What a queued model event does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Act {
    Inject,
    Arrive(u32),
}

/// One packet's record, boxed and looked up by handle.
struct Rec {
    packet: Packet,
    state: RouteState,
    rng: SmallRng,
    injected_at: u64,
    under_fault: bool,
}

/// The reference simulator.
struct Model<'a> {
    topo: &'a Topology,
    faults: FaultSet,
    router: Router,
    policy: SelectionPolicy,
    marker: &'a dyn Marker,
    cfg: SimConfig,
    heap: BinaryHeap<Queued>,
    seq: u64,
    recs: HashMap<u64, Box<Rec>>,
    next_handle: u64,
    ports: HashMap<(u32, Direction), u64>,
    now: u64,
    stats: SimStats,
    delivered: Vec<Delivered>,
    drops: Vec<(ddpm_net::PacketId, DropReason)>,
}

impl<'a> Model<'a> {
    fn schedule(&mut self, time: u64, handle: u64, packet: Packet) {
        let seed = self.cfg.seed ^ (handle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rec = Rec {
            packet,
            state: RouteState::with_budget(self.router.misroute_budget()),
            rng: SmallRng::seed_from_u64(seed),
            injected_at: time,
            under_fault: false,
        };
        assert!(
            self.recs.insert(handle, Box::new(rec)).is_none(),
            "handle reused"
        );
        self.push(time, handle, Act::Inject);
    }

    fn push(&mut self, time: u64, handle: u64, act: Act) {
        self.heap.push(Reverse((time, 2, handle, self.seq, act)));
        self.seq += 1;
    }

    /// Runs every event at or before `until`.
    fn run_through(&mut self, until: u64) {
        while let Some(&Reverse((t, _, h, _, act))) = self.heap.peek() {
            if t > until {
                break;
            }
            self.heap.pop();
            self.now = t;
            match act {
                Act::Inject => self.inject(h),
                Act::Arrive(node) => self.arrive(h, node),
            }
        }
    }

    fn finish(&mut self) {
        self.run_through(u64::MAX);
        if !self.faults.is_empty() {
            self.stats.faults.degraded_cycles += self.now;
        }
        self.stats.end_time = self.now;
    }

    fn drop_packet(&mut self, h: u64, reason: DropReason) {
        let rec = self.recs.remove(&h).expect("live packet");
        let c = self.stats.class_mut(rec.packet.class);
        match reason {
            DropReason::BufferOverflow => c.dropped_buffer += 1,
            DropReason::TtlExpired => c.dropped_ttl += 1,
            DropReason::Blocked => c.dropped_blocked += 1,
            DropReason::HopLimit => c.dropped_hop_limit += 1,
            other => panic!("the model never drops for {other:?}"),
        }
        self.drops.push((rec.packet.id, reason));
    }

    fn inject(&mut self, h: u64) {
        let under = !self.faults.is_empty();
        let rec = self.recs.get_mut(&h).expect("live packet");
        rec.under_fault = under;
        let class = rec.packet.class;
        let src = rec.packet.true_source;
        let src_c = self.topo.coord(src);
        self.marker
            .on_inject(&mut rec.packet, &src_c, &MarkEnv { topo: self.topo });
        self.stats.class_mut(class).injected += 1;
        if under {
            self.stats.faults.window_injected += 1;
        }
        self.forward(h, src.0);
    }

    fn arrive(&mut self, h: u64, node: u32) {
        let topo = self.topo;
        let cur = topo.coord(NodeId(node));
        let rec = self.recs.get_mut(&h).expect("live packet");
        if rec.packet.dest_node == NodeId(node) {
            let Rec { packet, rng, .. } = &mut **rec;
            self.marker.on_deliver(packet, &cur, &MarkEnv { topo }, rng);
            let rec = self.recs.remove(&h).expect("live packet");
            if rec.under_fault {
                self.stats.faults.window_delivered += 1;
            }
            let c = self.stats.class_mut(rec.packet.class);
            c.delivered += 1;
            c.latency.record(self.now - rec.injected_at);
            c.total_hops += u64::from(rec.state.hops);
            self.delivered.push(Delivered {
                packet: rec.packet,
                injected_at: SimTime(rec.injected_at),
                delivered_at: SimTime(self.now),
                hops: rec.state.hops,
            });
            return;
        }
        if !rec.packet.header.decrement_ttl() {
            self.drop_packet(h, DropReason::TtlExpired);
            return;
        }
        self.forward(h, node);
    }

    fn forward(&mut self, h: u64, node: u32) {
        let topo = self.topo;
        let rec = self.recs.get_mut(&h).expect("live packet");
        if rec.state.hops >= self.cfg.max_hops {
            self.drop_packet(h, DropReason::HopLimit);
            return;
        }
        let cur = topo.coord(NodeId(node));
        let dst = topo.coord(rec.packet.dest_node);
        let ctx = RouteCtx::new(topo, &self.faults);
        let mut cands: Vec<Candidate> = Vec::new();
        self.router
            .candidates_into(&ctx, &cur, &dst, &rec.state, &mut cands);
        let Some(pick) = self.policy.pick_for(&self.router, &cands, &mut rec.rng) else {
            self.drop_packet(h, DropReason::Blocked);
            return;
        };
        let chosen = cands[pick];
        let busy = self.ports.get(&(node, chosen.dir)).copied().unwrap_or(0);
        let backlog = busy.saturating_sub(self.now) / self.cfg.service_cycles;
        if backlog >= u64::from(self.cfg.buffer_packets) {
            self.drop_packet(h, DropReason::BufferOverflow);
            return;
        }
        let Rec {
            packet, rng, state, ..
        } = &mut **rec;
        self.marker
            .on_forward(packet, &cur, &chosen.next, &MarkEnv { topo }, rng);
        state.record_hop(chosen.productive, chosen.dir);
        let depart = busy.max(self.now) + self.cfg.service_cycles;
        self.ports.insert((node, chosen.dir), depart);
        let next = topo.index(&chosen.next).0;
        self.push(depart + self.cfg.link_latency, h, Act::Arrive(next));
    }
}

/// The model's generator state, mirroring the world's: the RNG and
/// packet factory as they stand after the scheduled workload.
struct Gen {
    factory: PacketFactory,
    rng: SmallRng,
}

fn attack_workload(spec: &AttackSpec, gen: &mut Gen) -> Workload {
    let node = |n: u32| NodeId(n);
    match spec {
        AttackSpec::UdpFlood {
            zombies,
            victim,
            packets_per_zombie,
            interval,
        } => FloodAttack {
            packets_per_zombie: *packets_per_zombie,
            interval: *interval,
            ..FloodAttack::new(zombies.iter().map(|&z| node(z)).collect(), node(*victim))
        }
        .generate(&mut gen.factory, &mut gen.rng),
        AttackSpec::SynFlood {
            zombies,
            victim,
            syns_per_zombie,
            interval,
        } => SynFloodAttack {
            syns_per_zombie: *syns_per_zombie,
            interval: *interval,
            spoof: SpoofStrategy::RandomInCluster,
            ..SynFloodAttack::new(zombies.iter().map(|&z| node(z)).collect(), node(*victim))
        }
        .generate(&mut gen.factory, &mut gen.rng),
    }
}

/// The D/X/S lines of a finished run, as `ScenarioWorld::outcome`
/// formats them (a `D` line ends in the literal ` None`).
fn lines(
    delivered: &[Delivered],
    drops: &[(ddpm_net::PacketId, DropReason)],
    stats: &SimStats,
) -> Vec<String> {
    let mut out: Vec<String> = delivered
        .iter()
        .map(|d| {
            format!(
                "D {:?} {:?} {:?} {} None",
                d.packet, d.injected_at, d.delivered_at, d.hops
            )
        })
        .collect();
    out.extend(drops.iter().map(|(id, r)| format!("X {id:?} {r:?}")));
    out.push(format!("S {stats:?}"));
    out
}

const SCHEMES: [&str; 11] = [
    "none",
    "ddpm",
    "dpm",
    "ppm-edge",
    "ppm-xor",
    "tracemax",
    "auth-ddpm",
    "auth-dpm",
    "auth-ppm-edge",
    "auth-ppm-xor",
    "auth-tracemax",
];

const ROUTERS: [&str; 6] = [
    "dimension_order",
    "west_first",
    "north_last",
    "negative_first",
    "minimal_adaptive",
    "fully_adaptive",
];

const POLICIES: [&str; 3] = ["first", "random", "productive_first_random"];

/// A topology of at most 64 nodes from a code.
fn topology(code: u64) -> Value {
    let k = |c: u64, lo: u64, hi: u64| lo + c % (hi - lo + 1);
    match code % 5 {
        0 => json!({"kind": "mesh", "dims": [k(code / 5, 2, 8), k(code / 45, 2, 8)]}),
        1 => json!({"kind": "torus", "dims": [k(code / 5, 3, 8), k(code / 45, 3, 8)]}),
        2 => {
            json!({"kind": "mesh", "dims": [k(code / 5, 2, 4), k(code / 45, 2, 4), k(code / 405, 2, 4)]})
        }
        3 => {
            json!({"kind": "torus", "dims": [k(code / 5, 3, 4), k(code / 45, 3, 4), k(code / 405, 3, 4)]})
        }
        _ => json!({"kind": "hypercube", "n": k(code / 5, 2, 6)}),
    }
}

/// A scenario drawn from codes, or `None` when the draw does not build
/// (a scheme that does not fit the fabric, a turn model off a 2-D mesh).
fn scenario(draw: &[u64; 8]) -> Option<(Value, ScenarioConfig)> {
    let topo = topology(draw[0]);
    let nodes = ScenarioConfig::from_json(&json!({
        "topology": topo.clone(),
        "router": "dimension_order",
    }))
    .ok()?
    .topology
    .build()
    .num_nodes() as u32;
    let scheme = SCHEMES[(draw[1] % SCHEMES.len() as u64) as usize];
    // The turn models are defined on 2-D meshes only.
    let mut router = ROUTERS[(draw[4] % ROUTERS.len() as u64) as usize];
    let mesh2d = draw[0].is_multiple_of(5);
    if !mesh2d && matches!(router, "west_first" | "north_last" | "negative_first") {
        router = "dimension_order";
    }
    let victim = (draw[2] % u64::from(nodes)) as u32;
    let mut zombies: Vec<u32> = Vec::new();
    for i in 0..=(draw[2] / 64 % 3) {
        let z = ((draw[2] / 256 + i * 7919) % u64::from(nodes)) as u32;
        if z != victim && !zombies.contains(&z) {
            zombies.push(z);
        }
    }
    if zombies.is_empty() {
        return None;
    }
    let count = 10 + draw[3] % 71;
    let interval = 2 + draw[3] / 71 % 11;
    let attack = if (draw[3] / 1000).is_multiple_of(2) {
        json!({"kind": "udp_flood", "zombies": zombies, "victim": victim,
               "packets_per_zombie": count, "interval": interval})
    } else {
        json!({"kind": "syn_flood", "zombies": zombies, "victim": victim,
               "syns_per_zombie": count, "interval": interval})
    };
    let mut v = json!({
        "topology": topo,
        "router": router,
        "policy": POLICIES[(draw[4] / 8 % 3) as usize],
        "scheme": scheme,
        "seed": draw[5],
        "fault_rate": [0.0, 0.0, 0.05, 0.15][(draw[6] % 4) as usize],
        "background_interval": if (draw[6] / 4).is_multiple_of(3) { 0 } else { 8 + draw[6] / 16 % 33 },
        "horizon": 200 + draw[6] / 1024 % 1001,
        "staged_injection": draw[7].is_multiple_of(3),
        "attack": attack,
    });
    if scheme.starts_with("auth-") {
        if let Value::Object(m) = &mut v {
            m.insert("tag_bits".into(), json!(4 + draw[7] / 3 % 5));
        }
    }
    let cfg = ScenarioConfig::from_json(&v).ok()?;
    ScenarioWorld::build(&cfg, None, None).ok()?;
    Some((v, cfg))
}

/// Builds the model's side of `cfg` exactly as `ScenarioWorld::build`
/// draws it: faults, then background, then the attack, from one RNG.
fn model_inputs(cfg: &ScenarioConfig, topo: &Topology) -> (FaultSet, Workload, Gen) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let faults = FaultSet::random(topo, cfg.fault_rate, || rng.gen::<f64>());
    let mut gen = Gen {
        factory: PacketFactory::new(AddrMap::for_topology(topo)),
        rng,
    };
    let mut workload = if cfg.background_interval > 0 {
        BackgroundTraffic {
            pattern: TrafficPattern::Uniform,
            interval: cfg.background_interval,
            duration: cfg.horizon,
            start: SimTime::ZERO,
        }
        .generate(topo, &mut gen.factory, &mut gen.rng)
    } else {
        Workload::new()
    };
    workload.extend(attack_workload(
        cfg.attack.as_ref().expect("drawn"),
        &mut gen,
    ));
    if cfg.staged_injection {
        // Staged runs number packets in time order (stable for ties).
        workload.sort_by_key(|&(t, _)| t);
    }
    (faults, workload, gen)
}

/// A mid-run flood for a pause.
fn extra_attack(code: u64, nodes: u32) -> Option<AttackSpec> {
    let victim = (code % u64::from(nodes)) as u32;
    let zombie = ((code / 97) % u64::from(nodes)) as u32;
    (zombie != victim).then(|| AttackSpec::UdpFlood {
        zombies: vec![zombie],
        victim,
        packets_per_zombie: 1 + (code / 10_000 % 24) as u32,
        interval: 1 + code / 1_000_000 % 9,
    })
}

/// Continues `world` in a freshly built one, through a snapshot that
/// round-trips the checkpoint codec.
fn restore(world: &ScenarioWorld, cfg: &ScenarioConfig, source: &str) -> ScenarioWorld {
    let snap = world.sim().snapshot();
    let snapshot = decode_snapshot(&encode_snapshot(&snap)).expect("codec round trip");
    let ckpt = Checkpoint {
        fingerprint: 0,
        cycle: snapshot.now,
        scenario: source.to_string(),
        snapshot,
    };
    ScenarioWorld::build(cfg, Some(source), Some(ckpt)).expect("restores")
}

/// Runs one drawn case on both sides and compares the streams.
fn check(draw: &[u64; 8], pauses: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let Some((v, cfg)) = scenario(draw) else {
        return Err(TestCaseError::Reject);
    };
    let source = v.to_string();
    let topo = cfg.topology.build();
    let spec = cfg.scheme.unwrap_or(SchemeSpec::None);
    let plugin: Box<dyn MarkingScheme> =
        build_scheme_with(spec, &topo, cfg.tag_bits).expect("built by the world already");
    let (faults, workload, gen) = model_inputs(&cfg, &topo);
    let after_workload = (gen.factory.clone(), gen.rng.clone());
    let mut gen = gen;
    let mut model = Model {
        topo: &topo,
        faults,
        router: cfg.router.build(&topo),
        policy: cfg.policy,
        marker: &*plugin,
        cfg: SimConfig::seeded(cfg.seed),
        heap: BinaryHeap::new(),
        seq: 0,
        recs: HashMap::new(),
        next_handle: 0,
        ports: HashMap::new(),
        now: 0,
        stats: SimStats::default(),
        delivered: Vec::new(),
        drops: Vec::new(),
    };
    for (t, p) in workload {
        let h = model.next_handle;
        model.next_handle += 1;
        model.schedule(t.0, h, p);
    }

    let mut world = ScenarioWorld::build(&cfg, Some(&source), None).expect("builds");
    for &(stride, act) in pauses {
        if world.step(1 + stride % 300) {
            break;
        }
        model.run_through(world.now_cycles());
        match act % 4 {
            1 if !cfg.staged_injection => {
                let Some(extra) = extra_attack(act / 4, topo.num_nodes() as u32) else {
                    continue;
                };
                world.inject(&extra).expect("mid-run inject");
                let base = world.now_cycles() + 1;
                for (t, p) in attack_workload(&extra, &mut gen) {
                    let h = model.next_handle;
                    model.next_handle += 1;
                    model.schedule(base + t.0, h, p);
                }
            }
            2 => {
                world = restore(&world, &cfg, &source);
                // A resumed world regenerates its workload, so its
                // generator stands where the workload left it.
                gen.factory = after_workload.0.clone();
                gen.rng = after_workload.1.clone();
            }
            _ => {}
        }
    }
    world.run_to_completion().expect("runs out");
    model.finish();

    let sim = world.sim();
    let got = lines(sim.delivered(), sim.drops(), sim.stats());
    let want = lines(&model.delivered, &model.drops, &model.stats);
    prop_assert_eq!(
        got.len(),
        want.len(),
        "stream lengths differ for {}",
        source
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g, w, "line {} differs for {}", i, source);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simulator's `D`, `X` and `S` streams equal the reference
    /// model's on small scenarios with pauses, mid-run injections and
    /// snapshot/restore round trips.
    #[test]
    fn simulator_matches_the_reference_model(
        draw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(),
                 any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        pauses in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
    ) {
        let (a, b, c, d, e, f, g, h) = draw;
        check(&[a, b, c, d, e, f, g, h], &pauses)?;
    }
}
