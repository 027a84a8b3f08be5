//! The seeded workload generator.
//!
//! The benchmark's seed is the only source of variation: it picks the
//! victim, the zombie set, the adversary's switches and framed node, and
//! the scenario's own `seed`. The program under test receives nothing
//! but the generated scenario JSON (and, for `serve-durable`, wire
//! requests carrying it). Draws come from a local SplitMix64 so the
//! inputs stay byte-stable even if the repository's RNG shim changes.

use serde_json::{json, Value};

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32x32 torus, dimension-order routing, plain DDPM, staged injection.
    FabricDor,
    /// 8x8 torus, fully adaptive routing, auth-DDPM under a framing adversary.
    AdaptiveAuth,
    /// In-process `ddpm-serve` with four autorun 6x6 torus tenants.
    ServeDurable,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::FabricDor,
        Workload::AdaptiveAuth,
        Workload::ServeDurable,
    ];

    /// Parses a workload name as given on the command line.
    ///
    /// # Errors
    /// An unknown name, with the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload `{name}` (expected fabric-dor, adaptive-auth or serve-durable)")
            })
    }

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricDor => "fabric-dor",
            Workload::AdaptiveAuth => "adaptive-auth",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Salt mixed into the seed so two workloads never share draws.
    fn salt(self) -> u64 {
        match self {
            Workload::FabricDor => 0xFAB1_1C00,
            Workload::AdaptiveAuth => 0xADA9_7A00,
            Workload::ServeDurable => 0x5E4E_D000,
        }
    }
}

/// Size knobs of one simulated flood.
#[derive(Clone, Debug)]
pub struct FloodShape {
    /// Torus radices.
    pub dims: [u16; 2],
    /// Scenario `router`.
    pub router: &'static str,
    /// Scenario `scheme`.
    pub scheme: &'static str,
    /// Scenario `tag_bits` (auth schemes only).
    pub tag_bits: Option<u32>,
    /// Benign per-node injection interval, cycles.
    pub background_interval: u64,
    /// Background horizon, cycles.
    pub horizon: u64,
    /// Cycles per `ScenarioWorld::step` in a pass's stride loop.
    pub stride: u64,
    /// Zombies in the UDP flood.
    pub zombies: usize,
    /// Packets each zombie sends.
    pub packets_per_zombie: u32,
    /// Cycles between a zombie's packets.
    pub interval: u64,
    /// Compromised switches running the `frame` behavior (0 = honest).
    pub adversary_switches: usize,
    /// Scenario `staged_injection`.
    pub staged: bool,
}

impl FloodShape {
    /// The shape of `w`'s scenario (one tenant's, for `serve-durable`).
    /// `quick` shrinks the horizon and the flood for tests: eightfold for
    /// the simulator workloads, twofold for the tenants, which must still
    /// be ingesting when the first queries arrive.
    #[must_use]
    pub fn of(w: Workload, quick: bool) -> Self {
        let mut s = match w {
            Workload::FabricDor => FloodShape {
                dims: [32, 32],
                router: "dimension_order",
                scheme: "ddpm",
                tag_bits: None,
                background_interval: 128,
                horizon: 100_000,
                stride: SIM_STRIDE,
                zombies: 8,
                packets_per_zombie: 2_500,
                interval: 40,
                adversary_switches: 0,
                staged: true,
            },
            Workload::AdaptiveAuth => FloodShape {
                dims: [8, 8],
                router: "fully_adaptive",
                scheme: "auth-ddpm",
                tag_bits: Some(8),
                background_interval: 8,
                horizon: 100_000,
                stride: SIM_STRIDE,
                zombies: 4,
                packets_per_zombie: 6_000,
                interval: 16,
                adversary_switches: 2,
                staged: false,
            },
            // The E-SERVE tenant shape (`report -- service-load`), run
            // twice as long so that a round's ingest spans several
            // subscribe drains and enough identify round trips. (Longer
            // still, checkpoints, which grow with the delivered log,
            // come to dominate the round.)
            Workload::ServeDurable => FloodShape {
                dims: [6, 6],
                router: "fully_adaptive",
                scheme: "ddpm",
                tag_bits: None,
                background_interval: 20,
                horizon: SERVE_HORIZON,
                stride: 4096,
                zombies: 2,
                packets_per_zombie: 3_200,
                interval: 12,
                adversary_switches: 0,
                staged: false,
            },
        };
        if quick {
            let f = if w == Workload::ServeDurable { 2 } else { 8 };
            s.horizon /= f;
            s.packets_per_zombie /= f as u32;
        }
        s
    }

    /// Nodes in the torus.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        u32::from(self.dims[0]) * u32::from(self.dims[1])
    }

    /// The shape as JSON, for the result stamp.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "dims": [self.dims[0], self.dims[1]],
            "router": self.router,
            "scheme": self.scheme,
            "tag_bits": self.tag_bits.map_or(json!(null), |t| json!(t)),
            "background_interval": self.background_interval,
            "horizon": self.horizon,
            "stride": self.stride,
            "zombies": self.zombies,
            "packets_per_zombie": self.packets_per_zombie,
            "interval": self.interval,
            "adversary_switches": self.adversary_switches,
            "staged_injection": self.staged,
        })
    }
}

/// Stride of the simulator workloads' loops: half the service's, so a
/// pass yields about 50 online identify samples.
pub const SIM_STRIDE: u64 = 2048;
/// Background horizon of one `serve-durable` tenant, in cycles.
pub const SERVE_HORIZON: u64 = 80_000;
/// Tenants in `serve-durable`.
pub const SERVE_TENANTS: usize = 4;

/// The framing adversary drawn for a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adversary {
    /// Compromised switches, ascending.
    pub switches: Vec<u32>,
    /// The innocent node the forged marks implicate.
    pub framed: u32,
    /// The adversary's own RNG seed.
    pub seed: u64,
}

/// One generated scenario and the ground truth it was drawn from.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scenario JSON handed to the program.
    pub text: String,
    /// Nodes in the cluster.
    pub nodes: u32,
    /// The flooded node.
    pub victim: u32,
    /// The true attack sources, ascending.
    pub zombies: Vec<u32>,
    /// The framing adversary, if the shape has one.
    pub adversary: Option<Adversary>,
}

/// SplitMix64: a tiny, fixed PRNG for input generation.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    /// A node in `0..n` that is not in `taken`; `taken` must leave room.
    pub fn fresh_node(&mut self, n: u32, taken: &[u32]) -> u32 {
        loop {
            let x = self.below(n);
            if !taken.contains(&x) {
                return x;
            }
        }
    }
}

/// Positions along one torus ring of radix `k` that lie on a shortest
/// way from `a` to `b` (both ways round on a tie).
fn ring_span(a: u32, b: u32, k: u32) -> Vec<u32> {
    let (fwd, back) = ((b + k - a) % k, (a + k - b) % k);
    let mut out = Vec::new();
    if fwd <= back {
        out.extend((0..=fwd).map(|i| (a + i) % k));
    }
    if back <= fwd {
        out.extend((0..=back).map(|i| (a + k - i) % k));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Nodes on some minimal path from `src` to `dst` on a 2-D torus.
#[must_use]
pub fn minimal_box(src: u32, dst: u32, dims: [u16; 2]) -> Vec<u32> {
    let k0 = u32::from(dims[0]);
    let k1 = u32::from(dims[1]);
    let xs = ring_span(src % k0, dst % k0, k0);
    let ys = ring_span(src / k0, dst / k0, k1);
    ys.iter()
        .flat_map(|y| xs.iter().map(move |x| x + k0 * y))
        .collect()
}

/// Draws one scenario of `shape` from `rng`.
///
/// The adversary's switches sit off every zombie's minimal paths to the
/// victim: a compromised switch that every attack packet of a zombie
/// must cross would have all that zombie's marks rejected fail-closed,
/// and the victim could then not convict it — a correct outcome, but
/// not the one the benchmark checks for. Draws that leave no room for
/// the switches are redrawn.
fn draw(shape: &FloodShape, rng: &mut SplitMix64) -> Scenario {
    let n = shape.nodes();
    let (victim, zombies, free) = loop {
        let victim = rng.below(n);
        let mut taken = vec![victim];
        for _ in 0..shape.zombies {
            let z = rng.fresh_node(n, &taken);
            taken.push(z);
        }
        let mut zombies = taken[1..].to_vec();
        zombies.sort_unstable();
        if shape.adversary_switches == 0 {
            break (victim, zombies, Vec::new());
        }
        for &z in &zombies {
            taken.extend(minimal_box(z, victim, shape.dims));
        }
        let free: Vec<u32> = (0..n).filter(|x| !taken.contains(x)).collect();
        if free.len() >= shape.adversary_switches {
            break (victim, zombies, free);
        }
    };
    let adversary = (shape.adversary_switches > 0).then(|| {
        let mut free = free;
        let mut switches: Vec<u32> = (0..shape.adversary_switches)
            .map(|_| free.swap_remove(rng.below(free.len() as u32) as usize))
            .collect();
        switches.sort_unstable();
        let mut taken = zombies.clone();
        taken.push(victim);
        taken.extend(&switches);
        let framed = rng.fresh_node(n, &taken);
        Adversary {
            switches,
            framed,
            seed: rng.next_u64() >> 16,
        }
    });
    let scenario_seed = rng.next_u64() >> 16;

    let mut v = json!({
        "topology": {"kind": "torus", "dims": [shape.dims[0], shape.dims[1]]},
        "router": shape.router,
        "scheme": shape.scheme,
    });
    let obj = match &mut v {
        Value::Object(m) => m,
        _ => unreachable!("json! object literal"),
    };
    if let Some(t) = shape.tag_bits {
        obj.insert("tag_bits".into(), json!(t));
    }
    obj.insert("seed".into(), json!(scenario_seed));
    obj.insert(
        "background_interval".into(),
        json!(shape.background_interval),
    );
    obj.insert("horizon".into(), json!(shape.horizon));
    if shape.staged {
        obj.insert("staged_injection".into(), json!(true));
    }
    if let Some(a) = &adversary {
        obj.insert(
            "adversary".into(),
            json!({
                "switches": a.switches.clone(),
                "behavior": "frame",
                "framed": a.framed,
                "seed": a.seed,
            }),
        );
    }
    obj.insert(
        "attack".into(),
        json!({
            "kind": "udp_flood",
            "zombies": zombies.clone(),
            "victim": victim,
            "packets_per_zombie": shape.packets_per_zombie,
            "interval": shape.interval,
        }),
    );
    Scenario {
        text: v.to_string(),
        nodes: n,
        victim,
        zombies,
        adversary,
    }
}

/// The scenarios of workload `w` at `seed`: one for the simulator
/// workloads, one per tenant for `serve-durable`.
#[must_use]
pub fn scenarios(w: Workload, seed: u64, quick: bool) -> Vec<Scenario> {
    let shape = FloodShape::of(w, quick);
    let mut rng = SplitMix64::new(seed ^ w.salt());
    let count = match w {
        Workload::ServeDurable => SERVE_TENANTS,
        _ => 1,
    };
    (0..count).map(|_| draw(&shape, &mut rng)).collect()
}
