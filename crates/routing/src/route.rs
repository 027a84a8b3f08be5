//! The unified routing interface.

use crate::state::RouteState;
use crate::{adaptive, dor, turn_model};
use ddpm_topology::{Coord, Direction, FaultSet, Topology};
use std::fmt;

/// Immutable routing context: the network and its failed links.
#[derive(Clone, Copy)]
pub struct RouteCtx<'a> {
    /// The network.
    pub topo: &'a Topology,
    /// Its failed links.
    pub faults: &'a FaultSet,
}

impl<'a> RouteCtx<'a> {
    /// Builds a context.
    #[must_use]
    pub fn new(topo: &'a Topology, faults: &'a FaultSet) -> Self {
        Self { topo, faults }
    }

    /// True if the hop `cur → next` strictly reduces the remaining
    /// minimal distance to `dst` — the definition of a productive hop.
    /// The routers judge a port by the one dimension it changes instead
    /// ([`Topology::hop_is_productive`]), which agrees with this on
    /// every neighbour.
    #[must_use]
    pub fn is_productive(&self, cur: &Coord, next: &Coord, dst: &Coord) -> bool {
        self.topo.min_hops(next, dst) < self.topo.min_hops(cur, dst)
    }

    /// Live (non-faulty) neighbours of `cur`.
    #[must_use]
    pub fn live_neighbors(&self, cur: &Coord) -> Vec<(Direction, Coord)> {
        let mut out = Vec::with_capacity(self.topo.degree());
        self.for_each_live_neighbor(cur, |dir, nb| out.push((dir, nb)));
        out
    }

    /// Streams the live neighbours of `cur` in the same order as
    /// [`RouteCtx::live_neighbors`], without allocating — the per-hop
    /// form used by the simulator's forwarding path.
    pub fn for_each_live_neighbor<F: FnMut(Direction, Coord)>(&self, cur: &Coord, mut f: F) {
        self.topo.for_each_neighbor(cur, |dir, nb| {
            if !self.faults.is_faulty(self.topo, cur, &nb) {
                f(dir, nb);
            }
        });
    }
}

/// One admissible next hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The neighbouring node to forward to.
    pub next: Coord,
    /// The output direction used.
    pub dir: Direction,
    /// True if this hop reduces the remaining distance (minimal hop).
    pub productive: bool,
}

/// Routing adaptivity class (§3: "Depending on the adaptivity, an
/// algorithm is called partially or fully adaptive").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Adaptivity {
    /// One fixed path per (src, dst) pair.
    Deterministic,
    /// Some run-time choice, constrained by turn rules.
    PartiallyAdaptive,
    /// Unconstrained run-time choice (within the misroute budget).
    FullyAdaptive,
}

/// Errors surfaced while routing a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// No admissible output port: the algorithm is blocked (Fig. 2 shows
    /// XY and west-first blocking under faults).
    Blocked {
        /// Where the packet got stuck.
        at: Coord,
    },
    /// The hop budget ran out before delivery (livelock guard).
    HopBudgetExhausted {
        /// Where the packet was when the budget ran out.
        at: Coord,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Blocked { at } => write!(f, "routing blocked at {at}"),
            RouteError::HopBudgetExhausted { at } => {
                write!(f, "hop budget exhausted at {at}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A routing algorithm. `Copy`, cheaply cloned into simulator configs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Router {
    /// Dimension-order (XY on 2-D mesh, e-cube on hypercube): the
    /// deterministic baseline of Fig. 2(a).
    DimensionOrder,
    /// West-first turn-model routing (2-D mesh only): the partially
    /// adaptive algorithm of Fig. 2(b).
    WestFirst,
    /// North-last turn-model routing (2-D mesh only).
    NorthLast,
    /// Negative-first turn-model routing (n-dimensional mesh).
    NegativeFirst,
    /// Fully adaptive *minimal* routing: any productive direction.
    MinimalAdaptive,
    /// Fully adaptive routing with non-minimal hops, bounded by a
    /// per-packet misroute budget for livelock avoidance (Fig. 2(c)).
    FullyAdaptive {
        /// Maximum non-productive hops one packet may take.
        misroute_budget: u32,
    },
}

impl Router {
    /// A fully adaptive router with the default budget used in the
    /// experiments: one network diameter's worth of misrouting.
    #[must_use]
    pub fn fully_adaptive_for(topo: &Topology) -> Self {
        Router::FullyAdaptive {
            misroute_budget: topo.diameter().max(4),
        }
    }

    /// Human-readable name used in experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Router::DimensionOrder => "dimension-order",
            Router::WestFirst => "west-first",
            Router::NorthLast => "north-last",
            Router::NegativeFirst => "negative-first",
            Router::MinimalAdaptive => "minimal-adaptive",
            Router::FullyAdaptive { .. } => "fully-adaptive",
        }
    }

    /// Adaptivity class of the algorithm.
    #[must_use]
    pub fn adaptivity(&self) -> Adaptivity {
        match self {
            Router::DimensionOrder => Adaptivity::Deterministic,
            Router::WestFirst | Router::NorthLast | Router::NegativeFirst => {
                Adaptivity::PartiallyAdaptive
            }
            Router::MinimalAdaptive | Router::FullyAdaptive { .. } => Adaptivity::FullyAdaptive,
        }
    }

    /// True if every (src, dst) pair has exactly one path.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.adaptivity() == Adaptivity::Deterministic
    }

    /// The misroute budget granted to each packet.
    #[must_use]
    pub fn misroute_budget(&self) -> u32 {
        match self {
            Router::FullyAdaptive { misroute_budget } => *misroute_budget,
            _ => 0,
        }
    }

    /// Admissible next hops from `cur` toward `dst`.
    ///
    /// Faulty links are already filtered out. Productive candidates come
    /// first. An empty result means the packet is blocked here.
    #[must_use]
    pub fn candidates(
        &self,
        ctx: &RouteCtx<'_>,
        cur: &Coord,
        dst: &Coord,
        state: &RouteState,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.candidates_into(ctx, cur, dst, state, &mut out);
        out
    }

    /// Allocation-free form of [`Router::candidates`]: clears `out` and
    /// fills it with the admissible next hops, in the same order.
    ///
    /// The simulator's forwarding path reuses one buffer across events,
    /// so steady-state routing never touches the allocator.
    pub fn candidates_into(
        &self,
        ctx: &RouteCtx<'_>,
        cur: &Coord,
        dst: &Coord,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    ) {
        debug_assert!(ctx.topo.contains(cur) && ctx.topo.contains(dst));
        out.clear();
        if cur == dst {
            return;
        }
        match self {
            Router::DimensionOrder => dor::candidates_into(ctx, cur, dst, out),
            Router::WestFirst => turn_model::west_first_into(ctx, cur, dst, state, out),
            Router::NorthLast => turn_model::north_last_into(ctx, cur, dst, state, out),
            Router::NegativeFirst => turn_model::negative_first_into(ctx, cur, dst, state, out),
            Router::MinimalAdaptive => adaptive::minimal_into(ctx, cur, dst, out),
            Router::FullyAdaptive { .. } => adaptive::fully_into(ctx, cur, dst, state, out),
        }
    }

    /// All routers applicable to `topo`, for experiment sweeps.
    #[must_use]
    pub fn all_for(topo: &Topology) -> Vec<Router> {
        let mut out = vec![Router::DimensionOrder];
        if matches!(topo.kind(), ddpm_topology::TopologyKind::Mesh) {
            if topo.ndims() == 2 {
                out.push(Router::WestFirst);
                out.push(Router::NorthLast);
            }
            out.push(Router::NegativeFirst);
        }
        out.push(Router::MinimalAdaptive);
        out.push(Router::fully_adaptive_for(topo));
        out
    }
}

impl fmt::Display for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
