//! E-OVERHEAD (part 1) — per-hop switch marking cost.
//!
//! §6.2: "In our approach, a switch performs only simple functions such
//! as addition, subtraction, and XOR, so we expect they would not affect
//! overall performance." This bench measures the per-hop `on_forward`
//! cost of every scheme (plus the checksum refresh a real switch would
//! do after a header rewrite), so the claim is a number, not a hope.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddpm_core::{
    AmsScheme, Authenticated, BitDiffPpm, DdpmScheme, DpmScheme, EdgePpm, FmsScheme, XorPpm,
};
use ddpm_net::ipv4::DEFAULT_TTL;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_sim::{MarkEnv, Marker, NoMarking};
use ddpm_topology::{NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mk_packet(topo: &Topology) -> Packet {
    let map = AddrMap::for_topology(topo);
    Packet {
        id: PacketId(0),
        header: Ipv4Header::new(
            map.ip_of(NodeId(0)),
            map.ip_of(NodeId(5)),
            Protocol::Udp,
            64,
        ),
        l4: L4::udp(1, 2),
        true_source: NodeId(0),
        dest_node: NodeId(5),
        class: TrafficClass::Attack,
    }
}

fn bench_scheme(c: &mut Criterion, name: &str, topo: &Topology, marker: &dyn Marker) {
    let env = MarkEnv { topo };
    let mut pkt = mk_packet(topo);
    let cur = topo.coord(NodeId(0));
    let (_, next) = topo.neighbors(&cur)[0];
    let mut rng = SmallRng::seed_from_u64(1);
    marker.on_inject(&mut pkt, &cur, &env);
    // Oscillate the hop (cur→next, next→cur, …) so accumulated distance
    // vectors stay bounded however many iterations Criterion runs — a
    // packet ping-ponging one link is a legal walk for every scheme.
    // As in the simulator, every switch after the source decrements TTL
    // on arrival before it marks, so a keyed tag is checked against the
    // previous switch's TTL. When TTL runs out the packet is injected
    // afresh (once per `DEFAULT_TTL - 1` hops).
    let mut flip = false;
    c.bench_function(format!("mark/on_forward/{name}"), |b| {
        b.iter(|| {
            let (a, z) = if flip { (&next, &cur) } else { (&cur, &next) };
            flip = !flip;
            if !pkt.header.decrement_ttl() {
                pkt.header.ttl = DEFAULT_TTL;
                marker.on_inject(&mut pkt, a, &env);
            }
            marker.on_forward(black_box(&mut pkt), a, z, &env, &mut rng);
        });
    });
}

fn marking_benches(c: &mut Criterion) {
    let mesh = Topology::mesh2d(8);
    let torus = Topology::torus(&[8, 8]);
    let cube = Topology::hypercube(8);

    bench_scheme(c, "none", &mesh, &NoMarking);
    let ddpm_mesh = DdpmScheme::new(&mesh).unwrap();
    bench_scheme(c, "ddpm-mesh8x8", &mesh, &ddpm_mesh);
    let ddpm_torus = DdpmScheme::new(&torus).unwrap();
    bench_scheme(c, "ddpm-torus8x8", &torus, &ddpm_torus);
    let ddpm_cube = DdpmScheme::new(&cube).unwrap();
    bench_scheme(c, "ddpm-8cube", &cube, &ddpm_cube);
    bench_scheme(c, "dpm", &mesh, &DpmScheme::new());
    let small = Topology::mesh2d(5);
    let edge = EdgePpm::new(&small, 0.04).unwrap();
    bench_scheme(c, "ppm-edge-mesh5x5", &small, &edge);
    let xor = XorPpm::new(&mesh, 0.04).unwrap();
    bench_scheme(c, "ppm-xor-mesh8x8", &mesh, &xor);
    let bitdiff = BitDiffPpm::new(&mesh, 0.04).unwrap();
    bench_scheme(c, "ppm-bitdiff-mesh8x8", &mesh, &bitdiff);
    bench_scheme(c, "ppm-fms-mesh8x8", &mesh, &FmsScheme::new(0.04));
    bench_scheme(c, "ppm-ams-mesh8x8", &mesh, &AmsScheme::new(0.04));
    let auth =
        Authenticated::new(DdpmScheme::new(&mesh).unwrap(), "auth-ddpm", 0xA117, 8).unwrap();
    bench_scheme(c, "auth-ddpm-mesh8x8", &mesh, &auth);
    let auth_torus =
        Authenticated::new(DdpmScheme::new(&torus).unwrap(), "auth-ddpm", 0xA117, 8).unwrap();
    bench_scheme(c, "auth-ddpm-torus8x8", &torus, &auth_torus);

    // The header-rewrite tax every marking switch pays on real IP
    // hardware: recomputing the checksum after touching the MF.
    let mut pkt = mk_packet(&mesh);
    c.bench_function("mark/checksum-refresh", |b| {
        b.iter(|| {
            pkt.header.identification =
                ddpm_net::MarkingField::new(pkt.header.identification.raw().wrapping_add(1));
            black_box(pkt.header.checksum())
        });
    });

    // Victim-side single-packet identification (DDPM's whole traceback).
    let dest = mesh.coord(NodeId(5));
    let v = mesh.expected_distance(&mesh.coord(NodeId(0)), &dest);
    let mf = ddpm_mesh.codec().encode(&v).unwrap();
    c.bench_function("identify/ddpm-single-packet", |b| {
        b.iter(|| black_box(ddpm_mesh.identify(&mesh, &dest, mf)));
    });
}

criterion_group!(benches, marking_benches);
criterion_main!(benches);
