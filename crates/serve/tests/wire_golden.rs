//! Golden wire-protocol lines.
//!
//! Pins the exact NDJSON bytes of a scripted session over real TCP:
//! response key order, error phrasing, and the deterministic payload
//! values for a fixed scenario. Any drift in the protocol (or in the
//! simulation's determinism) shows up as a byte diff here.

use ddpm_serve::server::MAX_REQUEST_LINE;
use ddpm_serve::{ServeClient, Server, ServerConfig};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A fixed, fast scenario: hypercube n=4, ddpm, seed 5.
const SCENARIO: &str = r#"{"topology": {"kind": "hypercube", "n": 4},
    "router": "fully_adaptive", "scheme": "ddpm", "seed": 5,
    "background_interval": 32, "horizon": 800,
    "attack": {"kind": "udp_flood", "zombies": [2, 7], "victim": 12,
               "packets_per_zombie": 80, "interval": 8}}"#;

struct LiveServer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let server = Server::new(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            });
            server
                .serve(&listener, &|| stop2.load(Ordering::SeqCst))
                .expect("serve");
            server.drain().expect("drain");
        });
        Self {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// Sends one raw request line, returns the raw response line.
fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut resp = String::new();
    assert!(
        reader.read_line(&mut resp).expect("recv") > 0,
        "server closed the connection after {line:?}"
    );
    resp.trim_end().to_owned()
}

#[test]
fn scripted_session_produces_the_pinned_lines() {
    let live = LiveServer::start();
    let stream = TcpStream::connect(&live.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut rt = |line: &str| roundtrip(&mut reader, &mut writer, line);

    // Create (autorun off so every later value is a pure function of
    // the scenario and the scripted strides).
    let scenario_compact: String = SCENARIO.split_whitespace().collect::<Vec<_>>().join(" ");
    let create = rt(&format!(
        r#"{{"id":1,"verb":"tenant.create","name":"g","autorun":false,"scenario":{scenario_compact}}}"#
    ));
    assert_eq!(
        create,
        r#"{"id":1,"ok":true,"tenant":"g","nodes":16,"autorun":false}"#
    );

    // Outcome before done: a pinned error, not a panic or a hang.
    assert_eq!(
        rt(r#"{"id":2,"verb":"tenant.outcome","tenant":"g"}"#),
        r#"{"id":2,"ok":false,"error":"tenant `g` is still running (cycle 0); outcome is available once done"}"#
    );

    // One bounded stride; the landing cycle is deterministic.
    let step = rt(r#"{"id":3,"verb":"tenant.step","tenant":"g","cycles":500}"#);
    assert_eq!(step, r#"{"id":3,"ok":true,"cycle":499,"done":false}"#);

    // Live counters, mid-flight, pinned to the byte.
    let stats = rt(r#"{"id":4,"verb":"tenant.stats","tenant":"g"}"#);
    assert_eq!(
        stats,
        r#"{"id":4,"ok":true,"cycle":499,"done":false,"autorun":false,"live":12,"benign":{"injected":246,"delivered":239},"attack":{"injected":126,"delivered":121,"dropped":0},"injected_extra":0}"#
    );

    // Online attribution mid-flight, pinned to the byte.
    let identify = rt(r#"{"id":5,"verb":"tenant.identify","tenant":"g"}"#);
    assert_eq!(
        identify,
        r#"{"id":5,"ok":true,"scheme":"ddpm","cycle":499,"victim":12,"observed":121,"rejected":0,"candidates":[2,7],"confidence":1.0}"#
    );

    // Census: id omitted by the client → echoed as null.
    let info = rt(r#"{"verb":"server.info"}"#);
    assert_eq!(
        info,
        r#"{"id":null,"ok":true,"tenants":[{"name":"g","cycle":499,"done":false,"autorun":false}],"workers":1,"stride":4096,"draining":false}"#
    );

    // Strict grammar: unknown verbs and malformed JSON answer in-band.
    assert_eq!(
        rt(r#"{"id":6,"verb":"tenant.freeze","tenant":"g"}"#),
        r#"{"id":6,"ok":false,"error":"unknown verb `tenant.freeze` (accepted: tenant.create, tenant.inject, tenant.step, tenant.identify, tenant.stats, tenant.snapshot, tenant.subscribe, tenant.outcome, tenant.destroy, server.info, server.drain)"}"#
    );
    let malformed = rt("not json at all");
    assert!(
        malformed.starts_with(r#"{"id":null,"ok":false,"error":"malformed request JSON:"#),
        "unexpected malformed-JSON response: {malformed}"
    );

    // Snapshot without any checkpoint directory: a pinned, helpful error.
    assert_eq!(
        rt(r#"{"id":7,"verb":"tenant.snapshot","tenant":"g"}"#),
        r#"{"id":7,"ok":false,"error":"tenant has no checkpoint directory (start the server with a checkpoint root, or put a `checkpoint` block in the scenario)"}"#
    );

    // Destroy, then the tenant is gone.
    assert_eq!(
        rt(r#"{"id":8,"verb":"tenant.destroy","tenant":"g"}"#),
        r#"{"id":8,"ok":true,"destroyed":"g"}"#
    );
    assert_eq!(
        rt(r#"{"id":9,"verb":"tenant.stats","tenant":"g"}"#),
        r#"{"id":9,"ok":false,"error":"no such tenant `g`"}"#
    );
    drop(live);
}

/// A request line over the cap gets a pinned error, then the server
/// closes that connection; the server itself keeps serving.
#[test]
fn oversized_request_line_is_refused_and_closes_the_connection() {
    let live = LiveServer::start();
    let stream = TcpStream::connect(&live.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // One byte over the cap and no newline: the server must stop
    // reading there instead of buffering until a newline arrives.
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send oversized line");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    assert_eq!(
        resp,
        "{\"id\":null,\"ok\":false,\"error\":\"request line exceeds 1048576 bytes; \
         closing the connection\"}\n"
    );
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).expect("read to EOF"),
        0,
        "connection must close after the refusal"
    );

    // A line exactly at the cap is read whole and answered in-band.
    let stream = TcpStream::connect(&live.addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut at_cap = vec![b' '; MAX_REQUEST_LINE];
    at_cap[..2].copy_from_slice(b"{}");
    at_cap.push(b'\n');
    writer.write_all(&at_cap).expect("send line at the cap");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    assert!(
        resp.starts_with(r#"{"id":null,"ok":false,"error":"#),
        "unexpected response to a line at the cap: {resp}"
    );
    // Bytes that are not UTF-8 get an in-band error; the connection stays.
    writer.write_all(b"\xff\xfe\n").expect("send non-UTF-8 line");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    assert_eq!(
        resp,
        "{\"id\":null,\"ok\":false,\"error\":\"request line is not valid UTF-8\"}\n"
    );
    assert_eq!(
        roundtrip(&mut reader, &mut writer, r#"{"id":1,"verb":"server.info"}"#),
        r#"{"id":1,"ok":true,"tenants":[],"workers":1,"stride":4096,"draining":false}"#
    );
    drop(live);
}

/// Request and response lines each leave in one segment on a
/// `TCP_NODELAY` socket, so an idle round trip costs microseconds. A
/// line written as body then newline on a Nagle socket waits for the
/// peer's delayed ACK instead: about 40-80 ms per round trip.
#[test]
fn idle_round_trip_is_not_held_back_by_nagle() {
    let live = LiveServer::start();
    let mut client = ServeClient::connect(&live.addr).expect("connect");
    let scenario: Value = serde_json::from_str(SCENARIO).expect("scenario JSON");
    client
        .call(
            "tenant.create",
            &json!({"name": "idle", "autorun": false, "scenario": scenario}),
        )
        .expect("create");
    let mut rtts: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let t = std::time::Instant::now();
            client.tenant_call("tenant.stats", "idle").expect("stats");
            t.elapsed()
        })
        .collect();
    rtts.sort_unstable();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median tenant.stats round trip {median:?} (sorted: {rtts:?})"
    );
    drop(client);
    drop(live);
}

/// The subscribe line of `subscribe_lines_are_pinned`, one event per
/// source line.
const PINNED_SUBSCRIBE: &str = concat!(
    r#"{"id":"sub-1","ok":true,"events":[{"cycle":0,"event":"inject","pkt":0,"node":0},"#,
    r#"{"cycle":0,"event":"mark","pkt":0,"node":0,"mf":9280,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":0,"event":"mark","pkt":0,"node":0,"mf":3848,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":0,"event":"forward","pkt":0,"node":0,"next":3},"#,
    r#"{"cycle":4,"event":"inject","pkt":1,"node":0},"#,
    r#"{"cycle":4,"event":"mark","pkt":1,"node":0,"mf":10112,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":4,"event":"mark","pkt":1,"node":0,"mf":13256,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":4,"event":"forward","pkt":1,"node":0,"next":3},"#,
    r#"{"cycle":6,"event":"mark","pkt":0,"node":3,"mf":8848,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":6,"event":"forward","pkt":0,"node":3,"next":6},"#,
    r#"{"cycle":10,"event":"mark","pkt":1,"node":3,"mf":13840,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":10,"event":"forward","pkt":1,"node":3,"next":6},"#,
    r#"{"cycle":12,"event":"mark","pkt":0,"node":6,"mf":8977,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":12,"event":"forward","pkt":0,"node":6,"next":7},"#,
    r#"{"cycle":16,"event":"mark","pkt":1,"node":6,"mf":13329,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":16,"event":"forward","pkt":1,"node":6,"next":7},"#,
    r#"{"cycle":18,"event":"mark","pkt":0,"node":7,"mf":2578,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":18,"event":"forward","pkt":0,"node":7,"next":8},"#,
    r#"{"cycle":22,"event":"mark","pkt":1,"node":7,"mf":15186,"scheme":"auth-ddpm"},"#,
    r#"{"cycle":22,"event":"forward","pkt":1,"node":7,"next":8},"#,
    r#"{"cycle":24,"event":"deliver","pkt":0,"node":8,"mf":2578,"latency":24,"hops":4},"#,
    r#"{"cycle":28,"event":"deliver","pkt":1,"node":8,"mf":15186,"latency":24,"hops":4}],"dropped":0}"#,
);

/// `tenant.subscribe` writes each drained event's NDJSON line straight
/// into the response. The pinned lines were rendered by the previous
/// path, which parsed every event line back into JSON and serialised
/// the response object: the bytes must not move. Drained backlogs come
/// out whole, then empty.
#[test]
fn subscribe_lines_are_pinned() {
    let live = LiveServer::start();
    let stream = TcpStream::connect(&live.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut rt = |line: &str| roundtrip(&mut reader, &mut writer, line);
    let create = rt(concat!(
        r#"{"id":1,"verb":"tenant.create","name":"t","autorun":false,"telemetry":true,"#,
        r#""scenario":{"topology":{"kind":"mesh","dims":[3,3]},"router":"dimension_order","#,
        r#""scheme":"auth-ddpm","tag_bits":8,"seed":9,"background_interval":0,"#,
        r#""attack":{"kind":"udp_flood","zombies":[0],"victim":8,"#,
        r#""packets_per_zombie":2,"interval":4}}}"#,
    ));
    assert_eq!(
        create,
        r#"{"id":1,"ok":true,"tenant":"t","nodes":9,"autorun":false}"#
    );
    rt(r#"{"id":2,"verb":"tenant.step","tenant":"t","cycles":100}"#);
    let events = rt(r#"{"id":"sub-1","verb":"tenant.subscribe","tenant":"t"}"#);
    assert_eq!(events, PINNED_SUBSCRIBE);
    assert_eq!(
        rt(r#"{"id":[3],"verb":"tenant.subscribe","tenant":"t"}"#),
        r#"{"id":[3],"ok":true,"events":[],"dropped":0}"#
    );
}

/// A turn-model router on a fabric it is not defined on is refused at
/// `tenant.create` with a pinned error, and no tenant is made.
#[test]
fn turn_model_off_its_fabric_is_refused_at_create() {
    let live = LiveServer::start();
    let stream = TcpStream::connect(&live.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut rt = |line: &str| roundtrip(&mut reader, &mut writer, line);
    for (id, router, domain) in [
        (1, "west_first", "2-D meshes"),
        (2, "north_last", "2-D meshes"),
        (3, "negative_first", "meshes"),
    ] {
        let create = rt(&format!(
            r#"{{"id":{id},"verb":"tenant.create","name":"{router}","autorun":false,"scenario":{{"topology":{{"kind":"torus","dims":[4,4]}},"router":"{router}","scheme":"ddpm"}}}}"#
        ));
        let shown = router.replace('_', "-");
        assert_eq!(
            create,
            format!(
                r#"{{"id":{id},"ok":false,"error":"router: {shown} routing is defined on {domain}, not on a 4x4 torus"}}"#
            )
        );
        assert_eq!(
            rt(&format!(
                r#"{{"id":9,"verb":"tenant.stats","tenant":"{router}"}}"#
            )),
            format!(r#"{{"id":9,"ok":false,"error":"no such tenant `{router}`"}}"#)
        );
    }
}
