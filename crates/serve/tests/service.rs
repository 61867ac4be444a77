//! Service-lifecycle tests: graceful shutdown drains in-flight requests,
//! saturation sheds load with `Busy` and recovers, malformed frames and
//! frames of retired protocol revisions are answered (not crashed on), and
//! the final metrics snapshot is valid.

use jem_core::{make_segments, CodeFilter, JemMapper, MapperConfig, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{
    read_frame, start_router, write_frame, Client, Envelope, Request, Response, RouterConfig,
    ServeError, ServerConfig, ShardRegistry, MAGIC,
};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, ContigProfile, Genome, HifiProfile,
};
use std::io::{Read, Write};
use std::time::Duration;

fn world() -> (JemMapper, Vec<QuerySegment>) {
    let genome = Genome::random(30_000, 0.5, 21);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 22);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 1.0,
            ..Default::default()
        },
        23,
    );
    let config = MapperConfig {
        ell: 400,
        trials: 8,
        ..MapperConfig::default()
    };
    let mapper = JemMapper::build(&contig_records(&contigs), &config);
    let read_recs: Vec<SeqRecord> = reads
        .iter()
        .map(|r| SeqRecord::new(r.id.clone(), r.seq.clone()))
        .collect();
    let segments = make_segments(&read_recs, config.ell);
    (mapper, segments)
}

fn start(mapper: JemMapper, config: &ServerConfig) -> jem_serve::ServerHandle {
    jem_serve::start(mapper, CodeFilter::slots(2, 0..2), "127.0.0.1:0", config).unwrap()
}

#[test]
fn ping_and_remote_shutdown() {
    let (mapper, _) = world();
    let handle = start(mapper, &ServerConfig::default());
    let client = Client::new(handle.addr().to_string());
    client.ping().unwrap();
    client.shutdown_server().unwrap();
    let snapshot = handle.join();
    assert_eq!(snapshot.counter("serve.shutdown_requests"), 1);
    // The listener is gone: a fresh ping cannot reach the server anymore.
    let late = Client::new(client.addr().to_string())
        .with_timeout(Duration::from_millis(300))
        .ping();
    assert!(late.is_err(), "server must be unreachable after shutdown");
}

#[test]
fn graceful_shutdown_answers_every_admitted_request() {
    let (mapper, segments) = world();
    assert!(segments.len() >= 4, "need enough segments to queue");
    let expected = {
        let mut m = mapper.map_segments(&segments[..1]);
        m.sort_unstable();
        m
    };
    // One deliberately slow worker so requests pile up in the queue and
    // are still in flight when shutdown lands.
    let handle = start(
        mapper,
        &ServerConfig {
            workers: 1,
            queue_cap: 32,
            batch: 1,
            straggle_ms: 40,
            ..Default::default()
        },
    );
    let addr = handle.addr().to_string();
    const N: usize = 6;
    let clients: Vec<_> = (0..N)
        .map(|_| {
            let addr = addr.clone();
            let seg = segments[..1].to_vec();
            std::thread::spawn(move || Client::new(addr).map_segments(&seg))
        })
        .collect();
    // Admission is observable: every successful enqueue samples the
    // queue-depth histogram, so wait until all N map requests are in.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let depth_samples = handle
            .recorder()
            .snapshot()
            .histograms
            .get("serve.queue_depth")
            .map_or(0, |h| h.count);
        if depth_samples >= N as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "requests never reached the queue"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let snapshot = handle.shutdown();
    // Every admitted request was drained and answered with real mappings —
    // none dropped, none refused.
    for c in clients {
        let got = c.join().unwrap().expect("admitted request must complete");
        assert_eq!(got, expected);
    }
    assert_eq!(snapshot.counter("serve.requests"), N as u64);
    assert_eq!(snapshot.counter("serve.busy"), 0);
    // The shutdown snapshot is a valid, self-consistent jem-obs snapshot.
    assert!(snapshot.to_json().starts_with('{'));
    assert_eq!(
        snapshot.histograms["serve.queue_depth"].count,
        snapshot.counter("serve.requests"),
        "one depth sample per admitted request"
    );
    assert_eq!(snapshot.spans["serve/request"].count, N as u64);
    assert!(snapshot.counter("serve.collisions_probed") > 0);
}

#[test]
fn saturation_sheds_load_with_busy_and_recovers() {
    let (mapper, segments) = world();
    // Tiny queue + one straggling worker: concurrent requests must
    // overflow the queue and be refused with `Busy`, not buffered.
    let handle = start(
        mapper,
        &ServerConfig {
            workers: 1,
            queue_cap: 1,
            batch: 1,
            straggle_ms: 120,
            ..Default::default()
        },
    );
    let addr = handle.addr().to_string();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let seg = segments[..1].to_vec();
            // No retry: a Busy reply must surface as ServeError::Busy.
            std::thread::spawn(move || Client::new(addr).map_segments(&seg))
        })
        .collect();
    let mut ok = 0usize;
    let mut busy = 0usize;
    for c in clients {
        match c.join().unwrap() {
            Ok(mappings) => {
                assert!(!mappings.is_empty());
                ok += 1;
            }
            Err(ServeError::Busy) => busy += 1,
            Err(other) => panic!("unexpected failure under saturation: {other}"),
        }
    }
    assert!(busy >= 1, "a full queue must refuse at least one request");
    assert!(ok >= 1, "admitted requests still complete");
    // The server remains fully responsive after shedding load.
    let client = Client::new(addr);
    client.ping().unwrap();
    let after = client
        .map_segments_retry(&segments[..1], 20, Duration::from_millis(50))
        .unwrap();
    assert!(!after.is_empty());
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.busy"), busy as u64);
    assert_eq!(snapshot.counter("serve.requests"), ok as u64 + 1);
}

#[test]
fn malformed_frames_get_an_error_reply_and_the_server_lives() {
    let (mapper, _) = world();
    let handle = start(mapper, &ServerConfig::default());
    let addr = handle.addr();

    // Not even a frame: HTTP-ish garbage.
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply).unwrap();
    assert_eq!(&reply[..8], MAGIC, "the error reply is itself a frame");

    // A well-formed frame whose body is not a valid request.
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut bad = Request::Ping.encode(&Envelope::default());
    let tag = bad.len() - 8;
    bad[tag..].copy_from_slice(&999u64.to_le_bytes());
    write_frame(&mut conn, &bad).unwrap();
    let body = read_frame(&mut conn).unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error(msg) => assert!(msg.contains("unknown request tag"), "got: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // A frame with a corrupted checksum.
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::Ping.encode(&Envelope::default())).unwrap();
    let last = wire.len() - 1;
    wire[last] ^= 0xFF;
    conn.write_all(&wire).unwrap();
    let body = read_frame(&mut conn).unwrap();
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Error(_)
    ));

    // After all that abuse the server still answers cleanly.
    let client = Client::new(addr.to_string());
    client.ping().unwrap();
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.protocol_errors"), 3);
}

#[test]
fn panicking_worker_is_respawned_and_pool_serves_on() {
    let (mapper, segments) = world();
    let expected = {
        let mut m = mapper.map_segments(&segments[..1]);
        m.sort_unstable();
        m
    };
    // One worker, one job per pass, and a panic injected on every second
    // index pass: request 2 must fail with a typed error (not a hang), and
    // request 3 proves the supervisor respawned the worker.
    let handle = start(
        mapper,
        &ServerConfig {
            workers: 1,
            batch: 1,
            panic_every: 2,
            ..Default::default()
        },
    );
    let client = Client::new(handle.addr().to_string());
    assert_eq!(client.map_segments(&segments[..1]).unwrap(), expected);
    match client.map_segments(&segments[..1]) {
        Err(ServeError::Remote(msg)) => {
            assert!(msg.contains("panicked"), "got: {msg}")
        }
        other => panic!("expected a typed panic reply, got {other:?}"),
    }
    assert_eq!(
        client.map_segments(&segments[..1]).unwrap(),
        expected,
        "the respawned worker must serve the next batch"
    );
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.worker_panic"), 1);
    assert_eq!(snapshot.counter("serve.worker_respawns"), 1);
    assert_eq!(snapshot.counter("serve.panic_failed_requests"), 1);
    // Pool capacity was restored: every configured worker slot drained the
    // shutdown cleanly, including the replacement.
    assert_eq!(
        snapshot.counter("serve.worker_clean_exits"),
        snapshot.counter("serve.workers_configured"),
    );
}

#[test]
fn expired_deadline_is_shed_while_a_generous_one_is_served() {
    let (mapper, segments) = world();
    // One slow worker: a request that arrives while the worker is mid-pass
    // sits in the queue long enough for a 1 ms deadline to lapse.
    let handle = start(
        mapper,
        &ServerConfig {
            workers: 1,
            queue_cap: 8,
            batch: 1,
            straggle_ms: 150,
            ..Default::default()
        },
    );
    let addr = handle.addr().to_string();
    let occupier = {
        let addr = addr.clone();
        let seg = segments[..1].to_vec();
        std::thread::spawn(move || Client::new(addr).map_segments(&seg))
    };
    // Give the occupier time to reach the worker, then race the deadline.
    std::thread::sleep(Duration::from_millis(40));
    let doomed = Client::new(addr.clone())
        .with_deadline(Duration::from_millis(1))
        .map_segments(&segments[..1]);
    assert!(
        matches!(doomed, Err(ServeError::Expired)),
        "a deadline that lapses in the queue must surface as Expired, got {doomed:?}"
    );
    occupier.join().unwrap().unwrap();
    // A deadline the server can actually meet changes nothing.
    let relaxed = Client::new(addr)
        .with_deadline(Duration::from_secs(30))
        .map_segments(&segments[..1])
        .unwrap();
    assert!(!relaxed.is_empty());
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.shed"), 1);
    assert_eq!(snapshot.counter("serve.deadline_requests"), 2);
    assert_eq!(snapshot.counter("serve.requests"), 2, "shed ≠ served");
}

/// A frame as a build speaking a retired revision wrote it: its magic, a
/// one-word `Ping` body, a valid checksum.
fn retired_frame(magic: &[u8; 8]) -> Vec<u8> {
    let body = 0u64.to_le_bytes();
    let mut wire = magic.to_vec();
    wire.extend_from_slice(&(body.len() as u64).to_le_bytes());
    wire.extend_from_slice(&jem_index::checksum_bytes(&body).to_le_bytes());
    wire.extend_from_slice(&body);
    wire
}

#[test]
fn retired_revision_frames_get_a_typed_error() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = mapper.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let server = start(mapper.clone(), &ServerConfig::default());
    // The router front door, over one shard owning every slot.
    let shard = start(mapper, &ServerConfig::default());
    let registry = ShardRegistry::parse(&format!("0-2@{}", shard.addr())).unwrap();
    let router = start_router(registry, "127.0.0.1:0", &RouterConfig::default()).unwrap();
    for addr in [server.addr(), router.addr()] {
        for magic in [b"JEMSRV1\0", b"JEMSRV2\0", b"JEMSRV3!", b"JEMSRV4\0"] {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(&retired_frame(magic)).unwrap();
            let reply = read_frame(&mut conn).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error(msg) => assert!(msg.contains("bad frame magic"), "got: {msg}"),
                other => panic!("{magic:?} at {addr}: expected Error, got {other:?}"),
            }
        }
        let client = Client::new(addr.to_string());
        assert_eq!(client.map_segments(&seg).unwrap(), expected, "{addr}");
    }
    assert_eq!(server.shutdown().counter("serve.protocol_errors"), 4);
    let report = router.shutdown();
    assert_eq!(report.metrics.counter("router.protocol_errors"), 4);
    assert_eq!(shard.shutdown().counter("serve.protocol_errors"), 0);
}

/// Every connection is keep-alive, anonymous ones included, at a server
/// and at the router's front door alike: one socket carries request after
/// request until the peer closes it.
#[test]
fn an_anonymous_connection_serves_request_after_request() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = mapper.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let server = start(mapper.clone(), &ServerConfig::default());
    // The router front door, over one shard owning every slot.
    let shard = start(mapper, &ServerConfig::default());
    let registry = ShardRegistry::parse(&format!("0-2@{}", shard.addr())).unwrap();
    let router = start_router(registry, "127.0.0.1:0", &RouterConfig::default()).unwrap();
    let anonymous = Envelope::default();
    for addr in [server.addr(), router.addr()] {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        for _ in 0..3 {
            write_frame(&mut conn, &Request::Ping.encode(&anonymous)).unwrap();
            let reply = read_frame(&mut conn).unwrap();
            assert_eq!(Response::decode(&reply).unwrap(), Response::Pong, "{addr}");
            let map = Request::Map {
                segments: seg.clone(),
            };
            write_frame(&mut conn, &map.encode(&anonymous)).unwrap();
            let reply = read_frame(&mut conn).unwrap();
            assert_eq!(
                Response::decode(&reply).unwrap(),
                Response::Mappings(expected.clone()),
                "{addr}"
            );
        }
    }
    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter("serve.connections"), 1);
    assert_eq!(snapshot.counter("serve.requests"), 3);
    let report = router.shutdown();
    assert_eq!(report.metrics.counter("router.connections"), 1);
    assert_eq!(report.metrics.counter("router.full_answers"), 3);
    shard.shutdown();
}

/// A `Client` keeps its connection: two sequential `Map`s ride one
/// socket, and the `Shutdown` after them goes on a fresh one.
#[test]
fn a_client_keeps_its_connection_across_requests() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = mapper.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let handle = start(mapper, &ServerConfig::default());
    let client = Client::new(handle.addr().to_string());
    for _ in 0..2 {
        assert_eq!(client.map_segments(&seg).unwrap(), expected);
    }
    assert_eq!(handle.recorder().snapshot().counter("serve.connections"), 1);
    client.shutdown_server().unwrap();
    let snapshot = handle.join();
    assert_eq!(snapshot.counter("serve.connections"), 2);
    assert_eq!(snapshot.counter("serve.requests"), 2);
}

/// A shard owning part of the slot space answers `Map` with a typed
/// error naming its slots, never with a ranking of its own slice; the
/// router's `MapPartial` it still answers.
#[test]
fn a_shard_refuses_map_but_answers_map_partial() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let shard = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..1),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let client = Client::new(shard.addr().to_string());
    match client.map_segments(&seg) {
        Err(ServeError::Remote(msg)) => {
            assert!(
                msg.contains("slots 0-1 of 2") && msg.contains("jem route"),
                "got: {msg}"
            )
        }
        other => panic!("expected a typed Error, got {other:?}"),
    }
    assert_eq!(client.map_segments_partial(&seg).unwrap().len(), 2);
    shard.shutdown();
}

#[test]
fn zero_valued_config_is_rejected_not_deadlocked() {
    let (mapper, _) = world();
    for config in [
        ServerConfig {
            workers: 0,
            ..Default::default()
        },
        ServerConfig {
            queue_cap: 0,
            ..Default::default()
        },
        ServerConfig {
            batch: 0,
            ..Default::default()
        },
    ] {
        match jem_serve::start(
            mapper.clone(),
            CodeFilter::slots(2, 0..2),
            "127.0.0.1:0",
            &config,
        ) {
            Err(err) => assert!(matches!(err, ServeError::Config(_)), "got {err}"),
            Ok(_) => panic!("zero-valued config must be rejected"),
        }
    }
}
