//! Overload chaos suite: the serving tier's behavior when clients are the
//! fault injector.
//!
//! The chaos suite proves the tier survives a hostile *network*; this one
//! proves it survives hostile *load*: greedy clients, half-open
//! connections, pipelined floods, and shard restarts under a live
//! connection pool. The invariant mirrors the chaos invariant — every
//! request terminates with a typed outcome, never a hang — plus the
//! overload-specific guarantees: a polite client's service holds while
//! greedy clients are throttled, and the router's pooled connections
//! recover to byte-identical answers after a shard restart.
//!
//! CI's `overload-smoke` job runs this suite with `JEM_OVERLOAD_METRICS`
//! and `JEM_OVERLOAD_ROUTER_METRICS` pointing at snapshot paths it
//! uploads and asserts on (`serve.throttled` > 0, `router.pool_hit` > 0).

use jem_core::{make_segments, CodeFilter, JemMapper, MapperConfig, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{
    read_frame, start_router, write_frame, Client, Envelope, QuotaConfig, Request, Response,
    RouterConfig, ServeError, ServerConfig, ShardRegistry, ShardSpec,
};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, ContigProfile, Genome, HifiProfile,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn world() -> (JemMapper, Vec<QuerySegment>) {
    let genome = Genome::random(30_000, 0.5, 51);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 52);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 1.0,
            ..Default::default()
        },
        53,
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

fn offline(mapper: &JemMapper, seg: &[QuerySegment]) -> Vec<jem_core::Mapping> {
    let mut m = mapper.map_segments(seg);
    m.sort_unstable();
    m
}

/// N greedy clients hammer a quota-enforcing server while one polite
/// client keeps a modest pace. The polite client's requests must all
/// succeed byte-correct and on time; every greedy request must terminate
/// with a typed outcome — the correct answer, `Throttled` with a usable
/// retry hint, `Busy`, or `Expired` — never a hang or an untyped error.
#[test]
fn greedy_clients_throttle_while_the_polite_client_sails() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let expected = offline(&mapper, &seg);
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            io_timeout: Duration::from_secs(5),
            // ~20 two-segment requests per second per client, burst of 4.
            quota: QuotaConfig {
                rate: 40.0,
                burst: 8.0,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    const GREEDY: usize = 3;
    const GREEDY_REQUESTS: usize = 40;
    let outcomes = std::thread::scope(|scope| {
        let greedy_handles: Vec<_> = (0..GREEDY)
            .map(|g| {
                let addr = addr.clone();
                let seg = seg.clone();
                let expected = &expected;
                scope.spawn(move || {
                    let client = Client::new(addr)
                        .with_timeout(Duration::from_secs(5))
                        .with_client_id(format!("greedy-{g}"));
                    let (mut ok, mut throttled, mut shed) = (0u64, 0u64, 0u64);
                    for i in 0..GREEDY_REQUESTS {
                        match client.map_segments(&seg) {
                            Ok(got) => {
                                assert_eq!(got, *expected, "greedy-{g} request {i}");
                                ok += 1;
                            }
                            Err(ServeError::Throttled { retry_after }) => {
                                assert!(
                                    retry_after > Duration::ZERO,
                                    "a throttle must carry a usable retry hint"
                                );
                                throttled += 1;
                            }
                            Err(ServeError::Busy | ServeError::Expired) => shed += 1,
                            Err(other) => {
                                panic!("greedy-{g} request {i}: untyped outcome {other:?}")
                            }
                        }
                    }
                    (ok, throttled, shed)
                })
            })
            .collect();

        // The polite client stays inside its own bucket (~13 tokens/s
        // against a 40/s refill) and must never be punished for the
        // greedy clients' behavior: independent buckets, independent
        // queue lanes.
        let polite = {
            let addr = addr.clone();
            let seg = seg.clone();
            let expected = &expected;
            scope.spawn(move || {
                let client = Client::new(addr)
                    .with_timeout(Duration::from_secs(5))
                    .with_client_id("polite");
                let started = Instant::now();
                for i in 0..8 {
                    let got = client
                        .map_segments(&seg)
                        .unwrap_or_else(|e| panic!("polite request {i} must succeed: {e}"));
                    assert_eq!(got, *expected, "polite request {i} must be byte-correct");
                    std::thread::sleep(Duration::from_millis(150));
                }
                started.elapsed()
            })
        };

        let greedy: Vec<(u64, u64, u64)> = greedy_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        (greedy, polite.join().unwrap())
    });
    let (greedy, polite_elapsed) = outcomes;

    let total_throttled: u64 = greedy.iter().map(|(_, t, _)| t).sum();
    let total_ok: u64 = greedy.iter().map(|(ok, _, _)| ok).sum();
    assert!(
        total_throttled > 0,
        "greedy clients must see typed throttles, got {greedy:?}"
    );
    assert!(
        total_ok > 0,
        "the quota admits bursts — some greedy requests must succeed"
    );
    // 8 polite requests at a 150ms pace is ~1.2s of pure pacing; anything
    // wildly past that means the greedy load starved the polite lane.
    assert!(
        polite_elapsed < Duration::from_secs(10),
        "polite client took {polite_elapsed:?} — greedy load must not starve it"
    );

    let snapshot = handle.shutdown();
    assert!(snapshot.counter("serve.throttled") > 0);
    assert_eq!(
        snapshot.counter("serve.protocol_errors"),
        0,
        "overload must surface as typed responses, not protocol damage"
    );
    if let Ok(path) = std::env::var("JEM_OVERLOAD_METRICS") {
        std::fs::write(path, snapshot.to_json()).unwrap();
    }
}

/// The router's pooled shard connections survive a shard restart: answers
/// before, the pool reuses sockets; the shard restarts on the same
/// address; answers after are byte-identical, with the dead pooled socket
/// evicted rather than served.
#[test]
fn pooled_router_answers_identically_across_a_shard_restart() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let expected = offline(&mapper, &seg);

    let boot = |owned: std::ops::Range<usize>| {
        jem_serve::start(
            mapper.clone(),
            CodeFilter::slots(2, owned),
            "127.0.0.1:0",
            &ServerConfig::default(),
        )
        .unwrap()
    };
    let shard0 = boot(0..1);
    let shard1 = boot(1..2);
    let shard1_addr = shard1.addr().to_string();
    let registry = ShardRegistry::new(
        2,
        vec![
            ShardSpec {
                slots: 0..1,
                addr: shard0.addr().to_string(),
                replica: None,
            },
            ShardSpec {
                slots: 1..2,
                addr: shard1_addr.clone(),
                replica: None,
            },
        ],
    )
    .unwrap();
    let config = RouterConfig {
        hedge_after: None, // keep the pool's traffic deterministic
        io_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(10));

    // Two queries: the first opens the pooled connections, the second
    // must reuse them.
    for i in 0..2 {
        assert_eq!(client.map_segments(&seg).unwrap(), expected, "query {i}");
    }

    // Restart shard 1 on the same address. The router's pooled socket to
    // it is now dead metal.
    let snapshot = shard1.shutdown();
    assert!(snapshot.counter("serve.requests") > 0);
    let shard1 = jem_serve::start(
        mapper.clone(),
        CodeFilter::slots(2, 1..2),
        &shard1_addr,
        &ServerConfig::default(),
    )
    .expect("shard must rebind its old address after restart");

    // The answer must come back whole and byte-identical — the pool
    // detects the dead socket (health peek or one-retry-fresh) instead of
    // failing the query or, worse, serving through it.
    assert_eq!(
        client.map_segments(&seg).unwrap(),
        expected,
        "the post-restart answer must be byte-identical"
    );

    let report = router.shutdown();
    assert!(
        report.metrics.counter("router.pool_hit") > 0,
        "repeat queries must reuse pooled connections"
    );
    assert!(
        report.metrics.counter("router.pool_evict") > 0,
        "the restart's dead socket must be evicted"
    );
    assert_eq!(report.metrics.counter("router.full_answers"), 3);
    if let Ok(path) = std::env::var("JEM_OVERLOAD_ROUTER_METRICS") {
        std::fs::write(path, report.metrics.to_json()).unwrap();
    }
    drop(shard0);
    drop(shard1);
}

/// Half-open and slow-loris connections are reaped on the idle deadline
/// while honest traffic keeps flowing.
#[test]
fn slow_loris_connections_are_reaped_while_pings_keep_landing() {
    let (mapper, _) = world();
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            idle_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Three connections that say nothing, and one that sends half a magic
    // then stalls mid-frame.
    let silent: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut staller = TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut staller, b"JEMS").unwrap();

    // While the lorises dangle, honest requests must still be served.
    let client = Client::new(addr.to_string()).with_timeout(Duration::from_secs(5));
    client.ping().expect("pings must land while lorises dangle");

    // Give the reaper its deadline (idle 200ms, mid-frame 500ms), then
    // confirm the server is still healthy and counted every reap.
    std::thread::sleep(Duration::from_millis(900));
    client.ping().expect("pings must land after the reaping");
    drop(silent);
    drop(staller);
    let snapshot = handle.shutdown();
    assert!(
        snapshot.counter("serve.reaped_idle") >= 4,
        "3 silent + 1 mid-frame stall must all be reaped, got {}",
        snapshot.counter("serve.reaped_idle")
    );
}

/// Anonymous clients share one quota, and over it they are told when to
/// come back: `Throttled` with a non-zero hint, from a server and from the
/// router's front door alike.
#[test]
fn anonymous_over_quota_clients_are_throttled_with_a_hint() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let expected = offline(&mapper, &seg);
    // One token, refilled every two seconds: the burst admits the first
    // request, and the second arrives long before the refill.
    let stingy = QuotaConfig {
        rate: 0.5,
        burst: 1.0,
    };
    let server = jem_serve::start(
        mapper.clone(),
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            quota: stingy,
            ..Default::default()
        },
    )
    .unwrap();
    let shard = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let registry = ShardRegistry::parse(&format!("0-2@{}", shard.addr())).unwrap();
    let router = start_router(
        registry,
        "127.0.0.1:0",
        &RouterConfig {
            quota: stingy,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    for addr in [server.addr(), router.addr()] {
        let client = Client::new(addr.to_string());
        assert_eq!(client.map_segments(&seg).unwrap(), expected, "{addr}");
        match client.map_segments(&seg) {
            Err(ServeError::Throttled { retry_after }) => {
                assert!(
                    retry_after > Duration::ZERO,
                    "{addr}: the hint must be usable"
                )
            }
            other => {
                panic!("{addr}: an anonymous over-quota request must be Throttled, got {other:?}")
            }
        }
    }
    assert_eq!(server.shutdown().counter("serve.throttled"), 1);
    assert_eq!(router.shutdown().metrics.counter("router.throttled"), 1);
    shard.shutdown();
}

/// The wire protocol has no correlation id, so a pipelining client
/// matches responses to requests positionally: a server and the router's
/// front door must answer in request order even when a cheap inline answer
/// (`Pong`) completes while an earlier mapping request is still
/// straggling — in a worker batch, or in a gather from a straggling shard.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let server = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            straggle_ms: 100, // hold the Map answers so the Pongs race them
            io_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    // The router gathers from the same straggling server, owning every
    // slot; no hedge, so each routed Map costs one straggling fetch.
    let registry = ShardRegistry::parse(&format!("0-2@{}", server.addr())).unwrap();
    let router = start_router(
        registry,
        "127.0.0.1:0",
        &RouterConfig {
            hedge_after: None,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let envelope = Envelope {
        client_id: "orderer".into(),
        deadline_ms: None,
    };
    let map = Request::Map { segments: seg }.encode(&envelope);
    let ping = Request::Ping.encode(&envelope);
    for addr in [server.addr(), router.addr()] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Map, Ping, Map, Ping back to back: without order restoration
        // the Pongs would land first (they are answered inline while the
        // Maps straggle) and the client would misattribute every answer.
        for body in [&map, &ping, &map, &ping] {
            write_frame(&mut conn, body).unwrap();
        }
        let mut kinds = Vec::new();
        for i in 0..4 {
            let resp_body = read_frame(&mut conn)
                .unwrap_or_else(|e| panic!("{addr}: response {i} must arrive, not hang: {e}"));
            kinds.push(match Response::decode(&resp_body).unwrap() {
                Response::Mappings(_) => "mappings",
                Response::Pong => "pong",
                other => panic!("{addr}: response {i}: unexpected {other:?}"),
            });
        }
        assert_eq!(
            kinds,
            ["mappings", "pong", "mappings", "pong"],
            "{addr}: responses must come back in request order, not completion order"
        );
    }
    router.shutdown();
    server.shutdown();
}

/// A connection whose peer is quiet because it waits on an answer we owe
/// is not idle: a server `Map` and a routed `Map` that straggle past the
/// idle deadline, and a server `Reload` held past it, all get their
/// answers, and neither tier counts a reaped connection.
#[cfg(unix)]
#[test]
fn a_connection_owed_an_answer_is_never_reaped() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let expected = offline(&mapper, &seg);
    let idle_timeout = Duration::from_millis(200);
    let straggling = ServerConfig {
        idle_timeout,
        straggle_ms: 3 * idle_timeout.as_millis() as u64,
        ..Default::default()
    };
    let server = jem_serve::start(
        mapper.clone(),
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &straggling,
    )
    .unwrap();
    // The router's shard keeps the default idle deadline: the router's
    // pooled connection to it idles between fetches.
    let shard = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            straggle_ms: straggling.straggle_ms,
            ..Default::default()
        },
    )
    .unwrap();
    let registry = ShardRegistry::parse(&format!("0-2@{}", shard.addr())).unwrap();
    let router = start_router(
        registry,
        "127.0.0.1:0",
        &RouterConfig {
            idle_timeout,
            hedge_after: None,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    for addr in [server.addr(), router.addr()] {
        let answer = Client::new(addr.to_string()).map_segments(&seg);
        assert_eq!(answer.unwrap(), expected, "{addr}");
    }
    // A reload from a FIFO whose writer opens only after three idle
    // deadlines: the load blocks in `open` until then, and then fails on
    // the empty stream.
    let fifo = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("owed-reload-{}.fifo", std::process::id()));
    let _ = std::fs::remove_file(&fifo);
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .unwrap();
    assert!(made.success(), "mkfifo failed");
    let writer = {
        let fifo = fifo.clone();
        std::thread::spawn(move || {
            std::thread::sleep(3 * idle_timeout);
            drop(std::fs::OpenOptions::new().write(true).open(&fifo));
        })
    };
    let started = Instant::now();
    match Client::new(server.addr().to_string()).reload(fifo.display().to_string()) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("reload"), "got: {msg}"),
        other => panic!("expected a remote reload error, got {other:?}"),
    }
    assert!(started.elapsed() >= 3 * idle_timeout);
    writer.join().unwrap();
    std::fs::remove_file(&fifo).unwrap();
    let router_metrics = router.shutdown().metrics;
    assert_eq!(router_metrics.counter("router.reaped_idle"), 0);
    assert_eq!(router_metrics.counter("router.full_answers"), 1);
    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter("serve.reaped_idle"), 0);
    assert_eq!(snapshot.counter("serve.requests"), 1);
    assert_eq!(snapshot.counter("serve.reload_errors"), 1);
    shard.shutdown();
}

/// The idle deadline runs from the connection's last answer, not from
/// when the connection began waiting: a peer that asks again within the
/// idle timeout of its last answer is served, even though more than the
/// idle timeout has passed since its previous frame.
#[test]
fn the_idle_deadline_runs_from_the_last_answer() {
    let (mapper, segments) = world();
    let idle_timeout = Duration::from_millis(400);
    let server = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            idle_timeout,
            straggle_ms: 200,
            io_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let envelope = Envelope::default();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let map = Request::Map {
        segments: segments[..1].to_vec(),
    };
    write_frame(&mut conn, &map.encode(&envelope)).unwrap();
    let answer = Response::decode(&read_frame(&mut conn).unwrap()).unwrap();
    assert!(matches!(answer, Response::Mappings(_)), "got {answer:?}");
    // 300 ms after the answer, and about 500 ms after the Map frame: past
    // the idle timeout since the last frame, inside it since the answer.
    std::thread::sleep(Duration::from_millis(300));
    write_frame(&mut conn, &Request::Ping.encode(&envelope)).unwrap();
    let pong = read_frame(&mut conn)
        .map_err(|e| e.to_string())
        .and_then(|body| Response::decode(&body).map_err(|e| e.to_string()));
    assert_eq!(pong, Ok(Response::Pong), "the Ping must be answered");
    drop(conn);
    assert_eq!(server.shutdown().counter("serve.reaped_idle"), 0);
}

/// The router's front door is capped like the shard servers': past
/// `max_conns` live connections, new ones are answered typed `Busy` and
/// closed instead of pinning an unbounded number of handler threads, and
/// the idle reaper frees the flooded slots.
#[test]
fn router_connection_flood_past_the_cap_is_answered_busy() {
    let registry = ShardRegistry::parse("0-1@127.0.0.1:1").unwrap();
    let config = RouterConfig {
        max_conns: 2,
        idle_timeout: Duration::from_millis(300),
        io_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let addr = router.addr().to_string();
    // Two slow-loris connections fill the cap.
    let lorises: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(router.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let the accept loop count them
    let client = Client::new(addr).with_timeout(Duration::from_secs(2));
    match client.ping() {
        Err(ServeError::Busy) => {}
        other => panic!("past the cap a connection must see typed Busy, got {other:?}"),
    }
    // The idle reaper retires the lorises (still held open, still silent),
    // freeing their slots for honest traffic.
    std::thread::sleep(Duration::from_millis(600));
    client
        .ping()
        .expect("after the reap the router must serve again");
    drop(lorises);
    let report = router.shutdown();
    assert!(report.metrics.counter("router.conn_rejected") >= 1);
    assert!(report.metrics.counter("router.reaped_idle") >= 2);
}

/// A client pipelining past its per-connection in-flight cap gets
/// typed `Busy` for the excess — and answers for the admitted work — with
/// no protocol-level hang.
#[test]
fn pipelining_past_the_inflight_cap_is_shed_with_typed_busy() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            max_inflight: 1,
            straggle_ms: 150, // hold the admitted job so the pipeline races it
            io_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();

    let body = Request::Map { segments: seg }.encode(&Envelope {
        client_id: "pipeliner".into(),
        deadline_ms: None,
    });
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three requests back to back on one connection, nothing read yet:
    // the cap admits one, the rest must be answered Busy immediately.
    for _ in 0..3 {
        write_frame(&mut conn, &body).unwrap();
    }
    let (mut mappings, mut busy) = (0u64, 0u64);
    for i in 0..3 {
        let resp_body = read_frame(&mut conn)
            .unwrap_or_else(|e| panic!("response {i} must arrive, not hang: {e}"));
        match Response::decode(&resp_body).unwrap() {
            Response::Mappings(_) => mappings += 1,
            Response::Busy => busy += 1,
            other => panic!("response {i}: expected Mappings or Busy, got {other:?}"),
        }
    }
    drop(conn);
    let snapshot = handle.shutdown();
    assert!(busy >= 1, "the excess pipeline depth must be shed as Busy");
    assert!(mappings >= 1, "the admitted request must still be answered");
    assert_eq!(mappings + busy, 3);
    assert!(snapshot.counter("serve.inflight_rejected") >= 1);
}
