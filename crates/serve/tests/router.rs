//! Router-tier failure semantics.
//!
//! The contract under test (DESIGN.md §13): a query routed across an
//! exact-cover topology of `jem serve --slots` shards answers what the
//! offline single-process path does (the workspace's differential oracle,
//! `tests/oracle.rs`, checks every topology size); a query
//! with shards missing either fails with a typed error naming the gaps
//! (strict `Map`) or answers `Degraded` carrying exactly the survivors'
//! merge plus the missing ids (`MapDegraded`); a flapping shard is gated
//! by its circuit breaker and rejoins without a router restart; and a
//! straggling shard is hedged to its replica.

// Topologies here really are lists of slot *ranges*, including
// single-shard ones — not ranges meant to be expanded into elements.
#![allow(clippy::single_range_in_vec_init)]

use jem_core::{make_segments, save_index, CodeFilter, JemMapper, MapperConfig, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{
    merge_partials, read_frame, start_router, write_frame, ChaosAction, ChaosPlan, ChaosProxy,
    Client, Envelope, Request, Response, RetryPolicy, RouterConfig, SegmentPartials, ServeError,
    ServerConfig, ServerHandle, ShardRegistry, ShardSpec,
};
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
    HifiProfile,
};
use std::ops::Range;
use std::sync::mpsc;
use std::time::Duration;

fn world() -> (JemMapper, Vec<SeqRecord>) {
    let genome = Genome::random(60_000, 0.5, 31);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 32);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 2.0,
            ..Default::default()
        },
        33,
    );
    let config = MapperConfig {
        ell: 500,
        trials: 12,
        ..MapperConfig::default()
    };
    let mapper = JemMapper::build(&contig_records(&contigs), &config);
    (mapper, read_records(&reads))
}

fn offline_mappings(mapper: &JemMapper, seg: &[QuerySegment]) -> Vec<jem_core::Mapping> {
    let mut m = mapper.map_segments(seg);
    m.sort_unstable();
    m
}

/// Boot one `jem serve` process per slot range (each owning only its
/// slice of the `n_slots` space) and build the registry over them.
fn boot_shards(
    mapper: &JemMapper,
    n_slots: usize,
    ranges: &[Range<usize>],
) -> (Vec<ServerHandle>, ShardRegistry) {
    let handles: Vec<ServerHandle> = ranges
        .iter()
        .map(|r| {
            jem_serve::start(
                mapper.clone(),
                CodeFilter::slots(n_slots, r.clone()),
                "127.0.0.1:0",
                &ServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let specs = handles
        .iter()
        .zip(ranges)
        .map(|(h, r)| ShardSpec {
            slots: r.clone(),
            addr: h.addr().to_string(),
            replica: None,
        })
        .collect();
    let registry = ShardRegistry::new(n_slots, specs).unwrap();
    (handles, registry)
}

#[test]
fn missing_shards_degrade_with_named_gaps_never_silently() {
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let seg = segments[..6].to_vec();
    let (mut handles, registry) = boot_shards(&mapper, 4, &[0..1, 1..2, 2..4]);
    let survivor_addrs = [handles[0].addr().to_string(), handles[2].addr().to_string()];
    // Kill shard 1; its slot range's collisions drop out of the merge.
    handles.remove(1).shutdown();

    let config = RouterConfig {
        hedge_after: None,
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(5));

    // A strict Map fails whole, naming the gap.
    match client.map_segments(&seg) {
        Err(ServeError::Remote(msg)) => {
            assert!(msg.contains("[1]"), "the error must name shard 1: {msg}")
        }
        other => panic!("strict Map with a dead shard must fail typed, got {other:?}"),
    }

    // MapDegraded answers the survivors' merge and names the gap.
    let (mappings, missing) = client.map_segments_degraded(&seg).unwrap();
    assert_eq!(missing, vec![1], "exactly the dead shard must be named");
    let survivors: Vec<Vec<SegmentPartials>> = survivor_addrs
        .iter()
        .map(|a| Client::new(a.clone()).map_segments_partial(&seg).unwrap())
        .collect();
    let expected = merge_partials(&seg, &survivors).unwrap();
    assert_eq!(
        mappings, expected,
        "a degraded answer is exactly the merge of the surviving shards"
    );

    // With every shard dead there is nothing to stand an answer on: a
    // typed error, not an empty result dressed as a mapping.
    for h in handles {
        h.shutdown();
    }
    match client.map_segments_degraded(&seg) {
        Err(ServeError::Remote(msg)) => {
            assert!(msg.contains("unavailable"), "unexpected message: {msg}")
        }
        other => panic!("an all-dead topology must fail typed, got {other:?}"),
    }

    let report = router.shutdown();
    assert!(report.metrics.counter("router.degraded") >= 1);
    assert_eq!(report.metrics.counter("router.full_answers"), 0);
}

#[test]
fn breaker_gates_a_flapping_shard_and_recloses_on_probe() {
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let seg = segments[..2].to_vec();
    let expected = offline_mappings(&mapper, &seg);
    let (handles, _) = boot_shards(&mapper, 1, &[0..1]);

    // The shard flaps through a fault proxy: four dropped connections,
    // then it heals. (Each failed fetch burns up to two connections — the
    // primary dial plus the client's single transparent reconnect.)
    let mut plan = ChaosPlan::none();
    for _ in 0..4 {
        plan = plan.then(ChaosAction::Drop);
    }
    for _ in 0..20 {
        plan = plan.then(ChaosAction::Pass);
    }
    let proxy = ChaosProxy::start(handles[0].addr(), plan).unwrap();
    let registry = ShardRegistry::new(
        1,
        vec![ShardSpec {
            slots: 0..1,
            addr: proxy.addr().to_string(),
            replica: None,
        }],
    )
    .unwrap();
    let config = RouterConfig {
        hedge_after: None,
        breaker_failures: 2,
        breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(25))
            .with_cap(Duration::from_millis(50)),
        io_timeout: Duration::from_secs(5),
        deadline: None,
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(10));

    // Fail queries until the breaker opens: an open breaker skips the
    // shard without dialing it at all.
    let mut failing_queries = 0;
    loop {
        let before = proxy.connections();
        assert!(
            client.map_segments(&seg).is_err(),
            "the drop phase must fail strict queries"
        );
        failing_queries += 1;
        if proxy.connections() == before {
            break; // breaker-skipped: not a single connection burned
        }
        assert!(
            failing_queries < 6,
            "the breaker must open within a few failing queries"
        );
    }

    // Past the cooldown a half-open probe goes through, lands on the
    // healed shard, and closes the breaker — same process, no restart.
    let mut recovered = None;
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(120));
        if let Ok(m) = client.map_segments(&seg) {
            recovered = Some(m);
            break;
        }
    }
    let got = recovered.expect("a healed shard must be readmitted after the cooldown");
    assert_eq!(got, expected, "the readmitted shard must answer correctly");

    let report = router.shutdown();
    let m = &report.metrics;
    assert!(
        m.counter("router.breaker_open") >= 1,
        "breaker never opened"
    );
    assert!(
        m.counter("router.breaker_skips") >= 1,
        "open breaker never gated"
    );
    assert!(
        m.counter("router.breaker_close") >= 1,
        "breaker never reclosed"
    );
    assert!(m.counter("router.full_answers") >= 1);
    proxy.stop();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn stragglers_are_hedged_to_the_replica() {
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let seg = segments[..2].to_vec();
    let expected = offline_mappings(&mapper, &seg);
    let (handles, _) = boot_shards(&mapper, 1, &[0..1]);
    let shard_addr = handles[0].addr();

    // The primary path straggles behind a 400 ms delay proxy; the replica
    // is the same shard reached directly. The hedge fires on silence at
    // 40 ms and its answer wins the race.
    let proxy = ChaosProxy::start(
        shard_addr,
        ChaosPlan::none().then(ChaosAction::Delay { ms: 400 }),
    )
    .unwrap();
    let registry = ShardRegistry::new(
        1,
        vec![ShardSpec {
            slots: 0..1,
            addr: proxy.addr().to_string(),
            replica: Some(shard_addr.to_string()),
        }],
    )
    .unwrap();
    let config = RouterConfig {
        hedge_after: Some(Duration::from_millis(40)),
        io_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(10));

    let got = client.map_segments(&seg).unwrap();
    assert_eq!(
        got, expected,
        "a hedged answer must still be the full answer"
    );

    let report = router.shutdown();
    assert!(
        report.metrics.counter("router.hedges") >= 1,
        "the straggler threshold must have fired"
    );
    assert!(
        report.metrics.counter("router.hedge_wins") >= 1,
        "the replica must beat a 400 ms straggler"
    );
    proxy.stop();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn router_info_rewrites_the_slot_count_and_tiers_refuse_crossed_requests() {
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let seg = segments[..1].to_vec();
    let names = mapper.subject_names().to_vec();
    let (handles, registry) = boot_shards(&mapper, 3, &[0..1, 1..3]);
    let router = start_router(registry, "127.0.0.1:0", &RouterConfig::default()).unwrap();
    let rclient = Client::new(router.addr().to_string());

    // Info through the router reports the *global* slot space, not the
    // answering shard's ownership.
    let info = rclient.info().unwrap();
    assert_eq!(
        info.shards, 3,
        "router Info must report the global slot count"
    );
    assert_eq!(info.subject_names, names);

    // The tiers refuse each other's requests with a typed explanation.
    match rclient.map_segments_partial(&seg) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("shard-tier"), "{msg}"),
        other => panic!("the router must refuse MapPartial, got {other:?}"),
    }
    match rclient.reload("nope.jem") {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("no index"), "{msg}"),
        other => panic!("the router must refuse Reload, got {other:?}"),
    }
    let sclient = Client::new(handles[0].addr().to_string());
    match sclient.map_segments_degraded(&seg) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("router"), "{msg}"),
        other => panic!("a shard server must refuse MapDegraded, got {other:?}"),
    }

    // Remote shutdown ends the run; the report renders the topology.
    rclient.shutdown_server().unwrap();
    let report = router.join();
    assert!(report.status.starts_with("# jem-router status"));
    assert!(report.status.contains("breaker=closed"));
    assert_eq!(report.metrics.counter("router.shutdown_requests"), 1);
    for h in handles {
        h.shutdown();
    }
}

/// The router asks a shard for `Info` each time: after the shards reload
/// an index whose subjects have other names, `Info` through the router
/// names the new subjects, not the ones it first saw.
#[test]
fn router_info_follows_a_shard_reload() {
    let (mapper, _) = world();
    let genome = Genome::random(20_000, 0.5, 71);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 72);
    let renamed: Vec<SeqRecord> = contig_records(&contigs)
        .into_iter()
        .map(|r| SeqRecord::new(format!("reloaded_{}", r.id), r.seq))
        .collect();
    let reloaded = JemMapper::build(&renamed, mapper.config());
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("router-info-reload-{}.idx", std::process::id()));
    save_index(&mut std::fs::File::create(&path).unwrap(), &reloaded).unwrap();

    let (handles, registry) = boot_shards(&mapper, 3, &[0..1, 1..3]);
    let router = start_router(registry, "127.0.0.1:0", &RouterConfig::default()).unwrap();
    let rclient = Client::new(router.addr().to_string());
    let before = rclient.info().unwrap();
    assert_eq!(before.subject_names, mapper.subject_names());
    for h in &handles {
        Client::new(h.addr().to_string())
            .reload(path.display().to_string())
            .unwrap();
    }
    let info = rclient.info().unwrap();
    assert_eq!(info.subject_names, reloaded.subject_names());
    assert_eq!(info.shards, 3);
    std::fs::remove_file(&path).unwrap();
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// A stub shard that reports the envelope of every request it is sent
/// and answers each `MapPartial` with empty collision sets (every
/// connection is served until the peer closes it, as a shard does).
fn envelope_recording_shard() -> (String, mpsc::Receiver<Envelope>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
                while let Ok(body) = read_frame(&mut conn) {
                    let (envelope, req) = Request::decode(&body).unwrap();
                    let Request::MapPartial { segments } = req else {
                        panic!("a router fetch is a MapPartial, got {req:?}");
                    };
                    let partials = segments
                        .iter()
                        .map(|seg| SegmentPartials {
                            read_idx: seg.read_idx,
                            end: seg.end,
                            trials: 1,
                            hits: Vec::new(),
                        })
                        .collect();
                    if tx.send(envelope).is_err()
                        || write_frame(&mut conn, &Response::Partials(partials).encode()).is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    (addr, rx)
}

/// A shard fetch carries the caller's identity (the router's own when the
/// caller is anonymous) and what is left of the caller's deadline.
#[test]
fn shard_fetches_forward_the_client_id_and_the_remaining_budget() {
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let seg = &segments[..2];
    let (shard, envelopes) = envelope_recording_shard();
    let registry = ShardRegistry::parse(&format!("0-4@{shard}")).unwrap();
    let config = RouterConfig {
        hedge_after: None,
        ..RouterConfig::default()
    };
    let router = start_router(registry, "127.0.0.1:0", &config).unwrap();
    let addr = router.addr().to_string();
    let next = || envelopes.recv_timeout(Duration::from_secs(10)).unwrap();

    // No mappings: every collision set is empty.
    assert!(Client::new(addr.clone())
        .map_segments(seg)
        .unwrap()
        .is_empty());
    let anonymous = next();
    assert_eq!(anonymous.client_id, "jem-router");
    assert_eq!(anonymous.deadline_ms, None);

    let budget = Duration::from_secs(30);
    Client::new(addr)
        .with_client_id("alice")
        .with_deadline(budget)
        .map_segments(seg)
        .unwrap();
    let identified = next();
    assert_eq!(identified.client_id, "alice");
    let left = identified.deadline_ms.expect("the budget is forwarded");
    assert!(
        left > 0 && left <= budget.as_millis() as u64,
        "the shard gets what is left of the budget, got {left} ms"
    );
    router.shutdown();
}
