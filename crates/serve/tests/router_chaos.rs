//! Router chaos suite: the scatter-gather invariant under injected shard
//! faults.
//!
//! With one shard of a three-shard topology flapping behind the fault
//! proxy, every routed query must terminate as one of exactly three
//! shapes — the byte-correct full answer, a `Degraded` answer naming its
//! gaps whose mappings equal the survivors' merge, or a typed error —
//! never a hang, never a partial answer dressed as a full one. And the
//! router must *recover without a restart*: once the shard heals, the
//! breaker recloses (the counters prove it) and full answers resume.
//!
//! CI's `router-chaos-smoke` job runs this suite with `JEM_CHAOS_SEED`
//! fixed and `JEM_ROUTER_CHAOS_METRICS` pointing at a snapshot path it
//! uploads and asserts on (degraded answers, hedges, breaker opens and
//! closes all > 0).

use jem_core::{make_segments, CodeFilter, JemMapper, MapperConfig, Mapping, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{
    merge_partials, start_router, ChaosAction, ChaosPlan, ChaosProxy, Client, RetryPolicy,
    RouterConfig, SegmentPartials, ServeError, ServerConfig, ServerHandle, ShardRegistry,
    ShardSpec,
};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, ContigProfile, Genome, HifiProfile,
};
use std::time::Duration;

fn world() -> (JemMapper, Vec<QuerySegment>) {
    let genome = Genome::random(30_000, 0.5, 41);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 42);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 1.0,
            ..Default::default()
        },
        43,
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

const N_SLOTS: usize = 3;
const RANGES: [std::ops::Range<usize>; 3] = [0..1, 1..2, 2..3];

/// One shard server owning `RANGES[i]` of the three-slot space.
fn boot_shard(mapper: &JemMapper, i: usize) -> ServerHandle {
    jem_serve::start(
        mapper.clone(),
        CodeFilter::slots(N_SLOTS, RANGES[i].clone()),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap()
}

/// The three-shard registry with shard 1 reached via `addr1` (the fault
/// proxy in these tests) and hedging to `replica1`.
fn registry(
    shard0: &ServerHandle,
    addr1: String,
    replica1: Option<String>,
    shard2: &ServerHandle,
) -> ShardRegistry {
    ShardRegistry::new(
        N_SLOTS,
        vec![
            ShardSpec {
                slots: RANGES[0].clone(),
                addr: shard0.addr().to_string(),
                replica: None,
            },
            ShardSpec {
                slots: RANGES[1].clone(),
                addr: addr1,
                replica: replica1,
            },
            ShardSpec {
                slots: RANGES[2].clone(),
                addr: shard2.addr().to_string(),
                replica: None,
            },
        ],
    )
    .unwrap()
}

/// What a degraded answer missing shard 1 must carry: the merge of the
/// two survivors' partials, fetched straight from the shard tier.
fn survivors_merge(
    seg: &[QuerySegment],
    shard0: &ServerHandle,
    shard2: &ServerHandle,
) -> Vec<Mapping> {
    let partials: Vec<Vec<SegmentPartials>> = [shard0, shard2]
        .iter()
        .map(|h| {
            Client::new(h.addr().to_string())
                .map_segments_partial(seg)
                .unwrap()
        })
        .collect();
    merge_partials(seg, &partials).unwrap()
}

#[test]
fn flapping_shard_degrades_then_recovers_without_restart() {
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let mut expected_full = mapper.map_segments(&seg);
    expected_full.sort_unstable();

    // Shard 1 goes dark (six dropped connections cover every fetch retry
    // until the breaker opens), then straggles, then heals.
    let mut plan = ChaosPlan::none();
    for _ in 0..6 {
        plan = plan.then(ChaosAction::Drop);
    }
    plan = plan.then(ChaosAction::Delay { ms: 300 });
    plan = plan.then(ChaosAction::Delay { ms: 300 });
    for _ in 0..30 {
        plan = plan.then(ChaosAction::Pass);
    }

    let shard0 = boot_shard(&mapper, 0);
    let shard1 = boot_shard(&mapper, 1);
    let shard2 = boot_shard(&mapper, 2);
    let proxy = ChaosProxy::start(shard1.addr(), plan).unwrap();
    // Shard 1's primary path runs through the proxy; its hedge replica is
    // the same shard reached directly.
    let reg = registry(
        &shard0,
        proxy.addr().to_string(),
        Some(shard1.addr().to_string()),
        &shard2,
    );
    let expected_degraded = survivors_merge(&seg, &shard0, &shard2);

    // The straggler threshold sits far above a dropped connection's error
    // latency (so phase A never hedges past the proxy) and well below the
    // 300 ms delay actions (so phase B always does).
    let config = RouterConfig {
        io_timeout: Duration::from_secs(5),
        hedge_after: Some(Duration::from_millis(150)),
        breaker_failures: 3,
        breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(40))
            .with_cap(Duration::from_millis(80)),
        deadline: None,
        ..RouterConfig::default()
    };
    let router = start_router(reg, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(10));

    // Phase A — shard 1 dark: every query degrades, naming exactly [1],
    // carrying exactly the survivors' merge. The phase ends when a query
    // burns no proxy connection at all: the breaker has opened.
    let mut degraded_phase_a = 0u64;
    loop {
        let before = proxy.connections();
        let (m, missing) = client.map_segments_degraded(&seg).unwrap();
        assert_eq!(missing, vec![1], "only shard 1 is injured");
        assert_eq!(
            m, expected_degraded,
            "a degraded answer is the survivors' merge"
        );
        degraded_phase_a += 1;
        if proxy.connections() == before {
            break;
        }
        assert!(
            degraded_phase_a < 10,
            "the breaker must open within a few failing queries"
        );
    }

    // Phase B — recovery without restart: past the cooldown the half-open
    // probe straggles into the delay actions, the hedge races the replica
    // (the shard's direct address), wins, and the success closes the
    // breaker. Full answers resume on the same router process.
    let mut recovered = false;
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(150));
        if let Ok((m, missing)) = client.map_segments_degraded(&seg) {
            if missing.is_empty() {
                assert_eq!(m, expected_full, "a full answer must be byte-correct");
                recovered = true;
                break;
            }
            assert_eq!(missing, vec![1]);
            assert_eq!(m, expected_degraded);
        }
    }
    assert!(
        recovered,
        "the healed shard must rejoin the merge without a router restart"
    );

    // Phase C — the plan keeps cycling; every query must land in one of
    // the three documented shapes: never silence, never a mislabelled
    // answer.
    let mut full = 0u64;
    for i in 0..20 {
        match client.map_segments_degraded(&seg) {
            Ok((m, missing)) if missing.is_empty() => {
                assert_eq!(m, expected_full, "query {i}");
                full += 1;
            }
            Ok((m, missing)) => {
                assert_eq!(missing, vec![1], "query {i}: only shard 1 can go missing");
                assert_eq!(m, expected_degraded, "query {i}");
            }
            Err(
                ServeError::Io(_)
                | ServeError::Protocol(_)
                | ServeError::Busy
                | ServeError::Expired
                | ServeError::ShuttingDown
                | ServeError::Remote(_),
            ) => {}
            Err(other) => panic!("query {i}: non-typed failure {other:?}"),
        }
    }
    assert!(full > 0, "the pass tail must deliver full answers");

    // The shard tier never noticed any of it.
    for h in [&shard0, &shard1, &shard2] {
        Client::new(h.addr().to_string()).ping().unwrap();
    }

    let report = router.shutdown();
    let m = &report.metrics;
    assert!(m.counter("router.degraded") >= degraded_phase_a);
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
    assert!(
        m.counter("router.hedges") >= 1,
        "the straggle phase must hedge"
    );
    assert!(
        m.counter("router.hedge_wins") >= 1,
        "the replica must win the race"
    );
    assert!(m.counter("router.full_answers") >= 1);
    assert_eq!(
        m.counter("router.invalid_partials"),
        0,
        "no fault here can produce a validated-but-wrong partial"
    );
    assert!(proxy.faults_injected() > 0, "the plan must actually injure");

    // CI uploads the shutdown snapshot as the router-chaos-smoke artifact.
    if let Ok(path) = std::env::var("JEM_ROUTER_CHAOS_METRICS") {
        std::fs::write(path, report.metrics.to_json()).unwrap();
    }
    proxy.stop();
    shard0.shutdown();
    shard1.shutdown();
    shard2.shutdown();
}

#[test]
fn seeded_random_soak_upholds_the_router_invariant() {
    let seed = std::env::var("JEM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let mut expected_full = mapper.map_segments(&seg);
    expected_full.sort_unstable();

    let plan = ChaosPlan::random(seed, 24);
    eprintln!("router chaos plan (seed {seed}): {plan}");
    let shard0 = boot_shard(&mapper, 0);
    let shard1 = boot_shard(&mapper, 1);
    let shard2 = boot_shard(&mapper, 2);
    let proxy = ChaosProxy::start(shard1.addr(), plan).unwrap();
    // No replica: hedges re-dispatch to the primary, through the chaos.
    let reg = registry(&shard0, proxy.addr().to_string(), None, &shard2);
    let expected_degraded = survivors_merge(&seg, &shard0, &shard2);

    let config = RouterConfig {
        io_timeout: Duration::from_secs(2),
        hedge_after: Some(Duration::from_millis(30)),
        breaker_failures: 3,
        breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(30))
            .with_cap(Duration::from_millis(60)),
        deadline: None,
        ..RouterConfig::default()
    };
    let router = start_router(reg, "127.0.0.1:0", &config).unwrap();
    let client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(10));

    let mut answered = 0u64;
    for i in 0..30 {
        // The invariant: each call TERMINATES (the loop makes progress)
        // with the full answer, a truthful degraded answer, or a typed
        // error.
        match client.map_segments_degraded(&seg) {
            Ok((m, missing)) if missing.is_empty() => {
                assert_eq!(m, expected_full, "query {i}: full answers must be correct");
                answered += 1;
            }
            Ok((m, missing)) => {
                assert_eq!(
                    missing,
                    vec![1],
                    "query {i}: only shard 1 is behind the proxy"
                );
                assert_eq!(
                    m, expected_degraded,
                    "query {i}: degraded answers must be truthful"
                );
                answered += 1;
            }
            Err(
                ServeError::Io(_)
                | ServeError::Protocol(_)
                | ServeError::Busy
                | ServeError::Expired
                | ServeError::ShuttingDown
                | ServeError::Remote(_),
            ) => {}
            Err(other) => panic!("query {i}: non-typed failure {other:?}"),
        }
    }
    assert!(proxy.faults_injected() > 0, "the plan must actually injure");
    assert!(answered > 0, "some traffic must survive the chaos");

    // None of the abuse hurt the shard tier.
    for h in [&shard0, &shard1, &shard2] {
        Client::new(h.addr().to_string()).ping().unwrap();
    }
    proxy.stop();
    router.shutdown();
    shard0.shutdown();
    shard1.shutdown();
    shard2.shutdown();
}
