//! Chaos suite: the serve-layer invariant under injected network faults
//! and worker panics.
//!
//! With the fault proxy running any seeded [`ChaosPlan`] *and* the server
//! panicking on every Nth index pass, every client call must terminate
//! with a typed [`ServeError`] or a byte-correct result — never a hang, a
//! panic, or a wrong mapping — and the worker pool must recover to full
//! configured capacity afterwards.
//!
//! CI's `chaos-smoke` job runs this suite with `JEM_CHAOS_SEED` fixed and
//! `JEM_CHAOS_METRICS` pointing at a snapshot path it uploads and asserts
//! on (`serve.worker_panic` > 0, clean exits == configured workers).

use jem_core::{make_segments, CodeFilter, JemMapper, MapperConfig, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{ChaosAction, ChaosPlan, ChaosProxy, Client, ServeError, ServerConfig};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, ContigProfile, Genome, HifiProfile,
};
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

/// The offline ground truth a served answer must be byte-identical to.
fn offline(mapper: &JemMapper, seg: &[QuerySegment]) -> Vec<jem_core::Mapping> {
    let mut m = mapper.map_segments(seg);
    m.sort_unstable();
    m
}

#[test]
fn chaos_invariant_under_seeded_plan_and_worker_panics() {
    let seed = std::env::var("JEM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let (mapper, segments) = world();
    let seg = segments[..2].to_vec();
    let expected = offline(&mapper, &seg);

    const WORKERS: usize = 3;
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig {
            workers: WORKERS,
            queue_cap: 32,
            batch: 4,
            io_timeout: Duration::from_secs(5),
            // Every 4th index pass panics: supervision runs concurrently
            // with the network chaos, not in a separate pampered test.
            panic_every: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let plan = ChaosPlan::random(seed, 24);
    eprintln!("chaos plan (seed {seed}): {plan}");
    let proxy = ChaosProxy::start(handle.addr(), plan).unwrap();
    let client = Client::new(proxy.addr().to_string()).with_timeout(Duration::from_secs(8));

    let mut correct = 0u64;
    let mut typed_failures = 0u64;
    for i in 0..48 {
        // The invariant: each call TERMINATES (the loop makes progress)
        // with either the byte-exact offline answer or a typed error.
        match client.map_segments(&seg) {
            Ok(got) => {
                assert_eq!(
                    got, expected,
                    "request {i}: a served answer must be correct"
                );
                correct += 1;
            }
            Err(
                ServeError::Io(_)
                | ServeError::Protocol(_)
                | ServeError::Busy
                | ServeError::Expired
                | ServeError::ShuttingDown
                | ServeError::Remote(_),
            ) => typed_failures += 1,
            Err(other) => panic!("request {i}: non-typed failure {other:?}"),
        }
    }
    assert!(proxy.faults_injected() > 0, "the plan must actually injure");
    assert!(correct > 0, "some traffic must survive the chaos");
    assert!(
        typed_failures > 0,
        "a 24-action random plan must cause failures"
    );
    proxy.stop();

    // Recovery: with the proxy gone, the server answers directly,
    // correctly, and at full pool capacity. Panic injection is still on
    // (every 4th pass), so allow a retry in case this request lands on
    // an injected pass — consecutive passes can't both panic.
    let direct = Client::new(handle.addr().to_string());
    direct
        .ping()
        .expect("server must be alive after the chaos run");
    let recovered = (0..3)
        .find_map(|_| direct.map_segments(&seg).ok())
        .expect("a respawned pool must serve within a few index passes");
    assert_eq!(recovered, expected);

    let snapshot = handle.shutdown();
    assert!(
        snapshot.counter("serve.worker_panic") > 0,
        "panic_every=4 must have fired during the run"
    );
    assert_eq!(
        snapshot.counter("serve.worker_respawns"),
        snapshot.counter("serve.worker_panic"),
        "every panic must be answered with a respawn"
    );
    assert_eq!(
        snapshot.counter("serve.worker_clean_exits"),
        WORKERS as u64,
        "pool capacity must be fully restored before shutdown"
    );
    assert_eq!(snapshot.counter("serve.workers_configured"), WORKERS as u64);

    // CI uploads the shutdown snapshot as the chaos-smoke artifact.
    if let Ok(path) = std::env::var("JEM_CHAOS_METRICS") {
        std::fs::write(path, snapshot.to_json()).unwrap();
    }
}

#[test]
fn each_fault_kind_produces_its_documented_outcome() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let expected = offline(&mapper, &seg);
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();

    // One singleton-plan proxy per fault kind: behaviour stays attributable.
    let cases: Vec<(ChaosAction, &str)> = vec![
        (ChaosAction::Pass, "ok"),
        (ChaosAction::Delay { ms: 15 }, "ok"),
        (ChaosAction::Drop, "io"),
        (ChaosAction::Truncate { bytes: 10 }, "io"),
        (ChaosAction::Truncate { bytes: 30 }, "io"),
        (ChaosAction::Corrupt { bit: 3 }, "remote"), // magic damage
        (ChaosAction::Corrupt { bit: 140 }, "remote"), // checksum damage
        (ChaosAction::Slam, "io"),
    ];
    for (action, want) in cases {
        let proxy = ChaosProxy::start(handle.addr(), ChaosPlan::none().then(action)).unwrap();
        let client = Client::new(proxy.addr().to_string()).with_timeout(Duration::from_secs(8));
        let got = client.map_segments(&seg);
        match want {
            "ok" => assert_eq!(
                got.unwrap(),
                expected,
                "{action:?} must relay a correct answer"
            ),
            "io" => assert!(
                matches!(got, Err(ServeError::Io(_))),
                "{action:?} must surface as a connection error, got {got:?}"
            ),
            "remote" => match got {
                Err(ServeError::Remote(_) | ServeError::Protocol(_)) => {}
                other => panic!("{action:?} must surface a typed server rejection, got {other:?}"),
            },
            _ => unreachable!(),
        }
        proxy.stop();
    }

    // None of that abuse hurt the server.
    let direct = Client::new(handle.addr().to_string());
    assert_eq!(direct.map_segments(&seg).unwrap(), expected);
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.worker_panic"), 0);
    assert!(
        snapshot.counter("serve.protocol_errors") >= 2,
        "corrupt frames were rejected"
    );
}

/// Server connections are keep-alive, so the proxy hangs up once it has
/// relayed the one answer: a relayed connection must end with its answer,
/// not hold a server handler until the idle reaper closes it.
#[test]
fn a_relayed_connection_ends_with_its_answer() {
    let (mapper, segments) = world();
    let seg = segments[..1].to_vec();
    let idle_timeout = Duration::from_millis(500);
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(1, 0..1),
        "127.0.0.1:0",
        &ServerConfig {
            idle_timeout,
            ..Default::default()
        },
    )
    .unwrap();
    let plan = ChaosPlan::none()
        .then(ChaosAction::Pass)
        .then(ChaosAction::Delay { ms: 5 });
    let proxy = ChaosProxy::start(handle.addr(), plan).unwrap();
    let client = Client::new(proxy.addr().to_string()).with_timeout(Duration::from_secs(8));
    for _ in 0..2 {
        client.ping().unwrap();
        client.map_segments(&seg).unwrap();
    }
    // Three idle timeouts: a connection the proxy left open is reaped.
    std::thread::sleep(idle_timeout * 3);
    proxy.stop();
    let snapshot = handle.shutdown();
    assert_eq!(
        snapshot.counter("serve.reaped_idle"),
        0,
        "every relayed connection must close with its answer"
    );
}
