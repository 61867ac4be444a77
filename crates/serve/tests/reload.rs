//! Hot-reload tests: `Request::Reload` swaps the served index atomically
//! under concurrent query load with zero dropped or incorrect responses,
//! a failed reload leaves the old index serving, and `Info` reflects the
//! current epoch.

use jem_core::{make_segments, save_index, CodeFilter, JemMapper, MapperConfig, QuerySegment};
use jem_seq::SeqRecord;
use jem_serve::{Client, ServeError, ServerConfig};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, ContigProfile, Genome, HifiProfile,
};
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Two different worlds sharing one `ell`, so segments cut for one are
/// valid queries against either index.
fn worlds() -> (JemMapper, JemMapper, Vec<QuerySegment>) {
    let config = MapperConfig {
        ell: 400,
        trials: 8,
        ..MapperConfig::default()
    };
    let build = |genome_seed: u64| -> JemMapper {
        let genome = Genome::random(25_000, 0.5, genome_seed);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), genome_seed + 1);
        JemMapper::build(&contig_records(&contigs), &config)
    };
    let old = build(21);
    let new = build(91);
    let genome = Genome::random(25_000, 0.5, 21);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 1.0,
            ..Default::default()
        },
        23,
    );
    let read_recs: Vec<SeqRecord> = reads
        .iter()
        .map(|r| SeqRecord::new(r.id.clone(), r.seq.clone()))
        .collect();
    let segments = make_segments(&read_recs, config.ell);
    (old, new, segments)
}

fn persist(mapper: &JemMapper, name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let mut out = std::fs::File::create(&path).unwrap();
    save_index(&mut out, mapper).unwrap();
    path
}

#[test]
fn reload_swaps_epochs_with_zero_dropped_or_incorrect_responses() {
    let (old, new, segments) = worlds();
    assert!(segments.len() >= 2);
    let seg = segments[..2].to_vec();
    // The only two answers any request may ever see: the old index's or
    // the new index's — never a mix, an error, or a drop.
    let old_answer = {
        let mut m = old.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let new_answer = {
        let mut m = new.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let new_path = persist(&new, "reload-new.idx");

    let handle = jem_serve::start(
        old,
        CodeFilter::slots(3, 0..3),
        "127.0.0.1:0",
        &ServerConfig {
            workers: 2,
            queue_cap: 64,
            batch: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    // Concurrent query load across the swap: 4 threads × 12 requests.
    let load: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let seg = seg.clone();
            std::thread::spawn(move || {
                let client = Client::new(addr);
                (0..12)
                    .map(|_| {
                        let got = client
                            .map_segments_retry(&seg, 20, Duration::from_millis(5))
                            .expect("no request may be dropped across a reload");
                        std::thread::sleep(Duration::from_millis(2));
                        got
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    let summary = Client::new(addr.clone())
        .reload(new_path.display().to_string())
        .expect("reload of a valid index must succeed");
    assert!(summary.contains("epoch 1"), "got: {summary}");

    let mut seen = HashSet::new();
    for worker in load {
        for got in worker.join().unwrap() {
            assert!(
                got == old_answer || got == new_answer,
                "a response must match exactly one epoch's index"
            );
            seen.insert(got == new_answer);
        }
    }
    // The swap landed while load was running: answers from the new epoch
    // were observed (the old epoch may or may not appear, depending on
    // how fast the reload won the race — both are correct).
    assert!(seen.contains(&true), "post-reload answers must appear");

    // After the swap every answer comes from the new index.
    let settled = Client::new(addr)
        .map_segments(&seg)
        .expect("server must keep serving after a reload");
    assert_eq!(settled, new_answer);

    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.reloads"), 1);
    assert_eq!(snapshot.counter("serve.reload_errors"), 0);
    assert_eq!(snapshot.counter("serve.reload_requests"), 1);
}

#[test]
fn failed_reload_keeps_the_old_index_serving() {
    let (old, _, segments) = worlds();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = old.map_segments(&seg);
        m.sort_unstable();
        m
    };
    // A file that exists but is not an index: load fails checksum/magic
    // validation off the worker path.
    let junk = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("reload-junk.idx");
    std::fs::File::create(&junk)
        .unwrap()
        .write_all(b"this is not an index")
        .unwrap();

    let handle = jem_serve::start(
        old,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let client = Client::new(handle.addr().to_string());

    for path in [junk.display().to_string(), "/no/such/file.idx".into()] {
        match client.reload(path) {
            Err(ServeError::Remote(msg)) => assert!(msg.contains("reload"), "got: {msg}"),
            other => panic!("expected a remote reload error, got {other:?}"),
        }
    }
    // The old epoch never stopped serving correct answers.
    assert_eq!(client.map_segments(&seg).unwrap(), expected);
    let info = client.info().unwrap();
    assert!(!info.subject_names.is_empty());

    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.reloads"), 0);
    assert_eq!(snapshot.counter("serve.reload_errors"), 2);
}

#[test]
fn corrupt_index_reload_is_rejected_and_keeps_the_old_index_serving() {
    let (old, new, segments) = worlds();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = old.map_segments(&seg);
        m.sort_unstable();
        m
    };
    // Start from a pristine v6 artifact, then break it two ways: flip one
    // byte mid-file (posting arena / checksum mismatch) and truncate the
    // tail (section bounds mismatch). Both must fail validation *before*
    // the epoch swap with a typed error — never a panic, never a swap.
    let pristine = persist(&new, "reload-pristine-v6.idx");
    let bytes = std::fs::read(&pristine).unwrap();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let corrupt = tmp.join("reload-corrupt-v6.idx");
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&corrupt, &flipped).unwrap();
    let truncated = tmp.join("reload-truncated-v6.idx");
    std::fs::write(&truncated, &bytes[..bytes.len() - 9]).unwrap();

    let handle = jem_serve::start(
        old,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let client = Client::new(handle.addr().to_string());

    for path in [&corrupt, &truncated] {
        match client.reload(path.display().to_string()) {
            Err(ServeError::Remote(msg)) => assert!(msg.contains("reload"), "got: {msg}"),
            other => panic!("expected a remote reload error, got {other:?}"),
        }
    }
    // The old epoch never stopped serving correct answers, and the good
    // artifact still reloads cleanly afterwards.
    assert_eq!(client.map_segments(&seg).unwrap(), expected);
    client
        .reload(pristine.display().to_string())
        .expect("the pristine v6 artifact must still reload");

    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.reloads"), 1);
    assert_eq!(snapshot.counter("serve.reload_errors"), 2);
}

/// A `Reload` of a retired-format index — the committed v5 fixture — is
/// refused with a typed `Error` naming the upgrade that rewrites it, and
/// the old index keeps answering.
#[test]
fn legacy_index_reload_is_refused_naming_the_upgrade() {
    let (old, _, segments) = worlds();
    let seg = segments[..1].to_vec();
    let expected = {
        let mut m = old.map_segments(&seg);
        m.sort_unstable();
        m
    };
    let v5 = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/format-compat/index_v5.jem");
    let handle = jem_serve::start(
        old,
        CodeFilter::slots(2, 0..2),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let client = Client::new(handle.addr().to_string());
    match client.reload(v5.display().to_string()) {
        Err(ServeError::Remote(msg)) => assert!(
            msg.contains("JEMIDX5") && msg.contains("jem index --upgrade"),
            "got: {msg}"
        ),
        other => panic!("expected a remote reload error, got {other:?}"),
    }
    assert_eq!(client.map_segments(&seg).unwrap(), expected);
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("serve.reloads"), 0);
    assert_eq!(snapshot.counter("serve.reload_errors"), 1);
}

#[test]
fn info_reflects_the_current_epoch() {
    let (old, new, _) = worlds();
    let old_names = old.subject_names().to_vec();
    let new_names = new.subject_names().to_vec();
    let new_path = persist(&new, "reload-info.idx");

    let handle = jem_serve::start(
        old,
        CodeFilter::slots(5, 0..5),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let client = Client::new(handle.addr().to_string());
    assert_eq!(client.info().unwrap().subject_names, old_names);
    client.reload(new_path.display().to_string()).unwrap();
    let info = client.info().unwrap();
    assert_eq!(info.subject_names, new_names);
    assert_eq!(info.shards, 5, "reloads keep the configured shard count");
    handle.shutdown();
}
