//! `--metrics` end to end: the snapshot a `jem` run writes must parse under
//! the documented schema, carry nonzero stage spans and counters, and the
//! instrumented run must not change the mapping output.

use jem_obs::Snapshot;
use std::path::PathBuf;
use std::process::Command;

fn jem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jem"))
}

fn run(cmd: &mut Command) {
    let out = cmd.output().expect("spawn jem");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jem_metrics_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn load_snapshot(path: &std::path::Path) -> Snapshot {
    let json = std::fs::read_to_string(path).expect("metrics file written");
    Snapshot::from_json(&json).expect("metrics JSON parses under schema v1")
}

#[test]
fn map_metrics_snapshot_has_pipeline_breakdown() {
    let dir = workdir("map");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "80000", "--coverage", "3", "--seed", "17"]));

    // Uninstrumented reference run, then the same mapping with a live
    // recorder and a bounded thread count.
    run(jem().args(["map", "--subjects", &p("contigs.fa")]).args([
        "--queries",
        &p("reads.fq"),
        "--out",
        &p("plain.tsv"),
    ]));
    run(jem()
        .args(["map", "--subjects", &p("contigs.fa")])
        .args(["--queries", &p("reads.fq"), "--out", &p("metered.tsv")])
        .args(["--threads", "2", "--metrics", &p("metrics.json")]));

    let plain = std::fs::read_to_string(p("plain.tsv")).unwrap();
    let metered = std::fs::read_to_string(p("metered.tsv")).unwrap();
    assert_eq!(metered, plain, "--metrics/--threads changed the mappings");

    let snap = load_snapshot(&dir.join("metrics.json"));
    for counter in [
        "sketch.sequences",
        "sketch.windows_scanned",
        "sketch.minimizers_kept",
        "index.entries",
        "map.segments",
        "map.mapped",
    ] {
        assert!(snap.counter(counter) > 0, "counter {counter} stayed zero");
    }
    for span in [
        "sketch/minimizers",
        "index/build",
        "map/ingest",
        "map/parallel",
    ] {
        assert!(snap.span_ns(span) > 0, "span {span} recorded no time");
    }
    assert!(
        snap.histograms.contains_key("map.chunk_ns"),
        "parallel driver must record chunk timings"
    );
    // One busy-time observation per worker (at most the two asked for;
    // fewer when the segments fill fewer batches), and their spread.
    assert!((1..=2).contains(&snap.histograms["map.chunk_ns"].count));
    assert_eq!(snap.histograms["map.imbalance_permille"].count, 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// `jem map` holds only the batches in flight: over an input of more than
/// 50 batches, no worker's pull finds more queued than the queue's bound
/// of two per worker.
#[test]
fn map_queue_depth_stays_within_its_bound() {
    let dir = workdir("queue");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "60000", "--coverage", "1", "--seed", "41"]));
    // 2 000 reads of 1 000 bases from the genome: 4 000 end segments of
    // 500 bases, 63 batches of 64.
    let fasta = std::fs::read_to_string(p("genome.fa")).unwrap();
    let genome: String = fasta.lines().filter(|l| !l.starts_with('>')).collect();
    let quality = "I".repeat(1000);
    let mut fastq = String::new();
    for i in 0..2000 {
        let at = (i * 7919) % (genome.len() - 1000);
        let seq = &genome[at..at + 1000];
        fastq.push_str(&format!("@w{i}\n{seq}\n+\n{quality}\n"));
    }
    std::fs::write(p("windows.fq"), fastq).unwrap();
    run(jem()
        .args(["map", "--subjects", &p("contigs.fa"), "--ell", "500"])
        .args(["--queries", &p("windows.fq"), "--out", &p("map.tsv")])
        .args(["--threads", "2", "--metrics", &p("metrics.json")]));

    let snap = load_snapshot(&dir.join("metrics.json"));
    assert_eq!(snap.counter("map.segments"), 4000);
    let depth = &snap.histograms["map.queue_depth"];
    assert_eq!(depth.count, 63, "one observation per pull");
    let bound = jem_core::queue_bound(2) as u64;
    assert!(depth.max <= bound, "queue depth {} past {bound}", depth.max);
    for waited in ["map.ingest_wait_ns", "map.ingest_full_ns"] {
        assert!(snap.counters.contains_key(waited), "{waited} missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_metrics_snapshot_has_simulated_breakdown() {
    let dir = workdir("dist");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "60000", "--coverage", "2", "--seed", "23"]));
    run(jem()
        .args(["distributed", "--subjects", &p("contigs.fa")])
        .args(["--queries", &p("reads.fq"), "--ranks", "4"])
        .args(["--fault-plan", "crash@1:subject sketch"])
        .args(["--metrics", &p("metrics.json")]));

    let snap = load_snapshot(&dir.join("metrics.json"));
    assert!(snap.counter("psim.supersteps") > 0);
    assert!(snap.counter("psim.collectives") > 0);
    assert!(snap.counter("psim.comm_bytes") > 0);
    // The injected crash surfaces in both the fault and recovery counters.
    assert_eq!(snap.counter("psim.crashes"), 1);
    assert!(snap.counter("psim.retries") >= 1);
    assert!(snap.counter("psim.reassigned_blocks") >= 1);
    // The Fig.-7-style per-step breakdown comes out of the same recorder.
    for span in [
        "psim/input load",
        "psim/subject sketch",
        "psim/sketch gather",
        "psim/global table build",
        "psim/query map",
        "psim/result gather",
    ] {
        assert!(
            snap.spans.contains_key(span),
            "step span {span} missing from snapshot"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_metrics_snapshot_covers_build() {
    let dir = workdir("index");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "50000", "--coverage", "2", "--seed", "29"]));
    run(jem()
        .args([
            "index",
            "--subjects",
            &p("contigs.fa"),
            "--out",
            &p("index.jem"),
        ])
        .args(["--metrics", &p("metrics.json")]));

    let snap = load_snapshot(&dir.join("metrics.json"));
    assert!(snap.counter("index.subjects") > 0);
    assert!(snap.counter("index.keys") > 0);
    assert!(snap.span_ns("index/build") > 0);
    assert!(snap.histograms["index.bucket_occupancy"].count > 0);
    // The save — the step perfbench's traced `persist.save_s` times — is
    // one span of its own.
    assert_eq!(snap.spans["persist/save"].count, 1);
    assert!(snap.span_ns("persist/save") > 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_threads_values_are_usage_errors() {
    for threads in ["0", "none"] {
        let out = jem()
            .args(["map", "--subjects", "x.fa", "--queries", "y.fq"])
            .args(["--threads", threads])
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--threads"),
            "expected a --threads usage error for {threads:?}"
        );
    }
}
