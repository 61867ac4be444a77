//! Drives the `jem` binary end to end through temp files.

use std::path::PathBuf;
use std::process::Command;

fn jem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jem"))
}

fn run(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn jem");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jem_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow() {
    let dir = workdir("full");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "120000", "--coverage", "5", "--seed", "7"]));
    for f in ["genome.fa", "contigs.fa", "reads.fq", "truth.tsv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    run(jem().args([
        "index",
        "--subjects",
        &p("contigs.fa"),
        "--out",
        &p("index.jem"),
    ]));
    assert!(dir.join("index.jem").exists());

    run(jem().args([
        "map",
        "--index",
        &p("index.jem"),
        "--queries",
        &p("reads.fq"),
        "--out",
        &p("map.tsv"),
    ]));
    let tsv = std::fs::read_to_string(p("map.tsv")).unwrap();
    assert!(tsv.starts_with("#query\tsubject"), "TSV header missing");
    assert!(tsv.lines().count() > 10, "suspiciously few mappings");

    let eval_out = run(jem().args([
        "eval",
        "--mappings",
        &p("map.tsv"),
        "--truth",
        &p("truth.tsv"),
    ]));
    let precision: f64 = eval_out
        .lines()
        .find_map(|l| l.strip_prefix("precision\t"))
        .expect("precision line")
        .parse()
        .unwrap();
    assert!(precision > 0.9, "CLI pipeline precision {precision}");

    run(jem().args([
        "scaffold",
        "--subjects",
        &p("contigs.fa"),
        "--mappings",
        &p("map.tsv"),
        "--out",
        &p("scaffolds.fa"),
    ]));
    let scaffolds = std::fs::read_to_string(p("scaffolds.fa")).unwrap();
    assert!(scaffolds.contains(">scaffold_0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn map_without_prebuilt_index() {
    let dir = workdir("noindex");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "60000", "--coverage", "3", "--seed", "9"]));
    let out = run(jem().args([
        "map",
        "--subjects",
        &p("contigs.fa"),
        "--queries",
        &p("reads.fq"),
    ]));
    assert!(out.starts_with("#query"), "stdout TSV expected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assemble_from_genome() {
    let dir = workdir("asm");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "50000", "--coverage", "2", "--seed", "3"]));
    run(jem().args([
        "assemble",
        "--simulate-from",
        &p("genome.fa"),
        "--out",
        &p("asm.fa"),
        "--coverage",
        "25",
    ]));
    let asm = std::fs::read_to_string(p("asm.fa")).unwrap();
    assert!(asm.contains(">contig_0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contained_reports_incidences() {
    let dir = workdir("contained");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "80000", "--coverage", "3", "--seed", "5"]));
    let out = run(jem().args([
        "contained",
        "--subjects",
        &p("contigs.fa"),
        "--queries",
        &p("reads.fq"),
    ]));
    assert!(
        out.starts_with("#read\tsubject"),
        "header expected, got {out:.60}"
    );
    // Tiling must report at least as many incidences as reads (each read
    // touches >= 1 contig with 95% contig coverage).
    assert!(out.lines().count() > 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    let out = jem()
        .args(["map", "--queries", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = jem().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = jem().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let out = run(jem().arg("help"));
    assert!(out.contains("USAGE"));
    for cmd in ["index", "map", "simulate", "assemble", "eval", "scaffold"] {
        assert!(out.contains(cmd), "{cmd} missing from help");
    }
}

/// A small simulated data set with a v6 index: `(dir, path helper)`.
fn indexed_world(tag: &str) -> PathBuf {
    let dir = workdir(tag);
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "60000", "--coverage", "3", "--seed", "29"]));
    run(jem().args(["index", "--subjects", &p("contigs.fa")]).args([
        "--out",
        &p("index.jem"),
        "--ell",
        "500",
    ]));
    dir
}

#[test]
fn map_ingests_crlf_and_stdin_queries_identically() {
    let dir = indexed_world("ingest");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let map = |queries: &str, out: &str, threads: &str| {
        let mut cmd = jem();
        cmd.args(["map", "--index", &p("index.jem"), "--queries", queries])
            .args(["--out", &p(out), "--threads", threads]);
        cmd
    };
    run(&mut map(&p("reads.fq"), "plain.tsv", "1"));
    let plain = std::fs::read(p("plain.tsv")).unwrap();
    assert!(plain.len() > 100, "suspiciously few mappings");

    let fastq = std::fs::read(p("reads.fq")).unwrap();
    let crlf: Vec<u8> = fastq
        .split_inclusive(|&b| b == b'\n')
        .flat_map(|line| [&line[..line.len() - 1], b"\r\n"].concat())
        .collect();
    std::fs::write(p("reads_crlf.fq"), crlf).unwrap();
    run(&mut map(&p("reads_crlf.fq"), "crlf.tsv", "2"));
    assert_eq!(std::fs::read(p("crlf.tsv")).unwrap(), plain, "CRLF input");

    let mut child = map("-", "stdin.tsv", "2")
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    {
        use std::io::Write;
        let mut stdin = child.stdin.take().unwrap();
        for chunk in fastq.chunks(4096) {
            stdin.write_all(chunk).unwrap();
        }
    }
    assert!(child.wait().unwrap().success(), "stdin map failed");
    assert_eq!(std::fs::read(p("stdin.tsv")).unwrap(), plain, "stdin input");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn map_verifies_the_index_before_creating_any_output() {
    let dir = indexed_world("verify");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let mut bytes = std::fs::read(p("index.jem")).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10; // inside the table: only the full checksum sees it
    std::fs::write(p("bad.jem"), bytes).unwrap();
    for paf in [false, true] {
        let mut cmd = jem();
        cmd.args(["map", "--index", &p("bad.jem"), "--queries", &p("reads.fq")])
            .args(["--out", &p("out.tsv"), "--threads", "2"]);
        if paf {
            cmd.args(["--paf", &p("out.paf"), "--subjects", &p("contigs.fa")]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("error:") && stderr.contains("checksum"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            !stderr.contains("mapping"),
            "nothing may be mapped: {stderr}"
        );
        for file in ["out.tsv", "out.tsv.tmp", "out.paf", "out.paf.tmp"] {
            assert!(
                !dir.join(file).exists(),
                "{file} created before verification"
            );
        }
    }
    // Index errors still come before query errors, as before the overlap.
    let out = jem()
        .args([
            "map",
            "--index",
            &p("bad.jem"),
            "--queries",
            &p("absent.fq"),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A retired-format index is refused with one `error:` line that names
/// the upgrade: `jem map` before it opens `--queries` or creates any
/// output, and `jem serve` before it binds.
#[test]
fn legacy_index_files_are_refused_naming_the_upgrade() {
    let fx = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/format-compat");
    let v5 = fx.join("index_v5.jem").to_string_lossy().into_owned();
    let dir = workdir("legacy");
    let out_tsv = dir.join("out.tsv").to_string_lossy().into_owned();
    let refused = |out: std::process::Output| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        assert!(errors[0].contains("--upgrade"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        stderr
    };
    let queries = [
        fx.join("reads.fq").to_string_lossy().into_owned(),
        dir.join("absent.fq").to_string_lossy().into_owned(),
    ];
    for queries in &queries {
        let stderr = refused(
            jem()
                .args([
                    "map",
                    "--index",
                    &v5,
                    "--queries",
                    queries,
                    "--out",
                    &out_tsv,
                ])
                .output()
                .unwrap(),
        );
        assert!(
            !stderr.contains("absent.fq"),
            "queries opened first: {stderr}"
        );
        for file in ["out.tsv", "out.tsv.tmp"] {
            assert!(!dir.join(file).exists(), "{file} created");
        }
    }
    refused(
        jem()
            .args(["serve", "--index", &v5, "--addr", "127.0.0.1:0"])
            .output()
            .unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A mistyped flag is a usage error naming it, raised before any work:
/// `--thread 2` must not map on one worker as if `--threads` were absent.
#[test]
fn unknown_flags_are_usage_errors_before_any_output() {
    let dir = indexed_world("flags");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for (flag, value) in [("--thread", "2"), ("--bogus", "1")] {
        let out = jem()
            .args([
                "map",
                "--index",
                &p("index.jem"),
                "--queries",
                &p("reads.fq"),
            ])
            .args(["--out", &p("typo.tsv"), flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{stderr}"
        );
        assert!(
            !stderr.contains("mapping"),
            "nothing may be mapped: {stderr}"
        );
        for file in ["typo.tsv", "typo.tsv.tmp"] {
            assert!(!dir.join(file).exists(), "{file} created");
        }
    }
    // Every other command checks its flags too.
    let out = jem()
        .args([
            "index",
            "--subjects",
            &p("contigs.fa"),
            "--out",
            &p("x.jem"),
        ])
        .arg("--trails")
        .arg("30")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!dir.join("x.jem").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `jem index` writes v6 only: the retired `--format` switch is an
/// unknown flag, whatever format it names, and nothing is written.
#[test]
fn index_format_flag_is_gone() {
    let dir = indexed_world("format");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for format in ["v3", "v5"] {
        let out = jem()
            .args(["index", "--subjects", &p("contigs.fa")])
            .args(["--out", &p("x.jem"), "--format", format])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("unknown flag --format "), "{stderr}");
        assert!(!dir.join("x.jem").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every index load is fully verified, and that pass pages the file in:
/// `jem serve`'s retired `--prefault` switch is an unknown flag, refused
/// before the index is even opened.
#[test]
fn serve_prefault_flag_is_gone() {
    let out = jem()
        .args(["serve", "--index", "/nonexistent/missing.jem", "--prefault"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --prefault "), "{stderr}");
}

/// `jem distributed --threads` is a bare switch (one thread per simulated
/// rank): bare, the threaded run maps the fixture reads to the committed
/// TSV; with a value, it is a usage error naming the flag.
#[test]
fn distributed_threads_is_a_bare_switch() {
    let fx = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/format-compat"
    );
    let dir = workdir("dist_threads");
    let out_tsv = dir.join("dist.tsv").to_string_lossy().into_owned();
    let distributed = |extra: &[&str]| {
        let mut cmd = jem();
        cmd.args(["distributed", "--subjects", &format!("{fx}/contigs.fa")])
            .args(["--queries", &format!("{fx}/reads.fq"), "--ell", "500"])
            .args(["--ranks", "4", "--out", &out_tsv])
            .args(extra);
        cmd
    };
    run(&mut distributed(&["--threads"]));
    let expected = std::fs::read_to_string(format!("{fx}/expected.tsv")).unwrap();
    assert_eq!(std::fs::read_to_string(&out_tsv).unwrap(), expected);
    std::fs::remove_file(&out_tsv).unwrap();

    let out = distributed(&["--threads", "4"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--threads takes no value"), "{stderr}");
    assert!(!dir.join("dist.tsv").exists(), "nothing is written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_queries_fail_with_a_typed_error_naming_the_line() {
    let dir = indexed_world("badq");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    std::fs::write(p("bad.fq"), b"@r1\nAC\xffT\n+\nIIII\n").unwrap();
    let out = jem()
        .args(["map", "--index", &p("index.jem"), "--queries", &p("bad.fq")])
        .args(["--out", &p("out.tsv")])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2") && stderr.contains("UTF-8"),
        "{stderr}"
    );
    assert!(!dir.join("out.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `n` FASTQ reads of 1 000 bases cut from `dir`'s simulated genome: two
/// 500-base end segments each.
fn genome_windows(dir: &std::path::Path, n: usize) -> Vec<u8> {
    let fasta = std::fs::read_to_string(dir.join("genome.fa")).unwrap();
    let genome: String = fasta.lines().filter(|l| !l.starts_with('>')).collect();
    let quality = "I".repeat(1000);
    let mut fastq = Vec::new();
    for i in 0..n {
        let at = (i * 7919) % (genome.len() - 1000);
        let seq = &genome[at..at + 1000];
        fastq.extend(format!("@w{i}\n{seq}\n+\n{quality}\n").bytes());
    }
    fastq
}

/// `jem map` maps batches while it parses, but a malformed record after
/// many good batches still fails typed, naming its line, with no output
/// or temporary file left — with and without stage 2.
#[test]
fn a_late_malformed_record_fails_typed_with_no_output() {
    let dir = indexed_world("late");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // 700 reads are 1 400 segments, 21 full batches, before the bad
    // record, whose quality line (line 2 804) is short.
    let mut fastq = genome_windows(&dir, 700);
    fastq.extend(b"@bad\nACGTACGT\n+\nIIII\n");
    std::fs::write(p("late.fq"), fastq).unwrap();
    for paf in [false, true] {
        let mut cmd = jem();
        cmd.args([
            "map",
            "--index",
            &p("index.jem"),
            "--queries",
            &p("late.fq"),
        ])
        .args(["--out", &p("out.tsv"), "--threads", "2"]);
        if paf {
            cmd.args(["--paf", &p("out.paf"), "--subjects", &p("contigs.fa")]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("late.fq") && stderr.contains("line 2804"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        for file in ["out.tsv", "out.tsv.tmp", "out.paf", "out.paf.tmp"] {
            assert!(!dir.join(file).exists(), "{file} left behind (paf {paf})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--subjects` file that is not the indexed contig set is reported
/// after a queries error, as when the queries were read whole first.
#[test]
fn a_queries_error_comes_before_a_subjects_mismatch() {
    let dir = indexed_world("order");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let renamed = std::fs::read_to_string(p("contigs.fa"))
        .unwrap()
        .replace('>', ">renamed_");
    std::fs::write(p("renamed.fa"), renamed).unwrap();
    let mut fastq = genome_windows(&dir, 100);
    fastq.extend(b"@bad\nAC\xffT\n+\nIIII\n");
    std::fs::write(p("bad.fq"), fastq).unwrap();
    let map = |queries: &str| {
        jem()
            .args(["map", "--index", &p("index.jem"), "--queries", &p(queries)])
            .args(["--out", &p("out.tsv"), "--paf", &p("out.paf")])
            .args(["--subjects", &p("renamed.fa")])
            .output()
            .unwrap()
    };
    let out = map("bad.fq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("bad.fq") && stderr.contains("line 402"),
        "{stderr}"
    );
    assert!(!stderr.contains("disagrees"), "{stderr}");
    // Good queries: the subjects mismatch is what is left to report.
    std::fs::write(p("good.fq"), genome_windows(&dir, 100)).unwrap();
    let out = map("good.fq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("disagrees"), "{stderr}");
    for file in ["out.tsv", "out.tsv.tmp", "out.paf", "out.paf.tmp"] {
        assert!(!dir.join(file).exists(), "{file} left behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_fails_on_a_missing_file_before_contacting_the_server() {
    // Nothing listens on this address; the file error must come first.
    let out = jem()
        .args([
            "query",
            "--addr",
            "127.0.0.1:9",
            "--queries",
            "/nonexistent/q.fq",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/nonexistent/q.fq"), "{stderr}");
}

/// `jem map` without `--threads` runs one worker per core and writes the
/// same TSV as one worker; the retired `--parallel` switch is an unknown
/// flag.
#[test]
fn map_defaults_to_one_worker_per_core() {
    let dir = indexed_world("workers");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let map = |out: &str, extra: &[&str]| {
        let mut cmd = jem();
        cmd.args([
            "map",
            "--index",
            &p("index.jem"),
            "--queries",
            &p("reads.fq"),
        ])
        .args(["--out", &p(out)])
        .args(extra);
        cmd
    };
    run(&mut map("one.tsv", &["--threads", "1"]));
    run(&mut map("default.tsv", &[]));
    assert_eq!(
        std::fs::read(p("default.tsv")).unwrap(),
        std::fs::read(p("one.tsv")).unwrap()
    );
    let out = map("parallel.tsv", &["--parallel"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --parallel "), "{stderr}");
    assert!(!dir.join("parallel.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Start `jem serve` on a free localhost port over `index` and wait for
/// it to answer a ping; returns the process and its address.
fn spawn_server(index: &str, extra: &[&str]) -> (std::process::Child, String) {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let server = jem()
        .args(["serve", "--index", index, "--addr", &addr])
        .args(extra)
        .spawn()
        .unwrap();
    let up = (0..100).any(|_| {
        let ok = jem()
            .args(["query", "--addr", &addr, "--ping"])
            .output()
            .unwrap()
            .status
            .success();
        if !ok {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        ok
    });
    assert!(up, "jem serve never answered a ping");
    (server, addr)
}

/// `jem query --via-router` is retired: an unknown flag, refused before
/// anything is contacted. `--allow-degraded` stands alone, and a plain
/// `jem serve` answers it with the server's typed error: exit 1, no
/// output file.
#[test]
fn allow_degraded_against_a_shard_server_fails_typed() {
    let out = jem()
        .args(["query", "--addr", "127.0.0.1:9", "--via-router", "--ping"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --via-router "), "{stderr}");

    let dir = indexed_world("degraded");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (mut server, addr) = spawn_server(&p("index.jem"), &[]);
    let out = jem()
        .args(["query", "--addr", &addr, "--allow-degraded"])
        .args(["--queries", &p("reads.fq"), "--out", &p("degraded.tsv")])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    run(jem().args(["query", "--addr", &addr, "--shutdown"]));
    assert!(server.wait().unwrap().success());
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("router tier"), "{stderr}");
    assert!(!dir.join("degraded.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Anonymous clients share one quota: past it, `jem query` without
/// `--client-id` is refused with the typed throttle and exits 75
/// (`EX_TEMPFAIL`), exactly like an identified client.
#[test]
fn an_anonymous_query_over_quota_exits_75() {
    let dir = indexed_world("throttle");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // One token, refilled every five seconds: the first request spends
    // it, and the retry hint of the second outlasts the query's retries.
    let (mut server, addr) = spawn_server(
        &p("index.jem"),
        &["--quota-rate", "0.2", "--quota-burst", "1"],
    );
    let out = jem()
        .args(["query", "--addr", &addr, "--queries", &p("reads.fq")])
        .args(["--chunk", "2", "--out", &p("throttled.tsv")])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    run(jem().args(["query", "--addr", &addr, "--shutdown"]));
    assert!(server.wait().unwrap().success());
    assert_eq!(out.status.code(), Some(75), "{stderr}");
    assert!(stderr.contains("retry after"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A fake `jem serve` on a free localhost port that announces `info` and
/// maps every segment to subject 7; returns its address and a count of the
/// `Map` frames it received.
fn lying_server(
    info: jem_serve::ServerInfo,
) -> (String, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
    use jem_core::Mapping;
    use jem_serve::{read_frame, write_frame, Request, Response};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let maps = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&maps);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let (info, seen) = (info.clone(), Arc::clone(&seen));
            std::thread::spawn(move || {
                while let Ok(body) = read_frame(&mut conn) {
                    let resp = match Request::decode(&body) {
                        Ok((_, Request::Info)) => Response::Info(info.clone()),
                        Ok((_, Request::Map { segments })) => {
                            seen.fetch_add(1, Ordering::SeqCst);
                            Response::Mappings(
                                segments
                                    .iter()
                                    .map(|s| Mapping {
                                        read_idx: s.read_idx,
                                        end: s.end,
                                        subject: 7,
                                        hits: 3,
                                    })
                                    .collect(),
                            )
                        }
                        _ => Response::Error("unexpected request".into()),
                    };
                    if write_frame(&mut conn, &resp.encode()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, maps)
}

/// What [`lying_server`] announces: a valid configuration over `names`.
fn announced(names: &[&str]) -> jem_serve::ServerInfo {
    jem_serve::ServerInfo {
        config: jem_core::MapperConfig {
            k: 12,
            w: 8,
            trials: 4,
            ell: 200,
            seed: 1,
        },
        scheme: jem_sketch::SketchScheme::Minimizer { w: 8 },
        subject_names: names.iter().map(|n| n.to_string()).collect(),
        shards: 1,
        batch: 16,
    }
}

/// One 600-base FASTQ read in `dir`: two 200-base end segments.
fn one_read(dir: &std::path::Path) -> String {
    let path = dir.join("q.fq");
    let read: String = (0..600).map(|i| ['A', 'C', 'G', 'T'][i * 7 % 4]).collect();
    std::fs::write(&path, format!("@r0\n{read}\n+\n{}\n", "I".repeat(600))).unwrap();
    path.to_string_lossy().into_owned()
}

/// A server whose answers do not fit what it announced — a subject id
/// past its name table — must fail `jem query` with a typed data error
/// before anything indexes by that id: exit 1, no panic, no output file.
#[test]
fn query_refuses_served_subjects_the_server_never_named() {
    let (addr, _) = lying_server(announced(&["c0"]));
    let dir = workdir("lying_server");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let out = jem()
        .args(["query", "--addr", &addr, "--queries", &one_read(&dir)])
        .args(["--out", &p("out.tsv")])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("subject 7"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("out.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// After `Info` and before the first `Map`: an announced configuration no
/// index can hold, then a `--subjects` file that is not the served contig
/// set, each fail `jem query` typed (exit 1) with nothing sent to map and
/// no output file.
#[test]
fn query_checks_the_announced_index_before_the_first_map() {
    let dir = workdir("before_map");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    std::fs::write(p("one.fa"), b">c0\nACGTACGTACGTACGTACGT\n").unwrap();
    let mut invalid = announced(&["c0"]);
    invalid.config.trials = 0;
    for (info, expect) in [
        (invalid, "invalid configuration"),
        (announced(&["c0", "c1"]), "--subjects holds 1 sequences"),
    ] {
        let (addr, maps) = lying_server(info);
        let out = jem()
            .args(["query", "--addr", &addr, "--queries", &one_read(&dir)])
            .args(["--out", &p("out.tsv"), "--paf", &p("out.paf")])
            .args(["--subjects", &p("one.fa")])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(expect), "{stderr}");
        assert_eq!(
            maps.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "{expect}"
        );
        for file in ["out.tsv", "out.tsv.tmp", "out.paf", "out.paf.tmp"] {
            assert!(!dir.join(file).exists(), "{file} left behind");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--paf` without `--subjects` is a usage error found before the server
/// is contacted: nothing listens on the address, yet the run exits 2
/// naming `--subjects`.
#[test]
fn query_paf_without_subjects_is_a_usage_error() {
    let dir = workdir("paf_usage");
    let out = jem()
        .args([
            "query",
            "--addr",
            "127.0.0.1:9",
            "--queries",
            &one_read(&dir),
        ])
        .args(["--paf", &dir.join("out.paf").to_string_lossy()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--subjects"), "{stderr}");
    assert!(!dir.join("out.paf").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `jem query` sends `--chunk` segments a request whatever the ingest's
/// batch edges: at 7, 64 and 100 the TSV and PAF bytes are the same, and
/// the TSV is `jem map`'s. A malformed record after 700 reads (21 full
/// batches, sent and answered) still fails typed, naming its line, with
/// no output or temporary file left.
#[test]
fn query_streams_any_chunk_to_the_same_outputs() {
    let dir = indexed_world("query_chunks");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args([
            "map",
            "--index",
            &p("index.jem"),
            "--queries",
            &p("reads.fq"),
        ])
        .args(["--out", &p("map.tsv")]));
    let mut late = genome_windows(&dir, 700);
    late.extend(b"@bad\nACGTACGT\n+\nIIII\n");
    std::fs::write(p("late.fq"), late).unwrap();
    let (mut server, addr) = spawn_server(&p("index.jem"), &[]);
    let query = |queries: &str, chunk: &str, tag: &str| {
        jem()
            .args(["query", "--addr", &addr, "--queries", &p(queries)])
            .args(["--chunk", chunk, "--subjects", &p("contigs.fa")])
            .args(["--out", &p(&format!("{tag}.tsv"))])
            .args(["--paf", &p(&format!("{tag}.paf"))])
            .output()
            .unwrap()
    };
    let mut outputs = Vec::new();
    for chunk in ["7", "64", "100"] {
        let out = query("reads.fq", chunk, chunk);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push([
            std::fs::read(p(&format!("{chunk}.tsv"))).unwrap(),
            std::fs::read(p(&format!("{chunk}.paf"))).unwrap(),
        ]);
    }
    let late = query("late.fq", "64", "late");
    run(jem().args(["query", "--addr", &addr, "--shutdown"]));
    assert!(server.wait().unwrap().success());
    assert!(outputs[0][1].len() > 100, "suspiciously few PAF rows");
    assert_eq!(outputs[0], outputs[1], "--chunk 7 vs 64");
    assert_eq!(outputs[0], outputs[2], "--chunk 7 vs 100");
    assert_eq!(outputs[0][0], std::fs::read(p("map.tsv")).unwrap());
    let stderr = String::from_utf8_lossy(&late.stderr);
    assert_eq!(late.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("late.fq") && stderr.contains("line 2804"),
        "{stderr}"
    );
    for file in ["late.tsv", "late.tsv.tmp", "late.paf", "late.paf.tmp"] {
        assert!(!dir.join(file).exists(), "{file} left behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--slots` shard owns a slice of the table: asked to `Map` directly it
/// answers a typed error pointing at `jem route` (exit 1, no output), never
/// a ranking of its own slice.
#[test]
fn query_against_a_slots_shard_fails_typed() {
    let dir = indexed_world("slots_shard");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (mut server, addr) = spawn_server(&p("index.jem"), &["--shards", "4", "--slots", "0-2"]);
    let out = jem()
        .args(["query", "--addr", &addr, "--queries", &p("reads.fq")])
        .args(["--out", &p("shard.tsv")])
        .output()
        .unwrap();
    run(jem().args(["query", "--addr", &addr, "--shutdown"]));
    assert!(server.wait().unwrap().success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("jem route"), "{stderr}");
    assert!(!dir.join("shard.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}
