//! Server/offline equivalence: a batch of segments mapped through a
//! running server (full client round-trip) must render **byte-identical**
//! TSV to the offline `jem map` path against the same index.
//!
//! Two properties make this exact rather than approximate:
//! 1. shard partitioning cannot change any per-trial collision set (each
//!    `(trial, code)` entry lives in exactly one shard, and collision sets
//!    are deduplicated before counting), and
//! 2. `Mapping` carries a documented derived total order
//!    (`read_idx`, `end`, `subject`, `hits`), the sequential driver emits
//!    mappings already in that order, and the serve path sorts into it.

use jem_core::{
    make_segments, write_mappings_tsv, write_mappings_tsv_named, JemMapper, MapperConfig,
};
use jem_seq::SeqRecord;
use jem_serve::{Client, ServerConfig, ShardedIndex};
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
    HifiProfile,
};

fn world() -> (JemMapper, Vec<SeqRecord>) {
    let genome = Genome::random(60_000, 0.5, 11);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 12);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 2.0,
            ..Default::default()
        },
        13,
    );
    let config = MapperConfig {
        ell: 500,
        trials: 12,
        ..MapperConfig::default()
    };
    let mapper = JemMapper::build(&contig_records(&contigs), &config);
    (mapper, read_records(&reads))
}

/// The offline reference TSV: sequential `map_reads` + `write_mappings_tsv`
/// (exactly what `jem map` produces, at any `--threads`).
fn offline_tsv(mapper: &JemMapper, reads: &[SeqRecord]) -> Vec<u8> {
    let mappings = mapper.map_reads(reads);
    // The documented total order: sequential output is already sorted, so
    // the server only has to sort to agree byte-for-byte.
    assert!(
        mappings.windows(2).all(|w| w[0] <= w[1]),
        "offline driver output must be in Mapping's total order"
    );
    let mut out = Vec::new();
    write_mappings_tsv(&mut out, &mappings, reads, mapper).unwrap();
    out
}

/// The served TSV: chunked client round-trips + `Info`-derived rendering
/// (exactly what `jem query` produces).
fn served_tsv(addr: &str, reads: &[SeqRecord], chunk: usize) -> Vec<u8> {
    let client = Client::new(addr);
    let info = client.info().unwrap();
    let segments = make_segments(reads, info.config.ell);
    let mut mappings = Vec::new();
    for part in segments.chunks(chunk) {
        mappings.extend(
            client
                .map_segments_retry(part, 10, std::time::Duration::from_millis(20))
                .unwrap(),
        );
    }
    mappings.sort_unstable();
    let mut out = Vec::new();
    write_mappings_tsv_named(
        &mut out,
        &mappings,
        reads,
        &info.subject_names,
        info.config.trials,
    )
    .unwrap();
    out
}

#[test]
fn served_batches_render_byte_identical_to_offline_map() {
    let (mapper, reads) = world();
    let expected = offline_tsv(&mapper, &reads);
    assert!(
        expected.iter().filter(|&&b| b == b'\n').count() > 10,
        "world too small to be a meaningful equivalence check"
    );

    for (shards, chunk) in [(1usize, 7usize), (5, 3), (16, 64)] {
        let handle = jem_serve::start(
            ShardedIndex::new(mapper.clone(), shards),
            "127.0.0.1:0",
            &ServerConfig::default(),
        )
        .unwrap();
        let got = served_tsv(&handle.addr().to_string(), &reads, chunk);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
            "{shards} shards / chunk {chunk} must be byte-identical to offline"
        );
        handle.shutdown();
    }
}

#[test]
fn info_reports_the_served_index_faithfully() {
    let (mapper, _) = world();
    let config = *mapper.config();
    let names = mapper.subject_names().to_vec();
    let handle = jem_serve::start(
        ShardedIndex::new(mapper, 4),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let info = Client::new(handle.addr().to_string()).info().unwrap();
    assert_eq!(info.config, config);
    assert_eq!(info.subject_names, names);
    assert_eq!(info.shards, 4);
    handle.shutdown();
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    // Interleaved requests from many clients must not cross-talk: each
    // round-trip returns exactly the mappings of its own segments (lazy
    // counter reuse across a worker's batches must not leak hits).
    let (mapper, reads) = world();
    let segments = make_segments(&reads, mapper.config().ell);
    let per_segment: Vec<_> = segments
        .iter()
        .map(|s| {
            let mut expected = mapper.map_segments(std::slice::from_ref(s));
            expected.sort_unstable();
            (s.clone(), expected)
        })
        .collect();
    let handle = jem_serve::start(
        ShardedIndex::new(mapper, 3),
        "127.0.0.1:0",
        &ServerConfig {
            workers: 4,
            batch: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let per_segment = per_segment.clone();
            std::thread::spawn(move || {
                let client = Client::new(addr);
                for (s, expected) in per_segment.iter().skip(t).step_by(4) {
                    let got = client
                        .map_segments_retry(
                            std::slice::from_ref(s),
                            10,
                            std::time::Duration::from_millis(20),
                        )
                        .unwrap();
                    assert_eq!(&got, expected, "cross-talk on read {}", s.read_idx);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}
