//! What a running server reports about itself and how it keeps clients
//! apart: `Info` names the served index faithfully, and interleaved
//! requests from many clients each get their own answers. That served
//! answers equal the paper's per-trial definition is the workspace's
//! differential oracle's job (`tests/oracle.rs`).

use jem_core::{make_segments, CodeFilter, JemMapper, MapperConfig};
use jem_seq::SeqRecord;
use jem_serve::{Client, ServerConfig};
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

#[test]
fn info_reports_the_served_index_faithfully() {
    let (mapper, _) = world();
    let config = *mapper.config();
    let names = mapper.subject_names().to_vec();
    let handle = jem_serve::start(
        mapper,
        CodeFilter::slots(4, 0..4),
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
        mapper,
        CodeFilter::slots(3, 0..3),
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
