//! Instrumentation must be observational only: running the pipeline with a
//! live metrics recorder installed has to produce byte-identical mappings
//! to the no-op default. One test function owns the whole binary because
//! the recorder install is process-global and first-install-wins.

use jem_core::{default_workers, make_segments, map_segments_parallel, JemMapper, MapperConfig};
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
    HifiProfile,
};

#[test]
fn recorder_does_not_change_mappings() {
    let genome = Genome::random(100_000, 0.5, 31);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 32);
    let config = MapperConfig {
        k: 14,
        w: 20,
        trials: 12,
        ell: 500,
        seed: 33,
    };
    let profile = HifiProfile {
        coverage: 3.0,
        mean_len: 4_000,
        std_len: 800,
        min_len: 1_200,
        error_rate: 0.001,
    };
    let reads = read_records(&simulate_hifi(&genome, &profile, 34));
    let segments = make_segments(&reads, config.ell);

    // Pass 1: the global recorder is still the no-op default.
    assert!(
        !jem_obs::recorder().enabled(),
        "test binary must start uninstrumented"
    );
    let mapper = JemMapper::build(&contig_records(&contigs), &config);
    let baseline_seq = mapper.map_reads(&reads);
    let baseline_par = map_segments_parallel(&mapper, &segments, default_workers());

    // Pass 2: identical pipeline with a live recorder collecting everything.
    let rec = jem_obs::install_default().expect("first install");
    let mapper = JemMapper::build(&contig_records(&contigs), &config);
    let instrumented_seq = mapper.map_reads(&reads);
    let instrumented_par = map_segments_parallel(&mapper, &segments, default_workers());

    assert_eq!(instrumented_seq, baseline_seq, "sequential driver diverged");
    assert_eq!(instrumented_par, baseline_par, "parallel driver diverged");

    // And the recorder really did collect the pipeline's activity.
    let snap = rec.snapshot();
    for counter in [
        "sketch.sequences",
        "sketch.windows_scanned",
        "sketch.minimizers_kept",
        "sketch.sketches_emitted",
        "index.subjects",
        "index.keys",
        "index.entries",
        "map.segments",
        "map.mapped",
        "map.collisions_probed",
        "map.lazy_resets",
    ] {
        assert!(snap.counter(counter) > 0, "counter {counter} stayed zero");
    }
    for span in [
        "sketch/minimizers",
        "sketch/select",
        "index/build",
        "map",
        "map/parallel",
    ] {
        assert!(snap.span_ns(span) > 0, "span {span} recorded no time");
    }
    assert!(
        snap.histograms["index.bucket_occupancy"].count > 0,
        "bucket occupancy histogram empty"
    );
    // The build's counters describe the table it wrote: one subject per
    // contig, one occupancy observation per code, summing to the postings
    // ((code, subject) pairs), whose masks hold the entries.
    let table = mapper.table();
    assert_eq!(snap.counter("index.subjects"), contigs.len() as u64);
    assert_eq!(snap.counter("index.keys"), table.key_count() as u64);
    assert_eq!(snap.counter("index.postings"), table.posting_count() as u64);
    assert_eq!(snap.counter("index.entries"), table.entry_count() as u64);
    let occupancy = &snap.histograms["index.bucket_occupancy"];
    assert_eq!(occupancy.count, table.key_count() as u64);
    assert_eq!(occupancy.sum, table.posting_count() as u64);
    // The snapshot survives its own JSON round trip.
    let json = snap.to_json();
    let back = jem_obs::Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(back, snap);
}
