//! Stage-2 integration: the anchor pipeline must be strictly additive over
//! the stage-1 drivers (byte-identical TSV), its PAF output must survive
//! the eval parser's structural validation, and the placements must score
//! accurately against simulated truth coordinates.

use jem_anchor::{write_paf, AnchorPipeline, Refiner};
use jem_core::{
    default_workers, make_segments, map_segments_parallel, write_mappings_tsv, JemMapper,
    MapperConfig,
};
use jem_eval::{parse_paf, PafAccuracy};
use jem_seq::SeqRecord;
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, Contig, ContigProfile, Genome,
    HifiProfile, SegmentEnd, SimulatedRead,
};

struct World {
    contigs: Vec<Contig>,
    reads: Vec<SimulatedRead>,
    subjects: Vec<SeqRecord>,
    query_reads: Vec<SeqRecord>,
    config: MapperConfig,
}

fn world(seed: u64) -> World {
    let genome = Genome::random(80_000, 0.5, seed);
    let contigs = fragment_contigs(
        &genome,
        &ContigProfile {
            error_rate: 0.0,
            ..ContigProfile::small_genome()
        },
        seed + 1,
    );
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 2.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        },
        seed + 2,
    );
    let subjects = contig_records(&contigs);
    let query_reads = read_records(&reads);
    World {
        contigs,
        reads,
        subjects,
        query_reads,
        config: MapperConfig {
            k: 12,
            w: 10,
            trials: 12,
            ell: 300,
            seed: 7,
        },
    }
}

fn tsv_bytes(mappings: &[jem_core::Mapping], reads: &[SeqRecord], mapper: &JemMapper) -> Vec<u8> {
    let mut buf = Vec::new();
    write_mappings_tsv(&mut buf, mappings, reads, mapper).unwrap();
    buf
}

#[test]
fn tsv_output_is_byte_identical_with_and_without_stage2() {
    let w = world(41);
    let mapper = JemMapper::build(&w.subjects, &w.config);
    let refiner = Refiner::new(mapper.scheme(), w.config.k, w.subjects.clone());
    let pipeline = AnchorPipeline::new(&mapper, &refiner);
    let segments = make_segments(&w.query_reads, w.config.ell);

    // One worker: the fused driver's stage-1 view vs stage 1 alone.
    let stage1 = mapper.map_reads(&w.query_reads);
    let fused = pipeline.run_segments(&segments, 1);
    assert_eq!(
        tsv_bytes(&fused.mappings, &w.query_reads, &mapper),
        tsv_bytes(&stage1, &w.query_reads, &mapper),
        "stage 2 must not perturb the stage-1 TSV byte stream"
    );
    assert!(!fused.paf.is_empty(), "no segment refined at all");

    // Parallel: same equivalence against the parallel stage-1 driver.
    let workers = default_workers();
    let stage1_par = map_segments_parallel(&mapper, &segments, workers);
    let fused_par = pipeline.run_segments(&segments, workers);
    assert_eq!(
        tsv_bytes(&fused_par.mappings, &w.query_reads, &mapper),
        tsv_bytes(&stage1_par, &w.query_reads, &mapper),
    );
    // And the parallel driver's full output matches the one-worker run.
    assert_eq!(fused_par, fused);
}

#[test]
fn paf_output_parses_and_scores_accurately_against_truth() {
    let w = world(42);
    let mapper = JemMapper::build(&w.subjects, &w.config);
    let refiner = Refiner::new(mapper.scheme(), w.config.k, w.subjects.clone());
    let segments = make_segments(&w.query_reads, w.config.ell);
    let out = AnchorPipeline::new(&mapper, &refiner).run_segments(&segments, 1);

    // Serialize and re-parse: every emitted line must clear the eval
    // parser's structural validation (column count, strand, intervals).
    let mut buf = Vec::new();
    write_paf(&mut buf, &out.paf, &w.query_reads, mapper.subject_names()).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let records = parse_paf(&text).unwrap_or_else(|e| panic!("invalid PAF emitted: {e}"));
    assert_eq!(records.len(), out.paf.len());

    // Truth coordinates exactly as `jem simulate` writes them.
    let mut queries = Vec::new();
    for r in &w.reads {
        let (s, e) = r.segment_ref_range(SegmentEnd::Prefix, w.config.ell);
        queries.push((format!("{}/prefix", r.id), (s as u64, e as u64)));
        if r.len() > w.config.ell {
            let (s, e) = r.segment_ref_range(SegmentEnd::Suffix, w.config.ell);
            queries.push((format!("{}/suffix", r.id), (s as u64, e as u64)));
        }
    }
    let coords: Vec<(String, (u64, u64))> = w
        .contigs
        .iter()
        .map(|c| (c.id.clone(), (c.ref_start as u64, c.ref_end as u64)))
        .collect();

    let acc = PafAccuracy::classify(&records, &queries, &coords, w.config.k as u64, 100);
    assert_eq!(acc.unknown_query, 0, "every qname must join the truth");
    assert!(
        acc.accuracy() > 0.8,
        "coordinate accuracy {:.3} too low: {acc:?}",
        acc.accuracy()
    );
    assert!(
        acc.mean_offset() < 50.0,
        "mean start offset {:.1} too loose: {acc:?}",
        acc.mean_offset()
    );
}
