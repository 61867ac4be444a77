//! One differential oracle for every mapping driver.
//!
//! The paper defines a segment's answer one trial at a time (Algorithm 2,
//! lines 5–7): `Hits_r[t]` holds the subjects whose trial-`t` sketch
//! (Algorithm 1) shares a code with the segment's, and the best hit is the
//! subject found in the most trials, ties to the smaller id. [`Reference`]
//! computes exactly that from per-trial `BTreeSet` banks of every
//! subject's sketch, taken with the general kernel
//! ([`JemMapper::sketch_segment`]): each subject's trial mask, the same
//! masks restricted to any slot range ([`CodeFilter::slot_of`]), the full
//! ranking and the best hit. Every driver must equal it:
//!
//! * offline ([`check_offline`]) — `map_segments`; `map_segments_parallel`
//!   at 1, 2, 5, 13 and 64 workers; `map_segment_with` over one reused
//!   scratch and counter, and `map_segment` with fresh ones; `map_batch`
//!   in chunks of 3 with a running query id under `CodeFilter::all()` and
//!   a fully owned 16-slot filter; `map_segment_topk_with` at 1, 3 and
//!   `usize::MAX` against the full ranking; and the mappings of
//!   `AnchorPipeline::run_segments` at 1, 3 and 16 workers, whose PAF rows
//!   have no per-trial reference and must instead be identical across
//!   those worker counts;
//! * streamed ([`check_streamed`], simulated worlds only) — the reads as
//!   FASTQ bytes parsed into `SegmentBatches` and fed through the bounded
//!   queue by `map_batches_parallel` and `AnchorPipeline::run_batches` at
//!   1, 2, 5 and 16 workers, from the whole buffer and one byte per
//!   `read`; the pipeline's PAF rows must equal `run_segments`' over the
//!   collected segments;
//! * slot pieces ([`check_pieces`]) — `segment_partials` under pieces of a
//!   1-, 8- and 256-slot space: each piece equals the reference restricted
//!   to its slots, the pieces OR to the full masks, and `merge_partials`
//!   of the pieces gives the best hits;
//! * distributed ([`check_distributed`]) — `run_distributed_resilient` at
//!   p = 1, 4 and 16 without faults and at p = 2..5 under a random fault
//!   plan (it builds its index from a `MapperConfig`, so minimizer worlds
//!   only);
//! * served ([`check_served`], simulated worlds only) — `jem_serve::start`
//!   at 1 and 4 workers queried in chunks of 3, 7 and 64; `start_router`
//!   over 1, 2 and 4 shard servers that together own the slot space; and
//!   every shard's `map_segments_partial` against its reference masks.
//!
//! The worlds: random property worlds at trial counts straddling every
//! mask-word edge (1, 31, 32, 33, 64, 65) and reaching Fig. 6's 150, under
//! the minimizer and the closed-syncmer scheme, with an alien query and
//! sometimes a repeated subject (so best hits tie); and one simulated world
//! per scheme with more than `4 × BATCH_SEGMENTS` segments, so that every
//! worker count claims several batches.

use jem_anchor::{AnchorPipeline, Refiner};
use jem_core::parallel::BATCH_SEGMENTS;
use jem_core::{
    make_segments, map_batches_parallel, map_segments_parallel, run_distributed_resilient,
    CodeFilter, JemMapper, MapScratch, MapperConfig, Mapping, QuerySegment, ResilienceOptions,
    SegmentBatches,
};
use jem_index::SubjectId;
use jem_psim::{CostModel, ExecMode, FaultPlan};
use jem_seq::{RecordParser, SeqFormat, SeqRecord};
use jem_serve::{
    merge_partials, start_router, Client, RouterConfig, SegmentPartials, ServerConfig,
    ServerHandle, ShardRegistry, ShardSpec,
};
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
    HifiProfile,
};
use jem_sketch::SketchScheme;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};

/// One segment's colliding subjects, ascending, each with its non-zero
/// `⌈T/32⌉`-word trial mask.
type Masks = Vec<(SubjectId, Vec<u32>)>;

/// An index over `subjects` and the end segments of `reads`.
struct World {
    mapper: JemMapper,
    subjects: Vec<SeqRecord>,
    reads: Vec<SeqRecord>,
    segments: Vec<QuerySegment>,
}

impl World {
    fn new(
        subjects: Vec<SeqRecord>,
        reads: Vec<SeqRecord>,
        config: &MapperConfig,
        scheme: SketchScheme,
    ) -> Self {
        let mapper = JemMapper::build_with_scheme(&subjects, config, scheme);
        let segments = make_segments(&reads, config.ell);
        World {
            mapper,
            subjects,
            reads,
            segments,
        }
    }
}

/// The paper's answers, one trial at a time.
struct Reference {
    trials: usize,
    /// Bank `t`: each code of a trial-`t` subject sketch, with the
    /// subjects whose sketch holds it.
    banks: Vec<BTreeMap<u64, BTreeSet<SubjectId>>>,
    /// Per segment, its trial-`t` codes.
    queries: Vec<Vec<Vec<u64>>>,
    /// Per segment, its full masks.
    full: Vec<Masks>,
    /// Per segment, every colliding subject with its trial count, more
    /// trials first, then the smaller id (`jem_index::rank_order`'s rule).
    ranking: Vec<Vec<(SubjectId, u32)>>,
    /// The best hit of every segment that has one, in `Mapping`'s order.
    mappings: Vec<Mapping>,
}

impl Reference {
    fn new(world: &World) -> Self {
        let mapper = &world.mapper;
        let trials = mapper.config().trials;
        let mut banks = vec![BTreeMap::<u64, BTreeSet<SubjectId>>::new(); trials];
        for (s, subject) in world.subjects.iter().enumerate() {
            let sketch = mapper.sketch_segment(&subject.seq);
            for (bank, codes) in banks.iter_mut().zip(&sketch.per_trial) {
                for &code in codes {
                    bank.entry(code).or_default().insert(s as SubjectId);
                }
            }
        }
        let mut reference = Reference {
            trials,
            banks,
            queries: world
                .segments
                .iter()
                .map(|seg| mapper.sketch_segment(&seg.seq).per_trial)
                .collect(),
            full: Vec::new(),
            ranking: Vec::new(),
            mappings: Vec::new(),
        };
        for (i, seg) in world.segments.iter().enumerate() {
            let masks = reference.masks(i, &CodeFilter::all());
            let mut ranking: Vec<(SubjectId, u32)> = masks
                .iter()
                .map(|(s, mask)| (*s, mask.iter().map(|w| w.count_ones()).sum()))
                .collect();
            ranking.sort_by_key(|&(s, hits)| (std::cmp::Reverse(hits), s));
            if let Some(&(subject, hits)) = ranking.first() {
                reference.mappings.push(Mapping {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    subject,
                    hits,
                });
            }
            reference.full.push(masks);
            reference.ranking.push(ranking);
        }
        let entries: usize = reference
            .banks
            .iter()
            .flat_map(|b| b.values())
            .map(BTreeSet::len)
            .sum();
        assert_eq!(mapper.table().entry_count(), entries, "table entries");
        reference
    }

    /// Segment `i`'s masks through the codes whose slot in `filter`'s
    /// space lies in its owned range.
    fn masks(&self, i: usize, filter: &CodeFilter) -> Masks {
        let owned = filter.owned();
        let mut masks = BTreeMap::<SubjectId, Vec<u32>>::new();
        for (t, (bank, codes)) in self.banks.iter().zip(&self.queries[i]).enumerate() {
            for code in codes
                .iter()
                .filter(|&&c| owned.contains(&filter.slot_of(c)))
            {
                for &s in bank.get(code).into_iter().flatten() {
                    let mask = masks
                        .entry(s)
                        .or_insert_with(|| vec![0; self.trials.div_ceil(32)]);
                    mask[t / 32] |= 1 << (t % 32);
                }
            }
        }
        masks.into_iter().collect()
    }

    fn best(&self, i: usize) -> Option<(SubjectId, u32)> {
        self.ranking[i].first().copied()
    }
}

/// The in-process drivers, stage 2's included.
fn check_offline(w: &World, r: &Reference) {
    let mapper = &w.mapper;
    assert_eq!(mapper.map_segments(&w.segments), r.mappings, "map_segments");
    for workers in [1, 2, 5, 13, 64] {
        assert_eq!(
            map_segments_parallel(mapper, &w.segments, workers),
            r.mappings,
            "map_segments_parallel at {workers} workers"
        );
    }
    let mut counter = mapper.new_counter();
    let mut scratch = MapScratch::new();
    for (i, seg) in w.segments.iter().enumerate() {
        assert_eq!(
            mapper.map_segment_with(&seg.seq, i as u64, &mut counter, &mut scratch),
            r.best(i),
            "map_segment_with, reused scratch and counter, segment {i}"
        );
        assert_eq!(
            mapper.map_segment(&seg.seq, 0, &mut mapper.new_counter()),
            r.best(i),
            "map_segment, fresh scratch and counter, segment {i}"
        );
        for x in [1, 3, usize::MAX] {
            let top = &r.ranking[i][..x.min(r.ranking[i].len())];
            assert_eq!(
                mapper.map_segment_topk_with(&seg.seq, x, &mut scratch),
                top,
                "map_segment_topk_with({x}), segment {i}"
            );
        }
    }
    for filter in [CodeFilter::all(), CodeFilter::slots(16, 0..16)] {
        let mut counter = mapper.new_counter();
        let mut out = Vec::new();
        for (c, chunk) in w.segments.chunks(3).enumerate() {
            let first_qid = 3 * c as u64;
            mapper.map_batch(
                chunk,
                first_qid,
                &filter,
                &mut counter,
                &mut scratch,
                &mut out,
            );
        }
        assert_eq!(out, r.mappings, "map_batch in chunks of 3 under {filter:?}");
    }
    let refiner = Refiner::new(mapper.scheme(), mapper.config().k, w.subjects.clone());
    let pipeline = AnchorPipeline::new(mapper, &refiner);
    let one = pipeline.run_segments(&w.segments, 1);
    assert_eq!(one.mappings, r.mappings, "AnchorPipeline::run_segments");
    for workers in [3, 16] {
        assert_eq!(
            pipeline.run_segments(&w.segments, workers),
            one,
            "AnchorPipeline::run_segments at {workers} workers against 1"
        );
    }
}

/// Returns one byte per `read` call, so a parser over it lags far behind
/// the mapping workers it feeds.
struct OneByteReader<'a>(&'a [u8]);

impl std::io::Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&byte, rest)), Some(slot)) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// The streamed driver `jem map` runs: the reads as FASTQ bytes, parsed
/// into [`SegmentBatches`] on the calling thread and fed through the
/// bounded queue to 1, 2, 5 and 16 workers — from the whole buffer and
/// through a reader that yields one byte per call. The mappings must
/// equal the reference, and the fused pipeline's PAF rows
/// `AnchorPipeline::run_segments`' over the collected segments.
fn check_streamed(w: &World, r: &Reference) {
    let mut fastq = Vec::new();
    for read in &w.reads {
        let quality = "I".repeat(read.seq.len());
        fastq.extend(format!("@{}\n", read.id).bytes());
        fastq.extend(&read.seq);
        fastq.extend(format!("\n+\n{quality}\n").bytes());
    }
    let ell = w.mapper.config().ell;
    let parse = |by_byte: bool| {
        let reader: Box<dyn BufRead + '_> = if by_byte {
            Box::new(BufReader::new(OneByteReader(&fastq)))
        } else {
            Box::new(&fastq[..])
        };
        SegmentBatches::new(RecordParser::new(reader, SeqFormat::Fastq), ell)
    };
    let ids: Vec<&str> = w.reads.iter().map(|read| read.id.as_str()).collect();
    let refiner = Refiner::new(w.mapper.scheme(), w.mapper.config().k, w.subjects.clone());
    let pipeline = AnchorPipeline::new(&w.mapper, &refiner);
    let paf = pipeline.run_segments(&w.segments, 1).paf;
    for (how, by_byte) in [("whole", false), ("one byte a read", true)] {
        for workers in [1, 2, 5, 16] {
            let mut batches = parse(by_byte);
            let mappings = map_batches_parallel(&w.mapper, &mut batches, workers).unwrap();
            assert_eq!(mappings, r.mappings, "streamed {how} at {workers} workers");
            assert_eq!(batches.into_ids(), ids, "streamed {how}: read ids");
            let mut batches = parse(by_byte);
            let out = pipeline.run_batches(&mut batches, workers).unwrap();
            assert_eq!(
                out.mappings, r.mappings,
                "streamed pipeline, {how}, {workers} workers"
            );
            assert_eq!(out.paf, paf, "streamed PAF rows, {how}, {workers} workers");
        }
    }
}

/// A shard's answer: `segment_partials` under pieces of a slot space.
fn check_pieces(w: &World, r: &Reference) {
    let mapper = &w.mapper;
    // Cut the 256-slot space around a slot no table code hashes to, when
    // there is one: that piece holds no code.
    let space = CodeFilter::slots(256, 0..256);
    let mut occupied = BTreeSet::new();
    mapper.table().for_each_code(|code, _| {
        occupied.insert(space.slot_of(code));
    });
    let cuts_256 = match (0..256).find(|s| !occupied.contains(s)) {
        Some(empty) => vec![0, empty, empty + 1, 256],
        None => vec![0, 3, 64, 256],
    };
    for (n_slots, cuts) in [(1, vec![0, 1]), (8, vec![0, 2, 3, 8]), (256, cuts_256)] {
        let pieces: Vec<CodeFilter> = cuts
            .windows(2)
            .filter(|c| c[0] < c[1])
            .map(|c| CodeFilter::slots(n_slots, c[0]..c[1]))
            .collect();
        let mut scratch = MapScratch::new();
        let mut per_piece = vec![Vec::new(); pieces.len()];
        for (i, seg) in w.segments.iter().enumerate() {
            let mut union = BTreeMap::<SubjectId, Vec<u32>>::new();
            for (piece, partials) in pieces.iter().zip(&mut per_piece) {
                let hits = mapper.segment_partials(&seg.seq, piece, &mut scratch);
                assert_eq!(
                    hits,
                    r.masks(i, piece),
                    "segment_partials under {piece:?}, segment {i}"
                );
                for (s, mask) in &hits {
                    let or = union.entry(*s).or_insert_with(|| vec![0; mask.len()]);
                    or.iter_mut().zip(mask).for_each(|(o, m)| *o |= m);
                }
                partials.push(SegmentPartials {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    trials: r.trials,
                    hits,
                });
            }
            let union: Masks = union.into_iter().collect();
            assert_eq!(
                union, r.full[i],
                "{n_slots}-slot pieces OR to the full masks, segment {i}"
            );
        }
        assert_eq!(
            merge_partials(&w.segments, &per_piece).unwrap(),
            r.mappings,
            "merge_partials of {n_slots}-slot pieces"
        );
    }
}

/// The simulated S1–S4 driver, clean and under a random fault plan.
fn check_distributed(w: &World, r: &Reference, fault_seed: u64) {
    let run = |p, opts: &ResilienceOptions| {
        run_distributed_resilient(
            &w.subjects,
            &w.reads,
            w.mapper.config(),
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            opts,
        )
    };
    for p in [1, 4, 16] {
        let outcome = run(p, &ResilienceOptions::default()).expect("a fault-free run cannot fail");
        assert_eq!(
            outcome.mappings, r.mappings,
            "run_distributed_resilient at p = {p}"
        );
    }
    for p in 2..6 {
        let seed = fault_seed.wrapping_add(p as u64);
        let steps = ["input load", "subject sketch", "query map"];
        let crashes = 1 + seed as usize % (p - 1);
        let plan = FaultPlan::random(seed, p, &steps, crashes, seed as usize % 3);
        let opts = ResilienceOptions {
            plan: plan.clone(),
            ..Default::default()
        };
        let outcome = run(p, &opts).expect("a rank survives every plan");
        assert_eq!(
            outcome.mappings, r.mappings,
            "run_distributed_resilient at p = {p} under {plan}"
        );
    }
}

/// The served tier: whole servers, routed shard servers, shard partials.
fn check_served(w: &World, r: &Reference) {
    let serve = |filter: CodeFilter, workers: usize| {
        let config = ServerConfig {
            workers,
            ..Default::default()
        };
        jem_serve::start(w.mapper.clone(), filter, "127.0.0.1:0", &config).unwrap()
    };
    let map_in_chunks = |addr: String, chunk: usize| -> Vec<Mapping> {
        let client = Client::new(addr);
        let answers = w
            .segments
            .chunks(chunk)
            .map(|part| client.map_segments(part).unwrap());
        answers.flatten().collect()
    };
    for workers in [1, 4] {
        let server = serve(CodeFilter::all(), workers);
        for chunk in [3, 7, 64] {
            assert_eq!(
                map_in_chunks(server.addr().to_string(), chunk),
                r.mappings,
                "jem_serve::start at {workers} workers, chunks of {chunk}"
            );
        }
        server.shutdown();
    }
    // 1, 2 and 4 shards cutting an 8-slot space.
    let n_slots = 8;
    for cuts in [vec![0, 8], vec![0, 3, 8], vec![0, 1, 2, 5, 8]] {
        let filters: Vec<CodeFilter> = cuts
            .windows(2)
            .map(|c| CodeFilter::slots(n_slots, c[0]..c[1]))
            .collect();
        let shards: Vec<ServerHandle> = filters.iter().map(|f| serve(f.clone(), 2)).collect();
        let mut specs = Vec::new();
        for (shard, filter) in shards.iter().zip(&filters) {
            let client = Client::new(shard.addr().to_string());
            let partials = client.map_segments_partial(&w.segments).unwrap();
            assert_eq!(partials.len(), w.segments.len());
            for (i, p) in partials.iter().enumerate() {
                assert_eq!(
                    p.hits,
                    r.masks(i, filter),
                    "map_segments_partial under {filter:?}, segment {i}"
                );
            }
            specs.push(ShardSpec {
                slots: filter.owned(),
                addr: shard.addr().to_string(),
                replica: None,
            });
        }
        let registry = ShardRegistry::new(n_slots, specs).unwrap();
        let router = start_router(registry, "127.0.0.1:0", &RouterConfig::default()).unwrap();
        assert_eq!(
            map_in_chunks(router.addr().to_string(), 7),
            r.mappings,
            "start_router over {} shards",
            shards.len()
        );
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }
}

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), min..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_worlds_match_the_reference(
        trials in prop::sample::select(vec![1usize, 31, 32, 33, 64, 65, 150]),
        (syncmer, twin) in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
        subjects in prop::collection::vec(dna(150, 700), 1..6),
        picks in prop::collection::vec((0usize..6, 0usize..500, 60usize..460), 1..8),
        alien in dna(50, 300),
    ) {
        let config = MapperConfig { k: 12, w: 6, trials, ell: 200, seed };
        let scheme = if syncmer {
            SketchScheme::ClosedSyncmer { s: 8 }
        } else {
            SketchScheme::Minimizer { w: config.w }
        };
        let mut subjects = subjects;
        if twin {
            subjects.push(subjects[0].clone());
        }
        // Reads: windows of the subjects (many collisions) and one alien.
        let mut reads: Vec<Vec<u8>> = picks
            .iter()
            .map(|&(i, start, len)| {
                let s = &subjects[i % subjects.len()];
                let start = start % s.len();
                s[start..(start + len).min(s.len())].to_vec()
            })
            .collect();
        reads.push(alien);
        let records = |prefix: &str, seqs: Vec<Vec<u8>>| -> Vec<SeqRecord> {
            seqs.into_iter()
                .enumerate()
                .map(|(i, s)| SeqRecord::new(format!("{prefix}{i}"), s))
                .collect()
        };
        let world = World::new(records("c", subjects), records("r", reads), &config, scheme);
        let reference = Reference::new(&world);
        check_offline(&world, &reference);
        check_pieces(&world, &reference);
        if !syncmer {
            check_distributed(&world, &reference, seed);
        }
    }
}

/// A simulated genome's contigs and HiFi reads, with more than four
/// batches' worth of end segments.
fn simulated_world(scheme: SketchScheme) -> World {
    let genome = Genome::random(40_000, 0.5, 61);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 62);
    let profile = HifiProfile {
        coverage: 6.0,
        mean_len: 1_200,
        std_len: 300,
        min_len: 400,
        error_rate: 0.002,
    };
    let reads = read_records(&simulate_hifi(&genome, &profile, 63));
    let config = MapperConfig {
        k: 12,
        w: 10,
        trials: 12,
        ell: 300,
        seed: 7,
    };
    let world = World::new(contig_records(&contigs), reads, &config, scheme);
    assert!(
        world.segments.len() > 4 * BATCH_SEGMENTS,
        "{} segments",
        world.segments.len()
    );
    world
}

#[test]
fn simulated_minimizer_world_matches_the_reference() {
    let world = simulated_world(SketchScheme::Minimizer { w: 10 });
    let reference = Reference::new(&world);
    check_offline(&world, &reference);
    check_streamed(&world, &reference);
    check_pieces(&world, &reference);
    check_distributed(&world, &reference, 42);
    check_served(&world, &reference);
}

#[test]
fn simulated_syncmer_world_matches_the_reference() {
    let world = simulated_world(SketchScheme::ClosedSyncmer { s: 8 });
    let reference = Reference::new(&world);
    check_offline(&world, &reference);
    check_streamed(&world, &reference);
    check_pieces(&world, &reference);
    check_served(&world, &reference);
}
