//! The end-to-end driver: stage-1 sketch mapping fused with stage-2
//! refinement.
//!
//! [`AnchorPipeline`] runs both stages off a single sketch pass per
//! segment: stage 2 refines from the position list stage 1 winnowed, and
//! the probe kernel's hit counts feed a candidate ranking whose top entry
//! is the best-hit [`Mapping`] (the one ranking rule,
//! [`jem_index::rank_order`]: count descending, smaller id on ties), and
//! whose top-x entries form the stage-2 shortlist. The TSV path is thus
//! strictly additive: the `mappings` of [`AnchorPipeline::run_segments`]
//! equal [`JemMapper::map_segments`]' at every worker count, which the
//! workspace's differential oracle (`tests/oracle.rs`) pins. Work is
//! spread by the same segment-batch driver ([`jem_core::run_batches`]),
//! fed from a slice or, in `jem map --paf`, straight from the parser.

use crate::paf::PafRow;
use crate::refine::{RefineScratch, RefineStats, Refiner};
use jem_core::{run_batches, slice_batches, JemMapper, MapScratch, Mapping, QuerySegment};
use jem_index::SubjectId;
use std::borrow::Cow;

/// Both stages' output for one read set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnchorOutput {
    /// Stage-1 best-hit mappings — identical to [`JemMapper::map_segments`]'.
    pub mappings: Vec<Mapping>,
    /// Stage-2 coordinate placements, one per refinable segment, in
    /// `(read_idx, end)` order.
    pub paf: Vec<PafRow>,
}

/// Per-thread working state for the fused driver.
#[derive(Clone, Debug, Default)]
struct PipelineScratch {
    map: MapScratch,
    ranked: Vec<(SubjectId, u32)>,
    refine: RefineScratch,
}

/// The fused stage-1 + stage-2 mapping pipeline.
#[derive(Debug)]
pub struct AnchorPipeline<'a> {
    mapper: &'a JemMapper,
    refiner: &'a Refiner,
}

impl<'a> AnchorPipeline<'a> {
    /// Pair a stage-1 index with a stage-2 refiner.
    ///
    /// # Panics
    /// Panics when the refiner's subject set does not match the index's
    /// name table — refinement coordinates would silently refer to the
    /// wrong contigs otherwise — or when its scheme or k differ from the
    /// index's: stage 2 refines from stage 1's position list, which is
    /// only its own under the same scheme and k.
    pub fn new(mapper: &'a JemMapper, refiner: &'a Refiner) -> Self {
        assert!(
            refiner.scheme() == mapper.scheme() && refiner.k() == mapper.config().k,
            "refiner extracts {:?} at k = {} but the index {:?} at k = {}",
            refiner.scheme(),
            refiner.k(),
            mapper.scheme(),
            mapper.config().k
        );
        assert_eq!(
            refiner.n_subjects(),
            mapper.n_subjects(),
            "refiner holds {} subjects but the index names {}",
            refiner.n_subjects(),
            mapper.n_subjects()
        );
        for (id, name) in refiner.subject_names().enumerate() {
            assert_eq!(
                name,
                mapper.subject_name(id as SubjectId),
                "subject {id} name mismatch between index and refiner"
            );
        }
        AnchorPipeline { mapper, refiner }
    }

    /// Stage 1 for one segment: sketch, probe, and rank every candidate
    /// into `scratch.ranked`. The top entry is the best hit.
    fn rank_candidates(&self, seg: &[u8], scratch: &mut PipelineScratch) {
        self.mapper
            .rank_segment_into(seg, &mut scratch.map, &mut scratch.ranked);
    }

    /// Run both stages over one segment.
    fn process_segment(
        &self,
        seg: &QuerySegment,
        scratch: &mut PipelineScratch,
        stats: &mut RefineStats,
    ) -> (Option<Mapping>, Option<PafRow>) {
        self.rank_candidates(&seg.seq, scratch);
        let Some(&(subject, hits)) = scratch.ranked.first() else {
            return (None, None);
        };
        let mapping = Mapping {
            read_idx: seg.read_idx,
            end: seg.end,
            subject,
            hits,
        };
        let row = self
            .refiner
            .refine_from_list(
                &seg.seq,
                scratch.map.minimizers(),
                &scratch.ranked,
                &mut scratch.refine,
                stats,
            )
            .map(|p| {
                PafRow::from_placement(
                    &Mapping {
                        subject: p.subject,
                        hits: p.hits,
                        ..mapping
                    },
                    &p,
                    seg.seq.len(),
                    self.mapper.config().k,
                )
            });
        (Some(mapping), row)
    }

    /// Run both stages over prepared segments on `workers` threads
    /// ([`AnchorPipeline::run_batches`] over [`slice_batches`]), output
    /// normalized to the sequential order.
    pub fn run_segments(&self, segments: &[QuerySegment], workers: usize) -> AnchorOutput {
        let Ok(out) = self.run_batches(slice_batches(segments), workers);
        out
    }

    /// Run both stages over the segments `batches` yields on `workers`
    /// threads fed through one bounded queue ([`jem_core::run_batches`]),
    /// output normalized to the sequential order; or the feed's first
    /// error.
    pub fn run_batches<'s, B, E>(
        &self,
        batches: impl IntoIterator<Item = Result<B, E>>,
        workers: usize,
    ) -> Result<AnchorOutput, E>
    where
        B: Into<Cow<'s, [QuerySegment]>>,
    {
        let rec = jem_obs::recorder();
        let _span = jem_obs::Span::enter(rec, "anchor/run");
        let parts = run_batches(
            batches,
            workers,
            || {
                (
                    PipelineScratch::default(),
                    RefineStats::default(),
                    AnchorOutput::default(),
                    0usize,
                )
            },
            |(scratch, stats, out, seen), _, batch| {
                for seg in batch {
                    let (mapping, row) = self.process_segment(seg, scratch, stats);
                    out.mappings.extend(mapping);
                    out.paf.extend(row);
                }
                *seen += batch.len();
            },
        )?;
        let mut stats = RefineStats::default();
        let mut out = AnchorOutput::default();
        let mut segments = 0;
        for (_, part_stats, part, seen) in parts {
            out.mappings.extend(part.mappings);
            out.paf.extend(part.paf);
            stats.merge(&part_stats);
            segments += seen;
        }
        // Total orders, at most one mapping and one row per (read_idx, end):
        // the sequential order, whatever the worker count.
        out.mappings.sort_unstable();
        out.paf.sort_unstable();
        Self::flush_metrics(rec, segments, &stats, &out);
        Ok(out)
    }

    fn flush_metrics(
        rec: &dyn jem_obs::Recorder,
        segments: usize,
        stats: &RefineStats,
        out: &AnchorOutput,
    ) {
        if !rec.enabled() {
            return;
        }
        rec.add("anchor.input_segments", segments as u64);
        rec.add("anchor.mapped", out.mappings.len() as u64);
        stats.flush(rec);
        for row in &out.paf {
            rec.observe("anchor.chain_anchors", u64::from(row.n_anchors));
            rec.observe("anchor.mapq", u64::from(row.mapq));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_core::{make_segments, MapperConfig};
    use jem_seq::SeqRecord;
    use jem_sim::{
        contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
        HifiProfile,
    };

    fn world() -> (Vec<SeqRecord>, Vec<SeqRecord>, MapperConfig) {
        let genome = Genome::random(60_000, 0.5, 99);
        let contigs = contig_records(&fragment_contigs(
            &genome,
            &ContigProfile {
                error_rate: 0.0,
                ..ContigProfile::small_genome()
            },
            1,
        ));
        let profile = HifiProfile {
            coverage: 2.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = read_records(&simulate_hifi(&genome, &profile, 5));
        let config = MapperConfig {
            k: 12,
            w: 10,
            trials: 12,
            ell: 300,
            seed: 7,
        };
        (contigs, reads, config)
    }

    #[test]
    fn rows_are_well_formed() {
        let (contigs, reads, config) = world();
        let mapper = JemMapper::build(&contigs, &config);
        let refiner = Refiner::new(mapper.scheme(), config.k, contigs.clone());
        let segments = make_segments(&reads, config.ell);
        let out = AnchorPipeline::new(&mapper, &refiner).run_segments(&segments, 1);
        for row in &out.paf {
            assert!(row.q_start < row.q_end, "{row:?}");
            assert!(row.q_end <= row.q_len, "{row:?}");
            assert!(row.t_start < row.t_end, "{row:?}");
            assert!(row.t_end <= row.t_len, "{row:?}");
            assert!(row.matches <= row.block, "{row:?}");
            assert!(row.mapq <= 60, "{row:?}");
            assert!((row.subject as usize) < mapper.n_subjects());
        }
        // Clean simulated reads over near-complete contig coverage should
        // mostly refine with confident quality.
        let confident = out.paf.iter().filter(|r| r.mapq >= 30).count();
        assert!(
            confident * 2 > out.paf.len(),
            "only {}/{} rows with mapq >= 30",
            confident,
            out.paf.len()
        );
    }

    #[test]
    fn empty_reads_produce_empty_output() {
        let (contigs, _, config) = world();
        let mapper = JemMapper::build(&contigs, &config);
        let refiner = Refiner::new(mapper.scheme(), config.k, contigs.clone());
        let pipeline = AnchorPipeline::new(&mapper, &refiner);
        for workers in [1, 4] {
            assert_eq!(pipeline.run_segments(&[], workers), AnchorOutput::default());
        }
    }

    #[test]
    #[should_panic(expected = "subjects")]
    fn mismatched_subject_sets_are_rejected() {
        let (contigs, _, config) = world();
        let mapper = JemMapper::build(&contigs, &config);
        let refiner = Refiner::new(mapper.scheme(), config.k, contigs[..1].to_vec());
        let _ = AnchorPipeline::new(&mapper, &refiner);
    }

    #[test]
    #[should_panic(expected = "refiner extracts")]
    fn mismatched_k_is_rejected() {
        let (contigs, _, config) = world();
        let mapper = JemMapper::build(&contigs, &config);
        let refiner = Refiner::new(mapper.scheme(), config.k + 1, contigs.clone());
        let _ = AnchorPipeline::new(&mapper, &refiner);
    }

    #[test]
    #[should_panic(expected = "refiner extracts")]
    fn mismatched_scheme_is_rejected() {
        let (contigs, _, config) = world();
        let mapper = JemMapper::build(&contigs, &config);
        let scheme = jem_sketch::SketchScheme::Minimizer { w: config.w + 1 };
        let refiner = Refiner::new(scheme, config.k, contigs.clone());
        let _ = AnchorPipeline::new(&mapper, &refiner);
    }
}
