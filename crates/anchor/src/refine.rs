//! The stage-2 refiner: shortlist → anchors → windows → chains → placement.
//!
//! [`Refiner`] owns the candidate contig sequences and a lazy cache of
//! their [`TargetIndex`]es; [`Refiner::refine_segment`] turns one end
//! segment plus its stage-1 candidate shortlist into the best coordinate
//! [`Placement`], scored against the second-best chain anywhere in the
//! shortlist (the MAPQ margin). It is deliberately decoupled from
//! [`jem_core::JemMapper`] so the serve client can refine against local
//! subject sequences using only the server's advertised config and scheme.

use crate::anchor::{collect_anchors, occurrence_is_forward, Anchor, TargetIndex};
use crate::chain::{chain_anchors, Chain, ChainScratch};
use crate::filter::{filter_dominated, FilterScratch, Window};
use jem_index::SubjectId;
use jem_seq::SeqRecord;
use jem_sketch::{Minimizer, SketchScheme, WinnowScratch};
use std::sync::OnceLock;

/// Stage-2 tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineParams {
    /// How many stage-1 candidates (top-x by trial hits) to refine.
    pub top_candidates: usize,
    /// Dominance-filter separation as a fraction of the window length:
    /// windows closer than `sep = len × separation_frac` compete.
    pub separation_frac: f64,
    /// Minimum chained anchors for a placement to be reported.
    pub min_chain_anchors: u32,
}

impl Default for RefineParams {
    fn default() -> Self {
        RefineParams {
            top_candidates: 5,
            separation_frac: 0.5,
            min_chain_anchors: 2,
        }
    }
}

/// The best refined placement of one end segment, plus the evidence the
/// MAPQ model needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Mapped subject (contig) id.
    pub subject: SubjectId,
    /// True when the segment maps to the subject's reverse strand.
    pub reverse: bool,
    /// Query start on the segment's own forward orientation (0-based).
    pub q_start: u32,
    /// Query end (exclusive).
    pub q_end: u32,
    /// Target start (0-based).
    pub t_start: u32,
    /// Target end (exclusive).
    pub t_end: u32,
    /// Target length in bases.
    pub t_len: u32,
    /// Anchors in the best chain — the primary chain score (`s1`).
    pub n_anchors: u32,
    /// Best competing chain score anywhere in the shortlist (`s2`).
    pub second: u32,
    /// Chains evaluated across all candidates, strands and windows.
    pub n_chains: u32,
    /// Stage-1 trial hits of the chosen subject.
    pub hits: u32,
}

/// Per-run counters flushed to `jem-obs` by the drivers (accumulated
/// locally so refinement adds no per-segment synchronization).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Segments refined (had a non-empty shortlist).
    pub segments: u64,
    /// Candidate contigs examined.
    pub candidates: u64,
    /// Anchors produced by the position join.
    pub anchors: u64,
    /// Candidate windows swept.
    pub windows: u64,
    /// Windows surviving the dominance filter.
    pub windows_kept: u64,
    /// Chains computed over surviving windows.
    pub chains: u64,
    /// Placements reported (best chain ≥ `min_chain_anchors`).
    pub placed: u64,
}

impl RefineStats {
    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &RefineStats) {
        self.segments += other.segments;
        self.candidates += other.candidates;
        self.anchors += other.anchors;
        self.windows += other.windows;
        self.windows_kept += other.windows_kept;
        self.chains += other.chains;
        self.placed += other.placed;
    }

    /// Flush into the recorder under the `anchor.*` counter namespace.
    pub fn flush(&self, rec: &dyn jem_obs::Recorder) {
        rec.add("anchor.segments", self.segments);
        rec.add("anchor.candidates", self.candidates);
        rec.add("anchor.anchors", self.anchors);
        rec.add("anchor.windows", self.windows);
        rec.add("anchor.windows_kept", self.windows_kept);
        rec.add("anchor.chains", self.chains);
        rec.add("anchor.placed", self.placed);
    }
}

/// Reusable buffers for [`Refiner::refine_segment`] — one per thread, warm
/// after the first segment.
#[derive(Clone, Debug, Default)]
pub struct RefineScratch {
    winnow: WinnowScratch,
    query_mins: Vec<Minimizer>,
    query_fwd: Vec<bool>,
    fwd: Vec<Anchor>,
    rev: Vec<Anchor>,
    windows: Vec<Window>,
    survivors: Vec<Window>,
    filter: FilterScratch,
    chain: ChainScratch,
}

impl RefineScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stage-2 refinement over a subject set.
#[derive(Debug)]
pub struct Refiner {
    scheme: SketchScheme,
    k: usize,
    params: RefineParams,
    subjects: Vec<SeqRecord>,
    /// One lazily built position index per subject.
    cache: Vec<OnceLock<TargetIndex>>,
}

impl Refiner {
    /// Build a refiner over `subjects`, sketching with the *index's* scheme
    /// and k so anchors share the coordinate system of the stage-1
    /// collisions. No work happens up front: target indexes are built
    /// lazily per shortlisted contig.
    ///
    /// # Panics
    /// Panics when `scheme`/`k` are invalid (the same validation the
    /// mapping index applies at build time).
    pub fn new(scheme: SketchScheme, k: usize, subjects: Vec<SeqRecord>) -> Self {
        Self::with_params(scheme, k, subjects, RefineParams::default())
    }

    /// [`Refiner::new`] with explicit [`RefineParams`].
    pub fn with_params(
        scheme: SketchScheme,
        k: usize,
        subjects: Vec<SeqRecord>,
        params: RefineParams,
    ) -> Self {
        scheme.validate(k).expect("invalid sketch scheme");
        assert!(params.top_candidates >= 1, "top_candidates must be >= 1");
        assert!(
            params.separation_frac.is_finite() && params.separation_frac >= 0.0,
            "separation_frac must be finite and non-negative"
        );
        let cache = subjects.iter().map(|_| OnceLock::new()).collect();
        Refiner {
            scheme,
            k,
            params,
            subjects,
            cache,
        }
    }

    /// The refinement parameters in effect.
    pub fn params(&self) -> &RefineParams {
        &self.params
    }

    /// Subject names, indexed by [`SubjectId`] (for validating against an
    /// index's name table and for PAF target names).
    pub fn subject_names(&self) -> impl Iterator<Item = &str> {
        self.subjects.iter().map(|s| s.id.as_str())
    }

    /// Number of subjects held.
    pub fn n_subjects(&self) -> usize {
        self.subjects.len()
    }

    /// The position index of `subject`, built on first use. Concurrent
    /// first uses of one contig wait for its single build; different
    /// contigs build in parallel.
    fn target_index(&self, subject: SubjectId) -> &TargetIndex {
        self.cache[subject as usize].get_or_init(|| {
            TargetIndex::build(&self.subjects[subject as usize].seq, self.scheme, self.k)
        })
    }

    /// The sketch-position scheme stage 2 extracts with.
    pub fn scheme(&self) -> SketchScheme {
        self.scheme
    }

    /// The k-mer size stage 2 extracts with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Refine one end segment against its stage-1 shortlist
    /// (`candidates` = `(subject, trial hits)`, best first): extract the
    /// segment's scheme positions, then [`Refiner::refine_from_list`].
    ///
    /// Returns the best placement, or `None` when the segment yields no
    /// scheme positions, no candidate produces anchors, or the best chain
    /// falls below `min_chain_anchors`. Deterministic: ties between equal
    /// chains resolve toward the earlier candidate (more stage-1 hits,
    /// then smaller subject id), forward strand before reverse, and the
    /// leftmost window.
    pub fn refine_segment(
        &self,
        seg: &[u8],
        candidates: &[(SubjectId, u32)],
        scratch: &mut RefineScratch,
        stats: &mut RefineStats,
    ) -> Option<Placement> {
        let mut mins = std::mem::take(&mut scratch.query_mins);
        self.scheme
            .extract_into(seg, self.k, &mut scratch.winnow, &mut mins);
        let placement = self.refine_from_list(seg, &mins, candidates, scratch, stats);
        scratch.query_mins = mins;
        placement
    }

    /// [`Refiner::refine_segment`] from the segment's position list as
    /// already extracted under this refiner's scheme and k — stage 1's
    /// list, in the fused pipeline, so each segment is winnowed once.
    pub fn refine_from_list(
        &self,
        seg: &[u8],
        query_mins: &[Minimizer],
        candidates: &[(SubjectId, u32)],
        scratch: &mut RefineScratch,
        stats: &mut RefineStats,
    ) -> Option<Placement> {
        if candidates.is_empty() || seg.len() < self.k {
            return None;
        }
        stats.segments += 1;
        if query_mins.is_empty() {
            return None;
        }
        let RefineScratch {
            query_fwd,
            fwd,
            rev,
            windows,
            survivors,
            filter,
            chain,
            ..
        } = scratch;
        query_fwd.clear();
        query_fwd.extend(
            query_mins
                .iter()
                .map(|m| occurrence_is_forward(seg, m.pos as usize, self.k, m.code)),
        );
        let len = seg.len() as u32;
        let sep = (seg.len() as f64 * self.params.separation_frac) as u32;
        let take = self.params.top_candidates.min(candidates.len());
        let mut best: Option<(Chain, SubjectId, bool, u32, u32)> = None;
        let mut second = 0u32;
        let mut n_chains = 0u32;
        for &(subject, hits) in &candidates[..take] {
            stats.candidates += 1;
            let target = self.target_index(subject);
            fwd.clear();
            rev.clear();
            stats.anchors +=
                collect_anchors(query_mins, query_fwd, seg.len(), self.k, target, fwd, rev) as u64;
            for (reverse, anchors) in [(false, &mut *fwd), (true, &mut *rev)] {
                if anchors.is_empty() {
                    continue;
                }
                anchors.sort_unstable_by(|a, b| a.tpos.cmp(&b.tpos).then(a.qpos.cmp(&b.qpos)));
                // Sweep: one candidate window per anchor start, support =
                // anchors within [t_start, t_start + len).
                windows.clear();
                let mut hi = 0usize;
                for i in 0..anchors.len() {
                    let t_start = anchors[i].tpos;
                    hi = hi.max(i);
                    while hi < anchors.len() && anchors[hi].tpos < t_start.saturating_add(len) {
                        hi += 1;
                    }
                    windows.push(Window {
                        t_start,
                        j: (hi - i) as u32,
                    });
                }
                stats.windows += windows.len() as u64;
                survivors.clear();
                filter_dominated(windows, sep, filter, survivors);
                stats.windows_kept += survivors.len() as u64;
                for w in survivors.iter() {
                    let lo = anchors.partition_point(|a| a.tpos < w.t_start);
                    let hi = anchors.partition_point(|a| a.tpos < w.t_start.saturating_add(len));
                    let Some(c) = chain_anchors(&anchors[lo..hi], chain) else {
                        continue;
                    };
                    stats.chains += 1;
                    n_chains += 1;
                    match &best {
                        Some((b, ..)) if c.n_anchors <= b.n_anchors => {
                            second = second.max(c.n_anchors);
                        }
                        _ => {
                            if let Some((b, ..)) = &best {
                                second = second.max(b.n_anchors);
                            }
                            best = Some((c, subject, reverse, target.len(), hits));
                        }
                    }
                }
            }
        }
        let (c, subject, reverse, t_len, hits) = best?;
        if c.n_anchors < self.params.min_chain_anchors {
            return None;
        }
        stats.placed += 1;
        let k = self.k as u32;
        // Chain coordinates are target-forward; flip reverse-strand query
        // spans back onto the segment's own orientation for output.
        let (q_start, q_end) = if reverse {
            let flip = len - k;
            (flip - c.q_last, flip - c.q_start + k)
        } else {
            (c.q_start, c.q_last + k)
        };
        Some(Placement {
            subject,
            reverse,
            q_start,
            q_end,
            t_start: c.t_start,
            t_end: c.t_last + k,
            t_len,
            n_anchors: c.n_anchors,
            second,
            n_chains,
            hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_seq::alphabet::revcomp_bytes;

    fn rng_seq(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .scan(seed, |s, _| {
                *s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Some(b"ACGT"[((*s >> 33) % 4) as usize])
            })
            .collect()
    }

    const K: usize = 11;
    const SCHEME: SketchScheme = SketchScheme::Minimizer { w: 5 };

    fn refiner(subjects: Vec<SeqRecord>) -> Refiner {
        Refiner::new(SCHEME, K, subjects)
    }

    #[test]
    fn forward_window_places_with_correct_coordinates() {
        let contig = rng_seq(6_000, 41);
        let seg = contig[2_000..2_600].to_vec();
        let r = refiner(vec![SeqRecord::new("c0", contig)]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        let p = r
            .refine_segment(&seg, &[(0, 12)], &mut scratch, &mut stats)
            .expect("must place");
        assert_eq!(p.subject, 0);
        assert!(!p.reverse);
        assert!(
            (p.t_start as i64 - 2_000).abs() < 50,
            "t_start {}",
            p.t_start
        );
        assert!((p.t_end as i64 - 2_600).abs() < 50, "t_end {}", p.t_end);
        assert!(p.q_end > p.q_start);
        assert!(p.q_end as usize <= seg.len());
        assert!(p.n_anchors > 10);
        assert!(p.second < p.n_anchors);
        assert_eq!(p.hits, 12);
        assert_eq!(stats.placed, 1);
        assert!(stats.anchors >= p.n_anchors as u64);
    }

    #[test]
    fn reverse_window_places_on_reverse_strand() {
        let contig = rng_seq(6_000, 43);
        let seg = revcomp_bytes(&contig[3_000..3_600]);
        let r = refiner(vec![SeqRecord::new("c0", contig)]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        let p = r
            .refine_segment(&seg, &[(0, 12)], &mut scratch, &mut stats)
            .expect("must place");
        assert!(p.reverse);
        assert!((p.t_start as i64 - 3_000).abs() < 50);
        assert!((p.t_end as i64 - 3_600).abs() < 50);
        assert!(p.q_end as usize <= seg.len());
    }

    #[test]
    fn contig_scale_queries_place_on_both_strands() {
        let reference = rng_seq(30_000, 71);
        let r = refiner(vec![SeqRecord::new("ref", reference.clone())]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        let fwd = r
            .refine_segment(
                &reference[5_000..7_000],
                &[(0, 0)],
                &mut scratch,
                &mut stats,
            )
            .expect("forward query must place");
        assert!(!fwd.reverse);
        assert!((fwd.t_start as i64 - 5_000).abs() < 100, "{fwd:?}");
        assert!((fwd.t_end as i64 - 7_000).abs() < 100, "{fwd:?}");
        assert!(fwd.n_anchors > 10);
        let rev_query = revcomp_bytes(&reference[12_000..13_500]);
        let rev = r
            .refine_segment(&rev_query, &[(0, 0)], &mut scratch, &mut stats)
            .expect("reverse query must place");
        assert!(rev.reverse);
        assert!((rev.t_start as i64 - 12_000).abs() < 100, "{rev:?}");
        assert!((rev.t_end as i64 - 13_500).abs() < 100, "{rev:?}");
    }

    #[test]
    fn chain_survives_scattered_substitutions() {
        let reference = rng_seq(30_000, 73);
        let mut query = reference[8_000..9_500].to_vec();
        // 2 % substitutions break some anchors; chaining bridges them.
        for i in (0..query.len()).step_by(50) {
            query[i] = match query[i] {
                b'A' => b'C',
                b'C' => b'G',
                b'G' => b'T',
                _ => b'A',
            };
        }
        let r = refiner(vec![SeqRecord::new("ref", reference)]);
        let p = r
            .refine_segment(
                &query,
                &[(0, 0)],
                &mut RefineScratch::new(),
                &mut RefineStats::default(),
            )
            .expect("must still place");
        assert!(!p.reverse);
        assert!((p.t_start as i64 - 8_000).abs() < 200, "{p:?}");
        assert!((p.t_end as i64 - 9_500).abs() < 200, "{p:?}");
    }

    #[test]
    fn blocks_far_apart_on_the_target_do_not_chain() {
        // Two 1 kb blocks 9 kb apart on the reference, joined by 200
        // unrelated bases: the query-length window cannot span both, so
        // the placement covers one block.
        let reference = rng_seq(30_000, 79);
        let mut query = reference[1_000..2_000].to_vec();
        query.extend_from_slice(&rng_seq(200, 555));
        query.extend_from_slice(&reference[10_000..11_000]);
        let r = refiner(vec![SeqRecord::new("ref", reference)]);
        let p = r
            .refine_segment(
                &query,
                &[(0, 0)],
                &mut RefineScratch::new(),
                &mut RefineStats::default(),
            )
            .expect("each block alone places");
        assert!(p.t_end - p.t_start < 5_000, "chain bridged the gap: {p:?}");
        let on_a_block = |lo: u32, hi: u32| p.t_start + 100 >= lo && p.t_end <= hi + 100;
        assert!(
            on_a_block(1_000, 2_000) || on_a_block(10_000, 11_000),
            "{p:?}"
        );
        assert!(p.second > 0, "the other block is the runner-up: {p:?}");
    }

    #[test]
    fn picks_the_true_contig_among_candidates() {
        let a = rng_seq(5_000, 47);
        let b = rng_seq(5_000, 53);
        let seg = b[1_000..1_500].to_vec();
        let r = refiner(vec![SeqRecord::new("a", a), SeqRecord::new("b", b)]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        // Candidate order lists the wrong contig first: chaining overrules.
        let p = r
            .refine_segment(&seg, &[(0, 3), (1, 12)], &mut scratch, &mut stats)
            .expect("must place");
        assert_eq!(p.subject, 1);
        assert_eq!(p.hits, 12);
    }

    #[test]
    fn duplicated_region_reports_a_runner_up() {
        // The same 800 bp block pasted into two contigs: the second-best
        // chain should be nearly as good as the best → small MAPQ margin.
        let block = rng_seq(800, 59);
        let mut c0 = rng_seq(2_000, 61);
        c0.extend_from_slice(&block);
        c0.extend_from_slice(&rng_seq(2_000, 67));
        let mut c1 = rng_seq(1_000, 71);
        c1.extend_from_slice(&block);
        c1.extend_from_slice(&rng_seq(3_000, 73));
        let seg = block[100..700].to_vec();
        let r = refiner(vec![SeqRecord::new("c0", c0), SeqRecord::new("c1", c1)]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        let p = r
            .refine_segment(&seg, &[(0, 12), (1, 12)], &mut scratch, &mut stats)
            .expect("must place");
        assert!(
            p.second * 10 >= p.n_anchors * 8,
            "duplicate should score close: best {} second {}",
            p.n_anchors,
            p.second
        );
    }

    #[test]
    fn no_candidates_or_tiny_segment_yields_none() {
        let r = refiner(vec![SeqRecord::new("c0", rng_seq(2_000, 79))]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        assert_eq!(
            r.refine_segment(b"ACGTACGTACGTACGT", &[], &mut scratch, &mut stats),
            None
        );
        assert_eq!(
            r.refine_segment(b"ACG", &[(0, 1)], &mut scratch, &mut stats),
            None
        );
    }

    #[test]
    fn unrelated_segment_is_filtered_by_min_chain() {
        let r = refiner(vec![SeqRecord::new("c0", rng_seq(4_000, 83))]);
        let alien = rng_seq(500, 997);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        // A chance single-code collision must not produce a placement.
        if let Some(p) = r.refine_segment(&alien, &[(0, 1)], &mut scratch, &mut stats) {
            assert!(p.n_anchors >= r.params().min_chain_anchors);
        }
    }

    #[test]
    fn target_cache_is_reused() {
        let contig = rng_seq(5_000, 89);
        let seg = contig[500..1_000].to_vec();
        let r = refiner(vec![SeqRecord::new("c0", contig)]);
        let mut scratch = RefineScratch::new();
        let mut stats = RefineStats::default();
        let p1 = r.refine_segment(&seg, &[(0, 9)], &mut scratch, &mut stats);
        let p2 = r.refine_segment(&seg, &[(0, 9)], &mut scratch, &mut stats);
        assert_eq!(p1, p2);
        let built = r.cache.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(built, 1);
    }
}
