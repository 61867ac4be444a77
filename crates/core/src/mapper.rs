//! The JEM-Mapper: index construction and best-hit query mapping.

use crate::config::MapperConfig;
use crate::segment::{make_segments, QuerySegment, ReadEnd, ReadId};
use jem_index::{
    build_table_with, FlatTable, HitCounter, HitStats, LazyHitCounter, ProbeScratch, SubjectId,
};
use jem_seq::SeqRecord;
use jem_sketch::{
    sketch_by_scheme, sketch_masked_into, HashFamily, JemParams, JemSketch, MaskedSketch,
    Minimizer, SketchScheme, SketchScratch,
};
use std::ops::Range;

/// One reported best-hit mapping of a read end segment to a contig.
///
/// The derived `Ord` is the lexicographic order of the fields as declared —
/// `(read_idx, end, subject, hits)`. Drivers normalize their output with
/// this *total* order rather than the `(read_idx, end)` prefix alone: each
/// driver emits at most one mapping per `(read_idx, end)`, but that
/// uniqueness is an invariant of the mapping loop, not of the type, so
/// sorting by every field keeps the output deterministic even if a future
/// driver merges overlapping partial results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mapping {
    /// Index of the source read in the query input.
    pub read_idx: u32,
    /// Which end segment was mapped.
    pub end: ReadEnd,
    /// Best-hit subject (contig) id — its index in the subject input.
    pub subject: SubjectId,
    /// Number of trials on which the subject collided with the query.
    pub hits: u32,
}

impl Mapping {
    /// Stable query key `"<read_id>/<end>"` for evaluation.
    pub fn query_key(&self, reads: &[impl ReadId]) -> String {
        format!("{}/{}", reads[self.read_idx as usize].read_id(), self.end)
    }
}

/// Which sketch codes a probe looks up: all of them, or — for one shard
/// of a partitioned service — those whose slot in a partition of the code
/// space into `n_slots` slots falls in the owned range. A code's slot is a
/// Fibonacci hash of the code, independent of the table's bucket hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeFilter {
    n_slots: usize,
    owned: Range<usize>,
}

impl CodeFilter {
    /// Admit every code.
    pub fn all() -> Self {
        CodeFilter {
            n_slots: 1,
            owned: 0..1,
        }
    }

    /// Admit the codes whose slot, in a space of `n_slots`, lies in
    /// `owned`.
    ///
    /// # Panics
    /// Panics if `n_slots` is zero, or `owned` is empty or reaches past
    /// `n_slots`.
    pub fn slots(n_slots: usize, owned: Range<usize>) -> Self {
        assert!(n_slots >= 1, "shard count must be at least 1");
        assert!(
            owned.start < owned.end,
            "owned slot range must be non-empty"
        );
        assert!(
            owned.end <= n_slots,
            "owned slot range {owned:?} reaches past the {n_slots}-slot space"
        );
        CodeFilter { n_slots, owned }
    }

    /// Size of the slot space.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// The admitted slot range.
    pub fn owned(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// The slot `code` hashes to: bits 32.. of its Fibonacci product,
    /// modulo the slot count.
    pub fn slot_of(&self, code: u64) -> usize {
        ((code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.n_slots
    }

    /// Does the filter admit every code?
    pub fn admits_all(&self) -> bool {
        self.owned.len() == self.n_slots
    }

    /// Does the filter admit `code`?
    pub fn admits(&self, code: u64) -> bool {
        self.admits_all() || self.owned.contains(&self.slot_of(code))
    }
}

/// The probe kernel with its reusable buffers (Algorithm 2, lines 5–7).
///
/// [`Probe::run`] takes a query's sketch in code-keyed form — each
/// distinct code once with its trial mask (bit `t` set iff the code is in
/// the query's trial-`t` sketch) — probes every code once, and ORs
/// `query mask & posting mask` into the lazy hit counter. Subject `s`
/// collides with the query on trial `t` iff some shared code has bit `t`
/// set in both masks, so each subject's mask popcount is exactly the
/// paper's per-trial hit count `|{t : s ∈ Hits_r[t]}|`.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// The codes a partial filter admits, with their masks.
    codes: Vec<u64>,
    qmasks: Vec<u32>,
    table: ProbeScratch,
}

impl Probe {
    /// Probe the codes of `sketch` (built with `table.trials()` trials)
    /// that `filter` admits against `table`, recording every collision of
    /// query `qid` in `counter`. Adds the postings read to
    /// `counter.stats.probed`. A filter admits a code on every trial or on
    /// none, so it drops whole codes.
    pub fn run(
        &mut self,
        table: &FlatTable,
        sketch: &MaskedSketch,
        filter: &CodeFilter,
        qid: u64,
        counter: &mut LazyHitCounter,
    ) {
        assert!(
            sketch.is_empty() || sketch.mask_words() == table.mask_words(),
            "sketch has {} mask words per code but the table {}",
            sketch.mask_words(),
            table.mask_words()
        );
        let Probe {
            codes,
            qmasks,
            table: scratch,
        } = self;
        let (codes, qmasks) = if filter.admits_all() {
            (sketch.codes(), sketch.masks())
        } else {
            codes.clear();
            qmasks.clear();
            for (code, mask) in sketch.iter().filter(|&(code, _)| filter.admits(code)) {
                codes.push(code);
                qmasks.extend_from_slice(mask);
            }
            (&codes[..], &qmasks[..])
        };
        let probed = table.probe(codes, qmasks, scratch, |s, mask| {
            counter.record(qid, s, mask)
        });
        counter.stats.probed += probed;
    }
}

/// Reusable per-thread scratch for the query path: the code-keyed sketch,
/// the sketching scratch behind it (which keeps the segment's position
/// list for stage 2), the probe kernel's buffers, and a counter for the
/// drivers that rank a segment's hits without one of their own. One of
/// these lives beside each [`LazyHitCounter`] (one per mapping thread or
/// serve worker) so segment mapping performs no steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct MapScratch {
    sketch: MaskedSketch,
    scratch: SketchScratch,
    probe: Probe,
    /// `(counter, trials, next query id)` of the ranking drivers, sized to
    /// the last index they ran against.
    ranker: Option<(LazyHitCounter, usize, u64)>,
}

impl MapScratch {
    /// Fresh, empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The position list of the last segment sketched through this
    /// scratch: what the index's scheme and k extract from its bytes.
    pub fn minimizers(&self) -> &[Minimizer] {
        self.scratch.minimizers()
    }
}

/// An immutable JEM-mapper index over a contig set, plus query drivers.
///
/// ```
/// use jem_core::{JemMapper, MapperConfig};
/// use jem_seq::SeqRecord;
///
/// let contig: Vec<u8> = (0..3000).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
/// let config = MapperConfig { k: 11, w: 8, trials: 8, ell: 400, seed: 1 };
/// let mapper = JemMapper::build(&[SeqRecord::new("c0", contig.clone())], &config);
///
/// // A verbatim window of the contig maps back to it on most trials.
/// let mut counter = mapper.new_counter();
/// let (subject, hits) = mapper.map_segment(&contig[500..900], 0, &mut counter).unwrap();
/// assert_eq!(subject, 0);
/// assert!(hits >= 6);
/// ```
#[derive(Clone, Debug)]
pub struct JemMapper {
    config: MapperConfig,
    params: JemParams,
    scheme: SketchScheme,
    family: HashFamily,
    table: FlatTable,
    subject_names: Vec<String>,
}

impl JemMapper {
    /// Build the sketch table over `subjects` (Algorithm 2, lines 1–2),
    /// using the paper's minimizer scheme with window `config.w`.
    ///
    /// Subjects are sketched on one thread per core. The result is fully
    /// deterministic for a given `(subjects, config)`, whatever the core
    /// count.
    ///
    /// # Panics
    /// Panics on an invalid configuration (zero `k`/`w`/ℓ/`T`).
    pub fn build(subjects: &[SeqRecord], config: &MapperConfig) -> Self {
        Self::build_with_scheme(subjects, config, SketchScheme::Minimizer { w: config.w })
    }

    /// Build under an alternative sketch-position scheme (e.g. closed
    /// syncmers — the paper's future-work item i). `config.w` is ignored
    /// when the scheme carries its own parameters.
    ///
    /// Subjects are borrowed: sketching reads the sequence bytes in place
    /// and only the record ids are copied (into the name table). Each
    /// subject is sketched in code-keyed form through the entry point
    /// queries use ([`sketch_masked_into`]), and the table is written
    /// straight into the flat v6 layout, so saving it streams these words
    /// as they are.
    pub fn build_with_scheme(
        subjects: &[SeqRecord],
        config: &MapperConfig,
        scheme: SketchScheme,
    ) -> Self {
        config.jem_params().expect("invalid mapper configuration");
        scheme.validate(config.k).expect("invalid sketch scheme");
        let family = config.hash_family();
        let table = build_table_with(subjects, family.len(), |seq, scratch, sketch| {
            sketch_masked_into(seq, config.k, scheme, config.ell, &family, scratch, sketch)
        });
        let names = subjects.iter().map(|s| s.id.clone()).collect();
        Self::from_table_with_scheme(table, names, config, scheme)
    }

    /// Wrap an externally constructed table (the distributed driver
    /// gathers a global table and wraps it here). Assumes the paper's
    /// minimizer scheme.
    pub fn from_table(table: FlatTable, subject_names: Vec<String>, config: &MapperConfig) -> Self {
        Self::from_table_with_scheme(
            table,
            subject_names,
            config,
            SketchScheme::Minimizer { w: config.w },
        )
    }

    /// [`JemMapper::from_table`] with an explicit sketch scheme (must match
    /// the scheme the table was built with) — also the entry point of the
    /// v6 load path, which wraps a zero-copy view of the file.
    pub fn from_table_with_scheme(
        table: FlatTable,
        subject_names: Vec<String>,
        config: &MapperConfig,
        scheme: SketchScheme,
    ) -> Self {
        let params = config.jem_params().expect("invalid mapper configuration");
        scheme.validate(config.k).expect("invalid sketch scheme");
        assert_eq!(table.trials(), config.trials, "table T must match config T");
        JemMapper {
            config: *config,
            params,
            scheme,
            family: config.hash_family(),
            table,
            subject_names,
        }
    }

    /// The sketch-position scheme in effect.
    pub fn scheme(&self) -> SketchScheme {
        self.scheme
    }

    /// The validated JEM parameters `(k, w, ℓ)` of this index.
    pub fn params(&self) -> JemParams {
        self.params
    }

    /// Sketch a sequence exactly as the index was built.
    fn sketch(&self, seq: &[u8]) -> JemSketch {
        sketch_by_scheme(
            seq,
            self.config.k,
            self.scheme,
            self.config.ell,
            &self.family,
        )
    }

    /// Number of subjects indexed.
    pub fn n_subjects(&self) -> usize {
        self.subject_names.len()
    }

    /// Name of subject `id`.
    pub fn subject_name(&self, id: SubjectId) -> &str {
        &self.subject_names[id as usize]
    }

    /// All subject names, indexed by [`SubjectId`].
    pub fn subject_names(&self) -> &[String] {
        &self.subject_names
    }

    /// The active configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Borrow the sketch table (inspection/ablation, shard partitioning,
    /// serialization).
    pub fn table(&self) -> &FlatTable {
        &self.table
    }

    /// A hit counter sized for this index (one per mapping thread).
    pub fn new_counter(&self) -> LazyHitCounter {
        LazyHitCounter::new(self.n_subjects(), self.config.trials)
    }

    /// Sketch a query sequence exactly as this index's subjects were
    /// sketched (same scheme, parameters and hash family, general kernel) —
    /// the reference the differential tests intersect per trial.
    pub fn sketch_segment(&self, seq: &[u8]) -> JemSketch {
        self.sketch(seq)
    }

    /// [`JemMapper::sketch_segment`]'s sets in code-keyed form, into
    /// `scratch`, where the probe kernel reads them and stage 2 the
    /// segment's position list. End segments take the one-pass selection.
    pub fn sketch_segment_into(&self, seq: &[u8], scratch: &mut MapScratch) {
        sketch_masked_into(
            seq,
            self.config.k,
            self.scheme,
            self.config.ell,
            &self.family,
            &mut scratch.scratch,
            &mut scratch.sketch,
        );
    }

    /// Sketch `seg` and run the probe kernel on it: every collision of
    /// query `qid` with a code `filter` admits lands in `counter`.
    fn probe_segment(
        &self,
        seg: &[u8],
        qid: u64,
        filter: &CodeFilter,
        counter: &mut LazyHitCounter,
        scratch: &mut MapScratch,
    ) {
        self.sketch_segment_into(seg, scratch);
        let MapScratch { sketch, probe, .. } = scratch;
        probe.run(&self.table, sketch, filter, qid, counter);
    }

    /// Map one end segment (Algorithm 2, lines 4–8).
    ///
    /// Returns the best `(subject, hits)` or `None` if no trial collided.
    /// `qid` must be unique per query for the lazy counter's correctness.
    pub fn map_segment(
        &self,
        seg: &[u8],
        qid: u64,
        counter: &mut LazyHitCounter,
    ) -> Option<(SubjectId, u32)> {
        let mut scratch = MapScratch::new();
        self.map_segment_with(seg, qid, counter, &mut scratch)
    }

    /// [`JemMapper::map_segment`] with caller-provided scratch — the hot
    /// loop used by [`JemMapper::map_segments`] and the serve workers.
    /// Byte-identical results; no per-segment allocation once the scratch
    /// is warm.
    pub fn map_segment_with(
        &self,
        seg: &[u8],
        qid: u64,
        counter: &mut LazyHitCounter,
        scratch: &mut MapScratch,
    ) -> Option<(SubjectId, u32)> {
        self.probe_segment(seg, qid, &CodeFilter::all(), counter, scratch);
        counter.best(qid)
    }

    /// Probe `seg` under `filter` with the scratch's own counter and hand
    /// it, with the query id used, to `read`.
    fn with_ranker<R>(
        &self,
        seg: &[u8],
        filter: &CodeFilter,
        scratch: &mut MapScratch,
        read: impl FnOnce(&LazyHitCounter, u64) -> R,
    ) -> R {
        let (n, trials) = (self.n_subjects(), self.config.trials);
        let (mut counter, qid) = match scratch.ranker.take() {
            Some((c, t, qid)) if c.len() == n && t == trials => (c, qid),
            _ => (self.new_counter(), 0),
        };
        self.probe_segment(seg, qid, filter, &mut counter, scratch);
        let out = read(&counter, qid);
        scratch.ranker = Some((counter, trials, qid + 1));
        out
    }

    /// Every subject `seg` hits with its trial count, best first under the
    /// one ranking rule ([`jem_index::rank_order`]), into `out`. Its head
    /// is [`JemMapper::map_segment`]'s answer.
    pub fn rank_segment_into(
        &self,
        seg: &[u8],
        scratch: &mut MapScratch,
        out: &mut Vec<(SubjectId, u32)>,
    ) {
        self.with_ranker(seg, &CodeFilter::all(), scratch, |counter, qid| {
            counter.ranked_into(qid, out)
        });
    }

    /// Map one end segment and return the top `x` candidate contigs,
    /// ordered by descending hit count (ties toward smaller ids), through
    /// caller-provided scratch so a top-x sweep over many segments reuses
    /// one warm scratch.
    ///
    /// This implements the paper's proposed recall extension ("if we are to
    /// extend our method to report a fixed number, say top x hits per read,
    /// several of the missing contig hits could possibly be recovered").
    pub fn map_segment_topk_with(
        &self,
        seg: &[u8],
        x: usize,
        scratch: &mut MapScratch,
    ) -> Vec<(SubjectId, u32)> {
        let mut ranked = Vec::new();
        self.rank_segment_into(seg, scratch, &mut ranked);
        ranked.truncate(x);
        ranked
    }

    /// Every subject one segment collides with through the codes `filter`
    /// admits, once, with the trial mask of those collisions, ascending by
    /// subject — the shard half of a router scatter-gather: the lazy
    /// counter's hits as they stand. A filter admits a code on every trial
    /// or on none, so the masks of disjoint filters OR into the unfiltered
    /// masks.
    pub fn segment_partials(
        &self,
        seg: &[u8],
        filter: &CodeFilter,
        scratch: &mut MapScratch,
    ) -> Vec<(SubjectId, Vec<u32>)> {
        self.with_ranker(seg, filter, scratch, |counter, qid| {
            let mut hits: Vec<(SubjectId, Vec<u32>)> = counter
                .hits(qid)
                .map(|(s, mask)| (s, mask.to_vec()))
                .collect();
            hits.sort_unstable_by_key(|&(s, _)| s);
            hits
        })
    }

    /// Map prepared segments one by one (the per-rank inner loop of S4).
    ///
    /// Counter tallies ([`jem_index::hits::HitStats`]) accumulate locally in
    /// the batch's private counter and flush to the global recorder once at
    /// the end, so instrumentation adds no per-hit synchronization.
    pub fn map_segments(&self, segments: &[QuerySegment]) -> Vec<Mapping> {
        let rec = jem_obs::recorder();
        let _span = jem_obs::Span::enter(rec, "map/segments");
        let mut counter = self.new_counter();
        let mut scratch = MapScratch::new();
        let mut out = Vec::new();
        self.map_batch(
            segments,
            0,
            &CodeFilter::all(),
            &mut counter,
            &mut scratch,
            &mut out,
        );
        Self::flush_map_metrics(&counter.stats, segments.len(), out.len());
        out
    }

    /// Map `segments` through a caller-held counter and scratch under
    /// `filter`, appending each hit to `out` — the loop every mapping
    /// driver and serve worker runs. Segment `i` is query `first_qid + i`
    /// to the lazy counter, so ids must not repeat across the batches one
    /// counter sees.
    pub fn map_batch(
        &self,
        segments: &[QuerySegment],
        first_qid: u64,
        filter: &CodeFilter,
        counter: &mut LazyHitCounter,
        scratch: &mut MapScratch,
        out: &mut Vec<Mapping>,
    ) {
        for (i, seg) in segments.iter().enumerate() {
            let qid = first_qid + i as u64;
            self.probe_segment(&seg.seq, qid, filter, counter, scratch);
            if let Some((subject, hits)) = counter.best(qid) {
                out.push(Mapping {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    subject,
                    hits,
                });
            }
        }
    }

    /// Report a mapping run's counter tallies and sizes to the recorder.
    pub(crate) fn flush_map_metrics(stats: &HitStats, segments: usize, mapped: usize) {
        let rec = jem_obs::recorder();
        if rec.enabled() {
            rec.add("map.segments", segments as u64);
            rec.add("map.mapped", mapped as u64);
            rec.add("map.collisions_probed", stats.probed);
            rec.add("map.lazy_resets", stats.lazy_resets);
            rec.add("map.resets_skipped", stats.resets_skipped);
            rec.add("map.ties", stats.ties);
        }
    }

    /// Full sequential query driver: segment every read, map every segment.
    pub fn map_reads(&self, reads: &[SeqRecord]) -> Vec<Mapping> {
        let _span = jem_obs::span("map");
        self.map_segments(&make_segments(reads, self.config.ell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sim::{contig_records, fragment_contigs, ContigProfile, Genome};
    use jem_sketch::SketchScheme;

    fn small_config() -> MapperConfig {
        // Small ℓ/w so modest test sequences produce useful sketches.
        MapperConfig {
            k: 12,
            w: 10,
            trials: 12,
            ell: 300,
            seed: 7,
        }
    }

    fn test_world() -> (Genome, Vec<SeqRecord>) {
        let genome = Genome::random(60_000, 0.5, 99);
        let contigs = fragment_contigs(
            &genome,
            &ContigProfile {
                error_rate: 0.0,
                ..ContigProfile::small_genome()
            },
            1,
        );
        (genome, contig_records(&contigs))
    }

    #[test]
    fn build_and_inspect() {
        let (_, subjects) = test_world();
        let n = subjects.len();
        let mapper = JemMapper::build(&subjects, &small_config());
        assert_eq!(mapper.n_subjects(), n);
        assert!(mapper.table().entry_count() > 0);
        assert_eq!(mapper.subject_name(0), "contig_0");
    }

    #[test]
    fn verbatim_window_maps_to_its_contig() {
        let (genome, subjects) = test_world();
        let mapper = JemMapper::build(&subjects, &small_config());
        // Take a query straight out of contig 3's interior.
        let contig = &subjects[3];
        let query = contig.seq[..300.min(contig.seq.len())].to_vec();
        let mut counter = mapper.new_counter();
        let (best, hits) = mapper
            .map_segment(&query, 0, &mut counter)
            .expect("must map");
        assert_eq!(best, 3, "verbatim window must map to its own contig");
        assert!(
            hits >= 8,
            "most of the 12 trials should collide, got {hits}"
        );
        let _ = genome;
    }

    #[test]
    fn unrelated_sequence_rarely_maps() {
        let (_, subjects) = test_world();
        let mapper = JemMapper::build(&subjects, &small_config());
        let alien = Genome::random(300, 0.5, 777).seq;
        let mut counter = mapper.new_counter();
        match mapper.map_segment(&alien, 0, &mut counter) {
            None => {}
            Some((_, hits)) => assert!(hits <= 2, "alien sequence collided on {hits} trials"),
        }
    }

    #[test]
    fn map_reads_end_to_end() {
        let (genome, subjects) = test_world();
        let mapper = JemMapper::build(&subjects, &small_config());
        let profile = jem_sim::HifiProfile {
            coverage: 2.0,
            mean_len: 5_000,
            std_len: 1_000,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = jem_sim::read_records(&jem_sim::simulate_hifi(&genome, &profile, 5));
        let mappings = mapper.map_reads(&reads);
        assert!(!mappings.is_empty());
        // Every mapping refers to a real read and subject.
        for m in &mappings {
            assert!((m.read_idx as usize) < reads.len());
            assert!((m.subject as usize) < mapper.n_subjects());
            assert!(m.hits >= 1);
            assert!(m.hits as usize <= mapper.config().trials);
        }
        // Most segments should find some hit (contigs cover ~90% of genome).
        let n_segments = make_segments(&reads, mapper.config().ell).len();
        assert!(
            mappings.len() * 10 >= n_segments * 5,
            "only {}/{} segments mapped",
            mappings.len(),
            n_segments
        );
    }

    #[test]
    fn from_table_round_trip() {
        let (_, subjects) = test_world();
        let config = small_config();
        let built = JemMapper::build(&subjects, &config);
        let names: Vec<String> = subjects.iter().map(|s| s.id.clone()).collect();
        let table = FlatTable::from_source(
            std::sync::Arc::new(built.table().blob().to_vec()),
            0,
            config.trials,
        )
        .unwrap();
        let rebuilt = JemMapper::from_table(table, names, &config);
        let query = subjects[1].seq[..250].to_vec();
        let mut c1 = built.new_counter();
        let mut c2 = rebuilt.new_counter();
        assert_eq!(
            built.map_segment(&query, 0, &mut c1),
            rebuilt.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn syncmer_scheme_maps_verbatim_windows_home() {
        let (_, subjects) = test_world();
        let config = MapperConfig {
            k: 16,
            ..small_config()
        };
        let mapper =
            JemMapper::build_with_scheme(&subjects, &config, SketchScheme::ClosedSyncmer { s: 11 });
        assert_eq!(mapper.scheme(), SketchScheme::ClosedSyncmer { s: 11 });
        let query = subjects[3].seq[..300.min(subjects[3].seq.len())].to_vec();
        let mut counter = mapper.new_counter();
        let (best, hits) = mapper
            .map_segment(&query, 0, &mut counter)
            .expect("must map");
        assert_eq!(best, 3);
        assert!(
            hits >= 8,
            "syncmer sketches should collide on most trials, got {hits}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = CodeFilter::slots(0, 0..0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_owned_range_rejected() {
        let _ = CodeFilter::slots(4, 2..2);
    }

    #[test]
    #[should_panic(expected = "reaches past")]
    fn out_of_space_owned_range_rejected() {
        let _ = CodeFilter::slots(4, 2..5);
    }

    #[test]
    #[should_panic(expected = "invalid sketch scheme")]
    fn invalid_scheme_rejected_at_build() {
        JemMapper::build_with_scheme(&[], &small_config(), SketchScheme::ClosedSyncmer { s: 99 });
    }

    #[test]
    fn empty_inputs() {
        let mapper = JemMapper::build(&[], &small_config());
        assert_eq!(mapper.n_subjects(), 0);
        let mappings = mapper.map_reads(&[]);
        assert!(mappings.is_empty());
        // Query against an empty index maps nothing.
        let mut counter = mapper.new_counter();
        assert_eq!(
            mapper.map_segment(b"ACGTACGTACGTACGT", 0, &mut counter),
            None
        );
    }
}
