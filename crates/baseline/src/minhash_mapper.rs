//! The classical MinHash mapper (Fig. 6 comparator).
//!
//! Subjects are sketched with the classical Broder scheme — for each trial,
//! the single k-mer minimizing `h_t` over *all* k-mers of the subject — and
//! queries likewise. A query hits a subject on trial `t` when their trial-`t`
//! minima coincide; the most frequent subject across trials is the best hit.
//!
//! Without the JEM sketch's ℓ-interval locality, a long subject's trial
//! minimum usually falls outside the region a 1 kb query overlaps, which is
//! why this baseline needs far more trials to reach the same recall
//! (Fig. 6: >150 vs JEM's 20–30).

use jem_core::{make_segments, CodeFilter, Mapping, Probe};
use jem_index::{FlatTable, HitCounter, LazyHitCounter, MaskedRun, SubjectId};
use jem_seq::SeqRecord;
use jem_sketch::{classic_minhash_seq, classic_minima_into, HashFamily, MaskedSketch};

/// Classical-MinHash baseline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassicMinHashConfig {
    /// k-mer size.
    pub k: usize,
    /// Number of trials `T`.
    pub trials: usize,
    /// End-segment length ℓ (query segmentation only; sketches are global).
    pub ell: usize,
    /// Hash-constant seed.
    pub seed: u64,
}

impl Default for ClassicMinHashConfig {
    fn default() -> Self {
        ClassicMinHashConfig {
            k: 16,
            trials: 30,
            ell: 1000,
            seed: 0x4a45_4d4d,
        }
    }
}

/// Reusable buffers for [`ClassicMinHashMapper::map_segment_with`]: the
/// per-trial minima, their `(code, trial)` entries, the code-keyed sketch
/// with its fuse index, and the probe kernel's buffers.
#[derive(Clone, Debug, Default)]
pub struct ClassicScratch {
    minima: Vec<Option<(u64, u64)>>,
    entries: Vec<(u64, usize)>,
    sketch: MaskedSketch,
    fuse: Vec<u32>,
    probe: Probe,
}

/// The classical MinHash mapper.
#[derive(Clone, Debug)]
pub struct ClassicMinHashMapper {
    config: ClassicMinHashConfig,
    family: HashFamily,
    table: FlatTable,
    n_subjects: usize,
}

impl ClassicMinHashMapper {
    /// Sketch and index the subject set.
    pub fn build(subjects: &[SeqRecord], config: &ClassicMinHashConfig) -> Self {
        let family = HashFamily::generate(config.trials, config.seed);
        let mut entries = Vec::new();
        for (id, rec) in subjects.iter().enumerate() {
            let sketch = classic_minhash_seq(&rec.seq, config.k, &family);
            for (t, value) in sketch.values.iter().enumerate() {
                if let Some(code) = *value {
                    entries.push((t, code, id as SubjectId));
                }
            }
        }
        let run = MaskedRun::from_entries(config.trials, entries);
        ClassicMinHashMapper {
            config: *config,
            family,
            table: FlatTable::from_runs(config.trials, vec![run]),
            n_subjects: subjects.len(),
        }
    }

    /// Number of indexed subjects.
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// A hit counter sized for this index.
    pub fn new_counter(&self) -> LazyHitCounter {
        LazyHitCounter::new(self.n_subjects, self.config.trials)
    }

    /// Map one end segment: per-trial sketch equality against the table,
    /// through the one probe kernel (a trial's single minimum is the
    /// query's only code on that trial; equal minima fuse into one code).
    /// Fresh buffers each call; [`map_segment_with`](Self::map_segment_with)
    /// reuses them.
    pub fn map_segment(
        &self,
        seg: &[u8],
        qid: u64,
        counter: &mut LazyHitCounter,
    ) -> Option<(SubjectId, u32)> {
        self.map_segment_with(seg, qid, counter, &mut ClassicScratch::default())
    }

    /// [`map_segment`](Self::map_segment) through one caller-held
    /// scratch, warm after the first segment.
    pub fn map_segment_with(
        &self,
        seg: &[u8],
        qid: u64,
        counter: &mut LazyHitCounter,
        scratch: &mut ClassicScratch,
    ) -> Option<(SubjectId, u32)> {
        let ClassicScratch {
            minima,
            entries,
            sketch,
            fuse,
            probe,
        } = scratch;
        classic_minima_into(seg, self.config.k, &self.family, minima);
        entries.clear();
        entries.extend(
            minima
                .iter()
                .enumerate()
                .filter_map(|(t, min)| min.map(|(_, code)| (code, t))),
        );
        sketch.fill_from_entries(self.config.trials, entries, fuse);
        probe.run(&self.table, sketch, &CodeFilter::all(), qid, counter);
        counter.best(qid)
    }

    /// Map every read's end segments.
    pub fn map_reads(&self, reads: &[SeqRecord]) -> Vec<Mapping> {
        let segments = make_segments(reads, self.config.ell);
        let mut counter = self.new_counter();
        let mut scratch = ClassicScratch::default();
        let mut out = Vec::new();
        for (qid, seg) in segments.iter().enumerate() {
            let best = self.map_segment_with(&seg.seq, qid as u64, &mut counter, &mut scratch);
            if let Some((subject, hits)) = best {
                out.push(Mapping {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    subject,
                    hits,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sim::{contig_records, fragment_contigs, ContigProfile, Genome};

    fn config() -> ClassicMinHashConfig {
        ClassicMinHashConfig {
            k: 12,
            trials: 24,
            ell: 400,
            seed: 5,
        }
    }

    fn subjects() -> Vec<SeqRecord> {
        let genome = Genome::random(40_000, 0.5, 61);
        let contigs = fragment_contigs(
            &genome,
            &ContigProfile {
                error_rate: 0.0,
                ..ContigProfile::small_genome()
            },
            62,
        );
        contig_records(&contigs)
    }

    #[test]
    fn identical_subject_always_hits() {
        let subjects = subjects();
        let mapper = ClassicMinHashMapper::build(&subjects, &config());
        // Query = an entire contig: sketches are equal on every trial.
        let query = subjects[2].seq.clone();
        let mut counter = mapper.new_counter();
        let (best, hits) = mapper.map_segment(&query, 0, &mut counter).expect("maps");
        assert_eq!(best, 2);
        assert_eq!(hits as usize, config().trials);
    }

    #[test]
    fn short_window_of_long_subject_hits_rarely() {
        // The defining weakness: a 400 bp window of a ~3 kb contig shares
        // the contig's *global* minimum on only a fraction of trials.
        let subjects = subjects();
        let mapper = ClassicMinHashMapper::build(&subjects, &config());
        let long = subjects
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.seq.len())
            .unwrap();
        let query = long.1.seq[..400].to_vec();
        let mut counter = mapper.new_counter();
        let hits = mapper
            .map_segment(&query, 0, &mut counter)
            .map(|(_, h)| h)
            .unwrap_or(0);
        assert!(
            (hits as usize) < config().trials,
            "window should miss the subject's global minimum on some trials"
        );
    }

    #[test]
    fn empty_segment() {
        let subjects = subjects();
        let mapper = ClassicMinHashMapper::build(&subjects, &config());
        let mut counter = mapper.new_counter();
        assert_eq!(mapper.map_segment(b"", 0, &mut counter), None);
    }

    #[test]
    fn reused_scratch_maps_like_fresh_buffers() {
        let subjects = subjects();
        let mapper = ClassicMinHashMapper::build(&subjects, &config());
        let mut scratch = ClassicScratch::default();
        let mut reused = mapper.new_counter();
        let mut mapped = 0;
        let mut qid = 0u64;
        for (i, subject) in subjects.iter().enumerate() {
            for seg in [
                &subject.seq[..],
                &subject.seq[..400.min(subject.seq.len())],
                b"",
            ] {
                // The per-call construction map_segment_with replaces.
                let sketch = classic_minhash_seq(seg, config().k, &mapper.family);
                let entries = sketch.values.iter().enumerate();
                let sketch = MaskedSketch::from_entries(
                    config().trials,
                    entries.filter_map(|(t, value)| value.map(|code| (code, t))),
                );
                let mut counter = mapper.new_counter();
                Probe::default().run(&mapper.table, &sketch, &CodeFilter::all(), 0, &mut counter);
                let fresh = counter.best(0);
                assert_eq!(mapper.map_segment(seg, 0, &mut mapper.new_counter()), fresh);
                let with = mapper.map_segment_with(seg, qid, &mut reused, &mut scratch);
                assert_eq!(with, fresh, "subject {i}, {} bases", seg.len());
                mapped += usize::from(with.is_some());
                qid += 1;
            }
        }
        assert!(mapped >= subjects.len(), "only {mapped} segments mapped");
    }

    #[test]
    fn map_reads_produces_valid_output() {
        let subjects = subjects();
        let mapper = ClassicMinHashMapper::build(&subjects, &config());
        let reads = vec![SeqRecord::new("r0", subjects[0].seq.clone())];
        let mappings = mapper.map_reads(&reads);
        assert!(!mappings.is_empty());
        assert!(mappings
            .iter()
            .all(|m| (m.subject as usize) < mapper.n_subjects()));
    }
}
