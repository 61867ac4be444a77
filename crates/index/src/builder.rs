//! Shared-memory parallel sketch-table construction.
//!
//! Subjects are sketched on one scoped thread per core, each worker's
//! share into its own code-keyed run ([`crate::MaskedRun`]); the runs are
//! then merged and written straight into the flat v6 layout
//! ([`FlatTable::from_runs`]). This is the same local-sketch → merge shape
//! as the distributed steps S2–S3, so the shared-memory and distributed
//! drivers produce identical tables.

use crate::flat::FlatTable;
use crate::runs::sketch_runs;
use crate::SubjectId;
use jem_sketch::{MaskedSketch, SketchScratch};
use std::ops::Range;

/// Build the sketch table with an arbitrary per-subject sketcher.
///
/// The sketcher writes a subject's code-keyed sketch into a
/// caller-provided [`MaskedSketch`] using a [`SketchScratch`]; each part of
/// the subject list reuses one scratch and one sketch across all its
/// subjects. Subjects are anything that lends
/// bases (`AsRef<[u8]>`): borrowed records, owned vectors, slices.
///
/// One worker per core (`std::thread::available_parallelism`) sketches
/// one contiguous part of the subjects, the parts cut to about equal total
/// length (sketching is linear in bases), so a contig list sorted by
/// length still splits evenly.
///
/// Deterministic: the table's words are independent of worker count and
/// scheduling, because the writer only sees the merged, sorted postings.
pub fn build_table_with<S: AsRef<[u8]> + Sync>(
    subjects: &[S],
    trials: usize,
    sketcher: impl Fn(&[u8], &mut SketchScratch, &mut MaskedSketch) + Sync,
) -> FlatTable {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    build_in_parts(subjects, trials, cores, sketcher)
}

/// [`build_table_with`] over an explicit number of parts.
fn build_in_parts<S: AsRef<[u8]> + Sync>(
    subjects: &[S],
    trials: usize,
    parts: usize,
    sketcher: impl Fn(&[u8], &mut SketchScratch, &mut MaskedSketch) + Sync,
) -> FlatTable {
    let rec = jem_obs::recorder();
    let _span = jem_obs::Span::enter(rec, "index/build");
    let part_runs = |r: Range<usize>| {
        sketch_runs(
            &subjects[r.clone()],
            r.start as SubjectId,
            trials,
            &sketcher,
        )
    };
    // One scoped thread per part; the runs come back in part order.
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = balanced_ranges(subjects, parts)
            .into_iter()
            .map(|r| s.spawn(move || part_runs(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let table = FlatTable::from_runs(trials, runs);
    if rec.enabled() {
        rec.add("index.subjects", subjects.len() as u64);
        rec.add("index.keys", table.key_count() as u64);
        rec.add("index.postings", table.posting_count() as u64);
        rec.add("index.entries", table.entry_count() as u64);
        table.observe_occupancy(rec);
    }
    table
}

/// Cut `subjects` into at most `parts` contiguous ranges of about equal
/// total length.
fn balanced_ranges<S: AsRef<[u8]>>(subjects: &[S], parts: usize) -> Vec<Range<usize>> {
    let total: usize = subjects.iter().map(|s| s.as_ref().len()).sum();
    let per_part = total.div_ceil(parts.max(1)).max(1);
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut bases) = (0, 0);
    for (i, s) in subjects.iter().enumerate() {
        bases += s.as_ref().len();
        if bases >= per_part * (ranges.len() + 1) {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < subjects.len() {
        ranges.push(start..subjects.len());
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::lookup_trials;
    use jem_sketch::{sketch_by_scheme, sketch_masked_into, HashFamily, JemSketch, SketchScheme};
    use std::collections::{BTreeMap, BTreeSet};

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

    type Reference = BTreeMap<(usize, u64), BTreeSet<SubjectId>>;

    /// The naive table: every `(trial, code)` key with its subject set.
    fn reference(subjects: &[Vec<u8>], sketch: &dyn Fn(&[u8]) -> JemSketch) -> Reference {
        let mut table = Reference::new();
        for (id, seq) in subjects.iter().enumerate() {
            for (t, codes) in sketch(seq).per_trial.iter().enumerate() {
                for &code in codes {
                    table.entry((t, code)).or_default().insert(id as SubjectId);
                }
            }
        }
        table
    }

    /// Every reference key looks up its exact subject list, the counts
    /// agree, and codes the reference lacks miss.
    fn assert_matches(flat: &FlatTable, want: &Reference, trials: usize) {
        assert_eq!(flat.trials(), trials);
        let codes: BTreeSet<u64> = want.keys().map(|&(_, code)| code).collect();
        assert_eq!(flat.key_count(), codes.len());
        assert_eq!(
            flat.entry_count(),
            want.values().map(BTreeSet::len).sum::<usize>()
        );
        for (&(t, code), subjects) in want {
            let got = lookup_trials(flat, code);
            assert!(got[t].iter().eq(subjects.iter()), "trial {t} code {code}");
            let other = lookup_trials(flat, code ^ 0x5555);
            assert_eq!(other[t].is_empty(), !want.contains_key(&(t, code ^ 0x5555)));
        }
    }

    /// Subjects that stress the builder: ordinary, empty, shorter than
    /// `k`, all-N, N-rich, and exact repeats (codes shared across subjects
    /// that land in different parts).
    fn awkward_subjects() -> Vec<Vec<u8>> {
        let mut subjects: Vec<Vec<u8>> = (0..30).map(|i| rng_seq(700, i + 7)).collect();
        subjects.insert(3, Vec::new());
        subjects.insert(5, b"ACG".to_vec());
        subjects.insert(8, vec![b'N'; 900]);
        let mut n_rich = rng_seq(900, 99);
        for (i, b) in n_rich.iter_mut().enumerate() {
            if i % 7 < 3 {
                *b = b'N';
            }
        }
        subjects.insert(11, n_rich);
        subjects.push(subjects[0].clone());
        subjects.push(subjects[20].clone());
        // A tandem repeat: the same codes many times within one subject.
        subjects.push(b"ACGTTGCAAC".repeat(150));
        subjects
    }

    #[test]
    fn builder_matches_the_naive_reference_for_every_scheme_and_split() {
        let subjects = awkward_subjects();
        let (k, ell, trials) = (12, 100, 5);
        let family = HashFamily::generate(trials, 17);
        for scheme in [
            SketchScheme::Minimizer { w: 8 },
            SketchScheme::ClosedSyncmer { s: 8 },
        ] {
            let sketch = |seq: &[u8]| sketch_by_scheme(seq, k, scheme, ell, &family);
            let want = reference(&subjects, &sketch);
            assert!(want.values().any(|s| s.len() > 1), "need shared codes");
            let sketcher = |seq: &[u8], scratch: &mut SketchScratch, out: &mut MaskedSketch| {
                sketch_masked_into(seq, k, scheme, ell, &family, scratch, out)
            };
            let whole = build_table_with(&subjects, trials, sketcher);
            assert_matches(&whole, &want, trials);
            for parts in [1, 2, 3, 7, subjects.len(), 4 * subjects.len()] {
                let split = build_in_parts(&subjects, trials, parts, sketcher);
                assert_eq!(split.blob(), whole.blob(), "{scheme:?} in {parts} parts");
            }
        }
    }

    #[test]
    fn duplicate_codes_within_one_subject_count_once() {
        let subjects = vec![rng_seq(400, 1), rng_seq(400, 2)];
        // A sketcher that reports every code twice, out of order.
        let sketcher = |seq: &[u8], _: &mut SketchScratch, out: &mut MaskedSketch| {
            let codes: Vec<u64> = seq.iter().map(|&b| u64::from(b)).collect();
            let mut doubled: Vec<u64> = codes.iter().rev().chain(&codes).copied().collect();
            doubled.push(u64::from(seq[0]));
            let entries = doubled
                .into_iter()
                .map(|c| (c, 0))
                .chain(codes.into_iter().map(|c| (c, 1)));
            *out = MaskedSketch::from_entries(2, entries);
        };
        let flat = build_in_parts(&subjects, 2, 2, sketcher);
        let mut want = Reference::new();
        for (id, seq) in subjects.iter().enumerate() {
            for t in 0..2 {
                for &b in seq {
                    want.entry((t, u64::from(b)))
                        .or_default()
                        .insert(id as SubjectId);
                }
            }
        }
        assert_matches(&flat, &want, 2);
    }

    #[test]
    fn parts_cover_the_subjects_in_order_with_even_bases() {
        let lens = [900, 10, 10, 10, 300, 300, 300, 0, 50];
        let subjects: Vec<Vec<u8>> = lens.iter().map(|&n| vec![b'A'; n]).collect();
        let ranges = balanced_ranges(&subjects, 3);
        assert_eq!(ranges, vec![0..1, 1..6, 6..9]);
        for parts in 1..12 {
            let ranges = balanced_ranges(&subjects, parts);
            assert!(ranges.len() <= parts);
            let covered: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(covered, (0..subjects.len()).collect::<Vec<_>>());
        }
        assert!(balanced_ranges::<Vec<u8>>(&[], 4).is_empty());
        assert_eq!(balanced_ranges(&[Vec::new(), Vec::new()], 4), vec![0..2]);
    }

    #[test]
    fn empty_subject_list() {
        let family = HashFamily::generate(3, 1);
        let scheme = SketchScheme::Minimizer { w: 6 };
        let t = build_table_with::<Vec<u8>>(&[], 3, |seq, scratch, out| {
            sketch_masked_into(seq, 8, scheme, 100, &family, scratch, out)
        });
        assert_eq!(t.entry_count(), 0);
        assert_eq!(t.key_count(), 0);
        assert_eq!(t.trials(), 3);
    }
}
