//! Differential oracle for the probe kernel at trial-mask word boundaries.
//!
//! The kernel answers from one code-keyed table whose postings carry trial
//! masks of `⌈T/32⌉` words. The reference answers the paper's way: per
//! trial `t`, a `BTreeSet` bank of every subject's Algorithm 1 sketch set
//! ([`JemMapper::sketch_segment`]), the query's trial-`t` codes intersected
//! with it, and a subject's count the number of trials it collided on. Trial counts straddle every mask-word
//! edge (1, 31, 32, 33, 64, 65) and reach Fig. 6's 150, under both sketch
//! schemes; a lost or misplaced mask bit shows up as a count mismatch.

use jem_core::{JemMapper, MapScratch, MapperConfig};
use jem_index::SubjectId;
use jem_seq::SeqRecord;
use jem_sketch::SketchScheme;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), min..max)
}

/// Every subject the query collides with, with its trial count, best
/// first (more trials, then the smaller id) — from per-trial set
/// intersections over the subjects' Algorithm 1 banks.
fn naive_ranking(
    mapper: &JemMapper,
    banks: &[BTreeMap<u64, BTreeSet<SubjectId>>],
    query: &[u8],
) -> Vec<(SubjectId, u32)> {
    let sketch = mapper.sketch_segment(query);
    let mut counts: BTreeMap<SubjectId, u32> = BTreeMap::new();
    for (bank, codes) in banks.iter().zip(&sketch.per_trial) {
        let hit: BTreeSet<SubjectId> = codes
            .iter()
            .filter_map(|code| bank.get(code))
            .flatten()
            .copied()
            .collect();
        for s in hit {
            *counts.entry(s).or_default() += 1;
        }
    }
    let mut ranked: Vec<(SubjectId, u32)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn kernel_matches_per_trial_set_intersection(
        trials in prop::sample::select(vec![1usize, 31, 32, 33, 64, 65, 150]),
        syncmer in any::<bool>(),
        seed in any::<u64>(),
        subjects in prop::collection::vec(dna(150, 700), 1..6),
        picks in prop::collection::vec((0usize..6, 0usize..500, 60usize..260), 1..8),
        alien in dna(50, 300),
    ) {
        let (k, ell) = (12, 200);
        let scheme = if syncmer {
            SketchScheme::ClosedSyncmer { s: 8 }
        } else {
            SketchScheme::Minimizer { w: 6 }
        };
        let config = MapperConfig { k, w: 6, trials, ell, seed };
        let records: Vec<SeqRecord> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s.clone()))
            .collect();
        let mapper = JemMapper::build_with_scheme(&records, &config, scheme);

        // The paper's banks: bank t maps a code to the subjects whose
        // trial-t sketch set (Algorithm 1) holds it.
        let mut banks: Vec<BTreeMap<u64, BTreeSet<SubjectId>>> = vec![BTreeMap::new(); trials];
        for (s, seq) in subjects.iter().enumerate() {
            let sketch = mapper.sketch_segment(seq);
            for (bank, codes) in banks.iter_mut().zip(&sketch.per_trial) {
                for &code in codes {
                    bank.entry(code).or_default().insert(s as SubjectId);
                }
            }
        }

        // Queries: windows of the subjects (many collisions) and one alien.
        let mut queries: Vec<Vec<u8>> = picks
            .iter()
            .map(|&(i, start, len)| {
                let s = &subjects[i % subjects.len()];
                let start = start % s.len();
                s[start..(start + len).min(s.len())].to_vec()
            })
            .collect();
        queries.push(alien);

        let mut counter = mapper.new_counter();
        let mut scratch = MapScratch::new();
        for (qid, query) in queries.iter().enumerate() {
            let want = naive_ranking(&mapper, &banks, query);
            prop_assert!(want.iter().all(|&(_, c)| c as usize <= trials));
            let best = mapper.map_segment_with(query, qid as u64, &mut counter, &mut scratch);
            prop_assert_eq!(best, want.first().copied(), "best hit, T = {}", trials);
            let ranked = mapper.map_segment_topk_with(query, usize::MAX, &mut scratch);
            prop_assert_eq!(ranked, want, "full ranking, T = {}", trials);
        }
        let entries: usize = banks.iter().flat_map(|b| b.values()).map(BTreeSet::len).sum();
        prop_assert_eq!(mapper.table().entry_count(), entries);
    }
}
