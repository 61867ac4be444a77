//! Property-based tests for the index layer.

use jem_index::{
    FlatTable, HitCounter, LazyHitCounter, MaskedRun, NaiveHitCounter, ProbeScratch, U64Map,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

proptest! {
    #[test]
    fn u64map_models_std_hashmap(ops in prop::collection::vec((0u64..200, 0u32..1000), 0..300)) {
        let mut ours: U64Map<u32> = U64Map::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (k, v) in ops {
            prop_assert_eq!(ours.insert(k, v), model.insert(k, v));
            prop_assert_eq!(ours.len(), model.len());
        }
        for (k, v) in &model {
            prop_assert_eq!(ours.get(*k), Some(v));
        }
        let mut keys: Vec<u64> = ours.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        let mut expect: Vec<u64> = model.keys().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(keys, expect);
    }

    #[test]
    fn lazy_counter_equals_naive(
        stream in prop::collection::vec((0u64..40, 0u32..30, 1u32..=u32::MAX, any::<u32>()), 1..400),
    ) {
        // Queries must be processed in order (the paper's "one by one");
        // sort the stream by query id to model that.
        let mut stream = stream;
        stream.sort_by_key(|&(q, ..)| q);
        let mut lazy = LazyHitCounter::new(30, 64);
        let mut naive = NaiveHitCounter::new(30, 64);
        let mut last_q = None;
        for &(q, s, lo, hi) in &stream {
            lazy.record(q, s, &[lo, hi]);
            naive.record(q, s, &[lo, hi]);
            last_q = Some(q);
        }
        if let Some(q) = last_q {
            prop_assert_eq!(lazy.best(q), naive.best(q));
            for s in 0..30u32 {
                prop_assert_eq!(lazy.count(q, s), naive.count(q, s));
            }
        }
    }

    #[test]
    fn runs_encode_decode_roundtrip(
        trials in prop::sample::select(vec![1usize, 4, 32, 33, 64, 65]),
        entries in prop::collection::vec((0usize..65, 0u64..500, 0u32..60), 0..200),
    ) {
        let entries: Vec<(usize, u64, u32)> =
            entries.into_iter().map(|(t, c, s)| (t % trials, c, s)).collect();
        let runs = runs_of(trials, &entries);
        prop_assert_eq!(runs.entry_count(), reference(&entries).values().map(BTreeSet::len).sum::<usize>());
        prop_assert_eq!(MaskedRun::decode_framed(&runs.encode_framed(), trials).unwrap(), runs);
    }

    #[test]
    fn table_lookup_is_the_sorted_unique_subject_set(
        entries in prop::collection::vec((0u64..50, 0u32..40), 0..300),
    ) {
        let tagged: Vec<(usize, u64, u32)> = entries.iter().map(|&(c, s)| (0, c, s)).collect();
        let table = FlatTable::from_runs(1, vec![runs_of(1, &tagged)]);
        let want = reference(&tagged);
        prop_assert_eq!(table.key_count(), want.len());
        for (code, _) in &entries {
            let expect: Vec<u32> = want[&(0, *code)].iter().copied().collect();
            prop_assert_eq!(lookup(&table, 0, *code), expect);
        }
    }

    #[test]
    fn merging_parts_writes_the_one_shot_blob(
        parts in prop::collection::vec(
            prop::collection::vec((0usize..2, 0u64..80, 0u32..40), 0..80),
            1..5,
        ),
    ) {
        // The distributed S3 path (merge p ranks' runs) must write exactly
        // the blob of one build over every posting.
        let all: Vec<(usize, u64, u32)> = parts.iter().flatten().copied().collect();
        let one_shot = FlatTable::from_runs(2, vec![runs_of(2, &all)]);
        let merged = FlatTable::from_runs(2, parts.iter().map(|p| runs_of(2, p)).collect());
        prop_assert_eq!(merged.blob(), one_shot.blob());
        let want = reference(&all);
        let codes: BTreeSet<u64> = want.keys().map(|&(_, code)| code).collect();
        prop_assert_eq!(merged.key_count(), codes.len());
        prop_assert_eq!(merged.entry_count(), want.values().map(BTreeSet::len).sum::<usize>());
        prop_assert!(merged.verify_postings().is_ok());
        for (&(t, code), subjects) in &want {
            prop_assert!(lookup(&merged, t, code).iter().eq(subjects.iter()));
        }
    }
}

/// The subjects holding `code` on trial `t`: a one-code, one-trial probe.
fn lookup(table: &FlatTable, t: usize, code: u64) -> Vec<u32> {
    let mut qmask = vec![0u32; table.mask_words()];
    qmask[t / 32] = 1 << (t % 32);
    let mut out = Vec::new();
    table.probe(&[code], &qmask, &mut ProbeScratch::default(), |s, _| {
        out.push(s)
    });
    out
}

/// Unsorted `(trial, code, subject)` entries as a run.
fn runs_of(trials: usize, entries: &[(usize, u64, u32)]) -> MaskedRun {
    MaskedRun::from_entries(trials, entries.iter().copied())
}

/// The naive table the flat one must match.
fn reference(entries: &[(usize, u64, u32)]) -> BTreeMap<(usize, u64), BTreeSet<u32>> {
    let mut table: BTreeMap<(usize, u64), BTreeSet<u32>> = BTreeMap::new();
    for &(t, code, subject) in entries {
        table.entry((t, code)).or_default().insert(subject);
    }
    table
}
