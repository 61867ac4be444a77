//! Shard partitioning of the sketch table for the resident service.
//!
//! The service loads one index and answers queries from many worker
//! threads, so the lookup structure must be shared read-only.
//! [`ShardedIndex`] partitions the *slot space* — every sketch code hashes
//! to exactly one of `n_slots` global slots, and an index owns a sub-range
//! of them — the same table-splitting idea minimap2's multi-part `.mmi`
//! index uses, applied to the resident artifact.
//!
//! Ownership is a [`CodeFilter`] the probe kernel applies: a code whose
//! slot falls outside the owned range is never probed, and owned codes go
//! straight to the mapper's table. No per-slot sub-tables are
//! materialized, so a shard process over a memory-mapped JEMIDX v5 index
//! keeps *zero* private table memory — every shard on a host shares one
//! read-only mapping of the artifact, and hot reload is a remap. Because
//! each code belongs to exactly one slot and its trial masks are ORed per
//! subject, slot count and ownership can never change mapping output
//! (pinned by the equivalence suite).

use jem_core::{CodeFilter, JemMapper, MapScratch};
use jem_index::{LazyHitCounter, SubjectId};
use std::ops::Range;

/// A read-only [`JemMapper`] whose sketch table is partitioned into
/// disjoint slots by sketch-code hash, with ownership applied as a probe
/// filter.
///
/// A full index owns every slot of the partition (`new`); a router-tier
/// shard process owns only a sub-range of the global slot space
/// (`with_slots`) — codes hashing outside the owned range are simply not
/// probed, which is exactly the partial trial mask the router's merge ORs
/// back together. Workers map through
/// [`JemMapper::map_batch`] with [`ShardedIndex::filter`].
#[derive(Clone, Debug)]
pub struct ShardedIndex {
    mapper: JemMapper,
    filter: CodeFilter,
}

impl ShardedIndex {
    /// Partition `mapper`'s table into `n_shards` disjoint sub-tables,
    /// owning all of them (the single-process service).
    ///
    /// # Panics
    /// Panics if `n_shards` is zero (the CLI rejects `--shards 0` first).
    pub fn new(mapper: JemMapper, n_shards: usize) -> Self {
        ShardedIndex::with_slots(mapper, n_shards, 0..n_shards)
    }

    /// Restrict `mapper` to the `owned` sub-range of a global space of
    /// `n_slots` slots — one shard process of a router topology. No table
    /// data is copied or rebuilt: ownership is a probe filter over the
    /// mapper's (possibly memory-mapped) table, so a shard holds no
    /// private table memory at all.
    ///
    /// # Panics
    /// Panics if `owned` is empty or reaches past `n_slots`.
    pub fn with_slots(mapper: JemMapper, n_slots: usize, owned: Range<usize>) -> Self {
        ShardedIndex {
            mapper,
            filter: CodeFilter::slots(n_slots, owned),
        }
    }

    /// The wrapped mapper (config, scheme, subject names).
    pub fn mapper(&self) -> &JemMapper {
        &self.mapper
    }

    /// The probe filter of the owned slots.
    pub fn filter(&self) -> &CodeFilter {
        &self.filter
    }

    /// Number of slots in the global partition.
    pub fn n_shards(&self) -> usize {
        self.filter.n_slots()
    }

    /// The slot sub-range this index owns.
    pub fn owned_slots(&self) -> Range<usize> {
        self.filter.owned()
    }

    /// `(trial, code, subject)` association count per owned slot — the
    /// shard balance signal (`serve.shard_entries` histogram at startup).
    /// Computed by one walk over the table's codes; entries outside the
    /// owned range are not counted, matching what probes can reach.
    pub fn shard_entry_counts(&self) -> Vec<usize> {
        let owned = self.filter.owned();
        let mut counts = vec![0usize; owned.len()];
        self.mapper.table().for_each_code(|code, n| {
            let g = self.filter.slot_of(code);
            if owned.contains(&g) {
                counts[g - owned.start] += n;
            }
        });
        counts
    }

    /// A counter sized for this index (one per worker, reused across
    /// batches — the lazy strategy makes reuse free).
    pub fn new_counter(&self) -> LazyHitCounter {
        self.mapper.new_counter()
    }

    /// Every subject one segment collides with through this index's owned
    /// slots, ascending, with the trial mask of those collisions — the
    /// shard half of a router scatter-gather
    /// ([`JemMapper::segment_partials`]).
    ///
    /// Because every code lives in exactly one slot, the masks of disjoint
    /// slot ranges OR into exactly the masks the full index produces — the
    /// argmax over the OR is the single-process answer.
    pub fn segment_partials_with(
        &self,
        seg: &[u8],
        scratch: &mut MapScratch,
    ) -> Vec<(SubjectId, Vec<u32>)> {
        self.mapper.segment_partials(seg, &self.filter, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_core::{make_segments, MapperConfig, Mapping, QuerySegment};
    use jem_seq::SeqRecord;
    use std::collections::{BTreeMap, BTreeSet};

    /// What a serve worker computes: `segments` mapped in batches of
    /// three with a running query id, under the shard's filter.
    fn worker_map(index: &ShardedIndex, segments: &[QuerySegment]) -> Vec<Mapping> {
        let mut counter = index.new_counter();
        let mut scratch = MapScratch::new();
        let mut out = Vec::new();
        for (i, chunk) in segments.chunks(3).enumerate() {
            index.mapper().map_batch(
                chunk,
                3 * i as u64,
                index.filter(),
                &mut counter,
                &mut scratch,
                &mut out,
            );
        }
        out
    }

    /// The naive collision masks of `seg`: bit `t` of subject `s`'s mask is
    /// set iff its trial-`t` sketch shares a code with the segment's
    /// (Algorithm 1's per-trial sets, intersected per trial).
    fn naive_masks(
        mapper: &JemMapper,
        subjects: &[Vec<u8>],
        seg: &[u8],
    ) -> Vec<(SubjectId, Vec<u32>)> {
        let trials = mapper.config().trials;
        let query = mapper.sketch_segment(seg);
        let mut out = Vec::new();
        for (s, seq) in subjects.iter().enumerate() {
            let sketch = mapper.sketch_segment(seq);
            let mut mask = vec![0u32; jem_index::mask_words(trials)];
            for t in 0..trials {
                let bank: BTreeSet<u64> = sketch.per_trial[t].iter().copied().collect();
                if query.per_trial[t].iter().any(|c| bank.contains(c)) {
                    mask[t / 32] |= 1 << (t % 32);
                }
            }
            if mask.iter().any(|&w| w != 0) {
                out.push((s as SubjectId, mask));
            }
        }
        out
    }

    /// Six random 4 kb subjects.
    fn world_subjects() -> Vec<Vec<u8>> {
        (1..=6u64)
            .map(|seed| {
                (0..4000)
                    .scan(seed, |s, _| {
                        *s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        Some(b"ACGT"[((*s >> 33) % 4) as usize])
                    })
                    .collect()
            })
            .collect()
    }

    fn world() -> (JemMapper, Vec<SeqRecord>) {
        world_with(8)
    }

    fn world_with(trials: usize) -> (JemMapper, Vec<SeqRecord>) {
        let subjects: Vec<SeqRecord> = world_subjects()
            .into_iter()
            .enumerate()
            .map(|(i, seq)| SeqRecord::new(format!("c{i}"), seq))
            .collect();
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials,
            ell: 300,
            seed: 5,
        };
        let reads: Vec<SeqRecord> = (0..6)
            .map(|i| SeqRecord::new(format!("r{i}"), subjects[i].seq[500..1400].to_vec()))
            .collect();
        (JemMapper::build(&subjects, &config), reads)
    }

    #[test]
    fn sharding_preserves_every_entry() {
        let (mapper, _) = world();
        let total = mapper.table().entry_count();
        for n_shards in [1usize, 2, 3, 8] {
            let sharded = ShardedIndex::new(mapper.clone(), n_shards);
            assert_eq!(sharded.n_shards(), n_shards);
            let counts = sharded.shard_entry_counts();
            assert_eq!(counts.len(), n_shards);
            assert_eq!(
                counts.iter().sum::<usize>(),
                total,
                "{n_shards} shards must repartition, not drop or duplicate"
            );
        }
    }

    #[test]
    fn any_shard_count_matches_the_offline_mapper() {
        let (mapper, reads) = world();
        let segments = make_segments(&reads, mapper.config().ell);
        let expected = mapper.map_segments(&segments);
        assert!(!expected.is_empty());
        for n_shards in [1usize, 2, 5, 16] {
            let sharded = ShardedIndex::new(mapper.clone(), n_shards);
            assert_eq!(
                worker_map(&sharded, &segments),
                expected,
                "shard count {n_shards}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let (mapper, _) = world();
        let _ = ShardedIndex::new(mapper, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_owned_range_rejected() {
        let (mapper, _) = world();
        let _ = ShardedIndex::with_slots(mapper, 4, 2..2);
    }

    #[test]
    #[should_panic(expected = "reaches past")]
    fn out_of_space_owned_range_rejected() {
        let (mapper, _) = world();
        let _ = ShardedIndex::with_slots(mapper, 4, 2..5);
    }

    /// Splitting the slot space across `with_slots` pieces must lose
    /// nothing and duplicate nothing — including the degenerate shapes:
    /// one slot, more slots than distinct codes (some slots empty), and a
    /// piece whose owned range holds zero entries.
    #[test]
    fn slot_pieces_partition_the_table_exactly() {
        let (mapper, _) = world();
        let total = mapper.table().entry_count();
        for (n_slots, cuts) in [
            (1usize, vec![0usize, 1]),
            (4, vec![0, 1, 4]),
            (256, vec![0, 3, 64, 256]), // far more slots than codes
        ] {
            let mut sum = 0usize;
            for pair in cuts.windows(2) {
                let piece = ShardedIndex::with_slots(mapper.clone(), n_slots, pair[0]..pair[1]);
                assert_eq!(piece.n_shards(), n_slots);
                assert_eq!(piece.owned_slots(), pair[0]..pair[1]);
                assert_eq!(piece.shard_entry_counts().len(), pair[1] - pair[0]);
                sum += piece.shard_entry_counts().iter().sum::<usize>();
            }
            assert_eq!(sum, total, "{n_slots} slots split at {cuts:?}");
        }
    }

    /// A fully-owned `with_slots` index maps identically to `new` (and to
    /// the offline mapper), for one slot and for many more slots than the
    /// table has distinct codes.
    #[test]
    fn fully_owned_slot_index_is_output_neutral() {
        let (mapper, reads) = world();
        let segments = make_segments(&reads, mapper.config().ell);
        let expected = mapper.map_segments(&segments);
        for n_slots in [1usize, 7, 256] {
            let sharded = ShardedIndex::with_slots(mapper.clone(), n_slots, 0..n_slots);
            assert_eq!(worker_map(&sharded, &segments), expected, "{n_slots} slots");
        }
    }

    /// Partial masks from disjoint pieces OR into exactly the full index's
    /// masks, those are the naive per-trial intersections, and the router's
    /// merge of the pieces is the offline best hit — the algebraic fact the
    /// router rests on — at every mask-word edge of `T`. An empty piece
    /// contributes nothing and changes nothing.
    #[test]
    fn partials_from_pieces_union_to_the_full_sets() {
        let subjects: Vec<Vec<u8>> = world_subjects();
        for trials in [1, 31, 32, 33, 65] {
            let (mapper, reads) = world_with(trials);
            let segments = make_segments(&reads, mapper.config().ell);
            let n_slots = 8usize;
            let full = ShardedIndex::new(mapper.clone(), n_slots);
            let pieces: Vec<ShardedIndex> = [0..2, 2..3, 3..8]
                .into_iter()
                .map(|r| ShardedIndex::with_slots(mapper.clone(), n_slots, r))
                .collect();
            let mut scratch = MapScratch::new();
            let mut counter = mapper.new_counter();
            let mut nonempty_partial_seen = false;
            for (qid, seg) in segments.iter().enumerate() {
                let expected = full.segment_partials_with(&seg.seq, &mut scratch);
                assert_eq!(
                    expected,
                    naive_masks(&mapper, &subjects, &seg.seq),
                    "T = {trials}"
                );
                let mut union: BTreeMap<SubjectId, Vec<u32>> = BTreeMap::new();
                let mut per_piece = Vec::new();
                for piece in &pieces {
                    let hits = piece.segment_partials_with(&seg.seq, &mut scratch);
                    assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
                    nonempty_partial_seen |= !hits.is_empty();
                    for (s, mask) in &hits {
                        let or = union.entry(*s).or_insert_with(|| vec![0; mask.len()]);
                        for (o, &m) in or.iter_mut().zip(mask) {
                            *o |= m;
                        }
                    }
                    per_piece.push(vec![crate::SegmentPartials {
                        read_idx: seg.read_idx,
                        end: seg.end,
                        trials,
                        hits,
                    }]);
                }
                let union: Vec<(SubjectId, Vec<u32>)> = union.into_iter().collect();
                assert_eq!(union, expected, "T = {trials}, read {}", seg.read_idx);
                let merged = crate::merge_partials(std::slice::from_ref(seg), &per_piece).unwrap();
                let best =
                    mapper.map_segment_with(&seg.seq, qid as u64, &mut counter, &mut scratch);
                let offline: Vec<Mapping> = best
                    .map(|(subject, hits)| Mapping {
                        read_idx: seg.read_idx,
                        end: seg.end,
                        subject,
                        hits,
                    })
                    .into_iter()
                    .collect();
                assert_eq!(merged, offline, "T = {trials}, read {}", seg.read_idx);
            }
            assert!(
                nonempty_partial_seen,
                "world too small: no piece ever produced a collision"
            );
        }
    }
}
