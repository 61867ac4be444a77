//! Positioned anchors and the per-target position index they come from.
//!
//! Stage 1 works on positionless trial collisions, so once a shortlist of
//! candidate contigs exists the refinement stage re-derives *where* the
//! shared sketch positions sit: each candidate contig is re-sketched with
//! the index's own scheme into a [`TargetIndex`] (every selected position,
//! strand-annotated, in flat arrays sorted by code), and the query
//! segment's scheme positions are joined against it to produce
//! `(read_pos, subject_pos)` [`Anchor`] pairs. Re-sketching only the
//! shortlisted candidates keeps the on-disk JEMIDX layout untouched while
//! still giving the chain DP exact coordinates.

use jem_seq::Kmer;
use jem_sketch::{Minimizer, SketchScheme};

/// One co-occurring position pair between a query segment and a target.
///
/// For reverse-strand anchors `qpos` is already flipped into target-forward
/// orientation (`seg_len − k − read_pos`) so that colinear chains are
/// increasing in both fields on either strand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Query position (target-forward orientation).
    pub qpos: u32,
    /// Target (contig) position.
    pub tpos: u32,
}

/// Scheme positions of one target contig, as two flat arrays sorted by
/// `(code, position)`: the canonical codes, and beside each its
/// occurrence packed as `position << 1 | forward` (was the canonical code
/// the forward k-mer there?). One code's occurrences are a contiguous run
/// in ascending position, found by binary search — minimap2's layout for
/// minimizer positions (Li 2018) — at 16 bytes per position.
///
/// Built lazily — only for contigs that make a stage-1 shortlist — and
/// cached per [`crate::Refiner`], so a contig is re-sketched at most once
/// per run regardless of how many segments shortlist it.
#[derive(Clone, Debug)]
pub struct TargetIndex {
    codes: Vec<u64>,
    occurrences: Vec<u64>,
    len: u32,
}

impl TargetIndex {
    /// Sketch `seq` with the mapping index's `scheme`/`k` and index every
    /// selected position by code.
    pub fn build(seq: &[u8], scheme: SketchScheme, k: usize) -> Self {
        // The scheme lists positions in ascending order, each once, so
        // sorting `(code, packed)` keeps each code's positions ascending.
        let mut pairs: Vec<(u64, u64)> = scheme
            .extract(seq, k)
            .into_iter()
            .map(|m| {
                let fwd = occurrence_is_forward(seq, m.pos as usize, k, m.code);
                (m.code, u64::from(m.pos) << 1 | u64::from(fwd))
            })
            .collect();
        pairs.sort_unstable();
        let (codes, occurrences) = pairs.into_iter().unzip();
        TargetIndex {
            codes,
            occurrences,
            len: seq.len() as u32,
        }
    }

    /// Target sequence length in bases.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no position was selected (e.g. a target shorter than `k`).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct sketch codes indexed.
    pub fn n_codes(&self) -> usize {
        self.codes.chunk_by(|a, b| a == b).count()
    }

    /// The packed occurrences of `code`, in ascending position.
    fn occurrences(&self, code: u64) -> &[u64] {
        let lo = self.codes.partition_point(|&c| c < code);
        let n = self.codes[lo..].iter().take_while(|&&c| c == code).count();
        &self.occurrences[lo..lo + n]
    }
}

/// Join the query segment's scheme positions against a target index,
/// appending forward-strand anchors to `fwd` and reverse-strand anchors
/// (query coordinate pre-flipped) to `rev`. Returns the number of anchors
/// produced.
///
/// `query_mins`/`query_fwd` are the segment's scheme positions and their
/// per-position strand flags (see [`occurrence_is_forward`]), extracted
/// once per segment and reused across every candidate target.
pub fn collect_anchors(
    query_mins: &[Minimizer],
    query_fwd: &[bool],
    seg_len: usize,
    k: usize,
    target: &TargetIndex,
    fwd: &mut Vec<Anchor>,
    rev: &mut Vec<Anchor>,
) -> usize {
    debug_assert_eq!(query_mins.len(), query_fwd.len());
    let flip_base = (seg_len - k) as u32;
    let mut produced = 0usize;
    for (m, &q_fwd) in query_mins.iter().zip(query_fwd) {
        for &packed in target.occurrences(m.code) {
            let reverse = q_fwd != (packed & 1 == 1);
            let (list, qpos) = if reverse {
                (&mut *rev, flip_base - m.pos)
            } else {
                (&mut *fwd, m.pos)
            };
            list.push(Anchor {
                qpos,
                tpos: (packed >> 1) as u32,
            });
            produced += 1;
        }
    }
    produced
}

/// Does the canonical code at `pos` equal the forward k-mer there?
pub fn occurrence_is_forward(seq: &[u8], pos: usize, k: usize, canonical_code: u64) -> bool {
    match Kmer::from_bytes(&seq[pos..pos + k]) {
        Ok(kmer) => kmer.code() == canonical_code,
        Err(_) => true, // unreachable for scheme-selected positions
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

    fn query_parts(seg: &[u8]) -> (Vec<Minimizer>, Vec<bool>) {
        let mins = SCHEME.extract(seg, K);
        let fwd = mins
            .iter()
            .map(|m| occurrence_is_forward(seg, m.pos as usize, K, m.code))
            .collect();
        (mins, fwd)
    }

    #[test]
    fn verbatim_window_yields_diagonal_forward_anchors() {
        let target = rng_seq(4_000, 17);
        let seg = &target[1_000..1_600];
        let tindex = TargetIndex::build(&target, SCHEME, K);
        let (mins, q_fwd) = query_parts(seg);
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        let n = collect_anchors(&mins, &q_fwd, seg.len(), K, &tindex, &mut fwd, &mut rev);
        assert_eq!(n, fwd.len() + rev.len());
        assert!(fwd.len() > 10, "only {} forward anchors", fwd.len());
        // The true placement appears as a perfect diagonal offset of 1000.
        let diagonal = fwd.iter().filter(|a| a.tpos == a.qpos + 1_000).count();
        assert!(
            diagonal * 2 > fwd.len(),
            "diagonal {} of {} anchors",
            diagonal,
            fwd.len()
        );
    }

    #[test]
    fn revcomp_window_yields_colinear_reverse_anchors() {
        let target = rng_seq(4_000, 29);
        let seg = revcomp_bytes(&target[2_000..2_600]);
        let tindex = TargetIndex::build(&target, SCHEME, K);
        let (mins, q_fwd) = query_parts(&seg);
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        collect_anchors(&mins, &q_fwd, seg.len(), K, &tindex, &mut fwd, &mut rev);
        assert!(rev.len() > 10, "only {} reverse anchors", rev.len());
        // After the coordinate flip the true placement is again a diagonal.
        let diagonal = rev.iter().filter(|a| a.tpos == a.qpos + 2_000).count();
        assert!(
            diagonal * 2 > rev.len(),
            "diagonal {} of {} reverse anchors",
            diagonal,
            rev.len()
        );
    }

    #[test]
    fn unrelated_sequences_share_few_anchors() {
        let target = rng_seq(4_000, 31);
        let alien = rng_seq(600, 777);
        let tindex = TargetIndex::build(&target, SCHEME, K);
        let (mins, q_fwd) = query_parts(&alien);
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        let n = collect_anchors(&mins, &q_fwd, alien.len(), K, &tindex, &mut fwd, &mut rev);
        assert!(n < 10, "{n} chance anchors is suspiciously many");
    }

    /// The join over a `HashMap` from code to `(position, forward)`
    /// occurrences in the scheme's order: the layout the flat arrays
    /// replaced.
    fn hashmap_anchors(
        target: &[u8],
        mins: &[Minimizer],
        q_fwd: &[bool],
        seg_len: usize,
    ) -> (Vec<Anchor>, Vec<Anchor>) {
        let mut map: std::collections::HashMap<u64, Vec<(u32, bool)>> = Default::default();
        for m in SCHEME.extract(target, K) {
            let fwd = occurrence_is_forward(target, m.pos as usize, K, m.code);
            map.entry(m.code).or_default().push((m.pos, fwd));
        }
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        for (m, &q) in mins.iter().zip(q_fwd) {
            for &(tpos, t) in map.get(&m.code).into_iter().flatten() {
                if q == t {
                    fwd.push(Anchor { qpos: m.pos, tpos });
                } else {
                    let qpos = (seg_len - K) as u32 - m.pos;
                    rev.push(Anchor { qpos, tpos });
                }
            }
        }
        (fwd, rev)
    }

    #[test]
    fn flat_arrays_join_like_a_hashmap_in_the_same_order() {
        for seed in 0..24u64 {
            // A random block, copied forward and reverse-complemented
            // between random spacers: every block code recurs on both
            // strands.
            let block = rng_seq(150 + 40 * (seed as usize % 5), seed);
            let mut target = Vec::new();
            for copy in 0..(2 + seed % 4) {
                target.extend(rng_seq(30 + 17 * copy as usize, seed * 101 + copy));
                if copy % 2 == 0 {
                    target.extend(&block);
                } else {
                    target.extend(revcomp_bytes(&block));
                }
            }
            let tindex = TargetIndex::build(&target, SCHEME, K);
            let mut codes: Vec<u64> = SCHEME.extract(&target, K).iter().map(|m| m.code).collect();
            let positions = codes.len();
            codes.sort_unstable();
            codes.dedup();
            assert_eq!(tindex.n_codes(), codes.len());
            assert!(positions > codes.len(), "seed {seed}: no repeated code");
            for seg in [
                block.clone(),
                revcomp_bytes(&block),
                target[10..200].to_vec(),
            ] {
                let (mins, q_fwd) = query_parts(&seg);
                let (mut fwd, mut rev) = (Vec::new(), Vec::new());
                let n = collect_anchors(&mins, &q_fwd, seg.len(), K, &tindex, &mut fwd, &mut rev);
                let (want_fwd, want_rev) = hashmap_anchors(&target, &mins, &q_fwd, seg.len());
                assert_eq!(fwd, want_fwd, "seed {seed}: forward anchors");
                assert_eq!(rev, want_rev, "seed {seed}: reverse anchors");
                assert_eq!(n, fwd.len() + rev.len());
                assert!(
                    !fwd.is_empty() && !rev.is_empty(),
                    "seed {seed}: both strands"
                );
            }
        }
    }

    #[test]
    fn short_target_builds_empty_index() {
        let tindex = TargetIndex::build(b"ACGT", SCHEME, K);
        assert!(tindex.is_empty());
        assert_eq!(tindex.len(), 4);
        assert_eq!(tindex.n_codes(), 0);
    }
}
