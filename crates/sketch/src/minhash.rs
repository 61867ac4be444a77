//! Classical Broder MinHash sketches.
//!
//! For each trial `t ∈ [1, T]`, the sketch of a set is the element with the
//! smallest value under hash function `h_t`; the paper's classical-MinHash
//! comparator (Fig. 6) applies this to the set of all canonical k-mers of a
//! sequence and stores the winning *k-mer code* (so collisions can be looked
//! up in a table keyed by k-mer).

use crate::hash::HashFamily;
use jem_seq::CanonicalKmerIter;

/// A classical MinHash sketch: one winning k-mer code per trial.
///
/// `values[t] == None` when the input had no valid k-mers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassicSketch {
    /// Per-trial winning element (k-mer code), `None` if the set was empty.
    pub values: Vec<Option<u64>>,
}

impl ClassicSketch {
    /// Number of trials `T`.
    pub fn trials(&self) -> usize {
        self.values.len()
    }

    /// Fraction of trials on which two sketches collide — the Broder
    /// estimator of the Jaccard similarity of the underlying sets.
    pub fn collision_rate(&self, other: &ClassicSketch) -> f64 {
        assert_eq!(self.trials(), other.trials(), "sketches must share T");
        if self.values.is_empty() {
            return 0.0;
        }
        let hits = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a.is_some() && a == b)
            .count();
        hits as f64 / self.values.len() as f64
    }
}

/// Classical MinHash of an arbitrary element set (u64-encoded items).
pub fn classic_minhash_set(items: &[u64], family: &HashFamily) -> ClassicSketch {
    let mut values = vec![None; family.len()];
    for (t, h) in family.iter() {
        let mut best: Option<(u64, u64)> = None; // (hash, item)
        for &x in items {
            let hv = h.hash(x);
            // Tie-break on the item itself for determinism.
            if best.is_none_or(|(bh, bx)| (hv, x) < (bh, bx)) {
                best = Some((hv, x));
            }
        }
        values[t] = best.map(|(_, x)| x);
    }
    ClassicSketch { values }
}

/// Classical MinHash over all canonical k-mers of a sequence.
///
/// Single pass over the sequence per call; all `T` trials are folded into
/// the same pass so the sequence is decoded once.
pub fn classic_minhash_seq(seq: &[u8], k: usize, family: &HashFamily) -> ClassicSketch {
    let mut minima = Vec::new();
    classic_minima_into(seq, k, family, &mut minima);
    ClassicSketch {
        values: minima.into_iter().map(|b| b.map(|(_, x)| x)).collect(),
    }
}

/// [`classic_minhash_seq`]'s pass into a reused buffer: `minima[t]` is
/// trial `t`'s least `(h_t(code), code)` over the canonical k-mers of
/// `seq`, `None` on every trial when `seq` has no valid k-mer.
pub fn classic_minima_into(
    seq: &[u8],
    k: usize,
    family: &HashFamily,
    minima: &mut Vec<Option<(u64, u64)>>,
) {
    minima.clear();
    minima.resize(family.len(), None);
    if let Ok(iter) = CanonicalKmerIter::new(seq, k) {
        for (_, kmer) in iter {
            let x = kmer.code();
            for (t, h) in family.iter() {
                let hv = h.hash(x);
                if minima[t].is_none_or(|(bh, bx)| (hv, x) < (bh, bx)) {
                    minima[t] = Some((hv, x));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_gives_none() {
        let f = HashFamily::generate(4, 1);
        let s = classic_minhash_set(&[], &f);
        assert!(s.values.iter().all(Option::is_none));
        assert_eq!(s.trials(), 4);
    }

    #[test]
    fn identical_sets_always_collide() {
        let f = HashFamily::generate(32, 7);
        let items = [3u64, 17, 99, 1024];
        let a = classic_minhash_set(&items, &f);
        let b = classic_minhash_set(&items, &f);
        assert_eq!(a.collision_rate(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let f = HashFamily::generate(64, 11);
        let a: Vec<u64> = (0..50).collect();
        let b: Vec<u64> = (1000..1050).collect();
        let sa = classic_minhash_set(&a, &f);
        let sb = classic_minhash_set(&b, &f);
        assert_eq!(
            sa.collision_rate(&sb),
            0.0,
            "disjoint sets cannot share a minimum"
        );
    }

    #[test]
    fn collision_rate_estimates_jaccard() {
        // |A ∩ B| / |A ∪ B| = 50 / 150 = 1/3; estimator should be close.
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (50..150).collect();
        let f = HashFamily::generate(600, 23);
        let est = classic_minhash_set(&a, &f).collision_rate(&classic_minhash_set(&b, &f));
        assert!(
            (est - 1.0 / 3.0).abs() < 0.08,
            "estimate {est} too far from 1/3"
        );
    }

    #[test]
    fn seq_sketch_matches_set_sketch() {
        let seq = b"ACGGTTACGATTTACCAGTGGATCGAACGGTTAC";
        let k = 5;
        let f = HashFamily::generate(16, 3);
        let from_seq = classic_minhash_seq(seq, k, &f);
        let items: Vec<u64> = jem_seq::CanonicalKmerIter::new(seq, k)
            .unwrap()
            .map(|(_, km)| km.code())
            .collect();
        let from_set = classic_minhash_set(&items, &f);
        assert_eq!(from_seq, from_set);
    }

    #[test]
    fn seq_with_no_kmers() {
        let f = HashFamily::generate(4, 9);
        let s = classic_minhash_seq(b"NN", 5, &f);
        assert!(s.values.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "must share T")]
    fn mismatched_trials_panics() {
        let f4 = HashFamily::generate(4, 1);
        let f8 = HashFamily::generate(8, 1);
        let a = classic_minhash_set(&[1], &f4);
        let b = classic_minhash_set(&[1], &f8);
        a.collision_rate(&b);
    }
}
