//! Property tests for the code-keyed query sketch.
//!
//! Sequences run from `ℓ − k` to `ℓ + 2k` bases, so their position lists
//! fall on both sides of the end-segment condition (`last.pos − first.pos
//! ≤ ℓ`, always met up to `ℓ + k` bases): the one-pass selection and the
//! general kernel plus fuse are both checked against the reference's
//! per-trial sets fused by code — Algorithm 1 transliterated for
//! minimizers, the general kernel for syncmers. Tandem repeats make codes
//! recur, which the pass must still emit once. Trial counts straddle the
//! mask-word edges; `k = 31` and `32` reach the hash modulus, where the
//! pass ranks by `(hash, code)`.

use jem_sketch::jem::sketch_by_jem_naive;
use jem_sketch::{
    sketch_by_scheme, sketch_masked_into, HashFamily, JemParams, MaskedSketch, SketchScheme,
    SketchScratch,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ELL: usize = 150;
const MAX_K: usize = 32;

fn bases() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T']),
        ELL + 2 * MAX_K..ELL + 2 * MAX_K + 1,
    )
}

fn by_code(sketch: &MaskedSketch) -> BTreeMap<u64, Vec<u32>> {
    sketch.iter().map(|(c, m)| (c, m.to_vec())).collect()
}

proptest! {
    #[test]
    fn pairs_are_the_reference_sets_fused_by_code(
        (trials, k, syncmer, w) in (
            prop::sample::select(vec![1usize, 30, 31, 32, 33, 65]),
            prop::sample::select(vec![12usize, 16, 31, 32]),
            any::<bool>(),
            1usize..12,
        ),
        (seed, len, period, n_run) in (
            any::<u64>(),
            0usize..=3 * MAX_K,
            prop::sample::select(vec![None, None, Some(17usize), Some(40), Some(75)]),
            prop::sample::select(vec![None, Some((0usize, 1usize)), Some((40, 3)), Some((90, 25))]),
        ),
        bases in bases(),
    ) {
        let mut seq = bases[..ELL - k + len % (3 * k + 1)].to_vec();
        // A tandem repeat: the same codes recur along the segment.
        if let Some(p) = period {
            for i in p..seq.len() {
                seq[i] = seq[i - p];
            }
        }
        if let Some((start, run)) = n_run {
            for b in seq.iter_mut().skip(start).take(run) {
                *b = b'N';
            }
        }
        let family = HashFamily::generate(trials, seed);
        let scheme = if syncmer {
            SketchScheme::ClosedSyncmer { s: k - 4 }
        } else {
            SketchScheme::Minimizer { w }
        };
        let reference = if syncmer {
            sketch_by_scheme(&seq, k, scheme, ELL, &family)
        } else {
            sketch_by_jem_naive(&seq, JemParams::new(k, w, ELL).unwrap(), &family)
        };

        let mut scratch = SketchScratch::new();
        let mut out = MaskedSketch::default();
        sketch_masked_into(&seq, k, scheme, ELL, &family, &mut scratch, &mut out);

        let words = trials.div_ceil(32);
        prop_assert_eq!(out.mask_words(), words);
        prop_assert_eq!(out.masks().len(), out.len() * words);
        let distinct = by_code(&out);
        prop_assert_eq!(distinct.len(), out.len(), "a code was emitted twice");
        for (code, mask) in out.iter() {
            prop_assert!(mask.iter().any(|&m| m != 0), "empty mask for {}", code);
            for t in trials..32 * words {
                prop_assert!(mask[t / 32] >> (t % 32) & 1 == 0, "bit {} of {}", t, code);
            }
        }
        let fused = MaskedSketch::from_entries(trials, reference.entries());
        prop_assert_eq!(distinct, by_code(&fused));
        prop_assert_eq!(out.entries(), reference.total_entries() as u64);
        prop_assert_eq!(scratch.minimizers(), &scheme.extract(&seq, k)[..]);
    }
}
