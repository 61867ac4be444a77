//! Code-keyed sketches: each distinct code once, with its trial mask.
//!
//! The sketch table stores each `(code, subject)` pair once with a trial
//! mask, and the probe kernel looks every distinct query code up once and
//! ANDs the query's trial mask with each posting's, so subjects and
//! queries alike are wanted in that shape: [`MaskedSketch`] holds each code
//! the JEM sketch selects with the `⌈T/32⌉` mask words of the trials that
//! select it.
//!
//! [`sketch_masked_into`] fills one from a sequence. It winnows once, then
//! picks the selection by the span of the position list:
//!
//! * **At most ℓ** (`last.pos − first.pos ≤ ℓ`, true of every sequence of
//!   at most `ℓ + k` bases, so of every end segment): every interval `M_i`
//!   of Algorithm 1 reaches the last position, so `M_i` is the suffix from
//!   `i` and trial `t`'s sketch is the set of right-to-left minimum
//!   records of `h_t`. One backward pass with a running minimum per trial
//!   finds them for all `T` trials at once.
//! * **Longer**: the general kernel computes the per-trial sets, which are
//!   then fused by code.
//!
//! Both are exact: they produce the same `(code, mask)` pairs, in
//! different orders. Subjects (index build, S2) and queries share this
//! entry point; contigs longer than ℓ take the general kernel.

use crate::hash::{HashFamily, MERSENNE_P61};
use crate::jem::{select_into, SelectScratch, SketchScratch};
use crate::minimizer::Minimizer;
use crate::scheme::SketchScheme;

/// A sketch keyed by code: every distinct code selected on some trial,
/// once, with its trial mask — bit `t % 32` of mask word `t / 32` is set
/// iff the code is in trial `t`'s sketch set.
///
/// [`codes`](Self::codes) and [`masks`](Self::masks) are laid out as the
/// probe kernel reads them: code `i`'s mask words are
/// `masks[i * w .. (i + 1) * w]` with `w = ⌈T/32⌉`. Code order is
/// unspecified: the pass emits right to left, the fuse in first-seen
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaskedSketch {
    words: usize,
    codes: Vec<u64>,
    masks: Vec<u32>,
}

impl MaskedSketch {
    /// Fuse `(code, trial)` entries (every trial below `trials`) into
    /// code-keyed form, codes in first-seen order.
    pub fn from_entries(trials: usize, entries: impl IntoIterator<Item = (u64, usize)>) -> Self {
        let entries: Vec<(u64, usize)> = entries.into_iter().collect();
        let mut out = MaskedSketch::default();
        out.fill_from_entries(trials, &entries, &mut Vec::new());
        out
    }

    /// [`from_entries`](Self::from_entries) into this sketch's
    /// allocations, with `index` as the fuse's reusable hash index.
    pub fn fill_from_entries(
        &mut self,
        trials: usize,
        entries: &[(u64, usize)],
        index: &mut Vec<u32>,
    ) {
        self.fuse(trials, entries.len(), entries.iter().copied(), index);
    }

    /// Mask words per code, `⌈T/32⌉`.
    pub fn mask_words(&self) -> usize {
        self.words
    }

    /// Number of distinct codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no trial selected any code.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The distinct codes.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// The codes' mask words, [`mask_words`](Self::mask_words) per code.
    pub fn masks(&self) -> &[u32] {
        &self.masks
    }

    /// Each code with its mask words.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> {
        self.codes
            .iter()
            .copied()
            .zip(self.masks.chunks_exact(self.words.max(1)))
    }

    /// Total `(trial, code)` entries: the sum of the masks' popcounts.
    pub fn entries(&self) -> u64 {
        self.masks.iter().map(|m| u64::from(m.count_ones())).sum()
    }

    /// Empty the sketch for `trials` trials, keeping its allocations.
    fn reset(&mut self, trials: usize) {
        self.words = trials.div_ceil(32);
        self.codes.clear();
        self.masks.clear();
    }

    /// Replace the contents with the fuse of at most `max_entries` entries
    /// through the open-addressing `index` (kept at most half full).
    fn fuse(
        &mut self,
        trials: usize,
        max_entries: usize,
        entries: impl IntoIterator<Item = (u64, usize)>,
        index: &mut Vec<u32>,
    ) {
        self.reset(trials);
        let w = self.words;
        let slots = (2 * max_entries).next_power_of_two().max(16);
        index.clear();
        index.resize(slots, 0);
        for (code, t) in entries {
            debug_assert!(t < trials, "trial {t} out of range");
            let mut i = (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (slots - 1);
            let at = loop {
                match index[i] as usize {
                    0 => {
                        self.codes.push(code);
                        self.masks.resize(self.masks.len() + w, 0);
                        index[i] = self.codes.len() as u32;
                        break self.codes.len() - 1;
                    }
                    n if self.codes[n - 1] == code => break n - 1,
                    _ => i = (i + 1) & (slots - 1),
                }
            };
            self.masks[at * w + t / 32] |= 1 << (t % 32);
        }
    }
}

/// The JEM sketch of `seq` under `scheme`, in code-keyed form: winnow once
/// into `scratch` (where [`SketchScratch::minimizers`] then reads the
/// list), then run the end-segment pass when the list spans at most `ell`,
/// or the general kernel and the fuse otherwise. Either way the pairs are
/// the per-trial sets of [`sketch_by_scheme`](crate::sketch_by_scheme)
/// fused by code.
pub fn sketch_masked_into(
    seq: &[u8],
    k: usize,
    scheme: SketchScheme,
    ell: usize,
    family: &HashFamily,
    scratch: &mut SketchScratch,
    out: &mut MaskedSketch,
) {
    let SketchScratch {
        mins,
        winnow,
        select,
        per_trial,
        fuse,
    } = scratch;
    scheme.extract_into(seq, k, winnow, mins);
    let spans_at_most_ell = match (mins.first(), mins.last()) {
        (Some(first), Some(last)) => u64::from(last.pos - first.pos) <= ell as u64,
        _ => true,
    };
    if spans_at_most_ell {
        end_segment_select(mins, family, select, out);
    } else {
        select_into(mins, ell, family, select, per_trial);
        out.fuse(
            family.len(),
            per_trial.total_entries(),
            per_trial.entries(),
            fuse,
        );
    }
}

/// Algorithm 1 on a position list spanning at most ℓ, recorded as the
/// `sketch/select` span. Ranks by the general kernel's key: the bare hash
/// when every code is below the modulus (each trial hash is then
/// injective over the codes), `(hash, code)` otherwise (`k ≥ 31` only).
fn end_segment_select(
    mins: &[Minimizer],
    family: &HashFamily,
    scratch: &mut SelectScratch,
    out: &mut MaskedSketch,
) {
    let rec = jem_obs::recorder();
    let enabled = rec.enabled();
    let _span = enabled.then(|| jem_obs::Span::enter(rec, "sketch/select"));
    out.reset(family.len());
    if mins.iter().all(|m| m.code < MERSENNE_P61) {
        end_segment_pass(
            mins,
            family,
            |h, _| h,
            u64::MAX,
            &mut scratch.hashes,
            &mut scratch.best,
            out,
        );
    } else {
        end_segment_pass(
            mins,
            family,
            |h, code| (u128::from(h) << 64) | u128::from(code),
            u128::MAX,
            &mut scratch.hashes,
            &mut scratch.best_wide,
            out,
        );
    }
    if enabled {
        rec.add("sketch.sketches_emitted", out.entries());
    }
}

/// The backward pass: walk `mins` from last to first, hashing each code on
/// all `T` trials at once and keeping trial `t`'s running minimum key. A
/// minimizer wins trial `t` when its key is strictly below that minimum,
/// which makes it the minimum of every interval `M_i` from its position
/// back to the previous winner — exactly the trial-`t` winners of
/// Algorithm 1 when every interval is a suffix. It is emitted with the
/// mask of the trials it wins when that mask is not empty. An earlier copy
/// of a code meets a running minimum no larger than its own key, so each
/// code is emitted at most once: at its rightmost occurrence.
///
/// `key` ranks a `(hash, code)` pair; `above` ranks above every key.
fn end_segment_pass<K: Copy + Ord>(
    mins: &[Minimizer],
    family: &HashFamily,
    key: impl Fn(u64, u64) -> K,
    above: K,
    hashes: &mut Vec<u64>,
    best: &mut Vec<K>,
    out: &mut MaskedSketch,
) {
    let w = out.words;
    best.clear();
    best.resize(family.len(), above);
    for m in mins.iter().rev() {
        family.hash_all_lanes(m.code, hashes);
        let at = out.masks.len();
        out.masks.resize(at + w, 0);
        let mut any = 0u32;
        for ((word, hs), bs) in out.masks[at..]
            .iter_mut()
            .zip(hashes.chunks(32))
            .zip(best.chunks_mut(32))
        {
            let mut bits = 0u32;
            for (i, (&h, b)) in hs.iter().zip(bs.iter_mut()).enumerate() {
                let k = key(h, m.code);
                bits |= u32::from(k < *b) << i;
                *b = (*b).min(k);
            }
            *word = bits;
            any |= bits;
        }
        if any == 0 {
            out.masks.truncate(at);
        } else {
            out.codes.push(m.code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_merges_trials_of_one_code() {
        let s = MaskedSketch::from_entries(40, [(7, 0), (9, 1), (7, 33), (7, 1)]);
        assert_eq!(s.mask_words(), 2);
        assert_eq!(s.codes(), &[7, 9]);
        assert_eq!(s.masks(), &[0b11, 0b10, 0b10, 0]);
        assert_eq!(s.entries(), 4);
    }
}
