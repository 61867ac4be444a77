//! Code-keyed posting runs — the build-side form of the sketch table.
//!
//! A [`MaskedRun`] is a sequence of postings ascending by `(code,
//! subject)`, no pair twice. A posting is a sketch code, a subject whose
//! sketch holds it, and the `⌈T/32⌉` trial-mask words of the trials that
//! select the pair (bit `t % 32` of word `t / 32` is trial `t`); every mask
//! is non-zero with no bit at or above `T`. That is the flat table's own
//! posting shape, so every table is born this way: a part of the subjects
//! is sketched into one run ([`sketch_runs`]), legacy per-trial entries
//! are folded into one ([`MaskedRun::from_entries`]), and
//! [`crate::FlatTable::from_runs`] merges the runs and writes the merged
//! one into the v6 layout.
//!
//! Runs also travel: [`MaskedRun::encode_framed`] flattens one into the
//! checksummed `u64` stream the distributed driver's gather step (S3)
//! charges and verifies.
//!
//! ```text
//! stream    [n_codes, (code, n_postings, postings…)*]
//! postings  a code's postings as u32 halves — subject, then W mask
//!           words — packed two per word, low half first; an odd last
//!           half is zero
//! frame     [trials, payload_len, checksum_words(payload), payload…]
//! ```
//!
//! The decoder accepts only what the encoder writes: codes strictly
//! ascending, each with at least one posting, subjects strictly ascending
//! within a code, every mask canonical and every padding half zero.

use crate::checksum::checksum_words;
use crate::SubjectId;
use jem_sketch::{MaskedSketch, SketchScratch};
use std::fmt;

/// `u32` words in a trial mask over `trials` trials: `⌈T/32⌉`.
pub fn mask_words(trials: usize) -> usize {
    trials.div_ceil(32)
}

/// Number of trials in a trial mask — the paper's hit count.
pub fn trial_count(mask: &[u32]) -> u32 {
    mask.iter().map(|w| w.count_ones()).sum()
}

/// The bits of a mask's last word that name trials below `trials`.
pub(crate) fn last_word_bits(trials: usize) -> u32 {
    match trials % 32 {
        0 => u32::MAX,
        r => (1u32 << r) - 1,
    }
}

/// True if `mask` is a canonical trial mask over `trials` trials:
/// `⌈T/32⌉` words, at least one bit set, and no bit at or above `T`.
pub fn mask_fits(mask: &[u32], trials: usize) -> bool {
    mask.len() == mask_words(trials)
        && mask.iter().any(|&w| w != 0)
        && mask
            .last()
            .is_some_and(|&w| w & !last_word_bits(trials) == 0)
}

/// Typed failure of decoding a framed run.
///
/// Every way a malformed frame can violate the
/// [`MaskedRun::encode_framed`] layout maps to a variant here — decoding
/// never panics, no matter the input words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the structure its headers promised.
    Truncated {
        /// Words the layout required at the point of failure.
        needed: usize,
        /// Words actually present.
        len: usize,
    },
    /// Words remained after the last code was fully decoded.
    TrailingGarbage {
        /// Number of unconsumed trailing words.
        extra: usize,
    },
    /// A frame declares a different trial count than expected.
    TrialMismatch {
        /// Trials declared by the stream.
        stream: usize,
        /// Trials the decoder expected.
        table: usize,
    },
    /// A frame's checksum does not match its payload.
    ChecksumMismatch {
        /// Checksum the frame header declared.
        declared: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// A code's postings break the run's invariants: codes not strictly
    /// ascending, a code without postings, subjects not strictly
    /// ascending, a zero mask, a mask bit at or above `T`, or a non-zero
    /// padding half.
    NonCanonical {
        /// Payload word offset of the offending code.
        at: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, len } => {
                write!(f, "truncated stream: needed {needed} words, have {len}")
            }
            DecodeError::TrailingGarbage { extra } => {
                write!(f, "trailing garbage: {extra} words after the last code")
            }
            DecodeError::TrialMismatch { stream, table } => {
                write!(
                    f,
                    "stream encodes {stream} trials but the table has {table}"
                )
            }
            DecodeError::ChecksumMismatch { declared, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame declares {declared:#018x}, payload hashes to {computed:#018x}"
                )
            }
            DecodeError::NonCanonical { at } => {
                write!(
                    f,
                    "non-canonical postings at payload word {at}: codes and subjects must \
                     ascend strictly, masks be non-zero inside T and padding zero"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// `u32` halves packed two per word, low half first; an odd last half is
/// paired with zero.
pub(crate) fn pack_halves(halves: &[u32]) -> impl Iterator<Item = u64> + '_ {
    halves
        .chunks(2)
        .map(|pair| u64::from(pair[0]) | pair.get(1).map_or(0, |&h| u64::from(h) << 32))
}

/// Postings ascending by `(code, subject)`, each with its trial mask (the
/// layout and invariants are in the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedRun {
    trials: usize,
    /// Each code once, ascending, with its posting count.
    pub(crate) keys: Vec<(u64, u64)>,
    /// The postings in order as `u32` halves: subject, then the mask words.
    pub(crate) halves: Vec<u32>,
}

impl MaskedRun {
    /// An empty run over `trials` trials.
    pub fn new(trials: usize) -> MaskedRun {
        MaskedRun {
            trials,
            keys: Vec::new(),
            halves: Vec::new(),
        }
    }

    /// Fold arbitrary `(trial, code, subject)` entries into a run: sort by
    /// `(code, subject)` and OR each pair's trials into one mask. Repeated
    /// entries set their bit once.
    ///
    /// # Panics
    /// Panics if an entry's trial is not below `trials`.
    pub fn from_entries(
        trials: usize,
        entries: impl IntoIterator<Item = (usize, u64, SubjectId)>,
    ) -> MaskedRun {
        let mut sorted: Vec<(u64, SubjectId, usize)> = entries
            .into_iter()
            .map(|(t, code, subject)| {
                assert!(t < trials, "entry trial {t} outside T = {trials}");
                (code, subject, t)
            })
            .collect();
        sorted.sort_unstable();
        let mut run = MaskedRun::new(trials);
        for (code, subject, t) in sorted {
            run.posting_mask(code, subject)[t / 32] |= 1 << (t % 32);
        }
        run
    }

    /// Number of trials `T`.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Number of distinct codes.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of postings — distinct `(code, subject)` pairs.
    pub fn posting_count(&self) -> usize {
        self.halves.len() / self.stride()
    }

    /// Total `(trial, code, subject)` association count: the sum of every
    /// mask's popcount.
    pub fn entry_count(&self) -> usize {
        self.halves
            .chunks_exact(self.stride())
            .map(|p| trial_count(&p[1..]) as usize)
            .sum()
    }

    /// Every posting as `(code, subject, mask words)`, in run order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SubjectId, &[u32])> + '_ {
        self.keys
            .iter()
            .flat_map(|&(code, n)| std::iter::repeat_n(code, n as usize))
            .zip(self.halves.chunks_exact(self.stride()))
            .map(|(code, p)| (code, p[0], &p[1..]))
    }

    /// `u32` halves per posting: the subject and the mask words.
    fn stride(&self) -> usize {
        1 + mask_words(self.trials)
    }

    /// The mask words of posting `(code, subject)`: the last posting's if
    /// it is that pair, else those of a new zero-masked posting appended
    /// after it. Pairs must arrive in ascending order.
    fn posting_mask(&mut self, code: u64, subject: SubjectId) -> &mut [u32] {
        let stride = self.stride();
        let last = self.halves.len().wrapping_sub(stride);
        let fresh = match self.keys.last_mut() {
            Some(key) if key.0 == code && self.halves[last] == subject => false,
            Some(key) if key.0 == code => {
                key.1 += 1;
                true
            }
            _ => {
                self.keys.push((code, 1));
                true
            }
        };
        if fresh {
            self.halves.push(subject);
            self.halves.resize(self.halves.len() + stride - 1, 0);
        }
        let n = self.halves.len();
        &mut self.halves[n - stride + 1..]
    }

    /// Merge `parts` into one run, pairwise in `⌈log₂ k⌉` rounds; equal
    /// `(code, subject)` postings OR their masks.
    pub(crate) fn merge_all(trials: usize, mut parts: Vec<MaskedRun>) -> MaskedRun {
        parts.retain(|r| !r.keys.is_empty());
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => a.merge(&b),
                    None => a,
                });
            }
            parts = next;
        }
        parts.pop().unwrap_or_else(|| MaskedRun::new(trials))
    }

    /// The sorted union of two runs, masks of equal pairs OR-ed.
    fn merge(&self, other: &MaskedRun) -> MaskedRun {
        let mut out = MaskedRun::new(self.trials);
        out.keys.reserve(self.keys.len() + other.keys.len());
        out.halves.reserve(self.halves.len() + other.halves.len());
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => (x.0, x.1) <= (y.0, y.1),
                (x, _) => x.is_some(),
            };
            let next = if take_a { a.next() } else { b.next() };
            let Some((code, subject, mask)) = next else {
                return out;
            };
            for (o, &m) in out.posting_mask(code, subject).iter_mut().zip(mask) {
                *o |= m;
            }
        }
    }

    /// Flatten to a framed, integrity-checked stream (layout in the module
    /// docs). Its length in bytes (`8 × len`) is what the communication
    /// cost model charges for step S3. Any single-word change, truncation
    /// or extension of the frame is detected by
    /// [`MaskedRun::decode_framed`].
    pub fn encode_framed(&self) -> Vec<u64> {
        let stride = self.stride();
        let mut out = Vec::with_capacity(4 + 2 * self.keys.len() + self.halves.len() / 2);
        out.extend([self.trials as u64, 0, 0, self.keys.len() as u64]);
        let mut at = 0;
        for &(code, n) in &self.keys {
            let end = at + n as usize * stride;
            out.extend([code, n]);
            out.extend(pack_halves(&self.halves[at..end]));
            at = end;
        }
        out[1] = (out.len() - 3) as u64;
        out[2] = checksum_words(&out[3..]);
        out
    }

    /// Verify a frame ([`MaskedRun::encode_framed`]) — trial count,
    /// length, checksum, then the payload's structure and canonical form —
    /// and decode it. Returns a fresh value, so a malformed frame changes
    /// nothing the caller holds.
    pub fn decode_framed(frame: &[u64], trials: usize) -> Result<MaskedRun, DecodeError> {
        if frame.len() < 3 {
            return Err(DecodeError::Truncated {
                needed: 3,
                len: frame.len(),
            });
        }
        if frame[0] != trials as u64 {
            return Err(DecodeError::TrialMismatch {
                stream: usize::try_from(frame[0]).unwrap_or(usize::MAX),
                table: trials,
            });
        }
        let payload_len = usize::try_from(frame[1]).map_err(|_| DecodeError::Truncated {
            needed: usize::MAX,
            len: frame.len(),
        })?;
        let body = frame.len() - 3;
        if body < payload_len {
            return Err(DecodeError::Truncated {
                needed: payload_len.saturating_add(3),
                len: frame.len(),
            });
        }
        if body > payload_len {
            return Err(DecodeError::TrailingGarbage {
                extra: body - payload_len,
            });
        }
        let payload = &frame[3..];
        let computed = checksum_words(payload);
        if computed != frame[2] {
            return Err(DecodeError::ChecksumMismatch {
                declared: frame[2],
                computed,
            });
        }
        Self::decode(payload, trials)
    }

    /// Decode a payload `[n_codes, (code, n_postings, postings…)*]`,
    /// refusing anything the encoder would not have written.
    fn decode(stream: &[u64], trials: usize) -> Result<MaskedRun, DecodeError> {
        let len = stream.len();
        let truncated = |needed: usize| DecodeError::Truncated { needed, len };
        let n_codes = *stream.first().ok_or(truncated(1))?;
        let mut run = MaskedRun::new(trials);
        let stride = run.stride();
        let mut i = 1usize;
        for _ in 0..n_codes {
            let at = i;
            let (code, n) = match stream.get(i..i + 2) {
                Some(&[code, n]) => (code, n),
                _ => return Err(truncated(i + 2)),
            };
            let halves = usize::try_from(n)
                .ok()
                .and_then(|n| n.checked_mul(stride))
                .ok_or(truncated(usize::MAX))?;
            i += 2;
            let end = i
                .checked_add(halves.div_ceil(2))
                .ok_or(truncated(usize::MAX))?;
            if end > len {
                return Err(truncated(end));
            }
            let non_canonical = DecodeError::NonCanonical { at };
            if n == 0 || run.keys.last().is_some_and(|k| k.0 >= code) {
                return Err(non_canonical);
            }
            let start = run.halves.len();
            for &w in &stream[i..end] {
                run.halves.extend([w as u32, (w >> 32) as u32]);
            }
            if halves % 2 == 1 && run.halves.pop() != Some(0) {
                return Err(non_canonical);
            }
            let postings = run.halves[start..].chunks_exact(stride);
            let mut prev: Option<SubjectId> = None;
            for p in postings {
                if prev.is_some_and(|s| s >= p[0]) || !mask_fits(&p[1..], trials) {
                    return Err(non_canonical);
                }
                prev = Some(p[0]);
            }
            run.keys.push((code, n));
            i = end;
        }
        if i != len {
            return Err(DecodeError::TrailingGarbage { extra: len - i });
        }
        Ok(run)
    }
}

/// Sketch `subjects` (ids `first_id..`) into one run, reusing one scratch
/// and one sketch across the whole slice — the local step of every build:
/// an index-build thread's part, or a simulated rank's block.
///
/// Each subject's [`MaskedSketch`] holds each code once, and subjects are
/// appended in id order, so one stable sort of the part's postings by code
/// leaves them ascending by `(code, subject)`.
///
/// # Panics
/// Panics if the sketcher writes a mask that is not canonical over
/// `trials` trials (see [`mask_fits`]).
pub fn sketch_runs<S: AsRef<[u8]>>(
    subjects: &[S],
    first_id: SubjectId,
    trials: usize,
    sketcher: impl Fn(&[u8], &mut SketchScratch, &mut MaskedSketch),
) -> MaskedRun {
    let w = mask_words(trials);
    let mut scratch = SketchScratch::new();
    let mut sketch = MaskedSketch::default();
    // Every posting's code and index, its subject, and its mask words.
    let mut order: Vec<(u64, u32)> = Vec::new();
    let mut owners: Vec<SubjectId> = Vec::new();
    let mut masks: Vec<u32> = Vec::new();
    for (offset, seq) in subjects.iter().enumerate() {
        sketcher(seq.as_ref(), &mut scratch, &mut sketch);
        let id = first_id + offset as SubjectId;
        for (code, mask) in sketch.iter() {
            assert!(mask_fits(mask, trials), "sketch T must match table T");
            let index = u32::try_from(owners.len()).expect("a part holds under 2^32 postings");
            order.push((code, index));
            owners.push(id);
            masks.extend_from_slice(mask);
        }
    }
    radix_sort_by_code(&mut order, &mut Vec::new());
    let mut run = MaskedRun::new(trials);
    run.halves.reserve(owners.len() * (1 + w));
    for (code, index) in order {
        let p = index as usize;
        let mask = &masks[p * w..(p + 1) * w];
        for (o, &m) in run.posting_mask(code, owners[p]).iter_mut().zip(mask) {
            *o |= m;
        }
    }
    run
}

/// Stable LSD radix sort of `(code, value)` pairs by code, 11 bits a pass
/// over the width the largest code uses (three passes for the default
/// `k = 16`) — about a third of a comparison sort's time on sketch codes.
pub(crate) fn radix_sort_by_code(run: &mut Vec<(u64, u32)>, buf: &mut Vec<(u64, u32)>) {
    const BITS: u32 = 11;
    let width = u64::BITS - run.iter().map(|p| p.0).max().unwrap_or(0).leading_zeros();
    let digit = |code: u64, shift: u32| ((code >> shift) & ((1 << BITS) - 1)) as usize;
    buf.clear();
    buf.resize(run.len(), (0, 0));
    let mut shift = 0;
    while shift < width {
        let mut starts = [0usize; 1 << BITS];
        for p in run.iter() {
            starts[digit(p.0, shift)] += 1;
        }
        let mut sum = 0;
        for s in starts.iter_mut() {
            (*s, sum) = (sum, sum + *s);
        }
        for &p in run.iter() {
            let d = digit(p.0, shift);
            buf[starts[d]] = p;
            starts[d] += 1;
        }
        std::mem::swap(run, buf);
        shift += BITS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sketch::{sketch_by_jem, sketch_masked_into, HashFamily, JemParams, SketchScheme};

    /// Entries over three trials with a repeat and a two-trial pair.
    fn sample() -> MaskedRun {
        MaskedRun::from_entries(
            3,
            [
                (0, 100, 5),
                (0, 7, 1),
                (0, 100, 2),
                (0, 100, 5),
                (2, 100, 5),
                (0, 42, 9),
                (2, 3, 0),
                (2, 3, 1),
                (2, 9, 4),
            ],
        )
    }

    fn postings(run: &MaskedRun) -> Vec<(u64, SubjectId, Vec<u32>)> {
        run.iter().map(|(c, s, m)| (c, s, m.to_vec())).collect()
    }

    #[test]
    fn from_entries_sorts_and_ors_trials() {
        let r = sample();
        assert_eq!(
            postings(&r),
            vec![
                (3, 0, vec![0b100]),
                (3, 1, vec![0b100]),
                (7, 1, vec![0b001]),
                (9, 4, vec![0b100]),
                (42, 9, vec![0b001]),
                (100, 2, vec![0b001]),
                (100, 5, vec![0b101]),
            ]
        );
        assert_eq!(
            (r.key_count(), r.posting_count(), r.entry_count()),
            (5, 7, 8)
        );
        let wide = MaskedRun::from_entries(40, [(33, 1, 0), (0, 1, 0)]);
        assert_eq!(postings(&wide), vec![(1, 0, vec![1, 0b10])]);
    }

    #[test]
    #[should_panic(expected = "outside T")]
    fn from_entries_refuses_a_trial_outside_t() {
        MaskedRun::from_entries(3, [(3, 1, 0)]);
    }

    #[test]
    fn frame_layout_packs_postings_into_halves() {
        // T = 3: one mask word, so a posting is one packed word.
        let r = MaskedRun::from_entries(3, [(0, 100, 5), (1, 100, 2), (2, 7, 1)]);
        let frame = r.encode_framed();
        let payload = vec![
            2,
            7,
            1,
            1 | 0b100 << 32,
            100,
            2,
            2 | 0b10 << 32,
            5 | 0b1 << 32,
        ];
        assert_eq!(frame[..2], [3, payload.len() as u64]);
        assert_eq!(frame[2], checksum_words(&payload));
        assert_eq!(frame[3..], payload[..]);
        // T = 40: two mask words, three halves a posting; a code's odd last
        // half is zero padding.
        let r = MaskedRun::from_entries(40, [(35, 9, 4)]);
        assert_eq!(r.encode_framed()[3..], [1, 9, 1, 4, 1 << 3]);
        assert_eq!(MaskedRun::new(5).encode_framed()[3..], [0]);
    }

    #[test]
    fn framed_roundtrip_at_every_mask_width() {
        for trials in [1, 3, 31, 32, 33, 64, 65, 100] {
            let entries =
                (0..200u64).map(|i| ((i * 7 % trials as u64) as usize, i % 23, (i % 11) as u32));
            let r = MaskedRun::from_entries(trials, entries);
            assert_eq!(
                MaskedRun::decode_framed(&r.encode_framed(), trials).unwrap(),
                r
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut payload = sample().encode_framed()[3..].to_vec();
        payload.push(99);
        assert_eq!(
            MaskedRun::decode(&payload, 3).unwrap_err(),
            DecodeError::TrailingGarbage { extra: 1 }
        );
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let payload = sample().encode_framed()[3..].to_vec();
        for cut in 0..payload.len() {
            let err = MaskedRun::decode(&payload[..cut], 3).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_huge_lengths() {
        for n in [u64::MAX, u64::MAX / 2, 1 << 40] {
            assert!(matches!(
                MaskedRun::decode(&[1, 42, n, 5 | 1 << 32], 3).unwrap_err(),
                DecodeError::Truncated { .. }
            ));
        }
    }

    #[test]
    fn decode_rejects_every_non_canonical_form() {
        let p = |subject: u64, mask: u64| subject | mask << 32;
        let cases: [(&str, usize, Vec<u64>); 7] = [
            (
                "codes out of order",
                3,
                vec![2, 9, 1, p(0, 1), 7, 1, p(0, 1)],
            ),
            ("repeated code", 3, vec![2, 7, 1, p(0, 1), 7, 1, p(1, 1)]),
            ("code without postings", 3, vec![1, 7, 0]),
            ("subjects out of order", 3, vec![1, 7, 2, p(4, 1), p(2, 1)]),
            ("repeated subject", 3, vec![1, 7, 2, p(4, 1), p(4, 2)]),
            ("zero mask", 3, vec![1, 7, 1, p(4, 0)]),
            ("mask bit at T", 3, vec![1, 7, 1, p(4, 0b1000)]),
        ];
        for (what, trials, payload) in cases {
            assert!(
                matches!(
                    MaskedRun::decode(&payload, trials),
                    Err(DecodeError::NonCanonical { .. })
                ),
                "{what}"
            );
        }
        // T = 40: a posting is three halves, so a code's last word pads.
        assert!(MaskedRun::decode(&[1, 7, 1, 4, 1], 40).is_ok());
        assert_eq!(
            MaskedRun::decode(&[1, 7, 1, 4, 1 | 1 << 32], 40).unwrap_err(),
            DecodeError::NonCanonical { at: 1 }
        );
        assert_eq!(
            MaskedRun::decode(&[1, 7, 1, 4, 1 << 8], 40).unwrap_err(),
            DecodeError::NonCanonical { at: 1 }
        );
    }

    #[test]
    fn framed_decode_detects_any_single_word_damage() {
        let frame = sample().encode_framed();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x8000_0001;
            assert!(
                MaskedRun::decode_framed(&bad, 3).is_err(),
                "flip of word {i} went undetected"
            );
        }
        for cut in 0..frame.len() {
            assert!(MaskedRun::decode_framed(&frame[..cut], 3).is_err());
        }
        let mut longer = frame.clone();
        longer.push(1);
        assert_eq!(
            MaskedRun::decode_framed(&longer, 3).unwrap_err(),
            DecodeError::TrailingGarbage { extra: 1 }
        );
        assert_eq!(
            MaskedRun::decode_framed(&frame, 6).unwrap_err(),
            DecodeError::TrialMismatch {
                stream: 3,
                table: 6
            }
        );
    }

    /// A run with enough postings, over two mask words, that its frame
    /// spans a few hundred words.
    fn fuzz_run() -> MaskedRun {
        MaskedRun::from_entries(
            40,
            (0..300u32).map(|i| ((i * 7 % 40) as usize, u64::from(i * 13 % 97), i % 11)),
        )
    }

    proptest::proptest! {
        /// Two words swapped, one word copied over another, or one word
        /// replaced, anywhere past the trial and length words (so the
        /// frame keeps its declared length): only the checksum or the
        /// structure checks can catch it, and the decoder refuses it with
        /// a typed error.
        #[test]
        fn swapped_copied_or_replaced_frame_words_are_rejected(
            kind in 0u8..3,
            i_frac in 0.0f64..1.0,
            j_frac in 0.0f64..1.0,
            value in proptest::prelude::any::<u64>(),
        ) {
            let mut frame = fuzz_run().encode_framed();
            let pristine = frame.clone();
            let pick = |f: f64| 2 + ((frame.len() - 3) as f64 * f) as usize;
            let (i, j) = (pick(i_frac), pick(j_frac));
            match kind {
                0 => frame.swap(i, j),
                1 => frame[j] = frame[i],
                _ => frame[j] = value,
            }
            proptest::prop_assume!(frame != pristine);
            proptest::prop_assert!(MaskedRun::decode_framed(&frame, 40).is_err(), "kind {kind}");
        }
    }

    #[test]
    fn merge_is_the_sorted_union_with_masks_ored() {
        let a = MaskedRun::from_entries(3, [(0, 1, 0), (0, 5, 2), (0, 9, 1)]);
        let b = MaskedRun::from_entries(3, [(1, 1, 0), (1, 2, 7), (1, 9, 3)]);
        let c = MaskedRun::from_entries(3, [(2, 0, 4), (0, 9, 1)]);
        let merged = MaskedRun::merge_all(3, vec![a, MaskedRun::new(3), b, c]);
        assert_eq!(
            postings(&merged),
            vec![
                (0, 4, vec![0b100]),
                (1, 0, vec![0b011]),
                (2, 7, vec![0b010]),
                (5, 2, vec![0b001]),
                (9, 1, vec![0b001]),
                (9, 3, vec![0b010]),
            ]
        );
        assert_eq!(MaskedRun::merge_all(3, Vec::new()), MaskedRun::new(3));
    }

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

    /// A part's run holds exactly Algorithm 1's per-trial sets, whatever
    /// the mask width, and subjects shorter and longer than ℓ alike.
    #[test]
    fn sketch_runs_fold_algorithm_1s_per_trial_sets() {
        let params = JemParams::new(8, 5, 120).unwrap();
        let scheme = SketchScheme::Minimizer { w: 5 };
        let mut subjects: Vec<Vec<u8>> = (0..9).map(|i| rng_seq(60 + 70 * i, i as u64)).collect();
        subjects.push(subjects[2].clone());
        subjects.push(Vec::new());
        for trials in [1, 31, 32, 33, 65] {
            let family = HashFamily::generate(trials, 7);
            let run = sketch_runs(&subjects, 10, trials, |seq, scratch, out| {
                sketch_masked_into(seq, 8, scheme, 120, &family, scratch, out)
            });
            let entries = subjects.iter().enumerate().flat_map(|(i, seq)| {
                let sketch = sketch_by_jem(seq, params, &family);
                sketch
                    .per_trial
                    .into_iter()
                    .enumerate()
                    .flat_map(move |(t, codes)| {
                        codes.into_iter().map(move |c| (t, c, 10 + i as SubjectId))
                    })
            });
            assert_eq!(
                run,
                MaskedRun::from_entries(trials, entries),
                "T = {trials}"
            );
        }
    }

    #[test]
    fn radix_sort_is_a_stable_sort_by_code() {
        let mut state = 0x1234_5678u64;
        for (n, width) in [(0, 0), (1, 7), (500, 20), (3000, 64)] {
            let run: Vec<(u64, u32)> = (0..n)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let code = if width == 64 {
                        state
                    } else {
                        state >> (64 - width)
                    };
                    (code % 97 * (1 + code / 97 % 3), i as u32)
                })
                .collect();
            let mut expect = run.clone();
            expect.sort_by_key(|p| p.0);
            let mut got = run;
            radix_sort_by_code(&mut got, &mut Vec::new());
            assert_eq!(got, expect, "n = {n}, width = {width}");
        }
    }

    #[test]
    fn mask_fits_checks_width_emptiness_and_range() {
        assert!(mask_fits(&[0b101], 3));
        assert!(!mask_fits(&[0], 3));
        assert!(!mask_fits(&[0b1000], 3));
        assert!(!mask_fits(&[1, 0], 3));
        assert!(mask_fits(&[0, 1], 33));
        assert!(!mask_fits(&[0, 2], 33));
        assert!(mask_fits(&[u32::MAX], 32));
        assert!(!mask_fits(&[], 0));
        assert_eq!(trial_count(&[0b1011, 1 << 31]), 4);
    }

    #[test]
    fn decode_errors_display() {
        let e = DecodeError::Truncated { needed: 10, len: 4 };
        assert!(e.to_string().contains("truncated"));
        assert!(DecodeError::TrailingGarbage { extra: 2 }
            .to_string()
            .contains("trailing"));
        assert!(DecodeError::TrialMismatch {
            stream: 1,
            table: 2
        }
        .to_string()
        .contains("trials"));
        assert!(DecodeError::ChecksumMismatch {
            declared: 1,
            computed: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(DecodeError::NonCanonical { at: 3 }
            .to_string()
            .contains("non-canonical"));
    }
}
