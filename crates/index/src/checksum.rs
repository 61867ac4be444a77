//! The one integrity checksum behind every artifact: index files, the
//! framed S2→S3 runs and serve wire frames.
//!
//! Shaped like XXH64 (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>)
//! but not bit-compatible with it. The input is read as little-endian
//! `u64` words; a last partial word is zero-padded, and the byte length
//! is mixed in, so padding cannot alias.
//!
//! ```text
//! stripes  32 bytes each, word i into lane i:  v ← rotl(v + w·P2, 31)·P1
//! merge    (inputs of 32 bytes or more) h ← P5, then h ← fold(h, v) per lane
//! length   h ← h + byte length                   (h = P5 before, if short)
//! tail     the 0–4 words after the last stripe:  h ← fold(h, w)
//! fold     rotl(h ⊕ rotl(w·P2, 31)·P1, 27)·P1 + P4
//! finish   xorshift–multiply avalanche
//! ```
//!
//! **A change confined to one word always changes the result.** For a
//! fixed word a lane round is a bijection of the lane (add, rotate and
//! multiply by an odd constant), and for a fixed lane it is injective in
//! the word. `fold` is a bijection in either argument with the other
//! fixed, merge and tail are chains of folds, and each avalanche step
//! (xorshift, odd multiply) is a bijection. So a word changed inside a
//! stripe leaves its lane different through every later stripe, the merge
//! and the rest; a changed tail word leaves `h` different from its fold
//! on. The four lanes are independent chains, so the loop runs at memory
//! bandwidth where a byte-at-a-time hash is bound by one multiply per
//! byte.
//!
//! Three entries hash the same stream: [`checksum_bytes`] over bytes,
//! [`checksum_words`] over words, and [`checksum_chain`] over words split
//! across buffers (the index writer streams header, names and table each
//! from its own buffer).

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Lane states before the first stripe.
const LANES: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];

/// Bytes in one stripe: one word per lane.
const STRIPE: usize = 32;

/// One lane round: a bijection of `acc` for a fixed `word`, injective in
/// `word` for a fixed `acc`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Fold one word (a lane in the merge, a word in the tail) into `h`: a
/// bijection in either argument while the other is fixed.
#[inline(always)]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The final avalanche: three xorshifts and two odd multiplies, each a
/// bijection.
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Merge, length, tail and avalanche: everything after the stripes.
fn finish(lanes: [u64; 4], len: u64, tail: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = P5;
    if len >= STRIPE as u64 {
        h = lanes.into_iter().fold(h, fold);
    }
    h = h.wrapping_add(len);
    avalanche(tail.into_iter().fold(h, fold))
}

/// Run whole stripes of words through the lanes.
#[inline]
fn stripes(lanes: &mut [u64; 4], stripes: std::slice::ChunksExact<'_, u64>) {
    let [mut a, mut b, mut c, mut d] = *lanes;
    for s in stripes {
        a = round(a, s[0]);
        b = round(b, s[1]);
        c = round(c, s[2]);
        d = round(d, s[3]);
    }
    *lanes = [a, b, c, d];
}

/// The little-endian word at byte offset `at` of `bytes` (`at + 8 ≤ len`).
#[inline(always)]
fn le_word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// The checksum of a byte string — the entry for wire frames and any
/// artifact read as bytes. Equals [`checksum_words`] of the little-endian
/// words when the length is a multiple of 8.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut lanes = LANES;
    let stripes = bytes.chunks_exact(STRIPE);
    let rest = stripes.remainder();
    let [mut a, mut b, mut c, mut d] = lanes;
    for s in stripes {
        a = round(a, le_word(s, 0));
        b = round(b, le_word(s, 8));
        c = round(c, le_word(s, 16));
        d = round(d, le_word(s, 24));
    }
    lanes = [a, b, c, d];
    let tail = rest.chunks(8).map(|w| {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(padded)
    });
    finish(lanes, bytes.len() as u64, tail)
}

/// The checksum of a word stream: [`checksum_bytes`] of each word's
/// little-endian bytes in order.
pub fn checksum_words(words: &[u64]) -> u64 {
    checksum_chain([words])
}

/// [`checksum_words`] of the concatenation of `parts`, without building
/// it: writers that stream sections from separate buffers hash them here.
/// Any split of a stream hashes as the whole.
pub fn checksum_chain<'a>(parts: impl IntoIterator<Item = &'a [u64]>) -> u64 {
    let mut lanes = LANES;
    // Words of an unfinished stripe, carried across part boundaries.
    let mut pending = [0u64; 4];
    let mut n_pending = 0usize;
    let mut n_words = 0u64;
    for mut words in parts {
        n_words += words.len() as u64;
        if n_pending > 0 {
            let take = (4 - n_pending).min(words.len());
            pending[n_pending..n_pending + take].copy_from_slice(&words[..take]);
            n_pending += take;
            words = &words[take..];
            if n_pending < 4 {
                continue;
            }
            stripes(&mut lanes, pending.chunks_exact(4));
        }
        let whole = words.chunks_exact(4);
        let rest = whole.remainder();
        stripes(&mut lanes, whole);
        pending[..rest.len()].copy_from_slice(rest);
        n_pending = rest.len();
    }
    finish(lanes, n_words * 8, pending[..n_pending].iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic words (splitmix64), so the sweeps below need no rng.
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn golden_values_are_pinned() {
        // Any change to the function breaks every index file, frame and
        // wire frame written before it: these values must never move.
        let counting: Vec<u8> = (0..=255).collect();
        let golden: [(u64, u64); 7] = [
            (checksum_bytes(b""), 0xef46_db37_51d8_e999),
            (checksum_bytes(b"a"), 0xa563_c3d1_b633_e001),
            (checksum_bytes(b"foobar"), 0xad8d_9825_2a19_3d85),
            (checksum_bytes(&counting), 0xda1e_8d32_67a6_924b),
            (checksum_words(&[]), 0xef46_db37_51d8_e999),
            (checksum_words(&[1, 2, 3, u64::MAX]), 0x38de_8715_affe_6576),
            (checksum_words(&words(37, 7)), 0x1988_24d7_394c_a4a7),
        ];
        for (i, (got, want)) in golden.into_iter().enumerate() {
            assert_eq!(got, want, "golden value {i}: {got:#018x}");
        }
    }

    #[test]
    fn the_byte_and_word_entries_hash_the_same_stream() {
        for n in 0..40 {
            let w = words(n, n as u64);
            assert_eq!(
                checksum_bytes(&le_bytes(&w)),
                checksum_words(&w),
                "{n} words"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_of_every_word_changes_it() {
        // Three stripes and a three-word tail, through both entries.
        let pristine = words(15, 11);
        let (by_words, by_bytes) = (
            checksum_words(&pristine),
            checksum_bytes(&le_bytes(&pristine)),
        );
        for i in 0..pristine.len() {
            for bit in 0..64 {
                let mut bad = pristine.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(checksum_words(&bad), by_words, "word {i} bit {bit}");
                assert_ne!(
                    checksum_bytes(&le_bytes(&bad)),
                    by_bytes,
                    "word {i} bit {bit}"
                );
            }
        }
        // A byte length off the word grid: the zero-padded last word too.
        let odd = &le_bytes(&words(14, 12))[..109];
        let sum = checksum_bytes(odd);
        for i in 0..odd.len() {
            for bit in 0..8 {
                let mut bad = odd.to_vec();
                bad[i] ^= 1 << bit;
                assert_ne!(checksum_bytes(&bad), sum, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn zero_padding_and_length_do_not_alias() {
        // A trailing zero byte pads to the same last word: the length
        // tells them apart.
        assert_ne!(checksum_bytes(b"ab"), checksum_bytes(b"ab\0"));
        assert_ne!(checksum_words(&[0]), checksum_words(&[0, 0]));
        let w = words(8, 3);
        assert_ne!(checksum_words(&w), checksum_words(&w[..7]));
    }

    #[test]
    fn every_split_of_a_word_chain_hashes_as_the_whole() {
        let w = words(19, 5);
        let whole = checksum_words(&w);
        for i in 0..=w.len() {
            for j in i..=w.len() {
                let parts = [&w[..i], &w[i..j], &[][..], &w[j..]];
                assert_eq!(checksum_chain(parts), whole, "split at {i}, {j}");
            }
        }
    }

    proptest! {
        /// Replacing any one word with any other value changes the sum,
        /// at every length and position.
        #[test]
        fn replacing_one_word_always_changes_it(
            n in 1usize..64,
            seed in any::<u64>(),
            at_frac in 0.0f64..1.0,
            with in any::<u64>(),
        ) {
            let pristine = words(n, seed);
            let at = ((n - 1) as f64 * at_frac) as usize;
            prop_assume!(pristine[at] != with);
            let mut bad = pristine.clone();
            bad[at] = with;
            prop_assert_ne!(checksum_words(&bad), checksum_words(&pristine));
            prop_assert_ne!(checksum_bytes(&le_bytes(&bad)), checksum_bytes(&le_bytes(&pristine)));
        }

        /// Cutting a word stream into any parts leaves the sum unchanged.
        #[test]
        fn random_splits_of_a_chain_hash_as_the_whole(
            n in 0usize..200,
            seed in any::<u64>(),
            cuts in prop::collection::vec(0.0f64..1.0, 0..12),
        ) {
            let w = words(n, seed);
            let mut at: Vec<usize> = cuts.iter().map(|f| (n as f64 * f) as usize).collect();
            at.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in at {
                parts.push(&w[from..cut]);
                from = cut;
            }
            parts.push(&w[from..]);
            prop_assert_eq!(checksum_chain(parts), checksum_words(&w));
        }
    }
}
