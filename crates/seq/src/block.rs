//! Block 2-bit encoding: the branch-free front end of the sketching kernel.
//!
//! [`CanonicalKmerIter`](crate::kmer::CanonicalKmerIter) pays a per-byte
//! `match encode_base(b)` — a data-dependent branch plus a reset path — for
//! every base it rolls over. This module removes that cost by splitting the
//! work into two phases done *once* per sequence:
//!
//! 1. **Translate + pack.** Each 32-byte block is pushed through the 256-entry
//!    [`ENCODE_LUT`], yielding a packed `u64` word (2 bits per base, base `i`
//!    of the sequence in bits `2*(i%32)` of word `i/32`) and a 32-bit validity
//!    mask marking ambiguous bytes. The loops are fixed-width with no
//!    early-exit branches, so LLVM unrolls and vectorizes them.
//! 2. **Run split.** The per-block masks are folded into a list of *maximal
//!    valid runs* ([`Run`]). Inside a run every base is a valid 2-bit code, so
//!    downstream k-mer loops ([`RunCodes`]) read codes by shift/mask with no
//!    validity checks and no reset logic at all.

use crate::alphabet::{ENCODE_LUT, INVALID_CODE};

/// Number of bases packed into each `u64` word (2 bits per base).
pub const BASES_PER_WORD: usize = 32;

/// One maximal run of consecutive unambiguous bases in the source sequence.
///
/// Runs are produced in position order, never empty, never adjacent (they are
/// separated by at least one invalid byte), and never overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// 0-based position of the run's first base in the source sequence.
    pub start: u32,
    /// Number of bases in the run (always ≥ 1).
    pub len: u32,
}

impl Run {
    /// One-past-the-end position of the run in the source sequence.
    #[inline]
    pub fn end(&self) -> usize {
        self.start as usize + self.len as usize
    }
}

/// A sequence block-encoded into 2-bit packed words plus its valid runs.
///
/// Reusable: [`encode_into`](Self::encode_into) clears and refills the
/// internal buffers without reallocating across sequences of similar length.
#[derive(Clone, Debug, Default)]
pub struct BlockEncoded {
    /// Base `i` occupies bits `2*(i%32) .. 2*(i%32)+2` of `words[i/32]`.
    /// Slots holding ambiguous bytes contain garbage and are never inside a
    /// run; slots past the sequence end are zero.
    words: Vec<u64>,
    runs: Vec<Run>,
    len: usize,
}

impl BlockEncoded {
    /// Encode `seq`, replacing any previous contents.
    ///
    /// Sequences longer than `u32::MAX` bases are not supported (positions are
    /// stored as `u32` throughout the sketch stack).
    pub fn encode_into(&mut self, seq: &[u8]) {
        assert!(
            u32::try_from(seq.len()).is_ok(),
            "sequence length {} exceeds u32 positions",
            seq.len()
        );
        self.words.clear();
        self.runs.clear();
        self.len = seq.len();
        self.words.reserve(seq.len().div_ceil(BASES_PER_WORD));
        let mut open_run: Option<usize> = None;
        let mut base_pos = 0usize;
        let mut blocks = seq.chunks_exact(BASES_PER_WORD);
        for block in blocks.by_ref() {
            let (word, invalid) = encode_block32(block.try_into().expect("exact chunk"));
            self.words.push(word);
            if invalid == 0 {
                // Common case for real DNA: the whole block is valid.
                open_run.get_or_insert(base_pos);
            } else {
                split_block_runs(
                    invalid,
                    base_pos,
                    BASES_PER_WORD,
                    &mut open_run,
                    &mut self.runs,
                );
            }
            base_pos += BASES_PER_WORD;
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let (word, invalid) = encode_tail(tail);
            self.words.push(word);
            if invalid == 0 {
                open_run.get_or_insert(base_pos);
            } else {
                split_block_runs(invalid, base_pos, tail.len(), &mut open_run, &mut self.runs);
            }
        }
        if let Some(start) = open_run {
            self.runs.push(Run {
                start: start as u32,
                len: (seq.len() - start) as u32,
            });
        }
    }

    /// Length of the encoded sequence in bases (valid or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the encoded sequence empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximal valid runs, in position order.
    #[inline]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// 2-bit code of base `i`. Only meaningful inside a [`Run`]; slots holding
    /// ambiguous bytes contain unspecified garbage.
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        ((self.words[i / BASES_PER_WORD] >> (2 * (i % BASES_PER_WORD))) & 3) as u8
    }
}

/// Translate one full 32-byte block: packed word + invalid-position bitmask.
///
/// Fixed-width loops over a stack array so the mask/pack half vectorizes; the
/// LUT half is branch-free (a plain load per byte, no match, no Option).
#[inline]
fn encode_block32(block: &[u8; BASES_PER_WORD]) -> (u64, u32) {
    let mut codes = [0u8; BASES_PER_WORD];
    for i in 0..BASES_PER_WORD {
        codes[i] = ENCODE_LUT[block[i] as usize];
    }
    let mut word = 0u64;
    let mut invalid = 0u32;
    for (i, &c) in codes.iter().enumerate() {
        invalid |= u32::from(c == INVALID_CODE) << i;
        word |= u64::from(c & 3) << (2 * i);
    }
    (word, invalid)
}

/// Translate the final partial block. Slots past `block.len()` stay zero.
#[inline]
fn encode_tail(block: &[u8]) -> (u64, u32) {
    debug_assert!(block.len() < BASES_PER_WORD);
    let mut word = 0u64;
    let mut invalid = 0u32;
    for (i, &b) in block.iter().enumerate() {
        let c = ENCODE_LUT[b as usize];
        invalid |= u32::from(c == INVALID_CODE) << i;
        word |= u64::from(c & 3) << (2 * i);
    }
    (word, invalid)
}

/// Fold one block's invalid-position mask into the run list.
///
/// `open_run` carries the start of a run left open by the previous block (or
/// within this one). Only called for blocks that contain at least one invalid
/// byte — the all-valid fast path is handled inline by the caller.
fn split_block_runs(
    invalid: u32,
    base: usize,
    n: usize,
    open_run: &mut Option<usize>,
    runs: &mut Vec<Run>,
) {
    let mut off = 0usize;
    while off < n {
        if invalid & (1u32 << off) != 0 {
            if let Some(start) = open_run.take() {
                runs.push(Run {
                    start: start as u32,
                    len: (base + off - start) as u32,
                });
            }
            off += 1;
        } else {
            open_run.get_or_insert(base + off);
            // Jump to the next invalid offset (or the end of the block).
            let rest = invalid >> off;
            let step = if rest == 0 {
                n - off
            } else {
                rest.trailing_zeros() as usize
            };
            off += step.max(1);
        }
    }
}

/// Branch-light streaming reader of the 2-bit codes of one [`Run`].
///
/// Caches the current packed word and shifts two bits per base; the word
/// reload is one predictable branch taken every 32 bases. Reading past the
/// run's end is a logic error (debug-asserted, garbage in release).
pub struct RunCodes<'a> {
    words: &'a [u64],
    word_idx: usize,
    cur: u64,
    shift: u32,
    #[cfg(debug_assertions)]
    remaining: usize,
}

impl<'a> RunCodes<'a> {
    /// Start reading codes at the beginning of `run` within `enc`.
    #[inline]
    pub fn new(enc: &'a BlockEncoded, run: Run) -> Self {
        let start = run.start as usize;
        debug_assert!(run.end() <= enc.len);
        let word_idx = start / BASES_PER_WORD;
        RunCodes {
            words: &enc.words,
            word_idx,
            cur: enc.words.get(word_idx).copied().unwrap_or(0),
            shift: (2 * (start % BASES_PER_WORD)) as u32,
            #[cfg(debug_assertions)]
            remaining: run.len as usize,
        }
    }

    /// The next 2-bit code of the run.
    #[inline(always)]
    pub fn next_code(&mut self) -> u64 {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.remaining > 0, "RunCodes read past run end");
            self.remaining -= 1;
        }
        if self.shift == 64 {
            self.word_idx += 1;
            self.cur = self.words[self.word_idx];
            self.shift = 0;
        }
        let c = (self.cur >> self.shift) & 3;
        self.shift += 2;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_base;

    fn runs_of(seq: &[u8]) -> Vec<Run> {
        let mut enc = BlockEncoded::default();
        enc.encode_into(seq);
        enc.runs().to_vec()
    }

    /// Reference run-splitter: scan byte by byte.
    fn naive_runs(seq: &[u8]) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &b) in seq.iter().enumerate() {
            match (encode_base(b), start) {
                (Some(_), None) => start = Some(i),
                (None, Some(s)) => {
                    runs.push(Run {
                        start: s as u32,
                        len: (i - s) as u32,
                    });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push(Run {
                start: s as u32,
                len: (seq.len() - s) as u32,
            });
        }
        runs
    }

    #[test]
    fn empty_and_all_invalid() {
        let mut enc = BlockEncoded::default();
        enc.encode_into(b"");
        assert!(enc.is_empty());
        assert!(enc.runs().is_empty());

        enc.encode_into(b"NNNNN");
        assert_eq!(enc.len(), 5);
        assert!(enc.runs().is_empty());
    }

    #[test]
    fn codes_match_encode_base_inside_runs() {
        let seq = b"ACGTacgtNNGGTTnACGTACGTACGTACGTACGTACGTACGTACGTXXTTTT";
        let mut enc = BlockEncoded::default();
        enc.encode_into(seq);
        for run in enc.runs() {
            for (i, &b) in seq
                .iter()
                .enumerate()
                .take(run.end())
                .skip(run.start as usize)
            {
                assert_eq!(enc.code_at(i), encode_base(b).unwrap(), "base {i}");
            }
        }
    }

    #[test]
    fn runs_match_naive_on_block_boundaries() {
        // Invalid bytes planted exactly around the 32- and 64-base seams.
        for bad in [0usize, 1, 30, 31, 32, 33, 62, 63, 64, 65, 94, 95] {
            let mut seq = vec![b'A'; 96];
            seq[bad] = b'N';
            assert_eq!(runs_of(&seq), naive_runs(&seq), "bad at {bad}");
        }
        // Consecutive invalid bytes straddling a seam.
        let mut seq = vec![b'C'; 96];
        for b in &mut seq[30..35] {
            *b = b'-';
        }
        assert_eq!(runs_of(&seq), naive_runs(&seq));
    }

    #[test]
    fn runs_match_naive_on_soup() {
        // Deterministic pseudo-random soup mixing valid/invalid bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0usize, 1, 5, 31, 32, 33, 63, 64, 65, 200, 517] {
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let r = (state >> 33) as u8;
                    match r % 7 {
                        0 => b'A',
                        1 => b'C',
                        2 => b'g',
                        3 => b't',
                        4 => b'N',
                        5 => r, // arbitrary non-IUPAC byte
                        _ => b'T',
                    }
                })
                .collect();
            assert_eq!(runs_of(&seq), naive_runs(&seq), "len {len}");
        }
    }

    #[test]
    fn run_codes_streams_whole_run() {
        let seq = b"NNACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTNN";
        let mut enc = BlockEncoded::default();
        enc.encode_into(seq);
        assert_eq!(enc.runs().len(), 1);
        let run = enc.runs()[0];
        let mut codes = RunCodes::new(&enc, run);
        for &b in &seq[run.start as usize..run.end()] {
            assert_eq!(codes.next_code() as u8, encode_base(b).unwrap());
        }
    }
}
