//! Fixed-size k-mers packed into `u64`, with rolling iteration.
//!
//! A k-mer over the 2-bit alphabet occupies `2k` bits, so any `k ≤ 32` fits
//! in a `u64`. The packed value of a k-mer *is* its rank in the lexicographic
//! ordering `Π*_k` of all `4^k` k-mers (see [`crate::alphabet`]), which the
//! sketching layer uses directly as hash-function input.

use crate::alphabet::{decode_base, encode_base};
use crate::error::SeqError;

/// Maximum supported k-mer size (2 bits/base in a `u64`).
pub const MAX_K: usize = 32;

/// A k-mer packed into a `u64` together with its length.
///
/// Ordering of `Kmer` values of equal `k` by their `code` is exactly
/// lexicographic ordering of the underlying strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    code: u64,
    k: u8,
}

impl Kmer {
    /// Build a k-mer from ASCII bytes. Fails on ambiguous bases or bad `k`.
    pub fn from_bytes(seq: &[u8]) -> Result<Self, SeqError> {
        let k = seq.len();
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        let mut code = 0u64;
        for (pos, &b) in seq.iter().enumerate() {
            let c = encode_base(b).ok_or(SeqError::InvalidBase { byte: b, pos })?;
            code = (code << 2) | u64::from(c);
        }
        Ok(Kmer { code, k: k as u8 })
    }

    /// Construct from an already-packed code. `code` must fit in `2k` bits.
    #[inline]
    pub fn from_code(code: u64, k: usize) -> Result<Self, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        if k < MAX_K && code >> (2 * k) != 0 {
            return Err(SeqError::InvalidParameter(format!(
                "code 0x{code:x} does not fit in {k}-mer"
            )));
        }
        Ok(Kmer { code, k: k as u8 })
    }

    /// The packed 2-bit code — also the k-mer's lexicographic rank in `Π*_k`.
    #[inline]
    pub fn code(&self) -> u64 {
        self.code
    }

    /// K-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Reverse complement.
    #[inline]
    pub fn revcomp(&self) -> Kmer {
        Kmer {
            code: revcomp_code(self.code, self.k as usize),
            k: self.k,
        }
    }

    /// Canonical form: the lexicographically smaller of the k-mer and its
    /// reverse complement ("canonical minimizer" sense of the paper).
    #[inline]
    pub fn canonical(&self) -> Kmer {
        let rc = self.revcomp();
        if rc.code < self.code {
            rc
        } else {
            *self
        }
    }

    /// Decode back into ASCII bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let k = self.k as usize;
        let mut out = vec![0u8; k];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = 2 * (k - 1 - i);
            *slot = decode_base(((self.code >> shift) & 3) as u8);
        }
        out
    }
}

impl std::fmt::Debug for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kmer({})", String::from_utf8_lossy(&self.to_bytes()))
    }
}

impl std::fmt::Display for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&String::from_utf8_lossy(&self.to_bytes()))
    }
}

/// Reverse complement of a packed `k`-mer code.
///
/// Complementing is `XOR` with all-ones over the `2k` used bits (because
/// `comp(c) = 3 - c = c ^ 3` in this encoding); reversal swaps 2-bit groups
/// with the classic log-step bit trick.
#[inline]
pub fn revcomp_code(code: u64, k: usize) -> u64 {
    debug_assert!((1..=MAX_K).contains(&k));
    let mut x = !code; // complement every 2-bit group (upper garbage masked later)
                       // Reverse 2-bit groups within the u64.
    x = (x >> 2 & 0x3333_3333_3333_3333) | (x & 0x3333_3333_3333_3333) << 2;
    x = (x >> 4 & 0x0F0F_0F0F_0F0F_0F0F) | (x & 0x0F0F_0F0F_0F0F_0F0F) << 4;
    x = x.swap_bytes();
    // The k-mer now occupies the top 2k bits; shift down and mask.
    x >> (64 - 2 * k)
}

/// Bit-mask selecting the low `2k` bits of a packed code.
#[inline]
pub fn kmer_mask(k: usize) -> u64 {
    if k >= 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    }
}

/// One step of the canonical rolling pair: push 2-bit code `c` into the
/// forward code and its complement into the high end of the reverse code.
///
/// `mask` is [`kmer_mask`]`(k)` and `rev_shift` is `2 * (k - 1)`. This is the
/// single rolling update shared by [`CanonicalKmerIter`] (per-byte scalar
/// path) and the branch-free block-run path in [`crate::block`]; keeping one
/// definition is what makes the two byte-identical by construction.
#[inline(always)]
pub fn roll_canonical(fwd: u64, rev: u64, c: u64, mask: u64, rev_shift: u32) -> (u64, u64) {
    (((fwd << 2) | c) & mask, (rev >> 2) | ((3 - c) << rev_shift))
}

/// Rolling iterator over all k-mers of a byte sequence, in order.
///
/// Windows containing an ambiguous base are skipped; iteration resumes at the
/// first window entirely past the offending byte. Yields `(position, kmer)`
/// where `position` is the 0-based start offset of the k-mer in the sequence.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    /// Next byte index to consume.
    next: usize,
    /// Packed code of the last `filled` bases.
    code: u64,
    /// How many consecutive valid bases end at `next - 1`.
    filled: usize,
}

impl<'a> KmerIter<'a> {
    /// Create a k-mer iterator; `k` must be in `1..=32`.
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        Ok(KmerIter {
            seq,
            k,
            mask: kmer_mask(k),
            next: 0,
            code: 0,
            filled: 0,
        })
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.seq.len() {
            let b = self.seq[self.next];
            self.next += 1;
            match encode_base(b) {
                Some(c) => {
                    self.code = ((self.code << 2) | u64::from(c)) & self.mask;
                    self.filled += 1;
                    if self.filled >= self.k {
                        let pos = self.next - self.k;
                        return Some((
                            pos,
                            Kmer {
                                code: self.code,
                                k: self.k as u8,
                            },
                        ));
                    }
                }
                None => {
                    // Ambiguous base breaks the run; restart after it.
                    self.code = 0;
                    self.filled = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.next;
        // At most one k-mer per remaining byte plus one pending.
        (0, Some(remaining + 1))
    }
}

/// Rolling iterator over *canonical* k-mers: yields `(position, canonical)`.
///
/// Maintains the forward and reverse-complement codes simultaneously so each
/// step is O(1) — no per-window revcomp recomputation.
pub struct CanonicalKmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    next: usize,
    fwd: u64,
    rev: u64,
    filled: usize,
}

impl<'a> CanonicalKmerIter<'a> {
    /// Create a canonical k-mer iterator; `k` must be in `1..=32`.
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        Ok(CanonicalKmerIter {
            seq,
            k,
            mask: kmer_mask(k),
            next: 0,
            fwd: 0,
            rev: 0,
            filled: 0,
        })
    }
}

impl Iterator for CanonicalKmerIter<'_> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.seq.len() {
            let b = self.seq[self.next];
            self.next += 1;
            match encode_base(b) {
                Some(c) => {
                    let rev_shift = (2 * (self.k - 1)) as u32;
                    (self.fwd, self.rev) =
                        roll_canonical(self.fwd, self.rev, u64::from(c), self.mask, rev_shift);
                    self.filled += 1;
                    if self.filled >= self.k {
                        let pos = self.next - self.k;
                        let code = self.fwd.min(self.rev);
                        return Some((
                            pos,
                            Kmer {
                                code,
                                k: self.k as u8,
                            },
                        ));
                    }
                }
                None => {
                    self.fwd = 0;
                    self.rev = 0;
                    self.filled = 0;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for s in [
            &b"A"[..],
            b"ACGT",
            b"TTTT",
            b"GATTACA",
            b"ACGTACGTACGTACGTACGTACGTACGTACGT",
        ] {
            let k = Kmer::from_bytes(s).unwrap();
            assert_eq!(k.to_bytes(), s.to_vec());
            assert_eq!(k.k(), s.len());
        }
    }

    #[test]
    fn code_is_lexicographic_rank() {
        // AA=0, AC=1, AG=2, AT=3, CA=4 ... TT=15 (paper's Π*_2 example).
        let order = [
            "AA", "AC", "AG", "AT", "CA", "CC", "CG", "CT", "GA", "GC", "GG", "GT", "TA", "TC",
            "TG", "TT",
        ];
        for (rank, s) in order.iter().enumerate() {
            assert_eq!(
                Kmer::from_bytes(s.as_bytes()).unwrap().code(),
                rank as u64,
                "{s}"
            );
        }
    }

    #[test]
    fn rejects_bad_k_and_bases() {
        assert!(Kmer::from_bytes(b"").is_err());
        assert!(Kmer::from_bytes(&[b'A'; 33]).is_err());
        assert!(Kmer::from_bytes(b"ACNT").is_err());
        assert!(Kmer::from_code(4, 1).is_err()); // 1-mer codes are 0..=3
        assert!(Kmer::from_code(3, 1).is_ok());
    }

    #[test]
    fn revcomp_matches_string_revcomp() {
        for s in [
            &b"A"[..],
            b"AC",
            b"GATTACA",
            b"TTTTGGGG",
            b"ACGTACGTACGTACGTACGTACGTACGTACGT",
        ] {
            let k = Kmer::from_bytes(s).unwrap();
            let rc = crate::alphabet::revcomp_bytes(s);
            assert_eq!(k.revcomp().to_bytes(), rc, "{}", String::from_utf8_lossy(s));
        }
    }

    #[test]
    fn revcomp_involution() {
        let k = Kmer::from_bytes(b"ACCGTTGAGACCA").unwrap();
        assert_eq!(k.revcomp().revcomp(), k);
    }

    #[test]
    fn canonical_is_min_of_pair() {
        let k = Kmer::from_bytes(b"TTTT").unwrap();
        assert_eq!(k.canonical().to_bytes(), b"AAAA".to_vec());
        let palindromic = Kmer::from_bytes(b"ACGT").unwrap(); // own revcomp
        assert_eq!(palindromic.canonical(), palindromic);
    }

    #[test]
    fn kmer_iter_positions_and_values() {
        let seq = b"ACGTA";
        let kmers: Vec<_> = KmerIter::new(seq, 3).unwrap().collect();
        assert_eq!(kmers.len(), 3);
        assert_eq!(kmers[0], (0, Kmer::from_bytes(b"ACG").unwrap()));
        assert_eq!(kmers[1], (1, Kmer::from_bytes(b"CGT").unwrap()));
        assert_eq!(kmers[2], (2, Kmer::from_bytes(b"GTA").unwrap()));
    }

    #[test]
    fn kmer_iter_skips_ambiguous_windows() {
        let seq = b"ACGNACGT";
        let kmers: Vec<_> = KmerIter::new(seq, 3).unwrap().collect();
        // Windows overlapping the N (positions 1..=3) are skipped.
        let positions: Vec<usize> = kmers.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![0, 4, 5]);
        assert_eq!(kmers[1].1, Kmer::from_bytes(b"ACG").unwrap());
    }

    #[test]
    fn kmer_iter_short_sequence_yields_nothing() {
        assert_eq!(KmerIter::new(b"AC", 3).unwrap().count(), 0);
        assert_eq!(KmerIter::new(b"", 3).unwrap().count(), 0);
    }

    #[test]
    fn canonical_iter_matches_naive() {
        let seq = b"ACGGTTACGATTTACCAGTNGGATCGA";
        let k = 5;
        let naive: Vec<_> = KmerIter::new(seq, k)
            .unwrap()
            .map(|(p, km)| (p, km.canonical()))
            .collect();
        let fast: Vec<_> = CanonicalKmerIter::new(seq, k).unwrap().collect();
        assert_eq!(naive, fast);
    }

    #[test]
    fn canonical_iter_strand_symmetric() {
        let seq = b"ACGGTTACGATTTACCAGTGGATCGA".to_vec();
        let rc = crate::alphabet::revcomp_bytes(&seq);
        let k = 7;
        let mut a: Vec<u64> = CanonicalKmerIter::new(&seq, k)
            .unwrap()
            .map(|(_, km)| km.code())
            .collect();
        let mut b: Vec<u64> = CanonicalKmerIter::new(&rc, k)
            .unwrap()
            .map(|(_, km)| km.code())
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "canonical k-mer multiset must be strand-invariant");
    }

    #[test]
    fn revcomp_code_k32_boundary() {
        let s = b"ACGTACGTACGTACGTACGTACGTACGTACGT"; // k = 32
        let k = Kmer::from_bytes(s).unwrap();
        assert_eq!(k.revcomp().to_bytes(), crate::alphabet::revcomp_bytes(s));
        assert_eq!(kmer_mask(32), u64::MAX);
    }
}
