//! The 2-bit DNA alphabet and base-level operations.
//!
//! Encoding is `A=0, C=1, G=2, T=3` (case-insensitive). Because the codes are
//! assigned in alphabetical order, the numeric value of a packed k-mer equals
//! its rank in the lexicographic ("canonical") ordering `Π*_k` of all k-mers —
//! the ordering the paper uses both for minimizer selection and as the domain
//! of the LCG hash family (`h_t(x)` is applied to the k-mer rank `x`).

/// Number of symbols in the DNA alphabet.
pub const ALPHABET_SIZE: usize = 4;

/// Sentinel stored in [`ENCODE_LUT`] for bytes that are not unambiguous DNA.
pub const INVALID_CODE: u8 = 0xFF;

/// Full 256-entry encoding table: `ENCODE_LUT[b as usize]` is the 2-bit code
/// of nucleotide `b` (either case) or [`INVALID_CODE`].
///
/// The block encoder ([`crate::block`]) translates whole 32-byte blocks
/// through this table with no per-byte branching; [`encode_base`] is the same
/// table wrapped in an `Option`.
pub const ENCODE_LUT: [u8; 256] = build_encode_lut();

const fn build_encode_lut() -> [u8; 256] {
    let mut t = [INVALID_CODE; 256];
    t[b'A' as usize] = 0;
    t[b'a' as usize] = 0;
    t[b'C' as usize] = 1;
    t[b'c' as usize] = 1;
    t[b'G' as usize] = 2;
    t[b'g' as usize] = 2;
    t[b'T' as usize] = 3;
    t[b't' as usize] = 3;
    t
}

/// Encode an ASCII nucleotide into its 2-bit code.
///
/// Returns `None` for ambiguity codes (`N`, `R`, ...) and any non-nucleotide
/// byte. Lower-case input is accepted.
#[inline]
pub fn encode_base(b: u8) -> Option<u8> {
    let c = ENCODE_LUT[b as usize];
    if c == INVALID_CODE {
        None
    } else {
        Some(c)
    }
}

/// Decode a 2-bit code back to its upper-case ASCII nucleotide.
///
/// # Panics
/// Panics if `code > 3`.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    match code {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        3 => b'T',
        _ => panic!("invalid 2-bit base code: {code}"),
    }
}

/// Complement of a 2-bit base code (`A<->T`, `C<->G`).
///
/// With this encoding the complement is simply `3 - code` (equivalently
/// `code ^ 3`), which is what [`crate::kmer::Kmer::revcomp`] exploits.
#[inline]
pub fn complement_code(code: u8) -> u8 {
    3 - (code & 3)
}

/// Complement of an ASCII nucleotide. Ambiguity codes map to `N`.
#[inline]
pub fn complement_base(b: u8) -> u8 {
    match b {
        b'A' | b'a' => b'T',
        b'C' | b'c' => b'G',
        b'G' | b'g' => b'C',
        b'T' | b't' => b'A',
        _ => b'N',
    }
}

/// Is `b` an unambiguous DNA nucleotide (ACGT, either case)?
#[inline]
pub fn is_dna(b: u8) -> bool {
    encode_base(b).is_some()
}

/// Reverse complement of an ASCII byte sequence, allocating a new vector.
pub fn revcomp_bytes(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement_base(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_matches_encode_base_for_all_bytes() {
        for b in 0u8..=255 {
            let expect = match b {
                b'A' | b'a' => Some(0),
                b'C' | b'c' => Some(1),
                b'G' | b'g' => Some(2),
                b'T' | b't' => Some(3),
                _ => None,
            };
            assert_eq!(encode_base(b), expect, "byte {b}");
            assert_eq!(ENCODE_LUT[b as usize], expect.unwrap_or(INVALID_CODE));
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (i, b) in [b'A', b'C', b'G', b'T'].iter().enumerate() {
            assert_eq!(encode_base(*b), Some(i as u8));
            assert_eq!(decode_base(i as u8), *b);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b'c'), Some(1));
        assert_eq!(encode_base(b'g'), Some(2));
        assert_eq!(encode_base(b't'), Some(3));
    }

    #[test]
    fn ambiguity_rejected() {
        for b in [b'N', b'n', b'R', b'Y', b'-', b' ', b'X', 0u8] {
            assert_eq!(encode_base(b), None);
            assert!(!is_dna(b));
        }
    }

    #[test]
    fn encoding_is_lexicographic() {
        // The property the whole sketch stack relies on.
        let order = [b'A', b'C', b'G', b'T'];
        for w in order.windows(2) {
            assert!(encode_base(w[0]).unwrap() < encode_base(w[1]).unwrap());
        }
    }

    #[test]
    fn complement_code_matches_base() {
        for c in 0u8..4 {
            let b = decode_base(c);
            assert_eq!(decode_base(complement_code(c)), complement_base(b));
        }
    }

    #[test]
    fn complement_is_involution() {
        for c in 0u8..4 {
            assert_eq!(complement_code(complement_code(c)), c);
        }
        for b in [b'A', b'C', b'G', b'T'] {
            assert_eq!(complement_base(complement_base(b)), b);
        }
    }

    #[test]
    fn revcomp_bytes_simple() {
        assert_eq!(revcomp_bytes(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(revcomp_bytes(b"AACC"), b"GGTT".to_vec());
        assert_eq!(revcomp_bytes(b"GATTACA"), b"TGTAATC".to_vec());
        assert_eq!(revcomp_bytes(b""), Vec::<u8>::new());
    }

    #[test]
    fn revcomp_is_involution_on_dna() {
        let s = b"ACGTACGTTTGGCCAA".to_vec();
        assert_eq!(revcomp_bytes(&revcomp_bytes(&s)), s);
    }
}
