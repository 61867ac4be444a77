//! Property-based tests for the sequence substrate.

use jem_seq::{
    alphabet::revcomp_bytes, encode_base, BlockEncoded, CanonicalKmerIter, FastaReader,
    FastaWriter, FastqReader, FastqRecord, FastqWriter, Kmer, KmerIter, RunCodes, SeqError,
    SeqRecord,
};
use proptest::prelude::*;

/// Strategy: byte soup — upper/lowercase DNA weighted heavily so valid
/// runs appear, plus ambiguity codes and outright junk bytes.
fn byte_soup(max: usize) -> impl Strategy<Value = Vec<u8>> {
    let mut palette = Vec::new();
    for b in [b'A', b'C', b'G', b'T'] {
        palette.extend(std::iter::repeat_n(b, 6));
    }
    palette.extend([b'a', b'c', b'g', b't']);
    palette.extend([b'N', b'n', b'R', b'-', b'@', b' ', b'Z', 0u8, 0x80, 0xFF]);
    prop::collection::vec(prop::sample::select(palette), 0..max)
}

/// Strategy: bytes that look like FASTA/FASTQ often enough to reach deep
/// into both grammars — markers, separators, line breaks, DNA, quality
/// characters — mixed with invalid UTF-8 and NULs.
fn record_soup(max: usize) -> impl Strategy<Value = Vec<u8>> {
    let mut palette = vec![b'\n'; 6];
    palette.extend([b'@', b'@', b'>', b'>', b'+', b'+', b'\r', b' ', b'\t']);
    for b in [b'A', b'C', b'G', b'T', b'I'] {
        palette.extend(std::iter::repeat_n(b, 4));
    }
    palette.extend([b'N', b'r', b'1', b'#', 0xff, 0xc3, 0xa9, 0x80, 0]);
    prop::collection::vec(prop::sample::select(palette), 0..max)
}

/// Strategy: an ACGT-only sequence of length `0..max`.
fn dna(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 0..max)
}

/// Strategy: DNA with occasional ambiguity codes.
fn dna_with_n(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T', b'A', b'C', b'G', b'T', b'N']),
        0..max,
    )
}

/// The property behind `fasta_roundtrip`: records written with an awkward
/// line width read back unchanged.
fn fasta_roundtrip_holds(records: Vec<(String, Vec<u8>)>) -> Result<(), TestCaseError> {
    let recs: Vec<SeqRecord> = records
        .into_iter()
        .enumerate()
        .map(|(i, (id, seq))| SeqRecord::new(format!("{id}_{i}"), seq))
        .collect();
    let mut out = Vec::new();
    {
        let mut w = FastaWriter::new(&mut out);
        w.line_width = 37; // awkward width exercises wrapping
        w.write_all_records(&recs).unwrap();
        w.flush().unwrap();
    }
    let back = FastaReader::new(std::io::Cursor::new(&out))
        .read_all()
        .unwrap();
    prop_assert_eq!(back, recs);
    Ok(())
}

/// A case `fasta_roundtrip` once failed on, kept by name: one record
/// with an empty sequence.
#[test]
fn fasta_roundtrip_saved_case_empty_sequence() {
    fasta_roundtrip_holds(vec![("a".to_string(), Vec::new())]).unwrap();
}

proptest! {
    #[test]
    fn revcomp_bytes_involution(seq in dna(200)) {
        prop_assert_eq!(revcomp_bytes(&revcomp_bytes(&seq)), seq);
    }

    #[test]
    fn kmer_roundtrip(seq in dna(33).prop_filter("nonempty", |s| !s.is_empty())) {
        let truncated = &seq[..seq.len().min(32)];
        let k = Kmer::from_bytes(truncated).unwrap();
        prop_assert_eq!(k.to_bytes(), truncated.to_vec());
    }

    #[test]
    fn kmer_revcomp_matches_string(seq in dna(33).prop_filter("nonempty", |s| !s.is_empty())) {
        let truncated = &seq[..seq.len().min(32)];
        let k = Kmer::from_bytes(truncated).unwrap();
        prop_assert_eq!(k.revcomp().to_bytes(), revcomp_bytes(truncated));
    }

    #[test]
    fn kmer_order_is_lexicographic(a in dna(12), b in dna(12)) {
        // Compare equal-length prefixes only (order is defined per fixed k).
        let n = a.len().min(b.len());
        if n == 0 { return Ok(()); }
        let (a, b) = (&a[..n], &b[..n]);
        let ka = Kmer::from_bytes(a).unwrap();
        let kb = Kmer::from_bytes(b).unwrap();
        prop_assert_eq!(ka.code().cmp(&kb.code()), a.cmp(b));
    }

    #[test]
    fn kmer_iter_matches_windows(seq in dna_with_n(200), k in 1usize..9) {
        let got: Vec<(usize, Vec<u8>)> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(p, km)| (p, km.to_bytes()))
            .collect();
        let expect: Vec<(usize, Vec<u8>)> = seq
            .windows(k)
            .enumerate()
            .filter(|(_, w)| w.iter().all(|&b| jem_seq::is_dna(b)))
            .map(|(p, w)| (p, w.to_vec()))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn canonical_iter_matches_naive(seq in dna_with_n(200), k in 1usize..9) {
        let fast: Vec<_> = CanonicalKmerIter::new(&seq, k).unwrap().collect();
        let naive: Vec<_> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(p, km)| (p, km.canonical()))
            .collect();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn canonical_multiset_strand_invariant(seq in dna(200), k in 1usize..9) {
        let rc = revcomp_bytes(&seq);
        let mut a: Vec<u64> = CanonicalKmerIter::new(&seq, k).unwrap().map(|(_, km)| km.code()).collect();
        let mut b: Vec<u64> = CanonicalKmerIter::new(&rc, k).unwrap().map(|(_, km)| km.code()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fasta_roundtrip(records in prop::collection::vec((r"[a-zA-Z0-9_.]{1,12}", dna(120)), 0..6)) {
        fasta_roundtrip_holds(records)?;
    }

    #[test]
    fn fastq_roundtrip(
        records in prop::collection::vec(
            (r"[a-zA-Z0-9_.]{1,12}", dna(100).prop_filter("nonempty", |s| !s.is_empty())),
            0..6,
        ),
    ) {
        let recs: Vec<FastqRecord> = records
            .into_iter()
            .enumerate()
            .map(|(i, (id, seq))| FastqRecord::with_uniform_quality(format!("{id}_{i}"), seq, b'F'))
            .collect();
        let mut out = Vec::new();
        {
            let mut w = FastqWriter::new(&mut out);
            for r in &recs {
                w.write_record(r).unwrap();
            }
            w.flush().unwrap();
        }
        let back = FastqReader::new(std::io::Cursor::new(&out)).read_all().unwrap();
        prop_assert_eq!(back, recs);
    }

    #[test]
    fn readers_give_records_or_a_format_error_on_byte_soup(input in record_soup(400)) {
        for rec in FastqReader::new(&input[..]) {
            match rec {
                Ok(r) => {
                    prop_assert_eq!(r.seq.len(), r.qual.len());
                    prop_assert!(!r.seq.is_empty());
                    prop_assert!(!r.id.is_empty() && !r.id.contains(char::is_whitespace));
                }
                Err(SeqError::Format { line, .. }) => {
                    prop_assert!(line >= 1);
                    break;
                }
                Err(e) => prop_assert!(false, "untyped FASTQ error: {e}"),
            }
        }
        for rec in FastaReader::new(&input[..]) {
            match rec {
                Ok(r) => prop_assert!(!r.id.is_empty() && !r.id.contains(char::is_whitespace)),
                Err(SeqError::Format { line, .. }) => {
                    prop_assert!(line >= 1);
                    break;
                }
                Err(e) => prop_assert!(false, "untyped FASTA error: {e}"),
            }
        }
    }

    /// The block encoder's per-position codes must match the scalar LUT,
    /// and its runs must be exactly the maximal valid stretches.
    #[test]
    fn block_encoder_matches_scalar(seq in byte_soup(300)) {
        let mut enc = BlockEncoded::default();
        enc.encode_into(&seq);
        prop_assert_eq!(enc.len(), seq.len());

        // Per-position code agreement on valid bases.
        for (i, &b) in seq.iter().enumerate() {
            if let Some(c) = encode_base(b) {
                prop_assert_eq!(enc.code_at(i), c, "position {}", i);
            }
        }

        // Runs are exactly the maximal valid stretches: disjoint, in
        // order, fully valid inside, invalid (or edge) on both flanks.
        let valid: Vec<bool> = seq.iter().map(|&b| encode_base(b).is_some()).collect();
        let mut expected = Vec::new();
        let mut i = 0usize;
        while i < seq.len() {
            if valid[i] {
                let start = i;
                while i < seq.len() && valid[i] { i += 1; }
                expected.push((start as u32, (i - start) as u32));
            } else {
                i += 1;
            }
        }
        let got: Vec<(u32, u32)> = enc.runs().iter().map(|r| (r.start, r.len)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Streaming codes out of a packed run must reproduce `code_at` for
    /// every position, across arbitrary word alignments.
    #[test]
    fn run_codes_stream_matches_code_at(seq in byte_soup(300)) {
        let mut enc = BlockEncoded::default();
        enc.encode_into(&seq);
        for &run in enc.runs() {
            let mut stream = RunCodes::new(&enc, run);
            for i in run.start as usize..run.end() {
                prop_assert_eq!(stream.next_code(), u64::from(enc.code_at(i)), "pos {}", i);
            }
        }
    }

    /// Scratch reuse: re-encoding a different sequence into the same
    /// buffers must leave no stale state behind.
    #[test]
    fn block_encoder_reuse_is_clean(a in byte_soup(250), b in byte_soup(250)) {
        let mut reused = BlockEncoded::default();
        reused.encode_into(&a);
        reused.encode_into(&b);
        let mut fresh = BlockEncoded::default();
        fresh.encode_into(&b);
        prop_assert_eq!(reused.len(), fresh.len());
        let ra: Vec<(u32, u32)> = reused.runs().iter().map(|r| (r.start, r.len)).collect();
        let rb: Vec<(u32, u32)> = fresh.runs().iter().map(|r| (r.start, r.len)).collect();
        prop_assert_eq!(ra, rb);
        for r in fresh.runs() {
            for i in r.start as usize..r.end() {
                prop_assert_eq!(reused.code_at(i), fresh.code_at(i));
            }
        }
    }
}
