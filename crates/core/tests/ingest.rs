//! The end-segment ingest against its definition: for any FASTA or FASTQ
//! text — CRLF or LF, blank lines, wrapped lines, reads shorter than,
//! equal to and longer than ℓ, and corrupted bytes — `SegmentBatches`
//! yields exactly `make_segments(read_all(..), ℓ)` and the records' ids,
//! or the same error.

use jem_core::{make_segments, QuerySegment, SegmentBatches};
use jem_seq::{FastaReader, FastqReader, FastqRecord, RecordParser, SeqFormat, SeqRecord};
use proptest::prelude::*;

/// One generated read: id, optional description, and a length class
/// relative to ℓ (0 shorter, 1 equal, 2 longer) with a distance from it.
type ReadSpec = (String, bool, u8, usize);

/// Layout knobs: CRLF endings, blank lines after each record, the FASTA
/// wrap width (0: one line), whitespace after the header marker.
type Layout = (bool, usize, usize, bool);

fn render(format: SeqFormat, reads: &[ReadSpec], ell: usize, layout: Layout) -> Vec<u8> {
    let (crlf, blank, wrap, pad) = layout;
    let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
    let mut out = Vec::new();
    for (i, (id, desc, class, delta)) in reads.iter().enumerate() {
        let len = match class {
            0 => ell.saturating_sub(1 + delta),
            1 => ell,
            _ => ell + 1 + delta,
        };
        // FASTQ cannot carry an empty read; FASTA can.
        let len = if format == SeqFormat::Fastq {
            len.max(1)
        } else {
            len
        };
        let seq: Vec<u8> = (0..len).map(|j| b"ACGTN"[(i * 7 + j * j) % 5]).collect();
        out.push(if format == SeqFormat::Fastq {
            b'@'
        } else {
            b'>'
        });
        if pad {
            out.push(b' ');
        }
        out.extend_from_slice(id.as_bytes());
        if *desc {
            out.extend_from_slice(b" some description");
        }
        out.extend_from_slice(eol);
        match format {
            SeqFormat::Fastq => {
                out.extend_from_slice(&seq);
                out.extend_from_slice(eol);
                out.push(b'+');
                out.extend_from_slice(eol);
                out.extend(std::iter::repeat_n(b'I', seq.len()));
                out.extend_from_slice(eol);
            }
            SeqFormat::Fasta => {
                let width = if wrap == 0 { seq.len().max(1) } else { wrap };
                for line in seq.chunks(width) {
                    out.extend_from_slice(line);
                    out.extend_from_slice(eol);
                }
            }
        }
        for _ in 0..blank {
            out.extend_from_slice(eol);
        }
    }
    out
}

/// The definition: whole records, then `make_segments`.
fn whole(
    bytes: &[u8],
    format: SeqFormat,
    ell: usize,
) -> Result<(Vec<String>, Vec<QuerySegment>), String> {
    let reads: Vec<SeqRecord> = match format {
        SeqFormat::Fasta => FastaReader::new(bytes).read_all(),
        SeqFormat::Fastq => FastqReader::new(bytes)
            .read_all()
            .map(|r| r.into_iter().map(FastqRecord::into_seq_record).collect()),
    }
    .map_err(|e| e.to_string())?;
    let ids = reads.iter().map(|r| r.id.clone()).collect();
    Ok((ids, make_segments(&reads, ell)))
}

fn ingested(
    bytes: &[u8],
    format: SeqFormat,
    ell: usize,
) -> Result<(Vec<String>, Vec<QuerySegment>), String> {
    let mut batches = SegmentBatches::new(RecordParser::new(bytes, format), ell);
    let mut segments = Vec::new();
    for batch in &mut batches {
        segments.extend(batch.map_err(|e| e.to_string())?);
    }
    Ok((batches.into_ids(), segments))
}

fn reads() -> impl Strategy<Value = Vec<ReadSpec>> {
    prop::collection::vec(
        ("[a-zA-Z0-9_.]{1,10}", any::<bool>(), 0u8..3, 0usize..25),
        0..8,
    )
}

fn layout() -> impl Strategy<Value = Layout> {
    (any::<bool>(), 0usize..3, 0usize..12, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ingest_equals_make_segments_of_read_all(
        fastq in any::<bool>(),
        reads in reads(),
        ell in 1usize..40,
        layout in layout(),
    ) {
        let format = if fastq { SeqFormat::Fastq } else { SeqFormat::Fasta };
        let bytes = render(format, &reads, ell, layout);
        let want = whole(&bytes, format, ell);
        prop_assert!(want.is_ok(), "generated input must parse: {:?}", want);
        prop_assert_eq!(ingested(&bytes, format, ell), want);
    }

    #[test]
    fn ingest_fails_exactly_where_read_all_fails(
        fastq in any::<bool>(),
        reads in reads(),
        ell in 1usize..40,
        layout in layout(),
        hits in prop::collection::vec(
            (any::<u64>(), prop::sample::select(vec![b'@', b'>', b'+', b'\n', b'\r', b' ', b'A', 0xff, 0xc3])),
            1..4,
        ),
    ) {
        let format = if fastq { SeqFormat::Fastq } else { SeqFormat::Fasta };
        let mut bytes = render(format, &reads, ell, layout);
        if !bytes.is_empty() {
            for (at, byte) in hits {
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] = byte;
            }
        }
        prop_assert_eq!(ingested(&bytes, format, ell), whole(&bytes, format, ell));
    }
}
