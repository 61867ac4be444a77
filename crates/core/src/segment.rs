//! Query segmentation: extracting long-read end segments (paper §III-B-1).
//!
//! Instead of sketching the whole long read, only its first and last ℓ
//! bases are mapped. The revised query set `Q` therefore holds up to `2m`
//! sequences of length ℓ. Reads no longer than ℓ contribute a single
//! segment (their prefix and suffix coincide).
//!
//! [`make_segments`] cuts segments out of whole reads; [`SegmentBatches`]
//! ingests them straight from a FASTA/FASTQ stream in batches, holding one
//! read at a time, with the same result.

use crate::parallel::BATCH_SEGMENTS;
use jem_seq::{RecordParser, SeqError, SeqRecord};
use std::io::BufRead;

/// Which end of a long read a segment came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadEnd {
    /// First ℓ bases.
    Prefix,
    /// Last ℓ bases.
    Suffix,
}

impl std::fmt::Display for ReadEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadEnd::Prefix => f.write_str("prefix"),
            ReadEnd::Suffix => f.write_str("suffix"),
        }
    }
}

/// One query end segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySegment {
    /// Index of the source read in the input read list.
    pub read_idx: u32,
    /// Which end this segment is.
    pub end: ReadEnd,
    /// The segment bases (≤ ℓ of them).
    pub seq: Vec<u8>,
}

impl QuerySegment {
    /// A stable key identifying this segment: `"<read_id>/<end>"`.
    pub fn key(&self, reads: &[impl ReadId]) -> String {
        format!("{}/{}", reads[self.read_idx as usize].read_id(), self.end)
    }
}

/// What output keys name a read by: whole records and bare ids alike, so
/// the writers serve both [`make_segments`] and [`SegmentBatches`] callers.
pub trait ReadId {
    /// The read's identifier.
    fn read_id(&self) -> &str;
}

impl ReadId for SeqRecord {
    fn read_id(&self) -> &str {
        &self.id
    }
}

impl ReadId for String {
    fn read_id(&self) -> &str {
        self
    }
}

/// Append `seq`'s end segments (none when empty, one when `len ≤ ℓ`).
fn push_end_segments(out: &mut Vec<QuerySegment>, read_idx: u32, seq: &[u8], ell: usize) {
    if seq.is_empty() {
        return;
    }
    out.push(QuerySegment {
        read_idx,
        end: ReadEnd::Prefix,
        seq: seq[..ell.min(seq.len())].to_vec(),
    });
    if seq.len() > ell {
        out.push(QuerySegment {
            read_idx,
            end: ReadEnd::Suffix,
            seq: seq[seq.len() - ell..].to_vec(),
        });
    }
}

/// Extract end segments of length ℓ from every read.
///
/// Empty reads are skipped; reads with `len ≤ ℓ` yield only a prefix
/// segment (the suffix would be the identical sequence).
pub fn make_segments(reads: &[SeqRecord], ell: usize) -> Vec<QuerySegment> {
    assert!(ell > 0, "segment length ell must be positive");
    let mut out = Vec::with_capacity(reads.len() * 2);
    for (i, r) in reads.iter().enumerate() {
        let idx = u32::try_from(i).expect("read count exceeds u32");
        push_end_segments(&mut out, idx, &r.seq, ell);
    }
    out
}

/// A FASTA/FASTQ stream's end segments in batches of [`BATCH_SEGMENTS`]
/// (the last may be shorter), parsed one read at a time: the feed
/// [`crate::run_batches`] drains while its workers map, so the segments
/// are held only in flight. Concatenated, the batches equal
/// `make_segments(&parser_records, ell)`; a read's two ends may fall into
/// consecutive batches. The reads' ids stay behind for the writers
/// ([`SegmentBatches::into_ids`]). A malformed record ends the stream with
/// its error. Each batch's parse is recorded as a `map/ingest` span.
pub struct SegmentBatches<R> {
    parser: RecordParser<R>,
    ell: usize,
    ids: Vec<String>,
    /// Segments parsed but not yet handed out: fewer than a batch, or one
    /// over when a read's suffix overflows it.
    pending: Vec<QuerySegment>,
    done: bool,
}

impl<R: BufRead> SegmentBatches<R> {
    /// Batch `parser`'s records' ℓ-base end segments.
    ///
    /// # Panics
    /// Panics if `ell` is zero, like [`make_segments`].
    pub fn new(parser: RecordParser<R>, ell: usize) -> Self {
        assert!(ell > 0, "segment length ell must be positive");
        SegmentBatches {
            parser,
            ell,
            ids: Vec::new(),
            pending: Vec::new(),
            done: false,
        }
    }

    /// Give up the parser, keeping the ids of the reads parsed, in input
    /// order (indexed by [`QuerySegment::read_idx`]).
    pub fn into_ids(self) -> Vec<String> {
        self.ids
    }

    /// Parse records until a batch is full or the input ends.
    fn fill(&mut self) -> Result<(), SeqError> {
        while self.pending.len() < BATCH_SEGMENTS {
            let Some(rec) = self.parser.next_record()? else {
                self.done = true;
                return Ok(());
            };
            let idx = u32::try_from(self.ids.len()).map_err(|_| {
                SeqError::InvalidParameter("more reads than a u32 read index can name".into())
            })?;
            self.ids.push(rec.id.to_string());
            push_end_segments(&mut self.pending, idx, rec.seq, self.ell);
        }
        Ok(())
    }
}

impl<R: BufRead> Iterator for SegmentBatches<R> {
    type Item = Result<Vec<QuerySegment>, SeqError>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.done {
            let _span = jem_obs::Span::enter(jem_obs::recorder(), "map/ingest");
            if let Err(e) = self.fill() {
                self.done = true;
                self.pending.clear();
                return Some(Err(e));
            }
        }
        if self.pending.is_empty() {
            return None;
        }
        let rest = if self.pending.len() > BATCH_SEGMENTS {
            self.pending.split_off(BATCH_SEGMENTS)
        } else {
            Vec::with_capacity(BATCH_SEGMENTS + 1)
        };
        Some(Ok(std::mem::replace(&mut self.pending, rest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: &str, n: usize) -> SeqRecord {
        SeqRecord::new(id, (0..n).map(|i| b"ACGT"[i % 4]).collect::<Vec<u8>>())
    }

    #[test]
    fn long_read_yields_two_segments() {
        let reads = vec![read("r1", 5000)];
        let segs = make_segments(&reads, 1000);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].end, ReadEnd::Prefix);
        assert_eq!(segs[1].end, ReadEnd::Suffix);
        assert_eq!(segs[0].seq, reads[0].seq[..1000].to_vec());
        assert_eq!(segs[1].seq, reads[0].seq[4000..].to_vec());
        assert_eq!(segs[0].key(&reads), "r1/prefix");
        assert_eq!(segs[1].key(&reads), "r1/suffix");
    }

    #[test]
    fn short_read_yields_one_segment() {
        let reads = vec![read("s", 800)];
        let segs = make_segments(&reads, 1000);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, ReadEnd::Prefix);
        assert_eq!(segs[0].seq.len(), 800);
    }

    #[test]
    fn boundary_read_exactly_ell() {
        let reads = vec![read("b", 1000)];
        let segs = make_segments(&reads, 1000);
        assert_eq!(segs.len(), 1, "len == ell means prefix == suffix");
    }

    #[test]
    fn empty_reads_skipped() {
        let reads = vec![SeqRecord::new("e", Vec::new()), read("x", 3000)];
        let segs = make_segments(&reads, 1000);
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| s.read_idx == 1));
    }

    #[test]
    fn segment_count_bound() {
        let reads: Vec<SeqRecord> = (0..10)
            .map(|i| read(&format!("r{i}"), 100 + i * 400))
            .collect();
        let segs = make_segments(&reads, 1000);
        assert!(segs.len() <= 2 * reads.len());
        assert!(segs.iter().all(|s| s.seq.len() <= 1000));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_ell_rejected() {
        make_segments(&[], 0);
    }

    #[test]
    fn ingest_matches_make_segments_on_whole_reads() {
        use jem_seq::{FastqReader, SeqFormat};
        let fastq =
            b"@long\nACGTACGTAC\n+\nIIIIIIIIII\n@short x\nACG\n+\nIII\n@edge\nACGT\n+\nIIII\n";
        let reads: Vec<SeqRecord> = FastqReader::new(&fastq[..])
            .map(|r| r.unwrap().into_seq_record())
            .collect();
        let mut batches = SegmentBatches::new(RecordParser::new(&fastq[..], SeqFormat::Fastq), 4);
        let segments: Vec<QuerySegment> = (&mut batches).flat_map(Result::unwrap).collect();
        let ids = batches.into_ids();
        assert_eq!(ids, ["long", "short", "edge"]);
        assert_eq!(segments, make_segments(&reads, 4));
        assert_eq!(segments.len(), 4, "long: 2, short: 1, edge (len == ell): 1");
        assert_eq!(segments[1].key(&ids), "long/suffix");
        assert_eq!(segments[1].seq, b"GTAC".to_vec());
    }

    #[test]
    fn batches_are_full_but_the_last_and_concatenate_to_make_segments() {
        use jem_seq::{FastqReader, SeqFormat};
        // 100 reads of 1..=2 segments each: some reads straddle a batch
        // boundary.
        let mut fastq = Vec::new();
        for i in 0..100 {
            let n = if i % 3 == 0 { 3 } else { 9 };
            let seq: String = (0..n).map(|j| ['A', 'C', 'G', 'T'][(i + j) % 4]).collect();
            fastq.extend(format!("@r{i}\n{seq}\n+\n{}\n", "I".repeat(n)).bytes());
        }
        let reads: Vec<SeqRecord> = FastqReader::new(&fastq[..])
            .map(|r| r.unwrap().into_seq_record())
            .collect();
        let mut batches = SegmentBatches::new(RecordParser::new(&fastq[..], SeqFormat::Fastq), 4);
        let sizes: Vec<usize> = (&mut batches).map(|b| b.unwrap().len()).collect();
        let total = make_segments(&reads, 4).len();
        assert!(total > 2 * BATCH_SEGMENTS, "{total} segments");
        assert_eq!(sizes.iter().sum::<usize>(), total);
        assert!(sizes[..sizes.len() - 1]
            .iter()
            .all(|&n| n == BATCH_SEGMENTS));
        assert_eq!(batches.into_ids().len(), 100);

        // A malformed record ends the stream with its typed error.
        fastq.extend(b"@bad\nACGT\n+\nII\n");
        let batches = SegmentBatches::new(RecordParser::new(&fastq[..], SeqFormat::Fastq), 4);
        let results: Vec<_> = batches.collect();
        assert!(results[..results.len() - 1].iter().all(Result::is_ok));
        assert!(matches!(
            results.last(),
            Some(Err(SeqError::Format { line: 404, .. }))
        ));
    }
}
