//! Shared file I/O helpers for the CLI commands.

use crate::error::CliError;
use jem_core::{QuerySegment, SegmentBatches};
use jem_seq::{RecordParser, SeqFormat, SeqRecord};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Cursor, Read, Write};
use std::path::{Path, PathBuf};

/// Read-buffer size for sequence inputs.
const READ_BUF: usize = 1 << 20;

/// A sequence input opened for parsing — a file, or standard input for
/// the path `-` (streamed, never slurped) — with its format sniffed from
/// the first non-whitespace byte (`>` FASTA, `@` FASTQ). Opening fails on
/// a missing file or an unrecognized format; malformed records —
/// including a file truncated mid-record — fail the read that meets them
/// as a [`CliError::Format`], never a panic.
pub struct SeqSource {
    label: String,
    /// An input holding no records (empty or whitespace only) parses as
    /// an empty FASTA stream.
    parser: RecordParser<Box<dyn BufRead>>,
}

impl SeqSource {
    /// Open `path` (`-`: standard input) and sniff its format.
    pub fn open(path: &str) -> Result<SeqSource, CliError> {
        if path == "-" {
            let stdin = BufReader::with_capacity(READ_BUF, std::io::stdin());
            return SeqSource::sniff(Box::new(stdin), "<stdin>".into());
        }
        let file = File::open(path).map_err(CliError::io(path))?;
        SeqSource::sniff(
            Box::new(BufReader::with_capacity(READ_BUF, file)),
            path.into(),
        )
    }

    /// Sniff `reader`'s format (`label` names the source in errors).
    /// Leading whitespace is held aside and replayed, not dropped, so the
    /// parser still counts its lines.
    fn sniff(mut reader: Box<dyn BufRead>, label: String) -> Result<SeqSource, CliError> {
        let mut head = Vec::new();
        let first = loop {
            let buf = reader.fill_buf().map_err(CliError::io(&label))?;
            match buf.iter().position(|b| !b.is_ascii_whitespace()) {
                Some(i) => break Some(buf[i]),
                None if buf.is_empty() => break None,
                None => {
                    head.extend_from_slice(buf);
                    let n = buf.len();
                    reader.consume(n);
                }
            }
        };
        let format = match first {
            Some(b'>') => SeqFormat::Fasta,
            Some(b'@') => SeqFormat::Fastq,
            Some(other) => {
                return Err(CliError::Data(format!(
                    "{label}: unrecognized format (starts with {:?}, expected '>' or '@')",
                    other as char
                )))
            }
            None => {
                return Ok(SeqSource {
                    label,
                    parser: RecordParser::new(Box::new(std::io::empty()), SeqFormat::Fasta),
                })
            }
        };
        let reader: Box<dyn BufRead> = if head.is_empty() {
            reader
        } else {
            Box::new(Cursor::new(head).chain(reader))
        };
        Ok(SeqSource {
            label,
            parser: RecordParser::new(reader, format),
        })
    }

    /// Read every record whole.
    pub fn records(mut self) -> Result<Vec<SeqRecord>, CliError> {
        let mut out = Vec::new();
        while let Some(rec) = self
            .parser
            .next_record()
            .map_err(CliError::format(&self.label))?
        {
            out.push(rec.to_seq_record());
        }
        Ok(out)
    }

    /// The reads' ℓ-base end segments in batches, parsed as they are
    /// pulled ([`jem_core::SegmentBatches`]).
    pub fn batches(self, ell: usize) -> QueryBatches {
        QueryBatches {
            batches: SegmentBatches::new(self.parser, ell),
            label: self.label,
        }
    }
}

/// A query input's end-segment batches, each error naming the input.
pub struct QueryBatches {
    label: String,
    batches: SegmentBatches<Box<dyn BufRead>>,
}

impl QueryBatches {
    /// The ids of the reads parsed, in input order.
    pub fn into_ids(self) -> Vec<String> {
        self.batches.into_ids()
    }
}

impl Iterator for QueryBatches {
    type Item = Result<Vec<QuerySegment>, CliError>;

    fn next(&mut self) -> Option<Self::Item> {
        let batch = self.batches.next()?;
        Some(batch.map_err(CliError::format(&self.label)))
    }
}

/// Read every sequence of a FASTA or FASTQ file (`-`: standard input),
/// see [`SeqSource`].
pub fn read_sequences(path: &str) -> Result<Vec<SeqRecord>, CliError> {
    SeqSource::open(path)?.records()
}

/// A file that only appears at its destination on a clean, complete
/// write. Bytes are buffered into `<path>.tmp`; [`AtomicFile::commit`]
/// flushes, fsyncs, and atomically renames the temporary over the
/// destination. If the `AtomicFile` is dropped uncommitted — an error
/// midway, a panic, a killed process before the rename — the destination
/// is untouched and the temporary is removed, so a crash mid-write can
/// never leave a truncated index that later fails checksum decode, or a
/// half-written TSV that looks complete.
pub struct AtomicFile {
    tmp: PathBuf,
    dest: PathBuf,
    writer: Option<BufWriter<File>>,
}

impl AtomicFile {
    /// Open `<path>.tmp` for buffered writing.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<AtomicFile> {
        let dest = path.as_ref().to_path_buf();
        let tmp = PathBuf::from(format!("{}.tmp", dest.display()));
        let writer = Some(BufWriter::new(File::create(&tmp)?));
        Ok(AtomicFile { tmp, dest, writer })
    }

    /// Flush, fsync, and rename the temporary onto the destination. On
    /// any failure the temporary is removed and the destination keeps its
    /// previous content (or absence).
    pub fn commit(mut self) -> std::io::Result<()> {
        let writer = self.writer.take().expect("commit consumes the writer");
        let result = (|| {
            let file = writer.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            std::fs::rename(&self.tmp, &self.dest)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&self.tmp);
        }
        result
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.as_mut().expect("not committed").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.as_mut().expect("not committed").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            // Uncommitted: abandon the partial bytes, keep the old file.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Atomically replace `path` with `bytes` (metrics snapshots and other
/// one-shot dumps).
pub fn write_file_atomic(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
    out.write_all(bytes).map_err(CliError::io(path))?;
    out.commit().map_err(CliError::io(path))
}

/// Write sequences as FASTA, atomically.
pub fn write_fasta(path: &str, records: &[SeqRecord]) -> Result<(), CliError> {
    let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
    {
        let mut w = jem_seq::FastaWriter::new(&mut out);
        w.write_all_records(records)
            .map_err(CliError::format(path))?;
        w.flush().map_err(CliError::format(path))?;
    }
    out.commit().map_err(CliError::io(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, content: &[u8]) -> String {
        let path = std::env::temp_dir().join(format!("jemcli_{}_{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn sniffs_fasta() {
        let p = tmp("a.fa", b">x\nACGT\n");
        let recs = read_sequences(&p).unwrap();
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sniffs_fastq() {
        let p = tmp("a.fq", b"@x\nACGT\n+\nIIII\n");
        let recs = read_sequences(&p).unwrap();
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_garbage() {
        let p = tmp("a.txt", b"hello world\n");
        assert!(read_sequences(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_io_error_with_path() {
        let err = read_sequences("/nonexistent/surely/absent.fa").unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        assert!(err.to_string().contains("absent.fa"));
    }

    #[test]
    fn truncated_fastq_is_a_format_error() {
        // Quality line missing entirely.
        let p = tmp("trunc1.fq", b"@x\nACGT\n+\n");
        let err = read_sequences(&p).unwrap_err();
        assert!(matches!(err, CliError::Format { .. }), "got {err:?}");
        assert!(err.to_string().contains(&p), "message must name the file");
        std::fs::remove_file(&p).ok();
        // Record cut mid-way: second record has no sequence line.
        let p = tmp("trunc2.fq", b"@x\nACGT\n+\nIIII\n@y\n");
        let err = read_sequences(&p).unwrap_err();
        assert!(matches!(err, CliError::Format { .. }), "got {err:?}");
        std::fs::remove_file(&p).ok();
        // Quality shorter than sequence.
        let p = tmp("trunc3.fq", b"@x\nACGT\n+\nII\n");
        assert!(read_sequences(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    fn sniff(bytes: &'static [u8]) -> Result<SeqSource, CliError> {
        SeqSource::sniff(Box::new(bytes), "<stdin>".into())
    }

    #[test]
    fn stdin_style_buffer_sniffs_both_formats() {
        // The `-` path funnels stdin bytes through the same sniffing core.
        let recs = sniff(b">x\nACGT\n").unwrap().records().unwrap();
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        let recs = sniff(b"@x\nACGT\n+\nIIII\n").unwrap().records().unwrap();
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        let err = sniff(b"garbage").err().unwrap();
        assert!(
            err.to_string().contains("<stdin>"),
            "errors name the source"
        );
    }

    #[test]
    fn sniffing_past_a_split_whitespace_prefix_keeps_line_numbers() {
        // One byte per fill: the leading blank lines span many buffers.
        let bytes: &'static [u8] = b"\n\n\n@x\nACGT\n+\nII\n";
        let source = SeqSource::sniff(
            Box::new(BufReader::with_capacity(1, bytes)),
            "<stdin>".into(),
        )
        .unwrap();
        match source.records().unwrap_err() {
            CliError::Format {
                source: jem_seq::SeqError::Format { line, .. },
                ..
            } => assert_eq!(line, 7, "the quality line is line 7"),
            other => panic!("expected a format error, got {other:?}"),
        }
        let fasta = SeqSource::sniff(
            Box::new(BufReader::with_capacity(1, &b"\n\n>a\nAC\n"[..])),
            "f".into(),
        );
        assert_eq!(
            fasta.unwrap().records().unwrap(),
            vec![SeqRecord::new("a", b"AC".to_vec())]
        );
        assert!(sniff(b" \n\t\n").unwrap().records().unwrap().is_empty());
    }

    #[test]
    fn segments_keep_ids_and_ends_only() {
        let mut batches = sniff(b"@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nAC\n+\nII\n")
            .unwrap()
            .batches(3);
        let segments: Vec<QuerySegment> = (&mut batches).flat_map(Result::unwrap).collect();
        assert_eq!(batches.into_ids(), ["r1", "r2"]);
        let ends: Vec<&[u8]> = segments.iter().map(|s| &s.seq[..]).collect();
        assert_eq!(ends, [&b"ACG"[..], b"CGT", b"AC"]);
        let mut empty = sniff(b"").unwrap().batches(3);
        assert!(empty.next().is_none());
        assert!(empty.into_ids().is_empty());
    }

    #[test]
    fn empty_file_is_empty() {
        let p = tmp("empty", b"  \n");
        assert!(read_sequences(&p).unwrap().is_empty());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn fasta_roundtrip_via_helpers() {
        let p = tmp("rt.fa", b"");
        let recs = vec![SeqRecord::new("s1", b"ACGTACGT".to_vec())];
        write_fasta(&p, &recs).unwrap();
        assert_eq!(read_sequences(&p).unwrap(), recs);
        assert!(
            !Path::new(&format!("{p}.tmp")).exists(),
            "commit must clean up the temporary"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn atomic_commit_replaces_and_cleans_up() {
        let p = tmp("atomic.out", b"old content");
        let mut out = AtomicFile::create(&p).unwrap();
        out.write_all(b"new content").unwrap();
        // Until commit, the destination still holds the old bytes.
        assert_eq!(std::fs::read(&p).unwrap(), b"old content");
        out.commit().unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"new content");
        assert!(!Path::new(&format!("{p}.tmp")).exists());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn uncommitted_atomic_file_leaves_no_trace() {
        let p = tmp("atomic.abort", b"precious");
        {
            let mut out = AtomicFile::create(&p).unwrap();
            out.write_all(b"half a wri").unwrap();
            // Dropped without commit: the error path.
        }
        assert_eq!(
            std::fs::read(&p).unwrap(),
            b"precious",
            "an aborted write must not clobber the destination"
        );
        assert!(
            !Path::new(&format!("{p}.tmp")).exists(),
            "the temporary must be removed on abort"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn write_file_atomic_creates_fresh_files() {
        let p = format!("{}-fresh", tmp("atomic.fresh", b""));
        write_file_atomic(&p, b"{\"ok\":true}").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"ok\":true}");
        std::fs::remove_file(&p).ok();
    }
}
