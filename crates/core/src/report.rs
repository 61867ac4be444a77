//! Mapping output: TSV writer and evaluation-pair extraction.

use crate::mapper::{JemMapper, Mapping};
use crate::segment::ReadId;
use jem_seq::SeqError;
use std::io::Write;

/// Write mappings as TSV: `query_key  subject_name  hits  trials`.
///
/// The format is deliberately close to what the paper's tool emits (query,
/// best-hit contig, support), so downstream scaffolders can consume it.
pub fn write_mappings_tsv<W: Write>(
    out: &mut W,
    mappings: &[Mapping],
    reads: &[impl ReadId],
    mapper: &JemMapper,
) -> Result<(), SeqError> {
    write_mappings_tsv_named(
        out,
        mappings,
        reads,
        mapper.subject_names(),
        mapper.config().trials,
    )
}

/// [`write_mappings_tsv`] without a local [`JemMapper`]: subject names and
/// the trial count arrive as plain data. This is the writer used by remote
/// consumers (`jem query` learns both from the server's Info response);
/// CI's serve smoke diffs the two paths' TSVs byte for byte.
pub fn write_mappings_tsv_named<W: Write>(
    out: &mut W,
    mappings: &[Mapping],
    reads: &[impl ReadId],
    subject_names: &[String],
    trials: usize,
) -> Result<(), SeqError> {
    writeln!(out, "#query\tsubject\thits\ttrials")?;
    for m in mappings {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            m.query_key(reads),
            subject_names[m.subject as usize],
            m.hits,
            trials
        )?;
    }
    Ok(())
}

/// Extract `(query_key, subject_name)` pairs for the evaluation harness.
pub fn mapping_pairs(
    mappings: &[Mapping],
    reads: &[impl ReadId],
    mapper: &JemMapper,
) -> Vec<(String, String)> {
    mappings
        .iter()
        .map(|m| {
            (
                m.query_key(reads),
                mapper.subject_name(m.subject).to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapperConfig;
    use crate::segment::ReadEnd;
    use jem_seq::SeqRecord;

    fn tiny_world() -> (JemMapper, Vec<SeqRecord>, Vec<Mapping>) {
        let subj: Vec<u8> = (0..2000).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
        let subjects = vec![SeqRecord::new("c0", subj.clone())];
        let config = MapperConfig {
            k: 8,
            w: 4,
            trials: 4,
            ell: 200,
            seed: 1,
        };
        let mapper = JemMapper::build(&subjects, &config);
        let reads = vec![SeqRecord::new("r0", subj[..1000].to_vec())];
        let mappings = vec![Mapping {
            read_idx: 0,
            end: ReadEnd::Prefix,
            subject: 0,
            hits: 4,
        }];
        (mapper, reads, mappings)
    }

    #[test]
    fn tsv_format() {
        let (mapper, reads, mappings) = tiny_world();
        let mut buf = Vec::new();
        write_mappings_tsv(&mut buf, &mappings, &reads, &mapper).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("#query\tsubject\thits\ttrials"));
        assert_eq!(lines.next(), Some("r0/prefix\tc0\t4\t4"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn pairs_extraction() {
        let (mapper, reads, mappings) = tiny_world();
        let pairs = mapping_pairs(&mappings, &reads, &mapper);
        assert_eq!(pairs, vec![("r0/prefix".to_string(), "c0".to_string())]);
    }
}
