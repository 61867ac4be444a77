//! Whole-read tiled mapping — the paper's contained-contig extension.
//!
//! End-segment mapping (§III-B-1) deliberately ignores read interiors,
//! which is right for scaffolding but, as the paper notes, "may not apply
//! to cases where a contig may be completely contained within an interior
//! region of a long read. In such cases, an extension of the approach will
//! be needed." This module is that extension: ℓ-length windows are tiled
//! across the *whole* read at a configurable stride and each window is
//! mapped like an end segment, so contigs landing anywhere inside the read
//! are recovered.

use crate::mapper::{JemMapper, MapScratch};
use jem_index::SubjectId;

/// One mapped window of a tiled read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TiledMapping {
    /// Window start offset on the read.
    pub offset: u32,
    /// Best-hit subject for this window.
    pub subject: SubjectId,
    /// Trial hits supporting it.
    pub hits: u32,
}

/// A subject recovered by tiling, with the window span that found it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainedHit {
    /// The subject (contig).
    pub subject: SubjectId,
    /// First window offset where the subject won.
    pub first_offset: u32,
    /// Last window offset (start) where the subject won.
    pub last_offset: u32,
    /// Best per-window hit count.
    pub best_hits: u32,
    /// Number of windows the subject won.
    pub windows: u32,
}

impl JemMapper {
    /// Map ℓ-length windows tiled across the whole read at `stride` bases
    /// (`stride = ℓ/2` gives every position two chances; `stride = ℓ`
    /// gives disjoint tiles). Returns one entry per mapped window, in
    /// offset order. The final partial window is included when at least
    /// `k` bases remain.
    pub fn map_read_tiled(&self, read: &[u8], stride: usize) -> Vec<TiledMapping> {
        assert!(stride >= 1, "stride must be positive");
        let ell = self.config().ell;
        let mut counter = self.new_counter();
        let mut scratch = MapScratch::new();
        let mut out = Vec::new();
        let mut qid = 0u64;
        let mut offset = 0usize;
        loop {
            let end = (offset + ell).min(read.len());
            if end <= offset + self.config().k.saturating_sub(1) {
                break;
            }
            if let Some((subject, hits)) =
                self.map_segment_with(&read[offset..end], qid, &mut counter, &mut scratch)
            {
                out.push(TiledMapping {
                    offset: offset as u32,
                    subject,
                    hits,
                });
            }
            qid += 1;
            if end == read.len() {
                break;
            }
            offset += stride;
        }
        out
    }

    /// Aggregate tiled mappings into per-subject hits — every contig the
    /// read touches, including those contained entirely in its interior.
    /// Sorted by first window offset (i.e. approximate order along the read).
    pub fn contained_hits(&self, read: &[u8], stride: usize) -> Vec<ContainedHit> {
        let tiles = self.map_read_tiled(read, stride);
        let mut agg: std::collections::HashMap<SubjectId, ContainedHit> =
            std::collections::HashMap::new();
        for t in &tiles {
            agg.entry(t.subject)
                .and_modify(|h| {
                    h.last_offset = t.offset;
                    h.best_hits = h.best_hits.max(t.hits);
                    h.windows += 1;
                })
                .or_insert(ContainedHit {
                    subject: t.subject,
                    first_offset: t.offset,
                    last_offset: t.offset,
                    best_hits: t.hits,
                    windows: 1,
                });
        }
        let mut hits: Vec<ContainedHit> = agg.into_values().collect();
        hits.sort_unstable_by_key(|h| (h.first_offset, h.subject));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapperConfig;
    use crate::segment::ReadEnd;
    use jem_seq::SeqRecord;
    use jem_sim::Genome;

    /// A read whose interior fully contains a small contig that neither
    /// end segment overlaps.
    fn contained_world() -> (JemMapper, Vec<u8>, MapperConfig) {
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 10,
            ell: 500,
            seed: 4,
        };
        let genome = Genome::random(10_000, 0.5, 55);
        // Read spans genome[2000..8000]; the contained contig is
        // genome[4000..5000] — entirely inside, >ℓ away from both ends.
        let read = genome.seq[2000..8000].to_vec();
        let subjects = vec![
            SeqRecord::new("left", genome.seq[1500..2900].to_vec()),
            SeqRecord::new("contained", genome.seq[4000..5000].to_vec()),
            SeqRecord::new("right", genome.seq[7200..8800].to_vec()),
        ];
        (JemMapper::build(&subjects, &config), read, config)
    }

    #[test]
    fn end_segments_miss_the_contained_contig() {
        let (mapper, read, _) = contained_world();
        let reads = vec![SeqRecord::new("r", read)];
        let mappings = mapper.map_reads(&reads);
        assert!(
            mappings.iter().all(|m| m.subject != 1),
            "end segments must not see the interior contig"
        );
        // But they do find the flanking contigs.
        assert!(mappings
            .iter()
            .any(|m| m.end == ReadEnd::Prefix && m.subject == 0));
        assert!(mappings
            .iter()
            .any(|m| m.end == ReadEnd::Suffix && m.subject == 2));
    }

    #[test]
    fn tiling_recovers_the_contained_contig() {
        let (mapper, read, config) = contained_world();
        let hits = mapper.contained_hits(&read, config.ell / 2);
        let subjects: Vec<SubjectId> = hits.iter().map(|h| h.subject).collect();
        assert!(
            subjects.contains(&1),
            "tiled mapping must recover the contained contig: {hits:?}"
        );
        assert!(subjects.contains(&0) && subjects.contains(&2));
        // Order along the read: left, contained, right.
        assert_eq!(subjects, vec![0, 1, 2]);
        // The contained contig's winning windows sit in the interior.
        let c = hits.iter().find(|h| h.subject == 1).expect("present");
        assert!(c.first_offset >= 1000, "offset {}", c.first_offset);
        assert!((c.last_offset as usize) <= read.len() - 1000);
    }

    #[test]
    fn tiled_windows_are_offset_ordered_and_bounded() {
        let (mapper, read, config) = contained_world();
        let tiles = mapper.map_read_tiled(&read, 250);
        assert!(!tiles.is_empty());
        for pair in tiles.windows(2) {
            assert!(pair[0].offset < pair[1].offset);
        }
        for t in &tiles {
            assert!((t.offset as usize) < read.len());
            assert!(t.hits >= 1 && t.hits as usize <= config.trials);
        }
    }

    #[test]
    fn short_read_single_window() {
        let (mapper, read, _) = contained_world();
        let tiles = mapper.map_read_tiled(&read[..300], 250);
        assert!(tiles.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let (mapper, read, _) = contained_world();
        mapper.map_read_tiled(&read, 0);
    }
}
