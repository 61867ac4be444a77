//! JEMIDX v6 format-compatibility suite, with the retired v3, v4 and v5.
//!
//! Pins the guarantees of the flat, code-keyed v6 layout:
//!
//! * the committed v3, v4 and v5 fixtures upgrade to exactly the bytes a
//!   fresh v6 build writes (the committed `index_v6.jem`), and the v6
//!   artifact maps to the committed expected TSV;
//! * every loader refuses a legacy file with an error naming `jem index
//!   --upgrade`, the one reader left for them;
//! * save → load (mmap path) → save is **byte-identical** — the canonical
//!   writer makes the artifact a fixed point of the round trip;
//! * corrupt or truncated artifacts fail with typed errors, never panics
//!   — fuzzed here with proptest over random bit flips, truncations, and
//!   swapped, copied and replaced words, mirroring the `fuzz_frames`
//!   discipline of the serve protocol.

use jem_core::{
    load_index, load_index_path, read_index_config, save_index, upgrade_index, write_mappings_tsv,
    JemMapper, MapperConfig,
};
use jem_seq::{FastaReader, FastqReader, SeqRecord};
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
    HifiProfile,
};
use proptest::prelude::*;
use std::io::Cursor;
use std::path::PathBuf;

/// A deterministic small world: contigs to index, reads to map.
fn world() -> (JemMapper, Vec<SeqRecord>) {
    let genome = Genome::random(60_000, 0.5, 71);
    let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 72);
    let config = MapperConfig {
        k: 14,
        w: 20,
        trials: 10,
        ell: 500,
        seed: 73,
    };
    let reads = read_records(&simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 2.0,
            ..Default::default()
        },
        74,
    ));
    (JemMapper::build(&contig_records(&contigs), &config), reads)
}

fn tsv(mapper: &JemMapper, reads: &[SeqRecord]) -> Vec<u8> {
    let mappings = mapper.map_reads(reads);
    let mut out = Vec::new();
    write_mappings_tsv(&mut out, &mappings, reads, mapper).unwrap();
    out
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn save_to(path: &PathBuf, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
}

fn v6_bytes(mapper: &JemMapper) -> Vec<u8> {
    let mut out = Vec::new();
    save_index(&mut out, mapper).unwrap();
    out
}

/// The committed format-compat fixtures directory.
fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/format-compat")
}

/// The fixture reads, as `jem map` reads them.
fn fixture_reads() -> Vec<SeqRecord> {
    let reads = std::fs::File::open(fixtures().join("reads.fq")).unwrap();
    FastqReader::new(std::io::BufReader::new(reads))
        .read_all()
        .unwrap()
        .into_iter()
        .map(|r| SeqRecord::new(r.id, r.seq))
        .collect()
}

/// The committed fixture `name`, upgraded as `jem index --upgrade` does.
fn upgraded(name: &str) -> JemMapper {
    let bytes = std::fs::read(fixtures().join(name)).unwrap();
    upgrade_index(&mut Cursor::new(&bytes)).unwrap()
}

#[test]
fn the_v6_fixture_and_every_upgrade_map_byte_identically() {
    let reads = fixture_reads();
    let expected = std::fs::read(fixtures().join("expected.tsv")).unwrap();

    // The committed v6 artifact through the path loader (mmap where
    // supported)…
    let v6 = load_index_path(fixtures().join("index_v6.jem")).unwrap();
    assert_eq!(tsv(&v6, &reads), expected, "v6 output drifted");

    // …and each legacy fixture's upgrade, which is what `jem index
    // --upgrade` writes.
    for legacy in ["index_v3.jem", "index_v4.jem", "index_v5.jem"] {
        let path = tmp(&format!("compat-up-{legacy}"));
        save_to(&path, &v6_bytes(&upgraded(legacy)));
        let from_upgrade = load_index_path(&path).unwrap();
        assert_eq!(from_upgrade.table().blob(), v6.table().blob(), "{legacy}");
        assert_eq!(
            tsv(&from_upgrade, &reads),
            expected,
            "{legacy} upgrade changed mapping output"
        );
    }
}

/// The committed legacy fixtures (`jem index --subjects contigs.fa --ell
/// 500`, written by earlier releases as v3, v4 and v5) upgrade to exactly
/// the v6 bytes a fresh build of the same contigs writes, which is the
/// committed `index_v6.jem`.
#[test]
fn committed_legacy_fixtures_upgrade_to_the_fresh_v6_build() {
    let fx = fixtures();
    let contigs = std::fs::File::open(fx.join("contigs.fa")).unwrap();
    let subjects = FastaReader::new(std::io::BufReader::new(contigs))
        .read_all()
        .unwrap();
    let config = MapperConfig {
        ell: 500,
        ..MapperConfig::default()
    };
    let fresh = v6_bytes(&JemMapper::build(&subjects, &config));
    let committed = std::fs::read(fx.join("index_v6.jem")).unwrap();
    assert_eq!(
        fresh, committed,
        "a fresh build must write the committed v6 artifact"
    );
    for legacy in ["index_v3.jem", "index_v4.jem", "index_v5.jem"] {
        assert_eq!(
            v6_bytes(&upgraded(legacy)),
            fresh,
            "{legacy} must upgrade to the fresh v6 build"
        );
    }
    // v6 is v5 word for word but for the magic and the two checksums.
    let v5 = std::fs::read(fx.join("index_v5.jem")).unwrap();
    let differ: Vec<usize> = (0..v5.len() / 8)
        .filter(|&w| v5[8 * w..8 * w + 8] != committed[8 * w..8 * w + 8])
        .collect();
    assert_eq!(differ, [0, 2, 3]);
}

/// Every loader refuses the legacy fixtures with an error that names the
/// upgrade, before reading their bulk.
#[test]
fn every_loader_refuses_the_legacy_fixtures() {
    for (version, name) in [
        (3, "index_v3.jem"),
        (4, "index_v4.jem"),
        (5, "index_v5.jem"),
    ] {
        let path = fixtures().join(name);
        let bytes = std::fs::read(&path).unwrap();
        let errors = [
            load_index(&mut Cursor::new(&bytes)).unwrap_err(),
            load_index_path(&path).unwrap_err(),
            read_index_config(&path).unwrap_err(),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("JEMIDX{version}")) && msg.contains("jem index --upgrade"),
                "{name}: {msg}"
            );
        }
    }
}

#[test]
fn save_mmap_load_save_is_a_byte_fixed_point() {
    let (mapper, _) = world();
    let first = v6_bytes(&mapper);
    let path = tmp("compat-fixed-point.jem");
    save_to(&path, &first);
    let reloaded = load_index_path(&path).unwrap();
    assert_eq!(
        v6_bytes(&reloaded),
        first,
        "canonical writer must make save→load→save the identity"
    );
    // And the upgrade of a v6 file is still the same file.
    let twice = upgrade_index(&mut Cursor::new(&first)).unwrap();
    assert_eq!(v6_bytes(&twice), first);
}

#[test]
fn upgrading_v3_twice_is_deterministic() {
    let a = v6_bytes(&upgraded("index_v3.jem"));
    let b = v6_bytes(&upgraded("index_v3.jem"));
    assert_eq!(a, b, "upgrade must be deterministic");
    let committed = std::fs::read(fixtures().join("index_v6.jem")).unwrap();
    assert_eq!(a, committed, "upgrade must equal the committed v6 artifact");
}

/// A small-but-real v6 artifact for the fuzz cases below (cheaper than
/// `world()` per proptest case; built once).
fn small_v6() -> Vec<u8> {
    let subjects = vec![
        SeqRecord::new(
            "c0",
            b"ACGTACGTACGGTTACGGATCCGTAGGCTAACGTACCGTAGGCATCAGT".to_vec(),
        ),
        SeqRecord::new(
            "c1",
            b"TTGACCATGGACCGTATTGCACCGGATGCAACGGTATCAGGCCATGATC".to_vec(),
        ),
    ];
    let config = MapperConfig {
        k: 9,
        w: 6,
        trials: 4,
        ell: 40,
        seed: 5,
    };
    v6_bytes(&JemMapper::build(&subjects, &config))
}

/// Damage the little-endian words `i` and `j` of `bytes` one of three
/// ways: `kind` 0 swaps them, 1 copies word `i` over word `j`, 2 replaces
/// word `j` with `value`. The length never changes. Returns false when
/// the damage leaves the bytes as they were.
fn damage_words(bytes: &mut [u8], kind: u8, i: usize, j: usize, value: u64) -> bool {
    let word = |b: &[u8], w: usize| u64::from_le_bytes(b[8 * w..8 * w + 8].try_into().unwrap());
    let (wi, wj) = (word(bytes, i), word(bytes, j));
    let (new_i, new_j) = match kind {
        0 => (wj, wi),
        1 => (wi, wi),
        _ => (wi, value),
    };
    bytes[8 * i..8 * i + 8].copy_from_slice(&new_i.to_le_bytes());
    bytes[8 * j..8 * j + 8].copy_from_slice(&new_j.to_le_bytes());
    (new_i, new_j) != (wi, wj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single bit flip anywhere in a v6 artifact is rejected with a
    /// typed error: the whole-file checksum covers the body, and the
    /// three uncovered header words (magic, length, checksum itself) are
    /// each validated directly.
    #[test]
    fn any_single_bit_flip_is_rejected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = small_v6();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            load_index(&mut Cursor::new(&bytes)).is_err(),
            "flip at byte {pos} bit {bit} must be rejected"
        );
    }

    /// Any truncation is rejected — no prefix of a valid artifact is a
    /// valid artifact. The loader must return, not panic.
    #[test]
    fn any_truncation_is_rejected(len_frac in 0.0f64..1.0) {
        let bytes = small_v6();
        let len = (bytes.len() as f64 * len_frac) as usize;
        prop_assert!(len < bytes.len());
        prop_assert!(load_index(&mut Cursor::new(&bytes[..len])).is_err());
    }

    /// Arbitrary multi-byte corruption never panics the loader — the
    /// validator bounds every section and every posting range before any
    /// of it is dereferenced. (A result is allowed; a panic is not.)
    #[test]
    fn random_corruption_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut bytes = small_v6();
        for (frac, mask) in edits {
            let pos = ((bytes.len() - 1) as f64 * frac) as usize;
            bytes[pos] ^= mask;
        }
        let keep = ((bytes.len() as f64) * cut_frac) as usize;
        bytes.truncate(keep.max(1));
        let _ = load_index(&mut Cursor::new(&bytes));
    }

    /// The same discipline holds on the path loader (mmap route): random
    /// corruption of the file on disk yields an error, never a panic.
    #[test]
    fn corrupt_files_fail_typed_on_the_mmap_path(pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        let mut bytes = small_v6();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask;
        let path = tmp("compat-fuzz-mmap.jem");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(load_index_path(&path).is_err());
    }

    /// Two words swapped, one word copied over another, or one word
    /// replaced, anywhere past the magic and the length word (so the file
    /// keeps its declared length and size): only the checksum or a
    /// structure check can catch it, and both loaders refuse it typed.
    #[test]
    fn swapped_copied_or_replaced_words_are_rejected(
        kind in 0u8..3,
        i_frac in 0.0f64..1.0,
        j_frac in 0.0f64..1.0,
        value in any::<u64>(),
    ) {
        let mut bytes = small_v6();
        let n = bytes.len() / 8;
        let pick = |f: f64| 2 + ((n - 3) as f64 * f) as usize;
        prop_assume!(damage_words(&mut bytes, kind, pick(i_frac), pick(j_frac), value));
        prop_assert!(load_index(&mut Cursor::new(&bytes)).is_err(), "kind {kind} streamed");
        let path = tmp("compat-fuzz-words.jem");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(load_index_path(&path).is_err(), "kind {kind} mapped");
    }
}
