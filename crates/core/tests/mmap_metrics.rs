//! Pins the zero-copy property of the v6 mmap load path through the
//! metrics it emits: loading a JEMIDX v6 artifact from disk must copy
//! **zero** posting-arena bytes (`persist.arena_copy_bytes` stays 0 and
//! `persist.load_mmap` fires), while a legacy file is refused at its magic
//! before anything is mapped or copied. One test function owns the whole
//! binary because the recorder install is process-global and
//! first-install-wins.

#![cfg(unix)]

use jem_core::{load_index_path, save_index, JemMapper, MapperConfig};
use jem_seq::SeqRecord;
use std::path::PathBuf;

#[test]
fn v5_mmap_load_copies_no_arena_bytes() {
    let rec = jem_obs::install_default().expect("this binary owns the recorder");

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
    let mapper = JemMapper::build(&subjects, &config);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));

    // v6: mmap route, zero bytes copied out of the artifact.
    let v6 = dir.join("metrics-v6.jem");
    let mut out = std::fs::File::create(&v6).unwrap();
    save_index(&mut out, &mapper).unwrap();
    drop(out);
    load_index_path(&v6).unwrap();
    let snap = rec.snapshot();
    assert_eq!(
        snap.counter("persist.load_mmap"),
        1,
        "v6 must take the mmap route"
    );
    assert_eq!(snap.counter("persist.load_owned"), 0);
    assert_eq!(
        snap.counter("persist.arena_copy_bytes"),
        0,
        "a v6 mmap load must not copy the posting arena"
    );
    assert_eq!(snap.spans.get("persist/load").map(|s| s.count), Some(1));
    assert_eq!(snap.spans.get("persist/save").map(|s| s.count), Some(1));

    // The committed legacy fixtures are refused at the magic: nothing is
    // mapped or read into memory for them.
    let fixtures =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/format-compat");
    for legacy in ["index_v3.jem", "index_v4.jem", "index_v5.jem"] {
        assert!(load_index_path(fixtures.join(legacy)).is_err(), "{legacy}");
    }
    let after = rec.snapshot();
    assert_eq!(after.counter("persist.load_mmap"), 1);
    assert_eq!(after.counter("persist.load_owned"), 0);
    assert_eq!(after.counter("persist.arena_copy_bytes"), 0);
}
