//! Each contig's stage-2 position index is built once, however many
//! workers shortlist it at the same moment: concurrent first uses wait for
//! the one build instead of each winnowing the contig. One test owns the
//! binary because the recorder install is process-global and
//! first-install-wins.

use jem_anchor::{RefineScratch, RefineStats, Refiner};
use jem_seq::SeqRecord;
use jem_sketch::SketchScheme;
use std::sync::Barrier;

#[test]
fn concurrent_first_uses_of_one_contig_build_it_once() {
    let contig: Vec<u8> = (0..6_000)
        .scan(41u64, |s, _| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Some(b"ACGT"[((*s >> 33) % 4) as usize])
        })
        .collect();
    let seg = contig[2_000..2_600].to_vec();
    let (scheme, k) = (SketchScheme::Minimizer { w: 10 }, 15);
    // Stage 1's position list, extracted before the recorder counts.
    let mins = scheme.extract(&seg, k);
    let refiner = Refiner::new(scheme, k, vec![SeqRecord::new("c0", contig)]);

    let rec = jem_obs::install_default().expect("this binary owns the recorder");
    let threads = 8;
    let barrier = Barrier::new(threads);
    let placements: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = RefineScratch::new();
                    let mut stats = RefineStats::default();
                    barrier.wait();
                    refiner.refine_from_list(&seg, &mins, &[(0, 9)], &mut scratch, &mut stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(placements[0].is_some(), "a verbatim window must place");
    assert!(placements.iter().all(|p| *p == placements[0]));
    assert_eq!(rec.snapshot().counter("sketch.sequences"), 1);
}
