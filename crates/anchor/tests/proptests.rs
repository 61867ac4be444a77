//! Property tests pinning the stage-2 kernels to their naive references:
//! the O(n log n) chain DP against the O(n²) DP, and the O(n) monotone-
//! deque dominance filter against the literal pairwise definition. The
//! whole refiner is pinned to where a verbatim region came from.

use jem_anchor::{
    chain_anchors, chain_anchors_naive, filter_dominated, filter_dominated_naive, Anchor,
    ChainScratch, FilterScratch, Placement, RefineScratch, RefineStats, Refiner, Window,
};
use jem_seq::alphabet::revcomp_bytes;
use jem_seq::SeqRecord;
use jem_sketch::SketchScheme;
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), min..max)
}

/// Place `query` on `reference` with a k = 11, w = 5 refiner that takes
/// the reference as its only candidate.
fn place(reference: &[u8], query: &[u8]) -> Option<Placement> {
    let refiner = Refiner::new(
        SketchScheme::Minimizer { w: 5 },
        11,
        vec![SeqRecord::new("ref", reference.to_vec())],
    );
    refiner.refine_segment(
        query,
        &[(0, 0)],
        &mut RefineScratch::new(),
        &mut RefineStats::default(),
    )
}

fn anchors_from(pairs: &[(u32, u32)]) -> Vec<Anchor> {
    pairs
        .iter()
        .map(|&(qpos, tpos)| Anchor { qpos, tpos })
        .collect()
}

fn windows_from(pairs: &[(u32, u32)]) -> Vec<Window> {
    let mut windows: Vec<Window> = pairs
        .iter()
        .map(|&(t_start, j)| Window { t_start, j })
        .collect();
    // The sweep emits windows sorted by target start.
    windows.sort_unstable_by_key(|w| w.t_start);
    windows
}

/// A chain must be reachable from the input: strictly increasing in both
/// coordinates with at least `n_anchors` compatible anchors. Cheap sanity
/// bound (full reconstruction is the naive DP's job).
fn chain_is_plausible(anchors: &[Anchor], chain: &jem_anchor::Chain) -> bool {
    chain.n_anchors >= 1
        && chain.n_anchors as usize <= anchors.len()
        && chain.q_start <= chain.q_last
        && chain.t_start <= chain.t_last
        && anchors
            .iter()
            .any(|a| a.qpos == chain.q_start && a.tpos == chain.t_start)
        && anchors
            .iter()
            .any(|a| a.qpos == chain.q_last && a.tpos == chain.t_last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The fast chain DP scores exactly like the quadratic reference on
    /// arbitrary anchor sets (duplicates and collinear ties included —
    /// coordinates drawn from a small range to force collisions).
    #[test]
    fn chain_matches_naive_dense(pairs in prop::collection::vec((0u32..40, 0u32..40), 0..80)) {
        let anchors = anchors_from(&pairs);
        let fast = chain_anchors(&anchors, &mut ChainScratch::default());
        let naive = chain_anchors_naive(&anchors);
        prop_assert_eq!(fast.is_some(), naive.is_some());
        if let (Some(f), Some(n)) = (fast, naive) {
            prop_assert_eq!(f.n_anchors, n.n_anchors, "fast {:?} naive {:?}", f, n);
            prop_assert!(chain_is_plausible(&anchors, &f), "implausible {:?}", f);
        }
    }

    /// Same equivalence on sparse coordinates (few ties, long chains).
    #[test]
    fn chain_matches_naive_sparse(
        pairs in prop::collection::vec((0u32..100_000, 0u32..100_000), 0..60),
    ) {
        let anchors = anchors_from(&pairs);
        let fast = chain_anchors(&anchors, &mut ChainScratch::default());
        prop_assert_eq!(
            fast.map(|c| c.n_anchors),
            chain_anchors_naive(&anchors).map(|c| c.n_anchors)
        );
    }

    /// Scratch reuse across random inputs never changes the result.
    #[test]
    fn chain_scratch_reuse_is_pure(
        a in prop::collection::vec((0u32..50, 0u32..50), 0..40),
        b in prop::collection::vec((0u32..50, 0u32..50), 0..40),
    ) {
        let (a, b) = (anchors_from(&a), anchors_from(&b));
        let mut reused = ChainScratch::default();
        let first = chain_anchors(&a, &mut reused);
        let second = chain_anchors(&b, &mut reused);
        prop_assert_eq!(first, chain_anchors(&a, &mut ChainScratch::default()));
        prop_assert_eq!(second, chain_anchors(&b, &mut ChainScratch::default()));
    }

    /// The deque filter reproduces the pairwise dominance definition on
    /// arbitrary window sets, tie-heavy by construction (small j range,
    /// clustered starts — many exact ties and fully-nested spans).
    #[test]
    fn filter_matches_naive(
        pairs in prop::collection::vec((0u32..60, 0u32..6), 0..60),
        sep in 0u32..80,
    ) {
        let windows = windows_from(&pairs);
        let mut out = Vec::new();
        filter_dominated(&windows, sep, &mut FilterScratch::default(), &mut out);
        prop_assert_eq!(out, filter_dominated_naive(&windows, sep));
    }

    /// Wide separations and wide support ranges (the "everything competes
    /// with everything" and "nothing competes" extremes both appear).
    #[test]
    fn filter_matches_naive_wide(
        pairs in prop::collection::vec((0u32..1_000_000, 0u32..1_000), 0..50),
        sep in prop::sample::select(vec![0u32, 1, 499_999, 1_000_000, u32::MAX]),
    ) {
        let windows = windows_from(&pairs);
        let mut out = Vec::new();
        filter_dominated(&windows, sep, &mut FilterScratch::default(), &mut out);
        prop_assert_eq!(out, filter_dominated_naive(&windows, sep));
    }

    /// Survivors are always a subsequence of the input, and the global
    /// best-supported window always survives.
    #[test]
    fn filter_keeps_a_global_maximum(
        pairs in prop::collection::vec((0u32..200, 0u32..50), 1..40),
        sep in 0u32..300,
    ) {
        let windows = windows_from(&pairs);
        let mut out = Vec::new();
        filter_dominated(&windows, sep, &mut FilterScratch::default(), &mut out);
        prop_assert!(!out.is_empty(), "filter emptied a non-empty input");
        let best_j = windows.iter().map(|w| w.j).max().unwrap();
        prop_assert!(out.iter().any(|w| w.j == best_j));
        let mut cursor = 0usize;
        for w in &out {
            let found = windows[cursor..].iter().position(|v| v == w);
            prop_assert!(found.is_some(), "{:?} out of order", w);
            cursor += found.unwrap() + 1;
        }
    }

    /// A verbatim 1.2 kb region of a random reference places on the
    /// forward strand with both target ends within 150 bp of the truth.
    #[test]
    fn refiner_coordinates_within_tolerance(
        reference in dna(8_000, 15_000),
        start_frac in 0.0f64..0.6,
    ) {
        let start = (reference.len() as f64 * start_frac) as usize;
        let end = (start + 1_200).min(reference.len());
        let p = place(&reference, &reference[start..end]).expect("verbatim region must place");
        prop_assert_eq!(p.subject, 0);
        prop_assert!(!p.reverse);
        prop_assert!((p.t_start as i64 - start as i64).abs() < 150,
            "t_start {} vs {}", p.t_start, start);
        prop_assert!((p.t_end as i64 - end as i64).abs() < 150,
            "t_end {} vs {}", p.t_end, end);
        prop_assert!(p.q_start < p.q_end);
        prop_assert!(p.t_start < p.t_end);
    }

    /// The reverse complement of a region places on the reverse strand at
    /// the region's target coordinates.
    #[test]
    fn refiner_reverse_strand_detected(reference in dna(8_000, 12_000)) {
        let query = revcomp_bytes(&reference[3_000..4_200]);
        let p = place(&reference, &query).expect("revcomp region must place");
        prop_assert!(p.reverse);
        prop_assert!((p.t_start as i64 - 3_000).abs() < 150, "t_start {}", p.t_start);
        prop_assert!((p.t_end as i64 - 4_200).abs() < 150, "t_end {}", p.t_end);
    }
}
