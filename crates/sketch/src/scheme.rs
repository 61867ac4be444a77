//! Pluggable sketch-position schemes.
//!
//! The JEM sketch (Algorithm 1) is agnostic to *how* the position list
//! `Mo(s, w)` is chosen — it only needs `(code, position)` tuples sorted by
//! position. [`SketchScheme`] abstracts that choice: the paper's windowed
//! minimizers, or closed syncmers (the quality-oriented alternative
//! implementing the paper's future-work item i).

use crate::jem::{sketch_minimizer_list, JemSketch};
use crate::minimizer::{minimizers, minimizers_into, Minimizer, MinimizerParams, WinnowScratch};
use crate::syncmer::{closed_syncmers, closed_syncmers_into, SyncmerParams};
use crate::HashFamily;
use jem_seq::SeqError;

/// How sketch positions are selected from a sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchScheme {
    /// Window minimizers (the paper's scheme): smallest canonical k-mer of
    /// `w` consecutive k-mers, winnowing-deduplicated.
    Minimizer {
        /// Window size `w`.
        w: usize,
    },
    /// Closed syncmers: context-free selection where the minimal `s`-mer of
    /// the k-mer sits at its first or last offset.
    ClosedSyncmer {
        /// Inner s-mer size.
        s: usize,
    },
}

impl SketchScheme {
    /// Validate against a k-mer size.
    pub fn validate(&self, k: usize) -> Result<(), SeqError> {
        match *self {
            SketchScheme::Minimizer { w } => MinimizerParams::new(k, w).map(|_| ()),
            SketchScheme::ClosedSyncmer { s } => SyncmerParams::new(k, s).map(|_| ()),
        }
    }

    /// Extract the position list for `seq`.
    pub fn extract(&self, seq: &[u8], k: usize) -> Vec<Minimizer> {
        match *self {
            SketchScheme::Minimizer { w } => match MinimizerParams::new(k, w) {
                Ok(p) => minimizers(seq, p),
                Err(_) => Vec::new(),
            },
            SketchScheme::ClosedSyncmer { s } => match SyncmerParams::new(k, s) {
                Ok(p) => closed_syncmers(seq, p),
                Err(_) => Vec::new(),
            },
        }
    }

    /// Allocation-reusing variant of [`extract`](Self::extract): clears and
    /// refills `out` (invalid parameters leave it empty, matching the
    /// owning variant's `Vec::new()`).
    pub fn extract_into(
        &self,
        seq: &[u8],
        k: usize,
        winnow: &mut WinnowScratch,
        out: &mut Vec<Minimizer>,
    ) {
        match *self {
            SketchScheme::Minimizer { w } => match MinimizerParams::new(k, w) {
                Ok(p) => minimizers_into(seq, p, winnow, out),
                Err(_) => out.clear(),
            },
            SketchScheme::ClosedSyncmer { s } => match SyncmerParams::new(k, s) {
                Ok(p) => closed_syncmers_into(seq, p, winnow, out),
                Err(_) => out.clear(),
            },
        }
    }

    /// Expected selection density (fraction of k-mers chosen).
    pub fn expected_density(&self, k: usize) -> f64 {
        match *self {
            SketchScheme::Minimizer { w } => 2.0 / (w as f64 + 1.0),
            SketchScheme::ClosedSyncmer { s } => 2.0 / (k - s + 1) as f64,
        }
    }
}

/// JEM sketch of `seq` under an arbitrary position scheme: Algorithm 1 with
/// its minimizer list swapped for the scheme's selection.
pub fn sketch_by_scheme(
    seq: &[u8],
    k: usize,
    scheme: SketchScheme,
    ell: usize,
    family: &HashFamily,
) -> JemSketch {
    sketch_minimizer_list(&scheme.extract(seq, k), ell, family)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sketch_by_jem, JemParams};

    fn rng_seq(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .scan(seed, |s, _| {
                *s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Some(b"ACGT"[((*s >> 33) % 4) as usize])
            })
            .collect()
    }

    #[test]
    fn minimizer_scheme_matches_direct_jem() {
        let seq = rng_seq(5_000, 1);
        let family = HashFamily::generate(8, 2);
        let params = JemParams::new(12, 10, 300).unwrap();
        let via_scheme =
            sketch_by_scheme(&seq, 12, SketchScheme::Minimizer { w: 10 }, 300, &family);
        let direct = sketch_by_jem(&seq, params, &family);
        assert_eq!(via_scheme, direct);
    }

    #[test]
    fn syncmer_scheme_produces_nonempty_sketch() {
        let seq = rng_seq(5_000, 3);
        let family = HashFamily::generate(8, 4);
        let sketch = sketch_by_scheme(
            &seq,
            16,
            SketchScheme::ClosedSyncmer { s: 11 },
            300,
            &family,
        );
        assert!(!sketch.is_empty());
        assert_eq!(sketch.trials(), 8);
    }

    #[test]
    fn validation_dispatches() {
        assert!(SketchScheme::Minimizer { w: 0 }.validate(16).is_err());
        assert!(SketchScheme::Minimizer { w: 100 }.validate(16).is_ok());
        assert!(SketchScheme::ClosedSyncmer { s: 16 }.validate(16).is_err());
        assert!(SketchScheme::ClosedSyncmer { s: 11 }.validate(16).is_ok());
    }

    #[test]
    fn densities() {
        assert!((SketchScheme::Minimizer { w: 99 }.expected_density(16) - 0.02).abs() < 1e-12);
        assert!(
            (SketchScheme::ClosedSyncmer { s: 11 }.expected_density(16) - 2.0 / 6.0).abs() < 1e-12
        );
    }

    #[test]
    fn shared_window_collides_under_syncmers_too() {
        let subject = rng_seq(8_000, 9);
        let query = subject[3_000..4_000].to_vec();
        let family = HashFamily::generate(12, 5);
        let scheme = SketchScheme::ClosedSyncmer { s: 11 };
        let ss = sketch_by_scheme(&subject, 16, scheme, 1_000, &family);
        let qs = sketch_by_scheme(&query, 16, scheme, 1_000, &family);
        let mut collisions = 0;
        for t in 0..12 {
            let sub: std::collections::HashSet<&u64> = ss.per_trial[t].iter().collect();
            if qs.per_trial[t].iter().any(|c| sub.contains(c)) {
                collisions += 1;
            }
        }
        assert!(collisions >= 10, "only {collisions}/12 trials collided");
    }
}
