//! # jem-sketch — sketching primitives for JEM-Mapper
//!
//! Implements the sketching layer of the paper:
//!
//! * [`hash`] — the family of `T` linear-congruential hash functions
//!   `h_t(x) = (A_t·x + B_t) mod P_t` applied to canonical k-mer ranks
//!   (paper §III-B-2, implementation notes). Constants are generated a
//!   priori from a seed, exactly as the paper prescribes.
//! * [`minimizer`] — window-`w` minimizers under lexicographic order of
//!   canonical k-mers (paper §III-B-2), extracted in O(n) by a two-pass
//!   winnow over block 2-bit encoded runs; the minimizer list `Mo(s, w)`
//!   keeps `(kmer, position)` tuples
//!   sorted by position and deduplicates per the winnowing rule ("added only
//!   if they change or the current minimizer goes out of bounds").
//! * [`minhash`] — the classical Broder MinHash sketch over all k-mers of a
//!   sequence (the paper's baseline comparator in Fig. 6).
//! * [`jem`] — the minimizer-based Jaccard estimator sketch, Algorithm 1:
//!   intervals of length ℓ slid over the minimizer list, `T` MinHashes per
//!   interval.
//! * [`masked`] — the code-keyed form of that sketch that subjects and
//!   queries share: each distinct code once with its trial mask, from one
//!   backward pass when the position list spans at most ℓ (every end
//!   segment).
//! * [`jaccard`] — exact Jaccard, the minimizer Jaccard estimate
//!   `J_m(A,B;w) = J(M(A,w), M(B,w))`, and MinHash collision estimators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod jaccard;
pub mod jem;
pub mod masked;
pub mod minhash;
pub mod minimizer;
pub mod scheme;
pub mod syncmer;

pub use hash::{reduce_p61, HashFamily, LcgHash};
pub use jaccard::{exact_jaccard, kmer_set, minimizer_jaccard, sketch_jaccard_estimate};
pub use jem::{
    sketch_by_jem, sketch_by_jem_into, sketch_minimizer_list, sketch_minimizer_list_into,
    JemParams, JemSketch, SketchScratch,
};
pub use masked::{sketch_masked_into, MaskedSketch};
pub use minhash::{classic_minhash_seq, classic_minhash_set, classic_minima_into, ClassicSketch};
pub use minimizer::{
    minimizers, minimizers_into, minimizers_naive, Minimizer, MinimizerParams, WinnowScratch,
};
pub use scheme::{sketch_by_scheme, SketchScheme};
pub use syncmer::{closed_syncmers, closed_syncmers_into, is_closed_syncmer, SyncmerParams};
