//! # jem-baseline — the comparator mappers
//!
//! The paper's evaluation compares JEM-mapper against two baselines, both
//! reimplemented here from scratch:
//!
//! * [`mashmap`] — a Mashmap-style two-stage winnowed-minhash mapper
//!   (Jain et al., RECOMB 2017): a minimizer index with *positions*,
//!   stage-1 candidate subjects by shared-minimizer count, stage-2 maximal
//!   local intersection over an ℓ-sized sliding window of subject
//!   positions. This is the algorithmic shape the paper describes when
//!   contrasting its interval sketches ("in Mashmap, for each minimizer, a
//!   list of all positions ... the region where the query has maximal local
//!   intersection ... is detected and reported at query time").
//! * [`minhash_mapper`] — the classical whole-segment MinHash mapper the
//!   paper sweeps in Fig. 6 (one sketch per trial over *all* k-mers of a
//!   sequence, no positional locality).
//!
//! Both mappers consume the same inputs as [`jem_core::JemMapper`] and emit
//! [`jem_core::Mapping`] values, so the evaluation harness treats every
//! tool uniformly. The paper's third tool, Minimap2, only places contigs
//! and reads on the reference while the benchmark is built (Fig. 4); that
//! seed-and-chain role is stage 2's (`jem_anchor::Refiner` with every
//! reference record as a candidate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mashmap;
pub mod minhash_mapper;

pub use mashmap::{run_mashmap_threaded, MashmapConfig, MashmapMapper};
pub use minhash_mapper::{ClassicMinHashConfig, ClassicMinHashMapper, ClassicScratch};
