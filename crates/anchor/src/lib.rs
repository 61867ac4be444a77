//! # jem-anchor — stage-2 refinement of sketch mappings
//!
//! The paper's mapper stops at "best contig per end segment"; every
//! downstream consumer (polishing, scaffolding, cross-tool benchmarks)
//! needs *coordinates*. This crate adds the standard second stage over the
//! sketch index:
//!
//! 1. **Anchors** — stage-1's top-x candidate contigs are re-sketched with
//!    the index's own scheme ([`TargetIndex`]: flat code and position
//!    arrays sorted by code, cached per contig) and joined against the
//!    segment's scheme positions into strand-aware `(read_pos,
//!    subject_pos)` [`Anchor`] pairs.
//! 2. **Dominance filter** — candidate windows over each target are scored
//!    by anchor support and thinned with sweepmap's O(n) monotone-deque
//!    filter ([`filter_dominated`]): a window survives only if nothing
//!    within half a window length supports more anchors.
//! 3. **Chaining** — surviving windows run a minimap2-style colinear chain
//!    DP ([`chain_anchors`], O(n log n) patience LIS, proptested against a
//!    naive O(n²) reference).
//! 4. **MAPQ + PAF** — the best chain becomes a [`Placement`]; the margin
//!    to the second-best chain anywhere in the shortlist drives the
//!    mapquik-style [`mapq_from_scores`] model, and [`PafRow`] serializes
//!    the standard 12-column PAF line.
//!
//! [`AnchorPipeline`] fuses both stages off one sketch pass per segment;
//! its `mappings` output equals the stage-1 drivers' at every worker
//! count (the workspace's differential oracle checks it), so coordinate
//! output is strictly additive.
//!
//! The same [`Refiner`] takes the role Minimap2 plays in the paper's
//! benchmark construction (Fig. 4): built over the reference records,
//! with [`RefineParams::top_candidates`] set to their count, and asked
//! [`Refiner::refine_segment`] with every record as a candidate, it places
//! a contig or read on the reference with its strand and target span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod chain;
pub mod filter;
pub mod paf;
pub mod pipeline;
pub mod refine;

pub use anchor::{collect_anchors, occurrence_is_forward, Anchor, TargetIndex};
pub use chain::{chain_anchors, chain_anchors_naive, Chain, ChainScratch};
pub use filter::{filter_dominated, filter_dominated_naive, FilterScratch, Window};
pub use paf::{mapq_from_scores, write_paf, PafRow};
pub use pipeline::{AnchorOutput, AnchorPipeline};
pub use refine::{Placement, RefineParams, RefineScratch, RefineStats, Refiner};
