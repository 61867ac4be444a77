//! # jem-core — the JEM-Mapper (Algorithm 2 of the paper)
//!
//! Maps long-read *end segments* (prefix/suffix of length ℓ) to their best
//! matching contig using the minimizer-based Jaccard estimator sketch:
//!
//! 1. **Index** — every contig is sketched with [`jem_sketch::sketch_by_jem`]
//!    into sorted runs that are merged into the code-keyed
//!    [`jem_index::FlatTable`], whose postings carry trial masks.
//! 2. **Map** — each query end segment is sketched the same way, in
//!    code-keyed form ([`jem_sketch::MaskedSketch`], one backward pass per
//!    end segment); for every trial `t`, contigs colliding with the query
//!    on trial `t` form `Hits_r[t]`; the most frequent contig across
//!    trials is the reported best hit (ties to the smaller contig id). One
//!    probe kernel ([`Probe`]) looks each distinct code up once and ORs
//!    trial masks into the paper's lazy-update counter.
//!
//! Three drivers share this logic:
//!
//! * [`JemMapper::map_reads`] — sequential (one counter, queries one by one);
//! * [`parallel::map_batches_parallel`] — the shared-memory
//!   segment-batch driver: the calling thread feeds fixed-size batches
//!   through one bounded queue to std worker threads
//!   ([`parallel::run_batches`], also behind `jem-anchor`'s fused
//!   pipeline); the batches come from a slice
//!   ([`parallel::map_segments_parallel`]) or straight from FASTA/FASTQ
//!   ([`segment::SegmentBatches`], which keeps only each read's ends), so
//!   a parsed input is held only in flight;
//! * [`resilient::run_distributed_resilient`] — the paper's S1–S4
//!   distributed algorithm on the `jem-psim` BSP world, producing the
//!   per-step timing breakdown of Figs. 7–8 and the strong-scaling data of
//!   Table II. Under a [`jem_psim::FaultPlan`] crashed ranks' blocks are
//!   reassigned and replayed, corrupted sketch streams are detected
//!   (framed, checksummed transport) and re-requested, and an optional
//!   checkpoint makes the run restartable past the sketch-gather barrier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod contained;
pub mod mapper;
pub mod parallel;
pub mod persist;
pub mod report;
pub mod resilient;
pub mod segment;

pub use config::MapperConfig;
pub use contained::{ContainedHit, TiledMapping};
pub use mapper::{CodeFilter, JemMapper, MapScratch, Mapping, Probe};
pub use parallel::{
    default_workers, map_batches_parallel, map_segments_parallel, queue_bound, run_batches,
    slice_batches,
};
pub use persist::{load_index, load_index_path, read_index_config, save_index, upgrade_index};
pub use report::{mapping_pairs, write_mappings_tsv, write_mappings_tsv_named};
pub use resilient::{
    run_distributed_resilient, DistributedOutcome, ResilienceError, ResilienceOptions,
    StepBreakdown,
};
pub use segment::{make_segments, QuerySegment, ReadEnd, ReadId, SegmentBatches};
