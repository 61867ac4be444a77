//! # jem-index — the sketch table `S` and hit counting for JEM-Mapper
//!
//! * [`flat`] — [`FlatTable`], the sketch table `S` of paper Fig. 2 /
//!   Algorithm 2 line 2, keyed by sketch code once for all `T` trials:
//!   each code maps to the sorted subject (contig) ids holding it, each
//!   with a trial mask whose bit `t` says the pair is in the paper's bank
//!   `t`. It is a view over one word buffer — a bucket array plus a
//!   contiguous posting arena, the JEMIDX v6 layout — that a build owns
//!   and a load borrows, zero-copy, from a memory-mapped file.
//! * [`runs`] — [`MaskedRun`], code-keyed postings `(code, subject,
//!   trial mask)` ascending by `(code, subject)`: how every table is built
//!   (sketch a part into a run, merge, write flat), and the framed `u64`
//!   stream the distributed driver's gather step carries.
//! * [`checksum`] — the one integrity checksum of index files, framed
//!   runs and wire frames: four `u64` lanes over 32-byte stripes, shaped
//!   like XXH64, with byte, word and word-chain entries.
//! * [`builder`] — shared-memory parallel construction on one scoped
//!   thread per core (sketch subjects in parallel into runs, merge,
//!   write — the same local-sketch/global-merge shape as the distributed
//!   steps S2–S3).
//! * [`hits`] — the lazy-update hit counter array `A[1..n]` (paper §III-C
//!   implementation notes), holding `(query-id, trial mask)` per subject,
//!   plus the naive reset-per-query counter it replaces, kept for tests
//!   and ablations, and [`rank_order`], the one ranking rule.
//! * [`u64map`] — a minimal insert-only open-addressing hash map keyed by
//!   `u64` k-mer codes (Fibonacci hashing, linear probing), the
//!   workspace's `FxHashMap` stand-in; the flat table's buckets use the
//!   same probe scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod flat;
pub mod hits;
pub mod runs;
pub mod u64map;

/// Identifier of a subject (contig). `u32` caps subjects at ~4.3 billion,
/// far above the paper's largest contig set (98K).
pub type SubjectId = u32;

pub use builder::build_table_with;
pub use checksum::{checksum_bytes, checksum_chain, checksum_words};
pub use flat::{FlatError, FlatTable, ProbeScratch, WordSource};
pub use hits::{rank_order, HitCounter, HitStats, LazyHitCounter, NaiveHitCounter};
pub use runs::{mask_fits, mask_words, sketch_runs, trial_count, DecodeError, MaskedRun};
pub use u64map::U64Map;
