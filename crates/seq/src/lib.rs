//! # jem-seq — DNA sequence substrate for JEM-Mapper
//!
//! This crate provides the low-level sequence machinery every other crate in
//! the workspace builds on:
//!
//! * [`alphabet`] — the 2-bit DNA alphabet (`A=0, C=1, G=2, T=3`), chosen so
//!   that numeric order of packed codes equals lexicographic order of the
//!   underlying strings (the paper's minimizer ordering and "canonical k-mer
//!   rank" both rely on lexicographic order).
//! * [`kmer`] — fixed-`k` k-mers packed into a `u64` (`k ≤ 32`), reverse
//!   complements, canonical forms, and rolling iteration over byte sequences.
//! * [`block`] — branch-free block 2-bit encoding: LUT-translated 32-base
//!   blocks packed into `u64` words with validity masks, split once into
//!   maximal valid runs for the sketching hot loops.
//! * [`record`] — named sequence records shared by the FASTA/FASTQ codecs.
//! * [`parse`] — the byte-level FASTA/FASTQ parser core: reused line
//!   buffers, borrowed records.
//! * [`fasta`] / [`fastq`] — owned-record readers on that core, and
//!   writers.
//!
//! The crate is dependency-free and `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod block;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod kmer;
pub mod parse;
pub mod record;

pub use alphabet::{complement_base, decode_base, encode_base, is_dna, revcomp_bytes};
pub use block::{BlockEncoded, Run, RunCodes};
pub use error::SeqError;
pub use fasta::{FastaReader, FastaWriter};
pub use fastq::{FastqReader, FastqWriter};
pub use kmer::{CanonicalKmerIter, Kmer, KmerIter};
pub use parse::{RecordParser, RecordRef, SeqFormat};
pub use record::{FastqRecord, SeqRecord};
