//! Flat, arena-backed view of the sketch table — the in-memory shape of the
//! JEMIDX v6 on-disk format.
//!
//! [`FlatTable`] is the workspace's one sketch table, and it is a *view
//! over a word buffer*: one power-of-two open-addressing bucket array
//! keyed by sketch code, plus one contiguous posting arena. The buffer can
//! be an owned `Vec<u64>` or a memory-mapped file — the table never copies
//! out of it, which is what makes a multi-gigabyte index loadable in
//! milliseconds (Platanus' `table` + `pos_pool` shape; mapquik's
//! zero-rebuild load discipline).
//!
//! The paper's table is `T` banks, bank `t` mapping a code to the
//! subjects that hold it on trial `t`. Here each code is stored once, the
//! way minimap keys its index by minimizer, and each posting carries a
//! **trial mask**: bit `t` is set iff the `(code, subject)` pair is in bank
//! `t`. A query probes each of its codes once and ANDs its own trial mask
//! for the code with every posting's; see [`FlatTable::probe`].
//!
//! ## Blob layout (word offsets relative to the blob start)
//!
//! ```text
//! word 0        trial count T
//! word 1        bucket capacity C (zero, or a power of two)
//! word 2        posting count P — distinct (code, subject) pairs
//! word 3        entry count E — (trial, code, subject) associations,
//!               the sum of every posting mask's popcount
//! words 4..4+2C bucket array: C slots [code, off_len]
//! then          posting arena: P postings of 1 + W u32 halves each,
//!               W = ⌈T/32⌉, packed two halves per word, low half first
//! ```
//!
//! * `off_len == 0` marks an empty slot — unambiguous because every code
//!   has at least one posting. Otherwise `off_len = (start << 24) | len`,
//!   addressing postings `start .. start+len` (lists are capped at
//!   2^24−1 subjects, arenas at 2^40 postings).
//! * Slot placement uses the same Fibonacci-hash + linear-probe scheme as
//!   [`crate::u64map::U64Map`], at load factor ≤ 0.5; lookups probe at
//!   most `C` slots, so even a corrupt all-full table terminates.
//! * A posting is a subject id followed by its W mask words (bit `t % 32`
//!   of word `t / 32` is trial `t`). At T ≤ 32 a posting is one word. The
//!   last arena word's unused half is zero.
//!
//! [`FlatTable::from_runs`] writes this layout straight from code-keyed
//! runs ([`MaskedRun`]), *canonically* — posting lists in ascending code
//! order, each code's subjects ascending, and keys inserted into the
//! bucket array in ascending `(home slot, code)` order — so the bytes are
//! a pure function of the logical table contents, however the postings
//! were split across workers, ranks or streams; save → load → save
//! round-trips byte-identically.
//!
//! Construction from untrusted bytes goes through the fallible
//! [`FlatTable::from_source`] validator, which bounds-checks every section
//! and slot so no later lookup can index out of range or fail to
//! terminate. [`FlatTable::verify_postings`] adds the canonical-form checks
//! (masks non-zero and inside `T`, subjects strictly ascending, the entry
//! count). Neither verifies checksums (the caller's file format owns
//! integrity) nor that subject ids are dense — use
//! [`FlatTable::max_subject`] to range-check ids against a subject count.

use crate::runs::{last_word_bits, mask_words, pack_halves, radix_sort_by_code, MaskedRun};
use crate::SubjectId;
use std::fmt;
use std::sync::Arc;

/// Fibonacci multiplier, identical to `U64Map`'s.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Low bits of `off_len` holding the posting-list length.
const LEN_BITS: u32 = 24;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Blob header words: trials, bucket capacity, posting count, entry count.
const HEAD: usize = 4;

/// A borrowable buffer of `u64` words backing a [`FlatTable`].
///
/// Implemented by `Vec<u64>` (the owned / portable path) and by the mmap
/// wrapper in `jem-mmap` (via a newtype in `jem-core`). The contract is
/// just stability: the slice must not change length or contents while the
/// table holds the source.
pub trait WordSource: fmt::Debug + Send + Sync {
    /// The backing words.
    fn words(&self) -> &[u64];
}

impl WordSource for Vec<u64> {
    fn words(&self) -> &[u64] {
        self
    }
}

/// Typed failure of validating a flat-table blob.
///
/// Every structural way a blob can violate the layout above maps to a
/// variant here — validation never panics, no matter the input words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatError {
    /// The blob (or a section it declares) extends past the buffer.
    Truncated {
        /// Words the layout required at the point of failure.
        needed: usize,
        /// Words actually available.
        have: usize,
    },
    /// The blob declares a different trial count than expected.
    TrialMismatch {
        /// Trials the blob declares.
        blob: u64,
        /// Trials the caller expected.
        expected: usize,
    },
    /// The bucket capacity is neither zero nor a power of two.
    BadCapacity {
        /// The declared capacity.
        cap: u64,
    },
    /// A bucket slot addresses postings outside the arena.
    PostingOutOfBounds {
        /// The offending slot index.
        slot: usize,
    },
    /// A posting list is not in canonical form: a zero mask, a mask bit at
    /// or above `T`, or subjects not strictly ascending.
    NonCanonical {
        /// The offending slot index.
        slot: usize,
    },
    /// The declared entry count differs from the masks' total popcount.
    EntryCount {
        /// Entries the header declares.
        declared: u64,
        /// Entries the masks hold.
        counted: u64,
    },
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::Truncated { needed, have } => {
                write!(
                    f,
                    "flat table truncated: needed {needed} words, have {have}"
                )
            }
            FlatError::TrialMismatch { blob, expected } => {
                write!(f, "flat table declares {blob} trials, expected {expected}")
            }
            FlatError::BadCapacity { cap } => {
                write!(f, "bucket capacity {cap} is not zero or a power of two")
            }
            FlatError::PostingOutOfBounds { slot } => {
                write!(f, "bucket slot {slot} addresses postings outside the arena")
            }
            FlatError::NonCanonical { slot } => {
                write!(
                    f,
                    "bucket slot {slot} holds a non-canonical posting list (zero or \
                     out-of-range trial mask, or subjects not strictly ascending)"
                )
            }
            FlatError::EntryCount { declared, counted } => {
                write!(
                    f,
                    "flat table declares {declared} entries but its masks hold {counted}"
                )
            }
        }
    }
}

impl std::error::Error for FlatError {}

/// Reusable buffers of [`FlatTable::probe`]: each code's resolved slot
/// word and one posting's AND-ed mask.
#[derive(Clone, Debug, Default)]
pub struct ProbeScratch {
    found: Vec<u64>,
    and: Vec<u32>,
}

/// The flat sketch table: a validated, read-only view over a word buffer.
///
/// Cloning is cheap (an `Arc` bump) — the serve layer's epoch-pinned
/// hot-reload swap relies on this.
#[derive(Clone, Debug)]
pub struct FlatTable {
    source: Arc<dyn WordSource>,
    /// Word index of the blob's first word within `source`.
    base: usize,
    trials: usize,
    cap: usize,
    postings: usize,
    key_count: usize,
    entry_count: usize,
}

impl FlatTable {
    /// Build the table from code-keyed runs — one per worker, rank or
    /// stream, in any order, possibly overlapping — by merging them
    /// pairwise, never re-sorting: equal `(code, subject)` postings OR
    /// their masks.
    ///
    /// Posting lists are laid out in ascending code order, each code's
    /// subjects ascending, and keys are inserted in ascending `(home slot,
    /// code)` order, so the words are a pure function of the union of the
    /// runs: any split of the same postings yields the same blob.
    ///
    /// # Panics
    /// Panics if a part's trial count differs from `trials`, or a posting
    /// list or the arena outgrows the v6 bounds.
    pub fn from_runs(trials: usize, parts: Vec<MaskedRun>) -> FlatTable {
        for part in &parts {
            assert_eq!(part.trials(), trials, "runs T must match table T");
        }
        Self::write(MaskedRun::merge_all(trials, parts))
    }

    /// The canonical writer over one merged run.
    fn write(run: MaskedRun) -> FlatTable {
        let trials = run.trials();
        let entry_count = run.entry_count();
        let postings = run.posting_count();
        let MaskedRun {
            mut keys, halves, ..
        } = run;
        assert!(
            (postings as u64) <= (u64::MAX >> LEN_BITS),
            "posting arena too large for v6 offsets"
        );
        let cap = if keys.is_empty() {
            0
        } else {
            (keys.len() * 2).next_power_of_two()
        };
        let mut blob = Vec::with_capacity(HEAD + 2 * cap + halves.len().div_ceil(2));
        blob.extend_from_slice(&[
            trials as u64,
            cap as u64,
            postings as u64,
            entry_count as u64,
        ]);
        blob.resize(HEAD + 2 * cap, 0);
        // Each key's slot word, in code order; then the keys are inserted
        // in ascending (home slot, code) order, so the probes sweep the
        // bucket array front to back instead of jumping around it.
        let mask = cap.wrapping_sub(1);
        let mut start = 0u64;
        let mut by_home: Vec<(u64, u32)> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter_mut().enumerate() {
            let len = key.1;
            assert!(
                len <= LEN_MASK,
                "posting list length {len} outside v6 bounds [1, 2^24)"
            );
            key.1 = (start << LEN_BITS) | len;
            start += len;
            by_home.push((home(key.0, mask) as u64, i as u32));
        }
        radix_sort_by_code(&mut by_home, &mut Vec::new());
        for &(h, i) in &by_home {
            let (code, off_len) = keys[i as usize];
            let mut i = h as usize;
            while blob[HEAD + 2 * i + 1] != 0 {
                i = (i + 1) & mask;
            }
            blob[HEAD + 2 * i] = code;
            blob[HEAD + 2 * i + 1] = off_len;
        }
        blob.extend(pack_halves(&halves));
        FlatTable {
            source: Arc::new(blob),
            base: 0,
            trials,
            cap,
            postings,
            key_count: keys.len(),
            entry_count,
        }
    }

    /// Validate a blob at `source.words()[base ..]` and wrap it.
    ///
    /// Checks the trial count against `expect_trials`, the capacity's
    /// shape, every section's bounds against the buffer, and every
    /// occupied bucket slot's posting range — after which all accessors
    /// and probes are panic-free. Returns `Err` (never panics) on any
    /// violation. Posting *contents* are checked by
    /// [`FlatTable::verify_postings`].
    pub fn from_source(
        source: Arc<dyn WordSource>,
        base: usize,
        expect_trials: usize,
    ) -> Result<FlatTable, FlatError> {
        let words = source.words();
        let have = words.len();
        let need = |needed: usize| FlatError::Truncated { needed, have };
        let head_end = base.checked_add(HEAD).ok_or(need(usize::MAX))?;
        if head_end > have {
            return Err(need(head_end));
        }
        let head = &words[base..head_end];
        if head[0] != expect_trials as u64 {
            return Err(FlatError::TrialMismatch {
                blob: head[0],
                expected: expect_trials,
            });
        }
        if head[1] != 0 && !head[1].is_power_of_two() {
            return Err(FlatError::BadCapacity { cap: head[1] });
        }
        let cap = to_index(head[1], have)?;
        let postings = to_index(head[2], have)?;
        let entry_count = to_index(head[3], have)?;
        let stride = 1 + mask_words(expect_trials);
        let end = cap
            .checked_mul(2)
            .and_then(|b| b.checked_add(head_end))
            .and_then(|a| a.checked_add(postings.checked_mul(stride)?.div_ceil(2)))
            .ok_or(need(usize::MAX))?;
        if end > have {
            return Err(need(end));
        }
        let mut key_count = 0usize;
        for slot in 0..cap {
            let off_len = words[head_end + 2 * slot + 1];
            if off_len == 0 {
                continue;
            }
            let (start, len) = split(off_len);
            if len == 0 || start.checked_add(len).is_none_or(|e| e > postings) {
                return Err(FlatError::PostingOutOfBounds { slot });
            }
            key_count += 1;
        }
        Ok(FlatTable {
            source,
            base,
            trials: expect_trials,
            cap,
            postings,
            key_count,
            entry_count,
        })
    }

    /// Check every posting list is canonical — subjects strictly
    /// ascending, each mask non-zero with no bit at or above `T` — and the
    /// declared entry count equals the masks' total popcount. One pass
    /// over the arena; what an index load adds to the structural checks of
    /// [`FlatTable::from_source`].
    pub fn verify_postings(&self) -> Result<(), FlatError> {
        let w = mask_words(self.trials);
        let tail = last_word_bits(self.trials);
        let view = self.view();
        let mut counted = 0u64;
        for slot in 0..self.cap {
            let off_len = view.words[view.buckets + 2 * slot + 1];
            if off_len == 0 {
                continue;
            }
            let (start, len) = split(off_len);
            let mut prev: Option<SubjectId> = None;
            for j in start..start + len {
                let subject = view.subject(j);
                let mut any = 0;
                for k in 0..w {
                    let m = view.mask_word(j, k);
                    any |= m;
                    counted += u64::from(m.count_ones());
                    if k + 1 == w && m & !tail != 0 {
                        return Err(FlatError::NonCanonical { slot });
                    }
                }
                if any == 0 || prev.is_some_and(|p| p >= subject) {
                    return Err(FlatError::NonCanonical { slot });
                }
                prev = Some(subject);
            }
        }
        if counted != self.entry_count as u64 {
            return Err(FlatError::EntryCount {
                declared: self.entry_count as u64,
                counted,
            });
        }
        Ok(())
    }

    /// Number of trials `T`.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// `u32` words per trial mask, `⌈T/32⌉`.
    pub fn mask_words(&self) -> usize {
        mask_words(self.trials)
    }

    /// Number of distinct sketch codes (occupied bucket slots).
    pub fn key_count(&self) -> usize {
        self.key_count
    }

    /// Number of postings — distinct `(code, subject)` pairs.
    pub fn posting_count(&self) -> usize {
        self.postings
    }

    /// Total `(trial, code, subject)` association count: the paper's
    /// table size, the sum of every posting mask's popcount.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// The probe kernel's table half. For each code `codes[i]` with query
    /// trial mask `qmasks[i·W .. (i+1)·W]`, find the code's postings and
    /// call `hit(subject, mask)` with the AND of the query's and the
    /// posting's masks wherever it is non-zero: exactly the trials on which
    /// that code makes `subject` collide with the query. Each code is
    /// probed once. Returns the number of postings read.
    ///
    /// Probing runs in passes over all codes — home slots first, then the
    /// collision chains of the codes not settled there, then the posting
    /// ranges — so the cache misses of different codes overlap instead of
    /// each waiting on the last.
    pub fn probe(
        &self,
        codes: &[u64],
        qmasks: &[u32],
        scratch: &mut ProbeScratch,
        mut hit: impl FnMut(SubjectId, &[u32]),
    ) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        let w = self.mask_words();
        debug_assert_eq!(qmasks.len(), codes.len() * w);
        let view = self.view();
        let mask = self.cap - 1;
        let ProbeScratch { found, and } = scratch;
        // Pass 1: every code's home slot. A slot holding another code is
        // marked for pass 2 with a value no real slot word can take.
        found.clear();
        found.extend(codes.iter().map(|&code| {
            let i = home(code, mask);
            let off_len = view.words[view.buckets + 2 * i + 1];
            if off_len == 0 || view.words[view.buckets + 2 * i] == code {
                off_len
            } else {
                u64::MAX
            }
        }));
        // Pass 2: walk the collision chains.
        for (f, &code) in found.iter_mut().zip(codes) {
            if *f == u64::MAX {
                *f = view.find(code, mask);
            }
        }
        // Pass 3: the posting ranges.
        and.clear();
        and.resize(w, 0);
        let mut probed = 0u64;
        for (i, &off_len) in found.iter().enumerate() {
            let (start, len) = split(off_len);
            let q = &qmasks[i * w..(i + 1) * w];
            for j in start..start + len {
                let mut any = 0;
                for (k, (a, &m)) in and.iter_mut().zip(q).enumerate() {
                    *a = m & view.mask_word(j, k);
                    any |= *a;
                }
                if any != 0 {
                    hit(view.subject(j), and);
                }
            }
            probed += len as u64;
        }
        probed
    }

    /// Visit every code with its `(trial, code, subject)` association
    /// count, in unspecified order — the walk behind shard balance counts.
    pub fn for_each_code(&self, mut f: impl FnMut(u64, usize)) {
        let view = self.view();
        let w = self.mask_words();
        for slot in 0..self.cap {
            let off_len = view.words[view.buckets + 2 * slot + 1];
            if off_len != 0 {
                let (start, len) = split(off_len);
                let entries = (start..start + len)
                    .flat_map(|j| (0..w).map(move |k| view.mask_word(j, k).count_ones()))
                    .sum::<u32>();
                f(view.words[view.buckets + 2 * slot], entries as usize);
            }
        }
    }

    /// The table's words: the blob a v6 writer streams. For a table this
    /// crate wrote, these are the canonical words; a loaded table returns
    /// the words it was loaded from.
    pub fn blob(&self) -> &[u64] {
        let view = self.view();
        let end = view.arena + (self.postings * view.stride).div_ceil(2);
        &view.words[self.base..end]
    }

    /// Largest subject id present in the arena, or `None` for an empty
    /// table. Callers that know the subject count use this to range-check
    /// a loaded table in one cheap sequential pass.
    pub fn max_subject(&self) -> Option<SubjectId> {
        let view = self.view();
        (0..self.postings).map(|j| view.subject(j)).max()
    }

    /// Report one `index.bucket_occupancy` observation per code — its
    /// posting count, the subjects sharing it — into `rec`. The
    /// distribution shows how selective sketch collisions are (long lists
    /// mean a code is shared by many subjects and discriminates little).
    pub fn observe_occupancy(&self, rec: &dyn jem_obs::Recorder) {
        let view = self.view();
        for slot in 0..self.cap {
            let off_len = view.words[view.buckets + 2 * slot + 1];
            if off_len != 0 {
                rec.observe("index.bucket_occupancy", split(off_len).1 as u64);
            }
        }
    }

    /// The section offsets over the backing words, for one loop's reads.
    fn view(&self) -> View<'_> {
        let buckets = self.base + HEAD;
        View {
            words: self.source.words(),
            buckets,
            arena: buckets + 2 * self.cap,
            stride: 1 + self.mask_words(),
        }
    }
}

/// The backing words with absolute section offsets (validated in range).
#[derive(Clone, Copy)]
struct View<'a> {
    words: &'a [u64],
    buckets: usize,
    arena: usize,
    stride: usize,
}

impl View<'_> {
    /// The slot word of `code`, or 0 on a miss: a linear probe from its
    /// home slot that stops at an empty slot or after a full cycle.
    fn find(&self, code: u64, mask: usize) -> u64 {
        let mut i = home(code, mask);
        for _ in 0..=mask {
            let off_len = self.words[self.buckets + 2 * i + 1];
            if off_len == 0 || self.words[self.buckets + 2 * i] == code {
                return off_len;
            }
            i = (i + 1) & mask;
        }
        0
    }

    /// The `u32` half at index `i` of the arena.
    #[inline]
    fn half(&self, i: usize) -> u32 {
        (self.words[self.arena + i / 2] >> (32 * (i & 1))) as u32
    }

    /// Posting `j`'s subject id.
    #[inline]
    fn subject(&self, j: usize) -> SubjectId {
        self.half(j * self.stride)
    }

    /// Word `k` of posting `j`'s trial mask.
    #[inline]
    fn mask_word(&self, j: usize, k: usize) -> u32 {
        self.half(j * self.stride + 1 + k)
    }
}

/// Home slot of `code` in a bucket array of `mask + 1` slots.
#[inline]
fn home(code: u64, mask: usize) -> usize {
    (code.wrapping_mul(FIB) >> 32) as usize & mask
}

/// `(start, len)` of a slot word (`(0, 0)` for an empty slot).
#[inline]
fn split(off_len: u64) -> (usize, usize) {
    (
        (off_len >> LEN_BITS) as usize,
        (off_len & LEN_MASK) as usize,
    )
}

/// Convert an untrusted `u64` into a `usize` index, treating anything that
/// cannot possibly fit the buffer as truncation.
fn to_index(v: u64, have: usize) -> Result<usize, FlatError> {
    usize::try_from(v).map_err(|_| FlatError::Truncated {
        needed: usize::MAX,
        have,
    })
}

/// The subjects of `code` on each trial, as a naive reference would list
/// them — the postings whose mask has bit `t`, for every `t` at once.
#[cfg(test)]
pub(crate) fn lookup_trials(table: &FlatTable, code: u64) -> Vec<Vec<SubjectId>> {
    let t = table.trials();
    let w = table.mask_words();
    let mut per_trial = vec![Vec::new(); t];
    let mut qmask = vec![0u32; w];
    for trial in 0..t {
        qmask[trial / 32] |= 1 << (trial % 32);
    }
    table.probe(&[code], &qmask, &mut ProbeScratch::default(), |s, m| {
        for (trial, list) in per_trial.iter_mut().enumerate() {
            if m[trial / 32] >> (trial % 32) & 1 == 1 {
                list.push(s);
            }
        }
    });
    per_trial
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sketch::{sketch_by_jem, HashFamily, JemParams};
    use std::collections::{BTreeMap, BTreeSet};

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

    /// Algorithm 1's `(trial, code, subject)` entries of `subjects` random
    /// sequences, ids `0..subjects`.
    fn sample_entries(trials: usize, subjects: u32, seed: u64) -> Vec<(usize, u64, SubjectId)> {
        let family = HashFamily::generate(trials, seed);
        let params = JemParams::new(6, 5, 80).unwrap();
        let mut entries = Vec::new();
        for s in 0..subjects {
            let seq = rng_seq(300, u64::from(s) + seed * 100);
            for (t, codes) in sketch_by_jem(&seq, params, &family)
                .per_trial
                .iter()
                .enumerate()
            {
                entries.extend(codes.iter().map(|&code| (t, code, s)));
            }
        }
        entries
    }

    fn sample_runs(trials: usize, subjects: u32, seed: u64) -> MaskedRun {
        MaskedRun::from_entries(trials, sample_entries(trials, subjects, seed))
    }

    fn sample_blob(trials: usize, subjects: u32, seed: u64) -> Vec<u64> {
        let runs = sample_runs(trials, subjects, seed);
        FlatTable::from_runs(trials, vec![runs]).blob().to_vec()
    }

    #[test]
    fn from_runs_preserves_every_bank_lookup() {
        for trials in [1, 4, 31, 32, 33, 65] {
            let entries = sample_entries(trials, 12, 3);
            let mut banks: BTreeMap<(usize, u64), BTreeSet<SubjectId>> = BTreeMap::new();
            for &(t, code, s) in &entries {
                banks.entry((t, code)).or_default().insert(s);
            }
            let flat = FlatTable::from_runs(trials, vec![MaskedRun::from_entries(trials, entries)]);
            assert_eq!(flat.trials(), trials);
            assert_eq!(flat.entry_count(), banks.values().map(BTreeSet::len).sum());
            for (&(t, code), subjects) in &banks {
                let got = &lookup_trials(&flat, code)[t];
                assert!(got.iter().eq(subjects), "T = {trials}");
            }
            // A code that is absent stays absent.
            assert!(lookup_trials(&flat, 0xDEAD_BEEF_0BAD_F00D)
                .iter()
                .all(Vec::is_empty));
            let codes: BTreeSet<u64> = banks.keys().map(|&(_, code)| code).collect();
            assert_eq!(flat.key_count(), codes.len());
            assert!(flat.verify_postings().is_ok());
        }
    }

    #[test]
    fn reload_is_a_fixed_point() {
        let runs = sample_runs(3, 10, 7);
        let flat = FlatTable::from_runs(3, vec![runs.clone()]);
        assert_eq!(
            (flat.key_count(), flat.posting_count(), flat.entry_count()),
            (runs.key_count(), runs.posting_count(), runs.entry_count())
        );
        let blob = flat.blob().to_vec();
        let loaded = FlatTable::from_source(Arc::new(blob.clone()), 0, 3).unwrap();
        assert_eq!(loaded.key_count(), flat.key_count());
        assert_eq!(loaded.posting_count(), flat.posting_count());
        assert_eq!(loaded.entry_count(), flat.entry_count());
        assert_eq!(loaded.blob(), &blob[..]);
        assert!(loaded.verify_postings().is_ok());
    }

    #[test]
    fn blob_of_a_table_at_an_offset_is_its_own_words() {
        let blob = sample_blob(2, 5, 5);
        let mut words = vec![7u64, 8, 9];
        words.extend_from_slice(&blob);
        words.push(10);
        let flat = FlatTable::from_source(Arc::new(words), 3, 2).unwrap();
        assert_eq!(flat.blob(), &blob[..]);
    }

    #[test]
    fn any_split_of_the_postings_writes_the_same_blob() {
        let entries = sample_entries(3, 9, 31);
        let expect = sample_blob(3, 9, 31);
        // Deal the entries round-robin over four parts, overlapping some.
        let mut parts = vec![Vec::new(); 4];
        for (i, &e) in entries.iter().enumerate() {
            parts[i % 4].push(e);
            if i % 5 == 0 {
                parts[(i + 1) % 4].push(e);
            }
        }
        let parts: Vec<MaskedRun> = parts
            .into_iter()
            .map(|p| MaskedRun::from_entries(3, p))
            .collect();
        assert_eq!(FlatTable::from_runs(3, parts.clone()).blob(), &expect[..]);
        let mut reversed = parts;
        reversed.reverse();
        assert_eq!(FlatTable::from_runs(3, reversed).blob(), &expect[..]);
    }

    #[test]
    fn a_posting_at_t_le_32_is_one_word() {
        let runs = sample_runs(30, 8, 11);
        let flat = FlatTable::from_runs(30, vec![runs]);
        let blob = flat.blob();
        let cap = blob[1] as usize;
        assert_eq!(blob.len(), HEAD + 2 * cap + flat.posting_count());
        assert!(flat.posting_count() < flat.entry_count());
    }

    #[test]
    fn empty_table_writes_and_validates() {
        let flat = FlatTable::from_runs(5, Vec::new());
        assert_eq!(flat.trials(), 5);
        assert_eq!(flat.entry_count(), 0);
        assert_eq!(flat.max_subject(), None);
        assert!(lookup_trials(&flat, 42).iter().all(Vec::is_empty));
        assert_eq!(flat.blob(), &[5, 0, 0, 0]);
        let loaded = FlatTable::from_source(Arc::new(flat.blob().to_vec()), 0, 5).unwrap();
        assert!(loaded.verify_postings().is_ok());
    }

    #[test]
    fn max_subject_matches_table_contents() {
        let runs = sample_runs(3, 9, 13);
        let flat = FlatTable::from_runs(3, vec![runs.clone()]);
        let expect = runs.iter().map(|(_, s, _)| s).max();
        assert_eq!(flat.max_subject(), expect);
    }

    #[test]
    fn for_each_code_counts_every_entry_once() {
        let runs = sample_runs(5, 9, 17);
        let flat = FlatTable::from_runs(5, vec![runs]);
        let (mut codes, mut entries) = (0, 0);
        flat.for_each_code(|_, n| {
            codes += 1;
            entries += n;
        });
        assert_eq!((codes, entries), (flat.key_count(), flat.entry_count()));
    }

    #[test]
    #[should_panic(expected = "runs T must match table T")]
    fn trial_count_mismatch_panics() {
        FlatTable::from_runs(4, vec![MaskedRun::new(3)]);
    }

    #[test]
    fn trial_mismatch_rejected() {
        let blob = sample_blob(3, 4, 17);
        let err = FlatTable::from_source(Arc::new(blob), 0, 5).unwrap_err();
        assert!(matches!(
            err,
            FlatError::TrialMismatch {
                blob: 3,
                expected: 5
            }
        ));
    }

    #[test]
    fn truncation_at_every_length_rejected() {
        let blob = sample_blob(2, 6, 19);
        for cut in 0..blob.len() {
            let err = FlatTable::from_source(Arc::new(blob[..cut].to_vec()), 0, 2);
            assert!(err.is_err(), "cut at {cut} validated");
        }
    }

    #[test]
    fn bad_capacity_rejected() {
        let mut blob = sample_blob(1, 6, 23);
        blob[1] = 3;
        let err = FlatTable::from_source(Arc::new(blob), 0, 1).unwrap_err();
        assert!(matches!(err, FlatError::BadCapacity { cap: 3 }));
    }

    /// The first occupied slot's index and word offset in a blob.
    fn first_slot(blob: &[u64]) -> (usize, usize) {
        let cap = blob[1] as usize;
        let slot = (0..cap)
            .find(|s| blob[HEAD + 2 * s + 1] != 0)
            .expect("sample table has keys");
        (slot, HEAD + 2 * slot + 1)
    }

    #[test]
    fn posting_overrun_rejected() {
        let mut blob = sample_blob(1, 6, 29);
        let (slot, at) = first_slot(&blob);
        blob[at] = (blob[2] << LEN_BITS) | 2;
        let err = FlatTable::from_source(Arc::new(blob), 0, 1).unwrap_err();
        assert_eq!(err, FlatError::PostingOutOfBounds { slot });
    }

    /// Postings a load must refuse under full verification but may map
    /// structurally: zero masks, masks reaching past `T`, unsorted or
    /// repeated subjects, and a lying entry count.
    #[test]
    fn non_canonical_postings_rejected() {
        let trials = 5;
        let runs = sample_runs(trials, 9, 37);
        let blob = FlatTable::from_runs(trials, vec![runs]).blob().to_vec();
        let cap = blob[1] as usize;
        let arena = HEAD + 2 * cap;
        // A slot with at least two postings, and its first posting's word.
        let slot = (0..cap)
            .find(|s| (blob[HEAD + 2 * s + 1] & LEN_MASK) >= 2)
            .expect("sample table shares a code");
        let first = arena + split(blob[HEAD + 2 * slot + 1]).0;
        let subject = blob[first] & 0xFFFF_FFFF;
        let mask = blob[first] >> 32;
        let cases: [(&str, u64); 4] = [
            ("zero mask", subject),
            ("mask bit >= T", blob[first] | (1 << (32 + trials))),
            (
                "repeated subject",
                (blob[first + 1] & 0xFFFF_FFFF) | (mask << 32),
            ),
            ("unsorted subjects", u64::from(u32::MAX) | (mask << 32)),
        ];
        for (what, word) in cases {
            let mut bad = blob.clone();
            bad[first] = word;
            let table = FlatTable::from_source(Arc::new(bad), 0, trials).unwrap();
            assert_eq!(
                table.verify_postings(),
                Err(FlatError::NonCanonical { slot }),
                "{what}"
            );
        }
        let mut bad = blob.clone();
        bad[3] += 1;
        let table = FlatTable::from_source(Arc::new(bad), 0, trials).unwrap();
        assert!(matches!(
            table.verify_postings(),
            Err(FlatError::EntryCount { .. })
        ));
    }

    #[test]
    fn full_bucket_array_probe_terminates() {
        // Every slot claims a different code: a miss must stop after one
        // cycle, not spin.
        let mut blob = sample_blob(1, 6, 41);
        let cap = blob[1] as usize;
        let (_, at) = first_slot(&blob);
        let word = blob[at];
        for s in 0..cap {
            if blob[HEAD + 2 * s + 1] == 0 {
                blob[HEAD + 2 * s] = 0xFFFF_0000 + s as u64;
                blob[HEAD + 2 * s + 1] = word;
            }
        }
        let table = FlatTable::from_source(Arc::new(blob), 0, 1).unwrap();
        assert!(lookup_trials(&table, 0x0BAD_C0DE_0000_0001)[0].is_empty());
    }

    #[test]
    fn flat_errors_display() {
        assert!(FlatError::Truncated { needed: 9, have: 3 }
            .to_string()
            .contains("truncated"));
        assert!(FlatError::TrialMismatch {
            blob: 1,
            expected: 2
        }
        .to_string()
        .contains("trials"));
        assert!(FlatError::BadCapacity { cap: 7 }
            .to_string()
            .contains("capacity"));
        assert!(FlatError::PostingOutOfBounds { slot: 4 }
            .to_string()
            .contains("arena"));
        assert!(FlatError::NonCanonical { slot: 4 }
            .to_string()
            .contains("non-canonical"));
        assert!(FlatError::EntryCount {
            declared: 1,
            counted: 2
        }
        .to_string()
        .contains("entries"));
    }
}
