//! The minimizer-based Jaccard estimator (JEM) sketch — Algorithm 1.
//!
//! Given a sequence `s`, the minimizer list `Mo(s, w)` is generated and an
//! interval of length ℓ (the query end-segment length) is slid over the
//! minimizer *positions*: for each minimizer `⟨k_i, p_i⟩`, the interval
//! `M_i = {⟨k_j, p_j⟩ : p_i ≤ p_j ≤ p_i + ℓ}` is formed, and for each trial
//! `t ∈ [1, T]` the k-mer minimizing `h_t` over `M_i` joins trial `t`'s
//! sketch set. Sketches are thereby generated *at the resolution of the end
//! segment length* on both subjects and queries, which is the paper's key
//! departure from Mashmap (no positional post-filtering needed).
//!
//! [`sketch_by_jem`] runs in `O(|Mo|·T)`: the interval geometry is computed
//! once by a two-pointer prepass, then the `T` trials run trial-major over
//! one reusable monotone stack ([`SketchScratch`] holds both); the
//! `_into` variants reuse that scratch across calls so the steady-state hot
//! path performs no heap allocation. This general kernel sketches subjects
//! and any query too long for the end-segment pass of
//! [`masked`](crate::masked). [`sketch_by_jem_naive`] is the direct
//! transliteration of Algorithm 1 used by tests. The kernel layout is
//! documented in DESIGN.md §12.

use crate::hash::HashFamily;
use crate::minimizer::{minimizers_into, Minimizer, MinimizerParams, WinnowScratch};
use jem_seq::SeqError;

/// Parameters of the JEM sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JemParams {
    /// k-mer size.
    pub k: usize,
    /// Minimizer window size `w` (number of consecutive k-mers).
    pub w: usize,
    /// Interval / end-segment length ℓ in bases.
    pub ell: usize,
}

impl JemParams {
    /// Construct and validate.
    pub fn new(k: usize, w: usize, ell: usize) -> Result<Self, SeqError> {
        MinimizerParams::new(k, w)?;
        if ell == 0 {
            return Err(SeqError::InvalidParameter(
                "interval length ell must be >= 1".into(),
            ));
        }
        Ok(JemParams { k, w, ell })
    }

    /// Paper defaults: `k = 16`, `w = 100`, `ℓ = 1000`.
    pub fn paper_default() -> Self {
        JemParams {
            k: 16,
            w: 100,
            ell: 1000,
        }
    }

    /// The embedded minimizer parameters.
    pub fn minimizer_params(&self) -> MinimizerParams {
        MinimizerParams {
            k: self.k,
            w: self.w,
        }
    }
}

/// A JEM sketch: for each trial `t`, the sorted, deduplicated set of k-mer
/// codes selected over all ℓ-intervals of the minimizer list.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct JemSketch {
    /// `per_trial[t]` = sorted unique sketch k-mer codes for trial `t`.
    pub per_trial: Vec<Vec<u64>>,
}

impl JemSketch {
    /// Number of trials `T`.
    pub fn trials(&self) -> usize {
        self.per_trial.len()
    }

    /// Total number of (trial, code) entries.
    pub fn total_entries(&self) -> usize {
        self.per_trial.iter().map(Vec::len).sum()
    }

    /// True if no trial selected any sketch (input had no minimizers).
    pub fn is_empty(&self) -> bool {
        self.per_trial.iter().all(Vec::is_empty)
    }

    /// Every `(code, trial)` entry, trial-major.
    pub fn entries(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.per_trial
            .iter()
            .enumerate()
            .flat_map(|(t, codes)| codes.iter().map(move |&code| (code, t)))
    }

    /// Reset to `t` empty trial lists, keeping each list's allocation.
    fn reset(&mut self, t: usize) {
        self.per_trial.truncate(t);
        for list in self.per_trial.iter_mut() {
            list.clear();
        }
        while self.per_trial.len() < t {
            self.per_trial.push(Vec::new());
        }
    }
}

/// The monotone stack of the selection kernel. One stack serves all `T`
/// trials in turn (trial-major order), so the working set per trial is a
/// single L1-resident buffer instead of `T` interleaved deques.
///
/// Candidates rank by the `(h_t(code), code)` pair. When every code is
/// below the hash modulus `P = 2^61 − 1`, the LCG `h_t(x) = (A_t·x + B_t)
/// mod P` with `A_t ∈ [1, P−1]` is *injective* (multiplication by `A_t` is
/// invertible mod a prime), so distinct codes never share a hash and the
/// scan can rank by the bare `u64` hash — same pops, same winners, half the
/// key traffic. Codes reach `P` only for `k ≥ 31`, where the scan falls
/// back to full `u128` `(hash, code)` keys. Both paths keep a sentinel at
/// slot 0 (key `0` is never popped by a strictly-greater compare) so the
/// pop loop tests one condition, not two.
#[derive(Clone, Debug, Default)]
pub(crate) struct MonotoneStack {
    key: Vec<u128>,
    hkey: Vec<u64>,
    idx: Vec<u32>,
}

impl MonotoneStack {
    /// Prepare a stack of capacity ≥ `min_cap` entries plus the sentinel
    /// slot, reusing existing storage whenever it is large enough.
    fn reset(&mut self, min_cap: usize) {
        if self.key.len() < min_cap + 1 {
            self.key.resize(min_cap + 1, 0);
            self.hkey.resize(min_cap + 1, 0);
            self.idx.resize(min_cap + 1, 0);
        }
    }

    /// Emit the interval winners of one trial over the whole minimizer list.
    ///
    /// Rather than sliding a deque and reading its front once per interval,
    /// this runs the next-smaller-element scan: minimizer `x` wins *some*
    /// interval iff an interval exists that contains `x` but neither
    /// `L(x)` — the nearest earlier minimizer ranking `≤ x` — nor `R(x)`,
    /// the nearest later one ranking `< x`. Intervals start in
    /// `max(L(x)+1, starts[x])` … `x` (those containing `x` and excluding
    /// `L(x)`), and because `ends` is non-decreasing the earliest of them
    /// has the smallest right edge, so the test is one comparison:
    /// `ends[max(L(x)+1, starts[x])] ≤ R(x)`.
    ///
    /// One forward pass maintains the stack of indices with non-decreasing
    /// keys: pushing `j` pops every strictly-greater entry `x` (so
    /// `R(x) = j`, and the slot under `x` is `L(x)`), testing each popped
    /// entry; entries still on the stack at the end have no later smaller
    /// rival (`R = ∞`) and always win their earliest candidate interval.
    /// Ties keep the earlier entry, matching the reference deque — and an
    /// equal key is the same k-mer code, so tie direction cannot change the
    /// emitted *set*, which is all the sketch keeps.
    ///
    /// `hashes[j]` must hold `h_t(codes[j])` — the trial's hash values are
    /// precomputed lane-parallel by [`HashFamily::hash_codes_into`] rather
    /// than one u128 multiply-reduce per element here. `hash_injective`
    /// asserts that all codes are below the hash modulus (checked once per
    /// selection by the caller), enabling the `u64`-key scan.
    fn run_trial(
        &mut self,
        hashes: &[u64],
        codes: &[u64],
        ends: &[u32],
        starts: &[u32],
        hash_injective: bool,
        out: &mut Vec<u64>,
    ) {
        if hash_injective {
            self.run_trial_hash_keys(hashes, codes, ends, starts, out);
        } else {
            self.run_trial_wide_keys(hashes, codes, ends, starts, out);
        }
    }

    /// `u64`-key scan: ranks by hash alone. Valid only when the trial hash
    /// is injective over the code set (`hash_injective` above), which makes
    /// every comparison — and therefore every pop and every winner — equal
    /// to the `(hash, code)` ranking's.
    fn run_trial_hash_keys(
        &mut self,
        hashes: &[u64],
        codes: &[u64],
        ends: &[u32],
        starts: &[u32],
        out: &mut Vec<u64>,
    ) {
        let n = codes.len();
        debug_assert_eq!(hashes.len(), n);
        let key = &mut self.hkey[..n + 1];
        let idx = &mut self.idx[..n + 1];
        key[0] = 0; // sentinel: strictly-greater pops can never remove it
        idx[0] = u32::MAX; // wrapping_add(1) below yields interval 0
        let mut sp = 1usize;
        // The stack top lives in a register: the common no-pop iteration is
        // compare + store with no dependent load.
        let mut top = 0u64;
        for (j, &new_key) in hashes.iter().enumerate() {
            while top > new_key {
                let x = idx[sp - 1] as usize;
                let lo = idx[sp - 2].wrapping_add(1);
                let i0 = lo.max(starts[x]) as usize;
                if ends[i0] <= j as u32 {
                    out.push(codes[x]);
                }
                sp -= 1;
                top = key[sp - 1];
            }
            key[sp] = new_key;
            idx[sp] = j as u32;
            sp += 1;
            top = new_key;
        }
        // No later rival beats what remains: every survivor is a winner.
        out.extend(idx[1..sp].iter().map(|&x| codes[x as usize]));
    }

    /// Full `(hash, code)` `u128`-key scan, used when codes may reach the
    /// hash modulus (`k ≥ 31`) and distinct codes could share a hash.
    fn run_trial_wide_keys(
        &mut self,
        hashes: &[u64],
        codes: &[u64],
        ends: &[u32],
        starts: &[u32],
        out: &mut Vec<u64>,
    ) {
        let n = codes.len();
        debug_assert_eq!(hashes.len(), n);
        let key = &mut self.key[..n + 1];
        let idx = &mut self.idx[..n + 1];
        key[0] = 0;
        idx[0] = u32::MAX;
        let mut sp = 1usize;
        let mut top = 0u128;
        for j in 0..n {
            let new_key = (u128::from(hashes[j]) << 64) | u128::from(codes[j]);
            while top > new_key {
                let x = idx[sp - 1] as usize;
                let lo = idx[sp - 2].wrapping_add(1);
                let i0 = lo.max(starts[x]) as usize;
                if ends[i0] <= j as u32 {
                    out.push(top as u64);
                }
                sp -= 1;
                top = key[sp - 1];
            }
            key[sp] = new_key;
            idx[sp] = j as u32;
            sp += 1;
            top = new_key;
        }
        out.extend(key[1..sp].iter().map(|&k| k as u64));
    }
}

/// Reusable scratch state for the whole sketching pipeline: the minimizer
/// buffer, the winnowing scratch and the selection buffers. One of these
/// threads through a mapping loop (or an index-build part, a mapping
/// worker, or a serve worker) so steady-state sketching allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SketchScratch {
    pub(crate) mins: Vec<Minimizer>,
    pub(crate) winnow: WinnowScratch,
    pub(crate) select: SelectScratch,
    /// The general kernel's per-trial sets of a position list too long for
    /// the end-segment pass, ahead of their fuse into a
    /// [`MaskedSketch`](crate::MaskedSketch).
    pub(crate) per_trial: JemSketch,
    /// The fuse's open-addressing index of distinct codes.
    pub(crate) fuse: Vec<u32>,
}

impl SketchScratch {
    /// Fresh, empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The position list of the last sequence sketched through this
    /// scratch from its bytes (the list-based entry points leave it
    /// alone).
    pub fn minimizers(&self) -> &[Minimizer] {
        &self.mins
    }
}

/// The selection buffers: the general kernel's interval geometry, flat
/// codes, per-trial hashes and monotone stack, and the end-segment pass's
/// per-trial running minima.
#[derive(Clone, Debug, Default)]
pub(crate) struct SelectScratch {
    ends: Vec<u32>,
    starts: Vec<u32>,
    /// Minimizer codes extracted into a flat array once per selection, so
    /// the per-trial hash kernel streams contiguous `u64`s instead of
    /// striding through 16-byte `Minimizer` structs.
    codes: Vec<u64>,
    /// Hash values: one trial over every code (general kernel) or every
    /// trial on one code (end-segment pass).
    pub(crate) hashes: Vec<u64>,
    stack: MonotoneStack,
    /// Running minimum per trial of the end-segment pass, by bare hash or
    /// by `(hash, code)`.
    pub(crate) best: Vec<u64>,
    pub(crate) best_wide: Vec<u128>,
}

/// Compute the JEM sketch of `seq` — efficient version of Algorithm 1.
///
/// ```
/// use jem_sketch::{sketch_by_jem, HashFamily, JemParams};
///
/// let params = JemParams::new(11, 10, 200).unwrap();
/// let family = HashFamily::generate(8, 42); // T = 8 trials
/// let seq: Vec<u8> = (0..2000).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
/// let sketch = sketch_by_jem(&seq, params, &family);
/// assert_eq!(sketch.trials(), 8);
/// assert!(!sketch.is_empty());
/// ```
pub fn sketch_by_jem(seq: &[u8], params: JemParams, family: &HashFamily) -> JemSketch {
    let mut scratch = SketchScratch::new();
    let mut out = JemSketch::default();
    sketch_by_jem_into(seq, params, family, &mut scratch, &mut out);
    out
}

/// Allocation-free variant of [`sketch_by_jem`]: reuses `scratch` and
/// overwrites `out` (clearing, not deallocating, its trial lists). Produces
/// byte-identical sketches to [`sketch_by_jem`] for every input.
pub fn sketch_by_jem_into(
    seq: &[u8],
    params: JemParams,
    family: &HashFamily,
    scratch: &mut SketchScratch,
    out: &mut JemSketch,
) {
    let SketchScratch {
        mins,
        winnow,
        select,
        ..
    } = scratch;
    minimizers_into(seq, params.minimizer_params(), winnow, mins);
    select_into(mins, params.ell, family, select, out);
}

/// Compute the JEM sketch from a precomputed minimizer list.
///
/// Exposed separately so the mapper can reuse the minimizer list when it
/// needs both the sketch and the list itself (e.g. the Mashmap baseline and
/// ablations share minimizer extraction).
pub fn sketch_minimizer_list(mins: &[Minimizer], ell: usize, family: &HashFamily) -> JemSketch {
    let mut scratch = SketchScratch::new();
    let mut out = JemSketch::default();
    sketch_minimizer_list_into(mins, ell, family, &mut scratch, &mut out);
    out
}

/// Allocation-free variant of [`sketch_minimizer_list`], reusing
/// `scratch`'s selection buffers (its minimizer buffer is untouched — the
/// list comes from the caller).
pub fn sketch_minimizer_list_into(
    mins: &[Minimizer],
    ell: usize,
    family: &HashFamily,
    scratch: &mut SketchScratch,
    out: &mut JemSketch,
) {
    select_into(mins, ell, family, &mut scratch.select, out);
}

/// The T-trial selection kernel (Algorithm 1's interval loop).
///
/// Produces, for each trial, exactly the set a sliding monotone deque would
/// emit, in `O(|mins| · T)`. The interval geometry is trial-independent, so
/// a two-pointer prepass computes it once: `ends[i]` is interval `i`'s
/// exclusive right edge and `starts[j]` the first interval containing
/// minimizer `j`. The trials then run **trial-major**: each trial's hash
/// values are evaluated lane-parallel over the flat `codes` array
/// ([`HashFamily::hash_codes_into`]) and the one L1-resident monotone
/// [`MonotoneStack`] then sweeps the precomputed `(hash, code)` pairs —
/// a next-smaller-element scan that emits only actual winners, with no
/// per-interval retire/emit loops at all.
pub(crate) fn select_into(
    mins: &[Minimizer],
    ell: usize,
    family: &HashFamily,
    scratch: &mut SelectScratch,
    out: &mut JemSketch,
) {
    let SelectScratch {
        ends,
        starts,
        codes,
        hashes,
        stack,
        ..
    } = scratch;
    let rec = jem_obs::recorder();
    let enabled = rec.enabled();
    let _span = enabled.then(|| jem_obs::Span::enter(rec, "sketch/select"));
    let t_count = family.len();
    out.reset(t_count);
    if mins.is_empty() || t_count == 0 {
        return;
    }

    // Two-pointer prepasses. `ends` is non-decreasing and every interval
    // contains its own left minimizer (ends[i] > i), so both scans are
    // linear and starts[j] <= j.
    ends.clear();
    ends.reserve(mins.len());
    let mut end = 0usize;
    for m in mins.iter() {
        let hi = u64::from(m.pos) + ell as u64;
        while end < mins.len() && u64::from(mins[end].pos) <= hi {
            end += 1;
        }
        ends.push(end as u32);
    }
    starts.clear();
    starts.reserve(mins.len());
    let mut i = 0u32;
    for j in 0..mins.len() as u32 {
        while ends[i as usize] <= j {
            i += 1;
        }
        starts.push(i);
    }
    stack.reset(mins.len());
    // Flatten the codes once: the per-trial hash kernel then streams
    // contiguous u64s instead of striding through 16-byte structs.
    codes.clear();
    codes.extend(mins.iter().map(|m| m.code));
    // Below the modulus, every trial hash is injective over the codes (see
    // [`MonotoneStack`]) and the stack can rank by bare u64 hashes.
    let hash_injective = codes.iter().all(|&c| c < crate::hash::MERSENNE_P61);
    // Raw emission is at most one code per (minimizer, trial): pre-size the
    // trial lists so the emit loop never regrows them.
    for list in out.per_trial.iter_mut() {
        list.reserve(mins.len());
    }

    for (t, list) in out.per_trial.iter_mut().enumerate() {
        family.hash_codes_into(t, codes, hashes);
        stack.run_trial(hashes, codes, ends, starts, hash_injective, list);
        list.sort_unstable();
        list.dedup();
    }
    if enabled {
        rec.add(
            "sketch.sketches_emitted",
            out.per_trial.iter().map(|l| l.len() as u64).sum(),
        );
    }
}

/// Direct transliteration of Algorithm 1 (quadratic; for tests).
pub fn sketch_by_jem_naive(seq: &[u8], params: JemParams, family: &HashFamily) -> JemSketch {
    let mins = crate::minimizer::minimizers(seq, params.minimizer_params());
    let mut per_trial: Vec<Vec<u64>> = vec![Vec::new(); family.len()];
    for (i, mi) in mins.iter().enumerate() {
        // M_i = {⟨k_j, p_j⟩ : p_i ≤ p_j ≤ p_i + ℓ}
        let hi = u64::from(mi.pos) + params.ell as u64;
        let interval: Vec<&Minimizer> = mins[i..]
            .iter()
            .take_while(|m| u64::from(m.pos) <= hi)
            .collect();
        for (t, h) in family.iter() {
            let best = interval
                .iter()
                .map(|m| (h.hash(m.code), m.code))
                .min()
                .expect("interval contains m_i");
            per_trial[t].push(best.1);
        }
    }
    for list in per_trial.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    JemSketch { per_trial }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::minimizers;

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
    fn params_validation() {
        assert!(JemParams::new(16, 100, 0).is_err());
        assert!(JemParams::new(0, 100, 1000).is_err());
        assert!(JemParams::new(16, 0, 1000).is_err());
        let p = JemParams::paper_default();
        assert_eq!((p.k, p.w, p.ell), (16, 100, 1000));
    }

    #[test]
    fn empty_input_empty_sketch() {
        let f = HashFamily::generate(8, 1);
        let s = sketch_by_jem(b"", JemParams::new(5, 4, 100).unwrap(), &f);
        assert!(s.is_empty());
        assert_eq!(s.trials(), 8);
    }

    #[test]
    fn matches_naive_small() {
        let f = HashFamily::generate(10, 42);
        for (n, k, w, ell) in [(200, 5, 4, 50), (500, 7, 10, 100), (300, 16, 8, 60)] {
            let seq = rng_seq(n, n as u64);
            let p = JemParams::new(k, w, ell).unwrap();
            assert_eq!(
                sketch_by_jem(&seq, p, &f),
                sketch_by_jem_naive(&seq, p, &f),
                "n={n} k={k} w={w} ell={ell}"
            );
        }
    }

    #[test]
    fn matches_naive_with_ambiguous() {
        let mut seq = rng_seq(400, 9);
        seq[100] = b'N';
        seq[101] = b'N';
        seq[250] = b'N';
        let f = HashFamily::generate(6, 5);
        let p = JemParams::new(5, 6, 80).unwrap();
        assert_eq!(sketch_by_jem(&seq, p, &f), sketch_by_jem_naive(&seq, p, &f));
    }

    #[test]
    fn scratch_reuse_is_byte_identical() {
        // One scratch + one output sketch carried across many disparate
        // inputs must reproduce the fresh-allocation path exactly — the
        // reuse contract every mapping loop depends on.
        let f = HashFamily::generate(9, 21);
        let mut scratch = SketchScratch::new();
        let mut out = JemSketch::default();
        for (n, k, w, ell) in [
            (700, 6, 5, 90),
            (40, 4, 8, 30), // short run, shrinking buffers
            (1500, 12, 9, 200),
            (0, 5, 4, 50), // empty input mid-stream
            (900, 16, 20, 400),
        ] {
            let seq = rng_seq(n, n as u64 + 3);
            let p = JemParams::new(k, w, ell).unwrap();
            sketch_by_jem_into(&seq, p, &f, &mut scratch, &mut out);
            assert_eq!(
                out,
                sketch_by_jem(&seq, p, &f),
                "n={n} k={k} w={w} ell={ell}"
            );
        }
    }

    #[test]
    fn list_into_matches_list_wrapper() {
        let f = HashFamily::generate(7, 2);
        let seq = rng_seq(2_000, 5);
        let mins = minimizers(&seq, MinimizerParams::new(9, 7).unwrap());
        let mut scratch = SketchScratch::new();
        let mut out = JemSketch::default();
        for ell in [40usize, 150, 1_000] {
            sketch_minimizer_list_into(&mins, ell, &f, &mut scratch, &mut out);
            assert_eq!(out, sketch_minimizer_list(&mins, ell, &f), "ell={ell}");
        }
    }

    #[test]
    fn single_minimizer_sequence() {
        // Short sequence → one minimizer → each trial sketches exactly it.
        let seq = b"ACGTGCA";
        let f = HashFamily::generate(5, 3);
        let p = JemParams::new(3, 100, 1000).unwrap();
        let s = sketch_by_jem(seq, p, &f);
        for t in 0..5 {
            assert_eq!(s.per_trial[t].len(), 1);
        }
        // All trials sketch the same sole minimizer.
        let m = minimizers(seq, p.minimizer_params());
        assert_eq!(m.len(), 1);
        assert!(s.per_trial.iter().all(|v| v == &vec![m[0].code]));
    }

    #[test]
    fn sketch_entries_are_minimizer_codes() {
        let seq = rng_seq(2000, 77);
        let p = JemParams::new(9, 12, 150).unwrap();
        let f = HashFamily::generate(8, 6);
        let codes: std::collections::HashSet<u64> = minimizers(&seq, p.minimizer_params())
            .iter()
            .map(|m| m.code)
            .collect();
        let s = sketch_by_jem(&seq, p, &f);
        for list in &s.per_trial {
            for c in list {
                assert!(
                    codes.contains(c),
                    "sketch code not a minimizer of the input"
                );
            }
        }
    }

    #[test]
    fn trial_lists_sorted_unique() {
        let seq = rng_seq(3000, 5);
        let s = sketch_by_jem(
            &seq,
            JemParams::new(8, 10, 200).unwrap(),
            &HashFamily::generate(4, 2),
        );
        for list in &s.per_trial {
            for w in list.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn sketch_smaller_than_minimizer_list() {
        // Interval sketching selects ~one code per interval; with long
        // intervals the per-trial sketch must be far smaller than |Mo|.
        let seq = rng_seq(20_000, 31);
        let p = JemParams::new(16, 20, 2000).unwrap();
        let f = HashFamily::generate(1, 8);
        let m = minimizers(&seq, p.minimizer_params()).len();
        let s = sketch_by_jem(&seq, p, &f);
        assert!(
            s.per_trial[0].len() * 4 < m,
            "sketch {} not much smaller than |Mo| = {m}",
            s.per_trial[0].len()
        );
    }

    #[test]
    fn shared_subsequence_produces_shared_sketches() {
        // A query that is a verbatim ℓ-window of the subject must share at
        // least one sketch with it on most trials (the basis of mapping).
        let subject = rng_seq(5000, 13);
        let query = subject[2000..3000].to_vec();
        let p = JemParams::new(11, 10, 1000).unwrap();
        let f = HashFamily::generate(16, 99);
        let ss = sketch_by_jem(&subject, p, &f);
        let qs = sketch_by_jem(&query, p, &f);
        let mut collisions = 0;
        for t in 0..16 {
            let sub: std::collections::HashSet<&u64> = ss.per_trial[t].iter().collect();
            if qs.per_trial[t].iter().any(|c| sub.contains(c)) {
                collisions += 1;
            }
        }
        assert!(
            collisions >= 12,
            "only {collisions}/16 trials collided for a verbatim window"
        );
    }
}
