//! The LCG hash family `h_t(x) = (A_t·x + B_t) mod P_t`.
//!
//! The paper (implementation notes, §III-B-2) generates the `T` trial hash
//! functions as linear congruential transforms of the canonical k-mer rank
//! `x`, with constants `A_t`, `B_t`, `P_t` "randomly generated a priori".
//! We fix `P_t` to the Mersenne prime `2^61 − 1` (large enough for any
//! `k ≤ 30` rank universe, and `mod` reduces to cheap shift/add — see
//! [`reduce_p61`]) and draw `A_t ∈ [1, P)`, `B_t ∈ [0, P)` from a seeded
//! xorshift generator so the family is fully reproducible.
//!
//! The family stores its coefficients in two flat arrays (`A` and `B` side
//! by side), so both batched forms are linear passes over contiguous memory
//! with no division: one trial over a block of codes
//! ([`HashFamily::hash_codes_into`], the general selection kernel) and all
//! `T` trials on one code ([`HashFamily::hash_all_lanes`], the end-segment
//! pass).

/// The Mersenne prime `2^61 − 1` used as the default modulus.
pub const MERSENNE_P61: u64 = (1u64 << 61) - 1;

/// Lane width of the fixed-size chunks the batched hash kernels iterate in.
///
/// Eight `u64` lanes span two AVX2 registers (or four SSE2 ones); the chunk
/// loops are written over `[u64; LANES]` arrays with no early exits so LLVM
/// unrolls and autovectorizes them on stable Rust.
pub const LANES: usize = 8;

/// Fold a partial sum `s < 2^63` into `[0, P)` for `P = 2^61 − 1`.
///
/// `s >> 61` is at most 3, so one fold plus a single conditional subtract
/// (written branchless so it vectorizes as a compare/select) is exact.
#[inline(always)]
fn p61_fold_63(s: u64) -> u64 {
    let f = (s & MERSENNE_P61) + (s >> 61); // ≤ P + 2
    f - (MERSENNE_P61 & (u64::from(f >= MERSENNE_P61).wrapping_neg()))
}

/// Evaluate `(a·x + b) mod (2^61 − 1)` for `x < 2^32` without u128 products.
///
/// The multiplier splits as `a = a_hi·2^32 + a_lo` with `a_hi < 2^29` (since
/// `a < P < 2^61`), so both partial products fit `u64`:
/// `m1 = a_hi·x < 2^61`, `m0 = a_lo·x < 2^64`. Using `2^61 ≡ 1 (mod P)`:
///
/// ```text
/// a·x + b = m1·2^32 + m0 + b
///         ≡ (m1 >> 29) + ((m1 & (2^29−1)) << 32)   // m1·2^32, folded
///         + (m0 >> 61) + (m0 & P)                  // m0, folded
///         + b                               (mod P)
/// ```
///
/// Every summand is < 2^61, the total is < 2^63, and [`p61_fold_63`]
/// finishes the reduction — the mathematically identical residue to
/// [`reduce_p61`] of the u128 product, hence byte-identical sketches. All
/// operations are 32×32→64 multiplies, shifts, masks and adds, which is
/// precisely the set SSE2/AVX2 provide for 64-bit lanes.
#[inline(always)]
fn hash32_one(a: u64, b: u64, x: u64) -> u64 {
    debug_assert!(x <= u64::from(u32::MAX));
    let a_hi = a >> 32;
    let a_lo = a & 0xFFFF_FFFF;
    let m1 = a_hi * x;
    let m0 = a_lo * x;
    let s = (m1 >> 29) + ((m1 & ((1u64 << 29) - 1)) << 32) + (m0 >> 61) + (m0 & MERSENNE_P61) + b;
    p61_fold_63(s)
}

/// Scalar u128 evaluation for codes that may exceed 2^32 (`k > 16`).
#[inline(always)]
fn hash_wide_one(a: u64, b: u64, x: u64) -> u64 {
    reduce_p61(u128::from(a) * u128::from(x) + u128::from(b))
}

/// Reduce `v` modulo the Mersenne prime `P = 2^61 − 1` with shifts and adds.
///
/// Because `2^61 ≡ 1 (mod P)`, any `v = hi·2^61 + lo` satisfies
/// `v ≡ hi + lo (mod P)`; folding twice brings the value under `2^61 + 16`,
/// and one conditional subtract lands it in `[0, P)`. Exact for every
/// `v < 2^125`, which covers the largest product the family can form
/// (`(P−1)·u64::MAX + (P−1) < 2^125`).
#[inline]
pub fn reduce_p61(v: u128) -> u64 {
    const P: u64 = MERSENNE_P61;
    // First fold: (v & P) < 2^61 and (v >> 61) < 2^64, so the sum < 2^65.
    let folded = (v & u128::from(P)) + (v >> 61);
    // Second fold: now (folded >> 61) < 16, so the sum fits u64 easily.
    let folded = (folded as u64 & P) + (folded >> 61) as u64;
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// One trial over a block of codes: the portable lane loop.
///
/// Iterates `LANES`-wide fixed-size chunks; each chunk first checks (with a
/// branch-free OR-fold) that every code fits 32 bits — always true for
/// `k ≤ 16`, the paper's default — and takes the vectorizable 32-bit-split
/// path, falling back to scalar u128 arithmetic otherwise.
#[inline(always)]
fn hash_codes_kernel(a: u64, b: u64, codes: &[u64], out: &mut [u64]) {
    debug_assert_eq!(codes.len(), out.len());
    let mut xs_chunks = codes.chunks_exact(LANES);
    let mut out_chunks = out.chunks_exact_mut(LANES);
    for (xs, os) in (&mut xs_chunks).zip(&mut out_chunks) {
        let xs: &[u64; LANES] = xs.try_into().expect("exact chunk");
        let os: &mut [u64; LANES] = os.try_into().expect("exact chunk");
        let mut or_fold = 0u64;
        for &x in xs.iter() {
            or_fold |= x;
        }
        if or_fold >> 32 == 0 {
            for i in 0..LANES {
                os[i] = hash32_one(a, b, xs[i]);
            }
        } else {
            for i in 0..LANES {
                os[i] = hash_wide_one(a, b, xs[i]);
            }
        }
    }
    for (&x, o) in xs_chunks
        .remainder()
        .iter()
        .zip(out_chunks.into_remainder())
    {
        *o = hash_wide_one(a, b, x);
    }
}

/// All trials on one code: lanes run over the SoA coefficient arrays.
#[inline(always)]
fn hash_all_kernel(a: &[u64], b: &[u64], x: u64, out: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    let mut out_chunks = out.chunks_exact_mut(LANES);
    if x >> 32 == 0 {
        for ((aa, bb), os) in (&mut a_chunks).zip(&mut b_chunks).zip(&mut out_chunks) {
            let aa: &[u64; LANES] = aa.try_into().expect("exact chunk");
            let bb: &[u64; LANES] = bb.try_into().expect("exact chunk");
            let os: &mut [u64; LANES] = os.try_into().expect("exact chunk");
            for i in 0..LANES {
                os[i] = hash32_one(aa[i], bb[i], x);
            }
        }
    } else {
        for ((aa, bb), os) in (&mut a_chunks).zip(&mut b_chunks).zip(&mut out_chunks) {
            for i in 0..LANES {
                os[i] = hash_wide_one(aa[i], bb[i], x);
            }
        }
    }
    for ((&aa, &bb), o) in a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .zip(out_chunks.into_remainder())
    {
        *o = hash_wide_one(aa, bb, x);
    }
}

/// One linear-congruential hash function over `Z_P`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LcgHash {
    /// Multiplier `A_t ∈ [1, P)`.
    pub a: u64,
    /// Offset `B_t ∈ [0, P)`.
    pub b: u64,
    /// Prime modulus `P_t`.
    pub p: u64,
}

impl LcgHash {
    /// Construct a hash; panics on degenerate parameters.
    pub fn new(a: u64, b: u64, p: u64) -> Self {
        assert!(p > 1, "modulus must exceed 1");
        assert!(a >= 1 && a < p, "multiplier must lie in [1, P)");
        assert!(b < p, "offset must lie in [0, P)");
        LcgHash { a, b, p }
    }

    /// Evaluate `h(x) = (A·x + B) mod P` with 128-bit intermediates.
    ///
    /// The Mersenne modulus takes the shift/add fast path ([`reduce_p61`]);
    /// any other prime falls back to the generic 128-bit `%`. Both produce
    /// the mathematically identical residue.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let v = (self.a as u128) * (x as u128) + (self.b as u128);
        if self.p == MERSENNE_P61 {
            reduce_p61(v)
        } else {
            (v % (self.p as u128)) as u64
        }
    }
}

/// A family of `T` independent LCG hash functions (one per MinHash trial),
/// all over the Mersenne modulus `2^61 − 1`, with coefficients stored in
/// flat struct-of-arrays form for the batched evaluation path.
#[derive(Clone, Debug)]
pub struct HashFamily {
    a: Vec<u64>,
    b: Vec<u64>,
    seed: u64,
}

impl HashFamily {
    /// Generate `t` hash functions deterministically from `seed`.
    ///
    /// Uses a splitmix64/xorshift sequence, so identical `(t, seed)` pairs
    /// produce identical families across processes — required for the
    /// distributed driver, where every rank must sketch with the same family.
    pub fn generate(t: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || -> u64 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut a = Vec::with_capacity(t);
        let mut b = Vec::with_capacity(t);
        for _ in 0..t {
            a.push(1 + next() % (MERSENNE_P61 - 1));
            b.push(next() % MERSENNE_P61);
        }
        HashFamily { a, b, seed }
    }

    /// Number of trials `T`.
    #[inline]
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True if the family holds no hash functions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// The seed this family was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `t`-th hash function.
    #[inline]
    pub fn get(&self, t: usize) -> LcgHash {
        LcgHash {
            a: self.a[t],
            b: self.b[t],
            p: MERSENNE_P61,
        }
    }

    /// Iterate over all hash functions with their trial index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, LcgHash)> + '_ {
        (0..self.len()).map(|t| (t, self.get(t)))
    }

    /// Evaluate trial `t` on `x`.
    #[inline]
    pub fn hash(&self, t: usize, x: u64) -> u64 {
        reduce_p61((self.a[t] as u128) * (x as u128) + (self.b[t] as u128))
    }

    /// Lane-parallel evaluation of all `T` trials on one code: `out` is
    /// resized to `T` and `out[t]` receives `h_t(x)`.
    ///
    /// Sweeps the SoA `A`/`B` arrays in [`LANES`]-wide chunks; for
    /// `x < 2^32` (every `k ≤ 16` code) the inner step is a 32-bit-split
    /// reduction modulo `2^61 − 1`, which autovectorizes. Byte-identical
    /// to calling [`hash`](Self::hash) per trial on every input.
    #[inline]
    pub fn hash_all_lanes(&self, x: u64, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.a.len(), 0);
        hash_all_kernel(&self.a, &self.b, x, out);
    }

    /// Evaluate trial `t` on a whole block of codes: `out[i] = h_t(codes[i])`.
    ///
    /// The selection kernel's batched form — coefficients broadcast, lanes
    /// run across the code array. `out` is resized to `codes.len()`.
    /// Byte-identical to calling [`hash`](Self::hash) per code.
    #[inline]
    pub fn hash_codes_into(&self, t: usize, codes: &[u64], out: &mut Vec<u64>) {
        // Only adjust the length when it changes: across a trial-major loop
        // the buffer is already the right size, and the kernel overwrites
        // every slot, so a re-zeroing resize would be a wasted memset.
        if out.len() != codes.len() {
            out.clear();
            out.resize(codes.len(), 0);
        }
        hash_codes_kernel(self.a[t], self.b[t], codes, out);
    }

    /// Restrict to the first `t` trials (for trial-sweep experiments).
    pub fn truncated(&self, t: usize) -> HashFamily {
        assert!(
            t <= self.len(),
            "cannot truncate {} trials to {t}",
            self.len()
        );
        HashFamily {
            a: self.a[..t].to_vec(),
            b: self.b[..t].to_vec(),
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let f1 = HashFamily::generate(30, 42);
        let f2 = HashFamily::generate(30, 42);
        assert_eq!(f1.len(), 30);
        for t in 0..30 {
            assert_eq!(f1.get(t), f2.get(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let f1 = HashFamily::generate(10, 1);
        let f2 = HashFamily::generate(10, 2);
        assert!((0..10).any(|t| f1.get(t) != f2.get(t)));
    }

    #[test]
    fn trials_are_distinct() {
        let f = HashFamily::generate(100, 7);
        for t in 1..100 {
            assert_ne!(f.get(t - 1), f.get(t), "adjacent trials must differ");
        }
    }

    #[test]
    fn hash_respects_modulus() {
        let f = HashFamily::generate(5, 3);
        for t in 0..5 {
            for x in [0u64, 1, 17, u32::MAX as u64, (1 << 32) - 1] {
                assert!(f.hash(t, x) < MERSENNE_P61);
            }
        }
    }

    #[test]
    fn fast_reduction_matches_generic_modulo() {
        // reduce_p61 must equal the 128-bit `%` on every reachable product,
        // including the adversarial corners of both x and the coefficients.
        let p = MERSENNE_P61;
        let xs = [0u64, 1, p - 1, p, p + 1, u64::MAX];
        let coeffs = [1u64, 2, p / 2, p - 1];
        for &a in &coeffs {
            for &b in &[0u64, 1, p - 1] {
                for &x in &xs {
                    let v = (a as u128) * (x as u128) + (b as u128);
                    assert_eq!(reduce_p61(v), (v % (p as u128)) as u64, "a={a} b={b} x={x}");
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_generic_lcg() {
        // LcgHash::hash takes the shift/add path iff p is the Mersenne
        // prime; both paths must agree there.
        let h = LcgHash::new(123_456_789, 987_654_321, MERSENNE_P61);
        for x in [0u64, 1, 7, u32::MAX as u64, u64::MAX] {
            let v = (h.a as u128) * (x as u128) + (h.b as u128);
            assert_eq!(h.hash(x), (v % (h.p as u128)) as u64);
        }
    }

    #[test]
    fn non_mersenne_modulus_still_supported() {
        let h = LcgHash::new(5, 3, 97);
        assert_eq!(h.hash(10), 5 * 10 + 3);
        assert!(h.hash(u64::MAX) < 97);
    }

    #[test]
    fn split_path_matches_u128_reduction_on_corners() {
        // The 32-bit-split lane arithmetic must equal reduce_p61 of the full
        // u128 product for every x < 2^32, across adversarial coefficients.
        let p = MERSENNE_P61;
        let coeffs_a = [
            1u64,
            2,
            (1 << 29) - 1,
            1 << 29,
            (1 << 32) - 1,
            1 << 32,
            p / 2,
            p - 1,
        ];
        let coeffs_b = [0u64, 1, (1 << 32) - 1, p - 1];
        let xs = [0u64, 1, 2, 0xFFFF, 0xFFFF_FFFE, 0xFFFF_FFFF];
        for &a in &coeffs_a {
            for &b in &coeffs_b {
                for &x in &xs {
                    let expect = reduce_p61(u128::from(a) * u128::from(x) + u128::from(b));
                    assert_eq!(hash32_one(a, b, x), expect, "a={a} b={b} x={x}");
                }
            }
        }
    }

    #[test]
    fn hash_codes_into_matches_per_code() {
        let f = HashFamily::generate(30, 17);
        // Mixed block: small codes (k<=16), large codes (k>16), ragged tail.
        let mut codes: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> if i % 3 == 0 { 0 } else { 33 })
            .collect();
        codes.push(u64::MAX);
        codes.push(0);
        let mut out = Vec::new();
        for t in [0usize, 7, 29] {
            f.hash_codes_into(t, &codes, &mut out);
            assert_eq!(out.len(), codes.len());
            for (i, &x) in codes.iter().enumerate() {
                assert_eq!(out[i], f.hash(t, x), "t={t} i={i} x={x}");
            }
        }
        // Blocks shorter than one lane chunk go through the remainder path.
        f.hash_codes_into(0, &codes[..3], &mut out);
        assert_eq!(out.len(), 3);
        for (i, &x) in codes[..3].iter().enumerate() {
            assert_eq!(out[i], f.hash(0, x));
        }
        f.hash_codes_into(0, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hash_all_lanes_matches_per_trial() {
        // T = 30 exercises 3 full lane chunks + a remainder of 6.
        let f = HashFamily::generate(30, 23);
        let mut out = Vec::new();
        for x in [0u64, 1, 42, (1 << 32) - 1, 1 << 32, MERSENNE_P61, u64::MAX] {
            f.hash_all_lanes(x, &mut out);
            assert_eq!(out.len(), 30);
            for (t, &got) in out.iter().enumerate() {
                assert_eq!(got, f.hash(t, x), "trial {t} x={x}");
                assert_eq!(got, f.get(t).hash(x), "scalar path trial {t} x={x}");
            }
        }
    }

    #[test]
    fn hash_is_injective_like_on_small_domain() {
        // An LCG over a prime modulus is a bijection of Z_P, so distinct
        // 16-mer ranks (< 2^32 << P) never collide.
        let h = HashFamily::generate(1, 9);
        let mut seen = std::collections::HashSet::new();
        for x in 0u64..2000 {
            assert!(seen.insert(h.hash(0, x)), "collision at {x}");
        }
    }

    #[test]
    fn minwise_probability_approximates_uniform() {
        // Over an *unstructured* item set, each of n items should be the
        // minimum under a random trial with probability ~1/n. (A linear
        // family is only 2-universal, not min-wise independent: structured
        // sets such as arithmetic progressions measurably bias their extreme
        // elements. The paper's tool uses the same family; the sketches only
        // need approximate min-wise behaviour on k-mer-code sets, which are
        // unstructured in practice.)
        let n = 16usize;
        let trials = 4000;
        let f = HashFamily::generate(trials, 1234);
        // splitmix-style scrambled items
        let items: Vec<u64> = (0..n as u64)
            .map(|x| {
                let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            })
            .collect();
        let mut wins = vec![0usize; n];
        for t in 0..trials {
            let argmin = (0..n).min_by_key(|&i| f.hash(t, items[i])).unwrap();
            wins[argmin] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (x, &w) in wins.iter().enumerate() {
            let dev = (w as f64 - expect).abs() / expect;
            assert!(dev < 0.6, "item {x} won {w} times, expected ~{expect}");
        }
    }

    #[test]
    fn truncation_preserves_prefix() {
        let f = HashFamily::generate(30, 5);
        let g = f.truncated(10);
        assert_eq!(g.len(), 10);
        for t in 0..10 {
            assert_eq!(f.get(t), g.get(t));
        }
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn over_truncation_panics() {
        HashFamily::generate(5, 0).truncated(6);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn zero_multiplier_rejected() {
        LcgHash::new(0, 1, 97);
    }
}
