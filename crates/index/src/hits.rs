//! Hit counting across trials — the paper's lazy-update strategy.
//!
//! For each query, Algorithm 2 counts on how many trials each subject
//! collided and reports the most frequent subject. Resetting an `n`-sized
//! counter array between queries would cost `O(n)` per query; the paper's
//! implementation note replaces that with an array `A[1..n]` of `(count,
//! query-id)` tuples updated lazily: a counter is implicitly zero whenever
//! its stored query id differs from the current query.
//!
//! Here a slot holds `(query id, trial mask)` instead of `(query id,
//! count)`: the probe kernel reports each collision as the set of trials it
//! covers, the slot ORs those sets together, and the mask's popcount is the
//! paper's count. OR is idempotent, so a subject colliding on one trial
//! through several codes still counts that trial once — the per-trial
//! deduplication the banked table needed a sort for.

use crate::runs::{mask_words, trial_count};
use crate::SubjectId;
use std::cmp::Ordering;

/// The ranking rule of every mapping driver: more trials first, then the
/// smaller subject id. The argmax, the top-x list, the anchor shortlist
/// and the router's merge all order `(subject, hits)` pairs by this.
pub fn rank_order(a: &(SubjectId, u32), b: &(SubjectId, u32)) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Common interface of the lazy and naive counters (ablation benchmarks
/// swap implementations through this trait).
pub trait HitCounter {
    /// Record that `subject` collided with query `query` on the trials set
    /// in `trials` (`⌈T/32⌉` mask words; bit `t % 32` of word `t / 32` is
    /// trial `t`). The set must not be empty.
    fn record(&mut self, query: u64, subject: SubjectId, trials: &[u32]);
    /// Current hit count of `subject` for query `query`: the number of
    /// distinct trials recorded.
    fn count(&self, query: u64, subject: SubjectId) -> u32;
    /// Best `(subject, count)` for `query` under [`rank_order`]. `None` if
    /// the query recorded no hits.
    fn best(&self, query: u64) -> Option<(SubjectId, u32)>;
}

/// Local instrumentation tallies of a [`LazyHitCounter`].
///
/// Plain (non-atomic) integers: the counter is single-threaded per worker,
/// so stats accumulate locally and the mapper flushes them to the global
/// recorder at batch boundaries — per-hit global counter traffic would
/// dominate the O(1) record path the lazy strategy exists to protect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Postings read from the sketch table — one per `(code, subject)`
    /// pair a probed code holds, whatever its trial mask. Updated by the
    /// probe kernel (the lookup happens outside this module), carried here
    /// so all per-batch tallies travel in one place.
    pub probed: u64,
    /// Records on a slot already owned by the current query — the cases
    /// where the lazy strategy skipped a reset and just merged trials.
    pub resets_skipped: u64,
    /// Records that lazily re-initialized a stale slot (mask restarted).
    pub lazy_resets: u64,
    /// Records whose new count tied the running best of a *different*
    /// subject — how often the best-subject decision was momentarily
    /// ambiguous.
    pub ties: u64,
}

impl HitStats {
    /// Take the accumulated stats, leaving zeros behind.
    pub fn take(&mut self) -> HitStats {
        std::mem::take(self)
    }

    /// Add `other`'s tallies into these (one flush for several counters).
    pub fn merge(&mut self, other: &HitStats) {
        self.probed += other.probed;
        self.resets_skipped += other.resets_skipped;
        self.lazy_resets += other.lazy_resets;
        self.ties += other.ties;
    }
}

/// The paper's lazy-update counter: `O(⌈T/32⌉)` per record, no per-query
/// reset.
#[derive(Clone, Debug)]
pub struct LazyHitCounter {
    /// Mask words per slot.
    words: usize,
    /// `v`: the query id each slot's mask belongs to.
    queries: Vec<u64>,
    /// `u`: each slot's trial mask, `words` words per subject.
    masks: Vec<u32>,
    /// Running best for the *current* query, maintained on the fly so
    /// `best` is O(1) (the paper scans bins; keeping the argmax incremental
    /// is equivalent, because counts only grow).
    current_query: u64,
    current_best: Option<(SubjectId, u32)>,
    /// Subjects the current query has touched, in first-hit order.
    touched: Vec<SubjectId>,
    /// Instrumentation tallies; see [`HitStats`].
    pub stats: HitStats,
}

/// Sentinel meaning "no query has touched this slot yet" (paper: v = −1).
const NO_QUERY: u64 = u64::MAX;

impl LazyHitCounter {
    /// Counter over `n` subjects and `trials` trials.
    pub fn new(n_subjects: usize, trials: usize) -> Self {
        let words = mask_words(trials);
        LazyHitCounter {
            words,
            queries: vec![NO_QUERY; n_subjects],
            masks: vec![0; n_subjects * words],
            current_query: NO_QUERY,
            current_best: None,
            touched: Vec::new(),
            stats: HitStats::default(),
        }
    }

    /// Number of subject slots.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if there are no subject slots.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Every subject `query` hit with its trial mask, in first-hit order.
    /// Empty unless `query` is the most recent query recorded.
    pub fn hits(&self, query: u64) -> impl Iterator<Item = (SubjectId, &[u32])> + '_ {
        let touched: &[SubjectId] = if query == self.current_query {
            &self.touched
        } else {
            &[]
        };
        touched.iter().map(|&s| (s, self.mask(s)))
    }

    /// Every subject `query` hit with its trial count, best first under
    /// [`rank_order`], into `out` (replacing its contents).
    pub fn ranked_into(&self, query: u64, out: &mut Vec<(SubjectId, u32)>) {
        out.clear();
        out.extend(self.hits(query).map(|(s, m)| (s, trial_count(m))));
        out.sort_unstable_by(rank_order);
    }

    fn mask(&self, subject: SubjectId) -> &[u32] {
        let s = subject as usize * self.words;
        &self.masks[s..s + self.words]
    }
}

impl HitCounter for LazyHitCounter {
    fn record(&mut self, query: u64, subject: SubjectId, trials: &[u32]) {
        debug_assert_ne!(query, NO_QUERY, "query id u64::MAX is reserved");
        debug_assert!(trials.iter().any(|&t| t != 0), "empty trial set");
        if query != self.current_query {
            self.current_query = query;
            self.current_best = None;
            self.touched.clear();
        }
        let s = subject as usize;
        let mask = &mut self.masks[s * self.words..(s + 1) * self.words];
        if self.queries[s] == query {
            self.stats.resets_skipped += 1;
        } else {
            // Lazy reset: overwrite the stale query id, restart the mask.
            self.queries[s] = query;
            mask.fill(0);
            self.touched.push(subject);
            self.stats.lazy_resets += 1;
        }
        for (m, &t) in mask.iter_mut().zip(trials) {
            *m |= t;
        }
        let hit = (subject, trial_count(mask));
        if matches!(self.current_best, Some((bs, bc)) if bc == hit.1 && bs != subject) {
            self.stats.ties += 1;
        }
        if self
            .current_best
            .is_none_or(|best| rank_order(&hit, &best) == Ordering::Less)
        {
            self.current_best = Some(hit);
        }
    }

    fn count(&self, query: u64, subject: SubjectId) -> u32 {
        if self.queries[subject as usize] == query {
            trial_count(self.mask(subject))
        } else {
            0
        }
    }

    fn best(&self, query: u64) -> Option<(SubjectId, u32)> {
        if query == self.current_query {
            self.current_best
        } else {
            None
        }
    }
}

/// Reference counter that eagerly resets between queries — `O(n)` per query
/// switch. Used to validate the lazy counter and as an ablation baseline.
#[derive(Clone, Debug)]
pub struct NaiveHitCounter {
    words: usize,
    masks: Vec<u32>,
    current_query: u64,
}

impl NaiveHitCounter {
    /// Counter over `n` subjects and `trials` trials.
    pub fn new(n_subjects: usize, trials: usize) -> Self {
        let words = mask_words(trials);
        NaiveHitCounter {
            words,
            masks: vec![0; n_subjects * words],
            current_query: NO_QUERY,
        }
    }
}

impl HitCounter for NaiveHitCounter {
    fn record(&mut self, query: u64, subject: SubjectId, trials: &[u32]) {
        if query != self.current_query {
            self.masks.fill(0);
            self.current_query = query;
        }
        let s = subject as usize * self.words;
        for (m, &t) in self.masks[s..s + self.words].iter_mut().zip(trials) {
            *m |= t;
        }
    }

    fn count(&self, query: u64, subject: SubjectId) -> u32 {
        if query == self.current_query {
            let s = subject as usize * self.words;
            trial_count(&self.masks[s..s + self.words])
        } else {
            0
        }
    }

    fn best(&self, query: u64) -> Option<(SubjectId, u32)> {
        if query != self.current_query || self.words == 0 {
            return None;
        }
        self.masks
            .chunks(self.words)
            .enumerate()
            .map(|(s, m)| (s as SubjectId, trial_count(m)))
            .filter(|&(_, c)| c > 0)
            .min_by(rank_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-trial mask.
    fn trial(t: usize) -> Vec<u32> {
        let mut m = vec![0u32; mask_words(64)];
        m[t / 32] |= 1 << (t % 32);
        m
    }

    #[test]
    fn single_query_counting() {
        let mut c = LazyHitCounter::new(10, 64);
        c.record(0, 3, &trial(0));
        c.record(0, 3, &trial(40));
        c.record(0, 7, &trial(1));
        assert_eq!(c.count(0, 3), 2);
        assert_eq!(c.count(0, 7), 1);
        assert_eq!(c.count(0, 5), 0);
        assert_eq!(c.best(0), Some((3, 2)));
        let hits: Vec<SubjectId> = c.hits(0).map(|(s, _)| s).collect();
        assert_eq!(hits, vec![3, 7]);
    }

    #[test]
    fn a_trial_counts_once_however_often_it_is_recorded() {
        let mut c = LazyHitCounter::new(4, 64);
        c.record(0, 2, &trial(33));
        c.record(0, 2, &trial(33));
        let mut both = trial(33);
        both[0] |= 1;
        c.record(0, 2, &both);
        assert_eq!(c.count(0, 2), 2);
        assert_eq!(c.best(0), Some((2, 2)));
    }

    #[test]
    fn lazy_reset_between_queries() {
        let mut c = LazyHitCounter::new(4, 8);
        c.record(0, 1, &[1]);
        c.record(0, 1, &[2]);
        c.record(1, 1, &[1]); // new query: mask restarts without any reset pass
        assert_eq!(c.count(1, 1), 1);
        assert_eq!(c.count(0, 1), 0, "stale query must read as zero");
        assert_eq!(c.best(1), Some((1, 1)));
        assert_eq!(c.best(0), None, "best of a past query is unavailable");
        assert_eq!(c.hits(0).count(), 0);
    }

    #[test]
    fn tie_breaks_to_smaller_subject() {
        for counter in [
            &mut LazyHitCounter::new(8, 8) as &mut dyn HitCounter,
            &mut NaiveHitCounter::new(8, 8) as &mut dyn HitCounter,
        ] {
            counter.record(5, 6, &[1]);
            counter.record(5, 2, &[1]);
            counter.record(5, 6, &[2]);
            counter.record(5, 2, &[2]);
            assert_eq!(counter.best(5), Some((2, 2)));
        }
    }

    #[test]
    fn rank_order_is_more_trials_then_smaller_id() {
        let mut hits = vec![(4, 2), (1, 2), (9, 5), (0, 1)];
        hits.sort_by(rank_order);
        assert_eq!(hits, vec![(9, 5), (1, 2), (4, 2), (0, 1)]);
    }

    #[test]
    fn lazy_equals_naive_on_random_stream() {
        let n = 50;
        let mut lazy = LazyHitCounter::new(n, 64);
        let mut naive = NaiveHitCounter::new(n, 64);
        let mut state = 0xDEADBEEFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for q in 0..200u64 {
            let hits = 1 + (q % 17) as usize;
            // Queries are processed one by one (paper: "queries in Qlocal
            // are processed one by one"), so interleave within one query only.
            for _ in 0..hits {
                let s = (next() % n as u64) as SubjectId;
                let m = next();
                let mask = [m as u32 & 0x0101_0101 | 1, (m >> 32) as u32 & 0x1010_1010];
                lazy.record(q, s, &mask);
                naive.record(q, s, &mask);
            }
            assert_eq!(lazy.best(q), naive.best(q), "query {q}");
            for s in 0..n as SubjectId {
                assert_eq!(lazy.count(q, s), naive.count(q, s), "query {q} subject {s}");
            }
        }
    }

    #[test]
    fn no_hits_no_best() {
        let c = LazyHitCounter::new(3, 30);
        assert_eq!(c.best(0), None);
        let n = NaiveHitCounter::new(3, 30);
        assert_eq!(n.best(0), None);
    }

    #[test]
    fn reuse_after_many_queries_stays_consistent() {
        // Slot reuse across many queries must never leak trials.
        let mut c = LazyHitCounter::new(2, 30);
        for q in 0..1000u64 {
            c.record(q, (q % 2) as SubjectId, &[1 << (q % 30)]);
            assert_eq!(c.count(q, (q % 2) as SubjectId), 1);
            assert_eq!(c.count(q, ((q + 1) % 2) as SubjectId), 0);
        }
    }
}
