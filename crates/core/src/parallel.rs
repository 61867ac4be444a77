//! The shared-memory segment-batch driver.
//!
//! The calling thread feeds batches of at most [`BATCH_SEGMENTS`] segments
//! — borrowed from a slice, or parsed from a FASTA/FASTQ stream
//! ([`crate::SegmentBatches`]) — into one bounded queue, and `workers` std
//! threads pull them, so a worker that draws cheap segments simply claims
//! more batches: the load balances itself without a static split and
//! without a work-stealing pool. The queue holds at most two batches per
//! worker ([`queue_bound`]), so a parsed input is held only in flight,
//! never whole. Each worker keeps one private state
//! for its whole run — for mapping, a lazy hit counter and a
//! [`MapScratch`] (the counter is per-query state, so sharing one would
//! serialize everything). Output order is normalized to [`Mapping`]'s
//! total order, so results are identical to the sequential driver for
//! every worker count and every way of feeding.

use crate::mapper::{CodeFilter, JemMapper, MapScratch, Mapping};
use crate::segment::QuerySegment;
use jem_index::HitStats;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Segments per batch: small enough that the last batches even out the
/// workers' finishing times, large enough that the queue is touched only
/// every few milliseconds.
pub const BATCH_SEGMENTS: usize = 64;

/// Batches the queue holds per worker: enough that a worker finishing a
/// batch finds the next one waiting while the feeder parses, and few
/// enough that what is in flight stays a few hundred segments.
const QUEUED_BATCHES_PER_WORKER: usize = 2;

/// Worker count when the caller names none: one per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The most batches [`run_batches`]' queue holds at once on `workers`
/// workers: the high-water mark `map.queue_depth` can reach.
pub fn queue_bound(workers: usize) -> usize {
    QUEUED_BATCHES_PER_WORKER * workers.max(1)
}

/// `segments` as borrowed batches of [`BATCH_SEGMENTS`]: the feed of every
/// caller that holds its segments already.
pub fn slice_batches(
    segments: &[QuerySegment],
) -> impl Iterator<Item = Result<&[QuerySegment], Infallible>> {
    segments.chunks(BATCH_SEGMENTS).map(Ok)
}

/// A batch in the queue: its first segment's ordinal in the feed, and
/// the segments.
type Batch<'a> = (usize, Cow<'a, [QuerySegment]>);

#[derive(Default)]
struct QueueState<'a> {
    batches: VecDeque<Batch<'a>>,
    /// The feed has ended: once `batches` drains, workers finish.
    closed: bool,
    /// Work is abandoned (a feed error or a panicking thread): workers
    /// finish at once and the feeder stops.
    stopped: bool,
}

/// The bounded queue between the feeding thread and the workers.
struct BatchQueue<'a> {
    state: Mutex<QueueState<'a>>,
    /// Signalled when a batch arrives or the feed ends.
    filled: Condvar,
    /// Signalled when a batch leaves or the work stops.
    drained: Condvar,
    bound: usize,
}

impl<'a> BatchQueue<'a> {
    fn new(bound: usize) -> Self {
        BatchQueue {
            state: Mutex::default(),
            filled: Condvar::new(),
            drained: Condvar::new(),
            bound,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<'a>> {
        // A panic never leaves the state half-updated; `close` must still
        // run in the guards of a panicking thread.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `batch`, waiting while the queue is full; adds the time
    /// waited to `full_ns`. Returns `false` once the work is stopped.
    fn push(&self, batch: Batch<'a>, full_ns: &mut Option<u64>) -> bool {
        let mut state = self.lock();
        if state.batches.len() >= self.bound && !state.stopped {
            let start = full_ns.is_some().then(Instant::now);
            while state.batches.len() >= self.bound && !state.stopped {
                state = self.drained.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            add_elapsed(full_ns, start);
        }
        if state.stopped {
            return false;
        }
        state.batches.push_back(batch);
        self.filled.notify_one();
        true
    }

    /// The next batch with the queue depth found on arrival, waiting while
    /// the queue is empty and the feed open; adds the time waited to
    /// `wait_ns`. `None` once the feed has ended and drained, or the work
    /// is stopped.
    fn pull(&self, wait_ns: &mut Option<u64>) -> Option<(Batch<'a>, usize)> {
        let mut state = self.lock();
        if state.batches.is_empty() && !state.closed && !state.stopped {
            let start = wait_ns.is_some().then(Instant::now);
            while state.batches.is_empty() && !state.closed && !state.stopped {
                state = self.filled.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            add_elapsed(wait_ns, start);
        }
        if state.stopped {
            return None;
        }
        let depth = state.batches.len();
        let batch = state.batches.pop_front()?;
        self.drained.notify_one();
        Some((batch, depth))
    }

    /// End the feed; with `stop`, also drop what is queued and let every
    /// thread finish at once. Idempotent.
    fn close(&self, stop: bool) {
        let mut state = self.lock();
        state.closed = true;
        if stop {
            state.stopped = true;
            state.batches.clear();
        }
        self.filled.notify_all();
        self.drained.notify_all();
    }
}

/// Stops the work when its thread unwinds, so no other thread waits
/// forever on a dead peer: neither the feeder on a full queue nor the
/// workers on an empty, open one.
struct StopOnPanic<'q, 'a>(&'q BatchQueue<'a>);

impl Drop for StopOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close(true);
        }
    }
}

fn add_elapsed(total: &mut Option<u64>, start: Option<Instant>) {
    if let (Some(total), Some(start)) = (total, start) {
        *total += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// What one worker brings back: its state, busy and waiting time (when
/// timed) and the segments it took.
struct WorkerResult<S> {
    state: S,
    busy_ns: Option<u64>,
    wait_ns: Option<u64>,
    done: usize,
}

/// Run `work` over the segment batches `batches` yields, on `workers`
/// threads fed through one bounded queue ([`queue_bound`] batches), and
/// return each worker's state. The calling thread drains `batches` (for a
/// parsed input, that is the parse) while the workers map.
/// `work(state, first, batch)` gets the batch's first segment's ordinal in
/// the whole feed beside it, so per-segment ids stay unique across
/// batches. When `batches`' size hint bounds its length, no more workers
/// start than there are batches.
///
/// The first `Err` the feed yields stops the run: queued batches are
/// dropped, the workers finish the batch in hand, and the error is
/// returned.
///
/// Records the `map/parallel` span and, per worker, its busy time
/// (`map.chunk_ns`, waiting excluded) and segment count
/// (`map.chunk_segments`), plus `map.imbalance_permille` — the slowest
/// worker over the mean, ×1000 — the queue depth each pull found
/// (`map.queue_depth`), and the time workers waited on an empty queue
/// (`map.ingest_wait_ns`) and the feeder on a full one
/// (`map.ingest_full_ns`).
pub fn run_batches<'a, B, E, S: Send>(
    batches: impl IntoIterator<Item = Result<B, E>>,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &[QuerySegment]) + Sync,
) -> Result<Vec<S>, E>
where
    B: Into<Cow<'a, [QuerySegment]>>,
{
    let rec = jem_obs::recorder();
    let _span = jem_obs::Span::enter(rec, "map/parallel");
    let batches = batches.into_iter();
    let most = batches.size_hint().1.unwrap_or(usize::MAX);
    let workers = workers.clamp(1, most.max(1));
    let queue = BatchQueue::new(queue_bound(workers));
    let timed = rec.enabled();
    let worker = || {
        let _stop = StopOnPanic(&queue);
        let start = timed.then(Instant::now);
        let mut wait_ns = timed.then_some(0);
        let mut state = init();
        let mut done = 0usize;
        while let Some(((first, batch), depth)) = queue.pull(&mut wait_ns) {
            if timed {
                rec.observe("map.queue_depth", depth as u64);
            }
            work(&mut state, first, &batch);
            done += batch.len();
        }
        let elapsed = start.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        WorkerResult {
            state,
            busy_ns: elapsed.map(|ns| ns.saturating_sub(wait_ns.unwrap_or(0))),
            wait_ns,
            done,
        }
    };
    let (fed, results) = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let fed = {
            let _stop = StopOnPanic(&queue);
            let mut full_ns = timed.then_some(0);
            let mut first = 0usize;
            let mut fed = Ok(());
            for batch in batches {
                let batch = match batch {
                    Ok(batch) => batch.into(),
                    Err(e) => {
                        fed = Err(e);
                        break;
                    }
                };
                let len = batch.len();
                if !queue.push((first, batch), &mut full_ns) {
                    break;
                }
                first += len;
            }
            queue.close(fed.is_err());
            if let Some(ns) = full_ns {
                rec.add("map.ingest_full_ns", ns);
            }
            fed
        };
        let results: Vec<WorkerResult<S>> = spawned
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect();
        (fed, results)
    });
    fed?;
    if timed {
        let times: Vec<u64> = results.iter().filter_map(|r| r.busy_ns).collect();
        for r in &results {
            rec.observe("map.chunk_ns", r.busy_ns.unwrap_or(0));
            rec.observe("map.chunk_segments", r.done as u64);
            rec.add("map.ingest_wait_ns", r.wait_ns.unwrap_or(0));
        }
        let max = times.iter().copied().max().unwrap_or(0);
        let mean = times.iter().sum::<u64>() / times.len().max(1) as u64;
        rec.observe(
            "map.imbalance_permille",
            (max * 1000).checked_div(mean).unwrap_or(1000),
        );
    }
    Ok(results.into_iter().map(|r| r.state).collect())
}

/// Map the segments `batches` yields on `workers` threads (see
/// [`run_batches`]): exactly the sequential driver's result set, sorted,
/// or the feed's first error.
pub fn map_batches_parallel<'a, B, E>(
    mapper: &JemMapper,
    batches: impl IntoIterator<Item = Result<B, E>>,
    workers: usize,
) -> Result<Vec<Mapping>, E>
where
    B: Into<Cow<'a, [QuerySegment]>>,
{
    let parts = run_batches(
        batches,
        workers,
        || (mapper.new_counter(), MapScratch::new(), Vec::new(), 0usize),
        |(counter, scratch, out, seen), first, batch| {
            mapper.map_batch(
                batch,
                first as u64,
                &CodeFilter::all(),
                counter,
                scratch,
                out,
            );
            *seen += batch.len();
        },
    )?;
    let mut stats = HitStats::default();
    let mut mappings = Vec::new();
    let mut segments = 0;
    for (counter, _, out, seen) in parts {
        stats.merge(&counter.stats);
        mappings.extend(out);
        segments += seen;
    }
    JemMapper::flush_map_metrics(&stats, segments, mappings.len());
    // Total order (see `Mapping`'s Ord doc): deterministic output without
    // relying on per-driver (read_idx, end) uniqueness.
    mappings.sort_unstable();
    Ok(mappings)
}

/// Map prepared segments on `workers` threads ([`map_batches_parallel`]
/// over [`slice_batches`]). Produces exactly the sequential driver's
/// result set, sorted.
pub fn map_segments_parallel(
    mapper: &JemMapper,
    segments: &[QuerySegment],
    workers: usize,
) -> Vec<Mapping> {
    let Ok(mappings) = map_batches_parallel(mapper, slice_batches(segments), workers);
    mappings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapperConfig;

    fn numbered(n: u32) -> Vec<QuerySegment> {
        (0..n)
            .map(|i| QuerySegment {
                read_idx: i,
                end: crate::ReadEnd::Prefix,
                seq: Vec::new(),
            })
            .collect()
    }

    /// Each worker's segments, checking that `first` names each batch's
    /// place in the feed.
    fn visit<'a, B: Into<Cow<'a, [QuerySegment]>>>(
        batches: impl IntoIterator<Item = Result<B, &'static str>>,
        workers: usize,
    ) -> Result<Vec<Vec<u32>>, &'static str> {
        run_batches(batches, workers, Vec::new, |seen, first, batch| {
            for (i, seg) in batch.iter().enumerate() {
                assert_eq!(seg.read_idx as usize, first + i, "offset names the batch");
                seen.push(seg.read_idx);
            }
        })
    }

    #[test]
    fn every_segment_is_visited_once_with_its_offset() {
        let segments = numbered(1000);
        for workers in [1, 2, 3, 16, 100] {
            let parts = visit(segments.chunks(BATCH_SEGMENTS).map(Ok), workers).unwrap();
            assert!(parts.len() <= workers.min(1000usize.div_ceil(BATCH_SEGMENTS)));
            let mut seen: Vec<u32> = parts.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..1000).collect::<Vec<_>>(), "workers = {workers}");
        }
        let Ok(parts) = run_batches(slice_batches(&[]), 4, || 0u8, |_, _, _| {});
        assert_eq!(parts, vec![0u8]);
    }

    #[test]
    fn owned_batches_of_any_size_keep_global_ordinals() {
        // A feed with no size hint starts every worker; ragged batches
        // still number their segments by their place in the whole feed.
        let segments = numbered(500);
        let sizes = [1, 64, 7, 0, 100, 3];
        for workers in [1, 3, 8] {
            let mut at = 0;
            let batches = sizes.iter().cycle().map_while(|&n| {
                let end = (at + n).min(segments.len());
                let batch = segments[at..end].to_vec();
                at = end;
                (!batch.is_empty() || end < segments.len()).then_some(Ok(batch))
            });
            let parts = visit(batches, workers).unwrap();
            assert_eq!(parts.len(), workers);
            let mut seen: Vec<u32> = parts.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..500).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn a_feed_error_stops_the_run_and_is_returned() {
        let segments = numbered(10 * BATCH_SEGMENTS as u32);
        for workers in [1, 2, 5] {
            let batches = segments.chunks(BATCH_SEGMENTS).enumerate().map(|(i, c)| {
                if i == 7 {
                    Err("bad record")
                } else {
                    Ok(c)
                }
            });
            assert_eq!(visit(batches, workers), Err("bad record"));
        }
        // An error before any batch starts no mapping at all.
        let nothing = std::iter::once(Err::<&[QuerySegment], _>("unreadable"));
        assert_eq!(visit(nothing, 3), Err("unreadable"));
    }

    #[test]
    fn a_panicking_worker_cannot_strand_the_feeder() {
        // The feed is far longer than the queue: if the dead worker left
        // the feeder blocked on a full queue, this would hang.
        let segments = numbered(200 * BATCH_SEGMENTS as u32);
        let result = std::panic::catch_unwind(|| {
            run_batches(
                slice_batches(&segments),
                1,
                || (),
                |_, first, _| {
                    assert!(first < 3 * BATCH_SEGMENTS, "worker gives up");
                },
            )
        });
        assert!(result.is_err(), "the worker's panic propagates");
    }

    #[test]
    fn queue_bound_is_two_batches_per_worker() {
        assert_eq!(queue_bound(1), 2);
        assert_eq!(queue_bound(4), 8);
        assert_eq!(queue_bound(0), 2, "no workers still runs one");
    }

    #[test]
    fn empty_read_set() {
        let config = MapperConfig {
            k: 8,
            w: 4,
            trials: 4,
            ell: 100,
            seed: 1,
        };
        let mapper = JemMapper::build(&[], &config);
        assert!(map_segments_parallel(&mapper, &[], 4).is_empty());
    }
}
