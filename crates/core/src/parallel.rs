//! The shared-memory segment-batch driver.
//!
//! `workers` std threads pull fixed-size batches of [`BATCH_SEGMENTS`]
//! segments from one atomic cursor, so a worker that draws cheap segments
//! simply claims more batches: the load balances itself without a static
//! split and without a work-stealing pool. Each worker keeps one private
//! state for its whole run — for mapping, a lazy hit counter and a
//! [`MapScratch`] (the counter is per-query state, so sharing one would
//! serialize everything). Output order is normalized to [`Mapping`]'s
//! total order, so results are identical to the sequential driver for
//! every worker count.

use crate::mapper::{CodeFilter, JemMapper, MapScratch, Mapping};
use crate::segment::QuerySegment;
use jem_index::HitStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Segments a worker claims per pull from the shared cursor: small enough
/// that the last batches even out the workers' finishing times, large
/// enough that the cursor is touched only every few milliseconds.
pub const BATCH_SEGMENTS: usize = 64;

/// Worker count when the caller names none: one per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `work` over `segments` in [`BATCH_SEGMENTS`]-sized batches on
/// `workers` threads (the calling thread is one of them), and return each
/// worker's state. `work(state, first, batch)` gets the batch's offset in
/// `segments` beside it, so per-segment ids stay unique across batches.
///
/// Records the `map/parallel` span and, per worker, its busy time
/// (`map.chunk_ns`) and segment count (`map.chunk_segments`), plus
/// `map.imbalance_permille` — the slowest worker over the mean, ×1000.
pub fn run_batches<S: Send>(
    segments: &[QuerySegment],
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &[QuerySegment]) + Sync,
) -> Vec<S> {
    let rec = jem_obs::recorder();
    let _span = jem_obs::Span::enter(rec, "map/parallel");
    let batches = segments.len().div_ceil(BATCH_SEGMENTS);
    let workers = workers.clamp(1, batches.max(1));
    // Relaxed suffices: the cursor only hands out distinct batch numbers.
    // The segments are shared read-only, and each worker's state comes
    // back through the scope's join.
    let cursor = AtomicUsize::new(0);
    let timed = rec.enabled();
    let worker = || {
        let start = timed.then(Instant::now);
        let mut state = init();
        let mut done = 0usize;
        loop {
            let batch = cursor.fetch_add(1, Ordering::Relaxed);
            if batch >= batches {
                break;
            }
            let first = batch * BATCH_SEGMENTS;
            let segs = &segments[first..(first + BATCH_SEGMENTS).min(segments.len())];
            work(&mut state, first, segs);
            done += segs.len();
        }
        let ns = start.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        (state, ns, done)
    };
    let results = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut results = vec![worker()];
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        results
    });
    if timed {
        let times: Vec<u64> = results.iter().filter_map(|r| r.1).collect();
        for (_, ns, done) in &results {
            rec.observe("map.chunk_ns", ns.unwrap_or(0));
            rec.observe("map.chunk_segments", *done as u64);
        }
        let max = times.iter().copied().max().unwrap_or(0);
        let mean = times.iter().sum::<u64>() / times.len().max(1) as u64;
        rec.observe(
            "map.imbalance_permille",
            (max * 1000).checked_div(mean).unwrap_or(1000),
        );
    }
    results.into_iter().map(|r| r.0).collect()
}

/// Map prepared segments on `workers` threads (see [`run_batches`]).
/// Produces exactly the sequential driver's result set, sorted.
pub fn map_segments_parallel(
    mapper: &JemMapper,
    segments: &[QuerySegment],
    workers: usize,
) -> Vec<Mapping> {
    let parts = run_batches(
        segments,
        workers,
        || (mapper.new_counter(), MapScratch::new(), Vec::new()),
        |(counter, scratch, out), first, batch| {
            mapper.map_batch(
                batch,
                first as u64,
                &CodeFilter::all(),
                counter,
                scratch,
                out,
            )
        },
    );
    let mut stats = HitStats::default();
    let mut mappings = Vec::new();
    for (counter, _, out) in parts {
        stats.merge(&counter.stats);
        mappings.extend(out);
    }
    JemMapper::flush_map_metrics(&stats, segments.len(), mappings.len());
    // Total order (see `Mapping`'s Ord doc): deterministic output without
    // relying on per-driver (read_idx, end) uniqueness.
    mappings.sort_unstable();
    mappings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapperConfig;

    #[test]
    fn every_segment_is_visited_once_with_its_offset() {
        let segments: Vec<QuerySegment> = (0..1000u32)
            .map(|i| QuerySegment {
                read_idx: i,
                end: crate::ReadEnd::Prefix,
                seq: Vec::new(),
            })
            .collect();
        for workers in [1, 2, 3, 16, 100] {
            let parts = run_batches(&segments, workers, Vec::new, |seen, first, batch| {
                for (i, seg) in batch.iter().enumerate() {
                    assert_eq!(seg.read_idx as usize, first + i, "offset names the batch");
                    seen.push(seg.read_idx);
                }
            });
            assert!(parts.len() <= workers.min(1000usize.div_ceil(BATCH_SEGMENTS)));
            let mut seen: Vec<u32> = parts.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..1000).collect::<Vec<_>>(), "workers = {workers}");
        }
        assert_eq!(run_batches(&[], 4, || 0u8, |_, _, _| {}), vec![0u8]);
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
