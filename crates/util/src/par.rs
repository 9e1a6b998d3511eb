//! The workspace's one data-parallel primitive: split `0..len` into
//! contiguous ranges, run each on a scoped worker, and join the results
//! in range order.
//!
//! Every range-sharded pass — the index build's level fan-outs, the
//! survey engine, lint and the figure sweep — goes through
//! [`map_ranges`], and every default worker count comes from
//! [`threads`], the only place the machine's core count is read. Because
//! the ranges are contiguous and joined in order, a caller that
//! concatenates the results sees the serial order at every thread count.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Worker threads for a pass: `requested` if given, else the available
/// parallelism (4 when unknown), clamped to `1..=16`.
pub fn threads(requested: Option<NonZeroUsize>) -> usize {
    requested
        .map(NonZeroUsize::get)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(4)
        })
        .clamp(1, 16)
}

/// Splits `0..len` into at most `threads` contiguous ranges of equal
/// length (the last may be shorter), runs `work` on each, and returns
/// the results in range order.
///
/// An empty input gives no ranges. A single range runs on the caller's
/// thread; otherwise every range gets its own scoped worker. A worker's
/// panic reaches the caller with its own payload.
pub fn map_ranges<T: Send>(
    len: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let chunk = len.div_ceil(threads.max(1)).max(1);
    let ranges = (0..len)
        .step_by(chunk)
        .map(|start| start..len.min(start + chunk));
    if len <= chunk {
        return ranges.map(&work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_the_input_in_order() {
        for len in [0usize, 1, 5, 16, 17] {
            for threads in [1usize, 2, 3, 8, 32] {
                let ranges = map_ranges(len, threads, |range| range);
                assert!(ranges.len() <= threads, "len {len}, threads {threads}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let covered: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(covered, (0..len).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_single_range_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (len, threads) in [(1, 8), (5, 1), (16, 1)] {
            let ids = map_ranges(len, threads, |_| std::thread::current().id());
            assert_eq!(ids, vec![caller]);
        }
        let ids = map_ranges(16, 4, |_| std::thread::current().id());
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn explicit_thread_counts_are_clamped() {
        assert_eq!(threads(NonZeroUsize::new(1)), 1);
        assert_eq!(threads(NonZeroUsize::new(7)), 7);
        assert_eq!(threads(NonZeroUsize::new(64)), 16);
        assert!((1..=16).contains(&threads(None)));
    }

    #[test]
    #[should_panic(expected = "range 2..3 failed")]
    fn a_worker_panic_keeps_its_message() {
        map_ranges(4, 4, |range| {
            if range.start == 2 {
                panic!("range {range:?} failed");
            }
        });
    }
}
