//! The workspace's one parallel fan-out helper.
//!
//! Every parallel loop in the workspace has the same shape: split `0..n`
//! into contiguous parts, run one closure per part, and collect the
//! results in part order. [`ranges`] does the split, [`split_mut`] carves
//! output buffers along it, and [`map`] runs the parts — on scoped
//! threads when there are several, inline when there is one.
//!
//! Workers inherit the caller's open span path (and, while the profiler
//! samples, its mirrored stack), so a span opened inside a worker records
//! under the span that fanned out — `…/ml/score_features/ml/bstump_fit`,
//! not a fresh `ml/bstump_fit` root. While recording is disabled this
//! costs one relaxed atomic load per [`map`] call.
//!
//! Nothing here affects results: parts are contiguous and returned in
//! order, so any caller whose per-part work is independent gets the same
//! output for every worker count.

use std::ops::Range;

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism (1 if it cannot be queried).
fn workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Splits `0..n` into `min(k, n)` contiguous, in-order, non-empty ranges,
/// where `k = 0` means one per available core; part `s` of `k` is
/// `s*n/k .. (s+1)*n/k`. Empty when `n == 0`.
pub fn ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = workers(k).min(n);
    (0..k).map(|s| s * n / k..(s + 1) * n / k).collect()
}

/// Carves `data` into one consecutive chunk per part, `stride` elements per
/// index of each range (`stride` = row width for a row-major buffer).
///
/// # Panics
/// Panics if `data` is shorter than the parts cover.
pub fn split_mut<'a, T>(
    mut data: &'a mut [T],
    parts: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    parts
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(r.len() * stride);
            data = tail;
            head
        })
        .collect()
}

/// Runs `f` once per item and returns the results in item order: on one
/// scoped thread per item when there are several, inline when there is at
/// most one. Worker spans nest under the caller's open span path. A worker
/// panic re-raises on the caller with its original payload.
pub fn map<I, T, F>(items: impl IntoIterator<Item = I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let context = crate::span::Context::capture();
    let (f, context) = (&f, &context);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                scope.spawn(move || {
                    let _rooted = context.as_ref().map(crate::span::Context::enter);
                    f(item)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_in_order_without_empty_parts() {
        // (n, k) grid plus the DSLAM-sharding cases the simulator relied on.
        let mut cases: Vec<(usize, usize)> = vec![(10, 1), (10, 3), (2, 7), (0, 4)];
        for n in [0usize, 1, 5, 42, 100] {
            for k in [0usize, 1, 2, 7, 64] {
                cases.push((n, k));
            }
        }
        for (n, k) in cases {
            let parts = ranges(n, k);
            assert_eq!(parts.len(), workers(k).min(n), "n={n} k={k}");
            let mut next = 0;
            for r in &parts {
                assert_eq!(r.start, next, "contiguous, in order: n={n} k={k} {parts:?}");
                assert!(r.start < r.end, "non-empty: n={n} k={k} {parts:?}");
                next = r.end;
            }
            assert_eq!(next, n, "covers 0..{n} with k={k}: {parts:?}");
        }
        assert_eq!(ranges(10, 3), vec![0..3, 3..6, 6..10]);
        assert_eq!(ranges(2, 7), vec![0..1, 1..2], "more parts than items clamps");
        assert!(ranges(0, 4).is_empty());
    }

    #[test]
    fn each_part_lands_in_its_own_slot() {
        for k in [0usize, 1, 2, 7, 64] {
            let parts = ranges(42, k);
            let mut out = vec![0usize; 42 * 2];
            let chunks = split_mut(&mut out, &parts, 2);
            let sums = map(parts.iter().cloned().zip(chunks), |(r, chunk)| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = r.start * 2 + i;
                }
                r.sum::<usize>()
            });
            assert_eq!(out, (0..84).collect::<Vec<_>>(), "k={k}");
            let expected: Vec<usize> = parts.iter().map(|r| r.clone().sum()).collect();
            assert_eq!(sums, expected, "results in part order, k={k}");
        }
        assert!(map(Vec::<usize>::new(), |i| i).is_empty());
    }

    #[test]
    fn worker_panic_re_raises_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map(vec![0, 1, 2], |i| {
                if i == 1 {
                    panic!("worker {i} failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker's panic must propagate");
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert_eq!(msg, "worker 1 failed", "original payload");
    }
}
