//! Scoped-thread data parallelism for the matrix-free kernels.
//!
//! The registry being unavailable offline, this module provides the small
//! slice-parallel toolkit the kernel engine needs (instead of `rayon`):
//!
//! * [`par_fill`] — split a mutable output slice into contiguous chunks and
//!   compute each chunk on its own thread (the backbone of the row/column
//!   gather kernels in [`crate::HybridPattern`]),
//! * [`par_map`] — order-preserving parallel map over a slice (the backbone
//!   of `hnd_response::rank_many` and the experiment sweeps).
//!
//! Threads are `std::thread::scope` workers, so borrowed inputs work
//! without `Arc`. Parallelism is skipped entirely when the effective thread
//! count is 1 or the work is below [`MIN_PARALLEL_LEN`] — small problems
//! stay on the caller's thread with zero overhead.
//!
//! The thread count resolves, in order:
//! 1. a thread-local override installed by [`with_threads`] (used by tests
//!    and benchmarks to force serial/parallel execution deterministically),
//! 2. the `HND_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Chunks are contiguous and deterministic, and each output element is
//! computed by exactly one closure call, so parallel results are *bitwise
//! identical* to serial results — no reduction-order differences. The
//! equivalence property tests in `tests/pattern_proptests.rs` pin this
//! down.

use std::cell::Cell;
use std::sync::OnceLock;

/// Work items below this length never spawn threads: for the `O(n)`-per-
/// element gather kernels, thread spawn/join (~tens of µs) only pays for
/// itself on large outputs.
pub const MIN_PARALLEL_LEN: usize = 4096;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("HND_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The effective worker count for parallel kernels on this thread.
pub fn threads() -> usize {
    OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(default_threads)
        .max(1)
}

/// Runs `f` with the kernel thread count forced to `n` on this thread
/// (restored afterwards, panic-safe). `with_threads(1, …)` forces fully
/// serial execution; tests use larger `n` to exercise the parallel path
/// even on single-core machines.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Fills `out` by calling `f(global_index, &mut chunk)` for contiguous
/// chunks of the output, in parallel when worthwhile. `f` receives the
/// offset of its chunk within `out` so it can address global data.
pub fn par_fill<T: Send>(out: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let len = out.len();
    let workers = threads().min(len.div_ceil(MIN_PARALLEL_LEN.max(1)));
    if workers <= 1 {
        f(0, out);
        return;
    }
    let chunk_len = len.div_ceil(workers);
    std::thread::scope(|scope| {
        // The calling thread takes the first chunk itself instead of idling
        // in the join — one fewer spawn per gather call on the hot path.
        let mut own: Option<(usize, &mut [T])> = None;
        let mut offset = 0usize;
        for chunk in out.chunks_mut(chunk_len) {
            let start = offset;
            offset += chunk.len();
            if own.is_none() {
                own = Some((start, chunk));
            } else {
                let f = &f;
                scope.spawn(move || f(start, chunk));
            }
        }
        if let Some((start, chunk)) = own {
            f(start, chunk);
        }
    });
}

/// Resolves a requested worker count under the `HND_THREADS` convention:
/// `0` means "one worker per effective kernel thread" ([`threads`]), any
/// other value is taken as-is (clamped to at least 1). This is the single
/// resolution point for every pool-sizing knob in the workspace
/// (`ServerOpts::workers`, bench sweeps, examples) so the convention cannot
/// drift between copies.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 { threads() } else { requested }.max(1)
}

/// Runs `f(index, &mut items[index])` for every item, in parallel when
/// worthwhile: the work-item analogue of [`par_map`] for *mutable* tasks
/// that own their outputs (e.g. matrix shards writing into private
/// buffers). Items are processed in contiguous chunks on scoped threads;
/// with one effective thread this is a plain serial loop. Like [`par_map`],
/// any slice with 2+ items parallelizes — per-item work is assumed
/// expensive (an `O(nnz/shards)` kernel pass, not an element write).
pub fn par_for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let workers = threads().min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk_len = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (k, chunk) in items.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            let offset = k * chunk_len;
            scope.spawn(move || {
                for (j, item) in chunk.iter_mut().enumerate() {
                    f(offset + j, item);
                }
            });
        }
    });
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Items are processed in contiguous chunks on scoped threads; with one
/// effective thread this is a plain serial map. Unlike the fill kernels,
/// mapping is worthwhile for *expensive* per-item work (ranking a whole
/// response matrix), so any slice with 2+ items parallelizes.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk_len = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (item_chunk, out_chunk) in items.chunks(chunk_len).zip(out.chunks_mut(chunk_len)) {
            let f = &f;
            scope.spawn(move || {
                for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("par_map worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_fill_matches_serial() {
        let src: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mut serial = vec![0.0; src.len()];
        with_threads(1, || {
            par_fill(&mut serial, |off, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = 2.0 * src[off + k];
                }
            });
        });
        let mut parallel = vec![0.0; src.len()];
        with_threads(4, || {
            par_fill(&mut parallel, |off, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = 2.0 * src[off + k];
                }
            });
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        let parallel = with_threads(3, || par_map(&items, |&x| x * x));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outer = threads();
        with_threads(7, || assert_eq!(threads(), 7));
        assert_eq!(threads(), outer);
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(threads(), outer);
    }

    #[test]
    fn par_for_each_mut_matches_serial() {
        let mut serial: Vec<u64> = (0..100).collect();
        with_threads(1, || {
            par_for_each_mut(&mut serial, |i, x| *x = *x * 3 + i as u64);
        });
        let mut parallel: Vec<u64> = (0..100).collect();
        with_threads(4, || {
            par_for_each_mut(&mut parallel, |i, x| *x = *x * 3 + i as u64);
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn resolve_workers_follows_the_convention() {
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(1), 1);
        with_threads(6, || assert_eq!(resolve_workers(0), 6));
        with_threads(1, || assert_eq!(resolve_workers(0), 1));
    }

    #[test]
    fn small_work_stays_serial() {
        // Below MIN_PARALLEL_LEN the closure must be called exactly once
        // with the whole slice, even when many threads are requested.
        let mut out = vec![0u32; 100];
        let calls = std::sync::atomic::AtomicUsize::new(0);
        with_threads(8, || {
            par_fill(&mut out, |off, chunk| {
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert_eq!(off, 0);
                assert_eq!(chunk.len(), 100);
            });
        });
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
