//! Scoped-thread parallel helpers for the compute hot paths.
//!
//! The workspace deliberately carries no thread-pool dependency: these
//! helpers build on [`std::thread::scope`], which is allocation-cheap and
//! has no global state. All scheduling is deterministic-output by
//! construction — work items are keyed by index, so the result never
//! depends on which thread ran what. Each worker inherits the caller's
//! thread-count pin and [`phox_trace`] handle, so a nested parallel loop
//! sees the same pin and events from inside a loop land in the trace of
//! the run that started it.
//!
//! Thread count resolution order:
//!
//! 1. an active [`with_threads`] pin on the calling thread (tests pin
//!    1/2/8 this way),
//! 2. the `PHOX_NUM_THREADS` environment variable,
//! 3. the `RAYON_NUM_THREADS` environment variable (honoured for
//!    compatibility with common HPC job scripts),
//! 4. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use phox_trace::Trace;

thread_local! {
    /// This thread's thread-count pin (0 = none). Set only by
    /// [`with_threads`] and by workers inheriting their caller's pin.
    static THREAD_PIN: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel helpers may use.
pub fn max_threads() -> usize {
    let pin = THREAD_PIN.with(Cell::get);
    if pin > 0 {
        return pin;
    }
    for var in ["PHOX_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with the worker thread count pinned to `n` on this thread
/// (and in the workers of every parallel helper `f` calls).
///
/// Overrides the environment and hardware defaults for the duration of
/// `f`; used by the determinism test suites to prove results are
/// bit-identical across thread counts. Pins on other threads are
/// unaffected, so concurrently running tests cannot clobber each other.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    let prev = THREAD_PIN.with(|pin| pin.replace(n));
    // Restore on unwind as well, so a panicking test can't leak its pin.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_PIN.with(|pin| pin.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The per-thread context a worker inherits from the thread that
/// started the parallel loop.
struct Inherited {
    pin: usize,
    trace: Trace,
}

impl Inherited {
    fn capture() -> Self {
        Inherited {
            pin: THREAD_PIN.with(Cell::get),
            trace: phox_trace::active(),
        }
    }

    fn install(&self) {
        THREAD_PIN.with(|pin| pin.set(self.pin));
        phox_trace::install(self.trace.clone());
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Work items are pulled from a shared atomic counter, so load imbalance
/// between items self-levels; the output order (and therefore the caller's
/// observable result) is independent of the schedule.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let inherited = Inherited::capture();
    let mut buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    inherited.install();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in &mut buckets {
        for (i, v) in bucket.drain(..) {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("every index produced exactly once")))
        .collect()
}

/// Splits `data` into `chunk_size`-element chunks and applies
/// `f(chunk_index, chunk)` to each, in parallel.
///
/// Chunks are pre-distributed round-robin across workers; because each
/// chunk is touched by exactly one thread and `f` receives the chunk's
/// global index, results are schedule-independent.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size.max(1));
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
        buckets[i % threads].push((i, chunk));
    }
    let inherited = Inherited::capture();
    std::thread::scope(|s| {
        let (f, inherited) = (&f, &inherited);
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    inherited.install();
                    for (i, chunk) in bucket {
                        f(i, chunk);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_threads_pins_and_restores() {
        let outside = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), outside);
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 8] {
            let v = with_threads(threads, || par_map_indexed(100, |i| i * i));
            assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_inherit_the_pin() {
        let seen = with_threads(3, || par_map_indexed(6, |_| max_threads()));
        assert_eq!(seen, vec![3; 6]);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        for threads in [1, 2, 8] {
            let mut data = vec![0usize; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 10, |ci, chunk| {
                    for v in chunk.iter_mut() {
                        *v += ci + 1;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i / 10 + 1);
            }
        }
    }

    #[test]
    fn par_chunks_mut_uneven_tail() {
        let mut data = vec![1.0f64; 7];
        par_chunks_mut(&mut data, 3, |_, chunk| {
            for v in chunk.iter_mut() {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }
}
