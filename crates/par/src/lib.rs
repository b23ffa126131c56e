//! Deterministic parallel execution primitives for the HEP workspace.
//!
//! Every parallel code path in this workspace must produce **bit-identical
//! output at any thread count** — the repo-wide determinism invariant that
//! makes experiments reproducible and tests meaningful. This crate provides
//! the substrate that makes that invariant cheap to uphold:
//!
//! * Work is always split into a **fixed chunk decomposition** that depends
//!   only on the input size, never on the worker count. Threads race over
//!   *which worker executes a chunk*, not over *what the chunks are*.
//! * Results come back **ordered by chunk index** ([`Pool::par_map`]), and
//!   reductions fold partial results **in chunk order**
//!   ([`Pool::par_reduce`]) — so even floating-point accumulation is stable
//!   across thread counts (the summation tree is fixed by the chunking).
//! * Randomized chunk work derives its stream from the chunk index
//!   (`SplitMix64::split(chunk_index)` in `hep-ds`), never from a shared
//!   generator.
//!
//! The worker count comes from the `HEP_THREADS` environment variable
//! (default: available parallelism; `1` forces serial in-place execution
//! with no threads spawned). A set value that is not a positive integer
//! also means available parallelism here, so callers outside HEP keep
//! running; `HepConfig::validate` (in `hep-core`) reports it through
//! [`threads_knob`] as a config error. [`set_threads`] overrides the knob
//! at runtime, which the determinism test-suite uses to compare 1-thread
//! and 8-thread runs in one process.
//!
//! The pool is *scoped*: each call spawns OS threads via
//! [`std::thread::scope`] and joins them before returning, so there is no
//! global worker state, no shutdown ordering, and worker panics propagate to
//! the caller. Spawn cost (~tens of microseconds) is amortized by chunk
//! sizes in the tens of thousands of items; callers with tiny inputs fall
//! back to inline serial execution automatically.

use hep_ds::sync;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Global worker-count override: 0 = not yet resolved (read `HEP_THREADS`).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Resolves a raw `HEP_THREADS` value. Unset is `None` (available
/// parallelism); a set value must be a positive integer, and anything else
/// is an error naming the knob and its value.
fn threads_from_knob(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("HEP_THREADS={raw:?} is not a positive thread count")),
    }
}

/// The process-wide `HEP_THREADS` knob, read once: `Ok(None)` when unset,
/// the count when it is a positive integer, else an error naming the knob
/// and its value.
pub fn threads_knob() -> &'static Result<Option<usize>, String> {
    static KNOB: OnceLock<Result<Option<usize>, String>> = OnceLock::new();
    KNOB.get_or_init(|| threads_from_knob(hep_ds::env_registry::read("HEP_THREADS").as_deref()))
}

/// The knob's worker count; unset or malformed means available
/// parallelism.
fn default_threads() -> usize {
    threads_knob().clone().ok().flatten().unwrap_or_else(available)
}

fn available() -> usize {
    std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
}

/// The effective worker count: [`set_threads`] override if set, otherwise
/// a well-formed `HEP_THREADS`, otherwise available parallelism.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = default_threads();
    // Publish so the env var is read once; first writer wins, ties agree.
    // the discard is the point: racing initializers compute identical values, so losing the CAS is harmless
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    resolved
}

/// Overrides the worker count process-wide (tests and benches compare
/// serial vs parallel runs this way). `0` re-resolves from the environment
/// on the next use. Output of the workspace's parallel components does not
/// depend on this value — that is the point of the crate.
pub fn set_threads(n: usize) {
    THREADS.store(if n == 0 { 0 } else { n }, Ordering::Relaxed);
}

/// Runs `f` with the pool width forced to `threads`, restoring the
/// previous setting afterwards (also on panic). Concurrent callers
/// serialize on an internal lock, so each closure really executes at its
/// requested width — without this, two thread-invariance tests running in
/// the same test binary could override each other mid-run and silently
/// compare two runs of the *same* width. This is the supported way for
/// tests and benches to pin a width; plain [`set_threads`] is best kept
/// for process setup.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _restore = Restore(THREADS.load(Ordering::Relaxed));
    set_threads(threads);
    f()
}

/// A handle carrying a worker count; all primitives are methods on it.
///
/// `Pool` is plain data — it owns no threads. Each primitive call spawns
/// scoped workers and joins them before returning.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit worker count (`0` = available parallelism).
    pub fn new(threads: usize) -> Pool {
        Pool { threads: if threads == 0 { available() } else { threads } }
    }

    /// The process-wide pool configured by `HEP_THREADS` / [`set_threads`].
    pub fn current() -> Pool {
        Pool { threads: threads() }
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), ..., f(tasks - 1)` and returns the results **in
    /// task order**, regardless of which worker executed which task. Tasks
    /// are claimed dynamically (an atomic cursor), so irregular task costs
    /// balance automatically.
    ///
    /// With one worker (or fewer than two tasks) this runs inline on the
    /// caller's thread, spawning nothing.
    #[expect(
        clippy::expect_used,
        reason = "the scope joined all workers, and workers only exit the fetch_add loop once every index < tasks is claimed and stored"
    )]
    pub fn par_map<U, F>(&self, tasks: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads <= 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let slots: Vec<Mutex<Option<U>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(tasks))
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let r = f(i);
                        *sync::lock(&slots[i]) = Some(r);
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots.into_iter().map(|s| sync::into_inner(s).expect("task ran")).collect()
    }

    /// Runs `f` for every task index, discarding results.
    pub fn par_for_each<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.par_map(tasks, f);
    }

    /// Like [`Pool::par_for_each`], but each worker first builds a private
    /// state with `init` (scratch buffers, per-worker accumulators) that is
    /// passed to every task it executes. The per-worker states are returned
    /// **unordered** — anything folded out of them must be order-insensitive,
    /// or the caller should use [`Pool::par_map`] instead.
    pub fn par_for_each_init<S, I, F>(&self, tasks: usize, init: I, f: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        if self.threads <= 1 || tasks <= 1 {
            let mut state = init();
            for i in 0..tasks {
                f(&mut state, i);
            }
            return vec![state];
        }
        let next = AtomicUsize::new(0);
        let states: Mutex<Vec<S>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(tasks))
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            f(&mut state, i);
                        }
                        sync::lock(&states).push(state);
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        sync::into_inner(states)
    }

    /// Maps every task in parallel, then folds the partial results **in
    /// task order** on the calling thread. Because the fold order is fixed
    /// by the task decomposition, the result is identical at any thread
    /// count even for non-associative accumulation (floating point).
    pub fn par_reduce<T, A, M, F>(&self, tasks: usize, map: M, init: A, mut fold: F) -> A
    where
        T: Send,
        M: Fn(usize) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        let mut acc = init;
        for part in self.par_map(tasks, map) {
            acc = fold(acc, part);
        }
        acc
    }
}

/// Splits `len` items into contiguous `(start, end)` ranges of at most
/// `chunk` items. The decomposition depends only on `len` and `chunk` —
/// callers pass a constant `chunk`, which is what pins the workspace's
/// parallel results across thread counts.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<(usize, usize)> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut ranges = Vec::with_capacity(len.div_ceil(chunk));
    let mut at = 0;
    while at < len {
        let end = (at + chunk).min(len);
        ranges.push((at, end));
        at = end;
    }
    ranges
}

/// Maps fixed-size chunks of `slice` in parallel on the current pool,
/// returning one result per chunk in chunk order. `f` receives the chunk
/// index and the sub-slice.
pub fn par_chunks<T, U, F>(slice: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    let ranges = chunk_ranges(slice.len(), chunk);
    Pool::current().par_map(ranges.len(), |i| {
        let (a, b) = ranges[i];
        f(i, &slice[a..b])
    })
}

/// Fills fixed-size chunks of `out` in parallel on the current pool: each
/// task gets the chunk index and **exclusive** access to its sub-slice, so
/// hot loops can write results in place instead of allocating per-chunk
/// buffers and concatenating. The chunk decomposition is the same as
/// [`par_chunks`] with the same `chunk`.
pub fn par_chunks_mut<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let ranges = chunk_ranges(out.len(), chunk);
    let mut rest = out;
    let mut slices: Vec<Mutex<&mut [T]>> = Vec::with_capacity(ranges.len());
    for (a, b) in &ranges {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(b - a);
        slices.push(Mutex::new(head));
        rest = tail;
    }
    Pool::current().par_for_each(slices.len(), |i| {
        let mut slice = sync::lock(&slices[i]);
        f(i, &mut slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_knob_parsing() {
        assert_eq!(threads_from_knob(None), Ok(None), "unset is available parallelism");
        assert_eq!(threads_from_knob(Some("1")), Ok(Some(1)));
        assert_eq!(threads_from_knob(Some(" 4 ")), Ok(Some(4)));
        for bad in ["abc", "0", "-2", "1.5", "", "4 threads"] {
            let err = threads_from_knob(Some(bad)).unwrap_err();
            assert!(err.contains("HEP_THREADS") && err.contains(bad), "{err}");
        }
        let overflow = format!("{}", u128::from(u64::MAX) + 1);
        assert!(threads_from_knob(Some(&overflow)).is_err(), "usize overflow");
    }

    #[test]
    fn par_map_preserves_order() {
        for t in [1usize, 2, 8] {
            let pool = Pool::new(t);
            let out = pool.par_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_reduce_folds_in_task_order() {
        // String concatenation is order-sensitive; the reduce must follow
        // task order at every thread count.
        let expect: String = (0..50).map(|i| format!("{i},")).collect();
        for t in [1usize, 3, 8] {
            let got = Pool::new(t).par_reduce(
                50,
                |i| format!("{i},"),
                String::new(),
                |mut acc, s: String| {
                    acc.push_str(&s);
                    acc
                },
            );
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn par_for_each_runs_every_task_once() {
        let hits: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        Pool::new(8).par_for_each(200, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_each_init_state_count_bounded_by_threads() {
        let states = Pool::new(3).par_for_each_init(64, || 0u64, |s, _| *s += 1);
        assert!(states.len() <= 3);
        assert_eq!(states.iter().sum::<u64>(), 64);
        // Serial path: one state does all the work.
        let states = Pool::new(1).par_for_each_init(64, || 0u64, |s, _| *s += 1);
        assert_eq!(states, vec![64]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 10), vec![]);
        assert_eq!(chunk_ranges(10, 10), vec![(0, 10)]);
        assert_eq!(chunk_ranges(25, 10), vec![(0, 10), (10, 20), (20, 25)]);
        for len in [1usize, 63, 64, 65, 1000] {
            let r = chunk_ranges(len, 64);
            assert_eq!(r.first().unwrap().0, 0);
            assert_eq!(r.last().unwrap().1, len);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn par_chunks_sums_match_serial() {
        let data: Vec<u64> = (0..10_000).collect();
        let partials = par_chunks(&data, 1024, |_, c| c.iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(partials.len(), 10);
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        set_threads(5);
        assert_eq!(threads(), 5);
        assert_eq!(Pool::current().threads(), 5);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn with_threads_pins_and_restores() {
        let width = with_threads(3, threads);
        assert_eq!(width, 3);
        let r = std::panic::catch_unwind(|| with_threads(7, || -> usize { panic!("inner") }));
        assert!(r.is_err());
        // Neither the lock nor the override is wedged after the panic: a
        // subsequent pinned run still sees exactly its requested width.
        assert_eq!(with_threads(4, threads), 4);
    }

    #[test]
    fn par_chunks_mut_fills_every_slot_in_place() {
        let mut out = vec![0u64; 10_000];
        par_chunks_mut(&mut out, 1024, |i, slice| {
            for (off, x) in slice.iter_mut().enumerate() {
                *x = (i * 1024 + off) as u64;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64));
        // Empty output is a no-op.
        par_chunks_mut(&mut [] as &mut [u64], 16, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        Pool::new(4).par_for_each(16, |i| {
            if i == 7 {
                panic!("worker boom");
            }
        });
    }

    #[test]
    fn pool_zero_means_available() {
        assert!(Pool::new(0).threads() >= 1);
    }
}
