//! A zero-dependency scoped worker pool with deterministic results.
//!
//! Profile generation and the experiment harness are embarrassingly
//! parallel — independent `(resolution, removal)` cells, independent
//! trials, independent experiments — but the science demands that the
//! *output* of a parallel run be byte-identical to the sequential one.
//! This pool is built around that contract:
//!
//! * **Order-independent tasks, order-preserving results.** Each task is
//!   identified by its index in the input; [`Pool::parallel_map`] returns
//!   results in input order no matter which worker ran what when. Callers
//!   must derive any randomness from `(seed, index)`, never from execution
//!   order — every call site in this workspace does.
//! * **Scoped workers.** Each call runs on the calling thread plus
//!   `workers - 1` helpers spawned in one `std::thread::scope`, joined
//!   before the call returns, so tasks may borrow from the caller's stack.
//! * **Guided chunk claims.** Workers claim index ranges sized to the
//!   *remaining* work (`remaining / (2 · workers)`, floor 1): early chunks
//!   are large enough to amortize the shared counter, trailing chunks
//!   shrink toward 1 so the tail imbalance between workers is bounded by
//!   one leading chunk.
//! * **Panic propagation, no hangs.** Every task runs under
//!   `catch_unwind`. A panicking task flips an abort flag (other workers
//!   stop claiming chunks), and the first payload to be recorded is
//!   re-thrown from the calling thread once the scope has joined.
//! * **Configurable width.** Worker count comes from the explicit request,
//!   else `SMOKESCREEN_THREADS`, else `std::thread::available_parallelism`.
//!   Width 1 runs inline on the caller with zero spawns, which is also the
//!   reference path the determinism suite compares against.
//!
//! Nested calls compose: a task may itself call [`Pool::parallel_map`],
//! which opens its own scope, and every caller drains its own call, so
//! progress never depends on a free helper existing.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::sync::Mutex;

/// Environment variable overriding the automatic worker count.
pub const THREADS_ENV: &str = "SMOKESCREEN_THREADS";

/// A fixed-width handle for running tasks on scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

/// Resolves the automatic worker count: `SMOKESCREEN_THREADS` when set to
/// a positive integer, else the machine's available parallelism, else 1.
pub fn auto_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the next chunk claim under guided self-scheduling: a
/// `1/(2·workers)` share of the remaining range, rounded up, so it lies
/// in `[1, remaining]` whenever work remains. Because `remaining` only
/// shrinks as claims proceed, consecutive claim sizes are non-increasing
/// — the property the balance proptest below leans on.
fn claim_size(remaining: usize, workers: usize) -> usize {
    remaining.div_ceil(2 * workers.max(1))
}

/// CAS-claims the next guided chunk of `0..len` off `next`, or `None`
/// when the range is drained.
fn claim(next: &AtomicUsize, len: usize, workers: usize) -> Option<(usize, usize)> {
    let mut cur = next.load(Ordering::Acquire);
    loop {
        if cur >= len {
            return None;
        }
        let size = claim_size(len - cur, workers);
        match next.compare_exchange_weak(cur, cur + size, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some((cur, cur + size)),
            Err(seen) => cur = seen,
        }
    }
}

impl Pool {
    /// A pool with the automatic width (see [`auto_threads`]).
    pub fn new() -> Self {
        Pool::with_threads(0)
    }

    /// A pool with an explicit width; `0` means automatic.
    pub fn with_threads(request: usize) -> Self {
        let threads = if request == 0 { auto_threads() } else { request };
        Pool { threads }
    }

    /// The worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool's workers, returning results in
    /// input order. `f` receives `(index, &item)` so per-task randomness
    /// can be derived from the index rather than execution order.
    ///
    /// If any invocation panics, remaining tasks are abandoned and the
    /// panic propagates to the caller.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_indexed(items.len(), |i| f(i, &items[i]))
    }

    /// Collects closures spawned onto a [`TaskScope`] and runs them on the
    /// pool, returning their results in spawn order.
    ///
    /// When the task count is at most the pool width, every task gets its
    /// own thread and all of them run at once, so tasks may be loops that
    /// wait on one another (the serving daemon relies on this).
    pub fn scope<'env, T, F>(&self, build: F) -> Vec<T>
    where
        T: Send,
        F: FnOnce(&mut TaskScope<'env, T>),
    {
        let mut scope = TaskScope { tasks: Vec::new() };
        build(&mut scope);
        // FnOnce tasks are consumed exactly once: the index counter hands
        // each slot to a single worker, which takes the closure out.
        let slots: Vec<Mutex<Option<Task<'env, T>>>> = scope
            .tasks
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        self.run_indexed(slots.len(), |i| {
            let task = slots[i].lock().take().expect("scope task runs once");
            task()
        })
    }

    /// The shared engine: the caller and `workers - 1` scoped helpers
    /// drain guided chunks of `0..len`, and the results are merged back
    /// into index order once the scope has joined.
    fn run_indexed<R, F>(&self, len: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).map(task).collect();
        }

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // First panic payload recorded; re-thrown on the caller so the
        // original message survives the hop across threads.
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // One worker's share: pull chunks until the range drains or a task
        // panics, keeping results local until the worker is done.
        let drain = || {
            let mut local: Vec<(usize, R)> = Vec::new();
            'pull: while !abort.load(Ordering::Relaxed) {
                let Some((start, end)) = claim(&next, len, workers) else {
                    break;
                };
                for i in start..end {
                    match catch_unwind(AssertUnwindSafe(|| task(i))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            panicked.lock().get_or_insert(payload);
                            break 'pull;
                        }
                    }
                }
            }
            local
        };

        let mut merged = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(drain)).collect();
            let mut merged = drain();
            for helper in helpers {
                merged.extend(helper.join().expect("pool tasks run under catch_unwind"));
            }
            merged
        });
        if let Some(payload) = panicked.into_inner() {
            resume_unwind(payload);
        }
        debug_assert_eq!(merged.len(), len);
        merged.sort_unstable_by_key(|&(i, _)| i);
        merged.into_iter().map(|(_, r)| r).collect()
    }
}

type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Collector for [`Pool::scope`] tasks.
pub struct TaskScope<'env, T> {
    tasks: Vec<Task<'env, T>>,
}

impl<'env, T> TaskScope<'env, T> {
    /// Queues a task; it runs when the surrounding [`Pool::scope`] call
    /// executes, and its result lands at this spawn position.
    pub fn spawn<F>(&mut self, task: F)
    where
        F: FnOnce() -> T + Send + 'env,
    {
        self.tasks.push(Box::new(task));
    }

    /// Number of tasks queued so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task has been queued yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_and_singleton_inputs() {
        for threads in [1usize, 2, 8] {
            let pool = Pool::with_threads(threads);
            let empty: Vec<u32> = Vec::new();
            assert_eq!(pool.parallel_map(&empty, |_, &x| x * 2), Vec::<u32>::new());
            assert_eq!(pool.parallel_map(&[7u32], |i, &x| x + i as u32), vec![7]);
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let pool = Pool::with_threads(8);
        let items: Vec<usize> = (0..500).collect();
        let out = pool.parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn warm_pool_reuse_stays_correct_across_many_jobs() {
        // Back-to-back calls on one handle each open a fresh scope; every
        // one must stay byte-correct.
        let pool = Pool::with_threads(8);
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for _ in 0..50 {
            assert_eq!(pool.parallel_map(&items, |_, &x| x * x), expect);
        }
    }

    #[test]
    fn nested_parallel_maps_compose() {
        // Figure sweeps run parallel trials whose tasks call generation,
        // which itself parallel_maps over cells — both levels must finish
        // without deadlocking or crossing results.
        let pool = Pool::with_threads(4);
        let outer: Vec<u64> = (0..12).collect();
        let got = pool.parallel_map(&outer, |_, &o| {
            let inner: Vec<u64> = (0..30).collect();
            let inner_pool = Pool::with_threads(4);
            inner_pool
                .parallel_map(&inner, |_, &i| o * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..12).map(|o| (0..30).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scope_preserves_spawn_order() {
        let pool = Pool::with_threads(4);
        let out: Vec<String> = pool.scope(|s| {
            for i in 0..40 {
                s.spawn(move || format!("task-{i}"));
            }
        });
        assert_eq!(out.len(), 40);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &format!("task-{i}"));
        }
    }

    #[test]
    fn scope_tasks_borrow_from_caller() {
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        let pool = Pool::with_threads(3);
        let parts: Vec<u64> = pool.scope(|s| {
            for chunk in data.chunks(7) {
                let total = &total;
                s.spawn(move || {
                    let sum: u64 = chunk.iter().sum();
                    total.fetch_add(sum, Ordering::Relaxed);
                    sum
                });
            }
        });
        assert_eq!(parts.iter().sum::<u64>(), 4950);
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn scope_runs_every_task_at_once_when_tasks_equal_width() {
        // The serving daemon spawns exactly `width` tasks that are loops
        // returning only at shutdown, so each must get its own thread. Here
        // every task waits for all the others to start; the deadline turns
        // a schedule that serialises them into a failure, not a hang.
        for n in [2usize, 4, 8] {
            let started = AtomicUsize::new(0);
            let seen: Vec<usize> = Pool::with_threads(n).scope(|s| {
                for _ in 0..n {
                    let started = &started;
                    s.spawn(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while started.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        started.load(Ordering::SeqCst)
                    });
                }
            });
            assert_eq!(seen, vec![n; n], "width {n}: tasks did not all run at once");
        }
    }

    #[test]
    fn width_resolution_prefers_explicit_request() {
        assert_eq!(Pool::with_threads(5).threads(), 5);
        assert!(Pool::new().threads() >= 1);
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn claim_sizes_shrink_toward_the_tail() {
        let mut remaining = 10_000usize;
        let mut prev = usize::MAX;
        while remaining > 0 {
            let size = claim_size(remaining, 8);
            assert!(size >= 1 && size <= remaining);
            assert!(size <= prev, "guided chunks must be non-increasing");
            prev = size;
            remaining -= size;
        }
        assert_eq!(claim_size(1000, 8), 63);
        assert_eq!(claim_size(5, 8), 1);
        assert_eq!(claim_size(1, 1), 1);
    }

    // The determinism and abort contracts, property-tested: parallel maps
    // must equal their sequential reference for arbitrary inputs and
    // widths, and a panicking task must propagate without hanging.
    proptest! {
        #[test]
        fn parallel_map_equals_sequential_map(
            xs in collection::vec(0u64..1_000_000, 0..300),
            threads in 1usize..9,
        ) {
            let pool = Pool::with_threads(threads);
            let par = pool.parallel_map(&xs, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
            let seq: Vec<u64> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
                .collect();
            prop_assert_eq!(par, seq);
        }

        #[test]
        fn panicking_task_aborts_and_propagates(
            len in 1usize..80,
            threads in 1usize..9,
            offset in 0usize..80,
        ) {
            let pool = Pool::with_threads(threads);
            let items: Vec<usize> = (0..len).collect();
            let bad = offset % len;
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_map(&items, |_, &x| {
                    if x == bad {
                        panic!("task {x} failed");
                    }
                    x
                })
            }));
            std::panic::set_hook(hook);
            prop_assert!(outcome.is_err(), "panic at index {} must propagate", bad);
        }

        // Satellite: guided chunk claims may not strand the tail on one
        // worker. Simulate round-robin claiming and check the per-worker
        // item spread stays within one leading (largest) chunk.
        #[test]
        fn guided_chunks_cover_everything_and_stay_balanced(
            len in 1usize..5_000,
            workers in 1usize..17,
        ) {
            let mut counts = vec![0usize; workers];
            let mut next = 0usize;
            let mut turn = 0usize;
            let mut first_chunk = 0usize;
            while next < len {
                let size = claim_size(len - next, workers);
                if first_chunk == 0 {
                    first_chunk = size;
                }
                prop_assert!(size >= 1 && size <= len - next);
                counts[turn % workers] += size;
                next += size;
                turn += 1;
            }
            prop_assert_eq!(counts.iter().sum::<usize>(), len, "claims must cover the input");
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            prop_assert!(
                max - min <= first_chunk,
                "per-worker spread {} exceeds one leading chunk {} (len={}, workers={})",
                max - min, first_chunk, len, workers
            );
        }
    }

    #[test]
    fn panic_payload_reaches_caller_intact() {
        let pool = Pool::with_threads(4);
        let items: Vec<u32> = (0..64).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |_, &x| {
                if x == 33 {
                    panic!("boom-33");
                }
                x
            })
        }));
        std::panic::set_hook(hook);
        let payload = outcome.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom-33"), "payload was {msg:?}");
    }
}
