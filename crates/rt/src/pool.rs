//! A zero-dependency persistent worker pool with deterministic results.
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
//! * **Persistent workers, scoped jobs.** Helper threads are spawned once
//!   (lazily, on demand) and then parked on a condvar between jobs, so a
//!   `parallel_map` call costs a wakeup rather than `workers - 1` thread
//!   spawns. Jobs are generation-stamped slots in a global registry; the
//!   calling thread always participates, publishes its job, and blocks
//!   until every helper has checked out, so tasks may still borrow from
//!   the caller's stack exactly as with `std::thread::scope`.
//! * **Guided chunk claims.** Workers claim index ranges sized to the
//!   *remaining* work (`remaining / (2 · workers)`, floor 1): early chunks
//!   are large enough to amortize the shared counter, trailing chunks
//!   shrink toward 1 so the tail imbalance between workers is bounded by
//!   one leading chunk. `SMOKESCREEN_CHUNK` pins a fixed chunk size.
//! * **Panic propagation, no hangs.** A panicking task flips an abort flag
//!   (other workers stop claiming chunks) and the first panic payload is
//!   re-thrown from the calling thread once the job drains. Helpers catch
//!   task panics and survive to serve later jobs.
//! * **Configurable width.** Worker count comes from the explicit request,
//!   else `SMOKESCREEN_THREADS`, else `std::thread::available_parallelism`.
//!   Width 1 runs inline on the caller with zero spawns, which is also the
//!   reference path the determinism suite compares against.
//!
//! Nested jobs compose: a task may itself call [`Pool::parallel_map`].
//! The inner call publishes a new job slot, idle helpers pick the newest
//! claimable job first, and the inner caller participates in its own job,
//! so progress never depends on a free helper existing.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Condvar, OnceLock, PoisonError};

use crate::sync::Mutex;

/// Environment variable overriding the automatic worker count.
pub const THREADS_ENV: &str = "SMOKESCREEN_THREADS";

/// Environment variable pinning the chunk size (items per claim) instead
/// of the adaptive `remaining / (2 · workers)` target. Strictly parsed:
/// anything set must be a positive integer.
pub const CHUNK_ENV: &str = "SMOKESCREEN_CHUNK";

/// Hard ceiling on helper threads the global registry will ever spawn.
const MAX_POOL_THREADS: usize = 256;

/// A fixed-width handle onto the shared persistent pool.
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

/// Reads the `SMOKESCREEN_CHUNK` pin; set-but-malformed values panic, in
/// line with the other strictly-parsed workspace knobs (`rt::fault`).
fn chunk_override() -> Option<usize> {
    let raw = std::env::var(CHUNK_ENV).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("{CHUNK_ENV} must be a positive integer, got {raw:?}"),
    }
}

/// Size of the next chunk claim under guided self-scheduling: a
/// `1/(2·workers)` share of the remaining range, clamped to `[1,
/// remaining]`, or the `override_chunk` pin when set. Because `remaining`
/// only shrinks as claims proceed, consecutive claim sizes are
/// non-increasing — the property the balance proptest below leans on.
fn claim_size(remaining: usize, workers: usize, override_chunk: Option<usize>) -> usize {
    let size = match override_chunk {
        Some(c) => c,
        None => {
            let denom = 2 * workers.max(1);
            (remaining + denom - 1) / denom
        }
    };
    size.clamp(1, remaining)
}

/// The type-erased, schedule-visible part of a job. Lives at the head of
/// the concrete [`Job`] (which is `#[repr(C)]`), so a `*const JobCore`
/// published to the registry can be cast back to the full job by the
/// monomorphized `run` entry point stored inside it.
struct JobCore {
    /// Next unclaimed task index; workers CAS guided chunks off it.
    next: AtomicUsize,
    /// Total task count.
    len: usize,
    /// Participant target (caller + helpers) used for chunk sizing.
    workers: usize,
    /// `SMOKESCREEN_CHUNK` pin captured at publish time.
    chunk: Option<usize>,
    /// Set by the first panicking task; stops further claims.
    abort: AtomicBool,
    /// Helper admission tickets remaining (`workers - 1` at publish).
    slots: AtomicIsize,
    /// Helpers currently inside the job. Incremented and decremented only
    /// while holding the registry lock; the publishing caller waits for
    /// zero before its stack frame (and thus this struct) goes away.
    active: AtomicUsize,
    /// Monomorphized worker entry point.
    run: unsafe fn(*const JobCore),
}

/// A concrete job: the erased core plus the typed task and result sinks,
/// all borrowing from the publishing caller's stack.
#[repr(C)]
struct Job<'a, R, F> {
    core: JobCore,
    task: &'a F,
    gathered: &'a Mutex<Vec<(usize, R)>>,
    panicked: &'a Mutex<Option<Box<dyn Any + Send>>>,
}

/// A generation-stamped entry in the registry's published-jobs list.
#[derive(Clone, Copy)]
struct JobHandle {
    id: u64,
    core: *const JobCore,
}

// SAFETY: the pointer is only dereferenced by helpers while the handle is
// published (registry lock held) or after incrementing `active` under
// that lock; the publishing caller keeps the pointee alive until `active`
// returns to zero. See `Registry::retire`.
unsafe impl Send for JobHandle {}

struct RegState {
    /// Published jobs, oldest first; helpers scan newest-first.
    jobs: Vec<JobHandle>,
    /// Helper threads ever spawned.
    spawned: usize,
    /// Helper threads currently parked on `work`.
    idle: usize,
    /// Generation stamp source for job ids.
    next_id: u64,
}

/// The process-wide worker registry: one lock, one wakeup condvar for
/// parked helpers, one completion condvar for publishing callers.
struct Registry {
    state: Mutex<RegState>,
    work: Condvar,
    done: Condvar,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        state: Mutex::new(RegState {
            jobs: Vec::new(),
            spawned: 0,
            idle: 0,
            next_id: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

impl Registry {
    /// Publishes a job and ensures enough helpers exist to serve it:
    /// parked helpers are woken, and the spawn count grows (monotonically,
    /// up to [`MAX_POOL_THREADS`]) only when the idle set can't cover the
    /// request. Returns the job's generation stamp.
    fn publish(&self, core: *const JobCore, helpers_wanted: usize) -> u64 {
        let mut st = self.state.lock();
        st.next_id += 1;
        let id = st.next_id;
        st.jobs.push(JobHandle { id, core });
        let deficit = helpers_wanted.saturating_sub(st.idle);
        let budget = MAX_POOL_THREADS.saturating_sub(st.spawned);
        for _ in 0..deficit.min(budget) {
            st.spawned += 1;
            std::thread::Builder::new()
                .name(format!("smokescreen-pool-{}", st.spawned))
                .spawn(|| helper_loop(registry()))
                .expect("rt::pool: failed to spawn worker thread");
        }
        drop(st);
        self.work.notify_all();
        id
    }

    /// Unpublishes the job and blocks until every helper inside it has
    /// checked out. After this returns no thread but the caller can hold
    /// a pointer into the job's stack frame.
    fn retire(&self, id: u64, core: *const JobCore) {
        let mut st = self.state.lock();
        st.jobs.retain(|h| h.id != id);
        // SAFETY: `core` points into the caller's own live stack frame.
        while unsafe { (*core).active.load(Ordering::SeqCst) } > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Retires the published job on drop, so the caller's stack frame can't
/// be freed with helpers still inside even if the merge path unwinds.
struct PublishGuard {
    id: u64,
    core: *const JobCore,
}

impl Drop for PublishGuard {
    fn drop(&mut self) {
        registry().retire(self.id, self.core);
    }
}

/// Body of every persistent helper thread: claim a slot on the newest
/// runnable job, run it to exhaustion, check out, repeat; park when no
/// job is claimable. Never exits — helpers die with the process.
fn helper_loop(reg: &'static Registry) {
    let mut st = reg.state.lock();
    loop {
        if let Some(h) = claim_helper_slot(&st) {
            drop(st);
            // SAFETY: `active` was incremented under the registry lock
            // while the handle was published, so the publishing caller is
            // blocked in `retire` until we check out below.
            unsafe { ((*h.core).run)(h.core) };
            st = reg.state.lock();
            unsafe { (*h.core).active.fetch_sub(1, Ordering::SeqCst) };
            reg.done.notify_all();
        } else {
            st.idle += 1;
            st = reg.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.idle -= 1;
        }
    }
}

/// Finds the newest published job that still has work and helper tickets,
/// and checks this thread into it (`active += 1`) — all under the
/// registry lock, which is what makes the pointer in the returned handle
/// safe to run. Newest-first ordering lets nested jobs drain promptly.
fn claim_helper_slot(st: &RegState) -> Option<JobHandle> {
    for h in st.jobs.iter().rev() {
        // SAFETY: the handle is published, so the job is alive (lock held).
        let core = unsafe { &*h.core };
        if core.abort.load(Ordering::Relaxed) || core.next.load(Ordering::Relaxed) >= core.len {
            continue;
        }
        if core.slots.fetch_sub(1, Ordering::SeqCst) > 0 {
            core.active.fetch_add(1, Ordering::SeqCst);
            return Some(*h);
        }
        core.slots.fetch_add(1, Ordering::SeqCst);
    }
    None
}

/// CAS-claims the next guided chunk, or `None` when the job is drained.
fn claim(core: &JobCore) -> Option<(usize, usize)> {
    let mut cur = core.next.load(Ordering::Acquire);
    loop {
        if cur >= core.len {
            return None;
        }
        let size = claim_size(core.len - cur, core.workers, core.chunk);
        match core.next.compare_exchange_weak(
            cur,
            cur + size,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some((cur, cur + size)),
            Err(seen) => cur = seen,
        }
    }
}

/// The monomorphized worker body shared by the caller and every helper:
/// pull guided chunks until the job drains or aborts, batching results
/// locally and publishing them under the gather lock once at the end.
///
/// # Safety
/// `core` must point at the `core` field of a live `Job<'_, R, F>` whose
/// publishing caller outlives this call (guaranteed by the
/// `active`-under-lock protocol in [`Registry`]).
unsafe fn run_erased<R, F>(core: *const JobCore)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let job = &*(core as *const Job<'_, R, F>);
    let mut local: Vec<(usize, R)> = Vec::new();
    'pull: while !job.core.abort.load(Ordering::Relaxed) {
        let Some((start, end)) = claim(&job.core) else {
            break;
        };
        for i in start..end {
            match catch_unwind(AssertUnwindSafe(|| (job.task)(i))) {
                Ok(r) => local.push((i, r)),
                Err(payload) => {
                    job.core.abort.store(true, Ordering::Relaxed);
                    let mut slot = job.panicked.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    break 'pull;
                }
            }
        }
    }
    if !local.is_empty() {
        job.gathered.lock().append(&mut local);
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

    /// The shared engine: publishes a job slot on the persistent pool,
    /// participates in draining it, and merges results back into index
    /// order once every helper has checked out.
    fn run_indexed<R, F>(&self, len: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).map(task).collect();
        }

        let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
        // First panic payload; re-thrown on the caller so the original
        // message survives the hop across threads.
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let job = Job {
            core: JobCore {
                next: AtomicUsize::new(0),
                len,
                workers,
                chunk: chunk_override(),
                abort: AtomicBool::new(false),
                slots: AtomicIsize::new(workers as isize - 1),
                active: AtomicUsize::new(0),
                run: run_erased::<R, F>,
            },
            task: &task,
            gathered: &gathered,
            panicked: &panicked,
        };
        let core = &job.core as *const JobCore;
        let guard = PublishGuard {
            id: registry().publish(core, workers - 1),
            core,
        };
        // The caller always participates, so the job drains even when
        // every helper is busy elsewhere.
        // SAFETY: `core` points at the live `job` above; the guard keeps
        // this frame pinned until all helpers check out.
        unsafe { run_erased::<R, F>(core) };
        drop(guard);

        if let Some(payload) = panicked.into_inner() {
            resume_unwind(payload);
        }
        let mut merged = gathered.into_inner();
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
        // The first call warms the persistent pool; every later call must
        // reuse the parked helpers and stay byte-correct.
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
        // which itself parallel_maps over cells — the registry must serve
        // both levels without deadlocking or crossing results.
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
            let size = claim_size(remaining, 8, None);
            assert!(size >= 1 && size <= remaining);
            assert!(size <= prev, "guided chunks must be non-increasing");
            prev = size;
            remaining -= size;
        }
        // The pin overrides the guided target exactly (clamped to range).
        assert_eq!(claim_size(1000, 8, Some(17)), 17);
        assert_eq!(claim_size(5, 8, Some(17)), 5);
        assert_eq!(claim_size(1, 1, None), 1);
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
        // item spread stays within one leading (largest) chunk, for both
        // the adaptive target and explicit `SMOKESCREEN_CHUNK`-style pins.
        #[test]
        fn guided_chunks_cover_everything_and_stay_balanced(
            len in 1usize..5_000,
            workers in 1usize..17,
            pin_raw in 0usize..600,
        ) {
            // 0 means "no pin": exercise the adaptive guided target.
            let pin = (pin_raw > 0).then_some(pin_raw);
            let mut counts = vec![0usize; workers];
            let mut next = 0usize;
            let mut turn = 0usize;
            let mut first_chunk = 0usize;
            while next < len {
                let size = claim_size(len - next, workers, pin);
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
