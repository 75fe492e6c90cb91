//! Model-output cache.
//!
//! The §3.3.2 reuse strategy depends on never re-running the network for a
//! `(frame, resolution)` pair it has already processed: outputs for frames
//! sampled at a low rate are reused when the rate is raised, and across
//! intervention candidates that share a resolution. The cache also counts
//! invocations and accumulated simulated inference time, which is how the
//! §5.3.1 profile-generation-time experiment measures "model time" without
//! a GPU.
//!
//! # One dense table per resolution
//!
//! Frame ids are dense corpus indices (`VideoCorpus::new` renumbers them
//! `0..len`), so the cache is built with the corpus length and keeps one
//! slot per frame for each resolution it is asked for. A resolution's
//! table is created on its first request and linked into a lock-free,
//! append-only chain. A frame id outside the table is a caller bug and
//! panics.
//!
//! Every aggregate reads only a frame's count of one class (the paper's
//! `X_i`), so a slot is a [`OnceLock`] of the key's per-class counts
//! (`[u32; ObjectClass::ALL.len()]`), not of its detections.
//!
//! * **Hit.** The chain walk finds the resolution's table, the frame id
//!   indexes the slot, and the class indexes its counts: no hashing, no
//!   clone, no allocation. [`try_count_each`](OutputCache::try_count_each),
//!   the fraction ladder's batched fetch, walks the chain and takes the
//!   table's read lock once per batch, not per frame.
//! * **Cold miss.** `get_or_init` runs the model once and stores the
//!   counts of its detections. Workers that ask for the same key meanwhile
//!   wait for that call and then read its counts; none runs the model
//!   again.
//! * **Panic.** An initialiser that panics leaves its slot empty, so the
//!   next caller runs the model again.
//! * **Release.** [`release`](OutputCache::release) frees a resolution's
//!   slot array once its caller is done with it; there are no per-frame
//!   allocations to free. Profile generation releases each resolution when
//!   its last cell finishes, so only the resolutions in flight hold
//!   memory. The run counters survive release.
//!
//! Accounting is **schedule-independent**:
//!
//! * `model_runs` counts one run per stored key, taken by the call that
//!   filled the slot; every other call to a stored key, including one
//!   that waited for the fill, is a hit. Detector calls therefore equal
//!   `model_runs` exactly;
//! * `model_time_ms` is derived as `Σ_res runs(res) · cost(res)` from the
//!   tables' run counters, summed in resolution order rather than in a
//!   float accumulator, so it is bit-identical across thread counts and
//!   equals `model_runs · T_model` exactly when one resolution is in play.
//!
//! # Fault injection
//!
//! A cache built with [`OutputCache::with_faults`] routes every model call
//! through [`detect_with_retry`]: transient failures are retried under the
//! deterministic backoff of a [`RetryPolicy`], timeouts and exhausted
//! retries surface as typed [`ModelError`](crate::ModelError)s from
//! [`try_count`](OutputCache::try_count), and a `CachePoison` fault marks
//! the key uncacheable.
//!
//! The verdict comes before the slot. What a key's call does is a pure
//! function of its call key ([`CallVerdict::of`]), so the cache decides it
//! before running the model:
//!
//! * a storable key (a clean, slow or cleared-transient call) goes
//!   through its slot; the call that fills it runs the model and accounts
//!   its retries and slow-response latency once. Models never fail
//!   ([`Detector::detect`] is infallible), so a fill always stores;
//! * a poisoned or failing key never enters a slot. Every call to it runs
//!   [`detect_with_retry`] itself: a poisoned call runs the model and
//!   accounts a run and a fault, a failed call accounts its whole retry
//!   budget and a failure. Nobody waits on such a key.
//!
//! Every total is thus fixed by the logical calls, not by the schedule.
//! Simulated fault latency accumulates in integer microseconds, so its sum
//! is order-independent too.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLockReadGuard};

use smokescreen_rt::fault::FaultPlan;
use smokescreen_rt::sync::RwLock;
use smokescreen_video::{Frame, ObjectClass, Resolution};

use crate::detector::{Detections, Detector, ModelResult};
use crate::oracle::{detect_with_retry, CallVerdict, RetryPolicy};

/// A key's output as the table keeps it: how many detections of each
/// class the model emitted, indexed by [`ObjectClass::index`].
type Counts = [u32; ObjectClass::ALL.len()];

/// A table's slots, one per frame.
type Slots = Box<[OnceLock<Counts>]>;

/// One resolution's outputs, indexed by frame id.
struct Table {
    res: Resolution,
    /// Allocated on the first lookup, emptied by
    /// [`release`](OutputCache::release).
    slots: RwLock<Slots>,
    /// Model runs at this resolution: one per stored key, plus one per
    /// call to a poisoned key.
    runs: AtomicUsize,
    /// The table of the next resolution requested, once there is one.
    next: OnceLock<Box<Table>>,
}

/// A caching wrapper around a detector.
///
/// Thread-safe; see the module docs for the table, accounting, and
/// fault-injection contracts.
pub struct OutputCache<'d> {
    detector: &'d dyn Detector,
    /// Slots per table: the corpus length.
    frames: usize,
    /// Head of the per-resolution table chain.
    tables: OnceLock<Box<Table>>,
    cache_hits: AtomicUsize,
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    retries: AtomicUsize,
    faults_injected: AtomicUsize,
    failed_calls: AtomicUsize,
    /// Simulated fault latency (backoff + slow responses) in integer
    /// microseconds — integer adds commute, so the total is
    /// schedule-independent.
    fault_time_us: AtomicU64,
}

/// Invocation accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Invocations {
    /// Times the underlying model actually ran.
    pub model_runs: usize,
    /// Times a cached output was served.
    pub cache_hits: usize,
    /// Simulated total model time in milliseconds.
    pub model_time_ms: f64,
    /// Retries spent clearing transient faults.
    pub retries: usize,
    /// Calls that encountered an injected fault of any kind.
    pub faults_injected: usize,
    /// Calls that failed permanently (timeout / retry budget exhausted).
    pub failed_calls: usize,
    /// Simulated fault latency (retry backoff + slow responses), ms.
    pub fault_time_ms: f64,
}

impl<'d> OutputCache<'d> {
    /// Wraps a detector for a corpus of `frames` frames (no fault
    /// injection).
    pub fn new(detector: &'d dyn Detector, frames: usize) -> Self {
        Self::with_fault_plan(detector, frames, None, RetryPolicy::default())
    }

    /// Wraps a detector for a corpus of `frames` frames with a seeded
    /// fault plan and retry policy; the chaos-run constructor.
    pub fn with_faults(
        detector: &'d dyn Detector,
        frames: usize,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Self {
        Self::with_fault_plan(detector, frames, Some(plan), retry)
    }

    fn with_fault_plan(
        detector: &'d dyn Detector,
        frames: usize,
        fault_plan: Option<FaultPlan>,
        retry: RetryPolicy,
    ) -> Self {
        OutputCache {
            detector,
            frames,
            tables: OnceLock::new(),
            cache_hits: AtomicUsize::new(0),
            fault_plan,
            retry,
            retries: AtomicUsize::new(0),
            faults_injected: AtomicUsize::new(0),
            failed_calls: AtomicUsize::new(0),
            fault_time_us: AtomicU64::new(0),
        }
    }

    /// The table for a resolution, appending it to the chain on first
    /// request. Two workers appending at once agree through the link's
    /// `OnceLock`: the loser finds the winner's table and walks on.
    fn table(&self, res: Resolution) -> &Table {
        let mut link = &self.tables;
        loop {
            let table = link.get_or_init(|| {
                Box::new(Table {
                    res,
                    slots: RwLock::default(),
                    runs: AtomicUsize::new(0),
                    next: OnceLock::new(),
                })
            });
            if table.res == res {
                return table;
            }
            link = &table.next;
        }
    }

    /// A read guard on the table's slots, allocating them on first use
    /// (or again after a [`release`](Self::release)).
    fn slots<'t>(&self, table: &'t Table) -> RwLockReadGuard<'t, Slots> {
        loop {
            let slots = table.slots.read();
            if slots.len() == self.frames {
                return slots;
            }
            drop(slots);
            let mut slots = table.slots.write();
            if slots.len() != self.frames {
                *slots = (0..self.frames).map(|_| OnceLock::new()).collect();
            }
        }
    }

    /// Every table, in the order resolutions were first requested.
    fn tables(&self) -> impl Iterator<Item = &Table> {
        std::iter::successors(self.tables.get(), |t| t.next.get()).map(|t| &**t)
    }

    /// Accounts one faulted call: its retries and simulated latency.
    fn account_fault(&self, retries: u32, latency_ms: f64) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.retries.fetch_add(retries as usize, Ordering::Relaxed);
        let us = (latency_ms * 1e3).round() as u64;
        self.fault_time_us.fetch_add(us, Ordering::Relaxed);
    }

    /// The key's count of `class`, running the model at most once per
    /// storable key (see the module docs). Keys the fault plan poisons or
    /// fails bypass the table, and every call to them runs and accounts
    /// itself.
    fn lookup(
        &self,
        table: &Table,
        slots: &[OnceLock<Counts>],
        frame: &Frame,
        class: ObjectClass,
    ) -> ModelResult<f64> {
        let res = table.res;
        let slot = usize::try_from(frame.id)
            .ok()
            .and_then(|i| slots.get(i))
            .unwrap_or_else(|| {
                panic!(
                    "frame id {} is outside this OutputCache's {} frames; build the cache with the corpus length",
                    frame.id, self.frames
                )
            });
        if let Some(hit) = slot.get() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(f64::from(hit[class.index()]));
        }
        let plan = self.fault_plan.as_ref();
        let CallVerdict::Output { retries, backoff_ms, slow_ms, poisoned: false } =
            CallVerdict::of(plan, frame.id, res, &self.retry)
        else {
            return self.call_unstored(table, frame).map(|d| d.count(class) as f64);
        };
        let mut ran = false;
        let counts = slot.get_or_init(|| {
            ran = true;
            // A model that panics here leaves the slot empty and nothing
            // accounted.
            let mut counts = Counts::default();
            for d in self.detector.detect(frame, res).items {
                counts[d.class.index()] += 1;
            }
            table.runs.fetch_add(1, Ordering::Relaxed);
            if retries > 0 || slow_ms > 0.0 {
                self.account_fault(retries, backoff_ms + slow_ms);
            }
            counts
        });
        if !ran {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(f64::from(counts[class.index()]))
    }

    /// One call to a key that never enters the table: poisoned (served and
    /// accounted as a run, never stored) or failing (its whole retry
    /// budget accounted).
    fn call_unstored(&self, table: &Table, frame: &Frame) -> ModelResult<Detections> {
        let plan = self.fault_plan.as_ref();
        match detect_with_retry(self.detector, frame, table.res, plan, &self.retry) {
            Ok(outcome) => {
                table.runs.fetch_add(1, Ordering::Relaxed);
                self.account_fault(outcome.retries, outcome.backoff_ms + outcome.slow_ms);
                Ok(outcome.detections)
            }
            Err(e) => {
                let retries = self.retry.max_attempts.max(1) - 1;
                self.failed_calls.fetch_add(1, Ordering::Relaxed);
                self.account_fault(retries, self.retry.total_backoff_ms(retries));
                Err(e)
            }
        }
    }

    /// Count of a class, through the cache. Panics if an injected fault
    /// surfaces; chaos callers use [`try_count`](Self::try_count).
    pub fn count(&self, frame: &Frame, res: Resolution, class: ObjectClass) -> f64 {
        self.try_count(frame, res, class).unwrap_or_else(|e| {
            panic!("infallible OutputCache::count hit an injected fault ({e}); chaos callers must use try_count")
        })
    }

    /// Fallible count of a class, surfacing injected faults as typed
    /// [`ModelError`](crate::ModelError)s. Failed keys are never stored, so
    /// a later call re-attempts the model rather than replaying a failure.
    pub fn try_count(
        &self,
        frame: &Frame,
        res: Resolution,
        class: ObjectClass,
    ) -> ModelResult<f64> {
        let mut count = None;
        self.try_count_each([frame], res, class, |n| count = Some(n));
        count.expect("one frame yields one count")
    }

    /// [`try_count`](Self::try_count) over a batch of frames at one
    /// resolution, handing each result to `each` in order. This is the
    /// fraction-ladder hot path: the table is found and locked once for
    /// the whole batch.
    pub fn try_count_each<'f>(
        &self,
        frames: impl IntoIterator<Item = &'f Frame>,
        res: Resolution,
        class: ObjectClass,
        mut each: impl FnMut(ModelResult<f64>),
    ) {
        let table = self.table(res);
        let slots = self.slots(table);
        for frame in frames {
            each(self.lookup(table, &slots, frame, class));
        }
    }

    /// Frees a resolution's slots, one array of per-class counts. The
    /// caller promises no further lookups at `res`; one that comes anyway
    /// finds an empty table and runs the model again. Run accounting is
    /// kept.
    pub fn release(&self, res: Resolution) {
        if let Some(table) = self.tables().find(|t| t.res == res) {
            *table.slots.write() = Slots::default();
        }
    }

    /// Current accounting snapshot. `model_time_ms` is recomputed from the
    /// per-resolution run counters, so `model_time_ms = Σ runs(res) ·
    /// cost(res)` holds exactly at every snapshot — including mid-chaos:
    /// poisoned re-runs enter both sides of the identity, failed calls
    /// enter neither.
    pub fn invocations(&self) -> Invocations {
        let mut runs: Vec<(Resolution, usize)> = self
            .tables()
            .map(|t| (t.res, t.runs.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        runs.sort_unstable();
        Invocations {
            model_runs: runs.iter().map(|&(_, n)| n).sum(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            model_time_ms: runs
                .iter()
                .map(|&(res, n)| n as f64 * self.detector.inference_cost_ms(res))
                .sum(),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            failed_calls: self.failed_calls.load(Ordering::Relaxed),
            fault_time_ms: self.fault_time_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Number of distinct `(frame, resolution)` outputs held.
    pub fn len(&self) -> usize {
        self.tables()
            .map(|t| t.slots.read().iter().filter(|s| s.get().is_some()).count())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yolo::SimYoloV4;
    use smokescreen_rt::fault::FaultMix;
    use smokescreen_rt::pool::Pool;
    use smokescreen_rt::proptest::prelude::*;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::VideoCorpus;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// `try_count` of every class in [`ObjectClass::ALL`], in that order;
    /// every class is asked even after one fails.
    fn counts(cache: &OutputCache<'_>, f: &Frame, res: Resolution) -> ModelResult<Vec<f64>> {
        ObjectClass::ALL.map(|c| cache.try_count(f, res, c)).into_iter().collect()
    }

    /// The detector's own count of every class in [`ObjectClass::ALL`].
    fn direct(d: &dyn Detector, f: &Frame, res: Resolution) -> Vec<f64> {
        let detections = d.detect(f, res);
        ObjectClass::ALL.iter().map(|&c| detections.count(c) as f64).collect()
    }

    const CLASSES: usize = ObjectClass::ALL.len();

    #[test]
    fn caches_by_frame_and_resolution() {
        let corpus = DatasetPreset::NightStreet.generate(1);
        let yolo = SimYoloV4::new(5);
        let cache = OutputCache::new(&yolo, corpus.len());
        let f = corpus.frame(10).unwrap();
        let r1 = Resolution::square(608);
        let r2 = Resolution::square(320);

        let a = counts(&cache, f, r1).unwrap();
        let b = counts(&cache, f, r1).unwrap();
        assert_eq!(a, b);
        let _ = counts(&cache, f, r2);

        let inv = cache.invocations();
        assert_eq!(inv.model_runs, 2);
        assert_eq!(inv.cache_hits, 3 * CLASSES - 2);
        assert!(inv.model_time_ms > 0.0);
        assert_eq!(inv.retries, 0);
        assert_eq!(inv.faults_injected, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_output_identical_to_direct() {
        let corpus = DatasetPreset::Detrac.generate(2);
        let yolo = SimYoloV4::new(6);
        let cache = OutputCache::new(&yolo, corpus.len());
        let f = corpus.frame(55).unwrap();
        let res = Resolution::square(416);
        assert_eq!(counts(&cache, f, res).unwrap(), direct(&yolo, f, res));
    }

    #[test]
    fn model_time_is_exactly_runs_times_cost() {
        let corpus = DatasetPreset::Detrac.generate(3);
        let yolo = SimYoloV4::new(7);
        let cache = OutputCache::new(&yolo, corpus.len());
        let res = Resolution::square(320);
        for i in 0..40 {
            let _ = counts(&cache, corpus.frame(i % 25).unwrap(), res);
        }
        let inv = cache.invocations();
        assert_eq!(inv.model_runs, 25);
        assert_eq!(inv.cache_hits, 40 * CLASSES - 25);
        assert_eq!(
            inv.model_time_ms,
            inv.model_runs as f64 * smokescreen_models_cost(&yolo, res),
            "single-resolution model time must be exactly runs × cost"
        );
    }

    #[test]
    fn faulted_accounting_is_schedule_independent() {
        // The fault rules: the verdict comes before the slot, so poisoned
        // and failed keys are never stored, and every call to them runs
        // and accounts itself. Nobody waits on them, so every total is
        // fixed by the calls: 2, 8 and 16 threads hammering every key match
        // one thread making the same calls, field for field, whether the
        // threads are scoped threads or the production pool's workers.
        let corpus = DatasetPreset::NightStreet.generate(9).slice(0, 240);
        let yolo = SimYoloV4::new(10);
        let res = Resolution::square(512);
        let (plan, retry) = (FaultPlan::new(21, 0.3), RetryPolicy::default());
        const CALLS_PER_KEY: usize = 48;
        let run = |threads: usize, pooled: bool| {
            let counted = Counting::new(&yolo);
            let cache = OutputCache::with_faults(&counted, corpus.len(), plan, retry);
            let sweep = || {
                for f in corpus.frames() {
                    if let Ok(n) = counts(&cache, f, res) {
                        assert_eq!(n, direct(&yolo, f, res), "payloads are never corrupted");
                    }
                }
            };
            if pooled {
                let sweeps: Vec<usize> = (0..CALLS_PER_KEY).collect();
                Pool::with_threads(threads).parallel_map(&sweeps, |_, _| sweep());
            } else {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| (0..CALLS_PER_KEY / threads).for_each(|_| sweep()));
                    }
                });
            }
            (cache.invocations(), cache.len(), counted.calls())
        };

        let (mut stored, mut poisoned, mut failed) = (0usize, 0usize, 0usize);
        for f in corpus.frames() {
            match CallVerdict::of(Some(&plan), f.id, res, &retry) {
                CallVerdict::Output { poisoned: false, .. } => stored += 1,
                CallVerdict::Output { poisoned: true, .. } => poisoned += 1,
                CallVerdict::Timeout | CallVerdict::Exhausted => failed += 1,
            }
        }
        assert!(stored > 0 && poisoned > 0 && failed > 0, "plan must hit all three kinds");

        let calls_per_key = CALLS_PER_KEY * CLASSES;
        let seq = run(1, false);
        let (inv, len, calls) = seq;
        assert_eq!(len, stored, "only storable keys are stored");
        assert_eq!(inv.model_runs, stored + poisoned * calls_per_key, "each poisoned call runs");
        assert_eq!(calls, inv.model_runs, "every run is one detector call");
        assert_eq!(inv.cache_hits, stored * (calls_per_key - 1));
        assert_eq!(inv.failed_calls, failed * calls_per_key, "each failed call pays");
        assert!(inv.retries > 0 && inv.fault_time_ms > 0.0);
        assert_eq!(inv.model_time_ms, inv.model_runs as f64 * smokescreen_models_cost(&yolo, res));
        for threads in [2usize, 8, 16] {
            assert_eq!(run(threads, false), seq, "accounting diverged at {threads} threads");
            assert_eq!(run(threads, true), seq, "accounting diverged at {threads} pool workers");
        }
    }

    #[test]
    fn warm_counts_and_accounting_are_schedule_independent() {
        // Workers race on every cold key, then repeated try_count sweeps
        // read the counts in the table's slots. Totals must stay
        // schedule-independent (runs == distinct keys == detector calls,
        // every logical call exactly one run or one hit) and every count
        // must equal the raw detector's, at any thread count.
        let corpus = DatasetPreset::Detrac.generate(14).slice(0, 150);
        let yolo = SimYoloV4::new(14);
        let res = Resolution::square(416);
        let class = ObjectClass::Car;
        let run = |threads: usize| {
            let counted = Counting::new(&yolo);
            let cache = OutputCache::new(&counted, corpus.len());
            let pool = Pool::with_threads(threads);
            let frames: Vec<_> = corpus.frames().iter().collect();
            // 6 passes over every frame: 900 logical calls, 150 distinct.
            let passes: Vec<usize> = (0..6 * frames.len()).collect();
            let counts = pool.parallel_map(&passes, |_, &i| {
                let f = frames[i % frames.len()];
                cache.try_count(f, res, class).expect("fault-free cache")
            });
            for (i, &n) in counts.iter().enumerate() {
                let f = frames[i % frames.len()];
                assert_eq!(n, yolo.detect(f, res).count(class) as f64);
            }
            let inv = cache.invocations();
            assert_eq!(inv.model_runs, 150, "distinct keys only at {threads} threads");
            assert_eq!(counted.calls(), 150, "a cold key runs the model once at {threads} threads");
            assert_eq!(inv.model_time_ms, 150.0 * smokescreen_models_cost(&yolo, res));
            assert_eq!(
                inv.model_runs + inv.cache_hits,
                900,
                "every call counted once at {threads} threads"
            );
            assert_eq!(cache.len(), 150);
            inv
        };
        let seq = run(1);
        for threads in [2usize, 8, 16] {
            assert_eq!(run(threads), seq, "accounting diverged at {threads} threads");
        }
    }

    #[test]
    fn infallible_count_panics_with_guidance_under_faults() {
        let corpus = DatasetPreset::Detrac.generate(6).slice(0, 200);
        let yolo = SimYoloV4::new(12);
        let res = Resolution::square(320);
        // Timeout-only plan: some call will fail permanently.
        let timeouts = FaultMix { timeout: 1.0, transient: 0.0, slow: 0.0, poison: 0.0 };
        let plan = FaultPlan::with_stream(1, 0.5, timeouts);
        let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for f in corpus.frames() {
                for class in ObjectClass::ALL {
                    let _ = cache.count(f, res, class);
                }
            }
        }));
        std::panic::set_hook(hook);
        let payload = outcome.expect_err("a 50% timeout plan must hit count()");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("try_count"), "panic must name the fallible API: {msg}");
    }

    #[test]
    fn worker_death_leaves_shard_accounting_consistent() {
        // Regression for the rt::pool worker-death path (companion to the
        // pool's own panic-propagation proptests): a task that dies after
        // partial cache writes must not corrupt table accounting — the
        // §5.3.1 identity model_time_ms == model_runs · T_model and
        // runs == distinct cached keys must survive the panic, and the
        // surviving entries must replay the exact detector outputs.
        let corpus = DatasetPreset::NightStreet.generate(7).slice(0, 240);
        let yolo = SimYoloV4::new(13);
        let res = Resolution::square(512);
        let cache = OutputCache::new(&yolo, corpus.len());
        let pool = Pool::with_threads(4);
        let tasks: Vec<usize> = (0..48).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&tasks, |_, &t| {
                for i in 0..5 {
                    let f = corpus.frame(t * 5 + i).unwrap();
                    let _ = counts(&cache, f, res);
                    // Die mid-task after partial writes.
                    if t == 17 && i == 2 {
                        panic!("worker died after partial cache writes");
                    }
                }
            })
        }));
        std::panic::set_hook(hook);
        assert!(outcome.is_err(), "the injected worker death must propagate");

        let inv = cache.invocations();
        assert!(inv.model_runs > 0, "some writes must have landed");
        assert_eq!(
            inv.model_runs,
            cache.len(),
            "every accounted run must correspond to a cached key"
        );
        assert_eq!(
            inv.model_time_ms,
            inv.model_runs as f64 * smokescreen_models_cost(&yolo, res),
            "model_time_ms == model_runs · T_model must survive worker death"
        );
        // The surviving slots serve correct counts.
        for i in 0..corpus.len() {
            let f = corpus.frame(i).unwrap();
            assert_eq!(counts(&cache, f, res).unwrap(), direct(&yolo, f, res));
        }
        assert_eq!(cache.invocations().model_runs, corpus.len());
    }

    #[test]
    fn same_key_misses_wait_for_one_model_call() {
        // Single flight: 8 threads miss on one cold key together. The
        // first runs the (slow) model; the rest wait for its output.
        let corpus = DatasetPreset::Detrac.generate(15).slice(0, 4);
        let yolo = SimYoloV4::new(15);
        let slow = Counting { delay_ms: 30, ..Counting::new(&yolo) };
        let cache = OutputCache::new(&slow, corpus.len());
        let (f, res) = (corpus.frame(2).unwrap(), Resolution::square(320));
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    assert_eq!(counts(&cache, f, res).unwrap(), direct(&yolo, f, res));
                });
            }
        });
        assert_eq!(slow.calls(), 1, "waiters must not run the model");
        let inv = cache.invocations();
        assert_eq!((inv.model_runs, inv.cache_hits), (1, 8 * CLASSES - 1));
    }

    #[test]
    fn a_panicking_initialiser_leaves_its_slot_empty() {
        let corpus = DatasetPreset::Detrac.generate(17).slice(0, 8);
        let yolo = SimYoloV4::new(17);
        let flaky = Counting { panic_on_call: 1, ..Counting::new(&yolo) };
        let cache = OutputCache::new(&flaky, corpus.len());
        let (f, res) = (corpus.frame(3).unwrap(), Resolution::square(416));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let first = catch_unwind(AssertUnwindSafe(|| counts(&cache, f, res)));
        std::panic::set_hook(hook);
        assert!(first.is_err(), "the model's panic must reach the caller");
        assert!(cache.is_empty(), "the slot must stay empty");
        assert_eq!(cache.invocations().model_runs, 0);
        assert_eq!(counts(&cache, f, res).unwrap(), direct(&yolo, f, res));
        assert_eq!(flaky.calls(), 2, "the next caller runs the model again");
        assert_eq!((cache.len(), cache.invocations().model_runs), (1, 1));
    }

    #[test]
    fn release_frees_one_resolution_and_keeps_accounting() {
        let corpus = DatasetPreset::Detrac.generate(18).slice(0, 50);
        let yolo = SimYoloV4::new(18);
        let cache = OutputCache::new(&yolo, corpus.len());
        let (lo, hi) = (Resolution::square(320), Resolution::square(608));
        let mut counts = Vec::new();
        for res in [lo, hi] {
            cache.try_count_each(corpus.frames(), res, ObjectClass::Car, |n| counts.push(n.unwrap()));
        }
        let before = cache.invocations();
        cache.release(lo);
        assert_eq!(cache.len(), corpus.len(), "only the released resolution is freed");
        assert_eq!(cache.invocations(), before, "run accounting survives release");
        for (f, &n) in corpus.frames().iter().zip(&counts[corpus.len()..]) {
            assert_eq!(cache.count(f, hi, ObjectClass::Car), n);
        }
        assert_eq!(cache.invocations().model_runs, before.model_runs);
        // A lookup after release finds a fresh table and runs the model.
        assert_eq!(cache.count(&corpus.frames()[0], lo, ObjectClass::Car), counts[0]);
        assert_eq!(cache.invocations().model_runs, before.model_runs + 1);
    }

    /// Frames in the property's corpus; keys repeat often enough to hit.
    const PROP_FRAMES: usize = 48;
    /// Resolutions the property draws from; 384 is in YOLO's duplicate
    /// band, so some counts exceed the objects in the frame.
    const PROP_RES: [u32; 4] = [320, 384, 416, 608];

    fn prop_corpus() -> &'static VideoCorpus {
        static CORPUS: OnceLock<VideoCorpus> = OnceLock::new();
        CORPUS.get_or_init(|| DatasetPreset::Detrac.generate(23).slice(0, PROP_FRAMES))
    }

    proptest! {
        #[test]
        fn count_table_matches_direct_detection(
            batches in collection::vec(
                (0..PROP_RES.len(), 0..CLASSES, collection::vec(0..PROP_FRAMES, 1..8)),
                1..24,
            ),
            plan_seed in any::<u64>(),
        ) {
            // Random batches of (frame, resolution, class) keys under a 5%
            // fault plan: a one-frame batch goes through try_count, a longer
            // one through try_count_each. Every served count must be the
            // detector's own, every failure a failing verdict, every call
            // one run, hit or failure, and the results and the accounting
            // must not depend on the width.
            let corpus = prop_corpus();
            let yolo = SimYoloV4::new(23);
            let (plan, retry) = (FaultPlan::new(plan_seed, 0.05), RetryPolicy::default());
            let key = |&(r, c, _): &(usize, usize, Vec<usize>)| {
                (Resolution::square(PROP_RES[r]), ObjectClass::ALL[c])
            };
            let run = |threads: usize| {
                let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, retry);
                let served = Pool::with_threads(threads).parallel_map(&batches, |_, batch| {
                    let (res, class) = key(batch);
                    match batch.2.as_slice() {
                        &[one] => vec![cache.try_count(&corpus.frames()[one], res, class)],
                        many => {
                            let mut out = Vec::new();
                            let frames = many.iter().map(|&i| &corpus.frames()[i]);
                            cache.try_count_each(frames, res, class, |n| out.push(n));
                            out
                        }
                    }
                });
                let inv = cache.invocations();
                (served, (inv.model_runs, inv.cache_hits, inv.failed_calls))
            };
            let (served, totals) = run(1);
            let calls: usize = batches.iter().map(|b| b.2.len()).sum();
            prop_assert_eq!(totals.0 + totals.1 + totals.2, calls);
            for (batch, results) in batches.iter().zip(&served) {
                let (res, class) = key(batch);
                prop_assert_eq!(results.len(), batch.2.len());
                for (&i, result) in batch.2.iter().zip(results) {
                    let f = &corpus.frames()[i];
                    match result {
                        Ok(n) => prop_assert_eq!(*n, yolo.detect(f, res).count(class) as f64),
                        Err(_) => prop_assert!(matches!(
                            CallVerdict::of(Some(&plan), f.id, res, &retry),
                            CallVerdict::Timeout | CallVerdict::Exhausted
                        )),
                    }
                }
            }
            for threads in [2, 8] {
                let (other, other_totals) = run(threads);
                prop_assert_eq!(&other, &served, "served counts diverged at width {}", threads);
                prop_assert_eq!(other_totals, totals, "accounting diverged at width {}", threads);
            }
        }
    }

    /// A detector wrapper that counts model calls, and can sleep in each
    /// call or panic in one of them.
    struct Counting<'a> {
        inner: &'a dyn Detector,
        calls: std::sync::atomic::AtomicUsize,
        delay_ms: u64,
        /// The 1-based call that panics; 0 for none.
        panic_on_call: usize,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn Detector) -> Self {
            let (calls, delay_ms, panic_on_call) = Default::default();
            Counting { inner, calls, delay_ms, panic_on_call }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl Detector for Counting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn native_resolution(&self) -> Resolution {
            self.inner.native_resolution()
        }
        fn supports(&self, res: Resolution) -> bool {
            self.inner.supports(res)
        }
        fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            assert_ne!(call, self.panic_on_call, "model died mid-call");
            self.inner.detect(frame, res)
        }
        fn inference_cost_ms(&self, res: Resolution) -> f64 {
            self.inner.inference_cost_ms(res)
        }
    }

    /// Cost helper without importing the trait into every assert.
    fn smokescreen_models_cost(d: &SimYoloV4, res: Resolution) -> f64 {
        Detector::inference_cost_ms(d, res)
    }
}
