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
//! Profile generation now runs candidate cells on `rt::pool` workers, so
//! the cache is shard-locked: keys hash to one of [`SHARD_COUNT`]
//! independent `RwLock`ed maps, letting workers at different resolutions
//! proceed without contending on a single lock.
//!
//! # Per-worker memo layer
//!
//! Shard `RwLock`s still serialize the hottest path: a warm fraction-ladder
//! sweep is ~100% reads, and readers at the *same* resolution all hammer
//! the same few shards. Each cache therefore carries a read-through memo
//! layer keyed on [`pool::memo_slot`](smokescreen_rt::pool::memo_slot) —
//! one private map per worker thread. A memo hit never touches a shard
//! lock; a shard *read* hit is copied into the calling worker's memo once
//! and served locally forever after. Cold inserts deliberately do **not**
//! warm the memo — a workload that touches each key exactly once (a
//! single-cell sweep) would pay a wasted clone per frame — so only keys
//! that are actually re-read are ever copied. Memos are
//! write-behind-never: they only mirror entries that are already in a
//! shard, so they cannot change which keys exist. Poisoned and failed keys are never memoized (they
//! are never cached at all), preserving the chaos contract below.
//! Accounting is defined to be **schedule-independent**:
//!
//! * `model_runs` counts *distinct* `(frame, resolution)` keys materialized
//!   — if two workers race on the same cold key, the losing insert is
//!   reclassified as a cache hit, so the totals never depend on thread
//!   interleaving;
//! * `model_time_ms` is derived as `Σ_res runs(res) · cost(res)` over a
//!   sorted per-resolution run ledger rather than a float accumulator, so
//!   it is bit-identical across thread counts and equals
//!   `model_runs · T_model` exactly when one resolution is in play.
//!
//! # Fault injection
//!
//! A cache built with [`OutputCache::with_faults`] routes every cold
//! model call through [`detect_with_retry`]: transient failures are
//! retried under the deterministic backoff of a [`RetryPolicy`], timeouts
//! and exhausted retries surface as typed [`ModelError`]s from
//! [`try_detect`](OutputCache::try_detect), and a `CachePoison` fault
//! marks the key uncacheable (its output is served but never stored, so
//! every request re-runs the model — an evicting shard). Fault accounting
//! follows the same schedule-independence rules as run accounting: for a
//! key that ends up cached, only the thread whose insert wins accounts
//! its retries/latency; for keys that are never cached (failures and
//! poisoned keys) every call accounts itself, and the number of logical
//! calls is fixed by the work, not the schedule. Simulated fault latency
//! accumulates in integer microseconds, so sums are order-independent.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use smokescreen_rt::fault::FaultPlan;
use smokescreen_rt::pool::{memo_slot, MEMO_SLOTS};
use smokescreen_rt::sync::{Mutex, RwLock};
use smokescreen_video::{Frame, ObjectClass, Resolution};

use crate::detector::{Detections, Detector, ModelResult};
use crate::oracle::{detect_with_retry, RetryOutcome, RetryPolicy};

/// Cache key: frame id × resolution (the detector is fixed per cache).
type Key = (u64, Resolution);

/// Number of independent lock shards.
pub const SHARD_COUNT: usize = 16;

/// Maps a key to its shard via a SplitMix64-style mix of the frame id and
/// resolution, so consecutive frame ids spread across shards.
fn shard_index(key: &Key) -> usize {
    let mut x = key.0 ^ (u64::from(key.1.width) << 32) ^ u64::from(key.1.height);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as usize % SHARD_COUNT
}

/// A caching wrapper around a detector.
///
/// Thread-safe and shard-locked; see the module docs for the concurrency,
/// accounting, and fault-injection contracts.
pub struct OutputCache<'d> {
    detector: &'d dyn Detector,
    shards: Vec<RwLock<HashMap<Key, Detections>>>,
    /// Per-worker read-through memos over the shards, indexed by
    /// [`memo_slot`]. Each mutex is thread-affine in steady state, so
    /// locking it never contends; it only exists so a slot reassigned to
    /// a new thread (or aliased past [`MEMO_SLOTS`] workers) stays sound.
    memos: Vec<Mutex<HashMap<Key, Detections>>>,
    model_runs: AtomicUsize,
    cache_hits: AtomicUsize,
    /// Distinct-key model runs per resolution, ordered so the derived
    /// model-time sum is deterministic.
    runs_by_resolution: Mutex<BTreeMap<Resolution, usize>>,
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
    /// Wraps a detector (no fault injection).
    pub fn new(detector: &'d dyn Detector) -> Self {
        Self::with_fault_plan(detector, None, RetryPolicy::default())
    }

    /// Wraps a detector with a seeded fault plan and retry policy; the
    /// chaos-run constructor.
    pub fn with_faults(detector: &'d dyn Detector, plan: FaultPlan, retry: RetryPolicy) -> Self {
        Self::with_fault_plan(detector, Some(plan), retry)
    }

    fn with_fault_plan(
        detector: &'d dyn Detector,
        fault_plan: Option<FaultPlan>,
        retry: RetryPolicy,
    ) -> Self {
        OutputCache {
            detector,
            shards: (0..SHARD_COUNT).map(|_| RwLock::new(HashMap::new())).collect(),
            memos: (0..MEMO_SLOTS).map(|_| Mutex::new(HashMap::new())).collect(),
            model_runs: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            runs_by_resolution: Mutex::new(BTreeMap::new()),
            fault_plan,
            retry,
            retries: AtomicUsize::new(0),
            faults_injected: AtomicUsize::new(0),
            failed_calls: AtomicUsize::new(0),
            fault_time_us: AtomicU64::new(0),
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &dyn Detector {
        self.detector
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Accounts one distinct-key model run at a resolution.
    fn account_run(&self, res: Resolution) {
        self.model_runs.fetch_add(1, Ordering::Relaxed);
        *self.runs_by_resolution.lock().entry(res).or_insert(0) += 1;
    }

    /// Accounts the fault cost of one successful faulted call.
    fn account_fault(&self, outcome: &RetryOutcome) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.retries
            .fetch_add(outcome.retries as usize, Ordering::Relaxed);
        let us = ((outcome.backoff_ms + outcome.slow_ms) * 1e3).round() as u64;
        self.fault_time_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Runs (or replays) the model on a frame at a resolution, surfacing
    /// injected faults as typed errors. Failed keys are never cached, so
    /// a later call under a cleared plan (or a breaker probe) re-attempts
    /// the model rather than replaying a poisoned result.
    pub fn try_detect(&self, frame: &Frame, res: Resolution) -> ModelResult<Detections> {
        let key = (frame.id, res);
        let memo = &self.memos[memo_slot()];
        if let Some(hit) = memo.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        let shard = &self.shards[shard_index(&key)];
        if let Some(hit) = shard.read().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            let out = hit.clone();
            memo.lock().insert(key, out.clone());
            return Ok(out);
        }
        // Run the model outside the write lock so a slow inference never
        // blocks the shard. Detectors are deterministic per key, so a
        // racing duplicate computes the identical output.
        match detect_with_retry(self.detector, frame, res, self.fault_plan.as_ref(), &self.retry)
        {
            Ok(outcome) => {
                if outcome.poisoned {
                    // Poisoned shard: serve the output but never store it.
                    // Every call to this key is real model work, so every
                    // call accounts a run; the logical call count is fixed
                    // by the work items, keeping totals replayable.
                    self.account_run(res);
                    self.account_fault(&outcome);
                    return Ok(outcome.detections);
                }
                // The fresh key is NOT mirrored into the memo here: a
                // workload that touches each key once (a single-cell
                // generation sweep) would pay a wasted clone per frame.
                // The memo warms lazily on the first shard *read* hit
                // instead, so only re-read keys are ever copied.
                let mut entries = shard.write();
                match entries.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        // Lost a cold-key race: the winner's insert owns
                        // the model run (and any fault accounting); this
                        // call is reclassified as a hit so totals stay
                        // independent of scheduling.
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        Ok(e.get().clone())
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        self.account_run(res);
                        if outcome.retries > 0 || outcome.slow_ms > 0.0 {
                            self.account_fault(&outcome);
                        }
                        v.insert(outcome.detections.clone());
                        Ok(outcome.detections)
                    }
                }
            }
            Err(e) => {
                // Permanent failure: nothing to cache, so every logical
                // call pays (and accounts) its full retry budget.
                let retries = self.retry.max_attempts.max(1) - 1;
                self.faults_injected.fetch_add(1, Ordering::Relaxed);
                self.failed_calls.fetch_add(1, Ordering::Relaxed);
                self.retries.fetch_add(retries as usize, Ordering::Relaxed);
                let us = (self.retry.total_backoff_ms(retries) * 1e3).round() as u64;
                self.fault_time_us.fetch_add(us, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Runs (or replays) the model on a frame at a resolution. Infallible
    /// companion of [`try_detect`](Self::try_detect) for fault-free
    /// caches; panics if an injected fault surfaces, naming the fallible
    /// entry point to use instead.
    pub fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        self.try_detect(frame, res).unwrap_or_else(|e| {
            panic!("infallible OutputCache::detect hit an injected fault ({e}); chaos callers must use try_detect")
        })
    }

    /// Count of a class, through the cache.
    pub fn count(&self, frame: &Frame, res: Resolution, class: ObjectClass) -> f64 {
        self.try_count(frame, res, class).unwrap_or_else(|e| {
            panic!("infallible OutputCache::count hit an injected fault ({e}); chaos callers must use try_detect/try_count")
        })
    }

    /// Fallible count of a class, surfacing injected faults.
    ///
    /// This is the fraction-ladder hot path: on a memo hit the count is
    /// computed by reference inside the worker's own memo map — no shard
    /// lock, no `Detections` clone, no allocation. A shard hit counts
    /// under the read guard and pays one clone to warm the memo; only
    /// cold keys fall through to the full [`try_detect`](Self::try_detect)
    /// model path.
    pub fn try_count(
        &self,
        frame: &Frame,
        res: Resolution,
        class: ObjectClass,
    ) -> ModelResult<f64> {
        let key = (frame.id, res);
        let memo = &self.memos[memo_slot()];
        if let Some(hit) = memo.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.count(class) as f64);
        }
        {
            let shard = self.shards[shard_index(&key)].read();
            if let Some(hit) = shard.get(&key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let n = hit.count(class) as f64;
                let warm = hit.clone();
                drop(shard);
                memo.lock().insert(key, warm);
                return Ok(n);
            }
        }
        Ok(self.try_detect(frame, res)?.count(class) as f64)
    }

    /// Current accounting snapshot. `model_time_ms` is recomputed from the
    /// per-resolution ledger, so `model_time_ms = Σ runs(res) · cost(res)`
    /// holds exactly at every snapshot — including mid-chaos: poisoned
    /// re-runs enter both sides of the identity, failed calls enter
    /// neither.
    pub fn invocations(&self) -> Invocations {
        let model_time_ms = self
            .runs_by_resolution
            .lock()
            .iter()
            .map(|(&res, &runs)| runs as f64 * self.detector.inference_cost_ms(res))
            .sum();
        Invocations {
            model_runs: self.model_runs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            model_time_ms,
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            failed_calls: self.failed_calls.load(Ordering::Relaxed),
            fault_time_ms: self.fault_time_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Number of distinct `(frame, resolution)` outputs held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yolo::SimYoloV4;
    use smokescreen_rt::fault::FaultMix;
    use smokescreen_rt::pool::Pool;
    use smokescreen_video::synth::DatasetPreset;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn caches_by_frame_and_resolution() {
        let corpus = DatasetPreset::NightStreet.generate(1);
        let yolo = SimYoloV4::new(5);
        let cache = OutputCache::new(&yolo);
        let f = corpus.frame(10).unwrap();
        let r1 = Resolution::square(608);
        let r2 = Resolution::square(320);

        let a = cache.detect(f, r1);
        let b = cache.detect(f, r1);
        assert_eq!(a, b);
        let _ = cache.detect(f, r2);

        let inv = cache.invocations();
        assert_eq!(inv.model_runs, 2);
        assert_eq!(inv.cache_hits, 1);
        assert!(inv.model_time_ms > 0.0);
        assert_eq!(inv.retries, 0);
        assert_eq!(inv.faults_injected, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_output_identical_to_direct() {
        let corpus = DatasetPreset::Detrac.generate(2);
        let yolo = SimYoloV4::new(6);
        let cache = OutputCache::new(&yolo);
        let f = corpus.frame(55).unwrap();
        let res = Resolution::square(416);
        assert_eq!(cache.detect(f, res), yolo.detect(f, res));
    }

    #[test]
    fn model_time_is_exactly_runs_times_cost() {
        let corpus = DatasetPreset::Detrac.generate(3);
        let yolo = SimYoloV4::new(7);
        let cache = OutputCache::new(&yolo);
        let res = Resolution::square(320);
        for i in 0..40 {
            let _ = cache.detect(corpus.frame(i % 25).unwrap(), res);
        }
        let inv = cache.invocations();
        assert_eq!(inv.model_runs, 25);
        assert_eq!(inv.cache_hits, 15);
        assert_eq!(
            inv.model_time_ms,
            inv.model_runs as f64 * smokescreen_models_cost(&yolo, res),
            "single-resolution model time must be exactly runs × cost"
        );
    }

    #[test]
    fn concurrent_access_keeps_accounting_schedule_independent() {
        let corpus = DatasetPreset::NightStreet.generate(4).slice(0, 200);
        let yolo = SimYoloV4::new(8);
        let cache = OutputCache::new(&yolo);
        let res = Resolution::square(512);
        // 8 threads all touch every frame: distinct keys = 200, total
        // calls = 1600, regardless of interleaving.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for f in corpus.frames() {
                        let _ = cache.detect(f, res);
                    }
                });
            }
        });
        let inv = cache.invocations();
        assert_eq!(inv.model_runs, 200, "distinct keys only");
        assert_eq!(inv.model_runs + inv.cache_hits, 1600, "every call counted once");
        assert_eq!(cache.len(), 200);
        assert_eq!(
            inv.model_time_ms,
            200.0 * smokescreen_models_cost(&yolo, res)
        );
    }

    #[test]
    fn faulted_accounting_is_schedule_independent() {
        // The chaos twin of the test above: under a fault plan, every
        // accounting total (runs, hits+runs, retries, faults, failures,
        // fault time) must be invariant across thread interleavings, and
        // model_time_ms == runs · T_model must keep holding exactly.
        let corpus = DatasetPreset::NightStreet.generate(9).slice(0, 300);
        let yolo = SimYoloV4::new(10);
        let res = Resolution::square(512);
        let plan = FaultPlan::new(21, 0.3);
        let run = |threads: usize| {
            let cache = OutputCache::with_faults(&yolo, plan, RetryPolicy::default());
            let frames: Vec<_> = corpus.frames().iter().collect();
            let pool = Pool::with_threads(threads);
            // Every frame requested 4 times: fixed logical call count.
            let reps: Vec<usize> = (0..4 * frames.len()).collect();
            let _: Vec<_> = pool.parallel_map(&reps, |_, &i| {
                cache.try_detect(frames[i % frames.len()], res).ok()
            });
            cache.invocations()
        };
        let seq = run(1);
        assert!(seq.faults_injected > 0, "plan must actually fire");
        assert!(seq.failed_calls > 0);
        assert!(seq.retries > 0);
        assert!(seq.fault_time_ms > 0.0);
        for threads in [2usize, 8, 16] {
            let par = run(threads);
            assert_eq!(par, seq, "accounting diverged at {threads} threads");
        }
        assert_eq!(
            seq.model_time_ms,
            seq.model_runs as f64 * smokescreen_models_cost(&yolo, res)
        );
    }

    #[test]
    fn memo_layer_keeps_counts_and_accounting_schedule_independent() {
        // The contention-free read path: after a warm-up pass, repeated
        // try_count sweeps are served from per-worker memos. Totals must
        // stay schedule-independent (runs == distinct keys, every logical
        // call exactly one run or one hit) and every count must equal the
        // raw detector's, at any thread count.
        let corpus = DatasetPreset::Detrac.generate(14).slice(0, 150);
        let yolo = SimYoloV4::new(14);
        let res = Resolution::square(416);
        let class = ObjectClass::Car;
        let run = |threads: usize| {
            let cache = OutputCache::new(&yolo);
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
    fn poisoned_keys_are_never_cached_but_stay_consistent() {
        let corpus = DatasetPreset::Detrac.generate(5).slice(0, 400);
        let yolo = SimYoloV4::new(11);
        let res = Resolution::square(416);
        // Poison-only plan: every faulted call succeeds but is uncacheable.
        let poison = FaultMix { timeout: 0.0, transient: 0.0, slow: 0.0, poison: 1.0 };
        let plan = FaultPlan::with_stream(3, 0.2, poison);
        let cache = OutputCache::with_faults(&yolo, plan, RetryPolicy::default());
        for _ in 0..2 {
            for f in corpus.frames() {
                let got = cache.try_detect(f, res).expect("poison never fails calls");
                assert_eq!(got, yolo.detect(f, res), "payloads are never corrupted");
            }
        }
        let inv = cache.invocations();
        assert!(inv.faults_injected > 0, "poison must fire");
        assert_eq!(inv.failed_calls, 0);
        // Poisoned keys re-ran on the second pass: strictly more runs than
        // distinct cached keys, and the time identity still holds exactly.
        assert!(inv.model_runs > cache.len());
        assert_eq!(
            inv.model_time_ms,
            inv.model_runs as f64 * smokescreen_models_cost(&yolo, res)
        );
    }

    #[test]
    fn infallible_detect_panics_with_guidance_under_faults() {
        let corpus = DatasetPreset::Detrac.generate(6).slice(0, 200);
        let yolo = SimYoloV4::new(12);
        let res = Resolution::square(320);
        // Timeout-only plan: some call will fail permanently.
        let timeouts = FaultMix { timeout: 1.0, transient: 0.0, slow: 0.0, poison: 0.0 };
        let plan = FaultPlan::with_stream(1, 0.5, timeouts);
        let cache = OutputCache::with_faults(&yolo, plan, RetryPolicy::default());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for f in corpus.frames() {
                let _ = cache.detect(f, res);
            }
        }));
        std::panic::set_hook(hook);
        let payload = outcome.expect_err("a 50% timeout plan must hit detect()");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("try_detect"), "panic must name the fallible API: {msg}");
    }

    #[test]
    fn worker_death_leaves_shard_accounting_consistent() {
        // Regression for the rt::pool worker-death path (companion to the
        // pool's own panic-propagation proptests): a task that dies after
        // partial cache writes must not corrupt shard accounting — the
        // §5.3.1 identity model_time_ms == model_runs · T_model and
        // runs == distinct cached keys must survive the panic, and the
        // surviving entries must replay the exact detector outputs.
        let corpus = DatasetPreset::NightStreet.generate(7).slice(0, 240);
        let yolo = SimYoloV4::new(13);
        let res = Resolution::square(512);
        let cache = OutputCache::new(&yolo);
        let pool = Pool::with_threads(4);
        let tasks: Vec<usize> = (0..48).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&tasks, |_, &t| {
                for i in 0..5 {
                    let f = corpus.frame(t * 5 + i).unwrap();
                    let _ = cache.detect(f, res);
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
        // The surviving shards serve correct payloads.
        for i in 0..corpus.len() {
            let f = corpus.frame(i).unwrap();
            assert_eq!(cache.detect(f, res), yolo.detect(f, res));
        }
        assert_eq!(cache.invocations().model_runs, corpus.len());
    }

    /// Cost helper without importing the trait into every assert.
    fn smokescreen_models_cost(d: &SimYoloV4, res: Resolution) -> f64 {
        Detector::inference_cost_ms(d, res)
    }
}
