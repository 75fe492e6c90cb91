//! Chaos suite: deterministic fault injection across the
//! model/cache/generation stack.
//!
//! The contract under test, over a matrix of (fault rate × thread count ×
//! corpus):
//!
//! 1. **Inertness** — with faults disabled (no plan, or a zero-rate
//!    plan), the chaos machinery is byte-invisible: profiles and reports
//!    are identical to the fault-free path, which is itself pinned to the
//!    fig4/fig6 golden snapshots by `tests/golden_outputs.rs`.
//! 2. **Replayability** — the same seed and the same `FaultPlan` produce
//!    byte-identical profiles, fault accounting, and quarantine lists at
//!    1, 2, and 8 worker threads.
//! 3. **Soundness of survivors** — bounds computed over fault-surviving
//!    samples stay valid; that half lives in `tests/bound_validity.rs`
//!    (`bounds_*_under_injected_faults`) at 5% and 20% fault rates.
//! 4. **Single flight** — in every run below the detector sees exactly
//!    `model_runs` calls, at any width, with or without faults.
//!
//! Replay recipe: `SMOKESCREEN_FAULT_SEED` / `SMOKESCREEN_FAULT_RATE`
//! configure the env-driven run below (see EXPERIMENTS.md "chaos
//! matrix"); any chaos failure replays exactly from those two values plus
//! the generator seed.

use smokescreen::core::{
    Aggregate, GenerationReport, GeneratorConfig, Profile, ProfileGenerator, Workload,
};
use smokescreen::degrade::{CandidateGrid, RestrictionIndex};
use smokescreen::models::{Detections, Detector, SimMaskRcnn, SimYoloV4};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::{Frame, ObjectClass, Resolution};
use smokescreen_rt::fault::{FaultMix, FaultPlan, Stream};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Fixture {
    corpus: smokescreen::video::VideoCorpus,
    detector: Box<dyn Detector>,
    grid: CandidateGrid,
}

fn fixture(dataset: DatasetPreset) -> Fixture {
    let corpus = dataset.generate(23).slice(0, 1_500);
    let (detector, resolutions): (Box<dyn Detector>, Vec<Resolution>) = match dataset {
        // Mask R-CNN accepts multiples of 64, YOLO multiples of 32.
        DatasetPreset::NightStreet => (
            Box::new(SimMaskRcnn::new(23)),
            vec![Resolution::square(256), Resolution::square(512)],
        ),
        DatasetPreset::Detrac => (
            Box::new(SimYoloV4::new(23)),
            vec![Resolution::square(320), Resolution::square(608)],
        ),
    };
    let grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1, 0.2],
        resolutions,
        vec![vec![], vec![ObjectClass::Person]],
    );
    Fixture {
        corpus,
        detector,
        grid,
    }
}

/// Counts the model calls that reach the wrapped detector.
struct CountingDetector<'a> {
    inner: &'a dyn Detector,
    calls: AtomicUsize,
}

impl Detector for CountingDetector<'_> {
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
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.detect(frame, res)
    }
    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        self.inner.inference_cost_ms(res)
    }
}

fn generate(
    fx: &Fixture,
    threads: usize,
    faults: Option<FaultPlan>,
) -> (Profile, GenerationReport) {
    let counted = CountingDetector {
        inner: fx.detector.as_ref(),
        calls: AtomicUsize::new(0),
    };
    let workload = Workload {
        corpus: &fx.corpus,
        detector: &counted,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    let out = ProfileGenerator::new(
        &workload,
        &restrictions,
        GeneratorConfig {
            seed: 7,
            threads,
            faults,
            ..GeneratorConfig::default()
        },
    )
    .generate(&fx.grid, None)
    .unwrap();
    // Single flight: the model runs once per stored key, and a poisoned
    // call runs it and accounts a run while a failed call does neither,
    // so the detector sees exactly `model_runs` calls.
    let calls = counted.calls.load(Ordering::Relaxed);
    assert_eq!(
        calls, out.1.model_runs,
        "{threads} threads: detector calls != model_runs"
    );
    out
}

/// Deterministic (schedule-independent) slice of a report: everything
/// except the measured wall-clock estimation timings.
fn chaos_fields(r: &GenerationReport) -> (usize, usize, f64, usize, usize, f64, usize, Vec<String>) {
    (
        r.model_runs,
        r.cache_hits,
        r.model_time_ms,
        r.retries,
        r.faults_injected,
        r.fault_time_ms,
        r.frames_lost,
        r.degraded_cells.clone(),
    )
}

#[test]
fn disabled_faults_are_byte_invisible() {
    for dataset in [DatasetPreset::NightStreet, DatasetPreset::Detrac] {
        let fx = fixture(dataset);
        let (reference, ref_report) = generate(&fx, 1, None);
        let reference_bytes = reference.to_json().unwrap();
        assert!(!reference.is_empty());
        // A zero-rate plan arms the whole fault-aware path (fault-capable
        // cache, fallible fetches, breaker checks) yet must change
        // nothing, at any thread count.
        for threads in [1usize, 8, 16] {
            let (profile, report) = generate(&fx, threads, Some(FaultPlan::new(99, 0.0)));
            assert_eq!(
                profile.to_json().unwrap(),
                reference_bytes,
                "{dataset:?}: zero-rate plan must be byte-invisible at {threads} threads"
            );
            assert_eq!(chaos_fields(&report), chaos_fields(&ref_report), "{dataset:?}");
            assert_eq!(report.faults_injected, 0);
            assert_eq!(report.frames_lost, 0);
            assert!(report.degraded_cells.is_empty());
        }
    }
}

#[test]
fn chaos_matrix_replays_byte_identically() {
    // The core matrix: (corpus × fault rate × thread count). Same seed +
    // same FaultPlan ⇒ byte-identical profile and fault accounting,
    // regardless of scheduling.
    for dataset in [DatasetPreset::NightStreet, DatasetPreset::Detrac] {
        let fx = fixture(dataset);
        for rate in [0.05, 0.2] {
            let plan = FaultPlan::new(0xfa_17, rate);
            let (reference, ref_report) = generate(&fx, 1, Some(plan));
            let reference_bytes = reference.to_json().unwrap();
            assert!(
                ref_report.faults_injected > 0,
                "{dataset:?} rate {rate}: plan must fire"
            );
            assert!(ref_report.frames_lost > 0, "{dataset:?} rate {rate}");

            // Replay on the same thread count: bit-for-bit.
            let (replay, replay_report) = generate(&fx, 1, Some(plan));
            assert_eq!(replay.to_json().unwrap(), reference_bytes);
            assert_eq!(chaos_fields(&replay_report), chaos_fields(&ref_report));

            // Scheduling independence: 2, 8, and 16 workers.
            for threads in [2usize, 8, 16] {
                let (profile, report) = generate(&fx, threads, Some(plan));
                assert_eq!(
                    profile.to_json().unwrap(),
                    reference_bytes,
                    "{dataset:?} rate {rate}: profile diverged at {threads} threads"
                );
                assert_eq!(
                    chaos_fields(&report),
                    chaos_fields(&ref_report),
                    "{dataset:?} rate {rate}: fault accounting diverged at {threads} threads"
                );
            }

            // A different plan seed schedules a different chaos run — the
            // replay guarantee is per-plan, not an accidental constant.
            let (_, other_report) = generate(&fx, 1, Some(FaultPlan::new(0xd1ff, rate)));
            assert_ne!(
                chaos_fields(&other_report),
                chaos_fields(&ref_report),
                "{dataset:?} rate {rate}: distinct plan seeds must differ"
            );
        }
    }
}

#[test]
fn batched_slice_ingestion_splits_survivor_gaps_correctly() {
    // Ingestion is now batched per ladder rung: each rung's survivors
    // arrive as one slice through `AggregateKernel::extend`. Faulted
    // frames leave gaps inside a rung, so the slice must contain exactly
    // that rung's survivors — the batched kernel state has to match a
    // per-element twin (one fetch per sample position) bit-for-bit, and
    // both have to match the batch estimator over the survivor list.
    use smokescreen::core::{estimate_from_outputs, AggregateKernel};
    use smokescreen::degrade::{DegradedView, InterventionSet};
    use smokescreen::models::{OutputCache, RetryPolicy};

    let fx = fixture(DatasetPreset::Detrac);
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    let view = DegradedView::new(&fx.corpus, InterventionSet::sampling(0.4), &restrictions, 7)
        .expect("valid view");
    let population = fx.corpus.len();
    for rate in [0.0, 0.05] {
        let plan = FaultPlan::new(0xfa_17, rate);
        for agg in [
            Aggregate::Avg,
            Aggregate::Max { r: 0.99 },
            Aggregate::Quantile { r: 0.5 },
        ] {
            // Two caches with the same plan: fault outcomes are keyed on
            // the call, not on cache history, so the slice-fetching and
            // element-fetching twins see identical losses.
            let (detector, frames) = (fx.detector.as_ref(), fx.corpus.len());
            let slice_cache = OutputCache::with_faults(detector, frames, plan, RetryPolicy::default());
            let elem_cache = OutputCache::with_faults(detector, frames, plan, RetryPolicy::default());
            let mut sliced = AggregateKernel::new(agg);
            let mut pushed = AggregateKernel::new(agg);
            let mut survivors = Vec::new();
            let mut lost = 0usize;
            let rungs = [0usize, 41, 160, 161, 400, view.len()];
            for w in rungs.windows(2) {
                let part =
                    view.try_outputs_cached_range(&slice_cache, ObjectClass::Car, w[0]..w[1]);
                sliced.extend(&part.values);
                lost += part.lost;
                for i in w[0]..w[1] {
                    let one =
                        view.try_outputs_cached_range(&elem_cache, ObjectClass::Car, i..i + 1);
                    for &v in &one.values {
                        pushed.push(v);
                    }
                    survivors.extend(one.values);
                }
                assert_eq!(
                    sliced.n(),
                    survivors.len(),
                    "rate {rate} {}: rung {}..{} slice must hold exactly the survivors",
                    agg.name(),
                    w[0],
                    w[1]
                );
                if survivors.is_empty() {
                    continue;
                }
                let batched = sliced.estimate(population, 0.05).unwrap();
                assert_eq!(
                    batched,
                    pushed.estimate(population, 0.05).unwrap(),
                    "rate {rate} {}: slice and element paths diverged at {}..{}",
                    agg.name(),
                    w[0],
                    w[1]
                );
                assert_eq!(
                    batched,
                    estimate_from_outputs(agg, &survivors, population, 0.05).unwrap(),
                    "rate {rate} {}: batched kernel diverged from batch estimator",
                    agg.name()
                );
            }
            if rate > 0.0 {
                assert!(lost > 0, "a {rate} plan must lose frames over 600 fetches");
            } else {
                assert_eq!(lost, 0, "zero-rate plan must lose nothing");
            }
        }
    }
}

#[test]
fn chaos_slice_path_replays_for_order_aggregates_across_threads() {
    // Generation-level twin of the test above: MAX profiles (OrderKernel
    // merge ingest) under fault rate {0, 0.05} must stay byte-identical
    // at 1/2/8 workers.
    let fx = fixture(DatasetPreset::Detrac);
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    let workload = Workload {
        corpus: &fx.corpus,
        detector: fx.detector.as_ref(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Max { r: 0.99 },
        delta: 0.05,
    };
    let run = |threads: usize, faults: Option<FaultPlan>| {
        ProfileGenerator::new(
            &workload,
            &restrictions,
            GeneratorConfig {
                seed: 7,
                threads,
                faults,
                ..GeneratorConfig::default()
            },
        )
        .generate(&fx.grid, None)
        .unwrap()
    };
    for rate in [0.0, 0.05] {
        let plan = FaultPlan::new(0xfa_17, rate);
        let (reference, ref_report) = run(1, Some(plan));
        let reference_bytes = reference.to_json().unwrap();
        assert!(!reference.is_empty(), "rate {rate}");
        if rate > 0.0 {
            assert!(ref_report.frames_lost > 0, "rate {rate}: plan must fire");
        }
        for threads in [2usize, 8, 16] {
            let (profile, report) = run(threads, Some(plan));
            assert_eq!(
                profile.to_json().unwrap(),
                reference_bytes,
                "rate {rate}: MAX profile diverged at {threads} threads"
            );
            assert_eq!(
                chaos_fields(&report),
                chaos_fields(&ref_report),
                "rate {rate}: fault accounting diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn survivors_never_outnumber_requests_and_losses_reconcile() {
    // Degradation bookkeeping across the matrix: every emitted point
    // estimates from no more frames than the fault-free twin, and cells
    // either survive (points emitted) or quarantine (reported) — no
    // third, silent outcome.
    let fx = fixture(DatasetPreset::Detrac);
    let (clean, _) = generate(&fx, 8, None);
    for rate in [0.05, 0.2] {
        let (chaotic, report) = generate(&fx, 8, Some(FaultPlan::new(0xfa_17, rate)));
        let quarantined = report.degraded_cells.len();
        assert!(
            !chaotic.is_empty() || quarantined > 0,
            "rate {rate}: everything vanished without a quarantine report"
        );
        // Points pair with their clean twins by intervention set; a
        // missing pair must be explained by a quarantined cell.
        let mut unmatched = 0usize;
        for c in &clean.points {
            match chaotic.points.iter().find(|p| p.set == c.set) {
                Some(p) => assert!(
                    p.n <= c.n,
                    "rate {rate}: survivors {} exceed requested {}",
                    p.n,
                    c.n
                ),
                None => unmatched += 1,
            }
        }
        if quarantined == 0 {
            assert_eq!(unmatched, 0, "rate {rate}: points lost without quarantine");
        }
    }
}

#[test]
fn env_configured_chaos_run_is_deterministic() {
    // The CI entry point: ci.sh runs this suite with
    // SMOKESCREEN_FAULT_RATE ∈ {0, 0.05} (seed via
    // SMOKESCREEN_FAULT_SEED). When the variable is set, honor it exactly
    // — including rate 0 meaning faults disabled; when absent (a bare
    // `cargo test`), fall back to a fixed 5% plan so the path is always
    // exercised.
    let plan = if std::env::var_os(FaultMix::RATE_ENV).is_some() {
        FaultPlan::from_env()
    } else {
        Some(FaultPlan::new(42, 0.05))
    };
    let fx = fixture(DatasetPreset::Detrac);
    let (p1, r1) = generate(&fx, 1, plan);
    // 0 resolves SMOKESCREEN_THREADS, the width ci.sh's chaos loop sets.
    for threads in [8, 0] {
        let (p, r) = generate(&fx, threads, plan);
        assert_eq!(p1.to_json().unwrap(), p.to_json().unwrap(), "{threads} threads");
        assert_eq!(chaos_fields(&r1), chaos_fields(&r), "{threads} threads");
    }
    match plan {
        Some(p) if p.rate() > 0.0 => {
            assert!(r1.faults_injected > 0, "armed plan must fire")
        }
        _ => assert_eq!(r1.faults_injected, 0, "disabled faults must be silent"),
    }
}
