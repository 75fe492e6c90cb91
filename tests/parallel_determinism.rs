//! The parallel-generation determinism contract (the reason `rt::pool`
//! exists in its current shape): for any worker count the generated
//! `Profile` — every `ProfilePoint`, bound, and estimate — must be
//! byte-identical to the sequential path, on both paper workloads, and
//! the cache accounting must be schedule-independent.

use smokescreen::core::{Aggregate, GeneratorConfig, ProfileGenerator, Workload};
use smokescreen::degrade::{CandidateGrid, RestrictionIndex};
use smokescreen::models::{Detector, SimMaskRcnn, SimYoloV4};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::{ObjectClass, Resolution};

/// Builds the per-dataset fixture: the paper's model for the dataset and a
/// grid on that model's supported resolution multiples.
struct Fixture {
    corpus: smokescreen::video::VideoCorpus,
    detector: Box<dyn Detector>,
    grid: CandidateGrid,
}

fn fixture(dataset: DatasetPreset) -> Fixture {
    let corpus = dataset.generate(17).slice(0, 1_500);
    let (detector, resolutions): (Box<dyn Detector>, Vec<Resolution>) = match dataset {
        // Mask R-CNN accepts multiples of 64, YOLO multiples of 32.
        DatasetPreset::NightStreet => (
            Box::new(SimMaskRcnn::new(17)),
            vec![Resolution::square(256), Resolution::square(512)],
        ),
        DatasetPreset::Detrac => (
            Box::new(SimYoloV4::new(17)),
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

fn generate(fx: &Fixture, threads: usize) -> (smokescreen::core::Profile, usize, usize) {
    let workload = Workload {
        corpus: &fx.corpus,
        detector: fx.detector.as_ref(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    let gen = ProfileGenerator::new(
        &workload,
        &restrictions,
        GeneratorConfig {
            seed: 7,
            threads,
            ..GeneratorConfig::default()
        },
    );
    let (profile, report) = gen.generate(&fx.grid, None).unwrap();
    (profile, report.model_runs, report.cache_hits)
}

#[test]
fn profiles_are_byte_identical_across_thread_counts() {
    for dataset in [DatasetPreset::NightStreet, DatasetPreset::Detrac] {
        let fx = fixture(dataset);
        let (reference, seq_runs, seq_hits) = generate(&fx, 1);
        let reference_bytes = reference.to_json().unwrap();
        assert!(!reference.is_empty(), "{dataset:?}: profile must be non-trivial");

        for threads in [2usize, 8, 16] {
            let (profile, runs, hits) = generate(&fx, threads);
            // Structural equality over every ProfilePoint (set, y_approx,
            // err_b, corrected, n)...
            assert_eq!(
                profile, reference,
                "{dataset:?}: profile diverged at {threads} threads"
            );
            // ...and byte equality of the full serialized artifact.
            assert_eq!(
                profile.to_json().unwrap(),
                reference_bytes,
                "{dataset:?}: serialized profile not byte-identical at {threads} threads"
            );
            assert_eq!(
                runs + hits,
                seq_runs + seq_hits,
                "{dataset:?}: total model invocations must be invariant at {threads} threads"
            );
            assert_eq!(
                runs, seq_runs,
                "{dataset:?}: distinct model runs must be invariant at {threads} threads"
            );
        }
    }
}

#[test]
fn slice_ingested_order_aggregates_are_thread_count_independent() {
    // Ingestion is batched per fraction rung (`AggregateKernel::extend` →
    // kernel `push_slice`), and the OrderKernel rewrites each rung via
    // sort-then-merge. MAX and MEDIAN sweeps drive that merge path inside
    // parallel cells; profiles must stay byte-identical at any worker
    // count, exactly like the AVG path above.
    let fx = fixture(DatasetPreset::Detrac);
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    for aggregate in [Aggregate::Max { r: 0.99 }, Aggregate::Quantile { r: 0.5 }] {
        let workload = Workload {
            corpus: &fx.corpus,
            detector: fx.detector.as_ref(),
            class: ObjectClass::Car,
            aggregate,
            delta: 0.05,
        };
        let run = |threads: usize| {
            ProfileGenerator::new(
                &workload,
                &restrictions,
                GeneratorConfig {
                    seed: 7,
                    threads,
                    ..GeneratorConfig::default()
                },
            )
            .generate(&fx.grid, None)
            .unwrap()
        };
        let (reference, _) = run(1);
        let reference_bytes = reference.to_json().unwrap();
        assert!(!reference.is_empty());
        for threads in [2usize, 8, 16] {
            let (profile, _) = run(threads);
            assert_eq!(
                profile.to_json().unwrap(),
                reference_bytes,
                "{} profile diverged at {threads} threads",
                aggregate.name()
            );
        }
    }
}

#[test]
fn early_stopping_decisions_are_thread_count_independent() {
    // Early stopping reads the previous candidate's bound, which is why
    // the in-cell sweep stays sequential; the skip counts must therefore
    // replay exactly under cell-level parallelism.
    let fx = fixture(DatasetPreset::Detrac);
    let workload = Workload {
        corpus: &fx.corpus,
        detector: fx.detector.as_ref(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    let dense = CandidateGrid::explicit(
        (1..=40).map(|i| i as f64 / 100.0).collect(),
        vec![Resolution::square(320), Resolution::square(608)],
        vec![vec![]],
    );
    let run = |threads: usize| {
        ProfileGenerator::new(
            &workload,
            &restrictions,
            GeneratorConfig {
                seed: 9,
                early_stop_improvement: Some(0.01),
                threads,
                ..GeneratorConfig::default()
            },
        )
        .generate(&dense, None)
        .unwrap()
    };
    let (p1, r1) = run(1);
    assert!(
        r1.skipped_by_early_stop > 0,
        "fixture must exercise early stopping"
    );
    for threads in [8usize, 16] {
        let (p, r) = run(threads);
        assert_eq!(r1.skipped_by_early_stop, r.skipped_by_early_stop);
        assert_eq!(r1.points, r.points);
        assert_eq!(p1, p, "early-stop profile diverged at {threads} threads");
    }
}

#[test]
fn warm_pool_replays_byte_identically_run_after_run() {
    // Consecutive runs share the process, the output table's allocator
    // state and whatever else outlives one `generate`; any leak of the
    // schedule into results (chunk claiming, result ordering) would
    // surface as a run-to-run divergence. Three consecutive 16-worker
    // runs must be byte-identical to each other and to the sequential
    // path.
    let fx = fixture(DatasetPreset::Detrac);
    let (reference, seq_runs, _) = generate(&fx, 1);
    let reference_bytes = reference.to_json().unwrap();
    for attempt in 0..3 {
        let (profile, runs, _) = generate(&fx, 16);
        assert_eq!(
            profile.to_json().unwrap(),
            reference_bytes,
            "warm-pool run {attempt} diverged from the sequential profile"
        );
        assert_eq!(runs, seq_runs, "warm-pool run {attempt} changed model_runs");
    }
}
