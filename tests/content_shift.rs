//! Content-fault robustness suite: the audit matrix as a test, perturbed
//! determinism across thread counts and chaos fault rates, perturbation
//! non-vacuousness at the detector-output level, and the golden pinning
//! the `ROBUST_*.json` schema.
//!
//! The structural-schema golden lives at
//! `tests/golden/content_shift_schema.json`; bless intentional format
//! changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test content_shift
//! ```
//!
//! and bump `robust::SCHEMA`.

use std::fs;
use std::path::PathBuf;

use smokescreen::core::{
    drift_score, Aggregate, DriftBaseline, GeneratorConfig, ProfileGenerator, Workload,
    DEFAULT_DRIFT_THRESHOLD, DEFAULT_DRIFT_WINDOW,
};
use smokescreen::degrade::{CandidateGrid, RestrictionIndex};
use smokescreen::models::{Detector, SimYoloV4};
use smokescreen_rt::fault::FaultPlan;
use smokescreen_rt::json::{FromJson, ToJson};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::{ObjectClass, Perturb, PerturbKind, PerturbPlan, Resolution, VideoCorpus};
use smokescreen_bench::robust::{
    check, robust_file_name, run, AuditCell, AuditConfig, RobustAudit, StreamAudit, SCHEMA,
};
use smokescreen_bench::trajectory::{assert_golden, schema_of};

fn outputs_of(corpus: &VideoCorpus, detector: &dyn Detector) -> Vec<f64> {
    Workload {
        corpus,
        detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    }
    .population_outputs()
}

// ---------------------------------------------------------------------------
// The audit matrix as a test.
// ---------------------------------------------------------------------------

#[test]
fn smoke_audit_matrix_holds_hard_invariants() {
    let cfg = AuditConfig::smoke();
    let audit = run(&cfg, 7, "test".into());
    // 2 corpora × (control + 1 kind × 1 rate) × 3 aggregates × 3 fractions.
    assert_eq!(audit.cells.len(), 36);
    assert_eq!(audit.streams.len(), 4);
    assert_eq!(audit.schema, SCHEMA);
    let violations = check(&audit);
    assert!(violations.is_empty(), "audit violations: {violations:?}");
}

#[test]
fn committed_drift_stream_reproduces() {
    // bench_results/ROBUST_7.json must be what a full `robust run` writes.
    // Streams do not depend on the trial count, so one recomputes cheaply;
    // night-street drift at rate 0.1 is the stream the window kernel's
    // scoring moved furthest.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench_results/ROBUST_7.json");
    let committed = RobustAudit::load(&path).unwrap();
    let cfg = AuditConfig {
        trials: 1,
        kinds: vec![Some(PerturbKind::Drift)],
        rates: vec![0.1],
        ..AuditConfig::full()
    };
    let fresh = run(&cfg, 7, "test".into()).streams.swap_remove(0);
    assert_eq!((fresh.corpus.as_str(), fresh.kind.as_str()), ("night-street", "drift"));
    let pinned = committed
        .streams
        .iter()
        .find(|s| (&s.corpus, &s.kind, s.rate) == (&fresh.corpus, &fresh.kind, fresh.rate))
        .expect("the committed file holds the night-street drift 0.1 stream");
    assert_eq!(
        pinned.max_score.to_bits(),
        fresh.max_score.to_bits(),
        "committed max_score {} != recomputed {}; re-record the file's streams",
        pinned.max_score,
        fresh.max_score
    );
    assert_eq!(pinned, &fresh);
}

#[test]
fn audit_round_trips_through_json_and_file() {
    let cfg = AuditConfig::smoke();
    let audit = run(&cfg, 7, "test".into());
    let dir = std::env::temp_dir().join("smokescreen_content_shift_roundtrip");
    let path = audit.save(&dir).unwrap();
    assert!(path.ends_with(robust_file_name(7)));
    let loaded = RobustAudit::load(&path).unwrap();
    assert_eq!(loaded, audit);
    fs::remove_dir_all(&dir).ok();
    let empty = RobustAudit { cells: vec![], ..audit };
    let err = RobustAudit::from_json(&empty.to_json()).unwrap_err();
    assert!(err.to_string().contains("no cells"), "{err}");
}

// ---------------------------------------------------------------------------
// Non-vacuousness: every perturbation kind changes what the detector sees.
// ---------------------------------------------------------------------------

#[test]
fn every_kind_changes_detector_outputs_at_high_rate() {
    let detector = SimYoloV4::new(5);
    let clean = DatasetPreset::Detrac.generate(5).slice(0, 1_000);
    let clean_outputs = outputs_of(&clean, &detector);
    for kind in PerturbKind::ALL {
        let perturbed = PerturbPlan::with_stream(5, 0.5, kind).apply(&clean);
        let outputs = outputs_of(&perturbed, &detector);
        assert_ne!(
            outputs, clean_outputs,
            "{kind}: rate-0.5 perturbation left every detector output unchanged — \
             the audit matrix would be measuring nothing"
        );
    }
}

#[test]
fn zero_rate_plans_are_inert_on_corpora_and_outputs() {
    let detector = SimYoloV4::new(5);
    let clean = DatasetPreset::Detrac.generate(5).slice(0, 600);
    for kind in PerturbKind::ALL {
        let perturbed = PerturbPlan::with_stream(5, 0.0, kind).apply(&clean);
        assert_eq!(format!("{perturbed:?}"), format!("{clean:?}"));
        assert_eq!(outputs_of(&perturbed, &detector), outputs_of(&clean, &detector));
    }
}

// ---------------------------------------------------------------------------
// Determinism: perturbed corpora and profiles replay bit-for-bit, at any
// thread count, with and without chaos faults.
// ---------------------------------------------------------------------------

#[test]
fn perturbed_corpora_replay_byte_identically() {
    let clean = DatasetPreset::NightStreet.generate(11).slice(0, 800);
    for kind in PerturbKind::ALL {
        let plan = PerturbPlan::with_stream(11, 0.3, kind);
        let a = plan.apply(&clean);
        let b = plan.apply(&clean);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind}: replay diverged");
    }
}

fn perturbed_profile(
    corpus: &VideoCorpus,
    threads: usize,
    faults: Option<FaultPlan>,
) -> (smokescreen::core::Profile, usize) {
    let detector = SimYoloV4::new(7);
    let workload = Workload {
        corpus,
        detector: &detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let restrictions = RestrictionIndex::from_ground_truth(corpus, &[ObjectClass::Person]);
    let grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1],
        vec![Resolution::square(320), Resolution::square(608)],
        vec![vec![], vec![ObjectClass::Person]],
    );
    let gen = ProfileGenerator::new(
        &workload,
        &restrictions,
        GeneratorConfig {
            seed: 7,
            threads,
            faults,
            ..GeneratorConfig::default()
        },
    );
    let (profile, report) = gen.generate(&grid, None).unwrap();
    (profile, report.model_runs)
}

#[test]
fn perturbed_profiles_are_byte_identical_across_threads_and_fault_rates() {
    let clean = DatasetPreset::Detrac.generate(7).slice(0, 1_200);
    let corpus = PerturbPlan::with_stream(7, 0.25, PerturbKind::Occlusion).apply(&clean);
    for fault_rate in [0.0, 0.05] {
        let faults = Some(FaultPlan::new(99, fault_rate));
        let (reference, ref_runs) = perturbed_profile(&corpus, 1, faults);
        assert!(!reference.is_empty());
        let reference_bytes = reference.to_json().unwrap();
        for threads in [2usize, 8] {
            let (profile, runs) = perturbed_profile(&corpus, threads, faults);
            assert_eq!(
                profile.to_json().unwrap(),
                reference_bytes,
                "perturbed profile not byte-identical at {threads} threads, \
                 fault rate {fault_rate}"
            );
            assert_eq!(runs, ref_runs, "cache accounting diverged at {threads} threads");
        }
    }
    // The perturbed profile must differ from the clean one — otherwise the
    // thread sweep above proved determinism of a no-op.
    let (clean_profile, _) = perturbed_profile(&clean, 1, None);
    let (perturbed_profile_, _) = perturbed_profile(&corpus, 1, None);
    assert_ne!(
        clean_profile.to_json().unwrap(),
        perturbed_profile_.to_json().unwrap()
    );
}

// ---------------------------------------------------------------------------
// Drift detection at corpus scale.
// ---------------------------------------------------------------------------

#[test]
fn drift_scorer_flags_prevalence_drift_and_only_that_stream() {
    let detector = SimYoloV4::new(3);
    let clean = DatasetPreset::Detrac.generate(3).slice(0, 3_000);
    let baseline_corpus = DatasetPreset::Detrac.generate(104).slice(0, 3_000);
    let baseline = DriftBaseline::from_outputs(
        &outputs_of(&baseline_corpus, &detector),
        DEFAULT_DRIFT_WINDOW,
    )
    .unwrap();

    let clean_report = drift_score(
        &baseline,
        &outputs_of(&clean, &detector),
        DEFAULT_DRIFT_THRESHOLD,
    );
    assert!(
        !clean_report.flagged(),
        "false positive on a clean stream (max score {})",
        clean_report.max_score
    );

    let drifted = PerturbPlan::with_stream(3, 0.3, PerturbKind::Drift).apply(&clean);
    let drift_report = drift_score(
        &baseline,
        &outputs_of(&drifted, &detector),
        DEFAULT_DRIFT_THRESHOLD,
    );
    assert!(
        drift_report.flagged(),
        "missed a prevalence-drift stream (max score {})",
        drift_report.max_score
    );
    assert!(drift_report.max_score > 2.0 * clean_report.max_score);
}

// ---------------------------------------------------------------------------
// Schema golden.
// ---------------------------------------------------------------------------

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/content_shift_schema.json")
}

/// A synthetic audit with every field populated: the golden pins the
/// *shape*, so representative values suffice — no matrix runs.
fn representative_audit() -> RobustAudit {
    RobustAudit {
        schema: SCHEMA.into(),
        pr: 7,
        git_rev: "0123456789ab".into(),
        smoke: true,
        trials: 12,
        frames: 1_500,
        delta: 0.05,
        strict_delta: 1e-6,
        drift_window: 256,
        drift_threshold: 4.0,
        cells: vec![AuditCell {
            corpus: "ua-detrac".into(),
            kind: "glare".into(),
            rate: 0.25,
            aggregate: "AVG".into(),
            fraction: 0.05,
            trials: 12,
            coverage_perturbed: 1.0,
            coverage_clean: 0.9,
            strict_violations: 0,
            mean_err_bound: 0.12,
            degraded: false,
        }],
        streams: vec![StreamAudit {
            corpus: "ua-detrac".into(),
            kind: "glare".into(),
            rate: 0.25,
            max_score: 2.5,
            windows_scored: 5,
            windows_flagged: 0,
            flagged: false,
        }],
    }
}

#[test]
fn content_shift_schema_matches_golden() {
    let schema = schema_of(&representative_audit().to_json());
    assert_golden(&golden_path(), &schema.encode_pretty(), "content_shift");
}

#[test]
fn schema_is_value_independent() {
    let a = representative_audit();
    let mut b = representative_audit();
    b.pr = 99;
    b.smoke = false;
    b.cells.push(b.cells[0].clone());
    b.cells[1].kind = "label-flip".into();
    b.cells[1].coverage_clean = 0.0;
    b.cells[1].degraded = true;
    b.streams.push(b.streams[0].clone());
    b.streams[1].kind = "drift".into();
    b.streams[1].flagged = true;
    assert_eq!(schema_of(&a.to_json()), schema_of(&b.to_json()));
}
