//! Crash-consistency suite: checkpoint/resume for profile generation.
//!
//! The contract under test, over a matrix of (crash seed × thread count ×
//! fault rate):
//!
//! 1. **Bit-identity** — killing generation at any seeded crash point and
//!    resuming from the journal yields a profile byte-identical to an
//!    uninterrupted run, at 1/2/8 threads, with and without a 5% model
//!    fault rate. Loss/early-stop/quarantine accounting also matches.
//! 2. **Schedule independence** — the journal always holds a contiguous
//!    grid-order prefix, so `cells_resumed` and `journal_bytes` are
//!    deterministic at any thread count.
//! 3. **Corruption recovery** — a torn tail record, a mid-journal
//!    checksum flip, a wrong format version, and a zero-byte journal each
//!    quarantine cleanly: the damage is surfaced in
//!    `GenerationReport::journal_corrupt_records`, the affected cells are
//!    recomputed, and the profile never differs from the uninterrupted
//!    run. Corrupted journals never panic and never produce wrong
//!    profiles.
//! 4. **Inertness** — without a checkpoint directory the feature changes
//!    nothing: the no-checkpoint reference run is re-diffed against the
//!    pinned goldens under `tests/golden/`.
//!
//! Replay recipe: `SMOKESCREEN_CRASH_SEED` / `SMOKESCREEN_CRASH_RATE`
//! (plus the fault/thread variables) configure the env-driven run below
//! (see EXPERIMENTS.md "crash→resume matrix"); any failure replays
//! exactly from those values. Bless intentional profile changes with
//! `UPDATE_GOLDEN=1 cargo test --test crash_resume`.

use std::path::{Path, PathBuf};

use smokescreen::core::{
    Aggregate, CoreError, GenerationReport, GeneratorConfig, Profile, ProfileGenerator, Workload,
};
use smokescreen::degrade::{CandidateGrid, RestrictionIndex};
use smokescreen::models::{Detector, SimYoloV4};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::{ObjectClass, Resolution};
use smokescreen_rt::fault::{CrashKind, CrashPlan, Crashes, FaultMix, FaultPlan, Stream};
use smokescreen_rt::rng::StdRng;

const N_CELLS: usize = 6; // 3 resolutions × 2 removal combos

struct Fixture {
    corpus: smokescreen::video::VideoCorpus,
    detector: Box<dyn Detector>,
    grid: CandidateGrid,
}

fn fixture() -> Fixture {
    let corpus = DatasetPreset::Detrac.generate(29).slice(0, 1_200);
    let grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1],
        vec![
            Resolution::square(320),
            Resolution::square(416),
            Resolution::square(608),
        ],
        vec![vec![], vec![ObjectClass::Person]],
    );
    Fixture {
        corpus,
        detector: Box::new(SimYoloV4::new(29)),
        grid,
    }
}

fn generate(
    fx: &Fixture,
    threads: usize,
    faults: Option<FaultPlan>,
    checkpoint: Option<&Path>,
    crash: Option<CrashPlan>,
) -> Result<(Profile, GenerationReport), CoreError> {
    let workload = Workload {
        corpus: &fx.corpus,
        detector: fx.detector.as_ref(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let restrictions = RestrictionIndex::from_ground_truth(&fx.corpus, &[ObjectClass::Person]);
    ProfileGenerator::new(
        &workload,
        &restrictions,
        GeneratorConfig {
            seed: 7,
            threads,
            faults,
            checkpoint: checkpoint.map(Path::to_path_buf),
            crash,
            ..GeneratorConfig::default()
        },
    )
    .generate(&fx.grid, None)
}

/// Reruns generation until it completes, counting injected crashes. Every
/// loop must terminate: each firing cell kills at most one run (durable
/// cells never recompute; a torn cell's re-scheduled tear is suppressed).
fn run_to_completion(
    fx: &Fixture,
    threads: usize,
    faults: Option<FaultPlan>,
    checkpoint: &Path,
    crash: Option<CrashPlan>,
) -> ((Profile, GenerationReport), usize) {
    let mut crashes = 0usize;
    loop {
        match generate(fx, threads, faults, Some(checkpoint), crash) {
            Ok(out) => return (out, crashes),
            Err(CoreError::CrashInjected { .. }) => {
                crashes += 1;
                assert!(
                    crashes <= N_CELLS + 1,
                    "crash→resume loop failed to converge"
                );
            }
            Err(other) => panic!("unexpected generation error: {other}"),
        }
    }
}

/// Expected crash count for a plan on this fixture: one killed run per
/// firing cell (decisions are pure functions of `(seed, cell)`).
fn expected_crashes(plan: &CrashPlan) -> usize {
    (0..N_CELLS as u64).filter(|&c| plan.crash_at(c).is_some()).count()
}

/// First `want` plan seeds that fire at least once on this fixture.
fn firing_seeds(rate: f64, want: usize) -> Vec<u64> {
    (1u64..10_000)
        .filter(|&s| expected_crashes(&CrashPlan::new(s, rate)) > 0)
        .take(want)
        .collect()
}

fn checkpoint_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smokescreen-crash-resume-{}",
        std::process::id()
    ));
    let dir = dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single journal file a run created under `dir`.
fn journal_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "journal"))
        .collect();
    assert_eq!(files.len(), 1, "exactly one journal per workload: {files:?}");
    files.pop().unwrap()
}

#[test]
fn crash_resume_is_bit_identical_across_threads_and_fault_rates() {
    let fx = fixture();
    for fault_rate in [0.0, 0.05] {
        let faults = (fault_rate > 0.0).then(|| FaultPlan::new(42, fault_rate));
        let (reference, reference_report) = generate(&fx, 1, faults, None, None).unwrap();
        let reference_bytes = reference.to_json().unwrap();
        assert!(!reference.is_empty());

        let mut journal_bytes_seen = Vec::new();
        for crash_seed in firing_seeds(0.5, 2) {
            let plan = CrashPlan::new(crash_seed, 0.5);
            let expected = expected_crashes(&plan);
            let mut resumed_seen = Vec::new();
            for threads in [1usize, 2, 8, 16] {
                let dir = checkpoint_dir(&format!(
                    "matrix-r{fault_rate}-s{crash_seed}-t{threads}"
                ));
                let ((profile, report), crashes) =
                    run_to_completion(&fx, threads, faults, &dir, Some(plan));
                assert_eq!(
                    crashes, expected,
                    "seed {crash_seed}: every firing cell kills exactly one run"
                );
                assert!(crashes > 0, "picked seeds must actually fire");
                assert_eq!(
                    profile.to_json().unwrap(),
                    reference_bytes,
                    "rate {fault_rate} seed {crash_seed} threads {threads}: \
                     resumed profile diverged from the uninterrupted run"
                );
                // Loss/early-stop/quarantine accounting matches the
                // uninterrupted run; resume-specific counters are
                // schedule-independent (checked across threads below).
                assert_eq!(report.skipped_by_early_stop, reference_report.skipped_by_early_stop);
                assert_eq!(report.frames_lost, reference_report.frames_lost);
                assert_eq!(report.degraded_cells, reference_report.degraded_cells);
                assert!(report.cells_resumed > 0, "a resumed run splices something");
                // The completing run replays the journal left by the
                // *last* death: a torn append is surfaced as exactly one
                // quarantined record, a clean post-append death as none.
                let last_kind = (0..N_CELLS as u64)
                    .filter_map(|c| plan.crash_at(c))
                    .last()
                    .expect("seed fires");
                let expect_corrupt =
                    usize::from(matches!(last_kind, CrashKind::TornAppend { .. }));
                assert_eq!(report.journal_corrupt_records, expect_corrupt);
                resumed_seen.push(report.cells_resumed);
                journal_bytes_seen.push(report.journal_bytes);
                let _ = std::fs::remove_dir_all(&dir);
            }
            resumed_seen.dedup();
            assert_eq!(
                resumed_seen.len(),
                1,
                "seed {crash_seed}: cells_resumed must not depend on thread count"
            );
        }
        // The completed journal holds the same cells regardless of crash
        // seed or thread count, and its payloads exclude measured
        // timings: its size is a single deterministic number per rate.
        journal_bytes_seen.dedup();
        assert_eq!(
            journal_bytes_seen.len(),
            1,
            "rate {fault_rate}: journal_bytes must be schedule-independent"
        );
    }
}

#[test]
fn torn_write_crash_is_quarantined_and_recomputed() {
    // A seed whose only firing cell tears its record mid-append: the next
    // run must detect the torn tail, surface it, recompute the cell, and
    // not re-fire the tear (the crash→resume loop converges in one).
    let torn_seed = (1u64..20_000)
        .find(|&s| {
            let plan = CrashPlan::new(s, 0.5);
            let fires: Vec<CrashKind> =
                (0..N_CELLS as u64).filter_map(|c| plan.crash_at(c)).collect();
            fires.len() == 1 && matches!(fires[0], CrashKind::TornAppend { .. })
        })
        .expect("a torn-only seed exists");
    let fx = fixture();
    let (reference, _) = generate(&fx, 2, None, None, None).unwrap();

    let dir = checkpoint_dir("torn");
    let plan = CrashPlan::new(torn_seed, 0.5);
    let ((profile, report), crashes) = run_to_completion(&fx, 2, None, &dir, Some(plan));
    assert_eq!(crashes, 1);
    assert_eq!(profile.to_json().unwrap(), reference.to_json().unwrap());
    assert_eq!(
        report.journal_corrupt_records, 1,
        "the torn record must be surfaced, not silently repaired"
    );
    // The repaired journal is clean: a warm restart splices every cell.
    let (rerun, rerun_report) = generate(&fx, 2, None, Some(&dir), Some(plan)).unwrap();
    assert_eq!(rerun.to_json().unwrap(), reference.to_json().unwrap());
    assert_eq!(rerun_report.cells_resumed, N_CELLS);
    assert_eq!(rerun_report.journal_corrupt_records, 0);
    assert_eq!(rerun_report.model_runs, 0, "warm restart does no model work");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_journals_quarantine_cleanly_and_never_change_the_profile() {
    let fx = fixture();
    let (reference, _) = generate(&fx, 2, None, None, None).unwrap();
    let reference_bytes = reference.to_json().unwrap();
    let dir = checkpoint_dir("corruption");
    // Build a complete journal once; every scenario below corrupts a copy
    // of these bytes in place.
    let (_, seeded_report) = generate(&fx, 2, None, Some(&dir), None).unwrap();
    assert!(seeded_report.journal_bytes > 0);
    let path = journal_file(&dir);
    let pristine = std::fs::read(&path).unwrap();

    let corruptions: Vec<(&str, Box<dyn Fn(&mut Vec<u8>)>)> = vec![
        (
            "truncated final record",
            Box::new(|b: &mut Vec<u8>| {
                let keep = b.len() - 7;
                b.truncate(keep);
            }),
        ),
        (
            "checksum flip mid-journal",
            Box::new(|b: &mut Vec<u8>| {
                let at = b.len() * 2 / 3;
                b[at] ^= 0x01;
            }),
        ),
        (
            "wrong format version",
            Box::new(|b: &mut Vec<u8>| b[8] ^= 0xff),
        ),
        ("zero-byte journal", Box::new(|b: &mut Vec<u8>| b.clear())),
    ];
    for (label, corrupt) in corruptions {
        let mut bytes = pristine.clone();
        corrupt(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let (profile, report) = generate(&fx, 2, None, Some(&dir), None)
            .unwrap_or_else(|e| panic!("{label}: corrupted journal must not fail generation: {e}"));
        assert_eq!(
            profile.to_json().unwrap(),
            reference_bytes,
            "{label}: corruption must never produce a wrong profile"
        );
        assert!(
            report.journal_corrupt_records >= 1,
            "{label}: corruption must be surfaced in the report"
        );
        assert!(
            report.cells_resumed < N_CELLS,
            "{label}: damaged cells must be recomputed, not trusted"
        );
        // The run repaired the journal: it is byte-identical to the
        // pristine one again and a warm restart is clean.
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "{label}: repair");
        let (_, warm) = generate(&fx, 2, None, Some(&dir), None).unwrap();
        assert_eq!(warm.cells_resumed, N_CELLS, "{label}");
        assert_eq!(warm.journal_corrupt_records, 0, "{label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_journal_is_quarantined_wholesale_and_recomputed() {
    // A journal written before frames carried a header checksum (format
    // version 1: `index u32 | len u32 | payload checksum u64 | payload`)
    // must never be misread as version 2: it is quarantined wholesale,
    // every cell is recomputed, and the profile is unchanged.
    let fx = fixture();
    let (reference, _) = generate(&fx, 2, None, None, None).unwrap();
    let dir = checkpoint_dir("v1");
    generate(&fx, 2, None, Some(&dir), None).unwrap();
    let path = journal_file(&dir);
    let v2 = std::fs::read(&path).unwrap();

    // Rewrite the journal in the version-1 layout.
    let header_len = 24 + u32::from_le_bytes(v2[12..16].try_into().unwrap()) as usize;
    let mut v1 = v2[..header_len].to_vec();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let mut pos = header_len;
    while pos < v2.len() {
        let len = u32::from_le_bytes(v2[pos + 4..pos + 8].try_into().unwrap()) as usize;
        v1.extend_from_slice(&v2[pos..pos + 16]);
        v1.extend_from_slice(&v2[pos + 24..pos + 24 + len]);
        pos += 24 + len;
    }
    assert_eq!(v1.len(), v2.len() - 8 * N_CELLS, "8 header-checksum bytes per record");
    std::fs::write(&path, &v1).unwrap();

    let (profile, report) = generate(&fx, 2, None, Some(&dir), None).unwrap();
    assert_eq!(profile.to_json().unwrap(), reference.to_json().unwrap());
    assert_eq!(report.journal_corrupt_records, 1, "quarantined wholesale, counted once");
    assert_eq!(report.cells_resumed, 0, "no version-1 cell is trusted");
    assert_eq!(std::fs::read(&path).unwrap(), v2, "rewritten as a version-2 journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn env_configured_crash_resume_matrix_is_deterministic() {
    // The CI entry point: ci.sh runs this test across SMOKESCREEN_CRASH_SEED
    // × SMOKESCREEN_THREADS × SMOKESCREEN_FAULT_RATE, asserting every
    // combination's resumed profile byte-equals the pinned golden. When
    // the variables are absent (a bare `cargo test`), fixed fallbacks keep
    // the path exercised. The reference run below uses *no* checkpoint
    // directory, so diffing it against the golden also proves the feature
    // is inert when disabled.
    let crash = if std::env::var_os(Crashes::RATE_ENV).is_some() {
        CrashPlan::from_env()
    } else {
        Some(CrashPlan::new(firing_seeds(0.5, 1)[0], 0.5))
    };
    let faults = if std::env::var_os(FaultMix::RATE_ENV).is_some() {
        FaultPlan::from_env()
    } else {
        None
    };
    let fx = fixture();
    // threads = 0: honor SMOKESCREEN_THREADS exactly as ci.sh sets it.
    let (reference, _) = generate(&fx, 0, faults, None, None).unwrap();
    let reference_bytes = reference.to_json().unwrap();

    if let Some(plan) = crash {
        let dir = checkpoint_dir(&format!("env-{}", plan.seed()));
        let ((profile, report), crashes) =
            run_to_completion(&fx, 0, faults, &dir, Some(plan));
        assert_eq!(crashes, expected_crashes(&plan));
        assert_eq!(profile.to_json().unwrap(), reference_bytes);
        // A torn final death legitimately surfaces one quarantined record
        // on the completing replay; a post-append death surfaces none.
        assert!(report.journal_corrupt_records <= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Golden comparison for the pinned configurations (fault seed 42):
    // fault-free and 5%. Covers every ci.sh matrix combination, since the
    // profile must not depend on crash seed or thread count.
    let golden_name = match faults {
        None => Some("crash_resume_rate0.json"),
        Some(p) if p.seed() == 42 && (p.rate() - 0.05).abs() < 1e-12 => {
            Some("crash_resume_rate005.json")
        }
        _ => None,
    };
    if let Some(name) = golden_name {
        let golden_path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &reference_bytes).unwrap();
        } else {
            let golden = std::fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
            assert_eq!(
                reference_bytes, golden,
                "{name}: profile drifted from the pinned golden \
                 (bless intentional changes with UPDATE_GOLDEN=1)"
            );
        }
    }
}

#[test]
fn resume_composes_with_fault_injection() {
    // §-level requirement: crash→resume under a 5% model-fault plan.
    // Fault decisions are pure functions of (frame, resolution), so the
    // resumed halves of the run observe exactly the faults the
    // uninterrupted run observed — loss accounting must agree too.
    let fx = fixture();
    let faults = Some(FaultPlan::new(42, 0.05));
    let (reference, reference_report) = generate(&fx, 2, faults, None, None).unwrap();
    assert!(reference_report.faults_injected > 0, "the plan must bite");

    let plan = CrashPlan::new(firing_seeds(0.5, 2)[1], 0.5);
    let dir = checkpoint_dir("faults-compose");
    let ((profile, report), crashes) = run_to_completion(&fx, 8, faults, &dir, Some(plan));
    assert!(crashes > 0);
    assert_eq!(profile.to_json().unwrap(), reference.to_json().unwrap());
    assert_eq!(report.frames_lost, reference_report.frames_lost);
    assert_eq!(report.degraded_cells, reference_report.degraded_cells);
    // Fresh-work counters only count this process's work: a resumed run
    // never does *more* model work than the uninterrupted one.
    assert!(report.model_runs <= reference_report.model_runs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_profiles_always_error_never_panic() {
    // Satellite: the journal replays through the same parser profiles
    // load through. Every proper prefix of a serialized profile must
    // return Err (trailing whitespace excepted) — and must never panic.
    let fx = fixture();
    let (profile, _) = generate(&fx, 2, None, None, None).unwrap();
    let text = profile.to_json().unwrap();
    let trimmed_len = text.trim_end().len();
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        let parsed = Profile::from_json(prefix);
        if cut < trimmed_len {
            assert!(
                parsed.is_err(),
                "truncation at byte {cut} must error, got Ok"
            );
        }
    }
}

#[test]
fn bit_flipped_profiles_never_panic_or_loop() {
    // Random single-bit flips over the serialized profile: parsing must
    // terminate without panicking. A flip can legitimately yield a valid
    // document (e.g. a digit flip), in which case the result must at
    // least re-encode cleanly — corruption may change values it cannot
    // detect, but it must never wedge or crash the loader.
    let fx = fixture();
    let (profile, _) = generate(&fx, 2, None, None, None).unwrap();
    let text = profile.to_json().unwrap();
    let bytes = text.as_bytes();
    let mut rng = StdRng::seed_from_u64(0xb17f11);
    for _ in 0..2_000 {
        let at = (rng.next_u64() as usize) % bytes.len();
        let bit = (rng.next_u64() % 8) as u32;
        let mut mutated = bytes.to_vec();
        mutated[at] ^= 1 << bit;
        let Ok(s) = String::from_utf8(mutated) else {
            continue; // invalid UTF-8 can't even reach the parser
        };
        if let Ok(p) = Profile::from_json(&s) {
            let _ = p.to_json().expect("accepted profile must re-encode");
        }
    }
}
