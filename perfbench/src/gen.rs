//! The profile-generation workload, `gen_paper_grid`.
//!
//! One profile at a time is generated through the public `core` API with
//! two generator threads. A [`CountingDetector`] wraps the model to count
//! (and, when traced, time) every model call; the correction set and the
//! generator are timed around their calls. The checkpoint journal runs
//! on untimed profiles between the timed ones: its commits flush to the
//! checkout's disk, whose flush latency is not the program's (see
//! `README.md`).

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use smokescreen_core::{
    build_correction_set, Aggregate, CorrectionConfig, GenerationReport, GeneratorConfig, Profile,
    ProfileGenerator, Workload,
};
use smokescreen_degrade::{CandidateGrid, RestrictionIndex};
use smokescreen_models::{Detections, Detector, SimYoloV4};
use smokescreen_rt::json::ToJson;
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::{Frame, ObjectClass, Resolution, VideoCorpus};

use crate::report::Outcome;
use crate::stats::{cycle_rate, mean, median, nearest_rank, sorted, splitmix};
use crate::trace::{self, SpanLog, Tally, TallySet};
use crate::{check, Options};

/// Generator worker threads.
pub const THREADS: usize = 2;
/// Bound confidence parameter.
const DELTA: f64 = 0.05;
/// Sampling seeds per run, derived from the workload seed. Profiles cycle
/// through them, so a run's figures average over as many sampling
/// permutations instead of resting on one.
pub const SAMPLE_SEEDS: usize = 16;
/// Seed of the synthetic corpus. The corpus stands for the paper's fixed
/// dataset; the workload seed picks the sampling permutations.
const CORPUS_SEED: u64 = 1;

fn detect_tallies() -> &'static TallySet {
    static SET: OnceLock<TallySet> = OnceLock::new();
    SET.get_or_init(TallySet::default)
}

thread_local! {
    static DETECT_SLOT: Arc<Tally> = detect_tallies().register();
}

/// `(calls, ns)` of model calls so far, over every thread.
pub fn detect_total() -> (u64, u64) {
    detect_tallies().total()
}

/// `(calls, ns)` of model calls made on the calling thread so far.
fn detect_here() -> (u64, u64) {
    DETECT_SLOT.with(|slot| slot.read())
}

/// The model, wrapped: every `detect` is counted on the calling thread's
/// slot, and timed while tracing. Everything else forwards, so profiles
/// are byte-identical to the unwrapped model's.
pub struct CountingDetector {
    inner: Box<dyn Detector>,
}

impl CountingDetector {
    /// Wraps a model.
    pub fn new(inner: Box<dyn Detector>) -> CountingDetector {
        CountingDetector { inner }
    }
}

impl Detector for CountingDetector {
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
        if trace::enabled() {
            let t = Instant::now();
            let out = self.inner.detect(frame, res);
            let ns = t.elapsed().as_nanos() as u64;
            DETECT_SLOT.with(|slot| slot.add(ns.max(1)));
            out
        } else {
            DETECT_SLOT.with(|slot| slot.add(0));
            self.inner.detect(frame, res)
        }
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        self.inner.inference_cost_ms(res)
    }
}

/// Everything built before the timed phase.
struct Fixture {
    corpus: VideoCorpus,
    detector: CountingDetector,
    restrictions: RestrictionIndex,
    grid: CandidateGrid,
}

/// AVG(car) over UA-DETRAC with `SimYoloV4` on the paper's default grid,
/// with person and face removal.
fn setup() -> Fixture {
    let sensitive = [ObjectClass::Person, ObjectClass::Face];
    let corpus = DatasetPreset::Detrac.generate(CORPUS_SEED);
    let detector = CountingDetector::new(Box::new(SimYoloV4::new(1)));
    let restrictions = RestrictionIndex::from_ground_truth(&corpus, &sensitive);
    let grid = CandidateGrid::default_for(&detector, 128, &sensitive);
    Fixture {
        corpus,
        detector,
        restrictions,
        grid,
    }
}

/// What one generated profile cost. The profile itself is checked and
/// dropped as soon as it is made, so the run's memory does not grow with
/// its length.
struct ProfileRun {
    wall_ns: u64,
    report: GenerationReport,
    correction_frames: usize,
    correction_ns: u64,
    /// Model `(calls, ns)` made while building the correction set (it
    /// runs on this thread).
    correction_detect: (u64, u64),
    generate_ns: u64,
    /// Model `(calls, ns)` over the whole profile, every thread.
    detect: (u64, u64),
}

struct Runner<'a> {
    workload: Workload<'a>,
    fixture: &'a Fixture,
    journal_root: PathBuf,
}

impl Runner<'_> {
    /// Generates one profile with sampling seed `seed`, with a checkpoint
    /// journal in a fresh directory when `journaled`; `rid` names its spans
    /// and journal.
    fn profile(
        &self,
        seed: u64,
        rid: u64,
        journaled: bool,
        log: Option<&mut SpanLog>,
    ) -> Result<(ProfileRun, Profile), String> {
        let journal = journaled.then(|| self.journal_root.join(format!("j{rid}")));
        let detect0 = detect_total();
        let t0 = Instant::now();
        let here0 = detect_here();
        let correction = build_correction_set(
            &self.workload,
            &self.fixture.restrictions,
            &CorrectionConfig::default(),
            seed,
            None,
        )
        .map_err(|e| format!("correction set: {e}"))?;
        let here1 = detect_here();
        let t1 = Instant::now();
        let config = GeneratorConfig {
            seed,
            threads: THREADS,
            checkpoint: journal.clone(),
            ..GeneratorConfig::default()
        };
        let generator = ProfileGenerator::new(&self.workload, &self.fixture.restrictions, config);
        let (profile, report) = generator
            .generate(&self.fixture.grid, Some(&correction))
            .map_err(|e| format!("generate: {e}"))?;
        let t2 = Instant::now();
        let detect1 = detect_total();
        if let Some(log) = log {
            let root = log.record("profile", None, rid, t0, t2);
            log.record("core.correction", Some(root), rid, t0, t1);
            log.record("core.generate", Some(root), rid, t1, t2);
        }
        if let Some(dir) = journal {
            let _ = std::fs::remove_dir_all(dir);
        }
        let run = ProfileRun {
            wall_ns: (t2 - t0).as_nanos() as u64,
            report,
            correction_frames: correction.len(),
            correction_ns: (t1 - t0).as_nanos() as u64,
            correction_detect: (here1.0 - here0.0, here1.1 - here0.1),
            generate_ns: (t2 - t1).as_nanos() as u64,
            detect: (detect1.0 - detect0.0, detect1.1 - detect0.1),
        };
        Ok((run, profile))
    }
}

/// The reference every later profile must reproduce exactly, made with
/// a journal.
struct Reference {
    json: String,
    points: usize,
    journal_bytes: u64,
}

/// Checks one profile against the reference and its own report; a
/// journaled profile must write exactly the reference's journal bytes.
fn check_run(
    run: &ProfileRun,
    profile: &Profile,
    reference: &Reference,
    journaled: bool,
) -> Result<(), String> {
    let r = &run.report;
    let journal_bytes = if journaled {
        reference.journal_bytes
    } else {
        0
    };
    if r.points != reference.points || profile.points.len() != reference.points {
        return Err(format!(
            "profile has {} points, expected {}",
            r.points, reference.points
        ));
    }
    if r.journal_bytes != journal_bytes {
        return Err(format!(
            "journal grew to {} bytes, expected {journal_bytes}",
            r.journal_bytes
        ));
    }
    if r.cells_resumed != 0 || !r.degraded_cells.is_empty() || r.frames_lost != 0 {
        return Err(format!(
            "fresh profile resumed {} cells, degraded {:?}, lost {} frames",
            r.cells_resumed, r.degraded_cells, r.frames_lost
        ));
    }
    // Every distinct key the report counts is at least one real call.
    // More calls than that are cold-key races the cache reclassifies as
    // hits (reported as `models.cache.lost_races`), not an error.
    let distinct = (r.model_runs + run.correction_frames) as u64;
    if run.detect.0 < distinct {
        return Err(format!(
            "the model saw {} calls, fewer than the {distinct} distinct runs reported",
            run.detect.0
        ));
    }
    if ToJson::to_json(profile).encode() != reference.json {
        return Err("profile differs from the run's first profile".into());
    }
    Ok(())
}

/// Samples of one timed phase: `(wall_ns, model calls)` per profile,
/// plus, in traced cycles, each profile's full cost record.
#[derive(Default)]
struct Phase {
    samples: Vec<(u64, u64)>,
    runs: Vec<ProfileRun>,
    attempted: u64,
}

/// Generates one profile per sampling seed, in order and without a
/// journal, checking each against its seed's reference.
fn cycle(
    runner: &Runner<'_>,
    references: &[(u64, Reference)],
    mut log: Option<&mut SpanLog>,
    phase: &mut Phase,
    out: &mut Outcome,
) {
    for (seed, reference) in references {
        phase.attempted += 1;
        let rid = phase.attempted;
        match runner.profile(*seed, rid, false, log.as_deref_mut()) {
            Ok((run, profile)) => {
                if let Err(e) = check_run(&run, &profile, reference, false) {
                    out.fail(format!("profile {rid} (seed {seed}): {e}"));
                }
                phase.samples.push((run.wall_ns, run.detect.0));
                if log.is_some() {
                    phase.runs.push(run);
                }
            }
            Err(e) => out.fail(format!("profile {rid} (seed {seed}): {e}")),
        }
    }
}

fn latency_ms(samples: &[(u64, u64)]) -> Vec<f64> {
    sorted(samples.iter().map(|&(wall, _)| wall as f64 / 1e6).collect())
}

/// Runs the generation workload.
pub fn run(opts: &Options, run_dir: &Path) -> Outcome {
    let mut out = Outcome::default();

    let timed_setup = || {
        let t = Instant::now();
        let fixture = setup();
        (t.elapsed().as_secs_f64(), fixture)
    };
    let (first_setup, fixture) = timed_setup();
    let mut setups = vec![first_setup];
    let runner = Runner {
        workload: Workload {
            corpus: &fixture.corpus,
            detector: &fixture.detector,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: DELTA,
        },
        fixture: &fixture,
        journal_root: run_dir.to_path_buf(),
    };

    // Untimed: the native truth, and one warm-up profile per sampling
    // seed, each the reference its seed's later profiles must reproduce.
    let population = runner.workload.population_outputs();
    let mut references = Vec::with_capacity(SAMPLE_SEEDS);
    let (mut err_b_means, mut coverages) = (Vec::new(), Vec::new());
    let mut seed_state = opts.seed;
    for k in 0..SAMPLE_SEEDS {
        let seed = splitmix(&mut seed_state);
        let (first, profile) = match runner.profile(seed, k as u64, true, None) {
            Ok(made) => made,
            Err(e) => {
                out.attempted = 1;
                out.fail(format!("reference profile for seed {seed}: {e}"));
                return out;
            }
        };
        match check::check_bounds(&profile, &population) {
            Ok(c) => coverages.push(c),
            Err(e) => {
                out.fail(format!("reference profile for seed {seed}: {e}"));
                coverages.push(check::bound_coverage(&profile, &population));
            }
        }
        err_b_means.push(mean(
            &profile.points.iter().map(|p| p.err_b).collect::<Vec<_>>(),
        ));
        references.push((
            seed,
            Reference {
                json: ToJson::to_json(&profile).encode(),
                points: first.report.points,
                journal_bytes: first.report.journal_bytes,
            },
        ));
    }
    let coverage = mean(&coverages);
    let candidates = fixture.grid.len() as f64;

    // Whole cycles only, so every sampling seed weighs the same. A traced
    // run alternates untraced and traced cycles, so both see the same
    // host conditions and their difference is the tracing overhead. One
    // fresh set-up, timed and dropped, follows each cycle: `setup_s` is
    // the median over them, taken under the same host conditions as the
    // profiles rather than in one burst before them. Then one untimed
    // journaled profile, the sampling seeds in turn, keeps `rt::journal`
    // checked in every run.
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut plain = Phase::default();
    let mut traced = opts.trace.then(Phase::default);
    let mut log = SpanLog::new(start);
    let mut journal_bytes = Vec::new();
    while plain.samples.is_empty() || start.elapsed() < budget {
        cycle(&runner, &references, None, &mut plain, &mut out);
        if let Some(traced) = traced.as_mut() {
            trace::set_enabled(true);
            cycle(&runner, &references, Some(&mut log), traced, &mut out);
            trace::set_enabled(false);
        }
        let (secs, fresh) = timed_setup();
        setups.push(secs);
        drop(fresh);
        let (seed, reference) = &references[journal_bytes.len() % SAMPLE_SEEDS];
        let rid = (1 << 32) | journal_bytes.len() as u64;
        match runner.profile(*seed, rid, true, None) {
            Ok((run, profile)) => {
                if let Err(e) = check_run(&run, &profile, reference, true) {
                    out.fail(format!("journaled profile (seed {seed}): {e}"));
                }
                journal_bytes.push(run.report.journal_bytes as f64);
            }
            Err(e) => {
                out.fail(format!("journaled profile (seed {seed}): {e}"));
                journal_bytes.push(0.0);
            }
        }
    }
    if opts.trace {
        let path = opts.trace_path();
        if let Err(e) = trace::write_jsonl(&path, &log.spans) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
        out.note(format!("{} spans recorded", log.spans.len()));
    }
    out.attempted =
        plain.attempted + traced.as_ref().map_or(0, |t| t.attempted) + journal_bytes.len() as u64;
    if plain.samples.is_empty() {
        out.fail("no profile completed in the timed phase");
        return out;
    }

    let lat = latency_ms(&plain.samples);
    let calls_per_profile = mean(
        &plain
            .samples
            .iter()
            .map(|&(_, calls)| calls as f64)
            .collect::<Vec<_>>(),
    );
    out.set("setup_s", median(&setups));
    out.set(
        "throughput_per_s",
        cycle_rate(
            &plain
                .samples
                .iter()
                .map(|&(wall, _)| wall)
                .collect::<Vec<_>>(),
            SAMPLE_SEEDS,
            candidates,
        ),
    );
    out.set("latency_p50_ms", nearest_rank(&lat, 0.5));
    out.set("latency_p90_ms", nearest_rank(&lat, 0.9));
    out.set("mean_err_b", mean(&err_b_means));
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    out.set("model_runs_per_profile", calls_per_profile);
    out.set("bound_coverage", coverage);
    out.note(format!(
        "profiles {} (latency samples) over {SAMPLE_SEEDS} sampling seeds, {} candidates per profile, points emitted per seed {:?}",
        plain.samples.len(),
        fixture.grid.len(),
        references.iter().map(|(_, r)| r.points).collect::<Vec<_>>()
    ));
    out.note(format!(
        "latency deciles (ms): {:?}",
        (1..=10)
            .map(|d| (nearest_rank(&lat, d as f64 / 10.0) * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    let setup_sorted = sorted(setups.clone());
    out.note(format!(
        "set-ups {}: quartiles (s) {:?}",
        setups.len(),
        [0.25, 0.5, 0.75].map(|q| (nearest_rank(&setup_sorted, q) * 1e5).round() / 1e5)
    ));
    out.note(format!(
        "model_runs_per_profile = {calls_per_profile} count; bound_coverage = {coverage} ratio"
    ));
    out.note(format!(
        "journaled profiles (untimed) {}: mean journal {} bytes",
        journal_bytes.len(),
        mean(&journal_bytes)
    ));

    if let Some(traced) = traced {
        let overhead = nearest_rank(&latency_ms(&traced.samples), 0.5) / nearest_rank(&lat, 0.5);
        out.set("trace.overhead_ratio", overhead - 1.0);
        layer_metrics(&traced.runs, &mut out);
        out.set("rt.journal.bytes", mean(&journal_bytes));
    }
    out
}

/// Per-layer metrics from the traced phase, as means per profile.
fn layer_metrics(runs: &[ProfileRun], out: &mut Outcome) {
    if runs.is_empty() {
        out.fail("no profile completed in the traced phase");
        return;
    }
    let per = |f: &dyn Fn(&ProfileRun) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    let workers = THREADS as f64;
    let detect_in_generate = |r: &ProfileRun| ms(r.detect.1 - r.correction_detect.1);
    let layer_ms = |r: &ProfileRun| r.report.estimation_ingest_ms + r.report.estimation_bound_ms;

    out.set("models.detect.calls", per(&|r| r.detect.0 as f64));
    out.set("models.detect.ms", per(&|r| ms(r.detect.1)));
    out.set(
        "models.cache.lost_races",
        per(&|r| {
            r.detect
                .0
                .saturating_sub((r.report.model_runs + r.correction_frames) as u64)
                as f64
        }),
    );
    let (hits, runs_n) = runs.iter().fold((0usize, 0usize), |(h, n), r| {
        (h + r.report.cache_hits, n + r.report.model_runs)
    });
    out.set(
        "models.cache.hit_ratio",
        if hits + runs_n == 0 {
            0.0
        } else {
            hits as f64 / (hits + runs_n) as f64
        },
    );
    out.set(
        "core.ingest.self_ms",
        per(&|r| r.report.estimation_ingest_ms - detect_in_generate(r)),
    );
    out.set("core.bound.ms", per(&|r| r.report.estimation_bound_ms));
    out.set(
        "core.correction.ms",
        per(&|r| ms(r.correction_ns) - ms(r.correction_detect.1)),
    );
    out.set(
        "core.correction.frames",
        per(&|r| r.correction_frames as f64),
    );
    out.set(
        "rt.pool.busy_ratio",
        per(&|r| layer_ms(r) / (ms(r.generate_ns) * workers)),
    );
    out.set(
        "core.generation.residual_ms",
        per(&|r| ms(r.generate_ns) * workers - layer_ms(r)),
    );
    out.note(format!(
        "traced profiles {}: detect {:.3} ms, ingest self {:.3} ms, bound {:.3} ms, correction self {:.3} ms, generate wall {:.3} ms x {THREADS} workers, residual {:.3} ms",
        runs.len(),
        per(&|r| ms(r.detect.1)),
        per(&|r| r.report.estimation_ingest_ms - detect_in_generate(r)),
        per(&|r| r.report.estimation_bound_ms),
        per(&|r| ms(r.correction_ns) - ms(r.correction_detect.1)),
        per(&|r| ms(r.generate_ns)),
        per(&|r| ms(r.generate_ns) * workers - layer_ms(r)),
    ));
}
