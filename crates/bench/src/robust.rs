//! Bound-soundness audit matrix under content faults (`ROBUST_<n>.json`).
//!
//! The paper's profiles promise `P(true error ≤ err_b) ≥ 1 − δ` assuming
//! the sampled frame population is the population the query runs over.
//! Content faults stress that assumption from two directions, and the
//! audit measures both:
//!
//! * **`coverage_perturbed`** — bound coverage against the *perturbed*
//!   population's own truth. Because perturbation decisions are pure in
//!   `(seed, frame index)` — never frame content — the perturbed
//!   population is fixed before sampling, uniform sampling stays uniform
//!   over it, and the distribution-free bounds must stay nominal **at
//!   every rate and kind**. The audit asserts this (and a δ=1e-6 strict
//!   sweep that must never be violated): a failure here is broken math.
//! * **`coverage_clean`** — coverage of the same estimates against the
//!   *clean* baseline's truth, i.e. what an administrator who profiled
//!   clean video actually experiences when the content shifts under
//!   them. Nothing guarantees this; the audit *records* where it
//!   degrades (label-flip at rate 0.5 is the canonical collapse) and
//!   flags those cells rather than asserting them away.
//!
//! Alongside the coverage matrix, every perturbed stream is scored by the
//! AQuA-style drift scorer against a baseline profiled on a *different
//! seed* of the clean corpus: prevalence-drift streams must flag,
//! unperturbed streams must never flag — the detection signal that tells
//! an administrator when `coverage_clean` can no longer be trusted.
//!
//! The emitted `bench_results/ROBUST_<pr>.json` uses the same
//! versioned-snapshot conventions as the perf trajectory
//! ([`crate::trajectory`]): a schema tag, deterministic pretty encoding,
//! and a structural schema golden (`tests/golden/content_shift_schema.json`).

use std::fs;
use std::path::{Path, PathBuf};

use smokescreen_core::{
    drift_score, estimate_from_outputs, true_relative_error, Aggregate, DriftBaseline, Workload,
    DEFAULT_DRIFT_THRESHOLD, DEFAULT_DRIFT_WINDOW,
};
use smokescreen_models::Detector;
use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
use smokescreen_rt::json_codec;
use smokescreen_stats::sample::sample_indices;
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::{ObjectClass, Perturb, PerturbKind, PerturbPlan, VideoCorpus};

use crate::workloads::ModelKind;

/// Format tag for `ROBUST_<n>.json`.
pub const SCHEMA: &str = "smokescreen-robust/1";

/// Paper-default confidence parameter for the nominal-coverage sweep.
pub const DELTA: f64 = 0.05;

/// Near-certain confidence for the never-violated sweep: at δ=1e-6 a
/// single observed violation across the matrix means the bound math is
/// broken, not unlucky.
pub const STRICT_DELTA: f64 = 1e-6;

/// Finite-trial slack on nominal coverage: with `T` trials the audit
/// asserts `coverage ≥ 1 − δ − slack` rather than exactly `1 − δ`.
pub const COVERAGE_SLACK: f64 = 0.05;

/// Audit matrix configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Smoke mode: one kind × one rate, fewer trials, smaller corpora.
    pub smoke: bool,
    /// Sampling trials per cell.
    pub trials: usize,
    /// Frames per corpus slice.
    pub frames: usize,
    /// Base seed (corpus generation, perturbation plans, trial sampling).
    pub seed: u64,
    /// Perturbation kinds swept (`None` = the unperturbed control).
    pub kinds: Vec<Option<PerturbKind>>,
    /// Perturbation rates swept (the control always runs at rate 0).
    pub rates: Vec<f64>,
    /// Drift-scorer window (frames).
    pub drift_window: usize,
    /// Drift-scorer flagging threshold.
    pub drift_threshold: f64,
}

impl AuditConfig {
    /// The full committed matrix: every kind × three rates × both corpora.
    ///
    /// The rate floor is 0.1 by design: at rate 0.05 the drift regime's
    /// tail (5% of 4 000 frames = 200) is shorter than the scorer window,
    /// so "flags every drift stream" would be vacuous noise rather than a
    /// detection claim.
    pub fn full() -> Self {
        AuditConfig {
            smoke: false,
            trials: 40,
            frames: 4_000,
            seed: 42,
            kinds: std::iter::once(None)
                .chain(PerturbKind::ALL.into_iter().map(Some))
                .collect(),
            rates: vec![0.1, 0.25, 0.5],
            drift_window: DEFAULT_DRIFT_WINDOW,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
        }
    }

    /// CI smoke slice: the control plus one kind × one rate on both
    /// corpora.
    pub fn smoke() -> Self {
        AuditConfig {
            smoke: true,
            trials: 12,
            frames: 1_500,
            seed: 42,
            kinds: vec![None, Some(PerturbKind::Glare)],
            rates: vec![0.25],
            drift_window: DEFAULT_DRIFT_WINDOW,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
        }
    }
}

/// The aggregates the matrix sweeps (names match `EXPERIMENTS.md`).
pub fn audit_aggregates() -> [(&'static str, Aggregate); 3] {
    [
        ("AVG", Aggregate::Avg),
        ("MAX", Aggregate::Max { r: 0.99 }),
        ("COUNT", Aggregate::Count { at_least: 1.0 }),
    ]
}

/// The sample-fraction ladder the matrix sweeps.
pub const AUDIT_FRACTIONS: [f64; 3] = [0.02, 0.05, 0.2];

/// One cell of the audit matrix: a `(corpus, kind, rate, aggregate,
/// fraction)` combination measured over `trials` seeded samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCell {
    /// Dataset label (`night-street` / `detrac`).
    pub corpus: String,
    /// Perturbation kind (`none` for the control).
    pub kind: String,
    /// Perturbation rate (0 for the control).
    pub rate: f64,
    /// Aggregate name.
    pub aggregate: String,
    /// Sample fraction.
    pub fraction: f64,
    /// Trials measured.
    pub trials: usize,
    /// Fraction of trials whose true error vs the **perturbed** truth
    /// stayed within `err_b` at δ=0.05 — must be nominal everywhere.
    pub coverage_perturbed: f64,
    /// Fraction of trials whose true error vs the **clean** truth stayed
    /// within `err_b` — recorded, asserted only for the control.
    pub coverage_clean: f64,
    /// Bound violations vs the perturbed truth at δ=1e-6 — must be 0.
    pub strict_violations: usize,
    /// Mean `err_b` across trials at δ=0.05.
    pub mean_err_bound: f64,
    /// Whether `coverage_clean` fell below nominal: the regime where the
    /// paper's assumption provably bends. Flagged, never failed.
    pub degraded: bool,
}

json_codec! {
    AuditCell {
        corpus, kind, rate, aggregate, fraction, trials, coverage_perturbed, coverage_clean,
        strict_violations, mean_err_bound, degraded,
    }
}

/// Drift-scorer verdict for one perturbed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAudit {
    /// Dataset label.
    pub corpus: String,
    /// Perturbation kind (`none` for the control).
    pub kind: String,
    /// Perturbation rate.
    pub rate: f64,
    /// Largest windowed drift score.
    pub max_score: f64,
    /// Windows scored.
    pub windows_scored: usize,
    /// Windows above the threshold.
    pub windows_flagged: usize,
    /// Whether the stream flagged at the default threshold.
    pub flagged: bool,
}

json_codec! {
    StreamAudit {
        corpus, kind, rate, max_score, windows_scored, windows_flagged, flagged,
    }
}

/// One audit file: provenance plus the full matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustAudit {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// PR number this file belongs to (`ROBUST_<pr>.json`).
    pub pr: u64,
    /// Git revision of the run (short hash, or `unknown`).
    pub git_rev: String,
    /// Whether this was a smoke run (sparser matrix, fewer trials).
    pub smoke: bool,
    /// Trials per cell.
    pub trials: usize,
    /// Frames per corpus slice.
    pub frames: usize,
    /// Nominal confidence parameter of the coverage sweep.
    pub delta: f64,
    /// Confidence parameter of the never-violated sweep.
    pub strict_delta: f64,
    /// Drift-scorer window.
    pub drift_window: usize,
    /// Drift-scorer threshold.
    pub drift_threshold: f64,
    /// Coverage matrix cells, in sweep order.
    pub cells: Vec<AuditCell>,
    /// Drift verdicts per perturbed stream, in sweep order.
    pub streams: Vec<StreamAudit>,
}

impl RobustAudit {
    /// Writes the pretty-encoded file; returns the path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(robust_file_name(self.pr));
        fs::write(&path, self.to_json().encode_pretty())?;
        Ok(path)
    }

    /// Parses an audit file, validating the schema tag.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let audit =
            RobustAudit::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        if audit.schema != SCHEMA {
            return Err(format!(
                "{}: schema {:?}, expected {SCHEMA:?}",
                path.display(),
                audit.schema
            ));
        }
        Ok(audit)
    }
}

json_codec! {
    RobustAudit {
        schema, pr, git_rev, smoke, trials, frames, delta, strict_delta, drift_window,
        drift_threshold, cells, streams,
    }
    check |audit: &RobustAudit| if audit.cells.is_empty() {
        Err(JsonError::new("audit has no cells"))
    } else {
        Ok(())
    }
}

/// The canonical audit file name for a PR number.
pub fn robust_file_name(pr: u64) -> String {
    format!("ROBUST_{pr}.json")
}

/// Per-frame model outputs at the workload's effective native resolution
/// — the population the query runs over.
fn outputs_of(corpus: &VideoCorpus, detector: &dyn Detector) -> Vec<f64> {
    Workload {
        corpus,
        detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: DELTA,
    }
    .population_outputs()
}

/// Runs the audit matrix.
pub fn run(cfg: &AuditConfig, pr: u64, rev: String) -> RobustAudit {
    let mut cells = Vec::new();
    let mut streams = Vec::new();

    for dataset in [DatasetPreset::NightStreet, DatasetPreset::Detrac] {
        let label = dataset.name();
        let detector = ModelKind::paper_default(dataset).build(cfg.seed);
        let clean = dataset.generate(cfg.seed).slice(0, cfg.frames);
        let clean_outputs = outputs_of(&clean, detector.as_ref());

        // The drift baseline is profiled on a *different seed* of the
        // clean regime — the audit's clean stream must score as "new
        // video from the same distribution", not as "the exact frames the
        // baseline averaged".
        let baseline_corpus = dataset.generate(cfg.seed + 101).slice(0, cfg.frames);
        let baseline = DriftBaseline::from_outputs(
            &outputs_of(&baseline_corpus, detector.as_ref()),
            cfg.drift_window,
        )
        .expect("audit corpora hold at least two drift windows");

        for &kind in &cfg.kinds {
            let rates: &[f64] = match kind {
                None => &[0.0],
                Some(_) => &cfg.rates,
            };
            for &rate in rates {
                let (kind_name, outputs) = match kind {
                    None => ("none".to_string(), clean_outputs.clone()),
                    Some(k) => {
                        let perturbed =
                            PerturbPlan::with_stream(cfg.seed, rate, k).apply(&clean);
                        (k.name().to_string(), outputs_of(&perturbed, detector.as_ref()))
                    }
                };

                let report = drift_score(&baseline, &outputs, cfg.drift_threshold);
                streams.push(StreamAudit {
                    corpus: label.to_string(),
                    kind: kind_name.clone(),
                    rate,
                    max_score: report.max_score,
                    windows_scored: report.windows_scored,
                    windows_flagged: report.windows_flagged,
                    flagged: report.flagged(),
                });

                cells.extend(audit_variant(
                    cfg,
                    label,
                    &kind_name,
                    rate,
                    &outputs,
                    &clean_outputs,
                ));
            }
        }
    }

    RobustAudit {
        schema: SCHEMA.to_string(),
        pr,
        git_rev: rev,
        smoke: cfg.smoke,
        trials: cfg.trials,
        frames: cfg.frames,
        delta: DELTA,
        strict_delta: STRICT_DELTA,
        drift_window: cfg.drift_window,
        drift_threshold: cfg.drift_threshold,
        cells,
        streams,
    }
}

/// Sweeps aggregates × fractions × trials for one `(corpus, kind, rate)`
/// variant. Trial samples are shared across aggregates: the paper
/// estimates every aggregate from the same degraded sample, so the audit
/// does too.
fn audit_variant(
    cfg: &AuditConfig,
    corpus: &str,
    kind: &str,
    rate: f64,
    outputs: &[f64],
    clean_outputs: &[f64],
) -> Vec<AuditCell> {
    let nominal = 1.0 - DELTA - COVERAGE_SLACK;
    let population = outputs.len();
    let mut cells = Vec::new();
    for &fraction in &AUDIT_FRACTIONS {
        let n = ((population as f64 * fraction) as usize).max(2);
        // One seeded sample per trial, reused by every aggregate.
        let samples: Vec<Vec<f64>> = (0..cfg.trials)
            .map(|t| {
                sample_indices(population, n, cfg.seed + 1 + t as u64)
                    .expect("valid sample")
                    .into_iter()
                    .map(|i| outputs[i])
                    .collect()
            })
            .collect();
        for (agg_name, aggregate) in audit_aggregates() {
            let mut covered_perturbed = 0usize;
            let mut covered_clean = 0usize;
            let mut strict_violations = 0usize;
            let mut bound_sum = 0.0;
            for sample in &samples {
                let est = estimate_from_outputs(aggregate, sample, population, DELTA)
                    .expect("audit estimates cannot fail");
                bound_sum += est.err_b();
                if true_relative_error(aggregate, &est, outputs) <= est.err_b() {
                    covered_perturbed += 1;
                }
                if true_relative_error(aggregate, &est, clean_outputs) <= est.err_b() {
                    covered_clean += 1;
                }
                let strict = estimate_from_outputs(aggregate, sample, population, STRICT_DELTA)
                    .expect("audit estimates cannot fail");
                if true_relative_error(aggregate, &strict, outputs) > strict.err_b() {
                    strict_violations += 1;
                }
            }
            let coverage_perturbed = covered_perturbed as f64 / cfg.trials as f64;
            let coverage_clean = covered_clean as f64 / cfg.trials as f64;
            cells.push(AuditCell {
                corpus: corpus.to_string(),
                kind: kind.to_string(),
                rate,
                aggregate: agg_name.to_string(),
                fraction,
                trials: cfg.trials,
                coverage_perturbed,
                coverage_clean,
                strict_violations,
                mean_err_bound: bound_sum / cfg.trials as f64,
                degraded: coverage_clean < nominal,
            });
        }
    }
    cells
}

/// Verifies the audit's hard invariants; returns the violations (empty =
/// sound). Degraded `coverage_clean` regimes are *expected* — they are
/// flagged in the cells, and full runs must exhibit at least one (a matrix
/// that never degrades is not measuring anything).
pub fn check(audit: &RobustAudit) -> Vec<String> {
    let nominal = 1.0 - audit.delta - COVERAGE_SLACK;
    let mut violations = Vec::new();
    for c in &audit.cells {
        let id = format!(
            "{}/{}@{}/{}/f={}",
            c.corpus, c.kind, c.rate, c.aggregate, c.fraction
        );
        if c.strict_violations > 0 {
            violations.push(format!(
                "{id}: {} bound violations at δ={} vs the perturbed truth — broken math",
                c.strict_violations, audit.strict_delta
            ));
        }
        if c.coverage_perturbed < nominal {
            violations.push(format!(
                "{id}: coverage_perturbed {} < {nominal} — sampling over a fixed \
                 perturbed population must stay nominal",
                c.coverage_perturbed
            ));
        }
        if c.kind == "none" && c.coverage_clean < nominal {
            violations.push(format!(
                "{id}: unperturbed coverage_clean {} < {nominal}",
                c.coverage_clean
            ));
        }
        if c.degraded != (c.coverage_clean < nominal) {
            violations.push(format!("{id}: degraded flag inconsistent with coverage"));
        }
    }
    for s in &audit.streams {
        let id = format!("{}/{}@{}", s.corpus, s.kind, s.rate);
        if s.kind == "none" && s.flagged {
            violations.push(format!(
                "{id}: drift scorer false positive on an unperturbed stream \
                 (max_score {})",
                s.max_score
            ));
        }
        if s.kind == "drift" && !s.flagged {
            violations.push(format!(
                "{id}: drift scorer missed a prevalence-drift stream \
                 (max_score {})",
                s.max_score
            ));
        }
    }
    if !audit.smoke && !audit.cells.iter().any(|c| c.degraded) {
        violations.push(
            "full matrix exhibits no degraded regime — the audit is not \
             exercising the assumption it exists to test"
                .to_string(),
        );
    }
    violations
}
