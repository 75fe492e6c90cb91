//! Profile similarity (§3.3.1 fallback, §5.3.2 experiment) and
//! content-drift scoring.
//!
//! When not even a random-intervention correction set is permissible on
//! the query video, an administrator can profile a *similar but less
//! sensitive* video and transfer the curves. This module quantifies how
//! close two profiles are by aligning their points on matching
//! intervention sets and diffing the bounds.
//!
//! The second half of the module is an AQuA-style **drift score**: a
//! profile's bounds assume upcoming video is drawn from the same
//! distribution the profile was calibrated on, and the scorer detects
//! when it is not. It maintains a windowed divergence of the kernel
//! summary statistic (the window mean of model outputs) against a
//! profiled [`DriftBaseline`]: each consecutive window of the live stream
//! is scored as `|window_mean − baseline_mean| / baseline_spread`, where
//! the spread is measured **empirically from the baseline's own window
//! means** — under temporal autocorrelation (cars persist across frames;
//! UA-DETRAC-style sequence multipliers) the i.i.d. `σ/√W` prediction
//! underestimates the real spread several-fold and would flood the score
//! with false positives. A window scoring above the threshold is flagged.
//! [`DriftScorer`] keeps only the current window's [`RunningStats`], so a
//! live window mean is exactly the quantity the baseline was profiled
//! from; `robust` and the serving daemon score streams with it.

use smokescreen_stats::describe::{windowed_means, RunningStats};
use smokescreen_video::{ObjectClass, Resolution};

use crate::profile::Profile;

/// A matched pair of profile points and their bound difference.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiffPoint {
    /// Sample fraction of the matched candidates.
    pub fraction: f64,
    /// Resolution of the matched candidates (None = native).
    pub resolution: Option<Resolution>,
    /// Restricted classes of the matched candidates.
    pub restricted: Vec<ObjectClass>,
    /// `err_b` in profile A.
    pub err_a: f64,
    /// `err_b` in profile B.
    pub err_b: f64,
}

impl ProfileDiffPoint {
    /// Absolute bound difference `|err_A − err_B|`.
    pub fn abs_difference(&self) -> f64 {
        (self.err_a - self.err_b).abs()
    }
}

/// Summary of a profile comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// All matched points.
    pub points: Vec<ProfileDiffPoint>,
}

impl ProfileDiff {
    /// Mean absolute bound difference over matched points (0 when none).
    pub fn mean_abs_difference(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.abs_difference()).sum::<f64>() / self.points.len() as f64
    }

    /// Largest absolute bound difference.
    pub fn max_abs_difference(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.abs_difference())
            .fold(0.0, f64::max)
    }

    /// Number of matched candidates.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no candidates matched.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Aligns two profiles on identical `(f, p, c)` candidates and diffs their
/// bounds. Fractions are matched with a small tolerance so profiles
/// generated over equal grids align even after floating-point noise.
pub fn profile_difference(a: &Profile, b: &Profile) -> ProfileDiff {
    let mut points = Vec::new();
    for pa in &a.points {
        if let Some(pb) = b.points.iter().find(|pb| {
            (pb.set.sample_fraction - pa.set.sample_fraction).abs() < 1e-9
                && pb.set.resolution == pa.set.resolution
                && same_classes(&pb.set.restricted, &pa.set.restricted)
        }) {
            points.push(ProfileDiffPoint {
                fraction: pa.set.sample_fraction,
                resolution: pa.set.resolution,
                restricted: pa.set.restricted.clone(),
                err_a: pa.err_b,
                err_b: pb.err_b,
            });
        }
    }
    ProfileDiff { points }
}

fn same_classes(a: &[ObjectClass], b: &[ObjectClass]) -> bool {
    a.len() == b.len() && a.iter().all(|c| b.contains(c))
}

/// Default scoring window, in frames. At 30 fps this is ~8.5 s of video —
/// long enough to average over per-frame detector noise, short enough to
/// catch a mid-stream regime change within seconds.
pub const DEFAULT_DRIFT_WINDOW: usize = 256;

/// Default flagging threshold on the drift score (a z-like statistic in
/// units of baseline window-mean spread). Tuned on both synthetic corpora:
/// clean streams stay comfortably below it across seeds while prevalence
/// drift clears it several-fold (see `tests/content_shift.rs`).
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 4.0;

/// Profiled reference statistics the drift score diverges from.
///
/// Built once from the baseline stream's model outputs (the same outputs
/// profile generation already computes), then carried as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBaseline {
    /// Scoring window length, in outputs.
    pub window: usize,
    /// Mean of the baseline's non-overlapping window means.
    pub mean: f64,
    /// Empirical spread (sample std-dev) of those window means, floored
    /// by the i.i.d. `σ/√W` prediction so a fluke-flat baseline cannot
    /// produce a divide-by-near-zero score.
    pub spread: f64,
}

impl DriftBaseline {
    /// Profiles a baseline from a stream of model outputs. Returns `None`
    /// when the stream holds fewer than two full windows — a spread
    /// measured from one window mean is no spread at all.
    pub fn from_outputs(outputs: &[f64], window: usize) -> Option<Self> {
        let means = windowed_means(outputs, window);
        if means.len() < 2 {
            return None;
        }
        let of_means = RunningStats::from_slice(&means);
        let per_frame = RunningStats::from_slice(outputs);
        let iid_floor = per_frame.std_dev() / (window as f64).sqrt();
        let abs_floor = 1e-6 * (1.0 + of_means.mean().abs());
        Some(DriftBaseline {
            window,
            mean: of_means.mean(),
            spread: of_means.sample_std_dev().max(iid_floor).max(abs_floor),
        })
    }

    /// The drift score of one window mean: divergence from the baseline
    /// mean in units of baseline spread.
    pub fn score(&self, window_mean: f64) -> f64 {
        (window_mean - self.mean).abs() / self.spread
    }
}

/// Outcome of scoring a stream against a [`DriftBaseline`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriftReport {
    /// Windows scored (including a final partial window of at least half
    /// length).
    pub windows_scored: usize,
    /// Windows whose score exceeded the threshold.
    pub windows_flagged: usize,
    /// Largest window score observed (0 when nothing was scored).
    pub max_score: f64,
}

impl DriftReport {
    /// Whether any window crossed the threshold.
    pub fn flagged(&self) -> bool {
        self.windows_flagged > 0
    }
}

/// Streaming drift scorer: accumulates consecutive windows of model
/// outputs in a [`RunningStats`] and scores each window's mean against
/// the baseline — the same `RunningStats` mean
/// [`DriftBaseline::from_outputs`] profiled, bit for bit, however the
/// stream is split between [`push`](Self::push) and
/// [`extend`](Self::extend).
///
/// A scorer serves batch audits ([`DriftScorer::finish`] also scores a
/// final partial window) and long-lived freshness monitors alike: the
/// serving daemon holds one per stored profile and reads
/// [`DriftScorer::report`], [`DriftScorer::stale`] and
/// [`DriftScorer::widening_factor`] without consuming it. Staleness
/// **latches** — once any window crosses the threshold the profile stays
/// stale until it is re-profiled, because bounds calibrated on the old
/// regime do not become trustworthy again just because the stream
/// wandered back.
#[derive(Debug, Clone)]
pub struct DriftScorer {
    baseline: DriftBaseline,
    threshold: f64,
    window: RunningStats,
    report: DriftReport,
}

impl DriftScorer {
    /// Creates a scorer flagging windows whose score exceeds `threshold`.
    pub fn new(baseline: DriftBaseline, threshold: f64) -> Self {
        DriftScorer {
            baseline,
            threshold,
            window: RunningStats::new(),
            report: DriftReport::default(),
        }
    }

    /// Profiles a baseline from `outputs` (the same outputs profile
    /// generation computed) and scores against it. `None` when the
    /// stream holds fewer than two full windows.
    pub fn from_outputs(outputs: &[f64], window: usize, threshold: f64) -> Option<Self> {
        DriftBaseline::from_outputs(outputs, window).map(|b| DriftScorer::new(b, threshold))
    }

    /// Ingests one model output in stream order, scoring whenever a
    /// window fills.
    pub fn push(&mut self, output: f64) {
        self.extend(&[output]);
    }

    /// Ingests a batch of outputs in stream order, cut at window
    /// boundaries.
    pub fn extend(&mut self, mut outputs: &[f64]) {
        while !outputs.is_empty() {
            // At least one output per step, so a zero-length window cannot spin.
            let room = (self.baseline.window - self.window.n()).max(1);
            let (head, rest) = outputs.split_at(room.min(outputs.len()));
            self.window.push_slice(head);
            if self.window.n() >= self.baseline.window {
                self.score_window();
            }
            outputs = rest;
        }
    }

    /// The accumulated report over all *full* windows scored so far.
    pub fn report(&self) -> DriftReport {
        self.report
    }

    /// Whether any window has crossed the threshold (latched).
    pub fn stale(&self) -> bool {
        self.report.flagged()
    }

    /// Multiplicative factor by which served error bounds should be
    /// widened while the profile is stale: `1.0` while fresh, and at
    /// least `1.0` once staleness latches — the worst observed window
    /// score relative to the flagging threshold. A profile that barely
    /// crossed the threshold widens barely; one whose stream drifted far
    /// from the baseline widens proportionally. Like the flag itself the
    /// factor never shrinks until re-profiling.
    pub fn widening_factor(&self) -> f64 {
        if !self.stale() || self.threshold <= 0.0 {
            1.0
        } else {
            (self.report.max_score / self.threshold).max(1.0)
        }
    }

    /// Outputs buffered in the current (not yet scored) partial window.
    pub fn pending(&self) -> usize {
        self.window.n()
    }

    /// Scores a final partial window (if it holds at least half a window
    /// of outputs — shorter tails are too noisy to judge) and returns the
    /// accumulated report.
    pub fn finish(mut self) -> DriftReport {
        if self.pending() >= self.baseline.window.div_ceil(2) {
            self.score_window();
        }
        self.report
    }

    /// Scores the current window and starts the next.
    fn score_window(&mut self) {
        let score = self.baseline.score(self.window.mean());
        self.window = RunningStats::new();
        self.report.windows_scored += 1;
        if score > self.threshold {
            self.report.windows_flagged += 1;
        }
        if score > self.report.max_score {
            self.report.max_score = score;
        }
    }
}

/// Scores a whole stream at once — the batch convenience over
/// [`DriftScorer`].
pub fn drift_score(baseline: &DriftBaseline, outputs: &[f64], threshold: f64) -> DriftReport {
    let mut scorer = DriftScorer::new(*baseline, threshold);
    scorer.extend(outputs);
    scorer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Aggregate;
    use crate::profile::ProfilePoint;
    use smokescreen_degrade::InterventionSet;

    fn profile(errs: &[(f64, f64)]) -> Profile {
        Profile {
            corpus: "t".into(),
            model: "m".into(),
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
            points: errs
                .iter()
                .map(|&(f, e)| ProfilePoint {
                    set: InterventionSet::sampling(f),
                    y_approx: 1.0,
                    err_b: e,
                    corrected: false,
                    n: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_profiles_have_zero_difference() {
        let a = profile(&[(0.1, 0.3), (0.2, 0.2)]);
        let d = profile_difference(&a, &a.clone());
        assert_eq!(d.len(), 2);
        assert_eq!(d.mean_abs_difference(), 0.0);
        assert_eq!(d.max_abs_difference(), 0.0);
    }

    #[test]
    fn differences_are_computed_per_matched_point() {
        let a = profile(&[(0.1, 0.30), (0.2, 0.20)]);
        let b = profile(&[(0.1, 0.25), (0.2, 0.30), (0.5, 0.1)]);
        let d = profile_difference(&a, &b);
        assert_eq!(d.len(), 2); // 0.5 is unmatched
        assert!((d.mean_abs_difference() - 0.075).abs() < 1e-12);
        assert!((d.max_abs_difference() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn disjoint_profiles_empty_diff() {
        let a = profile(&[(0.1, 0.3)]);
        let b = profile(&[(0.4, 0.3)]);
        let d = profile_difference(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.mean_abs_difference(), 0.0);
    }

    /// A deterministic noisy stream around `level` (LCG, no global rng).
    fn noisy_stream(n: usize, level: f64, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                level + ((state >> 33) % 7) as f64 - 3.0
            })
            .collect()
    }

    #[test]
    fn baseline_needs_two_full_windows() {
        assert!(DriftBaseline::from_outputs(&noisy_stream(100, 5.0, 1), 64).is_none());
        assert!(DriftBaseline::from_outputs(&noisy_stream(128, 5.0, 1), 64).is_some());
        assert!(DriftBaseline::from_outputs(&[], 64).is_none());
    }

    #[test]
    fn baseline_spread_never_collapses() {
        // A perfectly constant stream still gets a positive spread (the
        // absolute floor), so scoring can never divide by zero.
        let constant = vec![3.0; 1_024];
        let b = DriftBaseline::from_outputs(&constant, 128).unwrap();
        assert!(b.spread > 0.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.score(3.0), 0.0);
        assert!(b.score(4.0).is_finite());
    }

    #[test]
    fn clean_stream_scores_low_and_shifted_stream_flags() {
        let baseline_outputs = noisy_stream(4_096, 5.0, 7);
        let b = DriftBaseline::from_outputs(&baseline_outputs, 256).unwrap();

        // A fresh stream from the same regime: no window flags.
        let clean = drift_score(&b, &noisy_stream(4_096, 5.0, 8), DEFAULT_DRIFT_THRESHOLD);
        assert!(clean.windows_scored >= 16);
        assert!(!clean.flagged(), "clean max_score={}", clean.max_score);

        // The same regime with the final third shifted up 2.5×: the tail
        // windows must flag.
        let mut drifted = noisy_stream(4_096, 5.0, 9);
        for v in drifted.iter_mut().skip(2_730) {
            *v *= 2.5;
        }
        let report = drift_score(&b, &drifted, DEFAULT_DRIFT_THRESHOLD);
        assert!(report.flagged(), "drifted max_score={}", report.max_score);
        assert!(report.max_score > clean.max_score * 2.0);
    }

    #[test]
    fn scorer_streams_identically_to_batch_and_scores_partial_tail() {
        let b = DriftBaseline::from_outputs(&noisy_stream(2_048, 4.0, 3), 128).unwrap();
        let stream = noisy_stream(1_000, 4.0, 4);
        let batch = drift_score(&b, &stream, DEFAULT_DRIFT_THRESHOLD);
        let mut scorer = DriftScorer::new(b, DEFAULT_DRIFT_THRESHOLD);
        for &v in &stream {
            scorer.push(v);
        }
        // Mid-stream, the report covers full windows only; the tail is
        // still pending.
        assert_eq!(scorer.report().windows_scored, 7);
        assert_eq!(scorer.pending(), 104);
        assert_eq!(scorer.finish(), batch);
        // 1000 = 7 full windows of 128 (896) + a 104-output tail ≥ 64:
        // the tail is scored too.
        assert_eq!(batch.windows_scored, 8);

        // A tail shorter than half a window is dropped.
        let short = drift_score(&b, &stream[..896 + 40], DEFAULT_DRIFT_THRESHOLD);
        assert_eq!(short.windows_scored, 7);
    }

    /// A `1` every 10th frame, a `6` every 40th frame (offset 5), else `0`.
    fn sparse_pattern(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 10 == 0 { 1.0 } else if i % 40 == 5 { 6.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn clean_tail_window_is_scored_by_its_mean() {
        let b = DriftBaseline::from_outputs(&sparse_pattern(4_096), 256).unwrap();
        // Two full windows and a 200-frame tail of the baseline's pattern.
        let stream = sparse_pattern(712);
        let report = drift_score(&b, &stream, DEFAULT_DRIFT_THRESHOLD);
        assert_eq!(report.windows_scored, 3);
        assert!(!report.flagged(), "clean stream flagged, max_score={}", report.max_score);

        // One definition of "window mean": each window's live score is the
        // baseline score of its `RunningStats` mean, however it is fed.
        let expected: Vec<f64> = stream
            .chunks(256)
            .map(|w| b.score(RunningStats::from_slice(w).mean()))
            .collect();
        for (window, &score) in stream.chunks(256).zip(&expected) {
            let mut pushed = DriftScorer::new(b, DEFAULT_DRIFT_THRESHOLD);
            window.iter().for_each(|&v| pushed.push(v));
            assert_eq!(pushed.finish().max_score.to_bits(), score.to_bits());
            for chunk in [3, 64, 100, 256] {
                let mut scorer = DriftScorer::new(b, DEFAULT_DRIFT_THRESHOLD);
                window.chunks(chunk).for_each(|part| scorer.extend(part));
                assert_eq!(scorer.finish().max_score.to_bits(), score.to_bits(), "chunk {chunk}");
            }
        }
        let max = expected.iter().copied().fold(0.0, f64::max);
        assert_eq!(report.max_score.to_bits(), max.to_bits());
        for chunk in [1, 7, 255, 300, 712] {
            let mut scorer = DriftScorer::new(b, DEFAULT_DRIFT_THRESHOLD);
            stream.chunks(chunk).for_each(|part| scorer.extend(part));
            assert_eq!(scorer.finish(), report, "chunk {chunk}");
        }
    }

    #[test]
    fn stale_latches_on_prevalence_drift_with_zero_false_positives() {
        let window = 256;

        // Clean streams from the same regime, many seeds: the staleness
        // flag must never flip (zero false positives is the contract that
        // makes serving the flag actionable).
        for seed in 0..8u64 {
            let baseline = noisy_stream(4_096, 5.0, 100 + seed);
            let mut scorer =
                DriftScorer::from_outputs(&baseline, window, DEFAULT_DRIFT_THRESHOLD).unwrap();
            scorer.extend(&noisy_stream(4_096, 5.0, 200 + seed));
            assert!(
                !scorer.stale(),
                "seed {seed}: clean stream flagged stale, max_score={}",
                scorer.report().max_score
            );
            assert!(scorer.report().windows_scored >= 16);
            assert_eq!(scorer.report().windows_flagged, 0);
        }

        // A prevalence shift mid-stream must latch the flag — and keep it
        // latched even after the stream returns to the old regime.
        let baseline = noisy_stream(4_096, 5.0, 42);
        let mut scorer =
            DriftScorer::from_outputs(&baseline, window, DEFAULT_DRIFT_THRESHOLD).unwrap();
        scorer.extend(&noisy_stream(1_024, 5.0, 43));
        assert!(!scorer.stale(), "pre-drift stretch is clean");
        let drifted: Vec<f64> = noisy_stream(1_024, 5.0, 44).iter().map(|v| v * 2.5).collect();
        scorer.extend(&drifted);
        assert!(scorer.stale(), "prevalence drift flips the flag");
        scorer.extend(&noisy_stream(1_024, 5.0, 45));
        assert!(scorer.stale(), "staleness is latched until re-profiling");
        assert!(scorer.report().max_score > DEFAULT_DRIFT_THRESHOLD);
    }

    #[test]
    fn widening_factor_is_one_while_fresh_and_tracks_worst_window() {
        let baseline = noisy_stream(4_096, 5.0, 42);
        let mut scorer = DriftScorer::from_outputs(&baseline, 256, DEFAULT_DRIFT_THRESHOLD).unwrap();
        scorer.extend(&noisy_stream(1_024, 5.0, 43));
        assert_eq!(scorer.widening_factor(), 1.0, "fresh profile never widens");

        let drifted: Vec<f64> = noisy_stream(1_024, 5.0, 44).iter().map(|v| v * 2.5).collect();
        scorer.extend(&drifted);
        assert!(scorer.stale());
        let widen = scorer.widening_factor();
        assert!(widen > 1.0, "stale profile widens, got {widen}");
        assert_eq!(
            widen,
            scorer.report().max_score / DEFAULT_DRIFT_THRESHOLD,
            "factor is the worst window score relative to the threshold"
        );

        // Back on the old regime the factor stays latched, like the flag.
        scorer.extend(&noisy_stream(1_024, 5.0, 45));
        assert!(scorer.widening_factor() >= widen);
    }
}
