//! Online (streaming) query estimation.
//!
//! After the administrator picks a tradeoff, "the query result is
//! estimated by running the query on … upcoming videos processed by the
//! determined degradation operations" (§3.1). Upcoming video arrives
//! frame-by-frame, so this module maintains a running `(Y_approx, err_b)`
//! as outputs stream in and supports a stopping rule: halt ingestion once
//! the bound reaches a target — the early-stopping idea of §3.3.2 applied
//! at query time, which saves model invocations on live video.
//!
//! Estimates are refreshed on a geometric schedule (every time the sample
//! grows ~5%) so per-frame cost stays O(1) amortized even for the
//! sort-based quantile estimators.

use crate::estimate::{estimate_from_outputs, Aggregate, Estimate};
use crate::Result;

/// Progress state of a streaming estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamingStatus {
    /// Still ingesting; the bound has not reached the target.
    Collecting,
    /// The error-bound target has been met — ingestion can stop.
    Converged,
    /// The whole population has been consumed.
    Exhausted,
}

/// Incremental estimator over streaming model outputs.
///
/// Outputs must arrive in the order of a without-replacement random scan
/// (e.g. a `DegradedView`'s sample order, or a camera shipping a random
/// sample of upcoming frames).
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    aggregate: Aggregate,
    population: usize,
    delta: f64,
    target_err: Option<f64>,
    outputs: Vec<f64>,
    cached: Option<Estimate>,
    next_refresh: usize,
}

impl StreamingEstimator {
    /// Creates an estimator for a query over a population of `N` frames.
    pub fn new(aggregate: Aggregate, population: usize, delta: f64) -> Self {
        StreamingEstimator {
            aggregate,
            population,
            delta,
            target_err: None,
            outputs: Vec::new(),
            cached: None,
            next_refresh: 2,
        }
    }

    /// Sets a stopping target: [`push`](Self::push) reports
    /// [`StreamingStatus::Converged`] once `err_b ≤ target`.
    pub fn with_stop_at(mut self, target_err: f64) -> Self {
        self.target_err = Some(target_err);
        self
    }

    /// Number of outputs ingested so far.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Ingests one model output and reports progress. The estimate is
    /// refreshed on a geometric schedule; use [`estimate`](Self::estimate)
    /// for an exact up-to-the-frame value.
    pub fn push(&mut self, output: f64) -> Result<StreamingStatus> {
        self.outputs.push(output);
        let n = self.outputs.len();
        if n >= self.next_refresh || n >= self.population {
            self.cached = Some(estimate_from_outputs(
                self.aggregate,
                &self.outputs,
                self.population,
                self.delta,
            )?);
            // ~5% growth between refreshes.
            self.next_refresh = n + (n / 20).max(1);
        }
        Ok(self.status())
    }

    /// Current status based on the latest refreshed estimate.
    pub fn status(&self) -> StreamingStatus {
        if self.outputs.len() >= self.population {
            return StreamingStatus::Exhausted;
        }
        match (self.target_err, &self.cached) {
            (Some(target), Some(est)) if est.err_b() <= target => StreamingStatus::Converged,
            _ => StreamingStatus::Collecting,
        }
    }

    /// The exact estimate over everything ingested so far.
    pub fn estimate(&self) -> Result<Estimate> {
        estimate_from_outputs(self.aggregate, &self.outputs, self.population, self.delta)
    }

    /// The most recently refreshed (possibly slightly stale) estimate.
    pub fn cached_estimate(&self) -> Option<&Estimate> {
        self.cached.as_ref()
    }

    /// The outputs ingested since construction or the last
    /// [`reset_baseline`](Self::reset_baseline) — the current window, in
    /// arrival order.
    pub fn window(&self) -> &[f64] {
        &self.outputs
    }

    /// Clears the ingested window so the estimator can be reused for the
    /// next span of the stream — the hook the content-drift scorer uses
    /// to score consecutive windows against a profiled baseline without
    /// duplicating kernel state. The aggregate, population, `δ`, and any
    /// stopping target are retained; only the window (and its cached
    /// estimate / refresh schedule) reset.
    pub fn reset_baseline(&mut self) {
        self.outputs.clear();
        self.cached = None;
        self.next_refresh = 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_degrade::{DegradedView, InterventionSet, RestrictionIndex};
    use smokescreen_models::{Detector, SimYoloV4};
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::ObjectClass;

    #[test]
    fn streaming_matches_batch_estimation() {
        let corpus = DatasetPreset::Detrac.generate(60).slice(0, 3_000);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let yolo = SimYoloV4::new(1);
        let view =
            DegradedView::new(&corpus, InterventionSet::sampling(0.2), &idx, 9).unwrap();
        let outputs = view.outputs(&yolo, ObjectClass::Car);

        let mut streaming = StreamingEstimator::new(Aggregate::Avg, corpus.len(), 0.05);
        for &v in &outputs {
            streaming.push(v).unwrap();
        }
        let batch = estimate_from_outputs(Aggregate::Avg, &outputs, corpus.len(), 0.05).unwrap();
        assert_eq!(streaming.estimate().unwrap(), batch);
    }

    #[test]
    fn converges_and_stops_early() {
        let corpus = DatasetPreset::Detrac.generate(61).slice(0, 5_000);
        let truth = corpus.stats().mean_cars_per_frame;
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let yolo = SimYoloV4::new(2);
        let view = DegradedView::new(&corpus, InterventionSet::none(), &idx, 3).unwrap();

        let mut streaming =
            StreamingEstimator::new(Aggregate::Avg, corpus.len(), 0.05).with_stop_at(0.25);
        let mut consumed = 0usize;
        let res = view.resolution();
        for i in 0..view.len() {
            let frame = view.frame(i).unwrap();
            consumed += 1;
            if streaming.push(yolo.count(&frame, res, ObjectClass::Car)).unwrap()
                == StreamingStatus::Converged
            {
                break;
            }
        }
        assert!(
            consumed < corpus.len() / 2,
            "should converge well before scanning half the video: {consumed}"
        );
        let est = streaming.estimate().unwrap();
        assert!(est.err_b() <= 0.3);
        // The early-stopped answer is actually close to the truth.
        assert!(((est.y_approx() - truth) / truth).abs() <= est.err_b() + 0.05);
    }

    #[test]
    fn exhaustion_reported_at_full_population() {
        let mut s = StreamingEstimator::new(Aggregate::Avg, 3, 0.05);
        assert_eq!(s.push(1.0).unwrap(), StreamingStatus::Collecting);
        assert_eq!(s.push(2.0).unwrap(), StreamingStatus::Collecting);
        assert_eq!(s.push(3.0).unwrap(), StreamingStatus::Exhausted);
    }

    #[test]
    fn reset_baseline_reuses_kernel_state_across_windows() {
        let mut s = StreamingEstimator::new(Aggregate::Avg, 100, 0.05);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v).unwrap();
        }
        assert_eq!(s.window(), &[1.0, 2.0, 3.0, 4.0]);
        let first = s.estimate().unwrap();

        s.reset_baseline();
        assert!(s.is_empty());
        assert!(s.window().is_empty());
        assert!(s.cached_estimate().is_none());
        assert_eq!(s.status(), StreamingStatus::Collecting);

        // The second window must behave exactly like a fresh estimator —
        // same refresh schedule, same estimate for the same inputs.
        let mut fresh = StreamingEstimator::new(Aggregate::Avg, 100, 0.05);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v).unwrap();
            fresh.push(v).unwrap();
        }
        assert_eq!(s.estimate().unwrap(), first);
        assert_eq!(s.estimate().unwrap(), fresh.estimate().unwrap());
        assert_eq!(s.cached_estimate(), fresh.cached_estimate());
    }

    #[test]
    fn quantile_streams_too() {
        let corpus = DatasetPreset::Detrac.generate(62).slice(0, 2_000);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let yolo = SimYoloV4::new(3);
        let view =
            DegradedView::new(&corpus, InterventionSet::sampling(0.1), &idx, 4).unwrap();
        let mut s = StreamingEstimator::new(Aggregate::Max { r: 0.99 }, corpus.len(), 0.05);
        for v in view.outputs(&yolo, ObjectClass::Car) {
            s.push(v).unwrap();
        }
        let est = s.estimate().unwrap();
        assert!(matches!(est, Estimate::Quantile(_)));
        assert!(est.y_approx() > 0.0);
    }
}
