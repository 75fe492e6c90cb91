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
//! Outputs feed the same [`AggregateKernel`] profile generation sweeps
//! with, so nothing is buffered beyond the kernel's own state and
//! [`estimate`](StreamingEstimator::estimate) costs `O(1)` for mean-style
//! aggregates and `O(log n)` for order-style ones.
//!
//! The stopping rule looks at the bound only at check points (n = 2, 3,
//! … and then every ~5% of sample growth), not at every frame. Stopping
//! the first time a running bound meets its target is optional stopping:
//! each look is one more chance to stop on a lucky prefix, and the
//! geometric schedule takes ~20·ln(n) looks where a per-frame rule takes
//! n. A zero-width bound on a partial sample — the first frames agree, so
//! the Hoeffding–Serfling width, which scales with the sample range, is
//! 0 — is never taken as convergence.

use crate::estimate::{Aggregate, AggregateKernel, Estimate};
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
    kernel: AggregateKernel,
    population: usize,
    delta: f64,
    target_err: Option<f64>,
    /// `err_b` at the latest check point.
    checked_err: Option<f64>,
    next_check: usize,
}

impl StreamingEstimator {
    /// Creates an estimator for a query over a population of `N` frames.
    pub fn new(aggregate: Aggregate, population: usize, delta: f64) -> Self {
        StreamingEstimator {
            kernel: AggregateKernel::new(aggregate),
            population,
            delta,
            target_err: None,
            checked_err: None,
            next_check: 2,
        }
    }

    /// Sets a stopping target: [`push`](Self::push) reports
    /// [`StreamingStatus::Converged`] once `err_b ≤ target` at a check
    /// point.
    pub fn with_stop_at(mut self, target_err: f64) -> Self {
        self.target_err = Some(target_err);
        self
    }

    /// Number of outputs ingested so far.
    pub fn len(&self) -> usize {
        self.kernel.n()
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ingests one model output and reports progress. The bound is checked
    /// at the check points only (see the module doc); an estimation error
    /// at a check point is returned.
    pub fn push(&mut self, output: f64) -> Result<StreamingStatus> {
        self.kernel.push(output);
        let n = self.len();
        if n >= self.next_check || n >= self.population {
            self.checked_err = Some(self.estimate()?.err_b());
            // ~5% growth between check points.
            self.next_check = n + (n / 20).max(1);
        }
        Ok(self.status())
    }

    /// Current status as of the latest check point.
    pub fn status(&self) -> StreamingStatus {
        if self.len() >= self.population {
            return StreamingStatus::Exhausted;
        }
        match (self.target_err, self.checked_err) {
            // A zero-width bound before the population is exhausted only
            // says the sample range is 0 so far.
            (Some(target), Some(err)) if err <= target && err > 0.0 => StreamingStatus::Converged,
            _ => StreamingStatus::Collecting,
        }
    }

    /// The exact estimate over everything ingested so far.
    pub fn estimate(&self) -> Result<Estimate> {
        self.kernel.estimate(self.population, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_from_outputs;
    use smokescreen_degrade::{DegradedView, InterventionSet, RestrictionIndex};
    use smokescreen_models::{Detector, SimYoloV4};
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::ObjectClass;

    #[test]
    fn streaming_matches_batch_estimation_for_every_aggregate() {
        let corpus = DatasetPreset::Detrac.generate(60).slice(0, 3_000);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let yolo = SimYoloV4::new(1);
        let view =
            DegradedView::new(&corpus, InterventionSet::sampling(0.2), &idx, 9).unwrap();
        let outputs = view.outputs(&yolo, ObjectClass::Car);
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Count { at_least: 1.0 },
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ] {
            let mut streaming = StreamingEstimator::new(agg, corpus.len(), 0.05);
            for (i, &v) in outputs.iter().enumerate() {
                streaming.push(v).unwrap();
                let n = i + 1;
                if [1, 2, 57, 400, outputs.len()].contains(&n) {
                    assert_eq!(
                        streaming.estimate().unwrap(),
                        estimate_from_outputs(agg, &outputs[..n], corpus.len(), 0.05).unwrap(),
                        "{} at n = {n}",
                        agg.name()
                    );
                }
            }
        }
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
    fn zero_width_bound_on_a_partial_sample_is_not_convergence() {
        // Two equal frames: the sample range is 0, so the
        // Hoeffding–Serfling bound is zero-width — but 9,998 frames are
        // still unseen.
        let mut s = StreamingEstimator::new(Aggregate::Avg, 10_000, 0.05).with_stop_at(0.2);
        assert_eq!(s.push(3.0).unwrap(), StreamingStatus::Collecting);
        assert_eq!(s.push(3.0).unwrap(), StreamingStatus::Collecting);
        assert_eq!(s.estimate().unwrap().err_b(), 0.0);
        // A bound with width meets the target as before.
        for v in [2.0, 4.0].repeat(200) {
            if s.push(v).unwrap() == StreamingStatus::Converged {
                break;
            }
        }
        assert_eq!(s.status(), StreamingStatus::Converged);
        assert!(s.estimate().unwrap().err_b() > 0.0);
    }
}
