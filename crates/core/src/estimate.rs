//! `result_error_est` — the unified answer/bound estimator.
//!
//! This is line 1 of Algorithm 3: apply the interventions, run the model
//! over the sampled frames, and dispatch to the aggregate-specific
//! estimator of §3.2. It also evaluates the *true* relative error against
//! the oracle population when asked (experiments only — the whole point of
//! the system is that production flows never touch the original video).

use std::borrow::Cow;

use smokescreen_degrade::{DegradedView, InterventionSet, RestrictionIndex};
use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
use smokescreen_models::{Detector, OutputCache};
use smokescreen_stats::estimators::quantile::QuantileEstimate;
use smokescreen_stats::{
    avg_estimate, count_estimate, quantile_estimate, sum_estimate, var_estimate, Extreme,
    MeanEstimate, MeanKernel, OrderKernel, VarKernel,
};
use smokescreen_video::{ObjectClass, VideoCorpus};

use crate::{CoreError, Result};

/// The aggregate function `F_A` of the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregate {
    /// Frame-level average of the model output.
    Avg,
    /// Sum of the model output over all frames.
    Sum,
    /// Number of frames whose output meets the predicate `output ≥ k`.
    Count {
        /// Predicate threshold `k` (e.g. 1.0 = "frame contains a car").
        at_least: f64,
    },
    /// Maximum, approximated by the `r`-quantile with `r` near 1.
    Max {
        /// Quantile position (the paper uses 0.99).
        r: f64,
    },
    /// Minimum, approximated by the `r`-quantile with `r` near 0.
    Min {
        /// Quantile position (e.g. 0.01).
        r: f64,
    },
    /// Arbitrary `r`-quantile (e.g. MEDIAN at r = 0.5) — a holistic
    /// extension beyond the paper's extreme-quantile scope, using the
    /// MAX-form bound of Theorem 3.2 (whose sqrt(r(1-r)) spread term is
    /// valid at any interior `r`).
    Quantile {
        /// Quantile position in `(0, 1)`.
        r: f64,
    },
    /// Variance of the model output (future-work extension, §7).
    Var,
}

impl Aggregate {
    /// The quantile position, when rank-based.
    pub fn quantile_r(self) -> Option<f64> {
        match self {
            Aggregate::Max { r } | Aggregate::Min { r } | Aggregate::Quantile { r } => Some(r),
            _ => None,
        }
    }

    /// Short name for display.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Avg => "AVG",
            Aggregate::Sum => "SUM",
            Aggregate::Count { .. } => "COUNT",
            Aggregate::Max { .. } => "MAX",
            Aggregate::Min { .. } => "MIN",
            Aggregate::Quantile { .. } => "QUANTILE",
            Aggregate::Var => "VAR",
        }
    }

    /// Maps raw per-frame model outputs to the values the estimator
    /// consumes. Identity aggregates borrow the input; only COUNT's
    /// indicator transform allocates.
    pub fn transform<'a>(&self, outputs: &'a [f64]) -> Cow<'a, [f64]> {
        match self {
            Aggregate::Count { at_least } => Cow::Owned(
                outputs
                    .iter()
                    .map(|&v| if v >= *at_least { 1.0 } else { 0.0 })
                    .collect(),
            ),
            _ => Cow::Borrowed(outputs),
        }
    }

    /// The per-sample value the estimator consumes for one raw model
    /// output — the scalar form of [`transform`](Self::transform), applied
    /// by [`AggregateKernel::push`] at insert time.
    pub fn transform_one(&self, raw: f64) -> f64 {
        match self {
            Aggregate::Count { at_least } => {
                if raw >= *at_least {
                    1.0
                } else {
                    0.0
                }
            }
            _ => raw,
        }
    }

    /// The true aggregate over a full population of outputs.
    pub fn true_value(&self, population: &[f64]) -> f64 {
        let n = population.len();
        if n == 0 {
            return 0.0;
        }
        match *self {
            Aggregate::Avg => population.iter().sum::<f64>() / n as f64,
            Aggregate::Sum => population.iter().sum(),
            Aggregate::Count { at_least } => {
                population.iter().filter(|&&v| v >= at_least).count() as f64
            }
            Aggregate::Max { r } | Aggregate::Min { r } | Aggregate::Quantile { r } => {
                let mut sorted = population.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite outputs"));
                let idx = ((r * n as f64).ceil() as usize).clamp(1, n) - 1;
                sorted[idx]
            }
            Aggregate::Var => {
                let mean = population.iter().sum::<f64>() / n as f64;
                population.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64
            }
        }
    }
}

impl ToJson for Aggregate {
    fn write_json(&self, out: &mut String) {
        let (name, key, value) = match *self {
            Aggregate::Avg => return "avg".write_json(out),
            Aggregate::Sum => return "sum".write_json(out),
            Aggregate::Var => return "var".write_json(out),
            Aggregate::Count { at_least } => ("count", "at_least", at_least),
            Aggregate::Max { r } => ("max", "r", r),
            Aggregate::Min { r } => ("min", "r", r),
            Aggregate::Quantile { r } => ("quantile", "r", r),
        };
        out.push('{');
        name.write_json(out);
        out.push_str(":{");
        key.write_json(out);
        out.push(':');
        value.write_json(out);
        out.push_str("}}");
    }
}

impl FromJson for Aggregate {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        if let Ok(tag) = value.as_str() {
            return match tag {
                "avg" => Ok(Aggregate::Avg),
                "sum" => Ok(Aggregate::Sum),
                "var" => Ok(Aggregate::Var),
                other => Err(JsonError::new(format!("unknown aggregate {other:?}"))),
            };
        }
        if let Some(body) = value.get_opt("count") {
            return Ok(Aggregate::Count {
                at_least: f64::from_json(body.get("at_least")?)?,
            });
        }
        for (tag, build) in [
            ("max", Aggregate::Max { r: 0.0 }),
            ("min", Aggregate::Min { r: 0.0 }),
            ("quantile", Aggregate::Quantile { r: 0.0 }),
        ] {
            if let Some(body) = value.get_opt(tag) {
                let r = f64::from_json(body.get("r")?)?;
                return Ok(match build {
                    Aggregate::Max { .. } => Aggregate::Max { r },
                    Aggregate::Min { .. } => Aggregate::Min { r },
                    _ => Aggregate::Quantile { r },
                });
            }
        }
        Err(JsonError::new("unrecognized aggregate encoding"))
    }
}

/// A video analytical query: the paper's `(D, F_model, F_A)` triple plus
/// the queried class and confidence level.
pub struct Workload<'a> {
    /// The original video `D`.
    pub corpus: &'a VideoCorpus,
    /// The vision model `F_model`.
    pub detector: &'a dyn Detector,
    /// The class the UDF counts per frame (cars in every paper workload).
    pub class: ObjectClass,
    /// The aggregate function `F_A`.
    pub aggregate: Aggregate,
    /// `δ`: bounds hold with probability at least `1 − δ`.
    pub delta: f64,
}

impl<'a> Workload<'a> {
    /// Per-frame model outputs over the *entire* corpus at native
    /// resolution — the ground-truth population `X_1 … X_N`. Experiments
    /// only.
    pub fn population_outputs(&self) -> Vec<f64> {
        let res = self
            .corpus
            .native_resolution
            .min(self.detector.native_resolution());
        self.corpus
            .frames()
            .iter()
            .map(|f| self.detector.count(f, res, self.class))
            .collect()
    }

    /// The true query answer (experiments only).
    pub fn true_answer(&self) -> f64 {
        self.aggregate.true_value(&self.population_outputs())
    }
}

/// An estimate: approximate answer plus `1 − δ` relative-error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimate {
    /// Mean-style estimate (AVG/SUM/COUNT/VAR) — value-relative metric.
    Mean(MeanEstimate),
    /// Quantile estimate (MAX/MIN) — rank-relative metric.
    Quantile(QuantileEstimate),
}

impl Estimate {
    /// The approximate answer `Y_approx`.
    pub fn y_approx(&self) -> f64 {
        match self {
            Estimate::Mean(m) => m.y_approx,
            Estimate::Quantile(q) => q.y_approx,
        }
    }

    /// The error upper bound `err_b`.
    pub fn err_b(&self) -> f64 {
        match self {
            Estimate::Mean(m) => m.err_b,
            Estimate::Quantile(q) => q.err_b,
        }
    }

    /// Sample size consumed.
    pub fn n(&self) -> usize {
        match self {
            Estimate::Mean(m) => m.n,
            Estimate::Quantile(q) => q.n,
        }
    }
}

/// Runs the query under the interventions and estimates the answer plus
/// error bound (Algorithm 3 line 1).
///
/// * `restrictions` — precomputed restricted-class membership prior.
/// * `seed` — fixes the sampling permutation (vary per trial).
/// * `cache` — optional model-output cache shared across candidates.
pub fn result_error_est(
    workload: &Workload<'_>,
    restrictions: &RestrictionIndex,
    set: &InterventionSet,
    seed: u64,
    cache: Option<&OutputCache<'_>>,
) -> Result<Estimate> {
    if let Some(res) = set.resolution {
        if !workload.detector.supports(res) {
            return Err(CoreError::UnsupportedResolution {
                model: workload.detector.name().to_string(),
                resolution: res.to_string(),
            });
        }
    }
    let view = DegradedView::new(workload.corpus, set.clone(), restrictions, seed)
        .map_err(CoreError::InvalidIntervention)?;
    let raw = match cache {
        Some(c) if !view.rewrites_frames() => {
            // Fallible fetch: on a fault-free cache this is byte-identical
            // to the infallible path; under a fault plan, permanently
            // failed calls drop out and the estimate widens over the
            // surviving (still uniform) sample.
            let fetched = view.try_outputs_cached(c, workload.class);
            if fetched.values.is_empty() && fetched.lost > 0 {
                return Err(CoreError::AllOutputsLost {
                    lost: fetched.lost,
                    context: set.describe(),
                });
            }
            fetched.values
        }
        _ => view.outputs(workload.detector, workload.class),
    };
    if raw.is_empty() {
        return Err(CoreError::EmptyView(set.describe()));
    }
    estimate_from_outputs(
        workload.aggregate,
        &raw,
        workload.corpus.len(),
        workload.delta,
    )
}

/// Dispatches pre-collected per-frame outputs to the right estimator.
pub fn estimate_from_outputs(
    aggregate: Aggregate,
    raw_outputs: &[f64],
    population: usize,
    delta: f64,
) -> Result<Estimate> {
    let values = aggregate.transform(raw_outputs);
    let est = match aggregate {
        Aggregate::Avg => Estimate::Mean(avg_estimate(&values, population, delta)?),
        Aggregate::Sum => Estimate::Mean(sum_estimate(&values, population, delta)?),
        Aggregate::Count { .. } => Estimate::Mean(count_estimate(&values, population, delta)?),
        Aggregate::Max { r } => {
            Estimate::Quantile(quantile_estimate(&values, population, r, delta, Extreme::Max)?)
        }
        Aggregate::Min { r } => {
            Estimate::Quantile(quantile_estimate(&values, population, r, delta, Extreme::Min)?)
        }
        Aggregate::Quantile { r } => {
            Estimate::Quantile(quantile_estimate(&values, population, r, delta, Extreme::Max)?)
        }
        Aggregate::Var => Estimate::Mean(var_estimate(&values, population, delta)?),
    };
    Ok(est)
}

/// Streaming counterpart of [`estimate_from_outputs`]: holds the
/// aggregate-specific kernel from `smokescreen-stats` and ingests raw
/// model outputs one at a time (COUNT's indicator transform folds into
/// [`push`](Self::push)). After ingesting the same outputs in the same
/// order, [`estimate`](Self::estimate) returns exactly the `Estimate` the
/// batch path produces — bit-for-bit — but each fraction step of the
/// §3.3.2 sweep costs `O(Δn)` (mean-style) or `O(Δn log n)` (order-style)
/// instead of a full recompute.
#[derive(Debug, Clone)]
pub struct AggregateKernel {
    aggregate: Aggregate,
    state: KernelState,
}

#[derive(Debug, Clone)]
enum KernelState {
    Mean(MeanKernel),
    Var(VarKernel),
    Order(OrderKernel),
}

impl AggregateKernel {
    /// Fresh kernel for one aggregate.
    pub fn new(aggregate: Aggregate) -> Self {
        Self::with_capacity(aggregate, 0)
    }

    /// Fresh kernel with pre-sized order-statistic scratch (mean-style
    /// kernels hold O(1) state and ignore the hint).
    pub fn with_capacity(aggregate: Aggregate, capacity: usize) -> Self {
        let state = match aggregate {
            Aggregate::Avg | Aggregate::Sum | Aggregate::Count { .. } => {
                KernelState::Mean(MeanKernel::new())
            }
            Aggregate::Var => KernelState::Var(VarKernel::new()),
            Aggregate::Max { .. } | Aggregate::Min { .. } | Aggregate::Quantile { .. } => {
                KernelState::Order(OrderKernel::with_capacity(capacity))
            }
        };
        AggregateKernel { aggregate, state }
    }

    /// The aggregate this kernel serves.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// Number of samples ingested so far.
    pub fn n(&self) -> usize {
        match &self.state {
            KernelState::Mean(k) => k.n(),
            KernelState::Var(k) => k.n(),
            KernelState::Order(k) => k.n(),
        }
    }

    /// Ingests one raw model output, applying the aggregate's sample
    /// transform at insert time.
    pub fn push(&mut self, raw: f64) {
        let v = self.aggregate.transform_one(raw);
        match &mut self.state {
            KernelState::Mean(k) => k.push(v),
            KernelState::Var(k) => k.push(v),
            KernelState::Order(k) => k.push(v),
        }
    }

    /// Ingests a slice of raw outputs in order — bit-identical to calling
    /// [`push`](Self::push) on every element, but dispatched once per
    /// slice so each fraction-ladder step reaches the kernels' batched
    /// `push_slice` path (COUNT's indicator transform is fused into an
    /// 8-wide stack buffer, never a heap allocation).
    pub fn extend(&mut self, raw: &[f64]) {
        match (&mut self.state, self.aggregate) {
            (KernelState::Mean(k), Aggregate::Count { at_least }) => {
                let mut ind = [0.0f64; 8];
                let mut chunks = raw.chunks_exact(8);
                for chunk in &mut chunks {
                    for (slot, &v) in ind.iter_mut().zip(chunk) {
                        *slot = if v >= at_least { 1.0 } else { 0.0 };
                    }
                    k.push_slice(&ind);
                }
                let rem = chunks.remainder();
                for (slot, &v) in ind.iter_mut().zip(rem) {
                    *slot = if v >= at_least { 1.0 } else { 0.0 };
                }
                k.push_slice(&ind[..rem.len()]);
            }
            (KernelState::Mean(k), _) => k.push_slice(raw),
            (KernelState::Var(k), _) => k.push_slice(raw),
            (KernelState::Order(k), _) => k.push_slice(raw),
        }
    }

    /// Answer/bound estimate over everything ingested so far. Equals
    /// [`estimate_from_outputs`] on the same outputs in the same order.
    pub fn estimate(&self, population: usize, delta: f64) -> Result<Estimate> {
        let est = match (&self.state, self.aggregate) {
            (KernelState::Mean(k), Aggregate::Avg) => Estimate::Mean(k.avg(population, delta)?),
            (KernelState::Mean(k), Aggregate::Sum) => Estimate::Mean(k.sum(population, delta)?),
            (KernelState::Mean(k), Aggregate::Count { .. }) => {
                Estimate::Mean(k.count(population, delta)?)
            }
            (KernelState::Var(k), Aggregate::Var) => {
                Estimate::Mean(k.estimate(population, delta)?)
            }
            (KernelState::Order(k), Aggregate::Max { r }) => {
                Estimate::Quantile(k.quantile(population, r, delta, Extreme::Max)?)
            }
            (KernelState::Order(k), Aggregate::Min { r }) => {
                Estimate::Quantile(k.quantile(population, r, delta, Extreme::Min)?)
            }
            (KernelState::Order(k), Aggregate::Quantile { r }) => {
                Estimate::Quantile(k.quantile(population, r, delta, Extreme::Max)?)
            }
            _ => unreachable!("kernel state is constructed from its aggregate"),
        };
        Ok(est)
    }
}

/// True relative error of an estimate against the oracle population
/// (value-relative for mean aggregates, rank-relative for MAX/MIN).
/// Experiments only.
pub fn true_relative_error(
    aggregate: Aggregate,
    estimate: &Estimate,
    population_outputs: &[f64],
) -> f64 {
    match (aggregate, estimate) {
        (
            Aggregate::Max { r } | Aggregate::Min { r } | Aggregate::Quantile { r },
            Estimate::Quantile(q),
        ) => {
            smokescreen_stats::estimators::quantile::true_rank_error(
                population_outputs,
                q.y_approx,
                r,
            )
        }
        (_, est) => {
            let truth = aggregate.true_value(population_outputs);
            if truth == 0.0 {
                if est.y_approx() == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (est.y_approx() - truth).abs() / truth.abs()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_models::{Oracle, SimYoloV4};
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::Resolution;

    fn workload<'a>(corpus: &'a VideoCorpus, detector: &'a dyn Detector, agg: Aggregate) -> Workload<'a> {
        // Helper binding lifetimes for tests.
        Workload {
            corpus,
            detector,
            class: ObjectClass::Car,
            aggregate: agg,
            delta: 0.05,
        }
    }

    #[test]
    fn avg_estimate_covers_truth_under_sampling() {
        let corpus = DatasetPreset::Detrac.generate(10).slice(0, 6_000);
        let oracle = Oracle;
        let w = workload(&corpus, &oracle, Aggregate::Avg);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let pop = w.population_outputs();

        let mut covered = 0;
        for t in 0..60u64 {
            let est = result_error_est(
                &w,
                &restrictions,
                &InterventionSet::sampling(0.05),
                t,
                None,
            )
            .unwrap();
            if true_relative_error(Aggregate::Avg, &est, &pop) <= est.err_b() {
                covered += 1;
            }
        }
        assert!(covered >= 57, "covered={covered}/60");
    }

    #[test]
    fn count_and_sum_share_relative_bounds() {
        let corpus = DatasetPreset::Detrac.generate(11).slice(0, 3_000);
        let oracle = Oracle;
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let sum = result_error_est(
            &workload(&corpus, &oracle, Aggregate::Sum),
            &restrictions,
            &InterventionSet::sampling(0.1),
            5,
            None,
        )
        .unwrap();
        let avg = result_error_est(
            &workload(&corpus, &oracle, Aggregate::Avg),
            &restrictions,
            &InterventionSet::sampling(0.1),
            5,
            None,
        )
        .unwrap();
        assert!((sum.err_b() - avg.err_b()).abs() < 1e-12);
        assert!((sum.y_approx() / avg.y_approx() - 3_000.0).abs() < 1e-6);
    }

    #[test]
    fn unsupported_resolution_is_rejected() {
        let corpus = DatasetPreset::NightStreet.generate(12).slice(0, 500);
        let yolo = SimYoloV4::new(1);
        let w = workload(&corpus, &yolo, Aggregate::Avg);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let err = result_error_est(
            &w,
            &restrictions,
            &InterventionSet::sampling(0.5).with_resolution(Resolution::square(300)),
            1,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedResolution { .. }));
    }

    #[test]
    fn max_uses_rank_metric() {
        let corpus = DatasetPreset::Detrac.generate(13).slice(0, 5_000);
        let oracle = Oracle;
        let w = workload(&corpus, &oracle, Aggregate::Max { r: 0.99 });
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let pop = w.population_outputs();
        let est = result_error_est(&w, &restrictions, &InterventionSet::sampling(0.1), 3, None)
            .unwrap();
        assert!(matches!(est, Estimate::Quantile(_)));
        let err = true_relative_error(Aggregate::Max { r: 0.99 }, &est, &pop);
        assert!(err <= est.err_b(), "true={err} bound={}", est.err_b());
    }

    #[test]
    fn aggregate_true_values() {
        let pop = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(Aggregate::Avg.true_value(&pop), 2.0);
        assert_eq!(Aggregate::Sum.true_value(&pop), 10.0);
        assert_eq!(Aggregate::Count { at_least: 2.0 }.true_value(&pop), 3.0);
        assert_eq!(Aggregate::Max { r: 0.99 }.true_value(&pop), 4.0);
        assert_eq!(Aggregate::Min { r: 0.01 }.true_value(&pop), 0.0);
        assert_eq!(Aggregate::Quantile { r: 0.5 }.true_value(&pop), 2.0);
        assert_eq!(Aggregate::Var.true_value(&pop), 2.0);
        assert_eq!(Aggregate::Avg.true_value(&[]), 0.0);
    }

    #[test]
    fn count_transform_is_indicator() {
        let t = Aggregate::Count { at_least: 1.0 }.transform(&[0.0, 0.5, 1.0, 3.0]);
        assert_eq!(t, vec![0.0, 0.0, 1.0, 1.0]);
        assert!(matches!(t, Cow::Owned(_)));
    }

    #[test]
    fn identity_transform_borrows() {
        let raw = [0.0, 0.5, 1.0, 3.0];
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ] {
            let t = agg.transform(&raw);
            assert!(matches!(t, Cow::Borrowed(_)), "{} must not allocate", agg.name());
            assert_eq!(t.as_ptr(), raw.as_ptr());
        }
    }

    #[test]
    fn aggregate_kernel_matches_batch_for_every_aggregate() {
        let corpus = DatasetPreset::Detrac.generate(17).slice(0, 2_000);
        let oracle = Oracle;
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let view = DegradedView::new(&corpus, InterventionSet::sampling(0.3), &restrictions, 8)
            .expect("valid view");
        let raw = view.outputs(&oracle, ObjectClass::Car);
        let population = corpus.len();
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Count { at_least: 1.0 },
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ] {
            let mut kernel = AggregateKernel::new(agg);
            // Push in two uneven chunks to exercise the incremental path,
            // checking the intermediate prefix too.
            let split = raw.len() / 3;
            kernel.extend(&raw[..split]);
            assert_eq!(
                kernel.estimate(population, 0.05).unwrap(),
                estimate_from_outputs(agg, &raw[..split], population, 0.05).unwrap(),
                "{} prefix", agg.name()
            );
            kernel.extend(&raw[split..]);
            assert_eq!(kernel.n(), raw.len());
            assert_eq!(
                kernel.estimate(population, 0.05).unwrap(),
                estimate_from_outputs(agg, &raw, population, 0.05).unwrap(),
                "{} full", agg.name()
            );
        }
    }

    #[test]
    fn kernel_with_injected_gaps_matches_batch_on_survivors() {
        // Degradation satellite: a kernel fed the prefix ladder with
        // fault-injected gaps must agree bit-for-bit with the batch
        // estimator run on the surviving sample — for both the mean-style
        // and order-style kernels.
        use smokescreen_models::{OutputCache, RetryPolicy};
        use smokescreen_rt::fault::FaultPlan;

        let corpus = DatasetPreset::Detrac.generate(18).slice(0, 2_000);
        let yolo = SimYoloV4::new(7);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let view = DegradedView::new(&corpus, InterventionSet::sampling(0.4), &restrictions, 8)
            .expect("valid view");
        let plan = FaultPlan::new(19, 0.25);
        let population = corpus.len();
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Count { at_least: 1.0 },
            Aggregate::Max { r: 0.99 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ] {
            let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
            let mut kernel = AggregateKernel::new(agg);
            let mut survivors = Vec::new();
            let mut lost = 0usize;
            // Ascending prefix ladder in uneven rungs, as the §3.3.2 sweep
            // fetches them; each rung checks the running estimate against
            // the batch path over everything that survived so far.
            let rungs = [0usize, 37, 160, 161, 400, view.len()];
            for w in rungs.windows(2) {
                let part = view.try_outputs_cached_range(&cache, ObjectClass::Car, w[0]..w[1]);
                kernel.extend(&part.values);
                survivors.extend(part.values);
                lost += part.lost;
                if survivors.is_empty() {
                    continue;
                }
                assert_eq!(
                    kernel.estimate(population, 0.05).unwrap(),
                    estimate_from_outputs(agg, &survivors, population, 0.05).unwrap(),
                    "{} at prefix {}..{}", agg.name(), w[0], w[1]
                );
            }
            assert!(lost > 0, "a 25% plan must lose frames");
            assert_eq!(kernel.n(), survivors.len());
            assert_eq!(kernel.n() + lost, view.len());
        }
    }

    #[test]
    fn empty_kernel_returns_typed_error_not_nan() {
        // n = 0 (nothing ingested, or everything lost) must be a typed
        // error from every kernel, never a NaN bound.
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Count { at_least: 1.0 },
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ] {
            let kernel = AggregateKernel::new(agg);
            assert_eq!(kernel.n(), 0);
            let err = kernel.estimate(1_000, 0.05).expect_err(agg.name());
            assert!(matches!(err, CoreError::Stats(_)), "{}: {err}", agg.name());
            assert_eq!(
                estimate_from_outputs(agg, &[], 1_000, 0.05)
                    .map(|e| (e.y_approx(), e.err_b()))
                    .expect_err(agg.name()),
                err,
                "batch and kernel must agree on the empty-sample error"
            );
        }
    }

    #[test]
    fn all_frames_lost_is_a_typed_error() {
        use smokescreen_models::{OutputCache, RetryPolicy};
        use smokescreen_rt::fault::{FaultMix, FaultPlan};

        let corpus = DatasetPreset::Detrac.generate(19).slice(0, 1_000);
        let yolo = SimYoloV4::new(9);
        let w = workload(&corpus, &yolo, Aggregate::Avg);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        // Every call times out: the whole sample is lost.
        let timeouts = FaultMix { timeout: 1.0, transient: 0.0, slow: 0.0, poison: 0.0 };
        let plan = FaultPlan::with_stream(2, 1.0, timeouts);
        let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
        let err = result_error_est(
            &w,
            &restrictions,
            &InterventionSet::sampling(0.1),
            4,
            Some(&cache),
        )
        .unwrap_err();
        match err {
            CoreError::AllOutputsLost { lost, .. } => assert_eq!(lost, 100),
            other => panic!("expected AllOutputsLost, got {other:?}"),
        }
    }

    #[test]
    fn cached_and_uncached_agree() {
        let corpus = DatasetPreset::NightStreet.generate(14).slice(0, 2_000);
        let yolo = SimYoloV4::new(2);
        let w = workload(&corpus, &yolo, Aggregate::Avg);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let cache = OutputCache::new(&yolo, corpus.len());
        let set = InterventionSet::sampling(0.2).with_resolution(Resolution::square(320));
        let a = result_error_est(&w, &restrictions, &set, 9, None).unwrap();
        let b = result_error_est(&w, &restrictions, &set, 9, Some(&cache)).unwrap();
        assert_eq!(a, b);
    }
}
