//! Statistical validity of the full pipeline: across repeated trials of
//! the complete stack (synthesis → detection → intervention → estimation),
//! the `1 − δ` bounds must cover the realized errors at least `1 − δ` of
//! the time — for every aggregate, and after repair for every non-random
//! intervention.

use smokescreen::core::{
    corrected_bound, result_error_est, true_relative_error, Aggregate, CorrectionConfig, Workload,
};
use smokescreen::core::correction::build_correction_set;
use smokescreen::degrade::{InterventionSet, RestrictionIndex};
use smokescreen::models::{Detector, SimYoloV4};
use smokescreen::stats::bounds::hoeffding_serfling;
use smokescreen::stats::estimators::quantile::true_rank_error;
use smokescreen::stats::sample::sample_indices;
use smokescreen::stats::{quantile_estimate, Extreme};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::{ObjectClass, Resolution};

const TRIALS: usize = 60;
const DELTA: f64 = 0.05;

fn coverage(aggregate: Aggregate, set: &InterventionSet, repair: bool) -> f64 {
    let corpus = DatasetPreset::Detrac.generate(3).slice(0, 5_000);
    let yolo = SimYoloV4::new(3);
    let workload = Workload {
        corpus: &corpus,
        detector: &yolo,
        class: ObjectClass::Car,
        aggregate,
        delta: DELTA,
    };
    let restrictions =
        RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person, ObjectClass::Face]);
    let population = workload.population_outputs();

    let mut covered = 0usize;
    for t in 0..TRIALS {
        let est = result_error_est(&workload, &restrictions, set, t as u64, None).unwrap();
        let bound = if repair {
            let cs = build_correction_set(
                &workload,
                &restrictions,
                &CorrectionConfig::default(),
                5_000 + t as u64,
                None,
            )
            .unwrap();
            corrected_bound(&est, &cs).unwrap()
        } else {
            est.err_b()
        };
        if true_relative_error(aggregate, &est, &population) <= bound {
            covered += 1;
        }
    }
    covered as f64 / TRIALS as f64
}

#[test]
fn random_sampling_bounds_cover_for_every_aggregate() {
    let set = InterventionSet::sampling(0.03);
    for aggregate in [
        Aggregate::Avg,
        Aggregate::Sum,
        Aggregate::Count { at_least: 1.0 },
        Aggregate::Max { r: 0.99 },
        Aggregate::Min { r: 0.05 },
        Aggregate::Var,
    ] {
        let c = coverage(aggregate, &set, false);
        assert!(
            c >= 1.0 - DELTA - 0.05,
            "{} coverage {c} below nominal",
            aggregate.name()
        );
    }
}

#[test]
fn repaired_bounds_cover_under_resolution_reduction() {
    let set = InterventionSet::sampling(0.4).with_resolution(Resolution::square(160));
    for aggregate in [Aggregate::Avg, Aggregate::Max { r: 0.99 }] {
        let c = coverage(aggregate, &set, true);
        assert!(
            c >= 1.0 - DELTA - 0.05,
            "{} repaired coverage {c} below nominal",
            aggregate.name()
        );
    }
}

#[test]
fn repaired_bounds_cover_under_image_removal() {
    let set = InterventionSet::sampling(0.1).with_restricted(&[ObjectClass::Person]);
    for aggregate in [Aggregate::Avg, Aggregate::Max { r: 0.99 }] {
        let c = coverage(aggregate, &set, true);
        assert!(
            c >= 1.0 - DELTA - 0.05,
            "{} repaired coverage {c} below nominal",
            aggregate.name()
        );
    }
}

/// Per-frame car counts for one seeded night-street scene.
fn night_street_outputs(seed: u64) -> Vec<f64> {
    let corpus = DatasetPreset::NightStreet.generate(seed).slice(0, 1_500);
    let yolo = SimYoloV4::new(seed);
    let res = Resolution::square(416);
    corpus
        .frames()
        .iter()
        .map(|f| yolo.count(f, res, ObjectClass::Car))
        .collect()
}

// The two tests below run the raw stats-layer bounds at a stringent
// confidence (δ = 1e-6) so that over 50 independent scenes the chance of
// even one legitimate exceedance is ≈ 5·10⁻⁵: any observed violation
// indicates a broken inequality, not bad luck.
const SCENES: u64 = 50;
const STRICT_DELTA: f64 = 1e-6;

#[test]
fn hoeffding_serfling_never_violated_across_night_street_scenes() {
    for seed in 0..SCENES {
        let population = night_street_outputs(seed);
        let truth = population.iter().sum::<f64>() / population.len() as f64;
        for &n in &[40usize, 150, 600] {
            let idx = sample_indices(population.len(), n, seed ^ 0x5eed).unwrap();
            let sample: Vec<f64> = idx.iter().map(|&i| population[i]).collect();
            let iv = hoeffding_serfling::interval(&sample, population.len(), STRICT_DELTA).unwrap();
            assert!(
                (iv.estimate - truth).abs() <= iv.half_width,
                "scene {seed} n={n}: |{} - {truth}| > {}",
                iv.estimate,
                iv.half_width
            );
        }
    }
}

#[test]
fn hypergeometric_rank_bound_never_violated_across_night_street_scenes() {
    for seed in 0..SCENES {
        let population = night_street_outputs(seed);
        for &(r, extreme) in &[(0.99, Extreme::Max), (0.05, Extreme::Min)] {
            let idx = sample_indices(population.len(), 400, seed ^ 0xda7a).unwrap();
            let sample: Vec<f64> = idx.iter().map(|&i| population[i]).collect();
            let q =
                quantile_estimate(&sample, population.len(), r, STRICT_DELTA, extreme).unwrap();
            let realized = true_rank_error(&population, q.y_approx, r);
            assert!(
                realized <= q.err_b + 1e-12,
                "scene {seed} r={r}: rank error {realized} exceeds bound {}",
                q.err_b
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos: bound validity under injected model faults.
//
// Fault decisions are pure functions of (frame id, resolution) — never of
// frame content — so dropping permanently-failed frames leaves the
// survivors a uniform without-replacement sample and the bounds, computed
// over the smaller surviving n, must stay valid. These tests check that
// at the ISSUE's 5% and 20% fault rates: nominal coverage at δ = 0.05,
// and zero violations at the stringent δ = 1e-6 (where any exceedance
// indicates broken math, not bad luck).

fn faulted_coverage(aggregate: Aggregate, fault_rate: f64, delta: f64) -> (f64, usize) {
    use smokescreen::models::{OutputCache, RetryPolicy};
    use smokescreen_rt::fault::FaultPlan;

    let corpus = DatasetPreset::Detrac.generate(3).slice(0, 5_000);
    let yolo = SimYoloV4::new(3);
    let workload = Workload {
        corpus: &corpus,
        detector: &yolo,
        class: ObjectClass::Car,
        aggregate,
        delta,
    };
    let restrictions =
        RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person, ObjectClass::Face]);
    let population = workload.population_outputs();
    let set = InterventionSet::sampling(0.03);

    let mut covered = 0usize;
    let mut total_lost = 0usize;
    for t in 0..TRIALS {
        let plan = FaultPlan::new(0xc4a0 ^ t as u64, fault_rate);
        let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
        let est =
            result_error_est(&workload, &restrictions, &set, t as u64, Some(&cache)).unwrap();
        let requested = (0.03f64 * corpus.len() as f64).round() as usize;
        assert!(est.n() <= requested);
        total_lost += requested - est.n();
        if true_relative_error(aggregate, &est, &population) <= est.err_b() {
            covered += 1;
        }
    }
    (covered as f64 / TRIALS as f64, total_lost)
}

#[test]
fn bounds_cover_under_injected_faults() {
    for rate in [0.05, 0.20] {
        for aggregate in [Aggregate::Avg, Aggregate::Max { r: 0.99 }] {
            let (c, lost) = faulted_coverage(aggregate, rate, DELTA);
            assert!(lost > 0, "rate {rate} must actually lose frames");
            assert!(
                c >= 1.0 - DELTA - 0.05,
                "{} coverage {c} below nominal at fault rate {rate}",
                aggregate.name()
            );
        }
    }
}

#[test]
fn bounds_never_violated_under_injected_faults_at_strict_delta() {
    for rate in [0.05, 0.20] {
        for aggregate in [Aggregate::Avg, Aggregate::Max { r: 0.99 }] {
            let (c, lost) = faulted_coverage(aggregate, rate, STRICT_DELTA);
            assert!(lost > 0, "rate {rate} must actually lose frames");
            assert!(
                c == 1.0,
                "{} violated a δ=1e-6 bound at fault rate {rate} (coverage {c}): \
                 survivor-widening is unsound",
                aggregate.name()
            );
        }
    }
}

#[test]
fn unrepaired_bounds_fail_under_strong_bias() {
    // The negative control: without repair, heavy resolution degradation
    // at a generous sampling fraction produces confidently wrong bounds.
    let set = InterventionSet::sampling(0.4).with_resolution(Resolution::square(128));
    let c = coverage(Aggregate::Avg, &set, false);
    assert!(
        c < 0.5,
        "expected the naive bound to be misleading under bias, coverage={c}"
    );
}
