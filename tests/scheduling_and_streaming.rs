//! Integration: time-windowed intervention schedules + online estimation.
//!
//! Models a realistic deployment: business hours run a strict privacy
//! policy (person removal, low sampling), a short calibration window runs
//! undegraded to collect a correction set (§3.3.1's "lower level of
//! degradation for a limited amount of time"), and the night default is a
//! moderate sampling policy whose query is answered online with early
//! stopping.

use smokescreen::core::correction::CorrectionSet;
use smokescreen::core::{
    corrected_bound, estimate_from_outputs, true_relative_error, Aggregate, StreamingEstimator,
    StreamingStatus, Workload,
};
use smokescreen::degrade::{InterventionSet, RestrictionIndex, Schedule};
use smokescreen::models::{Detector, SimYoloV4};
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::ObjectClass;

#[test]
fn scheduled_calibration_window_repairs_the_strict_window() {
    let corpus = DatasetPreset::Detrac.generate(71).slice(0, 9_000);
    let yolo = SimYoloV4::new(5);
    let fps = corpus.fps;
    let t = |frames: usize| frames as f64 / fps;

    let mut schedule = Schedule::new(InterventionSet::sampling(0.3));
    schedule
        .add_window(
            "business-hours",
            t(0),
            t(6_000),
            InterventionSet::sampling(0.2).with_restricted(&[ObjectClass::Person]),
        )
        .unwrap();
    schedule
        .add_window("calibration", t(6_000), t(7_000), InterventionSet::sampling(0.8))
        .unwrap();

    let parts = schedule.partition(&corpus);
    assert_eq!(parts.len(), 3);
    let views = schedule
        .views(
            &parts,
            |c| RestrictionIndex::from_ground_truth(c, &[ObjectClass::Person]),
            13,
        )
        .unwrap();

    // Ground truth over the business-hours window.
    let business_corpus = &parts
        .iter()
        .find(|(l, _, _)| l == "business-hours")
        .unwrap()
        .2;
    let truth_outputs: Vec<f64> = business_corpus
        .frames()
        .iter()
        .map(|f| yolo.count(f, business_corpus.native_resolution, ObjectClass::Car))
        .collect();

    // Strict-window estimate (biased by person removal).
    let business_view = &views.iter().find(|(l, _)| l == "business-hours").unwrap().1;
    let outputs = business_view.outputs(&yolo, ObjectClass::Car);
    let degraded =
        estimate_from_outputs(Aggregate::Avg, &outputs, business_corpus.len(), 0.05).unwrap();

    // Calibration-window correction set (random sampling only, scoped to
    // a similar stretch of the same video).
    let calib_view = &views.iter().find(|(l, _)| l == "calibration").unwrap().1;
    let values = calib_view.outputs(&yolo, ObjectClass::Car);
    let correction = CorrectionSet {
        estimate: estimate_from_outputs(Aggregate::Avg, &values, business_corpus.len(), 0.05)
            .unwrap(),
        fraction: values.len() as f64 / business_corpus.len() as f64,
        values,
        growth_curve: Vec::new(),
    };

    let repaired = corrected_bound(&degraded, &correction).unwrap();
    let true_err = true_relative_error(Aggregate::Avg, &degraded, &truth_outputs);
    assert!(
        repaired >= true_err,
        "calibration-window repair must cover: repaired={repaired} true={true_err}"
    );
}

#[test]
fn night_window_streams_with_early_stop() {
    let corpus = DatasetPreset::Detrac.generate(72).slice(0, 6_000);
    let yolo = SimYoloV4::new(6);
    let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
    let view = smokescreen::degrade::DegradedView::new(
        &corpus,
        InterventionSet::sampling(0.5),
        &restrictions,
        21,
    )
    .unwrap();

    let mut streaming =
        StreamingEstimator::new(Aggregate::Avg, corpus.len(), 0.05).with_stop_at(0.2);
    let res = view.resolution();
    let mut consumed = 0;
    for i in 0..view.len() {
        let frame = view.frame(i).unwrap();
        consumed += 1;
        if streaming
            .push(yolo.count(&frame, res, ObjectClass::Car))
            .unwrap()
            == StreamingStatus::Converged
        {
            break;
        }
    }
    assert!(consumed < view.len(), "early stop must fire: {consumed}");
    assert!(streaming.estimate().unwrap().err_b() <= 0.25);
}

/// The online estimator's stop frames and bits on one fixed stream,
/// recorded once and never re-blessed: a change to when
/// `StreamingEstimator` checks its bound, or to what it estimates, moves
/// one of these numbers.
#[test]
fn streaming_estimator_stops_are_pinned() {
    let corpus = DatasetPreset::Detrac.generate(3).slice(0, 3_100);
    let yolo = SimYoloV4::new(3);
    let outputs = Workload {
        corpus: &corpus,
        detector: &yolo,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    }
    .population_outputs();
    // (aggregate, (stop frame, y_approx bits, err_b bits) at the first
    // `Converged`, (y_approx bits, err_b bits) over the whole stream)
    let pinned = [
        (Aggregate::Avg, (919, 0x4000c82911fd78c6, 0x3fc85123e757291a), (0x400b54e4954e4962, 0)),
        (
            Aggregate::Count { at_least: 2.0 },
            (159, 0x4098e592d4f948a8, 0x3fc91f5a28ea82b0),
            (0x40a2480000000002, 0),
        ),
        (
            Aggregate::Max { r: 0.99 },
            (29, 0x4000000000000000, 0x3fbb27c35b200d92),
            (0x4026000000000000, 0x3f90aed66042bb59),
        ),
        (Aggregate::Var, (3091, 0x401a28ea9b903709, 0x3fb461e14fba1c0b), (0x401a467a5aa2718e, 0)),
    ];
    for (agg, stop, full) in pinned {
        let mut s = StreamingEstimator::new(agg, outputs.len(), 0.05).with_stop_at(0.2);
        let mut first_stop = None;
        let mut last = StreamingStatus::Collecting;
        for (i, &v) in outputs.iter().enumerate() {
            last = s.push(v).unwrap();
            if first_stop.is_none() && last == StreamingStatus::Converged {
                let est = s.estimate().unwrap();
                first_stop = Some((i + 1, est.y_approx().to_bits(), est.err_b().to_bits()));
            }
        }
        assert_eq!(first_stop, Some(stop), "{} stop", agg.name());
        assert_eq!(last, StreamingStatus::Exhausted, "{}", agg.name());
        let est = s.estimate().unwrap();
        assert_eq!((est.y_approx().to_bits(), est.err_b().to_bits()), full, "{} full", agg.name());
    }
}
