//! Shared simulator machinery used by the concrete models.

use std::cell::Cell;

use smokescreen_video::{BBox, Frame, ObjectClass, Resolution};

use crate::detector::{Detection, Detections};
use crate::hash;
use crate::response::ResponseCurve;

/// Stream tags for the per-decision hashes, so distinct decisions about
/// the same object never reuse a hash value.
const STREAM_DETECT: u64 = 1;
const STREAM_SCORE: u64 = 2;
const STREAM_FP: u64 = 3;
const STREAM_FP_GEOM: u64 = 4;
const STREAM_DUP: u64 = 5;

/// A model's response curve per class with the curve's `ln(area50)`,
/// indexed by [`ObjectClass::index`]: `None` for a class the model does
/// not know.
pub(crate) type Curves = [Option<(ResponseCurve, f64)>; ObjectClass::ALL.len()];

/// [`Curves`] from `(class, curve)` pairs.
pub(crate) fn curves(pairs: &[(ObjectClass, ResponseCurve)]) -> Curves {
    let mut curves = Curves::default();
    for &(class, curve) in pairs {
        curves[class.index()] = Some((curve, curve.area50.ln()));
    }
    curves
}

/// The false-positive constants of one resolution, keyed by
/// `[native pixels, resolution pixels, fp_rate_native bits,
/// fp_resolution_exponent bits]`.
#[derive(Clone, Copy)]
struct FpRate {
    key: [u64; 4],
    lambda: f64,
    exp_neg_lambda: f64,
}

thread_local! {
    /// One-entry memo of [`FpRate`]: a generation cell runs at one
    /// resolution, so consecutive calls on a thread almost always share
    /// it. No key has 0 resolution pixels, so the initial entry never hits.
    static FP_RATE: Cell<FpRate> =
        const { Cell::new(FpRate { key: [0; 4], lambda: 0.0, exp_neg_lambda: 1.0 }) };
}

/// Deterministic detector core: per-object logistic recall + per-frame
/// false positives, all decided by hashing.
#[derive(Debug, Clone)]
pub(crate) struct SimBackbone {
    pub seed: u64,
    pub curves: Curves,
    /// Expected false positives per frame at native resolution.
    pub fp_rate_native: f64,
    /// Exponent controlling FP growth as resolution falls.
    pub fp_resolution_exponent: f64,
    /// Classes false positives can take (weighted uniformly).
    pub fp_classes: Vec<ObjectClass>,
    /// Score threshold (detections below it are suppressed).
    pub threshold: f64,
    pub native: Resolution,
}

impl SimBackbone {
    /// One simulated model call. Per object it takes one `ln` (the
    /// effective area), one `exp` (the logistic) and one contrast-memo
    /// lookup; `ln(area50)` is computed when the curves are built and the
    /// false-positive rate once per resolution on each thread. Every output
    /// is bit-identical to evaluating the formulas in full.
    pub(crate) fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        let mut items = Vec::with_capacity(frame.objects.len());
        let res_words = [u64::from(res.width), u64::from(res.height)];

        for obj in &frame.objects {
            let Some((curve, ln_area50)) = &self.curves[obj.class.index()] else {
                continue; // class unknown to this model
            };
            let p = curve.detect_probability_with(obj, res, *ln_area50);
            let u = hash::uniform01(&[
                self.seed,
                frame.id,
                obj.id,
                res_words[0],
                res_words[1],
                STREAM_DETECT,
            ]);
            if u >= p {
                continue;
            }
            // Score: the margin by which the object cleared detection,
            // squashed above the threshold (deterministic).
            let s = hash::uniform01(&[
                self.seed,
                frame.id,
                obj.id,
                res_words[0],
                res_words[1],
                STREAM_SCORE,
            ]);
            let score = (self.threshold + (1.0 - self.threshold) * (0.3 + 0.7 * p) * s.max(0.2))
                .clamp(self.threshold, 1.0) as f32;
            items.push(Detection {
                class: obj.class,
                score,
                bbox: jitter_box(obj.bbox, self.seed, frame.id, obj.id, res),
                truth_id: Some(obj.id),
            });
        }

        // False positives: noise blobs misread as objects; more frequent at
        // low resolution.
        if !self.fp_classes.is_empty() && self.fp_rate_native > 0.0 {
            let rate = self.fp_rate(res);
            let fps = hash::poisson(
                &[self.seed, frame.id, res_words[0], res_words[1], STREAM_FP],
                rate.lambda,
                rate.exp_neg_lambda,
            );
            for k in 0..fps {
                let g = |stream: u64| {
                    hash::uniform01(&[
                        self.seed,
                        frame.id,
                        u64::from(k),
                        res_words[0],
                        stream,
                        STREAM_FP_GEOM,
                    ])
                };
                let class = self.fp_classes[(g(11) * self.fp_classes.len() as f64) as usize
                    % self.fp_classes.len()];
                let w = 0.02 + 0.08 * g(12);
                items.push(Detection {
                    class,
                    score: (self.threshold + 0.1 * g(13)).min(1.0) as f32,
                    bbox: BBox::new(g(14) as f32, g(15) as f32, w as f32, (w * 0.7) as f32),
                    truth_id: None,
                });
            }
        }

        Detections { items }
    }

    /// The expected false positives per frame at `res`, through the
    /// calling thread's [`FP_RATE`] memo.
    fn fp_rate(&self, res: Resolution) -> FpRate {
        let (native_px, res_px) = (self.native.pixels(), res.pixels().max(1));
        let key = [
            native_px,
            res_px,
            self.fp_rate_native.to_bits(),
            self.fp_resolution_exponent.to_bits(),
        ];
        FP_RATE.with(|memo| {
            if memo.get().key == key {
                return memo.get();
            }
            let scale = (native_px as f64 / res_px as f64).powf(self.fp_resolution_exponent);
            let lambda = self.fp_rate_native * scale;
            let rate = FpRate {
                key,
                lambda,
                exp_neg_lambda: (-lambda).exp(),
            };
            memo.set(rate);
            rate
        })
    }

    /// Duplicate-detection injection (NMS failure): each true positive of
    /// `class` is emitted a second time with probability `dup_prob`.
    /// Used by the YOLO 384-band quirk.
    pub(crate) fn inject_duplicates(
        &self,
        detections: &mut Detections,
        frame: &Frame,
        res: Resolution,
        class: ObjectClass,
        dup_prob: f64,
    ) {
        let mut dups = Vec::new();
        for d in &detections.items {
            if d.class != class {
                continue;
            }
            let Some(tid) = d.truth_id else { continue };
            let u = hash::uniform01(&[
                self.seed,
                frame.id,
                tid,
                u64::from(res.width),
                STREAM_DUP,
            ]);
            if u < dup_prob {
                let mut dup = d.clone();
                // Slightly offset box, as a real NMS failure produces.
                dup.bbox = BBox::new(
                    dup.bbox.x + 0.01,
                    dup.bbox.y + 0.01,
                    dup.bbox.w,
                    dup.bbox.h,
                );
                dups.push(dup);
            }
        }
        detections.items.extend(dups);
    }
}

/// Small deterministic localization jitter so predicted boxes are not
/// pixel-identical to ground truth.
fn jitter_box(bbox: BBox, seed: u64, frame_id: u64, obj_id: u64, res: Resolution) -> BBox {
    let j = |stream: u64| {
        (hash::uniform01(&[seed, frame_id, obj_id, u64::from(res.width), stream, 7]) - 0.5)
            * 0.01
    };
    BBox::new(
        bbox.x + j(1) as f32,
        bbox.y + j(2) as f32,
        bbox.w * (1.0 + j(3) as f32),
        bbox.h * (1.0 + j(4) as f32),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use smokescreen_rt::pool::Pool;
    use smokescreen_rt::proptest::prelude::*;
    use smokescreen_video::perturb::perturb_frame;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::{Object, Perturbation, VideoCorpus};

    use super::*;
    use crate::response::{memo_slot, sigmoid};
    use crate::{Detector, SimMaskRcnn, SimMtcnn, SimYoloV4};

    /// `ResponseCurve::detect_probability` with every term evaluated per
    /// call: no memo, no precomputed `ln(area50)`.
    fn reference_probability(curve: &ResponseCurve, object: &Object, res: Resolution) -> f64 {
        let area = object.bbox.pixel_area(res);
        if area <= 0.0 {
            return 0.0;
        }
        let contrast_factor = (f64::from(object.contrast) / 0.6)
            .max(1e-3)
            .powf(curve.contrast_gamma);
        let occlusion_factor = (1.0 - f64::from(object.occlusion)).max(0.0);
        let eff = area * contrast_factor * occlusion_factor;
        if eff <= 0.0 {
            return 0.0;
        }
        let z = curve.slope * (eff.ln() - curve.area50.ln());
        curve.p_max * sigmoid(z)
    }

    /// The expected false positives per frame at `res`, computed afresh.
    fn reference_lambda(b: &SimBackbone, res: Resolution) -> f64 {
        let scale =
            (b.native.pixels() as f64 / res.pixels().max(1) as f64).powf(b.fp_resolution_exponent);
        b.fp_rate_native * scale
    }

    /// `SimBackbone::detect` with every formula evaluated per call.
    fn reference_detect(b: &SimBackbone, frame: &Frame, res: Resolution) -> Detections {
        let mut items = Vec::new();
        let rw = [u64::from(res.width), u64::from(res.height)];
        for obj in &frame.objects {
            let Some((curve, _)) = &b.curves[obj.class.index()] else {
                continue;
            };
            let p = reference_probability(curve, obj, res);
            let u = hash::uniform01(&[b.seed, frame.id, obj.id, rw[0], rw[1], STREAM_DETECT]);
            if u >= p {
                continue;
            }
            let s = hash::uniform01(&[b.seed, frame.id, obj.id, rw[0], rw[1], STREAM_SCORE]);
            let score = (b.threshold + (1.0 - b.threshold) * (0.3 + 0.7 * p) * s.max(0.2))
                .clamp(b.threshold, 1.0) as f32;
            items.push(Detection {
                class: obj.class,
                score,
                bbox: jitter_box(obj.bbox, b.seed, frame.id, obj.id, res),
                truth_id: Some(obj.id),
            });
        }
        if !b.fp_classes.is_empty() && b.fp_rate_native > 0.0 {
            let lambda = reference_lambda(b, res);
            let words = [b.seed, frame.id, rw[0], rw[1], STREAM_FP];
            for k in 0..hash::poisson(&words, lambda, (-lambda).exp()) {
                let g = |stream: u64| {
                    let words = [b.seed, frame.id, u64::from(k), rw[0], stream, STREAM_FP_GEOM];
                    hash::uniform01(&words)
                };
                let n = b.fp_classes.len();
                let w = 0.02 + 0.08 * g(12);
                items.push(Detection {
                    class: b.fp_classes[(g(11) * n as f64) as usize % n],
                    score: (b.threshold + 0.1 * g(13)).min(1.0) as f32,
                    bbox: BBox::new(g(14) as f32, g(15) as f32, w as f32, (w * 0.7) as f32),
                    truth_id: None,
                });
            }
        }
        Detections { items }
    }

    fn prop_corpora() -> &'static [VideoCorpus; 2] {
        static CORPORA: OnceLock<[VideoCorpus; 2]> = OnceLock::new();
        CORPORA.get_or_init(|| {
            [
                DatasetPreset::Detrac.generate(1),
                DatasetPreset::NightStreet.generate(1),
            ]
        })
    }

    /// Next value after `from` (stepping by `next`) whose memo slot is
    /// `slot`.
    fn colliding<T: Copy>(
        slot: usize,
        from: T,
        next: impl Fn(T) -> T,
        at: impl Fn(T) -> usize,
    ) -> T {
        let mut x = next(from);
        while at(x) != slot {
            x = next(x);
        }
        x
    }

    proptest! {
        #[test]
        fn detect_matches_reference(
            model in 0usize..3,
            model_seed in any::<u64>(),
            corpus in 0usize..2,
            start in any::<usize>(),
            len in 1usize..24,
            sides in collection::vec(16u32..=640, 4..5),
            glared in any::<u32>(),
            attenuation in 0.05f32..0.9,
            contrast in 0.02f32..0.5,
            gamma in 1.0f64..2.0,
        ) {
            // A run of frames (some under glare, whose contrast varies per
            // frame) from either corpus, detected by a drawn model at one
            // supported resolution and then at another, must equal the
            // reference item for item, on one thread and spread over
            // eight. The false-positive rate memo must hold the reference
            // rate after each call, whether it hit or missed.
            let yolo = SimYoloV4::new(model_seed);
            let mask = SimMaskRcnn::new(model_seed);
            let mtcnn = SimMtcnn::new(model_seed);
            let (backbone, step, cap) = match model {
                0 => (&yolo.backbone, 32, 608),
                1 => (&mask.backbone, 64, 640),
                _ => (&mtcnn.backbone, 1, 640),
            };
            let fit = |px: u32| (px / step * step).clamp(step, cap);
            let resolutions = [
                Resolution::new(fit(sides[0]), fit(sides[1])),
                Resolution::new(fit(sides[2]), fit(sides[3])),
            ];
            let detector: [&dyn Detector; 3] = [&yolo, &mask, &mtcnn];
            for res in resolutions {
                prop_assert!(detector[model].supports(res), "{:?} unsupported", res);
            }
            let frames = prop_corpora()[corpus].frames();
            let start = start % (frames.len() - len);
            let glare = Perturbation::Glare { attenuation };
            let run: Vec<Frame> = frames[start..start + len]
                .iter()
                .enumerate()
                .map(|(i, f)| match glared >> i & 1 {
                    1 => perturb_frame(f, &glare),
                    _ => f.clone(),
                })
                .collect();
            let calls: Vec<(&Frame, Resolution)> =
                resolutions.iter().flat_map(|&res| run.iter().map(move |f| (f, res))).collect();
            let expected: Vec<Detections> =
                calls.iter().map(|&(f, res)| reference_detect(backbone, f, res)).collect();
            for &(f, res) in &calls {
                backbone.detect(f, res);
                let (lambda, rate) = (reference_lambda(backbone, res), backbone.fp_rate(res));
                prop_assert_eq!(rate.lambda.to_bits(), lambda.to_bits());
                prop_assert_eq!(rate.exp_neg_lambda.to_bits(), (-lambda).exp().to_bits());
            }
            for threads in [1, 8] {
                let got = Pool::with_threads(threads)
                    .parallel_map(&calls, |_, &(f, res)| backbone.detect(f, res));
                prop_assert_eq!(&got, &expected, "at width {}", threads);
            }

            // Two gammas on one contrast, and two contrasts on one gamma,
            // that share a memo slot, looked up alternately: a memo whose
            // key misses either input, or which skips the key, fails here.
            let slot = memo_slot(contrast, gamma);
            let gamma2 = colliding(slot, gamma, |g| g + 1e-3, |g| memo_slot(contrast, g));
            let contrast2 = colliding(
                slot,
                contrast,
                |c| f32::from_bits(c.to_bits() + 1),
                |c| memo_slot(c, gamma),
            );
            let curve = |contrast_gamma| ResponseCurve {
                area50: 300.0,
                slope: 1.2,
                p_max: 0.99,
                contrast_gamma,
            };
            let object = |contrast| Object {
                id: 1,
                class: ObjectClass::Car,
                bbox: BBox::new(0.2, 0.2, 0.1, 0.06),
                contrast,
                occlusion: 0.0,
            };
            let res = Resolution::square(320);
            let lookups = [(contrast, gamma), (contrast, gamma2), (contrast2, gamma)];
            for &(c, g) in lookups.iter().cycle().take(7) {
                let (curve, object) = (curve(g), object(c));
                prop_assert_eq!(
                    curve.detect_probability(&object, res).to_bits(),
                    reference_probability(&curve, &object, res).to_bits(),
                    "contrast {} gamma {}", c, g
                );
            }
            let p = |c, g| reference_probability(&curve(g), &object(c), res);
            prop_assert!(p(contrast, gamma) != p(contrast, gamma2));
            prop_assert!(p(contrast, gamma) != p(contrast2, gamma));
        }
    }
}
