//! Shared simulator machinery used by the concrete models.

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

/// A model's response curve per class, indexed by [`ObjectClass::index`]:
/// `None` for a class the model does not know.
pub(crate) type Curves = [Option<ResponseCurve>; ObjectClass::ALL.len()];

/// [`Curves`] from `(class, curve)` pairs.
pub(crate) fn curves(pairs: &[(ObjectClass, ResponseCurve)]) -> Curves {
    let mut curves = Curves::default();
    for &(class, curve) in pairs {
        curves[class.index()] = Some(curve);
    }
    curves
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
    pub(crate) fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        let mut items = Vec::with_capacity(frame.objects.len());
        let res_words = [u64::from(res.width), u64::from(res.height)];

        for obj in &frame.objects {
            let Some(curve) = &self.curves[obj.class.index()] else {
                continue; // class unknown to this model
            };
            let p = curve.detect_probability(obj, res);
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
            let scale = (self.native.pixels() as f64 / res.pixels().max(1) as f64)
                .powf(self.fp_resolution_exponent);
            let lambda = self.fp_rate_native * scale;
            let fps = hash::poisson(
                &[self.seed, frame.id, res_words[0], res_words[1], STREAM_FP],
                lambda,
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
