//! `SimYoloV4` — the YOLOv4/Darknet analogue.
//!
//! Characteristics mirrored from the paper's setup:
//!
//! * native input 608×608; Darknet requires input sides that are multiples
//!   of 32;
//! * detection threshold 0.7;
//! * one-stage detector: fast, slightly worse on very small objects than
//!   Mask R-CNN (higher `area50`);
//! * **the 384×384 anomaly** (Figures 7–8): on low-contrast scenes, inputs
//!   in a band around 384 px hit an anchor-grid mismatch that makes NMS
//!   fail to merge duplicate boxes, inflating car counts. The paper found
//!   the prediction-count distribution at 384×384 deviates wildly from the
//!   truth while 320×320 stays close — error is *non-monotone* in
//!   resolution, which is exactly why administrators need profiles instead
//!   of intuition.

use smokescreen_video::{Frame, ObjectClass, Resolution};

use crate::backbone::{curves, SimBackbone};
use crate::detector::{Detections, Detector};
use crate::response::ResponseCurve;

/// Simulated YOLOv4.
#[derive(Debug, Clone)]
pub struct SimYoloV4 {
    backbone: SimBackbone,
    quirk: QuirkBand,
}

/// The duplicate-detection band.
#[derive(Debug, Clone, Copy)]
struct QuirkBand {
    lo: u32,
    hi: u32,
    /// Duplicate probability at low scene contrast.
    dup_prob: f64,
    /// Contrast below which the quirk engages (night scenes).
    contrast_ceiling: f32,
}

impl SimYoloV4 {
    /// Standard configuration (threshold 0.7, native 608×608).
    pub fn new(seed: u64) -> Self {
        let vehicle = ResponseCurve {
            area50: 320.0,
            slope: 1.25,
            p_max: 0.985,
            contrast_gamma: 1.5,
        };
        let curves = curves(&[
            (ObjectClass::Car, vehicle),
            (ObjectClass::Truck, ResponseCurve { area50: 380.0, ..vehicle }),
            (ObjectClass::Bus, ResponseCurve { area50: 400.0, ..vehicle }),
            (ObjectClass::Bicycle, ResponseCurve { area50: 260.0, p_max: 0.93, ..vehicle }),
            (
                ObjectClass::Person,
                ResponseCurve { area50: 240.0, slope: 1.2, p_max: 0.96, contrast_gamma: 1.4 },
            ),
        ]);
        SimYoloV4 {
            backbone: SimBackbone {
                seed: seed ^ 0x59_4F_4C_4F, // "YOLO"
                curves,
                fp_rate_native: 0.015,
                fp_resolution_exponent: 0.35,
                fp_classes: vec![ObjectClass::Car, ObjectClass::Person],
                threshold: 0.7,
                native: Resolution::square(608),
            },
            quirk: QuirkBand {
                lo: 368,
                hi: 400,
                dup_prob: 0.55,
                contrast_ceiling: 0.5,
            },
        }
    }

    fn quirk_engages(&self, frame: &Frame, res: Resolution) -> bool {
        if res.width < self.quirk.lo || res.width > self.quirk.hi {
            return false;
        }
        // Scene contrast: mean object contrast; empty frames can't glitch.
        let objs = &frame.objects;
        if objs.is_empty() {
            return false;
        }
        let mean_contrast: f32 =
            objs.iter().map(|o| o.contrast).sum::<f32>() / objs.len() as f32;
        mean_contrast < self.quirk.contrast_ceiling
    }
}

impl Detector for SimYoloV4 {
    fn name(&self) -> &str {
        "sim-yolov4"
    }

    fn native_resolution(&self) -> Resolution {
        self.backbone.native
    }

    fn supports(&self, res: Resolution) -> bool {
        res.is_multiple_of(32)
            && res.width <= self.backbone.native.width
            && res.height <= self.backbone.native.height
    }

    fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        let mut detections = self.backbone.detect(frame, res);
        if self.quirk_engages(frame, res) {
            self.backbone.inject_duplicates(
                &mut detections,
                frame,
                res,
                ObjectClass::Car,
                self.quirk.dup_prob,
            );
        }
        detections
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        // ≈30 ms per frame at 608² on the paper's 1080 Ti, linear in pixels
        // with a fixed 6 ms load/transform overhead.
        6.0 + 24.0 * res.pixels() as f64 / Resolution::square(608).pixels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_video::synth::{night_street, DatasetPreset};

    #[test]
    fn deterministic_per_frame_resolution() {
        let corpus = DatasetPreset::Detrac.generate(3);
        let yolo = SimYoloV4::new(1);
        let f = corpus.frame(100).unwrap();
        let res = Resolution::square(416);
        assert_eq!(yolo.detect(f, res), yolo.detect(f, res));
    }

    #[test]
    fn supports_darknet_resolutions_only() {
        let yolo = SimYoloV4::new(1);
        assert!(yolo.supports(Resolution::square(608)));
        assert!(yolo.supports(Resolution::square(320)));
        assert!(!yolo.supports(Resolution::square(300)));
        assert!(!yolo.supports(Resolution::square(640))); // above native
    }

    #[test]
    fn recall_degrades_with_resolution() {
        let corpus = DatasetPreset::Detrac.generate(5);
        let yolo = SimYoloV4::new(2);
        let count_at = |side: u32| -> f64 {
            corpus
                .frames()
                .iter()
                .take(800)
                .map(|f| yolo.count(f, Resolution::square(side), ObjectClass::Car))
                .sum()
        };
        let high = count_at(608);
        let low = count_at(128);
        assert!(
            low < high * 0.8,
            "low-res counts should drop: low={low} high={high}"
        );
    }

    #[test]
    fn quirk_band_inflates_night_counts() {
        let corpus = night_street().generate(11);
        let yolo = SimYoloV4::new(3);
        let mean_at = |side: u32| -> f64 {
            let frames: Vec<_> = corpus.frames().iter().take(3_000).collect();
            frames
                .iter()
                .map(|f| yolo.count(f, Resolution::square(side), ObjectClass::Car))
                .sum::<f64>()
                / frames.len() as f64
        };
        let at_608 = mean_at(608);
        let at_384 = mean_at(384);
        let at_320 = mean_at(320);
        // 384 must deviate from truth more than its *lower* neighbour —
        // the Figure 7 anomaly.
        let err_384 = (at_384 - at_608).abs() / at_608;
        let err_320 = (at_320 - at_608).abs() / at_608;
        assert!(
            err_384 > err_320,
            "expected non-monotone error: err384={err_384} err320={err_320}"
        );
    }

    #[test]
    fn quirk_does_not_engage_on_day_scenes() {
        let corpus = DatasetPreset::Detrac.generate(13); // contrast ≈ 0.7
        let yolo = SimYoloV4::new(4);
        let mean_at = |side: u32| -> f64 {
            let frames: Vec<_> = corpus.frames().iter().take(1_500).collect();
            frames
                .iter()
                .map(|f| yolo.count(f, Resolution::square(side), ObjectClass::Car))
                .sum::<f64>()
                / frames.len() as f64
        };
        let err_384 = (mean_at(384) - mean_at(608)).abs() / mean_at(608);
        let err_320 = (mean_at(320) - mean_at(608)).abs() / mean_at(608);
        assert!(
            err_384 <= err_320 + 0.05,
            "daytime 384 should be unremarkable: {err_384} vs {err_320}"
        );
    }

    #[test]
    fn cost_scales_with_pixels() {
        let yolo = SimYoloV4::new(1);
        assert!(
            yolo.inference_cost_ms(Resolution::square(608))
                > yolo.inference_cost_ms(Resolution::square(128))
        );
    }
}
