//! `SimMaskRcnn` — the Mask R-CNN analogue.
//!
//! Two-stage detector: better small-object recall than the one-stage
//! YOLO analogue (lower `area50`), no quirk band, roughly 6–8× slower per
//! frame. Per the paper, the default architecture only accepts input
//! resolutions that are multiples of 64, with a native 640×640.

use smokescreen_video::{Frame, ObjectClass, Resolution};

use crate::backbone::{curves, SimBackbone};
use crate::detector::{Detections, Detector};
use crate::response::ResponseCurve;

/// Simulated Mask R-CNN (Keras/TensorFlow Matterport build).
#[derive(Debug, Clone)]
pub struct SimMaskRcnn {
    pub(crate) backbone: SimBackbone,
}

impl SimMaskRcnn {
    /// Standard configuration (threshold 0.7, native 640×640).
    pub fn new(seed: u64) -> Self {
        let vehicle = ResponseCurve {
            area50: 240.0,
            slope: 1.15,
            p_max: 0.99,
            contrast_gamma: 1.3,
        };
        let curves = curves(&[
            (ObjectClass::Car, vehicle),
            (ObjectClass::Truck, ResponseCurve { area50: 300.0, ..vehicle }),
            (ObjectClass::Bus, ResponseCurve { area50: 320.0, ..vehicle }),
            (ObjectClass::Bicycle, ResponseCurve { area50: 210.0, p_max: 0.95, ..vehicle }),
            (
                ObjectClass::Person,
                ResponseCurve { area50: 190.0, slope: 1.1, p_max: 0.975, contrast_gamma: 1.25 },
            ),
        ]);
        SimMaskRcnn {
            backbone: SimBackbone {
                seed: seed ^ 0x4D_52_43_4E, // "MRCN"
                curves,
                fp_rate_native: 0.008,
                fp_resolution_exponent: 0.3,
                fp_classes: vec![ObjectClass::Car, ObjectClass::Person],
                threshold: 0.7,
                native: Resolution::square(640),
            },
        }
    }
}

impl Detector for SimMaskRcnn {
    fn name(&self) -> &str {
        "sim-mask-rcnn"
    }

    fn native_resolution(&self) -> Resolution {
        self.backbone.native
    }

    fn supports(&self, res: Resolution) -> bool {
        res.is_multiple_of(64)
            && res.width <= self.backbone.native.width
            && res.height <= self.backbone.native.height
    }

    fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        self.backbone.detect(frame, res)
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        // ≈200 ms per frame at 640² (two-stage, heavy head).
        25.0 + 175.0 * res.pixels() as f64 / Resolution::square(640).pixels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yolo::SimYoloV4;
    use smokescreen_video::synth::DatasetPreset;

    #[test]
    fn resolution_constraint_is_64() {
        let m = SimMaskRcnn::new(1);
        assert!(m.supports(Resolution::square(640)));
        assert!(m.supports(Resolution::square(128)));
        assert!(!m.supports(Resolution::square(416)));
        assert!(!m.supports(Resolution::square(704))); // above native
    }

    #[test]
    fn better_small_object_recall_than_yolo() {
        let corpus = DatasetPreset::NightStreet.generate(21);
        let mask = SimMaskRcnn::new(2);
        let yolo = SimYoloV4::new(2);
        let res = Resolution::square(128); // multiple of both 32 and 64
        let frames: Vec<_> = corpus.frames().iter().take(4_000).collect();
        let m: f64 = frames.iter().map(|f| mask.count(f, res, ObjectClass::Car)).sum();
        let y: f64 = frames.iter().map(|f| yolo.count(f, res, ObjectClass::Car)).sum();
        assert!(m > y, "mask={m} yolo={y}");
    }

    #[test]
    fn slower_than_yolo() {
        let m = SimMaskRcnn::new(1);
        let y = SimYoloV4::new(1);
        assert!(
            m.inference_cost_ms(Resolution::square(640))
                > 4.0 * y.inference_cost_ms(Resolution::square(608))
        );
    }

    #[test]
    fn deterministic() {
        let corpus = DatasetPreset::NightStreet.generate(4);
        let m = SimMaskRcnn::new(9);
        let f = corpus.frame(42).unwrap();
        assert_eq!(
            m.detect(f, Resolution::square(256)),
            m.detect(f, Resolution::square(256))
        );
    }
}
