//! `SimMtcnn` — the MTCNN face-detector analogue.
//!
//! The paper uses MTCNN (threshold 0.8) to decide which frames contain a
//! "face" for the image-removal intervention; those memberships are stored
//! as prior information. Faces are tiny objects, so the cascade has a very
//! low `area50` but collapses quickly once frames shrink.

use smokescreen_video::{Frame, ObjectClass, Resolution};

use crate::backbone::{curves, SimBackbone};
use crate::detector::{Detections, Detector};
use crate::response::ResponseCurve;

/// Simulated MTCNN face detector.
#[derive(Debug, Clone)]
pub struct SimMtcnn {
    backbone: SimBackbone,
}

impl SimMtcnn {
    /// Standard configuration (threshold 0.8).
    pub fn new(seed: u64) -> Self {
        let face = ResponseCurve { area50: 36.0, slope: 1.6, p_max: 0.97, contrast_gamma: 1.2 };
        SimMtcnn {
            backbone: SimBackbone {
                seed: seed ^ 0x4D_54_43_4E, // "MTCN"
                curves: curves(&[(ObjectClass::Face, face)]),
                fp_rate_native: 0.002,
                fp_resolution_exponent: 0.2,
                fp_classes: vec![ObjectClass::Face],
                threshold: 0.8,
                native: Resolution::square(640),
            },
        }
    }
}

impl Detector for SimMtcnn {
    fn name(&self) -> &str {
        "sim-mtcnn"
    }

    fn native_resolution(&self) -> Resolution {
        self.backbone.native
    }

    fn supports(&self, res: Resolution) -> bool {
        // Fully convolutional cascade: any resolution up to native.
        res.width <= self.backbone.native.width && res.height <= self.backbone.native.height
    }

    fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        self.backbone.detect(frame, res)
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        4.0 + 16.0 * res.pixels() as f64 / Resolution::square(640).pixels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_video::synth::DatasetPreset;

    #[test]
    fn detects_only_faces() {
        let corpus = DatasetPreset::NightStreet.generate(8);
        let m = SimMtcnn::new(1);
        for f in corpus.frames().iter().take(2_000) {
            let d = m.detect(f, Resolution::square(640));
            assert!(d.items.iter().all(|x| x.class == ObjectClass::Face));
        }
    }

    #[test]
    fn finds_a_reasonable_share_of_face_frames() {
        let corpus = DatasetPreset::Detrac.generate(8);
        let m = SimMtcnn::new(2);
        let gt: usize = corpus
            .frames()
            .iter()
            .filter(|f| f.contains_class(ObjectClass::Face))
            .count();
        let detected: usize = corpus
            .frames()
            .iter()
            .filter(|f| m.detect(f, Resolution::square(640)).contains(ObjectClass::Face))
            .count();
        assert!(gt > 0);
        // Faces are tiny; recall at native should still be non-trivial and
        // detections should not wildly exceed ground truth.
        assert!(detected as f64 > gt as f64 * 0.2, "detected={detected} gt={gt}");
        assert!(detected as f64 <= gt as f64 * 1.5 + 20.0, "detected={detected} gt={gt}");
    }

    #[test]
    fn face_recall_collapses_at_low_resolution() {
        let corpus = DatasetPreset::NightStreet.generate(9);
        let m = SimMtcnn::new(3);
        let count_at = |side: u32| -> usize {
            corpus
                .frames()
                .iter()
                .take(5_000)
                .filter(|f| m.detect(f, Resolution::square(side)).contains(ObjectClass::Face))
                .count()
        };
        let hi = count_at(640);
        let lo = count_at(96);
        assert!(lo < hi / 2, "face frames at 96px {lo} vs 640px {hi}");
    }
}
