//! Frame size / compression model.
//!
//! Interventions are motivated partly by *system* goals — bandwidth and
//! energy (§1, §2.1). To quantify those gains the camera crate needs a
//! model of how many bytes a frame costs at a given resolution and quality.
//! We use a standard intra-coded video model: bytes ≈ pixels × bits-per-
//! pixel(quality) / 8, with bpp falling as quantization coarsens.

use crate::object::Resolution;
use smokescreen_rt::json::{FromJson, Json, ToJson};

/// Encoder quality setting, mapped onto an H.264-like quantization scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality(f64);

impl Quality {
    /// Full quality (bpp ≈ 0.9, visually lossless intra coding).
    pub const LOSSLESS_ISH: Quality = Quality(1.0);

    /// Creates a quality in `[0, 1]`; values are clamped.
    pub fn new(q: f64) -> Self {
        Quality(q.clamp(0.0, 1.0))
    }

    /// The quality knob value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Effective bits per pixel: decays from 0.9 at full quality to 0.05
    /// at the coarsest quantization.
    pub fn bits_per_pixel(&self) -> f64 {
        0.05 + 0.85 * self.0.powf(1.5)
    }
}

impl ToJson for Quality {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl FromJson for Quality {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        Ok(Quality::new(value.as_f64()?))
    }
}

/// Estimated encoded size of one frame, in bytes.
pub fn frame_bytes(res: Resolution, quality: Quality) -> u64 {
    ((res.pixels() as f64) * quality.bits_per_pixel() / 8.0).ceil() as u64
}

/// Estimated bytes to ship `frames` frames at the given resolution,
/// quality, and sampling fraction.
pub fn transmission_bytes(frames: usize, fraction: f64, res: Resolution, quality: Quality) -> u64 {
    let kept = (frames as f64 * fraction.clamp(0.0, 1.0)).round();
    (kept * frame_bytes(res, quality) as f64) as u64
}

/// Simulates quantization of a contrast value: coarser quality compresses
/// contrast toward the mid-tone, degrading detectability — this is how the
/// optional compression intervention couples into the detector models.
pub fn quantize_contrast(contrast: f32, quality: Quality) -> f32 {
    let q = quality.value() as f32;
    // At q=1 contrast is untouched; at q=0 it is halved.
    contrast * (0.5 + 0.5 * q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_scale_with_pixels() {
        let q = Quality::LOSSLESS_ISH;
        let small = frame_bytes(Resolution::square(128), q);
        let large = frame_bytes(Resolution::square(256), q);
        assert!((large as f64 / small as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn lower_quality_fewer_bytes() {
        let r = Resolution::square(608);
        assert!(frame_bytes(r, Quality::new(0.3)) < frame_bytes(r, Quality::new(0.9)));
    }

    #[test]
    fn transmission_scales_with_fraction() {
        let r = Resolution::square(608);
        let full = transmission_bytes(1000, 1.0, r, Quality::LOSSLESS_ISH);
        let tenth = transmission_bytes(1000, 0.1, r, Quality::LOSSLESS_ISH);
        assert!((full as f64 / tenth as f64 - 10.0).abs() < 0.05);
    }

    #[test]
    fn quantize_contrast_monotone_in_quality() {
        let c = 0.8;
        assert!(quantize_contrast(c, Quality::new(0.2)) < quantize_contrast(c, Quality::new(0.9)));
        assert_eq!(quantize_contrast(c, Quality::new(1.0)), c);
    }

    #[test]
    fn quality_clamps() {
        assert_eq!(Quality::new(7.0).value(), 1.0);
        assert_eq!(Quality::new(-3.0).value(), 0.0);
    }
}
