//! Resolution-response curves: the analytic core of the simulators.
//!
//! A detector's recall on an object is modelled as a logistic function of
//! the log of the object's **effective pixel area** at the processed
//! resolution:
//!
//! ```text
//! area_eff = pixel_area(bbox, res) · (contrast / 0.6)^γ · (1 − occlusion)
//! p_detect = p_max · sigmoid(slope · (ln area_eff − ln area50))
//! ```
//!
//! This is the standard empirical shape reported for CNN detectors under
//! downscaling (e.g. Koziarski & Cyganek 2018, cited by the paper):
//! detection holds up until objects approach a critical pixel size, then
//! collapses. `area50` is the 50%-recall pixel area; `slope` controls how
//! sharp the collapse is; the contrast exponent `γ` makes night scenes
//! degrade earlier than day scenes — which is what makes the two datasets'
//! tradeoff curves differ (Figure 3).

use std::cell::RefCell;

use smokescreen_video::{Object, Resolution};

/// Slots in each thread's contrast-factor memo (a power of two).
///
/// The memo is direct-mapped and exact: a slot holds the `f32` bits of a
/// contrast, the `f64` bits of a `γ` and the factor the formula returns
/// for them, so a hit is the same number as a fresh computation. Contrast
/// is fixed per synthetic track (UA-DETRAC: 4,491 distinct values over
/// 91,499 objects) and each frame is detected at up to 10 resolutions, so
/// most lookups hit: ~69% with UA-DETRAC's frames in random order, as
/// the fraction ladder visits them, and more in corpus order. 4,096 slots
/// of 24 B are 96 KiB per thread, allocated zeroed on the thread's first
/// call; 8,192 slots hit ~82% but cost the two-thread generator ~0.5 MiB
/// of peak RSS.
const CONTRAST_MEMO_SLOTS: usize = 1 << 12;

thread_local! {
    static CONTRAST_MEMO: RefCell<Vec<[u64; 3]>> = const { RefCell::new(Vec::new()) };
}

/// Logistic detectability curve for one (model, class) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseCurve {
    /// Effective pixel area at which recall crosses `p_max / 2`.
    pub area50: f64,
    /// Logistic slope in log-area space.
    pub slope: f64,
    /// Asymptotic recall at infinite resolution.
    pub p_max: f64,
    /// Contrast sensitivity exponent `γ` (0 = contrast-blind).
    pub contrast_gamma: f64,
}

impl ResponseCurve {
    /// Detection probability for an object at a resolution.
    ///
    /// The contrast factor `(contrast / 0.6)^γ` comes from a per-thread
    /// memo (`CONTRAST_MEMO_SLOTS`) keyed by the exact bits of both
    /// inputs, so the result is bit-identical to evaluating the formula.
    pub fn detect_probability(&self, object: &Object, res: Resolution) -> f64 {
        self.detect_probability_with(object, res, self.area50.ln())
    }

    /// [`detect_probability`](Self::detect_probability) with `ln(area50)`
    /// supplied by a caller that computes it once per curve.
    pub(crate) fn detect_probability_with(
        &self,
        object: &Object,
        res: Resolution,
        ln_area50: f64,
    ) -> f64 {
        let area = object.bbox.pixel_area(res);
        if area <= 0.0 {
            return 0.0;
        }
        let contrast_factor = contrast_factor(object.contrast, self.contrast_gamma);
        let occlusion_factor = (1.0 - f64::from(object.occlusion)).max(0.0);
        let eff = area * contrast_factor * occlusion_factor;
        if eff <= 0.0 {
            return 0.0;
        }
        let z = self.slope * (eff.ln() - ln_area50);
        self.p_max * sigmoid(z)
    }
}

/// `(contrast / 0.6).max(1e-3)^γ`, through the calling thread's memo.
fn contrast_factor(contrast: f32, gamma: f64) -> f64 {
    // The low bit tags an occupied slot, so a zeroed slot matches no key.
    let key = [(u64::from(contrast.to_bits()) << 32) | 1, gamma.to_bits()];
    CONTRAST_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.is_empty() {
            *memo = vec![[0; 3]; CONTRAST_MEMO_SLOTS];
        }
        let slot = &mut memo[memo_slot(contrast, gamma)];
        if slot[..2] == key {
            return f64::from_bits(slot[2]);
        }
        let factor = (f64::from(contrast) / 0.6).max(1e-3).powf(gamma);
        *slot = [key[0], key[1], factor.to_bits()];
        factor
    })
}

/// The memo slot of a `(contrast, γ)` pair: the top bits of a
/// multiplicative hash of both inputs' bits.
pub(crate) fn memo_slot(contrast: f32, gamma: f64) -> usize {
    let mixed = ((u64::from(contrast.to_bits()) << 32) ^ gamma.to_bits())
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - CONTRAST_MEMO_SLOTS.trailing_zeros())) as usize
}

/// Numerically stable logistic function.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_video::{BBox, ObjectClass};

    fn object(h: f32, contrast: f32, occlusion: f32) -> Object {
        Object {
            id: 1,
            class: ObjectClass::Car,
            bbox: BBox::new(0.2, 0.2, h * 1.8, h),
            contrast,
            occlusion,
        }
    }

    fn curve() -> ResponseCurve {
        ResponseCurve {
            area50: 300.0,
            slope: 1.2,
            p_max: 0.99,
            contrast_gamma: 1.5,
        }
    }

    #[test]
    fn probability_monotone_in_resolution() {
        let o = object(0.1, 0.6, 0.0);
        let c = curve();
        let mut prev = 0.0;
        for side in [64u32, 128, 256, 416, 608] {
            let p = c.detect_probability(&o, Resolution::square(side));
            assert!(p >= prev, "side={side}");
            prev = p;
        }
        assert!(prev > 0.9, "large objects at high res should be detected: {prev}");
    }

    #[test]
    fn low_contrast_hurts() {
        let c = curve();
        let res = Resolution::square(256);
        let day = c.detect_probability(&object(0.08, 0.7, 0.0), res);
        let night = c.detect_probability(&object(0.08, 0.3, 0.0), res);
        assert!(night < day, "night={night} day={day}");
    }

    #[test]
    fn occlusion_hurts() {
        let c = curve();
        let res = Resolution::square(416);
        let free = c.detect_probability(&object(0.08, 0.6, 0.0), res);
        let hidden = c.detect_probability(&object(0.08, 0.6, 0.8), res);
        assert!(hidden < free);
    }

    #[test]
    fn fully_occluded_is_zero() {
        let c = curve();
        assert_eq!(
            c.detect_probability(&object(0.1, 0.6, 1.0), Resolution::square(608)),
            0.0
        );
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999);
        assert!(sigmoid(-30.0) < 0.001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }
}
