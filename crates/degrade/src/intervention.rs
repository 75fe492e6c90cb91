//! Intervention sets: the paper's `(f, p, c)` knobs plus extensions.

use smokescreen_rt::json::JsonError;
use smokescreen_video::codec::Quality;
use smokescreen_video::{ObjectClass, Resolution};

/// Random vs. non-random intervention classification (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterventionKind {
    /// The model-output distribution on processed frames is unchanged;
    /// Algorithms 1–2 apply directly.
    Random,
    /// The distribution may shift; a correction set (Algorithm 3) is
    /// required for a valid bound.
    NonRandom,
}

/// A full set of destructive interventions applied together.
#[derive(Debug, Clone, PartialEq)]
pub struct InterventionSet {
    /// `f` — fraction of frames randomly sampled, in `(0, 1]`.
    pub sample_fraction: f64,
    /// `p` — processing resolution; `None` means the native (highest)
    /// resolution, i.e. no resolution intervention.
    pub resolution: Option<Resolution>,
    /// `c` — restricted classes; frames containing any of them are removed
    /// entirely. Empty means no image removal.
    pub restricted: Vec<ObjectClass>,
    /// Classes whose image regions are blurred in place (GDPR-style face
    /// blurring, §1). Unlike image removal, the frame is kept; the blurred
    /// objects become undetectable and unrecognizable. Extension.
    pub blurred: Vec<ObjectClass>,
    /// Additive noise level in `[0, 1]` (0 = none). Extension (§2.1
    /// "noise addition").
    pub noise: f64,
    /// Lossy-compression quality; `None` means uncompressed. Extension
    /// (§2.1 "video compression techniques").
    pub quality: Option<Quality>,
}

impl Default for InterventionSet {
    fn default() -> Self {
        InterventionSet::none()
    }
}

impl InterventionSet {
    /// The identity intervention: full sampling, native resolution, no
    /// removal, no noise, no compression.
    pub fn none() -> Self {
        InterventionSet {
            sample_fraction: 1.0,
            resolution: None,
            restricted: Vec::new(),
            blurred: Vec::new(),
            noise: 0.0,
            quality: None,
        }
    }

    /// Pure frame-sampling intervention (the random case).
    pub fn sampling(fraction: f64) -> Self {
        InterventionSet {
            sample_fraction: fraction,
            ..InterventionSet::none()
        }
    }

    /// Builder: set the resolution knob.
    pub fn with_resolution(mut self, res: Resolution) -> Self {
        self.resolution = Some(res);
        self
    }

    /// Builder: set the restricted classes.
    pub fn with_restricted(mut self, classes: &[ObjectClass]) -> Self {
        self.restricted = classes.to_vec();
        self
    }

    /// Builder: set the classes to blur in place.
    pub fn with_blur(mut self, classes: &[ObjectClass]) -> Self {
        self.blurred = classes.to_vec();
        self
    }

    /// Builder: set the noise level.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the compression quality.
    pub fn with_quality(mut self, quality: Quality) -> Self {
        self.quality = Some(quality);
        self
    }

    /// Whether any non-random knob is engaged.
    pub fn kind(&self) -> InterventionKind {
        let non_random = self.resolution.is_some()
            || !self.restricted.is_empty()
            || !self.blurred.is_empty()
            || self.noise > 0.0
            || self.quality.is_some();
        if non_random {
            InterventionKind::NonRandom
        } else {
            InterventionKind::Random
        }
    }

    /// Convenience for `kind() == Random`.
    pub fn is_random_only(&self) -> bool {
        self.kind() == InterventionKind::Random
    }

    /// Whether the set degrades anything at all.
    pub fn is_identity(&self) -> bool {
        self.sample_fraction >= 1.0 && self.is_random_only()
    }

    /// Validates knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sample_fraction > 0.0 && self.sample_fraction <= 1.0) {
            return Err(format!(
                "sample fraction {} must be in (0, 1]",
                self.sample_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(format!("noise {} must be in [0, 1]", self.noise));
        }
        if let Some(r) = self.resolution {
            if r.pixels() == 0 {
                return Err("resolution must be non-empty".into());
            }
        }
        Ok(())
    }

    /// Human-readable knob summary, e.g. `f=0.10 p=128x128 c={person}`.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("f={:.4}", self.sample_fraction)];
        match self.resolution {
            Some(r) => parts.push(format!("p={r}")),
            None => parts.push("p=native".into()),
        }
        if self.restricted.is_empty() {
            parts.push("c={}".into());
        } else {
            let names: Vec<&str> = self.restricted.iter().map(|c| c.name()).collect();
            parts.push(format!("c={{{}}}", names.join(",")));
        }
        if !self.blurred.is_empty() {
            let names: Vec<&str> = self.blurred.iter().map(|c| c.name()).collect();
            parts.push(format!("blur={{{}}}", names.join(",")));
        }
        if self.noise > 0.0 {
            parts.push(format!("noise={:.2}", self.noise));
        }
        if let Some(q) = self.quality {
            parts.push(format!("q={:.2}", q.value()));
        }
        parts.join(" ")
    }
}

smokescreen_rt::json_codec! {
    InterventionSet { sample_fraction, resolution, restricted, blurred, noise, quality }
    check InterventionSet::check_stored
}

impl InterventionSet {
    /// Stored artifacts only ever contain fractions in [0, 1] and
    /// non-negative finite noise; anything else is storage corruption and
    /// must be rejected, not carried into view construction.
    fn check_stored(&self) -> smokescreen_rt::json::Result<()> {
        let (f, noise) = (self.sample_fraction, self.noise);
        if !f.is_finite() || !(0.0..=1.0).contains(&f) {
            return Err(JsonError::new(format!("sample_fraction {f} is not in [0, 1]")));
        }
        if !noise.is_finite() || noise < 0.0 {
            return Err(JsonError::new(format!(
                "noise {noise} is not a non-negative finite value"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_table1() {
        assert_eq!(InterventionSet::sampling(0.1).kind(), InterventionKind::Random);
        assert_eq!(
            InterventionSet::sampling(0.5)
                .with_resolution(Resolution::square(128))
                .kind(),
            InterventionKind::NonRandom
        );
        assert_eq!(
            InterventionSet::sampling(0.5)
                .with_restricted(&[ObjectClass::Person])
                .kind(),
            InterventionKind::NonRandom
        );
        assert_eq!(
            InterventionSet::sampling(0.5).with_noise(0.3).kind(),
            InterventionKind::NonRandom
        );
        assert_eq!(
            InterventionSet::sampling(0.5)
                .with_blur(&[ObjectClass::Face])
                .kind(),
            InterventionKind::NonRandom
        );
        assert_eq!(
            InterventionSet::sampling(0.5)
                .with_quality(Quality::new(0.5))
                .kind(),
            InterventionKind::NonRandom
        );
    }

    #[test]
    fn identity_detection() {
        assert!(InterventionSet::none().is_identity());
        assert!(!InterventionSet::sampling(0.99).is_identity());
        assert!(!InterventionSet::none()
            .with_resolution(Resolution::square(64))
            .is_identity());
    }

    #[test]
    fn validation() {
        assert!(InterventionSet::sampling(0.0).validate().is_err());
        assert!(InterventionSet::sampling(1.5).validate().is_err());
        assert!(InterventionSet::sampling(0.5).validate().is_ok());
        let mut bad = InterventionSet::none();
        bad.noise = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn describe_is_stable() {
        let s = InterventionSet::sampling(0.1)
            .with_resolution(Resolution::square(128))
            .with_restricted(&[ObjectClass::Person]);
        assert_eq!(s.describe(), "f=0.1000 p=128x128 c={person}");
        assert_eq!(InterventionSet::none().describe(), "f=1.0000 p=native c={}");
    }
}
