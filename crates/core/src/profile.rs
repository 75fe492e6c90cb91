//! Profiles and the degradation hypercube (§2.3, §3.1).
//!
//! A profile is the set of `(intervention set, error bound)` pairs for one
//! `(video, query, model)` combination. Conceptually the bounds fill a 3-D
//! hypercube over `(f, p, c)`; administrators view 2-D slices obtained by
//! fixing the other dimension, starting from the loosest values.

use smokescreen_degrade::InterventionSet;
use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
use smokescreen_video::{ObjectClass, Resolution};

use crate::estimate::Aggregate;
use crate::{CoreError, Result};

/// One profiled candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePoint {
    /// The intervention set the bound was computed under.
    pub set: InterventionSet,
    /// Approximate query answer at this setting.
    pub y_approx: f64,
    /// `1 − δ` upper bound on the relative analytical error.
    pub err_b: f64,
    /// Whether the bound was repaired with a correction set.
    pub corrected: bool,
    /// Sample size the estimate consumed.
    pub n: usize,
}

/// A degradation-accuracy profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Corpus name the profile belongs to.
    pub corpus: String,
    /// Model name.
    pub model: String,
    /// Queried class.
    pub class: ObjectClass,
    /// Aggregate function.
    pub aggregate: Aggregate,
    /// Confidence parameter `δ`.
    pub delta: f64,
    /// The profiled points.
    pub points: Vec<ProfilePoint>,
}

impl Profile {
    /// Number of profiled candidates.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All distinct resolutions present (None = native), ascending.
    pub fn resolutions(&self) -> Vec<Option<Resolution>> {
        let mut rs: Vec<Option<Resolution>> =
            self.points.iter().map(|p| p.set.resolution).collect();
        rs.sort();
        rs.dedup();
        rs
    }

    /// All distinct restricted-class combinations present.
    pub fn class_combos(&self) -> Vec<Vec<ObjectClass>> {
        let mut cs: Vec<Vec<ObjectClass>> = self
            .points
            .iter()
            .map(|p| {
                let mut c = p.set.restricted.clone();
                c.sort_by_key(|x| x.name());
                c
            })
            .collect();
        cs.sort_by_key(|c| c.iter().map(|x| x.name()).collect::<Vec<_>>().join(","));
        cs.dedup();
        cs
    }

    /// The tradeoff curve over sample fraction, fixing resolution and
    /// removal: `(f, err_b)` pairs, ascending in `f`.
    pub fn curve_over_fraction(
        &self,
        resolution: Option<Resolution>,
        restricted: &[ObjectClass],
    ) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.set.resolution == resolution && same_classes(&p.set.restricted, restricted))
            .map(|p| (p.set.sample_fraction, p.err_b))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fractions"));
        pts
    }

    /// The tradeoff curve over resolution side length, fixing fraction and
    /// removal: `(side, err_b)` pairs, ascending in side.
    pub fn curve_over_resolution(
        &self,
        fraction: f64,
        restricted: &[ObjectClass],
    ) -> Vec<(u32, f64)> {
        let mut pts: Vec<(u32, f64)> = self
            .points
            .iter()
            .filter(|p| {
                (p.set.sample_fraction - fraction).abs() < 1e-9
                    && same_classes(&p.set.restricted, restricted)
            })
            .filter_map(|p| p.set.resolution.map(|r| (r.width, p.err_b)))
            .collect();
        pts.sort_by_key(|&(w, _)| w);
        pts
    }

    /// The error bound for removal combinations, fixing fraction and
    /// resolution: `(combo, err_b)` pairs.
    pub fn curve_over_removal(
        &self,
        fraction: f64,
        resolution: Option<Resolution>,
    ) -> Vec<(Vec<ObjectClass>, f64)> {
        self.points
            .iter()
            .filter(|p| {
                (p.set.sample_fraction - fraction).abs() < 1e-9 && p.set.resolution == resolution
            })
            .map(|p| (p.set.restricted.clone(), p.err_b))
            .collect()
    }

    /// Linear interpolation of the bound at an un-profiled fraction along
    /// a fixed (resolution, removal) curve — §2.3: "missing values should
    /// simply be interpolated by the administrator".
    pub fn interpolate_fraction(
        &self,
        fraction: f64,
        resolution: Option<Resolution>,
        restricted: &[ObjectClass],
    ) -> Option<f64> {
        let curve = self.curve_over_fraction(resolution, restricted);
        if curve.is_empty() {
            return None;
        }
        if fraction <= curve[0].0 {
            return Some(curve[0].1);
        }
        if fraction >= curve[curve.len() - 1].0 {
            return Some(curve[curve.len() - 1].1);
        }
        for w in curve.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if (x0..=x1).contains(&fraction) {
                let t = (fraction - x0) / (x1 - x0);
                return Some(y0 + t * (y1 - y0));
            }
        }
        None
    }

    /// The initial administrator view (§3.1): three 2-D slices, each
    /// varying one knob with the others fixed at their **loosest**
    /// profiled values (largest fraction, largest resolution, no removal).
    pub fn loosest_slices(&self) -> LoosestSlices {
        let loosest_fraction = self
            .points
            .iter()
            .map(|p| p.set.sample_fraction)
            .fold(0.0, f64::max);
        let loosest_resolution = self
            .resolutions()
            .into_iter()
            .max_by_key(|r| r.map_or(u64::MAX, |r| r.pixels()));
        // The least restrictive removal combo actually profiled (profiles
        // generated under compliance constraints may not contain the empty
        // combo at all).
        let loosest_combo = self
            .class_combos()
            .into_iter()
            .min_by_key(|c| c.len())
            .unwrap_or_default();

        LoosestSlices {
            over_fraction: self
                .curve_over_fraction(loosest_resolution.unwrap_or(None), &loosest_combo),
            over_resolution: self.curve_over_resolution(loosest_fraction, &loosest_combo),
            over_removal: self
                .curve_over_removal(loosest_fraction, loosest_resolution.unwrap_or(None)),
        }
    }

    /// Serializes the profile to JSON (the artifact an administrator
    /// stores/ships). Encoding is deterministic: equal profiles produce
    /// byte-identical documents.
    pub fn to_json(&self) -> Result<String> {
        Ok(ToJson::to_json(self).encode_pretty())
    }

    /// Deserializes a profile from JSON.
    pub fn from_json(s: &str) -> Result<Profile> {
        let value = Json::parse(s).map_err(|e| CoreError::Serialization(e.to_string()))?;
        FromJson::from_json(&value).map_err(|e| CoreError::Serialization(e.to_string()))
    }
}

smokescreen_rt::json_codec! {
    ProfilePoint { set, y_approx, err_b, corrected, n }
    check ProfilePoint::check_stored
}

impl ProfilePoint {
    /// Defense in depth for corrupted artifacts (this codec also runs
    /// under journal replay): a point carrying a non-finite answer or a
    /// nonsensical bound was damaged in storage, not produced by the
    /// generator — reject it rather than let it poison downstream
    /// tradeoff selection.
    fn check_stored(&self) -> smokescreen_rt::json::Result<()> {
        if !self.y_approx.is_finite() {
            return Err(JsonError::new("profile point y_approx is not finite"));
        }
        let err_b = self.err_b;
        if !err_b.is_finite() || err_b < 0.0 {
            return Err(JsonError::new(format!(
                "profile point err_b {err_b} is not a valid bound"
            )));
        }
        Ok(())
    }
}

smokescreen_rt::json_codec! {
    Profile { corpus, model, class, aggregate, delta, points }
    check Profile::check_stored
}

impl Profile {
    /// δ is a confidence parameter: (0, 1) exclusive. Anything else in a
    /// stored profile is corruption.
    fn check_stored(&self) -> smokescreen_rt::json::Result<()> {
        let delta = self.delta;
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(JsonError::new(format!(
                "profile delta {delta} is not a confidence parameter in (0, 1)"
            )));
        }
        Ok(())
    }
}

/// The three initial 2-D plots shown to the administrator.
#[derive(Debug, Clone, PartialEq)]
pub struct LoosestSlices {
    /// Bound vs. sample fraction (resolution native-est, no removal).
    pub over_fraction: Vec<(f64, f64)>,
    /// Bound vs. resolution side (fraction loosest, no removal).
    pub over_resolution: Vec<(u32, f64)>,
    /// Bound vs. removal combination (other knobs loosest).
    pub over_removal: Vec<(Vec<ObjectClass>, f64)>,
}

fn same_classes(a: &[ObjectClass], b: &[ObjectClass]) -> bool {
    a.len() == b.len() && a.iter().all(|c| b.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(f: f64, res: Option<u32>, restricted: Vec<ObjectClass>, err: f64) -> ProfilePoint {
        let mut set = InterventionSet::sampling(f);
        set.resolution = res.map(Resolution::square);
        set.restricted = restricted;
        ProfilePoint {
            set,
            y_approx: 1.0,
            err_b: err,
            corrected: false,
            n: 100,
        }
    }

    fn profile(points: Vec<ProfilePoint>) -> Profile {
        Profile {
            corpus: "test".into(),
            model: "oracle".into(),
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
            points,
        }
    }

    #[test]
    fn fraction_curve_sorted_and_filtered() {
        let p = profile(vec![
            point(0.5, Some(608), vec![], 0.1),
            point(0.1, Some(608), vec![], 0.4),
            point(0.1, Some(128), vec![], 0.9),
            point(0.3, Some(608), vec![ObjectClass::Person], 0.2),
        ]);
        let c = p.curve_over_fraction(Some(Resolution::square(608)), &[]);
        assert_eq!(c, vec![(0.1, 0.4), (0.5, 0.1)]);
    }

    #[test]
    fn resolution_curve() {
        let p = profile(vec![
            point(0.5, Some(608), vec![], 0.1),
            point(0.5, Some(128), vec![], 0.6),
            point(0.5, Some(320), vec![], 0.3),
        ]);
        let c = p.curve_over_resolution(0.5, &[]);
        assert_eq!(c, vec![(128, 0.6), (320, 0.3), (608, 0.1)]);
    }

    #[test]
    fn interpolation_midpoint_and_clamping() {
        let p = profile(vec![
            point(0.1, None, vec![], 0.4),
            point(0.3, None, vec![], 0.2),
        ]);
        let mid = p.interpolate_fraction(0.2, None, &[]).unwrap();
        assert!((mid - 0.3).abs() < 1e-12);
        assert_eq!(p.interpolate_fraction(0.05, None, &[]), Some(0.4));
        assert_eq!(p.interpolate_fraction(0.9, None, &[]), Some(0.2));
        assert_eq!(p.interpolate_fraction(0.2, Some(Resolution::square(64)), &[]), None);
    }

    #[test]
    fn loosest_slices_pick_loosest_axes() {
        let p = profile(vec![
            point(0.5, Some(608), vec![], 0.1),
            point(0.1, Some(608), vec![], 0.4),
            point(0.5, Some(128), vec![], 0.7),
            point(0.5, Some(608), vec![ObjectClass::Person], 0.25),
        ]);
        let s = p.loosest_slices();
        assert_eq!(s.over_fraction.len(), 2); // f = 0.1, 0.5 at 608/no-removal
        assert_eq!(s.over_resolution.len(), 2); // 128 and 608 at f=0.5
        assert_eq!(s.over_removal.len(), 2); // {} and {person}
    }

    #[test]
    fn json_round_trip() {
        let p = profile(vec![point(0.5, Some(608), vec![ObjectClass::Face], 0.12)]);
        let json = p.to_json().unwrap();
        let back = Profile::from_json(&json).unwrap();
        assert_eq!(p, back);
        assert!(Profile::from_json("not json").is_err());
    }
}
