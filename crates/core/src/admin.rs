//! The administration procedure (§3.1).
//!
//! A thin interactive layer over a generated profile: the administrator is
//! first shown the three loosest 2-D slices, then fixes dimensions to pull
//! further slices, and finally nominates a tradeoff which the session
//! validates against the preferences.

use smokescreen_degrade::InterventionSet;
use smokescreen_video::{ObjectClass, Resolution};

use crate::profile::{LoosestSlices, Profile};
use crate::tradeoff::{choose_tradeoff, Preferences};
use crate::{CoreError, Result};

/// An administrator's working session over one profile.
#[derive(Debug, Clone)]
pub struct AdminSession {
    profile: Profile,
    native: Resolution,
    /// Slice requests made so far (audit trail).
    pub views_requested: Vec<String>,
}

impl AdminSession {
    /// Opens a session on a generated profile.
    pub fn new(profile: Profile, native: Resolution) -> Self {
        AdminSession {
            profile,
            native,
            views_requested: Vec::new(),
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The initial three plots (§3.1: unseen dimensions fixed at their
    /// loosest values).
    pub fn initial_view(&mut self) -> LoosestSlices {
        self.views_requested.push("initial".to_string());
        self.profile.loosest_slices()
    }

    /// A refined fraction-curve with the other knobs fixed where the
    /// administrator pointed.
    pub fn fraction_slice(
        &mut self,
        resolution: Option<Resolution>,
        restricted: &[ObjectClass],
    ) -> Vec<(f64, f64)> {
        self.views_requested.push(format!(
            "fraction-slice p={resolution:?} c={restricted:?}"
        ));
        self.profile.curve_over_fraction(resolution, restricted)
    }

    /// Mechanically selects the most degraded feasible candidate.
    pub fn recommend(&self, preferences: &Preferences) -> Result<InterventionSet> {
        Ok(choose_tradeoff(&self.profile, preferences, self.native)?
            .set
            .clone())
    }

    /// Validates an administrator-nominated set against the profile: it
    /// must be a profiled candidate (or interpolable) whose bound meets
    /// the error requirement.
    pub fn validate_choice(
        &self,
        set: &InterventionSet,
        preferences: &Preferences,
    ) -> Result<f64> {
        let bound = self
            .profile
            .points
            .iter()
            .find(|p| {
                p.set.resolution == set.resolution
                    && (p.set.sample_fraction - set.sample_fraction).abs() < 1e-9
                    && p.set.restricted == set.restricted
            })
            .map(|p| p.err_b)
            .or_else(|| {
                self.profile
                    .interpolate_fraction(set.sample_fraction, set.resolution, &set.restricted)
            })
            .ok_or(CoreError::NoFeasibleTradeoff)?;
        if bound <= preferences.max_error {
            Ok(bound)
        } else {
            Err(CoreError::NoFeasibleTradeoff)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Aggregate;
    use crate::profile::ProfilePoint;

    fn session() -> AdminSession {
        let mk = |f: f64, side: u32, err: f64| ProfilePoint {
            set: InterventionSet::sampling(f).with_resolution(Resolution::square(side)),
            y_approx: 1.0,
            err_b: err,
            corrected: false,
            n: 100,
        };
        let profile = Profile {
            corpus: "t".into(),
            model: "m".into(),
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
            points: vec![
                mk(0.1, 608, 0.20),
                mk(0.5, 608, 0.05),
                mk(0.1, 128, 0.40),
                mk(0.5, 128, 0.12),
            ],
        };
        AdminSession::new(profile, Resolution::square(608))
    }

    #[test]
    fn initial_view_and_audit_trail() {
        let mut s = session();
        let view = s.initial_view();
        assert!(!view.over_fraction.is_empty());
        let _ = s.fraction_slice(Some(Resolution::square(128)), &[]);
        assert_eq!(s.views_requested.len(), 2);
    }

    #[test]
    fn recommend_respects_preferences() {
        let s = session();
        let set = s.recommend(&Preferences::accuracy(0.15)).unwrap();
        // 128×128 at f=0.5 (err 0.12) is feasible and more degraded than
        // 608 at 0.5.
        assert_eq!(set.resolution, Some(Resolution::square(128)));
    }

    #[test]
    fn validate_choice_exact_and_interpolated() {
        let s = session();
        let prefs = Preferences::accuracy(0.15);
        let exact = s
            .validate_choice(
                &InterventionSet::sampling(0.5).with_resolution(Resolution::square(128)),
                &prefs,
            )
            .unwrap();
        assert!((exact - 0.12).abs() < 1e-12);

        // f = 0.3 at 128 is interpolated between 0.40 and 0.12 → 0.26.
        let err = s.validate_choice(
            &InterventionSet::sampling(0.3).with_resolution(Resolution::square(128)),
            &Preferences::accuracy(0.30),
        );
        assert!((err.unwrap() - 0.26).abs() < 1e-9);

        // Same point fails a tighter requirement.
        assert!(s
            .validate_choice(
                &InterventionSet::sampling(0.3).with_resolution(Resolution::square(128)),
                &Preferences::accuracy(0.10),
            )
            .is_err());
    }
}
