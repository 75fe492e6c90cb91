//! The end-to-end Smokescreen facade.
//!
//! Owns the corpus, detectors, restriction prior, and configuration, and
//! exposes the workflow of the paper's Example 3: generate profiles →
//! inspect curves → choose a tradeoff → estimate the query under the
//! chosen degradation.

use smokescreen_degrade::{CandidateGrid, InterventionSet, RestrictionIndex};
use smokescreen_models::Detector;
use smokescreen_video::{ObjectClass, VideoCorpus};

use crate::admin::AdminSession;
use crate::correction::{build_correction_set, CorrectionConfig, CorrectionSet};
use crate::estimate::{result_error_est, Aggregate, Estimate, Workload};
use crate::generation::{GenerationReport, GeneratorConfig, ProfileGenerator};
use crate::profile::Profile;
use crate::tradeoff::{choose_tradeoff, Preferences};
use crate::Result;

/// The Smokescreen system for one corpus + model + query.
pub struct Smokescreen<'a> {
    corpus: &'a VideoCorpus,
    detector: &'a dyn Detector,
    class: ObjectClass,
    aggregate: Aggregate,
    delta: f64,
    restrictions: RestrictionIndex,
    config: GeneratorConfig,
}

impl<'a> Smokescreen<'a> {
    /// Builds the system. The restriction prior (persons and faces) is
    /// computed from ground truth.
    pub fn new(
        corpus: &'a VideoCorpus,
        detector: &'a dyn Detector,
        class: ObjectClass,
        aggregate: Aggregate,
        delta: f64,
    ) -> Self {
        let restrictions = RestrictionIndex::from_ground_truth(
            corpus,
            &[ObjectClass::Person, ObjectClass::Face],
        );
        Smokescreen {
            corpus,
            detector,
            class,
            aggregate,
            delta,
            restrictions,
            config: GeneratorConfig::default(),
        }
    }

    /// Replaces the generator configuration.
    pub fn with_config(mut self, config: GeneratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the profile-generation worker count (`0` = automatic via
    /// `SMOKESCREEN_THREADS` or available parallelism). Any value yields a
    /// byte-identical profile; only wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// The workload view of this system.
    pub fn workload(&self) -> Workload<'_> {
        Workload {
            corpus: self.corpus,
            detector: self.detector,
            class: self.class,
            aggregate: self.aggregate,
            delta: self.delta,
        }
    }

    /// The restriction prior in force.
    pub fn restrictions(&self) -> &RestrictionIndex {
        &self.restrictions
    }

    /// Constructs a correction set with the §3.3.1 elbow heuristic.
    pub fn build_correction_set(&self, config: &CorrectionConfig, seed: u64) -> Result<CorrectionSet> {
        let w = self.workload();
        build_correction_set(&w, &self.restrictions, config, seed, None)
    }

    /// Generates the profile over a candidate grid (profile generation
    /// stage). Supplying a correction set repairs non-random candidates.
    pub fn generate_profile(
        &self,
        grid: &CandidateGrid,
        correction: Option<&CorrectionSet>,
    ) -> Result<(Profile, GenerationReport)> {
        let w = self.workload();
        ProfileGenerator::new(&w, &self.restrictions, self.config.clone())
            .generate(grid, correction)
    }

    /// Opens an administration session on a generated profile.
    pub fn admin_session(&self, profile: Profile) -> AdminSession {
        AdminSession::new(profile, self.corpus.native_resolution)
    }

    /// Chooses the most degraded feasible candidate of a profile.
    pub fn choose(
        &self,
        profile: &Profile,
        preferences: &Preferences,
    ) -> Result<InterventionSet> {
        Ok(choose_tradeoff(profile, preferences, self.corpus.native_resolution)?
            .set
            .clone())
    }

    /// Runs the query under the chosen degradation (the final step of
    /// Example 3) and returns the estimate.
    pub fn estimate(&self, set: &InterventionSet, seed: u64) -> Result<Estimate> {
        let w = self.workload();
        result_error_est(&w, &self.restrictions, set, seed, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_models::SimYoloV4;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::Resolution;

    #[test]
    fn end_to_end_profile_choose_estimate() {
        let corpus = DatasetPreset::Detrac.generate(50).slice(0, 3_000);
        let yolo = SimYoloV4::new(5);
        let system = Smokescreen::new(&corpus, &yolo, ObjectClass::Car, Aggregate::Avg, 0.05);

        let grid = CandidateGrid::explicit(
            vec![0.02, 0.05, 0.1, 0.3],
            vec![Resolution::square(320), Resolution::square(608)],
            vec![vec![]],
        );
        let cs = system
            .build_correction_set(&CorrectionConfig::default(), 1)
            .unwrap();
        let (profile, report) = system.generate_profile(&grid, Some(&cs)).unwrap();
        assert!(!profile.is_empty());
        assert!(report.model_runs > 0);

        let prefs = Preferences::accuracy(0.5);
        let set = system.choose(&profile, &prefs).unwrap();
        let est = system.estimate(&set, 99).unwrap();
        assert!(est.err_b().is_finite());

        // The chosen set must genuinely satisfy the preference per the
        // profile's bound.
        let point = profile
            .points
            .iter()
            .find(|p| p.set == set)
            .expect("chosen set is a profiled candidate");
        assert!(point.err_b <= 0.5);
    }

    #[test]
    fn admin_session_round_trip() {
        let corpus = DatasetPreset::NightStreet.generate(51).slice(0, 2_000);
        let yolo = SimYoloV4::new(6);
        let system = Smokescreen::new(&corpus, &yolo, ObjectClass::Car, Aggregate::Avg, 0.05);
        let grid = CandidateGrid::explicit(
            vec![0.05, 0.2],
            vec![Resolution::square(608)],
            vec![vec![]],
        );
        let (profile, _) = system.generate_profile(&grid, None).unwrap();
        let mut session = system.admin_session(profile);
        let view = session.initial_view();
        assert!(!view.over_fraction.is_empty());
    }
}
