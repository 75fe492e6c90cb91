//! Smokescreen — video degradation-accuracy profiling (the paper's
//! primary contribution).
//!
//! Given a video corpus `D`, a vision model `F_model`, and an aggregate
//! function `F_A`, Smokescreen produces a **profile**: for every candidate
//! set of destructive interventions `(f, p, c)` it estimates the query
//! answer and a `1 − δ` upper bound on the relative analytical error —
//! computed *from the degraded video alone*. Administrators read the
//! profile as tradeoff curves and pick the most aggressive degradation
//! whose bound still meets their accuracy requirement.
//!
//! Module map (paper section in parentheses):
//!
//! * [`estimate`] — `result_error_est`, the unified answer/bound estimator
//!   (Algorithm 3 line 1; §3.2.1–3.2.4).
//! * [`correction`] — correction-set construction with the 1%-step /
//!   2%-stall elbow heuristic (§3.3.1).
//! * [`repair`] — bound repair for non-random interventions (§3.2.5).
//! * [`profile`] — profiles, the degradation hypercube, slices (§3.1).
//! * [`generation`] — profile generation with early stopping and model
//!   output reuse (§3.3.2).
//! * [`tradeoff`] — public preferences and tradeoff choice (§2.3).
//! * [`admin`] — the administration procedure (§3.1).
//! * [`similarity`] — profile similarity for the similar-video fallback
//!   (§5.3.2).
//! * [`system`] — the end-to-end facade tying the pieces together.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod admin;
pub mod correction;
pub mod error;
pub mod estimate;
pub mod generation;
pub mod profile;
pub mod repair;
pub mod similarity;
pub mod streaming;
pub mod system;
pub mod tradeoff;

pub use correction::{build_correction_set, CorrectionConfig, CorrectionSet};
pub use error::CoreError;
pub use estimate::{
    estimate_from_outputs, result_error_est, true_relative_error, Aggregate, AggregateKernel,
    Estimate, Workload,
};
pub use generation::{GenerationReport, GeneratorConfig, ProfileGenerator};
pub use profile::{Profile, ProfilePoint};
pub use repair::corrected_bound;
pub use similarity::{
    drift_score, DriftBaseline, DriftReport, DriftScorer, DEFAULT_DRIFT_THRESHOLD,
    DEFAULT_DRIFT_WINDOW,
};
pub use streaming::{StreamingEstimator, StreamingStatus};
pub use system::Smokescreen;
pub use tradeoff::{choose_tradeoff, DegradationObjective, Preferences};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
