//! Video substrate: frame/object model, synthetic corpora, raster pipeline.
//!
//! The paper evaluates on two real datasets (BlazeIt's night-street video
//! and UA-DETRAC). Neither is available here, so this crate provides
//! calibrated **synthetic scene generators** that reproduce the statistics
//! the paper's algorithms are sensitive to:
//!
//! * per-frame object-count distributions (sparse/bursty vs. dense),
//! * temporal autocorrelation (cars persist across frames),
//! * restricted-class prevalence (% of frames containing `person`/`face`),
//! * **correlation between restricted classes and the queried class** —
//!   the property that makes image removal a *biased*, non-random
//!   intervention (§5.2.2).
//!
//! A lightweight raster pipeline ([`raster`]) can additionally render
//! frames to actual pixel buffers so resolution reduction can be exercised
//! on real pixels (used by the blob-detector example and tests).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod corpus;
pub mod frame;
pub mod object;
pub mod perturb;
pub mod raster;
pub mod synth;

pub use corpus::{CorpusStats, VideoCorpus};
pub use frame::Frame;
pub use object::{BBox, Object, ObjectClass, Resolution};
pub use perturb::{Perturb, PerturbKind, PerturbPlan, Perturbation};
