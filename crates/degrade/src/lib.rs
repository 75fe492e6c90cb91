//! Destructive interventions (§2.1) and degraded views of a corpus.
//!
//! An [`InterventionSet`] is the paper's `(f, p, c)` triple — reduced frame
//! sampling, reduced frame resolution, and restricted-class image removal —
//! extended with the two "other degradation methods" §2.1 mentions (noise
//! addition and compression). Interventions are classified **random**
//! (model-output distribution unchanged — frame sampling) or **non-random**
//! (distribution may change — everything else), the split that decides
//! whether profile repair is required (Table 1).
//!
//! A [`DegradedView`] applies a set to a corpus without mutating it: it
//! resolves which frames survive image removal, samples the survivors
//! without replacement (with nested prefixes so outputs are reusable across
//! fractions), and adjusts object contrast for noise/compression before
//! frames reach a detector.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod grid;
pub mod intervention;
pub mod pipeline;
pub mod removal;
pub mod schedule;

pub use grid::CandidateGrid;
pub use intervention::{InterventionKind, InterventionSet};
pub use pipeline::{DegradedView, RangeOutputs, SampleOrder};
pub use removal::RestrictionIndex;
pub use schedule::{Schedule, Window};
