//! Detector simulators — the `F_model` UDFs of the paper.
//!
//! Real GPU detectors are unavailable here, so this crate provides analytic
//! simulators whose behaviour matches the failure modes the paper's
//! algorithms are built around:
//!
//! * **Resolution response** ([`response`]): per-object detection
//!   probability is logistic in the log of the object's *effective* pixel
//!   area (geometry × contrast × occlusion). Shrinking the frame
//!   systematically drops small/low-contrast objects — a biased, non-random
//!   degradation of the output distribution.
//! * **Determinism**: a frame processed twice at the same resolution yields
//!   the identical output, exactly like a real network. Detection decisions
//!   are pure functions of `(model seed, frame id, object id, resolution)`.
//! * **Model quirks**: [`yolo::SimYoloV4`] reproduces the paper's Figure 7/8
//!   anomaly — a mid-resolution band (384×384) where duplicate detections
//!   spike on low-contrast scenes, making error *non-monotone* in
//!   resolution.
//! * A ground-truth [`oracle::Oracle`] and a pixel-level
//!   [`blob::BlobDetector`] (operating on actual rendered frames) bracket
//!   the simulators from above and below.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod backbone;

pub mod blob;
pub mod cache;
pub mod detector;
pub mod hash;
pub mod mask_rcnn;
pub mod mtcnn;
pub mod oracle;
pub mod response;
pub mod temporal;
pub mod yolo;
pub mod zoo;

pub use cache::{Invocations, OutputCache};
pub use detector::{Detection, Detections, Detector, ModelError, ModelResult};
pub use oracle::{call_key, detect_with_retry, CallVerdict, RetryOutcome, RetryPolicy};
pub use mask_rcnn::SimMaskRcnn;
pub use mtcnn::SimMtcnn;
pub use oracle::Oracle;
pub use yolo::SimYoloV4;
