//! The `Detector` trait, detection output types, and the typed failure
//! taxonomy for model calls.

use std::fmt;

use smokescreen_video::{BBox, Frame, ObjectClass, Resolution};

/// Typed failure taxonomy for model invocations.
///
/// Production detectors misbehave in distinguishable ways, and the layers
/// above react differently to each: transient failures are retried,
/// timeouts trip circuit breakers, unknown models are configuration
/// errors. Simulated faults come from a seeded
/// [`FaultPlan`](smokescreen_rt::fault::FaultPlan), so every error below
/// is replayable bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The call hung past its deadline on every attempt — retries cannot
    /// clear it.
    Timeout {
        /// Model name.
        model: String,
        /// Frame the call was processing.
        frame_id: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The call kept failing transiently and the retry budget ran out.
    TransientExhausted {
        /// Model name.
        model: String,
        /// Frame the call was processing.
        frame_id: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// No detector is registered under this name.
    UnknownModel(String),
}

impl ModelError {
    /// Whether retrying the identical call could ever succeed (used by
    /// callers deciding between retry and circuit-break).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ModelError::TransientExhausted { .. })
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Timeout {
                model,
                frame_id,
                attempts,
            } => write!(
                f,
                "model {model} timed out on frame {frame_id} after {attempts} attempt(s)"
            ),
            ModelError::TransientExhausted {
                model,
                frame_id,
                attempts,
            } => write!(
                f,
                "model {model} failed transiently on frame {frame_id}; retry budget of \
                 {attempts} attempt(s) exhausted"
            ),
            ModelError::UnknownModel(name) => write!(f, "no detector registered as {name:?}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Result alias for fallible model calls.
pub type ModelResult<T> = std::result::Result<T, ModelError>;

/// One detected object.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Predicted class.
    pub class: ObjectClass,
    /// Confidence score in `[0, 1]` (already past the model threshold).
    pub score: f32,
    /// Predicted box (normalized coordinates).
    pub bbox: BBox,
    /// Ground-truth object id when the detection is a true positive;
    /// `None` for false positives. Exposed for evaluation only — query
    /// processing never looks at it.
    pub truth_id: Option<u64>,
}

/// All detections a model emitted for one frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Detections {
    /// Individual detections.
    pub items: Vec<Detection>,
}

impl Detections {
    /// Number of detections of the given class — the per-frame model
    /// output `X_i` of the paper's count queries.
    pub fn count(&self, class: ObjectClass) -> usize {
        self.items.iter().filter(|d| d.class == class).count()
    }

    /// Whether any detection of the class is present.
    pub fn contains(&self, class: ObjectClass) -> bool {
        self.items.iter().any(|d| d.class == class)
    }

    /// Whether any of the given classes is present.
    pub fn contains_any(&self, classes: &[ObjectClass]) -> bool {
        classes.iter().any(|&c| self.contains(c))
    }
}

/// A frame-level vision model (the query UDF).
///
/// Implementations must be deterministic in `(frame, resolution)`: the
/// paper's reuse strategy (§3.3.2) caches outputs per frame/resolution and
/// replays them across sample fractions, which is only sound if the model
/// itself is a function.
pub trait Detector: Send + Sync {
    /// Model name (e.g. `"sim-yolov4"`).
    fn name(&self) -> &str;

    /// The largest (native) input resolution — the paper's "highest
    /// resolution" of the original video for this model.
    fn native_resolution(&self) -> Resolution;

    /// Whether the model architecture accepts this input resolution
    /// (e.g. Mask R-CNN requires multiples of 64, Darknet-YOLO multiples
    /// of 32).
    fn supports(&self, res: Resolution) -> bool;

    /// Runs the model on a frame rendered at `res`. Models are pure
    /// functions and never fail; fault injection happens at the
    /// invocation layer ([`detect_with_retry`](crate::oracle::detect_with_retry)
    /// / [`OutputCache`](crate::cache::OutputCache)), which surfaces the
    /// [`ModelError`] taxonomy to callers.
    fn detect(&self, frame: &Frame, res: Resolution) -> Detections;

    /// Convenience: count of a class at a resolution (the aggregate
    /// queries' per-frame output).
    fn count(&self, frame: &Frame, res: Resolution, class: ObjectClass) -> f64 {
        self.detect(frame, res).count(class) as f64
    }

    /// Simulated single-frame inference latency in milliseconds (loading +
    /// transform + inference), used by the §5.3.1 profile-generation time
    /// model. Scales with input pixels.
    fn inference_cost_ms(&self, res: Resolution) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(class: ObjectClass) -> Detection {
        Detection {
            class,
            score: 0.9,
            bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
            truth_id: None,
        }
    }

    #[test]
    fn detections_counting() {
        let d = Detections {
            items: vec![det(ObjectClass::Car), det(ObjectClass::Car), det(ObjectClass::Person)],
        };
        assert_eq!(d.count(ObjectClass::Car), 2);
        assert!(d.contains(ObjectClass::Person));
        assert!(!d.contains(ObjectClass::Face));
        assert!(d.contains_any(&[ObjectClass::Face, ObjectClass::Car]));
        assert!(!Detections::default().contains_any(&[ObjectClass::Car]));
    }

    #[test]
    fn model_error_taxonomy_classifies_retryability() {
        let timeout = ModelError::Timeout {
            model: "sim-yolov4".into(),
            frame_id: 9,
            attempts: 3,
        };
        let transient = ModelError::TransientExhausted {
            model: "sim-yolov4".into(),
            frame_id: 9,
            attempts: 3,
        };
        assert!(!timeout.is_retryable());
        assert!(transient.is_retryable());
        assert!(!ModelError::UnknownModel("resnet".into()).is_retryable());
        assert!(timeout.to_string().contains("timed out"));
        assert!(transient.to_string().contains("retry budget"));
    }
}
