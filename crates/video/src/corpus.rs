//! Video corpora: the "original video" `D` of the paper.

use crate::frame::Frame;
use crate::object::{ObjectClass, Resolution};

/// An in-memory video corpus.
///
/// Frames carry ground-truth object annotations; the *pixels* are implied
/// (and can be materialized on demand by [`crate::raster`]). This matches
/// the paper's setting where decoded frames sit on disk and are loaded one
/// at a time — here loading is free, and the cost model lives in the
/// camera/bench crates.
#[derive(Debug, Clone)]
pub struct VideoCorpus {
    /// Human-readable corpus name (e.g. `"night-street"`).
    pub name: String,
    /// Frames per second of the (possibly subsampled) corpus.
    pub fps: f64,
    /// Native capture resolution — the paper's "highest resolution"
    /// (640×640 for Mask R-CNN runs, 608×608 for YOLOv4 runs).
    pub native_resolution: Resolution,
    frames: Vec<Frame>,
}

impl VideoCorpus {
    /// Builds a corpus from frames. Frame ids are rewritten to be
    /// contiguous 0-based indices.
    pub fn new(
        name: impl Into<String>,
        fps: f64,
        native_resolution: Resolution,
        mut frames: Vec<Frame>,
    ) -> Self {
        for (i, f) in frames.iter_mut().enumerate() {
            f.id = i as u64;
        }
        VideoCorpus {
            name: name.into(),
            fps,
            native_resolution,
            frames,
        }
    }

    /// The resolution frames are processed at under a requested
    /// resolution knob: the request, or native when there is none.
    pub fn processing_resolution(&self, requested: Option<Resolution>) -> Resolution {
        requested.unwrap_or(self.native_resolution)
    }

    /// Number of frames `N`.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// All frames in order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// A single frame by index.
    pub fn frame(&self, idx: usize) -> Option<&Frame> {
        self.frames.get(idx)
    }

    /// Restrict the corpus to a contiguous sub-range (used to carve
    /// sequence-level sub-videos like the paper's MVI_40771 / MVI_40775).
    pub fn slice(&self, start: usize, end: usize) -> VideoCorpus {
        let end = end.min(self.frames.len());
        let start = start.min(end);
        VideoCorpus::new(
            format!("{}[{start}..{end}]", self.name),
            self.fps,
            self.native_resolution,
            self.frames[start..end].to_vec(),
        )
    }

    /// Restrict to one synthetic sequence.
    pub fn sequence(&self, seq: u32) -> VideoCorpus {
        VideoCorpus::new(
            format!("{}#{seq}", self.name),
            self.fps,
            self.native_resolution,
            self.frames
                .iter()
                .filter(|f| f.sequence == seq)
                .cloned()
                .collect(),
        )
    }

    /// Summary statistics used for calibration and reporting.
    pub fn stats(&self) -> CorpusStats {
        let n = self.frames.len().max(1) as f64;
        let mut total_cars = 0usize;
        let mut person_frames = 0usize;
        let mut face_frames = 0usize;
        let mut max_cars = 0usize;
        for f in &self.frames {
            let c = f.count_class(ObjectClass::Car);
            total_cars += c;
            max_cars = max_cars.max(c);
            if f.contains_class(ObjectClass::Person) {
                person_frames += 1;
            }
            if f.contains_class(ObjectClass::Face) {
                face_frames += 1;
            }
        }
        CorpusStats {
            frames: self.frames.len(),
            mean_cars_per_frame: total_cars as f64 / n,
            max_cars_per_frame: max_cars,
            person_frame_fraction: person_frames as f64 / n,
            face_frame_fraction: face_frames as f64 / n,
        }
    }

    /// Per-frame ground-truth counts of a class — the `X_1 … X_N` of the
    /// paper when the model is the oracle. Experiment harnesses use this;
    /// production flows go through a detector.
    pub fn ground_truth_counts(&self, class: ObjectClass) -> Vec<f64> {
        self.frames
            .iter()
            .map(|f| f.count_class(class) as f64)
            .collect()
    }
}

/// Calibration summary of a corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusStats {
    /// Frame count `N`.
    pub frames: usize,
    /// Mean cars per frame (the paper's AVG ground truth).
    pub mean_cars_per_frame: f64,
    /// Maximum cars observed in one frame.
    pub max_cars_per_frame: usize,
    /// Fraction of frames containing at least one person.
    pub person_frame_fraction: f64,
    /// Fraction of frames containing at least one face.
    pub face_frame_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{BBox, Object};

    fn frame(seq: u32, cars: usize, with_person: bool) -> Frame {
        let mut objects = Vec::new();
        for i in 0..cars {
            objects.push(Object {
                id: i as u64,
                class: ObjectClass::Car,
                bbox: BBox::new(0.1, 0.1, 0.1, 0.1),
                contrast: 0.5,
                occlusion: 0.0,
            });
        }
        if with_person {
            objects.push(Object {
                id: 99,
                class: ObjectClass::Person,
                bbox: BBox::new(0.5, 0.5, 0.05, 0.15),
                contrast: 0.5,
                occlusion: 0.0,
            });
        }
        Frame {
            id: 0,
            ts_secs: 0.0,
            sequence: seq,
            objects,
        }
    }

    #[test]
    fn ids_are_rewritten_contiguously() {
        let c = VideoCorpus::new(
            "t",
            30.0,
            Resolution::square(608),
            vec![frame(0, 1, false), frame(0, 2, true)],
        );
        assert_eq!(c.frame(0).unwrap().id, 0);
        assert_eq!(c.frame(1).unwrap().id, 1);
    }

    #[test]
    fn stats_are_correct() {
        let c = VideoCorpus::new(
            "t",
            30.0,
            Resolution::square(608),
            vec![frame(0, 2, true), frame(0, 0, false), frame(0, 4, true), frame(0, 2, false)],
        );
        let s = c.stats();
        assert_eq!(s.frames, 4);
        assert!((s.mean_cars_per_frame - 2.0).abs() < 1e-12);
        assert_eq!(s.max_cars_per_frame, 4);
        assert!((s.person_frame_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.face_frame_fraction, 0.0);
    }

    #[test]
    fn slicing_and_sequences() {
        let c = VideoCorpus::new(
            "t",
            25.0,
            Resolution::square(608),
            vec![frame(0, 1, false), frame(1, 2, false), frame(1, 3, false)],
        );
        assert_eq!(c.slice(1, 3).len(), 2);
        assert_eq!(c.slice(5, 9).len(), 0);
        let seq1 = c.sequence(1);
        assert_eq!(seq1.len(), 2);
        assert_eq!(seq1.frame(0).unwrap().id, 0); // ids rewritten
    }

    #[test]
    fn ground_truth_counts_match_frames() {
        let c = VideoCorpus::new(
            "t",
            25.0,
            Resolution::square(608),
            vec![frame(0, 3, false), frame(0, 1, true)],
        );
        assert_eq!(c.ground_truth_counts(ObjectClass::Car), vec![3.0, 1.0]);
        assert_eq!(c.ground_truth_counts(ObjectClass::Person), vec![0.0, 1.0]);
    }
}
