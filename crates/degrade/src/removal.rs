//! Restriction index — which frames contain which sensitive classes.
//!
//! The paper detects `person` with YOLOv4 (threshold 0.7) and `face` with
//! MTCNN (threshold 0.8) at full resolution and stores the memberships as
//! prior information (§5.1). The image-removal intervention then deletes
//! every frame containing a restricted class.

use smokescreen_models::Detector;
use smokescreen_video::{ObjectClass, VideoCorpus};

// A frame's classes are one bit each in a `u8` mask.
const _: () = assert!(ObjectClass::ALL.len() <= 8);

/// The mask bit of one class.
fn bit(class: ObjectClass) -> u8 {
    1 << class.index()
}

/// The mask with the bit of every class in `classes` set.
fn class_bits(classes: &[ObjectClass]) -> u8 {
    classes.iter().fold(0, |bits, &c| bits | bit(c))
}

/// Per-frame sensitive-class membership.
#[derive(Debug, Clone)]
pub struct RestrictionIndex {
    /// `masks[frame]` has bit [`ObjectClass::index`] set when the frame
    /// contains that class. Bits of classes the index was not built for
    /// stay clear.
    masks: Vec<u8>,
}

impl RestrictionIndex {
    /// Builds the index from ground-truth annotations (exact membership).
    pub fn from_ground_truth(corpus: &VideoCorpus, classes: &[ObjectClass]) -> Self {
        let masks = corpus
            .frames()
            .iter()
            .map(|f| {
                let present = classes.iter().filter(|&&c| f.contains_class(c));
                present.fold(0, |bits, &c| bits | bit(c))
            })
            .collect();
        RestrictionIndex { masks }
    }

    /// Builds the index by running detectors at native resolution, as the
    /// paper's prototype does. Each `(class, detector)` pair scans the
    /// whole corpus once; a later pair for the same class replaces the
    /// earlier one's memberships.
    pub fn from_detectors(
        corpus: &VideoCorpus,
        scanners: &[(ObjectClass, &dyn Detector)],
    ) -> Self {
        let mut masks = vec![0u8; corpus.len()];
        for &(class, detector) in scanners {
            let res = corpus
                .native_resolution
                .min(detector.native_resolution());
            let class_bit = bit(class);
            for (mask, f) in masks.iter_mut().zip(corpus.frames()) {
                let hit = detector.detect(f, res).contains(class);
                *mask = (*mask & !class_bit) | if hit { class_bit } else { 0 };
            }
        }
        RestrictionIndex { masks }
    }

    /// Number of frames covered.
    pub fn frames(&self) -> usize {
        self.masks.len()
    }

    /// Whether a frame contains any of the restricted classes. Classes the
    /// index was not built for are treated as absent (callers should build
    /// the index over every class they may restrict).
    pub fn frame_restricted(&self, frame_idx: usize, restricted: &[ObjectClass]) -> bool {
        self.masks
            .get(frame_idx)
            .is_some_and(|&mask| mask & class_bits(restricted) != 0)
    }

    /// Indices of frames that survive removal of the given classes.
    pub fn surviving_indices(&self, restricted: &[ObjectClass]) -> Vec<usize> {
        let bits = class_bits(restricted);
        (0..self.masks.len())
            .filter(|&i| self.masks[i] & bits == 0)
            .collect()
    }

    /// Fraction of frames containing the class (the statistic §5.1
    /// reports, e.g. 65.86% `person` frames in UA-DETRAC).
    pub fn prevalence(&self, class: ObjectClass) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        let class_bit = bit(class);
        let frames = self
            .masks
            .iter()
            .filter(|&&mask| mask & class_bit != 0)
            .count();
        frames as f64 / self.masks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_models::{SimMtcnn, SimYoloV4};
    use smokescreen_video::synth::DatasetPreset;

    #[test]
    fn ground_truth_index_matches_corpus() {
        let corpus = DatasetPreset::NightStreet.generate(3);
        let idx = RestrictionIndex::from_ground_truth(
            &corpus,
            &[ObjectClass::Person, ObjectClass::Face],
        );
        assert_eq!(idx.frames(), corpus.len());
        let stats = corpus.stats();
        assert!((idx.prevalence(ObjectClass::Person) - stats.person_frame_fraction).abs() < 1e-12);
        assert!((idx.prevalence(ObjectClass::Face) - stats.face_frame_fraction).abs() < 1e-12);
    }

    #[test]
    fn surviving_indices_exclude_restricted() {
        let corpus = DatasetPreset::NightStreet.generate(4);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let survivors = idx.surviving_indices(&[ObjectClass::Person]);
        for &i in survivors.iter().take(500) {
            assert!(!corpus.frame(i).unwrap().contains_class(ObjectClass::Person));
        }
        // No restriction ⇒ everything survives.
        assert_eq!(idx.surviving_indices(&[]).len(), corpus.len());
    }

    #[test]
    fn detector_index_close_to_ground_truth() {
        let corpus = DatasetPreset::Detrac.generate(5).slice(0, 2_000);
        let yolo = SimYoloV4::new(1);
        let mtcnn = SimMtcnn::new(1);
        let idx = RestrictionIndex::from_detectors(
            &corpus,
            &[
                (ObjectClass::Person, &yolo as &dyn Detector),
                (ObjectClass::Face, &mtcnn as &dyn Detector),
            ],
        );
        let gt = RestrictionIndex::from_ground_truth(
            &corpus,
            &[ObjectClass::Person, ObjectClass::Face],
        );
        let (dp, gp) = (idx.prevalence(ObjectClass::Person), gt.prevalence(ObjectClass::Person));
        assert!((dp - gp).abs() < 0.15, "detector person prevalence {dp} vs gt {gp}");
    }

    #[test]
    fn unknown_class_treated_as_absent() {
        let corpus = DatasetPreset::NightStreet.generate(6).slice(0, 100);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        // Face was never indexed: restricting on it removes nothing.
        assert_eq!(idx.surviving_indices(&[ObjectClass::Face]).len(), 100);
        assert_eq!(idx.prevalence(ObjectClass::Face), 0.0);
        assert!((0..100).all(|i| !idx.frame_restricted(i, &[ObjectClass::Face])));
        assert!(!idx.frame_restricted(100, &[ObjectClass::Person]), "past the last frame");
        let empty =
            RestrictionIndex::from_ground_truth(&corpus.slice(0, 0), &[ObjectClass::Person]);
        assert_eq!((empty.frames(), empty.prevalence(ObjectClass::Person)), (0, 0.0));
    }
}
