//! Cameras, fleets, and transmission reports.

use smokescreen_degrade::{DegradedView, InterventionSet, RestrictionIndex};
use smokescreen_video::{ObjectClass, VideoCorpus};

use crate::cost::{transmission_cost, EnergyModel, Link};
use crate::privacy::{PrivacyAuditor, PrivacyReport};

/// Stable 64-bit camera identity, derived from the camera name by the
/// same FNV-1a checksum the durability layer uses — so the id a profile
/// store keys records by is reproducible on any machine without a central
/// id allocator. This is the store-key seam the serving daemon builds on:
/// `StoreKey { camera: id.value(), grid }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CameraId(u64);

impl CameraId {
    /// Derives the id for a camera name.
    pub fn from_name(name: &str) -> CameraId {
        CameraId(smokescreen_rt::log::checksum64(name.as_bytes()))
    }

    /// The raw 64-bit value (what goes into a store key).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CameraId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One configurable networked camera.
pub struct Camera {
    /// Camera name (e.g. `"intersection-7"`).
    pub name: String,
    /// The video this camera captures.
    pub corpus: VideoCorpus,
    /// Uplink to the central system.
    pub link: Link,
    /// Energy model of the device.
    pub energy: EnergyModel,
    restrictions: RestrictionIndex,
}

impl Camera {
    /// Creates a camera; the restriction prior is derived from the corpus
    /// ground truth.
    pub fn new(name: impl Into<String>, corpus: VideoCorpus, link: Link) -> Self {
        let restrictions = RestrictionIndex::from_ground_truth(
            &corpus,
            &[ObjectClass::Person, ObjectClass::Face],
        );
        Camera {
            name: name.into(),
            corpus,
            link,
            energy: EnergyModel::default(),
            restrictions,
        }
    }

    /// The camera's stable store-key identity.
    pub fn stable_id(&self) -> CameraId {
        CameraId::from_name(&self.name)
    }

    /// Simulates applying the intervention at-source and shipping the
    /// degraded video to the central system.
    pub fn transmit(&self, set: &InterventionSet, seed: u64) -> Result<CameraReport, String> {
        let view = DegradedView::new(&self.corpus, set.clone(), &self.restrictions, seed)?;
        let cost = transmission_cost(
            set,
            self.corpus.len(),
            view.len(),
            self.corpus.native_resolution,
            &self.energy,
        );
        let privacy = PrivacyAuditor::default().score_view(&view);
        Ok(CameraReport {
            camera: self.name.clone(),
            frames_shipped: view.len(),
            bytes: cost.bytes,
            energy_j: cost.energy_j,
            transmit_seconds: self.link.transmit_seconds(cost.bytes),
            privacy,
        })
    }
}

/// Per-camera transmission report.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraReport {
    /// Camera name.
    pub camera: String,
    /// Frames on the wire.
    pub frames_shipped: usize,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Camera-side energy in joules.
    pub energy_j: f64,
    /// Wall-clock seconds the uplink is busy.
    pub transmit_seconds: f64,
    /// Privacy exposure.
    pub privacy: PrivacyReport,
}

/// A set of cameras feeding one central system.
pub struct Fleet {
    /// The cameras.
    pub cameras: Vec<Camera>,
}

/// Fleet-wide totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-camera breakdown.
    pub cameras: Vec<CameraReport>,
}

impl FleetReport {
    /// Total bytes across the fleet.
    pub fn total_bytes(&self) -> u64 {
        self.cameras.iter().map(|c| c.bytes).sum()
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cameras.iter().map(|c| c.energy_j).sum()
    }

    /// Total privacy exposure score.
    pub fn total_exposure(&self) -> f64 {
        self.cameras.iter().map(|c| c.privacy.exposure_score()).sum()
    }
}

impl Fleet {
    /// Stable ids for every camera, in fleet order.
    pub fn camera_ids(&self) -> Vec<CameraId> {
        self.cameras.iter().map(Camera::stable_id).collect()
    }

    /// Applies one intervention set fleet-wide and reports totals.
    pub fn transmit_all(&self, set: &InterventionSet, seed: u64) -> Result<FleetReport, String> {
        let cameras = self
            .cameras
            .iter()
            .enumerate()
            .map(|(i, c)| c.transmit(set, seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetReport { cameras })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::Resolution;

    fn fleet() -> Fleet {
        Fleet {
            cameras: vec![
                Camera::new(
                    "ns-1",
                    DatasetPreset::NightStreet.generate(80).slice(0, 2_000),
                    Link::SENSOR_NET,
                ),
                Camera::new(
                    "dt-1",
                    DatasetPreset::Detrac.generate(80).slice(0, 2_000),
                    Link::SENSOR_NET,
                ),
            ],
        }
    }

    #[test]
    fn degradation_buys_policy_goods() {
        let f = fleet();
        let full = f.transmit_all(&InterventionSet::none(), 1).unwrap();
        let degraded = f
            .transmit_all(
                &InterventionSet::sampling(0.1).with_resolution(Resolution::square(128)),
                1,
            )
            .unwrap();
        assert!(degraded.total_bytes() < full.total_bytes() / 50);
        assert!(degraded.total_energy_j() < full.total_energy_j());
        assert!(degraded.total_exposure() < full.total_exposure() / 2.0);
    }

    #[test]
    fn camera_ids_are_stable_name_derived_and_distinct() {
        let f = fleet();
        let ids = f.camera_ids();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(ids[0], CameraId::from_name("ns-1"), "pure function of the name");
        assert_eq!(ids[0], f.cameras[0].stable_id());
        assert_eq!(format!("{}", ids[0]).len(), 16, "fixed-width hex rendering");
        assert_eq!(
            ids[0].value(),
            smokescreen_rt::log::checksum64(b"ns-1"),
            "same checksum the durability layer uses"
        );
    }

    #[test]
    fn per_camera_reports_are_labelled() {
        let f = fleet();
        let r = f.transmit_all(&InterventionSet::sampling(0.5), 2).unwrap();
        assert_eq!(r.cameras.len(), 2);
        assert_eq!(r.cameras[0].camera, "ns-1");
        assert!(r.cameras[1].frames_shipped > 0);
        assert!(r.cameras[0].transmit_seconds.is_finite());
    }
}
