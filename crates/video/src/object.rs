//! Objects, bounding boxes, classes, and frame resolutions.

use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;
use std::str::FromStr;

/// Object classes the simulated detectors know about.
///
/// `Person` and `Face` are the paper's restricted classes; the others are
/// typical traffic-analytics targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Passenger car (the queried class in every paper experiment).
    Car,
    /// Truck.
    Truck,
    /// Bus.
    Bus,
    /// Bicycle.
    Bicycle,
    /// Pedestrian — restricted class #1.
    Person,
    /// Human face — restricted class #2 (a sub-region of a person).
    Face,
}

impl ObjectClass {
    /// All classes, in a stable order.
    pub const ALL: [ObjectClass; 6] = [
        ObjectClass::Car,
        ObjectClass::Truck,
        ObjectClass::Bus,
        ObjectClass::Bicycle,
        ObjectClass::Person,
        ObjectClass::Face,
    ];

    /// This class's position in [`ALL`](Self::ALL), for tables indexed
    /// by class.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the paper treats this class as privacy-sensitive.
    pub fn is_sensitive(self) -> bool {
        matches!(self, ObjectClass::Person | ObjectClass::Face)
    }

    /// Lower-case canonical name (used by the query language).
    pub fn name(self) -> &'static str {
        match self {
            ObjectClass::Car => "car",
            ObjectClass::Truck => "truck",
            ObjectClass::Bus => "bus",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::Person => "person",
            ObjectClass::Face => "face",
        }
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ObjectClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "car" => Ok(ObjectClass::Car),
            "truck" => Ok(ObjectClass::Truck),
            "bus" => Ok(ObjectClass::Bus),
            "bicycle" | "bike" => Ok(ObjectClass::Bicycle),
            "person" | "pedestrian" => Ok(ObjectClass::Person),
            "face" => Ok(ObjectClass::Face),
            other => Err(format!("unknown object class: {other:?}")),
        }
    }
}

/// An axis-aligned bounding box in **normalized** coordinates
/// (`0.0 ..= 1.0` relative to the frame), so it is resolution-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width.
    pub w: f32,
    /// Height.
    pub h: f32,
}

impl BBox {
    /// Creates a box, clamping all coordinates into the unit square.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        let x = x.clamp(0.0, 1.0);
        let y = y.clamp(0.0, 1.0);
        BBox {
            x,
            y,
            w: w.clamp(0.0, 1.0 - x),
            h: h.clamp(0.0, 1.0 - y),
        }
    }

    /// Normalized area (fraction of the frame covered).
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Apparent area in pixels at the given frame resolution — the quantity
    /// the detector response curves are functions of.
    pub fn pixel_area(&self, res: Resolution) -> f64 {
        f64::from(self.w) * f64::from(res.width) * f64::from(self.h) * f64::from(res.height)
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BBox) -> f32 {
        let ix = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let iy = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        if ix <= 0.0 || iy <= 0.0 {
            return 0.0;
        }
        let inter = ix * iy;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// A single object in a frame. Objects carry everything the detector
/// simulators need to decide detectability: geometry, contrast, occlusion.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Stable identity across frames (a track id).
    pub id: u64,
    /// Class label (the synthetic ground truth).
    pub class: ObjectClass,
    /// Normalized bounding box.
    pub bbox: BBox,
    /// Photometric contrast against the background in `[0, 1]`
    /// (night scenes have low contrast).
    pub contrast: f32,
    /// Fraction of the object occluded by others, in `[0, 1]`.
    pub occlusion: f32,
}

/// A frame resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// Convenience constructor.
    pub const fn new(width: u32, height: u32) -> Self {
        Resolution { width, height }
    }

    /// Square resolution `s × s` — the shape both paper models consume.
    pub const fn square(side: u32) -> Self {
        Resolution {
            width: side,
            height: side,
        }
    }

    /// Total pixel count.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Whether both sides are multiples of `m` (the paper notes the default
    /// Mask R-CNN only accepts resolutions in multiples of 64).
    pub fn is_multiple_of(&self, m: u32) -> bool {
        m != 0 && self.width % m == 0 && self.height % m == 0
    }

    /// Linear scale factor relative to another resolution (geometric mean
    /// of the per-axis ratios).
    pub fn scale_relative_to(&self, native: Resolution) -> f64 {
        if native.pixels() == 0 {
            return 0.0;
        }
        (self.pixels() as f64 / native.pixels() as f64).sqrt()
    }
}

impl ToJson for ObjectClass {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

impl FromJson for ObjectClass {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        value.as_str()?.parse().map_err(JsonError::new)
    }
}

smokescreen_rt::json_codec! { Resolution { width, height } }

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

impl FromStr for Resolution {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let (w, h) = lower
            .split_once(['x', '×'])
            .ok_or_else(|| format!("resolution {s:?} must look like 608x608"))?;
        let width: u32 = w.trim().parse().map_err(|e| format!("bad width: {e}"))?;
        let height: u32 = h.trim().parse().map_err(|e| format!("bad height: {e}"))?;
        if width == 0 || height == 0 {
            return Err("resolution sides must be positive".into());
        }
        Ok(Resolution { width, height })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_round_trip() {
        for class in ObjectClass::ALL {
            assert_eq!(class.name().parse::<ObjectClass>().unwrap(), class);
            assert_eq!(ObjectClass::ALL[class.index()], class);
        }
        assert!("drone".parse::<ObjectClass>().is_err());
    }

    #[test]
    fn sensitive_classes() {
        assert!(ObjectClass::Person.is_sensitive());
        assert!(ObjectClass::Face.is_sensitive());
        assert!(!ObjectClass::Car.is_sensitive());
    }

    #[test]
    fn bbox_clamps_into_unit_square() {
        let b = BBox::new(0.9, 0.9, 0.5, 0.5);
        assert!(b.x + b.w <= 1.0 + f32::EPSILON);
        assert!(b.y + b.h <= 1.0 + f32::EPSILON);
    }

    #[test]
    fn pixel_area_scales_quadratically() {
        let b = BBox::new(0.0, 0.0, 0.1, 0.1);
        let a1 = b.pixel_area(Resolution::square(100));
        let a2 = b.pixel_area(Resolution::square(200));
        assert!((a2 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let a = BBox::new(0.1, 0.1, 0.2, 0.2);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        let b = BBox::new(0.7, 0.7, 0.1, 0.1);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn resolution_parsing() {
        assert_eq!("608x608".parse::<Resolution>().unwrap(), Resolution::square(608));
        assert_eq!(
            "1280X720".parse::<Resolution>().unwrap(),
            Resolution::new(1280, 720)
        );
        assert!("608".parse::<Resolution>().is_err());
        assert!("0x64".parse::<Resolution>().is_err());
    }

    #[test]
    fn resolution_multiples() {
        assert!(Resolution::square(640).is_multiple_of(64));
        assert!(!Resolution::square(600).is_multiple_of(64));
        assert!(!Resolution::square(640).is_multiple_of(0));
    }

    #[test]
    fn scale_relative() {
        let native = Resolution::square(608);
        assert!((Resolution::square(304).scale_relative_to(native) - 0.5).abs() < 1e-9);
        assert!((Resolution::square(608).scale_relative_to(native) - 1.0).abs() < 1e-12);
    }
}
