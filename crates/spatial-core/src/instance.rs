//! Spatial database instances.
//!
//! Following Section 2 of the paper, an instance `I` consists of a finite set
//! of region names `names(I)` together with a mapping `ext(I, ·)` assigning to
//! each name a region of the plane.

use crate::point::Point;
use crate::polygon::Location;
use crate::rational::Rational;
use crate::region::{Region, RegionClass};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A spatial database instance: a finite map from region names to extents.
///
/// Names are kept in a `BTreeMap` so iteration order (and therefore every
/// derived combinatorial structure) is deterministic. Extents sit behind
/// `Arc`s: a clone shares every region with its source, so deriving the next
/// epoch's instance from the previous one copies names and pointers, not
/// geometry.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpatialInstance {
    regions: BTreeMap<String, Arc<Region>>,
}

impl SpatialInstance {
    /// The empty instance.
    pub fn new() -> Self {
        SpatialInstance { regions: BTreeMap::new() }
    }

    /// Build an instance from `(name, region)` pairs.
    pub fn from_regions<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Region)>,
        S: Into<String>,
    {
        let mut inst = SpatialInstance::new();
        for (name, region) in pairs {
            inst.insert(name, region);
        }
        inst
    }

    /// Insert (or replace) a named region.
    pub fn insert<S: Into<String>>(&mut self, name: S, region: Region) -> Option<Region> {
        self.regions.insert(name.into(), Arc::new(region)).map(Arc::unwrap_or_clone)
    }

    /// Remove a named region.
    pub fn remove(&mut self, name: &str) -> Option<Region> {
        self.regions.remove(name).map(Arc::unwrap_or_clone)
    }

    /// The set of names, in sorted order (the paper's `names(I)`).
    pub fn names(&self) -> Vec<&str> {
        self.regions.keys().map(String::as_str).collect()
    }

    /// The extent of a named region (the paper's `ext(I, r)`).
    pub fn ext(&self, name: &str) -> Option<&Region> {
        self.regions.get(name).map(Arc::as_ref)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterate over `(name, region)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Region)> {
        self.regions.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }

    /// Do all regions of the instance belong to the given class?
    pub fn is_over_class(&self, class: RegionClass) -> bool {
        self.regions.values().all(|r| r.is_in_class(class))
    }

    /// The most specific common class of all regions (or `Disc` if empty).
    pub fn common_class(&self) -> RegionClass {
        for class in RegionClass::all() {
            if self.is_over_class(class) {
                return class;
            }
        }
        RegionClass::Disc
    }

    /// Do two instances have the same name set? (A precondition for
    /// G-equivalence in the paper.)
    pub fn same_names(&self, other: &SpatialInstance) -> bool {
        self.names() == other.names()
    }

    /// Locate a point with respect to every region: returns, per region name,
    /// whether the point is in the interior, boundary or exterior.
    pub fn locate_point(&self, p: &Point) -> BTreeMap<&str, Location> {
        self.iter().map(|(name, region)| (name, region.locate(p))).collect()
    }

    /// Axis-aligned bounding box of all regions, if any.
    pub fn bounding_box(&self) -> Option<(Rational, Rational, Rational, Rational)> {
        let mut it = self.regions.values();
        let first = it.next()?;
        let mut bb = first.bounding_box();
        for r in it {
            let (x0, y0, x1, y1) = r.bounding_box();
            bb = (bb.0.min(x0), bb.1.min(y0), bb.2.max(x1), bb.3.max(y1));
        }
        Some(bb)
    }

    /// A translated copy of the whole instance.
    pub fn translated(&self, dx: i64, dy: i64) -> SpatialInstance {
        SpatialInstance {
            regions: self
                .regions
                .iter()
                .map(|(k, v)| (k.clone(), Arc::new(v.translated(dx, dy))))
                .collect(),
        }
    }

    /// A copy with regions renamed via the provided map; names not in the map
    /// are kept. (Useful for testing that queries mentioning names explicitly
    /// are not name-generic, cf. Section 2.)
    pub fn renamed(&self, mapping: &BTreeMap<String, String>) -> SpatialInstance {
        SpatialInstance {
            regions: self
                .regions
                .iter()
                .map(|(k, v)| (mapping.get(k).cloned().unwrap_or_else(|| k.clone()), Arc::clone(v)))
                .collect(),
        }
    }
}

impl fmt::Display for SpatialInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SpatialInstance with {} region(s):", self.len())?;
        for (name, region) in self.iter() {
            writeln!(
                f,
                "  {name}: class {}, {} boundary vertices, area {}",
                region.class(),
                region.boundary().len(),
                region.area()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn sample() -> SpatialInstance {
        SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(2, 2, 6, 6)),
        ])
    }

    #[test]
    fn names_are_sorted() {
        let mut inst = SpatialInstance::new();
        inst.insert("Zeta", Region::rect_from_ints(0, 0, 1, 1));
        inst.insert("Alpha", Region::rect_from_ints(2, 2, 3, 3));
        assert_eq!(inst.names(), vec!["Alpha", "Zeta"]);
    }

    #[test]
    fn ext_and_len() {
        let inst = sample();
        assert_eq!(inst.len(), 2);
        assert!(!inst.is_empty());
        assert!(inst.ext("A").is_some());
        assert!(inst.ext("C").is_none());
    }

    #[test]
    fn class_checks() {
        let inst = sample();
        assert!(inst.is_over_class(RegionClass::Rect));
        assert_eq!(inst.common_class(), RegionClass::Rect);
        let mut inst2 = inst.clone();
        inst2.insert("C", Region::polygon_from_ints(&[(0, 0), (3, 0), (1, 2)]).unwrap());
        assert!(!inst2.is_over_class(RegionClass::Rect));
        assert!(inst2.is_over_class(RegionClass::Poly));
        assert_eq!(inst2.common_class(), RegionClass::Poly);
    }

    #[test]
    fn locate_point_per_region() {
        let inst = sample();
        let locs = inst.locate_point(&pt(3, 3));
        assert_eq!(locs["A"], Location::Inside);
        assert_eq!(locs["B"], Location::Inside);
        let locs = inst.locate_point(&pt(1, 1));
        assert_eq!(locs["A"], Location::Inside);
        assert_eq!(locs["B"], Location::Outside);
    }

    #[test]
    fn bounding_box_and_translation() {
        let inst = sample();
        let bb = inst.bounding_box().unwrap();
        assert_eq!(
            bb,
            (
                Rational::from_int(0),
                Rational::from_int(0),
                Rational::from_int(6),
                Rational::from_int(6)
            )
        );
        let t = inst.translated(10, 0);
        assert_eq!(
            t.bounding_box().unwrap().0,
            Rational::from_int(10)
        );
        assert!(SpatialInstance::new().bounding_box().is_none());
    }

    #[test]
    fn same_names_and_renaming() {
        let a = sample();
        let b = sample().translated(1, 1);
        assert!(a.same_names(&b));
        let mut map = BTreeMap::new();
        map.insert("A".to_string(), "Z".to_string());
        let renamed = a.renamed(&map);
        assert_eq!(renamed.names(), vec!["B", "Z"]);
        assert!(!a.same_names(&renamed));
    }
}
