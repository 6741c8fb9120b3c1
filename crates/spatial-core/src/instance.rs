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

/// The entries of one run of a [`SpatialInstance`]: shared, so that a clone
/// of the run copies pointers.
type Run = Vec<Arc<Entry>>;

/// How many entries a run holds at least when a split makes it: a run
/// splits in two once it grows past twice this, and is dropped once it is
/// empty.
const RUN: usize = 32;

/// One named region of an instance.
#[derive(Clone, PartialEq, Eq)]
struct Entry {
    name: String,
    region: Region,
}

impl Entry {
    /// The region of an entry taken out of an instance: moved if nothing
    /// else shares the entry, copied otherwise.
    fn into_region(entry: Arc<Entry>) -> Region {
        Arc::try_unwrap(entry).map_or_else(|shared| shared.region.clone(), |entry| entry.region)
    }
}

/// A spatial database instance: a finite map from region names to extents.
///
/// The entries are kept in name order, so iteration order (and therefore
/// every derived combinatorial structure) is deterministic. They are stored
/// as consecutive sorted runs of a few dozen entries, each run and each
/// entry behind an `Arc`. A clone copies the run pointers only, one per run,
/// and shares every name and region with its source; [`insert`] and
/// [`remove`] copy the one run they change (its entry pointers, not its
/// names or geometry) if another instance still shares it. Deriving the
/// next epoch's instance from the previous one, and dropping the previous
/// one, therefore cost `O(regions / run length)` pointer copies plus one run
/// per changed name. Equality and `Debug` read the entries only: two
/// instances with the same entries are equal and print alike, however
/// their runs fell.
///
/// [`insert`]: SpatialInstance::insert
/// [`remove`]: SpatialInstance::remove
#[derive(Clone, Default)]
pub struct SpatialInstance {
    /// Nonempty runs, each ascending by name, the runs in name order.
    runs: Vec<Arc<Run>>,
    /// Number of entries over all runs.
    len: usize,
}

impl SpatialInstance {
    /// The empty instance.
    pub fn new() -> Self {
        SpatialInstance::default()
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
        self.put(name.into(), region).map(Entry::into_region)
    }

    /// Remove a named region.
    pub fn remove(&mut self, name: &str) -> Option<Region> {
        self.take(name).map(Entry::into_region)
    }

    /// Insert (or replace) a named region by reference, reporting whether
    /// the name's extent changed. A name that already holds an equal region
    /// keeps it, and `false` is returned; otherwise the region is copied in.
    /// Unlike [`insert`](SpatialInstance::insert), no replaced region is
    /// handed back, so none is copied out of an entry another instance
    /// shares.
    pub fn replace(&mut self, name: &str, region: &Region) -> bool {
        if self.ext(name) == Some(region) {
            return false;
        }
        self.put(name.to_string(), region.clone());
        true
    }

    /// Remove a named region, reporting whether it was present. Unlike
    /// [`remove`](SpatialInstance::remove), the region is not handed back,
    /// so it is not copied out of an entry another instance shares.
    pub fn discard(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// Store `region` under `name`, returning the entry it replaced.
    fn put(&mut self, name: String, region: Region) -> Option<Arc<Entry>> {
        let (r, at) = match self.find(&name) {
            Ok((r, i)) => {
                let run = Arc::make_mut(&mut self.runs[r]);
                return Some(std::mem::replace(&mut run[i], Arc::new(Entry { name, region })));
            }
            Err(slot) => slot,
        };
        let entry = Arc::new(Entry { name, region });
        self.len += 1;
        let Some(run) = self.runs.get_mut(r) else {
            self.runs.push(Arc::new(vec![entry]));
            return None;
        };
        let run = Arc::make_mut(run);
        run.insert(at, entry);
        if run.len() > 2 * RUN {
            let upper = run.split_off(RUN);
            self.runs.insert(r + 1, Arc::new(upper));
        }
        None
    }

    /// Take the entry of `name` out, if there is one.
    fn take(&mut self, name: &str) -> Option<Arc<Entry>> {
        let (r, i) = self.find(name).ok()?;
        let run = Arc::make_mut(&mut self.runs[r]);
        let entry = run.remove(i);
        if run.is_empty() {
            self.runs.remove(r);
        }
        self.len -= 1;
        Some(entry)
    }

    /// Where `name` is: `Ok((run, position))` if present, else
    /// `Err((run, position))` where it would be inserted (a position in the
    /// last run whose first name is below it, or in the first run).
    fn find(&self, name: &str) -> Result<(usize, usize), (usize, usize)> {
        let r = self.runs.partition_point(|run| run[0].name.as_str() <= name).saturating_sub(1);
        let Some(run) = self.runs.get(r) else { return Err((0, 0)) };
        match run.binary_search_by(|e| e.name.as_str().cmp(name)) {
            Ok(i) => Ok((r, i)),
            Err(i) => Err((r, i)),
        }
    }

    /// The entries in name order.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.runs.iter().flat_map(|run| run.iter().map(Arc::as_ref))
    }

    /// The set of names, in sorted order (the paper's `names(I)`).
    pub fn names(&self) -> Vec<&str> {
        let mut names = Vec::with_capacity(self.len);
        names.extend(self.entries().map(|e| e.name.as_str()));
        names
    }

    /// The extent of a named region (the paper's `ext(I, r)`).
    pub fn ext(&self, name: &str) -> Option<&Region> {
        let (r, i) = self.find(name).ok()?;
        Some(&self.runs[r][i].region)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over `(name, region)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Region)> {
        self.entries().map(|e| (e.name.as_str(), &e.region))
    }

    /// Do all regions of the instance belong to the given class?
    pub fn is_over_class(&self, class: RegionClass) -> bool {
        self.entries().all(|e| e.region.is_in_class(class))
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
        let mut it = self.entries().map(|e| e.region.bounding_box());
        let first = it.next()?;
        Some(it.fold(first, |bb, (x0, y0, x1, y1)| {
            (bb.0.min(x0), bb.1.min(y0), bb.2.max(x1), bb.3.max(y1))
        }))
    }

    /// A translated copy of the whole instance.
    pub fn translated(&self, dx: i64, dy: i64) -> SpatialInstance {
        let runs = self.runs.iter().map(|run| {
            let moved = run.iter().map(|e| {
                Arc::new(Entry { name: e.name.clone(), region: e.region.translated(dx, dy) })
            });
            Arc::new(moved.collect())
        });
        SpatialInstance { runs: runs.collect(), len: self.len }
    }

    /// A copy with regions renamed via the provided map; names not in the map
    /// are kept. (Useful for testing that queries mentioning names explicitly
    /// are not name-generic, cf. Section 2.)
    pub fn renamed(&self, mapping: &BTreeMap<String, String>) -> SpatialInstance {
        let mut out = SpatialInstance::new();
        for e in self.entries() {
            out.insert(mapping.get(&e.name).unwrap_or(&e.name).clone(), e.region.clone());
        }
        out
    }
}

impl PartialEq for SpatialInstance {
    fn eq(&self, other: &SpatialInstance) -> bool {
        self.len == other.len
            && self.entries().zip(other.entries()).all(|(a, b)| std::ptr::eq(a, b) || a == b)
    }
}

impl Eq for SpatialInstance {}

impl fmt::Debug for SpatialInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The entries, printed as a map from name to region.
        struct Regions<'a>(&'a SpatialInstance);
        impl fmt::Debug for Regions<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("SpatialInstance").field("regions", &Regions(self)).finish()
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

    /// A seeded xorshift generator, enough to draw operations.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// The instance's contents as the model map, with every read checked
    /// against it: `names`, `ext`, `iter`, `len`, `==` and `Debug`.
    fn assert_agrees(inst: &SpatialInstance, model: &BTreeMap<String, Region>, probes: &[String]) {
        assert_eq!(inst.len(), model.len());
        assert_eq!(inst.is_empty(), model.is_empty());
        assert!(inst.names().into_iter().eq(model.keys().map(String::as_str)));
        assert!(inst.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v))));
        for name in probes {
            assert_eq!(inst.ext(name), model.get(name), "ext({name})");
        }
        let rebuilt = SpatialInstance::from_regions(model.iter().map(|(k, v)| (k.clone(), v.clone())));
        assert_eq!(inst, &rebuilt);
        assert_eq!(format!("{inst:?}"), format!("SpatialInstance {{ regions: {model:?} }}"));
    }

    #[test]
    fn shared_runs_agree_with_a_map_model_and_no_write_leaks_into_a_clone() {
        for seed in [1u64, 7, 1996] {
            let mut draw = Draw(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut inst = SpatialInstance::new();
            let mut model: BTreeMap<String, Region> = BTreeMap::new();
            let mut held: Vec<(SpatialInstance, BTreeMap<String, Region>)> = Vec::new();
            let mut widest_clone = 0;
            // Grow past several splits, empty the instance, grow again and
            // thin out: names drawn from a pool four times the run split.
            let phases = [(400, 9), (400, 0), (300, 8), (300, 3)];
            for (steps, grow) in phases {
                for _ in 0..steps {
                    let key = format!("n{:03}", draw.below(8 * RUN));
                    let region = Region::rect_from_ints(0, 0, 1 + draw.below(5) as i64, 1);
                    // Every other write goes through the borrowing forms,
                    // which report a change instead of handing the old
                    // region back.
                    let borrowing = draw.below(2) == 0;
                    if draw.below(10) < grow {
                        if borrowing {
                            let changed = model.get(&key) != Some(&region);
                            assert_eq!(inst.replace(&key, &region), changed, "replace({key})");
                            model.insert(key.clone(), region);
                        } else {
                            let old = inst.insert(key.clone(), region.clone());
                            assert_eq!(old, model.insert(key.clone(), region), "insert({key})");
                        }
                    } else {
                        let victim = match draw.below(3) {
                            0 => key.clone(),
                            _ => model.keys().nth(draw.below(model.len().max(1))).cloned().unwrap_or(key.clone()),
                        };
                        let removed = model.remove(&victim);
                        if borrowing {
                            assert_eq!(inst.discard(&victim), removed.is_some(), "discard({victim})");
                        } else {
                            assert_eq!(inst.remove(&victim), removed, "remove({victim})");
                        }
                    }
                    if draw.below(25) == 0 {
                        let keep = (inst.clone(), model.clone());
                        widest_clone = widest_clone.max(inst.runs.len());
                        if held.len() < 6 {
                            held.push(keep);
                        } else {
                            let at = draw.below(held.len());
                            held[at] = keep;
                        }
                    }
                    let probes = [key, "n000".to_string(), "zzz".to_string(), String::new()];
                    for (clone, snapshot) in &held {
                        assert_eq!(clone.len(), snapshot.len());
                        assert!(clone.iter().eq(snapshot.iter().map(|(k, v)| (k.as_str(), v))));
                    }
                    assert_agrees(&inst, &model, &probes);
                }
                if grow == 0 {
                    assert!(inst.is_empty() && inst.runs.is_empty(), "emptied: {} runs left", inst.runs.len());
                }
            }
            assert!(widest_clone > 3, "a clone spans several runs: {widest_clone}");
        }
    }

    #[test]
    fn equal_contents_built_in_different_orders_are_equal_and_print_alike() {
        let entries: Vec<(String, Region)> =
            (0..5 * RUN as i64).map(|i| (format!("r{i:04}"), Region::rect_from_ints(i, 0, i + 1, 1))).collect();
        let ascending = SpatialInstance::from_regions(entries.iter().cloned());
        let descending = SpatialInstance::from_regions(entries.iter().rev().cloned());
        let mut shuffled = SpatialInstance::new();
        let mut draw = Draw(42);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, draw.below(i + 1));
        }
        for &i in &order {
            shuffled.insert(entries[i].0.clone(), entries[i].1.clone());
        }
        let starts = |inst: &SpatialInstance| inst.runs.iter().map(|run| run[0].name.clone()).collect::<Vec<_>>();
        assert_ne!(starts(&ascending), starts(&descending), "the runs fell differently");
        for other in [&descending, &shuffled] {
            assert_eq!(&ascending, other);
            assert_eq!(format!("{ascending:?}"), format!("{other:?}"));
            assert_eq!(format!("{ascending:#?}"), format!("{other:#?}"));
        }
        let mut fewer = shuffled.clone();
        fewer.remove("r0003");
        assert_ne!(ascending, fewer);
        assert_eq!(shuffled, descending, "removing from a clone leaves its source whole");
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
