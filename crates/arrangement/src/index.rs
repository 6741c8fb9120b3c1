//! A static spatial index over exact-rational bounding boxes.
//!
//! [`SpatialIndex`] is the shared acceleration structure behind three hot
//! paths of the pipeline:
//!
//! * **Interaction-graph construction** ([`crate::partition`]): the segment
//!   pairs whose boxes overlap are exactly the candidate edges of the
//!   interaction graph, so partitioning asks one
//!   [`SpatialIndex::bbox_neighbors`] probe per segment instead of sweeping
//!   an active list whose width grows with the x-overlap of the instance.
//! * **Cross-component point location** ([`crate::assemble`]): nesting
//!   resolution asks which component boxes contain a representative point
//!   ([`SpatialIndex::locate_point`]) and only runs the exact
//!   point-in-polygon test against those, instead of against every other
//!   component.
//! * **Query planning** (the `query` crate): the candidate bindings of a
//!   name variable constrained by a contact-implying atom against a bound
//!   region are exactly the index-reported bbox neighbors of that region —
//!   the sub-linear candidate generators of the semi-join planner. The
//!   per-region index of an instance is built once per snapshot and cached
//!   in [`GlobalComplexView`](crate::GlobalComplexView) behind a `OnceLock`
//!   ([`crate::GlobalComplexView::region_bbox_index`]).
//!
//! The structure is a bulk-loaded, packed R-tree (Sort-Tile-Recursive): the
//! boxes are sorted by x-center into vertical slices, each slice sorted by
//! y-center and cut into leaves of [`NODE_CAPACITY`] entries, and the upper
//! levels group consecutive nodes until a single root remains. All
//! comparisons are exact (rational arithmetic, no rounding), so probes are
//! *conservatively exact*: a probe reports every item whose closed box
//! interacts with the query and nothing else. Construction is
//! `O(n log n)` rational comparisons; a probe visits `O(log n + answer)`
//! nodes on realistically distributed boxes.
//!
//! The index counts its probes ([`SpatialIndex::probe_count`], shared by all
//! clones) so benchmark harnesses can report planner/partition work even on
//! hosts where wall-clock comparisons are noisy.

use crate::partition::BBox;
use spatial_core::prelude::{Point, Rational};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fan-out of the packed R-tree: leaves hold up to this many entries and
/// internal nodes up to this many children.
pub const NODE_CAPACITY: usize = 8;

/// One node of the packed tree: its covering box plus the half-open range of
/// children (entries for level 0, nodes of the level below otherwise).
#[derive(Clone, Debug)]
struct Node {
    bbox: BBox,
    start: usize,
    end: usize,
}

/// A static (bulk-loaded) spatial index over the bounding boxes of a fixed
/// item set; see the module docs for the role it plays in the pipeline.
///
/// Items are addressed by the index they had in the construction slice;
/// items passed as `None` (no geometry) are never reported. Probe results
/// are returned in ascending item order, so downstream consumers are
/// deterministic in the input regardless of tree shape.
#[derive(Debug)]
pub struct SpatialIndex {
    /// Number of items the index was built over (including `None` slots).
    item_count: usize,
    /// `(item id, box)` pairs in packed (STR) order.
    entries: Vec<(usize, BBox)>,
    /// Tree levels bottom-up: `levels[0]` are leaves over `entries`,
    /// `levels.last()` is the single root level.
    levels: Vec<Vec<Node>>,
    /// Number of probes answered (shared by clones; see
    /// [`SpatialIndex::probe_count`]).
    probes: Arc<AtomicU64>,
}

impl Clone for SpatialIndex {
    fn clone(&self) -> SpatialIndex {
        SpatialIndex {
            item_count: self.item_count,
            entries: self.entries.clone(),
            levels: self.levels.clone(),
            probes: Arc::clone(&self.probes),
        }
    }
}

impl SpatialIndex {
    /// Bulk-load the index over the boxes of an item slice (`None` items are
    /// indexed by position but never reported by probes).
    pub fn build(items: &[Option<BBox>]) -> SpatialIndex {
        let mut entries: Vec<(usize, BBox)> = items
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|b| (i, b.clone())))
            .collect();
        let item_count = items.len();
        if entries.is_empty() {
            return SpatialIndex {
                item_count,
                entries,
                levels: Vec::new(),
                probes: Arc::new(AtomicU64::new(0)),
            };
        }

        // STR: sort by x-center, slice vertically, sort each slice by
        // y-center, pack consecutive runs into leaves. Centers are compared
        // via the (exact) coordinate sums; ties fall back to the item id so
        // the packing is deterministic in the input.
        let center_x = |b: &BBox| b.x0 + b.x1;
        let center_y = |b: &BBox| b.y0 + b.y1;
        entries.sort_by_cached_key(|(i, b)| (center_x(b), *i));
        let n = entries.len();
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices.max(1));
        for chunk in entries.chunks_mut(per_slice.max(1)) {
            chunk.sort_by_cached_key(|(i, b)| (center_y(b), *i));
        }

        let leaves: Vec<Node> = entries
            .chunks(NODE_CAPACITY)
            .enumerate()
            .map(|(k, chunk)| Node {
                bbox: cover(chunk.iter().map(|(_, b)| b)),
                start: k * NODE_CAPACITY,
                end: k * NODE_CAPACITY + chunk.len(),
            })
            .collect();
        let mut levels = vec![leaves];
        while levels.last().expect("at least one level").len() > 1 {
            let below = levels.last().expect("at least one level");
            let parents: Vec<Node> = below
                .chunks(NODE_CAPACITY)
                .enumerate()
                .map(|(k, chunk)| Node {
                    bbox: cover(chunk.iter().map(|nd| &nd.bbox)),
                    start: k * NODE_CAPACITY,
                    end: k * NODE_CAPACITY + chunk.len(),
                })
                .collect();
            levels.push(parents);
        }

        SpatialIndex { item_count, entries, levels, probes: Arc::new(AtomicU64::new(0)) }
    }

    /// Number of items the index was built over (including `None` slots).
    pub fn len(&self) -> usize {
        self.item_count
    }

    /// Is the index empty (no items at all)?
    pub fn is_empty(&self) -> bool {
        self.item_count == 0
    }

    /// Number of items that actually carry a box.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// How many probes ([`SpatialIndex::bbox_neighbors`] +
    /// [`SpatialIndex::locate_point`]) this index has answered. The counter
    /// is shared by all clones, so a cached index reports its lifetime
    /// total — the planner-work metric recorded by the bench snapshot.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// The items whose closed box shares at least one point with `query`
    /// (touching counts, exactly as
    /// [`BBox::intersects`]), in ascending item order.
    pub fn bbox_neighbors(&self, query: &BBox) -> Vec<usize> {
        self.probe(|b| b.intersects(query))
    }

    /// The items whose closed box contains the point, in ascending item
    /// order — the box-level point-location probe (callers still run their
    /// exact geometric test against the reported candidates).
    pub fn locate_point(&self, p: &Point) -> Vec<usize> {
        self.probe(|b| b.contains_point(p))
    }

    fn probe<F: Fn(&BBox) -> bool>(&self, hit: F) -> Vec<usize> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        let Some(root_level) = self.levels.len().checked_sub(1) else {
            return out;
        };
        // (level, node index) descent; level 0 scans entry ranges.
        let mut stack: Vec<(usize, usize)> = vec![(root_level, 0)];
        while let Some((level, idx)) = stack.pop() {
            let node = &self.levels[level][idx];
            if !hit(&node.bbox) {
                continue;
            }
            if level == 0 {
                for (id, b) in &self.entries[node.start..node.end] {
                    if hit(b) {
                        out.push(*id);
                    }
                }
            } else {
                for child in node.start..node.end {
                    stack.push((level - 1, child));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The smallest box covering a nonempty box iterator.
fn cover<'a, I: Iterator<Item = &'a BBox>>(mut boxes: I) -> BBox {
    let first = boxes.next().expect("cover of a nonempty chunk").clone();
    boxes.fold(first, |acc, b| acc.union(b))
}

/// Convenience: the box `[x0, x1] × [y0, y1]` from integer coordinates.
pub fn bbox_from_ints(x0: i64, y0: i64, x1: i64, y1: i64) -> BBox {
    BBox {
        x0: Rational::from_int(x0),
        y0: Rational::from_int(y0),
        x1: Rational::from_int(x1),
        y1: Rational::from_int(y1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes(specs: &[(i64, i64, i64, i64)]) -> Vec<Option<BBox>> {
        specs.iter().map(|&(a, b, c, d)| Some(bbox_from_ints(a, b, c, d))).collect()
    }

    /// Brute-force oracle for the neighbor probe.
    fn naive_neighbors(items: &[Option<BBox>], q: &BBox) -> Vec<usize> {
        items
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().filter(|b| b.intersects(q)).map(|_| i))
            .collect()
    }

    #[test]
    fn empty_index_reports_nothing() {
        let idx = SpatialIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.entry_count(), 0);
        assert!(idx.bbox_neighbors(&bbox_from_ints(0, 0, 10, 10)).is_empty());
        assert!(idx.locate_point(&Point::new(Rational::from_int(1), Rational::from_int(1))).is_empty());
        let none_only = SpatialIndex::build(&[None, None]);
        assert_eq!(none_only.len(), 2);
        assert_eq!(none_only.entry_count(), 0);
        assert!(none_only.bbox_neighbors(&bbox_from_ints(0, 0, 1, 1)).is_empty());
    }

    #[test]
    fn neighbors_match_brute_force_on_a_grid() {
        // 10x10 grid of 4x4 boxes on a pitch of 3: every box overlaps its
        // neighbors; query boxes of several shapes must match brute force.
        let mut items = Vec::new();
        for r in 0..10i64 {
            for c in 0..10i64 {
                items.push(Some(bbox_from_ints(3 * c, 3 * r, 3 * c + 4, 3 * r + 4)));
            }
        }
        let idx = SpatialIndex::build(&items);
        for q in [
            bbox_from_ints(0, 0, 2, 2),
            bbox_from_ints(10, 10, 14, 11),
            bbox_from_ints(-5, -5, -1, -1),
            bbox_from_ints(0, 0, 40, 40),
            bbox_from_ints(17, 0, 17, 40),
        ] {
            assert_eq!(idx.bbox_neighbors(&q), naive_neighbors(&items, &q), "query {q:?}");
        }
    }

    #[test]
    fn touching_boxes_count_as_neighbors() {
        let items = boxes(&[(0, 0, 4, 4), (4, 4, 8, 8), (9, 0, 12, 3)]);
        let idx = SpatialIndex::build(&items);
        assert_eq!(idx.bbox_neighbors(&bbox_from_ints(4, 4, 4, 4)), vec![0, 1]);
        assert_eq!(idx.bbox_neighbors(&bbox_from_ints(0, 0, 20, 20)), vec![0, 1, 2]);
    }

    #[test]
    fn point_location_reports_containing_boxes() {
        let items = boxes(&[(0, 0, 10, 10), (2, 2, 5, 5), (20, 20, 30, 30)]);
        let idx = SpatialIndex::build(&items);
        let p = |x, y| Point::new(Rational::from_int(x), Rational::from_int(y));
        assert_eq!(idx.locate_point(&p(3, 3)), vec![0, 1]);
        assert_eq!(idx.locate_point(&p(8, 8)), vec![0]);
        assert_eq!(idx.locate_point(&p(25, 25)), vec![2]);
        assert_eq!(idx.locate_point(&p(15, 15)), Vec::<usize>::new());
        // Closed boxes: the shared corner belongs to both.
        assert_eq!(idx.locate_point(&p(10, 10)), vec![0]);
    }

    #[test]
    fn none_items_are_skipped_but_keep_ids_stable() {
        let items = vec![
            Some(bbox_from_ints(0, 0, 2, 2)),
            None,
            Some(bbox_from_ints(1, 1, 3, 3)),
        ];
        let idx = SpatialIndex::build(&items);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.bbox_neighbors(&bbox_from_ints(1, 1, 1, 1)), vec![0, 2]);
    }

    #[test]
    fn probe_counter_is_shared_by_clones() {
        let idx = SpatialIndex::build(&boxes(&[(0, 0, 1, 1)]));
        assert_eq!(idx.probe_count(), 0);
        let other = idx.clone();
        idx.bbox_neighbors(&bbox_from_ints(0, 0, 1, 1));
        other.locate_point(&Point::new(Rational::from_int(0), Rational::from_int(0)));
        assert_eq!(idx.probe_count(), 2);
        assert_eq!(other.probe_count(), 2);
    }

    #[test]
    fn large_random_set_matches_brute_force() {
        // Deterministic pseudo-random boxes via a tiny LCG (no rand dep in
        // this crate).
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let items: Vec<Option<BBox>> = (0..300)
            .map(|_| {
                let x = next() % 200;
                let y = next() % 200;
                let w = 1 + next().rem_euclid(30);
                let h = 1 + next().rem_euclid(30);
                Some(bbox_from_ints(x, y, x + w, y + h))
            })
            .collect();
        let idx = SpatialIndex::build(&items);
        for probe in 0..40 {
            let x = (probe * 13) % 220 - 10;
            let y = (probe * 29) % 220 - 10;
            let q = bbox_from_ints(x, y, x + 25, y + 25);
            assert_eq!(idx.bbox_neighbors(&q), naive_neighbors(&items, &q), "probe {probe}");
        }
    }
}
