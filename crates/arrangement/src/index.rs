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
//!   the sub-linear candidate generators of the semi-join planner.
//!
//! Each tree is a bulk-loaded, packed R-tree (Sort-Tile-Recursive): the
//! boxes are sorted by x-center into vertical slices, each slice sorted by
//! y-center and cut into leaves of [`NODE_CAPACITY`] entries, and the upper
//! levels group consecutive nodes until a single root remains. All
//! comparisons are exact (rational arithmetic, no rounding), so probes are
//! *conservatively exact*: a probe reports every item whose closed box
//! interacts with the query and nothing else. Construction is
//! `O(n log n)` rational comparisons; a probe visits `O(log n + answer)`
//! nodes on realistically distributed boxes.
//!
//! An index has one of two shapes behind the same type:
//!
//! * **One level** ([`SpatialIndex::build`]): one tree over the items. This
//!   is the segment index of partitioning, the per-component region index
//!   that a [`ComponentComplex`](crate::ComponentComplex) builds over its
//!   own regions' boxes, in local ids, with the component, and carries
//!   across commits, and the component-box index of a view, which nesting
//!   resolution probes. That one is not bulk-loaded per view: it is a
//!   `TiledIndex`, which keeps the two center orders its packing was tiled
//!   by, and the next view's index renumbers them, merges the new
//!   components' boxes in by binary search and packs again, to the very
//!   tree a bulk load of the same boxes gives. No carried box is sorted
//!   again; a carried center is summed only where a binary search probes
//!   it.
//! * **Two levels** (`SpatialIndex::two_level`): the region index of a
//!   [`GlobalComplexView`](crate::GlobalComplexView)
//!   ([`crate::GlobalComplexView::region_bbox_index`]), assembled with the
//!   view from its component-box index on top and, below each component,
//!   that component's region index with its local→global id map.
//!   Assembling it costs one `Arc` clone and one id-map copy per component
//!   — no box is compared — so a commit sorts only the region boxes of the
//!   components it rebuilt. A probe
//!   descends the component tree, then each hit component's tree: every
//!   region's box lies inside its component's box, so the answer is the one
//!   a flat tree over all regions gives.
//!
//! Either shape answers in ascending item order and counts its probes
//! ([`SpatialIndex::probe_count`], shared by all clones) so benchmark
//! harnesses can report planner/partition work even on hosts where
//! wall-clock comparisons are noisy.

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

/// One packed STR tree over the boxes of an item slice.
#[derive(Debug)]
struct Tree {
    /// `(item id, box)` pairs in packed (STR) order.
    entries: Vec<(usize, BBox)>,
    /// Tree levels bottom-up: `levels[0]` are leaves over `entries`,
    /// `levels.last()` is the single root level (no level when empty).
    levels: Vec<Vec<Node>>,
}

impl Tree {
    fn build(items: &[Option<BBox>]) -> Tree {
        let mut entries: Vec<(usize, BBox)> = items
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|b| (i, b.clone())))
            .collect();

        // STR: sort by x-center, slice vertically, sort each slice by
        // y-center, pack consecutive runs into leaves. Centers are compared
        // via the (exact) coordinate sums; ties fall back to the item id so
        // the packing is deterministic in the input.
        entries.sort_by_cached_key(|(i, b)| (center_x(b), *i));
        let per_slice = slice_len(entries.len());
        for chunk in entries.chunks_mut(per_slice) {
            chunk.sort_by_cached_key(|(i, b)| (center_y(b), *i));
        }
        Tree::pack(entries)
    }

    /// The tree over `entries`, given in packed order: leaves of
    /// [`NODE_CAPACITY`] consecutive entries, and upper levels grouping
    /// consecutive nodes until a single root remains.
    fn pack(entries: Vec<(usize, BBox)>) -> Tree {
        if entries.is_empty() {
            return Tree { entries, levels: Vec::new() };
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
        Tree { entries, levels }
    }

    /// Call `found` with the id of every entry whose box passes `hit`, in
    /// tree order.
    fn visit(&self, hit: &impl Fn(&BBox) -> bool, mut found: impl FnMut(usize)) {
        let Some(root_level) = self.levels.len().checked_sub(1) else { return };
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
                        found(*id);
                    }
                }
            } else {
                stack.extend((node.start..node.end).map(|child| (level - 1, child)));
            }
        }
    }
}

/// The lower level of a two-level index: one component's region tree (in
/// local ids) and where the global ids of its local regions start in the
/// index's id table.
#[derive(Clone, Debug)]
struct Part {
    tree: Arc<Tree>,
    first_id: usize,
}

/// A static (bulk-loaded) spatial index over the bounding boxes of a fixed
/// item set; see the module docs for the role it plays in the pipeline and
/// for its two shapes.
///
/// Items are addressed by the index they had in the construction slice;
/// items passed as `None` (no geometry) are never reported. Probe results
/// are returned in ascending item order, so downstream consumers are
/// deterministic in the input regardless of tree shape. Clones share the
/// trees and the probe counter.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    /// Number of items the index was built over (including `None` slots).
    item_count: usize,
    /// Number of items that carry a box.
    entry_count: usize,
    /// The tree over the items (one level) or over the component boxes (two
    /// levels).
    top: Arc<Tree>,
    /// Two levels only, aligned with the ids of `top`: each component's
    /// region tree. Empty for a one-level index (and for a two-level index
    /// over no component, whose empty `top` answers alike).
    parts: Vec<Part>,
    /// Two levels only: the global id of every local item, part after part.
    ids: Vec<usize>,
    /// Number of probes answered (shared by clones; see
    /// [`SpatialIndex::probe_count`]).
    probes: Arc<AtomicU64>,
}

impl SpatialIndex {
    /// Bulk-load a one-level index over the boxes of an item slice (`None`
    /// items are indexed by position but never reported by probes).
    pub fn build(items: &[Option<BBox>]) -> SpatialIndex {
        SpatialIndex::one_level(Tree::build(items), items.len())
    }

    /// The one-level index of a tree over `item_count` items.
    fn one_level(top: Tree, item_count: usize) -> SpatialIndex {
        SpatialIndex {
            item_count,
            entry_count: top.entries.len(),
            top: Arc::new(top),
            parts: Vec::new(),
            ids: Vec::new(),
            probes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Do two one-level indexes hold the same `(item, box)` entries over
    /// the same number of items, however they are packed?
    pub(crate) fn same_entries(&self, other: &SpatialIndex) -> bool {
        fn sorted(index: &SpatialIndex) -> Vec<&(usize, BBox)> {
            let mut entries: Vec<&(usize, BBox)> = index.top.entries.iter().collect();
            entries.sort_unstable_by_key(|(id, _)| *id);
            entries
        }
        self.item_count == other.item_count && sorted(self) == sorted(other)
    }

    /// Assemble a two-level index over `item_count` items grouped into
    /// components: `components` indexes the component boxes, and `parts`
    /// yields, per component in the same order, the one-level index over
    /// its items' boxes in local ids together with the global id of each
    /// local item. Every item's box must lie inside its component's box, and
    /// every item must belong to exactly one component. Costs one `Arc`
    /// clone per component and one copy of the id maps; the probe counter
    /// starts at zero.
    pub(crate) fn two_level<'a>(
        item_count: usize,
        components: &SpatialIndex,
        parts: impl IntoIterator<Item = (&'a SpatialIndex, &'a [usize])>,
    ) -> SpatialIndex {
        debug_assert!(components.parts.is_empty(), "the component index has one level");
        let mut ids = Vec::with_capacity(item_count);
        let mut entry_count = 0;
        let parts: Vec<Part> = parts
            .into_iter()
            .map(|(local, local_ids)| {
                debug_assert!(local.parts.is_empty(), "a component's index has one level");
                debug_assert_eq!(local.item_count, local_ids.len(), "one global id per local item");
                entry_count += local.entry_count;
                let first_id = ids.len();
                ids.extend_from_slice(local_ids);
                Part { tree: Arc::clone(&local.top), first_id }
            })
            .collect();
        debug_assert_eq!(parts.len(), components.item_count, "one part per component");
        SpatialIndex {
            item_count,
            entry_count,
            top: Arc::clone(&components.top),
            parts,
            ids,
            probes: Arc::new(AtomicU64::new(0)),
        }
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
        self.entry_count
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

    /// One counted probe: the items of every box passing `hit`. `hit` must
    /// pass a box's cover whenever it passes the box, so a component whose
    /// box fails holds no answer.
    fn probe(&self, hit: impl Fn(&BBox) -> bool) -> Vec<usize> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        if self.parts.is_empty() {
            self.top.visit(&hit, |id| out.push(id));
        } else {
            self.top.visit(&hit, |c| {
                let part = &self.parts[c];
                part.tree.visit(&hit, |local| out.push(self.ids[part.first_id + local]));
            });
        }
        out.sort_unstable();
        out
    }
}

/// A one-level index over an item list that changes a little at a time,
/// together with the two center orders its STR packing was tiled by, so
/// that the index over the next list merges its new boxes into them instead
/// of sorting every box again. The view's index over the component boxes is
/// one ([`crate::GlobalComplexView`]).
///
/// The packing is exactly the one [`SpatialIndex::build`] makes over the
/// same boxes: both orders break ties by item id, and a slice's entries in
/// `by_y` order are its entries sorted by y-center.
#[derive(Clone, Debug)]
pub(crate) struct TiledIndex {
    index: SpatialIndex,
    /// The ids of the entries by `(x0 + x1, id)`, ascending: the order STR
    /// slices.
    by_x: Vec<usize>,
    /// The ids of the entries by `(y0 + y1, id)`, ascending: the order
    /// within a slice.
    by_y: Vec<usize>,
}

impl TiledIndex {
    /// The index over no item.
    pub(crate) fn empty() -> TiledIndex {
        TiledIndex { index: SpatialIndex::build(&[]), by_x: Vec::new(), by_y: Vec::new() }
    }

    /// The one-level index itself.
    pub(crate) fn index(&self) -> &SpatialIndex {
        &self.index
    }

    /// The index over a list of `item_count` items made from this one's:
    /// item `i` of this list is item `now_at[i]` of the new one (`None`:
    /// dropped), and `fresh` gives the new items that are not renumbered
    /// old ones, with their boxes. `now_at` must keep the old items' order,
    /// so that both center orders stay sorted when renumbered.
    ///
    /// Cost: `O(n)` moves to renumber the boxes and the two orders,
    /// `O(fresh · log n)` center sums and comparisons to merge the fresh
    /// items in, one pass to tile, and the covers of the packed nodes; no
    /// old box is sorted again.
    pub(crate) fn updated<'a>(
        &self,
        now_at: &[Option<usize>],
        fresh: impl IntoIterator<Item = (usize, &'a BBox)>,
        item_count: usize,
    ) -> TiledIndex {
        // Where each new item's box is: an entry of this index, or a fresh
        // one; the boxes themselves are copied once, into the new tree.
        let old_entries = &self.index.top.entries;
        let mut home: Vec<Option<&BBox>> = vec![None; item_count];
        for (old, b) in old_entries {
            if let Some(new) = now_at[*old] {
                home[new] = Some(b);
            }
        }
        let mut fresh_ids = Vec::new();
        for (id, b) in fresh {
            home[id] = Some(b);
            fresh_ids.push(id);
        }
        let box_of = |id: usize| home[id].expect("an entry has a box");
        let key = |center: fn(&BBox) -> Rational| move |id: usize| (center(box_of(id)), id);
        let by_x = merged_order(&self.by_x, now_at, &fresh_ids, key(center_x));
        let by_y = merged_order(&self.by_y, now_at, &fresh_ids, key(center_y));

        // Slice `by_x` into runs of `slice_len`, then deal `by_y` out to
        // the slices: each slice receives its entries in y order.
        let per_slice = slice_len(by_x.len());
        let mut slice_of = vec![0; item_count];
        for (at, &id) in by_x.iter().enumerate() {
            slice_of[id] = at / per_slice;
        }
        let mut next: Vec<usize> = (0..by_x.len()).step_by(per_slice).collect();
        let mut packed = vec![0; by_x.len()];
        for &id in &by_y {
            packed[next[slice_of[id]]] = id;
            next[slice_of[id]] += 1;
        }
        let entries = packed.into_iter().map(|id| (id, box_of(id).clone())).collect();
        let tree = Tree::pack(entries);
        TiledIndex { index: SpatialIndex::one_level(tree, item_count), by_x, by_y }
    }
}

/// A center order of ids renumbered by `now_at` (dropped items left out),
/// with the `fresh` ids merged in by `key`, the `(center, id)` it is sorted
/// by: each found by a binary search of what is left, so only `O(log n)`
/// keys are computed per fresh id.
fn merged_order(
    old: &[usize],
    now_at: &[Option<usize>],
    fresh: &[usize],
    key: impl Fn(usize) -> (Rational, usize),
) -> Vec<usize> {
    let mut kept = Vec::with_capacity(old.len());
    kept.extend(old.iter().filter_map(|&i| now_at[i]));
    let mut fresh: Vec<(Rational, usize)> = fresh.iter().map(|&id| key(id)).collect();
    fresh.sort_unstable();
    let mut merged = Vec::with_capacity(kept.len() + fresh.len());
    let mut rest = kept.as_slice();
    for (center, id) in fresh {
        let below = rest.partition_point(|&k| key(k) < (center, id));
        merged.extend_from_slice(&rest[..below]);
        merged.push(id);
        rest = &rest[below..];
    }
    merged.extend_from_slice(rest);
    debug_assert!(merged.windows(2).all(|w| key(w[0]) < key(w[1])), "the merged order is sorted");
    merged
}

/// The smallest box covering a nonempty box iterator.
fn cover<'a, I: Iterator<Item = &'a BBox>>(mut boxes: I) -> BBox {
    let first = boxes.next().expect("cover of a nonempty chunk").clone();
    boxes.fold(first, |acc, b| acc.union(b))
}

/// The exact sum of a box's two x coordinates: twice its x-center, the key
/// STR slices by.
fn center_x(b: &BBox) -> Rational {
    b.x0 + b.x1
}

/// The exact sum of a box's two y coordinates: twice its y-center, the key
/// STR orders a slice by.
fn center_y(b: &BBox) -> Rational {
    b.y0 + b.y1
}

/// How many entries one vertical slice of an STR packing of `n` entries
/// holds: `⌈√leaves⌉` slices of equal length, the last one shorter.
fn slice_len(n: usize) -> usize {
    let slices = (n.div_ceil(NODE_CAPACITY) as f64).sqrt().ceil() as usize;
    n.div_ceil(slices.max(1)).max(1)
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

    /// A component's box and its items' `(global id, box)` pairs in local
    /// order.
    type Component = (Option<BBox>, Vec<(usize, Option<BBox>)>);

    /// The two-level index over `components` next to the one-level index
    /// over the same items.
    fn two_level_and_flat(
        item_count: usize,
        components: &[Component],
    ) -> (SpatialIndex, SpatialIndex) {
        let boxes: Vec<Option<BBox>> = components.iter().map(|(b, _)| b.clone()).collect();
        let top = SpatialIndex::build(&boxes);
        let parts: Vec<(SpatialIndex, Vec<usize>)> = components
            .iter()
            .map(|(_, items)| {
                let boxes: Vec<Option<BBox>> = items.iter().map(|(_, b)| b.clone()).collect();
                (SpatialIndex::build(&boxes), items.iter().map(|&(id, _)| id).collect())
            })
            .collect();
        let nested = SpatialIndex::two_level(
            item_count,
            &top,
            parts.iter().map(|(index, ids)| (index, ids.as_slice())),
        );
        let mut flat = vec![None; item_count];
        for (id, b) in components.iter().flat_map(|(_, items)| items) {
            flat[*id] = b.clone();
        }
        (nested, SpatialIndex::build(&flat))
    }

    /// Every probe of a grid of boxes and points over `[-5, 45]²` answers
    /// alike on both indexes, each probe counted once.
    fn assert_same_probes(nested: &SpatialIndex, flat: &SpatialIndex) {
        assert_eq!((nested.len(), nested.entry_count()), (flat.len(), flat.entry_count()));
        let before = nested.probe_count();
        let mut probes = 0;
        for x in (-5..45).step_by(5) {
            for y in (-5..45).step_by(5) {
                let q = bbox_from_ints(x, y, x + 3, y + 7);
                assert_eq!(nested.bbox_neighbors(&q), flat.bbox_neighbors(&q), "box {q:?}");
                let p = Point::new(Rational::from_int(x), Rational::from_int(y));
                assert_eq!(nested.locate_point(&p), flat.locate_point(&p), "point {p:?}");
                probes += 2;
            }
        }
        assert_eq!(nested.probe_count(), before + probes, "one count per probe");
    }

    #[test]
    fn a_component_with_no_box_holds_no_answer() {
        let (nested, flat) = two_level_and_flat(
            4,
            &[
                (
                    Some(bbox_from_ints(0, 0, 12, 12)),
                    vec![
                        (0, Some(bbox_from_ints(0, 0, 8, 8))),
                        (1, Some(bbox_from_ints(4, 4, 12, 12))),
                    ],
                ),
                (None, vec![(2, None)]),
                (
                    Some(bbox_from_ints(20, 20, 30, 30)),
                    vec![(3, Some(bbox_from_ints(20, 20, 30, 30)))],
                ),
            ],
        );
        assert_eq!((nested.len(), nested.entry_count()), (4, 3));
        assert_eq!(nested.bbox_neighbors(&bbox_from_ints(-100, -100, 100, 100)), vec![0, 1, 3]);
        assert_same_probes(&nested, &flat);
    }

    #[test]
    fn boxless_regions_keep_their_global_ids_and_answers_ascend() {
        // Two components interleaving their global ids, each with a region
        // that has no box.
        let (nested, flat) = two_level_and_flat(
            5,
            &[
                (
                    Some(bbox_from_ints(0, 0, 20, 20)),
                    vec![
                        (0, Some(bbox_from_ints(0, 0, 10, 10))),
                        (2, None),
                        (4, Some(bbox_from_ints(5, 5, 20, 20))),
                    ],
                ),
                (
                    Some(bbox_from_ints(15, 15, 40, 40)),
                    vec![(1, None), (3, Some(bbox_from_ints(15, 15, 40, 40)))],
                ),
            ],
        );
        assert_eq!((nested.len(), nested.entry_count()), (5, 3));
        assert_eq!(nested.bbox_neighbors(&bbox_from_ints(16, 16, 17, 17)), vec![3, 4]);
        assert_eq!(nested.bbox_neighbors(&bbox_from_ints(0, 0, 40, 40)), vec![0, 3, 4]);
        assert_same_probes(&nested, &flat);
        // Clones share the counter.
        let before = nested.probe_count();
        nested.clone().bbox_neighbors(&bbox_from_ints(0, 0, 1, 1));
        assert_eq!(nested.probe_count(), before + 1);
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

    /// A carried index renumbers, drops and merges its items step after
    /// step, and every step packs the very tree a bulk load of the new item
    /// list packs: the same entries in the same order under the same
    /// covers. Items come and go at every position (so surviving ids shift
    /// both ways), some have no box, and centers tie often (ties fall back
    /// to the id).
    #[test]
    fn a_tiled_index_packs_what_a_bulk_load_packs() {
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = move |n: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(n)
        };
        let mut items: Vec<Option<BBox>> = Vec::new();
        let mut tiled = TiledIndex::empty();
        for step in 0..80 {
            let (mut now_at, mut next_items, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
            let mut old = items.iter().enumerate().peekable();
            while old.peek().is_some() || next(4) == 0 {
                if old.peek().is_some() && next(5) != 0 {
                    let (_, b) = old.next().expect("peeked");
                    let keep = next(8) != 0;
                    now_at.push(keep.then_some(next_items.len()));
                    if keep {
                        next_items.push(b.clone());
                    }
                    continue;
                }
                let id = next_items.len();
                let b = (next(6) != 0).then(|| {
                    let (x, y) = (next(40), next(40));
                    let (w, h) = (1 + next(6), 1 + next(6));
                    let mut b = bbox_from_ints(x, y, x + w, y + h);
                    if next(3) == 0 {
                        b.x1 = Rational::new(i128::from(2 * (x + w) + 1), 2);
                    }
                    b
                });
                if let Some(b) = &b {
                    fresh.push((id, b.clone()));
                }
                next_items.push(b);
            }
            tiled = tiled.updated(&now_at, fresh.iter().map(|(id, b)| (*id, b)), next_items.len());
            items = next_items;
            let built = SpatialIndex::build(&items);
            assert_eq!(tiled.index.len(), built.len(), "step {step}");
            assert_eq!(tiled.index.entry_count(), built.entry_count(), "step {step}");
            assert_eq!(format!("{:?}", tiled.index.top), format!("{:?}", built.top), "step {step}");
            assert!(tiled.index.same_entries(&built), "step {step}");
        }
        assert!(items.len() > 3 * NODE_CAPACITY, "the list grew past a few leaves: {}", items.len());
    }
}
