//! Partitioning of a spatial instance into independently buildable
//! interaction components.
//!
//! Two boundary segments *interact* when their axis-aligned bounding boxes
//! overlap — a cheap, conservative over-approximation of geometric
//! intersection (any two segments that actually meet have overlapping boxes).
//! The connected components of this interaction graph (segments of one region
//! are additionally linked to each other, since a region boundary is one
//! closed curve) partition the region set into groups that provably share no
//! vertex or edge of the arrangement: each group's sub-complex can be built
//! by an independent plane sweep and the results stitched together by
//! [`crate::assemble`].
//!
//! Components may still be *nested* (one group's geometry strictly inside a
//! face of another's, with no bounding-box contact between any pair of
//! segments); the assembly step resolves that containment. What partitioning
//! guarantees is the absence of 0-/1-cell interaction, which is all the
//! per-component sweep needs.

use crate::assemble::ComponentComplex;
use crate::index::SpatialIndex;
use crate::split::{instance_segments, TaggedSegment};
use crate::types::Sign;
use spatial_core::prelude::*;
use std::sync::Arc;

/// A closed axis-aligned bounding box in exact rational coordinates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BBox {
    /// Smallest x coordinate.
    pub x0: Rational,
    /// Smallest y coordinate.
    pub y0: Rational,
    /// Largest x coordinate.
    pub x1: Rational,
    /// Largest y coordinate.
    pub y1: Rational,
}

impl BBox {
    /// The bounding box of a segment.
    pub fn of_segment(s: &Segment) -> BBox {
        BBox {
            x0: s.a.x.min(s.b.x),
            y0: s.a.y.min(s.b.y),
            x1: s.a.x.max(s.b.x),
            y1: s.a.y.max(s.b.y),
        }
    }

    /// The bounding box of a region (of its boundary polygon).
    pub fn of_region(region: &Region) -> BBox {
        let (x0, y0, x1, y1) = region.bounding_box();
        BBox { x0, y0, x1, y1 }
    }

    /// The bounding box of a point set (`None` when empty).
    pub fn of_points(points: &[Point]) -> Option<BBox> {
        let (first, rest) = points.split_first()?;
        let mut out = BBox { x0: first.x, y0: first.y, x1: first.x, y1: first.y };
        for p in rest {
            out.x0 = out.x0.min(p.x);
            out.y0 = out.y0.min(p.y);
            out.x1 = out.x1.max(p.x);
            out.y1 = out.y1.max(p.y);
        }
        Some(out)
    }

    /// Do two closed boxes share at least one point? (Touching counts:
    /// segments meeting only at an endpoint must still interact.)
    pub fn intersects(&self, other: &BBox) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Does the closed box contain a point?
    pub fn contains_point(&self, p: &Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// Does the closed box contain the whole of `other` (non-strictly —
    /// shared edges count)? Containment of boxes is what bbox *nesting*
    /// means: `a.contains_box(b)` is a necessary condition for region `b`
    /// to be inside (or covered by, or equal to) region `a`, since a
    /// region's closure is bounded by its boundary's box.
    pub fn contains_box(&self, other: &BBox) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && other.x1 <= self.x1 && other.y1 <= self.y1
    }

    /// The smallest box containing both operands.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }
}

/// One connected component of the segment interaction graph, reported at
/// region granularity (every segment of a region lands in the same component,
/// so components partition the region set).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentGroup {
    /// Sorted indices (in instance name order) of the member regions.
    pub region_indices: Vec<usize>,
    /// Union of the member segments' bounding boxes.
    pub bbox: BBox,
}

/// Union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Join the sets of `a` and `b`; whether they were apart.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }
}

/// Partition the boundary segments of an instance into interaction
/// components, reported as disjoint region groups sorted by smallest member
/// index (so the output order is deterministic in the instance).
///
/// Cost: every segment of every region is enumerated and joined through
/// the index of [`partition_segments`] — `O(s (log s + d))` for `s` segments
/// of maximum interaction degree `d`, so proportional to the *database*.
/// This is the from-scratch reference: the product maintains the partition
/// incrementally ([`crate::update_components`]) and is differentially
/// tested against this function.
pub fn partition_instance(instance: &SpatialInstance) -> Vec<ComponentGroup> {
    partition_segments(&instance_segments(instance), instance.len())
}

/// Partition tagged segments into interaction components over `n_regions`
/// regions. See [`partition_instance`].
///
/// The interaction graph is discovered through a bulk-loaded
/// [`SpatialIndex`] over the segment boxes: one box-overlap probe per
/// segment reports exactly its interacting partners, `O(s (log s + d))` for
/// `s` segments of maximum interaction degree `d`. The pre-index x-interval
/// sweep is retained as [`partition_segments_sweep`], the differential
/// oracle of this path.
pub fn partition_segments(segments: &[TaggedSegment], n_regions: usize) -> Vec<ComponentGroup> {
    crate::counters::add_segments_partitioned(segments.len() as u64);
    let boxes: Vec<BBox> = segments.iter().map(|t| BBox::of_segment(&t.segment)).collect();
    let mut uf = union_regions(segments, n_regions);

    let indexed: Vec<Option<BBox>> = boxes.iter().cloned().map(Some).collect();
    let index = SpatialIndex::build(&indexed);
    for (i, b) in boxes.iter().enumerate() {
        for j in index.bbox_neighbors(b) {
            if j < i {
                uf.union(i, j);
            }
        }
    }

    collapse_groups(uf, segments, &boxes, n_regions)
}

/// A region under (re-)partition: its name and its extent.
pub(crate) type Member<'a> = (&'a str, &'a Region);

/// The outcome of [`repartition`].
pub(crate) struct Repartition<'a> {
    /// Indices into `prev` of the components that are still exactly
    /// components of the updated instance, ascending.
    pub carried: Vec<usize>,
    /// The interaction components of everything else, sorted by their
    /// smallest member name.
    pub groups: Vec<Group<'a>>,
}

/// One interaction component [`repartition`] re-derived.
pub(crate) struct Group<'a> {
    /// The member regions, sorted by name.
    pub members: Vec<Member<'a>>,
    /// Indices into `prev` of the components whose regions the group
    /// absorbed — broken ones for their survivors, hit ones whole —
    /// ascending: where its unchanged members were last built.
    pub bases: Vec<usize>,
}

/// Patch a partition instead of recomputing it: given the components `prev`
/// of some instance and the (distinct) names `changed` whose extent differs
/// between that instance and `instance` — inserted, re-shaped or removed —
/// find which of `prev` are still components of `instance` and partition
/// only the rest.
///
/// A component of `prev` is *broken* if it contains a changed name: its
/// surviving members may have fallen apart. Its own vertex labels split the
/// survivors into boundary-connected pieces ([`survivor_pieces`]): each
/// piece's boundaries form one connected curve, so it is one interaction
/// group whatever else changed, and re-enters as one unit like a hit
/// component below, represented by its contact segments: those whose boxes
/// meet new geometry or a segment of another piece, since two pieces whose
/// segment boxes meet without their boundaries touching are one group too
/// (with one representative segment if it has no contact segment). Among
/// the other components, one is *hit* if the box of one of its segments
/// meets the box of a segment of an inserted or re-shaped region; a hit
/// component stays connected (none of its segments moved) and joins
/// whichever new regions touch it, so it re-enters as one unit, represented
/// by just its contact segments. Every remaining component is carried: none
/// of its segments changed, none meets new geometry, and two segments that
/// both stayed put interact now iff they did before — segments of distinct
/// components never did, and those of one broken component's pieces are
/// the pieces' contact segments. One probe round therefore suffices, and
/// [`partition_segments`] over the units yields exactly the groups
/// [`partition_instance`] would report outside the carried components.
///
/// Cost outside the broken and hit components: one name-range test per
/// changed name and one box test per *component*. A broken component costs
/// one pass over its vertex labels (which stops once the survivors are
/// joined) and one box test per region; only a component that fell into
/// pieces probes its region index for the regions of the other pieces, and
/// tests their segment boxes pairwise.
pub(crate) fn repartition<'a, S: AsRef<str>>(
    prev: &'a [Arc<ComponentComplex>],
    instance: &'a SpatialInstance,
    changed: &'a [S],
) -> Repartition<'a> {
    let member = |name: &'a str| (name, instance.ext(name).expect("unchanged member survives"));

    // A unit is what `partition_segments` treats as one connected curve:
    // its members (sorted by name), the segments that speak for it, and the
    // component of `prev` it comes from, if any. A fresh region speaks with
    // its whole boundary.
    type Unit<'a> = (Vec<Member<'a>>, Vec<Segment>, Option<usize>);
    let fresh: Vec<Unit<'a>> = changed
        .iter()
        .filter_map(|name| Some((name.as_ref(), instance.ext(name.as_ref())?)))
        .map(|m| (vec![m], m.1.boundary().edges().collect(), None))
        .collect();
    let hull = fresh.iter().map(|(m, _, _)| BBox::of_region(m[0].1)).reduce(|a, b| a.union(&b));
    // The boxes of the new segments: the cold build (no `prev`) needs none.
    let fresh_boxes: Vec<BBox> = match prev {
        [] => Vec::new(),
        _ => fresh.iter().flat_map(|(_, s, _)| s.iter().map(BBox::of_segment)).collect(),
    };
    let contact = |component: &ComponentComplex, piece_of: &[usize], piece: usize| {
        contact_segments(component, piece_of, piece, hull.as_ref(), &fresh_boxes)
    };

    let mut units = fresh;
    let mut carried = Vec::with_capacity(prev.len());
    for (i, component) in prev.iter().enumerate() {
        let names = component.region_names();
        let broken = changed.iter().any(|c| {
            let c = c.as_ref();
            names[0].as_str() <= c
                && c <= names[names.len() - 1].as_str()
                && names.binary_search_by(|n| n.as_str().cmp(c)).is_ok()
        });
        if !broken {
            let contact = match component.bbox() {
                Some(bbox) if hull.as_ref().is_some_and(|h| h.intersects(bbox)) => {
                    contact(component, &vec![0; names.len()], 0)
                }
                _ => Vec::new(),
            };
            if contact.is_empty() {
                carried.push(i);
            } else {
                units.push((names.iter().map(|n| member(n)).collect(), contact, Some(i)));
            }
            continue;
        }
        let mut gone = vec![false; names.len()];
        for c in changed {
            if let Ok(r) = names.binary_search_by(|n| n.as_str().cmp(c.as_ref())) {
                gone[r] = true;
            }
        }
        let (piece_of, pieces) = survivor_pieces(component, &gone);
        for piece in 0..pieces {
            let members: Vec<usize> = (0..names.len()).filter(|&r| piece_of[r] == piece).collect();
            let mut segments = contact(component, &piece_of, piece);
            if segments.is_empty() {
                segments.push(component.segments.get(members[0])[0].segment);
            }
            units.push((members.iter().map(|&r| member(&names[r])).collect(), segments, Some(i)));
        }
    }

    // Units in order of their smallest name, so that the partitioner's
    // "sorted by smallest member index" is "sorted by smallest name".
    units.sort_by_key(|(members, _, _)| members[0].0);
    let tagged: Vec<TaggedSegment> = units
        .iter()
        .enumerate()
        .flat_map(|(u, (_, segs, _))| {
            segs.iter().map(move |&segment| TaggedSegment { segment, region: u })
        })
        .collect();
    let groups = partition_segments(&tagged, units.len())
        .into_iter()
        .map(|group| {
            let units = group.region_indices.iter().map(|&u| &units[u]);
            let mut members: Vec<Member<'a>> =
                units.clone().flat_map(|(m, _, _)| m.iter().copied()).collect();
            members.sort_by_key(|m| m.0);
            let mut bases: Vec<usize> = units.filter_map(|(_, _, base)| *base).collect();
            bases.sort_unstable();
            bases.dedup();
            Group { members, bases }
        })
        .collect();
    Repartition { carried, groups }
}

/// The boundary-connected pieces of the regions of `component` that `gone`
/// does not mark (at least one): each region's piece, `usize::MAX` for a
/// gone one, numbered in order of their first region, and how many there
/// are. Read off the component's own vertex labels, with no geometry: two
/// regions whose boundaries pass through one vertex are in one piece, and
/// the pass stops as soon as every survivor is.
///
/// A piece is one interaction group, since boundaries that share a vertex
/// have segment boxes that meet. Two pieces may be one group too, if their
/// segment boxes meet without their boundaries touching, which only
/// [`partition_segments`] finds: [`contact_segments`] hands it the segments
/// that may tell.
fn survivor_pieces(component: &ComponentComplex, gone: &[bool]) -> (Vec<usize>, usize) {
    let mut parts = gone.iter().filter(|&&g| !g).count();
    let mut uf = UnionFind::new(gone.len());
    for vertex in component.complex.vertex_labels.iter() {
        if parts <= 1 {
            break;
        }
        let mut on = vertex.iter().filter(|&&(r, s)| s == Sign::Boundary && !gone[r]);
        if let Some(&(first, _)) = on.next() {
            for &(r, _) in on {
                if uf.union(first, r) {
                    parts -= 1;
                }
            }
        }
    }
    let mut piece_of_root = vec![usize::MAX; gone.len()];
    let mut pieces = 0;
    let piece_of = (0..gone.len())
        .map(|r| {
            if gone[r] {
                return usize::MAX;
            }
            let piece = &mut piece_of_root[uf.find(r)];
            if *piece == usize::MAX {
                *piece = pieces;
                pieces += 1;
            }
            *piece
        })
        .collect();
    (piece_of, pieces)
}

/// The contact segments of the regions of `component` in piece `piece`
/// (`piece_of` numbers every local region's piece, `usize::MAX` for a gone
/// one): those whose boxes meet a box of `fresh_boxes`, the new segments,
/// whose union is `hull`, or the box of a segment of another piece. Read
/// from the segments and region boxes the component carries: a region whose
/// box misses the hull is tested only against the regions of other pieces
/// that the component's region index finds near it, and is skipped whole if
/// there are none.
fn contact_segments(
    component: &ComponentComplex,
    piece_of: &[usize],
    piece: usize,
    hull: Option<&BBox>,
    fresh_boxes: &[BBox],
) -> Vec<Segment> {
    let split = piece_of.iter().any(|&p| p != piece && p != usize::MAX);
    if hull.is_none() && !split {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (r, region_box) in component.region_bboxes.iter().enumerate() {
        let Some(region_box) = region_box.as_ref().filter(|_| piece_of[r] == piece) else { continue };
        let near_fresh = hull.is_some_and(|h| h.intersects(region_box));
        let others: Vec<&[TaggedSegment]> = match split {
            true => (component.region_index.bbox_neighbors(region_box).into_iter())
                .filter(|&q| piece_of[q] != piece && piece_of[q] != usize::MAX)
                .map(|q| component.segments.get(q))
                .collect(),
            false => Vec::new(),
        };
        if !near_fresh && others.is_empty() {
            continue;
        }
        out.extend(component.segments.get(r).iter().map(|t| t.segment).filter(|s| {
            let b = BBox::of_segment(s);
            let fresh = near_fresh
                && hull.is_some_and(|h| h.intersects(&b))
                && fresh_boxes.iter().any(|f| f.intersects(&b));
            fresh || others.iter().flat_map(|q| q.iter()).any(|t| BBox::of_segment(&t.segment).intersects(&b))
        }));
    }
    out
}

/// The pre-index interaction-graph construction: an x-interval sweep whose
/// active list holds every x-overlapping box. Retained as the differential
/// oracle of [`partition_segments`] — both must produce identical groups on
/// every input. Cost `O(s log s + s·w)` where `w` is the sweep width.
pub fn partition_segments_sweep(
    segments: &[TaggedSegment],
    n_regions: usize,
) -> Vec<ComponentGroup> {
    let s = segments.len();
    let boxes: Vec<BBox> = segments.iter().map(|t| BBox::of_segment(&t.segment)).collect();
    let mut uf = union_regions(segments, n_regions);

    // Interval sweep over x: segments whose x-ranges overlap are candidates;
    // union those whose y-ranges overlap too.
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&a, &b| boxes[a].x0.cmp(&boxes[b].x0).then_with(|| a.cmp(&b)));
    let mut active: Vec<usize> = Vec::new();
    for &i in &order {
        active.retain(|&j| boxes[j].x1 >= boxes[i].x0);
        for &j in &active {
            if boxes[i].y0 <= boxes[j].y1 && boxes[j].y0 <= boxes[i].y1 {
                uf.union(i, j);
            }
        }
        active.push(i);
    }

    collapse_groups(uf, segments, &boxes, n_regions)
}

/// All segments of one region are connected (a region boundary is a single
/// closed curve): link them through the first segment seen per region.
fn union_regions(segments: &[TaggedSegment], n_regions: usize) -> UnionFind {
    let mut uf = UnionFind::new(segments.len());
    let mut first_of_region: Vec<Option<usize>> = vec![None; n_regions];
    for (i, t) in segments.iter().enumerate() {
        match first_of_region[t.region] {
            None => first_of_region[t.region] = Some(i),
            Some(f) => {
                uf.union(f, i);
            }
        }
    }
    uf
}

/// Collapse a fully unioned segment forest to region groups keyed by the
/// component root, in one pass over the segments: a group per root and a
/// region per first segment, found by marker vectors.
fn collapse_groups(
    mut uf: UnionFind,
    segments: &[TaggedSegment],
    boxes: &[BBox],
    n_regions: usize,
) -> Vec<ComponentGroup> {
    const NONE: usize = usize::MAX;
    let mut groups: Vec<ComponentGroup> = Vec::new();
    let mut group_of_root = vec![NONE; segments.len()];
    // All of a region's segments share a root, so the first one places it.
    let mut placed = vec![false; n_regions];
    for (i, t) in segments.iter().enumerate() {
        let root = uf.find(i);
        if group_of_root[root] == NONE {
            group_of_root[root] = groups.len();
            groups.push(ComponentGroup { region_indices: Vec::new(), bbox: boxes[i].clone() });
        }
        let group = &mut groups[group_of_root[root]];
        if !std::mem::replace(&mut placed[t.region], true) {
            group.region_indices.push(t.region);
        }
        group.bbox = group.bbox.union(&boxes[i]);
    }

    for group in &mut groups {
        group.region_indices.sort_unstable();
    }
    groups.sort_by_key(|g| g.region_indices[0]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;

    #[test]
    fn disjoint_clusters_split() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 2, 2)),
            ("B", Region::rect_from_ints(1, 1, 3, 3)),
            ("C", Region::rect_from_ints(50, 50, 52, 52)),
        ]);
        let groups = partition_instance(&inst);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].region_indices, vec![0, 1]);
        assert_eq!(groups[1].region_indices, vec![2]);
    }

    #[test]
    fn overlapping_fixture_is_one_group() {
        let groups = partition_instance(&fixtures::fig_1c());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].region_indices, vec![0, 1]);
    }

    #[test]
    fn strictly_nested_rectangles_are_separate_groups() {
        // Inner square deep inside the outer one: no segment boxes touch, so
        // partitioning keeps them apart; assembly resolves the nesting.
        let inst = SpatialInstance::from_regions([
            ("Inner", Region::rect_from_ints(40, 40, 60, 60)),
            ("Outer", Region::rect_from_ints(0, 0, 100, 100)),
        ]);
        let groups = partition_instance(&inst);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn touching_regions_share_a_group() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(4, 1, 8, 3)),
        ]);
        assert_eq!(partition_instance(&inst).len(), 1);
    }

    #[test]
    fn empty_instance_has_no_groups() {
        assert!(partition_instance(&SpatialInstance::new()).is_empty());
    }

    #[test]
    fn index_partition_matches_sweep_oracle() {
        // The indexed interaction-graph construction and the retained
        // x-interval sweep must produce identical groups.
        let mut instances = vec![
            SpatialInstance::new(),
            fixtures::fig_1c(),
            SpatialInstance::from_regions([
                ("A", Region::rect_from_ints(0, 0, 2, 2)),
                ("B", Region::rect_from_ints(1, 1, 3, 3)),
                ("C", Region::rect_from_ints(50, 50, 52, 52)),
                ("D", Region::rect_from_ints(51, 40, 53, 51)),
            ]),
        ];
        // A grid of touching squares: many segment-box contacts, one group.
        let mut grid = SpatialInstance::new();
        for r in 0..6i64 {
            for c in 0..6i64 {
                grid.insert(
                    format!("G{r}{c}"),
                    Region::rect_from_ints(4 * c, 4 * r, 4 * c + 4, 4 * r + 4),
                );
            }
        }
        instances.push(grid);
        for (k, inst) in instances.iter().enumerate() {
            let segments = instance_segments(inst);
            assert_eq!(
                partition_segments(&segments, inst.len()),
                partition_segments_sweep(&segments, inst.len()),
                "instance {k}"
            );
        }
    }

    /// The one component `regions` form, built from scratch, and the mask
    /// of its local regions named in `gone`.
    fn component_without(
        regions: &[(&str, Region)],
        gone: &[&str],
    ) -> (ComponentComplex, Vec<bool>) {
        let instance = SpatialInstance::from_regions(regions.iter().cloned());
        let groups = partition_instance(&instance);
        assert_eq!(groups.len(), 1, "the regions form one component");
        let component = crate::build_group_component(&instance, &groups[0]);
        let mask = component.region_names().iter().map(|n| gone.contains(&n.as_str())).collect();
        (component, mask)
    }

    #[test]
    fn survivor_pieces_read_shared_vertices_only() {
        let row = [
            ("A", Region::rect_from_ints(0, 0, 12, 10)),
            ("B", Region::rect_from_ints(10, 0, 22, 10)),
            ("C", Region::rect_from_ints(20, 0, 32, 10)),
            ("D", Region::rect_from_ints(5, 5, 28, 20)),
        ];
        let none = usize::MAX;
        // D overlaps all three: without B, A and C still meet through it.
        let (component, gone) = component_without(&row, &["B"]);
        assert_eq!(survivor_pieces(&component, &gone), (vec![0, none, 0, 0], 1));
        // Without D and B, nothing links A and C.
        let (component, gone) = component_without(&row, &["B", "D"]);
        assert_eq!(survivor_pieces(&component, &gone), (vec![0, none, 1, none], 2));
        // One survivor is one piece.
        let (component, gone) = component_without(&row, &["A", "B", "D"]);
        assert_eq!(survivor_pieces(&component, &gone), (vec![none, none, 0, none], 1));

        // Parallel slanted edges: boxes that meet, boundaries that do not.
        let slants = [
            ("A", Region::polygon_from_ints(&[(0, 0), (10, 10), (0, 10)]).unwrap()),
            ("B", Region::polygon_from_ints(&[(3, 0), (13, 0), (13, 10)]).unwrap()),
            ("G", Region::rect_from_ints(-2, 4, 15, 6)),
        ];
        let (component, gone) = component_without(&slants, &["G"]);
        let (piece_of, pieces) = survivor_pieces(&component, &gone);
        assert_eq!((piece_of.as_slice(), pieces), (&[0, 1, none][..], 2), "boundaries apart");
        assert_eq!(
            partition_instance(&SpatialInstance::from_regions(slants[..2].iter().cloned())).len(),
            1
        );
        // Their contact segments, the slanted pair among them, tell the
        // partitioner that the two pieces are one group.
        let contact = |piece| contact_segments(&component, &piece_of, piece, None, &[]);
        assert!(contact(0).contains(&seg(0, 0, 10, 10)), "{:?}", contact(0));
        assert!(contact(1).contains(&seg(3, 0, 13, 10)) || contact(1).contains(&seg(13, 10, 3, 0)));
    }

    #[test]
    fn bbox_predicates() {
        let a = BBox::of_segment(&seg(0, 0, 4, 2));
        let b = BBox::of_segment(&seg(4, 2, 6, 0));
        let c = BBox::of_segment(&seg(10, 10, 12, 12));
        assert!(a.intersects(&b), "touching at a corner counts");
        assert!(!a.intersects(&c));
        assert!(a.contains_point(&pt(2, 1)));
        assert!(!a.contains_point(&pt(5, 1)));
        let u = a.union(&c);
        assert!(u.contains_point(&pt(7, 7)));
    }
}
