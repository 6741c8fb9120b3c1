//! Assembly of per-component sub-complexes into the global
//! [`CellComplex`].
//!
//! The [`crate::partition`] step guarantees that different components share
//! no vertex or edge of the arrangement, so the global complex is the
//! disjoint union of the component complexes *except* for the 2-cells: a
//! whole component may sit inside a bounded face of another (strict nesting
//! without bounding-box contact), and the unbounded faces of all root
//! components are one and the same global exterior face. Assembly therefore:
//!
//! 1. locates every component in the face structure of the others: each
//!    candidate whose box holds a representative point finds the bounded
//!    face holding it by crossing parity over its edges
//!    (`ComponentComplex::face_containing`), and of the candidates that
//!    hold it the innermost is the one whose box the others contain —
//!    distinct components never touch, so their enclosing cycles nest, and
//!    so do their boxes (`locate_components`);
//! 2. merges each nested component's local exterior face into its parent
//!    face (and all root components' exteriors into the global exterior),
//!    extending the parent's boundary-edge set with the component's outer
//!    boundary;
//! 3. widens every cell label from the component's local region ids to
//!    global ones and joins it with the component's inherited entries: the
//!    regions whose interior encloses the component, read off the parent
//!    face's label, resolved parents-before-children over the nesting forest.
//!    Every other foreign region has no entry: the cell is exterior to it.
//!
//! A [`ComponentComplex`] is immutable and shared behind an
//! `Arc` by the component cache in `topodb`: re-assembling
//! after a localized update reuses every untouched component unchanged.
//! A touched component is rebuilt ([`update_components`]), but it carries
//! the ranked split of its build: the rebuild sweeps only the segments near
//! a new or a vanished segment, together with their cutters, carries every
//! other cut set as ranks from the components its group absorbed, and
//! merges their point tables with the re-split's points instead of sorting
//! them again (`build_group`).
//!
//! [`assemble_components`] is the *copying* assembly: it materializes a flat
//! [`CellComplex`] in `O(total cells)`. Its zero-copy, index-identical
//! counterpart is [`GlobalComplexView`](crate::GlobalComplexView), which
//! performs steps 1–3 symbolically and serves cells through the
//! [`ComplexRead`] translation layer; both build on the same nesting
//! computation (`locate_components`), which probes the one index over the
//! component boxes of the assembly: bulk-loaded by the copying assembly
//! (`component_index`), carried from view to view by the zero-copy one.

use crate::builder::build_local;
use crate::complex::{CellComplex, ClosureSlots, ComplexRead};
use crate::index::SpatialIndex;
use crate::partition::{repartition, BBox, ComponentGroup, Member, Repartition};
use crate::runs::Runs;
use crate::split::{resplit, Carried, Pieces, RankedSplit, TaggedSegment};
use crate::types::*;
use spatial_core::polygon::ray_crosses;
use spatial_core::prelude::*;
use std::sync::Arc;

/// The independently built cell complex of one interaction component,
/// together with the geometric data the assembly step needs to embed it into
/// the global complex, its input segments and the cut sets of their split,
/// and the read-path tables it determines alone: each region's box, its
/// interior faces and the index over the boxes.
///
/// All three are outputs of the build: a region's box is the union of its
/// input segments' boxes, which the split computes anyway, its interior
/// faces are the inversion of the final face labels (`builder::build_local`),
/// and the index is bulk-loaded over the boxes. A fresh snapshot's first
/// read therefore scans no edge and no face label of a rebuilt component,
/// and builds nothing. Nothing a build or an assembly reads is lazy: a
/// nesting test reads its edges and polylines as they are
/// (`face_containing`). The one exception is its complex's closure slot per
/// region ([`ComplexGeometry::closure_slot`](crate::ComplexGeometry::closure_slot)),
/// which only a query fills: a region's edges and vertices are a walk of
/// its faces that most regions of an epoch never need, and the component
/// is the one owner whose lifetime is exactly that of the walk's inputs,
/// so a carried component carries its walks and a rebuilt one starts with
/// none.
///
/// The point table and the ranked cut sets are the output of the
/// component's split, kept so that the next build of the component carries
/// the cut sets of every segment nothing near changed, as ranks, instead of
/// sweeping them again, and merges the points they cite into its own table
/// instead of sorting them again ([`update_components`]); the segments tell
/// that build where a removed region's old geometry was.
///
/// Everything here is keyed by local ids, so a component carried across a
/// commit — pointer-identically, behind its `Arc` — carries it, and only
/// rebuilt components pay for it again. What depends on the rest of the
/// database (global id offsets, nesting parents, inherited labels) is
/// per-epoch glue on the [`GlobalComplexView`](crate::GlobalComplexView).
#[derive(Clone, Debug)]
pub struct ComponentComplex {
    pub(crate) complex: CellComplex,
    /// The union of the region boxes (`None` for a component with no
    /// segments).
    pub(crate) bbox: Option<BBox>,
    /// Per local region: the bounding box of its input segments, which is
    /// that of its boundary edges (`None` for a region with no segment).
    pub(crate) region_bboxes: Vec<Option<BBox>>,
    /// Run `r` holds the bounded local faces interior to local region `r`,
    /// ascending.
    pub(crate) region_faces: Runs<FaceId>,
    /// The component's segments, one run per local region: its boundary
    /// edges, regions ascending. The flat buffer is the build order.
    pub(crate) segments: Runs<TaggedSegment>,
    /// The point table of the split: its distinct cut points, ascending,
    /// each cited by at least one cut set. A build from scratch takes the
    /// sweep's event order as it is; a rebuild merges the points its carried
    /// runs cite with those the re-split's runs cite (`split::resplit`).
    /// The build read the complex's vertex points and polylines from it, and
    /// its first entry is [`rep_point`](Self::rep_point).
    pub(crate) points: Vec<Point>,
    /// The cut sets of the segments, in build order, as ranks into `points`:
    /// local region `r`'s are runs `segments.range(r)`.
    pub(crate) cuts: Runs<u32>,
    /// The index over `region_bboxes`, in local ids: the lower level of the
    /// view's two-level region index.
    pub(crate) region_index: SpatialIndex,
}

impl ComponentComplex {
    /// The bounded local face that holds `p`, a point on none of the
    /// component's edges, or `None` if the exterior face does.
    ///
    /// One pass over the edges: an edge whose polyline the `+x` ray from `p`
    /// crosses an odd number of times ([`ray_crosses`], each polyline piece
    /// its own supporting line) toggles both of its faces. A face ends odd
    /// iff the ray crosses its boundary an odd number of times, that is iff
    /// `p` and the far end of the ray lie on different sides of it: either
    /// the bounded face that holds `p` and the exterior face are odd, or no
    /// face is.
    pub(crate) fn face_containing(&self, p: &Point) -> Option<FaceId> {
        let cx = &self.complex;
        let mut odd = vec![false; cx.face_count()];
        for (edge, line) in cx.edges.iter().zip(cx.polylines.iter()) {
            let crossings = line.windows(2).filter(|s| ray_crosses(p, &s[0], &s[1], (&s[0], &s[1])));
            if crossings.count() % 2 == 1 {
                odd[edge.left_face.0] ^= true;
                odd[edge.right_face.0] ^= true;
            }
        }
        cx.face_ids().find(|&f| odd[f.0] && f != cx.exterior)
    }

    /// The point nesting resolution locates the component by: its least
    /// cut point, the first entry of its point table, which is always an
    /// input endpoint (`None` for a component with no segments).
    pub(crate) fn rep_point(&self) -> Option<Point> {
        self.points.first().copied()
    }

    /// The local id of the region `name`, if it is one of the component's.
    fn local_region(&self, name: &str) -> Option<usize> {
        self.region_names().binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// The cut sets of local region `r`'s segments, in boundary order, as
    /// ranks into the point table.
    pub(crate) fn region_cuts(&self, r: usize) -> impl Iterator<Item = &[u32]> {
        self.segments.range(r).map(|s| self.cuts.get(s))
    }

    /// The component's local cell complex (labels cover only the component's
    /// own regions).
    pub fn complex(&self) -> &CellComplex {
        &self.complex
    }

    /// The region names of this component, in sorted order.
    pub fn region_names(&self) -> &[String] {
        self.complex.region_names()
    }

    /// The bounding box of the component's geometry (`None` for a component
    /// with no segments).
    pub fn bbox(&self) -> Option<&BBox> {
        self.bbox.as_ref()
    }
}

/// Build the sub-complex of one partition group of an instance on the
/// calling thread, sweeping every segment.
pub fn build_group_component(
    instance: &SpatialInstance,
    group: &ComponentGroup,
) -> ComponentComplex {
    let members = group_members(instance, &instance.names(), group);
    build_group(&members, &[], &[])
}

/// The regions of a partition group of `instance`, whose sorted name list
/// is `names`.
pub(crate) fn group_members<'a>(
    instance: &'a SpatialInstance,
    names: &[&'a str],
    group: &ComponentGroup,
) -> Vec<Member<'a>> {
    group
        .region_indices
        .iter()
        .map(|&i| (names[i], instance.ext(names[i]).expect("group region exists")))
        .collect()
}

/// The boundary segments of `members`, tagged with their local region ids,
/// one run per member; the flat buffer is the build order.
pub(crate) fn group_segments(members: &[Member<'_>]) -> Runs<TaggedSegment> {
    let edges = members.iter().map(|(_, region)| region.boundary().len()).sum();
    let mut segments = Runs::with_capacity(members.len(), edges);
    for (local, (_, region)) in members.iter().enumerate() {
        for segment in region.boundary().edges() {
            segments.push_item(TaggedSegment { segment, region: local });
        }
        segments.close();
    }
    segments
}

/// The one component build: gather the members' boundary segments, split
/// them at their mutual intersections into a ranked split (a point table
/// and the cut sets as ranks into it), merge the pieces by rank
/// (`split::Pieces`), and run the local pipeline over the pieces, all on the
/// calling thread. `members` is sorted by name.
///
/// `bases` are the components the group absorbed and `changed` the names
/// whose extent changed since: a member that is in a base and not changed
/// has the same segments there, whose ranked cut sets the split carries over
/// wherever no fresh segment and no segment of a changed region of a base
/// comes near (`split::resplit`), and the new point table is the bases'
/// still-cited points merged with the re-split's. With no bases every
/// segment is fresh, and the split is one sweep of all of them, its table
/// in event order.
pub(crate) fn build_group(
    members: &[Member<'_>],
    bases: &[&ComponentComplex],
    changed: &[&str],
) -> ComponentComplex {
    let local_names = members.iter().map(|(name, _)| name.to_string()).collect();
    let segments = group_segments(members);
    let all = segments.items();
    let boxes: Vec<BBox> = all.iter().map(|t| BBox::of_segment(&t.segment)).collect();
    let region_bboxes: Vec<Option<BBox>> =
        (0..segments.len()).map(|r| union_of(&boxes[segments.range(r)])).collect();
    let bbox = union_of(region_bboxes.iter().flatten());

    let mut carried: Vec<Option<Carried<'_>>> = Vec::with_capacity(all.len());
    for (m, (name, _)) in members.iter().enumerate() {
        let end = segments.range(m).end;
        let base = bases.iter().enumerate().find_map(|(i, b)| Some((i, b.local_region(name)?)));
        match base.filter(|_| !changed.contains(name)) {
            Some((i, r)) => {
                carried.extend(bases[i].region_cuts(r).map(|ranks| Some(Carried { base: i, ranks })))
            }
            None => carried.resize(end, None),
        }
        debug_assert_eq!(carried.len(), end, "a region keeps its segments");
    }
    // The old segments of the bases' changed regions.
    let gone: Vec<BBox> = bases
        .iter()
        .flat_map(|b| {
            let names = b.region_names().iter().enumerate();
            let changed_regions = names.filter(|(_, n)| changed.contains(&n.as_str()));
            changed_regions.flat_map(|(r, _)| b.segments.get(r))
        })
        .map(|t| BBox::of_segment(&t.segment))
        .collect();

    let tables: Vec<&[Point]> = bases.iter().map(|b| b.points.as_slice()).collect();
    let split = resplit(all, &boxes, &carried, &tables, &gone);
    let (complex, region_faces) = build_local(local_names, &Pieces::new(all, &split));
    let RankedSplit { points, cuts } = split;
    let region_index = SpatialIndex::build(&region_bboxes);
    ComponentComplex {
        complex,
        bbox,
        region_bboxes,
        region_faces,
        segments,
        points,
        cuts,
        region_index,
    }
}

/// The union of `boxes` (`None` if there are none).
fn union_of<'a>(boxes: impl IntoIterator<Item = &'a BBox>) -> Option<BBox> {
    boxes.into_iter().cloned().reduce(|a, b| a.union(&b))
}

/// Fill the slots left empty with `build(i)` for slot `i` — up to
/// [`crate::parallel::available_threads`] components at a time, each built
/// serially by one worker — and return every slot's component together with
/// how many were built.
fn fill_slots<F>(
    mut slots: Vec<Option<Arc<ComponentComplex>>>,
    build: F,
) -> (Vec<Arc<ComponentComplex>>, usize)
where
    F: Fn(usize) -> ComponentComplex + Sync,
{
    let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    if !missing.is_empty() {
        let threads = crate::parallel::available_threads();
        let built =
            crate::parallel::map_indexed(missing.len(), threads, |j| Arc::new(build(missing[j])));
        for (j, component) in built.into_iter().enumerate() {
            slots[missing[j]] = Some(component);
        }
    }
    let components = slots.into_iter().map(|s| s.expect("every slot filled")).collect();
    (components, missing.len())
}

/// The outcome of [`build_components_with_reuse`]: the partition's
/// per-group sorted region-name keys and the corresponding component
/// sub-complexes, both in partition order, plus how many components had to
/// be swept from scratch (the rest came out of `reuse` pointer-identically).
pub struct ComponentSet {
    /// Sorted region-name set of each partition group, in partition order.
    pub keys: Vec<Vec<String>>,
    /// The component sub-complex of each group, aligned with `keys`.
    pub components: Vec<Arc<ComponentComplex>>,
    /// How many entries of `components` were swept from scratch.
    pub rebuilt: usize,
}

/// Partition `instance` from scratch and produce every component
/// sub-complex, asking `reuse` for an already-built component first:
/// `reuse(key)` receives the group's sorted region-name set and may return a
/// previously built component for it (which is used as-is,
/// pointer-identically — the caller guarantees it matches the group's
/// current geometry). Groups `reuse` declines are swept from scratch.
///
/// This is the from-scratch reference of incremental maintenance: it pays
/// for the whole database ([`crate::partition_instance`]) whatever the
/// commit touched. `topodb` calls [`update_components`] instead, which is
/// differentially tested against this function.
pub fn build_components_with_reuse<F>(instance: &SpatialInstance, reuse: F) -> ComponentSet
where
    F: Fn(&[String]) -> Option<Arc<ComponentComplex>> + Sync,
{
    let names = instance.names();
    let groups: Vec<Vec<Member<'_>>> = crate::partition_instance(instance)
        .iter()
        .map(|group| group_members(instance, &names, group))
        .collect();
    let keys: Vec<Vec<String>> =
        groups.iter().map(|g| g.iter().map(|(name, _)| name.to_string()).collect()).collect();
    let slots = keys.iter().map(|key| reuse(key)).collect();
    let (components, rebuilt) = fill_slots(slots, |i| build_group(&groups[i], &[], &[]));
    ComponentSet { keys, components, rebuilt }
}

/// The outcome of [`update_components`].
pub struct ComponentUpdate {
    /// The component sub-complexes of the updated instance, in partition
    /// order (ascending smallest member name). A component's key is its
    /// own [`ComponentComplex::region_names`].
    pub components: Vec<Arc<ComponentComplex>>,
    /// Aligned with `components`: the index in `prev` of a component that
    /// was carried over, `None` for one that was rebuilt or hinted.
    pub carried_from: Vec<Option<usize>>,
    /// How many entries of `components` were rebuilt (the rest were
    /// carried over from `prev` or supplied by `hint`).
    pub rebuilt: usize,
}

/// Incremental maintenance of the component set: given the components
/// `prev` of some instance (in partition order) and the distinct names
/// `changed` whose extent differs between that instance and `instance` —
/// inserted, re-shaped or removed — produce the components of `instance`.
///
/// Every component of `prev` that contains no changed name and whose
/// segments meet no new geometry is carried over pointer-identically,
/// without its segments, names or coordinates being looked at (the
/// partition patch in `partition.rs` spends one box test on it). Only the
/// remaining regions are partitioned: a component a new segment touches,
/// or one that lost or re-shaped a member but whose survivors its vertex
/// labels still connect, enters as one unit of its segments near the
/// change, and only the survivors of a component that may have fallen
/// apart enter one region at a time. Each resulting group is offered
/// to `hint` by its members (name and region, ascending by name, borrowed:
/// a hint that declines costs no allocation) — which may return an
/// already-built component for exactly those members, guaranteed by the
/// caller to match their current geometry — before being rebuilt under the
/// same fan-out as
/// [`build_components_with_reuse`]. A rebuild re-splits only the
/// neighbourhood of the change: it copies the cut sets of every segment of
/// an unchanged member whose box meets no fresh segment and no segment of a
/// changed region, from the component of `prev` it was built in, and
/// sweeps the rest (`build_group`). The components it yields are those a
/// sweep from scratch yields, carried cut sets included.
///
/// The cold build is the degenerate update: no `prev`, every name changed.
/// The result always equals what [`build_components_with_reuse`] produces
/// on `instance` — same keys in the same order, the same components carried
/// — which `tests/incremental_partition.rs` checks step by step.
pub fn update_components<S, F>(
    prev: &[Arc<ComponentComplex>],
    instance: &SpatialInstance,
    changed: &[S],
    hint: F,
) -> ComponentUpdate
where
    S: AsRef<str>,
    F: Fn(&[(&str, &Region)]) -> Option<Arc<ComponentComplex>>,
{
    let Repartition { carried, groups } = repartition(prev, instance, changed);
    let changed: Vec<&str> = changed.iter().map(AsRef::as_ref).collect();
    let slots = groups.iter().map(|g| hint(&g.members)).collect();
    let (fresh, rebuilt) = fill_slots(slots, |i| {
        let bases: Vec<&ComponentComplex> = groups[i].bases.iter().map(|&b| &*prev[b]).collect();
        build_group(&groups[i].members, &bases, &changed)
    });

    // Both lists ascend by smallest member name; so must their merge.
    let mut components = Vec::with_capacity(carried.len() + fresh.len());
    let mut carried_from = Vec::with_capacity(components.capacity());
    let mut fresh = fresh.into_iter().peekable();
    for &i in &carried {
        while let Some(f) = fresh.next_if(|f| f.region_names()[0] < prev[i].region_names()[0]) {
            components.push(f);
            carried_from.push(None);
        }
        components.push(Arc::clone(&prev[i]));
        carried_from.push(Some(i));
    }
    carried_from.resize(carried_from.len() + fresh.len(), None);
    components.extend(fresh);
    ComponentUpdate { components, carried_from, rebuilt }
}

/// The entries of a component-local label in global region ids, joined with
/// the entries the component inherits from its parent face. The two
/// ascending lists are disjoint (no inherited region belongs to the
/// component) and the map ascends, so they are merged in `O(entries)`.
pub(crate) fn widened<'a>(
    inherited: &'a Label,
    local: &'a [(usize, Sign)],
    region_map: &'a [usize],
) -> impl Iterator<Item = (usize, Sign)> + 'a {
    merge_entries(inherited.iter(), local.iter().map(|&(r, s)| (region_map[r], s)))
}

/// A component-local label widened to global region ids ([`widened`]).
pub(crate) fn widen_label(inherited: &Label, local: &[(usize, Sign)], region_map: &[usize]) -> Label {
    Label::from_entries(widened(inherited, local, region_map).collect::<Vec<_>>())
}

/// Every component's inherited label, parents before children along
/// `topo` ([`nesting_topo_order`]): the label of the face it is nested in
/// (`parents`) in global region ids, which holds only the regions whose
/// interior encloses the component; a root inherits nothing.
pub(crate) fn inherited_labels(
    components: &[Arc<ComponentComplex>],
    parents: &[Option<(usize, FaceId)>],
    topo: &[usize],
    region_map: &Runs<usize>,
) -> Vec<Label> {
    let mut inherited: Vec<Label> = vec![Label::default(); components.len()];
    for &c in topo {
        if let Some((d, f)) = parents[c] {
            let parent = components[d].complex.face_labels.get(f.0);
            inherited[c] = widen_label(&inherited[d], parent, region_map.get(d));
        }
    }
    inherited
}

/// Append to `maps` one run: the position of every name of `local` in
/// `global` (both sorted, `local` a subset), a component's local→global
/// region index map.
pub(crate) fn locate_names(global: &[String], local: &[String], maps: &mut Runs<usize>) {
    let mut next = 0;
    for name in local {
        // A component's names tend to be neighbours in the global order: try
        // the next slot before searching the rest.
        let at = if global.get(next) == Some(name) {
            next
        } else {
            next + global[next..].binary_search(name).expect("component region is in the global name set")
        };
        maps.push_item(at);
        next = at + 1;
    }
    maps.close();
}

/// How the ranks of the names that stay move from one sorted name list to
/// the next: each name inserted below a name moves it up by one, each
/// removed below it moves it down by one. A carried component's
/// local→global map is its old one with every rank moved so
/// ([`RankShift::push_shifted`]): integer work, with no name compared.
#[derive(Default)]
pub(crate) struct RankShift {
    /// `(old rank, shift)`, ascending by rank: the shift of every old rank
    /// from this one up to the next step's.
    steps: Vec<(usize, isize)>,
}

impl RankShift {
    /// The shift from the sorted list `old` to the sorted list `new`, which
    /// differ at most in the names `changed` (in any order, repeats
    /// allowed). Costs two binary searches of the lists per changed name.
    pub(crate) fn new<S: AsRef<str>>(old: &[String], new: &[String], changed: &[S]) -> RankShift {
        if old.is_empty() {
            return RankShift::default();
        }
        let mut names: Vec<&str> = changed.iter().map(AsRef::as_ref).collect();
        names.sort_unstable();
        names.dedup();
        let mut moves: Vec<(usize, isize)> = Vec::new();
        for name in names {
            let search = |list: &[String]| list.binary_search_by(|n| n.as_str().cmp(name));
            match (search(old), search(new)) {
                // Removed: the ranks above it move down.
                (Ok(r), Err(_)) => moves.push((r + 1, -1)),
                // Inserted between old ranks `at - 1` and `at`.
                (Err(at), Ok(_)) => moves.push((at, 1)),
                _ => {}
            }
        }
        moves.sort_unstable();
        let mut shift = 0;
        let steps = moves.into_iter().map(|(rank, by)| {
            shift += by;
            (rank, shift)
        });
        RankShift { steps: steps.collect() }
    }

    /// Append to `maps` one run: the ranks of `run` (old ranks of names
    /// that stay) in the new list.
    pub(crate) fn push_shifted(&self, run: &[usize], maps: &mut Runs<usize>) {
        // A run wholly below the first step keeps its ranks: one copy.
        if self.steps.first().is_none_or(|&(from, _)| run.last().is_none_or(|&last| last < from)) {
            maps.push(run);
            return;
        }
        // The run ascends, so the step in force only moves forward.
        let mut step = 0;
        maps.push_iter(run.iter().map(|&rank| {
            while self.steps.get(step).is_some_and(|&(from, _)| from <= rank) {
                step += 1;
            }
            let shift = step.checked_sub(1).map_or(0, |s| self.steps[s].1);
            rank.checked_add_signed(shift).expect("a kept rank stays in the list")
        }));
    }
}

/// The spatial index over the component boxes, in component order,
/// bulk-loaded: the one the copying assembly's nesting resolution probes,
/// and the reference a view's carried component-box index is checked
/// against.
pub(crate) fn component_index(components: &[Arc<ComponentComplex>]) -> SpatialIndex {
    let boxes: Vec<Option<BBox>> = components.iter().map(|comp| comp.bbox.clone()).collect();
    SpatialIndex::build(&boxes)
}

/// Cross-component nesting: for each component listed in `which`, among
/// all of `components`, whose [`component_index`] is `index`, `Some((parent
/// component, parent *local* face))` if the component sits strictly inside a
/// bounded face of another component, `None` if it is a root (sits in the
/// global exterior face). The copying assembly ([`assemble_components`]) and
/// the zero-copy [`GlobalComplexView`](crate::GlobalComplexView) both locate
/// their components here, so the two resolve nesting identically.
///
/// The candidates are the other components whose boxes hold the component's
/// representative point, probed in the index in `O(log k + candidates)`;
/// only they pay for [`ComponentComplex::face_containing`]. Segment boxes of
/// distinct components never meet, so a component lies wholly inside or
/// outside every cycle of another: the candidates that hold the point in a
/// bounded face enclose the whole component and each other in a chain, and
/// the boxes of nested components nest strictly. The innermost is the one
/// whose box the others contain.
pub(crate) fn locate_components(
    components: &[Arc<ComponentComplex>],
    index: &SpatialIndex,
    which: impl IntoIterator<Item = usize>,
) -> Vec<Option<(usize, FaceId)>> {
    let bbox = |d: usize| components[d].bbox.as_ref().expect("a located component has a box");
    which
        .into_iter()
        .map(|c| {
            let rep = components[c].rep_point()?;
            let others = index.locate_point(&rep).into_iter().filter(|&d| d != c);
            let holding = others.filter_map(|d| Some((d, components[d].face_containing(&rep)?)));
            holding.reduce(|inner, next| if bbox(inner.0).contains_box(bbox(next.0)) { next } else { inner })
        })
        .collect()
}

/// A parents-before-children order of the nesting forest returned by
/// [`locate_components`].
pub(crate) fn nesting_topo_order(parents: &[Option<(usize, FaceId)>]) -> Vec<usize> {
    let k = parents.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut topo: Vec<usize> = Vec::with_capacity(k);
    for (c, parent) in parents.iter().enumerate() {
        match parent {
            Some((d, _)) => children[*d].push(c),
            None => topo.push(c),
        }
    }
    let mut i = 0;
    while i < topo.len() {
        let d = topo[i];
        topo.extend(children[d].iter().copied());
        i += 1;
    }
    debug_assert_eq!(topo.len(), k, "nesting forest must cover all components");
    topo
}

/// Stitch component complexes into the global cell complex of the instance
/// with region set `global_names` (sorted; every component's region set must
/// be a subset).
pub fn assemble_components(
    global_names: Vec<String>,
    components: &[Arc<ComponentComplex>],
) -> CellComplex {
    debug_assert!(global_names.windows(2).all(|w| w[0] < w[1]), "region names are sorted");
    let exterior = FaceId(0);
    if components.is_empty() {
        return CellComplex::exterior_only(global_names);
    }

    let k = components.len();

    // Local-to-global region index map per component.
    let mut region_map = Runs::with_capacity(k, global_names.len());
    for c in components {
        locate_names(&global_names, c.region_names(), &mut region_map);
    }

    // Vertex/edge id offsets by concatenation; face ids: 0 is the global
    // exterior, bounded local faces get fresh sequential ids.
    let mut vertex_off = vec![0usize; k];
    let mut edge_off = vec![0usize; k];
    let mut face_map: Vec<Vec<FaceId>> = Vec::with_capacity(k);
    let mut next_face = 1usize;
    {
        let (mut voff, mut eoff) = (0usize, 0usize);
        for (c, comp) in components.iter().enumerate() {
            vertex_off[c] = voff;
            edge_off[c] = eoff;
            voff += comp.complex.vertex_count();
            eoff += comp.complex.edge_count();
            let local_ext = comp.complex.exterior;
            let map = (0..comp.complex.face_count())
                .map(|f| {
                    if FaceId(f) == local_ext {
                        exterior // placeholder, fixed up after nesting below
                    } else {
                        next_face += 1;
                        FaceId(next_face - 1)
                    }
                })
                .collect();
            face_map.push(map);
        }
    }

    // Cross-component nesting (shared with the zero-copy view) and the
    // parents-before-children resolution order.
    let parents = locate_components(components, &component_index(components), 0..k);
    let parent_face: Vec<FaceId> = parents
        .iter()
        .map(|p| match p {
            Some((d, f)) => face_map[*d][f.0],
            None => exterior,
        })
        .collect();
    // A nested component's local exterior face *is* its parent face.
    for c in 0..k {
        let local_ext = components[c].complex.exterior;
        face_map[c][local_ext.0] = parent_face[c];
    }
    let topo = nesting_topo_order(&parents);

    // Global faces: start with the exterior, then translate every bounded
    // local face; nested components extend their parent face's boundary with
    // their own outer boundary.
    let mut faces: Vec<FaceData> = vec![FaceData { is_exterior: true }];
    faces.resize(next_face, FaceData { is_exterior: false });
    let mut boundaries: Vec<Vec<EdgeId>> = vec![Vec::new(); next_face];
    for (c, comp) in components.iter().enumerate() {
        for f in comp.complex.face_ids() {
            // A local exterior face merges into its parent face (or the
            // global exterior).
            let local = comp.complex.face_edges.get(f.0);
            boundaries[face_map[c][f.0].0].extend(local.iter().map(|e| EdgeId(e.0 + edge_off[c])));
        }
    }
    let mut face_edges = Runs::with_capacity(next_face, 0);
    for boundary in &mut boundaries {
        boundary.sort();
        boundary.dedup();
        face_edges.push(boundary);
    }

    // Labels: a component's cells inherit the parent face's entries, which
    // are all for foreign regions, and keep their local signs for the
    // component's own regions. Bounded faces are numbered component by
    // component, so each table is written in id order.
    let inherited = inherited_labels(components, &parents, &topo, &region_map);
    let mut face_labels = Labels::with_capacity(next_face, 0);
    face_labels.close();
    for (c, comp) in components.iter().enumerate() {
        let (cx, map) = (&comp.complex, region_map.get(c));
        for f in cx.face_ids().filter(|&f| f != cx.exterior) {
            face_labels.push_iter(widened(&inherited[c], cx.face_labels.get(f.0), map));
        }
    }

    // Edges and vertices, concatenated in component order.
    let mut edges: Vec<EdgeData> = Vec::new();
    let mut vertices: Vec<VertexData> = Vec::new();
    let (mut edge_labels, mut vertex_labels) = (Labels::default(), Labels::default());
    let (mut polylines, mut rotations) = (Runs::default(), Runs::default());
    for (c, comp) in components.iter().enumerate() {
        let (cx, inherited, map) = (&comp.complex, &inherited[c], region_map.get(c));
        for e in cx.edge_ids() {
            let data = cx.edge(e);
            edges.push(EdgeData {
                tail: VertexId(data.tail.0 + vertex_off[c]),
                head: VertexId(data.head.0 + vertex_off[c]),
                left_face: face_map[c][data.left_face.0],
                right_face: face_map[c][data.right_face.0],
            });
            edge_labels.push_iter(widened(inherited, cx.edge_labels.get(e.0), map));
            polylines.push(cx.polylines.get(e.0));
        }
        for v in cx.vertex_ids() {
            vertices.push(cx.vertex(v).clone());
            vertex_labels.push_iter(widened(inherited, cx.vertex_labels.get(v.0), map));
            for d in cx.rotations.get(v.0) {
                rotations.push_item(DartId(d.0 + 2 * edge_off[c]));
            }
            rotations.close();
        }
    }

    CellComplex {
        closures: ClosureSlots::new(global_names.len()),
        region_names: global_names,
        vertices,
        edges,
        faces,
        vertex_labels,
        edge_labels,
        face_labels,
        rotations,
        polylines,
        face_edges,
        exterior,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::complex::ComplexGeometry;
    use crate::partition::partition_instance;
    use crate::split::CutSets;
    use spatial_core::polygon::ring_encloses;

    /// Every name kept from one sorted list to the next moves to its new
    /// rank: names inserted before, between and after the kept ones,
    /// removed ones, re-shaped ones (in both lists), names in neither, and
    /// repeats.
    #[test]
    fn rank_shifts_move_kept_names_to_their_new_ranks() {
        let list = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<String>>();
        let old = list(&["b", "d", "f", "h", "j"]);
        let cases: [(&[&str], &[&str]); 6] = [
            (&["a"], &["a", "b", "d", "f", "h", "j"]),
            (&["c", "e", "k"], &["b", "c", "d", "e", "f", "h", "j", "k"]),
            (&["d", "h"], &["b", "f", "j"]),
            (&["a", "b", "c"], &["a", "c", "d", "f", "h", "j"]),
            (&["f", "g", "zz", "g"], &["b", "d", "f", "g", "h", "j"]),
            (&["j", "i", "a0", "a1", "b"], &["a0", "a1", "d", "f", "h", "i"]),
        ];
        for (changed, new) in cases {
            let new = list(new);
            let shift = RankShift::new(&old, &new, changed);
            let kept: Vec<usize> =
                (0..old.len()).filter(|&r| !changed.contains(&old[r].as_str())).collect();
            let mut maps = Runs::default();
            shift.push_shifted(&kept, &mut maps);
            let expected: Vec<usize> =
                kept.iter().map(|&r| new.iter().position(|n| *n == old[r]).expect("kept")).collect();
            assert_eq!(maps.get(0), expected.as_slice(), "changed {changed:?}");
        }
    }

    fn assemble_instance(inst: &SpatialInstance) -> CellComplex {
        let global_names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
        let comps: Vec<Arc<ComponentComplex>> = partition_instance(inst)
            .iter()
            .map(|g| Arc::new(build_group_component(inst, g)))
            .collect();
        assemble_components(global_names, &comps)
    }

    #[test]
    fn nested_separated_squares() {
        // Strict nesting with no bounding-box contact between any segments:
        // the partition yields two components, and assembly must embed the
        // inner one into the outer one's interior face.
        let inst = SpatialInstance::from_regions([
            ("Inner", Region::rect_from_ints(40, 40, 60, 60)),
            ("Outer", Region::rect_from_ints(0, 0, 100, 100)),
        ]);
        let c = assemble_instance(&inst);
        assert_eq!(c.vertex_count(), 2);
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.face_count(), 3);
        assert!(c.euler_formula_holds());
        // The annulus face (Outer only) is bounded by both loops.
        let annulus = c
            .face_ids()
            .find(|f| c.face_label(*f) == label(&[(1, Sign::Interior)]))
            .expect("outer-only face exists");
        assert_eq!(c.face_boundary(annulus).len(), 2);
        // The innermost face is inside both regions.
        assert!(c
            .face_ids()
            .any(|f| c.face_label(f) == label(&[(0, Sign::Interior), (1, Sign::Interior)])));
        // The exterior sees only Outer's boundary.
        assert_eq!(c.face_boundary(c.exterior_face()).len(), 1);
    }

    #[test]
    fn two_levels_of_separated_nesting() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 100, 100)),
            ("B", Region::rect_from_ints(20, 20, 80, 80)),
            ("C", Region::rect_from_ints(45, 45, 55, 55)),
        ]);
        let c = assemble_instance(&inst);
        assert_eq!(partition_instance(&inst).len(), 3);
        assert_eq!(c.face_count(), 4);
        assert!(c.euler_formula_holds());
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face_label(f)).collect();
        labels.sort();
        let mut expected = vec![
            Label::default(),
            label(&[(0, Sign::Interior)]),
            label(&[(0, Sign::Interior), (1, Sign::Interior)]),
            label(&[(0, Sign::Interior), (1, Sign::Interior), (2, Sign::Interior)]),
        ];
        expected.sort();
        assert_eq!(labels, expected);
    }

    #[test]
    fn siblings_inside_one_face() {
        // Two separated islands inside the same host face.
        let inst = SpatialInstance::from_regions([
            ("Host", Region::rect_from_ints(0, 0, 100, 50)),
            ("L", Region::rect_from_ints(10, 10, 30, 30)),
            ("R", Region::rect_from_ints(60, 10, 80, 30)),
        ]);
        let c = assemble_instance(&inst);
        assert_eq!(c.face_count(), 4);
        assert!(c.euler_formula_holds());
        let host_only = c
            .face_ids()
            .find(|f| c.face_label(*f) == label(&[(0, Sign::Interior)]))
            .expect("host-only face");
        // Host's own loop + both island loops.
        assert_eq!(c.face_boundary(host_only).len(), 3);
    }

    /// Debug builds (the plain `cargo test`) replay a prefix of each trace;
    /// CI runs these oracles in release mode at full length.
    const TRACE_STEPS: usize = if cfg!(debug_assertions) { 40 } else { 300 };
    const DENSE_STEPS: usize = if cfg!(debug_assertions) { 40 } else { 300 };

    /// The members of component `c` in `instance`.
    fn members_of<'a>(c: &'a ComponentComplex, instance: &'a SpatialInstance) -> Vec<Member<'a>> {
        c.region_names()
            .iter()
            .map(|n| (n.as_str(), instance.ext(n).expect("member exists")))
            .collect()
    }

    /// Replay `trace` over `instance` through [`update_components`], calling
    /// `check(step, instance, component, rebuilt)` on every component after
    /// every step.
    fn replay(
        instance: SpatialInstance,
        trace: &[Vec<datagen::TraceOp>],
        check: impl Fn(usize, &SpatialInstance, &ComponentComplex, bool),
    ) {
        replay_updates(instance, trace, |step, instance, update| {
            for (c, from) in update.components.iter().zip(&update.carried_from) {
                check(step, instance, c, from.is_none());
            }
        });
    }

    /// Replay `trace` over `instance` through [`update_components`], calling
    /// `check(step, instance, update)` after every step.
    fn replay_updates(
        mut instance: SpatialInstance,
        trace: &[Vec<datagen::TraceOp>],
        mut check: impl FnMut(usize, &SpatialInstance, &ComponentUpdate),
    ) {
        let names = instance.names();
        let mut components = update_components(&[], &instance, &names, |_| None).components;
        for (step, batch) in trace.iter().enumerate() {
            let mut changed: Vec<String> = Vec::new();
            for op in batch {
                let (name, effective) = match op {
                    datagen::TraceOp::Insert(name, region) => {
                        let old = instance.insert(name.clone(), region.clone());
                        (name, old.as_ref() != Some(region))
                    }
                    datagen::TraceOp::Remove(name) => (name, instance.remove(name).is_some()),
                };
                if effective && !changed.contains(name) {
                    changed.push(name.clone());
                }
            }
            let update = update_components(&components, &instance, &changed, |_| None);
            check(step, &instance, &update);
            components = update.components;
        }
    }

    /// Component `c`'s cut sets with every rank resolved in its point table.
    fn resolved_cuts(c: &ComponentComplex) -> CutSets {
        c.cuts.map(|&r| c.points[r as usize])
    }

    /// Hold each rebuilt component's carried cut sets against one sweep of
    /// its segments from scratch.
    fn check_cut_sets(step: usize, instance: &SpatialInstance, c: &ComponentComplex, rebuilt: bool) {
        if !rebuilt {
            return;
        }
        let segments = group_segments(&members_of(c, instance));
        let runs = |s: &Runs<TaggedSegment>| (0..s.len()).map(|r| s.range(r)).collect::<Vec<_>>();
        assert_eq!(runs(&c.segments), runs(&segments), "segment runs at step {step}");
        assert!(
            resolved_cuts(c) == crate::sweep::sweep(segments.items()).resolved(),
            "carried cut sets of {:?} differ from a sweep at step {step}",
            c.region_names()
        );
    }

    /// Hold each rebuilt component's merged point table against one sweep
    /// of its segments from scratch: the table is the sweep's distinct cut
    /// points, ascending (so it keeps no point that no cut set cites), and
    /// every ranked cut set resolves to the sweep's cut set.
    fn check_point_table(step: usize, instance: &SpatialInstance, c: &ComponentComplex, rebuilt: bool) {
        if !rebuilt {
            return;
        }
        let swept = crate::sweep::sweep(group_segments(&members_of(c, instance)).items()).resolved();
        let mut table = swept.items().to_vec();
        table.sort_unstable();
        table.dedup();
        let names = c.region_names();
        assert!(c.points == table, "point table of {names:?} differs from a sweep's at step {step}");
        assert_eq!(c.cuts.len(), swept.len(), "one ranked cut set per segment at step {step}");
        for (s, (ranks, cut)) in c.cuts.iter().zip(swept.iter()).enumerate() {
            let resolved: Vec<Point> = ranks.iter().map(|&r| c.points[r as usize]).collect();
            assert!(resolved == cut, "ranked cut set {s} of {names:?} differs from a sweep's at step {step}");
        }
    }

    #[test]
    fn carried_point_tables_equal_a_sweep_along_op_traces() {
        for seed in 0..4 {
            let trace = datagen::op_trace(TRACE_STEPS, 0x5eed + seed);
            replay(datagen::clustered_map(4, 6, seed), &trace, check_point_table);
            replay(datagen::jittered_overlap_map(10, 3, 12, seed), &trace, check_point_table);
        }
    }

    #[test]
    fn carried_point_tables_equal_a_sweep_along_the_dense_trace() {
        let trace = datagen::dense_edit_trace(16, 16, 12, DENSE_STEPS, 7);
        replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, check_point_table);
    }

    #[test]
    fn carried_cut_sets_equal_a_sweep_along_op_traces() {
        for seed in 0..4 {
            let trace = datagen::op_trace(TRACE_STEPS, 0x5eed + seed);
            replay(datagen::clustered_map(4, 6, seed), &trace, check_cut_sets);
            replay(datagen::jittered_overlap_map(10, 3, 12, seed), &trace, check_cut_sets);
        }
    }

    #[test]
    fn carried_cut_sets_equal_a_sweep_along_the_dense_trace() {
        let trace = datagen::dense_edit_trace(16, 16, 12, DENSE_STEPS, 7);
        replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, check_cut_sets);
    }

    /// A component's built region tables equal two scans of its finished
    /// complex: each region's box against the edge scan of
    /// [`ComplexGeometry::region_bboxes`], and its interior faces against a scan
    /// of the face labels.
    fn check_region_tables(step: usize, _: &SpatialInstance, c: &ComponentComplex, _: bool) {
        let cx = c.complex();
        let names = c.region_names();
        assert_eq!(c.region_bboxes, cx.region_bboxes(), "boxes of {names:?} at step {step}");
        assert_eq!(c.region_faces.len(), names.len(), "one face run per region at step {step}");
        for (r, name) in names.iter().enumerate() {
            let scanned: Vec<FaceId> = cx
                .face_ids()
                .filter(|&f| f != cx.exterior_face() && cx.face_label(f).sign(r) == Sign::Interior)
                .collect();
            assert_eq!(c.region_faces.get(r), scanned, "faces of {name} at step {step}");
        }
    }

    #[test]
    fn built_region_tables_equal_scans_of_the_complex_along_op_traces() {
        for seed in 0..4 {
            let trace = datagen::op_trace(TRACE_STEPS, 0x5eed + seed);
            replay(datagen::clustered_map(4, 6, seed), &trace, check_region_tables);
            replay(datagen::jittered_overlap_map(10, 3, 12, seed), &trace, check_region_tables);
        }
    }

    #[test]
    fn built_region_tables_equal_scans_of_the_complex_along_the_dense_trace() {
        let trace = datagen::dense_edit_trace(16, 16, 12, DENSE_STEPS, 7);
        replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, check_region_tables);
    }

    /// A component's representative point is the least endpoint of its
    /// input segments: the first entry of its point table.
    fn check_rep_point(step: usize, instance: &SpatialInstance, c: &ComponentComplex, _: bool) {
        let segments = group_segments(&members_of(c, instance));
        let least = segments.items().iter().map(|t| t.segment.a.min(t.segment.b)).min();
        assert_eq!(c.rep_point(), least, "{:?} at step {step}", c.region_names());
    }

    #[test]
    fn rep_point_is_the_least_input_endpoint() {
        let families = [
            datagen::grid_map(5, 4, 4),
            datagen::nested_rings(6),
            datagen::overlapping_chain(8),
            datagen::random_rectangles(12, 40, 3),
            datagen::flower(6, 2),
            datagen::dense_overlap_map(4, 4, 4),
            datagen::jittered_overlap_map(6, 6, 12, 0),
            datagen::road_network_map(4, 4, 12, 1),
            datagen::clustered_map(4, 16, 2),
            datagen::zipf_clustered_map(6, 48, 5),
            datagen::wide_map(12, 7),
            datagen::jittered_overlap_map(16, 16, 12, 1996),
        ];
        for inst in families {
            for c in crate::build_complex_view(&inst).components() {
                check_rep_point(0, &inst, c, true);
            }
        }
        for seed in 0..4 {
            let trace = datagen::op_trace(TRACE_STEPS, 0x5eed + seed);
            replay(datagen::clustered_map(4, 6, seed), &trace, check_rep_point);
            replay(datagen::jittered_overlap_map(10, 3, 12, seed), &trace, check_rep_point);
        }
        let trace = datagen::dense_edit_trace(16, 16, 12, DENSE_STEPS, 7);
        replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, check_rep_point);
    }

    /// The key of the innermost of `cycles` that encloses `p` — the one whose
    /// lexicographically lowest point is greatest — or `None` if none does:
    /// the oracle of both nesting sites, by [`ring_encloses`] over rings of
    /// points.
    ///
    /// The cycles must be laminar with disjoint boundaries, such as the
    /// bounded cycles of distinct skeleton components, of which at most one
    /// per component can enclose `p`. A cycle enclosing another then holds
    /// the other's lowest point in its interior, and its own lowest point, on
    /// its boundary, is smaller.
    pub(crate) fn innermost_cycle<'a, K>(
        p: &Point,
        cycles: impl IntoIterator<Item = (K, &'a [Point])>,
    ) -> Option<K> {
        cycles
            .into_iter()
            .filter(|(_, ring)| ring_encloses(ring, p))
            .map(|(key, ring)| (ring.iter().min().expect("a cycle has points"), key))
            .max_by(|a, b| a.0.cmp(b.0))
            .map(|(_, key)| key)
    }

    /// The outer cycle of every bounded face of `c`, rebuilt from its local
    /// complex: the face walks (faces lie left of darts, and the walk leaves
    /// the head of a dart by the dart before its twin in the
    /// counter-clockwise rotation there), and of a face's walks the one
    /// through its lowest point, as the points of its polylines.
    fn bounded_outer_cycles(c: &ComponentComplex) -> Vec<(FaceId, Vec<Point>)> {
        let cx = c.complex();
        let mut outer: Vec<Option<Vec<Point>>> = vec![None; cx.face_count()];
        let mut seen = vec![false; 2 * cx.edge_count()];
        for start in (0..seen.len()).map(DartId) {
            let mut ring = Vec::new();
            let mut d = start;
            while !seen[d.0] {
                seen[d.0] = true;
                let line = cx.edge_polyline(d.edge());
                if d.is_forward() {
                    ring.extend_from_slice(&line[..line.len() - 1]);
                } else {
                    ring.extend(line[1..].iter().rev());
                }
                let rotation = cx.vertex_rotation(cx.dart_head(d));
                let at = rotation.iter().position(|&r| r == d.twin()).expect("a twin leaves the head");
                d = rotation[(at + rotation.len() - 1) % rotation.len()];
            }
            let face = cx.dart_face(start);
            let lower = |old: &Vec<Point>| ring.iter().min() < old.iter().min();
            if !ring.is_empty() && face != cx.exterior_face() && outer[face.0].as_ref().is_none_or(lower) {
                outer[face.0] = Some(ring);
            }
        }
        let bounded = outer.into_iter().enumerate().filter_map(|(f, ring)| Some((FaceId(f), ring?)));
        bounded.collect()
    }

    /// Hold [`locate_components`] against [`innermost_cycle`] over the
    /// bounded outer cycles of every other component, for every component.
    /// Returns how many are nested.
    fn check_nesting(name: &str, components: &[Arc<ComponentComplex>]) -> usize {
        let cycles: Vec<_> = components.iter().map(|c| bounded_outer_cycles(c)).collect();
        let located = locate_components(components, &component_index(components), 0..components.len());
        for (c, component) in components.iter().enumerate() {
            let others = cycles.iter().enumerate().filter(|&(d, _)| d != c);
            let rings =
                others.flat_map(|(d, faces)| faces.iter().map(move |(f, ring)| ((d, *f), ring.as_slice())));
            let oracle = component.rep_point().and_then(|p| innermost_cycle(&p, rings));
            assert_eq!(located[c], oracle, "{name}: component {c} ({:?})", component.region_names());
        }
        located.iter().flatten().count()
    }

    #[test]
    fn located_components_sit_in_the_innermost_enclosing_cycle() {
        let mut nested = 0;
        for (name, instance) in [
            ("nested_rings", datagen::nested_rings(6)),
            ("clustered_map", datagen::clustered_map(64, 16, 1)),
            ("nested_three", spatial_core::fixtures::nested_three()),
            ("island_in", spatial_core::fixtures::ring_with_island(true)),
            ("island_out", spatial_core::fixtures::ring_with_island(false)),
        ] {
            nested += check_nesting(name, crate::build_complex_view(&instance).components());
        }
        assert!(nested >= 6, "the families nest components ({nested})");
        for seed in 0..4 {
            let trace = datagen::op_trace(TRACE_STEPS, 0x5eed + seed);
            let check = |step: usize, _: &SpatialInstance, update: &ComponentUpdate| {
                check_nesting(&format!("seed {seed}, step {step}"), &update.components);
            };
            replay_updates(datagen::clustered_map(4, 6, seed), &trace, check);
            replay_updates(datagen::jittered_overlap_map(10, 3, 12, seed), &trace, check);
        }
    }

    #[test]
    fn explicit_thread_counts_match_default_build() {
        use spatial_core::fixtures;
        for (name, inst) in [
            ("fig1a", fixtures::fig_1a()),
            ("fig1b", fixtures::fig_1b()),
            ("fig1c", fixtures::fig_1c()),
            ("fig1d", fixtures::fig_1d()),
            ("ring", fixtures::ring()),
            ("nested", fixtures::nested_three()),
            ("petals", fixtures::petals_abcd()),
            ("shared", fixtures::shared_boundary()),
            ("island_in", fixtures::ring_with_island(true)),
            ("island_out", fixtures::ring_with_island(false)),
        ] {
            // The from-scratch reference, its groups swept on an explicit
            // number of workers, against the cold build.
            let base = crate::build_complex(&inst);
            let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
            let groups = partition_instance(&inst);
            for threads in [1, 4] {
                let components = crate::parallel::map_indexed(groups.len(), threads, |i| {
                    Arc::new(build_group_component(&inst, &groups[i]))
                });
                let built = assemble_components(names.clone(), &components);
                assert_eq!(format!("{base:?}"), format!("{built:?}"), "{name}: threads={threads}");
            }
        }
    }

    #[test]
    fn empty_assembly_is_single_exterior_face() {
        let c = assemble_components(vec![], &[]);
        assert_eq!(c.face_count(), 1);
        assert_eq!(c.vertex_count(), 0);
        assert!(c.euler_formula_holds());
    }
}
