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
//! 1. locates every component in the face structure of the others (innermost
//!    bounded cycle containing a representative point — the cycles of
//!    distinct components never cross, so the innermost containing cycle
//!    identifies the parent face exactly);
//! 2. merges each nested component's local exterior face into its parent
//!    face (and all root components' exteriors into the global exterior),
//!    extending the parent's boundary-edge set with the component's outer
//!    boundary;
//! 3. widens every cell label from the component's region subset to the full
//!    instance: signs for foreign regions are inherited from the parent
//!    face's label, resolved parents-before-children over the nesting forest.
//!
//! A [`ComponentComplex`] is immutable and shared behind an
//! `Arc` by the component cache in `topodb`: re-assembling
//! after a localized update reuses every untouched component unchanged.
//!
//! [`assemble_components`] is the *copying* assembly: it materializes a flat
//! [`CellComplex`] in `O(total cells)`. Its zero-copy, index-identical
//! counterpart is [`GlobalComplexView`](crate::GlobalComplexView), which
//! performs steps 1–3 symbolically in `O(components + nesting)` and serves
//! cells through the [`ComplexRead`](crate::ComplexRead) translation layer;
//! both build on the same nesting computation
//! (`compute_component_nesting`).

use crate::builder::build_local;
use crate::complex::CellComplex;
use crate::geometry::point_in_closed_polyline;
use crate::index::SpatialIndex;
use crate::partition::{repartition, BBox, ComponentGroup, Member, Repartition};
use crate::split::{split_segments, TaggedSegment};
use crate::types::*;
use spatial_core::prelude::*;
use std::sync::Arc;

/// The outer cycle of one bounded face of a component complex, kept for the
/// cross-component nesting tests of the assembly step.
#[derive(Clone, Debug)]
pub struct BoundedCycle {
    /// The bounded face this cycle is the outer boundary of.
    pub(crate) face: FaceId,
    /// The closed walk realizing the cycle (last point omitted).
    pub(crate) polyline: Vec<Point>,
    /// Twice the signed area of the walk (positive).
    pub(crate) area2: Rational,
}

/// The independently built cell complex of one interaction component,
/// together with the geometric data the assembly step needs to embed it into
/// the global complex.
#[derive(Clone, Debug)]
pub struct ComponentComplex {
    pub(crate) complex: CellComplex,
    pub(crate) bounded_cycles: Vec<BoundedCycle>,
    pub(crate) bbox: Option<BBox>,
    pub(crate) rep_point: Option<Point>,
}

impl ComponentComplex {
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
/// calling thread.
pub fn build_group_component(
    instance: &SpatialInstance,
    group: &ComponentGroup,
) -> ComponentComplex {
    let members = group_members(instance, &instance.names(), group);
    build_group(&members)
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

/// The one component build: gather the members' boundary segments, split
/// them at their mutual intersections with one plane sweep, and run the
/// local pipeline over the pieces, all on the calling thread. `members` is
/// sorted by name.
pub(crate) fn build_group(members: &[Member<'_>]) -> ComponentComplex {
    let local_names = members.iter().map(|(name, _)| name.to_string()).collect();
    let segments: Vec<TaggedSegment> = members
        .iter()
        .enumerate()
        .flat_map(|(local, (_, region))| {
            region.boundary().edges().map(move |segment| TaggedSegment { segment, region: local })
        })
        .collect();
    let bbox = segments
        .iter()
        .map(|t| BBox::of_segment(&t.segment))
        .reduce(|a, b| a.union(&b));
    let subs = split_segments(&segments);
    let (complex, bounded_cycles) = build_local(local_names, &subs);
    let rep_point = complex.vertices.first().map(|v| v.point);
    ComponentComplex { complex, bounded_cycles, bbox, rep_point }
}

/// Sweep the groups `slots` leaves empty — up to
/// [`crate::parallel::configured_threads`] components at a time, each built
/// serially by one worker — and return every group's component together with
/// how many were swept.
fn fill_slots(
    groups: &[Vec<Member<'_>>],
    mut slots: Vec<Option<Arc<ComponentComplex>>>,
) -> (Vec<Arc<ComponentComplex>>, usize) {
    let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    if !missing.is_empty() {
        let threads = crate::parallel::configured_threads();
        let built = crate::parallel::map_indexed(missing.len(), threads, |j| {
            Arc::new(build_group(&groups[missing[j]]))
        });
        for (j, component) in built.into_iter().enumerate() {
            slots[missing[j]] = Some(component);
        }
    }
    let components = slots.into_iter().map(|s| s.expect("every slot filled")).collect();
    (components, missing.len())
}

fn group_key(members: &[Member<'_>]) -> Vec<String> {
    members.iter().map(|(name, _)| name.to_string()).collect()
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
    let keys: Vec<Vec<String>> = groups.iter().map(|g| group_key(g)).collect();
    let slots = keys.iter().map(|key| reuse(key)).collect();
    let (components, rebuilt) = fill_slots(&groups, slots);
    ComponentSet { keys, components, rebuilt }
}

/// The outcome of [`update_components`].
pub struct ComponentUpdate {
    /// The component sub-complexes of the updated instance, in partition
    /// order (ascending smallest member name). A component's key is its
    /// own [`ComponentComplex::region_names`].
    pub components: Vec<Arc<ComponentComplex>>,
    /// Aligned with `components`: the index in `prev` of a component that
    /// was carried over, `None` for one that was swept or hinted.
    pub carried_from: Vec<Option<usize>>,
    /// How many entries of `components` were swept from scratch (the rest
    /// were carried over from `prev` or supplied by `hint`).
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
/// remaining regions are partitioned, and each resulting group is offered
/// to `hint` — which may return an already-built component for that exact
/// sorted name set, guaranteed by the caller to match the group's current
/// geometry — before being swept from scratch under the same fan-out as
/// [`build_components_with_reuse`].
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
    F: Fn(&[String]) -> Option<Arc<ComponentComplex>>,
{
    let Repartition { carried, groups } = repartition(prev, instance, changed);
    let slots = groups.iter().map(|g| hint(&group_key(g))).collect();
    let (fresh, rebuilt) = fill_slots(&groups, slots);

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

/// Overwrite the positions of a component's own regions in an inherited
/// parent label.
pub(crate) fn widen_label(parent: &Label, local: &Label, region_map: &[usize]) -> Label {
    let mut out = parent.clone();
    for (li, &gi) in region_map.iter().enumerate() {
        out[gi] = local[li];
    }
    out
}

/// The position of every name of `local` in `global` (both sorted, `local`
/// a subset): a component's local→global region index map.
pub(crate) fn locate_names(global: &[String], local: &[String]) -> Vec<usize> {
    let mut next = 0;
    local
        .iter()
        .map(|name| {
            // A component's names tend to be neighbours in the global order:
            // try the next slot before searching the rest.
            let at = if global.get(next) == Some(name) {
                next
            } else {
                next + global[next..]
                    .binary_search(name)
                    .expect("component region is in the global name set")
            };
            next = at + 1;
            at
        })
        .collect()
}

/// Cross-component nesting: for every component, `Some((parent component,
/// parent *local* face))` if the component sits strictly inside a bounded
/// face of another component, `None` if it is a root (sits in the global
/// exterior face).
///
/// This computation is shared between the copying assembly
/// ([`assemble_components`]) and the zero-copy
/// [`GlobalComplexView`](crate::GlobalComplexView) so the two resolve
/// nesting identically.
pub(crate) fn compute_component_nesting(
    components: &[Arc<ComponentComplex>],
) -> Vec<Option<(usize, FaceId)>> {
    let all: Vec<usize> = (0..components.len()).collect();
    locate_components(components, &all)
}

/// The nesting parent of each component listed in `which` (aligned with
/// it), among all of `components`.
///
/// The parent is found as the innermost bounded cycle of any *other*
/// component containing the component's representative point. Cycles of
/// distinct components never cross (partitioning keeps their geometry
/// disjoint), so the containing cycles form a laminar family and the
/// innermost one is the face the component sits in.
pub(crate) fn locate_components(
    components: &[Arc<ComponentComplex>],
    which: &[usize],
) -> Vec<Option<(usize, FaceId)>> {
    // Box-level point location through a spatial index over the component
    // boxes: each representative point probes in `O(log k + candidates)`
    // instead of scanning all `k` components, and only the reported
    // candidates pay the exact point-in-polygon tests.
    let boxes: Vec<Option<BBox>> = components.iter().map(|comp| comp.bbox.clone()).collect();
    let index = SpatialIndex::build(&boxes);
    which
        .iter()
        .map(|&c| {
            let rep = components[c].rep_point?;
            let mut best: Option<(Rational, usize, FaceId)> = None;
            for d in index.locate_point(&rep) {
                if d == c {
                    continue;
                }
                for cyc in &components[d].bounded_cycles {
                    if point_in_closed_polyline(&rep, &cyc.polyline) {
                        let area = cyc.area2.abs();
                        if best.as_ref().is_none_or(|(a, _, _)| area < *a) {
                            best = Some((area, d, cyc.face));
                        }
                    }
                }
            }
            best.map(|(_, d, f)| (d, f))
        })
        .collect()
}

/// A parents-before-children order of the nesting forest returned by
/// [`compute_component_nesting`].
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
    let n_regions = global_names.len();
    let exterior = FaceId(0);
    if components.is_empty() {
        return CellComplex {
            region_names: global_names,
            vertices: vec![],
            edges: vec![],
            faces: vec![FaceData {
                is_exterior: true,
                boundary_edges: vec![],
                label: vec![Sign::Exterior; n_regions],
                sample_point: None,
            }],
            exterior,
        };
    }

    let k = components.len();

    // Local-to-global region index map per component.
    let region_map: Vec<Vec<usize>> =
        components.iter().map(|c| locate_names(&global_names, c.region_names())).collect();

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
    let parents = compute_component_nesting(components);
    let parent_comp: Vec<Option<usize>> = parents.iter().map(|p| p.map(|(d, _)| d)).collect();
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
    let mut faces: Vec<FaceData> = vec![FaceData {
        is_exterior: true,
        boundary_edges: vec![],
        label: vec![Sign::Exterior; n_regions],
        sample_point: None,
    }];
    faces.resize(
        next_face,
        FaceData {
            is_exterior: false,
            boundary_edges: vec![],
            label: vec![],
            sample_point: None,
        },
    );
    for (c, comp) in components.iter().enumerate() {
        for f in comp.complex.face_ids() {
            let gf = face_map[c][f.0];
            let data = comp.complex.face(f);
            let translated: Vec<EdgeId> =
                data.boundary_edges.iter().map(|e| EdgeId(e.0 + edge_off[c])).collect();
            if f == comp.complex.exterior {
                // Merged into the parent face (or the global exterior).
                faces[gf.0].boundary_edges.extend(translated);
            } else {
                faces[gf.0].boundary_edges.extend(translated);
                faces[gf.0].sample_point = data.sample_point;
            }
        }
    }
    for face in &mut faces {
        face.boundary_edges.sort();
        face.boundary_edges.dedup();
    }

    // A parent face's locally computed sample point may now fall inside (or
    // on) a component embedded into it by this assembly; drop it then. The
    // bounding-box test is conservative — a lost sample is always safe, a
    // stale one never is.
    for (c, comp) in components.iter().enumerate() {
        if parent_comp[c].is_none() {
            continue; // the exterior face carries no sample point
        }
        let pf = parent_face[c];
        if let (Some(p), Some(bbox)) = (faces[pf.0].sample_point, comp.bbox.as_ref()) {
            if bbox.contains_point(&p) {
                faces[pf.0].sample_point = None;
            }
        }
    }

    // Face labels, parents first: a component's cells inherit the parent
    // face's signs for all foreign regions and keep their local signs for the
    // component's own regions.
    let mut inherited: Vec<Label> = vec![Vec::new(); k];
    for &c in &topo {
        let parent_label = faces[parent_face[c].0].label.clone();
        debug_assert_eq!(parent_label.len(), n_regions, "parent labels resolve before children");
        let comp = &components[c].complex;
        for f in comp.face_ids() {
            if f == comp.exterior {
                continue;
            }
            faces[face_map[c][f.0].0].label =
                widen_label(&parent_label, &comp.face(f).label, &region_map[c]);
        }
        inherited[c] = parent_label;
    }

    // Edges and vertices, concatenated in component order.
    let mut edges: Vec<EdgeData> = Vec::new();
    let mut vertices: Vec<VertexData> = Vec::new();
    for (c, comp) in components.iter().enumerate() {
        let cx = &comp.complex;
        for e in cx.edge_ids() {
            let data = cx.edge(e);
            edges.push(EdgeData {
                tail: VertexId(data.tail.0 + vertex_off[c]),
                head: VertexId(data.head.0 + vertex_off[c]),
                polyline: data.polyline.clone(),
                on_boundary_of: data.on_boundary_of.iter().map(|&r| region_map[c][r]).collect(),
                left_face: face_map[c][data.left_face.0],
                right_face: face_map[c][data.right_face.0],
                label: widen_label(&inherited[c], &data.label, &region_map[c]),
            });
        }
        for v in cx.vertex_ids() {
            let data = cx.vertex(v);
            vertices.push(VertexData {
                point: data.point,
                label: widen_label(&inherited[c], &data.label, &region_map[c]),
                rotation: data.rotation.iter().map(|d| DartId(d.0 + 2 * edge_off[c])).collect(),
            });
        }
    }

    CellComplex { region_names: global_names, vertices, edges, faces, exterior }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_instance;

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
            .find(|f| c.face(*f).label == vec![Sign::Exterior, Sign::Interior])
            .expect("outer-only face exists");
        assert_eq!(c.face_edges(annulus).len(), 2);
        // The innermost face is inside both regions.
        assert!(c
            .face_ids()
            .any(|f| c.face(f).label == vec![Sign::Interior, Sign::Interior]));
        // The exterior sees only Outer's boundary.
        assert_eq!(c.face_edges(c.exterior_face()).len(), 1);
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
        let mut labels: Vec<Label> = c.face_ids().map(|f| c.face(f).label.clone()).collect();
        labels.sort();
        let mut expected = vec![
            vec![Sign::Exterior, Sign::Exterior, Sign::Exterior],
            vec![Sign::Interior, Sign::Exterior, Sign::Exterior],
            vec![Sign::Interior, Sign::Interior, Sign::Exterior],
            vec![Sign::Interior, Sign::Interior, Sign::Interior],
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
            .find(|f| c.face(*f).label == vec![Sign::Interior, Sign::Exterior, Sign::Exterior])
            .expect("host-only face");
        // Host's own loop + both island loops.
        assert_eq!(c.face_edges(host_only).len(), 3);
    }

    #[test]
    fn empty_assembly_is_single_exterior_face() {
        let c = assemble_components(vec![], &[]);
        assert_eq!(c.face_count(), 1);
        assert_eq!(c.vertex_count(), 0);
        assert!(c.euler_formula_holds());
    }
}
