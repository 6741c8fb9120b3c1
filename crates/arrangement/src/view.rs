//! Zero-copy assembly: a global complex served directly out of shared
//! per-component sub-complexes.
//!
//! [`GlobalComplexView`] is the "assemble by view" counterpart of the
//! "assemble by copy" [`crate::assemble_components`]: instead of translating
//! every vertex, edge and face of every component into a flat
//! [`CellComplex`](crate::CellComplex) (`O(total cells)` per assembly, even
//! when a single component changed), it holds the `Arc<ComponentComplex>`es
//! themselves plus a compact translation layer:
//!
//! * prefix-sum offset tables mapping global cell ids to `(component, local
//!   id)` pairs and back (`O(components)` space, `O(log components)` lookup),
//! * the cross-component nesting forest and the per-component *inherited*
//!   labels (the parent face's entries: the regions whose interior encloses
//!   the component), resolved parents-before-children exactly as the
//!   copying assembly does,
//! * the local→global region-index map of every component, one run each of
//!   one flat table.
//!
//! Construction does no per-cell work — after a localized update,
//! re-assembling the global view costs nothing per untouched cell (see
//! [`GlobalComplexView::new`] for what it does cost). Accessors translate on
//! the fly: labels are widened from the component's local region ids to
//! global ones and joined with the inherited entries, dart and face ids are
//! shifted into the global id space, and purely geometric data (polylines,
//! points) is borrowed from the shared component allocations.
//!
//! Per-component state rides on the component. What a component determines
//! alone is keyed by local ids and built with it: each local region's
//! boundary box (the union of its input segments' boxes), its interior
//! faces (the inverted face labels, one flat buffer) and the spatial index
//! over its region boxes. [`ComplexRead::region_faces`] and
//! [`ComplexGeometry::region_bboxes`] are served from them, so the first read of
//! a new epoch scans no edge and no face label; the face walk
//! [`ComplexRead::for_each_face_edge`] follows the component's own face →
//! edge → endpoint incidence.
//!
//! A region's closure cells depend on its component alone too, and live on
//! it: the view says how to read them ([`ComplexRead::region_home`]) — the
//! region's component (the view's parts are its components), its interior
//! faces there, the component's vertex, edge and face offsets, and the id
//! ranges of the components nested, transitively, inside those faces, every
//! cell of which is interior to the region — walks them in the component's
//! own ids on request ([`ComplexRead::home_closure`]) and hands out the
//! component's own slot for them ([`ComplexGeometry::closure_slot`]). The
//! view holds no slot, so every view that shares a component shares its
//! walks.
//!
//! The per-epoch glue — offsets, nesting parents, `nested_in_face`, the
//! inherited labels, the local→global region maps, the index over the
//! component boxes and the region index
//! ([`GlobalComplexView::region_bbox_index`]) — is made per assembly, and
//! no per-cell table is derived from it. A patch
//! ([`GlobalComplexView::updated`]) derives it from the previous view's
//! without looking into a carried component: a carried region map is the
//! old one with its ranks shifted past the inserted and removed names, and
//! the component-box index merges the new components' boxes into the
//! previous index's sorted center orders instead of sorting every box
//! again. Only the rebuilt components' names are searched for. The region
//! index is assembled, not built: the component-box index on top, each
//! component's region index below, for one `Arc` clone per component and
//! one copy of the id maps. No read builds anything. A sign read
//! (`vertex_sign`/`edge_sign`/`face_sign`) binary-searches the component's
//! sorted local→global region map, then the cell's local label or the
//! component's inherited one, and widens nothing; a whole-label read
//! (`vertex_label`/`edge_label`/`face_label`) widens the cell's local label
//! on every call, in time linear in its entries and the inherited ones
//! ([`GlobalComplexView::label_widenings`] counts widenings).
//!
//! The view is **index-identical** to the flat complex produced by
//! [`crate::assemble_components`] from the same component list: every cell
//! has the same id, label and incidences through either representation
//! (`tests/view_differential.rs` pins this cell-by-cell). All derived
//! computations are generic over [`ComplexRead`] and accept both.

use crate::assemble::{
    assemble_components, component_index, inherited_labels, locate_components, locate_names,
    nesting_topo_order, widen_label, ComponentComplex, ComponentUpdate, RankShift,
};
use crate::complex::{
    closure_cells, CellComplex, CellOffsets, ClosureCells, ClosureSlot, ComplexGeometry, ComplexRead,
    NestedCells, RegionHome,
};
use crate::index::{SpatialIndex, TiledIndex};
use crate::partition::BBox;
use crate::runs::Runs;
use crate::types::*;
use spatial_core::prelude::Point;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A zero-copy global cell complex over shared component sub-complexes.
///
/// See the module docs for the representation. Obtain one from
/// [`crate::build_complex_view`] (the cold build: the update of nothing), or
/// patch an existing view with [`GlobalComplexView::updated`] after
/// [`crate::update_components`]. [`GlobalComplexView::new`] assembles one
/// from scratch over given components: the reference the patch is checked
/// against.
#[derive(Clone, Debug)]
pub struct GlobalComplexView {
    region_names: Vec<String>,
    components: Vec<Arc<ComponentComplex>>,
    /// Local→global region index map per component, one run each (strictly
    /// increasing, since both name lists are sorted).
    region_map: Runs<usize>,
    /// Its inverse: global region index → (component, local region index).
    region_home: Vec<(usize, usize)>,
    /// First global vertex id of each component (prefix sums).
    vertex_start: Vec<usize>,
    /// First global edge id of each component (prefix sums).
    edge_start: Vec<usize>,
    /// First global id of each component's *bounded* faces (the global
    /// exterior face is id 0; bounded local faces `1..` map to consecutive
    /// global ids, matching the copying assembly's numbering exactly).
    face_start: Vec<usize>,
    vertex_total: usize,
    edge_total: usize,
    face_total: usize,
    /// Global id of the face each component is embedded in (the exterior
    /// face for root components).
    parent_face: Vec<FaceId>,
    /// Per component: the parent face's global label, which holds only the
    /// regions whose interior encloses the component. Every other region
    /// foreign to the component is exterior to all its cells.
    inherited: Vec<Label>,
    /// Global face id → components embedded directly in that face.
    nested_in_face: BTreeMap<usize, Vec<usize>>,
    /// Per component: is some component embedded in one of its bounded
    /// faces? (`nested_cells` reads no face of a component that hosts
    /// none.)
    hosts: Vec<bool>,
    /// The index over the component boxes, which nesting resolution probes
    /// and the region index has on top, with the center orders it was tiled
    /// by: the next view's merges its new boxes into them.
    component_boxes: TiledIndex,
    /// The spatial index over the region bounding boxes, assembled with the
    /// view over the component-box index that nesting resolution probed, and
    /// shared by every clone (and therefore by every evaluator of a
    /// snapshot); see [`GlobalComplexView::region_bbox_index`].
    region_index: Arc<SpatialIndex>,
    /// Number of label widenings performed by the accessor layer (shared by
    /// all clones of the view; see [`GlobalComplexView::label_widenings`]).
    widen_count: Arc<AtomicU64>,
}

impl GlobalComplexView {
    /// Assemble the view of the instance with region set `region_names`
    /// (sorted; every component's region set must be a subset) over the
    /// given component sub-complexes.
    ///
    /// Cost: no per-cell work. It sorts the component boxes into the index
    /// over them (`O(components · log components)`), locates every component
    /// in it, finds every component's names in `region_names` (the
    /// reference the patch of [`GlobalComplexView::updated`] is checked
    /// against: `O(regions)` name comparisons) and assembles the region
    /// index over it (`O(components + regions)`). The
    /// inherited labels hold one entry per enclosing region, so together
    /// they cost `O(components × nesting depth)`.
    pub fn new(
        region_names: Vec<String>,
        components: Vec<Arc<ComponentComplex>>,
    ) -> GlobalComplexView {
        let k = components.len();
        let boxes = components.iter().enumerate().filter_map(|(c, comp)| Some((c, comp.bbox.as_ref()?)));
        let component_boxes = TiledIndex::empty().updated(&[], boxes, k);
        let parents = locate_components(&components, component_boxes.index(), 0..k);
        let mut region_map = Runs::with_capacity(k, region_names.len());
        for c in &components {
            locate_names(&region_names, c.region_names(), &mut region_map);
        }
        GlobalComplexView::assemble(region_names, components, parents, region_map, component_boxes)
    }

    /// Assemble the view of an updated instance by patching this one:
    /// `update` is what [`crate::update_components`] made of this view's
    /// [`components`](GlobalComplexView::components) for the names
    /// `changed` (those whose extent differs, in any order), and
    /// `region_names` the updated instance's sorted name list.
    ///
    /// A carried component keeps its nesting parent without being located
    /// again, unless that parent was itself replaced or the component's
    /// representative point lies in the box of a new component (only a new
    /// component can have slipped a smaller enclosing cycle around it). Only
    /// the new components and those exceptions pay for point location.
    ///
    /// Nothing carried is looked at by name or re-sorted: a carried
    /// component's region map is its old one with each rank moved by the
    /// names inserted and removed below it (`assemble::RankShift`), and the
    /// component-box index merges the new components' boxes into the center
    /// orders of this view's (`index::TiledIndex`). Beyond the rebuilt
    /// components, the patch costs integer work per component and per
    /// name, two binary searches of the name lists per changed name and
    /// `O(log components)` comparisons per new box.
    ///
    /// The result is table for table what [`GlobalComplexView::new`]
    /// assembles from the same arguments (asserted in debug builds), so a
    /// view patched any number of times is still index-identical to a cold
    /// build.
    pub fn updated<S: AsRef<str>>(
        &self,
        region_names: Vec<String>,
        changed: &[S],
        update: ComponentUpdate,
    ) -> GlobalComplexView {
        let ComponentUpdate { components, carried_from, .. } = update;
        let mut now_at: Vec<Option<usize>> = vec![None; self.components.len()];
        for (c, from) in carried_from.iter().enumerate() {
            if let Some(old) = *from {
                now_at[old] = Some(c);
            }
        }
        let fresh_boxes: Vec<(usize, &BBox)> = carried_from
            .iter()
            .zip(&components)
            .enumerate()
            .filter(|(_, (from, _))| from.is_none())
            .filter_map(|(c, (_, component))| Some((c, component.bbox.as_ref()?)))
            .collect();

        let mut parents: Vec<Option<(usize, FaceId)>> = vec![None; components.len()];
        let mut relocate: Vec<usize> = Vec::new();
        for (c, from) in carried_from.iter().enumerate() {
            let kept = from.and_then(|old| {
                let shadowed = components[c]
                    .rep_point()
                    .is_some_and(|p| fresh_boxes.iter().any(|(_, b)| b.contains_point(&p)));
                match self.parent_face[old] {
                    _ if shadowed => None,
                    FaceId(0) => Some(None),
                    face => {
                        let (parent, local) = self.face_home(face);
                        now_at[parent].map(|d| Some((d, local)))
                    }
                }
            });
            match kept {
                Some(parent) => parents[c] = parent,
                None => relocate.push(c),
            }
        }
        let component_boxes =
            self.component_boxes.updated(&now_at, fresh_boxes.iter().copied(), components.len());
        let located = locate_components(&components, component_boxes.index(), relocate.iter().copied());
        for (&c, parent) in relocate.iter().zip(located) {
            parents[c] = parent;
        }

        let shift = RankShift::new(&self.region_names, &region_names, changed);
        let mut region_map = Runs::with_capacity(components.len(), region_names.len());
        for (component, from) in components.iter().zip(&carried_from) {
            match *from {
                Some(old) => shift.push_shifted(self.region_map.get(old), &mut region_map),
                None => locate_names(&region_names, component.region_names(), &mut region_map),
            }
        }

        let view =
            GlobalComplexView::assemble(region_names, components, parents, region_map, component_boxes);
        debug_assert!(
            view.same_tables(&GlobalComplexView::new(
                view.region_names.clone(),
                view.components.clone()
            )),
            "a patched view must be index-identical to the from-scratch assembly"
        );
        view
    }

    /// The constructor behind [`GlobalComplexView::new`] and
    /// [`GlobalComplexView::updated`]: every other translation table and
    /// the region index from the components, their nesting `parents`, their
    /// local→global `region_map` and the index over their boxes.
    fn assemble(
        region_names: Vec<String>,
        components: Vec<Arc<ComponentComplex>>,
        parents: Vec<Option<(usize, FaceId)>>,
        region_map: Runs<usize>,
        component_boxes: TiledIndex,
    ) -> GlobalComplexView {
        debug_assert!(region_names.windows(2).all(|w| w[0] < w[1]), "region names are sorted");
        let k = components.len();

        let mut region_home = vec![(usize::MAX, usize::MAX); region_names.len()];
        for (c, map) in region_map.iter().enumerate() {
            for (local, &global) in map.iter().enumerate() {
                region_home[global] = (c, local);
            }
        }

        let mut vertex_start = Vec::with_capacity(k);
        let mut edge_start = Vec::with_capacity(k);
        let mut face_start = Vec::with_capacity(k);
        let (mut vt, mut et, mut ft) = (0usize, 0usize, 1usize);
        for comp in &components {
            debug_assert_eq!(
                comp.complex.exterior, FaceId(0),
                "component complexes designate face 0 as their exterior"
            );
            vertex_start.push(vt);
            edge_start.push(et);
            face_start.push(ft);
            vt += comp.complex.vertex_count();
            et += comp.complex.edge_count();
            ft += comp.complex.face_count() - 1; // local exterior is merged away
        }

        let topo = nesting_topo_order(&parents);
        let parent_face: Vec<FaceId> = parents
            .iter()
            .map(|p| match p {
                Some((d, f)) => FaceId(face_start[*d] + f.0 - 1),
                None => FaceId(0),
            })
            .collect();

        let inherited = inherited_labels(&components, &parents, &topo, &region_map);

        let mut nested_in_face: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (c, pf) in parent_face.iter().enumerate() {
            nested_in_face.entry(pf.0).or_default().push(c);
        }
        let mut hosts = vec![false; k];
        for &(d, _) in parents.iter().flatten() {
            hosts[d] = true;
        }

        let parts = components.iter().map(|c| &c.region_index).zip(region_map.iter());
        let region_index =
            Arc::new(SpatialIndex::two_level(region_names.len(), component_boxes.index(), parts));

        GlobalComplexView {
            region_names,
            region_map,
            region_home,
            vertex_start,
            edge_start,
            face_start,
            vertex_total: vt,
            edge_total: et,
            face_total: ft,
            parent_face,
            inherited,
            nested_in_face,
            hosts,
            component_boxes,
            region_index,
            widen_count: Arc::new(AtomicU64::new(0)),
            components,
        }
    }

    /// Do two views hold the same components behind the same translation
    /// tables? (The region index is assembled from them, and the counter is
    /// per view.) The component-box index is checked against one built from
    /// scratch over the components' boxes: the same `(component, box)`
    /// entries, however packed.
    fn same_tables(&self, other: &GlobalComplexView) -> bool {
        self.region_names == other.region_names
            && self.components.len() == other.components.len()
            && self.components.iter().zip(&other.components).all(|(a, b)| Arc::ptr_eq(a, b))
            && self.region_map == other.region_map
            && self.region_home == other.region_home
            && self.vertex_start == other.vertex_start
            && self.edge_start == other.edge_start
            && self.face_start == other.face_start
            && (self.vertex_total, self.edge_total, self.face_total)
                == (other.vertex_total, other.edge_total, other.face_total)
            && self.parent_face == other.parent_face
            && self.inherited == other.inherited
            && self.nested_in_face == other.nested_in_face
            && self.hosts == other.hosts
            && self.component_boxes.index().same_entries(&component_index(&self.components))
    }

    /// The spatial index over the region bounding boxes of this view,
    /// assembled with the view and shared by every clone (one per
    /// snapshot), so reading it is an `Arc` clone. It has two levels: the
    /// view's index over the component boxes, and under each component the
    /// index over its own regions' boxes, built with the component and
    /// carried across commits. The query planner draws its candidate
    /// generators from this index — regions whose boxes don't interact are
    /// provably disjoint — and its probe counter
    /// ([`SpatialIndex::probe_count`]) is the planner-work metric surfaced
    /// by the bench snapshot.
    pub fn region_bbox_index(&self) -> Arc<SpatialIndex> {
        Arc::clone(&self.region_index)
    }

    /// The component sub-complexes backing the view, in assembly order.
    pub fn components(&self) -> &[Arc<ComponentComplex>] {
        &self.components
    }

    /// Number of component sub-complexes.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Per-component `(vertices, edges, bounded faces)` counts, in assembly
    /// order.
    pub fn component_cell_counts(&self) -> Vec<(usize, usize, usize)> {
        self.components
            .iter()
            .map(|c| {
                let x = &c.complex;
                (x.vertex_count(), x.edge_count(), x.face_count() - 1)
            })
            .collect()
    }

    /// Materialize the flat [`CellComplex`] with the identical cell
    /// numbering (a deep copy; `O(total cells)`).
    pub fn to_cell_complex(&self) -> CellComplex {
        assemble_components(self.region_names.clone(), &self.components)
    }

    // ---- id translation ---------------------------------------------------

    /// The `(component, local id)` pair of a global vertex id.
    fn vertex_home(&self, v: VertexId) -> (usize, usize) {
        debug_assert!(v.0 < self.vertex_total, "vertex id out of range");
        let c = self.vertex_start.partition_point(|&s| s <= v.0) - 1;
        (c, v.0 - self.vertex_start[c])
    }

    /// The `(component, local id)` pair of a global edge id.
    fn edge_home(&self, e: EdgeId) -> (usize, usize) {
        debug_assert!(e.0 < self.edge_total, "edge id out of range");
        let c = self.edge_start.partition_point(|&s| s <= e.0) - 1;
        (c, e.0 - self.edge_start[c])
    }

    /// The `(component, local id)` pair of a global *bounded* face id.
    fn face_home(&self, f: FaceId) -> (usize, FaceId) {
        debug_assert!(f.0 >= 1 && f.0 < self.face_total, "bounded face id out of range");
        let c = self.face_start.partition_point(|&s| s <= f.0) - 1;
        (c, FaceId(f.0 - self.face_start[c] + 1))
    }

    /// The global face id of a component-local face.
    fn face_abroad(&self, c: usize, local: FaceId) -> FaceId {
        if local == self.components[c].complex.exterior {
            self.parent_face[c]
        } else {
            FaceId(self.face_start[c] + local.0 - 1)
        }
    }

    /// The sign of a global region index at a component-local label's
    /// entries: a binary search of the component's sorted local→global
    /// region map, then of the entries, falling back to the component's
    /// inherited label for foreign regions.
    fn local_sign(&self, c: usize, local_label: &[(usize, Sign)], region: usize) -> Sign {
        match self.region_map.get(c).binary_search(&region) {
            Ok(p) => sign_in(local_label, p),
            Err(_) => self.inherited[c].sign(region),
        }
    }

    /// Widen a component-local label's entries to global region ids,
    /// counted.
    fn widen_counted(&self, c: usize, local: &[(usize, Sign)]) -> Label {
        self.widen_count.fetch_add(1, Ordering::Relaxed);
        widen_label(&self.inherited[c], local, self.region_map.get(c))
    }

    /// The cells of the components nested, transitively, inside the
    /// bounded local faces `faces` (ascending) of component `c`: one range
    /// of vertex, edge and face ids per nested component, ascending.
    fn nested_cells(&self, c: usize, faces: &[FaceId]) -> NestedCells {
        if !self.hosts[c] {
            return NestedCells::default();
        }
        let cells = |d: usize| &self.components[d].complex;
        let bounded = |d: usize| self.face_start[d]..self.face_start[d] + cells(d).face_count() - 1;
        let in_face = |f: FaceId| self.nested_in_face.get(&self.face_abroad(c, f).0);
        let mut nested: Vec<usize> = faces.iter().filter_map(|&f| in_face(f)).flatten().copied().collect();
        let mut next = 0;
        while let Some(&d) = nested.get(next) {
            next += 1;
            nested.extend(self.nested_in_face.range(bounded(d)).flat_map(|(_, ds)| ds.iter().copied()));
        }
        nested.sort_unstable();
        NestedCells::new(
            nested.iter().map(|&d| self.vertex_start[d]..self.vertex_start[d] + cells(d).vertex_count()).collect(),
            nested.iter().map(|&d| self.edge_start[d]..self.edge_start[d] + cells(d).edge_count()).collect(),
            nested.iter().map(|&d| bounded(d)).collect(),
        )
    }

    /// How many label widenings this view's accessors have performed (the
    /// counter is shared by all clones). Every whole-label read
    /// (`vertex_label`, `edge_label`, a bounded face's `face_label`) widens
    /// exactly once; sign reads and the query evaluator's face-set reads
    /// widen nothing.
    pub fn label_widenings(&self) -> u64 {
        self.widen_count.load(Ordering::Relaxed)
    }

}

impl ComplexRead for GlobalComplexView {
    fn region_names(&self) -> &[String] {
        &self.region_names
    }

    fn vertex_count(&self) -> usize {
        self.vertex_total
    }

    fn edge_count(&self) -> usize {
        self.edge_total
    }

    fn face_count(&self) -> usize {
        self.face_total
    }

    fn exterior_face(&self) -> FaceId {
        FaceId(0)
    }

    fn vertex_label(&self, v: VertexId) -> Label {
        let (c, lv) = self.vertex_home(v);
        self.widen_counted(c, self.components[c].complex.vertex_labels.get(lv))
    }

    fn vertex_rotation(&self, v: VertexId) -> Vec<DartId> {
        let (c, lv) = self.vertex_home(v);
        let shift = 2 * self.edge_start[c];
        self.components[c].complex.rotations.get(lv).iter().map(|d| DartId(d.0 + shift)).collect()
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let (c, le) = self.edge_home(e);
        let data = &self.components[c].complex.edges[le];
        let off = self.vertex_start[c];
        (VertexId(data.tail.0 + off), VertexId(data.head.0 + off))
    }

    fn edge_label(&self, e: EdgeId) -> Label {
        let (c, le) = self.edge_home(e);
        self.widen_counted(c, self.components[c].complex.edge_labels.get(le))
    }

    /// The local label's `Boundary` entries mapped to global ids: no
    /// widening, since an inherited entry is never `Boundary`.
    fn edge_region_marks(&self, e: EdgeId) -> Vec<usize> {
        let (c, le) = self.edge_home(e);
        let label = self.components[c].complex.edge_labels.get(le).iter();
        let map = self.region_map.get(c);
        label.filter(|&&(_, s)| s == Sign::Boundary).map(|&(r, _)| map[r]).collect()
    }

    fn edge_faces(&self, e: EdgeId) -> (FaceId, FaceId) {
        let (c, le) = self.edge_home(e);
        let data = &self.components[c].complex.edges[le];
        (self.face_abroad(c, data.left_face), self.face_abroad(c, data.right_face))
    }

    fn face_label(&self, f: FaceId) -> Label {
        if f.0 == 0 {
            return Label::default();
        }
        let (c, lf) = self.face_home(f);
        self.widen_counted(c, self.components[c].complex.face_labels.get(lf.0))
    }

    fn face_boundary(&self, f: FaceId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        if f.0 != 0 {
            let (c, lf) = self.face_home(f);
            let off = self.edge_start[c];
            out.extend(self.components[c].complex.face_edges.get(lf.0).iter().map(|e| EdgeId(e.0 + off)));
        }
        // Components embedded in this face contribute their outer boundary.
        if let Some(children) = self.nested_in_face.get(&f.0) {
            for &d in children {
                let comp = &self.components[d].complex;
                let off = self.edge_start[d];
                out.extend(comp.face_edges.get(comp.exterior.0).iter().map(|e| EdgeId(e.0 + off)));
            }
        }
        out.sort_unstable();
        out
    }

    /// The edges of the face's component-local boundary and the outer
    /// boundary of every component nested directly in it, read from the
    /// components' own face → edge tables.
    fn for_each_face_edge(
        &self,
        f: FaceId,
        mut visit: impl FnMut(EdgeId, (FaceId, FaceId), (VertexId, VertexId)),
    ) {
        let mut walk = |c: usize, local: FaceId| {
            let cx = &self.components[c].complex;
            let (e0, v0) = (self.edge_start[c], self.vertex_start[c]);
            for &e in cx.face_edges.get(local.0) {
                let data = &cx.edges[e.0];
                visit(
                    EdgeId(e.0 + e0),
                    (self.face_abroad(c, data.left_face), self.face_abroad(c, data.right_face)),
                    (VertexId(data.tail.0 + v0), VertexId(data.head.0 + v0)),
                );
            }
        };
        if f.0 != 0 {
            let (c, local) = self.face_home(f);
            walk(c, local);
        }
        for &d in self.nested_in_face.get(&f.0).into_iter().flatten() {
            walk(d, self.components[d].complex.exterior);
        }
    }

    fn vertex_sign(&self, v: VertexId, region: usize) -> Sign {
        let (c, lv) = self.vertex_home(v);
        self.local_sign(c, self.components[c].complex.vertex_labels.get(lv), region)
    }

    fn edge_sign(&self, e: EdgeId, region: usize) -> Sign {
        let (c, le) = self.edge_home(e);
        self.local_sign(c, self.components[c].complex.edge_labels.get(le), region)
    }

    fn face_sign(&self, f: FaceId, region: usize) -> Sign {
        if f.0 == 0 {
            return Sign::Exterior;
        }
        let (c, lf) = self.face_home(f);
        self.local_sign(c, self.components[c].complex.face_labels.get(lf.0), region)
    }

    fn skeleton_component_count(&self) -> usize {
        // Skeleton components never span partition components (they share no
        // vertex), so the global count is the sum of the local ones.
        self.components.iter().map(|c| c.complex.skeleton_component_count()).sum()
    }

    /// Served from the interior faces the region's component build emitted
    /// ([`ComplexRead::region_home`]): its local interior faces shifted into
    /// the global ids, plus every bounded face of each component nested,
    /// transitively, inside them.
    fn region_faces(&self, region: &str) -> Vec<FaceId> {
        let Some(home) = self.region_index(region).and_then(|i| self.region_home(i)) else {
            return vec![];
        };
        let mut out: Vec<FaceId> = home.faces.iter().map(|f| FaceId(f.0 + home.offsets.face)).collect();
        out.extend(home.nested.faces().iter().cloned().flatten().map(FaceId));
        out.sort_unstable();
        out
    }

    /// The region's component and local id, the interior faces that
    /// component's build emitted (borrowed), the component's offsets, and
    /// the ranges of the components nested, transitively, inside those
    /// faces (such a component does not contain the region, so all its
    /// cells inherit the face's `Interior` sign). A component that hosts no
    /// other answers that with one flag.
    fn region_home(&self, region: usize) -> Option<RegionHome<'_>> {
        let (c, local) = *self.region_home.get(region)?;
        let component = self.components.get(c)?;
        let faces = component.region_faces.get(local);
        Some(RegionHome {
            part: c,
            local,
            faces: Cow::Borrowed(faces),
            offsets: CellOffsets {
                vertex: self.vertex_start[c],
                edge: self.edge_start[c],
                face: self.face_start[c] - 1,
            },
            nested: self.nested_cells(c, faces),
        })
    }

    /// Walked over the component's own complex: the local faces' own
    /// incidence, in local ids.
    fn home_closure(&self, home: &RegionHome<'_>) -> ClosureCells {
        closure_cells(&self.components[home.part].complex, &home.faces)
    }
}

impl ComplexGeometry for GlobalComplexView {
    fn vertex_point(&self, v: VertexId) -> Point {
        let (c, lv) = self.vertex_home(v);
        self.components[c].complex.vertices[lv].point
    }

    fn edge_polyline(&self, e: EdgeId) -> &[Point] {
        let (c, le) = self.edge_home(e);
        self.components[c].complex.polylines.get(le)
    }

    /// The region's component's own slot.
    fn closure_slot(&self, home: &RegionHome<'_>) -> &ClosureSlot {
        self.components[home.part].complex.closure_slot(home)
    }

    /// Served from the index this view assembles once for all its clones.
    fn region_bbox_index(&self) -> Arc<SpatialIndex> {
        GlobalComplexView::region_bbox_index(self)
    }

    /// Served from the boxes every component's build computed for its own
    /// regions: no edge polyline is read.
    fn region_bboxes(&self) -> Vec<Option<BBox>> {
        let mut out: Vec<Option<BBox>> = vec![None; self.region_names.len()];
        for (component, map) in self.components.iter().zip(self.region_map.iter()) {
            for (b, &global) in component.region_bboxes.iter().zip(map) {
                out[global] = b.clone();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_complex_view;
    use spatial_core::fixtures;
    use spatial_core::prelude::*;

    #[test]
    fn empty_view_is_single_exterior_face() {
        let v = GlobalComplexView::new(vec![], vec![]);
        assert_eq!(v.vertex_count(), 0);
        assert_eq!(v.edge_count(), 0);
        assert_eq!(v.face_count(), 1);
        assert!(v.face_is_exterior(FaceId(0)));
        assert!(v.euler_formula_holds());
        assert!(v.face_boundary(FaceId(0)).is_empty());
    }

    #[test]
    fn nested_separated_squares_through_the_view() {
        let inst = SpatialInstance::from_regions([
            ("Inner", Region::rect_from_ints(40, 40, 60, 60)),
            ("Outer", Region::rect_from_ints(0, 0, 100, 100)),
        ]);
        let v = build_complex_view(&inst);
        assert_eq!(v.component_count(), 2);
        assert_eq!(v.vertex_count(), 2);
        assert_eq!(v.edge_count(), 2);
        assert_eq!(v.face_count(), 3);
        assert!(v.euler_formula_holds());
        // The annulus face (Outer only) is bounded by both loops.
        let annulus = v
            .face_ids()
            .find(|&f| v.face_label(f) == label(&[(1, Sign::Interior)]))
            .expect("outer-only face exists");
        assert_eq!(v.face_boundary(annulus).len(), 2);
        assert!(v
            .face_ids()
            .any(|f| v.face_label(f) == label(&[(0, Sign::Interior), (1, Sign::Interior)])));
        // The exterior sees only Outer's boundary.
        assert_eq!(v.face_boundary(v.exterior_face()).len(), 1);
    }

    #[test]
    fn view_matches_copy_assembly_cell_for_cell() {
        let inst = fixtures::nested_three();
        let v = build_complex_view(&inst);
        let flat = v.to_cell_complex();
        assert_eq!(v.vertex_count(), flat.vertex_count());
        assert_eq!(v.edge_count(), flat.edge_count());
        assert_eq!(v.face_count(), flat.face_count());
        for f in v.face_ids() {
            assert_eq!(v.face_label(f), ComplexRead::face_label(&flat, f));
            assert_eq!(v.face_boundary(f), ComplexRead::face_boundary(&flat, f));
        }
        for e in v.edge_ids() {
            assert_eq!(v.edge_faces(e), ComplexRead::edge_faces(&flat, e));
            assert_eq!(v.edge_label(e), ComplexRead::edge_label(&flat, e));
        }
        for vx in v.vertex_ids() {
            assert_eq!(v.vertex_rotation(vx), ComplexRead::vertex_rotation(&flat, vx));
        }
    }

    #[test]
    fn sign_fast_paths_agree_with_labels() {
        let inst = fixtures::nested_three();
        let v = build_complex_view(&inst);
        for r in 0..v.region_names().len() {
            for f in v.face_ids() {
                assert_eq!(v.face_sign(f, r), v.face_label(f).sign(r));
            }
            for e in v.edge_ids() {
                assert_eq!(v.edge_sign(e, r), v.edge_label(e).sign(r));
            }
            for vx in v.vertex_ids() {
                assert_eq!(v.vertex_sign(vx, r), v.vertex_label(vx).sign(r));
            }
        }
    }

    #[test]
    fn sign_reads_widen_nothing_and_each_label_read_widens_once() {
        let v = build_complex_view(&fixtures::nested_three());
        assert_eq!(v.label_widenings(), 0, "assembly must not widen through the accessors");
        for r in 0..v.region_names().len() {
            for x in v.vertex_ids() {
                let _ = v.vertex_sign(x, r);
            }
            for e in v.edge_ids() {
                let _ = v.edge_sign(e, r);
            }
            for f in v.face_ids() {
                let _ = v.face_sign(f, r);
            }
        }
        assert_eq!(v.label_widenings(), 0, "sign reads widen no label");
        // The exterior face's label is the all-exterior label, no widening.
        let widenable = (v.vertex_count() + v.edge_count() + v.face_count() - 1) as u64;
        for scan in 1..=2 {
            for x in v.vertex_ids() {
                let _ = v.vertex_label(x);
            }
            for e in v.edge_ids() {
                let _ = v.edge_label(e);
            }
            for f in v.face_ids() {
                let _ = v.face_label(f);
            }
            assert_eq!(v.label_widenings(), scan * widenable, "one widening per label read");
        }
        // Clones share the counter.
        let _ = v.clone().edge_label(EdgeId(0));
        assert_eq!(v.label_widenings(), 2 * widenable + 1);
    }

    #[test]
    fn region_bbox_index_is_cached_and_answers_overlap() {
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 4, 4)),
            ("B", Region::rect_from_ints(3, 3, 7, 7)),
            ("C", Region::rect_from_ints(50, 50, 52, 52)),
        ]);
        let v = build_complex_view(&inst);
        let idx = v.region_bbox_index();
        // One build per view, shared by clones.
        assert!(Arc::ptr_eq(&idx, &v.clone().region_bbox_index()));
        let bboxes = v.region_bboxes();
        assert_eq!(bboxes.len(), 3);
        let a = bboxes[0].as_ref().expect("A has a box");
        // A's neighbors: itself and B (boxes overlap), not C.
        assert_eq!(idx.bbox_neighbors(a), vec![0, 1]);
        let c = bboxes[2].as_ref().expect("C has a box");
        assert_eq!(idx.bbox_neighbors(c), vec![2]);
    }

    #[test]
    fn region_index_finds_first_last_and_no_absent_name() {
        let inst = SpatialInstance::from_regions(
            ["Ash", "Birch", "Cedar", "Elm"]
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, Region::rect_from_ints(10 * i as i64, 0, 10 * i as i64 + 4, 4))),
        );
        let v = build_complex_view(&inst);
        let flat = v.to_cell_complex();
        let cases = [
            ("Ash", Some(0)),
            ("Cedar", Some(2)),
            ("Elm", Some(3)),
            ("", None),         // before the first
            ("Aardvark", None), // before the first
            ("Ced", None),      // a proper prefix
            ("Cedars", None),   // between two names
            ("Zelkova", None),  // after the last
        ];
        for (name, at) in cases {
            assert_eq!(v.region_index(name), at, "view: {name:?}");
            assert_eq!(ComplexRead::region_index(&flat, name), at, "flat: {name:?}");
            assert_eq!(flat.region_index(name), at, "flat inherent: {name:?}");
            assert_eq!(v.region_names().iter().position(|n| n == name), at, "scan: {name:?}");
        }
        assert_eq!(GlobalComplexView::new(vec![], vec![]).region_index("Ash"), None);
    }

    #[test]
    fn a_patched_view_carries_and_relocates_nesting_parents() {
        use crate::assemble::update_components;
        // Host ⊃ Mid ⊃ Core, no box contact anywhere: three components in a
        // nesting chain, plus a far-away bystander.
        let mut inst = SpatialInstance::from_regions([
            ("Core", Region::rect_from_ints(45, 45, 55, 55)),
            ("Far", Region::rect_from_ints(500, 500, 510, 510)),
            ("Host", Region::rect_from_ints(0, 0, 100, 100)),
            ("Mid", Region::rect_from_ints(20, 20, 80, 80)),
        ]);
        let names = |inst: &SpatialInstance| -> Vec<String> {
            inst.names().iter().map(|s| s.to_string()).collect()
        };
        let step = |view: &GlobalComplexView, inst: &SpatialInstance, changed: &[&str]| {
            let update = update_components(view.components(), inst, changed, |_| None);
            let patched = view.updated(names(inst), changed, update);
            let cold = build_complex_view(inst);
            assert!(patched.to_cell_complex() == cold.to_cell_complex(), "after {changed:?}");
            patched
        };
        let mut view = build_complex_view(&inst);
        // A ring slipped between Mid and Core: Core is carried, its parent
        // is carried too, yet Core must be relocated into the new ring.
        inst.insert("Ring", Region::rect_from_ints(30, 30, 70, 70));
        view = step(&view, &inst, &["Ring"]);
        // Its parent removed: Core falls back to Mid.
        inst.remove("Ring");
        view = step(&view, &inst, &["Ring"]);
        // The outermost host removed: Mid becomes a root, Core keeps Mid.
        inst.remove("Host");
        view = step(&view, &inst, &["Host"]);
        // A name before all others shifts every region index by one.
        inst.insert("Aaa", Region::rect_from_ints(900, 0, 904, 4));
        view = step(&view, &inst, &["Aaa"]);
        assert_eq!(view.component_count(), 4);
    }
}
