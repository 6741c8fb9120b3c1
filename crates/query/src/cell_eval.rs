//! Evaluation of region-based queries by quantification over cell unions.
//!
//! This is the effective query evaluator proposed in the conclusion of the
//! paper (Section 7): quantifiers range over the *legitimate regions of the
//! instance's cell complex* — unions of cells of the arrangement that are
//! homeomorphic to a disc. For topological (H-generic) queries this domain is
//! sufficient: by Theorem 3.4 all topological information of the instance is
//! carried by the cell complex, and every topologically distinct witness
//! region can be deformed onto a union of cells.
//!
//! The evaluator represents every region (named or quantified) by the set of
//! *faces* it consists of; interiors, boundaries and closures of such
//! regions are exact unions of cells, so every 4-intersection atom is
//! decided purely combinatorially — this is the reduction of topological
//! queries to the invariant promised by Corollary 3.7, in executable form.
//!
//! ## Cost model
//!
//! One evaluation engine reads every cell through [`ComplexGeometry`]
//! (the combinatorial [`ComplexRead`] plus the region boxes): names, each
//! name's faces and box, the incidence of a face, the two faces of an edge.
//! It has two constructors, over the two representations of a complex:
//!
//! * [`CellEvaluator::from_view`] and [`CellEvaluator::from_view_carrying`]
//!   (what `topodb::Snapshot::evaluator` and [`CellEvaluator::new`] build)
//!   read a shared [`GlobalComplexView`]. Construction is
//!   `O(regions + components)`: it copies the region boxes the component
//!   builds computed and scans no cell. The planner probes the view's own
//!   two-level spatial index.
//! * [`CellEvaluator::from_complex`] reads any [`ComplexGeometry`] — over the
//!   flat [`arrangement::CellComplex`] it is the reference the view-backed
//!   evaluator is differentially tested against, served by the flat
//!   complex's own face scans and incidence tables.
//!
//! Either way the global dual graph is built only when a region quantifier
//! first needs it. Per atom, a relation between two named regions whose
//! boxes do not interact is answered from the boxes alone. Otherwise each
//! operand is read as ascending id sets, and every test (intersection,
//! subset, equality) is a merge or a comparison of them; nothing scans the
//! complex.
//!
//! * **A name** is read where the complex keeps it
//!   ([`ComplexRead::region_home`]): over a view, its component, the
//!   interior faces that component's build emitted, the component's id
//!   offsets, and the id ranges of the components nested inside those
//!   faces, all of whose cells are interior. Its edges and vertices come
//!   from one walk of its own faces' incidence in the component's own ids
//!   ([`ComplexRead::home_closure`], `O(faces × degree)`), kept in the
//!   component's [`RegionCells`] table. The table depends on the component
//!   alone: a snapshot chain hands it to every later epoch that carries the
//!   component, so a name is walked once per build of its component, not
//!   once per epoch, and is read with no copy, sort or translation table
//!   (each id set is a local run plus an offset, with the nested ranges
//!   beside it). Over the flat complex, the complex is its own one part.
//! * **A quantifier value** ([`CellRegion`]) holds its global faces and
//!   walks its edges and vertices over the complex on first use.
//! * **A name quantifier** costs its candidates, not the names. Its plan
//!   ([`QueryPlan`], built once per [`crate::PreparedQuery`]) holds the
//!   generators that every deciding value satisfies — a witness of
//!   `existsname`, a counterexample of `forallname` — and the evaluator
//!   tries only the names they allow (an anchor's bbox neighbours, probed
//!   once per evaluation, or one pinned name), in the same way as a free
//!   variable, and stops at the first decisive one. The parts of its body
//!   that do not mention its variable run once, before. A body with no
//!   generator ranges over every name. So `forallname a . not inside(ext(a),
//!   A)` costs `A`'s neighbours, whatever the number of names.
//!
//! Relation reads ([`CellEvaluator::named_relation`], what
//! `topodb::Snapshot::{relation, relations_of, relation_matrix}` serve) run
//! the same classifier as a `Rel` atom over two names, so a read costs what
//! the atom costs: a box test, or the two names' own cells (walked if their
//! components' tables do not hold them yet) and a few merges. The whole-complex scan of the `relations` crate is the
//! reference it is tested against, not a second read path.

use crate::ast::{Formula, NameTerm, RegionExpr};
use crate::plan::{Generator, QueryPlan, Quantifier, Step};
use arrangement::{
    build_complex_view, closure_cells, BBox, ClosureCells, ComplexGeometry, ComplexRead, FaceId,
    GlobalComplexView, RegionHome, SpatialIndex,
};
use relations::{FourIntersectionMatrix, Relation4};
use spatial_core::prelude::SpatialInstance;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A quantifier value: the ascending run of the bounded faces it consists
/// of, and the cells of its closure besides those faces, walked from its
/// faces' incidence on first use. Two values are equal when their faces
/// are, since the rest follows from the faces.
#[derive(Debug)]
pub struct CellRegion {
    faces: Vec<FaceId>,
    closure: OnceLock<ClosureCells>,
}

impl CellRegion {
    const fn new(faces: Vec<FaceId>) -> CellRegion {
        CellRegion { faces, closure: OnceLock::new() }
    }

    /// The faces the region consists of, ascending.
    pub fn faces(&self) -> &[FaceId] {
        &self.faces
    }
}

impl PartialEq for CellRegion {
    fn eq(&self, other: &CellRegion) -> bool {
        self.faces == other.faces
    }
}

/// The operand of a name with no cell (no boundary in the complex).
static NO_CELLS: CellRegion = CellRegion::new(Vec::new());

/// One part's table of region closures (a view's parts are its
/// components): a slot per region of the part, in the part's own ids,
/// filled by the first evaluation that needs the region
/// ([`ComplexRead::home_closure`]). What a slot holds depends on the part
/// alone, so a table may live as long as its part: `topodb`'s snapshot
/// chain hands an untouched component's table from epoch to epoch, and a
/// rebuilt component starts with an empty one.
#[derive(Debug)]
pub struct RegionCells {
    slots: Box<[OnceLock<ClosureCells>]>,
}

impl RegionCells {
    /// An empty table for a part of `regions` regions.
    pub fn new(regions: usize) -> RegionCells {
        RegionCells { slots: (0..regions).map(|_| OnceLock::new()).collect() }
    }

    /// An empty table for every part of `complex`
    /// ([`ComplexRead::part_region_counts`]), in part order.
    pub fn for_parts<C: ComplexRead + ?Sized>(complex: &C) -> Arc<[Arc<RegionCells>]> {
        complex.part_region_counts().into_iter().map(|n| Arc::new(RegionCells::new(n))).collect()
    }

    /// The number of regions of the part.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Does the part have no region?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// How many of the part's regions have been walked.
    pub fn walked(&self) -> usize {
        self.slots.iter().filter(|slot| slot.get().is_some()).count()
    }
}

/// One satisfying assignment of a query's free name variables: variable →
/// region name. Produced by [`CellEvaluator::eval_bindings`] and carried by
/// `QueryOutput::Bindings` in the [`crate::prepared`] module.
pub type Bindings = BTreeMap<String, String>;

/// The most candidate regions a quantifier domain may hold: enumerating
/// more fails with [`EvalError::DomainTooLarge`].
pub const DOMAIN_CAP: usize = 100_000;

/// Errors raised during evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A name constant does not exist in the instance.
    UnknownName(String),
    /// A variable was used without being bound by a quantifier.
    UnboundVariable(String),
    /// The quantifier domain (all disc-like cell unions) exceeded
    /// [`DOMAIN_CAP`].
    DomainTooLarge {
        /// Number of candidate regions enumerated before giving up.
        regions_found: usize,
        /// The domain cap, [`DOMAIN_CAP`].
        cap: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownName(n) => write!(f, "unknown region name `{n}`"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            EvalError::DomainTooLarge { regions_found, cap } => write!(
                f,
                "quantifier domain too large: more than {cap} candidate regions (found {regions_found})"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// The evaluation structure over an instance's cell complex `C`: the
/// zero-copy view by default, or any other [`ComplexGeometry`].
#[derive(Debug)]
pub struct CellEvaluator<C = GlobalComplexView> {
    /// Where names, faces and incidences are read from.
    complex: Arc<C>,
    /// Per part of the complex, its regions' closure cells in the part's
    /// own ids: fresh tables, or those a snapshot chain carries.
    cells: Arc<[Arc<RegionCells>]>,
    /// How many named regions this evaluator walked into `cells`. See
    /// [`CellEvaluator::region_walks`].
    walks: AtomicU64,
    /// Bounding box of every named region's boundary, aligned with the
    /// names (`None` for a region contributing no boundary edge).
    bboxes: Vec<Option<BBox>>,
    /// For every face, the faces sharing an edge with it (ascending), built
    /// when a region quantifier first needs it.
    dual: OnceLock<Vec<Vec<FaceId>>>,
    /// The spatial index over the region boxes, taken from the complex on
    /// first planner use — or pre-seeded with an already-built one via
    /// [`CellEvaluator::with_spatial_index`].
    index: OnceLock<Arc<SpatialIndex>>,
    /// Number of candidate values tried by binding enumeration (naive and
    /// planned paths both count) and by name quantifiers. See
    /// [`CellEvaluator::assignments_tried`].
    assignments: AtomicU64,
    /// Number of `Rel` atoms and [`CellEvaluator::named_relation`] reads
    /// answered by the bounding-box *disjointness* short-circuit without
    /// touching the complex. See [`CellEvaluator::rel_shortcuts_by_kind`].
    rel_shortcut_hits: AtomicU64,
    /// Number of `Rel` atoms *refuted* by the bounding-box nesting
    /// short-circuit — a containment-implying atom whose operand boxes are
    /// not nested accordingly. See [`CellEvaluator::rel_shortcuts_by_kind`].
    rel_nesting_hits: AtomicU64,
    /// All legitimate quantifier values (disc-like unions of bounded faces),
    /// enumerated lazily on first use. A [`std::sync::OnceLock`] (not a
    /// `Cell`-based cache) so the evaluator is `Sync` and can serve query
    /// traffic from many threads at once — the `topodb::Snapshot` read path
    /// shares one evaluator per snapshot.
    domain: OnceLock<Result<Vec<CellRegion>, EvalError>>,
}

impl CellEvaluator {
    /// Build the evaluator for an instance (constructs the zero-copy complex
    /// view and evaluates over it).
    pub fn new(instance: &SpatialInstance) -> CellEvaluator {
        CellEvaluator::from_view(Arc::new(build_complex_view(instance)))
    }

    /// The evaluator over a shared view, with an empty closure table per
    /// component: `O(regions + components)` to build, with every other
    /// table resolved from the view on first use (see the module docs'
    /// cost model). [`CellEvaluator::from_view_carrying`] is the same
    /// evaluator over tables that outlive it.
    pub fn from_view(view: Arc<GlobalComplexView>) -> CellEvaluator {
        let cells = RegionCells::for_parts(&*view);
        CellEvaluator::over(view, cells)
    }

    /// The product evaluator: the evaluator over a shared view that reads
    /// and fills `cells`, one [`RegionCells`] table per component of the
    /// view, in component order. A table may come from an earlier view
    /// whose evaluators filled it, when its component is that view's own
    /// (pointer-identical): a name whose slot is filled costs no walk.
    /// `topodb::Snapshot` builds its evaluator this way, over the tables
    /// its snapshot chain carries.
    pub fn from_view_carrying(view: Arc<GlobalComplexView>, cells: Arc<[Arc<RegionCells>]>) -> CellEvaluator {
        debug_assert!(
            view.part_region_counts() == cells.iter().map(|t| t.len()).collect::<Vec<_>>(),
            "one table per component, one slot per region of it"
        );
        CellEvaluator::over(view, cells)
    }
}

impl<C: ComplexGeometry> CellEvaluator<C> {
    /// Build the evaluator over a copy of an existing cell complex — either
    /// the flat [`arrangement::CellComplex`] or the zero-copy
    /// [`GlobalComplexView`] (any [`ComplexGeometry`] implementation; the two
    /// are index-identical, so the answers do not depend on the
    /// representation).
    ///
    /// Over the flat complex this is the *reference*: every read goes to
    /// the flat complex's own [`ComplexGeometry`] implementation, and it serves
    /// as the differential oracle of [`CellEvaluator::from_view`], which
    /// answers identically.
    pub fn from_complex(complex: &C) -> CellEvaluator<C>
    where
        C: Clone,
    {
        let cells = RegionCells::for_parts(complex);
        CellEvaluator::over(Arc::new(complex.clone()), cells)
    }

    fn over(complex: Arc<C>, cells: Arc<[Arc<RegionCells>]>) -> CellEvaluator<C> {
        let bboxes = complex.region_bboxes();
        CellEvaluator {
            complex,
            cells,
            walks: AtomicU64::new(0),
            bboxes,
            dual: OnceLock::new(),
            index: OnceLock::new(),
            assignments: AtomicU64::new(0),
            rel_shortcut_hits: AtomicU64::new(0),
            rel_nesting_hits: AtomicU64::new(0),
            domain: OnceLock::new(),
        }
    }

    /// Pre-seed the evaluator's spatial index with an already-built one, so
    /// it shares that index's build and probe counter. A no-op if the
    /// evaluator already holds one.
    pub fn with_spatial_index(self, index: Arc<SpatialIndex>) -> CellEvaluator<C> {
        let _ = self.index.set(index);
        self
    }

    /// The spatial index over the named regions' bounding boxes, taken on
    /// first use from the complex ([`ComplexGeometry::region_bbox_index`])
    /// unless pre-seeded via [`CellEvaluator::with_spatial_index`]: an
    /// evaluator over a view shares the view's own
    /// [`region_bbox_index`](GlobalComplexView::region_bbox_index). The
    /// query planner draws its bbox-neighbor candidate generators from it.
    pub fn spatial_index(&self) -> &Arc<SpatialIndex> {
        self.index.get_or_init(|| self.complex.region_bbox_index())
    }

    /// How many candidate values the binding enumerators and the name
    /// quantifiers have tried (one per variable-value attempt, on the naive
    /// and the planned path alike).
    /// Together with
    /// [`SpatialIndex::probe_count`] this is the planner-work metric
    /// recorded by the bench snapshot.
    pub fn assignments_tried(&self) -> u64 {
        self.assignments.load(Ordering::Relaxed)
    }

    /// How many `Rel` atoms were answered by a bounding-box short-circuit
    /// (either kind) without computing a 4-intersection matrix; a
    /// planner-work metric like
    /// [`CellEvaluator::assignments_tried`]. The split by kind is
    /// [`CellEvaluator::rel_shortcuts_by_kind`].
    pub fn rel_shortcuts(&self) -> u64 {
        let (disjoint, nesting) = self.rel_shortcuts_by_kind();
        disjoint + nesting
    }

    /// The bounding-box short-circuit counts split by kind:
    /// `(disjointness, nesting)`.
    ///
    /// * **Disjointness** — both operands named, boxes not interacting:
    ///   every relation atom, and every [`CellEvaluator::named_relation`]
    ///   read, is *answered* `disjoint`.
    /// * **Nesting** — both operands named, boxes interacting, but the atom
    ///   implies a containment its boxes refute: `contains`/`covers`
    ///   require the left box to contain the right, `inside`/`covered_by`
    ///   the converse, `equal` requires identical boxes. The atom is
    ///   answered `false`; atoms whose boxes *are* nested accordingly fall
    ///   through to the full classifier (nesting of boxes is necessary,
    ///   not sufficient).
    pub fn rel_shortcuts_by_kind(&self) -> (u64, u64) {
        (self.rel_shortcut_hits.load(Ordering::Relaxed), self.rel_nesting_hits.load(Ordering::Relaxed))
    }

    /// The region names known to the evaluator.
    pub fn names(&self) -> Vec<&str> {
        self.complex.region_names().iter().map(String::as_str).collect()
    }

    /// The index of a region name in the canonical (sorted) name order.
    fn name_index(&self, name: &str) -> Option<usize> {
        self.complex.region_index(name)
    }

    /// How many named regions this evaluator has walked: one per name whose
    /// part's table did not hold its closure yet. A name whose table was
    /// carried filled costs none.
    pub fn region_walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// The operand of the name with index `i`, read without a copy: its
    /// faces and its part's offsets from [`ComplexRead::region_home`], and
    /// its closure from its slot in the part's table, which is walked in
    /// the part's own ids ([`ComplexRead::home_closure`]) when an atom first
    /// needs more than the faces.
    fn named(&self, i: usize) -> Operand<'_> {
        let Some(home) = self.complex.region_home(i) else { return Operand::Value(&NO_CELLS) };
        let slot = &self.cells[home.part].slots[home.local];
        Operand::Named { home, slot }
    }

    /// All legitimate quantifier values: nonempty, dual-connected,
    /// simply-connected unions of bounded faces, enumerated on first use.
    /// Each value walks its closure over the complex on its own first use.
    pub fn quantifier_domain(&self) -> Result<&[CellRegion], EvalError> {
        let domain = self.domain.get_or_init(|| self.enumerate_regions());
        domain.as_deref().map_err(Clone::clone)
    }

    /// The dual graph, built on first use from every edge's two faces.
    fn dual(&self) -> &[Vec<FaceId>] {
        self.dual.get_or_init(|| {
            let mut dual = vec![Vec::new(); self.complex.face_count()];
            for e in self.complex.edge_ids() {
                let (l, r) = self.complex.edge_faces(e);
                if l != r {
                    dual[l.0].push(r);
                    dual[r.0].push(l);
                }
            }
            for neighbors in &mut dual {
                neighbors.sort_unstable();
                neighbors.dedup();
            }
            dual
        })
    }

    fn enumerate_regions(&self) -> Result<Vec<CellRegion>, EvalError> {
        let mut out: Vec<Vec<FaceId>> = Vec::new();
        // Enumerate connected subsets of the dual graph restricted to bounded
        // faces, by the standard "extend with larger-indexed neighbors of the
        // component, anchored at its minimum element" scheme.
        for start in self.complex.face_ids().filter(|&f| f != self.complex.exterior_face()) {
            self.extend_regions(start, &mut vec![start], &mut out, &[])?;
        }
        // Keep only simply connected ones (complement connected through the
        // dual graph, exterior face included).
        Ok(out.into_iter().filter(|s| self.complement_connected(s)).map(CellRegion::new).collect())
    }

    /// Record `current` and every connected extension of it by faces larger
    /// than `anchor`, each exactly once: candidates tried (and so recorded)
    /// by an earlier sibling branch are `excluded` from the later ones.
    fn extend_regions(
        &self,
        anchor: FaceId,
        current: &mut Vec<FaceId>,
        out: &mut Vec<Vec<FaceId>>,
        excluded: &[FaceId],
    ) -> Result<(), EvalError> {
        if out.len() >= DOMAIN_CAP {
            return Err(EvalError::DomainTooLarge { regions_found: out.len(), cap: DOMAIN_CAP });
        }
        out.push(current.clone());
        let exterior = self.complex.exterior_face();
        let dual = self.dual();
        let mut candidates: Vec<FaceId> = Vec::new();
        for f in current.iter() {
            for &g in &dual[f.0] {
                if g > anchor
                    && g != exterior
                    && !in_run(current, &g)
                    && !excluded.contains(&g)
                    && !candidates.contains(&g)
                {
                    candidates.push(g);
                }
            }
        }
        candidates.sort();
        for (i, &g) in candidates.iter().enumerate() {
            let at = current.partition_point(|&f| f < g);
            current.insert(at, g);
            let mut next_excluded = excluded.to_vec();
            next_excluded.extend_from_slice(&candidates[..i]);
            self.extend_regions(anchor, current, out, &next_excluded)?;
            current.remove(at);
        }
        Ok(())
    }

    fn complement_connected(&self, s: &[FaceId]) -> bool {
        // `s` holds bounded faces only, so its complement holds the exterior.
        let complement = self.complex.face_count() - s.len();
        if complement == 0 {
            return false;
        }
        let dual = self.dual();
        let start = self.complex.exterior_face();
        let mut seen = vec![false; self.complex.face_count()];
        seen[start.0] = true;
        let (mut reached, mut stack) = (1, vec![start]);
        while let Some(f) = stack.pop() {
            for &g in &dual[f.0] {
                if !seen[g.0] && !in_run(s, &g) {
                    seen[g.0] = true;
                    reached += 1;
                    stack.push(g);
                }
            }
        }
        reached == complement
    }

    // ---- region operands ------------------------------------------------

    /// The closure cells of an operand besides its faces: a name's are its
    /// part's, shifted by the part's offsets, with the nested parts'
    /// interior cells beside them; a quantifier value's are walked over the
    /// complex on the value's first use.
    fn closure<'o>(&self, operand: &'o Operand<'_>) -> Closure<'o> {
        match operand {
            Operand::Named { home, slot } => {
                let closure = slot.get_or_init(|| {
                    self.walks.fetch_add(1, Ordering::Relaxed);
                    self.complex.home_closure(home)
                });
                let (edge, vertex, nested) = (home.offsets.edge, home.offsets.vertex, &home.nested);
                Closure {
                    boundary_edges: Ids { run: closure.boundary_edges(), offset: edge, spans: &[] },
                    interior_edges: Ids { run: closure.interior_edges(), offset: edge, spans: nested.edges() },
                    boundary_vertices: Ids { run: closure.boundary_vertices(), offset: vertex, spans: &[] },
                    interior_vertices: Ids {
                        run: closure.interior_vertices(),
                        offset: vertex,
                        spans: nested.vertices(),
                    },
                }
            }
            Operand::Value(value) => {
                let closure = value.closure.get_or_init(|| closure_cells(&*self.complex, &value.faces));
                Closure {
                    boundary_edges: Ids::run(closure.boundary_edges()),
                    interior_edges: Ids::run(closure.interior_edges()),
                    boundary_vertices: Ids::run(closure.boundary_vertices()),
                    interior_vertices: Ids::run(closure.interior_vertices()),
                }
            }
        }
    }

    /// Do the closures of two regions intersect (the `connect` primitive)?
    pub fn connect(&self, a: &CellRegion, b: &CellRegion) -> bool {
        self.connected(&Operand::Value(a), &Operand::Value(b))
    }

    fn connected(&self, a: &Operand<'_>, b: &Operand<'_>) -> bool {
        if meets(a.faces(), b.faces()) {
            return true;
        }
        // Closure = faces + boundary edges + boundary and interior vertices;
        // two disjoint face sets can only touch along boundary cells.
        let (ca, cb) = (self.closure(a), self.closure(b));
        meets(ca.boundary_edges, cb.boundary_edges)
            || [ca.boundary_vertices, ca.interior_vertices].into_iter().any(|va| {
                [cb.boundary_vertices, cb.interior_vertices].into_iter().any(|vb| meets(va, vb))
            })
    }

    /// The exact 4-intersection matrix between two regions.
    pub fn matrix(&self, a: &CellRegion, b: &CellRegion) -> FourIntersectionMatrix {
        self.matrix_of(&Operand::Value(a), &Operand::Value(b))
    }

    fn matrix_of(&self, a: &Operand<'_>, b: &Operand<'_>) -> FourIntersectionMatrix {
        let (ca, cb) = (self.closure(a), self.closure(b));
        // int(A) ∩ ∂B: ∂B's cells are edges and vertices, and one of them
        // lies in A's interior iff it is an interior edge or vertex of A.
        FourIntersectionMatrix {
            interiors: meets(a.faces(), b.faces()),
            boundaries: meets(ca.boundary_edges, cb.boundary_edges)
                || meets(ca.boundary_vertices, cb.boundary_vertices),
            interior_a_boundary_b: meets(cb.boundary_edges, ca.interior_edges)
                || meets(cb.boundary_vertices, ca.interior_vertices),
            boundary_a_interior_b: meets(ca.boundary_edges, cb.interior_edges)
                || meets(ca.boundary_vertices, cb.interior_vertices),
        }
    }

    /// The 4-intersection relation between two regions.
    pub fn relation(&self, a: &CellRegion, b: &CellRegion) -> Option<Relation4> {
        self.classify(&Operand::Value(a), &Operand::Value(b))
    }

    fn classify(&self, a: &Operand<'_>, b: &Operand<'_>) -> Option<Relation4> {
        // Parts share no cell: names of two parts, neither with a part
        // nested inside it, are disjoint.
        if let (Operand::Named { home: ha, .. }, Operand::Named { home: hb, .. }) = (a, b) {
            if ha.part != hb.part && ha.nested.is_empty() && hb.nested.is_empty() {
                return Some(Relation4::Disjoint);
            }
        }
        if same_ids(a.faces(), b.faces()) {
            return Some(Relation4::Equal);
        }
        Relation4::from_matrix(self.matrix_of(a, b))
    }

    /// The 4-intersection relation between two named regions: what a `Rel`
    /// atom over the two names tests, and what `topodb::Snapshot` serves as
    /// a relation read. `Ok(None)` means the classifier found a matrix no
    /// pair of regions realizes, which only a defective complex produces.
    pub fn named_relation(&self, a: &str, b: &str) -> Result<Option<Relation4>, EvalError> {
        let index = |n: &str| self.name_index(n).ok_or_else(|| EvalError::UnknownName(n.into()));
        Ok(self.relation_of_names(index(a)?, index(b)?))
    }

    /// The one classifier of named regions. A region's closure lies inside
    /// its boundary bbox, so two regions whose boxes do not interact are
    /// `disjoint`, answered without resolving either region. A region with
    /// a box has a boundary edge and positive area, so its faces are not
    /// empty (empty regions would compare `equal` whatever their boxes).
    /// Otherwise — boxless names included — both named regions, read
    /// through their homes out of their parts' tables, go to the
    /// 4-intersection classifier.
    fn relation_of_names(&self, a: usize, b: usize) -> Option<Relation4> {
        if let (Some(ab), Some(bb)) = (&self.bboxes[a], &self.bboxes[b]) {
            if !ab.intersects(bb) {
                self.rel_shortcut_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Relation4::Disjoint);
            }
        }
        self.classify(&self.named(a), &self.named(b))
    }

    // ---- formula evaluation ---------------------------------------------

    /// Evaluate a sentence. Its plan is built for this call; a
    /// [`crate::PreparedQuery`] builds it once.
    pub fn eval(&self, formula: &Formula) -> Result<bool, EvalError> {
        Ok(!self.eval_bindings_planned(&QueryPlan::build(formula, &[]))?.is_empty())
    }

    /// Evaluate a formula with free name variables as a *set-returning*
    /// query: enumerate every assignment of the variables in `free` to region
    /// names of the instance and return, in lexicographic assignment order,
    /// the assignments under which the formula holds.
    ///
    /// `free` is typically `formula.free_name_vars()`; passing a variable the
    /// formula does not mention is allowed (it ranges over all names and
    /// multiplies the result rows), and passing a closed formula with
    /// `free = []` returns either one empty row (the formula holds) or no
    /// rows — the relational-algebra convention for 0-ary queries.
    pub fn eval_bindings(
        &self,
        formula: &Formula,
        free: &[String],
    ) -> Result<Vec<Bindings>, EvalError> {
        self.eval_bindings_planned(&QueryPlan::build(formula, free))
    }

    /// The cartesian-product enumerator: every assignment of `free` over
    /// `names(I)` is tried and the formula evaluated on each — `O(n^k)`
    /// evaluations. Kept as the reference of the free-variable planner; the
    /// quantifiers inside the formula run as planned, so the reference of
    /// those is the name-grounding oracle of the query crate's tests. See
    /// [`CellEvaluator::eval_bindings`] and the crate docs' "Planning model"
    /// section.
    pub fn eval_bindings_naive(
        &self,
        formula: &Formula,
        free: &[String],
    ) -> Result<Vec<Bindings>, EvalError> {
        let mut env = Environment::default();
        let mut out = Vec::new();
        self.eval_bindings_inner(&Step::compile(formula), free, &mut env, &mut out)?;
        Ok(out)
    }

    fn eval_bindings_inner<'a>(
        &'a self,
        step: &Step,
        free: &[String],
        env: &mut Environment<'a>,
        out: &mut Vec<Bindings>,
    ) -> Result<(), EvalError> {
        match free.split_first() {
            None => {
                if self.run(step, env)? {
                    out.push(self.materialize_row(&env.names));
                }
                Ok(())
            }
            Some((var, rest)) => {
                // Bind by *index*, mutating one map slot per candidate — no
                // per-candidate string clones in the hot loop.
                env.names.insert(var.clone(), usize::MAX);
                let mut result = Ok(());
                for idx in 0..self.complex.region_names().len() {
                    self.assignments.fetch_add(1, Ordering::Relaxed);
                    *env.names.get_mut(var).expect("bound above") = idx;
                    result = self.eval_bindings_inner(step, rest, env, out);
                    if result.is_err() {
                        break;
                    }
                }
                env.names.remove(var);
                result
            }
        }
    }

    /// Run a pre-built [`QueryPlan`] — what [`crate::PreparedQuery`] stores
    /// at compile time: the semi-join enumerator of its free variables, or,
    /// for a sentence's plan, one empty row if the sentence holds and none
    /// otherwise. See the crate docs' "Planning model" section for the
    /// strategy and its guarantees.
    pub fn eval_bindings_planned(&self, plan: &QueryPlan) -> Result<Vec<Bindings>, EvalError> {
        let k = plan.vars().len();
        if k > 0 && self.complex.region_names().is_empty() {
            return Ok(Vec::new());
        }
        let mut env = Environment::default();
        let order = self.plan_order_ids(plan, &mut env.probes);
        let mut pos_of = vec![0usize; k];
        for (p, &v) in order.iter().enumerate() {
            pos_of[v] = p;
        }

        // Schedule every conjunct at the earliest position where all its
        // plan variables are bound; variable-free conjuncts run up front
        // (pruning the whole enumeration when one is false).
        let mut ready_at: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (ci, conjunct) in plan.conjuncts().iter().enumerate() {
            match conjunct.vars.iter().map(|&v| pos_of[v]).max() {
                Some(last) => ready_at[last].push(ci),
                None => {
                    if !self.run(&conjunct.step, &mut env)? {
                        return Ok(Vec::new());
                    }
                }
            }
        }

        let mut assignment: Vec<usize> = vec![usize::MAX; k];
        let mut rows: Vec<Vec<usize>> = Vec::new();
        self.enumerate_planned(0, &order, &ready_at, plan, &mut env, &mut assignment, &mut rows)?;
        // The enumeration visits variables in selectivity order; the output
        // contract (matching the naive path) is lexicographic in the *free*
        // variable order, which — names being sorted — is exactly the index
        // order of the assignment vectors.
        rows.sort_unstable();
        Ok(rows
            .into_iter()
            .map(|vals| {
                plan.vars()
                    .iter()
                    .zip(&vals)
                    .map(|(v, &i)| (v.clone(), self.complex.region_names()[i].clone()))
                    .collect()
            })
            .collect())
    }

    /// The planner's variable binding order: greedy smallest-estimated
    /// candidate set first (see [`CellEvaluator::planned_var_order`]). The
    /// last variable has no rival, so it is placed without an estimate
    /// (which could probe the index once per name).
    fn plan_order_ids(&self, plan: &QueryPlan, probes: &mut Probes) -> Vec<usize> {
        let k = plan.vars().len();
        let mut order: Vec<usize> = Vec::with_capacity(k);
        let mut placed = vec![false; k];
        while order.len() + 1 < k {
            let mut best: Option<(usize, usize)> = None;
            for v in 0..k {
                if placed[v] {
                    continue;
                }
                let placed_var = |y: &str| plan.vars().iter().position(|w| w == y).is_some_and(|u| placed[u]);
                let est = self.estimate_candidates(plan.generators(v), placed_var, probes);
                if best.is_none_or(|(be, _)| est < be) {
                    best = Some((est, v));
                }
            }
            let (_, v) = best.expect("an unplaced variable remains");
            placed[v] = true;
            order.push(v);
        }
        order.extend((0..k).filter(|&v| !placed[v]));
        order
    }

    /// Estimated candidate-set size of a variable given which variables are
    /// already ordered before it: 1 for an exact pin, the index-reported
    /// neighbor count for a constant contact, the instance's average bbox
    /// degree for a contact with an earlier variable, `n` when
    /// unconstrained. The minimum over the usable generators.
    fn estimate_candidates(
        &self,
        generators: &[Generator],
        placed: impl Fn(&str) -> bool,
        probes: &mut Probes,
    ) -> usize {
        let n = self.complex.region_names().len();
        let mut est = n;
        for g in generators {
            let e = match g {
                Generator::ExactConst(c) => self.name_index(c).map(|_| 1),
                Generator::ExactVar(y) => placed(y).then_some(1),
                Generator::NeighborsOfConst(c) => {
                    self.name_index(c).and_then(|i| self.neighbor_list(i, probes)).map(|list| list.len())
                }
                Generator::NeighborsOfVar(y) => placed(y).then(|| self.average_degree(probes)),
            };
            if let Some(e) = e {
                est = est.min(e);
            }
        }
        est
    }

    /// The planner's variable binding order for a plan, by name — greedy
    /// selectivity ordering, exposed for inspection and tests. The first
    /// variable is the one with the smallest estimated candidate set (ties
    /// broken by plan position, so the order is deterministic).
    pub fn planned_var_order(&self, plan: &QueryPlan) -> Vec<String> {
        self.plan_order_ids(plan, &mut Probes::default())
            .into_iter()
            .map(|v| plan.vars()[v].clone())
            .collect()
    }

    /// The bbox-neighbor list of a named region, probed once per evaluation
    /// (`None` when the region has no box — then nothing can be pruned
    /// through it).
    fn neighbor_list(&self, i: usize, probes: &mut Probes) -> Option<Rc<[usize]>> {
        let bbox = self.bboxes[i].as_ref()?;
        Some(match probes.lists.binary_search_by_key(&i, |(j, _)| *j) {
            Ok(at) => Rc::clone(&probes.lists[at].1),
            Err(at) => {
                let list: Rc<[usize]> = self.spatial_index().bbox_neighbors(bbox).into();
                probes.lists.insert(at, (i, Rc::clone(&list)));
                list
            }
        })
    }

    /// Average bbox-neighbor count over all names (the planner's stand-in
    /// selectivity for contact atoms whose other side is not yet bound),
    /// computed once per evaluation.
    fn average_degree(&self, probes: &mut Probes) -> usize {
        if let Some(d) = probes.average_degree {
            return d;
        }
        let n = self.complex.region_names().len();
        let total: usize = (0..n).map(|i| self.neighbor_list(i, probes).map_or(n, |list| list.len())).sum();
        let d = (total / n.max(1)).max(1);
        probes.average_degree = Some(d);
        d
    }

    /// The names a name variable ranges over under its generators: the
    /// intersection of the candidate sets of every generator that resolves,
    /// or every name when none does. A generator that does not resolve (an
    /// unknown constant, an unbound variable, a region with no box) is
    /// skipped: pruning may only shrink the range, never decide, and what
    /// the range holds is still tested by the formula itself.
    fn candidates(&self, generators: &[Generator], env: &mut Environment<'_>) -> Candidates {
        let mut listed: Option<Rc<[usize]>> = None;
        for g in generators {
            let set = match g {
                Generator::ExactConst(c) => self.name_index(c).map(|i| Rc::from(&[i][..])),
                Generator::ExactVar(y) => env.names.get(y).map(|&i| Rc::from(&[i][..])),
                Generator::NeighborsOfConst(c) => {
                    self.name_index(c).and_then(|i| self.neighbor_list(i, &mut env.probes))
                }
                Generator::NeighborsOfVar(y) => {
                    env.names.get(y).copied().and_then(|i| self.neighbor_list(i, &mut env.probes))
                }
            };
            if let Some(set) = set {
                listed = Some(match listed {
                    None => set,
                    Some(prev) => intersect_sorted(&prev, &set).into(),
                });
            }
        }
        listed.map_or(Candidates::All(self.complex.region_names().len()), Candidates::Listed)
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_planned<'a>(
        &'a self,
        pos: usize,
        order: &[usize],
        ready_at: &[Vec<usize>],
        plan: &QueryPlan,
        env: &mut Environment<'a>,
        assignment: &mut Vec<usize>,
        rows: &mut Vec<Vec<usize>>,
    ) -> Result<(), EvalError> {
        if pos == order.len() {
            rows.push(assignment.clone());
            return Ok(());
        }
        let var_id = order[pos];
        let var = &plan.vars()[var_id];
        let candidates = self.candidates(plan.generators(var_id), env);
        env.names.insert(var.clone(), usize::MAX);
        for idx in candidates.iter() {
            self.assignments.fetch_add(1, Ordering::Relaxed);
            assignment[var_id] = idx;
            *env.names.get_mut(var).expect("bound above") = idx;
            // Semi-join filters: every conjunct whose last variable is this
            // one is decided now, pruning the whole subtree on failure.
            let mut keep = true;
            for &ci in &ready_at[pos] {
                if !self.run(&plan.conjuncts()[ci].step, env)? {
                    keep = false;
                    break;
                }
            }
            if keep {
                self.enumerate_planned(pos + 1, order, ready_at, plan, env, assignment, rows)?;
            }
        }
        assignment[var_id] = usize::MAX;
        env.names.remove(var);
        Ok(())
    }

    /// Materialize a result row from the interned environment.
    fn materialize_row(&self, names_env: &BTreeMap<String, usize>) -> Bindings {
        names_env
            .iter()
            .map(|(v, &i)| (v.clone(), self.complex.region_names()[i].clone()))
            .collect()
    }

    fn resolve_name(&self, t: &NameTerm, env: &Environment) -> Result<usize, EvalError> {
        match t {
            NameTerm::Const(c) => {
                self.name_index(c).ok_or_else(|| EvalError::UnknownName(c.clone()))
            }
            NameTerm::Var(v) => env
                .names
                .get(v)
                .copied()
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        }
    }

    fn resolve_region<'a>(
        &'a self,
        e: &RegionExpr,
        env: &Environment<'a>,
    ) -> Result<Operand<'a>, EvalError> {
        match e {
            RegionExpr::Var(v) => env
                .regions
                .get(v)
                .map(|&value| Operand::Value(value))
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            RegionExpr::Ext(t) => Ok(self.named(self.resolve_name(t, env)?)),
        }
    }

    fn run<'a>(&'a self, step: &Step, env: &mut Environment<'a>) -> Result<bool, EvalError> {
        match step {
            Step::Rel(r, p, q) => {
                // Named operands go to the one classifier of named regions.
                // Before it, the nesting short-circuit: a containment-
                // implying atom whose interacting boxes are not nested
                // accordingly is provably false — `contains`/`covers` imply
                // the right closure sits inside the left (so the right box
                // inside the left box), `inside`/`covered_by` the converse,
                // `equal` implies identical boundaries and hence identical
                // boxes. Boxes that do not interact are left to the
                // classifier's disjointness short-circuit. Anonymous
                // (quantified) operands have no precomputed box and go
                // straight to the 4-intersection classifier.
                if let (RegionExpr::Ext(pt), RegionExpr::Ext(qt)) = (p, q) {
                    let pi = self.resolve_name(pt, env)?;
                    let qi = self.resolve_name(qt, env)?;
                    if let (Some(pb), Some(qb)) = (&self.bboxes[pi], &self.bboxes[qi]) {
                        let nested = match r {
                            Relation4::Contains | Relation4::Covers => pb.contains_box(qb),
                            Relation4::Inside | Relation4::CoveredBy => qb.contains_box(pb),
                            Relation4::Equal => pb == qb,
                            _ => true,
                        };
                        if pb.intersects(qb) && !nested {
                            self.rel_nesting_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(false);
                        }
                    }
                    return Ok(self.relation_of_names(pi, qi) == Some(*r));
                }
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(self.classify(&a, &b) == Some(*r))
            }
            Step::Connect(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(self.connected(&a, &b))
            }
            Step::Subset(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(is_subset(a.faces(), b.faces()))
            }
            Step::NameEq(x, y) => Ok(self.resolve_name(x, env)? == self.resolve_name(y, env)?),
            Step::Not(s) => Ok(!self.run(s, env)?),
            Step::Junction { or, parts } => self.junction(parts, *or, env),
            Step::Quantifier(q) => self.quantify(q, env),
        }
    }

    /// A conjunction stops at the first false part, a disjunction at the
    /// first true one.
    fn junction<'a>(&'a self, parts: &[Step], or: bool, env: &mut Environment<'a>) -> Result<bool, EvalError> {
        for part in parts {
            if self.run(part, env)? == or {
                return Ok(or);
            }
        }
        Ok(!or)
    }

    /// Evaluate a quantifier (see [`Quantifier`]): over an empty domain it
    /// holds iff it is universal; otherwise the parts of its body that do
    /// not mention its variable run once, and unless one of them decides
    /// the body's junction, the other parts run with the variable bound to
    /// each value in turn — every quantifier value for a region variable,
    /// the names its generators allow for a name variable — up to the first
    /// decisive one (a witness of `∃`, a counterexample of `∀`).
    fn quantify<'a>(&'a self, q: &Quantifier, env: &mut Environment<'a>) -> Result<bool, EvalError> {
        let domain = if q.names { None } else { Some(self.quantifier_domain()?) };
        if domain.map_or(self.complex.region_names().len(), <[CellRegion]>::len) == 0 {
            return Ok(!q.existential);
        }
        for part in &q.outer {
            if self.run(part, env)? == q.or {
                return Ok(q.or);
            }
        }
        if q.inner.is_empty() {
            return Ok(!q.or);
        }
        match domain {
            Some(domain) => self.range(q, domain.iter(), |env| &mut env.regions, env),
            None => {
                let candidates = self.candidates(&q.generators, env);
                let tried = candidates.iter().inspect(|_| {
                    self.assignments.fetch_add(1, Ordering::Relaxed);
                });
                self.range(q, tried, |env| &mut env.names, env)
            }
        }
    }

    /// Run a quantifier's inner parts with its variable bound to each of
    /// `values` in turn — through the environment map `slot` selects, bound
    /// once and overwritten — up to the first decisive value. Any outer
    /// binding of the same variable name (a shadowed quantifier, or a free
    /// variable being enumerated) is restored before returning.
    fn range<'a, V>(
        &'a self,
        q: &Quantifier,
        mut values: impl Iterator<Item = V>,
        slot: for<'e> fn(&'e mut Environment<'a>) -> &'e mut BTreeMap<String, V>,
        env: &mut Environment<'a>,
    ) -> Result<bool, EvalError> {
        let Some(first) = values.next() else { return Ok(!q.existential) };
        let outer = slot(env).insert(q.var.clone(), first);
        let mut decided = Ok(!q.existential);
        loop {
            match self.junction(&q.inner, q.or, env) {
                Ok(holds) if holds != q.existential => {}
                result => {
                    decided = result;
                    break;
                }
            }
            let Some(value) = values.next() else { break };
            if let Some(bound) = slot(env).get_mut(&q.var) {
                *bound = value;
            }
        }
        match outer {
            Some(outer) => {
                if let Some(bound) = slot(env).get_mut(&q.var) {
                    *bound = outer;
                }
            }
            None => {
                slot(env).remove(&q.var);
            }
        }
        decided
    }
}

/// Variable bindings during evaluation. Name variables bind to *indices*
/// into the evaluator's sorted name list (interning — the enumeration hot
/// loops never clone a name string); region variables bind to quantifier
/// domain values, borrowed with their closure memo. The planner's probes of
/// this evaluation ride along.
#[derive(Default)]
struct Environment<'a> {
    regions: BTreeMap<String, &'a CellRegion>,
    names: BTreeMap<String, usize>,
    probes: Probes,
}

/// Per-evaluation planner scratch, sized by what the evaluation probes: the
/// bbox-neighbor lists of the names probed so far (one probe per name per
/// evaluation at most), ascending by name, and the memoized average degree.
#[derive(Default)]
struct Probes {
    lists: Vec<(usize, Rc<[usize]>)>,
    average_degree: Option<usize>,
}

/// The names a name variable ranges over: every name, or the ascending
/// list its generators allow.
enum Candidates {
    All(usize),
    Listed(Rc<[usize]>),
}

impl Candidates {
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (all, listed) = match self {
            Candidates::All(n) => (0..*n, &[][..]),
            Candidates::Listed(list) => (0..0, &list[..]),
        };
        all.chain(listed.iter().copied())
    }
}

/// A region operand of an atom: a name, read through its home out of its
/// part's table, or a quantifier value.
enum Operand<'a> {
    Named { home: RegionHome<'a>, slot: &'a OnceLock<ClosureCells> },
    Value(&'a CellRegion),
}

impl Operand<'_> {
    /// The operand's faces.
    fn faces(&self) -> Ids<'_, FaceId> {
        match self {
            Operand::Named { home, .. } => Ids { run: &home.faces, offset: home.offsets.face, spans: home.nested.faces() },
            Operand::Value(value) => Ids::run(&value.faces),
        }
    }
}

/// The closure cells of an operand besides its faces, by kind.
struct Closure<'a> {
    boundary_edges: Ids<'a, usize>,
    interior_edges: Ids<'a, usize>,
    boundary_vertices: Ids<'a, usize>,
    interior_vertices: Ids<'a, usize>,
}

/// A cell id the set helpers read as an index: a face or a plain id.
trait Id: Copy {
    fn index(self) -> usize;
}

impl Id for usize {
    fn index(self) -> usize {
        self
    }
}

impl Id for FaceId {
    fn index(self) -> usize {
        self.0
    }
}

/// An ascending set of cell ids: the ascending `run` of a part's ids, each
/// shifted by `offset`, together with the whole ranges `spans` (ascending,
/// disjoint, and disjoint from the shifted run).
#[derive(Clone, Copy)]
struct Ids<'a, T> {
    run: &'a [T],
    offset: usize,
    spans: &'a [Range<usize>],
}

impl<'a, T: Id> Ids<'a, T> {
    /// A run of ids as they are.
    fn run(run: &'a [T]) -> Ids<'a, T> {
        Ids { run, offset: 0, spans: &[] }
    }

    /// The `i`-th id of the shifted run.
    fn at(&self, i: usize) -> usize {
        self.run[i].index() + self.offset
    }

    fn len(&self) -> usize {
        self.run.len() + self.spans.iter().map(ExactSizeIterator::len).sum::<usize>()
    }

    /// How many ids of the shifted run lie in `range`.
    fn run_count_in(&self, range: &Range<usize>) -> usize {
        let below = |bound: usize| self.run.partition_point(|x| x.index() + self.offset < bound);
        below(range.end) - below(range.start)
    }
}

/// Do two id sets share an element? Two runs at the same offset (a name
/// against a name of its own part, or two quantifier values) are merged as
/// they are; runs at different offsets are merged shifted, after a test of
/// their extents (runs of different parts never overlap); and each span
/// costs two binary searches of the other run.
fn meets<T: Id>(a: Ids<'_, T>, b: Ids<'_, T>) -> bool {
    let runs_meet = if a.offset == b.offset { merge_meets(a.run, b.run, 0, 0) } else { shifted_runs_meet(a, b) };
    runs_meet
        || !(a.spans.is_empty() && b.spans.is_empty())
            && (a.spans.iter().any(|s| b.run_count_in(s) > 0)
                || b.spans.iter().any(|s| a.run_count_in(s) > 0)
                || spans_meet(a.spans, b.spans))
}

fn shifted_runs_meet<T: Id>(a: Ids<'_, T>, b: Ids<'_, T>) -> bool {
    let (Some(a0), Some(a1), Some(b0), Some(b1)) = (a.run.first(), a.run.last(), b.run.first(), b.run.last()) else {
        return false;
    };
    let (oa, ob) = (a.offset, b.offset);
    a1.index() + oa >= b0.index() + ob && b1.index() + ob >= a0.index() + oa && merge_meets(a.run, b.run, oa, ob)
}

/// Does a run shifted by `oa` share an id with a run shifted by `ob`?
fn merge_meets<T: Id>(a: &[T], b: &[T], oa: usize, ob: usize) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match (a[i].index() + oa).cmp(&(b[j].index() + ob)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn spans_meet(a: &[Range<usize>], b: &[Range<usize>]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].is_empty() || a[i].end <= b[j].start {
            i += 1;
        } else if b[j].is_empty() || b[j].end <= a[i].start {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

/// Is every id of `a` in `b`? One pass over `a`'s run against `b`'s run and
/// spans, then each of `a`'s spans counted in `b`.
fn is_subset<T: Id>(a: Ids<'_, T>, b: Ids<'_, T>) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let (mut j, mut k) = (0, 0);
    for i in 0..a.run.len() {
        let x = a.at(i);
        while k < b.spans.len() && b.spans[k].end <= x {
            k += 1;
        }
        if b.spans.get(k).is_some_and(|s| s.start <= x) {
            continue;
        }
        while j < b.run.len() && b.at(j) < x {
            j += 1;
        }
        if j == b.run.len() || b.at(j) != x {
            return false;
        }
    }
    a.spans.iter().all(|s| {
        let in_spans: usize = b.spans.iter().map(|t| t.end.min(s.end).saturating_sub(t.start.max(s.start))).sum();
        b.run_count_in(s) + in_spans == s.len()
    })
}

/// Do two id sets hold the same ids? Two sets without spans are equal iff
/// their shifted runs are, which the first differing id refutes.
fn same_ids<T: Id>(a: Ids<'_, T>, b: Ids<'_, T>) -> bool {
    if a.spans.is_empty() && b.spans.is_empty() {
        return a.run.len() == b.run.len() && (0..a.run.len()).all(|i| a.at(i) == b.at(i));
    }
    a.len() == b.len() && is_subset(a, b)
}

/// Is `x` an element of the ascending run `run`?
fn in_run<T: Ord>(run: &[T], x: &T) -> bool {
    run.binary_search(x).is_ok()
}

/// Intersection of two ascending-sorted index lists.
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Evaluate a sentence on an instance (builds the cell complex and the
/// evaluator internally).
pub fn eval_on_instance(instance: &SpatialInstance, formula: &Formula) -> Result<bool, EvalError> {
    CellEvaluator::new(instance).eval(formula)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Formula as F, RegionExpr as R};
    use arrangement::ComplexRead;
    use rand::{Rng, SeedableRng};
    use relations::Relation4::*;
    use spatial_core::fixtures;
    use std::collections::BTreeSet;

    /// The paper's Example 4.1 query: ∃r. r ⊆ A ∧ r ⊆ B ∧ r ⊆ C.
    fn triple_intersection_query() -> Formula {
        F::exists_region(
            "r",
            F::and(vec![
                F::subset(R::var("r"), R::named("A")),
                F::subset(R::var("r"), R::named("B")),
                F::subset(R::var("r"), R::named("C")),
            ]),
        )
    }

    /// The paper's Example 4.2 query (connected intersection):
    /// ∀r ∀r'. (r ⊆ A ∧ r ⊆ B ∧ r' ⊆ A ∧ r' ⊆ B) →
    ///          ∃r''. r'' ⊆ A ∧ r'' ⊆ B ∧ connect(r'', r) ∧ connect(r'', r').
    fn connected_intersection_query() -> Formula {
        let inside_ab = |v: &str| {
            F::and(vec![
                F::subset(R::var(v), R::named("A")),
                F::subset(R::var(v), R::named("B")),
            ])
        };
        F::forall_region(
            "r",
            F::forall_region(
                "s",
                F::implies(
                    F::and(vec![inside_ab("r"), inside_ab("s")]),
                    F::exists_region(
                        "t",
                        F::and(vec![
                            inside_ab("t"),
                            F::connect(R::var("t"), R::var("r")),
                            F::connect(R::var("t"), R::var("s")),
                        ]),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn example_4_1_separates_fig_1a_from_1b() {
        let q = triple_intersection_query();
        assert_eq!(eval_on_instance(&fixtures::fig_1a(), &q), Ok(true));
        assert_eq!(eval_on_instance(&fixtures::fig_1b(), &q), Ok(false));
    }

    #[test]
    fn example_4_2_separates_fig_1c_from_1d() {
        let q = connected_intersection_query();
        assert_eq!(eval_on_instance(&fixtures::fig_1c(), &q), Ok(true));
        assert_eq!(eval_on_instance(&fixtures::fig_1d(), &q), Ok(false));
    }

    #[test]
    fn example_2_1_connected_component_count() {
        // "A ∩ B has one connected component" holds for 1a, 1b, 1c, not 1d.
        let q = connected_intersection_query();
        assert_eq!(eval_on_instance(&fixtures::fig_1a(), &q), Ok(true));
        assert_eq!(eval_on_instance(&fixtures::fig_1b(), &q), Ok(true));
    }

    #[test]
    fn relation_atoms_match_geometric_relations() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let expected = relations::Relation4::from_name(name).unwrap();
            for r in relations::Relation4::ALL {
                let q = F::rel(r, R::named("A"), R::named("B"));
                assert_eq!(
                    eval_on_instance(&inst, &q),
                    Ok(r == expected),
                    "{name} vs atom {r}"
                );
            }
        }
    }

    #[test]
    fn rel_bbox_shortcut_answers_disjoint_and_counts() {
        use spatial_core::prelude::Region;
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 2, 2)),
            ("B", Region::rect_from_ints(10, 10, 12, 12)),
        ]);
        let ev = CellEvaluator::new(&inst);
        assert_eq!(ev.rel_shortcuts(), 0);
        for r in relations::Relation4::ALL {
            let q = F::rel(r, R::named("A"), R::named("B"));
            assert_eq!(ev.eval(&q), Ok(r == Disjoint), "atom {r}");
        }
        assert_eq!(
            ev.rel_shortcuts(),
            relations::Relation4::ALL.len() as u64,
            "every named atom over box-disjoint regions short-circuits"
        );
    }

    #[test]
    fn rel_shortcut_falls_through_when_boxes_interact() {
        use spatial_core::prelude::{Polygon, Region};
        // Disjoint regions with *interacting* boxes: the triangle's bbox
        // contains the square, but the square lies beyond the hypotenuse —
        // the full 4-intersection classifier must answer, not the shortcut.
        let tri = Polygon::from_ints(&[(0, 0), (10, 0), (0, 10)]).unwrap();
        let inst = SpatialInstance::from_regions([
            ("A", Region::polygon(tri)),
            ("B", Region::rect_from_ints(7, 7, 9, 9)),
        ]);
        let ev = CellEvaluator::new(&inst);
        let q = F::rel(Disjoint, R::named("A"), R::named("B"));
        assert_eq!(ev.eval(&q), Ok(true));
        assert_eq!(ev.rel_shortcuts(), 0, "interacting boxes must not shortcut");
    }

    #[test]
    fn rel_nesting_shortcut_refutes_containment_atoms() {
        use spatial_core::prelude::Region;
        // Overlapping boxes, neither containing the other, and unequal:
        // every containment-implying atom is refuted by nesting alone,
        // while `disjoint`/`meet`/`overlap` fall through to the classifier.
        let inst = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 6, 6)),
            ("B", Region::rect_from_ints(4, 4, 10, 10)),
        ]);
        let ev = CellEvaluator::new(&inst);
        for r in [
            relations::Relation4::Contains,
            relations::Relation4::Inside,
            relations::Relation4::Covers,
            relations::Relation4::CoveredBy,
            relations::Relation4::Equal,
        ] {
            let q = F::rel(r, R::named("A"), R::named("B"));
            assert_eq!(ev.eval(&q), Ok(false), "atom {r}");
        }
        let (disjoint_hits, nesting_hits) = ev.rel_shortcuts_by_kind();
        assert_eq!(disjoint_hits, 0, "boxes interact, the disjointness kind never fires");
        assert_eq!(nesting_hits, 5, "every containment-implying atom was refuted by nesting");
        assert_eq!(ev.rel_shortcuts(), 5, "the total is the sum of both kinds");
    }

    #[test]
    fn rel_nesting_shortcut_falls_through_when_boxes_nest() {
        use spatial_core::prelude::{Polygon, Region};
        // The triangle's bbox contains the square's, but the square lies
        // beyond the hypotenuse: `contains(A, B)` is false *geometrically*,
        // and only the full classifier can tell — nested boxes are
        // necessary, not sufficient, so the shortcut must not fire.
        let tri = Polygon::from_ints(&[(0, 0), (10, 0), (0, 10)]).unwrap();
        let inst = SpatialInstance::from_regions([
            ("A", Region::polygon(tri)),
            ("B", Region::rect_from_ints(7, 7, 9, 9)),
        ]);
        let ev = CellEvaluator::new(&inst);
        let q = F::rel(relations::Relation4::Contains, R::named("A"), R::named("B"));
        assert_eq!(ev.eval(&q), Ok(false));
        assert_eq!(ev.rel_shortcuts(), 0, "nested boxes must reach the classifier");

        // And a true containment with nested boxes also falls through —
        // the shortcut only ever *refutes*.
        let inst2 = SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 10, 10)),
            ("B", Region::rect_from_ints(3, 3, 6, 6)),
        ]);
        let ev2 = CellEvaluator::new(&inst2);
        let q2 = F::rel(relations::Relation4::Contains, R::named("A"), R::named("B"));
        assert_eq!(ev2.eval(&q2), Ok(true));
        assert_eq!(ev2.rel_shortcuts(), 0);
    }

    #[test]
    fn rel_nesting_shortcut_agrees_with_classifier_on_fig_2_pairs() {
        // Differential: on every fig. 2 pair, every atom answered with the
        // shortcuts enabled equals the pure classifier's verdict (the
        // shortcut only fires where the classifier would agree).
        for (name, inst) in fixtures::fig_2_pairs() {
            let expected = relations::Relation4::from_name(name).unwrap();
            let ev = CellEvaluator::new(&inst);
            for r in relations::Relation4::ALL {
                let q = F::rel(r, R::named("A"), R::named("B"));
                assert_eq!(ev.eval(&q), Ok(r == expected), "{name} vs atom {r}");
            }
        }
    }

    #[test]
    fn name_quantifiers() {
        // ∃a ∃b. a ≠ b ∧ overlap(a, b)
        let q = F::exists_name(
            "a",
            F::exists_name(
                "b",
                F::and(vec![
                    F::not(F::NameEq(NameTerm::Var("a".into()), NameTerm::Var("b".into()))),
                    F::rel(Overlap, R::Ext(NameTerm::Var("a".into())), R::Ext(NameTerm::Var("b".into()))),
                ]),
            ),
        );
        assert_eq!(eval_on_instance(&fixtures::fig_1a(), &q), Ok(true));
        assert_eq!(eval_on_instance(&fixtures::nested_three(), &q), Ok(false));
        // ∀a ∀b. a = b ∨ ¬disjoint(a, b)
        let q2 = F::forall_name(
            "a",
            F::forall_name(
                "b",
                F::or(vec![
                    F::NameEq(NameTerm::Var("a".into()), NameTerm::Var("b".into())),
                    F::not(F::rel(Disjoint, R::Ext(NameTerm::Var("a".into())), R::Ext(NameTerm::Var("b".into())))),
                ]),
            ),
        );
        assert_eq!(eval_on_instance(&fixtures::fig_1a(), &q2), Ok(true));
    }

    #[test]
    fn desugared_formulas_agree_with_primitive_ones() {
        // The connect-only rewriting of Section 4 is an equivalence over the
        // full Disc domain; over the impoverished cell domain of a tiny
        // two-region instance only the rewriting of `disjoint` (which is
        // simply ¬connect) remains exact, so that is what is checked here.
        // The richer instances used by the benchmark harness exercise more of
        // the rewriting.
        for (name, inst) in fixtures::fig_2_pairs() {
            let expected = relations::Relation4::from_name(name).unwrap();
            {
                let r = Disjoint;
                let q = F::rel(r, R::named("A"), R::named("B"));
                let desugared = q.desugar();
                assert_eq!(
                    eval_on_instance(&inst, &desugared),
                    Ok(r == expected),
                    "{name} vs desugared {r}"
                );
            }
        }
    }

    #[test]
    fn shadowed_quantifier_variables_are_restored() {
        // The inner `exists r` shadows the outer `r`; the outer binding must
        // be visible again in the conjunct evaluated after the inner
        // quantifier returns.
        let q = F::exists_region(
            "r",
            F::and(vec![
                F::exists_region("r", F::subset(R::var("r"), R::named("B"))),
                F::subset(R::var("r"), R::named("A")),
            ]),
        );
        assert_eq!(eval_on_instance(&fixtures::fig_1c(), &q), Ok(true));
        // Same for name variables.
        let qn = F::exists_name(
            "a",
            F::and(vec![
                F::exists_name("a", F::rel(Overlap, R::Ext(NameTerm::Var("a".into())), R::named("B"))),
                F::rel(Overlap, R::Ext(NameTerm::Var("a".into())), R::named("B"))],
            ),
        );
        assert_eq!(eval_on_instance(&fixtures::fig_1c(), &qn), Ok(true));
    }

    #[test]
    fn unknown_names_and_unbound_variables_error() {
        let inst = fixtures::fig_1c();
        assert_eq!(
            eval_on_instance(&inst, &F::connect(R::named("Z"), R::named("A"))),
            Err(EvalError::UnknownName("Z".into()))
        );
        assert_eq!(
            eval_on_instance(&inst, &F::connect(R::var("r"), R::named("A"))),
            Err(EvalError::UnboundVariable("r".into()))
        );
    }

    #[test]
    fn quantifier_domain_is_reasonable() {
        let ev = CellEvaluator::new(&fixtures::fig_1c());
        let domain = ev.quantifier_domain().unwrap();
        // fig 1c has 3 bounded faces arranged in a path in the dual graph:
        // A-only – lens – B-only. Connected, simply connected subsets:
        // {1}, {2}, {3}, {1,2}, {2,3}, {1,2,3} = 6.
        assert_eq!(domain.len(), 6);
        // A 5 x 5 grid has more disc-like unions of its cells than the cap.
        let grid = CellEvaluator::new(&datagen::grid_map(5, 5, 10));
        assert_eq!(
            grid.quantifier_domain().err(),
            Some(EvalError::DomainTooLarge { regions_found: DOMAIN_CAP, cap: DOMAIN_CAP })
        );
    }

    fn domain_fixtures() -> Vec<(&'static str, SpatialInstance)> {
        vec![
            ("fig_1a", fixtures::fig_1a()),
            ("fig_1b", fixtures::fig_1b()),
            ("fig_1c", fixtures::fig_1c()),
            ("fig_1d", fixtures::fig_1d()),
            ("nested_three", fixtures::nested_three()),
        ]
    }

    #[test]
    fn quantifier_domain_is_every_disc_like_face_union_once() {
        // Brute force over all subsets of bounded faces: the enumerator must
        // list exactly the dual-connected, complement-connected ones, each
        // once.
        for (name, inst) in domain_fixtures() {
            let complex = build_complex_view(&inst);
            let ev = CellEvaluator::new(&inst);
            let dual = ev.dual();
            let exterior = complex.exterior_face();
            let bounded: Vec<FaceId> = complex.face_ids().filter(|&f| f != exterior).collect();
            assert!(bounded.len() <= 16, "{name}: brute force stays small");
            let connected = |set: &BTreeSet<FaceId>, start: FaceId| -> usize {
                let mut seen = BTreeSet::from([start]);
                let mut stack = vec![start];
                while let Some(f) = stack.pop() {
                    for &g in &dual[f.0] {
                        if set.contains(&g) && seen.insert(g) {
                            stack.push(g);
                        }
                    }
                }
                seen.len()
            };
            let mut expected: BTreeSet<Vec<FaceId>> = BTreeSet::new();
            for mask in 1u32..(1 << bounded.len()) {
                let s: BTreeSet<FaceId> = bounded
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &f)| f)
                    .collect();
                let rest: BTreeSet<FaceId> = complex.face_ids().filter(|f| !s.contains(f)).collect();
                let first = *s.iter().next().expect("nonempty");
                if connected(&s, first) == s.len() && connected(&rest, exterior) == rest.len() {
                    expected.insert(s.into_iter().collect());
                }
            }
            let domain = ev.quantifier_domain().unwrap();
            let listed: BTreeSet<Vec<FaceId>> = domain.iter().map(|r| r.faces().to_vec()).collect();
            assert_eq!(listed.len(), domain.len(), "{name}: a value listed twice");
            assert_eq!(listed, expected, "{name}");
        }
    }

    /// The ids of a set, ascending.
    fn listed<T: Id>(set: Ids<'_, T>) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..set.run.len()).map(|i| set.at(i)).collect();
        ids.extend(set.spans.iter().cloned().flatten());
        ids.sort_unstable();
        ids
    }

    #[test]
    fn face_set_walk_equals_the_whole_complex_scan() {
        // The walk over a face set's own incidence, and a name's operand
        // (its part's cells shifted by the view's offsets, the nested parts'
        // ranges beside them), against the definitions applied to every
        // face, edge and vertex of the flat complex.
        for (name, inst) in domain_fixtures().into_iter().chain([
            ("ring_with_island", fixtures::ring_with_island(true)),
            ("shared_boundary", fixtures::shared_boundary()),
            ("nested_rings", datagen::nested_rings(4)),
        ]) {
            let flat = build_complex_view(&inst).to_cell_complex();
            let ev = CellEvaluator::new(&inst);
            let edges = |s: &[FaceId], both: bool| -> Vec<usize> {
                let inside = |f: FaceId| s.contains(&f);
                flat.edge_ids()
                    .filter(|&e| {
                        let (l, r) = ComplexRead::edge_faces(&flat, e);
                        if both { inside(l) && inside(r) } else { inside(l) != inside(r) }
                    })
                    .map(|e| e.0)
                    .collect()
            };
            let vertices = |s: &[FaceId], all: bool| -> Vec<usize> {
                flat.vertex_ids()
                    .filter(|&v| {
                        let faces = flat.vertex_faces(v);
                        let n = faces.iter().filter(|f| s.contains(f)).count();
                        if all { n > 0 && n == faces.len() } else { n > 0 && n < faces.len() }
                    })
                    .map(|v| v.0)
                    .collect()
            };
            let expected = |s: &[FaceId]| {
                [edges(s, false), edges(s, true), vertices(s, false), vertices(s, true)]
            };
            for region in ev.quantifier_domain().unwrap() {
                let s = region.faces();
                let walked = closure_cells(&flat, s);
                let walked = [walked.boundary_edges(), walked.interior_edges(), walked.boundary_vertices(), walked.interior_vertices()].map(<[usize]>::to_vec);
                assert_eq!(walked, expected(s), "{name} {s:?}");
            }
            for (i, n) in ev.names().into_iter().enumerate() {
                let faces = ComplexRead::region_faces(&flat, n);
                let operand = ev.named(i);
                assert_eq!(listed(operand.faces()), faces.iter().map(|f| f.0).collect::<Vec<_>>(), "{name} {n}");
                let c = ev.closure(&operand);
                let read = [c.boundary_edges, c.interior_edges, c.boundary_vertices, c.interior_vertices].map(listed);
                assert_eq!(read, expected(&faces), "{name} {n}");
            }
        }
    }

    #[test]
    fn named_region_relations_via_cells() {
        let ev = CellEvaluator::new(&fixtures::nested_three());
        let rel = |a: &str, b: &str| ev.named_relation(a, b).unwrap();
        assert_eq!(rel("A", "B"), Some(Contains));
        assert_eq!(rel("B", "A"), Some(Inside));
        assert_eq!(rel("C", "A"), Some(Inside));
        assert_eq!(rel("A", "A"), Some(Equal));
        assert!(ev.connected(&ev.named(0), &ev.named(1)));
    }

    /// A random id set over `0..universe` in the evaluator's form — a run
    /// shifted by an offset, with whole ranges beside it — and as a
    /// `BTreeSet`.
    fn draw_ids(rng: &mut rand::rngs::StdRng, universe: usize) -> (Vec<usize>, usize, Vec<Range<usize>>, BTreeSet<usize>) {
        let (mut ids, mut spans, mut set) = (Vec::new(), Vec::new(), BTreeSet::new());
        let mut at = 0;
        while at < universe {
            let end = (at + rng.gen_range(1..6usize)).min(universe);
            match rng.gen_range(0..3u32) {
                0 => {}
                1 => ids.extend((at..end).filter(|_| rng.gen_range(0..2u32) == 0)),
                _ => spans.push(at..end),
            }
            at = end;
        }
        set.extend(ids.iter().copied());
        set.extend(spans.iter().cloned().flatten());
        let offset = rng.gen_range(0..=ids.first().copied().unwrap_or(0));
        (ids.iter().map(|x| x - offset).collect(), offset, spans, set)
    }

    #[test]
    fn run_helpers_agree_with_btree_sets() {
        // The evaluator and its `from_complex` reference share these
        // helpers, so only a comparison with `BTreeSet` can catch a defect
        // in them. Each set is a shifted run with whole ranges beside it
        // (a name's cells) or a plain run (a quantifier value's); pairs are
        // drawn empty, equal in the other form, nested, disjoint and at
        // random.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for round in 0..4_000 {
            let universe = rng.gen_range(0..32usize);
            let (run, offset, spans, sa) = draw_ids(&mut rng, universe);
            let a = Ids { run: &run, offset, spans: &spans };
            let plain = |set: &BTreeSet<usize>| set.iter().copied().collect::<Vec<usize>>();
            let (other_run, other_offset, other_spans, sb) = match round % 5 {
                0 => (Vec::new(), 0, Vec::new(), BTreeSet::new()),
                1 => (plain(&sa), 0, Vec::new(), sa.clone()),
                2 => {
                    let sb: BTreeSet<usize> = sa.iter().copied().filter(|x| x % 3 != 0).collect();
                    (plain(&sb), 0, Vec::new(), sb)
                }
                3 => {
                    let sb: BTreeSet<usize> = sa.iter().map(|x| x + universe).collect();
                    (run.clone(), offset + universe, spans.iter().map(|s| s.start + universe..s.end + universe).collect(), sb)
                }
                _ => draw_ids(&mut rng, universe),
            };
            let b = Ids { run: &other_run, offset: other_offset, spans: &other_spans };
            for ((a, sa), (b, sb)) in [((a, &sa), (b, &sb)), ((b, &sb), (a, &sa))] {
                assert_eq!(listed(a), plain(sa), "listed {sa:?}");
                assert_eq!(a.len(), sa.len(), "len {sa:?}");
                assert_eq!(meets(a, b), sa.intersection(sb).next().is_some(), "meets {sa:?} {sb:?}");
                assert_eq!(is_subset(a, b), sa.is_subset(sb), "is_subset {sa:?} {sb:?}");
                assert_eq!(same_ids(a, b), sa == sb, "same_ids {sa:?} {sb:?}");
                let members = plain(sa);
                for x in 0..2 * universe + 1 {
                    assert_eq!(in_run(&members, &x), sa.contains(&x), "in_run {sa:?} {x}");
                }
            }
        }
    }
}
