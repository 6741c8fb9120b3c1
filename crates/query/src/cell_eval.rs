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
//! *faces* it consists of ([`CellRegion`]); interiors, boundaries and
//! closures of such regions are exact unions of cells, so every
//! 4-intersection atom is decided purely combinatorially — this is the
//! reduction of topological queries to the invariant promised by
//! Corollary 3.7, in executable form.
//!
//! ## Cost model
//!
//! One evaluation engine reads every cell through [`ComplexGeometry`]
//! (the combinatorial [`ComplexRead`](arrangement::ComplexRead) plus the
//! region boxes): names, each name's faces and box, the incidence of a
//! face, the two faces of an edge. It has two constructors, over the two
//! representations of a complex:
//!
//! * [`CellEvaluator::from_view`] (what `topodb::Snapshot::evaluator` and
//!   [`CellEvaluator::new`] build) reads a shared [`GlobalComplexView`].
//!   Construction is `O(regions + components)`: it copies the region boxes
//!   the component builds computed and scans no cell. A name's region is
//!   resolved on its first use and kept as the view returns it: the
//!   ascending run of the interior faces its component's build emitted.
//!   The planner probes the view's own two-level spatial index.
//! * [`CellEvaluator::from_complex`] reads any [`ComplexGeometry`] — over the
//!   flat [`arrangement::CellComplex`] it is the reference the view-backed
//!   evaluator is differentially tested against, served by the flat
//!   complex's own face scans and incidence tables.
//!
//! Either way the global dual graph is built only when a region quantifier
//! first needs it. Per atom, a relation between two named regions whose
//! boxes do not interact is answered from the boxes alone. Otherwise the
//! operands' boundary and interior edges and vertices come from walking the
//! incidence of their own faces — `O(faces × degree)`, once per
//! [`CellRegion`], which a named region's slot and a quantifier value each
//! hold — and every test (intersection, subset, equality) is a merge or a
//! comparison of ascending runs; nothing scans the complex.
//!
//! Relation reads ([`CellEvaluator::named_relation`], what
//! `topodb::Snapshot::{relation, relations_of, relation_matrix}` serve) run
//! the same classifier as a `Rel` atom over two names, so a read costs what
//! the atom costs: the two names' own faces on first use, a box test or a
//! list merge after. The whole-complex scan of the `relations` crate is the
//! reference it is tested against, not a second read path.

use crate::ast::{Formula, NameTerm, RegionExpr};
use crate::plan::{Generator, QueryPlan};
use arrangement::{
    build_complex_view, BBox, ComplexGeometry, FaceId, GlobalComplexView, SpatialIndex,
};
use relations::{FourIntersectionMatrix, Relation4};
use spatial_core::prelude::SpatialInstance;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A region of the evaluator, named or quantified: the ascending run of the
/// bounded faces it consists of, and the cells of its closure besides those
/// faces, walked from its faces' incidence on first use. Two regions are
/// equal when their faces are, since the rest follows from the faces.
#[derive(Debug)]
pub struct CellRegion {
    faces: Vec<FaceId>,
    parts: OnceLock<Parts>,
}

impl CellRegion {
    fn new(faces: Vec<FaceId>) -> CellRegion {
        CellRegion { faces, parts: OnceLock::new() }
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
    /// Per name, its region, resolved from the complex on first use.
    regions: Vec<OnceLock<CellRegion>>,
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
    /// Number of candidate values tried during binding enumeration (naive
    /// and planned paths both count). See
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

/// The cells of a region's closure besides its faces, each list ascending.
#[derive(Debug)]
struct Parts {
    /// Edges with exactly one incident face in the set.
    boundary_edges: Vec<usize>,
    /// Edges with both incident faces in the set.
    interior_edges: Vec<usize>,
    /// Vertices with some but not all incident faces in the set.
    boundary_vertices: Vec<usize>,
    /// Vertices with all incident faces in the set.
    interior_vertices: Vec<usize>,
}

impl CellEvaluator {
    /// Build the evaluator for an instance (constructs the zero-copy complex
    /// view and evaluates over it).
    pub fn new(instance: &SpatialInstance) -> CellEvaluator {
        CellEvaluator::from_view(Arc::new(build_complex_view(instance)))
    }

    /// The evaluator over a shared view: `O(regions + components)` to
    /// build, with every other table resolved from the view on first use
    /// (see the module docs' cost model). This is the product evaluator;
    /// the view's components carry what it derives from them alone across
    /// commits.
    pub fn from_view(view: Arc<GlobalComplexView>) -> CellEvaluator {
        CellEvaluator::over(view)
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
        CellEvaluator::over(Arc::new(complex.clone()))
    }

    fn over(complex: Arc<C>) -> CellEvaluator<C> {
        let bboxes = complex.region_bboxes();
        CellEvaluator {
            complex,
            regions: (0..bboxes.len()).map(|_| OnceLock::new()).collect(),
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

    /// How many candidate values the binding enumerators have tried (naive
    /// and planned paths both count one per variable-value attempt).
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

    /// A named region, its faces as [`region_faces`](arrangement::ComplexRead::region_faces) returns
    /// them, resolved on first use and then shared by every atom, relation
    /// read and query that names it.
    pub fn named_region(&self, name: &str) -> Option<&CellRegion> {
        Some(self.region(self.name_index(name)?))
    }

    fn region(&self, i: usize) -> &CellRegion {
        self.regions[i].get_or_init(|| {
            CellRegion::new(self.complex.region_faces(&self.complex.region_names()[i]))
        })
    }

    /// All legitimate quantifier values: nonempty, dual-connected,
    /// simply-connected unions of bounded faces, enumerated on first use.
    /// Each value walks its parts on its own first use, as a name does.
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

    // ---- region part computations -------------------------------------

    /// The edges and vertices of a region's closure, found by walking the
    /// incidence of its own faces: an edge is a boundary edge when exactly
    /// one of its faces is in the set and an interior edge when both are.
    /// Around a vertex, face membership changes only across a boundary
    /// edge, so the boundary vertices are the ends of the boundary edges and
    /// the interior vertices the other ends of interior edges.
    fn walk(&self, faces: &[FaceId]) -> Parts {
        let mut boundary: Vec<(usize, (usize, usize))> = Vec::new();
        let mut interior: Vec<(usize, (usize, usize))> = Vec::new();
        for &f in faces {
            self.complex.for_each_face_edge(f, |e, (l, r), (a, b)| {
                let cell = (e.0, (a.0, b.0));
                if in_run(faces, &l) && in_run(faces, &r) {
                    interior.push(cell);
                } else {
                    boundary.push(cell);
                }
            });
        }
        fn ends_of(edges: &mut Vec<(usize, (usize, usize))>) -> Vec<usize> {
            edges.sort_unstable();
            edges.dedup();
            let mut ends: Vec<usize> = edges.iter().flat_map(|&(_, (a, b))| [a, b]).collect();
            ends.sort_unstable();
            ends.dedup();
            ends
        }
        let boundary_vertices = ends_of(&mut boundary);
        let mut interior_vertices = ends_of(&mut interior);
        interior_vertices.retain(|v| boundary_vertices.binary_search(v).is_err());
        Parts {
            boundary_edges: boundary.into_iter().map(|(e, _)| e).collect(),
            interior_edges: interior.into_iter().map(|(e, _)| e).collect(),
            boundary_vertices,
            interior_vertices,
        }
    }

    fn parts<'a>(&self, region: &'a CellRegion) -> &'a Parts {
        region.parts.get_or_init(|| self.walk(&region.faces))
    }

    /// Do the closures of two regions intersect (the `connect` primitive)?
    pub fn connect(&self, a: &CellRegion, b: &CellRegion) -> bool {
        if meets(&a.faces, &b.faces) {
            return true;
        }
        // Closure = faces + boundary edges + boundary and interior vertices;
        // two disjoint face sets can only touch along boundary cells.
        let (pa, pb) = (self.parts(a), self.parts(b));
        meets(&pa.boundary_edges, &pb.boundary_edges)
            || [&pa.boundary_vertices, &pa.interior_vertices].iter().any(|va| {
                [&pb.boundary_vertices, &pb.interior_vertices].iter().any(|vb| meets(va, vb))
            })
    }

    /// The exact 4-intersection matrix between two regions.
    pub fn matrix(&self, a: &CellRegion, b: &CellRegion) -> FourIntersectionMatrix {
        let (pa, pb) = (self.parts(a), self.parts(b));
        // int(A) ∩ ∂B: ∂B's cells are edges and vertices, and one of them
        // lies in A's interior iff it is an interior edge or vertex of A.
        FourIntersectionMatrix {
            interiors: meets(&a.faces, &b.faces),
            boundaries: meets(&pa.boundary_edges, &pb.boundary_edges)
                || meets(&pa.boundary_vertices, &pb.boundary_vertices),
            interior_a_boundary_b: meets(&pb.boundary_edges, &pa.interior_edges)
                || meets(&pb.boundary_vertices, &pa.interior_vertices),
            boundary_a_interior_b: meets(&pa.boundary_edges, &pb.interior_edges)
                || meets(&pa.boundary_vertices, &pb.interior_vertices),
        }
    }

    /// The 4-intersection relation between two regions.
    pub fn relation(&self, a: &CellRegion, b: &CellRegion) -> Option<Relation4> {
        if a == b {
            return Some(Relation4::Equal);
        }
        Relation4::from_matrix(self.matrix(a, b))
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
    /// Otherwise — boxless names included — both named regions, with their
    /// memoized parts, go to the 4-intersection classifier.
    fn relation_of_names(&self, a: usize, b: usize) -> Option<Relation4> {
        if let (Some(ab), Some(bb)) = (&self.bboxes[a], &self.bboxes[b]) {
            if !ab.intersects(bb) {
                self.rel_shortcut_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Relation4::Disjoint);
            }
        }
        self.relation(self.region(a), self.region(b))
    }

    // ---- formula evaluation ---------------------------------------------

    /// Evaluate a sentence.
    pub fn eval(&self, formula: &Formula) -> Result<bool, EvalError> {
        let mut env = Environment::default();
        self.eval_inner(formula, &mut env)
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
        self.eval_bindings_planned(formula, &QueryPlan::build(formula, free))
    }

    /// The cartesian-product enumerator: every assignment of `free` over
    /// `names(I)` is tried and the formula evaluated on each — `O(n^k)`
    /// evaluations. Kept as the planner's differential oracle; see
    /// [`CellEvaluator::eval_bindings`] and
    /// the crate docs' "Planning model" section.
    pub fn eval_bindings_naive(
        &self,
        formula: &Formula,
        free: &[String],
    ) -> Result<Vec<Bindings>, EvalError> {
        let mut env = Environment::default();
        let mut out = Vec::new();
        self.eval_bindings_inner(formula, free, &mut env, &mut out)?;
        Ok(out)
    }

    fn eval_bindings_inner<'a>(
        &'a self,
        formula: &Formula,
        free: &[String],
        env: &mut Environment<'a>,
        out: &mut Vec<Bindings>,
    ) -> Result<(), EvalError> {
        match free.split_first() {
            None => {
                if self.eval_inner(formula, env)? {
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
                    result = self.eval_bindings_inner(formula, rest, env, out);
                    if result.is_err() {
                        break;
                    }
                }
                env.names.remove(var);
                result
            }
        }
    }

    /// Run the semi-join enumerator of a pre-built [`QueryPlan`] (whose
    /// variable list must describe `formula`'s free variables — this is what
    /// [`crate::PreparedQuery`] stores at compile time). See the crate docs'
    /// "Planning model" section for the strategy and its guarantees.
    pub fn eval_bindings_planned(
        &self,
        formula: &Formula,
        plan: &QueryPlan,
    ) -> Result<Vec<Bindings>, EvalError> {
        let k = plan.vars().len();
        if k == 0 {
            return self.eval_bindings_naive(formula, &[]);
        }
        if self.complex.region_names().is_empty() {
            return Ok(Vec::new());
        }
        let mut ctx = PlanCtx::new(self.complex.region_names().len());
        let order = self.plan_order_ids(plan, &mut ctx);
        let mut pos_of = vec![0usize; k];
        for (p, &v) in order.iter().enumerate() {
            pos_of[v] = p;
        }

        // Schedule every conjunct at the earliest position where all its
        // plan variables are bound; variable-free conjuncts run up front
        // (pruning the whole enumeration when one is false).
        let mut ready_at: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut env = Environment::default();
        for (ci, conjunct) in plan.conjuncts().iter().enumerate() {
            match conjunct.vars.iter().map(|&v| pos_of[v]).max() {
                Some(last) => ready_at[last].push(ci),
                None => {
                    if !self.eval_inner(&conjunct.formula, &mut env)? {
                        return Ok(Vec::new());
                    }
                }
            }
        }

        let mut assignment: Vec<usize> = vec![usize::MAX; k];
        let mut rows: Vec<Vec<usize>> = Vec::new();
        self.enumerate_planned(
            0,
            &order,
            &ready_at,
            plan,
            &mut ctx,
            &mut env,
            &mut assignment,
            &mut rows,
        )?;
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
    fn plan_order_ids(&self, plan: &QueryPlan, ctx: &mut PlanCtx) -> Vec<usize> {
        let k = plan.vars().len();
        let mut order: Vec<usize> = Vec::with_capacity(k);
        let mut placed = vec![false; k];
        while order.len() + 1 < k {
            let mut best: Option<(usize, usize)> = None;
            for v in 0..k {
                if placed[v] {
                    continue;
                }
                let est = self.estimate_candidates(plan.generators(v), &placed, ctx);
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
        placed: &[bool],
        ctx: &mut PlanCtx,
    ) -> usize {
        let n = self.complex.region_names().len();
        let mut est = n;
        for g in generators {
            let e = match g {
                Generator::ExactConst(c) => self.name_index(c).map(|_| 1),
                Generator::ExactVar(u) => placed[*u].then_some(1),
                Generator::NeighborsOfConst(c) => self
                    .name_index(c)
                    .and_then(|i| self.neighbor_count(i, ctx)),
                Generator::NeighborsOfVar(u) => {
                    placed[*u].then(|| self.average_degree(ctx))
                }
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
        let mut ctx = PlanCtx::new(self.complex.region_names().len());
        self.plan_order_ids(plan, &mut ctx)
            .into_iter()
            .map(|v| plan.vars()[v].clone())
            .collect()
    }

    /// The cached bbox-neighbor list of a named region (`None` when the
    /// region has no box — then nothing can be pruned through it).
    fn neighbor_list<'c>(&self, i: usize, ctx: &'c mut PlanCtx) -> Option<&'c Vec<usize>> {
        self.bboxes[i].as_ref()?;
        Some(ctx.neighbors[i].get_or_insert_with(|| {
            self.spatial_index()
                .bbox_neighbors(self.bboxes[i].as_ref().expect("checked above"))
        }))
    }

    fn neighbor_count(&self, i: usize, ctx: &mut PlanCtx) -> Option<usize> {
        self.neighbor_list(i, ctx).map(Vec::len)
    }

    /// Average bbox-neighbor count over all names (the planner's stand-in
    /// selectivity for contact atoms whose other side is not yet bound),
    /// computed once per evaluation.
    fn average_degree(&self, ctx: &mut PlanCtx) -> usize {
        if let Some(d) = ctx.avg_degree {
            return d;
        }
        let n = self.complex.region_names().len();
        let total: usize =
            (0..n).map(|i| self.neighbor_count(i, ctx).unwrap_or(n)).sum();
        let d = (total / n.max(1)).max(1);
        ctx.avg_degree = Some(d);
        d
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_planned<'a>(
        &'a self,
        pos: usize,
        order: &[usize],
        ready_at: &[Vec<usize>],
        plan: &QueryPlan,
        ctx: &mut PlanCtx,
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

        // Intersect the candidate sets of every generator usable at this
        // point; no usable generator means the full name range. A generator
        // that fails to resolve (unknown constant, boxless region) is
        // skipped — pruning may only shrink, never decide; the conjunct
        // itself still runs as a filter below.
        let mut candidates: Option<Vec<usize>> = None;
        for g in plan.generators(var_id) {
            let set: Option<Vec<usize>> = match g {
                Generator::ExactConst(c) => self.name_index(c).map(|i| vec![i]),
                Generator::ExactVar(u) => {
                    (assignment[*u] != usize::MAX).then(|| vec![assignment[*u]])
                }
                Generator::NeighborsOfConst(c) => self
                    .name_index(c)
                    .and_then(|i| self.neighbor_list(i, ctx).cloned()),
                Generator::NeighborsOfVar(u) => (assignment[*u] != usize::MAX)
                    .then(|| self.neighbor_list(assignment[*u], ctx).cloned())
                    .flatten(),
            };
            if let Some(set) = set {
                candidates = Some(match candidates {
                    None => set,
                    Some(prev) => intersect_sorted(&prev, &set),
                });
            }
        }
        let candidates =
            candidates.unwrap_or_else(|| (0..self.complex.region_names().len()).collect());

        env.names.insert(var.clone(), usize::MAX);
        for idx in candidates {
            self.assignments.fetch_add(1, Ordering::Relaxed);
            assignment[var_id] = idx;
            *env.names.get_mut(var).expect("bound above") = idx;
            // Semi-join filters: every conjunct whose last variable is this
            // one is decided now, pruning the whole subtree on failure.
            let mut keep = true;
            for &ci in &ready_at[pos] {
                if !self.eval_inner(&plan.conjuncts()[ci].formula, env)? {
                    keep = false;
                    break;
                }
            }
            if keep {
                self.enumerate_planned(
                    pos + 1,
                    order,
                    ready_at,
                    plan,
                    ctx,
                    env,
                    assignment,
                    rows,
                )?;
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
    ) -> Result<&'a CellRegion, EvalError> {
        match e {
            RegionExpr::Var(v) => {
                env.regions.get(v).copied().ok_or_else(|| EvalError::UnboundVariable(v.clone()))
            }
            RegionExpr::Ext(t) => Ok(self.region(self.resolve_name(t, env)?)),
        }
    }

    fn eval_inner<'a>(
        &'a self,
        formula: &Formula,
        env: &mut Environment<'a>,
    ) -> Result<bool, EvalError> {
        match formula {
            Formula::Rel(r, p, q) => {
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
                Ok(self.relation(a, b) == Some(*r))
            }
            Formula::Connect(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(self.connect(a, b))
            }
            Formula::Subset(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(is_subset(&a.faces, &b.faces))
            }
            Formula::NameEq(x, y) => {
                Ok(self.resolve_name(x, env)? == self.resolve_name(y, env)?)
            }
            Formula::Not(f) => Ok(!self.eval_inner(f, env)?),
            Formula::And(fs) | Formula::Or(fs) => {
                // A conjunction stops at the first false operand, a
                // disjunction at the first true one.
                let or = matches!(formula, Formula::Or(_));
                for f in fs {
                    if self.eval_inner(f, env)? == or {
                        return Ok(or);
                    }
                }
                Ok(!or)
            }
            Formula::ExistsRegion(v, f) | Formula::ForallRegion(v, f) => {
                let existential = matches!(formula, Formula::ExistsRegion(..));
                let domain = self.quantifier_domain()?;
                self.quantify(v, domain, |env| &mut env.regions, f, env, existential)
            }
            Formula::ExistsName(v, f) | Formula::ForallName(v, f) => {
                let existential = matches!(formula, Formula::ExistsName(..));
                let names = 0..self.complex.region_names().len();
                self.quantify(v, names, |env| &mut env.names, f, env, existential)
            }
        }
    }

    /// Evaluate `body` with `var` bound to every value in turn — through the
    /// environment map `slot` selects — short-circuiting on the decisive
    /// value (`existential`: first witness; otherwise first
    /// counterexample). Any outer binding of the same variable name — a
    /// shadowed quantifier or a free variable being enumerated by
    /// [`CellEvaluator::eval_bindings`] — is restored before returning.
    fn quantify<'a, V>(
        &'a self,
        var: &str,
        values: impl IntoIterator<Item = V>,
        slot: for<'e> fn(&'e mut Environment<'a>) -> &'e mut BTreeMap<String, V>,
        body: &Formula,
        env: &mut Environment<'a>,
        existential: bool,
    ) -> Result<bool, EvalError> {
        let saved = slot(env).remove(var);
        let decisive = values.into_iter().find_map(|value| {
            slot(env).insert(var.to_string(), value);
            match self.eval_inner(body, env) {
                Ok(b) if b != existential => None,
                decided => Some(decided),
            }
        });
        slot(env).remove(var);
        if let Some(outer) = saved {
            slot(env).insert(var.to_string(), outer);
        }
        decisive.unwrap_or(Ok(!existential))
    }
}

/// Variable bindings during evaluation. Name variables bind to *indices*
/// into the evaluator's sorted name list (interning — the enumeration hot
/// loops never clone a name string); region variables bind to quantifier
/// domain values, borrowed with their parts memo.
#[derive(Default)]
struct Environment<'a> {
    regions: BTreeMap<String, &'a CellRegion>,
    names: BTreeMap<String, usize>,
}

/// Per-evaluation planner scratch: lazily-filled bbox-neighbor lists (one
/// probe per region per evaluation at most) and the memoized average degree.
struct PlanCtx {
    neighbors: Vec<Option<Vec<usize>>>,
    avg_degree: Option<usize>,
}

impl PlanCtx {
    fn new(n: usize) -> PlanCtx {
        PlanCtx { neighbors: vec![None; n], avg_degree: None }
    }
}

/// Do two ascending runs share an element?
fn meets<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Is every element of the ascending run `a` in the ascending run `b`? One
/// pass over both: `b` is consumed up to each element of `a` in turn.
fn is_subset<T: Ord>(a: &[T], b: &[T]) -> bool {
    let mut rest = b.iter();
    a.len() <= b.len() && a.iter().all(|x| rest.any(|y| y == x))
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

    #[test]
    fn face_set_walk_equals_the_whole_complex_scan() {
        // The walk over a face set's own incidence against the definitions
        // applied to every edge and vertex of the flat complex.
        for (name, inst) in domain_fixtures().into_iter().chain([
            ("ring_with_island", fixtures::ring_with_island(true)),
            ("shared_boundary", fixtures::shared_boundary()),
        ]) {
            let flat = build_complex_view(&inst).to_cell_complex();
            let ev = CellEvaluator::new(&inst);
            let named = ev.names().into_iter().map(|n| ev.named_region(n).unwrap());
            for region in named.chain(ev.quantifier_domain().unwrap()) {
                let s = region.faces();
                let inside = |f: FaceId| s.contains(&f);
                let edges = |both: bool| -> Vec<usize> {
                    flat.edge_ids()
                        .filter(|&e| {
                            let (l, r) = ComplexRead::edge_faces(&flat, e);
                            if both { inside(l) && inside(r) } else { inside(l) != inside(r) }
                        })
                        .map(|e| e.0)
                        .collect()
                };
                let vertices = |all: bool| -> Vec<usize> {
                    flat.vertex_ids()
                        .filter(|&v| {
                            let faces = flat.vertex_faces(v);
                            let n = faces.iter().filter(|&&f| inside(f)).count();
                            if all { n > 0 && n == faces.len() } else { n > 0 && n < faces.len() }
                        })
                        .map(|v| v.0)
                        .collect()
                };
                let parts = ev.walk(s);
                assert_eq!(parts.boundary_edges, edges(false), "{name} {s:?}");
                assert_eq!(parts.interior_edges, edges(true), "{name} {s:?}");
                assert_eq!(parts.boundary_vertices, vertices(false), "{name} {s:?}");
                assert_eq!(parts.interior_vertices, vertices(true), "{name} {s:?}");
            }
        }
    }

    #[test]
    fn named_region_relations_via_cells() {
        let ev = CellEvaluator::new(&fixtures::nested_three());
        let a = ev.named_region("A").unwrap();
        let b = ev.named_region("B").unwrap();
        let c = ev.named_region("C").unwrap();
        assert_eq!(ev.relation(a, b), Some(Contains));
        assert_eq!(ev.relation(b, a), Some(Inside));
        assert_eq!(ev.relation(c, a), Some(Inside));
        assert_eq!(ev.relation(a, a), Some(Equal));
        assert!(ev.connect(a, b));
    }

    #[test]
    fn run_helpers_agree_with_btree_sets() {
        // The evaluator and its `from_complex` reference share these
        // helpers, so only a comparison with `BTreeSet` can catch a defect
        // in them. Pairs are drawn empty, equal, nested, disjoint and at
        // random, each side an ascending run over a small universe.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for round in 0..2_000 {
            let universe = rng.gen_range(0..24usize);
            let mut draw = || -> Vec<usize> {
                (0..universe).filter(|_| rng.gen_range(0..3u32) == 0).collect()
            };
            let a = draw();
            let b = match round % 5 {
                0 => Vec::new(),
                1 => a.clone(),
                2 => a.iter().copied().filter(|x| x % 2 == 0).collect(),
                3 => a.iter().map(|x| x + universe).collect(),
                _ => draw(),
            };
            for (a, b) in [(&a, &b), (&b, &a)] {
                let (sa, sb): (BTreeSet<usize>, BTreeSet<usize>) =
                    (a.iter().copied().collect(), b.iter().copied().collect());
                assert_eq!(meets(a, b), sa.intersection(&sb).next().is_some(), "meets {a:?} {b:?}");
                assert_eq!(is_subset(a, b), sa.is_subset(&sb), "is_subset {a:?} {b:?}");
                for x in 0..2 * universe + 1 {
                    assert_eq!(in_run(a, &x), sa.contains(&x), "in_run {a:?} {x}");
                }
            }
        }
    }
}
