//! Immutable, concurrently shareable read handles over one epoch of a
//! [`TopoDatabase`](crate::TopoDatabase).

use crate::TopoDbError;
use arrangement::{ComplexRead, GlobalComplexView};
use query::cell_eval::CellEvaluator;
use query::{PreparedQuery, QueryOutput};
use relations::Relation4;
use spatial_core::instance::SpatialInstance;
use std::sync::{Arc, OnceLock};

/// An immutable snapshot of a [`TopoDatabase`](crate::TopoDatabase): the
/// assembled zero-copy complex view of one epoch — which is the epoch's
/// invariant `T_I`, read through [`ComplexRead`] — plus the query
/// evaluator, built lazily *inside the snapshot* and shared by all of its
/// clones, that answers queries and relation reads.
///
/// A snapshot is the read half of the facade's read/write split:
///
/// * **Cheap to obtain and clone.** [`TopoDatabase::snapshot`] hands out a
///   clone of the head snapshot (one `Arc` bump), which was built before it
///   was published; cloning a snapshot is a second `Arc` bump. No cell,
///   label or region is copied.
/// * **`Send + Sync`.** All state is behind `Arc`s and a [`OnceLock`], so one
///   snapshot can serve query traffic from any number of threads at once —
///   `thread::scope` readers over a shared `&Snapshot` are a compiling (and
///   tested) program. The database itself is `Sync` too (its head epoch
///   sits behind a read lock held for one `Arc` clone, never across a
///   build, a log append or an fsync), so even *acquiring* snapshots can
///   happen from many threads concurrently; a snapshot additionally
///   detaches the reader from later writes.
/// * **Epoch-stable.** A snapshot never observes later writes: a batch
///   committed after [`TopoDatabase::snapshot`] leaves existing snapshots
///   answering for their own epoch ([`Snapshot::epoch`]) while the next
///   `snapshot()` call reflects the batch.
///
/// Query evaluation accepts both query strings ([`Snapshot::query`]) and
/// pre-compiled [`PreparedQuery`]s ([`Snapshot::evaluate`]); results are
/// [`QueryOutput::Bool`] for sentences and [`QueryOutput::Bindings`] (the
/// satisfying name assignments) for formulas with free name variables. The
/// first evaluation on a snapshot builds its [`CellEvaluator`] over the
/// zero-copy view; later evaluations (from any thread, any clone) share it.
/// Relation reads ([`Snapshot::relation`], [`Snapshot::relations_of`],
/// [`Snapshot::relation_matrix`]) go through the same evaluator and its one
/// classifier of named regions, so a read touches the two regions' own
/// cells — never the whole view — and shares their walks with queries.
///
/// Derived state lives where its inputs live. What a component determines
/// alone lives on the `Arc<ComponentComplex>` and is carried with it across
/// commits: each of its regions' boundary box and interior faces and the
/// spatial index over those boxes, built with the component at commit
/// time, and each of its regions' closure cells (edges and vertices, in the
/// component's own ids), walked into the component's slot for the region
/// when a query or a read first needs them
/// ([`ComplexGeometry::closure_slot`](arrangement::ComplexGeometry::closure_slot)).
/// A name is therefore walked once per build of its component, and the
/// snapshot chain carries nothing by hand. What depends on the whole epoch
/// is per snapshot: the view's glue (id offsets, nesting parents, inherited
/// labels, the index over the component boxes and the region index,
/// [`Snapshot::spatial_index`], assembled from it and the components'
/// region indexes) is built with the view at commit time, and the evaluator
/// (its copy of the region boxes) lazily, on first use; it reads a name's
/// cells out of its component's slot through the view's offsets. The
/// invariant is not derived at all: the homeomorphism test
/// ([`Snapshot::homeomorphic_to`]) and the thematic database
/// ([`Snapshot::thematic`]) read the view. Nothing below the snapshot is
/// built on a read.
///
/// [`TopoDatabase::snapshot`]: crate::TopoDatabase::snapshot
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
pub(crate) struct SnapshotInner {
    epoch: u64,
    /// The instance as of this epoch, which the next commit applies its
    /// operations to.
    pub(crate) instance: Arc<SpatialInstance>,
    view: Arc<GlobalComplexView>,
    evaluator: OnceLock<Arc<CellEvaluator>>,
}

impl Snapshot {
    pub(crate) fn new(
        epoch: u64,
        instance: Arc<SpatialInstance>,
        view: Arc<GlobalComplexView>,
    ) -> Snapshot {
        Snapshot {
            inner: Arc::new(SnapshotInner {
                epoch,
                instance,
                view,
                evaluator: OnceLock::new(),
            }),
        }
    }

    /// The update epoch this snapshot was taken at (see
    /// [`TopoDatabase::update_epoch`](crate::TopoDatabase::update_epoch)).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Region names in canonical order.
    pub fn names(&self) -> Vec<String> {
        self.inner.view.region_names().to_vec()
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.inner.view.region_names().len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The zero-copy global complex view backing this snapshot, shared
    /// behind an [`Arc`].
    pub fn complex_view(&self) -> Arc<GlobalComplexView> {
        Arc::clone(&self.inner.view)
    }

    pub(crate) fn view_ref(&self) -> &GlobalComplexView {
        &self.inner.view
    }

    /// The thematic relational database `thematic(I)` over the schema `Th`,
    /// read from the view.
    pub fn thematic(&self) -> relstore::Database {
        invariant::thematic::to_database(self.view_ref())
    }

    /// The 4-intersection relation between two named regions, classified
    /// by the snapshot's shared evaluator ([`CellEvaluator::named_relation`])
    /// from the two regions' own faces, or from their boxes alone when
    /// those do not interact — no cell outside the two regions is read.
    /// An unknown name is [`TopoDbError::UnknownRegion`]; a matrix no pair
    /// of regions realizes (a defect of the complex) is
    /// [`TopoDbError::Eval`].
    pub fn relation(&self, a: &str, b: &str) -> Result<Relation4, TopoDbError> {
        match self.evaluator().named_relation(a, b) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => Err(TopoDbError::Eval(format!(
                "unrealizable 4-intersection matrix between `{a}` and `{b}`"
            ))),
            Err(query::EvalError::UnknownName(n)) => Err(TopoDbError::UnknownRegion(n)),
            Err(e) => Err(e.into()),
        }
    }

    /// All pairwise relations, in name order: [`Snapshot::relation`] for
    /// every pair of names. The first pair [`Snapshot::relation`] fails on
    /// (an unrealizable matrix, [`TopoDbError::Eval`]) is the error.
    pub fn relation_matrix(&self) -> Result<Vec<(String, String, Relation4)>, TopoDbError> {
        let names = self.inner.view.region_names();
        let mut out = Vec::new();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                out.push((a.clone(), b.clone(), self.relation(a, b)?));
            }
        }
        Ok(out)
    }

    /// One region's row of the relation matrix: its relation to every other
    /// region, in name order — `O(regions)` [`Snapshot::relation`] reads
    /// instead of the full `O(regions²)` matrix.
    pub fn relations_of(&self, name: &str) -> Result<Vec<(String, Relation4)>, TopoDbError> {
        let names = self.inner.view.region_names();
        if self.inner.view.region_index(name).is_none() {
            return Err(TopoDbError::UnknownRegion(name.to_string()));
        }
        names
            .iter()
            .filter(|other| other.as_str() != name)
            .map(|other| Ok((other.clone(), self.relation(name, other)?)))
            .collect()
    }

    /// Is this snapshot topologically equivalent (homeomorphic) to another?
    /// Decided via invariant isomorphism (Theorem 3.4) on the two views.
    pub fn homeomorphic_to(&self, other: &Snapshot) -> bool {
        invariant::isomorphic(self.view_ref(), other.view_ref())
    }

    /// The shared cell-complex query evaluator of this snapshot, built on
    /// first use. Exposed so callers running many [`PreparedQuery`]s can
    /// amortize even the `Arc` clone; `query`/`evaluate` use it internally.
    /// The evaluator is [`CellEvaluator::from_view`] over the snapshot's
    /// view: building it costs `O(regions + components)`, a copy of the
    /// region boxes the component builds computed, and reads no edge. It
    /// reads a name's faces from its component's build and its edges and
    /// vertices from the component's slot for it, walking them there only
    /// if no reader of this or an earlier epoch that shares the component
    /// did; its semi-join planner shares the snapshot's cached spatial
    /// index ([`Snapshot::spatial_index`]).
    pub fn evaluator(&self) -> Arc<CellEvaluator> {
        Arc::clone(
            self.inner.evaluator.get_or_init(|| Arc::new(CellEvaluator::from_view(Arc::clone(&self.inner.view)))),
        )
    }

    /// The spatial index over this snapshot's region bounding boxes, shared
    /// by the query planner ([`Snapshot::evaluator`]) and any direct spatial
    /// probing; reading it is an `Arc` clone. It is assembled once per epoch
    /// with the view, at commit time, from two levels of STR-packed R-trees:
    /// the tree over the component boxes, built with the view, and under
    /// each component the tree over its own regions' boxes, built with the
    /// component and carried across commits. A commit therefore bulk-loads
    /// region boxes only for the components it rebuilt; the rest costs
    /// `O(components)`.
    pub fn spatial_index(&self) -> Arc<arrangement::SpatialIndex> {
        self.inner.view.region_bbox_index()
    }

    /// Parse and evaluate a query in the concrete syntax of the `query`
    /// crate. Sentences return [`QueryOutput::Bool`]; formulas with free
    /// name variables return [`QueryOutput::Bindings`] — the satisfying
    /// assignments of those variables to region names.
    ///
    /// To run one query against many snapshots, compile it once with
    /// [`PreparedQuery::compile`] and use [`Snapshot::evaluate`].
    pub fn query(&self, text: &str) -> Result<QueryOutput, TopoDbError> {
        self.evaluate(&PreparedQuery::compile(text)?)
    }

    /// Run a pre-compiled query against this snapshot. The prepared plan
    /// (AST + free-variable analysis) is reused across snapshots of any
    /// epoch; the answer always reflects *this* snapshot's instance.
    pub fn evaluate(&self, prepared: &PreparedQuery) -> Result<QueryOutput, TopoDbError> {
        prepared.run_on(&self.evaluator()).map_err(TopoDbError::from)
    }
}
