//! # arrangement
//!
//! Exact planar cell complexes of spatial database instances — the geometric
//! engine behind the paper's topological invariant (Section 3).
//!
//! Given a [`spatial_core::instance::SpatialInstance`] whose regions have
//! polygonal boundaries, [`build_complex_view`] computes the partition of the
//! plane induced by the region boundaries into vertices, edges and faces (the
//! *maximal cell complex* of the instance; [`build_complex`] is its flat
//! copy), together with:
//!
//! * the sign label of every cell with respect to every region
//!   (interior / boundary / exterior),
//! * the designated unbounded face `f0`,
//! * the rotation system (cyclic order of edges around each vertex), i.e. the
//!   paper's orientation relation `O`,
//! * the nesting of disconnected boundary components into the faces that
//!   contain them.
//!
//! This is the polygonal stand-in for the Kozen–Yap cell decomposition the
//! paper uses for semi-algebraic inputs: polygonal regions stand in for the
//! paper's semi-algebraic ones, which Theorem 3.5 shows loses no topological
//! query.
//!
//! ## Construction pipeline and cost
//!
//! Construction is a three-stage **partition → parallel per-component sweep
//! → view-assemble** pipeline, and there is one of it: [`update_components`]
//! followed by [`GlobalComplexView::updated`]. A build from scratch,
//! [`build_complex_view`] ([`build_complex`] is its flat copy), is the
//! update of nothing: no previous components, every name changed. A
//! database's first epoch is that same update.
//!
//! 1. **Partition** ([`partition`]): the boundary segments are grouped into
//!    connected components of their *interaction graph* (bounding-box
//!    overlap, union-find). Bounding-box overlap conservatively
//!    over-approximates geometric intersection, so distinct components
//!    provably share no vertex or edge of the arrangement.
//! 2. **Parallel per-component sweep**: each component is built
//!    independently — its segments are cut at their mutual intersections by
//!    a Bentley–Ottmann plane sweep in exact rational arithmetic ([`sweep`],
//!    `O((n + k) log n)` for `n` segments with `k` intersection
//!    incidences), which emits the split ranked: its events pop in
//!    ascending order, each cut point once, so their order is the point
//!    table and each cut set is a run of event indices, and no point is
//!    sorted after the sweep. Then chains are merged into maximal 1-cells,
//!    the rotation system and face walks extracted, the outer walk of each
//!    connected piece of the skeleton found and the pieces nested into the
//!    faces that contain them, and cells labeled by propagation from the
//!    unbounded face: faces by one flood fill, edges and vertices by
//!    copying a neighbouring face's label and marking the regions whose
//!    boundary they lie on. Every label is written once, in time linear in
//!    its length, as one run of a flat table per dimension (no cell owns a
//!    label vector), and no face stores a sample point: nothing downstream
//!    needs one. Components share nothing until assembly, so they
//!    are swept **concurrently** on the small std-only worker pool of
//!    [`parallel`] (the output is identical for every thread count); each
//!    component itself is built serially. The result is an
//!    immutable [`ComponentComplex`], shareable behind an `Arc` so callers
//!    (the `topodb` component cache) can reuse untouched components across
//!    updates. It keeps its point table and the cut sets of its split as
//!    ranks into it: when an update rebuilds it, only the segments near what
//!    changed, and their cutters, are swept again; every other segment's
//!    cut set is carried, and the points they cite are merged with the
//!    points the re-split cites, table with table, rather than sorted.
//! 3. **Assemble**: the component complexes are composed into the global
//!    complex — components strictly nested inside a face of another
//!    component are embedded there (their local exterior face is unified
//!    with the parent face), all root components share the single global
//!    exterior face, and every cell label is widened from the component's
//!    local region ids to global ones, joined by the entries of the
//!    regions whose interior encloses the component (a label stores only
//!    the regions its cell is not exterior to). Assembly comes in two
//!    index-identical flavors: **by view** ([`GlobalComplexView`], no
//!    per-cell work — it holds the
//!    `Arc<ComponentComplex>`es plus a compact global↔(component, local) id
//!    translation table and serves cells through [`ComplexRead`] with no
//!    per-cell copying), and **by copy** ([`assemble_components`],
//!    `O(total cells)` — it materializes the flat [`CellComplex`]).
//!
//! Every list of lists the pipeline keeps is one flat buffer of runs
//! ([`Runs`]: all items in one buffer plus the offsets of the runs): each segment's cut points, each piece's regions, each raw
//! vertex's incident pieces, each chain's pieces and points, each vertex's
//! rotation, each face walk, each face's boundary edges, each region's
//! interior faces, each edge's polyline and each component's region map. A
//! table costs two allocations whatever its size, and the [`CellComplex`]
//! keeps the rotations, polylines and face boundaries of its cells that
//! way, read through [`ComplexRead::vertex_rotation`],
//! [`ComplexGeometry::edge_polyline`] and [`ComplexRead::face_boundary`].
//!
//! Face assembly asks the geometry two questions, in stages 2 and 3, and
//! answers both by comparison and orientation tests, never by area. A face
//! walk is the outer boundary of its piece of the skeleton iff its face
//! holds the directions left of the piece's lexicographically lowest point.
//! That walk, like the rotation order, is read off per-build direction
//! classes: the distinct directions of the input segments the pieces lie
//! on, ranked once by cross products of input directions, never a
//! difference of two arrangement points; after the sweep every other
//! direction decision compares integer keys. Nesting is decided by
//! crossing parity, one predicate for both sites
//! ([`ray_crosses`](spatial_core::polygon::ray_crosses)): in a component
//! build, a skeleton piece sits in the innermost bounded walk of another
//! piece that the `+x` ray from its lowest point crosses an odd number of
//! times, each crossing side-tested against the input segment under it,
//! and the innermost is the one whose lowest point is greatest; in
//! assembly, a component sits in the bounded face of another that its
//! representative point toggles odd over that component's edges, and the
//! innermost such component is the one whose box the others contain.
//! Either way the candidates nest, with disjoint boundaries.
//!
//! Every derived-structure computation downstream is generic over the
//! [`ComplexRead`] accessor trait, the combinatorial invariant `T_I`, and
//! works unchanged on either representation: isomorphism, validation and
//! the thematic database (the `invariant` crate) and 4-relation
//! classification (`relations::relation_in_complex`). Cell-level query
//! evaluation (`query::CellEvaluator<C: ComplexGeometry>`) also reads the
//! geometric subtrait [`ComplexGeometry`]: its face walks
//! ([`closure_cells`], over [`ComplexRead::for_each_face_edge`]), the
//! homes of named regions ([`ComplexRead::region_home`]), the slots that
//! keep their walks ([`ComplexGeometry::closure_slot`]) and its spatial
//! index ([`ComplexGeometry::region_bbox_index`]) come through them.
//!
//! ## Incremental maintenance
//!
//! Components interact with nothing outside themselves, so an update that
//! touches one cluster of a multi-component map need not look at the rest.
//! [`update_components`] takes the component list of the previous instance,
//! the updated instance and the names that changed, and produces the
//! updated list; [`GlobalComplexView::updated`] patches the previous view
//! with it. Every component that contains no changed name, and no segment
//! of which meets the box of a new segment, is carried over
//! pointer-identically — its regions are not enumerated, its names not
//! copied, its coordinates not compared beyond one test of its bounding
//! box — and keeps its nesting parent. Only the rest is partitioned (stage
//! 1), rebuilt (stage 2) and located among the others (stage 3). A rebuilt
//! component re-splits only the neighbourhood of the change: the segments
//! whose boxes meet a new or a vanished segment are swept again, with their
//! cutters, and every other cut set is carried, as ranks, from the component
//! it was last built in. The cold build ([`build_complex_view`]) is the degenerate
//! update: no previous components, every name changed, every segment swept.
//!
//! The invariant of this path is that **the carried partition equals
//! [`partition_instance`] of the carried instance**: same groups, same
//! order, and the assembled view index-identical to
//! [`GlobalComplexView::new`] over a from-scratch build.
//! [`partition_instance`], [`build_group_component`] and
//! [`build_components_with_reuse`] are that from-scratch reference — no
//! library entry point calls them — and `tests/incremental_partition.rs`
//! holds the two paths against each other after every step of long
//! randomized commit traces and hand-written merge, split and nesting
//! cases; `tests/thread_determinism.rs` holds the cold build against a
//! serial loop over them. The work saved is observable as
//! [`counters::PhaseCounters::segments_partitioned`].
//!
//! ## Parallelism model
//!
//! Parallelism lives at one level: **between components**. Interaction
//! components share no vertex or edge, so their sub-complexes are swept as
//! share-nothing work items on the [`parallel`] worker pool, as many at a
//! time as the machine's available parallelism
//! ([`parallel::available_threads`]). No entry point takes a thread count.
//! Each component — split, chain merge, face walks, label propagation and
//! cell assembly — is built serially by the worker that took it, so a map
//! that forms one big component is built on one thread. This is the lever
//! for *wide* maps (many clusters, `datagen::wide_map` / `clustered_map`)
//! and costs nothing in coordination; measured against it, decomposing one
//! component's sweep into x-strips or running its post-split phases on the
//! pool lost on every workload, so neither exists. The per-phase work is
//! observable through [`counters`] and does not depend on the thread count.
//!
//! **Determinism guarantee:** the thread count never affects the output —
//! every component is built by the same serial code whichever worker runs
//! it, and the pool returns results in input order — so the constructed
//! complex is byte-for-byte the same on every machine.
//! `tests/thread_determinism.rs` pins this against a serial loop, together
//! with the sweep's event count, and the pool's unit tests vary the thread
//! count.
//!
//! Two oracles guard the pipeline: the original all-pairs splitter (`O(n^2)`
//! exact intersection tests) is retained as [`split::split_segments_naive`],
//! the differential-testing oracle of [`sweep::split_segments_sweep`], and
//! the pre-partitioning single-sweep
//! construction is retained as [`build_complex_monolithic`] as the
//! pipeline's oracle — both must agree (up to cell re-indexing) on every
//! input, including the degenerate ones (endpoint touching, many segments
//! through one point, vertical segments, collinear overlap chains, shared
//! boundaries merged with multi-region marks).
//!
//! ## Example
//!
//! ```
//! use arrangement::{build_complex, ComplexRead};
//! use spatial_core::fixtures;
//!
//! // The instance of the paper's Example 3.1 (Fig. 1c).
//! let complex = build_complex(&fixtures::fig_1c());
//! assert_eq!(complex.vertex_count(), 2);
//! assert_eq!(complex.edge_count(), 4);
//! assert_eq!(complex.face_count(), 4);
//! assert!(complex.euler_formula_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
mod builder;
mod complex;
pub mod counters;
pub mod index;
pub mod parallel;
pub mod partition;
mod runs;
pub mod split;
pub mod strip;
pub mod sweep;
mod types;
mod view;

pub use assemble::{
    assemble_components, build_components_with_reuse, build_group_component, update_components,
    ComponentComplex, ComponentSet, ComponentUpdate,
};
pub use builder::{build_complex, build_complex_monolithic, build_complex_view};
pub use complex::{
    closure_cells, dual_graph, CellComplex, CellOffsets, ClosureCells, ClosureSlot, ComplexGeometry,
    ComplexRead, NestedCells, RegionHome,
};
pub use index::SpatialIndex;
pub use runs::Runs;
pub use view::GlobalComplexView;
pub use partition::{partition_instance, BBox, ComponentGroup};
pub use types::{
    CellId, DartId, Dimension, EdgeData, EdgeId, FaceData, FaceId, Label, Sign, VertexData,
    VertexId,
};
