//! # arrangement
//!
//! Exact planar cell complexes of spatial database instances — the geometric
//! engine behind the paper's topological invariant (Section 3).
//!
//! Given a [`spatial_core::instance::SpatialInstance`] whose regions have
//! polygonal boundaries, [`build_complex`] computes the partition of the
//! plane induced by the region boundaries into vertices, edges and faces (the
//! *maximal cell complex* of the instance), together with:
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
//! paper uses for semi-algebraic inputs; see `DESIGN.md` for the substitution
//! argument.
//!
//! ## Construction pipeline and cost
//!
//! Construction is a three-stage **partition → parallel per-component sweep
//! → view-assemble** pipeline:
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
//!    incidences), chains are merged into maximal 1-cells, the rotation
//!    system and face walks extracted, and cells labeled by propagation from
//!    the unbounded face. Components share nothing until assembly, so they
//!    are swept **concurrently** on the small std-only worker pool of
//!    [`parallel`] (the output is identical for every thread count); each
//!    component itself is built serially. The result is an
//!    immutable [`ComponentComplex`], shareable behind an `Arc` so callers
//!    (the `topodb` component cache) can reuse untouched components across
//!    updates.
//! 3. **Assemble**: the component complexes are composed into the global
//!    complex — components strictly nested inside a face of another
//!    component are embedded there (their local exterior face is unified
//!    with the parent face), all root components share the single global
//!    exterior face, and every cell label is widened from the component's
//!    region subset to the full instance. Assembly comes in two
//!    index-identical flavors: **by view** ([`GlobalComplexView`],
//!    `O(components + cross-component nesting)` — it holds the
//!    `Arc<ComponentComplex>`es plus a compact global↔(component, local) id
//!    translation table and serves cells through [`ComplexRead`] with no
//!    per-cell copying), and **by copy** ([`assemble_components`],
//!    `O(total cells)` — it materializes the flat [`CellComplex`]).
//!
//! Every derived-structure computation downstream (invariant extraction,
//! 4-relation classification, cell-level query evaluation) is generic over
//! the [`ComplexRead`] accessor trait and works unchanged on either
//! representation.
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
//! 1), swept (stage 2) and located among the others (stage 3). The cold
//! build is the degenerate update: no previous components, every name
//! changed.
//!
//! The invariant of this path is that **the carried partition equals
//! [`partition_instance`] of the carried instance**: same groups, same
//! order, and the assembled view index-identical to
//! [`GlobalComplexView::new`] over a from-scratch build.
//! [`partition_instance`] and [`build_components_with_reuse`] are that
//! from-scratch reference — nothing in the product calls them — and
//! `tests/incremental_partition.rs` holds the two paths against each other
//! after every step of long randomized commit traces and hand-written
//! merge, split and nesting cases. The work saved is observable as
//! [`counters::PhaseCounters::segments_partitioned`].
//!
//! ## Parallelism model
//!
//! Parallelism lives at one level: **between components**. Interaction
//! components share no vertex or edge, so their sub-complexes are swept as
//! share-nothing work items on the [`parallel`] worker pool, up to `threads`
//! at a time (`threads` of [`build_component_complexes`];
//! `ARRANGEMENT_THREADS`, or the machine's available parallelism, for the
//! entry points that take none — see [`parallel::configured_threads`]).
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
//! complex is byte-for-byte the same for every `threads` value, on every
//! machine. `tests/thread_determinism.rs` pins this, together with the
//! sweep's event count.
//!
//! Two oracles guard the pipeline: the original all-pairs splitter (`O(n^2)`
//! exact intersection tests) is retained in [`split`] as the sweep's
//! differential-testing oracle, and the pre-partitioning single-sweep
//! construction is retained as [`build_complex_monolithic`] as the
//! pipeline's oracle — both must agree (up to cell re-indexing) on every
//! input, including the degenerate ones (endpoint touching, many segments
//! through one point, vertical segments, collinear overlap chains, shared
//! boundaries merged with multi-region marks).
//!
//! ## Example
//!
//! ```
//! use arrangement::build_complex;
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
mod geometry;
pub mod index;
pub mod parallel;
pub mod partition;
pub mod split;
pub mod strip;
pub mod sweep;
mod types;
mod view;

pub use assemble::{
    assemble_components, build_components_with_reuse, build_group_component, update_components,
    ComponentComplex, ComponentSet, ComponentUpdate,
};
pub use builder::{
    build_complex, build_complex_monolithic, build_complex_view, build_component_complexes,
};
pub use complex::{CellComplex, ComplexRead};
pub use index::SpatialIndex;
pub use view::GlobalComplexView;
pub use partition::{partition_instance, BBox, ComponentGroup};
pub use types::{
    CellId, DartId, Dimension, EdgeData, EdgeId, FaceData, FaceId, Label, Sign, VertexData,
    VertexId,
};

pub use geometry::{closed_polyline_area_doubled, point_in_closed_polyline};
