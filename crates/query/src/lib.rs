//! # query
//!
//! The region-based query languages `FO(Region, Region')` of
//! *"Topological Queries in Spatial Databases"* (Sections 4–6), together with
//! their effective evaluators and the completeness constructions:
//!
//! * [`ast`] / [`parser`] — syntax of the languages: 4-intersection atoms,
//!   name and region variables, Boolean connectives and quantifiers;
//! * [`cell_eval`] — the tractable evaluator of the paper's Section 7:
//!   region quantifiers range over disc-like unions of cells of the
//!   instance's cell complex (this is what answers the paper's Example 4.1 /
//!   4.2 separating queries); formulas with free name variables evaluate as
//!   *set-returning* queries via [`CellEvaluator::eval_bindings`];
//! * [`plan`] — [`QueryPlan`]: compile-time analysis of an open formula into
//!   top-level conjuncts and per-variable candidate generators, driving the
//!   semi-join enumeration below;
//! * [`prepared`] — [`PreparedQuery`]: parse + free-variable analysis + plan
//!   construction once, run against any snapshot/complex many times,
//!   producing [`QueryOutput::Bool`] for sentences and
//!   [`QueryOutput::Bindings`] for open formulas;
//! * [`thematic_eval`] — Corollary 3.7: answering the quantifier-free
//!   fragment by first-order queries over the thematic relational database;
//! * [`rect_eval`] — Theorem 6.4: effective evaluation of `FO(Rect, Rect)` by
//!   order-type snapping, with polynomial data complexity;
//! * [`point_lang`] — the point-based language `FO(P, <x, <y, ·)` and the
//!   rectangle-to-point translation of Theorem 5.8;
//! * [`complete`] — Proposition 5.1 / Theorem 5.6: the sentence `φ_{T_I}`
//!   defining an instance's homeomorphism class, and the normal form for
//!   computable topological queries.
//!
//! ## Example
//!
//! ```
//! use query::parser::parse;
//! use query::cell_eval::eval_on_instance;
//! use spatial_core::fixtures;
//!
//! // The paper's Example 4.1: is there a region inside A, B and C at once?
//! let q = parse("exists r . subset(r, A) and subset(r, B) and subset(r, C)").unwrap();
//! assert_eq!(eval_on_instance(&fixtures::fig_1a(), &q), Ok(true));
//! assert_eq!(eval_on_instance(&fixtures::fig_1b(), &q), Ok(false));
//! ```
//!
//! ## Planning model
//!
//! An open formula with `k` free name variables is a set-returning query.
//! The baseline evaluation is a cartesian product — every assignment in
//! `names(I)^k` is tried, `O(n^k)` full formula evaluations — and it remains
//! available as [`CellEvaluator::eval_bindings_naive`], the reference the
//! planner's differential suite compares against. The planned path layers
//! three ideas on top of it:
//!
//! 1. **Compile-time atom analysis** ([`QueryPlan::build`], stored inside
//!    [`PreparedQuery`]). The top-level conjunction is flattened; each
//!    positive contact-implying atom (`connect`, `subset`, any 4-intersection
//!    relation except `disjoint`) or name equation over region *extents*
//!    contributes a candidate *generator* for the free variables it touches.
//! 2. **Selectivity-ordered enumeration** (in
//!    [`CellEvaluator::eval_bindings_planned`]). Variables are bound
//!    greedily, smallest estimated candidate set first: an exact pin
//!    estimates 1, a constant-contact generator estimates the spatial index's
//!    bbox-neighbor count of that constant, a variable-contact generator the
//!    instance's average bbox degree, and an unconstrained variable `n`. The
//!    chosen order is observable via [`CellEvaluator::planned_var_order`].
//! 3. **Semi-join filtering.** Each conjunct is evaluated at the earliest
//!    position where all its plan variables are bound, so a failing
//!    assignment prefix is pruned before the remaining variables each
//!    multiply the work by `n`. Candidate sets themselves come from the
//!    STR-packed R-trees over exact rational region bounding boxes
//!    ([`arrangement::SpatialIndex`], shared with the snapshot through
//!    `GlobalComplexView::region_bbox_index`; it has two levels, the tree
//!    over the component boxes that each epoch builds once and, under each
//!    component, the tree over its regions' boxes that the component
//!    carries across commits): closure contact implies bbox
//!    intersection, so bbox neighborhoods *over*-approximate the satisfying
//!    values and the conjunct filters finish the job — never the other way
//!    around, which is what keeps the planner sound.
//!
//! Both paths produce the same rows in the same (lexicographic) order for
//! every formula whose naive evaluation completes without error; the
//! randomized differential suite in `tests/planner_differential.rs` pins
//! this. On *erroring* formulas the two paths may differ (the planner can
//! prune an assignment before the erroring subformula runs, or meet a
//! different erroring assignment first) — errors are reported faithfully but
//! which error surfaces is unspecified, exactly as subformula evaluation
//! order is unspecified inside one conjunct.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cell_eval;
pub mod complete;
pub mod parser;
pub mod plan;
pub mod point_lang;
pub mod prepared;
pub mod rect_eval;
pub mod thematic_eval;

pub use ast::{Formula, NameTerm, Query, RegionExpr};
pub use cell_eval::{eval_on_instance, Bindings, CellEvaluator, EvalError};
pub use parser::{parse, ParseError};
pub use plan::QueryPlan;
pub use prepared::{PrepareError, PreparedQuery, QueryOutput};
