//! # relations
//!
//! The 4-intersection (Egenhofer) topological relations between plane
//! regions, their composition algebra and topological-inference (constraint
//! network) reasoning.
//!
//! In the paper these relations are the starting point of the region-based
//! query languages (Section 2, Fig. 2): `disjoint`, `meet`, `overlap`,
//! `equal`, `contains`, `inside`, `covers`, `covered_by`. The paper shows
//! that pairwise relations alone do *not* determine an instance up to
//! homeomorphism (Fig. 1) — the demonstration of exactly that fact is one of
//! the reproduced experiments — and then builds complete languages by closing
//! them under quantification over regions.
//!
//! ## The whole-complex reference
//!
//! [`relation_in_complex`] and its companions ([`matrix_in_complex`],
//! [`relations_with_in_complex`], [`all_pairwise_relations_in_complex`])
//! read a relation off a cell complex by scanning every vertex, edge and
//! face of it — `O(cells)` per pair, whatever the two regions' size. They are the reference, not the read
//! path: a database snapshot classifies named regions with the query
//! evaluator's face-set classifier (`query::CellEvaluator::named_relation`),
//! which reads only the two regions' own faces, and is differentially
//! tested against these scans.
//!
//! ## Example
//!
//! ```
//! use relations::{relation_between, Relation4};
//! use spatial_core::prelude::*;
//!
//! let a = Region::rect_from_ints(0, 0, 4, 4);
//! let b = Region::rect_from_ints(2, 2, 6, 6);
//! let c = Region::rect_from_ints(0, 1, 2, 2);
//! assert_eq!(relation_between(&a, &b), Relation4::Overlap);
//! assert_eq!(relation_between(&a, &c), Relation4::Covers);
//! assert_eq!(relation_between(&c, &a), Relation4::CoveredBy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composition;
pub mod network;
pub mod relation;

pub use composition::{compose, compose_sets, RelationSet};
pub use network::{network_of_instance, ConstraintNetwork, Scenario};
pub use relation::{
    all_pairwise_relations, all_pairwise_relations_in_complex, four_intersection_equivalent,
    matrix_in_complex, relation_between, relation_in_complex, relations_with_in_complex,
    FourIntersectionMatrix, Relation4,
};
