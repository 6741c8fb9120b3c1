//! # invariant
//!
//! The topological invariant `T_I` of a spatial database instance — the core
//! contribution of *"Topological Queries in Spatial Databases"*
//! (Papadimitriou, Suciu, Vianu; PODS 1996 / JCSS 1999), Section 3.
//!
//! `T_I = (V, E, δ, f0, l, O)` is the combinatorial structure of the planar
//! cell complex of an instance: exactly what [`arrangement::ComplexRead`]
//! serves. Every algorithm here reads a `ComplexRead` — a database
//! snapshot's zero-copy view as it stands, with nothing copied.
//!
//! * [`Invariant`] — an owned copy of `T_I`, itself a `ComplexRead`: the form
//!   a caller can edit (the Fig. 6 and Fig. 7 experiments, hand-corrupted
//!   structures for validation) and the oracle for the zero-copy reads.
//! * [`isomorphism`] — Theorem 3.4: two instances are topologically
//!   equivalent iff their invariants are isomorphic (identity on region
//!   names); plus the relaxed comparisons showing that the exterior face and
//!   the orientation relation are both essential (Figs. 6 and 7).
//! * [`validate`](mod@validate) — Theorem 3.8 / Lemma 3.9: deciding whether a candidate
//!   structure is the invariant of some instance (labeled planar graphs).
//! * [`thematic`] — Example 3.6 / Corollary 3.7: storing the invariant as a
//!   classical relational database over the fixed schema `Th`.
//!
//! Theorem 3.5's *representation* statement — every (semi-algebraic)
//! instance has a polygonal representative with the same invariant — is
//! reflected in this reproduction by working with polygonal regions
//! throughout, standing in for the semi-algebraic ones; an explicit
//! re-drawing algorithm from a bare invariant is not included.
//!
//! ## Example
//!
//! ```
//! use arrangement::build_complex_view;
//! use invariant::{isomorphism, Invariant};
//! use spatial_core::fixtures;
//!
//! // Fig. 1c and Fig. 1d are 4-intersection equivalent but not homeomorphic:
//! let c = build_complex_view(&fixtures::fig_1c());
//! let d = build_complex_view(&fixtures::fig_1d());
//! assert!(!isomorphism::isomorphic(&c, &d));
//!
//! // Translations are homeomorphisms, and an owned copy reads the same:
//! let c2 = Invariant::of_instance(&fixtures::fig_1c().translated(10, 10));
//! assert!(isomorphism::isomorphic(&c, &c2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod isomorphism;
mod structure;
pub mod thematic;
pub mod validate;

pub use isomorphism::{find_isomorphism, homeomorphic, isomorphic, IsoOptions, Isomorphism};
pub use structure::Invariant;
pub use validate::{validate, ValidationError};
