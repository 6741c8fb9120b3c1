//! The eight 4-intersection (Egenhofer) relations between plane regions
//! (Section 2 of the paper, Fig. 2).
//!
//! The `*_in_complex` functions scan a whole cell complex per pair: the
//! reference that the database's relation reads (the query evaluator's
//! face-set classifier) are tested against — see the crate docs.

use arrangement::{build_complex, build_complex_view, ComplexRead, Sign};
use spatial_core::prelude::*;
use std::fmt;

/// The eight mutually exclusive, jointly exhaustive 4-intersection relations
/// between two regions (Egenhofer; the paper's Fig. 2).
///
/// The correspondence with the RCC8 vocabulary used in qualitative spatial
/// reasoning is noted on each variant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Relation4 {
    /// The closures are disjoint (RCC8 `DC`).
    Disjoint,
    /// Only the boundaries intersect (RCC8 `EC`).
    Meet,
    /// Interiors and boundaries all intersect, neither region contains the
    /// other (RCC8 `PO`).
    Overlap,
    /// The regions are equal (RCC8 `EQ`).
    Equal,
    /// The first region properly contains the second, boundaries disjoint
    /// (RCC8 `NTPPi`).
    Contains,
    /// The first region is properly contained in the second, boundaries
    /// disjoint (RCC8 `NTPP`).
    Inside,
    /// The first region contains the second and their boundaries touch
    /// (RCC8 `TPPi`).
    Covers,
    /// The first region is contained in the second and their boundaries touch
    /// (RCC8 `TPP`).
    CoveredBy,
}

impl Relation4 {
    /// All eight relations.
    pub const ALL: [Relation4; 8] = [
        Relation4::Disjoint,
        Relation4::Meet,
        Relation4::Overlap,
        Relation4::Equal,
        Relation4::Contains,
        Relation4::Inside,
        Relation4::Covers,
        Relation4::CoveredBy,
    ];

    /// The converse relation: `r(A, B)` holds iff `r.inverse()(B, A)` holds.
    pub fn inverse(self) -> Relation4 {
        match self {
            Relation4::Contains => Relation4::Inside,
            Relation4::Inside => Relation4::Contains,
            Relation4::Covers => Relation4::CoveredBy,
            Relation4::CoveredBy => Relation4::Covers,
            other => other,
        }
    }

    /// Does the relation imply that the closures of the two regions share at
    /// least one point? True for every relation except [`Relation4::Disjoint`]
    /// (whose definition is exactly closure-disjointness).
    ///
    /// This is the spatial grounding of the query planner's candidate
    /// generators: an atom asserting a closure-contact-implying relation
    /// between a variable and a bound region can only be satisfied by
    /// regions whose bounding boxes intersect that region's box, so the
    /// variable ranges over the spatial index's bbox neighbors instead of
    /// all names.
    pub fn implies_closure_contact(self) -> bool {
        self != Relation4::Disjoint
    }

    /// The relation's conventional lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Relation4::Disjoint => "disjoint",
            Relation4::Meet => "meet",
            Relation4::Overlap => "overlap",
            Relation4::Equal => "equal",
            Relation4::Contains => "contains",
            Relation4::Inside => "inside",
            Relation4::Covers => "covers",
            Relation4::CoveredBy => "covered_by",
        }
    }

    /// Parse a relation from its [`Relation4::name`].
    pub fn from_name(name: &str) -> Option<Relation4> {
        Relation4::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Classify a 4-intersection matrix. The four booleans state whether the
    /// following intersections are nonempty:
    /// `(int ∩ int, bnd ∩ bnd, int ∩ bnd, bnd ∩ int)`
    /// where the first operand refers to region `A`, the second to `B`.
    ///
    /// Of the 16 combinations only 8 are realizable by regions; the others
    /// return `None` (the paper, Section 2).
    pub fn from_matrix(m: FourIntersectionMatrix) -> Option<Relation4> {
        let FourIntersectionMatrix {
            interiors,
            boundaries,
            interior_a_boundary_b,
            boundary_a_interior_b,
        } = m;
        match (interiors, boundaries, interior_a_boundary_b, boundary_a_interior_b) {
            (false, false, false, false) => Some(Relation4::Disjoint),
            (false, true, false, false) => Some(Relation4::Meet),
            (true, true, true, true) => Some(Relation4::Overlap),
            (true, true, false, false) => Some(Relation4::Equal),
            (true, false, true, false) => Some(Relation4::Contains),
            (true, true, true, false) => Some(Relation4::Covers),
            (true, false, false, true) => Some(Relation4::Inside),
            (true, true, false, true) => Some(Relation4::CoveredBy),
            _ => None,
        }
    }

    /// The 4-intersection matrix realized by this relation.
    pub fn to_matrix(self) -> FourIntersectionMatrix {
        let m = |a, b, c, d| FourIntersectionMatrix {
            interiors: a,
            boundaries: b,
            interior_a_boundary_b: c,
            boundary_a_interior_b: d,
        };
        match self {
            Relation4::Disjoint => m(false, false, false, false),
            Relation4::Meet => m(false, true, false, false),
            Relation4::Overlap => m(true, true, true, true),
            Relation4::Equal => m(true, true, false, false),
            Relation4::Contains => m(true, false, true, false),
            Relation4::Covers => m(true, true, true, false),
            Relation4::Inside => m(true, false, false, true),
            Relation4::CoveredBy => m(true, true, false, true),
        }
    }
}

impl fmt::Display for Relation4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The 4-intersection matrix of a pair of regions: which of the four
/// interior/boundary intersections are nonempty.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FourIntersectionMatrix {
    /// `int(A) ∩ int(B) ≠ ∅`
    pub interiors: bool,
    /// `∂A ∩ ∂B ≠ ∅`
    pub boundaries: bool,
    /// `int(A) ∩ ∂B ≠ ∅`
    pub interior_a_boundary_b: bool,
    /// `∂A ∩ int(B) ≠ ∅`
    pub boundary_a_interior_b: bool,
}

/// Compute the 4-intersection relation between two regions exactly, by
/// building the two-region cell complex and inspecting its cell labels.
pub fn relation_between(a: &Region, b: &Region) -> Relation4 {
    let inst = SpatialInstance::from_regions([("A", a.clone()), ("B", b.clone())]);
    let complex = build_complex(&inst);
    relation_in_complex(&complex, "A", "B").expect("both regions present")
}

/// The 4-intersection relation between two named regions of an instance,
/// read off the instance's cell complex (flat or zero-copy view — any
/// [`ComplexRead`] implementation). This realizes the reduction of
/// Corollary 3.7: the relation is a topological query, answerable from the
/// invariant alone.
pub fn relation_in_complex<C: ComplexRead>(complex: &C, a: &str, b: &str) -> Option<Relation4> {
    matrix_in_complex(complex, a, b).and_then(|m| {
        Relation4::from_matrix(m).or_else(|| {
            panic!("unrealizable 4-intersection matrix computed: {m:?}")
        })
    })
}

/// The 4-intersection matrix between two named regions of a cell complex.
///
/// Reads only the two relevant signs of every cell (the
/// [`ComplexRead::vertex_sign`]-family fast paths), so no label is
/// materialized — on the zero-copy view this avoids widening any label at
/// all.
pub fn matrix_in_complex<C: ComplexRead>(
    complex: &C,
    a: &str,
    b: &str,
) -> Option<FourIntersectionMatrix> {
    let ia = complex.region_index(a)?;
    let ib = complex.region_index(b)?;
    let mut m = Relation4::Disjoint.to_matrix(); // all four empty
    let mut see = |signs| match signs {
        (Sign::Interior, Sign::Interior) => m.interiors = true,
        (Sign::Boundary, Sign::Boundary) => m.boundaries = true,
        (Sign::Interior, Sign::Boundary) => m.interior_a_boundary_b = true,
        (Sign::Boundary, Sign::Interior) => m.boundary_a_interior_b = true,
        _ => {}
    };
    for v in complex.vertex_ids() {
        see((complex.vertex_sign(v, ia), complex.vertex_sign(v, ib)));
    }
    for e in complex.edge_ids() {
        see((complex.edge_sign(e, ia), complex.edge_sign(e, ib)));
    }
    for f in complex.face_ids() {
        see((complex.face_sign(f, ia), complex.face_sign(f, ib)));
    }
    Some(m)
}

/// All pairwise 4-intersection relations of an instance, in name order.
///
/// Builds the instance's complex view from scratch; callers that already
/// hold a complex (for example a caching facade) should use
/// [`all_pairwise_relations_in_complex`] instead, which reuses it.
pub fn all_pairwise_relations(inst: &SpatialInstance) -> Vec<(String, String, Relation4)> {
    all_pairwise_relations_in_complex(&build_complex_view(inst))
}

/// All pairwise 4-intersection relations read off an already-built cell
/// complex (flat or view), in region-name order. Zero-copy companion of
/// [`all_pairwise_relations`]: no arrangement is rebuilt, every pair is
/// answered from the complex's cell labels alone (Corollary 3.7).
pub fn all_pairwise_relations_in_complex<C: ComplexRead>(
    complex: &C,
) -> Vec<(String, String, Relation4)> {
    let names = complex.region_names();
    let mut out = Vec::new();
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            let r = relation_in_complex(complex, &names[i], &names[j])
                .expect("names come from the complex");
            out.push((names[i].clone(), names[j].clone(), r));
        }
    }
    out
}

/// One region's row of the relation matrix: the 4-intersection relation of
/// `name` with every *other* region of the complex, in name order. `None` if
/// `name` is not a region of the complex.
///
/// This is the accessor behind per-region serving ("how does X relate to
/// everything?"): `O(regions)` relation classifications against the shared
/// complex instead of materializing the full `O(regions²)` matrix.
pub fn relations_with_in_complex<C: ComplexRead>(
    complex: &C,
    name: &str,
) -> Option<Vec<(String, Relation4)>> {
    complex.region_index(name)?;
    let out = complex
        .region_names()
        .iter()
        .filter(|other| other.as_str() != name)
        .map(|other| {
            let r = relation_in_complex(complex, name, other)
                .expect("names come from the complex");
            (other.clone(), r)
        })
        .collect();
    Some(out)
}

/// Are two instances 4-intersection equivalent (same names, and every pair of
/// regions stands in the same relation in both)? This is the equivalence the
/// paper shows to be strictly coarser than topological equivalence (Fig. 1).
pub fn four_intersection_equivalent(a: &SpatialInstance, b: &SpatialInstance) -> bool {
    a.names() == b.names() && all_pairwise_relations(a) == all_pairwise_relations(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;

    #[test]
    fn fig2_pairs_realize_all_eight_relations() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let complex = build_complex(&inst);
            let r = relation_in_complex(&complex, "A", "B").unwrap();
            assert_eq!(r.name(), name, "fixture `{name}` realizes {r}");
        }
    }

    #[test]
    fn relation_is_converse_symmetric() {
        for (_, inst) in fixtures::fig_2_pairs() {
            let a = inst.ext("A").unwrap();
            let b = inst.ext("B").unwrap();
            assert_eq!(relation_between(a, b).inverse(), relation_between(b, a));
        }
    }

    #[test]
    fn matrix_round_trip() {
        for r in Relation4::ALL {
            assert_eq!(Relation4::from_matrix(r.to_matrix()), Some(r));
            assert_eq!(Relation4::from_name(r.name()), Some(r));
            assert_eq!(r.inverse().inverse(), r);
        }
        // An unrealizable matrix.
        assert_eq!(
            Relation4::from_matrix(FourIntersectionMatrix {
                interiors: false,
                boundaries: false,
                interior_a_boundary_b: true,
                boundary_a_interior_b: false,
            }),
            None
        );
    }

    #[test]
    fn computed_matrices_match_declared_ones() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let m = matrix_in_complex(&build_complex(&inst), "A", "B").unwrap();
            let r = Relation4::from_name(name).unwrap();
            assert_eq!(m, r.to_matrix(), "{name}");
        }
    }

    #[test]
    fn fig_1a_and_1b_are_four_intersection_equivalent_but_distinct() {
        let a = fixtures::fig_1a();
        let b = fixtures::fig_1b();
        assert!(four_intersection_equivalent(&a, &b));
        let rels = all_pairwise_relations(&a);
        assert_eq!(rels.len(), 3);
        assert!(rels.iter().all(|(_, _, r)| *r == Relation4::Overlap));
    }

    #[test]
    fn fig_1c_and_1d_are_four_intersection_equivalent() {
        assert!(four_intersection_equivalent(&fixtures::fig_1c(), &fixtures::fig_1d()));
        // But an instance with different names is not comparable.
        assert!(!four_intersection_equivalent(&fixtures::fig_1c(), &fixtures::fig_1a()));
    }

    #[test]
    fn shared_boundary_relations() {
        let inst = fixtures::shared_boundary();
        let rels = all_pairwise_relations(&inst);
        let get = |x: &str, y: &str| {
            rels.iter()
                .find(|(a, b, _)| a == x && b == y)
                .map(|(_, _, r)| *r)
                .unwrap()
        };
        assert_eq!(get("A", "B"), Relation4::Meet);
        assert_eq!(get("A", "C"), Relation4::Overlap);
        assert_eq!(get("B", "C"), Relation4::Overlap);
    }

    #[test]
    fn nested_relations() {
        let inst = fixtures::nested_three();
        let rels = all_pairwise_relations(&inst);
        assert!(rels.iter().all(|(_, _, r)| *r == Relation4::Contains));
    }
}
