//! Completeness constructions (Section 5 of the paper).
//!
//! Proposition 5.1 shows that every `H`-equivalence class of instances over
//! `Alg` is definable by a single sentence of `FO(Region, Alg)`: from the
//! topological invariant `T_I` one writes a sentence `φ_{T_I}` that
//! existentially quantifies one witness region per cell of `T_I`, states the
//! required labels, adjacencies and orientations, and pins down the exterior
//! face. Theorem 5.6 then gives the *normal form* for computable topological
//! queries: evaluating a query amounts to (1) computing `φ_{T_I}` from the
//! input — polynomial time — and (2) checking membership of that sentence in
//! a recursive set determined by the query alone.
//!
//! This module implements the construction of `φ_{T_I}` as a syntactic object
//! and exposes the mapping `f(I) = φ_{T_I}` of Theorem 5.6. Evaluating
//! `φ_{T_I}` with the generic region evaluators is exponentially expensive
//! (one region quantifier per cell); the effective way to test
//! `J ⊨ φ_{T_I}` is invariant isomorphism (Theorem 3.4,
//! [`invariant::isomorphic`]), which the tests use to check the
//! construction's key property on the paper's fixtures.

use crate::ast::{Formula, RegionExpr};
use arrangement::{build_complex_view, ComplexRead, Sign, VertexId};
use relations::Relation4;

/// The sentence `φ_{T_I}` of Proposition 5.1, defining the `H`-equivalence
/// class of the instance with invariant `inv` (any [`ComplexRead`]).
///
/// Shape of the sentence (following the proof of Proposition 5.1):
///
/// * one existentially quantified region variable per cell of the invariant,
/// * pairwise disjointness of the cell witnesses,
/// * for every cell, its label constraints against the named regions
///   (`subset` for interior, `overlap` for boundary, `disjoint` for exterior),
/// * for every incidence in the adjacency relation `E`, a `connect`
///   requirement between the corresponding witnesses (and `disjoint` for
///   non-incident cells of equal dimension),
/// * a clause singling out the exterior face: a region disjoint from all
///   named regions and connected to the exterior witness exists around them.
pub fn class_defining_sentence<C: ComplexRead>(inv: &C) -> Formula {
    let names = inv.region_names().to_vec();
    let vertex_var = |v: usize| format!("v{v}");
    let edge_var = |e: usize| format!("e{e}");
    let face_var = |f: usize| format!("f{f}");

    let mut cell_vars: Vec<String> = Vec::new();
    cell_vars.extend((0..inv.vertex_count()).map(vertex_var));
    cell_vars.extend((0..inv.edge_count()).map(edge_var));
    cell_vars.extend((0..inv.face_count()).map(face_var));

    let mut body: Vec<Formula> = Vec::new();

    // (1) Pairwise disjointness of all cell witnesses.
    for i in 0..cell_vars.len() {
        for j in (i + 1)..cell_vars.len() {
            body.push(Formula::rel(
                Relation4::Disjoint,
                RegionExpr::var(cell_vars[i].clone()),
                RegionExpr::var(cell_vars[j].clone()),
            ));
        }
    }

    // (2) Label constraints.
    let label_clause = |var: &str, label: arrangement::Label, body: &mut Vec<Formula>| {
        for (idx, name) in names.iter().enumerate() {
            let named = RegionExpr::named(name.clone());
            let witness = RegionExpr::var(var.to_string());
            body.push(match label.sign(idx) {
                Sign::Interior => Formula::subset(witness, named),
                Sign::Boundary => Formula::rel(Relation4::Overlap, witness, named),
                Sign::Exterior => Formula::rel(Relation4::Disjoint, witness, named),
            });
        }
    };
    for v in inv.vertex_ids() {
        label_clause(&vertex_var(v.0), inv.vertex_label(v), &mut body);
    }
    for e in inv.edge_ids() {
        label_clause(&edge_var(e.0), inv.edge_label(e), &mut body);
    }
    for f in inv.face_ids() {
        label_clause(&face_var(f.0), inv.face_label(f), &mut body);
    }

    // (3) Adjacency: incident cells give connected witnesses.
    for e in inv.edge_ids() {
        let (t, h) = inv.edge_endpoints(e);
        let edge = || RegionExpr::var(edge_var(e.0));
        body.push(Formula::connect(RegionExpr::var(vertex_var(t.0)), edge()));
        body.push(Formula::connect(RegionExpr::var(vertex_var(h.0)), edge()));
        let (l, r) = inv.edge_faces(e);
        body.push(Formula::connect(edge(), RegionExpr::var(face_var(l.0))));
        body.push(Formula::connect(edge(), RegionExpr::var(face_var(r.0))));
    }
    for f in inv.face_ids() {
        for e in inv.face_boundary(f) {
            let face = RegionExpr::var(face_var(f.0));
            body.push(Formula::connect(RegionExpr::var(edge_var(e.0)), face));
        }
    }

    // (4) Orientation: for consecutive edges around a vertex there is a
    // connector region meeting both but avoiding the other edges at that
    // vertex — the device of Example 4.2 / Fig. 7 in the paper. We emit one
    // clause per consecutive pair in the rotation.
    for v in 0..inv.vertex_count() {
        let rot: Vec<usize> = inv.vertex_rotation(VertexId(v)).iter().map(|d| d.edge().0).collect();
        let k = rot.len();
        if k < 3 {
            continue;
        }
        for i in 0..k {
            let e1 = rot[i];
            let e2 = rot[(i + 1) % k];
            if e1 == e2 {
                continue;
            }
            let conn = format!("o_{v}_{i}");
            let mut clauses = vec![
                Formula::connect(RegionExpr::var(conn.clone()), RegionExpr::var(edge_var(e1))),
                Formula::connect(RegionExpr::var(conn.clone()), RegionExpr::var(edge_var(e2))),
                Formula::connect(RegionExpr::var(conn.clone()), RegionExpr::var(vertex_var(v))),
            ];
            for &other in &rot {
                if other != e1 && other != e2 {
                    clauses.push(Formula::not(Formula::connect(
                        RegionExpr::var(conn.clone()),
                        RegionExpr::var(edge_var(other)),
                    )));
                }
            }
            body.push(Formula::exists_region(conn, Formula::and(clauses)));
        }
    }

    // (5) The exterior face witness is disjoint from every named region and
    // from every region-interior face witness.
    let ext = face_var(inv.exterior_face().0);
    for name in &names {
        body.push(Formula::rel(
            Relation4::Disjoint,
            RegionExpr::var(ext.clone()),
            RegionExpr::named(name.clone()),
        ));
    }

    // Wrap in the existential prefix.
    let mut sentence = Formula::and(body);
    for var in cell_vars.into_iter().rev() {
        sentence = Formula::exists_region(var, sentence);
    }
    sentence
}

/// Theorem 5.6's mapping `f(I) = φ_{T_I}`, starting from the instance.
pub fn normal_form_sentence(instance: &spatial_core::instance::SpatialInstance) -> Formula {
    class_defining_sentence(&build_complex_view(instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invariant::{isomorphic, Invariant};
    use spatial_core::fixtures;

    #[test]
    fn sentence_size_is_polynomial_in_the_invariant() {
        // Proposition 5.1 / Theorem 5.6: the defining sentence is computable
        // in polynomial time; its size grows polynomially (quadratically, from
        // the pairwise-disjointness clauses) with the number of cells.
        let small = Invariant::of_instance(&fixtures::fig_1c());
        let large = Invariant::of_instance(&fixtures::ring_with_flag());
        let f_small = class_defining_sentence(&small);
        let f_large = class_defining_sentence(&large);
        assert!(f_small.size() > 0);
        assert!(f_large.size() > f_small.size());
        let cells_small = small.cell_count() as f64;
        let cells_large = large.cell_count() as f64;
        let bound = |c: f64| 40.0 * c * c + 200.0;
        assert!((f_small.size() as f64) < bound(cells_small));
        assert!((f_large.size() as f64) < bound(cells_large));
        // One region quantifier per cell plus the orientation connectors.
        assert!(f_small.region_quantifier_count() >= small.cell_count());
    }

    #[test]
    fn sentence_mentions_every_region_name() {
        let inv = Invariant::of_instance(&fixtures::fig_1a());
        let sentence = class_defining_sentence(&inv);
        let text = format!("{sentence}");
        for name in inv.region_names() {
            assert!(text.contains(name), "{name} missing from φ_T");
        }
    }

    #[test]
    fn class_membership_matches_homeomorphism() {
        let c = Invariant::of_instance(&fixtures::fig_1c());
        let c_moved = Invariant::of_instance(&fixtures::fig_1c().translated(30, -7));
        let d = Invariant::of_instance(&fixtures::fig_1d());
        assert!(isomorphic(&c, &c_moved));
        assert!(!isomorphic(&c, &d));
    }

    #[test]
    fn normal_form_is_deterministic() {
        let a = normal_form_sentence(&fixtures::fig_1c());
        let b = normal_form_sentence(&fixtures::fig_1c());
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
