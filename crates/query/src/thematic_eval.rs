//! Answering topological queries on the thematic relational database
//! (Corollary 3.7).
//!
//! The paper's thematic bridge says: compute `thematic(I)` once (a classical
//! relational instance over the fixed schema `Th`), and from then on answer
//! topological queries with ordinary first-order queries against it — no
//! geometry needed. This module implements the translation for the fragment
//! of the region-based language without region quantifiers (Boolean
//! combinations of 4-intersection atoms between named regions, with name
//! variables and quantifiers), which is the fragment geographic information
//! systems use directly, and the fragment measured by the Corollary 3.7
//! benchmark.

use crate::ast::{Formula, NameTerm, RegionExpr};
use relations::Relation4;
use relstore::fo::{Formula as Fo, Term};
use relstore::Database;

/// Errors raised when translating a formula to the thematic schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ThematicError {
    /// The formula quantifies over regions, which is outside the translated
    /// fragment (use the cell evaluator for those queries).
    RegionQuantifier(String),
    /// A region variable occurred (only named regions are allowed here).
    RegionVariable(String),
}

impl std::fmt::Display for ThematicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThematicError::RegionQuantifier(v) => {
                write!(f, "region quantifier over `{v}` not supported on the thematic database")
            }
            ThematicError::RegionVariable(v) => {
                write!(f, "free region variable `{v}` not supported on the thematic database")
            }
        }
    }
}

impl std::error::Error for ThematicError {}

/// The bound variables one translation introduces, numbered from zero, so
/// that translating the same formula always yields the same sentence.
struct Fresh(usize);

impl Fresh {
    fn var(&mut self, prefix: &str) -> String {
        self.0 += 1;
        format!("{prefix}_{}", self.0 - 1)
    }
}

/// Translate a region-quantifier-free sentence of the region-based language
/// into a first-order sentence over the thematic schema `Th`.
///
/// The translation is a function of `formula` alone: the variables it
/// introduces are numbered per call.
pub fn translate(formula: &Formula) -> Result<Fo, ThematicError> {
    translate_with(formula, &mut Fresh(0))
}

fn translate_with(formula: &Formula, fresh: &mut Fresh) -> Result<Fo, ThematicError> {
    match formula {
        Formula::Rel(r, p, q) => {
            let a = name_term(p)?;
            let b = name_term(q)?;
            Ok(relation_formula(*r, &a, &b, fresh))
        }
        Formula::Connect(p, q) => {
            let a = name_term(p)?;
            let b = name_term(q)?;
            Ok(Fo::not(relation_formula(Relation4::Disjoint, &a, &b, fresh)))
        }
        Formula::Subset(p, q) => {
            let a = name_term(p)?;
            let b = name_term(q)?;
            Ok(subset_formula(&a, &b, fresh))
        }
        Formula::NameEq(a, b) => Ok(Fo::equals(to_term(a), to_term(b))),
        Formula::Not(f) => Ok(Fo::not(translate_with(f, fresh)?)),
        Formula::And(fs) => Ok(Fo::and(translate_all(fs, fresh)?)),
        Formula::Or(fs) => Ok(Fo::or(translate_all(fs, fresh)?)),
        Formula::ExistsName(v, f) => Ok(Fo::exists(
            v.clone(),
            Fo::and(vec![
                Fo::atom("Regions", vec![Term::var(v.clone())]),
                translate_with(f, fresh)?,
            ]),
        )),
        Formula::ForallName(v, f) => Ok(Fo::forall(
            v.clone(),
            Fo::implies(
                Fo::atom("Regions", vec![Term::var(v.clone())]),
                translate_with(f, fresh)?,
            ),
        )),
        Formula::ExistsRegion(v, _) | Formula::ForallRegion(v, _) => {
            Err(ThematicError::RegionQuantifier(v.clone()))
        }
    }
}

fn translate_all(fs: &[Formula], fresh: &mut Fresh) -> Result<Vec<Fo>, ThematicError> {
    fs.iter().map(|f| translate_with(f, fresh)).collect()
}

/// Evaluate a region-quantifier-free sentence against a thematic database.
pub fn eval_on_thematic(db: &Database, formula: &Formula) -> Result<bool, ThematicError> {
    let fo = translate(formula)?;
    Ok(relstore::fo::eval_sentence(db, &fo))
}

/// Evaluate a region-quantifier-free formula with free name variables as a
/// set-returning query against a thematic database: translate once, then
/// enumerate assignments of the variables in `free` over the `Regions`
/// relation and keep the satisfying ones (rows in lexicographic order).
///
/// This is the thematic twin of `cell_eval::CellEvaluator::eval_bindings` —
/// Corollary 3.7 extended from sentences to open formulas: the satisfying
/// name assignments of a topological query are computable from `thematic(I)`
/// alone.
pub fn bindings_on_thematic(
    db: &Database,
    formula: &Formula,
    free: &[String],
) -> Result<Vec<crate::cell_eval::Bindings>, ThematicError> {
    let fo = translate(formula)?;
    let names: Vec<String> = db
        .relation("Regions")
        .map(|r| r.iter().filter_map(|t| t.first().and_then(|v| v.as_sym()).map(String::from)).collect())
        .unwrap_or_default();
    let mut out = Vec::new();
    let mut assignment = relstore::fo::Assignment::new();
    enumerate_bindings(db, &fo, free, &names, &mut assignment, &mut out);
    Ok(out)
}

fn enumerate_bindings(
    db: &Database,
    fo: &Fo,
    free: &[String],
    names: &[String],
    assignment: &mut relstore::fo::Assignment,
    out: &mut Vec<crate::cell_eval::Bindings>,
) {
    match free.split_first() {
        None => {
            if relstore::fo::eval(db, fo, assignment) {
                let row = assignment
                    .iter()
                    .filter_map(|(k, v)| v.as_sym().map(|s| (k.clone(), s.to_string())))
                    .collect();
                out.push(row);
            }
        }
        Some((var, rest)) => {
            for name in names {
                assignment.insert(var.clone(), relstore::Value::sym(name.as_str()));
                enumerate_bindings(db, fo, rest, names, assignment, out);
                assignment.remove(var);
            }
        }
    }
}

fn name_term(e: &RegionExpr) -> Result<Term, ThematicError> {
    match e {
        RegionExpr::Ext(t) => Ok(to_term(t)),
        RegionExpr::Var(v) => Err(ThematicError::RegionVariable(v.clone())),
    }
}

fn to_term(t: &NameTerm) -> Term {
    match t {
        NameTerm::Var(v) => Term::var(v.clone()),
        NameTerm::Const(c) => Term::val(c.as_str()),
    }
}

/// `∃f. RegionFaces(a, f) ∧ RegionFaces(b, f)` — the interiors intersect.
fn interiors_intersect(a: &Term, b: &Term, fresh: &mut Fresh) -> Fo {
    let f = fresh.var("f");
    Fo::exists(
        f.clone(),
        Fo::and(vec![
            Fo::atom("RegionFaces", vec![a.clone(), Term::var(f.clone())]),
            Fo::atom("RegionFaces", vec![b.clone(), Term::var(f)]),
        ]),
    )
}

/// `a ⊆ b`: every face of `a` is a face of `b`.
fn subset_formula(a: &Term, b: &Term, fresh: &mut Fresh) -> Fo {
    let f = fresh.var("f");
    Fo::forall(
        f.clone(),
        Fo::implies(
            Fo::atom("RegionFaces", vec![a.clone(), Term::var(f.clone())]),
            Fo::atom("RegionFaces", vec![b.clone(), Term::var(f)]),
        ),
    )
}

/// Is edge `e` on the boundary of region `a`? It is iff its two incident
/// faces disagree about membership in `a`; incidence is read from `FaceEdges`.
fn edge_on_boundary(e: &str, a: &Term, fresh: &mut Fresh) -> Fo {
    let f1 = fresh.var("f");
    let f2 = fresh.var("f");
    Fo::exists(
        f1.clone(),
        Fo::exists(
            f2.clone(),
            Fo::and(vec![
                Fo::atom("FaceEdges", vec![Term::var(f1.clone()), Term::var(e)]),
                Fo::atom("FaceEdges", vec![Term::var(f2.clone()), Term::var(e)]),
                Fo::atom("RegionFaces", vec![a.clone(), Term::var(f1)]),
                Fo::not(Fo::atom("RegionFaces", vec![a.clone(), Term::var(f2)])),
            ]),
        ),
    )
}

/// Is edge `e` interior to region `a`? (On no boundary side: some incident
/// face is in `a` and it is not a boundary edge of `a`.)
fn edge_interior(e: &str, a: &Term, fresh: &mut Fresh) -> Fo {
    let f = fresh.var("f");
    Fo::and(vec![
        Fo::exists(
            f.clone(),
            Fo::and(vec![
                Fo::atom("FaceEdges", vec![Term::var(f.clone()), Term::var(e)]),
                Fo::atom("RegionFaces", vec![a.clone(), Term::var(f)]),
            ]),
        ),
        Fo::not(edge_on_boundary(e, a, fresh)),
    ])
}

/// Is vertex `v` on the boundary of `a`? Iff it is an endpoint of an edge on
/// the boundary of `a`.
fn vertex_on_boundary(v: &str, a: &Term, fresh: &mut Fresh) -> Fo {
    let e = fresh.var("e");
    let on = Fo::and(vec![endpoint_of(&e, v, fresh), edge_on_boundary(&e, a, fresh)]);
    Fo::exists(e, on)
}

/// `v` is an endpoint of `e` (in either position of the Endpoints relation).
fn endpoint_of(e: &str, v: &str, fresh: &mut Fresh) -> Fo {
    let other = fresh.var("u");
    Fo::or(vec![
        Fo::exists(
            other.clone(),
            Fo::atom("Endpoints", vec![Term::var(e), Term::var(v), Term::var(other.clone())]),
        ),
        Fo::exists(
            other.clone(),
            Fo::atom("Endpoints", vec![Term::var(e), Term::var(other), Term::var(v)]),
        ),
    ])
}

/// Do the boundaries of `a` and `b` intersect? Either a common boundary edge
/// exists, or a vertex lies on both boundaries.
fn boundaries_intersect(a: &Term, b: &Term, fresh: &mut Fresh) -> Fo {
    let e = fresh.var("e");
    let v = fresh.var("v");
    Fo::or(vec![
        Fo::exists(
            e.clone(),
            Fo::and(vec![edge_on_boundary(&e, a, fresh), edge_on_boundary(&e, b, fresh)]),
        ),
        Fo::exists(
            v.clone(),
            Fo::and(vec![
                Fo::atom("Vertices", vec![Term::var(v.clone())]),
                vertex_on_boundary(&v, a, fresh),
                vertex_on_boundary(&v, b, fresh),
            ]),
        ),
    ])
}

/// Does the interior of `a` meet the boundary of `b`? Either a boundary edge
/// of `b` is interior to `a`, or a boundary vertex of `b` is "inside" `a`
/// (not on `a`'s boundary but incident to a cell of `a`).
fn interior_meets_boundary(a: &Term, b: &Term, fresh: &mut Fresh) -> Fo {
    let e = fresh.var("e");
    let v = fresh.var("v");
    let e2 = fresh.var("e");
    Fo::or(vec![
        Fo::exists(
            e.clone(),
            Fo::and(vec![edge_on_boundary(&e, b, fresh), edge_interior(&e, a, fresh)]),
        ),
        Fo::exists(
            v.clone(),
            Fo::and(vec![
                Fo::atom("Vertices", vec![Term::var(v.clone())]),
                vertex_on_boundary(&v, b, fresh),
                Fo::not(vertex_on_boundary(&v, a, fresh)),
                Fo::exists(
                    e2.clone(),
                    Fo::and(vec![endpoint_of(&e2, &v, fresh), edge_interior(&e2, a, fresh)]),
                ),
            ]),
        ),
    ])
}

/// The translation of a 4-intersection relation atom between two named
/// regions into a first-order formula over `Th`, following the relation's
/// defining 4-intersection matrix.
fn relation_formula(r: Relation4, a: &Term, b: &Term, fresh: &mut Fresh) -> Fo {
    let m = r.to_matrix();
    let lit = |cond: bool, f: Fo| if cond { f } else { Fo::not(f) };
    Fo::and(vec![
        lit(m.interiors, interiors_intersect(a, b, fresh)),
        lit(m.boundaries, boundaries_intersect(a, b, fresh)),
        lit(m.interior_a_boundary_b, interior_meets_boundary(a, b, fresh)),
        lit(m.boundary_a_interior_b, interior_meets_boundary(b, a, fresh)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Formula as F, RegionExpr as R};
    use invariant::thematic::to_database;
    use invariant::Invariant;
    use spatial_core::fixtures;
    use spatial_core::prelude::SpatialInstance;

    fn thematic(inst: &SpatialInstance) -> Database {
        to_database(&Invariant::of_instance(inst))
    }

    #[test]
    fn relation_atoms_answered_on_the_thematic_database() {
        // Corollary 3.7 in action: the relational query gives the same answer
        // as the geometric computation, for every relation and every Fig. 2
        // configuration.
        for (name, inst) in fixtures::fig_2_pairs() {
            let db = thematic(&inst);
            let expected = Relation4::from_name(name).unwrap();
            for r in Relation4::ALL {
                let q = F::rel(r, R::named("A"), R::named("B"));
                assert_eq!(
                    eval_on_thematic(&db, &q),
                    Ok(r == expected),
                    "{name} vs atom {r}"
                );
            }
        }
    }

    #[test]
    fn name_quantifiers_on_thematic() {
        // ∃a ∃b. ¬(a = b) ∧ overlap(a, b)
        let q = F::exists_name(
            "a",
            F::exists_name(
                "b",
                F::and(vec![
                    F::not(F::NameEq(NameTerm::Var("a".into()), NameTerm::Var("b".into()))),
                    F::rel(
                        Relation4::Overlap,
                        R::Ext(NameTerm::Var("a".into())),
                        R::Ext(NameTerm::Var("b".into())),
                    ),
                ]),
            ),
        );
        assert_eq!(eval_on_thematic(&thematic(&fixtures::fig_1a()), &q), Ok(true));
        assert_eq!(eval_on_thematic(&thematic(&fixtures::nested_three()), &q), Ok(false));
    }

    #[test]
    fn subset_and_connect_translation() {
        let db = thematic(&fixtures::nested_three());
        let sub = F::subset(R::named("C"), R::named("A"));
        assert_eq!(eval_on_thematic(&db, &sub), Ok(true));
        let sub2 = F::subset(R::named("A"), R::named("C"));
        assert_eq!(eval_on_thematic(&db, &sub2), Ok(false));
        let con = F::connect(R::named("A"), R::named("B"));
        assert_eq!(eval_on_thematic(&db, &con), Ok(true));
    }

    #[test]
    fn translation_is_deterministic() {
        // The introduced variables are numbered per translation, so the
        // result depends on the formula alone, not on earlier calls.
        let f = F::and(vec![
            F::rel(Relation4::Overlap, R::named("A"), R::named("B")),
            F::not(F::subset(R::named("B"), R::named("A"))),
        ]);
        assert_eq!(translate(&f), translate(&f));
    }

    #[test]
    fn region_quantifiers_are_rejected() {
        let db = thematic(&fixtures::fig_1a());
        let q = F::exists_region("r", F::subset(R::var("r"), R::named("A")));
        assert!(matches!(eval_on_thematic(&db, &q), Err(ThematicError::RegionQuantifier(_))));
        let q2 = F::connect(R::var("r"), R::named("A"));
        assert!(matches!(eval_on_thematic(&db, &q2), Err(ThematicError::RegionVariable(_))));
    }

    #[test]
    fn agreement_with_cell_evaluator_on_pairwise_relations() {
        for inst in [fixtures::fig_1a(), fixtures::shared_boundary()] {
            let db = thematic(&inst);
            let names = inst.names();
            for a in &names {
                for b in &names {
                    if a == b {
                        continue;
                    }
                    for r in Relation4::ALL {
                        let q = F::rel(r, R::named(*a), R::named(*b));
                        let geometric = crate::cell_eval::eval_on_instance(&inst, &q).unwrap();
                        let relational = eval_on_thematic(&db, &q).unwrap();
                        assert_eq!(geometric, relational, "{a} {r} {b}");
                    }
                }
            }
        }
    }
}
