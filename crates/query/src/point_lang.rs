//! The point-based language `FO(P, <x, <y, Region)` and its relationship to
//! the region-based languages (Proposition 5.7, Theorem 5.8).
//!
//! Variables range over points of the plane; atoms are `a(p)` (the point lies
//! in the named region), `p <x q`, `p =x q`, `p <y q`, `p =y q`. The paper
//! proves that, restricted to `S`-generic queries, this language expresses
//! exactly the same queries as the region-based `FO(Rect, Disc)`
//! (Theorem 5.8), and the same topological queries in particular.
//!
//! Evaluation is implemented for instances of rectangles: answers of such
//! queries depend only on the order type of coordinates, so point quantifiers
//! can range over a finite refined grid with enough representatives per open
//! interval (one per point variable) — the classical finite-model argument
//! for dense orders.

use crate::ast::{Formula as RegionFormula, NameTerm, RegionExpr};
use crate::rect_eval::refined_axis;
use relations::Relation4;
use spatial_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// A formula of the point-based language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PointFormula {
    /// `a(p)`: point `p` lies in the (open) named region `a`.
    InRegion(String, String),
    /// `ā(p)`: point `p` lies in the closure of the named region `a`
    /// (a definitional extension used by the Theorem 5.8 translation).
    InClosure(String, String),
    /// Comparison of the x coordinates of two point variables.
    CmpX(String, Ordering2, String),
    /// Comparison of the y coordinates of two point variables.
    CmpY(String, Ordering2, String),
    /// Negation.
    Not(Box<PointFormula>),
    /// Conjunction.
    And(Vec<PointFormula>),
    /// Disjunction.
    Or(Vec<PointFormula>),
    /// Existential point quantifier.
    Exists(String, Box<PointFormula>),
    /// Universal point quantifier.
    Forall(String, Box<PointFormula>),
}

/// The comparison operators of the point language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ordering2 {
    /// Strictly less.
    Less,
    /// Equal.
    Equal,
}

impl PointFormula {
    /// Negation. (A by-value constructor, intentionally not the `Not`
    /// operator trait.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: PointFormula) -> PointFormula {
        PointFormula::Not(Box::new(f))
    }

    /// Implication.
    pub fn implies(a: PointFormula, b: PointFormula) -> PointFormula {
        PointFormula::Or(vec![PointFormula::not(a), b])
    }

    /// Existential quantifier.
    pub fn exists<S: Into<String>>(v: S, f: PointFormula) -> PointFormula {
        PointFormula::Exists(v.into(), Box::new(f))
    }

    /// Universal quantifier.
    pub fn forall<S: Into<String>>(v: S, f: PointFormula) -> PointFormula {
        PointFormula::Forall(v.into(), Box::new(f))
    }

    /// Number of point quantifiers (used to size the evaluation grid).
    pub fn quantifier_count(&self) -> usize {
        match self {
            PointFormula::InRegion(..)
            | PointFormula::InClosure(..)
            | PointFormula::CmpX(..)
            | PointFormula::CmpY(..) => 0,
            PointFormula::Not(f) => f.quantifier_count(),
            PointFormula::And(fs) | PointFormula::Or(fs) => {
                fs.iter().map(|f| f.quantifier_count()).sum()
            }
            PointFormula::Exists(_, f) | PointFormula::Forall(_, f) => 1 + f.quantifier_count(),
        }
    }
}

/// Errors raised by the point evaluator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PointEvalError {
    /// Inputs must be rectangles for the finite-grid argument to apply.
    NonRectangularInput(String),
    /// Unknown region name.
    UnknownName(String),
    /// Unbound point variable.
    UnboundVariable(String),
}

impl fmt::Display for PointEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointEvalError::NonRectangularInput(n) => write!(f, "region `{n}` is not a rectangle"),
            PointEvalError::UnknownName(n) => write!(f, "unknown region `{n}`"),
            PointEvalError::UnboundVariable(v) => write!(f, "unbound point variable `{v}`"),
        }
    }
}

impl std::error::Error for PointEvalError {}

/// Evaluate a point-language sentence on an instance of rectangles.
pub fn eval_point_sentence(
    instance: &SpatialInstance,
    formula: &PointFormula,
) -> Result<bool, PointEvalError> {
    let mut boxes = BTreeMap::new();
    for (name, region) in instance.iter() {
        if region.class() != RegionClass::Rect {
            return Err(PointEvalError::NonRectangularInput(name.to_string()));
        }
        boxes.insert(name.to_string(), region.bounding_box());
    }
    let reps = formula.quantifier_count().max(1);
    let xs: Vec<Rational> = boxes.values().flat_map(|b| [b.0, b.2]).collect();
    let ys: Vec<Rational> = boxes.values().flat_map(|b| [b.1, b.3]).collect();
    let (xs, ys) = (refined_axis(&xs, reps), refined_axis(&ys, reps));
    let mut env = BTreeMap::new();
    eval_inner(&boxes, &xs, &ys, formula, &mut env)
}

type BoxCoords = (Rational, Rational, Rational, Rational);

fn eval_inner(
    boxes: &BTreeMap<String, BoxCoords>,
    xs: &[Rational],
    ys: &[Rational],
    formula: &PointFormula,
    env: &mut BTreeMap<String, Point>,
) -> Result<bool, PointEvalError> {
    let lookup = |v: &str, env: &BTreeMap<String, Point>| -> Result<Point, PointEvalError> {
        env.get(v).copied().ok_or_else(|| PointEvalError::UnboundVariable(v.to_string()))
    };
    match formula {
        PointFormula::InRegion(name, p) => {
            let b = boxes.get(name).ok_or_else(|| PointEvalError::UnknownName(name.clone()))?;
            let pt = lookup(p, env)?;
            Ok(pt.x > b.0 && pt.x < b.2 && pt.y > b.1 && pt.y < b.3)
        }
        PointFormula::InClosure(name, p) => {
            let b = boxes.get(name).ok_or_else(|| PointEvalError::UnknownName(name.clone()))?;
            let pt = lookup(p, env)?;
            Ok(pt.x >= b.0 && pt.x <= b.2 && pt.y >= b.1 && pt.y <= b.3)
        }
        PointFormula::CmpX(p, op, q) | PointFormula::CmpY(p, op, q) => {
            let (a, b) = (lookup(p, env)?, lookup(q, env)?);
            let (a, b) =
                if matches!(formula, PointFormula::CmpX(..)) { (a.x, b.x) } else { (a.y, b.y) };
            Ok(match op {
                Ordering2::Less => a < b,
                Ordering2::Equal => a == b,
            })
        }
        PointFormula::Not(f) => Ok(!eval_inner(boxes, xs, ys, f, env)?),
        PointFormula::And(fs) | PointFormula::Or(fs) => {
            // A conjunction stops at the first false operand, a disjunction
            // at the first true one.
            let or = matches!(formula, PointFormula::Or(_));
            for f in fs {
                if eval_inner(boxes, xs, ys, f, env)? == or {
                    return Ok(or);
                }
            }
            Ok(!or)
        }
        PointFormula::Exists(v, f) | PointFormula::Forall(v, f) => {
            let exists = matches!(formula, PointFormula::Exists(..));
            for &x in xs {
                for &y in ys {
                    env.insert(v.clone(), Point::new(x, y));
                    let holds = eval_inner(boxes, xs, ys, f, env)?;
                    env.remove(v);
                    if holds == exists {
                        return Ok(exists);
                    }
                }
            }
            Ok(!exists)
        }
    }
}

/// Translate an `FO(Rect, ·)` sentence into the point language by replacing
/// every rectangle variable `r` with two point variables — its lower-left and
/// upper-right corners — exactly as in the easy direction of Theorem 5.8.
pub fn rect_query_to_point_query(formula: &RegionFormula) -> Option<PointFormula> {
    translate(formula)
}

fn lo(v: &str) -> String {
    format!("{v}__lo")
}
fn hi(v: &str) -> String {
    format!("{v}__hi")
}

/// The corner pair naming for a region expression; named regions keep their
/// name and are handled directly by `in-region` atoms on their corners via
/// fresh auxiliary quantifiers, so we restrict the translation to atoms whose
/// arguments involve at least one variable or are simple enough.
fn translate(f: &RegionFormula) -> Option<PointFormula> {
    match f {
        RegionFormula::ExistsRegion(v, g) => Some(PointFormula::exists(
            lo(v),
            PointFormula::exists(
                hi(v),
                PointFormula::And(vec![corner_wellformed(v), translate(g)?]),
            ),
        )),
        RegionFormula::ForallRegion(v, g) => Some(PointFormula::forall(
            lo(v),
            PointFormula::forall(
                hi(v),
                PointFormula::implies(corner_wellformed(v), translate(g)?),
            ),
        )),
        RegionFormula::Not(g) => Some(PointFormula::not(translate(g)?)),
        RegionFormula::And(gs) => {
            Some(PointFormula::And(gs.iter().map(translate).collect::<Option<_>>()?))
        }
        RegionFormula::Or(gs) => {
            Some(PointFormula::Or(gs.iter().map(translate).collect::<Option<_>>()?))
        }
        RegionFormula::Subset(p, q) => {
            // subset(p, q) for rectangles: every point in p is in q — which for
            // the corner encoding is: both corners' span is inside q's span.
            // We express it pointwise: ∀z. z ∈ p → z ∈ q.
            let z = "z__sub".to_string();
            Some(PointFormula::forall(
                z.clone(),
                PointFormula::implies(point_in(p, &z)?, point_in(q, &z)?),
            ))
        }
        RegionFormula::Connect(p, q) => {
            // Closures intersect: ∃z. z ∈ closure(p) ∧ z ∈ closure(q); over the
            // refined grid it suffices to test shared closure points.
            let z = "z__con".to_string();
            Some(PointFormula::exists(
                z.clone(),
                PointFormula::And(vec![point_in_closure(p, &z)?, point_in_closure(q, &z)?]),
            ))
        }
        RegionFormula::Rel(r, p, q) => {
            // Express the relation through its 4-intersection matrix using
            // pointwise definable parts (interior and closure); the boundary
            // is closure minus interior.
            let m = r.to_matrix();
            let clause = |cond: bool, f: PointFormula| if cond { f } else { PointFormula::not(f) };
            let z1 = "z__ii".to_string();
            let z2 = "z__bb".to_string();
            let z3 = "z__ib".to_string();
            let z4 = "z__bi".to_string();
            let interiors = PointFormula::exists(
                z1.clone(),
                PointFormula::And(vec![point_in(p, &z1)?, point_in(q, &z1)?]),
            );
            let boundaries = PointFormula::exists(
                z2.clone(),
                PointFormula::And(vec![point_on_boundary(p, &z2)?, point_on_boundary(q, &z2)?]),
            );
            let int_bnd = PointFormula::exists(
                z3.clone(),
                PointFormula::And(vec![point_in(p, &z3)?, point_on_boundary(q, &z3)?]),
            );
            let bnd_int = PointFormula::exists(
                z4.clone(),
                PointFormula::And(vec![point_on_boundary(p, &z4)?, point_in(q, &z4)?]),
            );
            let mut parts = vec![
                clause(m.interiors, interiors),
                clause(m.boundaries, boundaries),
                clause(m.interior_a_boundary_b, int_bnd),
                clause(m.boundary_a_interior_b, bnd_int),
            ];
            if *r == Relation4::Equal {
                // Sharpen equality: same point sets.
                let z = "z__eq".to_string();
                parts.push(PointFormula::forall(
                    z.clone(),
                    PointFormula::And(vec![
                        PointFormula::implies(point_in(p, &z)?, point_in(q, &z)?),
                        PointFormula::implies(point_in(q, &z)?, point_in(p, &z)?),
                    ]),
                ));
            }
            Some(PointFormula::And(parts))
        }
        RegionFormula::NameEq(..)
        | RegionFormula::ExistsName(..)
        | RegionFormula::ForallName(..) => None,
    }
}

fn corner_wellformed(v: &str) -> PointFormula {
    PointFormula::And(vec![
        PointFormula::CmpX(lo(v), Ordering2::Less, hi(v)),
        PointFormula::CmpY(lo(v), Ordering2::Less, hi(v)),
    ])
}

/// `z` lies in the interior of the region expression.
fn point_in(e: &RegionExpr, z: &str) -> Option<PointFormula> {
    match e {
        RegionExpr::Ext(NameTerm::Const(name)) => {
            Some(PointFormula::InRegion(name.clone(), z.to_string()))
        }
        RegionExpr::Ext(NameTerm::Var(_)) => None,
        RegionExpr::Var(v) => Some(PointFormula::And(vec![
            PointFormula::CmpX(lo(v), Ordering2::Less, z.to_string()),
            PointFormula::CmpX(z.to_string(), Ordering2::Less, hi(v)),
            PointFormula::CmpY(lo(v), Ordering2::Less, z.to_string()),
            PointFormula::CmpY(z.to_string(), Ordering2::Less, hi(v)),
        ])),
    }
}

/// `z` lies in the closure of the region expression.
fn point_in_closure(e: &RegionExpr, z: &str) -> Option<PointFormula> {
    match e {
        RegionExpr::Var(v) => Some(PointFormula::And(vec![
            PointFormula::not(PointFormula::CmpX(z.to_string(), Ordering2::Less, lo(v))),
            PointFormula::not(PointFormula::CmpX(hi(v), Ordering2::Less, z.to_string())),
            PointFormula::not(PointFormula::CmpY(z.to_string(), Ordering2::Less, lo(v))),
            PointFormula::not(PointFormula::CmpY(hi(v), Ordering2::Less, z.to_string())),
        ])),
        RegionExpr::Ext(NameTerm::Const(name)) => {
            Some(PointFormula::InClosure(name.clone(), z.to_string()))
        }
        RegionExpr::Ext(NameTerm::Var(_)) => None,
    }
}

/// `z` lies on the boundary of the region expression: in the closure but not
/// in the interior.
fn point_on_boundary(e: &RegionExpr, z: &str) -> Option<PointFormula> {
    Some(PointFormula::And(vec![
        point_in_closure(e, z)?,
        PointFormula::not(point_in(e, z)?),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::rect_eval::eval_on_rect_instance;

    fn instance() -> SpatialInstance {
        SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 10, 10)),
            ("B", Region::rect_from_ints(2, 2, 6, 6)),
            ("C", Region::rect_from_ints(12, 0, 16, 4)),
        ])
    }

    #[test]
    fn direct_point_queries() {
        // ∃p. A(p) ∧ B(p)
        let f = PointFormula::exists(
            "p",
            PointFormula::And(vec![
                PointFormula::InRegion("A".into(), "p".into()),
                PointFormula::InRegion("B".into(), "p".into()),
            ]),
        );
        assert_eq!(eval_point_sentence(&instance(), &f), Ok(true));
        // ∃p. B(p) ∧ C(p) — disjoint.
        let g = PointFormula::exists(
            "p",
            PointFormula::And(vec![
                PointFormula::InRegion("B".into(), "p".into()),
                PointFormula::InRegion("C".into(), "p".into()),
            ]),
        );
        assert_eq!(eval_point_sentence(&instance(), &g), Ok(false));
        // ∀p. B(p) → A(p)
        let h = PointFormula::forall(
            "p",
            PointFormula::implies(
                PointFormula::InRegion("B".into(), "p".into()),
                PointFormula::InRegion("A".into(), "p".into()),
            ),
        );
        assert_eq!(eval_point_sentence(&instance(), &h), Ok(true));
    }

    #[test]
    fn coordinate_comparisons_and_errors() {
        // ∃p ∃q. A(p) ∧ C(q) ∧ p <x q (C lies to the right of A's interior).
        let f = PointFormula::exists(
            "p",
            PointFormula::exists(
                "q",
                PointFormula::And(vec![
                    PointFormula::InRegion("A".into(), "p".into()),
                    PointFormula::InRegion("C".into(), "q".into()),
                    PointFormula::CmpX("p".into(), Ordering2::Less, "q".into()),
                ]),
            ),
        );
        assert_eq!(eval_point_sentence(&instance(), &f), Ok(true));
        // And never q <x p with q in C, p in... actually some A points are to
        // the right of nothing in C, so test the universal negation instead:
        let g = PointFormula::forall(
            "p",
            PointFormula::implies(
                PointFormula::InRegion("C".into(), "p".into()),
                PointFormula::not(PointFormula::InRegion("B".into(), "p".into())),
            ),
        );
        assert_eq!(eval_point_sentence(&instance(), &g), Ok(true));
        let bad = PointFormula::InRegion("Z".into(), "p".into());
        assert!(matches!(
            eval_point_sentence(&instance(), &PointFormula::exists("p", bad)),
            Err(PointEvalError::UnknownName(_))
        ));
        assert!(matches!(
            eval_point_sentence(&instance(), &PointFormula::CmpX("p".into(), Ordering2::Equal, "q".into())),
            Err(PointEvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn theorem_5_8_translation_agrees_with_rect_evaluator() {
        // The easy direction of Theorem 5.8: every FO(Rect, ·) sentence has a
        // point-language equivalent (rectangle variable ↦ two corner points).
        let inst = instance();
        // Quantifier-free sentences keep the translated evaluation grid
        // small; quantified sentences translate too (see
        // `translation_handles_quantifiers`) but are exercised by the
        // benchmark harness rather than the unit tests.
        for text in [
            "disjoint(B, C)",
            "inside(B, A)",
            "overlap(A, B)",
            "meet(A, B) or contains(A, B)",
            "not covers(A, B)",
            "equal(A, A) and equal(B, B)",
        ] {
            let rq = parse(text).unwrap();
            let pq = rect_query_to_point_query(&rq).expect("translatable");
            assert_eq!(
                eval_point_sentence(&inst, &pq).unwrap(),
                eval_on_rect_instance(&inst, &rq).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn translation_handles_quantifiers() {
        let rq = parse("exists r . inside(r, A) and inside(r, B)").unwrap();
        let pq = rect_query_to_point_query(&rq).expect("translatable");
        // Each rectangle variable becomes two point variables.
        assert!(pq.quantifier_count() >= 2);
        // Name quantifiers are outside the translated fragment.
        let nq = parse("existsname a . overlap(ext(a), A)").unwrap();
        assert!(rect_query_to_point_query(&nq).is_none());
    }
}
