//! Effective evaluation of `FO(Rect, Rect)` queries (Theorem 6.4).
//!
//! When the input regions are axis-parallel rectangles and quantifiers range
//! over rectangles, queries are `S`-generic at most (Fig. 10): their answers
//! depend only on the *order type* of the rectangle coordinates. Every
//! quantified rectangle can therefore be snapped onto the finite coordinate
//! grid spanned by the input coordinates, their midpoints and one value
//! beyond each end, without changing any 4-intersection relation. This gives
//! a decision procedure with polynomial data complexity for a fixed query —
//! the effective counterpart of the paper's `NC` bound (Theorem 6.4).

use crate::ast::{Formula, NameTerm, RegionExpr};
use relations::Relation4;
use spatial_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by the rectangle evaluator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RectEvalError {
    /// An input region is not an axis-parallel rectangle.
    NonRectangularInput(String),
    /// An unknown region name was mentioned.
    UnknownName(String),
    /// A variable was used without being bound.
    UnboundVariable(String),
}

impl fmt::Display for RectEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RectEvalError::NonRectangularInput(n) => {
                write!(f, "region `{n}` is not a rectangle; FO(Rect, Rect) requires Rect inputs")
            }
            RectEvalError::UnknownName(n) => write!(f, "unknown region name `{n}`"),
            RectEvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
        }
    }
}

impl std::error::Error for RectEvalError {}

/// A rectangle as four exact coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Box2 {
    x1: Rational,
    x2: Rational,
    y1: Rational,
    y2: Rational,
}

/// The 4-intersection relation between two axis-parallel open rectangles,
/// computed in closed form from coordinate comparisons.
fn rect_relation(a: &Box2, b: &Box2) -> Relation4 {
    if a == b {
        return Relation4::Equal;
    }
    // Closed-interval overlap tests per axis.
    let closures_disjoint =
        a.x2 < b.x1 || b.x2 < a.x1 || a.y2 < b.y1 || b.y2 < a.y1;
    if closures_disjoint {
        return Relation4::Disjoint;
    }
    let interiors_intersect =
        a.x2 > b.x1 && b.x2 > a.x1 && a.y2 > b.y1 && b.y2 > a.y1;
    if !interiors_intersect {
        return Relation4::Meet;
    }
    let a_in_b = a.x1 >= b.x1 && a.x2 <= b.x2 && a.y1 >= b.y1 && a.y2 <= b.y2;
    let b_in_a = b.x1 >= a.x1 && b.x2 <= a.x2 && b.y1 >= a.y1 && b.y2 <= a.y2;
    let shares_boundary = |inner: &Box2, outer: &Box2| {
        inner.x1 == outer.x1 || inner.x2 == outer.x2 || inner.y1 == outer.y1 || inner.y2 == outer.y2
    };
    if a_in_b {
        if shares_boundary(a, b) {
            Relation4::CoveredBy
        } else {
            Relation4::Inside
        }
    } else if b_in_a {
        if shares_boundary(b, a) {
            Relation4::Covers
        } else {
            Relation4::Contains
        }
    } else {
        Relation4::Overlap
    }
}

/// The evaluator for `FO(Rect, Rect)` sentences.
pub struct RectEvaluator {
    named: BTreeMap<String, Box2>,
    /// The input coordinates per axis; the evaluation grid is derived from
    /// these ([`refined_axis`]) with enough representatives per gap for the
    /// formula at hand (two per region quantifier).
    xs: Vec<Rational>,
    ys: Vec<Rational>,
}

impl RectEvaluator {
    /// Build the evaluator for an instance whose regions are all rectangles.
    pub fn new(instance: &SpatialInstance) -> Result<RectEvaluator, RectEvalError> {
        let mut named = BTreeMap::new();
        for (name, region) in instance.iter() {
            if region.class() != RegionClass::Rect {
                return Err(RectEvalError::NonRectangularInput(name.to_string()));
            }
            let (x1, y1, x2, y2) = region.bounding_box();
            named.insert(name.to_string(), Box2 { x1, x2, y1, y2 });
        }
        let xs = named.values().flat_map(|b| [b.x1, b.x2]).collect();
        let ys = named.values().flat_map(|b| [b.y1, b.y2]).collect();
        Ok(RectEvaluator { named, xs, ys })
    }

    /// The number of candidate rectangles a single quantifier ranges over,
    /// for a query with the given number of region quantifiers.
    pub fn quantifier_domain_size_for(&self, quantifiers: usize) -> usize {
        let reps = (2 * quantifiers).max(1);
        let nx = refined_axis(&self.xs, reps).len();
        let ny = refined_axis(&self.ys, reps).len();
        (nx * (nx - 1) / 2) * (ny * (ny - 1) / 2)
    }

    /// Evaluate a sentence; region quantifiers range over grid rectangles,
    /// name quantifiers over the instance's names. The grid carries two
    /// representative coordinates per gap and per region quantifier, which by
    /// S-genericity suffices for exactness over rectangle inputs.
    pub fn eval(&self, formula: &Formula) -> Result<bool, RectEvalError> {
        let reps = (2 * formula.region_quantifier_count()).max(1);
        let xs = refined_axis(&self.xs, reps);
        let ys = refined_axis(&self.ys, reps);
        let mut env = Env {
            candidates: Self::candidate_rectangles(&xs, &ys),
            ..Env::default()
        };
        self.eval_inner(formula, &mut env)
    }

    fn resolve_name(&self, t: &NameTerm, env: &Env) -> Result<String, RectEvalError> {
        match t {
            NameTerm::Const(c) => {
                if self.named.contains_key(c) {
                    Ok(c.clone())
                } else {
                    Err(RectEvalError::UnknownName(c.clone()))
                }
            }
            NameTerm::Var(v) => env
                .names
                .get(v)
                .cloned()
                .ok_or_else(|| RectEvalError::UnboundVariable(v.clone())),
        }
    }

    fn resolve_region(&self, e: &RegionExpr, env: &Env) -> Result<Box2, RectEvalError> {
        match e {
            RegionExpr::Var(v) => env
                .regions
                .get(v)
                .copied()
                .ok_or_else(|| RectEvalError::UnboundVariable(v.clone())),
            RegionExpr::Ext(t) => {
                let name = self.resolve_name(t, env)?;
                Ok(self.named[&name])
            }
        }
    }

    fn candidate_rectangles(xs: &[Rational], ys: &[Rational]) -> Vec<Box2> {
        let mut out = Vec::new();
        for (i, &x1) in xs.iter().enumerate() {
            for &x2 in &xs[i + 1..] {
                for (j, &y1) in ys.iter().enumerate() {
                    for &y2 in &ys[j + 1..] {
                        out.push(Box2 { x1, x2, y1, y2 });
                    }
                }
            }
        }
        out
    }

    fn eval_inner(&self, formula: &Formula, env: &mut Env) -> Result<bool, RectEvalError> {
        match formula {
            Formula::Rel(r, p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(rect_relation(&a, &b) == *r)
            }
            Formula::Connect(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(rect_relation(&a, &b) != Relation4::Disjoint)
            }
            Formula::Subset(p, q) => {
                let a = self.resolve_region(p, env)?;
                let b = self.resolve_region(q, env)?;
                Ok(matches!(
                    rect_relation(&a, &b),
                    Relation4::Inside | Relation4::CoveredBy | Relation4::Equal
                ))
            }
            Formula::NameEq(x, y) => Ok(self.resolve_name(x, env)? == self.resolve_name(y, env)?),
            Formula::Not(f) => Ok(!self.eval_inner(f, env)?),
            Formula::And(fs) | Formula::Or(fs) => {
                // A conjunction stops at the first false operand, a
                // disjunction at the first true one.
                let or = matches!(formula, Formula::Or(_));
                for f in fs {
                    if self.eval_inner(f, env)? == or {
                        return Ok(or);
                    }
                }
                Ok(!or)
            }
            Formula::ExistsRegion(v, f) | Formula::ForallRegion(v, f) => {
                let exists = matches!(formula, Formula::ExistsRegion(..));
                for idx in 0..env.candidates.len() {
                    env.regions.insert(v.clone(), env.candidates[idx]);
                    let holds = self.eval_inner(f, env)?;
                    env.regions.remove(v);
                    if holds == exists {
                        return Ok(exists);
                    }
                }
                Ok(!exists)
            }
            Formula::ExistsName(v, f) | Formula::ForallName(v, f) => {
                let exists = matches!(formula, Formula::ExistsName(..));
                for name in self.named.keys() {
                    env.names.insert(v.clone(), name.clone());
                    let holds = self.eval_inner(f, env)?;
                    env.names.remove(v);
                    if holds == exists {
                        return Ok(exists);
                    }
                }
                Ok(!exists)
            }
        }
    }
}

#[derive(Default)]
struct Env {
    regions: BTreeMap<String, Box2>,
    names: BTreeMap<String, String>,
    candidates: Vec<Box2>,
}

/// Sort and deduplicate the input coordinates of one axis.
/// Refine a coordinate axis: its distinct input coordinates (`0` if there
/// are none), `reps` evenly spaced representatives strictly inside every gap
/// between consecutive ones, and `reps` values beyond each end, ascending.
/// The grid of the rectangle evaluator and of the point language
/// ([`crate::point_lang`]).
pub(crate) fn refined_axis(coords: &[Rational], reps: usize) -> Vec<Rational> {
    let mut coords = coords.to_vec();
    coords.sort();
    coords.dedup();
    if coords.is_empty() {
        coords.push(Rational::ZERO);
    }
    let mut out = Vec::with_capacity(coords.len() * (reps + 1) + 2 * reps);
    for k in 0..reps {
        out.push(coords[0] - Rational::from_int(1 + k as i64));
    }
    for i in 0..coords.len() {
        out.push(coords[i]);
        if i + 1 < coords.len() {
            let gap = coords[i + 1] - coords[i];
            for k in 1..=reps {
                out.push(coords[i] + gap * Rational::new(k as i128, reps as i128 + 1));
            }
        }
    }
    for k in 0..reps {
        out.push(coords[coords.len() - 1] + Rational::from_int(1 + k as i64));
    }
    out.sort();
    out
}

/// Evaluate an `FO(Rect, Rect)` sentence on an instance of rectangles.
pub fn eval_on_rect_instance(
    instance: &SpatialInstance,
    formula: &Formula,
) -> Result<bool, RectEvalError> {
    RectEvaluator::new(instance)?.eval(formula)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Formula as F, RegionExpr as R};
    use crate::parser::parse;
    use spatial_core::fixtures;

    fn rect_instance() -> SpatialInstance {
        SpatialInstance::from_regions([
            ("A", Region::rect_from_ints(0, 0, 10, 10)),
            ("B", Region::rect_from_ints(2, 2, 6, 6)),
            ("C", Region::rect_from_ints(8, 8, 14, 14)),
        ])
    }

    #[test]
    fn closed_form_rect_relations() {
        let b = |x1, y1, x2, y2| Box2 {
            x1: Rational::from_int(x1),
            x2: Rational::from_int(x2),
            y1: Rational::from_int(y1),
            y2: Rational::from_int(y2),
        };
        assert_eq!(rect_relation(&b(0, 0, 2, 2), &b(4, 0, 6, 2)), Relation4::Disjoint);
        assert_eq!(rect_relation(&b(0, 0, 2, 2), &b(2, 0, 4, 2)), Relation4::Meet);
        assert_eq!(rect_relation(&b(0, 0, 4, 4), &b(2, 2, 6, 6)), Relation4::Overlap);
        assert_eq!(rect_relation(&b(0, 0, 4, 4), &b(0, 0, 4, 4)), Relation4::Equal);
        assert_eq!(rect_relation(&b(0, 0, 10, 10), &b(2, 2, 6, 6)), Relation4::Contains);
        assert_eq!(rect_relation(&b(2, 2, 6, 6), &b(0, 0, 10, 10)), Relation4::Inside);
        assert_eq!(rect_relation(&b(0, 0, 10, 10), &b(0, 2, 6, 6)), Relation4::Covers);
        assert_eq!(rect_relation(&b(0, 2, 6, 6), &b(0, 0, 10, 10)), Relation4::CoveredBy);
        // Corner-touching rectangles meet.
        assert_eq!(rect_relation(&b(0, 0, 2, 2), &b(2, 2, 4, 4)), Relation4::Meet);
    }

    #[test]
    fn rect_relations_agree_with_the_geometric_engine() {
        for (name, inst) in fixtures::fig_2_pairs() {
            let a = inst.ext("A").unwrap();
            let b = inst.ext("B").unwrap();
            let (ax1, ay1, ax2, ay2) = a.bounding_box();
            let (bx1, by1, bx2, by2) = b.bounding_box();
            let ra = Box2 { x1: ax1, x2: ax2, y1: ay1, y2: ay2 };
            let rb = Box2 { x1: bx1, x2: bx2, y1: by1, y2: by2 };
            assert_eq!(
                rect_relation(&ra, &rb),
                relations::relation_between(a, b),
                "{name}"
            );
        }
    }

    #[test]
    fn quantified_queries_over_rectangles() {
        let inst = rect_instance();
        // Some rectangle is inside both A and C (they overlap at (8..10)^2).
        let q = parse("exists r . inside(r, A) and inside(r, C)").unwrap();
        assert_eq!(eval_on_rect_instance(&inst, &q), Ok(true));
        // No rectangle is inside both B and C (they are disjoint).
        let q2 = parse("exists r . inside(r, B) and inside(r, C)").unwrap();
        assert_eq!(eval_on_rect_instance(&inst, &q2), Ok(false));
        // Every rectangle inside B is inside A.
        let q3 = parse("forall r . inside(r, B) -> inside(r, A)").unwrap();
        assert_eq!(eval_on_rect_instance(&inst, &q3), Ok(true));
        // The converse fails.
        let q4 = parse("forall r . inside(r, A) -> inside(r, B)").unwrap();
        assert_eq!(eval_on_rect_instance(&inst, &q4), Ok(false));
    }

    #[test]
    fn rejects_non_rectangular_inputs() {
        assert!(matches!(
            RectEvaluator::new(&fixtures::fig_1d()),
            Err(RectEvalError::NonRectangularInput(_))
        ));
    }

    #[test]
    fn s_genericity_snapping_is_sound() {
        // Applying a monotone per-axis rescaling (an element of S) to the
        // instance does not change any quantified query answer.
        let inst = rect_instance();
        let rho = MonotoneMap::from_ints(&[(0, 0), (4, 2), (10, 40), (20, 45)]).unwrap();
        let s = PlaneTransform::Symmetry(Symmetry { rho1: rho.clone(), rho2: rho, swap: false });
        let image = s.apply_instance(&inst).unwrap();
        for text in [
            "exists r . inside(r, A) and inside(r, C)",
            "exists r . inside(r, B) and inside(r, C)",
            "forall r . inside(r, B) -> inside(r, A)",
            "exists r . covers(A, r) and overlap(r, B)",
        ] {
            let q = parse(text).unwrap();
            assert_eq!(
                eval_on_rect_instance(&inst, &q),
                eval_on_rect_instance(&image, &q),
                "{text}"
            );
        }
    }

    #[test]
    fn name_equality_and_quantifiers() {
        let inst = rect_instance();
        let q = F::exists_name(
            "a",
            F::rel(Relation4::Inside, R::named("B"), R::Ext(NameTerm::Var("a".into()))),
        );
        assert_eq!(RectEvaluator::new(&inst).unwrap().eval(&q), Ok(true));
    }

    #[test]
    fn domain_size_is_polynomial() {
        let ev = RectEvaluator::new(&rect_instance()).unwrap();
        let d1 = ev.quantifier_domain_size_for(1);
        let d2 = ev.quantifier_domain_size_for(2);
        assert!(d1 > 0);
        assert!(d2 > d1);
        assert!(d2 < 1_000_000);
    }
}
