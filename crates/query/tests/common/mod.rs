//! The pseudo-random formula generator shared by the planner and
//! view-evaluator differential suites: formulas over 1–3 free name
//! variables, with every name constant taken from the instance under test.

use query::ast::{Formula, NameTerm, RegionExpr};
use rand::rngs::StdRng;
use rand::Rng;
use relations::Relation4;

/// A pseudo-random name term: one of the free variables or an instance name.
fn random_name_term(rng: &mut StdRng, free: &[String], names: &[String]) -> NameTerm {
    if rng.gen_bool(0.55) {
        NameTerm::Var(free[rng.gen_range(0..free.len())].clone())
    } else {
        NameTerm::Const(names[rng.gen_range(0..names.len())].clone())
    }
}

fn random_region(rng: &mut StdRng, free: &[String], names: &[String]) -> RegionExpr {
    RegionExpr::Ext(random_name_term(rng, free, names))
}

/// A pseudo-random atom over region extents.
fn random_atom(rng: &mut StdRng, free: &[String], names: &[String]) -> Formula {
    match rng.gen_range(0..4) {
        0 => {
            let r = Relation4::ALL[rng.gen_range(0..Relation4::ALL.len())];
            Formula::Rel(
                r,
                random_region(rng, free, names),
                random_region(rng, free, names),
            )
        }
        1 => Formula::Connect(
            random_region(rng, free, names),
            random_region(rng, free, names),
        ),
        2 => Formula::Subset(
            random_region(rng, free, names),
            random_region(rng, free, names),
        ),
        _ => Formula::NameEq(
            random_name_term(rng, free, names),
            random_name_term(rng, free, names),
        ),
    }
}

/// A pseudo-random formula of bounded depth: conjunctions dominate (so the
/// planner has conjuncts to split and atoms to draw generators from), with
/// disjunctions, negations and shadowing name quantifiers mixed in.
pub fn random_formula(
    rng: &mut StdRng,
    depth: usize,
    free: &[String],
    names: &[String],
) -> Formula {
    if depth == 0 {
        return random_atom(rng, free, names);
    }
    match rng.gen_range(0..10) {
        0..=4 => {
            let n = rng.gen_range(2..=3);
            Formula::And(
                (0..n)
                    .map(|_| random_formula(rng, depth - 1, free, names))
                    .collect(),
            )
        }
        5..=6 => {
            let n = rng.gen_range(2..=3);
            Formula::Or(
                (0..n)
                    .map(|_| random_formula(rng, depth - 1, free, names))
                    .collect(),
            )
        }
        7 => Formula::Not(Box::new(random_formula(rng, depth - 1, free, names))),
        8 => {
            // Shadow one of the free variables with a quantifier — the
            // planner must keep treating the outer occurrence correctly.
            let v = free[rng.gen_range(0..free.len())].clone();
            Formula::ExistsName(v, Box::new(random_formula(rng, depth - 1, free, names)))
        }
        _ => random_atom(rng, free, names),
    }
}
