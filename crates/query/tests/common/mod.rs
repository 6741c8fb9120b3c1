//! What the planner and view-evaluator differential suites share: the
//! pseudo-random formula generator, over 0–3 free name variables and name
//! quantifiers, with every name constant taken from the instance under test,
//! and the name-grounding oracle the planner is held against.

#![allow(dead_code)]

use arrangement::ComplexGeometry;
use query::ast::{Formula, NameTerm, RegionExpr};
use query::{Bindings, CellEvaluator};
use rand::rngs::StdRng;
use rand::Rng;
use relations::Relation4;

/// A pseudo-random name term: a variable in scope (the innermost one half
/// the time) or an instance name. With no variable in scope, a name.
fn random_name_term(rng: &mut StdRng, scope: &[String], names: &[String]) -> NameTerm {
    if !scope.is_empty() && rng.gen_bool(0.55) {
        let at = if rng.gen_bool(0.5) { scope.len() - 1 } else { rng.gen_range(0..scope.len()) };
        NameTerm::Var(scope[at].clone())
    } else {
        NameTerm::Const(names[rng.gen_range(0..names.len())].clone())
    }
}

fn random_region(rng: &mut StdRng, scope: &[String], names: &[String]) -> RegionExpr {
    RegionExpr::Ext(random_name_term(rng, scope, names))
}

/// A pseudo-random atom over region extents.
fn random_atom(rng: &mut StdRng, scope: &[String], names: &[String]) -> Formula {
    match rng.gen_range(0..4) {
        0 => {
            let r = Relation4::ALL[rng.gen_range(0..Relation4::ALL.len())];
            Formula::Rel(r, random_region(rng, scope, names), random_region(rng, scope, names))
        }
        1 => Formula::Connect(random_region(rng, scope, names), random_region(rng, scope, names)),
        2 => Formula::Subset(random_region(rng, scope, names), random_region(rng, scope, names)),
        _ => Formula::NameEq(random_name_term(rng, scope, names), random_name_term(rng, scope, names)),
    }
}

/// A pseudo-random formula of bounded depth over the free variables `free`
/// (none for a sentence): conjunctions dominate (so the planner has
/// conjuncts to split and atoms to draw generators from), with
/// disjunctions, negations (double ones too), name quantifiers over fresh
/// variables (nested, and negated), and quantifiers shadowing a variable in
/// scope mixed in.
pub fn random_formula(rng: &mut StdRng, depth: usize, free: &[String], names: &[String]) -> Formula {
    let mut scope = free.to_vec();
    draw(rng, depth, &mut scope, names)
}

fn draw(rng: &mut StdRng, depth: usize, scope: &mut Vec<String>, names: &[String]) -> Formula {
    if depth == 0 {
        return random_atom(rng, scope, names);
    }
    let parts = |rng: &mut StdRng, scope: &mut Vec<String>| {
        let n = rng.gen_range(2..=3);
        (0..n).map(|_| draw(rng, depth - 1, scope, names)).collect()
    };
    match rng.gen_range(0..15) {
        0..=4 => Formula::And(parts(rng, scope)),
        5..=6 => Formula::Or(parts(rng, scope)),
        7 => Formula::not(draw(rng, depth - 1, scope, names)),
        14 => Formula::not(Formula::not(draw(rng, depth - 1, scope, names))),
        8 if !scope.is_empty() => {
            // Shadow a variable in scope: the planner must keep treating
            // the outer occurrence correctly.
            let v = scope[rng.gen_range(0..scope.len())].clone();
            Formula::exists_name(v, draw(rng, depth - 1, scope, names))
        }
        9..=12 => quantified(rng, depth, scope, names),
        13 => Formula::not(quantified(rng, depth, scope, names)),
        _ => random_atom(rng, scope, names),
    }
}

/// `existsname` or `forallname` over a fresh variable, with a body of depth
/// `depth - 1` in which the variable is in scope.
fn quantified(rng: &mut StdRng, depth: usize, scope: &mut Vec<String>, names: &[String]) -> Formula {
    let v = format!("q{}", scope.len());
    scope.push(v.clone());
    let body = draw(rng, depth - 1, scope, names);
    scope.pop();
    if rng.gen_bool(0.5) {
        Formula::exists_name(v, body)
    } else {
        Formula::forall_name(v, body)
    }
}

/// The rows of `formula` over `free`, in the planner's order (each free
/// variable over the names in turn, the first outermost), decided by the
/// formula with its name quantifiers grounded: `existsname v . φ` is the
/// `Or`, and `forallname v . φ` the `And`, of `φ` with `v` replaced by each
/// name of the instance. The grounding is evaluated as it is built, one
/// operand at a time, and the evaluator sees only its atoms: no name
/// quantifier, and so no candidate generator, decides a row.
///
/// The generator draws no region quantifier, so an atom is a formula with
/// no quantifier in it.
pub fn grounded_rows<C: ComplexGeometry>(ev: &CellEvaluator<C>, formula: &Formula, free: &[String]) -> Vec<Bindings> {
    let names: Vec<String> = ev.names().iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    let mut row = Bindings::new();
    assign(ev, formula, free, &names, &mut row, &mut rows);
    rows
}

fn assign<C: ComplexGeometry>(
    ev: &CellEvaluator<C>,
    formula: &Formula,
    free: &[String],
    names: &[String],
    row: &mut Bindings,
    rows: &mut Vec<Bindings>,
) {
    let Some((var, rest)) = free.split_first() else {
        if grounded_holds(ev, formula, names) {
            rows.push(row.clone());
        }
        return;
    };
    for name in names {
        row.insert(var.clone(), name.clone());
        assign(ev, &substitute(formula, var, name), rest, names, row, rows);
    }
    row.remove(var);
}

/// Does the grounding of the sentence `formula` hold?
pub fn grounded_holds<C: ComplexGeometry>(ev: &CellEvaluator<C>, formula: &Formula, names: &[String]) -> bool {
    let ground = |v: &str, body: &Formula, name: &String| grounded_holds(ev, &substitute(body, v, name), names);
    match formula {
        Formula::ExistsName(v, body) => names.iter().any(|n| ground(v, body, n)),
        Formula::ForallName(v, body) => names.iter().all(|n| ground(v, body, n)),
        Formula::Not(f) => !grounded_holds(ev, f, names),
        Formula::And(fs) => fs.iter().all(|f| grounded_holds(ev, f, names)),
        Formula::Or(fs) => fs.iter().any(|f| grounded_holds(ev, f, names)),
        Formula::Rel(..) | Formula::Connect(..) | Formula::Subset(..) | Formula::NameEq(..) => {
            ev.eval(formula).expect("a ground atom over instance names evaluates")
        }
        Formula::ExistsRegion(..) | Formula::ForallRegion(..) => {
            panic!("the grounding oracle takes no region quantifier: {formula}")
        }
    }
}

/// `formula` with every free occurrence of the name variable `var`
/// replaced by the constant `name`.
fn substitute(formula: &Formula, var: &str, name: &str) -> Formula {
    let term = |t: &NameTerm| match t {
        NameTerm::Var(v) if v == var => NameTerm::Const(name.to_string()),
        other => other.clone(),
    };
    let region = |e: &RegionExpr| match e {
        RegionExpr::Ext(t) => RegionExpr::Ext(term(t)),
        other => other.clone(),
    };
    let sub = |f: &Formula| substitute(f, var, name);
    match formula {
        Formula::Rel(r, p, q) => Formula::Rel(*r, region(p), region(q)),
        Formula::Connect(p, q) => Formula::Connect(region(p), region(q)),
        Formula::Subset(p, q) => Formula::Subset(region(p), region(q)),
        Formula::NameEq(a, b) => Formula::NameEq(term(a), term(b)),
        Formula::Not(f) => Formula::not(sub(f)),
        Formula::And(fs) => Formula::And(fs.iter().map(sub).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(sub).collect()),
        // A name quantifier over `var` shadows it.
        Formula::ExistsName(v, _) | Formula::ForallName(v, _) if v == var => formula.clone(),
        Formula::ExistsName(v, f) => Formula::exists_name(v.clone(), sub(f)),
        Formula::ForallName(v, f) => Formula::forall_name(v.clone(), sub(f)),
        Formula::ExistsRegion(v, f) => Formula::exists_region(v.clone(), sub(f)),
        Formula::ForallRegion(v, f) => Formula::forall_region(v.clone(), sub(f)),
    }
}
