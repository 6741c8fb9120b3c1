//! Compile-time query plans for set-returning (open) queries: candidate
//! generators and semi-join conjunct scheduling.
//!
//! A formula with `k` free name variables is a set-returning query; the
//! textbook evaluation enumerates the full cartesian product `names(I)^k`
//! and tests the formula on every assignment — `O(n^k)` full evaluations.
//! [`QueryPlan`] extracts, *once per query*, everything the evaluator needs
//! to do better (the relational-engine semi-join strategy, grounded
//! spatially):
//!
//! * **Conjunct split.** The formula's top-level conjunction is flattened
//!   into conjuncts, each annotated with the free variables it mentions.
//!   During enumeration a conjunct is checked as soon as its last variable
//!   is bound (a *semi-join filter*), so an assignment prefix that already
//!   fails some conjunct is pruned before the remaining variables multiply
//!   it by `n` each.
//! * **Candidate generators.** A positive top-level atom that relates a free
//!   variable to another term restricts where the variable can range:
//!   `x = C` pins it to one name ([`Generator::ExactConst`]); a
//!   closure-contact-implying atom (every [`relations::Relation4`] except
//!   `disjoint` — see [`relations::Relation4::implies_closure_contact`] — plus `connect` and
//!   `subset`) against a bound term means the variable's region must touch
//!   the bound region's closure, so its bounding box must intersect that
//!   region's box and the variable ranges only over the spatial index's bbox
//!   neighbors ([`Generator::NeighborsOfConst`] /
//!   [`Generator::NeighborsOfVar`]) instead of all `n` names.
//!
//! The plan is pure query-side analysis — it holds no instance data, is
//! built by [`PreparedQuery`](crate::PreparedQuery) at compile time, and is
//! reused across snapshots of any epoch. The data-dependent half (ordering
//! the variables by estimated candidate-set size and running the actual
//! enumeration against a spatial index) lives in
//! [`CellEvaluator`](crate::cell_eval::CellEvaluator); see the crate docs'
//! "Planning model" section for the contract between the two.

use crate::ast::{Formula, NameTerm, RegionExpr};

/// How a free variable's candidate set can be narrowed, extracted from one
/// positive top-level atom. Variables are identified by their index in
/// [`QueryPlan::vars`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Generator {
    /// The variable must equal this name constant (`x = C`).
    ExactConst(String),
    /// The variable must equal another free variable (`x = y`): once either
    /// is bound the other has exactly one candidate.
    ExactVar(usize),
    /// The variable's region must share closure contact with the named
    /// region, so it ranges over the spatial index's bbox neighbors of that
    /// name.
    NeighborsOfConst(String),
    /// As [`Generator::NeighborsOfConst`], against another free variable's
    /// region; usable once that variable is bound.
    NeighborsOfVar(usize),
}

/// One top-level conjunct of the planned formula, with the free variables
/// (as indices into [`QueryPlan::vars`]) it mentions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Conjunct {
    /// The conjunct formula itself (evaluated unchanged as a filter).
    pub formula: Formula,
    /// Indices into [`QueryPlan::vars`] of the free variables occurring in
    /// the conjunct, ascending. A conjunct may also mention variables
    /// *outside* the plan (a misuse the evaluator surfaces as an
    /// `UnboundVariable` error, exactly like the naive path).
    pub vars: Vec<usize>,
}

/// The compile-time plan of a set-returning query: its top-level conjuncts
/// and the candidate generators of every free variable. See the module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryPlan {
    /// The free variables, in output (first-occurrence) order.
    vars: Vec<String>,
    /// The flattened top-level conjuncts.
    conjuncts: Vec<Conjunct>,
    /// Candidate generators per variable, aligned with `vars`.
    generators: Vec<Vec<Generator>>,
}

impl QueryPlan {
    /// Analyze a formula against its free-variable list (normally
    /// `formula.free_name_vars()`; extra variables are allowed and simply
    /// have no generators).
    pub fn build(formula: &Formula, free: &[String]) -> QueryPlan {
        let vars: Vec<String> = free.to_vec();
        let mut flat: Vec<Formula> = Vec::new();
        flatten_conjunction(formula, &mut flat);

        let var_id = |name: &str| vars.iter().position(|v| v == name);
        let conjuncts: Vec<Conjunct> = flat
            .into_iter()
            .map(|f| {
                let mut ids: Vec<usize> =
                    f.free_name_vars().iter().filter_map(|v| var_id(v)).collect();
                ids.sort_unstable();
                Conjunct { formula: f, vars: ids }
            })
            .collect();

        let mut generators: Vec<Vec<Generator>> = vec![Vec::new(); vars.len()];
        for conjunct in &conjuncts {
            extract_generators(&conjunct.formula, &var_id, &mut generators);
        }
        QueryPlan { vars, conjuncts, generators }
    }

    /// The free variables, in output (first-occurrence) order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The flattened top-level conjuncts.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// The candidate generators of variable `i` (index into
    /// [`QueryPlan::vars`]).
    pub fn generators(&self, i: usize) -> &[Generator] {
        &self.generators[i]
    }
}

/// Flatten nested top-level `And`s into a conjunct list (any other formula
/// is a single conjunct; an empty `And` contributes nothing — it is `true`).
fn flatten_conjunction(formula: &Formula, out: &mut Vec<Formula>) {
    match formula {
        Formula::And(fs) => {
            for f in fs {
                flatten_conjunction(f, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Extract candidate generators from one positive top-level conjunct.
///
/// Soundness: a generator may only *over*-approximate the satisfying values
/// of a variable. `x = t` pins the value exactly. A satisfied
/// closure-contact-implying atom between two region extents means the
/// closures share a point; each closure lies inside its region's bounding
/// box, so the boxes intersect and the bbox-neighbor set (a superset of the
/// box-intersecting names) covers every satisfying value. `disjoint` atoms,
/// negations, disjunctions and quantified subformulas generate nothing.
fn extract_generators(
    formula: &Formula,
    var_id: &dyn Fn(&str) -> Option<usize>,
    out: &mut [Vec<Generator>],
) {
    let term_of = |e: &RegionExpr| -> Option<NameTerm> {
        match e {
            RegionExpr::Ext(t) => Some(t.clone()),
            RegionExpr::Var(_) => None,
        }
    };
    let mut contact = |p: &RegionExpr, q: &RegionExpr| {
        let (Some(a), Some(b)) = (term_of(p), term_of(q)) else { return };
        contact_pair(&a, &b, var_id, out);
    };
    match formula {
        Formula::Rel(r, p, q) if r.implies_closure_contact() => contact(p, q),
        Formula::Connect(p, q) => contact(p, q),
        // `subset(p, q)` with p a (nonempty) region extent implies the
        // closures intersect, so it generates like a contact atom.
        Formula::Subset(p, q) => contact(p, q),
        Formula::NameEq(a, b) => {
            match (a, b) {
                (NameTerm::Var(x), NameTerm::Const(c)) => {
                    if let Some(i) = var_id(x) {
                        out[i].push(Generator::ExactConst(c.clone()));
                    }
                }
                (NameTerm::Const(c), NameTerm::Var(x)) => {
                    if let Some(i) = var_id(x) {
                        out[i].push(Generator::ExactConst(c.clone()));
                    }
                }
                (NameTerm::Var(x), NameTerm::Var(y)) => {
                    if let (Some(i), Some(j)) = (var_id(x), var_id(y)) {
                        if i != j {
                            out[i].push(Generator::ExactVar(j));
                            out[j].push(Generator::ExactVar(i));
                        }
                    }
                }
                (NameTerm::Const(_), NameTerm::Const(_)) => {}
            }
        }
        // Everything else — `disjoint` atoms, negations, disjunctions,
        // quantified subformulas — constrains nothing a priori.
        _ => {}
    }
}

/// Record the generators of a satisfied contact atom between two name terms.
fn contact_pair(
    a: &NameTerm,
    b: &NameTerm,
    var_id: &dyn Fn(&str) -> Option<usize>,
    out: &mut [Vec<Generator>],
) {
    match (a, b) {
        (NameTerm::Var(x), NameTerm::Const(c)) => {
            if let Some(i) = var_id(x) {
                out[i].push(Generator::NeighborsOfConst(c.clone()));
            }
        }
        (NameTerm::Const(c), NameTerm::Var(x)) => {
            if let Some(i) = var_id(x) {
                out[i].push(Generator::NeighborsOfConst(c.clone()));
            }
        }
        (NameTerm::Var(x), NameTerm::Var(y)) => {
            if let (Some(i), Some(j)) = (var_id(x), var_id(y)) {
                if i != j {
                    out[i].push(Generator::NeighborsOfVar(j));
                    out[j].push(Generator::NeighborsOfVar(i));
                }
            }
        }
        (NameTerm::Const(_), NameTerm::Const(_)) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Formula as F, NameTerm as N, RegionExpr as R};
    use relations::Relation4::*;

    fn xv(v: &str) -> R {
        R::Ext(N::Var(v.into()))
    }

    #[test]
    fn conjunction_is_flattened_and_vars_assigned() {
        // (overlap(x, A) and (meet(x, y) and connect(y, B))) — nested And.
        let f = F::and(vec![
            F::rel(Overlap, xv("x"), R::named("A")),
            F::and(vec![
                F::rel(Meet, xv("x"), xv("y")),
                F::connect(xv("y"), R::named("B")),
            ]),
        ]);
        let plan = QueryPlan::build(&f, &["x".into(), "y".into()]);
        assert_eq!(plan.conjuncts().len(), 3);
        assert_eq!(plan.conjuncts()[0].vars, vec![0]);
        assert_eq!(plan.conjuncts()[1].vars, vec![0, 1]);
        assert_eq!(plan.conjuncts()[2].vars, vec![1]);
    }

    #[test]
    fn contact_atoms_generate_neighbor_candidates() {
        let f = F::and(vec![
            F::rel(Overlap, xv("x"), R::named("A")),
            F::rel(Meet, xv("x"), xv("y")),
        ]);
        let plan = QueryPlan::build(&f, &["x".into(), "y".into()]);
        assert_eq!(
            plan.generators(0),
            &[
                Generator::NeighborsOfConst("A".into()),
                Generator::NeighborsOfVar(1)
            ]
        );
        assert_eq!(plan.generators(1), &[Generator::NeighborsOfVar(0)]);
    }

    #[test]
    fn disjoint_negation_and_quantified_atoms_generate_nothing() {
        let f = F::and(vec![
            F::rel(Disjoint, xv("x"), R::named("A")),
            F::not(F::rel(Overlap, xv("x"), R::named("A"))),
            F::or(vec![F::rel(Overlap, xv("x"), R::named("A"))]),
            F::exists_name("z", F::rel(Overlap, xv("z"), xv("x"))),
        ]);
        let plan = QueryPlan::build(&f, &["x".into()]);
        assert_eq!(plan.generators(0), &[] as &[Generator]);
    }

    #[test]
    fn name_equality_pins_candidates() {
        let f = F::and(vec![
            F::NameEq(N::Var("x".into()), N::Const("A".into())),
            F::NameEq(N::Var("x".into()), N::Var("y".into())),
        ]);
        let plan = QueryPlan::build(&f, &["x".into(), "y".into()]);
        assert_eq!(
            plan.generators(0),
            &[Generator::ExactConst("A".into()), Generator::ExactVar(1)]
        );
        assert_eq!(plan.generators(1), &[Generator::ExactVar(0)]);
    }

    #[test]
    fn subset_generates_contact_and_region_vars_do_not() {
        // subset with a *region variable* operand generates nothing; with two
        // extents it generates on both sides.
        let f = F::and(vec![
            F::subset(R::var("r"), xv("x")),
            F::subset(xv("x"), R::named("A")),
        ]);
        let plan = QueryPlan::build(&f, &["x".into()]);
        assert_eq!(plan.generators(0), &[Generator::NeighborsOfConst("A".into())]);
    }

    #[test]
    fn shadowed_variables_are_not_conjunct_vars() {
        // The conjunct's `existsname x` binds x locally: the free x of the
        // plan does not occur in it.
        let f = F::and(vec![
            F::exists_name("x", F::rel(Overlap, xv("x"), R::named("A"))),
            F::rel(Overlap, xv("x"), R::named("B")),
        ]);
        let plan = QueryPlan::build(&f, &["x".into()]);
        assert_eq!(plan.conjuncts()[0].vars, &[] as &[usize]);
        assert_eq!(plan.conjuncts()[1].vars, vec![0]);
    }
}
