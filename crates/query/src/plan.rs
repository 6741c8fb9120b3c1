//! Compile-time query plans: candidate generators for name variables, free
//! and quantified, and semi-join conjunct scheduling.
//!
//! A formula with `k` free name variables is a set-returning query; the
//! textbook evaluation enumerates the full cartesian product `names(I)^k`
//! and tests the formula on every assignment — `O(n^k)` full evaluations —
//! and ranges every `existsname`/`forallname` over all `n` names.
//! [`QueryPlan`] extracts, *once per query*, everything the evaluator needs
//! to do better (the relational-engine semi-join strategy, grounded
//! spatially):
//!
//! * **Conjunct split.** The formula's top-level conjunction is flattened
//!   into conjuncts, each annotated with the free variables it mentions.
//!   During enumeration a conjunct is checked as soon as its last variable
//!   is bound (a *semi-join filter*), so an assignment prefix that already
//!   fails some conjunct is pruned before the remaining variables multiply
//!   it by `n` each. A sentence is the plan with no free variable: its
//!   conjuncts all run up front.
//! * **Candidate generators.** A literal that every satisfying value must
//!   make true restricts where a variable can range: `x = C` pins it to one
//!   name ([`Generator::ExactConst`]); a closure-contact-implying atom
//!   (every [`relations::Relation4`] except `disjoint` — see
//!   [`relations::Relation4::implies_closure_contact`] — plus `connect`,
//!   `subset` and a negated `disjoint`) against a bound term means the
//!   variable's region must touch the bound region's closure, so its
//!   bounding box must intersect that region's box and the variable ranges
//!   only over the spatial index's bbox neighbors
//!   ([`Generator::NeighborsOfConst`] / [`Generator::NeighborsOfVar`])
//!   instead of all `n` names. The literals are those of the formula's
//!   top-level conjunction in negation normal form: `not (a or b)` yields
//!   `not a` and `not b`, `not not a` yields `a`.
//! * **Quantified variables, by polarity.** A name quantifier is decided by
//!   one value — `existsname x . φ` by a witness, which satisfies `φ`, and
//!   `forallname x . φ` by a counterexample, which satisfies `not φ`. So an
//!   existential variable takes its generators from `φ`'s literals and a
//!   universal one from the literals of `not φ`: a counterexample to
//!   `not inside(ext(a), A)` satisfies `inside(ext(a), A)`, so `a` ranges
//!   over `A`'s bbox neighbors. The parts of the body's top-level
//!   conjunction (or disjunction) that do not mention the variable are run
//!   once, before the values are tried (see `Formula::split_on`).
//!
//! The plan is pure query-side analysis — it holds no instance data, is
//! built by [`PreparedQuery`](crate::PreparedQuery) at compile time (or per
//! call for a raw [`Formula`]), and is reused across snapshots of any
//! epoch. The data-dependent half (ordering the free variables by estimated
//! candidate-set size, resolving generators against a spatial index and
//! running the enumeration) lives in
//! [`CellEvaluator`](crate::cell_eval::CellEvaluator); see the crate docs'
//! "Planning model" section for the contract between the two.

use crate::ast::{Formula, NameTerm, RegionExpr};
use relations::Relation4;

/// How a name variable's candidate set can be narrowed, extracted from one
/// literal that its satisfying (or, under `forallname`, its refuting)
/// values make true. Other variables are named: the value an evaluation has
/// bound to that name when the candidates are drawn.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Generator {
    /// The variable must equal this name constant (`x = C`).
    ExactConst(String),
    /// The variable must equal another variable (`x = y`): once that one is
    /// bound, the variable has exactly one candidate.
    ExactVar(String),
    /// The variable's region must share closure contact with the named
    /// region, so it ranges over the spatial index's bbox neighbors of that
    /// name.
    NeighborsOfConst(String),
    /// As [`Generator::NeighborsOfConst`], against another variable's
    /// region; usable once that variable is bound.
    NeighborsOfVar(String),
}

/// One top-level conjunct of the planned formula, with the free variables
/// (as indices into [`QueryPlan::vars`]) it mentions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Conjunct {
    /// The conjunct as the evaluator runs it.
    pub(crate) step: Step,
    /// Indices into [`QueryPlan::vars`] of the free variables occurring in
    /// the conjunct, ascending. A conjunct may also mention variables
    /// *outside* the plan (a misuse the evaluator surfaces as an
    /// `UnboundVariable` error, exactly like the naive path).
    pub vars: Vec<usize>,
}

/// The compile-time plan of a query: its top-level conjuncts, compiled with
/// the plan of every quantifier in them, and the candidate generators of
/// every free variable. See the module docs.
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
    /// `formula.free_name_vars()`, empty for a sentence; extra variables are
    /// allowed and simply have no generators).
    pub fn build(formula: &Formula, free: &[String]) -> QueryPlan {
        let vars: Vec<String> = free.to_vec();
        let mut flat: Vec<&Formula> = Vec::new();
        flatten_conjunction(formula, &mut flat);
        let conjuncts: Vec<Conjunct> = flat
            .into_iter()
            .map(|f| {
                let mut ids: Vec<usize> = f
                    .free_name_vars()
                    .iter()
                    .filter_map(|v| vars.iter().position(|w| w == v))
                    .collect();
                ids.sort_unstable();
                Conjunct { step: Step::compile(f), vars: ids }
            })
            .collect();
        let mut holds = Vec::new();
        literals(formula, true, &mut holds);
        let generators = vars.iter().map(|v| generators_of(v, &holds)).collect();
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

/// A formula as the evaluator runs it: the formula's own tree, with every
/// quantifier replaced by its [`Quantifier`] plan.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Step {
    /// A relation atom.
    Rel(Relation4, RegionExpr, RegionExpr),
    /// `connect(p, q)`.
    Connect(RegionExpr, RegionExpr),
    /// `subset(p, q)`.
    Subset(RegionExpr, RegionExpr),
    /// Equality of two name terms.
    NameEq(NameTerm, NameTerm),
    /// Negation.
    Not(Box<Step>),
    /// A conjunction of the parts, or a disjunction if `or`.
    Junction { or: bool, parts: Vec<Step> },
    /// A quantifier.
    Quantifier(Box<Quantifier>),
}

impl Step {
    /// Compile a formula, planning each of its quantifiers.
    pub(crate) fn compile(formula: &Formula) -> Step {
        match formula {
            Formula::Rel(r, p, q) => Step::Rel(*r, p.clone(), q.clone()),
            Formula::Connect(p, q) => Step::Connect(p.clone(), q.clone()),
            Formula::Subset(p, q) => Step::Subset(p.clone(), q.clone()),
            Formula::NameEq(a, b) => Step::NameEq(a.clone(), b.clone()),
            Formula::Not(f) => Step::Not(Box::new(Step::compile(f))),
            Formula::And(fs) | Formula::Or(fs) => Step::Junction {
                or: matches!(formula, Formula::Or(_)),
                parts: fs.iter().map(Step::compile).collect(),
            },
            Formula::ExistsRegion(v, f) => Quantifier::plan(v, f, true, false),
            Formula::ForallRegion(v, f) => Quantifier::plan(v, f, false, false),
            Formula::ExistsName(v, f) => Quantifier::plan(v, f, true, true),
            Formula::ForallName(v, f) => Quantifier::plan(v, f, false, true),
        }
    }
}

/// The plan of one quantifier: `∃`/`∀ var . body`, with the body's
/// top-level junction split by [`Formula::split_on`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Quantifier {
    /// The quantified variable.
    pub(crate) var: String,
    /// `∃` (decided by a witness) or `∀` (decided by a counterexample).
    pub(crate) existential: bool,
    /// Does it range over names (else over the region domain)?
    pub(crate) names: bool,
    /// Is the body's top-level junction a disjunction?
    pub(crate) or: bool,
    /// The junction's parts that do not mention the variable, run once
    /// before any value is tried.
    pub(crate) outer: Vec<Step>,
    /// The parts that do, run for each value tried.
    pub(crate) inner: Vec<Step>,
    /// For a name quantifier, the generators of its deciding values: every
    /// witness (or counterexample) is among their candidates. Empty means
    /// every name.
    pub(crate) generators: Vec<Generator>,
}

impl Quantifier {
    /// The step of `∃ var . body` (or `∀`), over names or over regions.
    fn plan(var: &str, body: &Formula, existential: bool, names: bool) -> Step {
        let split = body.split_on(var, names);
        let mut generators = Vec::new();
        if names {
            // The deciding values make the inner parts' junction true (a
            // witness) or false (a counterexample): its literals are those
            // of each part when the junction is a conjunction in that
            // polarity, `and` for a witness and `or` for a counterexample.
            let mut decisive = Vec::new();
            if split.inner.len() == 1 || split.or != existential {
                for part in &split.inner {
                    literals(part, existential, &mut decisive);
                }
            }
            generators = generators_of(var, &decisive);
        }
        let compile = |parts: &[&Formula]| parts.iter().map(|f| Step::compile(f)).collect();
        Step::Quantifier(Box::new(Quantifier {
            var: var.to_string(),
            existential,
            names,
            or: split.or,
            outer: compile(&split.outer),
            inner: compile(&split.inner),
            generators,
        }))
    }
}

/// Flatten nested top-level `And`s into a conjunct list (any other formula
/// is a single conjunct; an empty `And` contributes nothing — it is `true`).
fn flatten_conjunction<'f>(formula: &'f Formula, out: &mut Vec<&'f Formula>) {
    match formula {
        Formula::And(fs) => fs.iter().for_each(|f| flatten_conjunction(f, out)),
        other => out.push(other),
    }
}

/// The literals of `formula`'s top-level conjunction in negation normal
/// form, each with its polarity: those of `formula` if `positive`, else
/// those of `not formula`. Negations flip the polarity, a positive `And` or
/// a negated `Or` is a conjunction of its operands, and any other formula
/// (a positive `Or`, a negated `And`, a quantifier) yields no literal.
fn literals<'f>(formula: &'f Formula, positive: bool, out: &mut Vec<(&'f Formula, bool)>) {
    match formula {
        Formula::Not(f) => literals(f, !positive, out),
        Formula::And(fs) if positive => fs.iter().for_each(|f| literals(f, positive, out)),
        Formula::Or(fs) if !positive => fs.iter().for_each(|f| literals(f, positive, out)),
        Formula::Rel(..) | Formula::Connect(..) | Formula::Subset(..) | Formula::NameEq(..) => {
            out.push((formula, positive))
        }
        _ => {}
    }
}

/// The candidate generators of variable `var` from literals its values must
/// make true.
///
/// Soundness: a generator may only *over*-approximate those values. `x = t`
/// pins the value exactly. A true closure-contact-implying atom between two
/// region extents means the closures share a point; each closure lies inside
/// its region's bounding box, so the boxes intersect and the bbox-neighbor
/// set (a superset of the box-intersecting names) covers every such value.
/// `disjoint` atoms and every other negated atom generate nothing.
fn generators_of(var: &str, literals: &[(&Formula, bool)]) -> Vec<Generator> {
    let mut out = Vec::new();
    for &(atom, positive) in literals {
        match atom {
            Formula::Rel(r, p, q) if positive == r.implies_closure_contact() => contact(var, p, q, &mut out),
            // `subset(p, q)` with p a (nonempty) region extent implies the
            // closures intersect, so it generates like a contact atom.
            Formula::Connect(p, q) | Formula::Subset(p, q) if positive => contact(var, p, q, &mut out),
            Formula::NameEq(a, b) if positive => {
                if let Some(other) = other_side(var, a, b) {
                    out.push(match other {
                        NameTerm::Const(c) => Generator::ExactConst(c.clone()),
                        NameTerm::Var(y) => Generator::ExactVar(y.clone()),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Record the generator of a contact literal between two region
/// expressions, if it relates `var`'s extent to another name term's.
fn contact(var: &str, p: &RegionExpr, q: &RegionExpr, out: &mut Vec<Generator>) {
    let (RegionExpr::Ext(a), RegionExpr::Ext(b)) = (p, q) else { return };
    if let Some(other) = other_side(var, a, b) {
        out.push(match other {
            NameTerm::Const(c) => Generator::NeighborsOfConst(c.clone()),
            NameTerm::Var(y) => Generator::NeighborsOfVar(y.clone()),
        });
    }
}

/// The term `var` is related to by an atom over `a` and `b`: the other side
/// when exactly one side is `var`.
fn other_side<'t>(var: &str, a: &'t NameTerm, b: &'t NameTerm) -> Option<&'t NameTerm> {
    let is_var = |t: &NameTerm| matches!(t, NameTerm::Var(v) if v == var);
    match (is_var(a), is_var(b)) {
        (true, false) => Some(b),
        (false, true) => Some(a),
        _ => None,
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
                Generator::NeighborsOfVar("y".into())
            ]
        );
        assert_eq!(plan.generators(1), &[Generator::NeighborsOfVar("x".into())]);
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
            &[Generator::ExactConst("A".into()), Generator::ExactVar("y".into())]
        );
        assert_eq!(plan.generators(1), &[Generator::ExactVar("x".into())]);
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

    /// The plan of the quantifier `f`.
    fn quantifier(f: &Formula) -> Quantifier {
        match Step::compile(f) {
            Step::Quantifier(q) => *q,
            other => panic!("{f} compiled to {other:?}"),
        }
    }

    fn a_in(name: &str) -> Formula {
        F::rel(Inside, xv("a"), R::named(name))
    }

    #[test]
    fn a_universal_variable_generates_from_the_negated_body() {
        // A counterexample to `not inside(a, A)` is inside A.
        let q = quantifier(&F::forall_name("a", F::not(a_in("A"))));
        assert_eq!(q.generators, [Generator::NeighborsOfConst("A".into())]);
        // An implication's premise is a conjunct of its negation.
        let q = quantifier(&F::forall_name("a", F::implies(a_in("A"), F::rel(Meet, xv("a"), R::named("B")))));
        assert_eq!(q.generators, [Generator::NeighborsOfConst("A".into())]);
        // A positive atom under `forallname` constrains no counterexample.
        assert_eq!(quantifier(&F::forall_name("a", a_in("A"))).generators, []);
        // Nor does a conjunction of two parts, whose negation is an `or`.
        let both = F::and(vec![F::not(a_in("A")), F::not(a_in("B"))]);
        assert_eq!(quantifier(&F::forall_name("a", both)).generators, []);
    }

    #[test]
    fn negations_flip_the_polarity_one_by_one() {
        let nots = |n: usize| (0..n).fold(a_in("A"), |f, _| F::not(f));
        for n in 0..5 {
            // `∀a. ¬ⁿ inside` is refuted where `¬ⁿ⁺¹ inside` holds, and
            // `∃a. ¬ⁿ inside` witnessed where `¬ⁿ inside` does.
            let universal = quantifier(&F::forall_name("a", nots(n))).generators;
            let existential = quantifier(&F::exists_name("a", nots(n))).generators;
            let inside = vec![Generator::NeighborsOfConst("A".into())];
            assert_eq!(universal, if n % 2 == 1 { inside.clone() } else { vec![] }, "forall, {n} nots");
            assert_eq!(existential, if n % 2 == 0 { inside } else { vec![] }, "exists, {n} nots");
        }
    }

    #[test]
    fn an_existential_variable_generates_from_its_conjuncts() {
        let body = F::and(vec![
            a_in("A"),
            F::not(F::or(vec![F::rel(Disjoint, xv("a"), xv("x")), F::rel(Overlap, xv("a"), R::named("B"))])),
            F::NameEq(N::Var("a".into()), N::Var("y".into())),
            F::rel(Disjoint, xv("a"), R::named("C")),
        ]);
        let q = quantifier(&F::exists_name("a", body));
        assert_eq!(
            q.generators,
            [
                Generator::NeighborsOfConst("A".into()),
                Generator::NeighborsOfVar("x".into()),
                Generator::ExactVar("y".into()),
            ],
            "a negated disjoint is a contact; a positive disjoint and a negated overlap are not"
        );
        // A disjunction of two parts witnesses nothing in particular.
        let either = F::or(vec![a_in("A"), a_in("B")]);
        assert_eq!(quantifier(&F::exists_name("a", either)).generators, []);
    }

    #[test]
    fn parts_without_the_variable_run_outside_the_loop() {
        let body = F::and(vec![
            F::rel(Overlap, R::named("A"), R::named("B")),
            F::and(vec![a_in("A"), F::exists_name("a", a_in("B"))]),
        ]);
        let q = quantifier(&F::exists_name("a", body));
        assert!(!q.or);
        assert_eq!(q.outer, [Step::compile(&F::rel(Overlap, R::named("A"), R::named("B"))), Step::compile(&F::exists_name("a", a_in("B")))]);
        assert_eq!(q.inner, [Step::compile(&a_in("A"))]);
        // A region quantifier splits alike and generates nothing.
        let q = quantifier(&F::forall_region("r", F::or(vec![a_in("A"), F::subset(R::var("r"), R::named("A"))])));
        assert!(q.or && !q.names);
        assert_eq!((q.outer.len(), q.inner.len(), q.generators.len()), (1, 1, 0));
    }
}
