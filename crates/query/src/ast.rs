//! Abstract syntax of the region-based query languages
//! `FO(Region, Region')` (Section 4 of the paper).
//!
//! The languages share one syntax and differ only in the class of regions the
//! region quantifiers range over (`Rect`, `Rect*`, `Poly`, `Alg`, `Disc`) and
//! the class the input regions are drawn from. Name variables range over the
//! finite set `names(I)`; region variables range over the (generally
//! infinite) chosen region class.

use relations::Relation4;
use spatial_core::region::RegionClass;
use std::fmt;

/// A name term: a variable ranging over `names(I)` or a name constant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NameTerm {
    /// A name variable (written in lowercase, e.g. `a`).
    Var(String),
    /// A name constant (written capitalized, e.g. `A`).
    Const(String),
}

/// A region expression: a region variable or the extent `ext(a)` of a named
/// region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegionExpr {
    /// A region variable bound by a region quantifier.
    Var(String),
    /// The extent of a named region (the paper's `ext(a)`; following the
    /// paper we usually write just the name).
    Ext(NameTerm),
}

impl RegionExpr {
    /// Convenience: the extent of a name constant.
    pub fn named<S: Into<String>>(name: S) -> RegionExpr {
        RegionExpr::Ext(NameTerm::Const(name.into()))
    }

    /// Convenience: a region variable.
    pub fn var<S: Into<String>>(name: S) -> RegionExpr {
        RegionExpr::Var(name.into())
    }
}

/// Atomic and composite formulas of the region-based language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// One of the eight 4-intersection relationships between two regions.
    Rel(Relation4, RegionExpr, RegionExpr),
    /// `connect(p, q)`: the closures intersect (the negation of `disjoint`);
    /// the paper notes this single primitive suffices (Section 4).
    Connect(RegionExpr, RegionExpr),
    /// `subset(p, q)`: `p ⊆ q`. Definable from `connect` (Section 4) but kept
    /// as an atom for convenience; [`Formula::desugar`] eliminates it.
    Subset(RegionExpr, RegionExpr),
    /// Equality of two name terms.
    NameEq(NameTerm, NameTerm),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = true).
    And(Vec<Formula>),
    /// Disjunction (empty = false).
    Or(Vec<Formula>),
    /// Existential quantification of a region variable.
    ExistsRegion(String, Box<Formula>),
    /// Universal quantification of a region variable.
    ForallRegion(String, Box<Formula>),
    /// Existential quantification of a name variable over `names(I)`.
    ExistsName(String, Box<Formula>),
    /// Universal quantification of a name variable over `names(I)`.
    ForallName(String, Box<Formula>),
}

impl Formula {
    /// Negation. (A by-value constructor, intentionally not the `Not`
    /// operator trait.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(fs: Vec<Formula>) -> Formula {
        Formula::And(fs)
    }

    /// Disjunction.
    pub fn or(fs: Vec<Formula>) -> Formula {
        Formula::Or(fs)
    }

    /// Implication, as `¬a ∨ b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Or(vec![Formula::not(a), b])
    }

    /// `∃ r . f`.
    pub fn exists_region<S: Into<String>>(var: S, f: Formula) -> Formula {
        Formula::ExistsRegion(var.into(), Box::new(f))
    }

    /// `∀ r . f`.
    pub fn forall_region<S: Into<String>>(var: S, f: Formula) -> Formula {
        Formula::ForallRegion(var.into(), Box::new(f))
    }

    /// `∃ a . f` (name variable).
    pub fn exists_name<S: Into<String>>(var: S, f: Formula) -> Formula {
        Formula::ExistsName(var.into(), Box::new(f))
    }

    /// `∀ a . f` (name variable).
    pub fn forall_name<S: Into<String>>(var: S, f: Formula) -> Formula {
        Formula::ForallName(var.into(), Box::new(f))
    }

    /// A relation atom.
    pub fn rel(r: Relation4, p: RegionExpr, q: RegionExpr) -> Formula {
        Formula::Rel(r, p, q)
    }

    /// `connect(p, q)`.
    pub fn connect(p: RegionExpr, q: RegionExpr) -> Formula {
        Formula::Connect(p, q)
    }

    /// `subset(p, q)`.
    pub fn subset(p: RegionExpr, q: RegionExpr) -> Formula {
        Formula::Subset(p, q)
    }

    /// Number of region quantifiers in the formula (a size measure used by
    /// the query-complexity benchmarks).
    pub fn region_quantifier_count(&self) -> usize {
        match self {
            Formula::Rel(..) | Formula::Connect(..) | Formula::Subset(..) | Formula::NameEq(..) => 0,
            Formula::Not(f) => f.region_quantifier_count(),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().map(|f| f.region_quantifier_count()).sum()
            }
            Formula::ExistsRegion(_, f) | Formula::ForallRegion(_, f) => {
                1 + f.region_quantifier_count()
            }
            Formula::ExistsName(_, f) | Formula::ForallName(_, f) => f.region_quantifier_count(),
        }
    }

    /// Total number of AST nodes (a size measure).
    pub fn size(&self) -> usize {
        match self {
            Formula::Rel(..) | Formula::Connect(..) | Formula::Subset(..) | Formula::NameEq(..) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(|f| f.size()).sum::<usize>(),
            Formula::ExistsRegion(_, f)
            | Formula::ForallRegion(_, f)
            | Formula::ExistsName(_, f)
            | Formula::ForallName(_, f) => 1 + f.size(),
        }
    }

    /// The free *name* variables of the formula, in first-occurrence order.
    ///
    /// A name variable is free when it occurs in a name term (either side of
    /// `=`, or inside `ext(…)`) without an enclosing `existsname`/`forallname`
    /// binder. Free name variables are what turns a formula into a
    /// *set-returning* query: evaluators enumerate the satisfying assignments
    /// of these variables over `names(I)` (see `cell_eval` and the
    /// [`crate::prepared`] module).
    pub fn free_name_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut bound = Vec::new();
        self.collect_free_name_vars(&mut bound, &mut out);
        out
    }

    fn collect_free_name_vars(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        let visit_term = |t: &NameTerm, bound: &[String], out: &mut Vec<String>| {
            if let NameTerm::Var(v) = t {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
        };
        let visit_region = |e: &RegionExpr, bound: &[String], out: &mut Vec<String>| {
            if let RegionExpr::Ext(t) = e {
                visit_term(t, bound, out);
            }
        };
        match self {
            Formula::Rel(_, p, q) | Formula::Connect(p, q) | Formula::Subset(p, q) => {
                visit_region(p, bound, out);
                visit_region(q, bound, out);
            }
            Formula::NameEq(a, b) => {
                visit_term(a, bound, out);
                visit_term(b, bound, out);
            }
            Formula::Not(f) => f.collect_free_name_vars(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free_name_vars(bound, out);
                }
            }
            Formula::ExistsRegion(_, f) | Formula::ForallRegion(_, f) => {
                f.collect_free_name_vars(bound, out)
            }
            Formula::ExistsName(v, f) | Formula::ForallName(v, f) => {
                bound.push(v.clone());
                f.collect_free_name_vars(bound, out);
                bound.pop();
            }
        }
    }

    /// The free *region* variables of the formula, in first-occurrence order.
    ///
    /// A closed (evaluable) formula has none: region variables must be bound
    /// by `exists`/`forall`. [`crate::prepared::PreparedQuery`] rejects
    /// formulas with free region variables at compile time.
    pub fn free_region_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut bound = Vec::new();
        self.collect_free_region_vars(&mut bound, &mut out);
        out
    }

    fn collect_free_region_vars(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        let visit = |e: &RegionExpr, bound: &[String], out: &mut Vec<String>| {
            if let RegionExpr::Var(v) = e {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
        };
        match self {
            Formula::Rel(_, p, q) | Formula::Connect(p, q) | Formula::Subset(p, q) => {
                visit(p, bound, out);
                visit(q, bound, out);
            }
            Formula::NameEq(..) => {}
            Formula::Not(f) => f.collect_free_region_vars(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free_region_vars(bound, out);
                }
            }
            Formula::ExistsRegion(v, f) | Formula::ForallRegion(v, f) => {
                bound.push(v.clone());
                f.collect_free_region_vars(bound, out);
                bound.pop();
            }
            Formula::ExistsName(_, f) | Formula::ForallName(_, f) => {
                f.collect_free_region_vars(bound, out)
            }
        }
    }

    /// Split the body of a quantifier over `var` (a name variable if
    /// `names`, else a region variable) into the parts of its top-level
    /// junction that do not mention `var` and those that do. The junction is
    /// the body's nested `And`s or its nested `Or`s, flattened; any other
    /// body is a conjunction of one part.
    pub(crate) fn split_on(&self, var: &str, names: bool) -> Split<'_> {
        fn flatten<'f>(f: &'f Formula, or: bool, out: &mut Vec<&'f Formula>) {
            match f {
                Formula::And(fs) if !or => fs.iter().for_each(|g| flatten(g, or, out)),
                Formula::Or(fs) if or => fs.iter().for_each(|g| flatten(g, or, out)),
                _ => out.push(f),
            }
        }
        let or = matches!(self, Formula::Or(_));
        let mut parts = Vec::new();
        flatten(self, or, &mut parts);
        let mentions = |f: &Formula| {
            let free = if names { f.free_name_vars() } else { f.free_region_vars() };
            free.iter().any(|v| v == var)
        };
        let (inner, outer) = parts.into_iter().partition(|f| mentions(f));
        Split { or, outer, inner }
    }

    /// Miniscoping: every quantifier keeps only the parts of its body's
    /// top-level conjunction (or disjunction) that mention its variable, and
    /// the other parts move out in front of it, joined to it by the same
    /// connective. `∃s. φ(r) ∧ ψ(r, s)` becomes `φ(r) ∧ ∃s. ψ(r, s)`, so
    /// `φ(r)` is tested once, not once per value of `s`; a quantifier whose
    /// variable no part mentions is dropped.
    ///
    /// The result is equivalent to the formula over nonempty domains only:
    /// over an empty one `∃x. (φ ∨ ψ(x))` is false and `φ ∨ ∃x. ψ(x)` is `φ`.
    pub fn miniscope(&self) -> Formula {
        match self {
            Formula::Rel(..) | Formula::Connect(..) | Formula::Subset(..) | Formula::NameEq(..) => self.clone(),
            Formula::Not(f) => Formula::not(f.miniscope()),
            Formula::And(fs) => Formula::and(fs.iter().map(Formula::miniscope).collect()),
            Formula::Or(fs) => Formula::or(fs.iter().map(Formula::miniscope).collect()),
            Formula::ExistsRegion(v, f) => miniscoped(v, f, false, |v, f| Formula::exists_region(v, f)),
            Formula::ForallRegion(v, f) => miniscoped(v, f, false, |v, f| Formula::forall_region(v, f)),
            Formula::ExistsName(v, f) => miniscoped(v, f, true, |v, f| Formula::exists_name(v, f)),
            Formula::ForallName(v, f) => miniscoped(v, f, true, |v, f| Formula::forall_name(v, f)),
        }
    }

    /// Rewrite `Subset` and the eight relation atoms into formulas that use
    /// only the primitive `connect`, following the definitions in Section 4
    /// of the paper. The resulting formula is logically equivalent over every
    /// region domain that is a basis of open sets.
    pub fn desugar(&self) -> Formula {
        match self {
            Formula::Subset(p, q) => desugar_subset(p, q),
            Formula::Rel(r, p, q) => desugar_relation(*r, p, q),
            Formula::Connect(p, q) => Formula::Connect(p.clone(), q.clone()),
            Formula::NameEq(a, b) => Formula::NameEq(a.clone(), b.clone()),
            Formula::Not(f) => Formula::not(f.desugar()),
            Formula::And(fs) => Formula::and(fs.iter().map(|f| f.desugar()).collect()),
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.desugar()).collect()),
            Formula::ExistsRegion(v, f) => Formula::exists_region(v.clone(), f.desugar()),
            Formula::ForallRegion(v, f) => Formula::forall_region(v.clone(), f.desugar()),
            Formula::ExistsName(v, f) => Formula::exists_name(v.clone(), f.desugar()),
            Formula::ForallName(v, f) => Formula::forall_name(v.clone(), f.desugar()),
        }
    }
}

/// A quantifier's body split by [`Formula::split_on`].
pub(crate) struct Split<'f> {
    /// Is the body's top-level junction a disjunction?
    pub(crate) or: bool,
    /// The parts that do not mention the quantified variable.
    pub(crate) outer: Vec<&'f Formula>,
    /// The parts that do.
    pub(crate) inner: Vec<&'f Formula>,
}

/// Join parts by a conjunction (or a disjunction if `or`); one part is
/// itself.
fn junction(mut parts: Vec<Formula>, or: bool) -> Formula {
    match parts.len() {
        1 => parts.pop().unwrap_or(Formula::And(Vec::new())),
        _ if or => Formula::Or(parts),
        _ => Formula::And(parts),
    }
}

/// The miniscoped form of the quantifier `quantify(var, body)`.
fn miniscoped(var: &str, body: &Formula, names: bool, quantify: fn(&str, Formula) -> Formula) -> Formula {
    let body = body.miniscope();
    let split = body.split_on(var, names);
    if split.outer.is_empty() {
        return quantify(var, body);
    }
    let mut parts: Vec<Formula> = split.outer.into_iter().cloned().collect();
    if !split.inner.is_empty() {
        parts.push(quantify(var, junction(split.inner.into_iter().cloned().collect(), split.or)));
    }
    junction(parts, split.or)
}

/// `p ⊆ q` as `∀ w . connect(p, w) → connect(q, w)` (Section 4).
fn desugar_subset(p: &RegionExpr, q: &RegionExpr) -> Formula {
    let w = fresh_var(p, q);
    Formula::forall_region(
        w.clone(),
        Formula::implies(
            Formula::Connect(p.clone(), RegionExpr::Var(w.clone())),
            Formula::Connect(q.clone(), RegionExpr::Var(w)),
        ),
    )
}

fn desugar_relation(r: Relation4, p: &RegionExpr, q: &RegionExpr) -> Formula {
    use Relation4::*;
    let connect = |a: &RegionExpr, b: &RegionExpr| Formula::Connect(a.clone(), b.clone());
    let subset = |a: &RegionExpr, b: &RegionExpr| desugar_subset(a, b);
    // overlap(p, q): some region inside both, neither contained in the other.
    let overlap = |p: &RegionExpr, q: &RegionExpr| {
        let w = fresh_var(p, q);
        Formula::and(vec![
            Formula::exists_region(
                w.clone(),
                Formula::and(vec![
                    desugar_subset(&RegionExpr::Var(w.clone()), p),
                    desugar_subset(&RegionExpr::Var(w), q),
                ]),
            ),
            Formula::not(subset(p, q)),
            Formula::not(subset(q, p)),
        ])
    };
    match r {
        Disjoint => Formula::not(connect(p, q)),
        Overlap => overlap(p, q),
        Equal => Formula::and(vec![subset(p, q), subset(q, p)]),
        Meet => Formula::and(vec![
            connect(p, q),
            Formula::not(overlap(p, q)),
            Formula::not(subset(p, q)),
            Formula::not(subset(q, p)),
        ]),
        Inside => Formula::and(vec![
            subset(p, q),
            Formula::not(Formula::and(vec![subset(q, p), subset(p, q)])),
            // No boundary contact: every region connected to p is connected to
            // the *interior side* — expressed via: p together with q's
            // complement is not connected, i.e. ¬∃w touching both p and the
            // outside of q... the paper's definition uses the 4-intersection
            // matrix; here we say: p ⊂ q and ∀w (w ⊆ p → ¬ meet-style contact
            // with the complement), rendered as ¬connect-with-complement via
            // "every region containing p's closure neighborhood"... Following
            // the paper we keep it simpler: inside = subset ∧ ¬equal ∧
            // ¬covered_by-contact, where boundary contact is witnessed by a
            // region connected to p but not overlapping q.
            Formula::not(boundary_contact(p, q)),
        ]),
        CoveredBy => Formula::and(vec![
            subset(p, q),
            Formula::not(Formula::and(vec![subset(q, p), subset(p, q)])),
            boundary_contact(p, q),
        ]),
        Contains => desugar_relation(Inside, q, p),
        Covers => desugar_relation(CoveredBy, q, p),
    }
}

/// There is a witness of boundary contact between `p` (a part of `q`) and the
/// boundary of `q`: a region connected to `p` that is not connected to any
/// region inside `q`... rendered as: ∃w. connect(w, p) ∧ ¬overlap-with-q ∧
/// ¬subset(w, q). Intuitively `w` sits outside `q` yet touches `p`, which is
/// only possible if `p` reaches `∂q`.
fn boundary_contact(p: &RegionExpr, q: &RegionExpr) -> Formula {
    let w = fresh_var(p, q);
    Formula::exists_region(
        w.clone(),
        Formula::and(vec![
            Formula::Connect(RegionExpr::Var(w.clone()), p.clone()),
            Formula::not(Formula::exists_region(
                format!("{w}_in"),
                Formula::and(vec![
                    desugar_subset(&RegionExpr::Var(format!("{w}_in")), &RegionExpr::Var(w.clone())),
                    desugar_subset(&RegionExpr::Var(format!("{w}_in")), q),
                ]),
            )),
        ]),
    )
}

fn fresh_var(p: &RegionExpr, q: &RegionExpr) -> String {
    let mut base = String::from("w");
    for e in [p, q] {
        if let RegionExpr::Var(v) = e {
            base.push('_');
            base.push_str(v);
        }
    }
    base
}

/// A query: a sentence of `FO(Region, Region')` together with the class the
/// region quantifiers range over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// The sentence.
    pub formula: Formula,
    /// The region class the quantifiers range over (the first parameter of
    /// `FO(Region, Region')`).
    pub quantifier_class: RegionClass,
}

impl Query {
    /// A query whose quantifiers range over `Disc` (the most general class).
    pub fn over_disc(formula: Formula) -> Query {
        Query { formula, quantifier_class: RegionClass::Disc }
    }

    /// A query whose quantifiers range over rectangles.
    pub fn over_rect(formula: Formula) -> Query {
        Query { formula, quantifier_class: RegionClass::Rect }
    }
}

impl fmt::Display for NameTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTerm::Var(v) => write!(f, "{v}"),
            NameTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for RegionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionExpr::Var(v) => write!(f, "{v}"),
            RegionExpr::Ext(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Rel(r, p, q) => write!(f, "{}({p}, {q})", r.name()),
            Formula::Connect(p, q) => write!(f, "connect({p}, {q})"),
            Formula::Subset(p, q) => write!(f, "subset({p}, {q})"),
            Formula::NameEq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(inner) => write!(f, "not ({inner})"),
            Formula::And(fs) => {
                if fs.is_empty() {
                    return write!(f, "true");
                }
                let parts: Vec<String> = fs.iter().map(|x| format!("({x})")).collect();
                write!(f, "{}", parts.join(" and "))
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    return write!(f, "false");
                }
                let parts: Vec<String> = fs.iter().map(|x| format!("({x})")).collect();
                write!(f, "{}", parts.join(" or "))
            }
            Formula::ExistsRegion(v, inner) => write!(f, "exists {v} . {inner}"),
            Formula::ForallRegion(v, inner) => write!(f, "forall {v} . {inner}"),
            Formula::ExistsName(v, inner) => write!(f, "existsname {v} . {inner}"),
            Formula::ForallName(v, inner) => write!(f, "forallname {v} . {inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Formula {
        // ∃r. subset(r, A) ∧ subset(r, B)
        Formula::exists_region(
            "r",
            Formula::and(vec![
                Formula::subset(RegionExpr::var("r"), RegionExpr::named("A")),
                Formula::subset(RegionExpr::var("r"), RegionExpr::named("B")),
            ]),
        )
    }

    #[test]
    fn size_and_quantifier_count() {
        let f = sample();
        assert_eq!(f.region_quantifier_count(), 1);
        assert!(f.size() >= 4);
        let g = Formula::forall_name("a", Formula::exists_region("r", Formula::connect(
            RegionExpr::var("r"), RegionExpr::Ext(NameTerm::Var("a".into())))));
        assert_eq!(g.region_quantifier_count(), 1);
    }

    #[test]
    fn display_round_readable() {
        let f = sample();
        let s = format!("{f}");
        assert!(s.contains("exists r"));
        assert!(s.contains("subset(r, A)"));
        assert_eq!(format!("{}", Formula::And(vec![])), "true");
        assert_eq!(format!("{}", Formula::Or(vec![])), "false");
    }

    #[test]
    fn desugar_removes_sugar() {
        fn has_sugar(f: &Formula) -> bool {
            match f {
                Formula::Rel(..) | Formula::Subset(..) => true,
                Formula::Connect(..) | Formula::NameEq(..) => false,
                Formula::Not(g) => has_sugar(g),
                Formula::And(gs) | Formula::Or(gs) => gs.iter().any(has_sugar),
                Formula::ExistsRegion(_, g)
                | Formula::ForallRegion(_, g)
                | Formula::ExistsName(_, g)
                | Formula::ForallName(_, g) => has_sugar(g),
            }
        }
        let f = Formula::and(vec![
            sample(),
            Formula::rel(Relation4::Overlap, RegionExpr::named("A"), RegionExpr::named("B")),
            Formula::rel(Relation4::Disjoint, RegionExpr::named("A"), RegionExpr::named("C")),
            Formula::rel(Relation4::Equal, RegionExpr::named("A"), RegionExpr::named("A")),
        ]);
        assert!(has_sugar(&f));
        let d = f.desugar();
        assert!(!has_sugar(&d));
        assert!(d.size() > f.size());
    }

    #[test]
    fn miniscoping_moves_out_only_the_parts_without_the_variable() {
        let parse = |text: &str| crate::parser::parse(text).unwrap();
        for (text, scoped) in [
            (
                "exists r . exists s . overlap(r, A) and disjoint(r, s)",
                "exists r . overlap(r, A) and exists s . disjoint(r, s)",
            ),
            ("forall r . overlap(A, B) or subset(r, A)", "overlap(A, B) or forall r . subset(r, A)"),
            ("forallname a . not inside(ext(a), A)", "forallname a . not inside(ext(a), A)"),
            ("existsname a . overlap(A, B) and meet(ext(a), B)", "overlap(A, B) and existsname a . meet(ext(a), B)"),
            ("exists r . overlap(A, B)", "overlap(A, B)"),
            // A name variable is not a region variable of the same name.
            ("exists a . overlap(ext(a), B) and subset(a, B)", "overlap(ext(a), B) and exists a . subset(a, B)"),
        ] {
            assert_eq!(parse(text).miniscope(), parse(scoped), "{text}");
        }
    }

    #[test]
    fn query_constructors() {
        let q = Query::over_disc(sample());
        assert_eq!(q.quantifier_class, RegionClass::Disc);
        let q = Query::over_rect(sample());
        assert_eq!(q.quantifier_class, RegionClass::Rect);
    }
}
