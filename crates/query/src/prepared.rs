//! Prepared, binding-producing queries: parse + analyze once, evaluate many.
//!
//! The evaluation strategy of the paper's Section 7 (quantify over cell
//! unions) pays a per-*instance* cost — enumerating the quantifier domain —
//! but the per-*query* costs of parsing the concrete syntax and analyzing the
//! formula (free variables, evaluability) are pure query-side work. A
//! [`PreparedQuery`] front-loads all of it: compile a query string once and
//! run it against any number of evaluators or (through
//! `topodb::Snapshot::evaluate`) database snapshots, from any number of
//! threads.
//!
//! Prepared queries also widen the result type beyond `bool`: a formula with
//! free *name* variables is a set-returning query, and running it yields
//! [`QueryOutput::Bindings`] — the satisfying assignments of the free
//! variables over `names(I)`, in the style of a relational `SELECT`. Closed
//! formulas yield [`QueryOutput::Bool`].
//!
//! ```
//! use query::prepared::{PreparedQuery, QueryOutput};
//! use query::cell_eval::CellEvaluator;
//! use spatial_core::fixtures;
//!
//! // Which named regions lie strictly inside A? (free name variable `x`)
//! let q = PreparedQuery::compile("inside(ext(x), A)").unwrap();
//! let ev = CellEvaluator::new(&fixtures::nested_three());
//! match q.run_on(&ev).unwrap() {
//!     QueryOutput::Bindings(rows) => {
//!         let xs: Vec<&str> = rows.iter().map(|r| r["x"].as_str()).collect();
//!         assert_eq!(xs, ["B", "C"]);
//!     }
//!     QueryOutput::Bool(_) => unreachable!("`x` is free, so the query returns rows"),
//! }
//! ```

use crate::ast::Formula;
use crate::cell_eval::{Bindings, CellEvaluator, EvalError};
use crate::parser::{parse, ParseError};
use crate::plan::QueryPlan;
use arrangement::ComplexGeometry;
use std::fmt;

/// The result of running a query: a truth value for closed formulas, or the
/// satisfying assignments of the free name variables for open ones.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryOutput {
    /// The formula was a sentence (no free variables).
    Bool(bool),
    /// The formula had free name variables; each row maps every free
    /// variable to a region name, rows in lexicographic order.
    Bindings(Vec<Bindings>),
}

impl QueryOutput {
    /// The truth value, if this is a Boolean result.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryOutput::Bool(b) => Some(*b),
            QueryOutput::Bindings(_) => None,
        }
    }

    /// The binding rows, if this is a set-returning result.
    pub fn bindings(&self) -> Option<&[Bindings]> {
        match self {
            QueryOutput::Bool(_) => None,
            QueryOutput::Bindings(rows) => Some(rows),
        }
    }

    /// Uniform truthiness: a Boolean result's value, or "at least one row"
    /// for a set-returning result (the classical ∃-collapse).
    pub fn holds(&self) -> bool {
        match self {
            QueryOutput::Bool(b) => *b,
            QueryOutput::Bindings(rows) => !rows.is_empty(),
        }
    }
}

impl fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryOutput::Bool(b) => write!(f, "{b}"),
            QueryOutput::Bindings(rows) => {
                write!(f, "{} row(s)", rows.len())?;
                for row in rows {
                    let cells: Vec<String> =
                        row.iter().map(|(k, v)| format!("{k} = {v}")).collect();
                    write!(f, " [{}]", cells.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

/// Errors raised when compiling a prepared query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PrepareError {
    /// The query text could not be parsed; carries the byte position.
    Parse(ParseError),
    /// The formula uses a region variable without binding it with
    /// `exists`/`forall` — region variables range over an infinite class and
    /// cannot be returned as bindings.
    FreeRegionVariable(String),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Parse(e) => write!(f, "{e}"),
            PrepareError::FreeRegionVariable(v) => write!(
                f,
                "free region variable `{v}`: region variables must be bound by exists/forall"
            ),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<ParseError> for PrepareError {
    fn from(e: ParseError) -> PrepareError {
        PrepareError::Parse(e)
    }
}

/// A query compiled once — parsed, checked for evaluability, and analyzed
/// for free name variables — ready to run against any snapshot of any
/// database.
///
/// The compile-time "plan" is everything that does not depend on the data:
/// the AST, the ordered list of free name variables (which determines the
/// output shape: empty list → [`QueryOutput::Bool`], otherwise
/// [`QueryOutput::Bindings`]), the semi-join [`QueryPlan`] for open queries
/// (conjunct split + candidate generators; see the crate docs' "Planning
/// model" section), and the up-front rejection of formulas that could only
/// fail at run time (free region variables). Running the same
/// `PreparedQuery` against snapshots from different epochs re-uses all of it
/// and answers each snapshot from *its* cell complex — prepared queries hold
/// no instance data and are freely shared across threads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparedQuery {
    text: Option<String>,
    formula: Formula,
    free_names: Vec<String>,
    plan: Option<QueryPlan>,
}

impl PreparedQuery {
    /// Compile a query from the concrete syntax of [`crate::parser`].
    pub fn compile(text: &str) -> Result<PreparedQuery, PrepareError> {
        let formula = parse(text)?;
        let mut q = PreparedQuery::from_formula(formula)?;
        q.text = Some(text.to_string());
        Ok(q)
    }

    /// Compile an already-built AST (no parsing step).
    pub fn from_formula(formula: Formula) -> Result<PreparedQuery, PrepareError> {
        if let Some(v) = formula.free_region_vars().into_iter().next() {
            return Err(PrepareError::FreeRegionVariable(v));
        }
        let free_names = formula.free_name_vars();
        let plan = (!free_names.is_empty())
            .then(|| QueryPlan::build(&formula, &free_names));
        Ok(PreparedQuery { text: None, formula, free_names, plan })
    }

    /// The original query text, when compiled from text.
    pub fn text(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// The compiled formula.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The free name variables, in first-occurrence order. Empty iff the
    /// query is Boolean.
    pub fn free_name_vars(&self) -> &[String] {
        &self.free_names
    }

    /// Does running this query produce a [`QueryOutput::Bool`] (no free
    /// variables) rather than binding rows?
    pub fn is_boolean(&self) -> bool {
        self.free_names.is_empty()
    }

    /// The compile-time semi-join plan, present iff the query is open.
    pub fn plan(&self) -> Option<&QueryPlan> {
        self.plan.as_ref()
    }

    /// Run against an existing evaluator (the cheapest path when several
    /// queries hit one snapshot: the evaluator's domain enumeration and
    /// spatial index are shared). Open queries use the stored semi-join
    /// plan.
    pub fn run_on<C: ComplexGeometry>(
        &self,
        evaluator: &CellEvaluator<C>,
    ) -> Result<QueryOutput, EvalError> {
        match &self.plan {
            None => evaluator.eval(&self.formula).map(QueryOutput::Bool),
            Some(plan) => evaluator
                .eval_bindings_planned(&self.formula, plan)
                .map(QueryOutput::Bindings),
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;

    #[test]
    fn boolean_queries_stay_boolean() {
        let q = PreparedQuery::compile("overlap(A, B)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.free_name_vars(), &[] as &[String]);
        let ev = CellEvaluator::new(&fixtures::fig_1c());
        assert_eq!(q.run_on(&ev), Ok(QueryOutput::Bool(true)));
        assert_eq!(q.run_on(&ev).unwrap().as_bool(), Some(true));
    }

    #[test]
    fn free_name_variables_produce_bindings() {
        // nested_three: A ⊃ B ⊃ C.
        let q = PreparedQuery::compile("inside(ext(x), A)").unwrap();
        assert!(!q.is_boolean());
        assert_eq!(q.free_name_vars(), ["x"]);
        let ev = CellEvaluator::new(&fixtures::nested_three());
        let out = q.run_on(&ev).unwrap();
        let rows = out.bindings().unwrap();
        let xs: Vec<&str> = rows.iter().map(|r| r["x"].as_str()).collect();
        assert_eq!(xs, ["B", "C"]);
        assert!(out.holds());
        assert_eq!(out.as_bool(), None);
    }

    #[test]
    fn two_free_variables_enumerate_pairs() {
        let q = PreparedQuery::compile("contains(ext(x), ext(y))").unwrap();
        assert_eq!(q.free_name_vars(), ["x", "y"]);
        let ev = CellEvaluator::new(&fixtures::nested_three());
        let rows = q.run_on(&ev).unwrap().bindings().unwrap().to_vec();
        let pairs: Vec<(String, String)> =
            rows.into_iter().map(|r| (r["x"].clone(), r["y"].clone())).collect();
        // A ⊃ B, A ⊃ C, B ⊃ C.
        let want =
            [("A", "B"), ("A", "C"), ("B", "C")].map(|(a, b)| (a.to_string(), b.to_string()));
        assert_eq!(pairs, want);
    }

    #[test]
    fn bound_name_variables_are_not_free() {
        let q = PreparedQuery::compile("existsname x . inside(ext(x), A)").unwrap();
        assert!(q.is_boolean());
        let ev = CellEvaluator::new(&fixtures::nested_three());
        assert_eq!(q.run_on(&ev), Ok(QueryOutput::Bool(true)));
    }

    #[test]
    fn free_region_variables_are_rejected_at_compile_time() {
        let err = PreparedQuery::compile("subset(r, A)").unwrap_err();
        assert!(matches!(err, PrepareError::FreeRegionVariable(ref v) if v == "r"));
        assert!(err.to_string().contains("free region variable"));
        // Parse failures carry the byte position through.
        let err = PreparedQuery::compile("overlap(A,").unwrap_err();
        assert!(matches!(err, PrepareError::Parse(_)));
    }

    #[test]
    fn mixed_quantified_and_free_variables() {
        // Which regions x admit a witness region inside both x and A?
        let q = PreparedQuery::compile("exists r . subset(r, ext(x)) and subset(r, A)").unwrap();
        assert_eq!(q.free_name_vars(), ["x"]);
        let ev = CellEvaluator::new(&fixtures::fig_1c());
        let rows = q.run_on(&ev).unwrap().bindings().unwrap().to_vec();
        // fig_1c: A and B overlap, so both names qualify.
        let xs: Vec<&str> = rows.iter().map(|r| r["x"].as_str()).collect();
        assert_eq!(xs, ["A", "B"]);
    }

    #[test]
    fn shadowed_free_variables_keep_their_outer_binding() {
        // `x` is free in the first conjunct and *shadowed* by the inner
        // `existsname x` in the second: the quantifier must restore the
        // outer binding, so every row still carries the free `x`.
        let q = PreparedQuery::compile(
            "inside(ext(x), A) and existsname x . inside(ext(x), A)",
        )
        .unwrap();
        assert_eq!(q.free_name_vars(), ["x"]);
        let ev = CellEvaluator::new(&fixtures::nested_three());
        let rows = q.run_on(&ev).unwrap().bindings().unwrap().to_vec();
        let xs: Vec<&str> = rows.iter().map(|r| r["x"].as_str()).collect();
        assert_eq!(xs, ["B", "C"], "outer x survives the shadowing quantifier");
    }

    #[test]
    fn display_of_outputs() {
        assert_eq!(format!("{}", QueryOutput::Bool(true)), "true");
        let rows = vec![[("x".to_string(), "A".to_string())].into_iter().collect()];
        let s = format!("{}", QueryOutput::Bindings(rows));
        assert!(s.contains("1 row(s)"));
        assert!(s.contains("x = A"));
    }
}
