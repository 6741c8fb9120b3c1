//! Topological constraint networks and their satisfiability.
//!
//! This implements the *topological inference* problem studied in \[GPP95\]
//! and referenced by the paper as the existential fragment of its
//! region-based languages (Section 6): given variables standing for regions
//! and, for some pairs, a set of admissible 4-intersection relations, decide
//! whether regions realizing all constraints exist.
//!
//! The decision procedure is the standard one for RCC8-style calculi:
//! path consistency by weak composition, plus backtracking over base-relation
//! refinements. Path consistency over base relations is sound and, for the
//! RCC8 algebra over planar regions, refutation-complete for the purposes of
//! the benchmark workloads used here. The caveat: for disc-only
//! interpretations the composition table is an over-approximation (exactly
//! the subtlety \[GPP95\] investigates).

use crate::composition::{compose_sets, RelationSet};
use crate::relation::Relation4;
use std::collections::BTreeMap;

/// A constraint network over `n` region variables.
#[derive(Clone, Debug)]
pub struct ConstraintNetwork {
    n: usize,
    /// Constraint matrix: `constraints[i][j]` is the set of admissible
    /// relations `R(i, j)`. The diagonal is `{Equal}` and the matrix is kept
    /// converse-consistent.
    constraints: Vec<Vec<RelationSet>>,
}

impl ConstraintNetwork {
    /// A network of `n` variables with no constraints (all pairs
    /// unconstrained).
    pub fn unconstrained(n: usize) -> Self {
        let mut constraints = vec![vec![RelationSet::ALL; n]; n];
        for (i, row) in constraints.iter_mut().enumerate() {
            row[i] = RelationSet::singleton(Relation4::Equal);
        }
        ConstraintNetwork { n, constraints }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the network trivial (no variables)?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Constrain `R(i, j)` to the given set (intersecting with any existing
    /// constraint); the converse constraint is updated symmetrically.
    pub fn constrain(&mut self, i: usize, j: usize, rels: RelationSet) {
        assert!(i < self.n && j < self.n, "variable out of range");
        self.constraints[i][j] = self.constraints[i][j].intersect(rels);
        self.constraints[j][i] = self.constraints[j][i].intersect(rels.inverse());
    }

    /// Constrain `R(i, j)` to a single base relation.
    pub fn constrain_base(&mut self, i: usize, j: usize, rel: Relation4) {
        self.constrain(i, j, RelationSet::singleton(rel));
    }

    /// The current constraint on `R(i, j)`.
    pub fn constraint(&self, i: usize, j: usize) -> RelationSet {
        self.constraints[i][j]
    }

    /// Enforce path consistency by weak composition: repeatedly refine
    /// `R(i, j) ← R(i, j) ∩ (R(i, k) ; R(k, j))` until a fixpoint.
    ///
    /// Returns `false` if some constraint became empty (the network is
    /// certainly unsatisfiable); `true` otherwise.
    pub fn path_consistency(&mut self) -> bool {
        let n = self.n;
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    for k in 0..n {
                        if k == i || k == j {
                            continue;
                        }
                        let composed =
                            compose_sets(self.constraints[i][k], self.constraints[k][j]);
                        let refined = self.constraints[i][j].intersect(composed);
                        if refined != self.constraints[i][j] {
                            self.constraints[i][j] = refined;
                            self.constraints[j][i] = refined.inverse();
                            changed = true;
                            if refined.is_empty() {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }

    /// Decide satisfiability by backtracking over base-relation refinements,
    /// pruning with path consistency. Returns a consistent atomic refinement
    /// (a *scenario*) if one exists.
    pub fn solve(&self) -> Option<Scenario> {
        let mut work = self.clone();
        if !work.path_consistency() {
            return None;
        }
        work.solve_rec(0)
    }

    /// Is the network satisfiable?
    pub fn is_satisfiable(&self) -> bool {
        self.solve().is_some()
    }

    fn solve_rec(&mut self, _depth: usize) -> Option<Scenario> {
        // Find the most constrained undecided pair.
        let mut target: Option<(usize, usize)> = None;
        let mut best = usize::MAX;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let k = self.constraints[i][j].len();
                if k == 0 {
                    return None;
                }
                if k > 1 && k < best {
                    best = k;
                    target = Some((i, j));
                }
            }
        }
        let Some((i, j)) = target else {
            // Fully atomic and path consistent: report the scenario.
            return Some(Scenario::from_network(self));
        };
        for r in self.constraints[i][j].iter() {
            let mut branch = self.clone();
            branch.constraints[i][j] = RelationSet::singleton(r);
            branch.constraints[j][i] = RelationSet::singleton(r.inverse());
            if branch.path_consistency() {
                if let Some(s) = branch.solve_rec(_depth + 1) {
                    return Some(s);
                }
            }
        }
        None
    }
}

/// A fully refined (atomic), path-consistent assignment of a base relation to
/// every pair of variables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    relations: BTreeMap<(usize, usize), Relation4>,
    n: usize,
}

impl Scenario {
    fn from_network(net: &ConstraintNetwork) -> Scenario {
        let mut relations = BTreeMap::new();
        for i in 0..net.n {
            for j in (i + 1)..net.n {
                let r = net.constraints[i][j]
                    .iter()
                    .next()
                    .expect("atomic network has nonempty constraints");
                relations.insert((i, j), r);
            }
        }
        Scenario { relations, n: net.n }
    }

    /// The base relation between two variables in the scenario.
    pub fn relation(&self, i: usize, j: usize) -> Relation4 {
        if i == j {
            return Relation4::Equal;
        }
        if i < j {
            self.relations[&(i, j)]
        } else {
            self.relations[&(j, i)].inverse()
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the scenario over zero variables?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Build the constraint network recording the actual pairwise relations of a
/// spatial instance (a trivially satisfiable network — useful as a
/// benchmark workload and for soundness tests of the composition table).
pub fn network_of_instance(inst: &spatial_core::instance::SpatialInstance) -> ConstraintNetwork {
    let rels = crate::relation::all_pairwise_relations(inst);
    let names: Vec<&str> = inst.names();
    let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut net = ConstraintNetwork::unconstrained(names.len());
    for (a, b, r) in rels {
        net.constrain_base(index[a.as_str()], index[b.as_str()], r);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::fixtures;
    use Relation4::*;

    #[test]
    fn empty_and_trivial_networks() {
        assert!(ConstraintNetwork::unconstrained(0).is_satisfiable());
        assert!(ConstraintNetwork::unconstrained(1).is_satisfiable());
        assert!(ConstraintNetwork::unconstrained(5).is_satisfiable());
    }

    #[test]
    fn contradictory_cycle_is_unsatisfiable() {
        // A inside B, B inside C, C inside A is impossible.
        let mut net = ConstraintNetwork::unconstrained(3);
        net.constrain_base(0, 1, Inside);
        net.constrain_base(1, 2, Inside);
        net.constrain_base(2, 0, Inside);
        assert!(!net.is_satisfiable());
    }

    #[test]
    fn containment_chain_is_satisfiable() {
        let mut net = ConstraintNetwork::unconstrained(4);
        net.constrain_base(0, 1, Inside);
        net.constrain_base(1, 2, Inside);
        net.constrain_base(2, 3, Inside);
        let scenario = net.solve().expect("chain is satisfiable");
        // Transitivity is forced: 0 inside 3.
        assert_eq!(scenario.relation(0, 3), Inside);
        assert_eq!(scenario.relation(3, 0), Contains);
    }

    #[test]
    fn meet_inside_forces_overlap_family() {
        // A meets B, B inside C: then A and C must overlap-or-be-inside.
        let mut net = ConstraintNetwork::unconstrained(3);
        net.constrain_base(0, 1, Meet);
        net.constrain_base(1, 2, Inside);
        assert!(net.path_consistency());
        let allowed = net.constraint(0, 2);
        assert_eq!(
            allowed.to_set(),
            RelationSet::from_slice(&[Overlap, CoveredBy, Inside]).to_set()
        );
        // Adding a contradictory requirement kills it.
        net.constrain_base(0, 2, Disjoint);
        assert!(!net.path_consistency());
    }

    #[test]
    fn disjunctive_constraints_are_searched() {
        // A and B are either disjoint or one inside the other; B contains C;
        // C overlaps A. The only consistent choice for (A, B) is overlap-free?
        // Work it out: C ⊂ B and C overlaps A forces A ∩ B ≠ ∅, so A and B
        // cannot be disjoint; the solver must pick a containment-ish option.
        let mut net = ConstraintNetwork::unconstrained(3);
        net.constrain(0, 1, RelationSet::from_slice(&[Disjoint, Inside, Contains]));
        net.constrain_base(1, 2, Contains);
        net.constrain_base(2, 0, Overlap);
        let scenario = net.solve().expect("satisfiable");
        assert_ne!(scenario.relation(0, 1), Disjoint);
    }

    #[test]
    fn networks_from_real_instances_are_satisfiable() {
        for inst in [
            fixtures::fig_1a(),
            fixtures::fig_1b(),
            fixtures::fig_1c(),
            fixtures::fig_1d(),
            fixtures::nested_three(),
            fixtures::shared_boundary(),
            fixtures::ring_with_flag(),
        ] {
            let net = network_of_instance(&inst);
            assert!(net.is_satisfiable(), "real instance yields a satisfiable network");
        }
    }

    #[test]
    fn composition_table_is_sound_on_real_instances() {
        // For every triple of regions in a real instance, the observed
        // relation R(A, C) must be contained in the composition of the
        // observed R(A, B) and R(B, C).
        for inst in [fixtures::fig_1a(), fixtures::fig_1b(), fixtures::nested_three(), fixtures::shared_boundary()] {
            let names = inst.names();
            let complex = arrangement::build_complex(&inst);
            let rel = |x: &str, y: &str| {
                crate::relation::relation_in_complex(&complex, x, y).unwrap()
            };
            for a in &names {
                for b in &names {
                    for c in &names {
                        if a == b || b == c || a == c {
                            continue;
                        }
                        let composed = compose_sets(
                            RelationSet::singleton(rel(a, b)),
                            RelationSet::singleton(rel(b, c)),
                        );
                        assert!(
                            composed.contains(rel(a, c)),
                            "composition table unsound for ({a},{b},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scenario_accessors() {
        let mut net = ConstraintNetwork::unconstrained(2);
        net.constrain_base(0, 1, Covers);
        let s = net.solve().unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.relation(0, 0), Equal);
        assert_eq!(s.relation(0, 1), Covers);
        assert_eq!(s.relation(1, 0), CoveredBy);
    }
}
