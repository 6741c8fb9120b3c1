//! The correctness gate: answers served during and after a run must equal
//! those of a database built from scratch on the final instance, and every
//! acknowledged durable commit must survive a power cut.

use crate::driver::{self, hash_relation, ClientRun};
use crate::workload::{Edit, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_core::instance::SpatialInstance;
use std::path::Path;
use std::sync::Arc;
use topodb::wal::SimFs;
use topodb::{PreparedQuery, Snapshot, StorageOptions, TopoDatabase};

/// At least this many relation pairs are compared per run.
pub const MIN_PAIRS: usize = 200;

/// Checks made and checks failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: usize,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.checks += other.checks;
        self.failures.extend(other.failures);
    }
}

/// Compare the served snapshot with `oracle`, a snapshot of a database
/// built from scratch on the same final instance: the region names, a
/// sample of relation pairs (those the run's reads observed first — base
/// regions never change, so what a read returned mid-run must also be the
/// oracle's answer — then seeded pairs up to [`MIN_PAIRS`]), and every
/// pooled query.
pub fn against_oracle(
    served: &Snapshot,
    oracle: &Snapshot,
    base_names: &[String],
    runs: &[ClientRun],
    queries: &[PreparedQuery],
    seed: u64,
) -> Gate {
    let mut gate = Gate::default();
    gate.check(served.names() == oracle.names(), || {
        "region names differ from the oracle".into()
    });

    let observed = runs
        .iter()
        .flat_map(|r| r.reads.iter().copied())
        .take(MIN_PAIRS);
    let mut pairs: Vec<(usize, usize, Option<u64>)> =
        observed.map(|(a, b, hash)| (a, b, Some(hash))).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let all = served.names();
    while pairs.len() < MIN_PAIRS && all.len() > 1 {
        // any two current regions, inserted ones included
        let a = rng.gen_range(0..all.len());
        let b = (a + rng.gen_range(1..all.len())) % all.len();
        pairs.push((a, b, None));
    }
    for (a, b, seen) in pairs {
        let (a, b) = match seen {
            Some(_) => (&base_names[a], &base_names[b]),
            None => (&all[a], &all[b]),
        };
        let expected = oracle.relation(a, b).ok();
        let got = served.relation(a, b).ok();
        gate.check(expected.is_some() && got == expected, || {
            format!("relation({a}, {b}): served {got:?}, oracle {expected:?}")
        });
        if let (Some(seen), Some(expected)) = (seen, expected) {
            gate.check(seen == hash_relation(expected), || {
                format!(
                    "relation({a}, {b}) read during the run differs from the oracle's {expected:?}"
                )
            });
        }
    }

    for query in queries {
        let expected = oracle.evaluate(query).ok();
        let got = served.evaluate(query).ok();
        gate.check(expected.is_some() && got == expected, || {
            format!(
                "query `{}`: served {got:?}, oracle {expected:?}",
                query.text().unwrap_or("?")
            )
        });
    }
    gate
}

/// The instance after applying `txns` in order.
pub fn model_instance<'a>(
    base: &SpatialInstance,
    txns: impl IntoIterator<Item = &'a [Edit]>,
) -> SpatialInstance {
    let mut instance = base.clone();
    for edits in txns {
        for edit in edits {
            match edit {
                Edit::Insert(name, region) => {
                    instance.insert(name.clone(), region.clone());
                }
                Edit::Remove(name) => {
                    instance.remove(name);
                }
            }
        }
    }
    instance
}

/// The durability check: commit `txns` to a database on the simulated
/// filesystem with a flush per commit, abandon the handle without closing
/// it, cut the power (which discards every byte not flushed), reopen, and
/// require the reopened database to be at the last acknowledged epoch with
/// exactly the acknowledged state.
pub fn power_cut(base: &SpatialInstance, txns: &[&[Edit]]) -> Gate {
    let mut gate = Gate::default();
    let sim = SimFs::new();
    let options = || StorageOptions::default().with_vfs(Arc::new(sim.clone()));
    let dir = Path::new("/power-cut");
    let db = match TopoDatabase::create_with_storage(dir, base.clone(), options()) {
        Ok(db) => db,
        Err(e) => {
            gate.check(false, || format!("create on SimFs: {e}"));
            return gate;
        }
    };
    let mut acked_epoch = 0;
    let mut acked = 0;
    for edits in txns {
        match driver::commit(&db, edits) {
            Ok(summary) => {
                acked_epoch = summary.epoch;
                acked += 1;
            }
            Err(e) => {
                gate.check(false, || format!("commit on SimFs: {e}"));
                break;
            }
        }
    }
    // No destructor runs: nothing gets flushed on the way out.
    std::mem::forget(db);
    sim.power_cycle();

    match TopoDatabase::open_with_storage(dir, options()) {
        Ok(reopened) => {
            let epoch = reopened.update_epoch();
            gate.check(epoch == acked_epoch, || {
                format!("reopened at epoch {epoch}, last acknowledged was {acked_epoch}")
            });
            let expected = model_instance(base, txns[..acked].iter().copied());
            gate.check(*reopened.instance() == expected, || {
                "reopened instance differs from the acknowledged state".into()
            });
            // readable, not merely present
            gate.check(reopened.snapshot().len() == expected.len(), || {
                "reopened snapshot does not serve the acknowledged regions".into()
            });
        }
        Err(e) => gate.check(false, || format!("reopen after power cut: {e}")),
    }
    gate
}

/// The first `limit` transactions of a sequence.
pub fn first_txns(ops: &[Op], limit: usize) -> Vec<&[Edit]> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Txn(edits) => Some(edits.as_slice()),
            _ => None,
        })
        .take(limit)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, QueryPool, Shape};
    use spatial_core::region::Region;

    /// A map and one query of each shape anchored on its first region.
    fn fixture() -> (SpatialInstance, Vec<String>, Vec<PreparedQuery>) {
        let instance = spec("serve_256").unwrap().instance();
        let names: Vec<String> = instance.names().into_iter().map(String::from).collect();
        let queries = [Shape::Sentence, Shape::Anchored, Shape::Join]
            .map(|shape| PreparedQuery::compile(&shape.text(&names[0])).unwrap())
            .to_vec();
        (instance, names, queries)
    }

    #[test]
    fn equal_databases_pass_the_gate() {
        let (instance, names, queries) = fixture();
        let served = TopoDatabase::from_instance(instance.clone()).snapshot();
        let oracle = TopoDatabase::from_instance(instance).snapshot();
        let gate = against_oracle(&served, &oracle, &names, &[], &queries, 1);
        assert!(gate.checks >= MIN_PAIRS + queries.len());
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
    }

    #[test]
    fn a_wrong_answer_trips_the_gate() {
        let (instance, names, queries) = fixture();
        let oracle = TopoDatabase::from_instance(instance.clone()).snapshot();

        // The served database has one region, disjoint from a query anchor,
        // moved across that anchor's corner: same names, but the anchored
        // query gains a row.
        let mut wrong = instance.clone();
        let anchor = instance.ext(&names[0]).unwrap();
        let (x0, y0, _, _) = anchor.bounding_box();
        let (x0, y0) = (x0.floor() as i64, y0.floor() as i64);
        let victim = names.iter().find(|n| {
            relations::relation_between(instance.ext(n).unwrap(), anchor)
                == relations::Relation4::Disjoint
        });
        wrong.insert(
            victim.unwrap().clone(),
            Region::rect_from_ints(x0 - 1, y0 - 1, x0 + 1, y0 + 1),
        );
        let served = TopoDatabase::from_instance(wrong).snapshot();
        let gate = against_oracle(&served, &oracle, &names, &[], &queries, 1);
        assert!(!gate.failures.is_empty(), "a moved region must be noticed");

        // A read that returned the wrong relation mid-run is noticed too,
        // even when the final snapshots agree.
        let run = ClientRun {
            samples: Vec::new(),
            slice_wall: Vec::new(),
            executed: 1,
            failed: 0,
            first_failure: None,
            digest: 0,
            reads: vec![(0, 1, hash_relation(relations::Relation4::Equal))],
            acked_txns: Vec::new(),
        };
        let gate = against_oracle(&oracle, &oracle, &names, &[run], &queries, 1);
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
    }

    #[test]
    fn acknowledged_commits_survive_a_power_cut() {
        let spec = spec("durable_edits").unwrap();
        let base = spec.instance();
        let names: Vec<String> = base.names().into_iter().map(String::from).collect();
        let pool = QueryPool::new(&names);
        let ops = spec.op_sequence(3, 0, 100, names.len(), &pool);
        let txns = first_txns(&ops, 20);
        assert_eq!(txns.len(), 20);
        let gate = power_cut(&base, &txns);
        assert_eq!(gate.checks, 3);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
    }
}
