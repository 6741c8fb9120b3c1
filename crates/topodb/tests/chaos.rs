//! Chaos differential suite — the headline robustness test.
//!
//! Randomized op traces (`datagen::op_trace`) run against a durable
//! database on the fault-injecting [`wal::SimFs`], under randomized fault
//! schedules ([`wal::FaultPlan::random`]): torn appends, `EINTR`s,
//! `ENOSPC`, failed fsyncs, hard power cuts. After the run the simulated
//! machine is power-cycled (every file drops back to its last *synced*
//! bytes) and the database reopened on the surviving state. For every
//! `(trace seed, fault seed)` combination the suite asserts:
//!
//! 1. **No acknowledged commit is lost.** The log runs
//!    [`SyncPolicy::PerCommit`], so `Ok` from `try_commit` means the
//!    record was fsynced: the recovered head must be at least the last
//!    acked epoch.
//! 2. **The recovered state is a prefix of the workload.** The head never
//!    exceeds the number of batches attempted — recovery cannot invent
//!    epochs.
//! 3. **Byte-identical to the oracle.** The recovered instance (exact
//!    wire bytes, rational coordinates and all) and its derived relation
//!    matrix equal an in-memory oracle that committed the same prefix.
//!
//! Every assertion message carries both seeds, so a failing schedule is
//! reproducible verbatim. `CHAOS_TRACES` / `CHAOS_FAULTS` scale the
//! matrix (defaults 10 × 20 = 200 combinations).

use datagen::{op_trace, TraceOp};
use spatial_core::instance::SpatialInstance;
use spatial_core::wire::Wire;
use std::sync::Arc;
use topodb::{Clock, StorageOptions, TopoDatabase, TopoDbError};
use wal::{FaultPlan, SimFs};

const DIR: &str = "/db";
/// Batches per trace: enough to cross segment-rotation and checkpoint
/// cadences at the tiny thresholds below.
const STEPS: usize = 6;

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Backoff sleeps are pointless on an in-memory filesystem.
#[derive(Debug)]
struct NoSleep;

impl Clock for NoSleep {
    fn sleep(&self, _d: std::time::Duration) {}
}

/// What the differential compares: the exact instance bytes plus the
/// derived topology the facade serves relations from.
#[derive(PartialEq, Eq, Debug, Clone)]
struct Fingerprint {
    instance_wire: Vec<u8>,
    relations: Vec<(String, String, relations::Relation4)>,
}

fn fingerprint(db: &TopoDatabase) -> Fingerprint {
    Fingerprint {
        instance_wire: db.instance().to_wire_vec(),
        relations: db.snapshot().relation_matrix().expect("every pair classifies"),
    }
}

fn apply_batch(db: &TopoDatabase, batch: &[TraceOp]) -> Result<(), TopoDbError> {
    let mut tx = db.begin_shared();
    for op in batch {
        match op {
            TraceOp::Insert(name, region) => {
                tx.insert(name.clone(), region.clone());
            }
            TraceOp::Remove(name) => {
                tx.remove(name.clone());
            }
        }
    }
    tx.try_commit().map(|_| ())
}

/// `oracle[e]` is the in-memory state at epoch `e` (epoch 0 is the empty
/// database the durable side was created with).
fn oracle_states(trace: &[Vec<TraceOp>]) -> Vec<Fingerprint> {
    let db = TopoDatabase::new();
    let mut states = vec![fingerprint(&db)];
    for batch in trace {
        apply_batch(&db, batch).expect("in-memory oracle commits cannot fail");
        states.push(fingerprint(&db));
    }
    states
}

/// Storage for the chaos run: per-commit fsync (so `Ok` = acked = synced),
/// tiny rotation/checkpoint thresholds (so schedules hit the maintenance
/// paths too) and no real sleeping.
fn chaos_options(sim: &SimFs) -> StorageOptions {
    let mut opts =
        StorageOptions::default().with_vfs(Arc::new(sim.clone())).with_clock(Arc::new(NoSleep));
    opts.wal = opts.wal.with_segment_max_bytes(512).with_checkpoint_every(4);
    opts
}

/// Run one `(trace, fault schedule)` combination end to end.
fn run_combo(trace: &[Vec<TraceOp>], oracle: &[Fingerprint], trace_seed: u64, fault_seed: u64) {
    let ctx = format!("trace_seed={trace_seed:#x} fault_seed={fault_seed:#x}");
    let sim = SimFs::new();
    sim.set_plan(FaultPlan::random(fault_seed, 96));

    let mut acked: u64 = 0;
    let mut attempted: u64 = 0;
    // A creation fault (header/checkpoint write) leaves nothing acked;
    // the reopen below still checks that invariant.
    if let Ok(db) = TopoDatabase::create_with_storage(DIR, SpatialInstance::new(), chaos_options(&sim))
    {
        for batch in trace {
            attempted += 1;
            match apply_batch(&db, batch) {
                Ok(()) => acked = db.update_epoch(),
                // Degradation is terminal for this handle; later batches
                // would only be rejected.
                Err(TopoDbError::Degraded(_)) => break,
                Err(e) => panic!("[{ctx}] commit failed un-typed: {e}"),
            }
        }
        // Crash: no drop-time flush — only synced bytes survive.
        std::mem::forget(db);
    }

    sim.power_cycle(); // also clears the fault plan: recovery runs clean
    let reopened =
        TopoDatabase::open_with_storage(DIR, StorageOptions::default().with_vfs(Arc::new(sim)));
    let db = match reopened {
        Ok(db) => db,
        Err(e) => {
            // Only a database that never acked anything may fail to
            // reopen (the creation fault left no valid header behind).
            assert_eq!(acked, 0, "[{ctx}] reopen failed ({e}) after an acked commit");
            return;
        }
    };

    let head = db.update_epoch();
    assert!(head >= acked, "[{ctx}] lost an acked commit: recovered {head}, acked {acked}");
    assert!(head <= attempted, "[{ctx}] recovered {head} epochs, attempted only {attempted}");
    assert_eq!(
        fingerprint(&db),
        oracle[head as usize],
        "[{ctx}] recovered epoch {head} diverges from the oracle"
    );

    // The recovered database accepts writes again: the chaos left no
    // latent corruption behind.
    apply_batch(&db, &op_trace(1, trace_seed ^ 0xFFFF)[0])
        .unwrap_or_else(|e| panic!("[{ctx}] post-recovery commit failed: {e}"));
    assert_eq!(db.update_epoch(), head + 1, "[{ctx}] post-recovery epoch");
}

#[test]
fn randomized_fault_schedules_never_lose_an_acked_commit() {
    let traces = env_count("CHAOS_TRACES", 10);
    let faults = env_count("CHAOS_FAULTS", 20);
    for t in 0..traces {
        let trace_seed = 0xC0DE + 7919 * t as u64;
        let trace = op_trace(STEPS, trace_seed);
        let oracle = oracle_states(&trace);
        for f in 0..faults {
            let fault_seed = 0xFA17 + 104729 * f as u64;
            run_combo(&trace, &oracle, trace_seed, fault_seed);
        }
    }
}

#[test]
fn a_fault_free_schedule_recovers_every_epoch() {
    // Control arm: the same machinery with no faults must ack and recover
    // the entire trace (guards against the chaos loop passing vacuously).
    let trace = op_trace(STEPS, 0x5EED);
    let oracle = oracle_states(&trace);
    let sim = SimFs::new();
    let db = TopoDatabase::create_with_storage(DIR, SpatialInstance::new(), chaos_options(&sim))
        .expect("create without faults");
    for batch in &trace {
        apply_batch(&db, batch).expect("fault-free commits succeed");
    }
    assert_eq!(db.update_epoch(), trace.len() as u64);
    std::mem::forget(db);

    sim.power_cycle();
    let db =
        TopoDatabase::open_with_storage(DIR, StorageOptions::default().with_vfs(Arc::new(sim)))
            .expect("reopen");
    assert_eq!(db.update_epoch(), trace.len() as u64, "every acked commit recovered");
    assert_eq!(fingerprint(&db), oracle[trace.len()]);
}
