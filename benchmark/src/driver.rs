//! The closed loop: each client thread issues its next operation only when
//! the previous one has returned, which is how callers of an embedded
//! library behave. Latency is the service time of one facade call sequence.

use crate::hostprobe;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::workload::{Edit, Op, QUERY, READ, TXN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use topodb::{PreparedQuery, QueryOutput, TopoDatabase};

/// The first share of every client's sequence runs unmeasured.
pub const WARMUP_SHARE: f64 = 0.05;

/// What the clients of one pass share.
pub struct Target<'a> {
    pub db: &'a TopoDatabase,
    pub names: &'a [String],
    pub queries: &'a [PreparedQuery],
    /// The newest epoch any client has evaluated a query on. A query that
    /// raises it was the first on its epoch and paid the evaluator build.
    pub evaluated_epoch: AtomicU64,
}

impl<'a> Target<'a> {
    pub fn new(db: &'a TopoDatabase, names: &'a [String], queries: &'a [PreparedQuery]) -> Self {
        // Set-up has already evaluated on the current epoch.
        Target {
            db,
            names,
            queries,
            evaluated_epoch: AtomicU64::new(db.update_epoch()),
        }
    }
}

/// Was a query on `epoch` the first one on it? Raises the shared mark.
pub fn first_on_epoch(mark: &AtomicU64, epoch: u64) -> bool {
    mark.fetch_max(epoch, Ordering::SeqCst) < epoch
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: usize,
    /// For queries: first evaluation on its epoch.
    pub fresh: bool,
    /// Which slice of the measured sequence the operation ran in.
    pub slice: usize,
    pub ns: u64,
}

/// The answer of one operation, reduced to what verification needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub ok: bool,
    pub fresh: bool,
    /// Digest of the returned value.
    pub hash: u64,
}

pub struct ClientRun {
    /// Measured operations, in order.
    pub samples: Vec<Sample>,
    /// Wall time of each measured slice this client ran.
    pub slice_wall: Vec<Duration>,
    /// Operations executed, warm-up included.
    pub executed: usize,
    /// Operations that returned an error, panicked, or committed something
    /// other than their edits.
    pub failed: usize,
    /// The first of them, for the report.
    pub first_failure: Option<String>,
    /// FNV over every executed operation's answer, in order.
    pub digest: u64,
    /// Every read's `(a, b, answer hash)`, for the correctness gate.
    pub reads: Vec<(usize, usize, u64)>,
    /// Transactions acknowledged, in order (indices into the sequence).
    pub acked_txns: Vec<usize>,
}

impl ClientRun {
    fn new(capacity: usize) -> ClientRun {
        ClientRun {
            samples: Vec::with_capacity(capacity),
            slice_wall: Vec::new(),
            executed: 0,
            failed: 0,
            first_failure: None,
            digest: FNV_OFFSET,
            reads: Vec::new(),
            acked_txns: Vec::new(),
        }
    }

    /// Execute operation `i` and book its answer; `slice` is `None` during
    /// warm-up, which is executed and verified but not measured.
    fn step(&mut self, target: &Target<'_>, i: usize, op: &Op, slice: Option<usize>) {
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(target, op)));
        self.executed += 1;
        let (ns, answer) = outcome.unwrap_or((
            0,
            Answer {
                ok: false,
                fresh: false,
                hash: 0,
            },
        ));
        if !answer.ok {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("operation {i}: {op:?}"));
            return;
        }
        self.digest = fnv1a(self.digest, &answer.hash.to_le_bytes());
        match op {
            Op::Read { a, b } => self.reads.push((*a, *b, answer.hash)),
            Op::Txn(_) => self.acked_txns.push(i),
            Op::Query { .. } => {}
        }
        if let Some(slice) = slice {
            self.samples.push(Sample {
                class: op.class(),
                fresh: answer.fresh,
                slice,
                ns,
            });
        }
    }
}

/// One closed-loop pass: what each client did, and the host-speed bursts
/// taken before the first measured slice and after every slice.
pub struct Pass {
    pub runs: Vec<ClientRun>,
    pub bursts: Vec<f64>,
}

pub fn hash_output(out: &QueryOutput) -> u64 {
    match out {
        QueryOutput::Bool(b) => fnv1a(FNV_OFFSET, &[u8::from(*b)]),
        QueryOutput::Bindings(rows) => rows.iter().fold(FNV_OFFSET, |h, row| {
            row.iter().fold(fnv1a(h, b"|"), |h, (k, v)| {
                fnv1a(fnv1a(h, k.as_bytes()), v.as_bytes())
            })
        }),
    }
}

pub fn hash_relation(relation: relations::Relation4) -> u64 {
    fnv1a(FNV_OFFSET, relation.name().as_bytes())
}

/// The facade call sequence of a transaction.
pub fn commit(
    db: &TopoDatabase,
    edits: &[Edit],
) -> Result<topodb::CommitSummary, topodb::TopoDbError> {
    let mut txn = db.begin_shared();
    for edit in edits {
        match edit {
            Edit::Insert(name, region) => txn.insert(name.clone(), region.clone()),
            Edit::Remove(name) => txn.remove(name.clone()),
        };
    }
    txn.try_commit()
}

/// Execute one operation through the facade and time it. Hashing and
/// checking the answer happen after the clock has stopped.
fn execute(target: &Target<'_>, op: &Op) -> (u64, Answer) {
    let failed = Answer {
        ok: false,
        fresh: false,
        hash: 0,
    };
    match op {
        Op::Read { a, b } => {
            let (a, b) = (&target.names[*a], &target.names[*b]);
            let start = Instant::now();
            let out = target.db.snapshot().relation(a, b);
            let ns = start.elapsed().as_nanos() as u64;
            (
                ns,
                out.map_or(failed, |r| Answer {
                    ok: true,
                    fresh: false,
                    hash: hash_relation(r),
                }),
            )
        }
        Op::Query { q } => {
            let query = &target.queries[*q];
            let start = Instant::now();
            let snapshot = target.db.snapshot();
            let fresh = first_on_epoch(&target.evaluated_epoch, snapshot.epoch());
            let out = snapshot.evaluate(query);
            let ns = start.elapsed().as_nanos() as u64;
            (
                ns,
                out.map_or(failed, |o| Answer {
                    ok: true,
                    fresh,
                    hash: hash_output(&o),
                }),
            )
        }
        Op::Txn(edits) => {
            let start = Instant::now();
            let out = commit(target.db, edits);
            let ns = start.elapsed().as_nanos() as u64;
            let answer = out.map_or(failed, |summary| Answer {
                // every generated edit is effective, so all of them must
                // come back as changed
                ok: summary.changed.len() == edits.len(),
                fresh: false,
                // epochs depend on the interleaving of writers; names don't
                hash: summary
                    .changed
                    .iter()
                    .fold(FNV_OFFSET, |h, n| fnv1a(h, n.as_bytes())),
            });
            (ns, answer)
        }
    }
}

/// The measured part of every sequence is cut into this many slices, with
/// a host-speed burst between them.
pub const SLICES: usize = 10;

/// What the clients of a pass synchronise on between slices.
struct Rendezvous {
    barrier: Barrier,
    bursts: Mutex<Vec<f64>>,
    /// Set by a client that met the deadline; all stop at the next pause.
    stop: AtomicBool,
}

impl Rendezvous {
    /// All clients pause; with the program idle, the first one times a
    /// burst; all resume. Returns whether the pass goes on.
    fn pause(&self, client: usize) -> bool {
        self.barrier.wait();
        // Read between the two waits: `stop` is only ever set inside a
        // slice, and no client is in one now, so all clients read the same.
        let go_on = !self.stop.load(Ordering::SeqCst);
        if client == 0 {
            self.bursts
                .lock()
                .expect("no client panics holding it")
                .push(hostprobe::burst());
        }
        self.barrier.wait();
        go_on
    }
}

fn run_client(
    target: &Target<'_>,
    client: usize,
    ops: &[Op],
    sync: &Rendezvous,
    start: Instant,
    deadline: Duration,
) -> ClientRun {
    let warmup = (ops.len() as f64 * WARMUP_SHARE).ceil() as usize;
    let mut run = ClientRun::new(ops.len());
    for (i, op) in ops[..warmup].iter().enumerate() {
        run.step(target, i, op, None);
    }
    let measured = ops.len() - warmup;
    let mut next = warmup;
    for slice in 0..SLICES {
        if !sync.pause(client) {
            return run;
        }
        let end = warmup + measured * (slice + 1) / SLICES;
        let began = Instant::now();
        while next < end {
            if start.elapsed() >= deadline {
                sync.stop.store(true, Ordering::SeqCst);
                break;
            }
            run.step(target, next, &ops[next], Some(slice));
            next += 1;
        }
        run.slice_wall.push(began.elapsed());
    }
    sync.pause(client);
    run
}

/// Run one closed-loop pass: one thread per sequence, released together,
/// each running its whole sequence unless one of them meets `deadline`,
/// in which case all stop at the end of that slice.
pub fn run_pass(target: &Target<'_>, sequences: &[Vec<Op>], deadline: Duration) -> Pass {
    let sync = Rendezvous {
        barrier: Barrier::new(sequences.len()),
        bursts: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    };
    let start = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .enumerate()
            .map(|(client, ops)| {
                let sync = &sync;
                scope.spawn(move || run_client(target, client, ops, sync, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Pass {
        runs,
        bursts: sync
            .bursts
            .into_inner()
            .expect("no client panics holding it"),
    }
}

impl Pass {
    /// How much slower than the reference the host ran during `slice`.
    pub fn factor(&self, slice: usize) -> f64 {
        hostprobe::factor(self.bursts[slice], self.bursts[slice + 1])
    }

    /// Latencies of the kept samples across clients, in nanoseconds of the
    /// reference host, ascending.
    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .runs
            .iter()
            .flat_map(|r| r.samples.iter())
            .filter(|s| keep(s))
            .map(|s| (s.ns as f64 / self.factor(s.slice)).round() as u64)
            .collect();
        out.sort_unstable();
        out
    }

    /// Measured operations per second of the reference host: each client's
    /// own rate, summed, so a client that finishes a slice early does not
    /// dilute the others' interval.
    pub fn ops_per_s(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| {
                let wall: f64 = r
                    .slice_wall
                    .iter()
                    .enumerate()
                    .map(|(k, w)| w.as_secs_f64() / self.factor(k))
                    .sum();
                if wall > 0.0 {
                    r.samples.len() as f64 / wall
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// The median host factor of the pass.
    pub fn host_factor(&self) -> f64 {
        let factors: Vec<f64> = (0..self.bursts.len().saturating_sub(1))
            .map(|k| self.factor(k))
            .collect();
        crate::stats::median(&factors).unwrap_or(1.0)
    }
}

pub fn is_read(s: &Sample) -> bool {
    s.class == READ
}
pub fn is_query(s: &Sample) -> bool {
    s.class == QUERY
}
pub fn is_warm_query(s: &Sample) -> bool {
    s.class == QUERY && !s.fresh
}
pub fn is_fresh_query(s: &Sample) -> bool {
    s.class == QUERY && s.fresh
}
pub fn is_txn(s: &Sample) -> bool {
    s.class == TXN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, QueryPool};

    #[test]
    fn only_the_first_query_on_an_epoch_is_fresh() {
        let mark = AtomicU64::new(3);
        assert!(
            !first_on_epoch(&mark, 3),
            "set-up already evaluated on epoch 3"
        );
        assert!(first_on_epoch(&mark, 4));
        assert!(!first_on_epoch(&mark, 4));
        assert!(first_on_epoch(&mark, 6), "epochs can be skipped");
        assert!(
            !first_on_epoch(&mark, 5),
            "an older snapshot is never fresh again"
        );
    }

    #[test]
    fn a_pass_measures_after_warm_up_and_flags_fresh_queries() {
        let spec = spec("serve_256").unwrap();
        let instance = spec.instance();
        let names: Vec<String> = instance.names().into_iter().map(String::from).collect();
        let pool = QueryPool::new(&names);
        let queries: Vec<PreparedQuery> = pool
            .texts
            .iter()
            .map(|t| PreparedQuery::compile(t).unwrap())
            .collect();
        let db = TopoDatabase::from_instance(instance);
        db.snapshot().evaluator();
        let ops = spec.op_sequence(2, 0, 200, names.len(), &pool);
        let target = Target::new(&db, &names, &queries);
        let pass = run_pass(&target, std::slice::from_ref(&ops), Duration::from_secs(60));
        assert_eq!(
            pass.bursts.len(),
            SLICES + 1,
            "a burst before, between and after the slices"
        );
        assert_eq!(pass.latencies(|_| true).len(), 190);
        assert!(pass.ops_per_s() > 0.0 && pass.host_factor() > 0.0);
        let run = &pass.runs[0];
        assert_eq!(run.executed, 200);
        assert_eq!(run.failed, 0);
        assert_eq!(run.samples.len(), 190, "5% warm-up is unmeasured");
        let txns = ops.iter().filter(|o| o.class() == TXN).count();
        assert_eq!(run.acked_txns.len(), txns);
        let fresh = run.samples.iter().filter(|s| is_fresh_query(s)).count();
        assert!(
            fresh >= 1 && fresh <= txns,
            "{fresh} fresh queries for {txns} commits"
        );
        assert_eq!(db.update_epoch(), txns as u64);

        // Same sequence on a new database: same answers, same digest.
        let db2 = TopoDatabase::from_instance(spec.instance());
        db2.snapshot().evaluator();
        let target2 = Target::new(&db2, &names, &queries);
        let again = run_pass(
            &target2,
            std::slice::from_ref(&ops),
            Duration::from_secs(60),
        );
        assert_eq!(again.runs[0].digest, run.digest);

        // A deadline already passed measures nothing.
        let none = run_pass(&target2, std::slice::from_ref(&ops), Duration::ZERO);
        assert_eq!(
            none.runs[0].executed, 10,
            "warm-up runs, then the deadline stops the first slice"
        );
        assert!(none.runs[0].samples.is_empty());
    }
}
