//! Open-loop traffic harness for the `topodb` facade: many client threads
//! replay a mixed snapshot-read / prepared-query / write-transaction
//! workload against one shared database at a configured per-client arrival
//! rate, and the harness records p50/p99 latency per operation class into
//! the benchmark snapshot.
//!
//! **Open loop** means every operation has a *scheduled* arrival time
//! (`start + i / rate`) and its latency is measured from that scheduled
//! instant, not from when the client got around to issuing it. A client
//! that falls behind accumulates queueing delay in its latency numbers
//! instead of silently throttling the offered load — the
//! coordinated-omission trap of closed-loop harnesses, where a slow server
//! makes its own tail latencies look better by slowing the clients down.
//!
//! All clients share one `&TopoDatabase` directly — no outer lock. Reads
//! and queries acquire snapshots (a read lock held for one `Arc` clone);
//! transactions commit through [`TopoDatabase::begin_shared`], so
//! concurrent writers build their epochs outside any lock and serialize
//! only at the publish.
//!
//! The per-operation mix, drawn from each client's seeded RNG, is selected
//! by `TRAFFIC_MIX`:
//!
//! * `read-heavy` (default) — 60% reads / 30% queries / 10% transactions;
//! * `txn-heavy` — 30% reads / 30% queries / 40% transactions, the commit
//!   pipeline under pressure: most scheduled arrivals are epoch publishes,
//!   and the read p99 exposes how well snapshot acquisition holds up while
//!   writers continuously re-sweep and publish.
//!
//! The operation classes:
//!
//! * **reads** — `snapshot()` + `Snapshot::relation` between two
//!   pseudo-random base regions (the warm path: one `Arc` bump plus a
//!   cached 4-intersection classification);
//! * **queries** — `Snapshot::evaluate` of a pre-compiled anchored open
//!   query `overlap(ext(x), C{c}_R000)` (the semi-join planner path);
//! * **transactions** — insert of a pseudo-random rectangle under a
//!   thread-local name into the client's home cluster (or removal of a
//!   previously inserted one), which publishes a new epoch re-sweeping the
//!   dirtied cluster.
//!
//! The base map is selected by `TRAFFIC_MAP`: `small` (default, 8 clusters
//! of 4 regions) or `clustered4096` (64 clusters of 64 regions — 4096
//! base regions, the scale where per-commit re-sweep locality and
//! cheap snapshot acquisition actually matter).
//!
//! `TRAFFIC_WAL=on` runs the same workload against a *durable* database
//! (a throwaway log directory under the temp dir, deleted afterwards), so
//! the transaction-class percentiles include the write-ahead-log append —
//! the txn p99 with durability is the number that matters for sizing a
//! real deployment. `TRAFFIC_SYNC` picks the policy: `percommit` (default,
//! an fsync inside every commit) or `interval` (group commit, at most one
//! fsync per 5 ms window).
//!
//! `TRAFFIC_FAULT_RATE=<0.0..1.0>` injects storage chaos into the run:
//! the database moves onto the in-memory fault-injecting [`wal::SimFs`]
//! (implying a durable, write-ahead-logged run), every log write fails
//! transiently (`EINTR`-style) with the given probability, and commits go
//! through [`topodb::Transaction::try_commit`] so the retry/backoff
//! machinery — not a panic — absorbs the faults. The txn percentiles then
//! include retry backoff, and the recorded `traffic/wal/*` metrics report
//! what the retry machinery actually did.
//!
//! Knobs: `TRAFFIC_CLIENTS` (threads), `TRAFFIC_RATE` (ops/s per client),
//! `TRAFFIC_OPS` (ops per client), `TRAFFIC_MIX`, `TRAFFIC_MAP`,
//! `TRAFFIC_WAL`, `TRAFFIC_SYNC`, `TRAFFIC_FAULT_RATE`. `--test` smoke
//! mode shrinks the volume knobs so CI merely exercises every path once
//! per class.
//!
//! Recorded metrics (`{id, value}` records in `BENCH_JSON`, merged into
//! `BENCH_arrangement.json` by `scripts/bench_snapshot.sh`):
//! `traffic/<class>/p50_ns`, `traffic/<class>/p99_ns` and
//! `traffic/<class>/ops` for each class in `mixed`/`read`/`query`/`txn`,
//! plus `traffic/offered_ops_per_s`, `traffic/achieved_ops_per_s` and
//! `traffic/durable` (1 when the run went through a write-ahead log). A
//! faulted run additionally records `traffic/fault_rate`,
//! `traffic/wal/transient_retries`, `traffic/wal/retries_exhausted`,
//! `traffic/wal/degraded` and `traffic/wal/degraded_rejections`.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use topodb::query::PreparedQuery;
use topodb::{SyncPolicy, TopoDatabase, WalConfig};

/// Operation classes, indexed by the discriminant stored per sample.
const READ: usize = 0;
const QUERY: usize = 1;
const TXN: usize = 2;
const CLASS_NAMES: [&str; 3] = ["read", "query", "txn"];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

/// The workload shape: out of every 10 scheduled operations, how many are
/// reads / queries / transactions.
fn mix_weights() -> ([usize; 3], &'static str) {
    match std::env::var("TRAFFIC_MIX").unwrap_or_default().trim().to_ascii_lowercase().as_str() {
        "txn-heavy" | "txn_heavy" | "write-heavy" => ([3, 3, 4], "txn-heavy"),
        _ => ([6, 3, 1], "read-heavy"),
    }
}

/// The base map: `(clusters, regions per cluster, label)`.
fn map_shape() -> (usize, usize, &'static str) {
    match std::env::var("TRAFFIC_MAP").unwrap_or_default().trim().to_ascii_lowercase().as_str() {
        "clustered4096" | "large" | "4096" => (64, 64, "clustered4096"),
        _ => (8, 4, "small"),
    }
}

/// Should the run commit through a write-ahead log? `TRAFFIC_WAL=on` (or
/// `1`/`true`/`yes`) says yes.
fn wal_enabled() -> bool {
    matches!(
        std::env::var("TRAFFIC_WAL").unwrap_or_default().trim().to_ascii_lowercase().as_str(),
        "1" | "on" | "true" | "yes"
    )
}

/// Sync policy for a `TRAFFIC_WAL=on` run: `percommit` (default) or
/// `interval` (group commit, 5 ms window).
fn wal_sync() -> (SyncPolicy, &'static str) {
    match std::env::var("TRAFFIC_SYNC").unwrap_or_default().trim().to_ascii_lowercase().as_str() {
        "interval" | "group" => (SyncPolicy::Interval(Duration::from_millis(5)), "interval"),
        _ => (SyncPolicy::PerCommit, "percommit"),
    }
}

/// Probability (0.0–1.0) that any individual log write fails transiently,
/// from `TRAFFIC_FAULT_RATE`. Non-zero implies a durable run on the
/// fault-injecting in-memory backend.
fn fault_rate() -> f64 {
    std::env::var("TRAFFIC_FAULT_RATE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|r| (0.0..=1.0).contains(r))
        .unwrap_or(0.0)
}

/// The throwaway log directory of a `TRAFFIC_WAL=on` run, deleted on drop.
struct LogDir(std::path::PathBuf);

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Nearest-rank percentile over an already-sorted sample vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One client's replay: issue `ops` operations on the open-loop schedule,
/// returning `(class, latency_ns)` per operation.
#[allow(clippy::too_many_arguments)]
fn run_client(
    db: &TopoDatabase,
    queries: &[PreparedQuery],
    names: &[String],
    mix: [usize; 3],
    clusters: usize,
    tid: usize,
    ops: usize,
    period: Duration,
    start: Instant,
) -> Vec<(usize, u64)> {
    let mut rng = StdRng::seed_from_u64(0x7af1c + tid as u64);
    let mut inserted: Vec<String> = Vec::new();
    let mut serial = 0usize;
    let mut samples = Vec::with_capacity(ops);
    for i in 0..ops {
        let scheduled = period * (i as u32);
        // Sleep only if ahead of schedule; when behind, fire immediately so
        // the backlog shows up as queueing delay in the measured latency.
        let now = start.elapsed();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        }
        let roll = rng.gen_range(0..10usize);
        let class = if roll < mix[READ] {
            let a = &names[rng.gen_range(0..names.len())];
            let b = &names[rng.gen_range(0..names.len())];
            let snap = db.snapshot();
            std::hint::black_box(snap.relation(a, b).expect("base regions exist"));
            READ
        } else if roll < mix[READ] + mix[QUERY] {
            let q = &queries[rng.gen_range(0..queries.len())];
            let snap = db.snapshot();
            std::hint::black_box(snap.evaluate(q).expect("anchored query evaluates"));
            QUERY
        } else {
            let cluster = tid % clusters;
            let mut txn = db.begin_shared();
            if inserted.len() >= 4 {
                // Keep the thread-local working set bounded: retire the
                // oldest extra region instead of growing forever.
                txn.remove(inserted.remove(0));
            } else {
                let name = format!("T{tid:02}_N{serial:04}");
                serial += 1;
                txn.insert(name.clone(), datagen::cluster_rect(&mut rng, cluster, clusters));
                inserted.push(name);
            }
            // Under TRAFFIC_FAULT_RATE the commit may fail typed (retries
            // exhausted → degraded, then fail-fast rejections); the
            // latency of the failure path is as real as the success path,
            // and the health counters report what happened.
            let _ = txn.try_commit();
            TXN
        };
        samples.push((class, (start.elapsed() - scheduled).as_nanos() as u64));
    }
    samples
}

fn traffic(_c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let default_clients =
        if smoke { 2 } else { arrangement::parallel::available_threads().clamp(2, 8) };
    let clients = env_usize("TRAFFIC_CLIENTS", default_clients);
    let rate = env_usize("TRAFFIC_RATE", if smoke { 1000 } else { 200 });
    let ops = env_usize("TRAFFIC_OPS", if smoke { 30 } else { 400 });
    let (mix, mix_label) = mix_weights();
    let (clusters, per_cluster, map_label) = map_shape();
    let period = Duration::from_secs(1).div_f64(rate as f64);

    let map = datagen::clustered_map(clusters, per_cluster, 4242);
    let (sync, sync_label) = wal_sync();
    let faults = fault_rate();
    let mut _log_dir = None;
    let db = if faults > 0.0 {
        // Chaos run: the log lives on an in-memory SimFs whose writes fail
        // transiently at the configured rate. Deterministic in the seed,
        // nothing on disk to clean up.
        use topodb::wal::{FaultPlan, SimFs};
        let sim = SimFs::new();
        let opts = topodb::StorageOptions::from_wal_config(WalConfig::default().with_sync(sync))
            .with_vfs(std::sync::Arc::new(sim.clone()));
        let db = TopoDatabase::create_with_storage("/traffic-wal", map, opts)
            .expect("create durable traffic database on SimFs");
        // Arm the faults only once the log exists: creation is setup, the
        // measured run is what the chaos targets.
        sim.set_plan(FaultPlan::none().transient_write_rate(faults, 0x7af1c));
        db
    } else if wal_enabled() {
        let dir = std::env::temp_dir().join(format!("traffic-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WalConfig::default().with_sync(sync);
        let db = TopoDatabase::create_with_config(&dir, map, cfg)
            .expect("create durable traffic database");
        _log_dir = Some(LogDir(dir));
        db
    } else {
        TopoDatabase::from_instance(map)
    };
    let names: Vec<String> = db.names();
    // Warm the initial snapshot outside the measured window so the first
    // scheduled read does not pay the cold build.
    db.snapshot();
    let queries: Vec<PreparedQuery> = (0..clusters)
        .map(|c| {
            PreparedQuery::compile(&format!("overlap(ext(x), C{c:03}_R000)"))
                .expect("anchored open query compiles")
        })
        .collect();

    eprintln!(
        "traffic: {clients} clients x {ops} ops at {rate} ops/s each \
         (offered {} ops/s total, {mix_label} mix, {map_label} map, {}{})",
        clients * rate,
        if faults > 0.0 {
            format!("simfs wal {sync_label}, fault rate {faults}")
        } else if db.durable() {
            format!("wal {sync_label}")
        } else {
            "no wal".to_string()
        },
        if smoke { ", smoke mode" } else { "" }
    );

    let start = Instant::now();
    let per_client: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                let db = &db;
                let queries = &queries;
                let names = &names;
                scope.spawn(move || {
                    run_client(db, queries, names, mix, clusters, tid, ops, period, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = start.elapsed();

    let mut by_class: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut mixed: Vec<u64> = Vec::with_capacity(clients * ops);
    for samples in &per_client {
        for &(class, ns) in samples {
            by_class[class].push(ns);
            mixed.push(ns);
        }
    }
    mixed.sort_unstable();
    let achieved = mixed.len() as f64 / wall.as_secs_f64();
    record_metric("traffic/offered_ops_per_s", (clients * rate) as f64);
    record_metric("traffic/achieved_ops_per_s", achieved);
    record_metric("traffic/durable", if db.durable() { 1.0 } else { 0.0 });
    record_metric("traffic/mixed/ops", mixed.len() as f64);
    record_metric("traffic/mixed/p50_ns", percentile(&mixed, 0.50) as f64);
    record_metric("traffic/mixed/p99_ns", percentile(&mixed, 0.99) as f64);
    for (class, lat) in by_class.iter_mut().enumerate() {
        lat.sort_unstable();
        record_metric(format!("traffic/{}/ops", CLASS_NAMES[class]), lat.len() as f64);
        record_metric(format!("traffic/{}/p50_ns", CLASS_NAMES[class]), percentile(lat, 0.50) as f64);
        record_metric(format!("traffic/{}/p99_ns", CLASS_NAMES[class]), percentile(lat, 0.99) as f64);
    }
    if faults > 0.0 {
        // What the retry machinery did under the injected fault rate: how
        // many transients it absorbed, and whether any commit exhausted
        // its budget (degrading the database for the rest of the run).
        let h = db.health();
        record_metric("traffic/fault_rate", faults);
        record_metric("traffic/wal/transient_retries", h.transient_retries as f64);
        record_metric("traffic/wal/retries_exhausted", h.retries_exhausted as f64);
        record_metric("traffic/wal/degraded", if h.degraded.is_some() { 1.0 } else { 0.0 });
        record_metric("traffic/wal/degraded_rejections", h.degraded_commit_rejections as f64);
        eprintln!(
            "traffic: fault rate {faults}: {} transient retries, {} exhausted, degraded: {}",
            h.transient_retries,
            h.retries_exhausted,
            h.degraded.is_some()
        );
    }
    if !smoke {
        assert!(
            by_class.iter().all(|lat| !lat.is_empty()),
            "every operation class must appear in a full traffic run"
        );
    }
    println!("test traffic ... ok");
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = traffic
}
criterion_main!(benches);
