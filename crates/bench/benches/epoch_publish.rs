//! The performance claim of the epoch chain: **snapshot acquisition is
//! wait-free**, so readers neither lock nor wait on writers.
//!
//! Three measurements:
//!
//! * `epoch_publish/snapshot_uncontended/chain` — bare `snapshot()` on a
//!   warm database with no writer in sight: one atomic load plus an `Arc`
//!   refcount bump.
//! * `epoch_publish/commit_and_read/chain` — one effective insert-commit
//!   followed by a snapshot read. The build happens inside the commit
//!   (epochs publish fully built); the read is measured with it so the
//!   figure covers the whole update→read round.
//! * `epoch_publish/chain/read_under_write_{p50,p99}_ns` — the headline:
//!   snapshot-acquisition latency sampled while a background writer commits
//!   continuously. Readers should be oblivious to the writer (they load
//!   whichever epoch is published). `scripts/bench_snapshot.sh` tracks the
//!   p99 on the perf trajectory.
//!
//! `epoch_publish/chain/publish_conflicts` records how many publish
//! compare-exchanges lost to a concurrent commit during the contended
//! phase (informational; with one writer it is 0).

use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

const CLUSTERS: usize = 16;
const PER_CLUSTER: usize = 4;

fn warm_db() -> TopoDatabase {
    let db = TopoDatabase::from_instance(datagen::clustered_map(CLUSTERS, PER_CLUSTER, 91));
    db.snapshot();
    db
}

/// Nearest-rank percentile over an already-sorted sample vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn snapshot_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_publish");
    let db = warm_db();
    group.bench_with_input(BenchmarkId::new("snapshot_uncontended", "chain"), &(), |b, _| {
        b.iter(|| black_box(db.snapshot()))
    });
    group.finish();
}

fn commit_and_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_publish");
    let db = warm_db();
    // One effective commit (alternating insert/remove of one name in one
    // cluster) plus the read that observes it.
    let mut present = false;
    group.bench_with_input(BenchmarkId::new("commit_and_read", "chain"), &(), |b, _| {
        b.iter(|| {
            let mut txn = db.begin_shared();
            if present {
                txn.remove("Churn");
            } else {
                txn.insert("Churn", Region::rect_from_ints(2, 2, 10, 10));
            }
            present = !present;
            txn.commit();
            black_box(db.snapshot())
        })
    });
    group.finish();
}

fn read_under_write(_c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let samples = if smoke { 50 } else { 5000 };
    let db = warm_db();
    let stop = AtomicBool::new(false);
    let mut latencies: Vec<u64> = Vec::with_capacity(samples);
    let mut commits = 0u64;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut present = false;
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut txn = db.begin_shared();
                if present {
                    txn.remove("Churn");
                } else {
                    txn.insert("Churn", Region::rect_from_ints(2, 2, 10, 10));
                }
                present = !present;
                txn.commit();
                commits += 1;
            }
            commits
        });
        // Let the writer actually get going before sampling.
        std::thread::sleep(Duration::from_millis(if smoke { 1 } else { 20 }));
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(db.snapshot());
            latencies.push(t0.elapsed().as_nanos() as u64);
        }
        stop.store(true, Ordering::Relaxed);
        commits = writer.join().expect("writer thread");
    });
    latencies.sort_unstable();
    record_metric(
        "epoch_publish/chain/read_under_write_p50_ns",
        percentile(&latencies, 0.50) as f64,
    );
    record_metric(
        "epoch_publish/chain/read_under_write_p99_ns",
        percentile(&latencies, 0.99) as f64,
    );
    eprintln!(
        "epoch_publish/chain: {commits} commits interleaved with {samples} reads \
         (p50 {} ns, p99 {} ns)",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99)
    );
    record_metric("epoch_publish/chain/publish_conflicts", db.publish_conflict_count() as f64);
    println!("test read_under_write ... ok");
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = snapshot_uncontended, commit_and_read, read_under_write
}
criterion_main!(benches);
