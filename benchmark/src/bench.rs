//! One benchmark run of one workload: set-up, the closed loop, the
//! correctness gate, and the metrics. Untraced runs give the end-to-end
//! metrics; traced runs give the per-layer ones.

use crate::countfs::CountingFs;
use crate::driver::{self, ClientRun, Pass, Target};
use crate::hostprobe;
use crate::metrics::{Metric, Report, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, supported_tail};
use crate::trace;
use crate::traced::{self, ShadowLog, TracedPass};
use crate::verify::{self, Gate};
use crate::workload::{Map, Op, QueryPool, Spec, CLASS_NAMES};
use spatial_core::instance::SpatialInstance;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use topodb::{PreparedQuery, StorageOptions, TopoDatabase};

/// Set-up runs this many times per untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Recovery runs this many times; `recovery_s` is the median.
const RECOVERY_REPS: usize = 3;
/// Each pass of a traced run replays this share of the untraced run's
/// per-client sequence.
const TRACE_SHARE: f64 = 0.25;
/// Transactions replayed on the simulated filesystem for the power cut.
const POWER_CUT_TXNS: usize = 200;

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    /// 1% of the operations, one set-up, one recovery.
    pub smoke: bool,
    /// Where span files and scratch directories go.
    pub out: PathBuf,
}

impl Config {
    fn scale(&self) -> f64 {
        if self.smoke {
            0.01
        } else {
            1.0
        }
    }
}

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, digests, gate failures.
    pub notes: Vec<String>,
}

/// A scratch directory under the output directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path, label: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A database ready to serve, and the inputs generated with it.
struct Env {
    db: TopoDatabase,
    base: SpatialInstance,
    names: Vec<String>,
    pool: QueryPool,
    queries: Vec<PreparedQuery>,
    /// The log directory and its counting filesystem (durable workloads).
    storage: Option<(Scratch, Arc<CountingFs>)>,
}

/// Set-up, timed: generate the map, construct the database (creating the
/// log where the workload is durable), first snapshot (the cold build),
/// first evaluator build, and compile the query pool. Returns the
/// environment and the seconds (of the reference host) it took.
fn set_up(spec: &Spec, cfg: &Config) -> (Env, f64) {
    let scratch = spec.durable.then(|| Scratch::new(&cfg.out, spec.name));
    hostprobe::timed(|| build_env(spec, scratch))
}

fn build_env(spec: &Spec, scratch: Option<Scratch>) -> Env {
    let base = spec.instance();
    let (db, storage) = match scratch {
        None => (TopoDatabase::from_instance(base.clone()), None),
        Some(scratch) => {
            let fs = CountingFs::new(topodb::wal::RealFs::shared());
            let options = StorageOptions::default().with_vfs(fs.clone());
            let db = TopoDatabase::create_with_storage(&scratch.0, base.clone(), options)
                .unwrap_or_else(|e| panic!("create log in {}: {e}", scratch.0.display()));
            (db, Some((scratch, fs)))
        }
    };
    db.snapshot().evaluator();
    let names: Vec<String> = base.names().into_iter().map(String::from).collect();
    let pool = QueryPool::new(&names);
    let queries = pool
        .texts
        .iter()
        .map(|t| PreparedQuery::compile(t).expect("pooled query compiles"))
        .collect();
    Env {
        db,
        base,
        names,
        pool,
        queries,
        storage,
    }
}

fn sequences(spec: &Spec, cfg: &Config, env: &Env, clients: usize, len: usize) -> Vec<Vec<Op>> {
    (0..clients)
        .map(|c| spec.op_sequence(cfg.seed, c, len, env.names.len(), &env.pool))
        .collect()
}

/// Resident memory of this process now, in MB.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

/// A value under a metric name, with the samples behind it.
type Named = (&'static str, f64, Option<usize>);

/// What the callers of a pass saw, under the end-to-end metric names:
/// throughput and per-class latency percentiles, in time of the reference
/// host. Also notes the sample counts.
fn caller_metrics(pass: &Pass, notes: &mut Vec<String>) -> Vec<Named> {
    let mut out: Vec<Named> = vec![("ops_per_s", pass.ops_per_s(), None)];
    let mut class =
        |label: &str, keep: fn(&driver::Sample) -> bool, wanted: &[(&'static str, f64)]| {
            let sorted = pass.latencies(keep);
            for (name, p) in wanted {
                out.push((name, us(percentile(&sorted, *p)), Some(sorted.len())));
            }
            let tail = supported_tail(sorted.len()) * 100.0;
            let mut line = format!(
                "samples {label}: {} (tail supported: p{tail})",
                sorted.len()
            );
            if sorted.len() >= 1000 {
                line += &format!(
                    ", p99 {:.1} us (informational)",
                    us(percentile(&sorted, 0.99))
                );
            }
            notes.push(line);
        };
    class(
        "read",
        driver::is_read,
        &[("read_p50_us", 0.5), ("read_p95_us", 0.95)],
    );
    // the median over queries that found their epoch's evaluator built (the
    // warm path); the tail over all queries, as a caller meets them
    class(
        "warm_query",
        driver::is_warm_query,
        &[("query_p50_us", 0.5)],
    );
    class("query", driver::is_query, &[("query_p95_us", 0.95)]);
    class(
        "fresh_query",
        driver::is_fresh_query,
        &[("fresh_query_p50_us", 0.5)],
    );
    class(
        "txn",
        driver::is_txn,
        &[("txn_p50_us", 0.5), ("txn_p95_us", 0.95)],
    );
    notes.push(format!(
        "host factor {:.3}: durations above are divided by it (1.0 = the quiet reference host)",
        pass.host_factor()
    ));
    out
}

/// Operations executed and failed in a pass; the first failure of each
/// client goes into the notes.
fn tally(runs: &[ClientRun], notes: &mut Vec<String>) -> (usize, usize) {
    notes.extend(
        runs.iter()
            .filter_map(|r| r.first_failure.as_ref())
            .map(|f| format!("FAILED {f}")),
    );
    (
        runs.iter().map(|r| r.executed).sum(),
        runs.iter().map(|r| r.failed).sum(),
    )
}

/// Every measured operation of a pass, for analysis outside the harness:
/// client, class, fresh flag, slice, raw nanoseconds, host factor of the slice.
fn write_samples(path: &Path, pass: &Pass) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client,class,fresh,slice,ns,host_factor")?;
    for (client, run) in pass.runs.iter().enumerate() {
        for s in &run.samples {
            let class = CLASS_NAMES[s.class];
            writeln!(
                out,
                "{client},{class},{},{},{},{}",
                u8::from(s.fresh),
                s.slice,
                s.ns,
                pass.factor(s.slice)
            )?;
        }
    }
    out.flush()
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(spec: &Spec, cfg: &Config) -> Outcome {
    let mut notes = Vec::new();
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut env = None;
    for _ in 0..reps {
        drop(env.take()); // one database (and one log directory) at a time
        let (e, t) = set_up(spec, cfg);
        setup_times.push(t);
        env = Some(e);
    }
    let env = env.expect("set up at least once");
    let len = spec.ops_per_client(cfg.seconds, cfg.scale());
    let seqs = sequences(spec, cfg, &env, spec.clients, len);

    let target = Target::new(&env.db, &env.names, &env.queries);
    let pass = driver::run_pass(&target, &seqs, Duration::from_secs(cfg.seconds));
    let runs = &pass.runs;
    let (mut attempted, mut failed) = tally(runs, &mut notes);

    let mut report = Report::new(END_TO_END);
    report.put(
        "setup_s",
        median(&setup_times).unwrap_or(0.0),
        Some(setup_times.len()),
    );
    for (name, value, n) in caller_metrics(&pass, &mut notes) {
        report.put_listed(name, value, n);
    }
    if let Err(e) = write_samples(&cfg.out.join(format!("samples-{}.csv", spec.name)), &pass) {
        notes.push(format!("cannot write the sample file: {e}"));
    }
    let truncated = runs.iter().filter(|r| r.executed < len).count();
    if truncated > 0 {
        notes.push(format!(
            "{truncated} client(s) stopped at the {} s deadline",
            cfg.seconds
        ));
    }
    if spec.clients == 1 {
        notes.push(format!("result_digest {:016x}", runs[0].digest));
    }

    // Recovery, then the gate against a database built from scratch.
    let served = env.db.snapshot();
    let final_instance = (*env.db.instance()).clone();
    let final_epoch = env.db.update_epoch();
    let mut gate = Gate::default();
    gate.check(env.db.health().degraded.is_none(), || {
        "database degraded during the run".into()
    });
    let Env {
        db,
        base,
        names,
        queries,
        storage,
        ..
    } = env;
    drop(db); // durable: the handle goes away without a checkpoint
    let recoveries = if cfg.smoke { 1 } else { RECOVERY_REPS };
    let mut recovery_times = Vec::new();
    let mut recovered = None;
    for _ in 0..recoveries {
        drop(recovered.take());
        let copy = final_instance.clone();
        let (db, secs) = hostprobe::timed(|| {
            let db = match &storage {
                // a restart of an in-memory database is a cold build
                None => TopoDatabase::from_instance(copy),
                Some((scratch, fs)) => {
                    let options = StorageOptions::default().with_vfs(fs.clone());
                    TopoDatabase::open_with_storage(&scratch.0, options)
                        .unwrap_or_else(|e| panic!("reopen {}: {e}", scratch.0.display()))
                }
            };
            db.snapshot();
            db
        });
        recovery_times.push(secs);
        recovered = Some(db);
    }
    report.put(
        "recovery_s",
        median(&recovery_times).unwrap_or(0.0),
        Some(recovery_times.len()),
    );
    let recovered = recovered.expect("recovered at least once");
    let same_state = *recovered.instance() == final_instance
        && (!spec.durable || recovered.update_epoch() == final_epoch);
    gate.check(same_state, || {
        "recovered database differs from the state before the restart".into()
    });
    let oracle = if spec.durable {
        TopoDatabase::from_instance(final_instance)
    } else {
        recovered
    };
    gate.absorb(verify::against_oracle(
        &served,
        &oracle.snapshot(),
        &names,
        runs,
        &queries,
        cfg.seed,
    ));
    if spec.map == Map::Dense {
        gate.check(served.complex_view().component_count() == 1, || {
            "the dense map split into several components".into()
        });
    }
    if spec.durable {
        let txns = (POWER_CUT_TXNS as f64 * cfg.scale()).ceil().max(5.0) as usize;
        gate.absorb(verify::power_cut(
            &base,
            &verify::first_txns(&seqs[0], txns),
        ));
    }
    attempted += gate.checks;
    failed += gate.failures.len();
    notes.extend(gate.failures.iter().map(|f| format!("FAILED {f}")));
    Outcome {
        attempted,
        failed,
        metrics: report.finish(),
        notes,
    }
}

/// Median of a span's durations in nanoseconds of the reference host (0
/// when it never ran), and how often it ran.
fn span_ns(
    spans: &std::collections::BTreeMap<&'static str, Vec<f64>>,
    name: &str,
    host: f64,
) -> (f64, usize) {
    spans
        .get(name)
        .map_or((0.0, 0), |v| (median(v).unwrap_or(0.0) / host, v.len()))
}

/// The traced run: every per-layer metric. Three passes, each on a fresh
/// database: all clients untraced (contention counters), one client
/// untraced (the baseline for tracing overhead), one client traced.
pub fn per_layer(spec: &Spec, cfg: &Config) -> Outcome {
    let mut notes = Vec::new();
    let budget = Duration::from_secs(cfg.seconds);
    let len =
        ((spec.ops_per_client(cfg.seconds, cfg.scale()) as f64 * TRACE_SHARE) as usize).max(10);
    let mut report = Report::new(PER_LAYER);

    // Pass 0: the workload's own client count, untraced.
    let (env, _) = set_up(spec, cfg);
    let seqs = sequences(spec, cfg, &env, spec.clients, len);
    let io_before = env.storage.as_ref().map(|(_, fs)| fs.counts());
    let pass0 = driver::run_pass(
        &Target::new(&env.db, &env.names, &env.queries),
        &seqs,
        budget / 4,
    );
    report.put("rss_mb", rss_mb(), None);
    let (mut attempted, mut failed) = tally(&pass0.runs, &mut notes);
    let commits: usize = pass0.runs.iter().map(|r| r.acked_txns.len()).sum();
    // End-to-end candidates too unsteady to carry a bound are reported
    // here, from this untraced pass, under their own names.
    for (name, value, n) in caller_metrics(&pass0, &mut notes) {
        report.put_listed(name, value, n);
    }
    let health = env.db.health();
    report.put(
        "topodb.publish_conflicts_per_commit",
        env.db.publish_conflict_count() as f64 / commits.max(1) as f64,
        Some(commits),
    );
    report.put(
        "topodb.transient_retries",
        health.transient_retries as f64,
        None,
    );
    report.put(
        "topodb.degraded",
        f64::from(u8::from(health.degraded.is_some())),
        None,
    );
    let checkpoints = env
        .storage
        .as_ref()
        .zip(io_before)
        .map_or(0, |((_, fs), before)| {
            fs.counts().since(&before).checkpoints
        });
    report.put("wal.checkpoints", checkpoints as f64, None);
    drop(env);

    // Pass 1: one client, untraced.
    let (env, _) = set_up(spec, cfg);
    let baseline = driver::run_pass(
        &Target::new(&env.db, &env.names, &env.queries),
        &seqs[..1],
        budget / 4,
    );
    let (a, f) = tally(&baseline.runs, &mut notes);
    attempted += a;
    failed += f;
    let done = baseline.runs[0].executed;
    let untraced_txn = baseline.latencies(driver::is_txn);
    drop(env);

    // Pass 2: the same operations, traced, with the shadow decomposition.
    let (env, _) = set_up(spec, cfg);
    let shadow_dir = Scratch::new(&cfg.out, &format!("{}-shadow", spec.name));
    let mut shadow = ShadowLog::create(shadow_dir.0.clone(), &env.base)
        .unwrap_or_else(|e| panic!("create shadow log in {}: {e}", shadow_dir.0.display()));
    let mut pass = TracedPass::new();
    traced::once_layers(&mut pass, spec, &env.pool.texts);
    let target = Target::new(&env.db, &env.names, &env.queries);
    traced::run(
        &mut pass,
        &target,
        &seqs[0][..done],
        budget * 3 / 5,
        &mut shadow,
    );
    traced::log_layers(&mut pass, &mut shadow);
    attempted += pass.executed;
    failed += pass.failed;
    if pass.failed > 0 {
        notes.push(format!(
            "FAILED {} traced operation(s) or layer check(s)",
            pass.failed
        ));
    }

    let spans = pass.tracer.spans();
    let trace_file = cfg.out.join(format!("trace-{}.jsonl", spec.name));
    match trace::write_jsonl(&trace_file, spans) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            trace_file.display()
        )),
        Err(e) => {
            failed += 1;
            notes.push(format!("FAILED writing {}: {e}", trace_file.display()));
        }
    }
    // One host factor for the whole traced pass: the per-layer numbers are
    // informational and a single client has no slices to pause between.
    let host = median(&pass.bursts).unwrap_or(hostprobe::REFERENCE_NS) / hostprobe::REFERENCE_NS;
    report.put("harness.host_factor", host, Some(pass.bursts.len()));
    let by_name = trace::durations_by_name(spans);
    // (metric, span, nanoseconds per unit of the metric)
    let timed: [(&str, &str, f64); 24] = [
        ("datagen.generate_ms", "datagen.generate", 1e6),
        (
            "spatial_core.instance_clone_us",
            "spatial_core.instance_clone",
            1e3,
        ),
        (
            "spatial_core.wire_encode_ns_per_region",
            "spatial_core.wire_encode",
            1.0,
        ),
        ("arrangement.cold_build_ms", "arrangement.cold_build", 1e6),
        ("arrangement.partition_us", "arrangement.partition", 1e3),
        ("arrangement.split_us", "arrangement.split", 1e3),
        (
            "arrangement.component_build_us",
            "arrangement.component_build",
            1e3,
        ),
        ("arrangement.reuse_build_us", "arrangement.reuse_build", 1e3),
        (
            "arrangement.view_assemble_us",
            "arrangement.view_assemble",
            1e3,
        ),
        ("arrangement.index_build_us", "arrangement.index_build", 1e3),
        ("relations.relation_ns", "relations.relation", 1.0),
        ("relations.row_us", "relations.row", 1e3),
        ("query.compile_us", "query.compile", 1e3),
        ("query.evaluator_build_us", "query.evaluator_build", 1e3),
        ("query.run_warm_us", "query.run_warm", 1e3),
        ("query.thematic_eval_ms", "query.thematic_eval", 1e6),
        ("invariant.build_ms", "invariant.build", 1e6),
        ("invariant.thematic_ms", "invariant.thematic", 1e6),
        ("wal.encode_ns", "wal.encode", 1.0),
        ("wal.append_us", "wal.append", 1e3),
        ("wal.checkpoint_ms", "wal.checkpoint", 1e6),
        ("wal.scan_ms", "wal.scan", 1e6),
        ("topodb.open_ms", "topodb.open", 1e6),
        ("topodb.snapshot_ns", "topodb.snapshot", 1.0),
    ];
    for (metric, span, per_unit) in timed {
        let (ns, n) = span_ns(&by_name, span, host);
        report.put(metric, ns / per_unit, Some(n));
    }
    let (commit_ns, n) = span_ns(&by_name, "facade.txn", host);
    report.put("topodb.commit_us", commit_ns / 1e3, Some(n));

    let attribution = traced::commit_attribution(spans, spec.durable);
    let shares: Vec<f64> = attribution.iter().map(|(c, a)| 100.0 * a / c).collect();
    let rest: Vec<f64> = attribution
        .iter()
        .map(|(c, a)| (c - a) / host / 1e3)
        .collect();
    report.put(
        "topodb.commit_attributed_share",
        median(&shares).unwrap_or(0.0),
        Some(shares.len()),
    );
    report.put(
        "topodb.commit_unattributed_us",
        median(&rest).unwrap_or(0.0),
        Some(rest.len()),
    );

    let obs = &pass.obs;
    let avg = |name: &str| obs.get(name).and_then(|v| mean(v)).unwrap_or(0.0);
    let sum = |name: &str| obs.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let count = |name: &str| obs.get(name).map_or(0, Vec::len);
    for (metric, observed) in [
        ("arrangement.events_per_commit", "events"),
        ("arrangement.chains_per_commit", "chains"),
        ("arrangement.cells_per_commit", "cells"),
        ("arrangement.labels_per_commit", "labels"),
        (
            "arrangement.components_rebuilt_per_commit",
            "components_rebuilt",
        ),
        (
            "arrangement.components_reused_share",
            "components_reused_share",
        ),
        ("arrangement.label_widenings_per_read", "label_widenings"),
        ("arrangement.index_probes_per_query", "index_probes"),
        ("wal.writes_per_commit", "wal_writes"),
        ("wal.bytes_per_commit", "wal_bytes"),
        ("wal.syncs_per_commit", "wal_syncs"),
        ("wal.replayed_records", "replayed_records"),
    ] {
        report.put(metric, avg(observed), Some(count(observed)));
    }
    report.put(
        "spatial_core.segment_intersect_ns",
        avg("segment_intersect_ns") / host,
        None,
    );
    report.put(
        "wal.record_bytes",
        obs.get("record_bytes")
            .and_then(|v| median(v))
            .unwrap_or(0.0),
        Some(count("record_bytes")),
    );
    report.put(
        "wal.bytes_per_user_byte",
        sum("wal_bytes") / sum("user_bytes").max(1.0),
        None,
    );
    report.put(
        "query.assignments_per_row",
        sum("assignments") / sum("rows").max(1.0),
        Some(count("rows")),
    );
    // The evaluator counts bounding-box shortcuts but not the relation
    // atoms it evaluated, so a hit rate cannot be formed; the count is
    // given per candidate assignment instead.
    report.put(
        "query.rel_shortcuts_per_assignment",
        sum("rel_shortcuts") / sum("assignments").max(1.0),
        Some(count("assignments")),
    );

    let untraced_p50 = us(percentile(&untraced_txn, 0.5));
    let overhead = if untraced_p50 > 0.0 {
        100.0 * (commit_ns / 1e3 - untraced_p50) / untraced_p50
    } else {
        0.0
    };
    report.put(
        "harness.trace_overhead_pct",
        overhead,
        Some(untraced_txn.len()),
    );
    report.put(
        "harness.failed_op_share",
        100.0 * failed as f64 / attempted.max(1) as f64,
        Some(attempted),
    );

    let mut by_class = [0usize; 3];
    for op in &seqs[0][..done] {
        by_class[op.class()] += 1;
    }
    notes.push(format!(
        "traced operations: {}={} {}={} {}={}",
        CLASS_NAMES[0], by_class[0], CLASS_NAMES[1], by_class[1], CLASS_NAMES[2], by_class[2]
    ));
    Outcome {
        attempted,
        failed,
        metrics: report.finish(),
        notes,
    }
}
