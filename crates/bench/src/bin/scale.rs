//! The scale ruler: how the database's per-epoch costs grow with the
//! number of regions, measured through the public API only.
//!
//! For each size, `clustered_map(c, 16, 1)` (16 regions in each of `c`
//! clusters) is loaded with `TopoDatabase::from_instance`, then committed to
//! round after round: each round's transaction inserts one `cluster_rect`
//! into a seeded cluster and removes the oldest of the four names it holds,
//! as the benchmark's clustered workloads do. On each round's new snapshot
//! the ruler times `evaluator()`, then `overlap(ext(x), C000_R000)` (the
//! first, fresh evaluation on the new epoch), then the same query anchored
//! in the middle cluster, `overlap(ext(x), C{c/2}_R000)` (a young one: the
//! epoch has answered a query, but not on these names), then the first
//! query again (warm).
//!
//! Columns: the cold build (ms), and the medians over the rounds of the
//! commit, `evaluator()`, the fresh, the young and the warm query (µs). One
//! JSON line per run, with its label, is appended to the output file.
//!
//! ```text
//! cargo run --release -p bench --bin scale -- --label "my change"
//! cargo run --release -p bench --bin scale -- --clusters 16 --out /tmp/scale.jsonl
//! ```
//!
//! Options: `--clusters 16,64,256,1024` (the sizes, as cluster counts),
//! `--label TEXT` (default `unlabelled`), `--out PATH` (default
//! `BENCH_scale.jsonl`).

use datagen::{cluster_rect, clustered_map};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write;
use std::time::Instant;
use topodb::{PreparedQuery, TopoDatabase};

/// Regions per cluster of every map.
const PER_CLUSTER: usize = 16;

/// Names each round's transaction holds before it removes the oldest.
const HELD: usize = 4;

/// One size's measurements.
struct Row {
    clusters: usize,
    regions: usize,
    rounds: usize,
    cold_build_ms: f64,
    commit_us: f64,
    evaluator_us: f64,
    fresh_overlap_us: f64,
    young_overlap_us: f64,
    warm_overlap_us: f64,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Fewer rounds at the largest sizes, whose commits take milliseconds.
fn rounds_for(regions: usize) -> usize {
    if regions > 4096 {
        21
    } else {
        61
    }
}

fn measure(clusters: usize) -> Row {
    let map = clustered_map(clusters, PER_CLUSTER, 1);
    let regions = map.len();
    let start = Instant::now();
    let db = TopoDatabase::from_instance(map);
    let cold_build_ms = micros(start) / 1e3;

    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("the query compiles");
    let elsewhere = format!("overlap(ext(x), C{:03}_R000)", clusters / 2);
    let young_query = PreparedQuery::compile(&elsewhere).expect("the query compiles");
    let mut rng = StdRng::seed_from_u64(52);
    let mut held: VecDeque<String> = VecDeque::new();
    let rounds = rounds_for(regions);
    let (mut commit, mut evaluator) = (vec![], vec![]);
    let (mut fresh, mut young, mut warm) = (vec![], vec![], vec![]);
    for serial in 0..HELD + rounds {
        let cluster = rng.gen_range(0..clusters);
        let name = format!("X{serial:06}");
        let region = cluster_rect(&mut rng, cluster, clusters);
        let start = Instant::now();
        let mut txn = db.begin_shared();
        txn.insert(name.clone(), region);
        if held.len() == HELD {
            txn.remove(held.pop_front().expect("names held"));
        }
        txn.try_commit().expect("the commit publishes");
        let elapsed = micros(start);
        held.push_back(name);
        if serial < HELD {
            continue;
        }
        commit.push(elapsed);

        let snapshot = db.snapshot();
        let start = Instant::now();
        let _ = snapshot.evaluator();
        evaluator.push(micros(start));
        for (query, times) in [(&query, &mut fresh), (&young_query, &mut young), (&query, &mut warm)] {
            let start = Instant::now();
            let answer = snapshot.evaluate(query).expect("the query runs");
            times.push(micros(start));
            std::hint::black_box(answer);
        }
    }
    Row {
        clusters,
        regions,
        rounds,
        cold_build_ms,
        commit_us: median(commit),
        evaluator_us: median(evaluator),
        fresh_overlap_us: median(fresh),
        young_overlap_us: median(young),
        warm_overlap_us: median(warm),
    }
}

/// A JSON string literal of `s`.
fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_line(label: &str, rows: &[Row]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clusters\":{},\"regions\":{},\"rounds\":{},\"cold_build_ms\":{:.3},\"commit_p50_us\":{:.1},\
                 \"evaluator_p50_us\":{:.1},\"fresh_overlap_p50_us\":{:.1},\"young_overlap_p50_us\":{:.1},\
                 \"warm_overlap_p50_us\":{:.1}}}",
                r.clusters,
                r.regions,
                r.rounds,
                r.cold_build_ms,
                r.commit_us,
                r.evaluator_us,
                r.fresh_overlap_us,
                r.young_overlap_us,
                r.warm_overlap_us
            )
        })
        .collect();
    format!("{{\"label\":{},\"cpus\":{cpus},\"sizes\":[{}]}}", quoted(label), sizes.join(","))
}

fn main() {
    let mut clusters = vec![16, 64, 256, 1024];
    let mut label = "unlabelled".to_string();
    let mut out = "BENCH_scale.jsonl".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("{flag} takes a value"));
        match flag.as_str() {
            "--clusters" => {
                clusters = value().split(',').map(|c| c.trim().parse().expect("a cluster count")).collect()
            }
            "--label" => label = value(),
            "--out" => out = value(),
            _ => panic!("unknown option {flag}; see the module docs"),
        }
    }

    println!(
        "{:>8} {:>8} {:>7} {:>14} {:>12} {:>14} {:>13} {:>12} {:>12}",
        "clusters", "regions", "rounds", "cold_build_ms", "commit_us", "evaluator_us", "fresh_q_us", "young_q_us",
        "warm_q_us"
    );
    let mut rows = Vec::new();
    for c in clusters {
        let r = measure(c);
        println!(
            "{:>8} {:>8} {:>7} {:>14.1} {:>12.1} {:>14.1} {:>13.1} {:>12.1} {:>12.1}",
            r.clusters, r.regions, r.rounds, r.cold_build_ms, r.commit_us, r.evaluator_us, r.fresh_overlap_us,
            r.young_overlap_us, r.warm_overlap_us
        );
        rows.push(r);
    }
    let line = json_line(&label, &rows);
    let mut file = OpenOptions::new().create(true).append(true).open(&out).expect("the output file opens");
    writeln!(file, "{line}").expect("the line is written");
    println!("appended to {out}");
}
