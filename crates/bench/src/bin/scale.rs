//! The scale ruler: how the database's per-epoch costs and the paper's
//! kernels grow with the size of their input, measured through the public
//! API only (`topodb` and its re-exports).
//!
//! **Clustered columns.** For each size, `clustered_map(c, 16, 1)` (16
//! regions in each of `c` clusters) is loaded with
//! `TopoDatabase::from_instance` (the cold build, Theorem 3.5; the Euler
//! formula must hold on its view). On that first snapshot the ruler times
//! `homeomorphic_to` a second database loaded from the map translated by
//! (7, 3) (Theorem 3.4; the answer must be yes) and `thematic()`
//! (Corollary 3.7). Then it commits round after round: each round's
//! transaction inserts one `cluster_rect` into a seeded cluster and removes
//! the oldest of the four names it holds, as the benchmark's clustered
//! workloads do. On each round's new snapshot the ruler times `evaluator()`,
//! then `overlap(ext(x), C000_R000)` (the first, fresh evaluation on the new
//! epoch), then the same query anchored in the middle cluster,
//! `overlap(ext(x), C{c/2}_R000)` (a young one: the epoch has answered a
//! query, but not on these names), then the first query again (warm), and
//! last `forallname a . not inside(ext(a), C000_R000)` evaluated twice, the
//! second time timed (a warm universal sentence). On the first round the
//! universal sentence's answer must equal that of its grounding, the
//! conjunction of `not inside(N, C000_R000)` over every name `N`. A column is the cold
//! build, `homeomorphic_to` or `thematic()` (ms), or the median over the
//! rounds of a per-round time (µs).
//!
//! **Kernel families.** Each runs at the fixed sizes below, whatever the
//! options, and reports the median time of one call (µs):
//! - `e11_validate_{valid,corrupted}`: `invariant::validate` of the
//!   invariant of `clustered_map(c, 16, 1)`, c = 1, 4, 16, 64, and of the
//!   same with a region's face made the exterior (Theorem 3.8; the result
//!   must be empty, then non-empty);
//! - `e14_sentence`: `class_defining_sentence` of the grid maps of
//!   `scaling_sweep([4, 16, 36, 64])` (Proposition 5.1 / Theorem 5.6);
//! - `e16_rect_data`: `RectEvaluator::eval` of a one-quantifier sentence on
//!   `random_rectangles(n, 40, 11)`, n = 3, 5, 8 (Theorem 6.4), and
//!   `e16_rect_depth`: sentences of quantifier depth 1 and 2 on
//!   `random_rectangles(4, 30, 5)` (Theorem 6.5);
//! - `e17_{satisfiable,unsatisfiable}`: satisfiability of the constraint
//!   network of `random_rectangles(n, 40, 17)` and of a containment chain
//!   closed by a disjointness, n = 4, 6, 8 variables (\[GPP95\]).
//!
//! The size of a clustered column is its number of regions. For every
//! column and family with at least two sizes, the ruler also reports the
//! least-squares slope of ln(time) against ln(size): the exponent of the
//! power law the times fit. Slopes are recorded, not gated. One JSON line
//! per run, with its label, is appended to the output file.
//!
//! ```text
//! cargo run --release -p bench --bin scale -- --label "my change"
//! cargo run --release -p bench --bin scale -- --clusters 16 --out /tmp/scale.jsonl
//! ```
//!
//! Options: `--clusters 16,64,256,1024` (the sizes, as cluster counts),
//! `--label TEXT` (default `unlabelled`), `--out PATH` (default
//! `BENCH_scale.jsonl`).

use datagen::{cluster_rect, clustered_map, random_rectangles, scaling_sweep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use topodb::arrangement::ComplexRead;
use topodb::invariant::{validate, Invariant};
use topodb::query::complete::class_defining_sentence;
use topodb::query::rect_eval::RectEvaluator;
use topodb::query::{Formula, RegionExpr};
use topodb::relations::{network_of_instance, ConstraintNetwork, Relation4, RelationSet};
use topodb::{PreparedQuery, TopoDatabase};

/// Regions per cluster of every map.
const PER_CLUSTER: usize = 16;

/// Names each round's transaction holds before it removes the oldest.
const HELD: usize = 4;

/// The kernel families' sizes: E11's cluster counts, E14's grid sizes,
/// E16's rectangle counts and E17's variable counts.
const VALIDATE_CLUSTERS: [usize; 4] = [1, 4, 16, 64];
const SENTENCE_REGIONS: [usize; 4] = [4, 16, 36, 64];
const RECT_REGIONS: [usize; 3] = [3, 5, 8];
const NETWORK_VARIABLES: [usize; 3] = [4, 6, 8];

/// E16's sentences: the data-complexity sentence, and one per quantifier
/// depth for the query-complexity pair.
const RECT_SENTENCE: &str = "exists r . overlap(r, R000) and overlap(r, R001)";
const RECT_DEPTHS: [&str; 2] =
    ["exists r . overlap(r, R000)", "exists r . exists s . overlap(r, R000) and disjoint(r, s)"];

/// The rectangles of the depth pair's instance. `RectEvaluator::eval`
/// miniscopes the depth-2 sentence to `exists r . overlap(r, R000) and
/// exists s . disjoint(r, s)`, so `s` ranges only for an `r` that overlaps.
const RECT_DEPTH_REGIONS: usize = 4;

/// One clustered size's columns, named as in the JSON line.
struct Row {
    clusters: usize,
    regions: usize,
    rounds: usize,
    columns: Vec<(&'static str, f64)>,
}

/// A time over sizes: a clustered column or a kernel family.
struct Series {
    name: &'static str,
    points: Vec<(usize, f64)>,
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

/// The median time of one call of `f` (µs) over five samples of as many
/// calls as take about 2 ms. A first call over 100 ms is the only sample.
fn time_kernel<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let once = micros(start);
    if once > 1e5 {
        return once;
    }
    let calls = (2e3 / once.max(0.1)).ceil() as usize;
    let samples = (0..5).map(|_| {
        let start = Instant::now();
        (0..calls).for_each(|_| drop(black_box(f())));
        micros(start) / calls as f64
    });
    median(samples.collect())
}

fn measure(clusters: usize) -> Row {
    let map = clustered_map(clusters, PER_CLUSTER, 1);
    let regions = map.len();
    let moved = map.translated(7, 3);
    let start = Instant::now();
    let db = TopoDatabase::from_instance(map);
    let cold_build_ms = micros(start) / 1e3;
    // The first snapshot and the translate are dropped before the rounds.
    let (homeomorphic_ms, thematic_ms) = {
        let snapshot = db.snapshot();
        assert!(snapshot.complex_view().euler_formula_holds(), "Euler's formula holds at {regions} regions");
        let other = TopoDatabase::from_instance(moved).snapshot();
        let start = Instant::now();
        assert!(snapshot.homeomorphic_to(&other), "a translate is homeomorphic");
        let homeomorphic_ms = micros(start) / 1e3;
        let start = Instant::now();
        black_box(snapshot.thematic());
        (homeomorphic_ms, micros(start) / 1e3)
    };

    let compile = |text: &str| PreparedQuery::compile(text).expect("the query compiles");
    let query = compile("overlap(ext(x), C000_R000)");
    let young_query = compile(&format!("overlap(ext(x), C{:03}_R000)", clusters / 2));
    let universal = compile("forallname a . not inside(ext(a), C000_R000)");
    let mut rng = StdRng::seed_from_u64(52);
    let mut held: VecDeque<String> = VecDeque::new();
    let rounds = rounds_for(regions);
    let (mut commit, mut evaluator) = (vec![], vec![]);
    let (mut fresh, mut young, mut warm, mut forall) = (vec![], vec![], vec![], vec![]);
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
        // The answer is dropped after its time is taken.
        let time = |query: &PreparedQuery| {
            let start = Instant::now();
            let answer = snapshot.evaluate(query).expect("the query runs");
            (micros(start), answer)
        };
        fresh.push(time(&query).0);
        young.push(time(&young_query).0);
        warm.push(time(&query).0);
        time(&universal);
        let (elapsed, answer) = time(&universal);
        forall.push(elapsed);
        if serial == HELD {
            let grounded = snapshot.evaluate(&grounded_universal(&snapshot.names())).expect("the grounding runs");
            assert_eq!(answer, grounded, "the universal sentence agrees with its grounding at {regions} regions");
        }
    }
    Row {
        clusters,
        regions,
        rounds,
        columns: vec![
            ("cold_build_ms", cold_build_ms),
            ("commit_p50_us", median(commit)),
            ("evaluator_p50_us", median(evaluator)),
            ("fresh_overlap_p50_us", median(fresh)),
            ("young_overlap_p50_us", median(young)),
            ("warm_overlap_p50_us", median(warm)),
            ("warm_forall_p50_us", median(forall)),
            ("homeomorphic_ms", homeomorphic_ms),
            ("thematic_ms", thematic_ms),
        ],
    }
}

/// The universal sentence with its quantifier grounded: a conjunction of
/// `not inside(N, C000_R000)` over every name `N`, which no name quantifier
/// and so no candidate generator evaluates.
fn grounded_universal(names: &[String]) -> PreparedQuery {
    let anchor = RegionExpr::named("C000_R000");
    let parts = names.iter().map(|n| Formula::not(Formula::rel(Relation4::Inside, RegionExpr::named(n.as_str()), anchor.clone())));
    PreparedQuery::from_formula(Formula::and(parts.collect())).expect("a sentence")
}

/// The kernel families, at their fixed sizes.
fn kernel_families() -> Vec<Series> {
    let (mut valid, mut corrupted) = (vec![], vec![]);
    for clusters in VALIDATE_CLUSTERS {
        let map = clustered_map(clusters, PER_CLUSTER, 1);
        let inv = Invariant::of_instance(&map);
        valid.push((map.len(), time_kernel(|| assert!(validate(&inv).is_empty()))));
        let broken = inv.with_exterior(inv.region_faces(map.names()[0])[0]);
        corrupted.push((map.len(), time_kernel(|| assert!(!validate(&broken).is_empty()))));
    }

    let sentence = scaling_sweep(&SENTENCE_REGIONS)
        .into_iter()
        .map(|(n, grid)| {
            let inv = Invariant::of_instance(&grid);
            (n, time_kernel(|| class_defining_sentence(&inv).size()))
        })
        .collect();

    let rect_eval = |inst, text| {
        let evaluator = RectEvaluator::new(&inst).expect("rectangles");
        let formula = topodb::query::parse(text).expect("the sentence parses");
        time_kernel(|| evaluator.eval(&formula).expect("the sentence evaluates"))
    };
    let rect_data = RECT_REGIONS.map(|n| (n, rect_eval(random_rectangles(n, 40, 11), RECT_SENTENCE)));
    let rect_depth = (1..)
        .zip(RECT_DEPTHS)
        .map(|(depth, text)| (depth, rect_eval(random_rectangles(RECT_DEPTH_REGIONS, 30, 5), text)));

    let (mut satisfiable, mut unsatisfiable) = (vec![], vec![]);
    for n in NETWORK_VARIABLES {
        let net = network_of_instance(&random_rectangles(n, 40, 17));
        satisfiable.push((n, time_kernel(|| assert!(net.is_satisfiable()))));
        let mut bad = ConstraintNetwork::unconstrained(n);
        for i in 0..n - 1 {
            bad.constrain_base(i, i + 1, Relation4::Inside);
        }
        bad.constrain(0, n - 1, RelationSet::from_slice(&[Relation4::Disjoint, Relation4::Meet]));
        unsatisfiable.push((n, time_kernel(|| assert!(!bad.is_satisfiable()))));
    }

    vec![
        Series { name: "e11_validate_valid", points: valid },
        Series { name: "e11_validate_corrupted", points: corrupted },
        Series { name: "e14_sentence", points: sentence },
        Series { name: "e16_rect_data", points: rect_data.to_vec() },
        Series { name: "e16_rect_depth", points: rect_depth.collect() },
        Series { name: "e17_satisfiable", points: satisfiable },
        Series { name: "e17_unsatisfiable", points: unsatisfiable },
    ]
}

/// The least-squares slope of ln(time) against ln(size) over `points`, or
/// `None` with fewer than two distinct sizes or a non-positive value.
fn log_log_slope(points: &[(usize, f64)]) -> Option<f64> {
    if points.iter().any(|&(size, time)| size == 0 || time <= 0.0) {
        return None;
    }
    let logs: Vec<(f64, f64)> = points.iter().map(|&(size, time)| ((size as f64).ln(), time.ln())).collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mean_x) * (y - mean_y)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
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

fn json_line(label: &str, rows: &[Row], columns: &[Series], families: &[Series]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes: Vec<String> = rows
        .iter()
        .map(|r| {
            let columns: String = r.columns.iter().map(|(name, value)| format!(",\"{name}\":{value:.3}")).collect();
            format!("{{\"clusters\":{},\"regions\":{},\"rounds\":{}{columns}}}", r.clusters, r.regions, r.rounds)
        })
        .collect();
    let list = |values: Vec<String>| values.join(",");
    let family_lines: Vec<String> = families
        .iter()
        .map(|f| {
            let sizes = list(f.points.iter().map(|p| p.0.to_string()).collect());
            let times = list(f.points.iter().map(|p| format!("{:.3}", p.1)).collect());
            format!("{{\"name\":\"{}\",\"sizes\":[{sizes}],\"us\":[{times}]}}", f.name)
        })
        .collect();
    let slopes: Vec<String> = columns
        .iter()
        .chain(families.iter())
        .filter_map(|s| Some(format!("\"{}\":{:.3}", s.name, log_log_slope(&s.points)?)))
        .collect();
    format!(
        "{{\"label\":{},\"cpus\":{cpus},\"sizes\":[{}],\"families\":[{}],\"slopes\":{{{}}}}}",
        quoted(label),
        sizes.join(","),
        family_lines.join(","),
        slopes.join(",")
    )
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

    let rows: Vec<Row> = clusters
        .into_iter()
        .map(|c| {
            let row = measure(c);
            println!("measured {} clusters ({} regions, {} rounds)", row.clusters, row.regions, row.rounds);
            row
        })
        .collect();
    let columns: Vec<Series> = rows.first().map_or(vec![], |first| {
        let column = |i: usize| rows.iter().map(|r| (r.regions, r.columns[i].1)).collect();
        first.columns.iter().enumerate().map(|(i, &(name, _))| Series { name, points: column(i) }).collect()
    });
    let families = kernel_families();
    for s in columns.iter().chain(&families) {
        let points: Vec<String> = s.points.iter().map(|(size, time)| format!("{size}:{time:.1}")).collect();
        let slope = log_log_slope(&s.points).map_or(String::new(), |k| format!("  slope {k:.2}"));
        println!("{:<24} {}{slope}", s.name, points.join("  "));
    }
    let line = json_line(&label, &rows, &columns, &families);
    let mut file = OpenOptions::new().create(true).append(true).open(&out).expect("the output file opens");
    writeln!(file, "{line}").expect("the line is written");
    println!("appended to {out}");
}

#[cfg(test)]
mod tests {
    use super::log_log_slope;

    #[test]
    fn an_exact_power_law_returns_its_exponent() {
        for exponent in [0.5, 1.0, 2.0, 3.0] {
            let points: Vec<(usize, f64)> = [16, 64, 256, 1024].map(|n| (n, 7.0 * (n as f64).powf(exponent))).to_vec();
            let slope = log_log_slope(&points).expect("four sizes");
            assert!((slope - exponent).abs() < 1e-9, "slope {slope} for exponent {exponent}");
        }
        assert_eq!(log_log_slope(&[(16, 3.0)]), None, "one size has no slope");
        assert_eq!(log_log_slope(&[(16, 3.0), (64, 0.0)]), None, "a zero time has no logarithm");
    }
}
