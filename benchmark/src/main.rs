//! `topobench`: the repository's benchmark. Closed-loop workloads over the
//! `TopoDatabase` facade, verified answers, end-to-end metrics from untraced
//! runs and per-layer metrics from a separate traced run. See `README.md`.

mod bench;
mod countfs;
mod driver;
mod hostprobe;
mod layers;
mod metrics;
mod stats;
mod trace;
mod traced;
mod verify;
mod workload;

use bench::{Config, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, SPECS};

/// Variables that switch behaviour inside the program under test. They are
/// removed so the numbers are those of the defaults whatever the caller's
/// shell holds.
const SCRUBBED: [&str; 7] = [
    "ARRANGEMENT_THREADS",
    "ARRANGEMENT_STRIPS",
    "ARRANGEMENT_PHASE_PARALLEL",
    "QUERY_PLANNER",
    "TOPODB_EPOCH_CHAIN",
    "TOPODB_WAL",
    "TOPODB_VFS",
];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 25;
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--smoke]
  --workload  one of serve_256, serve_1024, edit_dense, durable_edits (default: all four)
  --seed      seed of the generated map, query pool and operation sequences (default 42)
  --seconds   run length; the operation count scales with it (default 15)
  --trace     traced run: per-layer metrics instead of end-to-end ones
  --smoke     1% of the operations, to check that everything runs";

struct Args {
    workloads: Vec<&'static Spec>,
    trace: bool,
    cfg: Config,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: SPECS.iter().collect(),
        trace: false,
        cfg: Config {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            out: PathBuf::from(OUT_DIR),
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let spec = workload::spec(name).ok_or(format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![spec];
            }
            "--seed" => {
                parsed.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                parsed.cfg.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` for a traced run
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.cfg.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the driver reads: exactly these four keys.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.def.name),
                m.value,
                json_string(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// What was measured where: stamped into every report.
fn header_json(spec: &Spec, args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"clients\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_string(spec.name),
        args.cfg.seed,
        args.cfg.seconds,
        args.trace,
        args.cfg.smoke,
        spec.clients,
        nproc,
        json_string(&env("TOPOBENCH_RUSTC")),
        json_string(&env("TOPOBENCH_COMMIT")),
    )
}

fn run(spec: &'static Spec, args: &Args) -> bool {
    let header = header_json(spec, args);
    println!("# {header}");
    println!("# {}: {}", spec.name, spec.why);
    let outcome = if args.trace {
        bench::per_layer(spec, &args.cfg)
    } else {
        bench::end_to_end(spec, &args.cfg)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        let mut line = format!("{:<44} {:>16.4} {:<6}", m.def.name, m.value, m.def.unit);
        let _ = write!(line, " {} is better", m.def.better.as_str());
        if let Some(bound) = m.def.bound {
            let _ = write!(line, ", may worsen {:.0}%", bound * 100.0);
        }
        if let Some(n) = m.samples {
            let _ = write!(line, "  (n={n})");
        }
        println!("{line}");
    }
    let result = result_json(&outcome);
    let counts: Vec<String> = outcome
        .metrics
        .iter()
        .filter_map(|m| {
            m.samples
                .map(|n| format!("{}: {n}", json_string(m.def.name)))
        })
        .collect();
    let report = format!(
        "{{\"header\": {header}, \"samples\": {{{}}}, \"result\": {result}}}\n",
        counts.join(", ")
    );
    let kind = if args.trace { "layers" } else { "end-to-end" };
    let path = args
        .cfg
        .out
        .join(format!("report-{}-{kind}.json", spec.name));
    if let Err(e) = std::fs::write(&path, report) {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }
    println!("{result}");
    outcome.failed == 0
}

fn main() -> ExitCode {
    // Before any thread exists, so no other thread can be reading the
    // environment while it changes.
    for var in SCRUBBED {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.cfg.out) {
        eprintln!("cannot create {}: {e}", args.cfg.out.display());
        return ExitCode::FAILURE;
    }
    let mut all_correct = true;
    for spec in &args.workloads {
        all_correct &= run(spec, &args);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_command_lines_parse() {
        let a = args(&[
            "--workload",
            "edit_dense",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!((a.workloads.len(), a.workloads[0].name), (1, "edit_dense"));
        assert_eq!(
            (a.cfg.seed, a.cfg.seconds, a.trace, a.cfg.smoke),
            (7, 10, false, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.cfg.smoke && a.workloads.len() == 4);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            failed: 1,
            metrics: vec![metrics::Metric {
                def: &metrics::END_TO_END[0],
                value: 0.25,
                samples: Some(5),
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome),
            r#"{"correct": false, "attempted": 12, "failed": 1, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
