//! The metric names, units and bounds: the vocabulary later changes must
//! use. `BENCHMARK.json` lists exactly these (a test compares them).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a caller of the database sees. Reported by untraced runs only.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("fresh_query_p50_us", "us", Lower, 0.25),
    e2e("txn_p50_us", "us", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
];

/// One layer each. Reported by traced runs only; no bound.
pub const PER_LAYER: &[Def] = &[
    layer("datagen.generate_ms", "ms", Lower),
    layer("spatial_core.instance_clone_us", "us", Lower),
    layer("spatial_core.segment_intersect_ns", "ns", Lower),
    layer("spatial_core.wire_encode_ns_per_region", "ns", Lower),
    layer("arrangement.cold_build_ms", "ms", Lower),
    layer("arrangement.partition_us", "us", Lower),
    layer("arrangement.split_us", "us", Lower),
    layer("arrangement.component_build_us", "us", Lower),
    layer("arrangement.reuse_build_us", "us", Lower),
    layer("arrangement.view_assemble_us", "us", Lower),
    layer("arrangement.index_build_us", "us", Lower),
    layer("arrangement.events_per_commit", "count", Lower),
    layer("arrangement.chains_per_commit", "count", Lower),
    layer("arrangement.cells_per_commit", "count", Lower),
    layer("arrangement.labels_per_commit", "count", Lower),
    layer("arrangement.components_rebuilt_per_commit", "count", Lower),
    layer("arrangement.components_reused_share", "%", Higher),
    layer("arrangement.label_widenings_per_read", "count", Lower),
    layer("arrangement.index_probes_per_query", "count", Lower),
    layer("relations.relation_ns", "ns", Lower),
    layer("relations.row_us", "us", Lower),
    layer("query.compile_us", "us", Lower),
    layer("query.evaluator_build_us", "us", Lower),
    layer("query.run_warm_us", "us", Lower),
    layer("query.assignments_per_row", "count", Lower),
    layer("query.rel_shortcuts_per_assignment", "count", Higher),
    layer("query.thematic_eval_ms", "ms", Lower),
    layer("invariant.build_ms", "ms", Lower),
    layer("invariant.thematic_ms", "ms", Lower),
    layer("wal.encode_ns", "ns", Lower),
    layer("wal.record_bytes", "B", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.writes_per_commit", "count", Lower),
    layer("wal.bytes_per_commit", "B", Lower),
    layer("wal.syncs_per_commit", "count", Lower),
    layer("wal.bytes_per_user_byte", "B/B", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.scan_ms", "ms", Lower),
    layer("wal.replayed_records", "count", Lower),
    layer("topodb.open_ms", "ms", Lower),
    layer("topodb.snapshot_ns", "ns", Lower),
    layer("topodb.commit_us", "us", Lower),
    layer("topodb.commit_attributed_share", "%", Higher),
    layer("topodb.commit_unattributed_us", "us", Lower),
    layer("topodb.publish_conflicts_per_commit", "count", Lower),
    layer("topodb.transient_retries", "count", Lower),
    layer("topodb.degraded", "count", Lower),
    // Caller-visible tails and memory, measured in the untraced first pass
    // of a traced run: too unsteady on a shared host to carry a bound.
    layer("read_p95_us", "us", Lower),
    layer("query_p95_us", "us", Lower),
    layer("txn_p95_us", "us", Lower),
    layer("rss_mb", "MB", Lower),
    layer("harness.host_factor", "x", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.failed_op_share", "%", Lower),
];

/// A measured value under one of the names above.
#[derive(Clone)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Samples behind the value, where it is an order statistic.
    pub samples: Option<usize>,
}

/// Collects values and refuses names the tables above do not list, so the
/// output can never drift from `BENCHMARK.json`.
pub struct Report {
    table: &'static [Def],
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(table: &'static [Def]) -> Report {
        Report {
            table,
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        assert!(
            !self.metrics.iter().any(|m| m.def.name == def.name),
            "metric `{name}` reported twice"
        );
        self.metrics.push(Metric {
            def,
            value,
            samples,
        });
    }

    /// [`Report::put`] if the table lists `name`; otherwise nothing. For
    /// values that both kinds of run can measure and one table carries.
    pub fn put_listed(&mut self, name: &str, value: f64, samples: Option<usize>) {
        if self.table.iter().any(|d| d.name == name) {
            self.put(name, value, samples);
        }
    }

    /// Every metric of the table, in table order; panics if one is missing.
    pub fn finish(self) -> Vec<Metric> {
        self.table
            .iter()
            .map(|d| {
                self.metrics
                    .iter()
                    .find(|m| m.def.name == d.name)
                    .unwrap_or_else(|| panic!("metric `{}` was never reported", d.name))
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units, directions and bounds in `BENCHMARK.json` are the
    /// ones in this file. The JSON is simple enough to scan by hand.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key}"));
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            text[open + 1..close].to_string()
        };
        let field = |object: &str, key: &str| -> Option<String> {
            let at = object.find(&format!("\"{key}\""))?;
            let rest = object[at..].split_once(':')?.1.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"').to_string())
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            let objects: Vec<&str> = body.split('{').skip(1).collect();
            assert_eq!(objects.len(), table.len(), "{key}: metric count");
            for (object, def) in objects.iter().zip(table) {
                assert_eq!(field(object, "name").as_deref(), Some(def.name));
                assert_eq!(
                    field(object, "unit").as_deref(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    field(object, "better").as_deref(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = field(object, "bound").map(|b| b.parse::<f64>().unwrap());
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
        let workloads = section("workloads");
        for spec in &crate::workload::SPECS {
            assert!(
                workloads.contains(&format!("\"{}\"", spec.name)),
                "{}",
                spec.name
            );
        }
        assert_eq!(
            workloads.split('{').count() - 1,
            crate::workload::SPECS.len()
        );
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_names_are_refused() {
        Report::new(END_TO_END).put("made_up_ms", 1.0, None);
    }
}
