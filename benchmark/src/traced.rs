//! The traced pass: one client replays a sequence with a span around every
//! facade call, and after each transaction, fresh query and read
//! re-executes the stages behind it through [`crate::layers`] on the same
//! input (the *shadow decomposition*), so per-layer time is measured from
//! outside the program. End-to-end numbers never come from this pass.

use crate::countfs::{CountingFs, IoCounts};
use crate::driver::{self, first_on_epoch, Target};
use crate::layers::{self, ComponentMap};
use crate::trace::{Span, Tracer};
use crate::workload::{Edit, Op};
use spatial_core::instance::SpatialInstance;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wal::Wal;

/// Operation id of spans that belong to no operation of the sequence.
const ONCE: u32 = u32::MAX;

/// Values that are not span durations (counter deltas, sizes, ratios),
/// collected per metric name.
pub type Observations = BTreeMap<&'static str, Vec<f64>>;

fn observe(obs: &mut Observations, name: &'static str, value: f64) {
    obs.entry(name).or_default().push(value);
}

/// A write-ahead log the shadow decomposition appends to, on the real
/// filesystem behind the counting decorator. Every workload gets one, so
/// the `wal.*` layer metrics exist for the in-memory workloads too.
pub struct ShadowLog {
    /// `None` once the log has been closed for the reopen.
    log: Option<Wal>,
    fs: Arc<CountingFs>,
    dir: PathBuf,
    epoch: u64,
    /// The instance after the last shadow append.
    instance: SpatialInstance,
}

impl ShadowLog {
    pub fn create(dir: PathBuf, instance: &SpatialInstance) -> Result<ShadowLog, wal::WalError> {
        let fs = CountingFs::new(wal::RealFs::shared());
        let log = layers::wal_create(fs.clone(), &dir, instance)?;
        Ok(ShadowLog {
            log: Some(log),
            fs,
            dir,
            epoch: 0,
            instance: instance.clone(),
        })
    }
}

pub struct TracedPass {
    pub tracer: Tracer,
    pub obs: Observations,
    /// Host-speed bursts taken before, during and after the pass.
    pub bursts: Vec<f64>,
    /// Operations and once-only layer checks executed, and how many of
    /// them failed or disagreed with their re-execution.
    pub executed: usize,
    pub failed: usize,
}

impl TracedPass {
    pub fn new() -> TracedPass {
        TracedPass {
            tracer: Tracer::new(),
            obs: Observations::new(),
            bursts: Vec::new(),
            executed: 0,
            failed: 0,
        }
    }

    fn checked(&mut self, ok: bool) {
        self.executed += 1;
        self.failed += usize::from(!ok);
    }
}

/// Replay `ops` with tracing until the sequence or the deadline ends.
pub fn run(
    pass: &mut TracedPass,
    target: &Target<'_>,
    ops: &[Op],
    deadline: Duration,
    shadow: &mut ShadowLog,
) {
    let start = Instant::now();
    let every = (ops.len() / crate::driver::SLICES).max(1);
    for (i, op) in ops.iter().enumerate() {
        if start.elapsed() >= deadline {
            break;
        }
        if i % every == 0 {
            pass.bursts.push(crate::hostprobe::burst());
        }
        pass.tracer.set_op(i as u32);
        let ok = match op {
            Op::Read { a, b } => read(pass, target, *a, *b),
            Op::Query { q } => query(pass, target, *q),
            Op::Txn(edits) => txn(pass, target, edits, shadow),
        };
        pass.checked(ok);
    }
    pass.bursts.push(crate::hostprobe::burst());
}

fn read(pass: &mut TracedPass, target: &Target<'_>, a: usize, b: usize) -> bool {
    let (a, b) = (&target.names[a], &target.names[b]);
    let obs = &mut pass.obs;
    pass.tracer.span("op.read", |t| {
        let (view, served) = t.span("facade.read", |t| {
            let snapshot = t.leaf("topodb.snapshot", || target.db.snapshot());
            let view = snapshot.complex_view();
            let widened = view.label_widenings();
            let served = t.leaf("topodb.relation", || snapshot.relation(a, b));
            observe(
                obs,
                "label_widenings",
                (view.label_widenings() - widened) as f64,
            );
            (view, served)
        });
        let direct = t.leaf("relations.relation", || layers::relation(&view, a, b));
        served.is_ok() && served.ok() == direct
    })
}

fn query(pass: &mut TracedPass, target: &Target<'_>, q: usize) -> bool {
    let query = &target.queries[q];
    let obs = &mut pass.obs;
    pass.tracer.span("op.query", |t| {
        let (snapshot, fresh, served) = t.span("facade.query", |t| {
            let snapshot = t.leaf("topodb.snapshot", || target.db.snapshot());
            let fresh = first_on_epoch(&target.evaluated_epoch, snapshot.epoch());
            let served = t.leaf("topodb.evaluate", || snapshot.evaluate(query));
            (snapshot, fresh, served)
        });
        if fresh {
            // What the first query on an epoch pays for, redone on a view
            // of its own so none of the snapshot's caches are warm.
            t.span("shadow.fresh_query", |t| {
                let view = snapshot.complex_view();
                let fresh_view = t.leaf("arrangement.view_assemble", || {
                    layers::view_assemble(snapshot.names(), view.components().to_vec())
                });
                let index = t.leaf("arrangement.index_build", || {
                    layers::index_build(&fresh_view)
                });
                t.leaf("query.evaluator_build", || {
                    layers::evaluator_build(&fresh_view, index)
                });
            });
        }
        let evaluator = snapshot.evaluator();
        let index = snapshot.spatial_index();
        let before = (
            evaluator.assignments_tried(),
            index.probe_count(),
            evaluator.rel_shortcuts(),
        );
        let direct = t.leaf("query.run_warm", || layers::query_run(query, &evaluator));
        let tried = evaluator.assignments_tried() - before.0;
        let rows = direct
            .as_ref()
            .map_or(0, |o| o.bindings().map_or(1, <[_]>::len));
        observe(obs, "assignments", tried as f64);
        observe(obs, "rows", rows as f64);
        observe(obs, "index_probes", (index.probe_count() - before.1) as f64);
        observe(
            obs,
            "rel_shortcuts",
            (evaluator.rel_shortcuts() - before.2) as f64,
        );
        served.is_ok() && served.ok() == direct.ok()
    })
}

fn txn(pass: &mut TracedPass, target: &Target<'_>, edits: &[Edit], shadow: &mut ShadowLog) -> bool {
    let db = target.db;
    let obs = &mut pass.obs;
    pass.tracer.span("op.txn", |t| {
        // The state the commit starts from; one client, so nothing moves
        // between this capture and the commit.
        let base = db.instance();
        let base_components: ComponentMap = db.component_complexes().into_iter().collect();
        let rebuilt_before = db.component_rebuild_count();
        let counters_before = layers::phase_counters();
        let served = t.leaf("facade.txn", || driver::commit(db, edits));
        let work = layers::phase_counters().delta_since(&counters_before);
        observe(obs, "events", work.events_processed as f64);
        observe(obs, "chains", work.chains_merged as f64);
        observe(obs, "cells", work.cells_walked as f64);
        observe(obs, "labels", work.labels_propagated as f64);
        observe(
            obs,
            "components_rebuilt",
            (db.component_rebuild_count() - rebuilt_before) as f64,
        );

        let (next, changed, shadow_ok) = t.span("shadow.commit", |t| {
            let (next, changed) = t.leaf("spatial_core.instance_clone", || {
                layers::instance_apply(&base, edits)
            });
            let set = t.leaf("arrangement.reuse_build", || {
                layers::reuse_build(&next, &changed, &base_components)
            });
            observe(obs, "components_reused_share", {
                100.0 * (set.components.len() - set.rebuilt) as f64 / set.components.len() as f64
            });
            let names = next.names().into_iter().map(String::from).collect();
            t.leaf("arrangement.view_assemble", || {
                layers::view_assemble(names, set.components)
            });

            let record = layers::batch_record(shadow.epoch + 1, edits, &changed);
            let framed = t.leaf("wal.encode", || layers::wal_encode(&record));
            observe(obs, "record_bytes", framed.len() as f64);
            let io_before = shadow.fs.counts();
            let log = shadow
                .log
                .as_ref()
                .expect("shadow log is open during the pass");
            let appended = t.leaf("wal.append", || layers::wal_append(log, &record, &next));
            let io: IoCounts = shadow.fs.counts().since(&io_before);
            observe(obs, "wal_writes", io.writes as f64);
            observe(obs, "wal_bytes", io.bytes as f64);
            observe(obs, "wal_syncs", io.syncs as f64);
            let ok = appended.is_ok_and(|outcome| outcome.maintenance.is_none());
            if ok {
                shadow.epoch += 1;
                shadow.instance = next.clone();
            }
            (next, changed, ok)
        });

        t.span("shadow.kernels", |t| {
            let groups = t.leaf("arrangement.partition", || layers::partition(&next));
            let names = next.names();
            for group in &groups {
                let key: Vec<String> = group
                    .region_indices
                    .iter()
                    .map(|&i| names[i].to_string())
                    .collect();
                if !layers::touched(&key, &changed, &base_components) {
                    continue;
                }
                let alone = layers::group_instance(&next, group);
                t.leaf("arrangement.split", || {
                    layers::split(&layers::segments(&alone))
                });
                t.leaf("arrangement.component_build", || {
                    layers::component_build(&next, group)
                });
            }
            for edit in edits {
                if let Edit::Insert(_, region) = edit {
                    let bytes = t.leaf("spatial_core.wire_encode", || layers::wire_encode(region));
                    observe(obs, "user_bytes", bytes.len() as f64);
                }
            }
        });
        shadow_ok && served.is_ok_and(|summary| summary.changed == changed)
    })
}

/// Layers no operation of the workloads routes through, or that run once
/// per database: timed once on the initial instance.
pub fn once_layers(pass: &mut TracedPass, spec: &crate::workload::Spec, query_texts: &[String]) {
    pass.tracer.set_op(ONCE);
    let obs = &mut pass.obs;
    let mut checks: Vec<bool> = Vec::new();
    pass.tracer.span("once.layers", |t| {
        let instance = t.leaf("datagen.generate", || layers::generate(spec));
        let view = t.leaf("arrangement.cold_build", || layers::cold_build(&instance));
        for text in query_texts {
            t.leaf("query.compile", || layers::compile(text));
        }

        // Paper pipeline steps 3 and 4: invariant, then thematic database.
        let invariant = t.leaf("invariant.build", || layers::invariant_build(&view));
        t.leaf("invariant.thematic", || layers::thematic_build(&invariant));

        // Corollary 3.7 on a six-region sub-instance: the first-order
        // evaluator over the thematic database enumerates the active domain
        // per quantifier and does not finish on a whole map.
        let names = instance.names();
        let small = SpatialInstance::from_regions(names.iter().take(6).map(|n| {
            (
                n.to_string(),
                instance.ext(n).expect("named region").clone(),
            )
        }));
        let small_view = layers::cold_build(&small);
        let thematic = layers::thematic_build(&layers::invariant_build(&small_view));
        let sentence = layers::compile(&crate::workload::Shape::Sentence.text(names[0]));
        let by_thematic = t.leaf("query.thematic_eval", || {
            layers::thematic_eval(&thematic, sentence.formula())
        });
        let index = layers::index_build(&small_view);
        let by_cells = layers::query_run(&sentence, &layers::evaluator_build(&small_view, index));
        checks
            .push(by_thematic.is_some() && by_thematic == by_cells.ok().and_then(|o| o.as_bool()));

        // One region's whole row of the relation matrix, 20 seeded regions.
        let step = (names.len() / 20).max(1);
        for name in names.iter().step_by(step).take(20) {
            let row = t.leaf("relations.row", || layers::relation_row(&view, name));
            checks.push(row.is_some_and(|r| r.len() == names.len() - 1));
        }

        // The exact-rational segment predicate under every sweep.
        let segments = layers::segments(&instance);
        let segments = &segments[..segments.len().min(200)];
        let mut calls = 0u64;
        let begin = Instant::now();
        for (i, a) in segments.iter().enumerate() {
            for b in &segments[i + 1..] {
                std::hint::black_box(layers::segment_intersect(&a.segment, &b.segment));
                calls += 1;
            }
        }
        observe(
            obs,
            "segment_intersect_ns",
            begin.elapsed().as_nanos() as f64 / calls.max(1) as f64,
        );
    });
    for ok in checks {
        pass.checked(ok);
    }
}

/// After the pass: scan the shadow log, reopen it as a database (which
/// replays it), and checkpoint. The reopened state must be the state the
/// shadow appended, or the log stages timed something else.
pub fn log_layers(pass: &mut TracedPass, shadow: &mut ShadowLog) {
    pass.tracer.set_op(ONCE);
    let obs = &mut pass.obs;
    let mut checks: Vec<bool> = Vec::new();
    pass.tracer.span("once.log", |t| {
        let scan = t.leaf("wal.scan", || {
            layers::wal_scan(shadow.fs.as_ref(), &shadow.dir)
        });
        observe(
            obs,
            "replayed_records",
            scan.as_ref().map_or(0.0, |r| r.records.len() as f64),
        );
        checks.push(scan.is_ok_and(|r| r.head_epoch() == shadow.epoch));
        drop(shadow.log.take());
        let opened = t.leaf("topodb.open", || {
            layers::db_open(&shadow.dir, shadow.fs.clone()).inspect(|db| {
                db.snapshot();
            })
        });
        match opened {
            Ok(db) => {
                checks.push(*db.instance() == shadow.instance);
                checks.push(t.leaf("wal.checkpoint", || layers::checkpoint(&db)).is_ok());
            }
            Err(_) => checks.push(false),
        }
    });
    for ok in checks {
        pass.checked(ok);
    }
}

/// For every traced commit: `(commit ns, ns of the shadow stages that
/// re-execute it)`. The log stages count only where the real commit logs.
pub fn commit_attribution(spans: &[Span], durable: bool) -> Vec<(f64, f64)> {
    let mut by_op: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for span in spans {
        let stage = match span.name {
            "facade.txn" => {
                by_op.entry(span.op).or_default().0 = span.duration_ns() as f64;
                continue;
            }
            "spatial_core.instance_clone" | "arrangement.reuse_build" => true,
            "wal.encode" | "wal.append" => durable,
            // view assembly is also part of the fresh-query shadow
            "arrangement.view_assemble" => span
                .parent
                .is_some_and(|p| spans[p as usize].name == "shadow.commit"),
            _ => false,
        };
        if stage {
            by_op.entry(span.op).or_default().1 += span.duration_ns() as f64;
        }
    }
    by_op
        .into_values()
        .filter(|(commit, _)| *commit > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_sums_the_commit_stages_per_operation() {
        let span = |id, parent, op, name, start_ns, end_ns| Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, None, 4, "op.txn", 0, 1000),
            span(1, Some(0), 4, "facade.txn", 0, 400),
            span(2, Some(0), 4, "shadow.commit", 400, 900),
            span(3, Some(2), 4, "spatial_core.instance_clone", 400, 450),
            span(4, Some(2), 4, "arrangement.reuse_build", 450, 650),
            span(5, Some(2), 4, "arrangement.view_assemble", 650, 700),
            span(6, Some(2), 4, "wal.encode", 700, 710),
            span(7, Some(2), 4, "wal.append", 710, 800),
            span(8, None, 5, "op.query", 1000, 2000),
            span(9, Some(8), 5, "shadow.fresh_query", 1500, 1900),
            span(10, Some(9), 5, "arrangement.view_assemble", 1500, 1600),
        ];
        assert_eq!(commit_attribution(&spans, false), vec![(400.0, 300.0)]);
        assert_eq!(commit_attribution(&spans, true), vec![(400.0, 400.0)]);
    }
}
