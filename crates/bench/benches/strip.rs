//! The performance claim of the intra-component parallel sweep: on a dense,
//! crossing-heavy map that forms **one** interaction component — exactly the
//! workload where `parallel_cold_build`'s component-level fan-out shows no
//! speedup, because there is only one component to fan out — decomposing the
//! Bentley–Ottmann splitting phase into concurrent x-strips
//! ([`arrangement::strip::split_segments_striped`]) makes wall time drop
//! with the thread count while the output stays sub-segment-identical to the
//! monolithic sweep (pinned by `tests/strip_differential.rs` and
//! `tests/thread_determinism.rs`).
//!
//! Series, all over the same `datagen::dense_overlap_map` instance (asserted
//! single-component):
//!
//! * `serial` — the monolithic sweep ([`split_segments`]), the pre-strip
//!   production path;
//! * `threads1` / `threads2` / `threadsmax` — the strip decomposition at a
//!   fixed strip count (the machine's available parallelism, at least 2, so
//!   the decomposition work is identical across the series) on 1, 2 and all
//!   worker threads. `threads1` isolates the decomposition overhead
//!   (clipping + seam events + stitching) without any parallelism.
//!
//! `scripts/bench_snapshot.sh` records the group into
//! `BENCH_arrangement.json`, gates `threadsmax` beating `serial` by >1.5x on
//! hosts with 4+ cores (on 2-3 cores it must simply win; on a single-core
//! host every series measures overhead, so the gate is skipped there), and
//! tracks `serial` in the regression gate.
//!
//! Alongside the timing series the group records seam-placement *balance*
//! metrics per size ({id, value} records): the per-strip processed-event
//! maximum, mean and skew (max/mean, 1.0 = perfectly balanced) under the
//! production crossing-density cost model ([`strip_event_counts`]) and
//! under the retired endpoint-quantile baseline
//! ([`strip_event_counts_quantile`]). The strip count of the slowest strip
//! bounds the parallel sweep's wall time, so the skew ratio is the
//! quantity the cost model exists to minimize.
//!
//! The second group, `phase_build`, times the whole per-component pipeline
//! (strip-decomposed split, then chain merge / face walks / labels / cell
//! assembly) on the dense 256-region single-component map through
//! [`arrangement::build_component_complexes`] on one thread (`threads1`,
//! every phase serial — the trajectory-gated series) and on all threads
//! (`threadsmax`, strips and post-split phases on the pool). Its per-phase
//! work counters ([`arrangement::counters`]) are recorded as
//! `phase_build/<phase>/<n>` metrics so parallel-efficiency regressions
//! (duplicated walks) stay visible even on a single-core bench host.

use arrangement::partition_instance;
use arrangement::split::{instance_segments, split_segments};
use arrangement::strip::{split_segments_striped, strip_event_counts, strip_event_counts_quantile};
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Grid side lengths of the dense single-component maps (`side²` regions).
/// The largest size is the gated data point; it is deliberately big enough
/// (1024 segments, ~2k crossings) that the fixed decomposition cost
/// (clipping + seam events + stitching, ~10-15% of the serial sweep) is
/// well amortized, so the multi-core speedup gate measures scaling rather
/// than overhead.
const DENSE_SIDES: [usize; 2] = [12, 16];

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

fn strip_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("strip_sweep");
    let max = arrangement::parallel::available_threads();
    let strips = max.max(2);
    for side in DENSE_SIDES {
        let n = side * side;
        let inst = datagen::dense_overlap_map(side, side, 4);
        assert_eq!(
            partition_instance(&inst).len(),
            1,
            "dense_overlap_map must be one interaction component"
        );
        let segments = instance_segments(&inst);

        group.bench_with_input(BenchmarkId::new("serial", n), &(), |b, _| {
            b.iter(|| black_box(split_segments(&segments)))
        });
        for (label, threads) in [("threads1", 1), ("threads2", 2), ("threadsmax", max)] {
            group.bench_with_input(BenchmarkId::new(label, n), &(), |b, _| {
                b.iter(|| black_box(split_segments_striped(&segments, strips, threads)))
            });
        }

        // Seam-balance diagnostics: per-strip event mass under both seam
        // policies, at the strip count the timing series run with.
        for (policy, counts) in [
            ("cost", strip_event_counts(&segments, strips)),
            ("quantile", strip_event_counts_quantile(&segments, strips)),
        ] {
            let total: u64 = counts.iter().sum();
            let max_events = counts.iter().copied().max().unwrap_or(0);
            let mean = total as f64 / counts.len().max(1) as f64;
            let skew = if mean > 0.0 { max_events as f64 / mean } else { 1.0 };
            record_metric(format!("strip_sweep/events_total_{policy}/{n}"), total as f64);
            record_metric(format!("strip_sweep/events_max_{policy}/{n}"), max_events as f64);
            record_metric(format!("strip_sweep/seam_skew_{policy}/{n}"), skew);
        }
    }
    group.finish();
}

/// Wall time of the full per-component pipeline (split + chain merge + face
/// walks + labels + cell assembly) on the dense single-component map, on one
/// thread and on all of them. Also records the per-phase work counters of
/// one all-threads build.
fn phase_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_build");
    let max = arrangement::parallel::available_threads();
    let side = 16;
    let n = side * side;
    let inst = datagen::dense_overlap_map(side, side, 4);
    assert_eq!(
        partition_instance(&inst).len(),
        1,
        "dense_overlap_map must be one interaction component"
    );

    for (series, threads) in [("threads1", 1), ("threadsmax", max)] {
        group.bench_with_input(BenchmarkId::new(series, n), &(), |b, _| {
            b.iter(|| black_box(arrangement::build_component_complexes(&inst, threads)))
        });
    }

    // One instrumented build outside the timing loops: the per-phase work of
    // a parallel build must match the serial build's (pinned relative to
    // each other by the differential tests; recorded here so the absolute
    // trajectory is visible in the snapshot).
    let before = arrangement::counters::phase_counters();
    black_box(arrangement::build_component_complexes(&inst, max));
    let work = arrangement::counters::phase_counters().delta_since(&before);
    record_metric(format!("phase_build/events_processed/{n}"), work.events_processed as f64);
    record_metric(format!("phase_build/chains_merged/{n}"), work.chains_merged as f64);
    record_metric(format!("phase_build/cells_walked/{n}"), work.cells_walked as f64);
    record_metric(format!("phase_build/labels_propagated/{n}"), work.labels_propagated as f64);
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = strip_sweep, phase_build
}
criterion_main!(benches);
