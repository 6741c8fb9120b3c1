//! Determinism of the construction pipeline across thread counts: components
//! are swept on 1, 2, 4 or 8 worker threads, one whole component per worker,
//! and every count must produce fingerprint- and index-identical complexes
//! from the same amount of sweep work. The product's own builds, which take
//! no thread count and sweep on the machine's available parallelism, must
//! land on the serial result too.

use arrangement::counters::phase_counters;
use arrangement::{
    build_complex, build_component_complexes, update_components, ComplexRead, GlobalComplexView,
};
use spatial_core::prelude::*;
use std::sync::Mutex;

mod common;
use common::fingerprint;

/// The phase counters are process-wide: tests that build serialise on this
/// lock so one test's delta never includes another's work.
static BUILDS: Mutex<()> = Mutex::new(());

fn view_with_threads(inst: &SpatialInstance, threads: usize) -> GlobalComplexView {
    let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    GlobalComplexView::new(names, build_component_complexes(inst, threads))
}

fn families() -> [(&'static str, SpatialInstance); 4] {
    [
        ("clustered_map(8, 4, 5)", datagen::clustered_map(8, 4, 5)),
        ("wide_map(24, 9)", datagen::wide_map(24, 9)),
        ("dense_overlap_map(4, 4, 4)", datagen::dense_overlap_map(4, 4, 4)),
        ("dense_overlap_map(8, 8, 4)", datagen::dense_overlap_map(8, 8, 4)),
    ]
}

#[test]
fn thread_count_never_changes_the_complex() {
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, inst) in families() {
        // Explicit thread counts through the builder API. The serial result
        // is the baseline; parallel runs must be index-identical, not merely
        // fingerprint-equal, because downstream consumers address cells by
        // id.
        let baseline = view_with_threads(&inst, 1);
        let base_fp = fingerprint(&baseline);
        for threads in [2usize, 8] {
            let parallel = view_with_threads(&inst, threads);
            assert_eq!(
                base_fp,
                fingerprint(&parallel),
                "{name}: fingerprint changed at {threads} threads"
            );
            for f in baseline.face_ids() {
                assert_eq!(
                    baseline.face_label(f),
                    parallel.face_label(f),
                    "{name}: face {f:?} differs at {threads} threads"
                );
            }
            for e in baseline.edge_ids() {
                assert_eq!(
                    baseline.edge_faces(e),
                    parallel.edge_faces(e),
                    "{name}: edge {e:?} differs at {threads} threads"
                );
            }
        }

        // And the default entry point (partition → sweep on the available
        // parallelism → copy assembly) lands on the same complex.
        assert_eq!(fingerprint(&build_complex(&inst)), base_fp, "{name}: build_complex diverges");
    }
}

#[test]
fn one_component_sweeps_the_same_events_on_any_thread_count() {
    // One component of 256 segments: a thread count can only choose which
    // worker sweeps it, so the sweep processes the same events on 4 threads
    // as on 1 — a component is never split across workers.
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    let inst = datagen::dense_overlap_map(8, 8, 4);
    let events_with = |threads: usize| {
        let before = phase_counters();
        let components = build_component_complexes(&inst, threads);
        assert_eq!(components.len(), 1, "dense_overlap_map(8, 8, 4) is one component");
        phase_counters().delta_since(&before)
    };
    let serial = events_with(1);
    let parallel = events_with(4);
    assert!(serial.events_processed > 0);
    assert_eq!(parallel.events_processed, serial.events_processed, "sweep events differ");
    assert_eq!(parallel, serial, "per-phase work differs between 1 and 4 threads");
}

#[test]
fn the_product_cold_build_matches_the_serial_build() {
    // The database's cold build is an update of the empty view with every
    // name changed; its sweeps run on the worker pool at the machine's
    // available parallelism. Index-identical to one thread, not merely
    // isomorphic.
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, inst) in families() {
        let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
        let update = update_components(&[], &inst, &names, |_| None);
        let cold = GlobalComplexView::new(Vec::new(), Vec::new()).updated(names, update);
        assert!(
            cold.to_cell_complex() == view_with_threads(&inst, 1).to_cell_complex(),
            "{name}: the product's cold build differs from the serial build"
        );
    }
}
