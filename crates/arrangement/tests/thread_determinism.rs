//! Determinism of the construction pipeline across thread counts: the cold
//! build ([`build_complex_view`], the update of nothing) sweeps components
//! on the machine's available parallelism, one whole component per worker,
//! and must produce fingerprint- and index-identical complexes, from the
//! same amount of sweep work, as a plain serial loop over the from-scratch
//! reference: [`partition_instance`], then [`build_group_component`] per
//! group, then [`GlobalComplexView::new`].

use arrangement::counters::phase_counters;
use arrangement::{
    build_complex, build_complex_view, build_group_component, partition_instance, ComplexRead,
    GlobalComplexView,
};
use spatial_core::prelude::*;
use std::sync::{Arc, Mutex};

mod common;
use common::fingerprint;

/// The phase counters are process-wide: tests that build serialise on this
/// lock so one test's delta never includes another's work.
static BUILDS: Mutex<()> = Mutex::new(());

/// The serial reference: partition from scratch, build each group on the
/// calling thread, assemble the view.
fn serial_view(inst: &SpatialInstance) -> GlobalComplexView {
    let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    let mut components = Vec::new();
    for group in partition_instance(inst) {
        components.push(Arc::new(build_group_component(inst, &group)));
    }
    GlobalComplexView::new(names, components)
}

fn families() -> [(&'static str, SpatialInstance); 5] {
    [
        ("clustered_map(8, 4, 5)", datagen::clustered_map(8, 4, 5)),
        ("wide_map(24, 9)", datagen::wide_map(24, 9)),
        ("dense_overlap_map(4, 4, 4)", datagen::dense_overlap_map(4, 4, 4)),
        ("dense_overlap_map(8, 8, 4)", datagen::dense_overlap_map(8, 8, 4)),
        ("jittered_overlap_map(16, 16, 12, 1996)", datagen::jittered_overlap_map(16, 16, 12, 1996)),
    ]
}

#[test]
fn thread_count_never_changes_the_complex() {
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, inst) in families() {
        // The serial result is the baseline; the pooled cold build must be
        // index-identical, not merely fingerprint-equal, because downstream
        // consumers address cells by id.
        let baseline = serial_view(&inst);
        let base_fp = fingerprint(&baseline);
        let pooled = build_complex_view(&inst);
        assert_eq!(base_fp, fingerprint(&pooled), "{name}: fingerprint changed on the pool");
        for f in baseline.face_ids() {
            assert_eq!(
                baseline.face_label(f),
                pooled.face_label(f),
                "{name}: face {f:?} differs on the pool"
            );
        }
        for e in baseline.edge_ids() {
            assert_eq!(
                baseline.edge_faces(e),
                pooled.edge_faces(e),
                "{name}: edge {e:?} differs on the pool"
            );
        }

        // And the flat entry point (the copy of the cold build) lands on the
        // same complex.
        assert_eq!(fingerprint(&build_complex(&inst)), base_fp, "{name}: build_complex diverges");
    }
}

#[test]
fn one_component_sweeps_the_same_events_on_any_thread_count() {
    // One component of 256 segments: the pool can only choose which worker
    // sweeps it, so the cold build processes the same events as the serial
    // loop — a component is never split across workers.
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    let inst = datagen::dense_overlap_map(8, 8, 4);
    let work_of = |build: &dyn Fn() -> GlobalComplexView| {
        let before = phase_counters();
        let view = build();
        assert_eq!(view.component_count(), 1, "dense_overlap_map(8, 8, 4) is one component");
        phase_counters().delta_since(&before)
    };
    let serial = work_of(&|| serial_view(&inst));
    let pooled = work_of(&|| build_complex_view(&inst));
    assert!(serial.events_processed > 0);
    assert_eq!(pooled.events_processed, serial.events_processed, "sweep events differ");
    assert_eq!(pooled, serial, "per-phase work differs between the loop and the pool");
}

#[test]
fn the_product_cold_build_matches_the_serial_build() {
    // The database's cold build is build_complex_view: an update of the
    // empty view with every name changed, its sweeps on the worker pool.
    // Its flat copy is index-identical to the serial loop's, not merely
    // isomorphic.
    let _builds = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, inst) in families() {
        assert!(
            build_complex_view(&inst).to_cell_complex() == serial_view(&inst).to_cell_complex(),
            "{name}: the product's cold build differs from the serial build"
        );
    }
}
