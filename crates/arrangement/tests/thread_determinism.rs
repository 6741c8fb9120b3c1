//! Determinism of the parallel construction pipeline: sweeping components on
//! 1, 2 or 8 worker threads and decomposing the per-component sweep into 1,
//! 2 or 8 x-strips must produce fingerprint- and index-identical complexes.
//! Every configuration is passed as an explicit argument; nothing here
//! touches the process environment.

use arrangement::split::{instance_segments, split_segments};
use arrangement::strip::split_segments_striped;
use arrangement::{build_complex, build_component_complexes, ComplexRead, GlobalComplexView};
use spatial_core::prelude::*;

mod common;
use common::fingerprint;

fn view_with_threads(inst: &SpatialInstance, threads: usize) -> GlobalComplexView {
    let names: Vec<String> = inst.names().iter().map(|s| s.to_string()).collect();
    GlobalComplexView::new(names, build_component_complexes(inst, threads))
}

#[test]
fn thread_count_never_changes_the_complex() {
    for (name, inst) in [
        ("clustered_map(8, 4, 5)", datagen::clustered_map(8, 4, 5)),
        ("wide_map(24, 9)", datagen::wide_map(24, 9)),
        ("dense_overlap_map(4, 4, 4)", datagen::dense_overlap_map(4, 4, 4)),
        // One component of exactly `STRIP_MIN_SEGMENTS` segments: with more
        // than one thread its build routes through the strip decomposition
        // and the parallel post-split phases end to end.
        ("dense_overlap_map(8, 8, 4)", datagen::dense_overlap_map(8, 8, 4)),
    ] {
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

        // Explicit strip counts through the splitter API: the x-strip
        // decomposition must be *output-identical* (sub-segment for
        // sub-segment, a stronger property than fingerprint equality) to the
        // monolithic sweep for every strips × threads combination.
        let segments = instance_segments(&inst);
        let serial_subs = split_segments(&segments);
        for strips in [1usize, 2, 8] {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    split_segments_striped(&segments, strips, threads),
                    serial_subs,
                    "{name}: explicit strips={strips} threads={threads} diverges"
                );
            }
        }

        // And the default entry point (partition → sweep on the configured
        // thread count → copy assembly) lands on the same complex.
        assert_eq!(fingerprint(&build_complex(&inst)), base_fp, "{name}: build_complex diverges");
    }
}
