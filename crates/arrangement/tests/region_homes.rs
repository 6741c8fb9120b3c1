//! A named region's cells read through its home against the walk over the
//! view.
//!
//! A region's closure cells depend on its component alone, so they are
//! walked once in the component's own ids and kept on the component, for
//! as long as it lives (`ComplexGeometry::closure_slot`).
//! [`ComplexRead::region_home`] says how to read them in an epoch's view:
//! the component's offsets, and the id ranges of the components nested,
//! transitively, inside the region's faces, every cell of which is
//! interior. For every name, after every step of three traces, the cells
//! so read — the local faces and the component-local walk
//! ([`ComplexRead::home_closure`]) shifted by the offsets, with the nested
//! ranges beside them — must equal the reference: the region's faces
//! scanned off the view's face labels, and [`closure_cells`] over the view.
//!
//! * `datagen::interleaved_op_trace`: names landing between and before the
//!   carried ones, and names of the base map removed, so every commit moves
//!   the ranks of carried components;
//! * `datagen::nested_edit_trace`: components nested in other components'
//!   faces, moved one level out and back as rings go and come;
//! * `datagen::dense_edit_trace` over the benchmark's dense map, whose one
//!   component is rebuilt by every commit.
//!
//! The debug run replays 40 steps of each; the release run replays 300
//! (CI: "Carried region cells (release)").

use arrangement::{
    build_complex_view, closure_cells, update_components, ClosureCells, ComplexRead, FaceId,
    GlobalComplexView, Sign,
};
use datagen::TraceOp;
use spatial_core::prelude::*;
use std::ops::Range;

const STEPS: usize = if cfg!(debug_assertions) { 40 } else { 300 };

fn names(inst: &SpatialInstance) -> Vec<String> {
    inst.names().iter().map(|s| s.to_string()).collect()
}

/// The ids of `run` shifted by `offset`, with `spans` beside them,
/// ascending.
fn shifted(run: impl IntoIterator<Item = usize>, offset: usize, spans: &[Range<usize>]) -> Vec<usize> {
    let mut ids: Vec<usize> = run.into_iter().map(|x| x + offset).collect();
    ids.extend(spans.iter().cloned().flatten());
    ids.sort_unstable();
    ids
}

/// Every name's home against the reference; returns how many names have
/// components nested inside them.
fn check_homes(view: &GlobalComplexView, context: &str) -> usize {
    let mut faces: Vec<Vec<FaceId>> = vec![Vec::new(); view.region_names().len()];
    for f in view.face_ids() {
        for (r, sign) in view.face_label(f).iter() {
            if sign == Sign::Interior {
                faces[r].push(f);
            }
        }
    }
    let mut nesting = 0;
    for (i, name) in view.region_names().iter().enumerate() {
        let home = view.region_home(i).expect("every name of these maps has cells");
        let nested = &home.nested;
        for spans in [nested.vertices(), nested.edges(), nested.faces()] {
            assert!(
                spans.iter().all(|s| !s.is_empty()) && spans.windows(2).all(|w| w[0].end <= w[1].start),
                "{name} on {context}: nested ranges nonempty, ascending and disjoint: {spans:?}"
            );
        }
        nesting += usize::from(!nested.faces().is_empty());
        let expected: Vec<usize> = faces[i].iter().map(|f| f.0).collect();
        let read = shifted(home.faces.iter().map(|f| f.0), home.offsets.face, nested.faces());
        assert_eq!(read, expected, "faces of {name} on {context}");

        let local = view.home_closure(&home);
        let (e, v) = (home.offsets.edge, home.offsets.vertex);
        let read = ClosureCells::new(
            shifted(local.boundary_edges().iter().copied(), e, &[]),
            shifted(local.interior_edges().iter().copied(), e, nested.edges()),
            shifted(local.boundary_vertices().iter().copied(), v, &[]),
            shifted(local.interior_vertices().iter().copied(), v, nested.vertices()),
        );
        assert_eq!(read, closure_cells(view, &faces[i]), "closure of {name} on {context}");
    }
    nesting
}

/// Replay `trace` over `inst` the way a database commits it, checking every
/// name after every step; returns the steps on which some name had
/// components nested inside it.
fn replay(mut inst: SpatialInstance, trace: &[Vec<TraceOp>], label: &str) -> usize {
    let mut view = build_complex_view(&inst);
    check_homes(&view, &format!("{label} at the start"));
    let mut nesting_steps = 0;
    for (step, batch) in trace.iter().enumerate() {
        let mut changed: Vec<String> = Vec::new();
        for op in batch {
            let name = match op {
                TraceOp::Insert(name, region) => {
                    inst.insert(name.clone(), region.clone());
                    name
                }
                TraceOp::Remove(name) => {
                    inst.remove(name);
                    name
                }
            };
            if !changed.contains(name) {
                changed.push(name.clone());
            }
        }
        let update = update_components(view.components(), &inst, &changed, |_| None);
        view = view.updated(names(&inst), &changed, update);
        nesting_steps += usize::from(check_homes(&view, &format!("{label} step {step}")) > 0);
    }
    nesting_steps
}

#[test]
fn region_homes_read_the_view_walk_along_an_interleaved_op_trace() {
    let base = datagen::clustered_map(16, 3, 5);
    let trace = datagen::interleaved_op_trace(&names(&base), STEPS, 11);
    replay(base, &trace, "interleaved op_trace");
}

#[test]
fn region_homes_read_the_view_walk_along_a_nesting_trace() {
    let trace = datagen::nested_edit_trace(5, STEPS);
    let nesting_steps = replay(datagen::nested_rings(5), &trace, "nested_edit_trace");
    assert_eq!(nesting_steps, STEPS, "every step has components nested in another's faces");
}

#[test]
fn region_homes_read_the_view_walk_along_the_dense_trace() {
    let trace = datagen::dense_edit_trace(16, 16, 12, STEPS, 7);
    replay(datagen::jittered_overlap_map(16, 16, 12, 1996), &trace, "dense_edit_trace");
}
