//! The invariant's algorithms on a snapshot's view against the same
//! algorithms on an owned copy.
//!
//! `find_isomorphism`, `validate` and `thematic::to_database` read any
//! `ComplexRead`. A database serves them its zero-copy `GlobalComplexView`
//! directly, and `Invariant::from_complex` copies that view into the owned
//! form. Both describe the same `T_I` cell for cell, so every answer must
//! be the same on the two: the same witness isomorphism (compared as its
//! `Debug` text) under all four `IsoOptions`, the same (empty) list of
//! validation errors and equal thematic databases. The inputs are the
//! paper's fixtures and the `datagen` families, each paired with its
//! translate and its mirror image.

use topodb::arrangement::{build_complex_view, GlobalComplexView};
use topodb::invariant::{find_isomorphism, thematic, validate, Invariant, IsoOptions};
use topodb::spatial_core::fixtures;
use topodb::spatial_core::prelude::*;

const OPTIONS: [IsoOptions; 4] = [
    IsoOptions { use_orientation: true, use_exterior: true },
    IsoOptions { use_orientation: false, use_exterior: true },
    IsoOptions { use_orientation: true, use_exterior: false },
    IsoOptions { use_orientation: false, use_exterior: false },
];

fn reflected(instance: &SpatialInstance) -> SpatialInstance {
    let mirror = PlaneTransform::Affine(AffineMap::reflect_x());
    mirror.apply_instance(instance).expect("a reflection maps polygons to polygons")
}

/// One input: its view and the owned copy of that view.
fn sides(instance: &SpatialInstance) -> (GlobalComplexView, Invariant) {
    let view = build_complex_view(instance);
    let copy = Invariant::from_complex(&view);
    (view, copy)
}

/// Validation and the thematic database agree on the view and its copy,
/// and the input is a valid invariant.
fn check_one(instance: &SpatialInstance, context: &str) {
    let (view, copy) = sides(instance);
    let errors = validate(&view);
    assert_eq!(errors, validate(&copy), "validation of {context}");
    assert!(errors.is_empty(), "{context}: {errors:?}");
    assert!(thematic::to_database(&view) == thematic::to_database(&copy), "thematic({context})");
}

/// The search answers the same on the two views as on their copies, under
/// every option; returns how many options found an isomorphism.
fn check_pair(a: &SpatialInstance, b: &SpatialInstance, context: &str) -> usize {
    let ((view_a, copy_a), (view_b, copy_b)) = (sides(a), sides(b));
    let mut found = 0;
    for opts in OPTIONS {
        let on_views = format!("{:?}", find_isomorphism(&view_a, &view_b, opts));
        let on_copies = format!("{:?}", find_isomorphism(&copy_a, &copy_b, opts));
        assert_eq!(on_views, on_copies, "{context} under {opts:?}");
        found += usize::from(on_views != "None");
    }
    found
}

/// Every input is isomorphic to its translate and its mirror image under
/// all four options.
fn check_redrawings(instance: &SpatialInstance, context: &str) {
    check_one(instance, context);
    let translate = instance.translated(1000, 7);
    assert_eq!(check_pair(instance, &translate, &format!("{context} vs its translate")), 4);
    let mirror = reflected(instance);
    assert_eq!(check_pair(instance, &mirror, &format!("{context} vs its reflection")), 4);
}

#[test]
fn the_fixtures_answer_the_same_on_the_view_and_on_its_copy() {
    let fixtures = [
        ("fig_1a", fixtures::fig_1a()),
        ("fig_1b", fixtures::fig_1b()),
        ("fig_1c", fixtures::fig_1c()),
        ("fig_1d", fixtures::fig_1d()),
        ("ring_with_flag", fixtures::ring_with_flag()),
        ("ring_with_island(true)", fixtures::ring_with_island(true)),
        ("ring_with_island(false)", fixtures::ring_with_island(false)),
        ("petals_abcd", fixtures::petals_abcd()),
        ("petals_acbd", fixtures::petals_acbd()),
        ("nested_three", fixtures::nested_three()),
    ];
    let mut found = 0;
    for (name, instance) in &fixtures {
        check_redrawings(instance, name);
        for (other, other_instance) in &fixtures {
            found += check_pair(instance, other_instance, &format!("{name} vs {other}"));
        }
    }
    // Every fixture matches itself under all four options. Besides, the two
    // petal orders match each other once the orientation is ignored (Fig. 7),
    // and the two islands once the exterior face is: two options, both ways.
    assert_eq!(found, 4 * fixtures.len() + 2 * 2 + 2 * 2);
}

#[test]
fn the_fig_2_pairs_answer_the_same_on_the_view_and_on_its_copy() {
    let pairs = fixtures::fig_2_pairs();
    for (name, instance) in &pairs {
        check_redrawings(instance, name);
        for (other, other_instance) in &pairs {
            check_pair(instance, other_instance, &format!("{name} vs {other}"));
        }
    }
}

#[test]
fn the_datagen_families_answer_the_same_on_the_view_and_on_its_copy() {
    let mut families = vec![
        ("clustered_map(4, 6, 1)".to_string(), datagen::clustered_map(4, 6, 1)),
        ("road_network_map(4, 4, 12, 1)".to_string(), datagen::road_network_map(4, 4, 12, 1)),
        ("flower(8, 1)".to_string(), datagen::flower(8, 1)),
    ];
    for seed in 0..4 {
        let name = format!("jittered_overlap_map(10, 3, 12, {seed})");
        families.push((name, datagen::jittered_overlap_map(10, 3, 12, seed)));
    }
    for (name, instance) in &families {
        check_redrawings(instance, name);
    }
}
