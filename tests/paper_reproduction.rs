//! End-to-end integration tests reproducing, across crate boundaries, every
//! qualitative claim of the paper that the benchmark harness also measures.
//! Each test corresponds to an experiment in the table of the `bench`
//! crate's documentation (`crates/bench/src/lib.rs`).

use topodb::arrangement::ComplexRead;
use topodb::invariant::{find_isomorphism, homeomorphic, IsoOptions, Invariant};
use topodb::query::ast::{Formula, RegionExpr};
use topodb::query::thematic_eval::eval_on_thematic;
use topodb::relations::{
    all_pairwise_relations, four_intersection_equivalent, relation_in_complex, Relation4,
};
use topodb::spatial_core::fixtures;
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

/// E01 — Fig. 1 / Examples 2.1, 4.1, 4.2: the four instances are pairwise
/// 4-intersection equivalent (a~b, c~d) but not homeomorphic, and the
/// region-based queries of Section 4 separate them.
#[test]
fn e01_fig1_four_instances() {
    let (a, b, c, d) =
        (fixtures::fig_1a(), fixtures::fig_1b(), fixtures::fig_1c(), fixtures::fig_1d());
    assert!(four_intersection_equivalent(&a, &b));
    assert!(four_intersection_equivalent(&c, &d));
    assert!(!homeomorphic(&a, &b));
    assert!(!homeomorphic(&c, &d));

    let dba = TopoDatabase::from_instance(a);
    let dbb = TopoDatabase::from_instance(b);
    let dbc = TopoDatabase::from_instance(c);
    let dbd = TopoDatabase::from_instance(d);
    let q41 = "exists r . subset(r, A) and subset(r, B) and subset(r, C)";
    assert_eq!(dba.snapshot().query(q41).map(|o| o.holds()), Ok(true));
    assert_eq!(dbb.snapshot().query(q41).map(|o| o.holds()), Ok(false));
    let q42 = "forall r, s . (subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) -> \
               exists t . subset(t, A) and subset(t, B) and connect(t, r) and connect(t, s)";
    assert_eq!(dbc.snapshot().query(q42).map(|o| o.holds()), Ok(true));
    assert_eq!(dbd.snapshot().query(q42).map(|o| o.holds()), Ok(false));
}

/// E01b — Example 4.1 as a *set-returning* query: with the third region a
/// free name variable, the prepared query returns exactly the names whose
/// extent still admits a common witness with A and B — all three names on
/// Fig. 1a, but not `C` on Fig. 1b. One `PreparedQuery`, compiled once,
/// evaluated against snapshots of both instances.
#[test]
fn e01b_example_4_1_with_free_variable_bindings() {
    use topodb::query::PreparedQuery;
    use topodb::QueryOutput;

    let q = PreparedQuery::compile("exists r . subset(r, A) and subset(r, B) and subset(r, ext(x))")
        .unwrap();
    assert_eq!(q.free_name_vars(), ["x"]);

    let xs = |out: QueryOutput| -> Vec<String> {
        out.bindings().unwrap().iter().map(|row| row["x"].clone()).collect()
    };
    let snap_a = TopoDatabase::from_instance(fixtures::fig_1a()).snapshot();
    assert_eq!(
        xs(snap_a.evaluate(&q).unwrap()),
        ["A", "B", "C"],
        "Fig. 1a: A ∩ B ∩ C is nonempty, so every extent hosts a witness"
    );
    let snap_b = TopoDatabase::from_instance(fixtures::fig_1b()).snapshot();
    assert_eq!(
        xs(snap_b.evaluate(&q).unwrap()),
        ["A", "B"],
        "Fig. 1b: the triple intersection is empty, so C drops out"
    );

    // The Boolean collapse of the same bindings agrees with Example 4.1.
    assert!(snap_a.evaluate(&q).unwrap().holds());
    assert!(snap_b.evaluate(&q).unwrap().holds());
}

/// E02 — Fig. 2: the eight 4-intersection relations are realized, computed,
/// mutually exclusive and converse-consistent.
#[test]
fn e02_fig2_eight_relations() {
    let mut seen = Vec::new();
    for (name, inst) in fixtures::fig_2_pairs() {
        let complex = topodb::arrangement::build_complex(&inst);
        let rel = relation_in_complex(&complex, "A", "B").unwrap();
        assert_eq!(rel.name(), name);
        let rel_ba = relation_in_complex(&complex, "B", "A").unwrap();
        assert_eq!(rel.inverse(), rel_ba);
        seen.push(rel);
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 8);
}

/// E03 — Fig. 3 / Fig. 4: region class membership and invariance under the
/// permutation groups S and L behaves as the paper's table states.
#[test]
fn e03_fig4_class_invariance() {
    // A rectangle stays a rectangle under S but not under a shear from L.
    let rect = Region::rect_from_ints(0, 0, 6, 4);
    let rho = MonotoneMap::from_ints(&[(0, 0), (2, 3), (6, 5), (10, 20)]).unwrap();
    let s = PlaneTransform::Symmetry(Symmetry { rho1: rho.clone(), rho2: rho, swap: false });
    assert_eq!(s.apply_region(&rect).unwrap().class(), RegionClass::Rect);
    let shear = PlaneTransform::Affine(AffineMap::shear_x(rat(1)));
    assert_eq!(shear.apply_region(&rect).unwrap().class(), RegionClass::Poly);
    // A triangle stays polygonal under L.
    let tri = Region::polygon_from_ints(&[(0, 0), (6, 0), (2, 5)]).unwrap();
    assert!(shear.apply_region(&tri).unwrap().is_in_class(RegionClass::Poly));
    // The full Fig. 4 table.
    for class in RegionClass::all() {
        for group in [Group::Symmetries, Group::PiecewiseLinear, Group::Homeomorphisms] {
            let _ = class_invariant_under(class, group);
        }
    }
    assert!(class_invariant_under(RegionClass::Disc, Group::Homeomorphisms));
    assert!(!class_invariant_under(RegionClass::Poly, Group::Homeomorphisms));
}

/// E04/E09 — Fig. 5, Examples 3.1/3.3/3.6: the invariant and thematic
/// instance of Fig. 1c have exactly the structure listed in the paper.
#[test]
fn e04_fig5_invariant_of_fig1c() {
    let inv = Invariant::of_instance(&fixtures::fig_1c());
    assert_eq!(
        (inv.vertex_count(), inv.edge_count(), inv.face_count()),
        (2, 4, 4),
        "Example 3.1"
    );
    assert_eq!(inv.orientation_relation().len(), 16, "Example 3.3");
    let th = topodb::invariant::thematic::to_database(&inv);
    assert_eq!(th.relation("FaceEdges").unwrap().len(), 8, "Fig. 9");
    assert_eq!(th.relation("RegionFaces").unwrap().len(), 4, "Fig. 9");
}

/// E05 — Fig. 6: same labeled graph, different exterior face, different
/// homeomorphism type.
#[test]
fn e05_fig6_exterior_face_is_essential() {
    let t = Invariant::of_instance(&fixtures::ring_with_flag());
    let hole = t
        .face_ids()
        .find(|&f| f != t.exterior_face() && t.face_label(f) == Default::default())
        .unwrap();
    let swapped = t.with_exterior(hole);
    assert!(find_isomorphism(&t, &swapped, IsoOptions::without_exterior()).is_some());
    assert!(find_isomorphism(&t, &swapped, IsoOptions::full()).is_none());
    // The redesignated structure is still a valid invariant (realizable).
    assert!(topodb::invariant::validate(&swapped).is_empty());
}

/// E06 — Fig. 7: the orientation relation O is essential, for connected and
/// for disconnected instances.
#[test]
fn e06_fig7_orientation_is_essential() {
    let p1 = Invariant::of_instance(&fixtures::petals_abcd());
    let p2 = Invariant::of_instance(&fixtures::petals_acbd());
    assert!(find_isomorphism(&p1, &p2, IsoOptions::without_orientation()).is_some());
    assert!(find_isomorphism(&p1, &p2, IsoOptions::full()).is_none());
    // Disconnected variant: add a far-away island to both.
    let mut i1 = fixtures::petals_abcd();
    i1.insert("Z", Region::rect_from_ints(100, 100, 104, 104));
    let mut i2 = fixtures::petals_acbd();
    i2.insert("Z", Region::rect_from_ints(200, -50, 204, -46));
    let j1 = Invariant::of_instance(&i1);
    let j2 = Invariant::of_instance(&i2);
    assert!(find_isomorphism(&j1, &j2, IsoOptions::without_orientation()).is_some());
    assert!(find_isomorphism(&j1, &j2, IsoOptions::full()).is_none());
}

/// E07 — Theorem 3.4: homeomorphism coincides with invariant isomorphism;
/// transformations from S and L (which are homeomorphisms) preserve the
/// invariant, and embedding differences are detected.
#[test]
fn e07_theorem_3_4() {
    for inst in [fixtures::fig_1a(), fixtures::fig_1d(), fixtures::ring(), fixtures::shared_boundary()] {
        let inv = Invariant::of_instance(&inst);
        // Translation + scaling (elements of L).
        let t = PlaneTransform::Affine(AffineMap::translation(rat(17), rat(-3)));
        let s = PlaneTransform::Affine(AffineMap::scaling(rat(3), rat(2)));
        for map in [t, s] {
            let image = map.apply_instance(&inst).unwrap();
            assert!(topodb::invariant::isomorphic(&inv, &Invariant::of_instance(&image)));
        }
        // A reflection is a homeomorphism too.
        let m = PlaneTransform::Affine(AffineMap::reflect_x()).apply_instance(&inst).unwrap();
        assert!(topodb::invariant::isomorphic(&inv, &Invariant::of_instance(&m)));
    }
    assert!(!homeomorphic(&fixtures::ring_with_island(true), &fixtures::ring_with_island(false)));
}

/// E08 — Theorem 3.5: the invariant is computed in polynomial time; the cell
/// complex of a grid map has the predicted size and satisfies Euler's formula.
#[test]
fn e08_theorem_3_5_construction() {
    for (n, inst) in datagen::scaling_sweep(&[4, 9, 16, 25]) {
        let complex = topodb::arrangement::build_complex(&inst);
        assert!(complex.euler_formula_holds(), "grid of {n}");
        // A side x side grid of parcels has one bounded face per parcel and
        // (side+1)^2 - 4 vertices in the *maximal* complex (the four outer
        // corners are plain bends of a single parcel boundary and are merged
        // away).
        let side = (n as f64).sqrt() as usize;
        assert_eq!(complex.face_count(), n + 1);
        assert_eq!(complex.vertex_count(), (side + 1) * (side + 1) - 4);
    }
}

/// E10 — Corollary 3.7: topological queries answered on thematic(I) agree
/// with direct geometric evaluation.
#[test]
fn e10_corollary_3_7_thematic_bridge() {
    let inst = datagen::grid_map(3, 2, 5);
    let complex = topodb::arrangement::build_complex(&inst);
    let th = topodb::invariant::thematic::to_database(&Invariant::from_complex(&complex));
    let names = inst.names();
    for a in &names {
        for b in &names {
            if a >= b {
                continue;
            }
            let expected = relation_in_complex(&complex, a, b).unwrap();
            for r in Relation4::ALL {
                let q = Formula::rel(r, RegionExpr::named(*a), RegionExpr::named(*b));
                assert_eq!(eval_on_thematic(&th, &q).unwrap(), r == expected, "{a} {r} {b}");
            }
        }
    }
}

/// E11 — Theorem 3.8 / Lemma 3.9: constructed invariants validate; corrupted
/// ones are rejected.
#[test]
fn e11_theorem_3_8_validation() {
    for inst in [fixtures::fig_1b(), fixtures::ring_with_island(true), datagen::grid_map(3, 3, 4)] {
        let inv = Invariant::of_instance(&inst);
        assert!(topodb::invariant::validate(&inv).is_empty());
    }
    // Corruption: claim a region's face is exterior to it (breaks label
    // consistency and possibly region connectivity).
    let broken = Invariant::of_instance(&fixtures::fig_1a());
    let f = broken.region_faces("A")[0];
    // Reuse the public API only: re-designating an interior face as exterior
    // face is enough to violate validity.
    let broken = broken.with_exterior(f);
    assert!(!topodb::invariant::validate(&broken).is_empty());
}

/// E12 — Fig. 10 / Fig. 11 / Theorem 4.4: S-genericity of FO(Rect, ·) and the
/// genericity table.
#[test]
fn e12_genericity_and_expressiveness() {
    assert_eq!(genericity_group(RegionClass::Rect), Group::Symmetries);
    assert_eq!(genericity_group(RegionClass::Alg), Group::PiecewiseLinear);
    assert_eq!(genericity_group(RegionClass::Disc), Group::Homeomorphisms);
    // S-transformations do not change FO(Rect, Rect) answers.
    let inst = SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 8, 8)),
        ("B", Region::rect_from_ints(2, 2, 5, 5)),
        ("C", Region::rect_from_ints(6, 6, 12, 12)),
    ]);
    let rho = MonotoneMap::from_ints(&[(0, 0), (3, 1), (8, 30), (12, 31)]).unwrap();
    let s = PlaneTransform::Symmetry(Symmetry { rho1: rho.clone(), rho2: rho, swap: false });
    let image = s.apply_instance(&inst).unwrap();
    for q in [
        "exists r . inside(r, A) and inside(r, C)",
        "forall r . inside(r, B) -> inside(r, A)",
        "exists r . covers(A, r) and overlap(r, C)",
    ] {
        let f = topodb::query::parse(q).unwrap();
        assert_eq!(
            topodb::query::rect_eval::eval_on_rect_instance(&inst, &f).unwrap(),
            topodb::query::rect_eval::eval_on_rect_instance(&image, &f).unwrap(),
            "{q}"
        );
    }
}

/// E14 — Proposition 5.1 / Theorem 5.6: the class-defining sentence is
/// produced in polynomial time and membership in the equivalence class it
/// defines coincides with homeomorphism.
#[test]
fn e14_completeness_normal_form() {
    let c = Invariant::of_instance(&fixtures::fig_1c());
    let sentence = topodb::query::complete::class_defining_sentence(&c);
    assert!(sentence.region_quantifier_count() >= c.cell_count());
    let moved = Invariant::of_instance(&fixtures::fig_1c().translated(5, 5));
    let other = Invariant::of_instance(&fixtures::fig_1d());
    assert!(topodb::invariant::isomorphic(&c, &moved));
    assert!(!topodb::invariant::isomorphic(&c, &other));
}

/// E15 — Theorem 5.8: translated point-language queries agree with the
/// region-based rectangle evaluator.
#[test]
fn e15_point_vs_region_language() {
    let inst = SpatialInstance::from_regions([
        ("A", Region::rect_from_ints(0, 0, 10, 10)),
        ("B", Region::rect_from_ints(2, 2, 6, 6)),
        ("C", Region::rect_from_ints(12, 0, 16, 4)),
    ]);
    for q in ["inside(B, A)", "disjoint(B, C)", "overlap(A, B)", "meet(A, B) or disjoint(A, C)"] {
        let f = topodb::query::parse(q).unwrap();
        let p = topodb::query::point_lang::rect_query_to_point_query(&f).unwrap();
        assert_eq!(
            topodb::query::point_lang::eval_point_sentence(&inst, &p).unwrap(),
            topodb::query::rect_eval::eval_on_rect_instance(&inst, &f).unwrap(),
            "{q}"
        );
    }
}

/// E16 — Theorems 6.4 and 6.5: the sentences the scale ruler times on
/// rectangle maps keep their answers, and those answers are invariant under
/// exact translations and positive axis scalings (elements of L, so
/// homeomorphisms). `R000` and `R001` are disjoint on every
/// `random_rectangles(n, 40, 11)`, so no rectangle lies inside both.
#[test]
fn e16_rect_sentences_are_invariant_under_translation_and_scaling() {
    let pinned = [
        (datagen::random_rectangles(3, 40, 11), "exists r . overlap(r, R000) and overlap(r, R001)", true),
        (datagen::random_rectangles(5, 40, 11), "exists r . overlap(r, R000) and overlap(r, R001)", true),
        (datagen::random_rectangles(8, 40, 11), "exists r . overlap(r, R000) and overlap(r, R001)", true),
        (datagen::random_rectangles(3, 40, 11), "exists r . inside(r, R000) and inside(r, R001)", false),
        (datagen::random_rectangles(4, 30, 5), "exists r . overlap(r, R000)", true),
        (datagen::random_rectangles(1, 30, 5), "exists r . exists s . overlap(r, R000) and disjoint(r, s)", true),
    ];
    let maps = [
        PlaneTransform::Affine(AffineMap::identity()),
        PlaneTransform::Affine(AffineMap::translation(rat(17), rat(-3))),
        PlaneTransform::Affine(AffineMap::scaling(rat(3), rat(2))),
    ];
    for (inst, text, answer) in &pinned {
        let sentence = topodb::query::parse(text).unwrap();
        for map in &maps {
            let image = map.apply_instance(inst).unwrap();
            let evaluator = topodb::query::rect_eval::RectEvaluator::new(&image).unwrap();
            assert_eq!(evaluator.eval(&sentence).unwrap(), *answer, "{text} on {} rectangles under {map:?}", inst.len());
        }
    }
}

/// E17 — [GPP95] / Section 6: topological inference over the existential
/// fragment — constraint networks from real instances are satisfiable, and
/// impossible networks are refuted.
#[test]
fn e17_topological_inference() {
    use topodb::relations::{ConstraintNetwork, RelationSet};
    let net = topodb::relations::network_of_instance(&datagen::grid_map(3, 2, 4));
    assert!(net.is_satisfiable());
    let mut bad = ConstraintNetwork::unconstrained(3);
    bad.constrain_base(0, 1, Relation4::Inside);
    bad.constrain_base(1, 2, Relation4::Inside);
    bad.constrain(0, 2, RelationSet::from_slice(&[Relation4::Disjoint, Relation4::Meet]));
    assert!(!bad.is_satisfiable());
}

/// E18 — ablation of the invariant's parts (Figs. 6 and 7): two flowers of
/// eight petals that differ only in the cyclic order of their petals. With
/// the orientation relation the invariants are not isomorphic, with or
/// without the exterior face; without it they are.
#[test]
fn e18_orientation_separates_the_flowers() {
    let a = Invariant::of_instance(&datagen::flower(8, 1));
    let b = Invariant::of_instance(&datagen::flower(8, 2));
    let isomorphic = |options| find_isomorphism(&a, &b, options).is_some();
    assert!(!isomorphic(IsoOptions::full()));
    assert!(isomorphic(IsoOptions::without_orientation()));
    assert!(!isomorphic(IsoOptions::without_exterior()));
    assert!(isomorphic(IsoOptions::labeled_graph_only()));
}

/// Cross-cutting sanity: every pairwise relation reported by the geometric
/// engine is consistent with the composition table (soundness on random-ish
/// workloads).
#[test]
fn composition_soundness_on_generated_workloads() {
    for seed in [1u64, 7, 23] {
        let inst = datagen::random_rectangles(6, 30, seed);
        let rels = all_pairwise_relations(&inst);
        let names: Vec<String> = inst.names().into_iter().map(String::from).collect();
        let lookup = |x: &str, y: &str| -> Relation4 {
            if x == y {
                return Relation4::Equal;
            }
            rels.iter()
                .find_map(|(a, b, r)| {
                    if a == x && b == y {
                        Some(*r)
                    } else if a == y && b == x {
                        Some(r.inverse())
                    } else {
                        None
                    }
                })
                .unwrap()
        };
        for a in &names {
            for b in &names {
                for c in &names {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let composed = topodb::relations::compose(lookup(a, b), lookup(b, c));
                    assert!(composed.contains(lookup(a, c)), "{a},{b},{c} seed {seed}");
                }
            }
        }
    }
}
