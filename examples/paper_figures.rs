//! Walk through the figures and worked examples of the paper and show how
//! each is reproduced by the library:
//!
//! * Fig. 1 / Examples 2.1, 4.1, 4.2 — four instances, 4-intersection
//!   equivalent in pairs yet topologically distinct, separated by
//!   region-based queries;
//! * Fig. 5 / Examples 3.1, 3.3, 3.6 — the invariant and thematic instance of
//!   Fig. 1c;
//! * Fig. 6 — the exterior face is essential;
//! * Fig. 7 — the orientation relation is essential.
//!
//! Run with: `cargo run --example paper_figures`

use topodb::arrangement::ComplexRead;
use topodb::invariant::{find_isomorphism, IsoOptions, Invariant};
use topodb::query::PreparedQuery;
use topodb::relations::four_intersection_equivalent;
use topodb::spatial_core::fixtures;
use topodb::TopoDatabase;

fn main() {
    // ---- Fig. 1 -----------------------------------------------------------
    println!("== Fig. 1: binary relations do not determine the topology ==");
    let fig1a = TopoDatabase::from_instance(fixtures::fig_1a());
    let fig1b = TopoDatabase::from_instance(fixtures::fig_1b());
    let fig1c = TopoDatabase::from_instance(fixtures::fig_1c());
    let fig1d = TopoDatabase::from_instance(fixtures::fig_1d());

    println!(
        "1a ~4int~ 1b: {}   homeomorphic: {}",
        four_intersection_equivalent(&fig1a.instance(), &fig1b.instance()),
        fig1a.snapshot().homeomorphic_to(&fig1b.snapshot())
    );
    println!(
        "1c ~4int~ 1d: {}   homeomorphic: {}",
        four_intersection_equivalent(&fig1c.instance(), &fig1d.instance()),
        fig1c.snapshot().homeomorphic_to(&fig1d.snapshot())
    );
    // The separating queries are compiled once and evaluated against the
    // snapshot of each instance — the prepared-query idiom.
    let q41 = PreparedQuery::compile("exists r . subset(r, A) and subset(r, B) and subset(r, C)")
        .unwrap();
    println!(
        "Example 4.1 query on 1a: {}, on 1b: {}",
        fig1a.snapshot().evaluate(&q41).unwrap(),
        fig1b.snapshot().evaluate(&q41).unwrap()
    );
    let q42 = PreparedQuery::compile(
        "forall r, s . (subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) -> \
         exists t . subset(t, A) and subset(t, B) and connect(t, r) and connect(t, s)",
    )
    .unwrap();
    println!(
        "Example 4.2 query on 1c: {}, on 1d: {}",
        fig1c.snapshot().evaluate(&q42).unwrap(),
        fig1d.snapshot().evaluate(&q42).unwrap()
    );

    // ---- Fig. 5 / Examples 3.1, 3.3, 3.6 -----------------------------------
    println!("\n== Fig. 5: the invariant of Fig. 1c (Examples 3.1 / 3.3 / 3.6) ==");
    let fig1c = fig1c.snapshot();
    println!("{}", Invariant::from_complex(&*fig1c.complex_view()));
    println!("thematic(I):\n{}", fig1c.thematic());

    // ---- Fig. 6 ------------------------------------------------------------
    println!("== Fig. 6: the exterior face is essential information ==");
    let t = Invariant::of_instance(&fixtures::ring_with_flag());
    let hole = t
        .face_ids()
        .find(|&f| f != t.exterior_face() && t.face_label(f) == Default::default())
        .unwrap();
    let swapped = t.with_exterior(hole);
    println!(
        "labeled graphs isomorphic (exterior ignored): {}",
        find_isomorphism(&t, &swapped, IsoOptions::without_exterior()).is_some()
    );
    println!(
        "invariants isomorphic (exterior respected):   {}",
        find_isomorphism(&t, &swapped, IsoOptions::full()).is_some()
    );

    // ---- Fig. 7 ------------------------------------------------------------
    println!("\n== Fig. 7: the orientation relation O is essential ==");
    let p1 = Invariant::of_instance(&fixtures::petals_abcd());
    let p2 = Invariant::of_instance(&fixtures::petals_acbd());
    println!(
        "G_I isomorphic (orientation ignored): {}",
        find_isomorphism(&p1, &p2, IsoOptions::without_orientation()).is_some()
    );
    println!(
        "T_I isomorphic (orientation used):    {}",
        find_isomorphism(&p1, &p2, IsoOptions::full()).is_some()
    );
}
