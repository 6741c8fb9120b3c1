//! A land-use / GIS scenario: a parcel grid with an overlaid flood zone and a
//! protected wetland. Demonstrates the read/write split of the facade — the
//! overlays commit as one transaction — and the two set-returning query
//! paths: binding-producing prepared queries on a snapshot, and the thematic
//! bridge of Corollary 3.7, where the same bindings are computed as ordinary
//! relational (first-order) queries on `thematic(I)` without touching the
//! geometry again.
//!
//! Run with: `cargo run --example landuse_gis`

use topodb::query::ast::{Formula, NameTerm, RegionExpr};
use topodb::query::{thematic_eval, PreparedQuery};
use topodb::relations::Relation4;
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

fn main() {
    // A 4x3 grid of parcels plus two overlay zones, committed as one batch:
    // one epoch bump, one parallel re-sweep of the affected components.
    let mut db = TopoDatabase::from_instance(datagen_grid(4, 3, 6));
    let mut txn = db.begin();
    txn.insert("FloodZone", Region::rect_from_ints(3, 3, 16, 9));
    txn.insert("Wetland", Region::rect_from_ints(14, 2, 22, 10));
    let commit = txn.commit();
    println!("overlays committed as epoch {}", commit.epoch);

    let snap = db.snapshot();
    println!("regions: {:?}", snap.names());
    println!("{}", db.summary());

    // Which parcels are (partly) in the flood zone? One prepared query with
    // a free name variable returns all of them as bindings.
    let q = PreparedQuery::compile("overlap(ext(p), FloodZone)").unwrap();
    println!("\nParcels intersecting the flood zone (prepared query, snapshot):");
    for row in snap.evaluate(&q).unwrap().bindings().unwrap() {
        if row["p"].starts_with('P') {
            println!("  {}", row["p"]);
        }
    }

    // The same answer without geometry: evaluate the translated first-order
    // query against the thematic relational database (Corollary 3.7).
    let thematic = snap.thematic();
    let atom = Formula::rel(
        Relation4::Overlap,
        RegionExpr::Ext(NameTerm::Var("p".into())),
        RegionExpr::named("FloodZone"),
    );
    let rows =
        thematic_eval::bindings_on_thematic(&thematic, &atom, &["p".to_string()]).unwrap();
    let parcels: Vec<&str> =
        rows.iter().map(|r| r["p"].as_str()).filter(|p| p.starts_with('P')).collect();
    println!("same answer via thematic(I): {parcels:?}");

    // A topological integrity rule: no parcel may be completely inside the
    // wetland. Expressed with a name quantifier.
    let rule = PreparedQuery::compile("forallname a . not inside(ext(a), Wetland)").unwrap();
    println!("\nintegrity rule `{}`: {}", rule.text().unwrap(), snap.evaluate(&rule).unwrap());

    // Flood planning: is there a dry corridor through the flood zone — a
    // region inside the flood zone avoiding the wetland? Every region of
    // this map is a rectangle, so the query lives in the paper's tractable
    // FO(Rect, Rect) fragment (Theorem 6.4) and is answered by the
    // rectangle evaluator; the generic cell-union evaluator would face an
    // exponential quantifier domain on an overlay map of this size.
    let corridor = "exists r . subset(r, FloodZone) and disjoint(r, Wetland)";
    let formula = topodb::query::parse(corridor).unwrap();
    let answer =
        topodb::query::rect_eval::eval_on_rect_instance(&db.instance(), &formula).unwrap();
    println!("dry corridor inside flood zone: {answer:?}");
}

/// A small local copy of the datagen grid generator (examples avoid dev-only
/// dependencies).
fn datagen_grid(cols: usize, rows: usize, cell: i64) -> SpatialInstance {
    let mut inst = SpatialInstance::new();
    for r in 0..rows {
        for c in 0..cols {
            let x1 = c as i64 * cell;
            let y1 = r as i64 * cell;
            inst.insert(
                format!("P{r}{c}"),
                Region::rect_from_ints(x1, y1, x1 + cell, y1 + cell),
            );
        }
    }
    inst
}
