//! Quickstart: build a small topological spatial database through the
//! transactional write path, take an immutable snapshot, ask for
//! 4-intersection relations, run prepared (and binding-producing) queries —
//! including from several threads at once — and inspect the topological
//! invariant and its relational (thematic) form.
//!
//! Run with: `cargo run --example quickstart`

use topodb::invariant::Invariant;
use topodb::query::PreparedQuery;
use topodb::spatial_core::prelude::*;
use topodb::{QueryOutput, TopoDatabase};

fn main() {
    // A toy map: a lake, a park overlapping the lake shore, and a campsite
    // inside the park but away from the water. One transaction = one batch:
    // the three inserts commit with a single epoch bump and the first read
    // pays a single arrangement construction.
    let mut db = TopoDatabase::new();
    let mut txn = db.begin();
    txn.insert("Lake", Region::polygon_from_ints(&[(0, 0), (10, 0), (10, 8), (0, 8)]).unwrap());
    txn.insert("Park", Region::rect_from_ints(6, 2, 18, 12));
    txn.insert("Camp", Region::rect_from_ints(12, 4, 15, 7));
    let commit = txn.commit();
    println!("committed {} region(s) as epoch {}", commit.changed.len(), commit.epoch);

    println!("\n== database ==\n{}", db.instance());
    println!("summary: {}\n", db.summary());

    // All reads go through an immutable snapshot: cheap to clone, Send +
    // Sync, pinned to the epoch it was taken at.
    let snap = db.snapshot();

    println!("== pairwise 4-intersection relations (Fig. 2 of the paper) ==");
    for (a, b, rel) in snap.relation_matrix().expect("every pair classifies") {
        println!("  {a:5} {rel:<10} {b}");
    }

    println!("\n== region-based queries (Section 4 of the paper) ==");
    let queries = [
        // Is some part of the park under water?
        "exists r . subset(r, Lake) and subset(r, Park)",
        // Is the camp dry?
        "disjoint(Camp, Lake)",
        // Is the camp strictly inside the park?
        "inside(Camp, Park)",
        // Which regions touch the park? (free name variable -> bindings)
        "overlap(ext(x), Park) or inside(ext(x), Park)",
    ];
    for text in queries {
        let q = PreparedQuery::compile(text).expect("query compiles");
        println!("  {text}\n    -> {}", snap.evaluate(&q).unwrap());
    }

    // Prepared queries are compiled once and run against any snapshot — and
    // snapshots serve concurrent readers. Four threads share one snapshot:
    let wet = PreparedQuery::compile("exists r . subset(r, ext(x)) and subset(r, Lake)").unwrap();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let snap = snap.clone(); // Arc bump, no data copied
            let wet = &wet;
            scope.spawn(move || {
                if let QueryOutput::Bindings(rows) = snap.evaluate(wet).unwrap() {
                    let names: Vec<&str> = rows.iter().map(|r| r["x"].as_str()).collect();
                    println!("  [reader {worker}] regions with a wet part: {names:?}");
                }
            });
        }
    });

    // Writes after the snapshot do not disturb it: snapshots are immutable.
    let mut txn = db.begin();
    txn.insert("Island", Region::rect_from_ints(2, 2, 4, 4));
    txn.commit();
    let fresh = db.snapshot();
    println!(
        "\nepoch {} snapshot: {} regions; epoch {} snapshot: {} regions",
        snap.epoch(),
        snap.len(),
        fresh.epoch(),
        fresh.len()
    );

    println!("\n== the topological invariant T_I (Section 3) ==");
    println!("{}", Invariant::from_complex(&*fresh.complex_view()));

    println!("== the thematic relational database thematic(I) (Corollary 3.7) ==");
    println!("{}", fresh.thematic());
}
