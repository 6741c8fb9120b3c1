//! # datagen
//!
//! Deterministic workload generators for the test suite and the benchmark
//! harness: parameterized families of spatial instances whose size can be
//! swept to measure the scaling behaviour of the invariant construction,
//! isomorphism checking and query evaluation (the paper's polynomial-time /
//! NC claims).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_core::prelude::*;

/// A "land-use map": an `rows x cols` grid of axis-parallel rectangular
/// parcels, each a named region, adjacent parcels meeting along shared edges.
///
/// This is the workload of the construction, thematic and sentence
/// experiments: the number of cells of the complex grows linearly with the
/// number of parcels, and every parcel pair stands in a `meet` or
/// `disjoint` relation.
pub fn grid_map(cols: usize, rows: usize, cell_size: i64) -> SpatialInstance {
    assert!(cols > 0 && rows > 0 && cell_size > 0);
    let mut inst = SpatialInstance::new();
    for r in 0..rows {
        for c in 0..cols {
            let x1 = c as i64 * cell_size;
            let y1 = r as i64 * cell_size;
            let name = format!("P{:03}_{:03}", r, c);
            inst.insert(name, Region::rect_from_ints(x1, y1, x1 + cell_size, y1 + cell_size));
        }
    }
    inst
}

/// `n` nested rectangles (`R0 ⊃ R1 ⊃ … ⊃ R(n-1)`), pairwise in the
/// `contains` relation; the cell complex is a chain of annuli.
pub fn nested_rings(n: usize) -> SpatialInstance {
    assert!(n > 0);
    let mut inst = SpatialInstance::new();
    let size = 4 * n as i64 + 4;
    for i in 0..n {
        let off = 2 * i as i64;
        inst.insert(
            format!("R{i:03}"),
            Region::rect_from_ints(off, off, size - off, size - off),
        );
    }
    inst
}

/// A chain of `n` rectangles in which consecutive ones overlap and
/// non-consecutive ones are disjoint.
pub fn overlapping_chain(n: usize) -> SpatialInstance {
    assert!(n > 0);
    let mut inst = SpatialInstance::new();
    for i in 0..n {
        let x = 6 * i as i64;
        inst.insert(format!("C{i:03}"), Region::rect_from_ints(x, 0, x + 8, 4));
    }
    inst
}

/// `n` pseudo-random axis-parallel rectangles with integer coordinates in
/// `[0, span)`, deterministic in the seed. Degenerate rectangles are avoided;
/// duplicates may occur only with astronomically small probability.
pub fn random_rectangles(n: usize, span: i64, seed: u64) -> SpatialInstance {
    assert!(n > 0 && span > 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = SpatialInstance::new();
    for i in 0..n {
        let x1 = rng.gen_range(0..span - 2);
        let y1 = rng.gen_range(0..span - 2);
        let w = rng.gen_range(1..=(span - x1 - 1).min(span / 3).max(1));
        let h = rng.gen_range(1..=(span - y1 - 1).min(span / 3).max(1));
        inst.insert(format!("R{i:03}"), Region::rect_from_ints(x1, y1, x1 + w, y1 + h));
    }
    inst
}

/// A "flower": `n` triangular petals sharing the origin, in pseudo-random
/// cyclic order determined by the seed. Exercises high-degree vertices and
/// the orientation relation.
pub fn flower(n: usize, seed: u64) -> SpatialInstance {
    assert!((3..=24).contains(&n), "flower size must be between 3 and 24");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    // Petal k occupies the angular sector around direction k; use integer
    // points on a coarse circle to stay exact.
    let dirs: [(i64, i64); 24] = [
        (40, 0), (39, 10), (35, 20), (28, 28), (20, 35), (10, 39), (0, 40), (-10, 39),
        (-20, 35), (-28, 28), (-35, 20), (-39, 10), (-40, 0), (-39, -10), (-35, -20),
        (-28, -28), (-20, -35), (-10, -39), (0, -40), (10, -39), (20, -35), (28, -28),
        (35, -20), (39, -10),
    ];
    let step = 24 / n;
    let mut inst = SpatialInstance::new();
    for (slot, &petal) in order.iter().enumerate() {
        let (cx, cy) = dirs[slot * step];
        // A thin triangle from the origin toward (cx, cy).
        let perp = (-cy / 10, cx / 10);
        let poly = Polygon::new(vec![
            pt(0, 0),
            pt(cx - perp.0, cy - perp.1),
            pt(cx + perp.0, cy + perp.1),
        ])
        .expect("petal triangles are valid");
        inst.insert(format!("F{petal:02}"), Region::polygon(poly));
    }
    inst
}

/// A dense "land-use map with surveying errors": like [`grid_map`], but every
/// parcel is enlarged past its grid cell so it properly overlaps its right
/// and upper neighbors. Unlike the shared-edge grid, whose intersections are
/// all endpoint coincidences, this workload produces `Theta(n)` *proper
/// segment crossings* — the `k` term of the sweep's `O((n + k) log n)` bound.
pub fn dense_overlap_map(cols: usize, rows: usize, cell_size: i64) -> SpatialInstance {
    assert!(cols > 0 && rows > 0 && cell_size > 1);
    let overhang = cell_size / 2;
    let mut inst = SpatialInstance::new();
    for r in 0..rows {
        for c in 0..cols {
            let x1 = c as i64 * cell_size;
            let y1 = r as i64 * cell_size;
            let name = format!("P{:03}_{:03}", r, c);
            inst.insert(
                name,
                Region::rect_from_ints(x1, y1, x1 + cell_size + overhang, y1 + cell_size + overhang),
            );
        }
    }
    inst
}

/// A randomized dense single-component map: like [`dense_overlap_map`], but
/// every parcel's right/upper overhang is drawn pseudo-randomly (at least
/// `1`, so each parcel still properly overlaps its right and upper
/// neighbors, keeping the whole map one interaction component), and the
/// parcel corners are jittered within the cell. Deterministic in the seed.
///
/// One big crossing-heavy component with an irregular endpoint-x
/// distribution: the sweep and every post-split phase run on geometry that
/// is not axis-aligned-regular, and component-level parallelism has a
/// single work item.
pub fn jittered_overlap_map(cols: usize, rows: usize, cell_size: i64, seed: u64) -> SpatialInstance {
    assert!(cols > 0 && rows > 0 && cell_size > 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = SpatialInstance::new();
    for r in 0..rows {
        for c in 0..cols {
            // Jitter stays below cell_size / 3; the overhang always exceeds
            // it, so every parcel properly overlaps its right and upper
            // neighbors whatever the draws — the map is one component.
            let x1 = c as i64 * cell_size + rng.gen_range(0..cell_size / 3 + 1);
            let y1 = r as i64 * cell_size + rng.gen_range(0..cell_size / 3 + 1);
            let over_x = rng.gen_range(cell_size / 3 + 1..=cell_size);
            let over_y = rng.gen_range(cell_size / 3 + 1..=cell_size);
            let name = format!("P{:03}_{:03}", r, c);
            inst.insert(
                name,
                Region::rect_from_ints(
                    x1,
                    y1,
                    (c as i64 + 1) * cell_size + over_x,
                    (r as i64 + 1) * cell_size + over_y,
                ),
            );
        }
    }
    inst
}

/// A cadastral "road network" map: a `cols x rows` sheet of quadrilateral
/// parcels over a *shared* jittered corner lattice, with a deterministic
/// pseudo-random quarter of the cells split along their diagonal into two
/// triangular parcels (the grid-with-diagonals shape of survey maps).
/// Deterministic in the seed.
///
/// Unlike [`jittered_overlap_map`], whose parcels properly cross, every
/// boundary here is *shared exactly*: neighboring parcels reuse the same
/// lattice corner points, so the arrangement is dominated by endpoint
/// coincidences, collinear shared edges and multi-region boundary marks
/// rather than proper crossings — the workload for the shared-boundary
/// handling of the sweep and for non-rectangular (`Polygon`) regions in
/// general. The whole sheet is one interaction component. Quadrilateral
/// parcels are named `Q{row:03}_{col:03}`; the two triangles of a split
/// cell `T{row:03}_{col:03}a` (lower-right) and `T{row:03}_{col:03}b`
/// (upper-left).
pub fn road_network_map(cols: usize, rows: usize, cell_size: i64, seed: u64) -> SpatialInstance {
    assert!(cols > 0 && rows > 0 && cell_size > 2);
    let mut rng = StdRng::seed_from_u64(seed);
    // Each lattice corner is jittered once and shared by every parcel
    // incident to it. Displacements stay within ±cell_size/8 < cell_size/6,
    // which keeps every triangle's orientation strictly positive and hence
    // every parcel simple.
    let jitter = (cell_size / 4).max(1);
    let mut corners = vec![vec![(0i64, 0i64); cols + 1]; rows + 1];
    for (r, row) in corners.iter_mut().enumerate() {
        for (c, corner) in row.iter_mut().enumerate() {
            let dx = rng.gen_range(0..jitter) - jitter / 2;
            let dy = rng.gen_range(0..jitter) - jitter / 2;
            *corner = (c as i64 * cell_size + dx, r as i64 * cell_size + dy);
        }
    }
    let mut inst = SpatialInstance::new();
    for r in 0..rows {
        for c in 0..cols {
            let p00 = corners[r][c];
            let p10 = corners[r][c + 1];
            let p11 = corners[r + 1][c + 1];
            let p01 = corners[r + 1][c];
            if rng.gen_range(0..4usize) == 0 {
                let lower = Polygon::from_ints(&[p00, p10, p11])
                    .expect("jittered lattice triangle is simple");
                let upper = Polygon::from_ints(&[p00, p11, p01])
                    .expect("jittered lattice triangle is simple");
                inst.insert(format!("T{r:03}_{c:03}a"), Region::polygon(lower));
                inst.insert(format!("T{r:03}_{c:03}b"), Region::polygon(upper));
            } else {
                let quad = Polygon::from_ints(&[p00, p10, p11, p01])
                    .expect("jittered lattice quad is simple");
                inst.insert(format!("Q{r:03}_{c:03}"), Region::polygon(quad));
            }
        }
    }
    inst
}

/// The side length of the area a [`clustered_map`] cluster draws its
/// rectangles in (a rectangle may stick out by at most `CLUSTER_SPAN / 2`).
pub const CLUSTER_SPAN: i64 = 20;

/// The grid pitch between cluster origins in a [`clustered_map`]: several
/// times [`CLUSTER_SPAN`], so distinct clusters can never interact.
pub const CLUSTER_GAP: i64 = CLUSTER_SPAN * 5;

/// The origin of cluster `c` in a [`clustered_map`] with `clusters` clusters
/// (clusters are laid out row-major on a near-square grid).
pub fn cluster_origin(c: usize, clusters: usize) -> (i64, i64) {
    let cols = (clusters as f64).sqrt().ceil() as i64;
    ((c as i64 % cols) * CLUSTER_GAP, (c as i64 / cols) * CLUSTER_GAP)
}

/// A pseudo-random rectangle inside cluster `c`'s area of a
/// [`clustered_map`] — the update generator used by the incremental
/// maintenance tests and benchmarks to target a single cluster.
pub fn cluster_rect(rng: &mut StdRng, c: usize, clusters: usize) -> Region {
    let (ox, oy) = cluster_origin(c, clusters);
    let x1 = ox + rng.gen_range(0..CLUSTER_SPAN - 2);
    let y1 = oy + rng.gen_range(0..CLUSTER_SPAN - 2);
    let w = rng.gen_range(2..=CLUSTER_SPAN / 2);
    let h = rng.gen_range(2..=CLUSTER_SPAN / 2);
    Region::rect_from_ints(x1, y1, x1 + w, y1 + h)
}

/// A clustered multi-component map: `clusters` spatially separated groups of
/// `regions_per_cluster` pseudo-random rectangles each, deterministic in the
/// seed.
///
/// Clusters are laid out on a coarse grid ([`cluster_origin`]) with gaps
/// several times the cluster span, so clusters never interact and the
/// interaction-graph partition of `arrangement` yields at least one
/// component per cluster (a sparse cluster may split into a few); within a
/// cluster the rectangles are drawn from a tight span so that most of them
/// genuinely interact. This is the workload of the incremental-maintenance
/// test suite and of the benchmark's clustered workloads: region
/// `C{c:03}_R{r:03}` belongs to cluster `c`, so updates can target a single
/// cluster by construction ([`cluster_rect`]).
pub fn clustered_map(clusters: usize, regions_per_cluster: usize, seed: u64) -> SpatialInstance {
    assert!(clusters > 0 && regions_per_cluster > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = SpatialInstance::new();
    for c in 0..clusters {
        for r in 0..regions_per_cluster {
            inst.insert(format!("C{c:03}_R{r:03}"), cluster_rect(&mut rng, c, clusters));
        }
    }
    inst
}

/// A Zipf-skewed clustered map: like [`clustered_map`], but the `total`
/// regions are distributed over the `clusters` clusters with sizes
/// proportional to `1 / rank` (cluster 0 the largest), apportioned exactly by
/// largest-remainder rounding so the sizes always sum to `total` and every
/// cluster receives at least one region (requires `total >= clusters`).
/// Deterministic in the seed.
///
/// This is the skewed workload for the semi-join query planner: region
/// density — and hence bbox-neighbor counts and candidate-set sizes — varies
/// by orders of magnitude between the head cluster and the tail, so
/// selectivity ordering and index-driven candidate generation are exercised
/// on non-uniform data. Region `C{c:03}_R{r:03}` belongs to cluster `c`, as
/// in [`clustered_map`].
pub fn zipf_clustered_map(clusters: usize, total: usize, seed: u64) -> SpatialInstance {
    assert!(clusters > 0 && total >= clusters, "need at least one region per cluster");
    // Zipf weights 1/1, 1/2, ..., apportioned by largest remainder on top of
    // the guaranteed one region per cluster.
    let weights: Vec<f64> = (0..clusters).map(|c| 1.0 / (c + 1) as f64).collect();
    let weight_sum: f64 = weights.iter().sum();
    let spare = (total - clusters) as f64;
    let quotas: Vec<f64> = weights.iter().map(|w| spare * w / weight_sum).collect();
    let mut sizes: Vec<usize> = quotas.iter().map(|q| 1 + q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..clusters).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a].fract(), quotas[b].fract());
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let assigned: usize = sizes.iter().sum();
    for &c in order.iter().take(total - assigned) {
        sizes[c] += 1;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), total);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = SpatialInstance::new();
    for (c, &size) in sizes.iter().enumerate() {
        for r in 0..size {
            inst.insert(format!("C{c:03}_R{r:03}"), cluster_rect(&mut rng, c, clusters));
        }
    }
    inst
}

/// A "wide" multi-component map: `components` spatially separated pairs of
/// overlapping rectangles, deterministic in the seed.
///
/// Every component is tiny (two pseudo-random rectangles that always
/// overlap) and components are laid out on a coarse grid with gaps several
/// times their span, so the interaction-graph partition of `arrangement`
/// yields exactly `components` groups of near-constant size. This is the
/// many-small-component workload where assembly cost and parallel sweeping
/// dominate — the sweet spot for the zero-copy `GlobalComplexView` (whose
/// assembly is `O(components)`, not `O(total cells)`) and for the
/// per-component worker pool. Region `W{c:04}_{A,B}` belongs to component
/// `c`.
pub fn wide_map(components: usize, seed: u64) -> SpatialInstance {
    assert!(components > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let span: i64 = 12;
    let pitch: i64 = span * 4;
    let cols = (components as f64).sqrt().ceil() as i64;
    let mut inst = SpatialInstance::new();
    for c in 0..components {
        let ox = (c as i64 % cols) * pitch;
        let oy = (c as i64 / cols) * pitch;
        // Rectangle A anchored at the component origin; rectangle B is A
        // translated diagonally by less than its size, so the two boundaries
        // always cross (never nest) and the pair forms exactly one
        // interaction component, well inside the pitch.
        let aw = rng.gen_range(4..=span - 4);
        let ah = rng.gen_range(4..=span - 4);
        let bx = ox + rng.gen_range(1..aw);
        let by = oy + rng.gen_range(1..ah);
        inst.insert(format!("W{c:04}_A"), Region::rect_from_ints(ox, oy, ox + aw, oy + ah));
        inst.insert(format!("W{c:04}_B"), Region::rect_from_ints(bx, by, bx + aw, by + ah));
    }
    inst
}

/// The instance-size sweep of the scale ruler's sentence family and of the
/// construction tests: grid maps with roughly `n` regions.
pub fn scaling_sweep(sizes: &[usize]) -> Vec<(usize, SpatialInstance)> {
    sizes
        .iter()
        .map(|&n| {
            let cols = (n as f64).sqrt().ceil() as usize;
            let rows = n.div_ceil(cols);
            (cols * rows, grid_map(cols, rows, 4))
        })
        .collect()
}

/// One operation of an [`op_trace`] batch: insert (or replace) a named
/// region, or remove one.
///
/// Mirrors the facade's transaction ops without depending on it, so the
/// trace generator can be shared by the recovery differential suite and the
/// WAL benchmarks (both fold a trace into `TopoDatabase` batches) as well as
/// by oracle replays over a bare `SpatialInstance`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceOp {
    /// Insert the region under the name, replacing any existing binding.
    Insert(String, Region),
    /// Remove the name (always targets a name live at that point in the
    /// trace).
    Remove(String),
}

/// A deterministic randomized commit trace: `steps` batches of 1–4
/// [`TraceOp`]s over the [`clustered_map`] geometry (fresh [`cluster_rect`]
/// rectangles across 4 clusters), mixing inserts of new names, replacements
/// of live names, and removals of live names.
///
/// The generator tracks the live-name set, so every `Remove` (and roughly a
/// third of the `Insert`s, as replacements) targets a name that exists at
/// that point in the trace; replaying the batches in order over an empty
/// instance is therefore always well-formed. Identical `(steps, seed)`
/// arguments yield byte-identical traces — the recovery differential suite
/// relies on this to crash-and-reopen the same workload many times.
pub fn op_trace(steps: usize, seed: u64) -> Vec<Vec<TraceOp>> {
    const CLUSTERS: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<String> = Vec::new();
    let mut next_id: usize = 0;
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        let batch_len = rng.gen_range(1..=4);
        let mut batch = Vec::with_capacity(batch_len);
        for _ in 0..batch_len {
            let c = rng.gen_range(0..CLUSTERS);
            let region = cluster_rect(&mut rng, c, CLUSTERS);
            // Keep the live set growing on balance: remove ~1 in 4, replace
            // ~1 in 4, insert fresh otherwise.
            let roll = rng.gen_range(0..4u32);
            if roll == 0 && live.len() > 2 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                batch.push(TraceOp::Remove(victim));
            } else if roll == 1 && !live.is_empty() {
                let target = live[rng.gen_range(0..live.len())].clone();
                batch.push(TraceOp::Insert(target, region));
            } else {
                let name = format!("W{next_id:05}");
                next_id += 1;
                live.push(name.clone());
                batch.push(TraceOp::Insert(name, region));
            }
        }
        trace.push(batch);
    }
    trace
}

/// A deterministic commit trace over [`jittered_overlap_map`]`(cols, rows,
/// cell_size, _)`, editing the one big component the way a dense editing
/// workload does. Batch 0 inserts `Island`, a rectangle east of the map
/// that is a component of its own; after that:
///
/// * every 8th batch replaces every edit rectangle still held by fresh ones,
///   8 edits in all;
/// * batches 5, 30, 55, … insert `Bridge`, which crosses the map's east
///   column and the island and so merges the two components, and the batch
///   after each removes it again, splitting them;
/// * otherwise one edit: a reshape (1 in 4) of a held rectangle or, 1 in 4
///   of those, of a parcel redrawn in its own cell; the removal of the
///   oldest held rectangle once 4 are held; or the insert of a new one.
///
/// Edit rectangles are named `X{serial:06}`; each straddles a parcel
/// corner, overlapping at least two parcels, so the map stays one component.
pub fn dense_edit_trace(
    cols: usize,
    rows: usize,
    cell_size: i64,
    steps: usize,
    seed: u64,
) -> Vec<Vec<TraceOp>> {
    assert!(cols > 1 && rows > 1 && cell_size > 3);
    let (w, h, cell) = (cols as i64, rows as i64, cell_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let straddling = |rng: &mut StdRng| {
        let x1 = rng.gen_range(0..w - 1) * cell + cell / 2 + rng.gen_range(0..cell / 4);
        let y1 = rng.gen_range(0..h - 1) * cell + cell / 2 + rng.gen_range(0..cell / 4);
        let (dx, dy) = (cell + rng.gen_range(0..cell / 2), cell + rng.gen_range(0..cell / 2));
        Region::rect_from_ints(x1, y1, x1 + dx, y1 + dy)
    };
    let mut held: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let mut serial = 0usize;
    let mut fresh = |held: &mut std::collections::VecDeque<String>, rng: &mut StdRng| {
        let name = format!("X{serial:06}");
        serial += 1;
        held.push_back(name.clone());
        TraceOp::Insert(name, straddling(rng))
    };
    let island = Region::rect_from_ints((w + 3) * cell, cell, (w + 4) * cell, 2 * cell);
    let mut trace = vec![vec![TraceOp::Insert("Island".into(), island)]];
    for step in 1..steps {
        let batch = if step % 8 == 0 {
            let mut batch: Vec<TraceOp> = held.drain(..).map(TraceOp::Remove).collect();
            while batch.len() < 8 {
                batch.push(fresh(&mut held, &mut rng));
            }
            batch
        } else if step % 25 == 5 {
            let y = cell + cell / 4;
            let bridge = Region::rect_from_ints((w - 1) * cell, y, (w + 3) * cell + cell / 2, y + 2);
            vec![TraceOp::Insert("Bridge".into(), bridge)]
        } else if step % 25 == 6 {
            vec![TraceOp::Remove("Bridge".into())]
        } else if rng.gen_range(0..4) == 0 && !held.is_empty() {
            if rng.gen_range(0..4) == 0 {
                let (r, c) = (rng.gen_range(0..h), rng.gen_range(0..w));
                let x1 = c * cell + rng.gen_range(0..cell / 3 + 1);
                let y1 = r * cell + rng.gen_range(0..cell / 3 + 1);
                let x2 = (c + 1) * cell + rng.gen_range(cell / 3 + 1..=cell);
                let y2 = (r + 1) * cell + rng.gen_range(cell / 3 + 1..=cell);
                let parcel = Region::rect_from_ints(x1, y1, x2, y2);
                vec![TraceOp::Insert(format!("P{r:03}_{c:03}"), parcel)]
            } else {
                let target = held[rng.gen_range(0..held.len())].clone();
                vec![TraceOp::Insert(target, straddling(&mut rng))]
            }
        } else if held.len() >= 4 {
            vec![TraceOp::Remove(held.pop_front().expect("holds rectangles"))]
        } else {
            vec![fresh(&mut held, &mut rng)]
        };
        trace.push(batch);
    }
    trace
}

/// [`op_trace`] renamed to interleave with `base`, the names of the map it
/// is replayed over: a fifth of its names sort before every name of `base`
/// (`A` and the trace's name), the rest right after one of them (that name,
/// `_` and the trace's name), so a commit moves the ranks of names it does
/// not touch. Every third batch also removes a name of `base` still live.
pub fn interleaved_op_trace(base: &[String], steps: usize, seed: u64) -> Vec<Vec<TraceOp>> {
    let renamed = |name: String| -> String {
        let serial: usize = name[1..].parse().expect("op_trace names are W and a serial");
        match serial % 5 {
            0 => format!("A{name}"),
            _ => format!("{}_{name}", base[(serial * 7 + 3) % base.len()]),
        }
    };
    let mut removed = vec![false; base.len()];
    let mut trace = op_trace(steps, seed);
    for (step, batch) in trace.iter_mut().enumerate() {
        for op in batch.iter_mut() {
            *op = match std::mem::replace(op, TraceOp::Remove(String::new())) {
                TraceOp::Insert(name, region) => TraceOp::Insert(renamed(name), region),
                TraceOp::Remove(name) => TraceOp::Remove(renamed(name)),
            };
        }
        if step % 3 == 2 {
            let live = (0..base.len()).map(|k| (step * 11 + k) % base.len()).find(|&i| !removed[i]);
            if let Some(victim) = live {
                removed[victim] = true;
                batch.push(TraceOp::Remove(base[victim].clone()));
            }
        }
    }
    trace
}

/// A commit trace over [`nested_rings`]`(rings)` (`rings >= 3`) that moves
/// components between nesting levels, six kinds of batch in turn: a 1×1
/// dot inserted inside the innermost ring (one of nine spots; the oldest is
/// removed once four are held), a ring between the outermost and the
/// innermost removed and then re-inserted (whatever it enclosed moves one
/// level out and back), a bar inserted across the innermost ring's right
/// side (joining that ring's component) and removed again, and a far-away
/// square whose name sorts before every other (the oldest removed once
/// three are held). Names: `D…` dots, `B…` bars, `A…` squares.
pub fn nested_edit_trace(rings: usize, steps: usize) -> Vec<Vec<TraceOp>> {
    assert!(rings >= 3);
    let r = rings as i64;
    let ring = |i: usize| {
        let (off, size) = (2 * i as i64, 4 * r + 4);
        Region::rect_from_ints(off, off, size - off, size - off)
    };
    let (mut dots, mut squares) = (std::collections::VecDeque::new(), std::collections::VecDeque::new());
    let mut trace = Vec::with_capacity(steps);
    for step in 0..steps {
        let round = step / 6;
        let middle = 1 + round % (rings - 2);
        let batch = match step % 6 {
            0 => {
                let (x, y) = (2 * r - 1 + 2 * (round % 3) as i64, 2 * r - 1 + 2 * (round / 3 % 3) as i64);
                let name = format!("D{round:04}");
                dots.push_back(name.clone());
                let mut batch = vec![TraceOp::Insert(name, Region::rect_from_ints(x, y, x + 1, y + 1))];
                if dots.len() > 4 {
                    batch.push(TraceOp::Remove(dots.pop_front().expect("dots held")));
                }
                batch
            }
            1 => vec![TraceOp::Remove(format!("R{middle:03}"))],
            2 => vec![TraceOp::Insert(format!("R{middle:03}"), ring(middle))],
            3 => vec![TraceOp::Insert(format!("B{round:04}"), Region::rect_from_ints(2 * r + 5, 2 * r, 2 * r + 7, 2 * r + 1))],
            4 => vec![TraceOp::Remove(format!("B{round:04}"))],
            _ => {
                let name = format!("A{round:04}");
                squares.push_back(name.clone());
                let x = 1000 + 4 * round as i64;
                let mut batch = vec![TraceOp::Insert(name, Region::rect_from_ints(x, 0, x + 2, 2))];
                if squares.len() > 3 {
                    batch.push(TraceOp::Remove(squares.pop_front().expect("squares held")));
                }
                batch
            }
        };
        trace.push(batch);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay a trace over `names`, checking that every removal targets a
    /// live name; the live names at the end.
    fn replay_names(mut live: std::collections::BTreeSet<String>, trace: &[Vec<TraceOp>]) -> std::collections::BTreeSet<String> {
        for batch in trace {
            for op in batch {
                match op {
                    TraceOp::Insert(name, _) => {
                        live.insert(name.clone());
                    }
                    TraceOp::Remove(name) => assert!(live.remove(name), "remove of dead name {name}"),
                }
            }
        }
        live
    }

    #[test]
    fn interleaved_and_nested_edit_traces_are_well_formed() {
        let base: Vec<String> = clustered_map(4, 3, 5).names().iter().map(|s| s.to_string()).collect();
        let trace = interleaved_op_trace(&base, 30, 11);
        let names: std::collections::BTreeSet<&String> = trace.iter().flatten().map(|op| match op {
            TraceOp::Insert(name, _) | TraceOp::Remove(name) => name,
        }).collect();
        assert!(names.iter().any(|n| n.as_str() < base[0].as_str()), "some names sort before the base");
        assert!(names.iter().any(|n| base.iter().any(|b| n.starts_with(&format!("{b}_")))), "some land between");
        let live = replay_names(base.iter().cloned().collect(), &trace);
        assert!(base.iter().any(|b| !live.contains(b)), "base names are removed");

        let rings: std::collections::BTreeSet<String> = nested_rings(5).names().iter().map(|s| s.to_string()).collect();
        let live = replay_names(rings.clone(), &nested_edit_trace(5, 60));
        assert!(rings.is_subset(&live), "every ring removed is re-inserted");
    }

    #[test]
    fn grid_map_counts_and_classes() {
        let g = grid_map(4, 3, 5);
        assert_eq!(g.len(), 12);
        assert_eq!(g.common_class(), RegionClass::Rect);
    }

    #[test]
    fn nested_and_chain() {
        let n = nested_rings(5);
        assert_eq!(n.len(), 5);
        let c = overlapping_chain(6);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn random_rectangles_deterministic() {
        let a = random_rectangles(10, 50, 42);
        let b = random_rectangles(10, 50, 42);
        assert_eq!(a, b);
        let c = random_rectangles(10, 50, 43);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn flower_petals_touch_origin() {
        let f = flower(6, 7);
        assert_eq!(f.len(), 6);
        for (_, region) in f.iter() {
            assert_eq!(region.locate(&pt(0, 0)), Location::Boundary);
        }
        // Different seeds give different cyclic orders (almost surely).
        assert_ne!(flower(6, 7), flower(6, 8));
    }

    #[test]
    fn clustered_map_is_deterministic_and_separated() {
        let a = clustered_map(4, 3, 11);
        let b = clustered_map(4, 3, 11);
        assert_eq!(a, b);
        assert_ne!(a, clustered_map(4, 3, 12));
        assert_eq!(a.len(), 12);
        // Names encode the cluster, and clusters never overlap: all of
        // cluster 0 stays inside [0, 100) x [0, 100), cluster 1 starts at
        // x = 100.
        for (name, region) in a.iter() {
            let (x0, _, x1, _) = region.bounding_box();
            if name.starts_with("C000_") {
                assert!(x1 < Rational::from_int(100), "{name} leaks out of cluster 0");
            }
            if name.starts_with("C001_") {
                assert!(x0 >= Rational::from_int(100), "{name} leaks into cluster 0");
            }
        }
    }

    #[test]
    fn zipf_clustered_map_sizes_and_determinism() {
        let a = zipf_clustered_map(4, 20, 11);
        assert_eq!(a, zipf_clustered_map(4, 20, 11));
        assert_ne!(a, zipf_clustered_map(4, 20, 12));
        assert_eq!(a.len(), 20);
        // Cluster sizes are Zipf-skewed: counts decrease with rank and every
        // cluster is nonempty. Weights 1/1,1/2,1/3,1/4 over 16 spare regions
        // on top of 1 each → sizes [9, 5, 3, 3] or a largest-remainder
        // neighbor; check the shape rather than exact values.
        let count = |c: usize| {
            a.iter().filter(|(n, _)| n.starts_with(&format!("C{c:03}_"))).count()
        };
        let sizes: Vec<usize> = (0..4).map(count).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "sizes decrease: {sizes:?}");
        assert!(sizes[0] >= 2 * sizes[3], "head dominates tail: {sizes:?}");
        assert!(sizes.iter().all(|&s| s >= 1));
        // Clusters stay spatially separated, as in clustered_map.
        for (name, region) in a.iter() {
            let (x0, _, x1, _) = region.bounding_box();
            if name.starts_with("C000_") {
                assert!(x1 < Rational::from_int(100), "{name} leaks out of cluster 0");
            }
            if name.starts_with("C001_") {
                assert!(x0 >= Rational::from_int(100), "{name} leaks into cluster 0");
            }
        }
    }

    #[test]
    fn wide_map_is_deterministic_and_component_separated() {
        let a = wide_map(9, 3);
        assert_eq!(a, wide_map(9, 3));
        assert_ne!(a, wide_map(9, 4));
        assert_eq!(a.len(), 18, "two regions per component");
        // The two rectangles of a component always properly overlap, and
        // components never leave their grid cell (pitch 48).
        for c in 0..9usize {
            let ra = a.ext(&format!("W{c:04}_A")).unwrap();
            let rb = a.ext(&format!("W{c:04}_B")).unwrap();
            let (bx0, by0, _, _) = rb.bounding_box();
            assert_eq!(
                ra.locate(&Point::new(
                    bx0 + Rational::new(1, 2),
                    by0 + Rational::new(1, 2)
                )),
                Location::Inside,
                "component {c}: B's corner area lies inside A"
            );
            let (ax0, _, ax1, _) = ra.bounding_box();
            let cell = Rational::from_int(48);
            let col = Rational::from_int((c as i64 % 3) * 48);
            assert!(ax0 >= col && ax1 < col + cell, "component {c} stays in its grid cell");
        }
    }

    #[test]
    fn jittered_overlap_map_is_deterministic_and_overlapping() {
        let a = jittered_overlap_map(4, 3, 6, 17);
        assert_eq!(a, jittered_overlap_map(4, 3, 6, 17));
        assert_ne!(a, jittered_overlap_map(4, 3, 6, 18));
        assert_eq!(a.len(), 12);
        // Every parcel properly overlaps its right and upper neighbor: their
        // shared corner area contains interior points of both.
        for r in 0..3usize {
            for c in 0..4usize {
                let me = a.ext(&format!("P{:03}_{:03}", r, c)).unwrap();
                let (_, _, x2, y2) = me.bounding_box();
                if c + 1 < 4 {
                    let right = a.ext(&format!("P{:03}_{:03}", r, c + 1)).unwrap();
                    let (rx1, _, _, _) = right.bounding_box();
                    assert!(rx1 < x2, "parcel ({r},{c}) must overlap its right neighbor");
                }
                if r + 1 < 3 {
                    let up = a.ext(&format!("P{:03}_{:03}", r + 1, c)).unwrap();
                    let (_, uy1, _, _) = up.bounding_box();
                    assert!(uy1 < y2, "parcel ({r},{c}) must overlap its upper neighbor");
                }
            }
        }
    }

    #[test]
    fn road_network_map_is_deterministic_shared_boundary_sheet() {
        let a = road_network_map(5, 4, 8, 21);
        assert_eq!(a, road_network_map(5, 4, 8, 21));
        assert_ne!(a, road_network_map(5, 4, 8, 22));
        // One quad or two triangles per cell; with seed 21 both kinds occur.
        let quads = a.iter().filter(|(n, _)| n.starts_with('Q')).count();
        let tris = a.iter().filter(|(n, _)| n.starts_with('T')).count();
        assert_eq!(tris % 2, 0, "triangles come in diagonal pairs");
        assert_eq!(quads + tris / 2, 20, "every cell is covered");
        assert!(quads > 0 && tris > 0, "mixed parcel shapes");
        assert_eq!(a.common_class(), RegionClass::Poly);
        // Parcels are polygons over a shared lattice: cells stay within one
        // jitter of their nominal footprint.
        for (name, region) in a.iter() {
            let (x0, _, x1, _) = region.bounding_box();
            let c: i64 = name[5..8].parse().unwrap();
            assert!(x0 >= Rational::from_int(c * 8 - 2), "{name} within lattice");
            assert!(x1 <= Rational::from_int((c + 1) * 8 + 2), "{name} within lattice");
        }
    }

    #[test]
    fn scaling_sweep_sizes() {
        let sweep = scaling_sweep(&[4, 9, 16]);
        assert_eq!(sweep.len(), 3);
        for (n, inst) in sweep {
            assert_eq!(inst.len(), n);
        }
    }

    #[test]
    fn dense_overlap_map_overlaps_neighbors() {
        let m = dense_overlap_map(3, 2, 4);
        assert_eq!(m.len(), 6);
        // Horizontally adjacent parcels share interior points: the first
        // parcel reaches x=6 while its right neighbor starts at x=4.
        let a = m.ext("P000_000").unwrap();
        let b = m.ext("P000_001").unwrap();
        assert_eq!(a.locate(&pt(5, 2)), Location::Inside);
        assert_eq!(b.locate(&pt(5, 2)), Location::Inside);
    }

    #[test]
    fn op_trace_is_deterministic_and_well_formed() {
        let a = op_trace(40, 7);
        let b = op_trace(40, 7);
        assert_eq!(a, b, "same (steps, seed) yields the identical trace");
        assert_ne!(a, op_trace(40, 8), "the seed matters");
        assert_eq!(a.len(), 40);

        // Replaying over a live-name oracle: every Remove (and every
        // replacement Insert) targets a name that exists at that point.
        let mut live = std::collections::BTreeSet::new();
        let (mut removes, mut replaces) = (0usize, 0usize);
        for batch in &a {
            assert!((1..=4).contains(&batch.len()));
            for op in batch {
                match op {
                    TraceOp::Insert(name, _) => {
                        if !live.insert(name.clone()) {
                            replaces += 1;
                        }
                    }
                    TraceOp::Remove(name) => {
                        assert!(live.remove(name), "remove of dead name {name}");
                        removes += 1;
                    }
                }
            }
        }
        assert!(!live.is_empty(), "the live set grows on balance");
        assert!(removes > 0, "the mix includes removals");
        assert!(replaces > 0, "the mix includes replacements");
    }

    #[test]
    fn dense_edit_trace_is_deterministic_and_well_formed() {
        let a = dense_edit_trace(16, 16, 12, 60, 3);
        assert_eq!(a, dense_edit_trace(16, 16, 12, 60, 3));
        assert_ne!(a, dense_edit_trace(16, 16, 12, 60, 4), "the seed matters");
        assert_eq!(a.len(), 60);
        let mut live: std::collections::BTreeSet<String> =
            jittered_overlap_map(16, 16, 12, 1996).names().iter().map(|n| n.to_string()).collect();
        let (mut reshapes, mut parcels) = (0usize, 0usize);
        for (step, batch) in a.iter().enumerate() {
            assert_eq!(batch.len() == 8, step > 0 && step % 8 == 0, "batch {step}");
            for op in batch {
                match op {
                    TraceOp::Insert(name, _) => {
                        if !live.insert(name.clone()) {
                            reshapes += 1;
                            parcels += usize::from(name.starts_with('P'));
                        }
                    }
                    TraceOp::Remove(name) => assert!(live.remove(name), "remove of dead {name}"),
                }
            }
        }
        assert!(reshapes > parcels && parcels > 0, "reshapes of edits and of parcels");
        assert!(matches!(&a[5][..], [TraceOp::Insert(name, _)] if name == "Bridge"));
        assert_eq!(a[6], [TraceOp::Remove("Bridge".into())]);
    }
}
