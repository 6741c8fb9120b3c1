//! The four workloads and their inputs, all generated before anything is
//! timed: a base map and a query pool that are the same on every run, and
//! per-client operation sequences drawn from `--seed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_core::instance::SpatialInstance;
use spatial_core::region::Region;
use std::collections::VecDeque;

pub const READ: usize = 0;
pub const QUERY: usize = 1;
pub const TXN: usize = 2;
pub const CLASS_NAMES: [&str; 3] = ["read", "query", "txn"];

/// Draw weights of reads / queries / transactions.
pub const READ_HEAVY: [u32; 3] = [6, 3, 1];
pub const TXN_HEAVY: [u32; 3] = [3, 3, 4];
/// Where one commit costs a hundred reads, a 40% share of transactions
/// leaves too few reads and queries in a run for a steady median; at 20%
/// commits still take over two thirds of the time.
pub const COMMIT_BOUND: [u32; 3] = [9, 7, 4];

const REGIONS_PER_CLUSTER: usize = 16;
const DENSE_SIDE: usize = 16;
const DENSE_CELL: i64 = 12;
/// Once a client holds this many inserted regions, its next single edit
/// removes the oldest, so the database size is steady.
const EXTRAS_PER_CLIENT: usize = 4;
/// Every this-many-th transaction is a batch of [`BATCH_EDITS`] edits.
const BATCH_EVERY: usize = 8;
const BATCH_EDITS: usize = 8;
const ANCHORS: usize = 32;
/// The base maps are the same on every run: `--seed` varies which
/// operations run in which order, not the data set they run on, so that
/// runs with different seeds measure the same work.
const MAP_SEED: u64 = 1996;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Map {
    /// `datagen::clustered_map(clusters, 16, MAP_SEED)`: many small components.
    Clustered { clusters: usize },
    /// `datagen::jittered_overlap_map(16, 16, 12, MAP_SEED)`: one big component.
    Dense,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub map: Map,
    /// Closed-loop client threads; never more than the two cores measured on.
    pub clients: usize,
    pub mix: [u32; 3],
    /// Log to the real filesystem with a flush per commit.
    pub durable: bool,
    /// Operations per client per second of `--seconds`. The sequence length
    /// is fixed by this, so sample counts are the same on every commit; it
    /// is sized so the loop ends before the `--seconds` deadline on the
    /// 2-core reference host.
    pub ops_per_client_s: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve_256",
        why: "256 regions in ~24 small components, read-heavy: fixed per-operation overheads are visible and no layer dominates",
        map: Map::Clustered { clusters: 16 },
        clients: 2,
        mix: READ_HEAVY,
        durable: false,
        ops_per_client_s: 220,
    },
    Spec {
        name: "serve_1024",
        why: "same component size, 4x the database: work per database grows 4x, work per touched component stays",
        map: Map::Clustered { clusters: 64 },
        clients: 2,
        mix: READ_HEAVY,
        durable: false,
        ops_per_client_s: 47,
    },
    Spec {
        name: "edit_dense",
        why: "256 regions in one component, one client: every commit re-sweeps 1000+ segments, so the arrangement kernels do nearly all the work",
        map: Map::Dense,
        clients: 1,
        mix: COMMIT_BOUND,
        durable: false,
        ops_per_client_s: 50,
    },
    Spec {
        name: "durable_edits",
        why: "two writers on disjoint clusters logging to disk with a flush per commit, then reopen: the only workload where wal and publish conflicts work",
        map: Map::Clustered { clusters: 16 },
        clients: 2,
        mix: TXN_HEAVY,
        durable: true,
        ops_per_client_s: 88,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One buffered mutation of a transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Edit {
    Insert(String, Region),
    Remove(String),
}

impl Edit {
    pub fn name(&self) -> &str {
        match self {
            Edit::Insert(name, _) | Edit::Remove(name) => name,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Relation between base regions `a` and `b` (indices into the names).
    Read {
        a: usize,
        b: usize,
    },
    /// Evaluate pooled query `q`.
    Query {
        q: usize,
    },
    Txn(Vec<Edit>),
}

impl Op {
    pub fn class(&self) -> usize {
        match self {
            Op::Read { .. } => READ,
            Op::Query { .. } => QUERY,
            Op::Txn(_) => TXN,
        }
    }
}

fn mix64(seed: u64, salt: u64) -> u64 {
    // splitmix64 finalizer, so neighbouring seeds give unrelated streams
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Spec {
    pub fn instance(&self) -> SpatialInstance {
        match self.map {
            Map::Clustered { clusters } => {
                datagen::clustered_map(clusters, REGIONS_PER_CLUSTER, MAP_SEED)
            }
            Map::Dense => {
                datagen::jittered_overlap_map(DENSE_SIDE, DENSE_SIDE, DENSE_CELL, MAP_SEED)
            }
        }
    }

    /// Operations per client for a run of `seconds`, at `scale` (1.0, or
    /// 0.01 in smoke mode).
    pub fn ops_per_client(&self, seconds: u64, scale: f64) -> usize {
        ((self.ops_per_client_s as f64 * seconds as f64 * scale).round() as usize).max(10)
    }

    /// A rectangle for `client` to insert. On clustered maps it falls in one
    /// of the client's own clusters (`cluster % clients == client`), so
    /// concurrent writers touch disjoint components. On the dense map it
    /// straddles a parcel corner, overlapping at least two parcels, so the
    /// map stays one component.
    fn edit_rect(&self, rng: &mut StdRng, client: usize) -> Region {
        match self.map {
            Map::Clustered { clusters } => {
                let own = clusters.div_ceil(self.clients);
                let cluster = (rng.gen_range(0..own) * self.clients + client).min(clusters - 1);
                datagen::cluster_rect(rng, cluster, clusters)
            }
            Map::Dense => {
                let cell = DENSE_CELL;
                let col = rng.gen_range(0..DENSE_SIDE as i64 - 1);
                let row = rng.gen_range(0..DENSE_SIDE as i64 - 1);
                let x1 = col * cell + cell / 2 + rng.gen_range(0..cell / 4);
                let y1 = row * cell + cell / 2 + rng.gen_range(0..cell / 4);
                let w = cell + rng.gen_range(0..cell / 2);
                let h = cell + rng.gen_range(0..cell / 2);
                Region::rect_from_ints(x1, y1, x1 + w, y1 + h)
            }
        }
    }

    /// The fixed-length operation sequence of one client. Reads and query
    /// anchors address base regions only, which no edit touches, so every
    /// read has one right answer for the whole run.
    pub fn op_sequence(
        &self,
        seed: u64,
        client: usize,
        len: usize,
        base_names: usize,
        pool: &QueryPool,
    ) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(mix64(seed, 100 + client as u64));
        let mut held: VecDeque<String> = VecDeque::new();
        let mut serial = 0usize;
        let mut txns = 0usize;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let roll = rng.gen_range(0..self.mix.iter().sum::<u32>());
            let op = if roll < self.mix[READ] {
                let a = rng.gen_range(0..base_names);
                // a + 1..a + n wraps to every index but a itself
                let b = (a + rng.gen_range(1..base_names)) % base_names;
                Op::Read { a, b }
            } else if roll < self.mix[READ] + self.mix[QUERY] {
                Op::Query {
                    q: pool.draw(&mut rng),
                }
            } else {
                txns += 1;
                let mut insert = |held: &mut VecDeque<String>, rng: &mut StdRng| {
                    let name = format!("X{client}_{serial:06}");
                    serial += 1;
                    held.push_back(name.clone());
                    Edit::Insert(name, self.edit_rect(rng, client))
                };
                let batch = if txns.is_multiple_of(BATCH_EVERY) {
                    // replace everything held: the names of a batch are
                    // distinct, so every edit of it is effective
                    let mut batch: Vec<Edit> = held.drain(..).map(Edit::Remove).collect();
                    while batch.len() < BATCH_EDITS {
                        batch.push(insert(&mut held, &mut rng));
                    }
                    batch
                } else if held.len() >= EXTRAS_PER_CLIENT {
                    vec![Edit::Remove(held.pop_front().expect("holds extras"))]
                } else {
                    vec![insert(&mut held, &mut rng)]
                };
                Op::Txn(batch)
            };
            ops.push(op);
        }
        ops
    }
}

/// The three query shapes, cheapest first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Closed sentence over name quantifiers only (region quantifiers hit
    /// the evaluator's 100k domain cap at these sizes).
    Sentence,
    /// Anchored one-variable open query.
    Anchored,
    /// Two-variable join.
    Join,
}

const SHAPES: [Shape; 3] = [Shape::Sentence, Shape::Anchored, Shape::Join];
/// Draw weights of the shapes, out of six. The three shapes cost an order
/// of magnitude apart, so the latency distribution has a mode per shape; a
/// uniform draw would put the median exactly on the boundary between two
/// modes, where it flips between them from run to run. With 1:3:2 the
/// median sits inside the anchored shape and the p95 inside the join.
const SHAPE_WEIGHTS: [u32; 3] = [1, 3, 2];

impl Shape {
    pub fn text(self, anchor: &str) -> String {
        match self {
            Shape::Sentence => format!("forallname a . not inside(ext(a), {anchor})"),
            Shape::Anchored => format!("overlap(ext(x), {anchor})"),
            Shape::Join => format!("meet(ext(x), ext(y)) and overlap(ext(y), {anchor})"),
        }
    }
}

/// The fixed pool of query texts: every shape on each of [`ANCHORS`] anchor
/// regions spread evenly over the base names. Query `q` has shape `q % 3`
/// and anchor `q / 3`.
pub struct QueryPool {
    pub texts: Vec<String>,
}

impl QueryPool {
    pub fn new(base_names: &[String]) -> QueryPool {
        let step = (base_names.len() / ANCHORS).max(1);
        let anchors: Vec<usize> = (0..base_names.len()).step_by(step).take(ANCHORS).collect();
        let texts = anchors
            .iter()
            .flat_map(|&a| SHAPES.iter().map(move |s| s.text(&base_names[a])))
            .collect();
        QueryPool { texts }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let anchor = rng.gen_range(0..self.texts.len() / SHAPES.len());
        let mut roll = rng.gen_range(0..SHAPE_WEIGHTS.iter().sum::<u32>());
        let mut shape = 0;
        while roll >= SHAPE_WEIGHTS[shape] {
            roll -= SHAPE_WEIGHTS[shape];
            shape += 1;
        }
        anchor * SHAPES.len() + shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &Spec) -> Vec<String> {
        spec.instance()
            .names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &SPECS {
            let base = names(spec);
            let pool = QueryPool::new(&base);
            let a = spec.op_sequence(5, 0, 400, base.len(), &pool);
            let b = spec.op_sequence(5, 0, 400, base.len(), &pool);
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(spec.instance(), spec.instance());
            let c = spec.op_sequence(6, 0, 400, base.len(), &pool);
            assert_ne!(a, c, "{}", spec.name);
            if spec.clients > 1 {
                assert_ne!(a, spec.op_sequence(5, 1, 400, base.len(), &pool));
            }
        }
    }

    #[test]
    fn sequences_follow_the_mix_and_keep_the_database_size_steady() {
        let spec = spec("durable_edits").unwrap();
        let base = names(spec);
        let pool = QueryPool::new(&base);
        let ops = spec.op_sequence(9, 1, 4000, base.len(), &pool);
        let mut counts = [0usize; 3];
        let mut live: Vec<&str> = Vec::new();
        let mut batches = 0;
        for op in &ops {
            counts[op.class()] += 1;
            match op {
                Op::Read { a, b } => assert!(a != b && *a < base.len() && *b < base.len()),
                Op::Query { q } => assert!(*q < pool.texts.len()),
                Op::Txn(edits) => {
                    assert!(edits.len() == 1 || edits.len() == BATCH_EDITS);
                    batches += usize::from(edits.len() == BATCH_EDITS);
                    for edit in edits {
                        match edit {
                            Edit::Insert(name, _) => {
                                assert!(name.starts_with("X1_") && !live.contains(&name.as_str()));
                                live.push(name);
                            }
                            Edit::Remove(name) => {
                                assert_eq!(live.remove(0), name, "removes the oldest extra");
                            }
                        }
                        assert!(live.len() <= BATCH_EDITS);
                    }
                }
            }
        }
        for (class, share) in TXN_HEAVY.iter().enumerate() {
            let expected = 4000 * *share as usize / TXN_HEAVY.iter().sum::<u32>() as usize;
            assert!(
                counts[class].abs_diff(expected) < expected / 8,
                "{counts:?}"
            );
        }
        assert_eq!(batches, counts[TXN] / BATCH_EVERY);
    }

    #[test]
    fn writers_edit_disjoint_clusters() {
        let spec = spec("durable_edits").unwrap();
        let Map::Clustered { clusters } = spec.map else {
            panic!("clustered")
        };
        let base = names(spec);
        let pool = QueryPool::new(&base);
        for client in 0..spec.clients {
            for op in spec.op_sequence(3, client, 600, base.len(), &pool) {
                let Op::Txn(edits) = op else { continue };
                for edit in edits {
                    let Edit::Insert(_, region) = edit else {
                        continue;
                    };
                    let (x0, y0, _, _) = region.bounding_box();
                    let (x0, y0) = (x0.floor() as i64, y0.floor() as i64);
                    let home = (0..clusters).find(|&c| {
                        let (ox, oy) = datagen::cluster_origin(c, clusters);
                        let span = 0..datagen::CLUSTER_SPAN;
                        span.contains(&(x0 - ox)) && span.contains(&(y0 - oy))
                    });
                    assert_eq!(home.expect("inside a cluster") % spec.clients, client);
                }
            }
        }
    }

    #[test]
    fn dense_edits_keep_the_map_one_component() {
        let spec = spec("edit_dense").unwrap();
        let mut inst = spec.instance();
        let base = names(spec);
        let pool = QueryPool::new(&base);
        for op in spec.op_sequence(4, 0, 60, base.len(), &pool) {
            let Op::Txn(edits) = op else { continue };
            for edit in edits {
                match edit {
                    Edit::Insert(name, region) => {
                        inst.insert(name, region);
                    }
                    Edit::Remove(name) => {
                        inst.remove(&name);
                    }
                }
            }
            assert_eq!(arrangement::partition_instance(&inst).len(), 1);
        }
    }

    #[test]
    fn pool_has_every_shape_per_anchor_and_draws_by_weight() {
        let base = names(&SPECS[0]);
        let pool = QueryPool::new(&base);
        assert_eq!(pool.texts.len(), ANCHORS * 3);
        for text in &pool.texts {
            query::PreparedQuery::compile(text).expect("pooled query compiles");
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut by_shape = [0u32; 3];
        for _ in 0..6000 {
            by_shape[pool.draw(&mut rng) % 3] += 1;
        }
        for (shape, weight) in SHAPE_WEIGHTS.iter().enumerate() {
            assert!(
                by_shape[shape].abs_diff(weight * 1000) < 150,
                "{by_shape:?}"
            );
        }
    }
}
