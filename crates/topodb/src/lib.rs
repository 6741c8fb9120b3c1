//! # topodb
//!
//! A topological spatial database, reproducing the system described in
//! *"Topological Queries in Spatial Databases"* (Papadimitriou, Suciu, Vianu;
//! PODS 1996 / JCSS 1999).
//!
//! [`TopoDatabase`] is the user-facing entry point, designed around a
//! **read/write split**:
//!
//! * **Reads** go through an immutable [`Snapshot`]
//!   ([`TopoDatabase::snapshot`]): an all-`Arc`, `Send + Sync`, cheap-to-clone
//!   handle over one epoch of the database that owns the assembled zero-copy
//!   complex view and answers 4-intersection relations, region-based
//!   queries, the topological invariant `T_I` (Section 3), homeomorphism
//!   tests (Theorem 3.4) and the thematic relational summary `thematic(I)`
//!   (Corollary 3.7) — from any number of threads concurrently. Acquiring a
//!   snapshot is a read lock held for one `Arc` clone; it never builds and
//!   never waits on a build, a log append or an fsync: every epoch, the
//!   first included, is built before it is published, and a constructor
//!   returns the database with its first epoch built.
//! * **Writes** go through a [`Transaction`] ([`TopoDatabase::begin`], or
//!   [`TopoDatabase::begin_shared`] from a shared reference): any number of
//!   inserts/removals commit as **one** batch — the commit re-sweeps only
//!   the affected components (outside any lock, against its base epoch) and
//!   publishes a complete new epoch with one pointer store; commits
//!   touching disjoint components build concurrently.
//! * **Queries** compile once into a [`PreparedQuery`]
//!   (`query::PreparedQuery::compile`) and run against any snapshot of any
//!   epoch; formulas with free name variables are *set-returning* — they
//!   yield [`QueryOutput::Bindings`], the satisfying name assignments, in
//!   the paper's `FO(Region, Region')` syntax (Section 4, evaluated over the
//!   cell complex as in Section 7).
//!
//! The individual crates (`spatial-core`, `arrangement`, `invariant`,
//! `relations`, `relstore`, `query`) are re-exported for direct use.
//!
//! ## Example
//!
//! ```
//! use topodb::{QueryOutput, TopoDatabase};
//! use topodb::query::PreparedQuery;
//! use topodb::spatial_core::prelude::*;
//!
//! let mut db = TopoDatabase::new();
//!
//! // Write path: one transaction, one epoch bump for the whole batch.
//! let mut txn = db.begin();
//! txn.insert("Lake", Region::polygon_from_ints(&[(0, 0), (8, 0), (8, 6), (0, 6)]).unwrap());
//! txn.insert("Park", Region::rect_from_ints(5, 2, 12, 9));
//! txn.commit();
//!
//! // Read path: an immutable, Send + Sync snapshot.
//! let snap = db.snapshot();
//! assert_eq!(snap.relation("Lake", "Park").unwrap().name(), "overlap");
//! assert_eq!(
//!     snap.query("exists r . subset(r, Lake) and subset(r, Park)").unwrap(),
//!     QueryOutput::Bool(true)
//! );
//!
//! // Prepared, binding-producing query: which regions overlap the lake?
//! let q = PreparedQuery::compile("overlap(ext(x), Lake)").unwrap();
//! let rows = snap.evaluate(&q).unwrap();
//! assert_eq!(rows.bindings().unwrap()[0]["x"], "Park");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arrangement;
pub use invariant;
pub use query;
pub use relations;
pub use relstore;
pub use spatial_core;
pub use wal;

mod durability;
mod epoch;
mod error;
mod snapshot;
mod transaction;

pub use durability::{Clock, StorageOptions, SystemClock};
pub use error::{ErrorClass, TopoDbError};
pub use query::{PreparedQuery, QueryOutput};
pub use snapshot::Snapshot;
pub use transaction::{CommitSummary, Transaction};
pub use wal::{SyncPolicy, WalConfig};

use arrangement::{ComplexRead, ComponentComplex};
use durability::Durability;
use epoch::EpochChain;
use spatial_core::instance::SpatialInstance;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wal::WalOp;

/// A topological spatial database: named regions plus the derived structures
/// of the paper (cell complex, invariant, thematic relational summary),
/// shared zero-copy behind [`Arc`]s and maintained *incrementally* across
/// updates. The cell complex of every epoch — which is its invariant `T_I`
/// — and its region index are built before the epoch is published (the
/// first one by the constructor); only the query evaluator is derived, on a
/// snapshot's first query, and the closure cells of the names it reads,
/// which live on their components and so reach every later epoch that
/// carries the component
/// ([`ComplexGeometry::closure_slot`](arrangement::ComplexGeometry::closure_slot)).
///
/// The public surface is split into a write path and a read path:
///
/// * [`TopoDatabase::begin`] (or [`TopoDatabase::begin_shared`] from `&self`)
///   opens a [`Transaction`]; buffered `insert`/`remove` operations commit
///   as one batch that re-sweeps only the affected components and starts
///   **one** new epoch.
/// * [`TopoDatabase::snapshot`] returns the [`Snapshot`] of the current
///   epoch — an immutable, `Send + Sync`, cheaply clonable read handle that
///   owns the assembled view and every derived read (relations, queries,
///   invariant, thematic). Long-lived snapshots keep answering for their
///   epoch after later commits (snapshot isolation for readers).
///
/// ## Concurrency model
///
/// The database is an **epoch chain** (`topodb::epoch`): a sequence of
/// immutable, fully-built epochs of which only the newest, the head, is
/// held — one `RwLock<Snapshot>`.
///
/// * **Readers never wait on a writer.** [`TopoDatabase::snapshot`] is a
///   read lock held for one `Arc` clone; it never waits on a build, a log
///   append or an fsync. The write lock is held only for the pointer store
///   that publishes an epoch, and a published epoch is built *before* that
///   store — the first epoch before the constructor returns — so a reader
///   never pays for (or waits on) a build.
///   The database is `Sync`; a service front end shares one
///   `&TopoDatabase` across all of its worker threads.
/// * **Writers build outside any lock.** A commit clones the head as its
///   base epoch, applies its operations to a copy of the base instance
///   that shares every untouched region, and then *patches* the base
///   epoch's view rather than rebuilding it. Carried
///   over, pointer-identical and unexamined: every `Arc<ComponentComplex>`
///   of the base that contains no changed name and whose bounding box the
///   new geometry stays clear of, along with its place in the nesting
///   forest. Re-partitioned and rebuilt (on the shared worker pool): the
///   remaining members of components that lost or re-shaped a region, the
///   new regions, and the components a new segment touches; a rebuild
///   sweeps only the segments near the change and copies every other cut
///   set from the component it was carried in. One probe of
///   the new segments against the carried boxes suffices — segments that
///   did not move cannot start interacting with each other. The fully-built
///   epoch is then published under a writers-only publish mutex: check that
///   the head is still the base, log the batch if a log is attached, store
///   the new head. Outside the touched components a commit costs one
///   bounding-box test per component, not per region or segment.
/// * **Conflicts cost a re-assembly, not a rebuild.** If another commit
///   published first, the loser re-applies its operations to the new
///   head's instance and patches the *new head's* view: that epoch's
///   components are carried wherever this commit does not touch them, and
///   where it does the build is offered this attempt's own component for a
///   name set whose every region has the same extent in both instances — a
///   component is built from its members' regions alone, so such a
///   component is exactly what a re-sweep would produce. Only the
///   genuinely contested components are re-swept. Two transactions over
///   disjoint components therefore *build concurrently* and both publish,
///   the loser without sweeping anything twice.
/// * **Reclamation is reference counting.** The head is a [`Snapshot`];
///   snapshots keep exactly what they reference, and a superseded epoch is
///   freed when its last holder lets go.
///
/// The randomized interleaved schedules in
/// `crates/topodb/tests/epoch_chain.rs` hold every epoch, relation matrix
/// and query row equal to a from-scratch rebuild of a plain instance model.
///
/// ## Component reuse and epochs
///
/// The arrangement is built by the partition → per-component sweep →
/// assemble pipeline of the `arrangement` crate, and every epoch carries
/// its per-component sub-complexes (`Arc<ComponentComplex>`) in partition
/// order inside its view; a component's key is its own sorted region-name
/// set. A committed batch that changes at least one region starts a new
/// *epoch* by incremental maintenance ([`arrangement::update_components`]):
/// components whose geometry now interacts with a changed region surface as
/// groups with a *new* name-set key (so they are rebuilt — concurrently,
/// see [`arrangement::parallel`], each re-splitting only the neighbourhood
/// of the change), while every unaffected component is
/// carried over pointer-identically without its regions, segments or
/// coordinates being read. A batch of `k` mutations therefore costs *one*
/// re-sweep of the affected clusters and *one* patch of the global view,
/// not `k`. The invariant — the carried partition is what a from-scratch
/// partition of the carried instance would be — is checked step by step in
/// `crates/arrangement/tests/incremental_partition.rs`.
///
/// The global complex is assembled *by view*
/// ([`GlobalComplexView`](arrangement::GlobalComplexView)): the epoch's
/// `Arc<ComponentComplex>`es are composed behind a compact id translation
/// table, with no per-cell copying, and a commit patches the base epoch's
/// table ([`GlobalComplexView::updated`](arrangement::GlobalComplexView::updated):
/// only new components are located in the nesting forest). The cost of a commit is therefore
/// `O(affected clusters)` re-sweeping plus per-database bookkeeping of one
/// step per component and one name and pointer copy per region — instead of
/// a full `O((n + k) log n)` re-sweep, or even a re-partition, of the whole
/// map.
///
/// Two counters pin the behavior down: [`TopoDatabase::complex_build_count`]
/// is the number of *assembled global complexes* built (one at
/// construction, one per published commit and per conflict retry, none
/// from reads), and
/// [`TopoDatabase::component_rebuild_count`] is the number of *component
/// sub-complexes* rebuilt — the part that incremental maintenance
/// keeps proportional to the affected geometry rather than the map size.
/// [`TopoDatabase::publish_conflict_count`] counts publish attempts that
/// found the head moved past their base and retried.
///
/// ## Durability model
///
/// A database is in-memory by default;
/// [`TopoDatabase::create_with_storage`] and
/// [`TopoDatabase::open_with_storage`] attach a **write-ahead log** (the
/// `wal` crate) rooted at a directory, after which every committed batch is
/// persisted as one checksummed record — epoch number, the insert/remove ops with
/// exact rational coordinates, the changed-name set — and the database
/// survives a crash.
///
/// * **Log-before-publish ordering.** A durable commit's stage 3 holds
///   the epoch chain's publish mutex while it checks that the head is
///   still the attempt's base, appends the record, and only then stores
///   the new head. The check-under-lock makes the store certain for the
///   attempt that logged, so (a) a record reaches the
///   log strictly *before* the epoch it describes becomes visible to any
///   reader — a crash can lose an epoch nobody saw, never expose an epoch
///   nobody logged — and (b) a conflict-retried batch is logged exactly
///   once, on the attempt that wins; losing attempts discover the stale
///   head before appending anything. Publishes serialize; builds stay
///   concurrent.
/// * **Sync policies** ([`SyncPolicy`]): `PerCommit` fsyncs every record
///   (a returned commit survives power loss — and costs a disk flush per
///   commit); `None` never fsyncs (a process crash loses nothing — the
///   page cache survives it — only a machine crash can drop the tail).
/// * **Failure taxonomy and retry policy.** A failed append is classified
///   ([`ErrorClass`]) before anything else happens:
///   *transient* failures (`EINTR`-style interruptions, including a torn
///   append — the log trims its tail back to the last record boundary
///   before the retry touches the file) are retried in place with
///   exponential backoff, up to 4 attempts in all (1 ms before the first
///   retry, doubling after that; the backoff sleeps on an injectable
///   [`Clock`]); *fatal* failures (`ENOSPC`, failed fsyncs —
///   which may have dropped the unsynced tail, so they are never retried —
///   device errors) and *corrupting* ones (checksum-impossible bytes) are
///   not retried at all. A commit whose append ultimately fails publishes
///   nothing: readers stay on the previous epoch, exactly the state a
///   reopen of the log would recover.
/// * **Read-only degraded mode.** The first unsurvivable failure — fatal,
///   corrupting, or a transient one that exhausted its attempt budget —
///   transitions the database to **read-only degraded mode**, permanently
///   for the life of the handle. Snapshots and queries keep serving the
///   last published epoch (reads never touch the log); every subsequent
///   commit or checkpoint fails fast with [`TopoDbError::Degraded`]
///   carrying the *root cause* (the first failure, not the latest
///   rejection). Use [`Transaction::try_commit`] to observe the typed
///   error; the panicking [`Transaction::commit`] convenience wrapper is
///   unchanged for in-memory use. [`TopoDatabase::health`] reports the
///   degraded flag, its root cause, and the retry/degradation counters.
/// * **Checkpoint/truncation invariant.** Periodically the full instance
///   is snapshotted into a checkpoint file (temp file + atomic rename),
///   the log rotates to a fresh segment, and all older segments and
///   checkpoints are deleted. Recovery = newest checkpoint + replay of
///   the segments after it, so replay work and disk usage are bounded by
///   the checkpoint cadence, not by history; the trade is that
///   [`TopoDatabase::open_at`] can only reach epochs at or after the
///   newest checkpoint (it reports the recoverable range otherwise).
/// * **Recovery** replays the log through the same op-application path
///   live commits use (cross-checking each record's logged
///   changed-name set), then builds the recovered epoch through the
///   ordinary build pipeline before the database is returned. A torn final
///   record — the state an interrupted append leaves — is truncated away
///   silently; any other corruption (including a checksum failure
///   mid-log) fails the open loudly with the offending file and byte
///   offset.
///
/// The storage backend itself is pluggable ([`wal::Vfs`]): both
/// constructors take [`StorageOptions`] bundling the log config, the
/// backend (default: the real filesystem) and the backoff clock;
/// `StorageOptions::default()` is a per-commit-fsynced log on disk.
/// The deterministic in-memory [`wal::SimFs`] with a seeded [`wal::FaultPlan`]
/// is how the chaos suite drives every failure path above on demand.
pub struct TopoDatabase {
    chain: EpochChain,
    durability: Option<Durability>,
}

/// A point-in-time report on a database's storage health, from
/// [`TopoDatabase::health`]. See the "Durability model" notes on
/// [`TopoDatabase`] for the taxonomy behind the counters.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Health {
    /// The current update epoch.
    pub epoch: u64,
    /// Is a write-ahead log attached?
    pub durable: bool,
    /// `Some(root cause)` if the database has degraded to read-only: the
    /// first storage failure that proved unsurvivable. `None` while
    /// healthy (always `None` for in-memory databases).
    pub degraded: Option<wal::WalError>,
    /// Transient storage failures absorbed by retrying (each retry counts
    /// once, so one append surviving two `EINTR`s adds two).
    pub transient_retries: u64,
    /// Operations whose transient failures exhausted the attempt budget
    /// (each such exhaustion degraded the database, or found it degraded).
    pub retries_exhausted: u64,
    /// Commits/checkpoints rejected fast because the database was already
    /// degraded.
    pub degraded_commit_rejections: u64,
    /// Acknowledged commits whose *post-append* housekeeping (periodic
    /// checkpoint or segment rotation) failed. The commit itself is
    /// durable; non-transient housekeeping failures also degrade.
    pub maintenance_errors: u64,
    /// Healthy→degraded transitions: 0 or 1 (degradation is permanent for
    /// the life of the handle).
    pub degrade_events: u64,
    /// Directory-fsync failures downgraded to a warning after checkpoint
    /// publication (see the `wal` crate's failure model).
    pub dir_sync_downgrades: u64,
    /// The log's head epoch (`None` for in-memory databases). Equals
    /// [`Health::epoch`] unless commits are currently in flight.
    pub wal_head_epoch: Option<u64>,
    /// The epoch of the newest on-log checkpoint — the oldest epoch
    /// [`TopoDatabase::open_at`] can still reach (`None` for in-memory
    /// databases).
    pub last_checkpoint_epoch: Option<u64>,
}

impl Default for TopoDatabase {
    fn default() -> Self {
        TopoDatabase::new()
    }
}

impl TopoDatabase {
    /// An empty database.
    pub fn new() -> Self {
        TopoDatabase::from_instance(SpatialInstance::new())
    }

    /// An in-memory database holding `instance` as its epoch 0. It has no
    /// log; a durable database comes from
    /// [`TopoDatabase::create_with_storage`] or
    /// [`TopoDatabase::open_with_storage`].
    pub fn from_instance(instance: SpatialInstance) -> Self {
        TopoDatabase::assemble(instance, 0, None)
    }

    /// The one true constructor: every public way of building a database
    /// funnels through here with the recovered (or initial) instance, the
    /// epoch it represents, and the log attachment. The epoch is built here,
    /// so the database is returned with its head built.
    fn assemble(instance: SpatialInstance, epoch: u64, durability: Option<Durability>) -> Self {
        TopoDatabase { chain: EpochChain::new_at(instance, epoch), durability }
    }

    // ---- durable constructors -------------------------------------------

    /// Create a durable database at `dir` holding `instance` as its epoch
    /// 0. Fails if `dir` already holds a database.
    ///
    /// `options` controls storage: the log configuration, the storage
    /// backend (a [`wal::Vfs`] — the real filesystem by default, or e.g. a
    /// fault-injecting [`wal::SimFs`]), and the retry-backoff clock.
    /// `StorageOptions::default()` fsyncs every commit
    /// ([`SyncPolicy::PerCommit`]). See the "Durability model" section above
    /// for the protocol.
    pub fn create_with_storage(
        dir: impl AsRef<Path>,
        instance: SpatialInstance,
        options: StorageOptions,
    ) -> Result<Self, TopoDbError> {
        let StorageOptions { wal: config, vfs, clock } = options;
        let w = wal::Wal::create_with_vfs(vfs, dir.as_ref(), 0, &instance, config)?;
        Ok(TopoDatabase::assemble(instance, 0, Some(Durability::new(w, clock))))
    }

    /// Reopen the durable database at `dir`: recover the newest checkpoint
    /// plus the log tail (truncating a torn final record, if the last run
    /// crashed mid-append), replay it through the same op-application path
    /// live commits use, and resume accepting commits — which continue the
    /// epoch numbering and the log exactly where the crash left them.
    /// `options` is as for [`TopoDatabase::create_with_storage`].
    ///
    /// Corruption that is *not* a torn tail — a checksum failure mid-log,
    /// a missing segment — fails loudly with the offending file and byte
    /// offset in the [`TopoDbError::Durability`] error.
    pub fn open_with_storage(
        dir: impl AsRef<Path>,
        options: StorageOptions,
    ) -> Result<Self, TopoDbError> {
        let StorageOptions { wal: config, vfs, clock } = options;
        let (w, recovery) = wal::Wal::open_with_vfs(vfs, dir.as_ref(), config)?;
        let instance = durability::replay(&recovery.checkpoint_instance, &recovery.records)?;
        Ok(TopoDatabase::assemble(instance, recovery.head_epoch(), Some(Durability::new(w, clock))))
    }

    /// Point-in-time reopen: reconstruct the database exactly as it was at
    /// `epoch`, replaying the log only that far. Any epoch from the newest
    /// checkpoint through the head is reachable; outside that range the
    /// error reports what the log still covers.
    ///
    /// The returned database is **detached**: it does not hold the log (so
    /// it can coexist with a live [`TopoDatabase::open_with_storage`] of the
    /// same directory, and several `open_at` histories can coexist with each
    /// other), and commits made to it are in-memory only — it is a
    /// read-mostly time-travel view, not a fork of the durable history.
    pub fn open_at(dir: impl AsRef<Path>, epoch: u64) -> Result<Self, TopoDbError> {
        let recovery = wal::Wal::read_with_vfs(&wal::RealFs, dir.as_ref())?;
        let records = recovery.records_up_to(epoch)?;
        let instance = durability::replay(&recovery.checkpoint_instance, records)?;
        Ok(TopoDatabase::assemble(instance, epoch, None))
    }

    /// A point-in-time health report: whether a log is attached, whether
    /// the database has degraded to read-only (and why), and the
    /// retry/degradation counters. Cheap — a handful of
    /// relaxed atomic loads — and callable from any thread, degraded or
    /// not (health is a read).
    pub fn health(&self) -> Health {
        let (degraded, counters) = match &self.durability {
            Some(d) => (d.degraded_cause(), Some(&d.counters)),
            None => (None, None),
        };
        let load = |f: fn(&durability::DurabilityCounters) -> &std::sync::atomic::AtomicU64| {
            counters.map_or(0, |c| f(c).load(Ordering::Relaxed))
        };
        Health {
            epoch: self.update_epoch(),
            durable: self.durability.is_some(),
            degraded,
            transient_retries: load(|c| &c.transient_retries),
            retries_exhausted: load(|c| &c.retries_exhausted),
            degraded_commit_rejections: load(|c| &c.degraded_rejections),
            maintenance_errors: load(|c| &c.maintenance_errors),
            degrade_events: load(|c| &c.degrade_events),
            dir_sync_downgrades: self
                .durability
                .as_ref()
                .map_or(0, |d| d.wal().stats().dir_sync_downgrades()),
            wal_head_epoch: self.durability.as_ref().map(|d| d.wal().head_epoch()),
            last_checkpoint_epoch: self.durability.as_ref().map(|d| d.wal().checkpoint_epoch()),
        }
    }

    /// Force a checkpoint of the current epoch: snapshot the instance,
    /// rotate the log, truncate everything older. No-op if no log is
    /// attached. (Checkpoints also happen automatically every
    /// [`WalConfig::checkpoint_every_records`] commits.)
    ///
    /// Subject to the same retry/degradation discipline as commits:
    /// transient failures are retried within the fixed budget, anything
    /// unsurvivable degrades the database and surfaces as
    /// [`TopoDbError::Degraded`].
    pub fn checkpoint(&self) -> Result<(), TopoDbError> {
        let Some(d) = &self.durability else { return Ok(()) };
        // Serialize with commit publication so the checkpointed instance
        // is exactly the one at the log's head epoch (a commit landing
        // between the instance read and the checkpoint write would
        // otherwise snapshot a stale instance under a newer epoch).
        self.chain.with_head_held(|head| d.checkpoint(&head.inner.instance))
    }

    // ---- write path -----------------------------------------------------

    /// Open a write transaction. Buffer any number of
    /// [`Transaction::insert`] / [`Transaction::remove`] operations, then
    /// [`Transaction::commit`] them as one batch: one epoch bump, one
    /// re-sweep of the union of affected components.
    ///
    /// Taking `&mut self` makes this transaction the only writer by
    /// construction; concurrent writers should use
    /// [`TopoDatabase::begin_shared`].
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction::new(self)
    }

    /// Open a write transaction from a shared reference, so any number of
    /// threads can commit concurrently against one `&TopoDatabase`.
    ///
    /// Concurrent commits over disjoint components build their epochs
    /// concurrently and serialize only at the publish.
    /// Each commit is atomic: readers see every epoch fully built.
    pub fn begin_shared(&self) -> Transaction<'_> {
        Transaction::new(self)
    }

    /// Commit a batch of buffered operations — the funnel
    /// [`Transaction::try_commit`] goes through.
    ///
    /// An `Err` — always [`TopoDbError::Degraded`] — means nothing was
    /// published: readers stay on the previous epoch and the log holds no
    /// record of the batch.
    pub(crate) fn commit_ops(&self, ops: Vec<WalOp>) -> Result<CommitSummary, TopoDbError> {
        // Degraded fast path: fail before building anything. (The publish
        // path re-checks under its own serialization; this check just makes
        // rejected commits cheap.)
        if let Some(d) = &self.durability {
            if let Some(cause) = d.degraded_cause() {
                return Err(d.reject_degraded(cause));
            }
        }
        self.chain.commit(ops, self.durability.as_ref())
    }

    // ---- instance accessors ---------------------------------------------

    /// The spatial instance of the current epoch, shared behind an [`Arc`]
    /// (epochs are immutable; a commit publishes a new instance).
    pub fn instance(&self) -> Arc<SpatialInstance> {
        Arc::clone(&self.chain.head().inner.instance)
    }

    // ---- read path ------------------------------------------------------

    /// The immutable [`Snapshot`] of the current epoch — the read half of
    /// the facade.
    ///
    /// This is a read lock held for one `Arc` clone of the published head;
    /// it never waits on a build, a log append or an fsync. Every epoch is
    /// built before it becomes the head, so no snapshot acquisition ever
    /// performs (or waits on) a build. The snapshot is `Send + Sync` and
    /// keeps answering for its epoch however many batches are committed
    /// afterwards; call `snapshot()` again after a commit to observe the
    /// new epoch.
    pub fn snapshot(&self) -> Snapshot {
        self.chain.head()
    }

    /// The component sub-complexes backing the current complex, as
    /// `(region names, component)` pairs in name-set order.
    ///
    /// The returned [`Arc`]s are clones of the epoch's entries: a component
    /// untouched by the updates between two calls is returned
    /// pointer-identical (`Arc::ptr_eq`), which is the observable guarantee
    /// of incremental maintenance.
    pub fn component_complexes(&self) -> Vec<(Vec<String>, Arc<ComponentComplex>)> {
        self.snapshot()
            .complex_view()
            .components().iter().map(|c| (c.region_names().to_vec(), Arc::clone(c))).collect()
    }

    /// How many times this database has built (assembled) a global cell
    /// complex: one at construction, one per published commit, and one per
    /// publish-conflict retry under concurrent commits. Reads build nothing,
    /// whatever mix of snapshots, relations, queries, homeomorphism tests or
    /// thematic databases they ask for, and a committed batch of `k`
    /// mutations adds one.
    pub fn complex_build_count(&self) -> u64 {
        self.chain.counters.complex_builds.load(Ordering::Relaxed)
    }

    /// How many component sub-complexes this database has rebuilt.
    ///
    /// Diagnostic for *incremental* cache effectiveness: a commit rebuilds
    /// only the components whose geometry interacts with the changed
    /// regions — on a multi-cluster map this stays proportional to the
    /// batch while [`TopoDatabase::complex_build_count`] grows by one,
    /// however large the rest of the map is.
    pub fn component_rebuild_count(&self) -> u64 {
        self.chain.counters.component_rebuilds.load(Ordering::Relaxed)
    }

    /// How many publish attempts found the head moved by a concurrent
    /// commit and retried (always `0` under single-threaded writes).
    pub fn publish_conflict_count(&self) -> u64 {
        self.chain.counters.publish_conflicts.load(Ordering::Relaxed)
    }

    /// The current update epoch: the number of *effective* committed batches
    /// so far (a commit that changes nothing — say, removing only names
    /// that do not exist — does not advance the epoch). Epochs are
    /// published fully built; [`Snapshot::epoch`] records which epoch a
    /// snapshot belongs to.
    pub fn update_epoch(&self) -> u64 {
        self.chain.head().epoch()
    }

    /// A human-readable summary of one epoch of the database and its derived
    /// structures: region count, invariant cell counts, and the interaction
    /// components backing the complex with their per-component cell counts.
    /// Every figure is read from the same [`Snapshot`]'s complex view, which
    /// is the invariant: no label is widened.
    pub fn summary(&self) -> String {
        let snapshot = self.snapshot();
        let view = snapshot.complex_view();
        let per_component: Vec<String> = view
            .component_cell_counts()
            .iter()
            .map(|(v, e, f)| format!("{}", v + e + f))
            .collect();
        format!(
            "{} region(s); invariant: {} vertices, {} edges, {} faces; {} component(s), cells per component: [{}]",
            snapshot.len(),
            view.vertex_count(),
            view.edge_count(),
            view.face_count(),
            view.component_count(),
            per_component.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relations::Relation4;
    use spatial_core::fixtures;
    use spatial_core::region::Region;

    fn insert(db: &mut TopoDatabase, name: &str, region: Region) {
        let mut txn = db.begin();
        txn.insert(name, region);
        txn.commit();
    }

    #[test]
    fn facade_round_trip() {
        let mut db = TopoDatabase::from_instance(fixtures::fig_1c());
        let snap = db.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert_eq!(snap.relation("A", "B").unwrap(), Relation4::Overlap);
        assert_eq!(snap.query("overlap(A, B)"), Ok(QueryOutput::Bool(true)));
        assert_eq!(snap.query("disjoint(A, B)"), Ok(QueryOutput::Bool(false)));
        assert!(snap.query("nonsense(").is_err());
        assert!(snap.relation("A", "Z").is_err());
        assert!(db.summary().contains("2 region(s)"));

        // A commit publishes a new epoch; the next snapshot reflects it.
        insert(&mut db, "C", Region::rect_from_ints(20, 20, 24, 24));
        let snap = db.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.relation("A", "C").unwrap(), Relation4::Disjoint);
        assert!(db.instance().ext("C").is_some());
        let mut txn = db.begin();
        txn.remove("C");
        assert_eq!(txn.commit().changed, ["C"]);
        assert_eq!(db.snapshot().len(), 2);
    }

    #[test]
    fn homeomorphism_between_databases() {
        let a = TopoDatabase::from_instance(fixtures::fig_1c());
        let b = TopoDatabase::from_instance(fixtures::fig_1c().translated(100, 100));
        let d = TopoDatabase::from_instance(fixtures::fig_1d());
        assert!(a.snapshot().homeomorphic_to(&b.snapshot()));
        assert!(!a.snapshot().homeomorphic_to(&d.snapshot()));
    }

    #[test]
    fn derived_structures_are_cached_and_shared() {
        let mut db = TopoDatabase::from_instance(fixtures::fig_1c());
        assert_eq!(db.complex_build_count(), 1, "the root is built by the constructor");
        let root_components = db.snapshot().complex_view().component_count() as u64;
        assert_eq!(db.component_rebuild_count(), root_components, "root components are rebuilds");

        // Any mix of reads builds nothing more...
        let matrix = db.snapshot().relation_matrix().unwrap();
        assert_eq!(matrix.len(), 1);
        let _ = db.snapshot().relation("A", "B").unwrap();
        let _ = db.snapshot().query("overlap(A, B)").unwrap();
        assert!(db.snapshot().homeomorphic_to(&db.snapshot()));
        let _ = db.snapshot().thematic();
        let _ = db.summary();
        let snap = db.snapshot();
        assert_eq!(db.complex_build_count(), 1, "reads must reuse the cached complex");
        assert_eq!(db.component_rebuild_count(), root_components, "reads rebuild no component");
        assert_eq!(snap.epoch(), 0);

        // ...and hands out the same shared allocation, not deep copies.
        let v1 = snap.complex_view();
        assert!(Arc::ptr_eq(&v1, &db.snapshot().complex_view()), "snapshots share one view");

        // Updates invalidate: the commit performs exactly one rebuild.
        insert(&mut db, "C", Region::rect_from_ints(20, 20, 24, 24));
        let _ = db.snapshot().relation_matrix().unwrap();
        let v3 = db.snapshot().complex_view();
        let _ = db.snapshot().relation("A", "C").unwrap();
        assert_eq!(db.complex_build_count(), 2);
        assert!(!Arc::ptr_eq(&v1, &v3), "update must produce a fresh view");
        // The pre-update view is still alive and unchanged (snapshot
        // isolation for long-lived readers).
        assert_eq!(v1.region_names().len(), 2);
        assert_eq!(v3.region_names().len(), 3);
        assert_eq!(snap.len(), 2, "pre-update snapshot still answers for its epoch");
        assert_eq!(db.publish_conflict_count(), 0, "no concurrent writers, no conflicts");
    }

    #[test]
    fn every_constructor_returns_a_built_head() {
        let built = |db: &TopoDatabase| {
            let components = db.snapshot().complex_view().component_count() as u64;
            (db.complex_build_count(), db.component_rebuild_count() == components)
        };
        assert_eq!(built(&TopoDatabase::new()), (1, true));
        assert_eq!(built(&TopoDatabase::from_instance(fixtures::nested_three())), (1, true));

        let sim = StorageOptions::default().with_vfs(Arc::new(wal::SimFs::new()));
        let created = TopoDatabase::create_with_storage("db", fixtures::fig_1c(), sim.clone());
        assert_eq!(built(&created.unwrap()), (1, true));
        let reopened = TopoDatabase::open_with_storage("db", sim).unwrap();
        assert_eq!(built(&reopened), (1, true));
        assert_eq!(reopened.snapshot().len(), 2);

        let dir = std::env::temp_dir().join(format!("topodb-built-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StorageOptions::default();
        drop(TopoDatabase::create_with_storage(&dir, fixtures::fig_1c(), options).unwrap());
        let at = TopoDatabase::open_at(&dir, 0);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(built(&at.unwrap()), (1, true));
    }

    #[test]
    fn summary_reports_components_of_one_epoch() {
        let db = TopoDatabase::from_instance(fixtures::nested_three());
        let s = db.summary();
        // Component structure: nested_three partitions into 3 one-region
        // components of 3 cells each (1 vertex + 1 loop edge + 1 bounded
        // face).
        assert!(s.contains("3 region(s)"), "{s}");
        assert!(s.contains("3 component(s)"), "{s}");
        assert!(s.contains("cells per component: [3, 3, 3]"), "{s}");
    }

    #[test]
    fn summary_widens_no_label() {
        let db = TopoDatabase::from_instance(fixtures::ring_with_island(true));
        let view = db.snapshot().complex_view();
        let before = view.label_widenings();
        let s = db.summary();
        assert_eq!(view.label_widenings(), before, "summary() widened labels: {s}");
        let cells = format!(
            "invariant: {} vertices, {} edges, {} faces",
            view.vertex_count(),
            view.edge_count(),
            view.face_count()
        );
        assert!(s.contains(&cells), "{s} lacks {cells}");
    }

    #[test]
    fn summary_reads_one_epoch_under_concurrent_commits() {
        // Every region is its own component, so any one epoch reports as
        // many components as regions; a summary mixing two epochs would not.
        let db = TopoDatabase::new();
        let count = |s: &str, what: &str| -> usize {
            let at = s.find(what).unwrap_or_else(|| panic!("{what} missing in {s}"));
            s[..at].rsplit(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
        };
        let writing = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..40 {
                    let mut txn = db.begin_shared();
                    let x = 10 * i;
                    txn.insert(format!("R{i:02}"), Region::rect_from_ints(x, 0, x + 4, 4));
                    txn.commit();
                }
                writing.store(false, Ordering::Relaxed);
            });
            while writing.load(Ordering::Relaxed) {
                let s = db.summary();
                assert_eq!(count(&s, " region(s)"), count(&s, " component(s)"), "{s}");
            }
        });
    }

    #[test]
    fn view_reuses_untouched_components_pointer_identically() {
        let mut db = TopoDatabase::from_instance(fixtures::nested_three());
        let v1 = db.snapshot().complex_view();
        let v1b = db.snapshot().complex_view();
        assert!(Arc::ptr_eq(&v1, &v1b), "complex_view() must return the cached Arc");

        // An update to a separated region re-assembles the view but reuses
        // every untouched component allocation inside it.
        insert(&mut db, "D", Region::rect_from_ints(500, 500, 504, 504));
        let v2 = db.snapshot().complex_view();
        assert!(!Arc::ptr_eq(&v1, &v2), "update must produce a fresh view");
        let before: Vec<_> = v1.components().to_vec();
        let reused = v2
            .components()
            .iter()
            .filter(|c| before.iter().any(|b| Arc::ptr_eq(b, c)))
            .count();
        assert_eq!(reused, before.len(), "all pre-update components are shared by the new view");
        assert_eq!(v2.component_count(), before.len() + 1);
    }

    #[test]
    fn thematic_and_validation() {
        let snap = TopoDatabase::from_instance(fixtures::nested_three()).snapshot();
        let th = snap.thematic();
        assert_eq!(th.relation("Regions").unwrap().len(), 3);
        assert!(invariant::validate(snap.complex_view().as_ref()).is_empty());
    }
}
