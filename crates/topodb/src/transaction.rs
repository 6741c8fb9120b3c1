//! The batched write path of the facade: transactions that coalesce any
//! number of mutations into one epoch bump.

use crate::TopoDatabase;
use spatial_core::region::Region;
use wal::WalOp;

/// A write transaction on a [`TopoDatabase`], obtained from
/// [`TopoDatabase::begin`] (exclusive writer) or
/// [`TopoDatabase::begin_shared`] (any number of concurrent writers over a
/// shared `&TopoDatabase`).
///
/// Mutations are buffered in order and applied atomically by
/// [`Transaction::commit`]: however many regions the batch inserts, replaces
/// or removes, the commit starts **one** new epoch, re-sweeps only the
/// components of the *union* of the changed names (reusing every untouched
/// component of its base epoch pointer-identically) and publishes one
/// fully-built epoch — instead of paying an epoch and a re-sweep per
/// mutation as a sequence of one-operation transactions would. The
/// build happens outside any lock, so concurrent transactions over disjoint
/// components build concurrently; see the "Concurrency model" notes on
/// [`TopoDatabase`].
///
/// A commit whose operations change nothing (removals of names that do not
/// exist, replacements of a region by an identical one) is a no-op: no
/// epoch bump, no re-sweep. Dropping a transaction without committing (or
/// calling [`Transaction::rollback`]) discards the buffered operations; the
/// database is untouched, since nothing is applied before `commit`.
///
/// Snapshots taken before the commit keep answering for their own epoch;
/// see [`crate::Snapshot`].
///
/// ```
/// use topodb::TopoDatabase;
/// use topodb::spatial_core::prelude::*;
///
/// let mut db = TopoDatabase::new();
/// let mut txn = db.begin();
/// txn.insert("A", Region::rect_from_ints(0, 0, 4, 4));
/// txn.insert("B", Region::rect_from_ints(10, 0, 14, 4));
/// txn.remove("Ghost"); // not present: contributes nothing
/// let commit = txn.commit();
/// assert_eq!(commit.epoch, 1);
/// assert_eq!(commit.changed, ["A", "B"]);
/// ```
pub struct Transaction<'db> {
    db: &'db TopoDatabase,
    ops: Vec<WalOp>,
}

/// What a [`Transaction::commit`] did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommitSummary {
    /// The database's update epoch after the commit: the epoch this batch
    /// published, or the base epoch the transaction committed against when
    /// the batch changed nothing.
    pub epoch: u64,
    /// The names whose region membership or geometry actually changed, in
    /// first-change order (a removal of an absent name does not appear).
    pub changed: Vec<String>,
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(db: &'db TopoDatabase) -> Transaction<'db> {
        Transaction { db, ops: Vec::new() }
    }

    /// Buffer an insert (or replacement) of a named region.
    pub fn insert<S: Into<String>>(&mut self, name: S, region: Region) -> &mut Self {
        self.ops.push(WalOp::Insert(name.into(), region));
        self
    }

    /// Buffer a removal. Removing a name that does not exist at application
    /// time is a no-op and does not count as a change.
    pub fn remove<S: Into<String>>(&mut self, name: S) -> &mut Self {
        self.ops.push(WalOp::Remove(name.into()));
        self
    }

    /// Number of buffered operations.
    pub fn pending_ops(&self) -> usize {
        self.ops.len()
    }

    /// Apply the buffered operations in order and publish at most one new
    /// epoch (none if nothing changed). Returns the resulting epoch and the
    /// changed names.
    ///
    /// An `Err` — always [`TopoDbError::Degraded`](crate::TopoDbError) —
    /// means the commit published **nothing**: readers stay on the previous
    /// epoch, the log holds no record of the batch, and the database is in
    /// read-only degraded mode (this commit's storage failure put it there,
    /// or an earlier one already had). Transient storage failures are
    /// retried internally, up to 4 attempts, before any of that; a
    /// successfully retried commit returns `Ok` like any other.
    pub fn try_commit(self) -> Result<CommitSummary, crate::TopoDbError> {
        self.db.commit_ops(self.ops)
    }

    /// [`Transaction::try_commit`], panicking on failure.
    ///
    /// In-memory commits cannot fail, so for the common case this is the
    /// ergonomic choice. Durable callers that want to *handle* storage
    /// degradation (rather than crash) should use
    /// [`Transaction::try_commit`].
    ///
    /// # Panics
    ///
    /// If a durable commit fails — the database has degraded to read-only.
    pub fn commit(self) -> CommitSummary {
        self.try_commit().unwrap_or_else(|e| {
            panic!("transaction commit failed: {e}; use try_commit() to handle this typed")
        })
    }

    /// Discard the buffered operations without touching the database.
    /// (Equivalent to dropping the transaction; provided for explicitness.)
    pub fn rollback(self) {}
}
