//! The epoch chain: wait-free snapshot publication for
//! [`TopoDatabase`](crate::TopoDatabase).
//!
//! The chain is a singly-linked list of immutable, fully-built epochs
//! ([`EpochState`]), newest first, published through an atomic pointer
//! ([`swap::ArcSwap`]). Readers never take a lock: acquiring a snapshot is
//! one atomic head load plus an `Arc` refcount bump. Writers run a
//! three-stage pipeline:
//!
//! 1. **Intent** — under the small writers-only mutex, load the head as the
//!    *base epoch* and register its number in the writers registry, which
//!    pins the chain: pruning never severs a `prev` link below the minimum
//!    registered base, so conflict resolution can always walk from any later
//!    head back down to a registered base.
//! 2. **Build, outside any lock** — apply the buffered operations to a copy
//!    of the base instance (names and `Arc`s; no geometry is copied), then
//!    *patch* the base epoch's view instead of rebuilding it
//!    ([`arrangement::update_components`] +
//!    [`GlobalComplexView::updated`]). What is **carried**, pointer-identical
//!    and without being looked into: every component of the base that
//!    contains no changed name and whose box stays clear of the new
//!    geometry, together with its nesting parent. What is **re-partitioned**:
//!    the surviving members of components that lost or re-shaped a member,
//!    the inserted and re-shaped regions, and — as one unit each — the
//!    components a new segment's box touches. One probe of the new segments
//!    against the carried components' boxes is enough, because two segments
//!    that both stayed put interact now iff they did in the base: only new
//!    geometry can link into an untouched component. The resulting groups
//!    are swept on the shared worker pool under the strip-budget split. A
//!    one-region commit therefore costs one box test per component of the
//!    database plus the work of the component it lands in. The result is a
//!    complete new [`EpochState`], constructed while readers keep loading
//!    the old head and other writers build their own epochs concurrently.
//!    The root epoch's cold build is the same call on an empty base with
//!    every name changed.
//! 3. **Publish** — compare-exchange the head from the base to the new
//!    epoch. On conflict (another writer published first), collect the
//!    names changed by the intervening epochs (a `prev`-walk from the new
//!    head down to the old base), re-apply the batch to the new head's
//!    instance and run stage 2 again with the *new head* as base: its
//!    components are carried wherever this commit does not touch them, and
//!    for the groups it does touch the build is offered this attempt's own
//!    components (the `hint`), which are still valid for every name set no
//!    intervening commit changed a region of. Re-register against the new
//!    base and retry. Two commits touching disjoint components therefore
//!    both build concurrently and the loser's retry is a pure re-assembly
//!    (zero re-sweeps).
//!
//! **Reclamation invariant.** Three mechanisms bound memory without ever
//! freeing under a reader: (a) the head swap itself retires the old head
//! into [`swap::ArcSwap`]'s limbo list, which frees it only after both
//! reader-pin slots have been observed empty at generation flips *after*
//! the retirement; (b) the `prev` chain hanging off the head is pruned
//! after each publish down to the minimum in-flight writer base (the
//! registry; with no writer in flight the new head keeps no predecessor),
//! so the list length is bounded by concurrent writers, not by history;
//! (c) severed epochs are plain `Arc`s — long-lived [`Snapshot`]s keep
//! exactly the cells they reference alive and nothing else.

use crate::snapshot::Snapshot;
use crate::transaction::{CommitSummary, Op};
use arrangement::{CellComplex, ComponentComplex, GlobalComplexView};
use spatial_core::instance::SpatialInstance;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

pub(crate) mod swap;
use swap::ArcSwap;

/// Build/diagnostic counters of the facade.
#[derive(Default)]
pub(crate) struct BuildCounters {
    /// Global assemblies performed (see
    /// [`TopoDatabase::complex_build_count`](crate::TopoDatabase::complex_build_count)).
    pub complex_builds: AtomicU64,
    /// Component sub-complexes swept from scratch.
    pub component_rebuilds: AtomicU64,
    /// Epoch-chain publish attempts that lost the head compare-exchange and
    /// retried against the intervening epoch.
    pub publish_conflicts: AtomicU64,
}

/// One immutable epoch of the database: the instance as of that epoch, the
/// derived structures, and the link to the predecessor epoch.
pub(crate) struct EpochState {
    /// The epoch number ([`Snapshot::epoch`] of this epoch's snapshot).
    pub epoch: u64,
    /// The instance as of this epoch.
    pub instance: Arc<SpatialInstance>,
    /// Names changed by the commit that published this epoch (empty for the
    /// root). Conflict resolution unions these along a `prev` walk.
    changed: BTreeSet<String>,
    /// The epoch's snapshot: the zero-copy view — which holds the component
    /// sub-complexes the next commit carries over — plus the lazy derived
    /// reads. Published epochs are fully built *before* the head swap; only
    /// the root epoch (constructed without a commit) builds lazily on first
    /// read, so constructing a database stays free.
    built: OnceLock<Snapshot>,
    /// The flat deep-copied complex, materialized only on explicit request
    /// ([`TopoDatabase::cell_complex`](crate::TopoDatabase::cell_complex)).
    flat: OnceLock<Arc<CellComplex>>,
    /// The predecessor epoch; `None` for the root and for epochs whose tail
    /// has been pruned. Only writers touch this (a `Mutex`, not part of any
    /// read path).
    prev: Mutex<Option<Arc<EpochState>>>,
}

/// The component with exactly the name set `key`, if `components` (in
/// partition order: ascending smallest member name) has one.
fn find_component(
    components: &[Arc<ComponentComplex>],
    key: &[String],
) -> Option<Arc<ComponentComplex>> {
    let at = components.binary_search_by(|c| c.region_names()[0].cmp(&key[0])).ok()?;
    (components[at].region_names() == key).then(|| Arc::clone(&components[at]))
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Writer-side state is only ever mutated in complete steps (registry
    // increments/decrements, a prev-link overwrite), so a poisoned mutex
    // cannot hold torn data.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EpochState {
    /// The snapshot, building it on first use (root epoch only — published
    /// epochs are always pre-built). The cold build is the degenerate
    /// update: nothing to carry, every name changed.
    pub fn built(&self, counters: &BuildCounters) -> &Snapshot {
        self.built.get_or_init(|| build_cold(self.epoch, &self.instance, counters))
    }

    /// The flat deep-copied complex of this epoch, materialized on first
    /// request and shared afterwards.
    pub fn flat(&self, counters: &BuildCounters) -> Arc<CellComplex> {
        let snapshot = self.built(counters);
        Arc::clone(self.flat.get_or_init(|| Arc::new(snapshot.view_ref().to_cell_complex())))
    }

    /// Whether the flat copy has been materialized (for
    /// [`TopoDatabase::summary`](crate::TopoDatabase::summary)).
    pub fn has_flat(&self) -> bool {
        self.flat.get().is_some()
    }
}

/// Apply buffered operations to a copy of `base`, returning the resulting
/// instance and the names whose membership or geometry actually changed, in
/// first-change order (replacing a region by an identical one and removing
/// an absent name do not count).
pub(crate) fn apply_ops(base: &SpatialInstance, ops: &[Op]) -> (SpatialInstance, Vec<String>) {
    let mut next = base.clone();
    let mut changed: Vec<String> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(name, region) => {
                let replaced = next.insert(name.clone(), region.clone());
                // Replacing a region with an identical one changes nothing
                // (compare against the stored geometry; `insert` consumed
                // the new one).
                let unchanged = replaced.is_some() && next.ext(name) == replaced.as_ref();
                if !unchanged && !changed.contains(name) {
                    changed.push(name.clone());
                }
            }
            Op::Remove(name) => {
                if next.remove(name).is_some() && !changed.contains(name) {
                    changed.push(name.clone());
                }
            }
        }
    }
    (next, changed)
}

/// Build the snapshot of an epoch by patching the view of its base: carry
/// over every component that `changed` (the names whose extent differs
/// between the two instances) neither contains nor touches, with its
/// nesting parent; re-partition, sweep (asking `hint` first) and locate the
/// rest. The cold build is the degenerate patch: an empty `base`, every
/// name changed.
pub(crate) fn build_epoch<S, F>(
    epoch: u64,
    base: &GlobalComplexView,
    instance: &SpatialInstance,
    changed: &[S],
    hint: F,
    counters: &BuildCounters,
) -> Snapshot
where
    S: AsRef<str>,
    F: Fn(&[String]) -> Option<Arc<ComponentComplex>>,
{
    let update = arrangement::update_components(base.components(), instance, changed, hint);
    counters.component_rebuilds.fetch_add(update.rebuilt as u64, Ordering::Relaxed);
    counters.complex_builds.fetch_add(1, Ordering::Relaxed);
    let global_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    Snapshot::new(epoch, Arc::new(base.updated(global_names, update)))
}

/// The cold build of `instance`: [`build_epoch`] on the empty view.
fn build_cold(epoch: u64, instance: &SpatialInstance, counters: &BuildCounters) -> Snapshot {
    let empty = GlobalComplexView::new(Vec::new(), Vec::new());
    build_epoch(epoch, &empty, instance, &instance.names(), |_| None, counters)
}

/// [`build_epoch`] on top of the epoch `base`. A base that was never read
/// (an unbuilt root) has nothing to carry: the build is then the cold one.
fn build_on<F>(
    base: &EpochState,
    instance: &SpatialInstance,
    changed: &[String],
    hint: F,
    counters: &BuildCounters,
) -> Snapshot
where
    F: Fn(&[String]) -> Option<Arc<ComponentComplex>>,
{
    match base.built.get() {
        Some(snapshot) => {
            build_epoch(base.epoch + 1, snapshot.view_ref(), instance, changed, hint, counters)
        }
        None => build_cold(base.epoch + 1, instance, counters),
    }
}

/// The epoch chain itself: the published head plus the writers registry.
pub(crate) struct EpochChain {
    head: ArcSwap<EpochState>,
    /// Base epochs of in-flight commits (a multiset: epoch → writer count).
    /// Registration happens under this mutex *before* the base head is
    /// adopted, and pruning happens under it too, so the chain is never
    /// severed below a registered base.
    writers: Mutex<BTreeMap<u64, usize>>,
}

/// Deregisters a writer's base epoch on drop, so a panicking build never
/// pins the chain forever.
struct Intent<'a> {
    chain: &'a EpochChain,
    epoch: u64,
}

impl Intent<'_> {
    /// Move this writer's registration to a new base epoch (conflict retry).
    fn rebase(&mut self, new_epoch: u64) {
        let mut writers = lock(&self.chain.writers);
        deregister(&mut writers, self.epoch);
        *writers.entry(new_epoch).or_insert(0) += 1;
        self.epoch = new_epoch;
    }
}

impl Drop for Intent<'_> {
    fn drop(&mut self) {
        deregister(&mut lock(&self.chain.writers), self.epoch);
    }
}

fn deregister(writers: &mut BTreeMap<u64, usize>, epoch: u64) {
    if let Some(count) = writers.get_mut(&epoch) {
        *count -= 1;
        if *count == 0 {
            writers.remove(&epoch);
        }
    }
}

impl EpochChain {
    /// A chain rooted at an arbitrary epoch number — recovery reopens a
    /// database at the epoch its log replayed to, and commits continue the
    /// numbering from there (so re-logged epochs line up with the log).
    pub fn new_at(instance: Arc<SpatialInstance>, epoch: u64) -> Self {
        let root = EpochState {
            epoch,
            instance,
            changed: BTreeSet::new(),
            built: OnceLock::new(),
            flat: OnceLock::new(),
            prev: Mutex::new(None),
        };
        EpochChain { head: ArcSwap::new(Arc::new(root)), writers: Mutex::new(BTreeMap::new()) }
    }

    /// The current head epoch — one atomic load plus an `Arc` bump, no lock.
    pub fn head(&self) -> Arc<EpochState> {
        self.head.load()
    }

    /// Commit a batch: the three-stage pipeline described in the module
    /// docs. Returns the epoch the batch published (or the base epoch, if
    /// the batch changed nothing). Fails only on durability errors
    /// ([`crate::TopoDbError::Degraded`]): the intent deregisters, the
    /// head is untouched, and readers never observe the attempt.
    ///
    /// With `durability` attached, stage 3 runs the **log-before-publish**
    /// protocol: the publish serializes on the WAL publish lock, re-checks
    /// that the head is still this attempt's base, appends the batch to
    /// the log, and only then swaps the head. The head check under the
    /// lock makes the compare-exchange infallible for the attempt that
    /// logged, so a batch is appended exactly once — on its winning
    /// attempt — and a record hits the log strictly before the epoch it
    /// describes becomes visible to readers. A stale head is discovered
    /// *before* the append, so losing attempts log nothing and take the
    /// ordinary conflict path.
    pub fn commit(
        &self,
        ops: Vec<Op>,
        counters: &BuildCounters,
        durability: Option<&crate::durability::Durability>,
    ) -> Result<CommitSummary, crate::TopoDbError> {
        // Stage 1 — write intent: adopt the head as base and register it,
        // both under the writers mutex, so the chain stays walkable down to
        // this base however many commits land first.
        let (base, mut intent) = {
            let mut writers = lock(&self.writers);
            let base = self.head.load();
            *writers.entry(base.epoch).or_insert(0) += 1;
            let epoch = base.epoch;
            (base, Intent { chain: self, epoch })
        };

        // Stage 2 — build outside any lock.
        let (next_instance, mut changed) = apply_ops(&base.instance, &ops);
        if changed.is_empty() {
            return Ok(CommitSummary { epoch: base.epoch, changed });
        }
        let mut next_instance = Arc::new(next_instance);
        let mut current_base = base;
        let mut built = build_on(&current_base, &next_instance, &changed, |_| None, counters);

        // Stage 3 — publish, retrying on conflict.
        loop {
            let cell = OnceLock::new();
            let _ = cell.set(built);
            let next = Arc::new(EpochState {
                epoch: current_base.epoch + 1,
                instance: Arc::clone(&next_instance),
                changed: changed.iter().cloned().collect(),
                built: cell,
                flat: OnceLock::new(),
                prev: Mutex::new(Some(Arc::clone(&current_base))),
            });
            let published = match durability {
                None => self.head.compare_exchange(&current_base, Arc::clone(&next)).is_ok(),
                Some(d) => {
                    // Log-before-publish: serialize publishes, verify the
                    // head is still our base, append, then swap. The swap
                    // cannot fail — every publisher of this database holds
                    // the same lock — so the record and the epoch commit
                    // or skip together.
                    let _publishing = lock(&d.publish_lock);
                    if Arc::ptr_eq(&self.head.load(), &current_base) {
                        // A durability failure aborts the commit cleanly:
                        // nothing was published, the intent guard
                        // deregisters on drop, and readers stay on the old
                        // head.
                        d.log_batch(next.epoch, &ops, &changed, &next_instance)?;
                        self.head
                            .compare_exchange(&current_base, Arc::clone(&next))
                            .expect("head swap serialized under the WAL publish lock");
                        true
                    } else {
                        false
                    }
                }
            };
            match published {
                true => {
                    drop(intent);
                    self.prune(&next);
                    return Ok(CommitSummary { epoch: next.epoch, changed });
                }
                false => {
                    counters.publish_conflicts.fetch_add(1, Ordering::Relaxed);
                    // `next` was never published: its build stays on offer
                    // to the retry.
                    let own = next.built.get().expect("unpublished epoch keeps its build");
                    let new_head = self.head.load();
                    // Names changed between our stale base and the new head
                    // (None if the walk cannot reach the base — defensive:
                    // registration makes that unreachable in practice).
                    let intervening = intervening_changes(&new_head, current_base.epoch);
                    intent.rebase(new_head.epoch);
                    // Re-apply the batch against the new head: the published
                    // instance must carry the intervening commits' changes,
                    // and this batch's own effect can shrink against the new
                    // base (e.g. a removal an intervening commit already
                    // performed).
                    let (rebased_instance, rebased_changed) =
                        apply_ops(&new_head.instance, &ops);
                    if rebased_changed.is_empty() {
                        return Ok(CommitSummary { epoch: new_head.epoch, changed: rebased_changed });
                    }
                    next_instance = Arc::new(rebased_instance);
                    changed = rebased_changed;
                    // The new head's components are carried unless this
                    // commit touches them; what it does touch is offered
                    // this attempt's own components, valid for every key no
                    // intervening commit changed a region of.
                    built = build_on(
                        &new_head,
                        &next_instance,
                        &changed,
                        |key: &[String]| match &intervening {
                            Some(names) if !key.iter().any(|n| names.contains(n)) => {
                                find_component(own.view_ref().components(), key)
                            }
                            _ => None,
                        },
                        counters,
                    );
                    current_base = new_head;
                }
            }
        }
    }

    /// Sever the `prev` chain below the minimum in-flight writer base, or
    /// directly below `head` when no writer is in flight (any later writer
    /// adopts a base at or above `head`, so nothing below it is ever walked
    /// again). Runs under the writers mutex — the same lock registration
    /// takes *before* adopting a base — so no writer can be about to walk
    /// below the cut.
    fn prune(&self, head: &EpochState) {
        let writers = lock(&self.writers);
        let Some(&keep_from) = writers.keys().next() else {
            // Free the superseded epoch after releasing the registry, so
            // writers registering meanwhile do not wait on the deallocation.
            let severed = lock(&head.prev).take();
            drop(writers);
            drop(severed);
            return;
        };
        if head.epoch <= keep_from {
            return;
        }
        let mut cursor = match &*lock(&head.prev) {
            Some(prev) => Arc::clone(prev),
            None => return,
        };
        loop {
            if cursor.epoch <= keep_from {
                // Everything strictly below `cursor` is unreachable by any
                // in-flight writer: cut here.
                *lock(&cursor.prev) = None;
                return;
            }
            let next = match &*lock(&cursor.prev) {
                Some(prev) => Arc::clone(prev),
                None => return,
            };
            cursor = next;
        }
    }
}

/// Union of the `changed` sets of every epoch in `(to_epoch, from]`,
/// walking `prev` links; `None` if the walk hits a severed link first.
fn intervening_changes(from: &Arc<EpochState>, to_epoch: u64) -> Option<BTreeSet<String>> {
    let mut acc = BTreeSet::new();
    let mut cursor = Arc::clone(from);
    while cursor.epoch > to_epoch {
        acc.extend(cursor.changed.iter().cloned());
        let prev = lock(&cursor.prev).clone();
        match prev {
            Some(p) => cursor = p,
            None => return None,
        }
    }
    (cursor.epoch == to_epoch).then_some(acc)
}
