//! The epoch chain: snapshot publication for
//! [`TopoDatabase`](crate::TopoDatabase).
//!
//! The database is a sequence of immutable, fully-built epochs
//! ([`EpochState`]) of which only the newest, the *head*, is reachable: one
//! `RwLock<Arc<EpochState>>`. A read is a read lock held for one `Arc`
//! clone; it never waits on a build, a log append or an fsync, because the
//! write lock is only ever held for one pointer store. Writers run a
//! three-stage pipeline:
//!
//! 1. **Base** — clone the head `Arc` as the *base epoch*. Nothing is
//!    registered: the clone keeps the base alive for as long as the commit
//!    needs it.
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
//!    are rebuilt on the shared worker pool, one whole group per worker,
//!    each re-splitting only the neighbourhood of the change: the segments
//!    near a new or a vanished segment are swept again, and every other cut
//!    set is copied from the base component it was carried in. A one-region
//!    commit therefore costs one box test per component of the database
//!    plus the rebuild of the component it lands in, whose sweep covers the
//!    edit's neighbourhood only. The result is a
//!    complete new [`EpochState`], constructed while readers keep loading
//!    the old head and other writers build their own epochs concurrently.
//!    The root epoch's cold build is the same update, of an empty base
//!    with every name changed: [`arrangement::build_complex_view`].
//! 3. **Publish** — under the writers-only publish mutex, check that the
//!    head is still the base (`Arc::ptr_eq`); if so, append the batch to the
//!    log (when one is attached) and then store the new epoch as the head
//!    under the write lock. The mutex makes check, append and store one
//!    step, so a batch is logged exactly once — by the attempt that
//!    publishes it — and strictly before its epoch becomes visible. If
//!    another commit published first, re-apply the batch to the new head's
//!    instance and run stage 2 again with the *new head* as base: its
//!    components are carried wherever this commit does not touch them, and
//!    for a group it does touch the build is offered this attempt's own
//!    component (the `hint`) when every member region has the same extent
//!    in both instances. That is valid by construction: a component is
//!    built from its members' regions and nothing else. Two commits
//!    touching disjoint components therefore both build concurrently and
//!    the loser's retry is a pure re-assembly (zero re-sweeps).
//!
//! **Reclamation invariant.** The head is an `Arc`; snapshots keep exactly
//! what they reference. A superseded epoch is freed by whichever of its
//! holders — the commit that replaced it, a [`Snapshot`] — lets go last.

use crate::durability::Durability;
use crate::snapshot::Snapshot;
use crate::transaction::CommitSummary;
use arrangement::{ComponentComplex, GlobalComplexView};
use spatial_core::instance::SpatialInstance;
use spatial_core::region::Region;
use wal::WalOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, OnceLock, PoisonError, RwLock};

/// Build/diagnostic counters of the facade.
#[derive(Default)]
pub(crate) struct BuildCounters {
    /// Global assemblies performed (see
    /// [`TopoDatabase::complex_build_count`](crate::TopoDatabase::complex_build_count)).
    pub complex_builds: AtomicU64,
    /// Component sub-complexes rebuilt (not carried or hinted).
    pub component_rebuilds: AtomicU64,
    /// Publish attempts that found the head moved past their base and
    /// retried against the new head.
    pub publish_conflicts: AtomicU64,
}

/// One immutable epoch of the database: the instance as of that epoch and
/// the derived structures.
pub(crate) struct EpochState {
    /// The epoch number ([`Snapshot::epoch`] of this epoch's snapshot).
    pub epoch: u64,
    /// The instance as of this epoch.
    pub instance: Arc<SpatialInstance>,
    /// The epoch's snapshot: the zero-copy view — which holds the component
    /// sub-complexes the next commit carries over — plus the lazy derived
    /// reads. Published epochs are fully built *before* they become the
    /// head; only the root epoch (constructed without a commit) builds
    /// lazily on first read, so constructing a database stays free.
    built: OnceLock<Snapshot>,
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

/// Whether two instances give a name the same extent: the same shared
/// region, or equal geometry (a region re-inserted by value).
fn same_extent(a: Option<&Region>, b: Option<&Region>) -> bool {
    a.zip(b).is_some_and(|(a, b)| std::ptr::eq(a, b) || a == b)
}

fn unpoison<G>(guard: LockResult<G>) -> G {
    // The head is only ever replaced by one whole-pointer store and the
    // publish mutex guards no data, so a poisoned lock holds nothing torn.
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl EpochState {
    /// The snapshot, building it on first use (root epoch only — published
    /// epochs are always pre-built). The cold build is the degenerate
    /// update: nothing to carry, every name changed.
    pub fn built(&self, counters: &BuildCounters) -> &Snapshot {
        self.built.get_or_init(|| build_cold(self.epoch, &self.instance, counters))
    }
}

/// Apply buffered operations to a copy of `base`, returning the resulting
/// instance and the names whose membership or geometry actually changed, in
/// first-change order (replacing a region by an identical one and removing
/// an absent name do not count).
pub(crate) fn apply_ops(base: &SpatialInstance, ops: &[WalOp]) -> (SpatialInstance, Vec<String>) {
    let mut next = base.clone();
    let mut changed: Vec<String> = Vec::new();
    for op in ops {
        match op {
            WalOp::Insert(name, region) => {
                let replaced = next.insert(name.clone(), region.clone());
                // Replacing a region with an identical one changes nothing
                // (compare against the stored geometry; `insert` consumed
                // the new one).
                let unchanged = replaced.is_some() && next.ext(name) == replaced.as_ref();
                if !unchanged && !changed.contains(name) {
                    changed.push(name.clone());
                }
            }
            WalOp::Remove(name) => {
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
/// rest. The cold build ([`build_cold`]) is the degenerate patch: an empty
/// base, every name changed.
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

/// The cold build of `instance`: [`arrangement::build_complex_view`], the
/// update of nothing, every component of which is a rebuild.
fn build_cold(epoch: u64, instance: &SpatialInstance, counters: &BuildCounters) -> Snapshot {
    let view = arrangement::build_complex_view(instance);
    counters.component_rebuilds.fetch_add(view.component_count() as u64, Ordering::Relaxed);
    counters.complex_builds.fetch_add(1, Ordering::Relaxed);
    Snapshot::new(epoch, Arc::new(view))
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

/// The published head and the mutex that orders publishes.
pub(crate) struct EpochChain {
    /// The newest epoch. Readers hold the read lock for one `Arc` clone; the
    /// write lock is held for one pointer store, by a publisher that already
    /// holds `publish`.
    head: RwLock<Arc<EpochState>>,
    /// Serializes publishes and checkpoints — not builds, which run outside
    /// every lock.
    publish: Mutex<()>,
}

impl EpochChain {
    /// A chain rooted at an arbitrary epoch number — recovery reopens a
    /// database at the epoch its log replayed to, and commits continue the
    /// numbering from there (so re-logged epochs line up with the log).
    pub fn new_at(instance: Arc<SpatialInstance>, epoch: u64) -> Self {
        let root = EpochState { epoch, instance, built: OnceLock::new() };
        EpochChain { head: RwLock::new(Arc::new(root)), publish: Mutex::new(()) }
    }

    /// The current head epoch: a read lock held for one `Arc` clone.
    pub fn head(&self) -> Arc<EpochState> {
        Arc::clone(&*unpoison(self.head.read()))
    }

    /// Run `f` on the head with publishes held off, so the head stays the
    /// log's newest epoch until `f` returns.
    pub fn with_head_held<T>(&self, f: impl FnOnce(&EpochState) -> T) -> T {
        let _publishing = unpoison(self.publish.lock());
        f(&self.head())
    }

    /// Commit a batch: the three-stage pipeline described in the module
    /// docs. Returns the epoch the batch published (or the base epoch, if
    /// the batch changed nothing). Fails only on durability errors
    /// ([`crate::TopoDbError::Degraded`]): the head is untouched and
    /// readers never observe the attempt.
    pub fn commit(
        &self,
        ops: Vec<WalOp>,
        counters: &BuildCounters,
        durability: Option<&Durability>,
    ) -> Result<CommitSummary, crate::TopoDbError> {
        // Stage 1 — the base.
        let mut base = self.head();

        // Stage 2 — build outside any lock.
        let (instance, mut changed) = apply_ops(&base.instance, &ops);
        if changed.is_empty() {
            return Ok(CommitSummary { epoch: base.epoch, changed });
        }
        let mut instance = Arc::new(instance);
        let mut built = build_on(&base, &instance, &changed, |_| None, counters);

        // Stage 3 — publish, retrying on conflict.
        loop {
            let published = {
                let _publishing = unpoison(self.publish.lock());
                let is_base = Arc::ptr_eq(&*unpoison(self.head.read()), &base);
                if is_base {
                    // Log-before-publish. A durability failure returns here:
                    // nothing was published and readers stay on the base.
                    if let Some(d) = durability {
                        d.log_batch(base.epoch + 1, &ops, &changed, &instance)?;
                    }
                    let next = Arc::new(EpochState {
                        epoch: base.epoch + 1,
                        instance: Arc::clone(&instance),
                        built: OnceLock::from(built.clone()),
                    });
                    // The replaced head is `base`, which this commit still
                    // holds: the store frees nothing, and the superseded
                    // epoch is dropped with `base`, after both locks.
                    *unpoison(self.head.write()) = next;
                }
                is_base
            };
            if published {
                return Ok(CommitSummary { epoch: base.epoch + 1, changed });
            }

            counters.publish_conflicts.fetch_add(1, Ordering::Relaxed);
            let new_head = self.head();
            // Re-apply the batch against the new head: the published
            // instance must carry the intervening commits' changes, and this
            // batch's own effect can shrink against the new base (e.g. a
            // removal an intervening commit already performed).
            let (rebased, rebased_changed) = apply_ops(&new_head.instance, &ops);
            if rebased_changed.is_empty() {
                return Ok(CommitSummary { epoch: new_head.epoch, changed: rebased_changed });
            }
            let (attempt, own) = (instance, built);
            instance = Arc::new(rebased);
            changed = rebased_changed;
            // The new head's components are carried unless this commit
            // touches them; a touched group is offered this attempt's own
            // component when none of its members' regions differ.
            built = build_on(
                &new_head,
                &instance,
                &changed,
                |key: &[String]| {
                    find_component(own.view_ref().components(), key).filter(|_| {
                        key.iter().all(|name| same_extent(attempt.ext(name), instance.ext(name)))
                    })
                },
                counters,
            );
            base = new_head;
        }
    }
}
