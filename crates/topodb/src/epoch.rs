//! The epoch chain: snapshot publication for
//! [`TopoDatabase`](crate::TopoDatabase).
//!
//! The database is a sequence of immutable, fully-built epochs, each one
//! [`Snapshot`] holding its instance and its view, of which only the newest,
//! the *head*, is reachable: one `RwLock<Snapshot>`. Every epoch is built by
//! one function, `build_epoch`, before it becomes the head: the root inside
//! [`EpochChain::new_at`], before the database is returned, and every later
//! epoch by the commit that publishes it. A read is a read lock held for one
//! `Arc` clone; it never builds and never waits on a build, a log append or
//! an fsync, because the write lock is only ever held for one pointer
//! store. Writers run a three-stage pipeline:
//!
//! 1. **Base** — clone the head snapshot as the *base epoch*. Nothing is
//!    registered: the clone keeps the base alive for as long as the commit
//!    needs it.
//! 2. **Build, outside any lock** — apply the buffered operations to a copy
//!    of the base instance, which shares every run of entries with the base
//!    and copies only the runs the operations change (one pointer per run;
//!    no name or geometry is copied — a replaced or removed region is
//!    compared or dropped in place, not handed back — and dropping the
//!    superseded instance later frees only what nothing shares), then
//!    *patch* the base epoch's view instead of rebuilding it
//!    ([`arrangement::update_components`] +
//!    [`GlobalComplexView::updated`]). What is **carried**, pointer-identical
//!    and without being looked into: every component of the base that
//!    contains no changed name and whose box stays clear of the new
//!    geometry, together with its nesting parent. What is **re-partitioned**:
//!    the inserted and re-shaped regions; as one unit each, the components a
//!    new segment's box touches, and the survivors of a component that lost
//!    or re-shaped a member when its own vertex labels still connect them
//!    (both represented by their segments near the new geometry, or by one
//!    segment); and, one region at a time, the survivors of a component
//!    that may have fallen apart (the removed region was a bridge). One
//!    probe of the new segments
//!    against the carried components' boxes is enough, because two segments
//!    that both stayed put interact now iff they did in the base: only new
//!    geometry can link into an untouched component. The resulting groups
//!    are rebuilt on the shared worker pool, one whole group per worker,
//!    each re-splitting only the neighbourhood of the change: the segments
//!    near a new or a vanished segment are swept again, and every other cut
//!    set is copied from the base component it was carried in. A one-region
//!    commit therefore costs one box test per component of the database
//!    plus the rebuild of the component it lands in, whose sweep covers the
//!    edit's neighbourhood only. The view's glue is patched too: carried
//!    components keep their region maps shifted by rank and their place in
//!    the component-box index, so beyond the rebuilt components a commit
//!    pays integer work per component and per name, and one `String` per
//!    name for the new epoch's global name list. A region's closure cells
//!    live on its component
//!    ([`ComplexGeometry::closure_slot`](arrangement::ComplexGeometry::closure_slot)),
//!    so a carried component brings every region some query of an earlier
//!    epoch walked, and a rebuilt one starts with none: the chain hands
//!    nothing over by itself. The result is a
//!    complete new [`Snapshot`], constructed while readers keep loading
//!    the old head and other writers build their own epochs concurrently.
//!    The root epoch is the same update, of the empty view with every name
//!    changed: [`arrangement::build_complex_view`].
//! 3. **Publish** — under the writers-only publish mutex, check that the head is
//!    still the base (`Arc::ptr_eq` of the two snapshots); if so, append the
//!    batch to the log (when one is attached) and then store the new snapshot as
//!    the head under the write lock. The mutex makes check, append and store one
//!    step, so a batch is logged exactly once — by the attempt that publishes it
//!    — and strictly before its epoch becomes visible. If another commit
//!    published first, re-apply the batch to the new head's instance and run
//!    stage 2 again with the *new head* as base: its components are carried
//!    wherever this commit does not touch them, and for a group it does touch
//!    the build is offered this attempt's own component (the `hint`) when every
//!    member region has the same extent in both instances, with whatever
//!    closure cells that component's slots hold. That is valid by
//!    construction: a component is built from its members' regions and nothing
//!    else. Two commits touching disjoint components therefore both build
//!    concurrently and the loser's retry is a pure re-assembly (zero re-sweeps).
//!
//! A superseded epoch is freed by whichever of its holders — the commit
//! that replaced it, a clone of its [`Snapshot`] — lets go last.

use crate::durability::Durability;
use crate::snapshot::Snapshot;
use crate::transaction::CommitSummary;
use arrangement::{ComponentComplex, GlobalComplexView};
use spatial_core::instance::SpatialInstance;
use spatial_core::region::Region;
use wal::WalOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};

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

/// The component whose names are exactly those of `members` (ascending by
/// name), if `components` (in partition order: ascending smallest member
/// name) has one.
fn find_component(
    components: &[Arc<ComponentComplex>],
    members: &[(&str, &Region)],
) -> Option<Arc<ComponentComplex>> {
    let first = members[0].0;
    let at = components.binary_search_by(|c| c.region_names()[0].as_str().cmp(first)).ok()?;
    let names = components[at].region_names().iter().map(String::as_str);
    names.eq(members.iter().map(|&(name, _)| name)).then(|| Arc::clone(&components[at]))
}

/// Whether a name's extent in an earlier instance (`None` if absent) is the
/// member's region: the same shared region, or equal geometry (a region
/// re-inserted by value).
fn same_extent(earlier: Option<&Region>, region: &Region) -> bool {
    earlier.is_some_and(|earlier| std::ptr::eq(earlier, region) || earlier == region)
}

fn unpoison<G>(guard: LockResult<G>) -> G {
    // The head is only ever replaced by one whole-snapshot store and the
    // publish mutex guards no data, so a poisoned lock holds nothing torn.
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// Apply buffered operations to a copy of `base`, returning the resulting
/// instance and the names whose membership or geometry actually changed, in
/// first-change order (replacing a region by an identical one and removing
/// an absent name do not count).
pub(crate) fn apply_ops(base: &SpatialInstance, ops: &[WalOp]) -> (SpatialInstance, Vec<String>) {
    let mut next = base.clone();
    let mut changed: Vec<String> = Vec::new();
    for op in ops {
        // The borrowing forms copy no region out of an entry the base
        // shares; replacing a region with an identical one changes nothing.
        let (name, effective) = match op {
            WalOp::Insert(name, region) => (name, next.replace(name, region)),
            WalOp::Remove(name) => (name, next.discard(name)),
        };
        if effective && !changed.contains(name) {
            changed.push(name.clone());
        }
    }
    (next, changed)
}

/// Build the snapshot of an epoch by patching the view of its base: carry
/// over every component that `changed` (the names whose extent differs
/// between the two instances) neither contains nor touches, with its
/// nesting parent; re-partition, sweep (asking `hint` first) and locate
/// the rest. This is the one way an epoch is made: the root epoch is
/// the patch of the empty view with every name changed, which is
/// [`arrangement::build_complex_view`].
fn build_epoch<S, F>(
    epoch: u64,
    base: &GlobalComplexView,
    instance: Arc<SpatialInstance>,
    changed: &[S],
    hint: F,
    counters: &BuildCounters,
) -> Snapshot
where
    S: AsRef<str>,
    F: Fn(&[(&str, &Region)]) -> Option<Arc<ComponentComplex>>,
{
    let update = arrangement::update_components(base.components(), &instance, changed, hint);
    counters.component_rebuilds.fetch_add(update.rebuilt as u64, Ordering::Relaxed);
    counters.complex_builds.fetch_add(1, Ordering::Relaxed);
    let global_names: Vec<String> = instance.names().iter().map(|s| s.to_string()).collect();
    let view = base.updated(global_names, changed, update);
    Snapshot::new(epoch, instance, Arc::new(view))
}

/// The published head, the mutex that orders publishes, and the build
/// counters.
pub(crate) struct EpochChain {
    /// The newest epoch's snapshot. Readers hold the read lock for one `Arc`
    /// clone; the write lock is held for one store, by a publisher that
    /// already holds `publish`.
    head: RwLock<Snapshot>,
    /// Serializes publishes and checkpoints — not builds, which run outside
    /// every lock.
    publish: Mutex<()>,
    pub counters: BuildCounters,
}

impl EpochChain {
    /// A chain rooted at an arbitrary epoch number — recovery reopens a
    /// database at the epoch its log replayed to, and commits continue the
    /// numbering from there (so re-logged epochs line up with the log). The
    /// root is built here, before the chain exists: no read ever builds.
    pub fn new_at(instance: SpatialInstance, epoch: u64) -> Self {
        let counters = BuildCounters::default();
        let instance = Arc::new(instance);
        let nothing = GlobalComplexView::new(Vec::new(), Vec::new());
        let names = instance.names();
        let root = build_epoch(epoch, &nothing, Arc::clone(&instance), &names, |_| None, &counters);
        EpochChain { head: RwLock::new(root), publish: Mutex::new(()), counters }
    }

    /// The current head's snapshot: a read lock held for one `Arc` clone.
    pub fn head(&self) -> Snapshot {
        unpoison(self.head.read()).clone()
    }

    /// Run `f` on the head with publishes held off, so the head stays the
    /// log's newest epoch until `f` returns.
    pub fn with_head_held<T>(&self, f: impl FnOnce(&Snapshot) -> T) -> T {
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
        durability: Option<&Durability>,
    ) -> Result<CommitSummary, crate::TopoDbError> {
        // Stage 1 — the base.
        let mut base = self.head();

        // Stage 2 — build outside any lock.
        let (instance, mut changed) = apply_ops(&base.inner.instance, &ops);
        if changed.is_empty() {
            return Ok(CommitSummary { epoch: base.epoch(), changed });
        }
        let mut built = build_epoch(
            base.epoch() + 1,
            base.view_ref(),
            Arc::new(instance),
            &changed,
            |_| None,
            &self.counters,
        );

        // Stage 3 — publish, retrying on conflict.
        loop {
            let published = {
                let _publishing = unpoison(self.publish.lock());
                let is_base = Arc::ptr_eq(&unpoison(self.head.read()).inner, &base.inner);
                if is_base {
                    // Log-before-publish. A durability failure returns here:
                    // nothing was published and readers stay on the base.
                    if let Some(d) = durability {
                        d.log_batch(built.epoch(), &ops, &changed, &built.inner.instance)?;
                    }
                    // The replaced head is `base`, which this commit still
                    // holds: the store frees nothing, and the superseded
                    // epoch is dropped with `base`, after both locks.
                    *unpoison(self.head.write()) = built.clone();
                }
                is_base
            };
            if published {
                return Ok(CommitSummary { epoch: built.epoch(), changed });
            }

            self.counters.publish_conflicts.fetch_add(1, Ordering::Relaxed);
            let new_head = self.head();
            // Re-apply the batch against the new head: the published
            // instance must carry the intervening commits' changes, and this
            // batch's own effect can shrink against the new base (e.g. a
            // removal an intervening commit already performed).
            let (rebased, rebased_changed) = apply_ops(&new_head.inner.instance, &ops);
            if rebased_changed.is_empty() {
                return Ok(CommitSummary { epoch: new_head.epoch(), changed: rebased_changed });
            }
            let own = built;
            let instance = Arc::new(rebased);
            changed = rebased_changed;
            // The new head's components are carried unless this commit
            // touches them; a touched group is offered this attempt's own
            // component when none of its members' regions differ.
            built = build_epoch(
                new_head.epoch() + 1,
                new_head.view_ref(),
                Arc::clone(&instance),
                &changed,
                |members: &[(&str, &Region)]| {
                    find_component(own.view_ref().components(), members).filter(|_| {
                        members.iter().all(|&(name, region)| {
                            same_extent(own.inner.instance.ext(name), region)
                        })
                    })
                },
                &self.counters,
            );
            base = new_head;
        }
    }
}
