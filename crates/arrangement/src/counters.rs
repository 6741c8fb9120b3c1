//! Process-wide per-phase work counters for the construction pipeline.
//!
//! The committed bench host is single-core, so wall-clock numbers alone
//! cannot show whether the parallel phases still do the same amount of work
//! per build — a parallel-efficiency regression (duplicated chain walks,
//! re-swept strips, re-labeled faces) would be invisible there. These
//! counters make the work itself observable: every phase of the local
//! pipeline bumps a monotone process-wide total, and the benchmark harness
//! records the *delta* across a single build into the bench snapshot
//! (`BENCH_arrangement.json`), following the same pattern as the planner's
//! assignments-tried and index-probe counters.
//!
//! The counters are cumulative over the process lifetime and shared by every
//! thread (the parallel phases bump them from worker threads), so consumers
//! must always difference two [`phase_counters`] snapshots rather than read
//! one in isolation.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static CHAINS_MERGED: AtomicU64 = AtomicU64::new(0);
static CELLS_WALKED: AtomicU64 = AtomicU64::new(0);
static LABELS_PROPAGATED: AtomicU64 = AtomicU64::new(0);
static SEGMENTS_PARTITIONED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide phase-work totals; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseCounters {
    /// Event points processed by the Bentley–Ottmann sweep (every popped
    /// event of every strip and every monolithic sweep).
    pub events_processed: u64,
    /// Maximal 1-cells emitted by chain merging.
    pub chains_merged: u64,
    /// Face-boundary walks traced from the combinatorial embedding (both
    /// bounded faces and component outer walks).
    pub cells_walked: u64,
    /// Face labels assigned by propagation from the unbounded face.
    pub labels_propagated: u64,
    /// Boundary segments handed to the interaction-graph partitioner
    /// ([`crate::partition::partition_segments`]). A from-scratch partition
    /// adds every segment of the instance; incremental maintenance
    /// ([`crate::update_components`]) adds only those of the regions a
    /// commit dirties.
    pub segments_partitioned: u64,
}

impl PhaseCounters {
    /// The per-field difference `self - earlier` (saturating, so a stale
    /// `earlier` from another epoch never underflows).
    pub fn delta_since(&self, earlier: &PhaseCounters) -> PhaseCounters {
        PhaseCounters {
            events_processed: self.events_processed.saturating_sub(earlier.events_processed),
            chains_merged: self.chains_merged.saturating_sub(earlier.chains_merged),
            cells_walked: self.cells_walked.saturating_sub(earlier.cells_walked),
            labels_propagated: self.labels_propagated.saturating_sub(earlier.labels_propagated),
            segments_partitioned: self
                .segments_partitioned
                .saturating_sub(earlier.segments_partitioned),
        }
    }
}

/// The current process-wide totals. Monotone; difference two snapshots to
/// measure the work of one build.
pub fn phase_counters() -> PhaseCounters {
    PhaseCounters {
        events_processed: EVENTS_PROCESSED.load(Ordering::Relaxed),
        chains_merged: CHAINS_MERGED.load(Ordering::Relaxed),
        cells_walked: CELLS_WALKED.load(Ordering::Relaxed),
        labels_propagated: LABELS_PROPAGATED.load(Ordering::Relaxed),
        segments_partitioned: SEGMENTS_PARTITIONED.load(Ordering::Relaxed),
    }
}

pub(crate) fn add_events_processed(n: u64) {
    EVENTS_PROCESSED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn add_chains_merged(n: u64) {
    CHAINS_MERGED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn add_cells_walked(n: u64) {
    CELLS_WALKED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn add_labels_propagated(n: u64) {
    LABELS_PROPAGATED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn add_segments_partitioned(n: u64) {
    SEGMENTS_PARTITIONED.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_deltas_subtract() {
        let before = phase_counters();
        add_events_processed(3);
        add_chains_merged(2);
        add_cells_walked(5);
        add_labels_propagated(7);
        add_segments_partitioned(11);
        let after = phase_counters();
        let delta = after.delta_since(&before);
        // Other tests may bump the shared totals concurrently, so the delta
        // is a lower bound, never less than what this thread added.
        assert!(delta.events_processed >= 3);
        assert!(delta.chains_merged >= 2);
        assert!(delta.cells_walked >= 5);
        assert!(delta.labels_propagated >= 7);
        assert!(delta.segments_partitioned >= 11);
        // A stale "earlier" snapshot saturates instead of underflowing.
        assert_eq!(before.delta_since(&after).chains_merged, 0);
    }
}
