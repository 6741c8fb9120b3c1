//! One thin adapter per layer boundary.
//!
//! The traced pass re-executes each stage of a commit, a fresh query and a
//! read through these functions, on the same input the facade call had, and
//! times them from outside. Every call into a crate other than `topodb`
//! made by the traced pass goes through this file, so when a later change
//! renames or re-homes a layer entry point, this file is the one
//! benchmark-side edit.

use crate::workload::Edit;
use arrangement::split::{SubSegment, TaggedSegment};
use arrangement::{
    ComponentComplex, ComponentGroup, ComponentSet, GlobalComplexView, SpatialIndex,
};
use invariant::Invariant;
use query::cell_eval::CellEvaluator;
use query::{EvalError, Formula, PreparedQuery, QueryOutput};
use relations::Relation4;
use spatial_core::instance::SpatialInstance;
use spatial_core::region::Region;
use spatial_core::segment::{Segment, SegmentIntersection};
use spatial_core::wire::Wire;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use topodb::{StorageOptions, TopoDatabase, TopoDbError};
use wal::{AppendOutcome, BatchRecord, Recovery, Vfs, Wal, WalError};

pub type ComponentMap = BTreeMap<Vec<String>, Arc<ComponentComplex>>;

// ---- datagen ----------------------------------------------------------------

pub fn generate(spec: &crate::workload::Spec) -> SpatialInstance {
    spec.instance()
}

// ---- spatial-core -----------------------------------------------------------

/// Copy the instance and apply the edits: what a commit does before it
/// builds. Returns the changed names in first-change order.
pub fn instance_apply(base: &SpatialInstance, edits: &[Edit]) -> (SpatialInstance, Vec<String>) {
    let mut next = base.clone();
    let mut changed = Vec::new();
    for edit in edits {
        let effective = match edit {
            Edit::Insert(name, region) => {
                let old = next.insert(name.clone(), region.clone());
                old.as_ref() != Some(region)
            }
            Edit::Remove(name) => next.remove(name).is_some(),
        };
        if effective && !changed.iter().any(|c| c == edit.name()) {
            changed.push(edit.name().to_string());
        }
    }
    (next, changed)
}

pub fn segment_intersect(a: &Segment, b: &Segment) -> SegmentIntersection {
    a.intersect(b)
}

pub fn wire_encode(region: &Region) -> Vec<u8> {
    region.to_wire_vec()
}

// ---- arrangement ------------------------------------------------------------

pub fn partition(instance: &SpatialInstance) -> Vec<ComponentGroup> {
    arrangement::partition_instance(instance)
}

/// The regions of one partition group as an instance of their own.
pub fn group_instance(instance: &SpatialInstance, group: &ComponentGroup) -> SpatialInstance {
    let names = instance.names();
    SpatialInstance::from_regions(group.region_indices.iter().map(|&i| {
        (
            names[i].to_string(),
            instance.ext(names[i]).expect("group region exists").clone(),
        )
    }))
}

pub fn segments(instance: &SpatialInstance) -> Vec<TaggedSegment> {
    arrangement::split::instance_segments(instance)
}

/// The splitting phase (sweep, or x-strips for big components).
pub fn split(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    arrangement::strip::split_segments_auto(segments)
}

/// The whole build of one component: split, chain merge, face walk, labels.
pub fn component_build(instance: &SpatialInstance, group: &ComponentGroup) -> ComponentComplex {
    arrangement::build_group_component(instance, group)
}

/// Does a commit that changed `changed` have to rebuild the component `key`?
pub fn touched(key: &[String], changed: &[String], base: &ComponentMap) -> bool {
    key.iter().any(|n| changed.contains(n)) || !base.contains_key(key)
}

/// A commit's build stage: partition, rebuild what the change touched,
/// reuse every other component of the base epoch.
pub fn reuse_build(
    instance: &SpatialInstance,
    changed: &[String],
    base: &ComponentMap,
) -> ComponentSet {
    arrangement::build_components_with_reuse(instance, |key| {
        if touched(key, changed, base) {
            None
        } else {
            base.get(key).cloned()
        }
    })
}

pub fn view_assemble(
    names: Vec<String>,
    components: Vec<Arc<ComponentComplex>>,
) -> GlobalComplexView {
    GlobalComplexView::new(names, components)
}

/// The region bounding-box R-tree of a view (built on first use).
pub fn index_build(view: &GlobalComplexView) -> Arc<SpatialIndex> {
    view.region_bbox_index()
}

pub fn cold_build(instance: &SpatialInstance) -> GlobalComplexView {
    arrangement::build_complex_view(instance)
}

pub fn phase_counters() -> arrangement::counters::PhaseCounters {
    arrangement::counters::phase_counters()
}

// ---- relations --------------------------------------------------------------

pub fn relation(view: &GlobalComplexView, a: &str, b: &str) -> Option<Relation4> {
    relations::relation_in_complex(view, a, b)
}

pub fn relation_row(view: &GlobalComplexView, name: &str) -> Option<Vec<(String, Relation4)>> {
    relations::relations_with_in_complex(view, name)
}

// ---- query ------------------------------------------------------------------

pub fn compile(text: &str) -> PreparedQuery {
    PreparedQuery::compile(text).expect("pooled query compiles")
}

pub fn evaluator_build(view: &GlobalComplexView, index: Arc<SpatialIndex>) -> CellEvaluator {
    CellEvaluator::from_complex(view).with_spatial_index(index)
}

pub fn query_run(
    query: &PreparedQuery,
    evaluator: &CellEvaluator,
) -> Result<QueryOutput, EvalError> {
    query.run_on(evaluator)
}

pub fn thematic_eval(db: &topodb::relstore::Database, formula: &Formula) -> Option<bool> {
    query::thematic_eval::eval_on_thematic(db, formula).ok()
}

// ---- invariant --------------------------------------------------------------

pub fn invariant_build(view: &GlobalComplexView) -> Invariant {
    Invariant::from_complex(view)
}

pub fn thematic_build(invariant: &Invariant) -> topodb::relstore::Database {
    invariant::thematic::to_database(invariant)
}

// ---- wal --------------------------------------------------------------------

pub fn batch_record(epoch: u64, edits: &[Edit], changed: &[String]) -> BatchRecord {
    let ops = edits
        .iter()
        .map(|e| match e {
            Edit::Insert(name, region) => wal::WalOp::Insert(name.clone(), region.clone()),
            Edit::Remove(name) => wal::WalOp::Remove(name.clone()),
        })
        .collect();
    BatchRecord {
        epoch,
        ops,
        changed: changed.to_vec(),
    }
}

pub fn wal_create(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    instance: &SpatialInstance,
) -> Result<Wal, WalError> {
    Wal::create_with_vfs(vfs, dir, 0, instance, wal::WalConfig::default())
}

pub fn wal_encode(record: &BatchRecord) -> Vec<u8> {
    record.encode_framed()
}

pub fn wal_append(
    log: &Wal,
    record: &BatchRecord,
    after: &SpatialInstance,
) -> Result<AppendOutcome, WalError> {
    log.append_batch(record, after)
}

pub fn wal_scan(vfs: &dyn Vfs, dir: &Path) -> Result<Recovery, WalError> {
    Wal::read_with_vfs(vfs, dir)
}

// ---- topodb -----------------------------------------------------------------

pub fn db_open(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<TopoDatabase, TopoDbError> {
    TopoDatabase::open_with_storage(dir, StorageOptions::default().with_vfs(vfs))
}

/// Snapshot the instance into a checkpoint file and truncate the log.
pub fn checkpoint(db: &TopoDatabase) -> Result<(), TopoDbError> {
    db.checkpoint()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_apply_reports_effective_changes_only() {
        let r = |x| Region::rect_from_ints(x, 0, x + 2, 2);
        let base =
            SpatialInstance::from_regions([("a".to_string(), r(0)), ("b".to_string(), r(5))]);
        let edits = [
            Edit::Insert("c".into(), r(9)),
            Edit::Insert("a".into(), r(0)), // identical replacement: no change
            Edit::Remove("ghost".into()),   // absent: no change
            Edit::Remove("b".into()),
            Edit::Insert("c".into(), r(12)), // second change of c: listed once
        ];
        let (next, changed) = instance_apply(&base, &edits);
        assert_eq!(changed, ["c", "b"]);
        assert_eq!(next.names(), ["a", "c"]);
        assert_eq!(next.ext("c"), Some(&r(12)));
    }

    #[test]
    fn shadow_build_matches_the_facade() {
        // Re-executing a commit through the adapters must give the complex
        // the facade publishes, or the shadow timings describe other work.
        let spec = crate::workload::spec("serve_256").unwrap();
        let base = generate(spec);
        let db = TopoDatabase::from_instance(base.clone());
        db.snapshot();
        let base_components: ComponentMap = db.component_complexes().into_iter().collect();
        let edits = [Edit::Insert(
            "X0_000000".into(),
            Region::rect_from_ints(3, 3, 9, 9),
        )];

        let (next, changed) = instance_apply(&base, &edits);
        let set = reuse_build(&next, &changed, &base_components);
        assert!(set.rebuilt >= 1 && set.rebuilt < set.components.len());
        let names = next.names().into_iter().map(String::from).collect();
        let shadow = view_assemble(names, set.components);

        let mut txn = db.begin_shared();
        txn.insert("X0_000000", Region::rect_from_ints(3, 3, 9, 9));
        assert_eq!(txn.try_commit().unwrap().changed, changed);
        let real = db.snapshot().complex_view();
        assert_eq!(
            format!("{:?}", shadow.to_cell_complex()),
            format!("{:?}", real.to_cell_complex())
        );
    }
}
