//! Task types and task instances.
//!
//! The paper's central distinction (§II-A): *"Every execution of a task
//! declaration statement at runtime results in the creation of a task
//! instance. All task instances resulting from the same task declaration
//! statement in the source code are said to be of the same task type."*
//! TaskPoint leverages task types as its sampling-unit classes.

use crate::regions::RegionAccess;
use serde::{Deserialize, Serialize};
use taskpoint_trace::{TraceSource, TraceSpec};

/// Identifier of a task type (a task declaration in the source program).
///
/// Type ids are dense: [`ProgramBuilder::add_type`](crate::program::ProgramBuilder::add_type)
/// hands out `0, 1, 2, ...`, which lets per-type state live in plain
/// vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskTypeId(pub u32);

impl TaskTypeId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Per-type state keyed by [`TaskTypeId`]: a vector indexed by id, grown
/// when an id is first seen, iterated in id order. Type ids are dense, so
/// this replaces a hash map on the per-task paths that look a type up.
#[derive(Debug, Clone)]
pub struct TypeMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for TypeMap<T> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

impl<T> TypeMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: TaskTypeId) -> bool {
        self.get(id).is_some()
    }

    /// The entry of `id`, if any.
    pub fn get(&self, id: TaskTypeId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// The entry of `id` for update, if any.
    pub fn get_mut(&mut self, id: TaskTypeId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// The entry of `id`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, id: TaskTypeId, make: impl FnOnce() -> T) -> &mut T {
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        self.slots[id.index()].get_or_insert_with(make)
    }

    /// Every entry with its id, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskTypeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (TaskTypeId(i as u32), v)))
    }

    /// Every entry with its id, in id order, for update.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (TaskTypeId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|v| (TaskTypeId(i as u32), v)))
    }

    /// Every entry, in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Every entry, in id order, for update.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

impl<T> std::ops::Index<TaskTypeId> for TypeMap<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `id` has no entry.
    fn index(&self, id: TaskTypeId) -> &T {
        self.get(id).unwrap_or_else(|| panic!("no entry for task type {id}"))
    }
}

/// Identifier of a task instance (one dynamic execution of a declaration).
///
/// Instance ids are dense: the `i`-th task created by a program has id `i`,
/// which lets per-instance state live in plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskInstanceId(pub u64);

impl TaskInstanceId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A task type: the static declaration all its instances share.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskType {
    id: TaskTypeId,
    name: String,
}

impl TaskType {
    /// Creates a task type. Normally done through
    /// [`ProgramBuilder::add_type`](crate::program::ProgramBuilder::add_type).
    pub fn new(id: TaskTypeId, name: impl Into<String>) -> Self {
        Self { id, name: name.into() }
    }

    /// The type's identifier.
    pub fn id(&self) -> TaskTypeId {
        self.id
    }

    /// The type's source-level name (e.g. `"gemm"`, `"lu0"`).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A task instance: one dynamic execution with its own data and trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskInstance {
    id: TaskInstanceId,
    type_id: TaskTypeId,
    trace: TraceSpec,
    accesses: Vec<RegionAccess>,
}

impl TaskInstance {
    /// Creates a task instance. Normally done through
    /// [`ProgramBuilder::add_task`](crate::program::ProgramBuilder::add_task).
    pub fn new(
        id: TaskInstanceId,
        type_id: TaskTypeId,
        trace: TraceSpec,
        accesses: Vec<RegionAccess>,
    ) -> Self {
        Self { id, type_id, trace, accesses }
    }

    /// The instance's identifier (== creation order).
    pub fn id(&self) -> TaskInstanceId {
        self.id
    }

    /// The type this instance belongs to.
    pub fn type_id(&self) -> TaskTypeId {
        self.type_id
    }

    /// The instance's dynamic instruction stream.
    pub fn trace(&self) -> &TraceSpec {
        &self.trace
    }

    /// A fresh [`TraceSource`] over the instance's instruction stream,
    /// positioned at the start — what workloads hand the simulator's
    /// batched detailed pipeline.
    pub fn trace_source(&self) -> Box<dyn TraceSource> {
        Box::new(self.trace.source())
    }

    /// Dynamic instruction count — the `I_i` of the paper's fast-forward
    /// formula `C_i = I_i / IPC_T`.
    pub fn instructions(&self) -> u64 {
        self.trace.instructions()
    }

    /// The region annotations dependences are derived from.
    pub fn accesses(&self) -> &[RegionAccess] {
        &self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::AccessMode;
    use taskpoint_trace::MemRegion;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(TaskTypeId(3).to_string(), "T3");
        assert_eq!(TaskInstanceId(42).to_string(), "t42");
    }

    #[test]
    fn type_map_grows_on_first_sight_and_iterates_in_id_order() {
        let mut m = TypeMap::new();
        *m.get_or_insert_with(TaskTypeId(2), || 0) += 20;
        *m.get_or_insert_with(TaskTypeId(0), || 0) += 1;
        *m.get_or_insert_with(TaskTypeId(2), || 100) += 2;
        assert!(m.contains(TaskTypeId(0)) && m.contains(TaskTypeId(2)));
        assert!(!m.contains(TaskTypeId(1)), "gap below the largest id stays empty");
        assert!(!m.contains(TaskTypeId(7)), "beyond the largest id");
        assert_eq!(m.get(TaskTypeId(1)), None);
        assert_eq!(m[TaskTypeId(2)], 22);
        let ids: Vec<(u32, i32)> = m.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(ids, vec![(0, 1), (2, 22)]);
        for (_, v) in m.iter_mut() {
            *v *= 10;
        }
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![11, 221]);
        *m.get_mut(TaskTypeId(0)).unwrap() = 5;
        assert_eq!(m[TaskTypeId(0)], 5);
        assert!(m.get_mut(TaskTypeId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "no entry for task type T1")]
    fn type_map_index_panics_on_missing_type() {
        let mut m = TypeMap::new();
        m.get_or_insert_with(TaskTypeId(3), || 3u8);
        let _ = m[TaskTypeId(1)];
    }

    #[test]
    fn instance_exposes_trace_instruction_count() {
        let trace = TraceSpec::synthetic(0, 777);
        let inst = TaskInstance::new(TaskInstanceId(0), TaskTypeId(0), trace, vec![]);
        assert_eq!(inst.instructions(), 777);
    }

    #[test]
    fn instance_keeps_accesses_in_order() {
        let r1 = RegionAccess::new(MemRegion::new(0, 8), AccessMode::In);
        let r2 = RegionAccess::new(MemRegion::new(8, 8), AccessMode::Out);
        let inst = TaskInstance::new(
            TaskInstanceId(1),
            TaskTypeId(0),
            TraceSpec::builder().build(),
            vec![r1, r2],
        );
        assert_eq!(inst.accesses(), &[r1, r2]);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(TaskInstanceId(17).index(), 17);
    }

    #[test]
    fn trace_source_streams_the_instance_trace() {
        use taskpoint_trace::InstBlock;
        let trace = TraceSpec::synthetic(5, 300);
        let inst = TaskInstance::new(TaskInstanceId(0), TaskTypeId(0), trace.clone(), vec![]);
        let mut src = inst.trace_source();
        let mut block = InstBlock::new();
        let mut got = Vec::new();
        while src.fill(&mut block) > 0 {
            got.extend(block.iter());
        }
        assert!(got.iter().copied().eq(trace.iter()));
    }
}
