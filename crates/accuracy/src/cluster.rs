//! `(task type, size-class)` sampling units.
//!
//! The paper's §V-B future-work proposal — classify instances of one task
//! type into classes of similar performance using micro-architecture
//! independent metrics, e.g. instruction count — needs a stable mapping
//! from `(type, size)` to a dense *virtual type id*. [`ClusterMap`] is
//! that mapping, shared by the size-clustered base controller in the
//! sampling core and by [`ClusteredAdaptiveController`](crate::ClusteredAdaptiveController):
//! the size class is the log₂ bucket (width configurable) of the
//! instance's dynamic instruction count, and ids are handed out densely
//! in first-encounter order — stable, dense (`0..num_clusters`) and
//! injective across distinct pairs, the invariants the workspace property
//! tests pin down.

use taskpoint_runtime::{TaskTypeId, TypeMap};

/// The concurrency band of an observed machine concurrency level: the
/// log₂ bucket of the number of simultaneously running tasks, so a
/// doubling of parallelism shifts the band — the banded analogue of the
/// base controller's factor-of-two concurrency-change trigger (paper
/// Fig. 4a). Concurrency 0 is clamped to 1 (band 0).
pub fn concurrency_band(concurrency: u32) -> u32 {
    31 - concurrency.max(1).leading_zeros()
}

/// Dense remapping of `(type, size-class)` pairs to virtual type ids.
#[derive(Debug, Clone, Default)]
pub struct ClusterMap {
    /// log2 granularity: instances whose instruction counts fall in the
    /// same `[2^(g*k), 2^(g*(k+1)))` band share a class.
    granularity: u32,
    /// Per type, the virtual id of each size class (`UNASSIGNED` until
    /// first seen). Size classes are small and dense, like type ids.
    virtual_ids: TypeMap<Vec<u32>>,
    num_clusters: u32,
}

/// Marks a `(type, size-class)` pair no instance has mapped to yet.
const UNASSIGNED: u32 = u32::MAX;

impl ClusterMap {
    /// Creates a map. `granularity` is the width of a size class in
    /// powers of two: 1 = one class per octave of instruction count
    /// (fine), 2 = one class per factor of 4, ...
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0`.
    pub fn new(granularity: u32) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        Self { granularity, virtual_ids: TypeMap::new(), num_clusters: 0 }
    }

    /// The configured size-class width in powers of two.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// The size class of an instance with `instructions` dynamic
    /// instructions.
    pub fn size_class(&self, instructions: u64) -> u32 {
        let log2 = 63 - instructions.max(1).leading_zeros();
        log2 / self.granularity
    }

    /// The sampling unit an instance maps to: the dense virtual type id
    /// assigned to its `(type, size-class)` pair, handed out in
    /// first-encounter order.
    pub fn unit(&mut self, type_id: TaskTypeId, instructions: u64) -> TaskTypeId {
        let class = self.size_class(instructions) as usize;
        let classes = self.virtual_ids.get_or_insert_with(type_id, Vec::new);
        if class >= classes.len() {
            classes.resize(class + 1, UNASSIGNED);
        }
        if classes[class] == UNASSIGNED {
            classes[class] = self.num_clusters;
            self.num_clusters += 1;
        }
        TaskTypeId(classes[class])
    }

    /// Number of distinct `(type, size-class)` sampling units seen.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_partition_by_magnitude() {
        let c = ClusterMap::new(2);
        assert_eq!(c.size_class(1), 0);
        assert_eq!(c.size_class(3), 0); // log2=1 -> class 0 at granularity 2
        assert_eq!(c.size_class(4), 1); // log2=2
        assert_eq!(c.size_class(1000), 4); // log2=9
        assert_eq!(c.size_class(1_000_000), 9); // log2=19
    }

    #[test]
    fn units_are_dense_stable_and_injective() {
        let mut c = ClusterMap::new(1);
        let a = c.unit(TaskTypeId(0), 100);
        let b = c.unit(TaskTypeId(0), 100_000);
        let a2 = c.unit(TaskTypeId(0), 110);
        let other = c.unit(TaskTypeId(1), 100);
        assert_ne!(a, b, "orders of magnitude apart => different units");
        assert_eq!(a, a2, "similar sizes share a unit");
        assert_ne!(a, other, "types never share units");
        assert_eq!(c.num_clusters(), 3);
        let ids: Vec<u32> = [a, b, other].iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "dense first-encounter order");
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        ClusterMap::new(0);
    }

    #[test]
    fn concurrency_bands_are_log2_buckets() {
        assert_eq!(concurrency_band(0), 0, "clamped to 1");
        assert_eq!(concurrency_band(1), 0);
        assert_eq!(concurrency_band(2), 1);
        assert_eq!(concurrency_band(3), 1);
        assert_eq!(concurrency_band(4), 2);
        assert_eq!(concurrency_band(7), 2);
        assert_eq!(concurrency_band(8), 3);
        assert_eq!(concurrency_band(u32::MAX), 31);
    }
}
