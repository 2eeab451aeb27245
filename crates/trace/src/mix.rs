//! Instruction mixes.
//!
//! An [`InstructionMix`] is a discrete probability distribution over
//! [`InstKind`]s. Each benchmark's task types are assigned mixes that match
//! the paper's qualitative descriptions (compute bound, memory bound, atomic
//! operations, irregular, ...).

use std::cell::RefCell;
use std::sync::Arc;

use crate::inst::InstKind;
use serde::{Deserialize, Serialize};
use taskpoint_stats::rng::Xoshiro256pp;

/// A normalized probability distribution over instruction kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    // Cumulative distribution over InstKind::ALL, last entry == 1.0.
    cumulative: [f64; 11],
}

impl InstructionMix {
    /// Builds a mix from `(kind, weight)` pairs. Unlisted kinds get weight 0.
    /// Weights are normalized; they need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero/negative or any weight is negative or
    /// non-finite.
    pub fn from_weights(weights: &[(InstKind, f64)]) -> Self {
        let mut w = [0.0f64; 11];
        for &(kind, weight) in weights {
            assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight} for {kind}");
            w[kind as usize] += weight;
        }
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "instruction mix has zero total weight");
        let mut cumulative = [0.0f64; 11];
        let mut acc = 0.0;
        for i in 0..11 {
            acc += w[i] / total;
            cumulative[i] = acc;
        }
        // Close any rounding gap at the last kind that can be drawn: the
        // kinds after it have zero weight and must stay undrawable, which
        // a running sum that ends at 0.9999999999999999 would not ensure.
        let last = w.iter().rposition(|&x| x > 0.0).expect("total weight is positive");
        cumulative[last..].fill(1.0);
        Self { cumulative }
    }

    /// Probability of the given kind.
    pub fn probability(&self, kind: InstKind) -> f64 {
        let i = kind as usize;
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }

    /// Fraction of memory instructions (loads + stores + atomics).
    pub fn memory_fraction(&self) -> f64 {
        self.probability(InstKind::Load)
            + self.probability(InstKind::Store)
            + self.probability(InstKind::Atomic)
    }

    /// Draws one instruction kind.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> InstKind {
        self.kind_at(rng.next_f64())
    }

    /// The kind a uniform draw `x` in `[0, 1)` selects: the first kind
    /// whose cumulative probability exceeds `x`. [`InstructionMix::sample`]
    /// is `kind_at(rng.next_f64())`.
    #[inline]
    pub fn kind_at(&self, x: f64) -> InstKind {
        // 11 entries: linear scan beats binary search at this size.
        for (i, &c) in self.cumulative.iter().enumerate() {
            if x < c {
                return InstKind::ALL[i];
            }
        }
        InstKind::Fence
    }

    // ---- presets matching the paper's workload descriptions ----

    /// Compute-bound floating-point kernel (dense matmul, swaptions,
    /// monte-carlo): few memory references, lots of FP.
    pub fn compute_bound() -> Self {
        Self::from_weights(&[
            (InstKind::IntAlu, 0.22),
            (InstKind::FpAlu, 0.25),
            (InstKind::FpMul, 0.30),
            (InstKind::FpDiv, 0.01),
            (InstKind::Load, 0.12),
            (InstKind::Store, 0.04),
            (InstKind::Branch, 0.06),
        ])
    }

    /// Memory/streaming-bound kernel (vector-operation, spmv): high
    /// load/store share, little arithmetic per element.
    pub fn memory_bound() -> Self {
        Self::from_weights(&[
            (InstKind::IntAlu, 0.25),
            (InstKind::FpAlu, 0.10),
            (InstKind::FpMul, 0.05),
            (InstKind::Load, 0.35),
            (InstKind::Store, 0.15),
            (InstKind::Branch, 0.10),
        ])
    }

    /// Balanced integer/floating-point mix (stencils, convolutions).
    pub fn balanced() -> Self {
        Self::from_weights(&[
            (InstKind::IntAlu, 0.30),
            (InstKind::FpAlu, 0.15),
            (InstKind::FpMul, 0.12),
            (InstKind::Load, 0.25),
            (InstKind::Store, 0.08),
            (InstKind::Branch, 0.10),
        ])
    }

    /// Atomic-heavy mix (histogram): scattered atomic updates to shared bins.
    pub fn atomic_heavy() -> Self {
        Self::from_weights(&[
            (InstKind::IntAlu, 0.35),
            (InstKind::Load, 0.25),
            (InstKind::Atomic, 0.15),
            (InstKind::Store, 0.05),
            (InstKind::Branch, 0.20),
        ])
    }

    /// Integer/branch-heavy irregular mix (dedup, freqmine, canneal):
    /// pointer chasing, hashing, data-dependent branching.
    pub fn irregular_int() -> Self {
        Self::from_weights(&[
            (InstKind::IntAlu, 0.38),
            (InstKind::IntMul, 0.04),
            (InstKind::IntDiv, 0.01),
            (InstKind::Load, 0.30),
            (InstKind::Store, 0.09),
            (InstKind::Branch, 0.18),
        ])
    }
}

impl Default for InstructionMix {
    /// The [`InstructionMix::balanced`] mix.
    fn default() -> Self {
        Self::balanced()
    }
}

/// Bits of a draw that select its [`KindTable`] bucket.
const BUCKET_BITS: u32 = 8;

/// Shift from a 53-bit draw to its bucket index.
const BUCKET_SHIFT: u32 = 53 - BUCKET_BITS;

/// Distinct mixes whose tables [`KindTable::shared`] keeps per thread.
const SHARED_TABLES: usize = 16;

/// Weight of one unit of a 53-bit draw: `draw · UNIT` is the `f64` that
/// [`Xoshiro256pp::next_f64`] returns for it.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// An [`InstructionMix`] compiled for drawing kinds in bulk: the same
/// draws as [`InstructionMix::sample`], mostly without the linear scan.
///
/// `next_f64` maps a 53-bit integer draw `m` to `x = m · 2⁻⁵³`. The table
/// has one entry per value of the draw's top 8 bits, and the entry is the
/// kind every draw in that bucket selects, when they all select the same
/// one. A draw then costs one table load; only a draw in a bucket that
/// straddles a cumulative boundary falls back to the scan.
///
/// The table is exact for *any* cumulative array `c`, sorted or not. The
/// selected index `i(x) = min{i : x < c[i]}` (Fence when there is none) is
/// monotone in `x`: if `x ≤ x'`, every `i` with `x' < c[i]` also has
/// `x < c[i]`, so `i(x) ≤ i(x')`. A bucket is an interval of draws, so
/// when its smallest and its largest draw select the same kind, so does
/// every draw between them. Monotonicity also makes the draws that select
/// kind `k` one interval `[t_k, t_{k+1})`, where `t_k` is the smallest
/// draw with `x ≥ c[j]` for every `j < k`. [`KindTable::new`] computes
/// the 11 thresholds and fills each interval's whole buckets in one
/// O(256 + 11) sweep; the buckets left empty are the ones a threshold
/// falls strictly inside.
#[derive(Debug, Clone, PartialEq)]
pub struct KindTable {
    /// The kind of every draw in bucket `b`, or `None` when the bucket
    /// holds a boundary.
    buckets: [Option<InstKind>; 1 << BUCKET_BITS],
    mix: InstructionMix,
}

impl KindTable {
    /// Compiles `mix`.
    pub fn new(mix: &InstructionMix) -> Self {
        const DRAWS: u64 = 1 << 53;
        let mut buckets = [None; 1 << BUCKET_BITS];
        // `lo` is `t_k`. Scaling by 2⁵³ is exact, so the ceiling of the
        // scaled bound is the smallest draw `m` with `m · 2⁻⁵³ ≥ bound`.
        let mut bound = 0.0f64;
        let mut lo = 0u64;
        for (k, &kind) in InstKind::ALL.iter().enumerate() {
            let hi = if k == 10 {
                DRAWS
            } else {
                bound = bound.max(mix.cumulative[k]);
                ((bound * DRAWS as f64).ceil() as u64).min(DRAWS)
            };
            // Buckets wholly inside `[lo, hi)`.
            let first = lo.div_ceil(1 << BUCKET_SHIFT) as usize;
            let end = (hi >> BUCKET_SHIFT) as usize;
            if first < end {
                buckets[first..end].fill(Some(kind));
            }
            lo = lo.max(hi);
        }
        Self { buckets, mix: mix.clone() }
    }

    /// The table of `mix`, compiled once per thread and shared.
    ///
    /// A trace source is built per detailed task, and every task of a type
    /// draws from the same mix, so compiling per source would pay the
    /// table once per task. Each thread keeps the tables of the last 16
    /// distinct mixes it compiled.
    pub fn shared(mix: &InstructionMix) -> Arc<KindTable> {
        thread_local! {
            static TABLES: RefCell<Vec<Arc<KindTable>>> = const { RefCell::new(Vec::new()) };
        }
        TABLES.with_borrow_mut(|tables| {
            if let Some(table) = tables.iter().find(|t| t.mix == *mix) {
                return Arc::clone(table);
            }
            if tables.len() == SHARED_TABLES {
                tables.remove(0);
            }
            let table = Arc::new(KindTable::new(mix));
            tables.push(Arc::clone(&table));
            table
        })
    }

    /// The kind a 53-bit draw `m` (`Xoshiro256pp::next_u64() >> 11`)
    /// selects; equal to what [`InstructionMix::sample`] returns for the
    /// same generator output.
    #[inline]
    pub fn kind_of(&self, m: u64) -> InstKind {
        debug_assert!(m < 1 << 53, "draw {m:#x} wider than 53 bits");
        match self.buckets[(m >> BUCKET_SHIFT) as u8 as usize] {
            Some(kind) => kind,
            None => self.mix.kind_at(m as f64 * UNIT),
        }
    }

    /// Draws one instruction kind, consuming exactly the generator output
    /// [`InstructionMix::sample`] would.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> InstKind {
        self.kind_of(rng.next_u64() >> 11)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn presets() -> Vec<InstructionMix> {
        vec![
            InstructionMix::compute_bound(),
            InstructionMix::memory_bound(),
            InstructionMix::balanced(),
            InstructionMix::atomic_heavy(),
            InstructionMix::irregular_int(),
        ]
    }

    #[test]
    fn probabilities_sum_to_one() {
        for mix in presets() {
            let total: f64 = InstKind::ALL.iter().map(|&k| mix.probability(k)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_are_normalized() {
        let a = InstructionMix::from_weights(&[(InstKind::Load, 1.0), (InstKind::Store, 1.0)]);
        let b = InstructionMix::from_weights(&[(InstKind::Load, 50.0), (InstKind::Store, 50.0)]);
        assert_eq!(a, b);
        assert!((a.probability(InstKind::Load) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_kinds_accumulate() {
        let m = InstructionMix::from_weights(&[
            (InstKind::Load, 1.0),
            (InstKind::Load, 1.0),
            (InstKind::Store, 2.0),
        ]);
        assert!((m.probability(InstKind::Load) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn zero_weight_rejected() {
        let _ = InstructionMix::from_weights(&[(InstKind::Load, 0.0)]);
    }

    #[test]
    fn sampling_frequency_matches_probability() {
        let mix = InstructionMix::balanced();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let n = 200_000;
        let mut counts = [0usize; 11];
        for _ in 0..n {
            counts[mix.sample(&mut rng) as usize] += 1;
        }
        for k in InstKind::ALL {
            let expected = mix.probability(k);
            let observed = counts[k as usize] as f64 / n as f64;
            assert!(
                (expected - observed).abs() < 0.01,
                "{k}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn zero_weight_kinds_after_the_last_drawable_one_stay_undrawable() {
        // 1/6 + 4/6 + 1/6 sums to 0.9999999999999999 in f64: closing the
        // gap only at Fence would leave Atomic and Fence a sliver of
        // probability although neither has weight.
        let mix = InstructionMix::from_weights(&[
            (InstKind::IntAlu, 1.0),
            (InstKind::Load, 4.0),
            (InstKind::Branch, 1.0),
        ]);
        assert_eq!(mix.probability(InstKind::Atomic), 0.0);
        assert_eq!(mix.probability(InstKind::Fence), 0.0);
        // The largest draw `next_f64` can return selects the last
        // drawable kind.
        let top = (1u64 << 53) - 1;
        assert_eq!(mix.kind_at(top as f64 * UNIT), InstKind::Branch);
        assert_eq!(KindTable::new(&mix).kind_of(top), InstKind::Branch);
        let total: f64 = InstKind::ALL.iter().map(|&k| mix.probability(k)).sum();
        assert_eq!(total, 1.0);
    }

    /// Asserts that `KindTable` selects the same kind as the linear scan
    /// for the draws at and next to every bucket edge and for `draws`
    /// random generator outputs, consumed through both samplers.
    fn assert_table_matches_scan(mix: &InstructionMix, draws: usize, seed: u64) {
        let table = KindTable::new(mix);
        for b in 0..=1u64 << BUCKET_BITS {
            let edge = b << BUCKET_SHIFT;
            for m in [edge.wrapping_sub(1), edge, edge + 1] {
                if m < 1 << 53 {
                    assert_eq!(table.kind_of(m), mix.kind_at(m as f64 * UNIT), "{mix:?} draw {m}");
                }
            }
        }
        let mut a = Xoshiro256pp::seed_from_u64(seed);
        let mut b = a.clone();
        for i in 0..draws {
            assert_eq!(table.sample(&mut a), mix.sample(&mut b), "{mix:?} draw {i}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "both samplers consume one output per draw");
    }

    #[test]
    fn kind_table_matches_scan_on_presets_and_edge_mixes() {
        let mut mixes = presets();
        // One drawable kind: every bucket is uniform.
        mixes.push(InstructionMix::from_weights(&[(InstKind::FpMul, 3.0)]));
        mixes.push(InstructionMix::from_weights(&[(InstKind::Fence, 1.0)]));
        // Several boundaries inside one bucket (each 1/256 wide), at the
        // bottom, in the middle and at the top of the unit interval.
        mixes.push(InstructionMix::from_weights(&[
            (InstKind::IntAlu, 1e-4),
            (InstKind::IntMul, 1e-4),
            (InstKind::IntDiv, 1e-4),
            (InstKind::FpAlu, 1.0),
        ]));
        mixes.push(InstructionMix::from_weights(&[
            (InstKind::IntAlu, 0.5),
            (InstKind::IntMul, 1e-4),
            (InstKind::FpAlu, 1e-4),
            (InstKind::Load, 1e-4),
            (InstKind::Store, 0.5),
        ]));
        mixes.push(InstructionMix::from_weights(&[
            (InstKind::IntAlu, 1.0),
            (InstKind::Branch, 1e-5),
            (InstKind::Atomic, 1e-5),
            (InstKind::Fence, 1e-5),
        ]));
        // The rounding-gap mix of the test above.
        mixes.push(InstructionMix::from_weights(&[
            (InstKind::IntAlu, 1.0),
            (InstKind::Load, 4.0),
            (InstKind::Branch, 1.0),
        ]));
        for (i, mix) in mixes.iter().enumerate() {
            assert_table_matches_scan(mix, 1_000_000, 0x7AB1E + i as u64);
        }
    }

    #[test]
    fn kind_table_is_exact_for_any_cumulative_array() {
        // Arrays `from_weights` never builds: unsorted, above 1, ending
        // below 1, and values a few ulps from a bucket edge, where
        // rounding the threshold the wrong way would move a whole bucket.
        let mut rng = Xoshiro256pp::seed_from_u64(0xA11_C0DE);
        for case in 0..2000u64 {
            let mut cumulative = [0.0f64; 11];
            for c in &mut cumulative {
                *c = match rng.next_below(4) {
                    0 => rng.next_f64() * 1.1,
                    1 => 1.0,
                    _ => {
                        let edge = rng.next_range(0, 256) as f64 / 256.0;
                        let ulps = rng.next_range(0, 6) as i64 - 3;
                        f64::from_bits((edge.to_bits() as i64 + ulps).max(0) as u64)
                    }
                };
            }
            if rng.next_bool(0.5) {
                cumulative.sort_by(f64::total_cmp);
            }
            assert_table_matches_scan(&InstructionMix { cumulative }, 2_000, case);
        }
    }

    #[test]
    fn kind_table_matches_scan_on_random_mixes_with_zero_weights() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_7AB1);
        for case in 0..300u64 {
            let mut weights = Vec::new();
            for kind in InstKind::ALL {
                // About half the kinds get no weight; the rest span six
                // decades, so boundaries both spread out and crowd.
                if rng.next_bool(0.5) {
                    weights.push((kind, 10f64.powf(rng.next_f64() * 6.0 - 6.0)));
                }
            }
            if weights.is_empty() {
                weights.push((InstKind::ALL[(case % 11) as usize], 1.0));
            }
            let mix = InstructionMix::from_weights(&weights);
            let total: f64 = InstKind::ALL.iter().map(|&k| mix.probability(k)).sum();
            assert!((total - 1.0).abs() < 1e-12, "{weights:?}");
            for kind in InstKind::ALL {
                if !weights.iter().any(|&(k, _)| k == kind) {
                    assert_eq!(mix.probability(kind), 0.0, "{kind} in {weights:?}");
                }
            }
            assert_table_matches_scan(&mix, 10_000, case);
        }
    }

    #[test]
    fn memory_fraction_matches_construction() {
        let mix = InstructionMix::memory_bound();
        assert!((mix.memory_fraction() - 0.5).abs() < 1e-9);
        assert!(InstructionMix::compute_bound().memory_fraction() < 0.2);
    }
}
