//! Golden sampled runs on a program whose task types are first met out of
//! id order.
//!
//! The sampling controllers keep their per-type (and per-cluster) state in
//! vectors indexed by type id, grown when an id is first seen. A program
//! that starts with type 2, then meets type 0, then type 1 exercises every
//! growth path and every "not seen yet" gap. The goldens below pin, for
//! the lazy, adaptive, clustered-adaptive and stratified policies:
//!
//! * `total_cycles` and the detailed/fast split of the run,
//! * the full `SamplingStats` (phase log, resamples, per-type valid
//!   samples), as an FNV-1a digest of its canonical rendering,
//! * the `AccuracyReport`'s unit order with per-unit `(seen, samples)`,
//!   and a digest of the whole report.
//!
//! The values were captured while that state still lived in hash maps.

use taskpoint_repro::accuracy::AccuracyReport;
use taskpoint_repro::runtime::{AccessMode, Program, RegionAccess};
use taskpoint_repro::sim::{MachineConfig, SimResult};
use taskpoint_repro::taskpoint::{
    run_adaptive, run_clustered_adaptive, run_sampled, run_stratified, SamplingStats,
    TaskPointConfig,
};
use taskpoint_repro::trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

/// Three task types declared as 0, 1, 2 but first instantiated in the
/// order 2, 0, 1: a block of type 2, then type 0 in two size classes,
/// then type 1 (whose first instance arrives after the lazy controller
/// already fast-forwards), then all three interleaved. Every task reads
/// the region of the task eight slots back, so concurrency varies.
fn out_of_order_program() -> Program {
    let mut b = Program::builder("out-of-order-types");
    let types = [b.add_type("t0"), b.add_type("t1"), b.add_type("t2")];
    let region = |slot: u64| MemRegion::new(0x4000_0000 + slot * 0x2000, 4096);
    let mut slot = 0u64;
    let mut add = |b: &mut taskpoint_repro::runtime::ProgramBuilder, ty: usize, instrs: u64| {
        let trace = TraceSpec::builder()
            .seed(0x60D_0000 + slot)
            .code_seed(0xC0DE + ty as u64)
            .instructions(instrs)
            .mix(InstructionMix::compute_bound())
            .pattern(AccessPattern::sequential(8))
            .footprint(region(slot))
            .build();
        let mut accesses = vec![RegionAccess::new(region(slot), AccessMode::Out)];
        if slot >= 8 {
            accesses.push(RegionAccess::new(region(slot - 8), AccessMode::In));
        }
        b.add_task(types[ty], trace, accesses);
        slot += 1;
    };
    for i in 0..40 {
        add(&mut b, 2, 1_500 + 37 * (i % 5));
    }
    for i in 0..40 {
        add(&mut b, 0, if i % 3 == 0 { 9_000 } else { 700 + 11 * (i % 4) });
    }
    for i in 0..24 {
        add(&mut b, 1, 3_000 + 53 * (i % 3));
    }
    for i in 0..60 {
        add(&mut b, [1, 2, 0][i % 3], 1_200 + 97 * (i as u64 % 7));
    }
    b.build()
}

/// FNV-1a over a canonical rendering.
fn fnv64(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `SamplingStats` with the per-type map sorted, so the rendering does
/// not depend on hash-map iteration order.
fn stats_digest(stats: &SamplingStats) -> u64 {
    let mut valid: Vec<(u32, u64)> = stats.valid_samples.iter().map(|(&t, &n)| (t, n)).collect();
    valid.sort_unstable();
    fnv64(&format!(
        "{:?} {:?} {valid:?} {} {}",
        stats.phase_log, stats.resamples, stats.fast_tasks, stats.detailed_tasks
    ))
}

/// `(unit, seen, samples)` per cluster, in report order.
fn units(report: &AccuracyReport) -> Vec<(u32, u64, u64)> {
    report.clusters.iter().map(|c| (c.unit, c.seen, c.samples)).collect()
}

fn run_summary(result: &SimResult, stats: &SamplingStats) -> (u64, u64, u64, u64) {
    (result.total_cycles, result.detailed_tasks, result.fast_tasks, stats_digest(stats))
}

const WORKERS: u32 = 4;

#[test]
fn lazy_run_is_pinned() {
    let p = out_of_order_program();
    let (result, stats) =
        run_sampled(&p, MachineConfig::tiny_test(), WORKERS, TaskPointConfig::lazy());
    assert_eq!(run_summary(&result, &stats), (117_979, 91, 73, 9_788_527_870_745_390_583));
    // Types 0 and 1 each arrive first while the run fast-forwards.
    assert_eq!(stats.resamples.len(), 2);
}

#[test]
fn adaptive_run_is_pinned() {
    let p = out_of_order_program();
    let config = TaskPointConfig::adaptive(0.05);
    let (result, stats) = run_sampled(&p, MachineConfig::tiny_test(), WORKERS, config);
    assert_eq!(run_summary(&result, &stats), (116_086, 75, 89, 5_767_630_561_785_153_055));
    let (again, _, report) = run_adaptive(&p, MachineConfig::tiny_test(), WORKERS, config);
    assert_eq!(again.total_cycles, result.total_cycles);
    // Units come out in type-id order, not first-encounter order.
    assert_eq!(units(&report), vec![(0, 60, 51), (1, 44, 5), (2, 60, 4)]);
    assert_eq!(fnv64(&format!("{report:?}")), 5_633_297_031_974_951_317);
}

#[test]
fn clustered_adaptive_run_is_pinned() {
    let p = out_of_order_program();
    let config = TaskPointConfig::adaptive(0.05);
    let (result, stats, report, clusters) =
        run_clustered_adaptive(&p, MachineConfig::tiny_test(), WORKERS, config, 1);
    assert_eq!(run_summary(&result, &stats), (116_726, 55, 109, 7_413_449_379_555_512_001));
    assert_eq!(clusters, 6);
    assert_eq!(
        units(&report),
        vec![(0, 60, 4), (1, 14, 4), (2, 26, 9), (3, 24, 4), (4, 20, 5), (5, 20, 7)]
    );
    assert_eq!(fnv64(&format!("{report:?}")), 9_971_130_011_877_521_734);
}

#[test]
fn stratified_run_is_pinned() {
    let p = out_of_order_program();
    let config = TaskPointConfig::stratified(3, 40);
    let (result, stats) = run_sampled(&p, MachineConfig::tiny_test(), WORKERS, config);
    assert_eq!(run_summary(&result, &stats), (116_140, 41, 123, 7_911_828_823_286_626_481));
    let (again, _, report) = run_stratified(&p, MachineConfig::tiny_test(), WORKERS, config);
    assert_eq!(again.total_cycles, result.total_cycles);
    assert_eq!(
        units(&report),
        vec![(0, 60, 8), (1, 14, 4), (2, 26, 3), (3, 24, 4), (4, 20, 6), (5, 20, 7)]
    );
    assert_eq!(fnv64(&format!("{report:?}")), 11_171_555_955_379_520_526);
}
