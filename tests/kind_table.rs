//! The bucket-table kind sampler draws exactly what the linear scan draws,
//! for every instruction mix a shipped workload uses.
//!
//! `SpecSource` fills its kind column through `KindTable`; the unit tests
//! in `crates/trace/src/mix.rs` cover the presets and constructed edge
//! mixes. This test collects the distinct mixes of all Table-I and
//! external workloads as generated and checks each one at every bucket
//! edge (±1 draw) and on 10⁶ random draws.

use taskpoint_repro::stats::rng::Xoshiro256pp;
use taskpoint_repro::trace::mix::KindTable;
use taskpoint_repro::trace::InstructionMix;
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

/// Weight of one unit of a 53-bit draw, as in `Xoshiro256pp::next_f64`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

fn workload_mixes() -> Vec<InstructionMix> {
    let mut mixes: Vec<InstructionMix> = Vec::new();
    for bench in Benchmark::ALL.into_iter().chain(Benchmark::EXTERNAL) {
        let program = bench.generate(&ScaleConfig::quick());
        for instance in program.instances() {
            let mix = instance.trace().mix();
            if !mixes.contains(mix) {
                mixes.push(mix.clone());
            }
        }
    }
    mixes
}

#[test]
fn kind_table_draws_match_the_scan_for_every_workload_mix() {
    let mixes = workload_mixes();
    assert!(mixes.len() >= 5, "expected the presets and the custom mixes, got {}", mixes.len());
    for (i, mix) in mixes.iter().enumerate() {
        let table = KindTable::new(mix);
        assert_eq!(*KindTable::shared(mix), table, "shared table of mix {i}");
        for bucket in 0..=256u64 {
            let edge = bucket << 45;
            for m in [edge.wrapping_sub(1), edge, edge + 1] {
                if m < 1 << 53 {
                    assert_eq!(table.kind_of(m), mix.kind_at(m as f64 * UNIT), "mix {i}, draw {m}");
                }
            }
        }
        let mut a = Xoshiro256pp::seed_from_u64(0xD1CE + i as u64);
        let mut b = a.clone();
        for draw in 0..1_000_000 {
            assert_eq!(table.sample(&mut a), mix.sample(&mut b), "mix {i}, draw {draw}");
        }
    }
}
