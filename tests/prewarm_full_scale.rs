//! Full-scale pins of the prewarmed last-level cache.
//!
//! The engine starts a run with the LLC holding the program's data when
//! all of it fits (see `prewarm_memory` in the engine). The quick-scale
//! goldens in `block_equivalence.rs` exercise that on small programs
//! only; these cells pin lazy-sampled results at full scale, on every
//! Table-I and external workload whose data fits the LLC of the
//! high-performance or low-power machine, so any change to what the
//! prewarm leaves resident (or in which LRU order) shows up here.

use std::collections::HashSet;

use taskpoint_repro::runtime::Program;
use taskpoint_repro::sim::{LevelStats, MachineConfig, RecordedTraces, SimResult};
use taskpoint_repro::taskpoint::{run_sampled, run_sampled_traced, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ExternalWorkload, ScaleConfig};

/// True if the program's distinct regions fit the machine's last shared
/// level — the engine's all-or-nothing prewarm rule (regions deduplicated
/// by `(base, len)`, lines summed per region).
fn prewarm_applies(program: &Program, machine: &MachineConfig) -> bool {
    let line = machine.line_size as u64;
    let capacity = machine.caches.iter().rfind(|c| c.shared).map_or(0, |c| c.size_bytes / line);
    let mut seen = HashSet::new();
    let mut lines = 0;
    for inst in program.instances() {
        for r in [inst.trace().footprint(), inst.trace().shared()] {
            if !r.is_empty() && seen.insert((r.base, r.len)) {
                lines += (r.end() - 1) / line - r.base / line + 1;
            }
        }
    }
    capacity > 0 && lines <= capacity
}

fn run_lazy(bench: Benchmark, program: &Program, machine: &MachineConfig) -> SimResult {
    let config = TaskPointConfig::lazy();
    match bench {
        Benchmark::External(w) => {
            let traces = Box::new(RecordedTraces::from_ingested(&w.ingest()));
            run_sampled_traced(program, machine.clone(), 8, config, traces).0
        }
        _ => run_sampled(program, machine.clone(), 8, config).0,
    }
}

/// Lazy sampling, 8 workers, full scale (`ScaleConfig::new()`): one row
/// per cell whose data fits the LLC, captured with the per-line LRU
/// prewarm the bulk build replaced.
#[test]
fn lazy_runs_with_a_prewarmed_llc_match_full_scale_goldens() {
    /// (benchmark, machine, total_cycles, dram_accesses, LLC hits, LLC
    /// misses)
    type Golden = (Benchmark, &'static str, u64, u64, u64, u64);
    #[rustfmt::skip]
    let goldens: [Golden; 11] = [
        (Benchmark::Matmul, "high-performance", 1_759_122, 0, 806, 0),
        (Benchmark::Nbody, "high-performance", 3_138_890, 0, 11_896, 0),
        (Benchmark::Cholesky, "high-performance", 2_038_907, 0, 1627, 0),
        (Benchmark::Kmeans, "high-performance", 1_367_942, 0, 6231, 0),
        (Benchmark::Knn, "high-performance", 1_647_749, 0, 3337, 0),
        (Benchmark::Canneal, "high-performance", 7_344_265, 0, 24_439, 0),
        (Benchmark::Freqmine, "high-performance", 2_874_208, 0, 31_280, 0),
        (Benchmark::External(ExternalWorkload::DagMini), "high-performance", 18_762, 2689, 0, 2689),
        (Benchmark::External(ExternalWorkload::DagMini), "low-power", 17_117, 2689, 0, 2689),
        (Benchmark::External(ExternalWorkload::PipelineMini), "high-performance", 231_913, 1631, 0, 1631),
        (Benchmark::External(ExternalWorkload::PipelineMini), "low-power", 202_599, 1631, 0, 1631),
    ];
    let scale = ScaleConfig::new();
    let mut checked = 0;
    for bench in Benchmark::ALL.into_iter().chain(Benchmark::EXTERNAL) {
        let program = bench.generate(&scale);
        for machine in [MachineConfig::high_performance(), MachineConfig::low_power()] {
            let golden = goldens.iter().find(|g| g.0 == bench && g.1 == machine.name);
            let what = format!("{bench}/{}", machine.name);
            assert_eq!(
                prewarm_applies(&program, &machine),
                golden.is_some(),
                "{what}: the goldens must list exactly the cells whose data fits the LLC"
            );
            let Some(&(_, _, cycles, dram, llc_hits, llc_misses)) = golden else { continue };
            let r = run_lazy(bench, &program, &machine);
            assert_eq!(r.total_cycles, cycles, "{what}: total_cycles");
            assert_eq!(r.dram_accesses, dram, "{what}: dram_accesses");
            assert_eq!(
                r.shared_cache,
                [LevelStats { hits: llc_hits, misses: llc_misses }],
                "{what}: LLC hits/misses"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, goldens.len());
}
