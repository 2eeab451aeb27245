//! The benchmark's workloads and the simulation targets each one runs.

use std::time::Instant;

use taskpoint_runtime::Program;
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::MachineConfig;

/// One benchmark workload (see `perfbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cholesky on the high-performance machine, 8 workers: 19,600 short
    /// tasks whose data fits the LLC.
    CholeskyFine,
    /// SpMV on the high-performance machine, 8 workers: 1,024 tasks whose
    /// data exceeds the LLC.
    SpmvDram,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::CholeskyFine, Workload::SpmvDram];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CholeskyFine => "cholesky-fine",
            Workload::SpmvDram => "spmv-dram",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `(benchmark, machine, workers)` cells the workload simulates.
    pub fn cells(self) -> Vec<(Benchmark, MachineConfig, u32)> {
        let high = MachineConfig::high_performance;
        match self {
            Workload::CholeskyFine => vec![(Benchmark::Cholesky, high(), 8)],
            Workload::SpmvDram => vec![(Benchmark::Spmv, high(), 8)],
        }
    }

    /// Program variants per cell. Sampled runs are timed on every
    /// variant: spmv's sampled cost depends on which rows the policies
    /// happen to sample in detail (its row imbalance is seeded), so one
    /// program per seed would make its sampled host times mostly a
    /// property of the seed.
    pub fn variants(self) -> usize {
        match self {
            Workload::CholeskyFine => 1,
            Workload::SpmvDram => 12,
        }
    }

    /// Generates every target of the workload from `seed`: all cells of
    /// variant 0 (generated from `seed` itself) first, then the other
    /// variants in order.
    pub fn generate(self, seed: u64) -> Vec<Target> {
        let mut targets = Vec::new();
        for variant in 0..self.variants() {
            let scale = scale(variant_seed(seed, variant));
            for (bench, machine, workers) in self.cells() {
                let program = bench.generate(&scale);
                targets.push(Target { bench, machine, workers, variant, program });
            }
        }
        targets
    }

    /// Generates the targets `reps` times (at least once) and returns the
    /// last generation with every generation's host seconds.
    pub fn generate_timed(self, seed: u64, reps: usize) -> (Vec<Target>, Vec<f64>) {
        let mut times = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..reps.max(1) {
            drop(std::mem::take(&mut targets));
            let t0 = Instant::now();
            targets = std::hint::black_box(self.generate(seed));
            times.push(t0.elapsed().as_secs_f64());
        }
        (targets, times)
    }
}

/// The workload seed of program variant `variant` (variant 0 uses `seed`).
pub fn variant_seed(seed: u64, variant: usize) -> u64 {
    seed.wrapping_add((variant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The full-size workload scale for `seed`.
pub fn scale(seed: u64) -> ScaleConfig {
    ScaleConfig { instr_factor: 1.0, seed }
}

/// One simulated program on one machine.
#[derive(Debug)]
pub struct Target {
    /// The benchmark the program came from.
    pub bench: Benchmark,
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Simulated workers.
    pub workers: u32,
    /// Program variant (0 is generated from the workload seed itself).
    pub variant: usize,
    /// The generated program.
    pub program: Program,
}

impl Target {
    /// `bench/machine/Nw`, with `#variant` for variants other than 0.
    pub fn label(&self) -> String {
        let base = format!("{}/{}/{}w", self.bench.name(), self.machine.name, self.workers);
        match self.variant {
            0 => base,
            v => format!("{base}#{v}"),
        }
    }
}
