//! The repository benchmark: host time, accuracy and per-layer cost of
//! sampled simulation against the full-detail reference.
//!
//! The benchmark reaches every layer from outside, through public calls
//! only: workload generation (`Benchmark::generate`), the simulation entry
//! points (`run_reference`, `run_sampled`, `Simulation::builder`) and the
//! campaign layer (`Campaign`, `Context`, `ResultStore`, `CellSpec`). See
//! `perfbench/README.md` for the workloads, metrics and checks.

pub mod e2e;
pub mod layers;
pub mod ops;
pub mod pinned;
pub mod policy;
pub mod report;
pub mod span;
pub mod sweep;
pub mod workload;
pub mod wrap;
