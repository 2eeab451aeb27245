//! Tests of the benchmark itself: the traced wrappers must not perturb a
//! simulation, workload seeds must reach the generators, and every metric
//! the benchmark declares must have a valid name.

use perfbench::layers::prewarm_lines;
use perfbench::ops::{fingerprint, run, run_traced, RunKind};
use perfbench::report::valid_name;
use perfbench::workload::{Target, Workload};
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::MachineConfig;

fn quick_target(bench: Benchmark, machine: MachineConfig, workers: u32) -> Target {
    let program = bench.generate(&ScaleConfig::quick());
    Target { bench, machine, workers, variant: 0, program }
}

#[test]
fn wrappers_leave_every_result_bit_identical() {
    let targets = [
        quick_target(Benchmark::Cholesky, MachineConfig::high_performance(), 8),
        quick_target(Benchmark::Spmv, MachineConfig::low_power(), 4),
    ];
    for target in &targets {
        for kind in RunKind::ALL {
            let plain = run(target, kind);
            let (traced, recording, _) = run_traced(target, kind);
            assert_eq!(
                fingerprint(&traced),
                fingerprint(&plain),
                "{}:{}",
                target.label(),
                kind.name()
            );
            assert!(!recording.spans.is_empty(), "the traced run records spans");
        }
    }
}

#[test]
fn traced_spans_nest_under_the_run() {
    let target = quick_target(Benchmark::Cholesky, MachineConfig::high_performance(), 8);
    let (result, recording, _) = run_traced(&target, RunKind::Reference);
    let run = &recording.spans[0];
    assert_eq!(run.name, perfbench::ops::SIM_RUN);
    assert!(
        recording.spans[1..].iter().all(|s| s.parent == Some(0)),
        "every layer call is a child"
    );
    let fills = recording.counters[perfbench::wrap::FILL_INSTRUCTIONS];
    assert_eq!(fills, result.detailed_instructions, "fills return every detailed instruction");
    let self_ns = perfbench::span::self_times_ns(&recording.spans);
    let children: u64 = recording.spans[1..].iter().map(|s| s.duration_ns()).sum();
    assert_eq!(
        self_ns[0],
        run.duration_ns() - children,
        "disjoint children: self = span - children"
    );
}

#[test]
fn different_seeds_generate_different_programs() {
    let trace_seeds = |seed| -> Vec<u64> {
        let targets = Workload::SpmvDram.generate(seed);
        targets[0].program.instances().iter().map(|i| i.trace().seed()).collect()
    };
    assert!(trace_seeds(1) == trace_seeds(1), "the same seed generates the same program");
    assert!(trace_seeds(1) != trace_seeds(2), "another seed generates another program");
    let variants = Workload::SpmvDram.generate(1);
    assert_eq!(variants.len(), Workload::SpmvDram.variants());
    assert!(
        variants[0].program.instances()[0].trace().seed()
            != variants[1].program.instances()[0].trace().seed()
    );
}

#[test]
fn prewarm_lines_follow_the_engine_rule() {
    let fits = quick_target(Benchmark::Cholesky, MachineConfig::high_performance(), 8);
    assert!(prewarm_lines(&fits.program, &fits.machine) > 0);
    let exceeds = &Workload::SpmvDram.generate(1)[0];
    assert_eq!(prewarm_lines(&exceeds.program, &exceeds.machine), 0, "spmv data exceeds the LLC");
}

/// Every metric name declared in `BENCHMARK.json` must match
/// `[A-Za-z0-9_.-]+` (the benchmark also rejects, at run time, any
/// emitted name that does not).
#[test]
fn declared_metric_names_are_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    assert!(names.len() > 20, "found the workload and metric names");
    for name in names {
        assert!(valid_name(name), "invalid metric name {name:?}");
    }
    assert!(!valid_name("bad name") && !valid_name("") && !valid_name(".lead"));
}
