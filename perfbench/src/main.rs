//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` prints every end-to-end metric of the workload; with
//! `--trace 1` every per-layer metric. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::e2e::{self, Config};
use perfbench::layers;
use perfbench::ops::Ledger;
use perfbench::pinned::default_seed;
use perfbench::report::valid_name;
use perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, default_seed(), 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

/// Refuses settings that would change what is measured. `run_reference`
/// reads `TASKPOINT_DETAIL_THREADS`; the benchmark measures the sequential
/// engine only. The scale, job-count and store-location variables are
/// dropped: the benchmark sets all three itself.
fn guard_environment() -> Result<(), String> {
    if let Ok(v) = std::env::var("TASKPOINT_DETAIL_THREADS") {
        if v.trim() != "1" {
            return Err(format!(
                "TASKPOINT_DETAIL_THREADS={v:?}: the benchmark requires 1 or unset"
            ));
        }
    }
    for var in ["TASKPOINT_SCALE", "TASKPOINT_JOBS", "TASKPOINT_CAMPAIGN_DIR"] {
        std::env::remove_var(var);
    }
    Ok(())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let target_dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or("perfbench/target".into(), PathBuf::from);
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        work: target_dir.join("perfbench-work"),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" commit={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
    );
    let mut ledger = Ledger::default();
    let mut metrics = if args.trace {
        layers::measure(&cfg, &mut ledger)
    } else {
        e2e::measure(&cfg, &mut ledger)
    };
    if !args.trace {
        metrics.push("ok_frac", 1.0 - ledger.failed_frac(), "ratio");
    }
    let _ = std::fs::remove_dir(&cfg.work);
    let mut correct = ledger.failed == 0;
    for name in metrics.non_finite() {
        println!("invalid metric: {name} is not a finite number");
        correct = false;
    }
    for (name, _, _) in metrics.entries() {
        if !valid_name(name) {
            println!("invalid metric name: {name}");
            correct = false;
        }
    }
    for failure in &ledger.failures {
        println!("FAILED: {failure}");
    }
    println!("metrics ({} operations, {} failed):", ledger.attempted, ledger.failed);
    print!("{}", metrics.table());
    println!("{}", metrics.result_json(correct, ledger.attempted.max(1), ledger.failed));
    ExitCode::SUCCESS
}
