//! The perf-regression gate CLI: compares a fresh probe record against
//! the committed `BENCH_*.json` series and emits a machine-readable
//! verdict (see `taskpoint_bench::regress` for the comparison rules).
//!
//! ```text
//! regress --current FILE [--out FILE] [--dir DIR] [--gate] [BASELINE...]
//! ```
//!
//! * `--current` — a probe `--json` output (`schema_version: 2`) for the
//!   build under test. Produce it first with
//!   `probe ... --runs N --json current.json`.
//! * `BASELINE...` — explicit baseline record paths. When none are
//!   given, every `BENCH_*.json` in `--dir` (default: the current
//!   directory) is loaded.
//! * `--out` — writes the verdict JSON document there.
//! * `--gate` — exit nonzero on a regression verdict. Without it the
//!   tool always exits 0 on a clean run (the CI step is a non-gating
//!   report; host-noise drift is documented at ±25%).

use taskpoint_bench::regress::{compare, parse_record, verdict_json, BenchRecord, Verdict};

struct Args {
    current: String,
    out: Option<String>,
    dir: String,
    gate: bool,
    baselines: Vec<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        current: String::new(),
        out: None,
        dir: ".".to_string(),
        gate: false,
        baselines: Vec::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--current" => parsed.current = value(&args, &mut i, "--current"),
            "--out" => parsed.out = Some(value(&args, &mut i, "--out")),
            "--dir" => parsed.dir = value(&args, &mut i, "--dir"),
            "--gate" => parsed.gate = true,
            other if !other.starts_with("--") => parsed.baselines.push(other.to_string()),
            other => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if parsed.current.is_empty() {
        eprintln!("error: --current FILE is required (a probe --json record)");
        std::process::exit(2);
    }
    parsed
}

fn load_record(path: &str) -> BenchRecord {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match parse_record(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    let mut baseline_paths = args.baselines.clone();
    if baseline_paths.is_empty() {
        let entries = match std::fs::read_dir(&args.dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("error: cannot list {}: {e}", args.dir);
                std::process::exit(1);
            }
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                baseline_paths.push(entry.path().to_string_lossy().to_string());
            }
        }
        baseline_paths.sort();
    }
    if baseline_paths.is_empty() {
        eprintln!("error: no baseline BENCH_*.json records found in {}", args.dir);
        std::process::exit(1);
    }

    let current = load_record(&args.current);
    let baselines: Vec<BenchRecord> = baseline_paths.iter().map(|p| load_record(p)).collect();
    let sidecar_cells: usize = baselines.iter().map(|b| b.sidecar.len()).sum();

    let (comparisons, verdict) = compare(&current, &baselines);
    println!(
        "regress: {} baselines ({}), current {} with {} point{}",
        baselines.len(),
        baselines.iter().map(|b| b.id.as_str()).collect::<Vec<_>>().join(", "),
        current.id,
        current.points.len(),
        if current.points.len() == 1 { "" } else { "s" },
    );
    for c in &comparisons {
        println!(
            "  vs {} @{}: baseline min {:.2} (median {:.2}) -> current median {:.2} \
             ({:+.1}% vs floor) {}",
            c.baseline_id,
            c.scale,
            c.baseline_min,
            c.baseline_median,
            c.current_median,
            c.delta_percent,
            if c.regression { "REGRESSION" } else { "ok" },
        );
    }
    if sidecar_cells > 0 {
        println!("  ({sidecar_cells} campaign sidecar cells loaded as informational context)");
    }
    println!("verdict: {}", verdict.tag());

    if let Some(out) = &args.out {
        let text = verdict_json(&current, &comparisons, &verdict, sidecar_cells);
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    }
    if args.gate && verdict == Verdict::Regression {
        std::process::exit(3);
    }
}
