//! The traced run: per-layer metrics of one workload.
//!
//! Every round runs each of the reference and the four policies twice on
//! every target — untraced through the public entry points, then traced
//! through `Simulation::builder` with every layer wrapped — and checks the
//! two produce identical results. Round medians give the host times,
//! the first round gives the work counts (they repeat exactly).

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use taskpoint_runtime::Program;
use tasksim::{MachineConfig, SimResult};

use crate::e2e::{checked_run, detail_fraction, keep_going, mean_error, setup, Config};
use crate::ops::{
    fingerprint, median, run_fast_forward, run_traced, timed, Ledger, RunKind, SIM_RUN,
};
use crate::policy::{ControllerSummary, Policy};
use crate::report::Metrics;
use crate::span::{self, LayerTotals};
use crate::sweep::{self, SerialCost};
use crate::workload::Target;
use crate::wrap::{COMPLETE, DECIDE, FILL, FILL_INSTRUCTIONS, SCHED, SOURCE};

/// Layer totals of one traced run kind, summed over the workload's targets.
#[derive(Debug, Default, Clone)]
struct Traced {
    untraced_s: f64,
    traced_s: f64,
    layers: BTreeMap<&'static str, LayerTotals>,
    fill_instructions: u64,
    summary: ControllerSummary,
    results: Vec<SimResult>,
}

impl Traced {
    fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// Runs `kind` untraced and traced on every target. `None` when a run
/// fails or the traced result differs from the untraced one.
fn traced_kind(
    ledger: &mut Ledger,
    seed: u64,
    targets: &[Target],
    kind: RunKind,
) -> Option<Traced> {
    let mut out = Traced::default();
    let mut ok = true;
    for target in targets {
        let Some((untraced, secs)) = checked_run(ledger, seed, target, kind) else {
            ok = false;
            continue;
        };
        out.untraced_s += secs;
        let what = format!("{}:{}:traced", target.label(), kind.name());
        let Some(((result, rec, summary), secs)) =
            ledger.op(&what, || Ok(timed(|| run_traced(target, kind))))
        else {
            ok = false;
            continue;
        };
        if fingerprint(&result) != fingerprint(&untraced) {
            ledger.fail(1, format!("{what}: traced result differs from the untraced run"));
            ok = false;
            continue;
        }
        out.traced_s += secs;
        for (name, t) in span::totals(&rec.spans) {
            let acc = out.layers.entry(name).or_default();
            acc.calls += t.calls;
            acc.self_s += t.self_s;
        }
        out.fill_instructions += rec.counters.get(FILL_INSTRUCTIONS).copied().unwrap_or(0);
        out.summary.resamples += summary.resamples;
        out.summary.clusters += summary.clusters;
        out.summary.reopened += summary.reopened;
        out.summary.ci_max = out.summary.ci_max.max(summary.ci_max);
        out.results.push(untraced);
    }
    ok.then_some(out)
}

/// Distinct LLC lines of the program's footprint and shared regions, or 0
/// when the regions exceed the last level (the engine then prewarms
/// nothing). Regions are deduplicated by `(base, len)` before the
/// capacity test, as the engine does.
pub fn prewarm_lines(program: &Program, machine: &MachineConfig) -> u64 {
    let line = machine.line_size as u64;
    let capacity = machine.caches.iter().rfind(|c| c.shared).map_or(0, |c| c.size_bytes / line);
    let mut regions = HashSet::new();
    for inst in program.instances() {
        for r in [inst.trace().footprint(), inst.trace().shared()] {
            if !r.is_empty() {
                regions.insert((r.base, r.end()));
            }
        }
    }
    let span = |&(base, end): &(u64, u64)| (base / line, (end - 1) / line);
    let total: u64 = regions.iter().map(span).map(|(first, last)| last - first + 1).sum();
    if capacity == 0 || total > capacity {
        return 0;
    }
    let lines: HashSet<u64> =
        regions.iter().map(span).flat_map(|(first, last)| first..=last).collect();
    lines.len() as u64
}

/// Warm campaign passes per round (each is a few milliseconds).
const WARM_REPS: usize = 5;

/// Measures every per-layer metric.
pub fn measure(cfg: &Config, ledger: &mut Ledger) -> Metrics {
    let (all_targets, gen_times) = setup(cfg);
    // Layers are traced on the variant-0 programs only.
    let targets = &all_targets[..cfg.workload.cells().len()];
    let specs = sweep::specs(cfg.workload, cfg.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut rounds: Vec<BTreeMap<RunKind, Traced>> = Vec::new();
    let (mut ff_on, mut ff_off) = (Vec::new(), Vec::new());
    let (mut cold, mut warm, mut serial) = (Vec::new(), Vec::new(), Vec::<SerialCost>::new());
    let mut passes_seen = None;
    loop {
        let round_start = Instant::now();
        let mut round = BTreeMap::new();
        for kind in RunKind::ALL {
            if let Some(t) = traced_kind(ledger, cfg.seed, targets, kind) {
                round.insert(kind, t);
            }
        }
        rounds.push(round);
        for (prewarm, times) in [(true, &mut ff_on), (false, &mut ff_off)] {
            let mut total = 0.0;
            let mut ok = true;
            for target in targets {
                let key = format!("{}:fast-forward:prewarm={prewarm}", target.label());
                match ledger.op(&key, || Ok(timed(|| run_fast_forward(target, prewarm)))) {
                    Some((r, secs)) => match ledger.same_as_first(&key, fingerprint(&r)) {
                        Ok(()) => total += secs,
                        Err(e) => {
                            ledger.fail(1, e);
                            ok = false;
                        }
                    },
                    None => ok = false,
                }
            }
            if ok {
                times.push(total);
            }
        }
        if let Some(p) = sweep::cold_and_warm(&specs, &cfg.work, WARM_REPS, ledger) {
            cold.push(p.cold_s);
            warm.extend(p.warm_s);
            let n = specs.len() as u64;
            if let Some(cost) = ledger.ops(n, "campaign serial cells", || {
                sweep::serial_cost(&specs, &p.stored, &cfg.work)
            }) {
                serial.push(cost);
            }
            passes_seen.get_or_insert(p.computed);
        }
        if !keep_going(round_start, deadline) {
            break;
        }
    }

    // Generation covers every program variant; everything else below is
    // measured on the variant-0 programs.
    let count = |targets: &[Target], f: fn(&Target) -> u64| targets.iter().map(f).sum::<u64>();
    let mut m = Metrics::default();
    m.push("workloads.generate_s", median(&gen_times), "s");
    m.push(
        "workloads.tasks",
        count(&all_targets, |t| t.program.num_instances() as u64) as f64,
        "count",
    );
    m.push(
        "workloads.instructions",
        count(&all_targets, |t| t.program.total_instructions()) as f64,
        "count",
    );
    let tasks = count(targets, |t| t.program.num_instances() as u64);

    // Medians over rounds of a per-kind quantity; counts from the first
    // round that has the kind.
    let med = |kind: RunKind, f: &dyn Fn(&Traced) -> f64| {
        let v: Vec<f64> = rounds.iter().filter_map(|r| r.get(&kind)).map(f).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let first =
        |kind: RunKind| rounds.iter().find_map(|r| r.get(&kind)).cloned().unwrap_or_default();
    let firsts: BTreeMap<RunKind, Vec<SimResult>> = RunKind::ALL
        .into_iter()
        .map(|k| (k, first(k).results))
        .filter(|(_, r)| !r.is_empty())
        .collect();
    let lazy = RunKind::Sampled(Policy::Lazy);
    let reference = RunKind::Reference;

    m.push("runtime.sched_calls", first(lazy).layer(SCHED).calls as f64, "count");
    m.push("runtime.sched_s", med(lazy, &|t| t.layer(SCHED).self_s), "s");
    m.push("trace.sources", first(lazy).layer(SOURCE).calls as f64, "count");
    m.push("trace.source_s", med(lazy, &|t| t.layer(SOURCE).self_s), "s");
    let fill_instructions = first(reference).fill_instructions;
    m.push("trace.fills", first(reference).layer(FILL).calls as f64, "count");
    let fill_s = med(reference, &|t| t.layer(FILL).self_s);
    m.push("trace.fill_s", fill_s, "s");
    m.push("trace.instructions", fill_instructions as f64, "count");
    m.push("trace.fill_ns_per_instr", fill_s * 1e9 / fill_instructions as f64, "ns");

    let (on, off) = (median(&ff_on), median(&ff_off));
    m.push("sim.prewarm_s", on - off, "s");
    m.push(
        "sim.prewarm_lines",
        targets.iter().map(|t| prewarm_lines(&t.program, &t.machine)).sum::<u64>() as f64,
        "count",
    );
    m.push("sim.ff_task_us", off * 1e6 / tasks as f64, "us");
    for kind in RunKind::ALL {
        let name = match kind {
            RunKind::Reference => "sim.engine_self_s".to_string(),
            RunKind::Sampled(p) => format!("sim.engine_self_s.{}", p.name()),
        };
        m.push(name, med(kind, &|t| t.layer(SIM_RUN).self_s), "s");
    }
    let refs = first(reference).results;
    let sum = |f: &dyn Fn(&SimResult) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    m.push("sim.total_cycles", sum(&|r| r.total_cycles), "count");
    m.push("sim.l1_misses", sum(&|r| r.private_cache.first().map_or(0, |l| l.misses)), "count");
    m.push("sim.llc_misses", sum(&|r| r.shared_cache.last().map_or(0, |l| l.misses)), "count");
    m.push("sim.dram_accesses", sum(&|r| r.dram_accesses), "count");
    m.push("sim.invalidations", sum(&|r| r.invalidations), "count");
    let categories = tasksim::CycleAccount::default().categories().map(|(name, _)| name);
    for (i, name) in categories.iter().enumerate() {
        let ticks = sum(&|r| r.cycle_accounts.iter().map(|a| a.categories()[i].1).sum());
        m.push(format!("sim.stall.{name}"), ticks, "count");
    }

    for policy in Policy::ALL {
        let kind = RunKind::Sampled(policy);
        let p = policy.name();
        let f = first(kind);
        m.push(format!("core.decide_calls.{p}"), f.layer(DECIDE).calls as f64, "count");
        m.push(format!("core.decide_s.{p}"), med(kind, &|t| t.layer(DECIDE).self_s), "s");
        m.push(format!("core.complete_s.{p}"), med(kind, &|t| t.layer(COMPLETE).self_s), "s");
        let fraction = if f.results.is_empty() { f64::NAN } else { detail_fraction(&f.results) };
        m.push(format!("core.detail_fraction.{p}"), fraction, "ratio");
        m.push(format!("core.ideal_speedup_x.{p}"), 1.0 / fraction, "x");
        m.push(format!("core.resamples.{p}"), f.summary.resamples as f64, "count");
        m.push(format!("accuracy.error_pct.{p}"), mean_error(&firsts, policy), "%");
        if matches!(policy, Policy::Adaptive | Policy::Stratified) {
            m.push(format!("accuracy.clusters.{p}"), f.summary.clusters as f64, "count");
            m.push(format!("accuracy.reopened.{p}"), f.summary.reopened as f64, "count");
            m.push(format!("accuracy.ci_max.{p}"), f.summary.ci_max, "ratio");
        }
    }

    // A pass that returned was checked: the cold pass computed every cell
    // and every warm pass served every cell from the store.
    let cells = specs.len() as f64;
    m.push("campaign.cells", cells, "count");
    m.push("campaign.computed", passes_seen.map_or(0.0, |c| c as f64), "count");
    m.push("campaign.cached", if passes_seen.is_some() { cells } else { 0.0 }, "count");
    let serial_med = |f: &dyn Fn(&SerialCost) -> f64| {
        if serial.is_empty() {
            f64::NAN
        } else {
            median(&serial.iter().map(f).collect::<Vec<_>>())
        }
    };
    let cell_reference = serial_med(&|c| c.reference_s);
    let cell_sampled = serial_med(&|c| c.sampled_s);
    m.push("campaign.cell_s.reference", cell_reference, "s");
    m.push("campaign.cell_s.sampled", cell_sampled, "s");
    m.push(
        "campaign.executor_efficiency",
        (cell_reference + cell_sampled) / (median(&cold) * sweep::THREADS as f64),
        "ratio",
    );
    m.push("campaign.warm_s", median(&warm), "s");
    m.push("campaign.store_save_s", serial_med(&|c| c.save_s), "s");
    m.push("campaign.store_load_s", serial_med(&|c| c.load_s), "s");
    m.push(
        "campaign.record_bytes",
        serial.first().map_or(f64::NAN, |c| c.record_bytes as f64),
        "bytes",
    );

    for kind in RunKind::ALL {
        let overhead = med(kind, &|t| t.traced_s) - med(kind, &|t| t.untraced_s);
        m.push(format!("tracing.overhead_s.{}", kind.name()), overhead, "s");
    }

    print_layer_table(&rounds, median(&warm), median(&cold));
    m
}

/// Prints each run's untraced and traced host time beside the self time of
/// every layer it called (round medians).
fn print_layer_table(rounds: &[BTreeMap<RunKind, Traced>], warm_s: f64, cold_s: f64) {
    println!(
        "host seconds per run (round medians): end-to-end untraced | traced | overhead || self time per layer"
    );
    println!(
        "  {:<10} {:>9} {:>9} {:>9} || {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "run",
        "untraced",
        "traced",
        "overhead",
        "engine",
        "decide",
        "complete",
        "sched",
        "source",
        "fill"
    );
    for kind in RunKind::ALL {
        let v = |f: &dyn Fn(&Traced) -> f64| {
            let v: Vec<f64> = rounds.iter().filter_map(|r| r.get(&kind)).map(f).collect();
            if v.is_empty() {
                f64::NAN
            } else {
                median(&v)
            }
        };
        let layer = |name: &'static str| v(&|t| t.layer(name).self_s);
        println!(
            "  {:<10} {:>9.5} {:>9.5} {:>9.5} || {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5}",
            kind.name(),
            v(&|t| t.untraced_s),
            v(&|t| t.traced_s),
            v(&|t| t.traced_s - t.untraced_s),
            layer(SIM_RUN),
            layer(DECIDE),
            layer(COMPLETE),
            layer(SCHED),
            layer(SOURCE),
            layer(FILL),
        );
    }
    println!("  campaign   cold {cold_s:.5} s, warm {warm_s:.5} s ({} rounds)", rounds.len());
}
