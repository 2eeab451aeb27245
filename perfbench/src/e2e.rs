//! The untraced run: every end-to-end metric of one workload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tasksim::SimResult;

use crate::ops::{error_pct, fingerprint, median, minimum, run, timed, Ledger, RunKind};
use crate::pinned;
use crate::policy::Policy;
use crate::report::Metrics;
use crate::sweep;
use crate::workload::{Target, Workload};

/// What one benchmark process measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (`ScaleConfig::seed`).
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Directory for the campaign stores (removed after each pass).
    pub work: PathBuf,
}

/// Program generations of the set-up phase. A fixed count (not a time
/// budget) keeps the allocation history, and so `peak_rss_mb`, the same
/// from run to run.
const SETUP_REPS: usize = 21;

/// Generates the workload's targets [`SETUP_REPS`] times; returns the last
/// targets and every generation's host seconds.
pub fn setup(cfg: &Config) -> (Vec<Target>, Vec<f64>) {
    cfg.workload.generate_timed(cfg.seed, SETUP_REPS)
}

/// Runs `kind` on `target` once as a timed operation, checking the result
/// against the first repeat and (at the default seed) the pinned cycles.
pub fn checked_run(
    ledger: &mut Ledger,
    seed: u64,
    target: &Target,
    kind: RunKind,
) -> Option<(SimResult, f64)> {
    let key = format!("{}:{}", target.label(), kind.name());
    let (result, secs) = ledger.op(&key, || Ok(timed(|| run(target, kind))))?;
    let check =
        ledger.same_as_first(&key, fingerprint(&result)).and_then(|()| match target.variant {
            0 => pinned::check(seed, &target.label(), kind, result.total_cycles),
            _ => Ok(()),
        });
    match check {
        Ok(()) => Some((result, secs)),
        Err(e) => {
            ledger.fail(1, e);
            None
        }
    }
}

/// Runs every target under `kind` once; returns each target's result and
/// host seconds, or `None` if any run failed.
pub fn run_all(
    ledger: &mut Ledger,
    seed: u64,
    targets: &[Target],
    kind: RunKind,
) -> Option<Vec<(SimResult, f64)>> {
    let runs: Vec<_> = targets.iter().map(|t| checked_run(ledger, seed, t, kind)).collect();
    runs.into_iter().collect()
}

/// Fraction of instructions simulated in detail, over all results.
pub fn detail_fraction(results: &[SimResult]) -> f64 {
    let detailed: u64 = results.iter().map(|r| r.detailed_instructions).sum();
    let total: u64 = results.iter().map(|r| r.total_instructions()).sum();
    detailed as f64 / total as f64
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Repeats each sampled run this share of the reference's host time per
/// round, so short runs contribute enough samples.
const SAMPLED_SHARE: f64 = 0.1;
/// Upper bound on repeats of one sampled run per round.
const MAX_REPS: usize = 20;

/// Keeps measuring rounds until `deadline`; a round that would end more
/// than half a round past it is not started.
pub fn keep_going(round_start: Instant, deadline: Instant) -> bool {
    let now = Instant::now();
    now + (now - round_start) / 2 < deadline
}

/// Host seconds of every timed run of one kind, per target.
#[derive(Debug, Default)]
struct Samples(Vec<Vec<f64>>);

impl Samples {
    fn push(&mut self, secs: &[f64]) {
        self.0.resize(secs.len(), Vec::new());
        self.0.iter_mut().zip(secs).for_each(|(v, &s)| v.push(s));
    }

    /// `stat` of each target's samples, summed over targets.
    fn sum_of(&self, stat: fn(&[f64]) -> f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().map(|v| stat(v)).sum()
    }

    /// Per-round totals over targets (rounds where every target ran).
    fn round_totals(&self) -> Vec<f64> {
        let rounds = self.0.iter().map(Vec::len).min().unwrap_or(0);
        (0..rounds).map(|i| self.0.iter().map(|v| v[i]).sum()).collect()
    }
}

/// Measures every end-to-end metric except `ok_frac`, which the caller
/// adds once every operation is counted.
///
/// Each round runs the reference once on the variant-0 programs, every
/// policy on every program variant (repeated when short), and one cold
/// plus one warm campaign pass. A policy's time is per program set,
/// averaged over variants.
///
/// Two statistics, chosen by how each time is sampled (see *Steadiness*
/// in `perfbench/README.md`). Interference on the measuring host only ever
/// adds time, and the share of slowed samples drifts over minutes. A
/// sampled run takes milliseconds and is repeated tens of times, so most
/// of its repeats escape interference: its time is the best (minimum)
/// over its repeats, per program, summed over the set. The reference
/// (about a second per run, a few runs) and the two-thread cold campaign
/// pass integrate over the interference instead: their times are medians
/// over rounds. Set-up is a median of its generations too: its best
/// generation depends on whether the process happened to reuse freed
/// memory. Both statistics are printed.
pub fn measure(cfg: &Config, ledger: &mut Ledger) -> Metrics {
    let (targets, gen_times) = setup(cfg);
    let base = &targets[..cfg.workload.cells().len()];
    let variants = cfg.workload.variants() as f64;
    let specs = sweep::specs(cfg.workload, cfg.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut samples: BTreeMap<RunKind, Samples> = BTreeMap::new();
    let mut first: BTreeMap<RunKind, Vec<SimResult>> = BTreeMap::new();
    let mut reps: BTreeMap<RunKind, usize> = RunKind::ALL.iter().map(|&k| (k, 1)).collect();
    let mut cold = Vec::new();
    let mut first_jsonl: Option<String> = None;
    let mut peak_rss = f64::NAN;
    for round in 0.. {
        let round_start = Instant::now();
        for kind in RunKind::ALL {
            let set = match kind {
                RunKind::Reference => base,
                RunKind::Sampled(_) => &targets[..],
            };
            for _ in 0..reps[&kind] {
                if let Some(runs) = run_all(ledger, cfg.seed, set, kind) {
                    let (results, secs): (Vec<SimResult>, Vec<f64>) = runs.into_iter().unzip();
                    samples.entry(kind).or_default().push(&secs);
                    first.entry(kind).or_insert(results);
                }
            }
        }
        if round == 0 {
            // The simulations' own peak, before the two-thread campaign
            // passes add allocator-timing noise to the high-water mark.
            peak_rss = peak_rss_mb();
        }
        if let Some(p) = sweep::cold_and_warm(&specs, &cfg.work, 1, ledger) {
            let jsonl = first_jsonl.get_or_insert_with(|| p.jsonl.clone());
            if *jsonl == p.jsonl {
                cold.push(p.cold_s);
            } else {
                ledger
                    .fail(specs.len() as u64, "campaign JSONL differs from the first pass".into());
            }
        }
        if round == 0 {
            // Size the sampled repeats from the first round's timings.
            let set_time = |kind| samples.get(&kind).map_or(f64::NAN, |s| s.sum_of(median));
            let reference = set_time(RunKind::Reference);
            for kind in RunKind::ALL.into_iter().skip(1) {
                let n = (SAMPLED_SHARE * reference / set_time(kind)).ceil();
                reps.insert(kind, if n.is_finite() { (n as usize).clamp(1, MAX_REPS) } else { 1 });
            }
        }
        if !keep_going(round_start, deadline) {
            break;
        }
    }

    let rounds = |kind| samples.get(&kind).map_or(Vec::new(), Samples::round_totals);
    let reference_s = median(&rounds(RunKind::Reference));
    // Per program set: summed over the workload's cells, averaged over
    // program variants.
    let set_time =
        |kind, stat| samples.get(&kind).map_or(f64::NAN, |s: &Samples| s.sum_of(stat) / variants);
    let mut m = Metrics::default();
    m.push("setup_s", median(&gen_times), "s");
    let detailed: u64 = first
        .get(&RunKind::Reference)
        .map_or(0, |r| r.iter().map(|r| r.detailed_instructions).sum());
    m.push("reference_minstr_per_s", detailed as f64 / reference_s / 1e6, "Minstr/s");
    for policy in Policy::ALL {
        m.push(format!("{}_s", policy.name()), set_time(RunKind::Sampled(policy), minimum), "s");
    }
    let lazy_s = set_time(RunKind::Sampled(Policy::Lazy), minimum);
    m.push("lazy_speedup_x", reference_s / lazy_s, "x");
    m.push("peak_rss_mb", peak_rss, "MiB");
    m.push("campaign_cold_s", median(&cold), "s");

    println!(
        "host seconds per program set: reported (reference: median round; policies: sum of \
         per-program bests), best and median; achieved speedup (reference / policy, reported \
         times), ideal speedup (1 / detail fraction), |cycle error| vs the reference (variant 0)"
    );
    let reference = rounds(RunKind::Reference);
    println!(
        "  {:<10} {:>9.5}  best {:>9.5}  median {:>9.5}  ({} rounds)",
        "reference",
        reference_s,
        minimum(&reference),
        reference_s,
        reference.len()
    );
    let n = base.len();
    let variant0 = |kind| first.get(&kind).map(|r: &Vec<SimResult>| r[..n].to_vec());
    let errors: BTreeMap<RunKind, Vec<SimResult>> =
        RunKind::ALL.into_iter().filter_map(|k| Some((k, variant0(k)?))).collect();
    for policy in Policy::ALL {
        let kind = RunKind::Sampled(policy);
        let ideal = first.get(&kind).map_or(f64::NAN, |r| 1.0 / detail_fraction(r));
        let best = set_time(kind, minimum);
        println!(
            "  {:<10} {:>9.5}  best {:>9.5}  median {:>9.5}  ({} rounds)  achieved {:>7.2}x  \
             ideal {:>7.2}x  error {:>7.4}%",
            policy.name(),
            best,
            best,
            set_time(kind, median),
            rounds(kind).len(),
            reference_s / best,
            ideal,
            mean_error(&errors, policy),
        );
    }
    println!(
        "  campaign cold pass {:.5} s  best {:.5}  median {:.5}  ({} passes); setup {:.5} s  \
         best {:.5}  median {:.5}",
        median(&cold),
        minimum(&cold),
        median(&cold),
        cold.len(),
        median(&gen_times),
        minimum(&gen_times),
        median(&gen_times)
    );
    m
}

/// Mean over the workload's targets of `policy`'s |cycle error| against
/// the reference, in percent.
pub fn mean_error(first: &BTreeMap<RunKind, Vec<SimResult>>, policy: Policy) -> f64 {
    let (Some(reference), Some(sampled)) =
        (first.get(&RunKind::Reference), first.get(&RunKind::Sampled(policy)))
    else {
        return f64::NAN;
    };
    let errors: Vec<f64> = reference
        .iter()
        .zip(sampled)
        .map(|(r, s)| error_pct(s.total_cycles, r.total_cycles))
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}
