//! Timed operations, their output checks and the failure ledger.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use taskpoint::{run_reference, run_sampled};
use taskpoint_runtime::FifoScheduler;
use tasksim::{DetailedOnly, FixedIpc, ModeController, ProceduralTraces, SimResult, Simulation};

use crate::policy::{build_controller, ControllerSummary, Policy};
use crate::span::{self, Recording};
use crate::workload::Target;
use crate::wrap::{TracedController, TracedScheduler, TracedTraces};

/// Span name of a whole simulation run (the engine's own layer).
pub const SIM_RUN: &str = "sim.run";

/// What a run simulates: the full-detail reference or a sampled policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunKind {
    /// `taskpoint::run_reference`.
    Reference,
    /// `taskpoint::run_sampled` under a policy.
    Sampled(Policy),
}

impl RunKind {
    /// The reference followed by every policy, in report order.
    pub const ALL: [RunKind; 5] = [
        RunKind::Reference,
        RunKind::Sampled(Policy::Lazy),
        RunKind::Sampled(Policy::Periodic),
        RunKind::Sampled(Policy::Adaptive),
        RunKind::Sampled(Policy::Stratified),
    ];

    /// `reference` or the policy name.
    pub fn name(self) -> &'static str {
        match self {
            RunKind::Reference => "reference",
            RunKind::Sampled(p) => p.name(),
        }
    }
}

/// Every `SimResult` field that a run computes, rendered for exact
/// comparison. Host-side metadata (`wall_seconds`, `parallel_epochs`) and
/// the optional per-task reports are excluded.
pub fn fingerprint(result: &SimResult) -> String {
    let mut r = SimResult { reports: Vec::new(), ..result.clone() };
    r.wall_seconds = 0.0;
    r.parallel_epochs = Default::default();
    format!("{r:?}")
}

/// One untraced run through the public entry points.
pub fn run(target: &Target, kind: RunKind) -> SimResult {
    let (p, m, w) = (&target.program, target.machine.clone(), target.workers);
    match kind {
        RunKind::Reference => run_reference(p, m, w),
        RunKind::Sampled(policy) => run_sampled(p, m, w, policy.config()).0,
    }
}

/// One traced run: the same simulation as [`run`], built through
/// `Simulation::builder` with every layer wrapped, inside a
/// [`SIM_RUN`] span.
pub fn run_traced(target: &Target, kind: RunKind) -> (SimResult, Recording, ControllerSummary) {
    fn go<C: ModeController>(target: &Target, controller: C) -> (SimResult, C) {
        let sim = Simulation::builder(&target.program, target.machine.clone())
            .workers(target.workers)
            .traces(Box::new(TracedTraces(Box::new(ProceduralTraces))))
            .scheduler(Box::new(TracedScheduler(FifoScheduler::new())))
            .build();
        let mut traced = TracedController(controller);
        let result = span::span(SIM_RUN, || sim.run(&mut traced));
        (result, traced.0)
    }
    span::take();
    let (result, summary) = match kind {
        RunKind::Reference => (go(target, DetailedOnly).0, ControllerSummary::default()),
        RunKind::Sampled(policy) => {
            let (result, controller) = go(target, build_controller(policy, &target.program));
            (result, controller.summary())
        }
    };
    (result, span::take(), summary)
}

/// One all-fast-forward run (`FixedIpc(1.0)`) with LLC prewarm on or off.
pub fn run_fast_forward(target: &Target, prewarm: bool) -> SimResult {
    Simulation::builder(&target.program, target.machine.clone())
        .workers(target.workers)
        .prewarm(prewarm)
        .build()
        .run(&mut FixedIpc(1.0))
}

/// Host seconds of `f` and its output.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Counts operations and their failures, and remembers the first result
/// of every repeated run so later repeats can be checked against it.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    first: BTreeMap<String, String>,
}

impl Ledger {
    /// Runs `n` operations as one unit: all of them fail if `f` panics or
    /// returns an error.
    pub fn ops<T>(
        &mut self,
        n: u64,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += n;
        let outcome = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&panic))));
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(n, format!("{what}: {e}"));
                None
            }
        }
    }

    /// Runs one operation.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.ops(1, what, f)
    }

    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.failures.push(why);
    }

    /// Checks `value` against the first value recorded under `key`
    /// (recording it if this is the first).
    pub fn same_as_first(&mut self, key: &str, value: String) -> Result<(), String> {
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_string(), value);
                Ok(())
            }
            Some(first) if *first == value => Ok(()),
            Some(_) => Err(format!("{key}: result differs from its first repeat")),
        }
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value of a sample (NaN when empty).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// `|predicted - reference| / reference`, in percent.
pub fn error_pct(predicted: u64, reference: u64) -> f64 {
    (predicted as f64 - reference as f64).abs() / reference as f64 * 100.0
}
