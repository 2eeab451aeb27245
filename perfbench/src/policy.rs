//! The four sampling policies every workload is measured under, and the
//! one place their mode controllers are built.

use taskpoint::{AdaptiveController, StratifiedController, TaskPointConfig, TaskPointController};
use taskpoint_runtime::Program;
use tasksim::{ExecMode, ModeController, TaskReport, TaskStart};

/// A sampling policy, named as in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Policy {
    /// `TaskPointConfig::lazy()`.
    Lazy,
    /// `TaskPointConfig::periodic()`.
    Periodic,
    /// `TaskPointConfig::adaptive(0.05)`.
    Adaptive,
    /// `TaskPointConfig::stratified(4, 64)`.
    Stratified,
}

impl Policy {
    /// Every policy, in report order.
    pub const ALL: [Policy; 4] =
        [Policy::Lazy, Policy::Periodic, Policy::Adaptive, Policy::Stratified];

    /// The metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lazy => "lazy",
            Policy::Periodic => "periodic",
            Policy::Adaptive => "adaptive",
            Policy::Stratified => "stratified",
        }
    }

    /// The controller configuration.
    pub fn config(self) -> TaskPointConfig {
        match self {
            Policy::Lazy => TaskPointConfig::lazy(),
            Policy::Periodic => TaskPointConfig::periodic(),
            Policy::Adaptive => TaskPointConfig::adaptive(0.05),
            Policy::Stratified => TaskPointConfig::stratified(4, 64),
        }
    }
}

/// A built policy controller. Dispatches like `taskpoint::run_sampled`,
/// so a simulation run under it reproduces `run_sampled` exactly (the
/// traced run checks this on every workload).
#[derive(Debug)]
pub enum Controller {
    /// Lazy and periodic sampling.
    TaskPoint(TaskPointController),
    /// Confidence-driven adaptive sampling.
    Adaptive(AdaptiveController),
    /// Two-phase stratified sampling, primed with the program's instances.
    Stratified(StratifiedController),
}

/// What a finished controller reports about its own work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerSummary {
    /// Resamples in the common `SamplingStats` shape (always 0 for the
    /// adaptive and stratified policies, which have no global phases).
    pub resamples: u64,
    /// Sampling clusters (adaptive/stratified; 0 otherwise).
    pub clusters: u64,
    /// Concurrency-band re-openings (adaptive/stratified; 0 otherwise).
    pub reopened: u64,
    /// Largest per-cluster relative CI half-width (0 when undefined).
    pub ci_max: f64,
}

/// Builds the mode controller of `policy` for a run of `program` — the
/// only place the benchmark constructs one.
pub fn build_controller(policy: Policy, program: &Program) -> Controller {
    let config = policy.config();
    if let Some(adaptive) = config.adaptive_config() {
        return Controller::Adaptive(AdaptiveController::new(adaptive));
    }
    if let Some(stratified) = config.stratified_config() {
        let mut controller = StratifiedController::new(stratified);
        controller.prime(program.instances().iter().map(|i| (i.type_id(), i.instructions())));
        return Controller::Stratified(controller);
    }
    Controller::TaskPoint(TaskPointController::new(config))
}

impl Controller {
    /// Consumes the controller after its run.
    pub fn summary(self) -> ControllerSummary {
        let from_report = |report: taskpoint::AccuracyReport| ControllerSummary {
            resamples: 0,
            clusters: report.units() as u64,
            reopened: report.reopened_bands() as u64,
            ci_max: report.max_rel_ci().unwrap_or(0.0),
        };
        match self {
            Controller::TaskPoint(c) => ControllerSummary {
                resamples: c.into_stats().resamples.len() as u64,
                ..Default::default()
            },
            Controller::Adaptive(c) => from_report(c.into_parts().1),
            Controller::Stratified(c) => from_report(c.into_parts().1),
        }
    }
}

impl ModeController for Controller {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        match self {
            Controller::TaskPoint(c) => c.mode_for_task(start),
            Controller::Adaptive(c) => c.mode_for_task(start),
            Controller::Stratified(c) => c.mode_for_task(start),
        }
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        match self {
            Controller::TaskPoint(c) => c.on_task_complete(report),
            Controller::Adaptive(c) => c.on_task_complete(report),
            Controller::Stratified(c) => c.on_task_complete(report),
        }
    }
}
