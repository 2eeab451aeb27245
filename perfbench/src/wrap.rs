//! Traced wrappers around the simulator's pluggable layers.
//!
//! Each wrapper implements the layer's public trait by delegating to the
//! wrapped implementation inside a [`span`](crate::span::span), so a
//! traced run sees exactly the calls an untraced run makes — the wrappers
//! change host time only, never a simulated result.

use taskpoint_runtime::{Scheduler, TaskInstanceId, WorkerId};
use taskpoint_trace::{InstBlock, TraceSource, TraceSpec};
use tasksim::{ExecMode, ModeController, TaskReport, TaskStart, TraceProvider};

use crate::span::{count, span};

/// Span name of a mode decision (`ModeController::mode_for_task`).
pub const DECIDE: &str = "core.decide";
/// Span name of a completion callback (`ModeController::on_task_complete`).
pub const COMPLETE: &str = "core.complete";
/// Span name of a trace-source construction (`TraceProvider::source`).
pub const SOURCE: &str = "trace.source";
/// Span name of a block refill (`TraceSource::fill`).
pub const FILL: &str = "trace.fill";
/// Span name of a scheduler call (`task_ready` or `pick`).
pub const SCHED: &str = "runtime.sched";
/// Counter of instructions returned by traced fills.
pub const FILL_INSTRUCTIONS: &str = "trace.instructions";

/// A [`ModeController`] that records a span around every call.
#[derive(Debug)]
pub struct TracedController<C>(pub C);

impl<C: ModeController> ModeController for TracedController<C> {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        span(DECIDE, || self.0.mode_for_task(start))
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        span(COMPLETE, || self.0.on_task_complete(report))
    }
}

/// A [`TraceProvider`] that records a span around every source
/// construction and hands out [`TracedSource`]s.
pub struct TracedTraces(pub Box<dyn TraceProvider>);

impl TraceProvider for TracedTraces {
    fn source(&self, task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource> {
        let inner = span(SOURCE, || self.0.source(task, spec));
        Box::new(TracedSource(inner))
    }
}

/// A [`TraceSource`] that records a span around every fill and counts the
/// instructions it returns.
pub struct TracedSource(pub Box<dyn TraceSource>);

impl TraceSource for TracedSource {
    fn fill(&mut self, block: &mut InstBlock) -> usize {
        let n = span(FILL, || self.0.fill(block));
        count(FILL_INSTRUCTIONS, n as u64);
        n
    }
}

/// A [`Scheduler`] that records a span around every `task_ready` and
/// `pick`. `ready_count` and `name` are plain delegations: the engine
/// polls `ready_count` as a loop guard, and a span per poll would
/// measure the recorder rather than the scheduler.
#[derive(Debug)]
pub struct TracedScheduler<S>(pub S);

impl<S: Scheduler> Scheduler for TracedScheduler<S> {
    fn task_ready(&mut self, task: TaskInstanceId) {
        span(SCHED, || self.0.task_ready(task))
    }

    fn pick(&mut self, worker: WorkerId) -> Option<TaskInstanceId> {
        span(SCHED, || self.0.pick(worker))
    }

    fn ready_count(&self) -> usize {
        self.0.ready_count()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
