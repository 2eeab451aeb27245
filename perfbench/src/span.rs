//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: a name, a start, an end (nanoseconds
//! since the recorder's epoch) and the span that was open when it started.
//! Spans are kept in a thread-local buffer while a run executes and are
//! taken out and summarized when it ends; nothing is written while the
//! simulation runs. The recorder also keeps named work counters (for
//! example instructions returned by trace fills), recorded at the same
//! boundaries as the spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `trace.fill`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Work counters by name.
    pub counters: BTreeMap<&'static str, u64>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        counters: BTreeMap::new(),
    });
}

/// Runs `f` inside a span named `name`, nested under the innermost span
/// open on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = r.now_ns();
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        r.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.now_ns();
        r.spans[index].end_ns = end_ns;
        r.open.pop();
    });
    out
}

/// Adds `n` to the work counter `name`.
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| *r.borrow_mut().counters.entry(name).or_insert(0) += n);
}

/// Takes everything recorded on this thread so far and clears the buffer
/// (also after a run that panicked with spans still open).
pub fn take() -> Recording {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        Recording { spans: std::mem::take(&mut r.spans), counters: std::mem::take(&mut r.counters) }
    })
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per-name totals of a recording.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Sums calls and self times per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_s += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            s("run", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 25, 40, Some(0)), // overlaps a: union of a and b is 10..40
            s("c", 60, 70, Some(0)),
            s("d", 62, 65, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 10, 20, 15, 7, 3]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        take();
        span("outer", || {
            span("inner", || count("work", 3));
            span("inner", || count("work", 4));
        });
        let rec = take();
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]);
        assert_eq!(rec.counters["work"], 7);
        let t = totals(&rec.spans);
        assert_eq!(t["inner"].calls, 2);
        assert!(t["outer"].self_s > 0.0);
        assert!(take().spans.is_empty(), "take clears the buffer");
    }
}
