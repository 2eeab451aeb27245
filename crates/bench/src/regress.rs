//! The perf-regression gate: parses the committed `BENCH_*.json` series
//! (all three historical record generations plus the current probe
//! schema), normalizes every record into comparable throughput points,
//! and compares a fresh probe run against them with the noise-aware
//! thresholds documented in `docs/PERFORMANCE.md`.
//!
//! ## Record generations
//!
//! The committed series was written by three different hands, so the
//! parser is generational — each shape has an exact key set and **any
//! unknown key is an error** (a typo in a hand-edited record must fail
//! loudly, not silently drop a measurement):
//!
//! * **BENCH_0006** — hand-authored A/B record: pre/post refactor run
//!   arrays per scale, plus a campaign timing sidecar of per-cell
//!   wall-clock rows.
//! * **BENCH_0007** — the probe's original `--json` output: one flat run
//!   spread at one scale, no `schema_version`, no `detail_threads`.
//! * **BENCH_0008** — hand-authored kernel-path record: before/after
//!   spreads at full scale for 1 and 2 detail threads, a quick-scale
//!   continuity block, and interleaved median-of-medians cross-checks.
//!   Only the one-thread "after" spreads become points; the two-thread
//!   spread is shape-checked and dropped, since the simulator now has a
//!   single sequential detailed path.
//! * **`schema_version: 2`** — everything the probe writes from now on.
//!   Same shape as BENCH_0007 plus the version field; the probe validates
//!   its own output through [`parse_record`] immediately after writing
//!   it. Records written while the simulator had a detail-thread knob
//!   (BENCH_0010) also carry `detail_threads`, which must then be `1`.
//!
//! ## Threshold discipline
//!
//! Wall-clock throughput on the shared dev container drifts by ±25% over
//! minutes (`docs/PERFORMANCE.md`, BENCH_0008 methodology), so a naive
//! median-vs-median comparison would cry wolf weekly. The gate instead
//! compares the current *median* against each baseline's *min over
//! recorded runs* (its worst observed sample) widened by the documented
//! drift band: a regression verdict requires the current typical run to
//! fall below even the baseline's noise floor by more than host drift
//! can explain.

use taskpoint_campaign::json::{Object, Value};

/// The documented host-noise drift band, in percent — see
/// `docs/PERFORMANCE.md` ("the drift reaches ±25% over minutes").
pub const DRIFT_BAND_PERCENT: f64 = 25.0;

/// A parse or shape error in a BENCH record.
#[derive(Debug)]
pub struct RecordError(String);

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RecordError {}

fn err(msg: impl Into<String>) -> RecordError {
    RecordError(msg.into())
}

/// One normalized throughput measurement: a spread of detailed-mode
/// Minstr/s samples at a given workload scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Workload scale the runs used (`quick` / `full`).
    pub scale: String,
    /// Raw per-run samples, Minstr/s (empty when the record only kept
    /// aggregates).
    pub runs: Vec<f64>,
    /// Minimum over the runs.
    pub min: f64,
    /// Median over the runs.
    pub median: f64,
    /// Maximum over the runs.
    pub max: f64,
}

/// One advisory campaign-sidecar row (BENCH_0006 only): per-cell wall
/// clock from a cold campaign run. Not comparable across hosts — carried
/// into the verdict as informational context only.
#[derive(Debug, Clone, PartialEq)]
pub struct SidecarCell {
    /// Cell kind tag (`reference` / `sampled-lazy` / ...).
    pub kind: String,
    /// Benchmark name.
    pub bench: String,
    /// Machine name.
    pub machine: String,
    /// Host seconds of the cell's own simulation.
    pub wall_seconds: f64,
    /// Detailed-mode throughput, when the cell ran detailed work.
    pub detailed_minstr_per_sec: Option<f64>,
}

/// A parsed BENCH record, normalized across generations.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record id (`BENCH_0007`).
    pub id: String,
    /// Civil date the record was written.
    pub date: String,
    /// Schema generation: 0 for the BENCH_0006 A/B shape, 1 for the
    /// legacy probe and kernel-path shapes, 2 for the current probe
    /// output.
    pub schema_version: u32,
    /// Comparable throughput points (the record's *own* measurements —
    /// "before"/"pre" spreads describe the parent commit and are not
    /// included).
    pub points: Vec<SeriesPoint>,
    /// Advisory campaign-sidecar rows, when the record carries them.
    pub sidecar: Vec<SidecarCell>,
}

/// Rejects any key not in `allowed` — generational schemas are closed.
fn check_keys(o: &Object, allowed: &[&str], ctx: &str) -> Result<(), RecordError> {
    for key in o.keys() {
        if !allowed.contains(&key) {
            return Err(err(format!("unknown key {key:?} in {ctx}")));
        }
    }
    Ok(())
}

fn need_obj<'a>(o: &'a Object, key: &str, ctx: &str) -> Result<&'a Object, RecordError> {
    o.obj(key).ok_or_else(|| err(format!("missing object {key:?} in {ctx}")))
}

fn need_num(o: &Object, key: &str, ctx: &str) -> Result<f64, RecordError> {
    o.num(key).ok_or_else(|| err(format!("missing number {key:?} in {ctx}")))
}

fn need_str(o: &Object, key: &str, ctx: &str) -> Result<String, RecordError> {
    Ok(o.str(key).ok_or_else(|| err(format!("missing string {key:?} in {ctx}")))?.to_string())
}

fn num_array(o: &Object, key: &str, ctx: &str) -> Result<Vec<f64>, RecordError> {
    let Some(v) = o.get(key) else {
        return Err(err(format!("missing array {key:?} in {ctx}")));
    };
    let Value::Arr(items) = v else {
        return Err(err(format!("{key:?} in {ctx} is not an array")));
    };
    items
        .iter()
        .map(|item| match item {
            Value::Num(n) => Ok(*n),
            _ => Err(err(format!("non-numeric entry in {ctx}.{key}"))),
        })
        .collect()
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Builds a point from raw runs, recomputing the aggregates so a record
/// whose stored min/median disagrees with its own samples cannot skew
/// the gate.
fn point_from_runs(scale: &str, runs: Vec<f64>, ctx: &str) -> Result<SeriesPoint, RecordError> {
    if runs.is_empty() {
        return Err(err(format!("empty run array in {ctx}")));
    }
    if runs.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return Err(err(format!("non-positive throughput sample in {ctx}")));
    }
    let mut sorted = runs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    Ok(SeriesPoint {
        scale: scale.to_string(),
        min: sorted[0],
        median: median_of(&sorted),
        max: sorted[sorted.len() - 1],
        runs,
    })
}

/// A `{runs?, min, median, max}` spread block (BENCH_0008 shape). An
/// aggregate-only block is held to the same standard as raw runs: every
/// value positive and finite, and `min <= median <= max` — a zero `min`
/// would put the gate's floor at zero, where nothing can regress.
fn point_from_spread(o: &Object, scale: &str, ctx: &str) -> Result<SeriesPoint, RecordError> {
    check_keys(o, &["runs", "min", "median", "max"], ctx)?;
    if o.get("runs").is_some() {
        return point_from_runs(scale, num_array(o, "runs", ctx)?, ctx);
    }
    let (min, median, max) =
        (need_num(o, "min", ctx)?, need_num(o, "median", ctx)?, need_num(o, "max", ctx)?);
    if [min, median, max].iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err(err(format!("non-positive throughput aggregate in {ctx}")));
    }
    if !(min <= median && median <= max) {
        return Err(err(format!("aggregates out of order (min <= median <= max) in {ctx}")));
    }
    Ok(SeriesPoint { scale: scale.to_string(), runs: Vec::new(), min, median, max })
}

const SAMPLED_CELL_KEYS: [&str; 4] = ["error_percent", "speedup", "detail_percent", "resamples"];

fn check_sampled_block(o: &Object, ctx: &str) -> Result<(), RecordError> {
    check_keys(o, &["lazy", "periodic"], ctx)?;
    for policy in ["lazy", "periodic"] {
        let cell = need_obj(o, policy, ctx)?;
        check_keys(cell, &SAMPLED_CELL_KEYS, &format!("{ctx}.{policy}"))?;
    }
    Ok(())
}

/// BENCH_0006: hand-authored pre/post A/B record with a campaign sidecar.
fn parse_ab_record(top: &Object) -> Result<BenchRecord, RecordError> {
    let id = need_str(top, "id", "record")?;
    check_keys(
        top,
        &[
            "id",
            "date",
            "change",
            "method",
            "probe_detailed_throughput_minstr_per_sec",
            "campaign_timing_sidecar",
            "notes",
        ],
        &id,
    )?;
    let tp = need_obj(top, "probe_detailed_throughput_minstr_per_sec", &id)?;
    check_keys(tp, &["quick", "full"], &format!("{id}.throughput"))?;
    let mut points = Vec::new();
    for scale in ["quick", "full"] {
        let Some(block) = tp.obj(scale) else { continue };
        let ctx = format!("{id}.{scale}");
        check_keys(
            block,
            &["pre_refactor_runs", "post_refactor_runs", "pre_mean", "post_mean", "delta_percent"],
            &ctx,
        )?;
        // Only the post-refactor runs describe this record's commit.
        points.push(point_from_runs(scale, num_array(block, "post_refactor_runs", &ctx)?, &ctx)?);
    }
    let mut sidecar = Vec::new();
    if let Some(sc) = top.obj("campaign_timing_sidecar") {
        let ctx = format!("{id}.sidecar");
        check_keys(sc, &["sweep", "scale", "jobs", "cells"], &ctx)?;
        let Some(Value::Arr(cells)) = sc.get("cells") else {
            return Err(err(format!("missing cells array in {ctx}")));
        };
        for cell in cells {
            let Value::Obj(c) = cell else {
                return Err(err(format!("non-object cell in {ctx}")));
            };
            check_keys(
                c,
                &["kind", "bench", "machine", "wall_seconds", "detailed_minstr_per_sec", "speedup"],
                &ctx,
            )?;
            sidecar.push(SidecarCell {
                kind: need_str(c, "kind", &ctx)?,
                bench: need_str(c, "bench", &ctx)?,
                machine: need_str(c, "machine", &ctx)?,
                wall_seconds: need_num(c, "wall_seconds", &ctx)?,
                detailed_minstr_per_sec: c.num("detailed_minstr_per_sec"),
            });
        }
    }
    Ok(BenchRecord { date: need_str(top, "date", &id)?, id, schema_version: 0, points, sidecar })
}

/// BENCH_0008: hand-authored kernel-path record (full-scale before/after
/// spreads at 1 and 2 detail threads plus a quick-scale continuity
/// block). Points: the one-thread "after" spreads at full and quick
/// scale.
fn parse_kernel_record(top: &Object) -> Result<BenchRecord, RecordError> {
    let id = need_str(top, "id", "record")?;
    check_keys(
        top,
        &[
            "id",
            "date",
            "change",
            "method",
            "bench",
            "workers",
            "scale_seed",
            "kernel_path_full_scale",
            "quick_scale_bench0007_continuity",
            "sampled_full_scale",
        ],
        &id,
    )?;
    let kernel = need_obj(top, "kernel_path_full_scale", &id)?;
    let kctx = format!("{id}.kernel_path_full_scale");
    check_keys(
        kernel,
        &["before_threads1", "after_threads1", "after_threads2", "interleaved_median_of_medians"],
        &kctx,
    )?;
    // "before" spreads describe the parent commit, and the two-thread
    // spread a detail-thread knob the simulator no longer has: validate
    // their shape but keep only the record's one-thread "after"
    // measurements as points.
    point_from_spread(need_obj(kernel, "before_threads1", &kctx)?, "full", &kctx)?;
    point_from_spread(need_obj(kernel, "after_threads2", &kctx)?, "full", &kctx)?;
    let mut points =
        vec![point_from_spread(need_obj(kernel, "after_threads1", &kctx)?, "full", &kctx)?];
    if let Some(inter) = kernel.obj("interleaved_median_of_medians") {
        check_keys(
            inter,
            &["before_threads1", "after_threads1", "after_threads2"],
            &format!("{kctx}.interleaved"),
        )?;
    }
    let cont = need_obj(top, "quick_scale_bench0007_continuity", &id)?;
    let cctx = format!("{id}.quick_scale_bench0007_continuity");
    check_keys(cont, &["bench0007_median", "before_threads1", "after_threads1"], &cctx)?;
    point_from_spread(need_obj(cont, "before_threads1", &cctx)?, "quick", &cctx)?;
    points.push(point_from_spread(need_obj(cont, "after_threads1", &cctx)?, "quick", &cctx)?);
    check_sampled_block(need_obj(top, "sampled_full_scale", &id)?, &format!("{id}.sampled"))?;
    Ok(BenchRecord {
        date: need_str(top, "date", &id)?,
        id,
        schema_version: 1,
        points,
        sidecar: Vec::new(),
    })
}

/// BENCH_0007 (legacy, no `schema_version`) and current (`schema_version:
/// 2`) probe output: one run spread at one scale.
fn parse_probe_record(top: &Object, version: u32) -> Result<BenchRecord, RecordError> {
    let id = need_str(top, "id", "record")?;
    let mut allowed = vec![
        "id",
        "date",
        "change",
        "method",
        "bench",
        "workers",
        "scale",
        "scale_seed",
        "probe_detailed_throughput_minstr_per_sec",
        "sampled",
    ];
    if version >= 2 {
        allowed.push("schema_version");
        allowed.push("detail_threads");
    }
    check_keys(top, &allowed, &id)?;
    let scale = need_str(top, "scale", &id)?;
    // Legacy key (allowed from version 2 on): records written while the
    // simulator had a detail-thread knob carry it, and only one-thread
    // measurements compare with today's single sequential detailed path.
    if let Some(t) = top.get("detail_threads") {
        if *t != Value::Num(1.0) {
            return Err(err(format!("{id}: detail_threads must be 1, got {}", t.to_json())));
        }
    }
    let tp = need_obj(top, "probe_detailed_throughput_minstr_per_sec", &id)?;
    let ctx = format!("{id}.throughput");
    check_keys(tp, &["runs", "min", "median", "max"], &ctx)?;
    let runs = num_array(tp, "runs", &ctx)?;
    // A probe run that produced no detailed instructions writes an empty
    // spread; the record is valid but contributes no points.
    let points =
        if runs.is_empty() { Vec::new() } else { vec![point_from_runs(&scale, runs, &ctx)?] };
    check_sampled_block(need_obj(top, "sampled", &id)?, &format!("{id}.sampled"))?;
    Ok(BenchRecord {
        date: need_str(top, "date", &id)?,
        id,
        schema_version: version,
        points,
        sidecar: Vec::new(),
    })
}

/// Parses one BENCH record of any generation, strictly: the shape is
/// detected from its discriminating keys, then every key must belong to
/// that generation's schema.
pub fn parse_record(text: &str) -> Result<BenchRecord, RecordError> {
    let value = Value::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
    let Value::Obj(top) = value else {
        return Err(err("top level is not an object"));
    };
    if let Some(v) = top.num("schema_version") {
        if v != 2.0 {
            return Err(err(format!("unsupported schema_version {v}")));
        }
        return parse_probe_record(&top, 2);
    }
    if top.get("kernel_path_full_scale").is_some() {
        return parse_kernel_record(&top);
    }
    if top.get("campaign_timing_sidecar").is_some() || top.get("bench").is_none() {
        return parse_ab_record(&top);
    }
    parse_probe_record(&top, 1)
}

/// One baseline-vs-current comparison in the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Baseline record id.
    pub baseline_id: String,
    /// Workload scale compared at.
    pub scale: String,
    /// The baseline's min-over-runs (its observed noise floor).
    pub baseline_min: f64,
    /// The baseline's median, for context.
    pub baseline_median: f64,
    /// The current run's median.
    pub current_median: f64,
    /// `current_median` relative to `baseline_min`, in percent.
    pub delta_percent: f64,
    /// True when the current median fell below the baseline noise floor
    /// by more than the drift band.
    pub regression: bool,
}

/// The gate's overall verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every comparable point is within the drift band.
    Ok,
    /// At least one comparable point regressed beyond the band.
    Regression,
    /// No baseline point matched the current run's scale.
    NoComparableBaseline,
}

impl Verdict {
    /// The verdict's wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::NoComparableBaseline => "no-comparable-baseline",
        }
    }
}

/// Compares a current probe record against the baseline series.
///
/// For every baseline point at the scale of one of the current record's
/// points, the current *median* must stay above the baseline
/// *min-over-runs* minus the documented drift band —
/// the noise-aware statistic of `docs/PERFORMANCE.md`: a single loud
/// neighbor can push any one sample down 25%, but the typical current
/// run falling below even the baseline's worst historical sample by more
/// than that is a real regression.
pub fn compare(current: &BenchRecord, baselines: &[BenchRecord]) -> (Vec<Comparison>, Verdict) {
    let mut comparisons = Vec::new();
    for cur in &current.points {
        for baseline in baselines {
            for point in &baseline.points {
                if point.scale != cur.scale {
                    continue;
                }
                let floor = point.min * (1.0 - DRIFT_BAND_PERCENT / 100.0);
                comparisons.push(Comparison {
                    baseline_id: baseline.id.clone(),
                    scale: cur.scale.clone(),
                    baseline_min: point.min,
                    baseline_median: point.median,
                    current_median: cur.median,
                    delta_percent: 100.0 * (cur.median - point.min) / point.min,
                    regression: cur.median < floor,
                });
            }
        }
    }
    let verdict = if comparisons.is_empty() {
        Verdict::NoComparableBaseline
    } else if comparisons.iter().any(|c| c.regression) {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (comparisons, verdict)
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Serializes the machine-readable verdict document the CI step archives.
pub fn verdict_json(
    current: &BenchRecord,
    comparisons: &[Comparison],
    verdict: &Verdict,
    sidecar_cells: usize,
) -> String {
    let mut doc = Object::new();
    doc.set("schema_version", Value::Num(1.0));
    doc.set("verdict", Value::Str(verdict.tag().to_string()));
    doc.set("band_percent", Value::Num(DRIFT_BAND_PERCENT));
    doc.set("current_id", Value::Str(current.id.clone()));
    let points = current
        .points
        .iter()
        .map(|p| {
            let mut o = Object::new();
            o.set("scale", Value::Str(p.scale.clone()));
            o.set("min", Value::Num(round2(p.min)));
            o.set("median", Value::Num(round2(p.median)));
            o.set("max", Value::Num(round2(p.max)));
            Value::Obj(o)
        })
        .collect();
    doc.set("current_points", Value::Arr(points));
    let rows = comparisons
        .iter()
        .map(|c| {
            let mut o = Object::new();
            o.set("baseline", Value::Str(c.baseline_id.clone()));
            o.set("scale", Value::Str(c.scale.clone()));
            o.set("baseline_min", Value::Num(round2(c.baseline_min)));
            o.set("baseline_median", Value::Num(round2(c.baseline_median)));
            o.set("current_median", Value::Num(round2(c.current_median)));
            o.set("delta_percent", Value::Num(round2(c.delta_percent)));
            o.set("regression", Value::Bool(c.regression));
            Value::Obj(o)
        })
        .collect();
    doc.set("comparisons", Value::Arr(rows));
    doc.set("informational_sidecar_cells", Value::Num(sidecar_cells as f64));
    format!("{}\n", Value::Obj(doc).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_0006: &str = include_str!("../../../BENCH_0006.json");
    const BENCH_0007: &str = include_str!("../../../BENCH_0007.json");
    const BENCH_0008: &str = include_str!("../../../BENCH_0008.json");

    #[test]
    fn committed_series_parses() {
        let r6 = parse_record(BENCH_0006).unwrap();
        assert_eq!(r6.id, "BENCH_0006");
        assert_eq!(r6.schema_version, 0);
        // post-refactor quick + full spreads.
        assert_eq!(r6.points.len(), 2);
        assert_eq!(r6.points[0].scale, "quick");
        assert_eq!(r6.points[1].scale, "full");
        assert_eq!(r6.sidecar.len(), 6);
        assert_eq!(r6.sidecar[0].kind, "reference");
        assert_eq!(r6.sidecar[0].detailed_minstr_per_sec, Some(37.15));

        let r7 = parse_record(BENCH_0007).unwrap();
        assert_eq!(r7.schema_version, 1);
        assert_eq!(r7.points.len(), 1);
        assert_eq!(r7.points[0].scale, "quick");
        assert_eq!(r7.points[0].runs.len(), 7);
        assert_eq!(r7.points[0].min, 30.0);
        assert_eq!(r7.points[0].median, 31.54);

        let r8 = parse_record(BENCH_0008).unwrap();
        assert_eq!(r8.schema_version, 1);
        // after@full/1 and the quick continuity after/1; the two-thread
        // spread is shape-checked only.
        assert_eq!(r8.points.len(), 2);
        assert_eq!(r8.points[0].scale, "full");
        assert_eq!(r8.points[0].median, 44.21);
        assert_eq!(r8.points[1].scale, "quick");
        assert_eq!(r8.points[1].median, 19.22);
        let bad_threads2 = BENCH_0008.replace("\"runs\":[46.67,", "\"runs\":[0,");
        assert_ne!(bad_threads2, BENCH_0008, "injection must apply");
        assert!(parse_record(&bad_threads2).unwrap_err().to_string().contains("non-positive"));
    }

    #[test]
    fn aggregate_only_spreads_are_validated() {
        let block = "\"before_threads1\":{\"min\":51.82,\"median\":55.98,\"max\":66.93}";
        assert!(BENCH_0008.contains(block), "BENCH_0008's aggregate-only block");
        for (bad, why) in [
            ("{\"min\":0,\"median\":55.98,\"max\":66.93}", "non-positive"),
            ("{\"min\":-1,\"median\":55.98,\"max\":66.93}", "non-positive"),
            ("{\"min\":60,\"median\":55.98,\"max\":66.93}", "out of order"),
            ("{\"min\":51.82,\"median\":70,\"max\":66.93}", "out of order"),
        ] {
            let text = BENCH_0008.replace(block, &format!("\"before_threads1\":{bad}"));
            let e = parse_record(&text).expect_err(bad).to_string();
            assert!(e.contains(why) && e.contains("kernel_path_full_scale"), "{bad}: {e}");
        }
    }

    #[test]
    fn aggregates_are_recomputed_from_runs() {
        // BENCH_0007's stored min/median must equal what the parser
        // recomputes from the raw samples.
        let r7 = parse_record(BENCH_0007).unwrap();
        let p = &r7.points[0];
        let mut sorted = p.runs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(p.min, sorted[0]);
        assert_eq!(p.max, sorted[sorted.len() - 1]);
    }

    #[test]
    fn unknown_keys_are_rejected_per_generation() {
        for (text, inject_after) in [
            (BENCH_0006, "\"id\": \"BENCH_0006\","),
            (BENCH_0007, "\"id\":\"BENCH_0007\","),
            (BENCH_0008, "\"id\":\"BENCH_0008\","),
        ] {
            let bad = text.replace(inject_after, &format!("{inject_after}\"surprise_key\":1,"));
            assert_ne!(bad, text, "injection must apply");
            let e = parse_record(&bad).unwrap_err();
            assert!(e.to_string().contains("surprise_key"), "{e}");
        }
        // Nested unknown keys are rejected too.
        let bad = BENCH_0007.replace("\"runs\":[30,", "\"runz\":1,\"runs\":[30,");
        assert!(parse_record(&bad).unwrap_err().to_string().contains("runz"));
    }

    fn probe_v2(median_runs: &str) -> String {
        format!(
            "{{\"schema_version\":2,\"id\":\"BENCH_TEST\",\"date\":\"2026-08-08\",\
             \"method\":\"m\",\"bench\":\"cholesky\",\"workers\":8,\
             \"scale\":\"quick\",\"scale_seed\":1,\
             \"probe_detailed_throughput_minstr_per_sec\":{{\"runs\":[{median_runs}],\
             \"min\":1,\"median\":1,\"max\":1}},\
             \"sampled\":{{\"lazy\":{{\"error_percent\":1,\"speedup\":1,\
             \"detail_percent\":1,\"resamples\":0}},\"periodic\":{{\"error_percent\":1,\
             \"speedup\":1,\"detail_percent\":1,\"resamples\":0}}}}}}"
        )
    }

    #[test]
    fn schema_version_2_allows_only_one_detail_thread_and_known_keys() {
        let good = probe_v2("30,31,32");
        let r = parse_record(&good).unwrap();
        assert_eq!(r.schema_version, 2);
        assert_eq!(r.points[0].median, 31.0);
        let legacy = good.replace("\"workers\":8,", "\"workers\":8,\"detail_threads\":1,");
        assert_eq!(parse_record(&legacy).unwrap(), r, "legacy key with value 1 is accepted");
        for bad in ["2", "0", "1.5", "\"1\""] {
            let threads =
                good.replace("\"workers\":8,", &format!("\"workers\":8,\"detail_threads\":{bad},"));
            let e = parse_record(&threads).expect_err(bad).to_string();
            assert!(e.contains("detail_threads"), "{bad}: {e}");
        }
        let v1 = BENCH_0007
            .replace("\"id\":\"BENCH_0007\",", "\"id\":\"BENCH_0007\",\"detail_threads\":1,");
        assert!(parse_record(&v1).unwrap_err().to_string().contains("detail_threads"));
        let unknown = good.replace("\"workers\":8,", "\"workers\":8,\"extra\":true,");
        assert!(parse_record(&unknown).unwrap_err().to_string().contains("extra"));
        let vfuture = good.replace("\"schema_version\":2", "\"schema_version\":3");
        assert!(parse_record(&vfuture).unwrap_err().to_string().contains("schema_version"));
    }

    #[test]
    fn compare_applies_the_drift_band_to_the_baseline_floor() {
        let baselines = vec![parse_record(BENCH_0007).unwrap(), parse_record(BENCH_0008).unwrap()];
        // BENCH_0007 quick floor is 30.0; band floor = 22.5. BENCH_0008's
        // quick continuity floor is 16.83; band floor ≈ 12.6.
        let current = parse_record(&probe_v2("23.0,23.5,24.0")).unwrap();
        let (cmps, verdict) = compare(&current, &baselines);
        assert_eq!(cmps.len(), 2, "quick matches 0007 and 0008, not full-scale points");
        assert_eq!(verdict, Verdict::Ok);
        // Below 22.5 → 0007 flags, 0008 (floor 12.6) does not; overall
        // verdict is regression.
        let slow = parse_record(&probe_v2("20.0,21.0,22.0")).unwrap();
        let (cmps, verdict) = compare(&slow, &baselines);
        assert_eq!(verdict, Verdict::Regression);
        assert!(cmps.iter().any(|c| c.baseline_id == "BENCH_0007" && c.regression));
        assert!(cmps.iter().any(|c| c.baseline_id == "BENCH_0008" && !c.regression));
    }

    #[test]
    fn no_comparable_baseline_is_its_own_verdict() {
        let current = parse_record(&probe_v2("30")).unwrap();
        let (cmps, verdict) = compare(&current, &[]);
        assert!(cmps.is_empty());
        assert_eq!(verdict, Verdict::NoComparableBaseline);
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let baselines = vec![parse_record(BENCH_0007).unwrap()];
        let current = parse_record(&probe_v2("30,31,32")).unwrap();
        let (cmps, verdict) = compare(&current, &baselines);
        let text = verdict_json(&current, &cmps, &verdict, 0);
        assert!(text.contains("\"verdict\":\"ok\""), "{text}");
        assert!(text.contains("\"band_percent\":25"));
        assert!(text.contains("\"baseline\":\"BENCH_0007\""));
        // And it parses back as JSON.
        assert!(Value::parse(text.trim()).is_ok());
    }
}
