//! The campaign layer: a cold pass that computes every cell into a fresh
//! result store with two executor threads, and warm passes that serve the
//! same cells back from the store.

use std::path::{Path, PathBuf};

use taskpoint_campaign::{
    Campaign, CellKind, CellSpec, Context, Executor, ResultStore, StoredCell,
};

use crate::ops::{timed, Ledger};
use crate::policy::Policy;
use crate::workload::{scale, Workload};

/// Executor threads of the cold and warm passes.
pub const THREADS: usize = 2;

/// The workload's cells: per `(benchmark, machine, workers)`, the
/// reference plus one sampled cell per policy. Built here rather than
/// taken from a named sweep, so editing a sweep cannot change the
/// benchmark.
pub fn specs(workload: Workload, seed: u64) -> Vec<CellSpec> {
    let scale = scale(seed);
    let mut specs = Vec::new();
    for (bench, machine, workers) in workload.cells() {
        specs.push(CellSpec::reference(bench, scale, machine.clone(), workers));
        for policy in Policy::ALL {
            specs.push(CellSpec::sampled(bench, scale, machine.clone(), workers, policy.config()));
        }
    }
    specs
}

/// Host time and cache accounting of one cold pass and its warm passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Passes {
    /// Cold pass wall seconds.
    pub cold_s: f64,
    /// Wall seconds of each warm pass.
    pub warm_s: Vec<f64>,
    /// Cells the cold pass computed.
    pub computed: usize,
    /// The canonical JSONL every pass emitted.
    pub jsonl: String,
    /// The cold pass's cells as persisted.
    pub stored: Vec<(String, StoredCell)>,
}

/// A fresh, empty directory under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one cold and `warm_reps` warm passes over `specs` in a fresh store
/// under `work`. Every cell of each pass is one operation; a pass fails as
/// a whole when it panics or an output check fails: the cold pass must
/// compute every cell, a warm pass must serve every cell from the store,
/// and every JSONL stream must be byte-identical to the cold one.
pub fn cold_and_warm(
    specs: &[CellSpec],
    work: &Path,
    warm_reps: usize,
    ledger: &mut Ledger,
) -> Option<Passes> {
    let n = specs.len();
    let dir = match fresh_dir(work, "store") {
        Ok(dir) => dir,
        Err(e) => {
            let passes = ((1 + warm_reps) * n) as u64;
            ledger.attempted += passes;
            ledger.fail(passes, format!("campaign store: {e}"));
            return None;
        }
    };
    let cold = ledger.ops(n as u64, "campaign cold pass", || {
        let campaign = Campaign::new(ResultStore::at(&dir), Executor::new(THREADS));
        let (report, secs) = timed(|| campaign.run(specs));
        if report.computed != n {
            return Err(format!("computed {} of {n} cells", report.computed));
        }
        Ok((report, secs))
    });
    let Some((cold, cold_s)) = cold else {
        let skipped = (warm_reps * n) as u64;
        ledger.attempted += skipped;
        ledger.fail(skipped, "campaign warm passes: skipped, the cold pass failed".to_string());
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    };
    let mut warm_s = Vec::new();
    for _ in 0..warm_reps {
        let warm = ledger.ops(n as u64, "campaign warm pass", || {
            let campaign = Campaign::new(ResultStore::at(&dir), Executor::new(THREADS));
            let (report, secs) = timed(|| campaign.run(specs));
            if report.cached != n {
                return Err(format!("served {} of {n} cells from the store", report.cached));
            }
            if report.jsonl() != cold.jsonl() {
                return Err("warm JSONL differs from cold JSONL".to_string());
            }
            Ok(secs)
        });
        warm_s.extend(warm);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if warm_s.len() < warm_reps {
        return None;
    }
    let stored = cold
        .outcomes
        .iter()
        .map(|o| {
            let cell = StoredCell { record: o.record.clone(), timing: o.timing.clone() };
            (o.spec.hash_hex(), cell)
        })
        .collect();
    Some(Passes { cold_s, warm_s, computed: cold.computed, jsonl: cold.jsonl(), stored })
}

/// Serial cost of the campaign layer's parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialCost {
    /// Summed host seconds of the reference cells through `Context::compute`.
    pub reference_s: f64,
    /// Summed host seconds of the sampled cells (their references already
    /// computed, so only the sampled simulation is timed).
    pub sampled_s: f64,
    /// Host seconds saving every cell into an empty store.
    pub save_s: f64,
    /// Host seconds loading every cell back.
    pub load_s: f64,
    /// Bytes of all persisted records.
    pub record_bytes: u64,
}

/// Times every spec serially through a fresh `Context` (references first,
/// then sampled cells), and the store's save and load of `stored`.
pub fn serial_cost(
    specs: &[CellSpec],
    stored: &[(String, StoredCell)],
    work: &Path,
) -> Result<SerialCost, String> {
    let ctx = Context::new();
    let store = ResultStore::disabled();
    let (mut reference_s, mut sampled_s) = (0.0, 0.0);
    for pass_references in [true, false] {
        for spec in
            specs.iter().filter(|s| matches!(s.kind, CellKind::Reference) == pass_references)
        {
            let (outcome, secs) = timed(|| ctx.compute(&store, spec));
            if outcome.cached {
                return Err(format!("{spec}: served from a cache during serial timing"));
            }
            if pass_references {
                reference_s += secs;
            } else {
                sampled_s += secs;
            }
        }
    }
    let dir = fresh_dir(work, "serial-store")?;
    let store = ResultStore::at(&dir);
    let (_, save_s) = timed(|| stored.iter().for_each(|(hash, cell)| store.save(hash, cell)));
    let (loaded, load_s) =
        timed(|| stored.iter().map(|(hash, _)| store.load(hash)).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
    for ((hash, cell), back) in stored.iter().zip(loaded) {
        if back.as_ref() != Some(cell) {
            return Err(format!("cell {hash} did not load back as saved"));
        }
    }
    let record_bytes = stored.iter().map(|(_, c)| c.to_json().len() as u64 + 1).sum();
    Ok(SerialCost { reference_s, sampled_s, save_s, load_s, record_bytes })
}
