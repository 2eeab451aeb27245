//! Total simulated cycles pinned at the default workload seed.
//!
//! Simulated results are deterministic, so at the default seed every run
//! must reproduce these cycle counts exactly; on any other seed only the
//! repeat-to-repeat determinism checks apply. A perf or simplicity change
//! must leave this table untouched.

use taskpoint_workloads::ScaleConfig;

use crate::ops::RunKind;

/// The seed the table was measured at: `ScaleConfig::new().seed`.
pub fn default_seed() -> u64 {
    ScaleConfig::new().seed
}

/// Per target: reference, lazy, periodic, adaptive and stratified total
/// cycles (the order of [`RunKind::ALL`]).
const PINNED: &[(&str, [u64; 5])] = &[
    ("cholesky/high-performance/8w", [2_041_322, 2_038_907, 2_049_201, 2_035_223, 2_046_800]),
    (
        "sparse-matrix-vector-multiplication/high-performance/8w",
        [8_536_967, 8_256_997, 8_256_997, 8_256_997, 8_558_727],
    ),
];

/// The pinned cycles of `kind` on the target labelled `label`.
pub fn pinned(label: &str, kind: RunKind) -> Option<u64> {
    let index = RunKind::ALL.iter().position(|&k| k == kind)?;
    PINNED.iter().find(|(l, _)| *l == label).map(|(_, cycles)| cycles[index])
}

/// At the default seed, checks `cycles` against the pinned value (a
/// target or run without a pinned value fails: the table must be
/// complete).
pub fn check(seed: u64, label: &str, kind: RunKind, cycles: u64) -> Result<(), String> {
    if seed != default_seed() {
        return Ok(());
    }
    match pinned(label, kind) {
        Some(p) if p == cycles => Ok(()),
        Some(p) => Err(format!("{label}:{}: {cycles} cycles, pinned {p}", kind.name())),
        None => Err(format!("{label}:{}: {cycles} cycles, none pinned", kind.name())),
    }
}
