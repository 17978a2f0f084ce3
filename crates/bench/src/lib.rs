//! # repro-bench
//!
//! Experiment binaries regenerating the tables and figures of the paper's
//! evaluation, plus `engine_tiers`, the in-process gates on the runtime
//! tiers (it writes `target/BENCH_engine_tiers.json`; the committed
//! `BENCH_engine_tiers.json` is the baseline). End-to-end performance is
//! measured by the separate `benchmark/` package (`benchmark/README.md`).
//!
//! Binaries (`cargo run --release -p repro-bench --bin <name>`): `table1`,
//! `fig03_early_fsm`, `fig13_pipeline`, `fig14_state_text`,
//! `fig15_diagram`, `fig16_codegen`, `efsm_report`, `engine_tiers`,
//! `backoff_sweep`, `chord_hops`, `models_report`, `storage_demo`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

/// Directory into which experiment binaries write generated artefacts
/// (diagrams, source files); created on demand under the workspace root.
pub fn artifacts_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&dir).expect("create artifacts directory");
    dir
}
