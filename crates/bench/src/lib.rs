//! # repro-bench
//!
//! Benchmark harness and experiment binaries regenerating every table and
//! figure of the paper's evaluation. See EXPERIMENTS.md at the workspace
//! root for the experiment index and recorded results.
//!
//! Criterion benches (`cargo bench`):
//!
//! * `table1_generation` — Table 1 generation times;
//! * `chord_routing` — §2 logarithmic routing;
//! * `commit_protocol` — §2.2 end-to-end commit latency;
//! * `render_artefacts` — §3.5/§4.1 artefact rendering cost.
//!
//! Experiment binaries (`cargo run --release -p repro-bench --bin <name>`): `table1`,
//! `fig03_early_fsm`, `fig13_pipeline`, `fig14_state_text`,
//! `fig15_diagram`, `fig16_codegen`, `efsm_report`, `backoff_sweep`,
//! `chord_hops`, `models_report`, `storage_demo`.

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
