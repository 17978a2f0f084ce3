//! The seven workloads and what they share: the repeated set-up, the
//! repetition loop, and the outcome a workload hands back.
//!
//! Method, for every workload: one process, one thread, closed loop (the
//! caller waits for each call). A *repetition* is a fixed script of
//! operations, so its counts and checksums repeat exactly; repetitions
//! run back to back until `--seconds` have been measured, and every
//! wall-clock metric is the median over repetitions.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, over_reps};
use crate::trace::Tracer;

pub mod batch;
pub mod build;
pub mod routed;
pub mod storage;

/// Fewest times a workload sets itself up; `setup_s` is the median.
pub const MIN_SETUPS: usize = 5;

/// A set-up of a few milliseconds is repeated until this much time has
/// gone into set-ups (at most [`MAX_SETUPS`] times), because the median
/// of five 3 ms timings does not repeat within a quarter.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Most set-ups in one run.
pub const MAX_SETUPS: usize = 101;

/// Fewest measured repetitions, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Untraced repetitions a traced run measures first: the base of
/// `trace.overhead_ratio` and the source of `alloc.allocs_per_kop`.
pub const BASELINE_REPS: usize = 2;

/// Command-line parameters of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the measured phase plus output checks made.
    pub attempted: u64,
    /// Operations that failed or were refused unexpectedly, plus output
    /// checks that disagreed with the reference.
    pub failed: u64,
    /// Checksum of one repetition's outputs (equal for equal seeds).
    pub checksum: u64,
    /// Metric values by registry name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: ranges, sample counts, percentiles.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a per-repetition metric as its median, with the range as
    /// a note.
    pub fn set_over_reps(&mut self, name: &'static str, unit: &str, values: &[f64]) {
        let r = over_reps(values);
        self.set(name, r.median);
        self.notes.push(format!(
            "{name}: median {:.6} {unit} over {} repetitions (min {:.6} .. max {:.6})",
            r.median, r.reps, r.min, r.max
        ));
    }

    /// Counts one output check; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Cap the noise: a broken kernel fails thousands of checks.
            if self.failed <= 20 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }

    /// Counts `n` operations of the measured phase as attempted.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Runs `setup` at least [`MIN_SETUPS`] times and until
/// [`SETUP_BUDGET_S`] is spent, dropping each result before the next so
/// memory does not pile up, and returns the last result with the median
/// wall time in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut walls = Vec::with_capacity(MAX_SETUPS);
    let mut spent = 0.0;
    loop {
        let start = Instant::now();
        let built = setup();
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        spent += wall;
        if walls.len() == MAX_SETUPS || (walls.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            return (built, median(&walls));
        }
    }
}

/// Runs `rep` until `seconds` of repetition wall time have been
/// measured, stopping at the repetition boundary nearest to it (but
/// never before `min_reps`). `rep` returns its own wall time in
/// seconds. Returns the number of repetitions run.
pub fn measure(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> f64) -> usize {
    let mut elapsed = 0.0;
    let mut reps = 0;
    loop {
        elapsed += rep(reps);
        reps += 1;
        let mean = elapsed / reps as f64;
        if reps >= min_reps && elapsed + mean / 2.0 >= seconds {
            return reps;
        }
    }
}

/// Runs the workload `name` (one of `report::WORKLOADS`), or returns
/// `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "batch_lockstep" => batch::run(&batch::LOCKSTEP, args, tracer),
        "batch_divergent" => batch::run(&batch::DIVERGENT, args, tracer),
        "batch_guarded" => batch::run(&batch::GUARDED, args, tracer),
        "routed_churn" => routed::run(args, tracer),
        "build_deploy" => build::run(args, tracer),
        "storage_commit" => storage::run(&storage::COMMIT, args, tracer),
        "storage_chaos" => storage::run(&storage::CHAOS, args, tracer),
        _ => return None,
    })
}
