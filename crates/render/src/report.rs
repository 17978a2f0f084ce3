//! Report renderers: the paper's Table 1 layout and the generation
//! report.

use std::fmt::Write as _;
use std::time::Duration;

use stategen_core::GenerationReport;

/// One row of the paper's Table 1: "Times to generate state machines of
/// various complexities".
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Tolerated faulty peers.
    pub f: u32,
    /// Replication factor.
    pub r: u32,
    /// States before pruning.
    pub initial_states: u64,
    /// States after pruning and merging.
    pub final_states: usize,
    /// Wall-clock generation time.
    pub generation_time: Duration,
}

impl Table1Row {
    /// Builds a row from a generation report plus its parameters.
    pub fn from_report(f: u32, r: u32, report: &GenerationReport) -> Self {
        Table1Row {
            f,
            r,
            initial_states: report.initial_states,
            final_states: report.final_states,
            generation_time: report.total,
        }
    }
}

/// Renders rows in the layout of the paper's Table 1.
///
/// ```text
/// f   r   initial states   final states   generation time (s)
/// 1   4   512              33             0.0005
/// ```
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("f    r    initial states    final states    generation time (s)\n");
    for row in rows {
        let _ = writeln!(
            out,
            "{:<4} {:<4} {:<17} {:<15} {:.4}",
            row.f,
            row.r,
            row.initial_states,
            row.final_states,
            row.generation_time.as_secs_f64()
        );
    }
    out
}

/// Renders a full generation report as markdown (pipeline stages with
/// counts and timings — the data of paper Figs 12/13 plus Table 1).
pub fn render_generation_report(report: &GenerationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Generation report: `{}`\n", report.machine_name);
    out.push_str("| stage | result | time |\n|---|---|---|\n");
    let _ = writeln!(
        out,
        "| 1–3. explore | {} reached of {} in the space; {} elaborations: {} recorded, {} ignored, {} no-ops | {:?} |",
        report.reachable_states,
        report.initial_states,
        report.elaborations,
        report.transitions_recorded,
        report.ignored,
        report.self_loops_dropped,
        report.timings.explore
    );
    let _ = writeln!(
        out,
        "| 4. merge | {} merged states ({} rounds) | {:?} |",
        report.final_states, report.merge_rounds, report.timings.merge
    );
    let _ = writeln!(out, "\ntotal: {:?}", report.total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_layout() {
        let rows = vec![Table1Row {
            f: 1,
            r: 4,
            initial_states: 512,
            final_states: 33,
            generation_time: Duration::from_micros(500),
        }];
        let out = render_table1(&rows);
        let mut lines = out.lines();
        assert_eq!(
            lines.next().unwrap(),
            "f    r    initial states    final states    generation time (s)"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("1    4    512"));
        assert!(row.contains("33"));
        assert!(row.ends_with("0.0005"));
    }
}
