//! Report renderers: the paper's Table 1 layout and a markdown machine
//! summary.

use std::fmt::Write as _;
use std::time::Duration;

use stategen_core::{GenerationReport, StateMachine};

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

/// Renders a one-paragraph markdown summary of a machine.
pub fn render_machine_summary(machine: &StateMachine) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### Machine `{}`\n", machine.name());
    let _ = writeln!(out, "- messages: {}", machine.messages().join(", "));
    let _ = writeln!(out, "- states: {}", machine.state_count());
    let _ = writeln!(out, "- transitions: {}", machine.transition_count());
    let _ = writeln!(
        out,
        "- phase transitions: {}",
        machine.phase_transition_count()
    );
    let _ = writeln!(out, "- start: `{}`", machine.state(machine.start()).name());
    if let Some(f) = machine.unique_final() {
        let _ = writeln!(out, "- finish: `{}`", machine.state(f).name());
    }
    out
}

/// Renders a complete markdown report of a machine: summary, optional
/// generation statistics, and one section per state in the Fig 14 style.
pub fn render_markdown_report(
    machine: &StateMachine,
    generation: Option<&GenerationReport>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# State machine `{}`\n", machine.name());
    out.push_str(&render_machine_summary(machine));
    if let Some(report) = generation {
        out.push('\n');
        out.push_str(&render_generation_report(report));
    }
    out.push_str("\n## States\n");
    for (id, state) in machine.states_with_ids() {
        let _ = writeln!(out, "\n### `{}`\n", state.name());
        for line in state.annotations() {
            let _ = writeln!(out, "> {line}");
        }
        if state.transition_count() == 0 {
            out.push_str("\n*(final state — no transitions)*\n");
            continue;
        }
        out.push_str("\n| message | actions | next state |\n|---|---|---|\n");
        for (mid, t) in state.transitions() {
            let actions: Vec<String> = t
                .actions()
                .iter()
                .map(|a| format!("`->{}`", a.message()))
                .collect();
            let _ = writeln!(
                out,
                "| `{}` | {} | `{}` |",
                machine.message_name(mid).to_uppercase(),
                if actions.is_empty() {
                    "—".to_string()
                } else {
                    actions.join(" ")
                },
                machine.state(t.target()).name()
            );
        }
        let _ = id;
    }
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

    #[test]
    fn markdown_report_structure() {
        use stategen_core::{Action, StateMachineBuilder, StateRole};
        let mut b = StateMachineBuilder::new("doc", ["go"]);
        let s0 = b.add_state_full(
            "start",
            None,
            StateRole::Normal,
            vec!["The beginning.".to_string()],
        );
        let fin = b.add_state_full("end", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "go", fin, vec![Action::send("x")]);
        let m = b.build(s0);
        let md = render_markdown_report(&m, None);
        assert!(md.starts_with("# State machine `doc`"));
        assert!(md.contains("### `start`"));
        assert!(md.contains("> The beginning."));
        assert!(md.contains("| `GO` | `->x` | `end` |"));
        assert!(md.contains("*(final state — no transitions)*"));
    }

    #[test]
    fn summary_contains_counts() {
        use stategen_core::{Action, StateMachineBuilder};
        let mut b = StateMachineBuilder::new("m", ["go"]);
        let s0 = b.add_state("A");
        let s1 = b.add_state("B");
        b.add_transition(s0, "go", s1, vec![Action::send("x")]);
        let m = b.build(s0);
        let out = render_machine_summary(&m);
        assert!(out.contains("states: 2"));
        assert!(out.contains("phase transitions: 1"));
        assert!(out.contains("start: `A`"));
    }
}
