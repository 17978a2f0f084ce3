//! The textual FSM renderer (paper §3.5, Fig 14).
//!
//! Renders each state with its automatically generated commentary and its
//! outgoing transitions, in the exact layout of the paper's example:
//!
//! ```text
//! state: T/2/F/0/F/F/F
//! --------------------
//! Description:
//!
//! Have received initial update from client.
//! ...
//!
//! Transitions:
//!
//!  message: VOTE
//!   action: ->vote
//!   action: ->commit
//!   transition to: T/3/T/0/T/F/F
//! ```
//!
//! The renderer is algorithm-independent (paper §5.1): everything it
//! needs is in the [`FlatIr`] and, for the `Description:` blocks, its
//! [`Notes`]. A guarded transition lists its guard and updates under its
//! message.

use std::fmt::Write as _;

use stategen_core::{FlatIr, Notes, StateRole};

use crate::labels::Names;

/// Display form of a message name: upper-cased, underscores as spaces
/// (paper Fig 14 shows `message: VOTE`).
fn display_message(name: &str) -> String {
    name.to_uppercase().replace('_', " ")
}

/// Renders the state with dense id `id` and its transitions (paper
/// Fig 14); with `notes`, its `Description:` block too.
pub fn render_state_text(ir: &FlatIr, notes: Option<&Notes>, id: usize) -> String {
    let state = &ir.states()[id];
    let mut out = String::new();
    let header = format!("state: {}", state.name());
    let _ = writeln!(out, "{header}\n{}", "-".repeat(header.len()));
    if let Some(notes) = notes {
        out.push_str("Description:\n\n");
        for line in notes.state(id) {
            let _ = writeln!(out, "{line}");
        }
        out.push('\n');
    }

    out.push_str("\nTransitions:\n");
    let names = Names::new(ir.variables(), ir.params());
    for t in state.transitions() {
        let _ = writeln!(
            out,
            "\n message: {}",
            display_message(&ir.messages()[t.message_index()])
        );
        let guard = names.format_guard(t.guard());
        if !guard.is_empty() {
            let _ = writeln!(out, "  guard: {guard}");
        }
        let updates = names.format_updates(t.updates());
        if !updates.is_empty() {
            let _ = writeln!(out, "  update: {updates}");
        }
        for action in t.actions() {
            // The paper renders `not_free` as `->not free` (Fig 14).
            let _ = writeln!(out, "  action: ->{}", action.message().replace('_', " "));
        }
        let target = &ir.states()[t.target() as usize];
        let _ = writeln!(out, "  transition to: {}", target.name());
    }
    out
}

/// Renders the whole machine: a summary header followed by every state.
pub fn render_text(ir: &FlatIr, notes: Option<&Notes>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine: {}", ir.name());
    let messages: Vec<String> = ir.messages().iter().map(|m| display_message(m)).collect();
    let _ = writeln!(out, "messages: {}", messages.join(", "));
    if !ir.params().is_empty() {
        let _ = writeln!(out, "params: {}", ir.params().join(", "));
    }
    if !ir.variables().is_empty() {
        let _ = writeln!(out, "variables: {}", ir.variables().join(", "));
    }
    let _ = writeln!(out, "states: {}", ir.state_count());
    let _ = writeln!(out, "start: {}", ir.states()[ir.start() as usize].name());
    let mut finals = ir.states().iter().filter(|s| s.role() == StateRole::Finish);
    if let (Some(finish), None) = (finals.next(), finals.next()) {
        let _ = writeln!(out, "finish: {}", finish.name());
    }
    let transitions: usize = ir.states().iter().map(|s| s.transitions().len()).sum();
    let _ = writeln!(out, "transitions: {transitions}");
    for id in 0..ir.state_count() {
        out.push('\n');
        out.push_str(&render_state_text(ir, notes, id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatIr {
        let transitions = [(0, "go", 1, &["ping", "pong"][..]), (1, "stop", 0, &[])];
        crate::fixture("sample", &["go", "stop"], &["A", "B"], &transitions)
    }

    #[test]
    fn state_block_layout() {
        let text = render_state_text(&sample(), Some(&Notes::default()), 0);
        let expected = "state: A\n\
                        --------\n\
                        Description:\n\
                        \n\
                        \n\
                        \n\
                        Transitions:\n\
                        \n \
                        message: GO\n  \
                        action: ->ping\n  \
                        action: ->pong\n  \
                        transition to: B\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn machine_header() {
        let text = render_text(&sample(), None);
        assert!(text.starts_with(
            "machine: sample\nmessages: GO, STOP\nstates: 2\nstart: A\ntransitions: 2\n"
        ));
        assert!(text.contains("state: B"));
    }

    #[test]
    fn descriptions_can_be_disabled() {
        let text = render_state_text(&sample(), None, 0);
        assert!(!text.contains("Description:"));
        assert!(text.contains("message: GO"));
    }

    #[test]
    fn underline_matches_header_width() {
        let text = render_state_text(&sample(), None, 0);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let underline = lines.next().unwrap();
        assert_eq!(header.len(), underline.len());
        assert!(underline.chars().all(|c| c == '-'));
    }

    #[test]
    fn guards_and_updates_are_listed() {
        let text = render_text(&crate::guarded_fixture(), None);
        let header = "params: limit\nvariables: n\nstates: 2\nstart: count\"ing\nfinish: done\n";
        assert!(text.contains(header), "{text}");
        assert!(text.contains(
            " message: TICK\n  guard: [n+1 < limit]\n  update: n+=1\n  transition to: count\"ing\n"
        ));
    }
}
