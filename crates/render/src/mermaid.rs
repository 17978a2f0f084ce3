//! Mermaid `stateDiagram-v2` renderer — a modern, markdown-embeddable
//! rendering of the paper's Fig 15 diagram artefact.

use std::fmt::Write as _;

use stategen_core::{FlatIr, StateRole};

use crate::labels::Names;

/// Renders the machine as a Mermaid state diagram.
pub fn render_mermaid(ir: &FlatIr) -> String {
    let mut out = String::from("stateDiagram-v2\n");
    for (i, state) in ir.states().iter().enumerate() {
        let _ = writeln!(out, "    s{i} : {}", state.name());
    }
    let _ = writeln!(out, "    [*] --> s{}", ir.start());
    let names = Names::new(ir.variables(), ir.params());
    for (i, state) in ir.states().iter().enumerate() {
        for t in state.transitions() {
            let message = &ir.messages()[t.message_index()];
            let label = names.mermaid_label(message, t.guard(), t.updates(), t.actions());
            let _ = writeln!(out, "    s{i} --> s{} : {label}", t.target());
        }
        if state.role() == StateRole::Finish {
            let _ = writeln!(out, "    s{i} --> [*]");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagram_shape() {
        let ir = crate::fixture("m", &["go"], &["A", "B*"], &[(0, "go", 1, &["x", "y"])]);
        let out = render_mermaid(&ir);
        assert!(out.starts_with("stateDiagram-v2\n"));
        assert!(out.contains("    s0 : A\n"));
        assert!(out.contains("    [*] --> s0\n"));
        assert!(out.contains("    s0 --> s1 : GO / x, y\n"));
        assert!(out.contains("    s1 --> [*]\n"));
    }

    #[test]
    fn simple_transition_has_no_action_suffix() {
        let ir = crate::fixture("m", &["go"], &["A", "B"], &[(0, "go", 1, &[])]);
        let out = render_mermaid(&ir);
        assert!(out.contains("    s0 --> s1 : GO\n"));
        assert!(!out.contains(" / "));
    }
}
