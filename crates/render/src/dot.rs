//! Graphviz DOT renderer for state-transition diagrams (paper §3.5,
//! Fig 15).
//!
//! The paper renders diagrams by exporting XML into a diagramming tool;
//! DOT is today's lingua franca for the same artefact class. Phase
//! transitions (those that perform actions) are drawn with heavier pens,
//! matching the paper's Fig 8 convention of thin vs. thick arrows; a
//! guarded transition carries its guard and updates on its label.

use std::fmt::Write as _;

use stategen_core::{FlatIr, StateRole};

use crate::labels::Names;

/// Escapes a string for use inside a DOT double-quoted label (shared
/// with the hierarchy-aware renderer in [`crate::hsm`]).
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the machine as a Graphviz DOT document.
pub fn render_dot(ir: &FlatIr) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(ir.name()));
    out.push_str("    rankdir=LR;\n");
    out.push_str("    node [shape=box, style=rounded, fontsize=10, fontname=\"Helvetica\"];\n");
    out.push_str("    edge [fontsize=9, fontname=\"Helvetica\"];\n");
    out.push_str("    __start [shape=point];\n");
    for (i, state) in ir.states().iter().enumerate() {
        let shape = match state.role() {
            StateRole::Finish => ", peripheries=2",
            StateRole::Normal => "",
        };
        let _ = writeln!(out, "    s{i} [label=\"{}\"{shape}];", escape(state.name()));
    }
    let _ = writeln!(out, "    __start -> s{};", ir.start());
    let names = Names::new(ir.variables(), ir.params());
    for (i, state) in ir.states().iter().enumerate() {
        for t in state.transitions() {
            let message = &ir.messages()[t.message_index()];
            let label = names.dot_label(message, t.guard(), t.updates(), t.actions());
            let width = if t.actions().is_empty() {
                ""
            } else {
                ", penwidth=2"
            };
            let _ = writeln!(
                out,
                "    s{i} -> s{} [label=\"{label}\"{width}];",
                t.target()
            );
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure() {
        let ir = crate::fixture("dia\"gram", &["go"], &["A", "B*"], &[(0, "go", 1, &["x"])]);
        let out = render_dot(&ir);
        assert!(out.starts_with("digraph \"dia\\\"gram\" {"));
        assert!(out.contains("rankdir=LR;"));
        assert!(out.contains("__start -> s0;"));
        assert!(out.contains("s0 [label=\"A\"];"));
        assert!(out.contains("s1 [label=\"B\", peripheries=2];"));
        assert!(out.contains("s0 -> s1 [label=\"GO\\n->x\", penwidth=2];"));
        assert!(out.trim_end().ends_with('}'));
    }

    /// A guarded IR's edges carry the guard and the updates; every label,
    /// state names included, is escaped.
    #[test]
    fn guarded_labels_are_escaped() {
        let out = render_dot(&crate::guarded_fixture());
        assert!(out.contains("s0 [label=\"count\\\"ing\"];"), "{out}");
        assert!(out.contains("s1 [label=\"done\", peripheries=2];"));
        assert!(out.contains("s0 -> s0 [label=\"TICK\\n[n+1 < limit]\\n/ n+=1\"];"));
        assert!(out.contains("s0 -> s1 [label=\"TICK\\n->fire\", penwidth=2];"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
