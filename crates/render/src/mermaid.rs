//! Mermaid `stateDiagram-v2` renderer — a modern, markdown-embeddable
//! rendering of the paper's Fig 15 diagram artefact.

use std::fmt::Write as _;

use stategen_core::{FlatIr, StateRole};

use crate::labels::Names;

/// Escapes text for a Mermaid state description or transition label
/// (shared with the hierarchy-aware renderer in [`crate::hsm`]): a
/// character that would end the line or the text (a control character,
/// `:` or `;`), quote it (`"`) or start an entity code (`#`) becomes its
/// `#code;` entity code, so `a"b` prints as `a#34;b`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_control() || matches!(c, '"' | '#' | ':' | ';') {
            let _ = write!(out, "#{};", u32::from(c));
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders the machine as a Mermaid state diagram.
pub fn render_mermaid(ir: &FlatIr) -> String {
    let mut out = String::from("stateDiagram-v2\n");
    for (i, state) in ir.states().iter().enumerate() {
        let _ = writeln!(out, "    s{i} : {}", escape(state.name()));
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

    /// A newline, a `"`, a `:` or a `;` in a name or a label cannot end
    /// its line or its text; `*/` means nothing to Mermaid.
    #[test]
    fn names_and_labels_stay_on_their_line() {
        let ir = crate::fixture(
            "m",
            &["go;on"],
            &["a\"b\n*/c", "x:y#z"],
            &[(0, "go;on", 1, &["s\nt"])],
        );
        let out = render_mermaid(&ir);
        assert_eq!(
            out,
            "stateDiagram-v2\n    s0 : a#34;b#10;*/c\n    s1 : x#58;y#35;z\n    [*] --> s0\n    \
             s0 --> s1 : GO#59;ON / s#10;t\n"
        );
    }
}
