//! XML diagram renderer (paper §3.5, Fig 15).
//!
//! The paper generates "an XML diagram representation that can be imported
//! into a diagramming tool (in this case, Together)". Together's format is
//! proprietary; this renderer emits a self-contained, schema-documented
//! XML document carrying the same information: states (with generated
//! commentary), transitions and actions, suitable for import by
//! downstream tooling.

use std::fmt::Write as _;

use stategen_core::{FlatIr, Notes, StateRole};

use crate::labels::Names;

/// Escapes text for XML content and attribute values.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine as an XML diagram document; with `notes`, states
/// and transitions carry their commentary as `<annotation>` elements. A
/// guarded transition carries its guard and updates as `guard` and
/// `update` attributes, formatted as on the DOT labels.
pub fn render_xml(ir: &FlatIr, notes: Option<&Notes>) -> String {
    let none = Notes::default();
    let notes = notes.unwrap_or(&none);
    let transitions: usize = ir.states().iter().map(|s| s.transitions().len()).sum();
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(
        out,
        "<statemachine name=\"{}\" states=\"{}\" transitions=\"{transitions}\">",
        escape(ir.name()),
        ir.state_count(),
    );
    out.push_str("  <messages>\n");
    for m in ir.messages() {
        let _ = writeln!(out, "    <message name=\"{}\"/>", escape(m));
    }
    out.push_str("  </messages>\n");
    out.push_str("  <states>\n");
    for (id, state) in ir.states().iter().enumerate() {
        let role = match state.role() {
            StateRole::Normal => "normal",
            StateRole::Finish => "finish",
        };
        let start = if id == ir.start() as usize {
            " start=\"true\""
        } else {
            ""
        };
        let _ = write!(
            out,
            "    <state id=\"{id}\" name=\"{}\" role=\"{role}\"{start}",
            escape(state.name())
        );
        if notes.state(id).is_empty() {
            out.push_str("/>\n");
            continue;
        }
        out.push_str(">\n");
        for a in notes.state(id) {
            let _ = writeln!(out, "      <annotation>{}</annotation>", escape(a));
        }
        out.push_str("    </state>\n");
    }
    out.push_str("  </states>\n");
    out.push_str("  <transitions>\n");
    let names = Names::new(ir.variables(), ir.params());
    for (id, state) in ir.states().iter().enumerate() {
        for (ti, t) in state.transitions().iter().enumerate() {
            let _ = write!(
                out,
                "    <transition from=\"{id}\" to=\"{}\" message=\"{}\" phase=\"{}\"",
                t.target(),
                escape(&ir.messages()[t.message_index()]),
                !t.actions().is_empty()
            );
            let guard = names.format_guard(t.guard());
            let updates = names.format_updates(t.updates());
            for (attribute, value) in [("guard", guard), ("update", updates)] {
                if !value.is_empty() {
                    let _ = write!(out, " {attribute}=\"{}\"", escape(&value));
                }
            }
            let annotations = notes.transition(id, ti);
            if t.actions().is_empty() && annotations.is_empty() {
                out.push_str("/>\n");
                continue;
            }
            out.push_str(">\n");
            for a in t.actions() {
                let _ = writeln!(out, "      <action send=\"{}\"/>", escape(a.message()));
            }
            for a in annotations {
                let _ = writeln!(out, "      <annotation>{}</annotation>", escape(a));
            }
            out.push_str("    </transition>\n");
        }
    }
    out.push_str("  </transitions>\n");
    out.push_str("</statemachine>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatIr {
        crate::fixture("x<y", &["go"], &["A&B", "END*"], &[(0, "go", 1, &["x"])])
    }

    #[test]
    fn document_shape() {
        let out = render_xml(&sample(), None);
        assert!(out.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"));
        assert!(out.contains("<statemachine name=\"x&lt;y\" states=\"2\" transitions=\"1\">"));
        assert!(out.contains("<state id=\"0\" name=\"A&amp;B\" role=\"normal\" start=\"true\"/>"));
        assert!(out.contains("<state id=\"1\" name=\"END\" role=\"finish\"/>"));
        assert!(out.contains("<transition from=\"0\" to=\"1\" message=\"go\" phase=\"true\">"));
        assert!(out.contains("<action send=\"x\"/>"));
        assert!(out.trim_end().ends_with("</statemachine>"));
    }

    #[test]
    fn guards_and_updates_are_attributes() {
        let out = render_xml(&crate::guarded_fixture(), None);
        assert!(
            out.contains(
                "<transition from=\"0\" to=\"0\" message=\"tick\" phase=\"false\" \
                 guard=\"[n+1 &lt; limit]\" update=\"n+=1\"/>"
            ),
            "{out}"
        );
        assert!(out.contains("<transition from=\"0\" to=\"1\" message=\"tick\" phase=\"true\">"));
    }

    #[test]
    fn escaping_all_specials() {
        assert_eq!(escape("&<>\"'"), "&amp;&lt;&gt;&quot;&apos;");
    }

    #[test]
    fn balanced_tags() {
        let out = render_xml(&sample(), None);
        for tag in ["statemachine", "messages", "states", "transitions"] {
            let opens =
                out.matches(&format!("<{tag}>")).count() + out.matches(&format!("<{tag} ")).count();
            let closes = out.matches(&format!("</{tag}>")).count();
            assert_eq!(opens, closes, "{tag}: {opens} opens, {closes} closes");
        }
    }
}
