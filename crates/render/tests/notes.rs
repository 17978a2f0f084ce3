//! Commentary reaches the renderers only through `Notes`, indexed in the
//! order `FlatIr::from_machine` lowers states and transitions.

use stategen_core::{Action, FlatIr, Notes, StateMachineBuilder, StateRole};
use stategen_render::{render_rust_module, render_xml};

#[test]
fn annotations_are_escaped_where_they_are_printed() {
    let mut b = StateMachineBuilder::new("m", ["go"]);
    let note = vec!["a \"note\" & <more>".to_string()];
    let s0 = b.add_state_full("A", None, StateRole::Normal, note.clone());
    let fin = b.add_state_full("END", None, StateRole::Finish, vec![]);
    b.add_transition_annotated(s0, "go", fin, vec![Action::send("x")], note);
    let machine = b.build(s0);
    let ir = FlatIr::from_machine(&machine);
    let notes = Notes::from_machine(&machine);

    let xml = render_xml(&ir, Some(&notes));
    let escaped = "      <annotation>a &quot;note&quot; &amp; &lt;more&gt;</annotation>\n";
    assert!(
        xml.contains(&format!("start=\"true\">\n{escaped}    </state>")),
        "{xml}"
    );
    assert!(xml.contains(&format!("<action send=\"x\"/>\n{escaped}    </transition>")));
    assert!(!render_xml(&ir, None).contains("<annotation>"));

    let rust = render_rust_module(&ir, Some(&notes)).unwrap();
    assert!(
        rust.contains("    /// `A`\n    /// a \"note\" & <more>\n    A,\n"),
        "{rust}"
    );
}

/// A newline in the machine name, a state name or a note cannot end a
/// comment of the generated module: what follows it stays comment text.
#[test]
fn comments_stay_on_one_line() {
    let evil = "x\"\n*/ fn evil() {}";
    let mut b = StateMachineBuilder::new(evil, ["go"]);
    let s0 = b.add_state_full(evil, None, StateRole::Normal, vec![evil.to_string()]);
    let machine = b.build(s0);
    let ir = FlatIr::from_machine(&machine);
    let rust = render_rust_module(&ir, Some(&Notes::from_machine(&machine))).unwrap();
    let flat = "x\" * / fn evil() {}";
    assert!(
        rust.starts_with(&format!(
            "// Generated from machine `{flat}`. Do not edit.\n"
        )),
        "{rust}"
    );
    assert!(rust.contains(&format!("    /// `{flat}`\n    /// {flat}\n")));
    assert!(!rust.lines().any(|l| l.trim_start().starts_with("*/")));
}
