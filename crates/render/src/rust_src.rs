//! Rust source renderer: the paper's "source-level protocol
//! implementation" artefact (§3.5, Fig 16), as a compilable Rust module.
//!
//! The generated module mirrors the structure of the paper's generated
//! Java: one handler function per message, each a `match` (switch) over
//! all states, with phase transitions performing their actions. States are
//! an enum whose variants are named by the encoded variable values, as in
//! Fig 16's `F-0-F-0-F-F-F` tokens. Generated commentary is attached as
//! doc comments (paper: "Commentary on states and transitions ... is also
//! included in the generated code").
//!
//! The module is self-contained (no dependencies), so it can be written
//! into a code base once (paper §4.2 "one-off generation"), or emitted by
//! a build script — the `stategen-generated` crate does the latter and
//! cross-checks the compiled code against the interpreted machine.

use stategen_core::{CompileError, FlatIr, Notes, StateRole};

use crate::codebuf::{
    comment, ident_avoiding, require_unguarded, transition_on, unique_idents, CodeBuffer,
};

/// Rust's strict and reserved keywords: a state variant named after one
/// gets a `_` suffix. (Handler names carry a `receive_` prefix.)
const KEYWORDS: &str =
    "Self abstract as async await become box break const continue crate do dyn else enum \
     extern false final fn for gen if impl in let loop macro match mod move mut override \
     priv pub ref return self static struct super trait true try type typeof unsafe \
     unsized use virtual where while yield";

/// Snake-case function suffix for a message name.
fn fn_suffix(message: &str) -> String {
    message
        .to_ascii_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_")
}

/// A Rust string literal holding `s`, escaped as needed.
fn literal(s: &str) -> String {
    format!("{s:?}")
}

/// Renders `ir` as a self-contained Rust module; with `notes`, each
/// state's commentary becomes its variant's doc comment.
///
/// The module exposes:
///
/// * `pub enum State` — one variant per state, doc-commented with the
///   state's generated description;
/// * `pub const START: State`, `pub const MACHINE_NAME: &str`,
///   `pub const MESSAGES: &[&str]`;
/// * `pub fn state_name(State) -> &'static str`;
/// * `pub fn is_final(State) -> bool`;
/// * `pub fn receive_<message>(State) -> Option<(State, &'static [&'static str])>`
///   per message — `None` when the message is not applicable in the state
///   (the generated Java simply has no `case` arm);
/// * `pub fn receive(State, &str) -> Option<(State, &'static [&'static str])>`
///   — name-based dispatcher (`None` also for unknown messages).
///
/// Names reach the module only as escaped string literals, as unique
/// identifiers that are never keywords, or as single-line comment text.
///
/// # Errors
///
/// [`CompileError::GuardedMachine`] if the IR is guarded.
pub fn render_rust_module(ir: &FlatIr, notes: Option<&Notes>) -> Result<String, CompileError> {
    require_unguarded(ir)?;
    let idents = unique_idents(ir.states().iter().map(|s| s.name()), |name| {
        ident_avoiding(name, KEYWORDS)
    });
    let name = comment(ir.name());
    let suffixes = unique_idents(ir.messages().iter().map(String::as_str), fn_suffix);
    let mut b = CodeBuffer::new();

    // Plain `//` comments and per-item attributes keep the module valid
    // both as a standalone file and when `include!`d into a module body.
    b.add_ln(["// Generated from machine `", &name, "`. Do not edit."]);
    b.blank();

    // -- State enum. -------------------------------------------------------
    b.add_ln([
        "/// States of `",
        &name,
        "`, named by their encoded variable values.",
    ]);
    b.add_ln(["#[allow(non_camel_case_types)]"]);
    b.add_ln(["#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]"]);
    b.add(["pub enum State"]);
    b.enter_block();
    for (i, (state, ident)) in ir.states().iter().zip(&idents).enumerate() {
        b.add_ln(["/// `", &comment(state.name()), "`"]);
        for line in notes.map_or(&[][..], |n| n.state(i)) {
            b.add_ln(["/// ", &comment(line)]);
        }
        b.add_ln([ident.as_str(), ","]);
    }
    b.exit_block();
    b.blank();

    // -- Constants. ----------------------------------------------------------
    b.add_ln(["/// Name of the machine this module was generated from."]);
    b.add_ln(["pub const MACHINE_NAME: &str = ", &literal(ir.name()), ";"]);
    b.blank();
    b.add_ln(["/// The machine's message alphabet."]);
    let quoted: Vec<String> = ir.messages().iter().map(|m| literal(m)).collect();
    b.add_ln(["pub const MESSAGES: &[&str] = &[", &quoted.join(", "), "];"]);
    b.blank();
    b.add_ln(["/// The start state."]);
    b.add_ln([
        "pub const START: State = State::",
        &idents[ir.start() as usize],
        ";",
    ]);
    b.blank();

    // -- state_name. -----------------------------------------------------------
    b.add_ln(["/// The display name of a state."]);
    b.add(["pub fn state_name(state: State) -> &'static str"]);
    b.enter_block();
    b.add(["match state"]);
    b.enter_block();
    for (state, ident) in ir.states().iter().zip(&idents) {
        b.add_ln(["State::", ident, " => ", &literal(state.name()), ","]);
    }
    b.exit_block();
    b.exit_block();
    b.blank();

    // -- is_final. ---------------------------------------------------------------
    b.add_ln(["/// `true` once the protocol instance has completed."]);
    b.add(["pub fn is_final(state: State) -> bool"]);
    b.enter_block();
    let finals: Vec<String> = ir
        .states()
        .iter()
        .zip(&idents)
        .filter(|(s, _)| s.role() == StateRole::Finish)
        .map(|(_, i)| format!("State::{i}"))
        .collect();
    if finals.is_empty() {
        b.add_ln(["let _ = state;"]);
        b.add_ln(["false"]);
    } else {
        b.add_ln(["matches!(state, ", &finals.join(" | "), ")"]);
    }
    b.exit_block();
    b.blank();

    // -- Per-message handlers (the Fig 16 switch, as a match). ---------------------
    for (mid, (m, suffix)) in ir.messages().iter().zip(&suffixes).enumerate() {
        b.add_ln([
            "/// Handles a `",
            &comment(m),
            "` message: returns the new state and the",
        ]);
        b.add_ln(["/// messages to send, or `None` when not applicable in `state`."]);
        b.add([
            "pub fn receive_",
            suffix,
            "(state: State) -> Option<(State, &'static [&'static str])>",
        ]);
        b.enter_block();
        b.add(["match state"]);
        b.enter_block();
        let mut any = false;
        for (state, ident) in ir.states().iter().zip(&idents) {
            let Some(t) = transition_on(state, mid) else {
                continue;
            };
            any = true;
            let actions: Vec<String> = t.actions().iter().map(|a| literal(a.message())).collect();
            b.add_ln([
                "State::",
                ident,
                " => Some((State::",
                &idents[t.target() as usize],
                ", &[",
                &actions.join(", "),
                "])),",
            ]);
        }
        if any {
            b.add_ln(["_ => None,"]);
        } else {
            b.add_ln(["_ => None, // message never applicable"]);
        }
        b.exit_block();
        b.exit_block();
        b.blank();
    }

    // -- Dispatcher. -------------------------------------------------------------------
    b.add_ln(["/// Dispatches a message by name; `None` for unknown or inapplicable"]);
    b.add_ln(["/// messages."]);
    b.add([
        "pub fn receive(state: State, message: &str) -> Option<(State, &'static [&'static str])>",
    ]);
    b.enter_block();
    b.add(["match message"]);
    b.enter_block();
    for (m, suffix) in ir.messages().iter().zip(&suffixes) {
        b.add_ln([&literal(m), " => receive_", suffix, "(state),"]);
    }
    b.add_ln(["_ => None,"]);
    b.exit_block();
    b.exit_block();
    Ok(b.into_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::ident;

    fn toy_machine() -> FlatIr {
        let transitions = [
            (0, "vote", 1, &["commit"][..]),
            (1, "vote", 2, &[]),
            (1, "not_free", 0, &[]),
        ];
        crate::fixture(
            "toy",
            &["vote", "not_free"],
            &["F/0", "T/1", "T/2*"],
            &transitions,
        )
    }

    /// The module of a machine named `m"\` with no transitions.
    fn module(states: &[&str], messages: &[&str]) -> String {
        render_rust_module(&crate::fixture("m\"\\", messages, states, &[]), None).unwrap()
    }

    #[test]
    fn module_contains_expected_items() {
        let out = render_rust_module(&toy_machine(), None).unwrap();
        assert!(out.contains("pub enum State {"));
        assert!(out.contains("F_0,"));
        assert!(out.contains("pub const START: State = State::F_0;"));
        assert!(out.contains("pub const MESSAGES: &[&str] = &[\"vote\", \"not_free\"];"));
        assert!(out.contains("pub fn receive_vote(state: State)"));
        assert!(out.contains("pub fn receive_not_free(state: State)"));
        assert!(out.contains("State::F_0 => Some((State::T_1, &[\"commit\"])),"));
        assert!(out.contains("matches!(state, State::T_2)"));
    }

    #[test]
    fn ident_sanitisation() {
        assert_eq!(ident("T/2/F/0/F/F/F"), "T_2_F_0_F_F_F");
        assert_eq!(ident("1/0/1/0"), "S_1_0_1_0");
        assert_eq!(ident("idle-free"), "idle_free");
    }

    #[test]
    fn duplicate_names_deduplicated() {
        let out = module(&["a_b", "a/b", "a_b__2"], &["m"]);
        for variant in ["    a_b,", "    a_b__2,", "    a_b__2__2,"] {
            assert!(out.contains(&format!("{variant}\n")), "{out}");
        }
    }

    #[test]
    fn message_handlers_are_distinct() {
        let out = module(&["A"], &["not_free", "not-free"]);
        assert!(out.contains("\"not_free\" => receive_not_free(state),"));
        assert!(out.contains("\"not-free\" => receive_not_free__2(state),"));
    }

    /// Names with `"` or `\\` reach the module only inside escaped literals.
    #[test]
    fn names_are_escaped_in_literals() {
        let out = module(&["q\"s", "b\\s"], &["say \"hi\""]);
        assert!(
            out.contains("pub const MACHINE_NAME: &str = \"m\\\"\\\\\";"),
            "{out}"
        );
        assert!(out.contains("State::q_s => \"q\\\"s\","));
        assert!(out.contains("State::b_s => \"b\\\\s\","));
        assert!(out.contains("&[\"say \\\"hi\\\"\"]"));
        assert!(out.contains("\"say \\\"hi\\\"\" => receive_say__hi_(state),"));
    }

    #[test]
    fn keywords_get_a_suffix() {
        let out = module(&["match", "type", "self", "match_"], &["m"]);
        for variant in ["match_", "type_", "self_", "match___2"] {
            assert!(out.contains(&format!("    {variant},\n")), "{out}");
        }
        assert!(out.contains("State::match_ => \"match\","));
    }

    #[test]
    fn balanced_braces() {
        let out = render_rust_module(&toy_machine(), None).unwrap();
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    /// The generated module, interpreted textually, matches the machine:
    /// every transition appears exactly once in a handler.
    #[test]
    fn handler_arm_count_matches_transitions() {
        let m = toy_machine();
        let out = render_rust_module(&m, None).unwrap();
        let arms = out.matches("=> Some((State::").count();
        let transitions: usize = m.states().iter().map(|s| s.transitions().len()).sum();
        assert_eq!(arms, transitions);
    }
}
