//! Java source renderer (paper Figs 16, 17 and 19).
//!
//! Two presentations are provided:
//!
//! * [`render_handlers_raw`] / [`render_handlers`] reproduce the paper's
//!   Fig 16 fragment style — one `receive<Message>()` method per message,
//!   each a `switch` over all states with dash-encoded state tokens
//!   (`F-0-F-0-F-F-F`). The `_raw` variant is written in the unabstracted
//!   Fig 17 style (explicit whitespace in string literals); the other uses
//!   the [`CodeBuffer`] utilities of Fig 18/19. The two are tested to emit
//!   byte-identical output — the paper's point that the abstractions cost
//!   nothing but legibility.
//! * [`JavaRenderer::render`] emits a complete, legal Java class (state
//!   constants instead of dash tokens), ready to paste into a code base
//!   (paper §4.3 "one-off generation").

use stategen_core::{CompileError, FlatIr, StateRole};

use crate::codebuf::{
    comment, ident_avoiding, require_unguarded, transition_on, unique_idents, CodeBuffer,
};

/// Java's reserved keywords and literals: a state constant named after
/// one gets a `_` suffix. (Handler names carry a `receive` prefix.)
const KEYWORDS: &str =
    "abstract assert boolean break byte case catch char class const continue default do \
     double else enum extends false final finally float for goto if implements import \
     instanceof int interface long native new null package private protected public \
     return short static strictfp super switch synchronized this throw throws transient \
     true try void volatile while";

/// Converts `not_free` to `NotFree` (Java method-name fragments).
pub fn camel(name: &str) -> String {
    name.split(['_', ' ', '-'])
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

/// The paper's dash-encoded state token: `T/2/F/0/F/F/F` → `T-2-F-0-F-F-F`.
fn dash_token(name: &str) -> String {
    name.replace('/', "-")
}

/// Renders the Fig 16-style handler methods in the raw string style of
/// paper Fig 17: indentation is controlled by whitespace embedded in the
/// emitted strings.
///
/// # Errors
///
/// [`CompileError::GuardedMachine`] if the IR is guarded.
pub fn render_handlers_raw(ir: &FlatIr) -> Result<String, CompileError> {
    require_unguarded(ir)?;
    let mut buffer = String::new();
    for (mid, m) in ir.messages().iter().enumerate() {
        buffer.push_str(&("void receive".to_string() + &camel(m) + "() {\n"));
        buffer.push_str("    switch (getState()) {\n");
        for state in ir.states() {
            let Some(t) = transition_on(state, mid) else {
                continue;
            };
            buffer
                .push_str(&("        case (".to_string() + &dash_token(state.name()) + ") : {\n"));
            for action in t.actions() {
                buffer.push_str(
                    &("            send".to_string() + &camel(action.message()) + "();\n"),
                );
            }
            buffer.push_str(
                &("            setState(".to_string()
                    + &dash_token(ir.states()[t.target() as usize].name())
                    + ");\n"),
            );
            buffer.push_str("            break;\n");
            buffer.push_str("        }\n");
        }
        buffer.push_str("    }\n");
        buffer.push_str("}\n");
    }
    Ok(buffer)
}

/// Renders the same handler methods using the [`CodeBuffer`] abstractions
/// of paper Figs 18/19. Byte-identical to [`render_handlers_raw`].
///
/// # Errors
///
/// [`CompileError::GuardedMachine`] if the IR is guarded.
pub fn render_handlers(ir: &FlatIr) -> Result<String, CompileError> {
    require_unguarded(ir)?;
    let mut buffer = CodeBuffer::new();
    for (mid, m) in ir.messages().iter().enumerate() {
        buffer.add(["void receive", &camel(m), "()"]);
        buffer.enter_block();
        buffer.add(["switch (getState())"]);
        buffer.enter_block();
        for state in ir.states() {
            let Some(t) = transition_on(state, mid) else {
                continue;
            };
            buffer.add(["case (", &dash_token(state.name()), ") :"]);
            buffer.enter_block();
            for action in t.actions() {
                buffer.add_ln(["send", &camel(action.message()), "();"]);
            }
            buffer.add_ln([
                "setState(",
                &dash_token(ir.states()[t.target() as usize].name()),
                ");",
            ]);
            buffer.add_ln(["break;"]);
            buffer.exit_block();
        }
        buffer.exit_block();
        buffer.exit_block();
    }
    Ok(buffer.into_string())
}

/// Renders complete Java classes from generated machines.
#[derive(Debug, Clone)]
pub struct JavaRenderer {
    class_name: String,
    /// Class providing the `send<Message>()` action methods; the generated
    /// class extends it (paper §5.1: "the generated class inherits from
    /// this specified class, allowing it to access the action methods").
    actions_class: String,
}

impl JavaRenderer {
    /// Creates a renderer emitting `class_name extends actions_class`.
    pub fn new(class_name: impl Into<String>, actions_class: impl Into<String>) -> Self {
        JavaRenderer {
            class_name: class_name.into(),
            actions_class: actions_class.into(),
        }
    }

    /// Renders the machine as a complete Java class.
    ///
    /// # Errors
    ///
    /// [`CompileError::GuardedMachine`] if the IR is guarded.
    pub fn render(&self, ir: &FlatIr) -> Result<String, CompileError> {
        require_unguarded(ir)?;
        let states = unique_idents(ir.states().iter().map(|s| s.name()), |name| {
            ident_avoiding(name, KEYWORDS)
        });
        // Java reads `\u000a` as a newline even inside a comment, so the
        // header doubles every backslash: none can start an escape.
        let name = comment(ir.name()).replace('\\', "\\\\");
        let handlers = unique_idents(ir.messages().iter().map(String::as_str), camel);
        let mut b = CodeBuffer::new();
        b.add_ln(["/**"]);
        b.add_ln([" * Generated from machine `", &name, "`. Do not edit."]);
        b.add_ln([" */"]);
        b.add([
            "public class ",
            &self.class_name,
            " extends ",
            &self.actions_class,
        ]);
        b.enter_block();

        b.add_ln(["// States, named by their encoded variable values."]);
        for (i, state) in states.iter().enumerate() {
            b.add_ln([
                "public static final int ",
                state,
                " = ",
                &i.to_string(),
                ";",
            ]);
        }
        b.blank();
        b.add_ln(["private int state = ", &states[ir.start() as usize], ";"]);
        b.blank();
        b.add(["public int getState()"]);
        b.enter_block();
        b.add_ln(["return state;"]);
        b.exit_block();
        b.blank();
        b.add(["private void setState(int newState)"]);
        b.enter_block();
        b.add_ln(["state = newState;"]);
        b.exit_block();
        b.blank();
        b.add(["public boolean isFinished()"]);
        b.enter_block();
        let finals: Vec<String> = ir
            .states()
            .iter()
            .zip(&states)
            .filter(|(s, _)| s.role() == StateRole::Finish)
            .map(|(_, ident)| format!("state == {ident}"))
            .collect();
        if finals.is_empty() {
            b.add_ln(["return false;"]);
        } else {
            b.add_ln(["return ", &finals.join(" || "), ";"]);
        }
        b.exit_block();

        for (mid, handler) in handlers.iter().enumerate() {
            b.blank();
            b.add(["public void receive", handler, "()"]);
            b.enter_block();
            b.add(["switch (getState())"]);
            b.enter_block();
            for (state, ident) in ir.states().iter().zip(&states) {
                let Some(t) = transition_on(state, mid) else {
                    continue;
                };
                b.add(["case ", ident, " :"]);
                b.enter_block();
                for action in t.actions() {
                    b.add_ln(["send", &camel(action.message()), "();"]);
                }
                b.add_ln(["setState(", &states[t.target() as usize], ");"]);
                b.add_ln(["break;"]);
                b.exit_block();
            }
            b.exit_block();
            b.exit_block();
        }
        b.exit_block();
        Ok(b.into_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::ident;

    fn toy_machine() -> FlatIr {
        let transitions = [(0, "vote", 1, &["commit"][..]), (1, "not_free", 0, &[])];
        crate::fixture("toy", &["vote", "not_free"], &["F/0", "T/1"], &transitions)
    }

    #[test]
    fn camel_case_conversion() {
        assert_eq!(camel("vote"), "Vote");
        assert_eq!(camel("not_free"), "NotFree");
        assert_eq!(camel("not free"), "NotFree");
    }

    #[test]
    fn raw_and_buffered_identical() {
        // The point of paper Figs 17/19: the abstracted generator emits
        // exactly the same generated code.
        let m = toy_machine();
        assert_eq!(render_handlers_raw(&m), render_handlers(&m));
    }

    #[test]
    fn fig16_fragment_shape() {
        let out = render_handlers(&toy_machine()).unwrap();
        assert!(out.contains("void receiveVote() {\n"));
        assert!(out.contains("    switch (getState()) {\n"));
        assert!(out.contains("        case (F-0) : {\n"));
        assert!(out.contains("            sendCommit();\n"));
        assert!(out.contains("            setState(T-1);\n"));
        assert!(out.contains("            break;\n"));
        assert!(out.contains("void receiveNotFree() {\n"));
    }

    #[test]
    fn full_class_is_self_consistent() {
        let out = JavaRenderer::new("ToyFsm", "ToyActions")
            .render(&toy_machine())
            .unwrap();
        assert!(out.contains("public class ToyFsm extends ToyActions {"));
        assert!(out.contains("public static final int F_0 = 0;"));
        assert!(out.contains("public static final int T_1 = 1;"));
        assert!(out.contains("private int state = F_0;"));
        assert!(out.contains("case F_0 :"));
        // Balanced braces.
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn keywords_get_a_suffix() {
        let ir = crate::fixture("k", &["go"], &["class", "new", "int"], &[(0, "go", 1, &[])]);
        let out = JavaRenderer::new("K", "Base").render(&ir).unwrap();
        for (i, constant) in ["class_", "new_", "int_"].iter().enumerate() {
            assert!(out.contains(&format!("int {constant} = {i};")), "{out}");
        }
        assert!(out.contains("private int state = class_;"));
        assert!(out.contains("case class_ :"));
    }

    /// A newline, a `*/` or a Unicode escape in the machine name cannot end
    /// the header comment.
    #[test]
    fn machine_name_stays_inside_the_header() {
        let name = "m\"\n*/ class Evil {} \\u000a/*";
        let ir = crate::fixture(name, &["go"], &["A"], &[]);
        let out = JavaRenderer::new("M", "Base").render(&ir).unwrap();
        let header =
            " * Generated from machine `m\" * / class Evil {} \\\\u000a/*`. Do not edit.\n";
        assert!(out.starts_with(&format!("/**\n{header} */\n")), "{out}");
    }

    #[test]
    fn ident_for_leading_digit() {
        assert_eq!(ident("1/0/1/0"), "S_1_0_1_0");
        assert_eq!(ident("T/2/F"), "T_2_F");
    }

    /// State constants and handlers stay distinct when names collide
    /// after sanitising.
    #[test]
    fn colliding_names_get_distinct_identifiers() {
        let transitions = [(0, "not_free", 1, &[][..]), (1, "notFree", 0, &[])];
        let ir = crate::fixture(
            "dup",
            &["not_free", "notFree"],
            &["a-b", "a/b"],
            &transitions,
        );
        let out = JavaRenderer::new("Dup", "Base").render(&ir).unwrap();
        assert!(
            out.contains("int a_b = 0;") && out.contains("int a_b__2 = 1;"),
            "{out}"
        );
        assert!(out.contains("void receiveNotFree()") && out.contains("void receiveNotFree__2()"));
    }
}
