//! Code-generation buffer utilities (paper Fig 18).
//!
//! Generative code is hard to read when it controls the generated code's
//! indentation through explicit whitespace in string literals (paper
//! Fig 17). This module provides the paper's small set of utility methods
//! — `add`, `addLn`, `enterBlock`, `exitBlock` and indent control — which
//! "make a significant difference to legibility" (§4.1) of both the
//! generative and the generated code.

use std::collections::HashSet;

use stategen_core::{CompileError, FlatIr, FlatState, FlatTransition};

/// An indentation-aware output buffer for generated source code.
///
/// # Examples
///
/// ```
/// use stategen_render::CodeBuffer;
///
/// let mut buf = CodeBuffer::new();
/// buf.add(["fn answer() -> u32"]);
/// buf.enter_block();
/// buf.add_ln(["42"]);
/// buf.exit_block();
/// assert_eq!(buf.into_string(), "fn answer() -> u32 {\n    42\n}\n");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeBuffer {
    out: String,
    indent: usize,
    /// A line has been started and not yet ended.
    mid_line: bool,
}

/// One indent level.
const INDENT: &str = "    ";

impl CodeBuffer {
    /// Creates a buffer with 4-space indentation and `{`/`}` blocks.
    pub fn new() -> Self {
        CodeBuffer::default()
    }

    /// Adds the items to the output buffer (paper: `add`).
    pub fn add<I, S>(&mut self, items: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for item in items {
            self.write_indent_if_needed();
            self.out.push_str(item.as_ref());
        }
    }

    /// Adds the items and a newline (paper: `addLn`).
    pub fn add_ln<I, S>(&mut self, items: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.add(items);
        self.newline();
    }

    /// Ends the current line.
    pub fn newline(&mut self) {
        self.out.push('\n');
        self.mid_line = false;
    }

    /// Adds a blank line.
    pub fn blank(&mut self) {
        // Nothing was written on the line, so it carries no indentation.
        self.newline();
    }

    /// Opens a new block and increases the indent level (paper:
    /// `enterBlock`). The opening delimiter is appended to the current
    /// line (`... {`) if one is in progress, else on its own line.
    pub fn enter_block(&mut self) {
        if self.mid_line {
            self.out.push_str(" {");
        } else {
            self.write_indent_if_needed();
            self.out.push('{');
        }
        self.newline();
        self.increase_indent();
    }

    /// Exits the current block and decreases the indent level (paper:
    /// `exitBlock`).
    pub fn exit_block(&mut self) {
        self.decrease_indent();
        self.write_indent_if_needed();
        self.out.push('}');
        self.newline();
    }

    /// Increases the indent level (paper: `increaseIndent`).
    pub fn increase_indent(&mut self) {
        self.indent += 1;
    }

    /// Decreases the indent level (paper: `decreaseIndent`).
    ///
    /// # Panics
    ///
    /// Panics if the indent level is already zero (an unbalanced
    /// `exit_block` in the generative code).
    pub fn decrease_indent(&mut self) {
        assert!(self.indent > 0, "unbalanced exit_block / decrease_indent");
        self.indent -= 1;
    }

    /// Resets indentation to the top level (paper: `resetIndent`).
    pub fn reset_indent(&mut self) {
        self.indent = 0;
    }

    /// Current indent level (in levels, not spaces).
    pub fn indent_level(&self) -> usize {
        self.indent
    }

    /// Extracts the generated text.
    pub fn into_string(self) -> String {
        self.out
    }

    fn write_indent_if_needed(&mut self) {
        if !self.mid_line {
            for _ in 0..self.indent {
                self.out.push_str(INDENT);
            }
            self.mid_line = true;
        }
    }
}

/// A legal identifier for `name` in the generated Rust and Java: every
/// character outside `[A-Za-z0-9]` becomes `_`, and a result that does
/// not start with a letter gets an `S_` prefix (`T/2/F/0/F/F/F` →
/// `T_2_F_0_F_F_F`, `1/0/1/0` → `S_1_0_1_0`).
pub(crate) fn ident(name: &str) -> String {
    let ident = name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    if ident.starts_with(|c: char| c.is_ascii_alphabetic()) {
        ident
    } else {
        format!("S_{ident}")
    }
}

/// [`ident`], with `_` appended when that is one of the target
/// language's `keywords`, a whitespace-separated list (`match` →
/// `match_` in Rust, `class` → `class_` in Java).
pub(crate) fn ident_avoiding(name: &str, keywords: &str) -> String {
    let ident = ident(name);
    if keywords.split_whitespace().any(|k| k == ident) {
        ident + "_"
    } else {
        ident
    }
}

/// `text` as the body of a one-line comment in generated source: a
/// control character (a newline would end a `//` comment) becomes a
/// space, and `*/` (which would end a `/* … */` one) becomes `* /`.
pub(crate) fn comment(text: &str) -> String {
    text.replace(|c: char| c.is_control(), " ")
        .replace("*/", "* /")
}

/// Collision-free identifiers, one per name in order: `to_ident(name)`,
/// or, when an earlier name already took that, the first free one of
/// `…__2`, `…__3`, ….
pub(crate) fn unique_idents<'a>(
    names: impl IntoIterator<Item = &'a str>,
    to_ident: impl Fn(&str) -> String,
) -> Vec<String> {
    let mut taken = HashSet::new();
    names
        .into_iter()
        .map(|name| {
            let base = to_ident(name);
            let mut ident = base.clone();
            for n in 2.. {
                if taken.insert(ident.clone()) {
                    break;
                }
                ident = format!("{base}__{n}");
            }
            ident
        })
        .collect()
}

/// The source emitters compile the machine, so like
/// [`CompiledMachine::compile_ir`](stategen_core::CompiledMachine::compile_ir)
/// they refuse a guarded IR.
pub(crate) fn require_unguarded(ir: &FlatIr) -> Result<(), CompileError> {
    if ir.is_guarded() {
        return Err(CompileError::GuardedMachine(ir.name().to_string()));
    }
    Ok(())
}

/// The transition `state` takes on message `message` in an unguarded
/// IR: the first one declared, as [`FlatIr::step`] picks it.
pub(crate) fn transition_on(state: &FlatState, message: usize) -> Option<&FlatTransition> {
    state
        .transitions()
        .iter()
        .find(|t| t.message_index() == message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_blocks_indent() {
        let mut b = CodeBuffer::new();
        b.add(["fn f()"]);
        b.enter_block();
        b.add(["if x"]);
        b.enter_block();
        b.add_ln(["y();"]);
        b.exit_block();
        b.exit_block();
        assert_eq!(
            b.into_string(),
            "fn f() {\n    if x {\n        y();\n    }\n}\n"
        );
    }

    #[test]
    fn add_concatenates_items() {
        let mut b = CodeBuffer::new();
        b.add(["a", "b", "c"]);
        b.newline();
        assert_eq!(b.into_string(), "abc\n");
    }

    #[test]
    fn blank_lines_carry_no_indent() {
        let mut b = CodeBuffer::new();
        b.enter_block();
        b.blank();
        b.add_ln(["x"]);
        b.exit_block();
        assert_eq!(b.into_string(), "{\n\n    x\n}\n");
    }

    #[test]
    fn reset_indent() {
        let mut b = CodeBuffer::new();
        b.enter_block();
        b.enter_block();
        b.reset_indent();
        b.add_ln(["flush left"]);
        assert_eq!(b.indent_level(), 0);
        assert_eq!(b.into_string(), "{\n    {\nflush left\n");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_exit_panics() {
        let mut b = CodeBuffer::new();
        b.exit_block();
    }

    #[test]
    fn enter_block_on_fresh_line() {
        let mut b = CodeBuffer::new();
        b.enter_block();
        b.add_ln(["x"]);
        b.exit_block();
        assert_eq!(b.into_string(), "{\n    x\n}\n");
    }

    #[test]
    fn identifiers_are_unique_over_the_final_set() {
        let names = ["a_b", "a/b", "a_b__2", "", "_"];
        let idents = unique_idents(names, ident);
        assert_eq!(idents, ["a_b", "a_b__2", "a_b__2__2", "S_", "S__"]);
    }

    #[test]
    fn source_emitters_refuse_guarded_machines() {
        use crate::java_src::{render_handlers, render_handlers_raw, JavaRenderer};
        let ir = crate::guarded_fixture();
        let refused = Err(CompileError::GuardedMachine("counter".into()));
        assert_eq!(render_handlers(&ir), refused);
        assert_eq!(render_handlers_raw(&ir), refused);
        assert_eq!(JavaRenderer::new("G", "Base").render(&ir), refused);
        assert_eq!(crate::render_rust_module(&ir, None), refused);
    }
}
