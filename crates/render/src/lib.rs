//! # stategen-render
//!
//! Renderers producing the paper's concrete artefacts (§3.5) from the
//! one machine every back end reads, a lowered
//! [`FlatIr`](stategen_core::FlatIr) — generated, unfolded, minimized,
//! flattened or booted from an artifact alike:
//!
//! * [`render_text`] / [`render_state_text`] — the textual state
//!   descriptions of Fig 14, with automatically generated commentary;
//! * [`render_dot`] / [`render_xml`] / [`render_mermaid`] — state-
//!   transition diagrams (Fig 15), guards and updates included;
//! * [`render_rust_module`] — a compilable Rust protocol implementation
//!   (the Fig 16 artefact; the `stategen-generated` crate compiles it);
//! * [`java_src`] — the paper's Java presentation, including the raw
//!   (Fig 17) vs. abstracted (Fig 19) generative styles, tested to emit
//!   byte-identical code;
//! * [`CodeBuffer`] — the generation utility methods of Fig 18;
//! * [`report`] — the paper's Table 1 layout and the generation report;
//! * [`hsm`](mod@hsm) — hierarchy-aware DOT (clustered subgraphs) and
//!   Mermaid (composite states) renderings of hierarchical statecharts,
//!   drawn as authored rather than flattened.
//!
//! The commentary the paper prints beside a machine (Fig 14's
//! `Description:`) is not part of the IR: the text, XML and Rust
//! renderers take it as an optional [`Notes`](stategen_core::Notes)
//! side table. The two source emitters compile the machine, so they
//! refuse a guarded IR with
//! [`CompileError::GuardedMachine`](stategen_core::CompileError::GuardedMachine).
//!
//! All renderers are generic with respect to the algorithm being modelled
//! (paper §5.1): they consume only the machine representation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codebuf;
pub mod dot;
pub mod hsm;
pub mod java_src;
mod labels;
pub mod mermaid;
pub mod report;
pub mod rust_src;
pub mod text;
pub mod xml;

pub use codebuf::CodeBuffer;
pub use dot::render_dot;
pub use hsm::{render_hsm_dot, render_hsm_mermaid};
pub use java_src::JavaRenderer;
pub use mermaid::render_mermaid;
pub use report::{render_generation_report, render_table1, Table1Row};
pub use rust_src::render_rust_module;
pub use text::{render_state_text, render_text};
pub use xml::render_xml;

/// Test fixture: an unguarded IR over `states` (the first is the start,
/// a `*` suffix marks a finish state) with `(from, message, to, sends)`
/// transitions.
#[cfg(test)]
fn fixture(
    name: &str,
    messages: &[&str],
    states: &[&str],
    transitions: &[(usize, &str, u32, &[&str])],
) -> stategen_core::FlatIr {
    use stategen_core::{efsm::Guard, Action, FlatIr, FlatState, FlatTransition, StateRole};
    let flat_states = states.iter().enumerate().map(|(i, s)| {
        let role = if s.ends_with('*') {
            StateRole::Finish
        } else {
            StateRole::Normal
        };
        let out = transitions
            .iter()
            .filter(|t| t.0 == i)
            .map(|&(_, m, to, sends)| {
                let message = messages.iter().position(|x| *x == m).expect("declared");
                let sends = sends.iter().map(|a| Action::send(*a)).collect();
                FlatTransition::new(message, Guard::always(), vec![], sends, to)
            });
        FlatState::new(s.trim_end_matches('*'), role, out.collect())
    });
    let strings = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect();
    FlatIr::from_parts(
        name,
        strings(messages),
        vec![],
        vec![],
        flat_states.collect(),
        0,
    )
}

/// Test fixture: a guarded counter whose start state's name holds a `"`:
/// `count"ing --TICK [n+1 < limit] / n+=1--> count"ing`, and
/// `count"ing --TICK ->fire--> done` (a finish state).
#[cfg(test)]
fn guarded_fixture() -> stategen_core::FlatIr {
    use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
    let mut b = stategen_core::HsmBuilder::new("counter", ["tick"]);
    let (limit, n) = (b.add_param("limit"), b.add_var("n"));
    let (counting, done) = (b.add_state("count\"ing"), b.add_state("done"));
    b.mark_final(done);
    let next = LinExpr::var(n).plus_const(1);
    let below = Guard::when(next, CmpOp::Lt, LinExpr::param(limit));
    let inc = vec![Update::Inc(n)];
    b.add_guarded_transition(counting, "tick", below, inc, counting, vec![]);
    let fire = vec![stategen_core::Action::send("fire")];
    b.add_transition(counting, "tick", done, fire);
    b.build(counting).flatten_ir()
}
