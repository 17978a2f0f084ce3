//! Hierarchy-aware diagram renderers for
//! [`HierarchicalMachine`]s.
//!
//! The flat renderers ([`render_dot`](crate::render_dot),
//! [`render_mermaid`](crate::render_mermaid)) draw the *flattened*
//! machine — one node per reachable configuration, useful for seeing
//! exactly what the execution tiers run. These renderers draw the
//! statechart as authored: composites become DOT `cluster` subgraphs /
//! Mermaid composite states, shallow-history pseudostates are drawn
//! inside their composites, and inherited transitions are drawn once on
//! the composite that declares them.

use std::fmt::Write as _;

use stategen_core::{HierarchicalMachine, HsmStateId, HsmTarget, StateRole};

use crate::dot::escape;
use crate::labels::Names;
use crate::mermaid;

/// The representative node of a state: itself for leaves, the leaf
/// reached by descending through initial children for composites (DOT
/// edges cannot terminate on a cluster, so they anchor on this leaf
/// with `lhead`/`ltail` pointing at the cluster border).
fn representative(machine: &HierarchicalMachine, id: HsmStateId) -> HsmStateId {
    let mut cur = id;
    while let Some(init) = machine.state(cur).initial() {
        cur = init;
    }
    cur
}

fn dot_node_label(machine: &HierarchicalMachine, id: HsmStateId) -> String {
    let state = machine.state(id);
    let mut label = escape(state.name());
    for a in state.entry_actions() {
        let _ = write!(label, "\\nentry / ->{}", escape(a.message()));
    }
    for a in state.exit_actions() {
        let _ = write!(label, "\\nexit / ->{}", escape(a.message()));
    }
    label
}

fn render_dot_state(
    machine: &HierarchicalMachine,
    id: HsmStateId,
    indent: usize,
    out: &mut String,
) {
    let pad = "    ".repeat(indent);
    let state = machine.state(id);
    if state.is_leaf() {
        let shape = match state.role() {
            StateRole::Finish => ", peripheries=2",
            StateRole::Normal => "",
        };
        let _ = writeln!(
            out,
            "{pad}s{} [label=\"{}\"{shape}];",
            id.index(),
            dot_node_label(machine, id)
        );
        return;
    }
    let _ = writeln!(out, "{pad}subgraph cluster_{} {{", id.index());
    let _ = writeln!(out, "{pad}    label=\"{}\";", dot_node_label(machine, id));
    let _ = writeln!(out, "{pad}    style=rounded;");
    if state.has_history() {
        let _ = writeln!(
            out,
            "{pad}    h{} [label=\"H\", shape=circle, fontsize=8, width=0.2];",
            id.index()
        );
    }
    for &child in state.children() {
        render_dot_state(machine, child, indent + 1, out);
    }
    let _ = writeln!(out, "{pad}}}");
}

/// Renders the statechart as a Graphviz DOT document with one `cluster`
/// subgraph per composite state (using `compound=true` so transitions
/// can start and end at cluster borders), `H` pseudostate nodes for
/// shallow history, and dashed self-loops for internal transitions.
pub fn render_hsm_dot(machine: &HierarchicalMachine) -> String {
    let names = Names::new(machine.variables(), machine.params());
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(machine.name()));
    out.push_str("    rankdir=LR;\n    compound=true;\n");
    out.push_str("    node [shape=box, style=rounded, fontsize=10, fontname=\"Helvetica\"];\n");
    out.push_str("    edge [fontsize=9, fontname=\"Helvetica\"];\n");
    out.push_str("    __start [shape=point];\n");
    for id in machine.top_level() {
        render_dot_state(machine, id, 1, &mut out);
    }

    let start_repr = representative(machine, machine.start());
    let start_attr = if machine.state(machine.start()).is_leaf() {
        String::new()
    } else {
        format!(" [lhead=cluster_{}]", machine.start().index())
    };
    let _ = writeln!(out, "    __start -> s{}{};", start_repr.index(), start_attr);

    for (id, state) in machine.states_with_ids() {
        let tail_repr = representative(machine, id);
        let tail_attr = if state.is_leaf() {
            String::new()
        } else {
            format!(", ltail=cluster_{}", id.index())
        };
        for (mid, t) in state.transitions() {
            let message = &machine.messages()[mid.index()];
            let mut label = names.dot_label(message, t.guard(), t.updates(), t.actions());
            let (head, head_attr, style) = match t.target() {
                HsmTarget::Internal => {
                    label.push_str("\\n(internal)");
                    (
                        format!("s{}", tail_repr.index()),
                        String::new(),
                        ", style=dashed",
                    )
                }
                HsmTarget::History(c) => (format!("h{}", c.index()), String::new(), ""),
                HsmTarget::State(to) => {
                    let head_attr = if machine.state(to).is_leaf() {
                        String::new()
                    } else {
                        format!(", lhead=cluster_{}", to.index())
                    };
                    (
                        format!("s{}", representative(machine, to).index()),
                        head_attr,
                        "",
                    )
                }
            };
            let _ = writeln!(
                out,
                "    s{} -> {} [label=\"{}\"{}{}{}];",
                tail_repr.index(),
                head,
                label,
                tail_attr,
                head_attr,
                style
            );
        }
    }
    out.push_str("}\n");
    out
}

fn render_mermaid_state(
    machine: &HierarchicalMachine,
    id: HsmStateId,
    indent: usize,
    out: &mut String,
) {
    let pad = "    ".repeat(indent);
    let state = machine.state(id);
    if state.is_leaf() {
        let mut label = mermaid::escape(state.name());
        for a in state.entry_actions() {
            let _ = write!(label, " [entry ->{}]", mermaid::escape(a.message()));
        }
        for a in state.exit_actions() {
            let _ = write!(label, " [exit ->{}]", mermaid::escape(a.message()));
        }
        let _ = writeln!(out, "{pad}s{} : {}", id.index(), label);
        return;
    }
    let name = mermaid::escape(state.name());
    let _ = writeln!(out, "{pad}state \"{name}\" as s{} {{", id.index());
    let init = state.initial().expect("composites have an initial child");
    let _ = writeln!(out, "{pad}    [*] --> s{}", init.index());
    for &child in state.children() {
        render_mermaid_state(machine, child, indent + 1, out);
    }
    let _ = writeln!(out, "{pad}}}");
}

/// Renders the statechart as a Mermaid `stateDiagram-v2` with composite
/// states as nested blocks, `[*]` markers for each composite's initial
/// child, `[H]`-suffixed edges for shallow-history targets and
/// `(internal)`-suffixed self-loops for internal transitions.
pub fn render_hsm_mermaid(machine: &HierarchicalMachine) -> String {
    let names = Names::new(machine.variables(), machine.params());
    let mut out = String::from("stateDiagram-v2\n");
    for id in machine.top_level() {
        render_mermaid_state(machine, id, 1, &mut out);
    }
    let _ = writeln!(out, "    [*] --> s{}", machine.start().index());
    for (id, state) in machine.states_with_ids() {
        for (mid, t) in state.transitions() {
            let message = &machine.messages()[mid.index()];
            let mut label = names.mermaid_label(message, t.guard(), t.updates(), t.actions());
            let to = match t.target() {
                HsmTarget::Internal => {
                    label.push_str(" (internal)");
                    id
                }
                HsmTarget::History(c) => {
                    label.push_str(" [H]");
                    c
                }
                HsmTarget::State(to) => to,
            };
            let _ = writeln!(out, "    s{} --> s{} : {}", id.index(), to.index(), label);
        }
        if state.role() == StateRole::Finish {
            let _ = writeln!(out, "    s{} --> [*]", id.index());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_core::{Action, HsmBuilder};

    fn sample() -> HierarchicalMachine {
        let mut b = HsmBuilder::new("life", ["go", "stop", "back", "ping"]);
        let idle = b.add_state("Idle");
        let run = b.add_state("Run");
        let a = b.add_child(run, "A");
        let bb = b.add_child(run, "B");
        let done = b.add_state("Done");
        b.mark_final(done);
        b.enable_history(run);
        b.on_entry(run, vec![Action::send("up")]);
        b.on_exit(a, vec![Action::send("bye")]);
        b.add_transition(idle, "go", run, vec![Action::send("syn")]);
        b.add_transition(a, "go", bb, vec![]);
        b.add_transition(run, "stop", done, vec![]);
        b.add_history_transition(idle, "back", run, vec![]);
        b.add_internal_transition(run, "ping", vec![Action::send("pong")]);
        b.build(idle)
    }

    #[test]
    fn dot_clusters_and_pseudostates() {
        let out = render_hsm_dot(&sample());
        assert!(out.starts_with("digraph \"life\" {"));
        assert!(out.contains("compound=true;"));
        assert!(out.contains("subgraph cluster_1 {"));
        assert!(out.contains("label=\"Run\\nentry / ->up\";"));
        assert!(out.contains("h1 [label=\"H\""));
        assert!(out.contains("s2 [label=\"A\\nexit / ->bye\"];"));
        assert!(out.contains("s4 [label=\"Done\", peripheries=2];"));
        // Entering a composite anchors on its initial leaf with lhead.
        assert!(out.contains("s0 -> s2 [label=\"GO\\n->syn\", lhead=cluster_1];"));
        // Leaving a composite anchors on its representative with ltail.
        assert!(out.contains("s2 -> s4 [label=\"STOP\", ltail=cluster_1];"));
        // History transitions point at the H pseudostate.
        assert!(out.contains("s0 -> h1 [label=\"BACK\"];"));
        // Internal transitions are dashed self-loops.
        assert!(out.contains(
            "s2 -> s2 [label=\"PING\\n->pong\\n(internal)\", ltail=cluster_1, style=dashed];"
        ));
        assert!(out.contains("__start -> s0;"));
        assert!(out.trim_end().ends_with('}'));
    }

    fn guarded_sample() -> HierarchicalMachine {
        use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
        let mut b = HsmBuilder::new("budgeted", ["go", "fail"]);
        let max = b.add_param("max");
        let tries = b.add_var("tries");
        let idle = b.add_state("Idle");
        let busy = b.add_state("Busy");
        let down = b.add_state("Down");
        b.add_transition(idle, "go", busy, vec![]);
        b.add_guarded_transition(
            busy,
            "fail",
            Guard::when(
                LinExpr::var(tries).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(max),
            ),
            vec![Update::Inc(tries)],
            busy,
            vec![Action::send("retry")],
        );
        b.add_guarded_transition(
            busy,
            "fail",
            Guard::when(
                LinExpr::var(tries).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(max),
            ),
            vec![Update::Set(tries, LinExpr::constant(0))],
            down,
            vec![],
        );
        b.build(idle)
    }

    #[test]
    fn dot_renders_guard_and_update_annotations() {
        let out = render_hsm_dot(&guarded_sample());
        // Both guarded variants of the cell are drawn, each with its
        // guard bracket and update clause on the label.
        assert!(
            out.contains("s1 -> s1 [label=\"FAIL\\n[tries+1 < max]\\n/ tries+=1\\n->retry\"];"),
            "{out}"
        );
        assert!(
            out.contains("s1 -> s2 [label=\"FAIL\\n[tries+1 >= max]\\n/ tries:=0\"];"),
            "{out}"
        );
        // Unguarded transitions keep their plain labels.
        assert!(out.contains("s0 -> s1 [label=\"GO\"];"));
    }

    #[test]
    fn mermaid_renders_guard_and_update_annotations() {
        let out = render_hsm_mermaid(&guarded_sample());
        assert!(
            out.contains("    s1 --> s1 : FAIL [tries+1 < max] / tries+=1, retry\n"),
            "{out}"
        );
        assert!(
            out.contains("    s1 --> s2 : FAIL [tries+1 >= max] / tries#58;=0\n"),
            "{out}"
        );
        assert!(out.contains("    s0 --> s1 : GO\n"));
    }

    #[test]
    fn mermaid_composites_and_history() {
        let out = render_hsm_mermaid(&sample());
        assert!(out.starts_with("stateDiagram-v2\n"));
        assert!(out.contains("    state \"Run\" as s1 {"));
        assert!(out.contains("        [*] --> s2\n"));
        assert!(out.contains("        s2 : A [exit ->bye]\n"));
        assert!(out.contains("    [*] --> s0\n"));
        assert!(out.contains("    s0 --> s1 : GO / syn\n"));
        assert!(out.contains("    s0 --> s1 : BACK [H]\n"));
        assert!(out.contains("    s1 --> s1 : PING / pong (internal)\n"));
        assert!(out.contains("    s4 --> [*]\n"));
    }
}
