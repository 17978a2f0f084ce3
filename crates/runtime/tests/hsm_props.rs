//! The hierarchical layer decided: on random statecharts
//! (`oracle::RandomChart`, unguarded here, guarded in
//! `hsm_guarded_props.rs`) the direct statechart interpreter and the
//! interpreted flattened machine are one protocol —
//! `HsmInstance ≡ IrInstance(flatten_ir(hsm))`, by
//! `stategen_core::equivalent` over every reachable pair of
//! configurations, with equal configuration names over the pairs.
//! `flatten_ir` emits only reachable states, the flattened machine is
//! deny-clean, and it compiles onto the dense table, whose serving is
//! the operation oracle's job (`hsm_guarded_props`'s
//! `guarded_batch_dispatch_matches_reference` runs random charts of
//! both kinds through it).
//!
//! The interpreter and the flattener deliberately share the
//! run-to-completion kernel (`step_config` — one semantics, two
//! execution strategies), so the decision pins everything *around* it:
//! configuration enumeration (BFS over leaf × history memory),
//! flat-state naming and deduplication and transition-table
//! construction. The statechart semantics themselves (exit/entry
//! ordering, inheritance, history recording) are pinned by closed-form
//! unit tests — here (history into a composite whose initial child was
//! pruned, transitions inherited across ≥3 nesting levels, entry/exit
//! ordering on cross-level transitions) and in the `hsm` module's own
//! tests — which assert exact action sequences and configuration names.

mod oracle;

use oracle::support::decide;
use oracle::{flattens_exactly, random_chart};
use proptest::prelude::*;
use stategen_analysis::{analyze, AnalysisConfig};
use stategen_core::{Action, CompiledMachine, HsmBuilder, Lint, ProtocolEngine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The flattened machine is deny-clean, compiles onto the dense
    /// table, and is the statechart, configuration name for name.
    #[test]
    fn flattening_preserves_behaviour(chart in random_chart(false)) {
        let hsm = chart.build();
        let ir = hsm.flatten_ir();
        let analysis = analyze(&ir, &AnalysisConfig::new());
        prop_assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
        // A random chart may well have a leaf with no transitions, so
        // `dead-end-state` may fire; the other structural lints may not.
        for lint in [
            Lint::FinalWithOutgoing,
            Lint::UnreachableState,
            Lint::DuplicateStateName,
        ] {
            prop_assert!(!analysis.has(lint), "{:?}", analysis.diagnostics);
        }
        CompiledMachine::compile_ir(&ir).unwrap();
        flattens_exactly(&hsm, &[]);
    }

    /// The flattening BFS enumerates exactly the reachable
    /// configurations: every state of the flat IR is reachable from its
    /// start, so pruning it would remove nothing.
    #[test]
    fn flatten_emits_only_reachable_states(chart in random_chart(false)) {
        let flat = chart.build().flatten_ir();
        let mut reached = vec![false; flat.state_count()];
        let mut stack = vec![flat.start()];
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut reached[s as usize], true) {
                stack.extend(flat.states()[s as usize].transitions().iter().map(|t| t.target()));
            }
        }
        prop_assert!(reached.iter().all(|&r| r), "{} states", flat.state_count());
    }

    /// A message outside the alphabet errors identically through the
    /// statechart and its flattening, and moves neither.
    #[test]
    fn unknown_messages_agree(chart in random_chart(false)) {
        let hsm = chart.build();
        let flat = hsm.flatten_ir();
        prop_assert_eq!(decide(hsm.instance(), flat.instance(vec![]), &["zap"]).len(), 1);
    }
}

// ---------------------------------------------------------------------
// Flattening edge cases (satellite): targeted machines where the
// interesting behaviour is known in closed form.
// ---------------------------------------------------------------------

fn send(m: &str) -> Action {
    Action::send(m)
}

/// History into a composite whose initial child was pruned: the only
/// transition into `C` jumps straight to child `B`, so no reachable
/// configuration ever activates the initial child `A` — the flattening
/// BFS must not materialise it — yet history re-entry (which can only
/// ever observe memory `B`) still works.
#[test]
fn history_into_composite_with_pruned_initial_child() {
    let mut b = HsmBuilder::new("pruned-initial", ["in", "out", "back"]);
    let s = b.add_state("S");
    let c = b.add_state("C");
    let a = b.add_child(c, "A"); // initial child, never entered
    let bb = b.add_child(c, "B");
    let out = b.add_state("Out");
    b.enable_history(c);
    b.on_entry(a, vec![send("a_in")]);
    b.on_entry(bb, vec![send("b_in")]);
    b.add_transition(s, "in", bb, vec![]); // cross-level: skips A
    b.add_transition(c, "out", out, vec![]);
    b.add_history_transition(out, "back", c, vec![]);
    let hsm = b.build(s);

    let flat = hsm.flatten_ir();
    let has = |name: &str| flat.states().iter().any(|s| s.name() == name);
    // Configurations: (S, A) start, (C.B, A), (Out, B), (C.B, B) — and
    // none with leaf A: the initial child is pruned by reachability.
    assert_eq!(flat.state_count(), 4);
    assert!(!has("C.A"));
    assert!(flat.states().iter().all(|s| !s.name().contains("C.A")));
    assert!(has("Out~C=B"));

    flattens_exactly(&hsm, &[]);
    let mut reference = hsm.instance();
    for msg in ["in", "out", "back", "out", "back"] {
        reference.deliver_ref(msg).unwrap();
    }
    // History restored B (the only memory ever recorded), firing C and
    // B entry actions.
    assert_eq!(reference.state_name(), "C.B~C=B");
}

/// A transition declared three composite levels above the active leaf
/// still fires, exiting innermost-first through every level.
#[test]
fn transition_inherited_across_three_levels() {
    let mut b = HsmBuilder::new("deep-inherit", ["top", "noop"]);
    let r = b.add_state("R");
    let m = b.add_child(r, "M");
    let i = b.add_child(m, "I");
    let l = b.add_child(i, "L");
    let out = b.add_state("Out");
    for (state, tag) in [(r, "r"), (m, "m"), (i, "i"), (l, "l")] {
        b.on_entry(state, vec![send(&format!("e_{tag}"))]);
        b.on_exit(state, vec![send(&format!("x_{tag}"))]);
    }
    b.on_entry(out, vec![send("e_out")]);
    b.add_transition(r, "top", out, vec![send("t")]);
    let hsm = b.build(r);

    let mut reference = hsm.instance();
    assert_eq!(reference.state_name(), "R.M.I.L");
    assert_eq!(
        reference.deliver_ref("top").unwrap(),
        [
            send("x_l"),
            send("x_i"),
            send("x_m"),
            send("x_r"),
            send("t"),
            send("e_out")
        ]
    );
    assert_eq!(reference.state_name(), "Out");

    flattens_exactly(&hsm, &[]);
    // The deep start configuration lowers to a single flat state named
    // by its full path; `noop` is applicable nowhere.
    let ir = hsm.flatten_ir();
    assert!(ir.states().iter().any(|s| s.name() == "R.M.I.L"));
    assert!(ir.instance(vec![]).deliver_ref("noop").unwrap().is_empty());
}

/// Cross-level transition between two nested composites: exits run
/// innermost-first up the source branch, then the transition's own
/// actions, then entries outermost-first down the target branch.
#[test]
fn entry_exit_ordering_on_cross_level_transitions() {
    let mut b = HsmBuilder::new("cross", ["jump", "up"]);
    let a = b.add_state("A");
    let a1 = b.add_child(a, "A1");
    let a1a = b.add_child(a1, "A1a");
    let bb = b.add_state("B");
    let b1 = b.add_child(bb, "B1");
    let b1b = b.add_child(b1, "B1b");
    for (state, tag) in [
        (a, "a"),
        (a1, "a1"),
        (a1a, "a1a"),
        (bb, "b"),
        (b1, "b1"),
        (b1b, "b1b"),
    ] {
        b.on_entry(state, vec![send(&format!("e_{tag}"))]);
        b.on_exit(state, vec![send(&format!("x_{tag}"))]);
    }
    b.add_transition(a1a, "jump", b1b, vec![send("t")]);
    b.add_transition(b1b, "up", bb, vec![send("u")]); // target is own ancestor
    let hsm = b.build(a);

    let mut reference = hsm.instance();
    assert_eq!(
        reference.deliver_ref("jump").unwrap(),
        [
            send("x_a1a"),
            send("x_a1"),
            send("x_a"),
            send("t"),
            send("e_b"),
            send("e_b1"),
            send("e_b1b"),
        ]
    );
    assert_eq!(reference.state_name(), "B.B1.B1b");
    // Targeting an ancestor exits and re-enters it (external
    // semantics), descending back through initial children.
    assert_eq!(
        reference.deliver_ref("up").unwrap(),
        [
            send("x_b1b"),
            send("x_b1"),
            send("x_b"),
            send("u"),
            send("e_b"),
            send("e_b1"),
            send("e_b1b"),
        ]
    );
    flattens_exactly(&hsm, &[]);
}
