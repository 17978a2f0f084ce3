//! Property suite for the hierarchical layer: the direct statechart
//! interpreter, the interpreted flattened machine and the compiled
//! flattened machine must be trace-equivalent on randomized
//! hierarchical machines — `HsmInstance ≡ IrInstance(flatten_ir(hsm)) ≡
//! Runtime(compile(flatten(hsm)))`.
//!
//! What that proves, precisely: the interpreter and the flattener
//! deliberately share the run-to-completion kernel (`step_config` —
//! one semantics, two execution strategies), so the equivalence
//! properties pin everything *around* it — configuration enumeration
//! (BFS over leaf × history memory), flat-state naming and
//! deduplication, transition-table construction, dense-table
//! compilation and session batching. The statechart semantics
//! themselves (exit/entry ordering, inheritance, history recording)
//! are pinned by closed-form unit tests — here (history into a
//! composite whose initial child was pruned, transitions inherited
//! across ≥3 nesting levels, entry/exit ordering on cross-level
//! transitions) and in the `hsm` module's own tests — which assert
//! exact action sequences and configuration names.

use proptest::prelude::*;

use stategen_analysis::{analyze, AnalysisConfig};
use stategen_core::{
    Action, CompiledMachine, HierarchicalMachine, HsmBuilder, HsmStateId, Lint, ProtocolEngine,
};
use stategen_runtime::Spec;

/// The fixed alphabet random machines draw from.
const ALPHABET: [&str; 3] = ["m0", "m1", "m2"];

/// Flat seed data from which a random (but always valid) hierarchical
/// machine is derived: per-state structure seeds, transition seeds and
/// a start-state seed. Deriving the tree from flat integers keeps the
/// generator inside the offline proptest shim's combinator subset.
#[derive(Debug, Clone)]
struct HsmRecipe {
    states: Vec<u64>,
    transitions: Vec<(u64, u64, u64, u64)>,
    start: u64,
}

fn recipe() -> impl Strategy<Value = HsmRecipe> {
    (
        prop::collection::vec(any::<u64>(), 1..=10),
        prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..=14,
        ),
        any::<u64>(),
    )
        .prop_map(|(states, transitions, start)| HsmRecipe {
            states,
            transitions,
            start,
        })
}

/// Materialises a recipe into a machine.
///
/// State `i`'s seed picks a parent among states `0..i` (or top level),
/// capped at depth 3, and supplies history / entry / exit / final bits;
/// transition seeds pick source, message, kind (internal, external,
/// history) and target. All invariants hold by construction, so
/// `try_build` only fails on a generator bug.
fn build_random_hsm(recipe: &HsmRecipe) -> HierarchicalMachine {
    let n = recipe.states.len();
    let mut b = HsmBuilder::new("random-hsm", ALPHABET);
    let mut ids: Vec<HsmStateId> = Vec::with_capacity(n);
    let mut depth: Vec<u32> = Vec::with_capacity(n);
    let mut children = vec![0usize; n];
    for (i, &seed) in recipe.states.iter().enumerate() {
        let parent_pick = (seed % (i as u64 + 1)) as usize;
        let (id, d) = if i == 0 || parent_pick == i || depth[parent_pick] >= 3 {
            (b.add_state(format!("s{i}")), 0)
        } else {
            children[parent_pick] += 1;
            (
                b.add_child(ids[parent_pick], format!("s{i}")),
                depth[parent_pick] + 1,
            )
        };
        ids.push(id);
        depth.push(d);
    }
    // Structure bits are only meaningful once the tree shape is known:
    // history needs a composite, final needs a leaf.
    let mut history_comps = Vec::new();
    for (i, &seed) in recipe.states.iter().enumerate() {
        let is_composite = children[i] > 0;
        if is_composite && seed & (1 << 8) != 0 {
            b.enable_history(ids[i]);
            history_comps.push(ids[i]);
        }
        if seed & (1 << 9) != 0 {
            b.on_entry(ids[i], vec![Action::send(format!("enter{i}"))]);
        }
        if seed & (1 << 10) != 0 {
            b.on_exit(ids[i], vec![Action::send(format!("exit{i}"))]);
        }
        if !is_composite && seed & (3 << 11) == 3 << 11 {
            b.mark_final(ids[i]);
        }
    }
    for &(s_seed, m_seed, kind_seed, t_seed) in &recipe.transitions {
        let from = ids[(s_seed % n as u64) as usize];
        let message = ALPHABET[(m_seed % ALPHABET.len() as u64) as usize];
        let actions: Vec<Action> = (0..kind_seed >> 4 & 3)
            .map(|k| Action::send(format!("a{k}")))
            .collect();
        // Duplicate (state, message) picks are simply skipped, mirroring
        // how a generator would probe the builder.
        let _ = match kind_seed % 4 {
            0 => b.try_add_internal_transition(from, message, actions),
            3 if !history_comps.is_empty() => {
                let comp = history_comps[(t_seed % history_comps.len() as u64) as usize];
                b.try_add_history_transition(from, message, comp, actions)
            }
            _ => {
                let to = ids[(t_seed % n as u64) as usize];
                b.try_add_transition(from, message, to, actions)
            }
        };
    }
    let start = ids[(recipe.start % n as u64) as usize];
    b.try_build(start)
        .expect("recipe-derived machines are valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The semantic reference (direct statechart interpreter), the
    /// interpreted flattened machine and the compiled flattened machine
    /// (single instance and batched session) emit identical action
    /// sequences, visit identically named configurations and agree on
    /// completion and step counts for any random machine and trace.
    #[test]
    fn flattening_preserves_behaviour(
        r in recipe(),
        trace in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        let hsm = build_random_hsm(&r);
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
        let compiled = CompiledMachine::compile_ir(&ir).unwrap();

        let mut reference = hsm.instance();
        let mut interp = ir.instance(vec![]);
        let mut rt = Spec::hierarchical(hsm.clone()).compile().expect("compiles").runtime();
        let (fast, other) = (rt.spawn(), rt.spawn());
        prop_assert_eq!(reference.state_name(), interp.state_name());
        for (step, &mi) in trace.iter().enumerate() {
            let name = ALPHABET[mi];
            let mid = compiled.message_id(name).expect("declared message");
            let want = reference.deliver_ref(name).expect("declared message").to_vec();
            let from_interp = interp.deliver_ref(name).expect("declared message");
            prop_assert_eq!(&want, &from_interp.to_vec(), "step {}", step);
            let from_fast = rt.session(fast).deliver(name).expect("declared message");
            prop_assert_eq!(&want, &from_fast, "step {}", step);
            let from_table = compiled.step(rt.state(other), mid).map_or(&[][..], |t| t.1);
            prop_assert_eq!(want.as_slice(), from_table, "step {}", step);
            prop_assert_eq!(want.as_slice(), rt.deliver(other, mid), "step {}", step);
            prop_assert_eq!(reference.state_name(), interp.state_name(), "step {}", step);
            prop_assert_eq!(&*interp.state_name(), rt.state_name(fast), "step {}", step);
            prop_assert_eq!(rt.state(fast), rt.state(other), "step {}", step);
            prop_assert_eq!(reference.is_finished(), interp.is_finished(), "step {}", step);
            prop_assert_eq!(interp.is_finished(), rt.is_finished(fast), "step {}", step);
        }
        prop_assert_eq!(reference.steps(), interp.steps());
        prop_assert_eq!(2 * interp.steps(), rt.steps());

        // Reset restores the initial configuration identically.
        reference.reset();
        interp.reset();
        prop_assert_eq!(reference.state_name(), interp.state_name());
        prop_assert_eq!(reference.steps(), 0);
    }

    /// The flattening BFS enumerates exactly the reachable
    /// configurations: every state of the flat IR is reachable from its
    /// start, so pruning it would remove nothing.
    #[test]
    fn flatten_emits_only_reachable_states(r in recipe()) {
        let hsm = build_random_hsm(&r);
        let flat = hsm.flatten_ir();
        let mut reached = vec![false; flat.state_count()];
        let mut stack = vec![flat.start()];
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut reached[s as usize], true) {
                stack.extend(flat.states()[s as usize].transitions().iter().map(|t| t.target()));
            }
        }
        prop_assert!(reached.iter().all(|&r| r), "{} states", flat.state_count());
    }

    /// Unknown messages error identically through the reference
    /// interpreter and the flat engines.
    #[test]
    fn unknown_messages_agree(r in recipe()) {
        let hsm = build_random_hsm(&r);
        let flat = hsm.flatten_ir();
        let mut reference = hsm.instance();
        let mut interp = flat.instance(vec![]);
        prop_assert_eq!(
            reference.deliver_ref("zap").map(<[Action]>::to_vec).unwrap_err(),
            interp.deliver_ref("zap").map(<[Action]>::to_vec).unwrap_err()
        );
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

    let ir = hsm.flatten_ir();
    let mut reference = hsm.instance();
    let mut interp = ir.instance(vec![]);
    for msg in ["in", "out", "back", "out", "back"] {
        let want = reference.deliver_ref(msg).unwrap().to_vec();
        assert_eq!(
            interp.deliver_ref(msg).unwrap(),
            want.as_slice(),
            "at {msg}"
        );
        assert_eq!(reference.state_name(), interp.state_name(), "at {msg}");
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

    let ir = hsm.flatten_ir();
    let mut interp = ir.instance(vec![]);
    assert_eq!(
        interp.deliver_ref("top").unwrap(),
        [
            send("x_l"),
            send("x_i"),
            send("x_m"),
            send("x_r"),
            send("t"),
            send("e_out")
        ]
    );
    // The deep start configuration lowers to a single flat state named
    // by its full path; `noop` is applicable nowhere.
    assert!(ir.states().iter().any(|s| s.name() == "R.M.I.L"));
    assert!(interp.deliver_ref("noop").unwrap().is_empty());
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

    let mut rt = Spec::hierarchical(hsm.clone()).compile().unwrap().runtime();
    let id = rt.spawn();
    let mut fast = rt.session(id);
    reference.reset();
    for msg in ["jump", "up", "jump", "up"] {
        let want = reference.deliver_ref(msg).unwrap().to_vec();
        assert_eq!(fast.deliver_ref(msg).unwrap(), want.as_slice(), "at {msg}");
        assert_eq!(reference.state_name(), fast.state_name(), "at {msg}");
    }
}
