//! Property suite for the *guarded* statechart pipeline: the direct
//! statechart interpreter, the interpreted flat IR and the
//! `Runtime`-served facade — compiled and interpreted — must be
//! trace-equivalent on randomized guarded hierarchical machines —
//!
//! ```text
//! HsmInstance (guarded) ≡ IrInstance(flatten_ir)
//!                       ≡ Runtime(Engine::compile(Spec::hsm_with_params))
//!                       ≡ Runtime(Engine::interpret(Spec::hsm_with_params))
//! ```
//!
//! What that proves: the guarded run-to-completion kernel (innermost
//! handler with guard fall-through, staged pre-transition-value
//! updates), the candidate enumeration the flattener emits per
//! `(configuration, message)` cell, the unfolding of the carried
//! guards/updates (or the interpreter fallback past its budget), and
//! the facade's per-session variable registers all implement *one*
//! semantics. The statechart guard
//! semantics themselves (inherited guarded transitions across levels,
//! disjoint sibling guards, update ordering around exit/entry
//! sequences) are pinned by the closed-form units at the bottom.

use proptest::prelude::*;

use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
use stategen_core::{Action, HierarchicalMachine, HsmBuilder, HsmStateId, ProtocolEngine};
use stategen_runtime::{Engine, Spec, Tier};

/// The fixed alphabet random machines draw from.
const ALPHABET: [&str; 3] = ["m0", "m1", "m2"];

/// Flat seed data from which a random (but always valid) *guarded*
/// hierarchical machine is derived — the guarded extension of the
/// `hsm_props` recipe: per-state structure seeds, transition seeds
/// (some of which become complementary guarded pairs), a start seed and
/// the parameter value the trial binds.
#[derive(Debug, Clone)]
struct Recipe {
    states: Vec<u64>,
    transitions: Vec<(u64, u64, u64, u64)>,
    start: u64,
    budget: u64,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec(any::<u64>(), 1..=10),
        prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..=14,
        ),
        any::<u64>(),
        1u64..=3,
    )
        .prop_map(|(states, transitions, start, budget)| Recipe {
            states,
            transitions,
            start,
            budget,
        })
}

/// Materialises a recipe into a guarded machine with one parameter
/// (`budget`) and two variables (`x`, `y`).
///
/// The tree derivation matches `hsm_props` (parent among earlier
/// states, depth ≤ 3, history/entry/exit/final bits). Transition seeds
/// pick source, message and kind: unguarded external/internal/history
/// transitions as before, plus *complementary threshold pairs*
/// (`v+1 < budget` / `v+1 ≥ budget` with `Inc`/`Set` updates) and lone
/// guarded internals — every guard shape the EFSM lowering
/// distinguishes (fused thresholds on both signs, `Set` staging).
/// Builder rejections (duplicate guards, shadowed declarations) are
/// simply skipped, mirroring how a generator would probe the builder.
fn build_random_guarded_hsm(recipe: &Recipe) -> HierarchicalMachine {
    let n = recipe.states.len();
    let mut b = HsmBuilder::new("random-guarded-hsm", ALPHABET);
    let budget = b.add_param("budget");
    let vars = [b.add_var("x"), b.add_var("y")];
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
        let v = vars[(t_seed >> 4 & 1) as usize];
        let other = vars[1 - (t_seed >> 4 & 1) as usize];
        let below = Guard::when(
            LinExpr::var(v).plus_const(1),
            CmpOp::Lt,
            LinExpr::param(budget),
        );
        let at = Guard::when(
            LinExpr::var(v).plus_const(1),
            CmpOp::Ge,
            LinExpr::param(budget),
        );
        // Rejections (duplicate/shadowed declarations) are skipped.
        match kind_seed % 6 {
            0 => {
                let _ = b.try_add_internal_transition(from, message, actions);
            }
            1 if !history_comps.is_empty() => {
                let comp = history_comps[(t_seed % history_comps.len() as u64) as usize];
                let _ = b.try_add_history_transition(from, message, comp, actions);
            }
            2 => {
                let to = ids[(t_seed % n as u64) as usize];
                let _ = b.try_add_transition(from, message, to, actions);
            }
            // A lone guarded declaration: enabled only below the budget,
            // so the message falls through to inherited handlers (or is
            // absorbed) once the threshold is reached.
            3 => {
                let to = ids[(t_seed % n as u64) as usize];
                let _ = b.try_add_guarded_transition(
                    from,
                    message,
                    below.clone(),
                    vec![Update::Inc(v)],
                    to,
                    actions,
                );
            }
            // A complementary pair: both sides of the threshold are
            // reachable, exercising priority scan, fused ≤-canonical
            // checks of both signs, and Inc/Set staging.
            _ => {
                let to_low = ids[(t_seed % n as u64) as usize];
                let to_high = ids[((t_seed >> 8) % n as u64) as usize];
                let _ = b.try_add_guarded_transition(
                    from,
                    message,
                    below,
                    vec![Update::Inc(v)],
                    to_low,
                    actions.clone(),
                );
                let high_updates = if t_seed & (1 << 16) != 0 {
                    vec![Update::Set(v, LinExpr::constant(0))]
                } else {
                    vec![Update::Inc(other)]
                };
                let _ =
                    b.try_add_guarded_transition(from, message, at, high_updates, to_high, actions);
            }
        }
    }
    let start = ids[(recipe.start % n as u64) as usize];
    b.try_build(start)
        .expect("recipe-derived machines are valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The four-way equivalence on random guarded machines and traces:
    /// identical action sequences, configuration names, variable
    /// registers, completion flags and step counts at every step.
    #[test]
    fn guarded_flattening_preserves_behaviour(
        r in recipe(),
        trace in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        let hsm = build_random_guarded_hsm(&r);
        let params = vec![r.budget as i64];
        prop_assert!(hsm.is_guarded());
        let ir = hsm.flatten_ir();
        let spec = Spec::hsm_with_params(hsm.clone(), params.clone());
        let engine = Engine::compile(spec.clone())
            .expect("flattened candidate lists carry no duplicate guards");
        // On the dense table, unfolded, or — an unbounded `Inc` on the
        // `at` side of a pair — on the interpreter, saying why.
        let lowering = format!("{engine:?}");
        prop_assert!(!lowering.contains("walked as it stands"), "{}", lowering);
        let walking = Engine::interpret(spec).expect("guarded statechart interprets");
        prop_assert_eq!(walking.tier(), Tier::Interpreted);
        prop_assert_eq!(walking.fingerprint(), engine.fingerprint());

        let mut reference = hsm.instance_with(params.clone());
        let mut interp = ir.instance(params.clone());
        let mut rt = engine.runtime();
        let session = rt.spawn();
        let mut walked = walking.runtime();
        let walked_session = walked.spawn();

        prop_assert_eq!(reference.state_name(), interp.state_name());
        prop_assert_eq!(interp.state_name(), rt.state_name(session));
        for (step, &mi) in trace.iter().enumerate() {
            let name = ALPHABET[mi];
            let mid = engine.message_id(name).expect("declared message");
            let want = reference.deliver_ref(name).expect("declared message").to_vec();
            let from_interp = interp.deliver_ref(name).expect("declared message");
            prop_assert_eq!(&want, &from_interp.to_vec(), "step {}", step);
            let from_rt = rt.deliver(session, mid).to_vec();
            prop_assert_eq!(want.as_slice(), &from_rt[..], "step {}", step);
            prop_assert_eq!(want.as_slice(), walked.deliver(walked_session, mid), "step {}", step);
            prop_assert_eq!(rt.snapshot(session), walked.snapshot(walked_session), "step {}", step);
            prop_assert_eq!(reference.state_name(), interp.state_name(), "step {}", step);
            prop_assert_eq!(interp.state_name(), rt.state_name(session), "step {}", step);
            prop_assert_eq!(reference.vars(), interp.vars(), "step {}", step);
            prop_assert_eq!(interp.vars(), rt.vars(session), "step {}", step);
            prop_assert_eq!(reference.is_finished(), interp.is_finished(), "step {}", step);
            prop_assert_eq!(interp.is_finished(), rt.is_finished(session), "step {}", step);
        }
        prop_assert_eq!(reference.steps(), interp.steps());
        prop_assert_eq!(interp.steps(), rt.steps());
        prop_assert_eq!(rt.steps(), walked.steps());

        // Reset restores the initial configuration and zeroed registers
        // identically everywhere.
        reference.reset();
        interp.reset();
        rt.reset(session);
        prop_assert_eq!(reference.state_name(), interp.state_name());
        prop_assert_eq!(interp.state_name(), rt.state_name(session));
        prop_assert_eq!(reference.vars(), rt.vars(session));
        prop_assert_eq!(reference.steps(), 0);
    }

    /// Batch dispatch over the facade: a sharded `Runtime` stepping many
    /// guarded sessions in lock-step stays bit-identical to the direct
    /// interpreter receiving the same broadcast trace.
    #[test]
    fn guarded_batch_dispatch_matches_reference(
        r in recipe(),
        trace in prop::collection::vec(0usize..ALPHABET.len(), 0..24),
    ) {
        let hsm = build_random_guarded_hsm(&r);
        let params = vec![r.budget as i64];
        let engine = Engine::compile(Spec::hsm_with_params(hsm.clone(), params.clone()))
            .expect("guarded statechart compiles");
        let mut rt = engine.runtime().sharded(2);
        rt.spawn_many(6);
        let sessions: Vec<_> = (0..3).map(|_| rt.spawn()).collect();
        let mut reference = hsm.instance_with(params);
        let mut transitions = 0u64;
        for &mi in &trace {
            let mid = engine.message_id(ALPHABET[mi]).expect("declared message");
            let before = reference.steps();
            reference.deliver_ref(ALPHABET[mi]).expect("declared message");
            transitions += (reference.steps() - before) * rt.len() as u64;
            prop_assert_eq!(rt.deliver_all(mid), (reference.steps() - before) * 9);
        }
        prop_assert_eq!(rt.steps(), transitions);
        for s in sessions {
            prop_assert_eq!(rt.state_name(s), reference.state_name());
            prop_assert_eq!(rt.vars(s), reference.vars());
            prop_assert_eq!(rt.is_finished(s), reference.is_finished());
        }
    }

    /// Unknown messages error identically through every leg.
    #[test]
    fn guarded_unknown_messages_agree(r in recipe()) {
        let hsm = build_random_guarded_hsm(&r);
        let params = vec![r.budget as i64];
        let ir = hsm.flatten_ir();
        let mut reference = hsm.instance_with(params.clone());
        let mut interp = ir.instance(params);
        prop_assert_eq!(
            reference.deliver_ref("zap").map(<[Action]>::to_vec).unwrap_err(),
            interp.deliver_ref("zap").map(<[Action]>::to_vec).unwrap_err()
        );
    }
}

// ---------------------------------------------------------------------
// Guarded edge cases (satellite): targeted machines where the
// interesting behaviour is known in closed form, checked across every
// leg of the pipeline.
// ---------------------------------------------------------------------

fn send(m: &str) -> Action {
    Action::send(m)
}

/// Drives the same trace through all four engines, asserting identical
/// actions, names, variables and completion at every step, and returns
/// the reference's collected action log for closed-form assertions.
fn all_tiers_agree(
    hsm: &HierarchicalMachine,
    params: Vec<i64>,
    trace: &[&str],
) -> Vec<Vec<Action>> {
    let ir = hsm.flatten_ir();
    let spec = Spec::hsm_with_params(hsm.clone(), params.clone());
    let engine = Engine::compile(spec.clone()).expect("compiles");
    let mut reference = hsm.instance_with(params.clone());
    let mut interp = ir.instance(params.clone());
    let mut rt = engine.runtime();
    let session = rt.spawn();
    let mut walked = Engine::interpret(spec).expect("interprets").runtime();
    let walked_session = walked.spawn();
    let mut log = Vec::new();
    for m in trace {
        let mid = engine.message_id(m).expect("declared message");
        let want = reference.deliver_ref(m).expect("declared message").to_vec();
        assert_eq!(interp.deliver_ref(m).unwrap(), want.as_slice(), "at {m}");
        assert_eq!(rt.deliver(session, mid), want.as_slice(), "at {m}");
        assert_eq!(walked.deliver(walked_session, mid), want, "at {m}");
        assert_eq!(rt.snapshot(session), walked.snapshot(walked_session));
        assert_eq!(reference.state_name(), interp.state_name(), "at {m}");
        assert_eq!(interp.state_name(), rt.state_name(session), "at {m}");
        assert_eq!(reference.vars(), interp.vars(), "at {m}");
        assert_eq!(interp.vars(), rt.vars(session), "at {m}");
        assert_eq!(reference.is_finished(), rt.is_finished(session), "at {m}");
        log.push(want);
    }
    log
}

/// A guard on an *inherited cross-level* transition: declared two
/// composite levels above the active leaf, it only fires once its
/// threshold opens — and when it does, the synthesized sequence still
/// exits innermost-first through every level.
#[test]
fn guard_on_inherited_cross_level_transition() {
    let mut b = HsmBuilder::new("deep-guard", ["bump", "escape"]);
    let limit = b.add_param("limit");
    let n = b.add_var("n");
    let r = b.add_state("R");
    let m = b.add_child(r, "M");
    let l = b.add_child(m, "L");
    let out = b.add_state("Out");
    for (state, tag) in [(r, "r"), (m, "m"), (l, "l")] {
        b.on_entry(state, vec![send(&format!("e_{tag}"))]);
        b.on_exit(state, vec![send(&format!("x_{tag}"))]);
    }
    b.on_entry(out, vec![send("e_out")]);
    b.add_guarded_internal_transition(
        r,
        "bump",
        Guard::always(),
        vec![Update::Inc(n)],
        vec![send("bumped")],
    );
    // Declared on R, inherited by L, enabled only at the threshold.
    b.add_guarded_transition(
        r,
        "escape",
        Guard::when(LinExpr::var(n), CmpOp::Ge, LinExpr::param(limit)),
        vec![],
        out,
        vec![send("t")],
    );
    let hsm = b.build(r);

    let log = all_tiers_agree(
        &hsm,
        vec![2],
        &["escape", "bump", "escape", "bump", "escape"],
    );
    // Below the threshold the inherited guard is closed: no handler.
    assert_eq!(log[0], Vec::<Action>::new());
    assert_eq!(log[2], Vec::<Action>::new());
    // At n = 2 it opens, exiting L, M, R innermost-first.
    assert_eq!(
        log[4],
        vec![
            send("x_l"),
            send("x_m"),
            send("x_r"),
            send("t"),
            send("e_out")
        ]
    );
}

/// Two sibling transitions distinguished *only* by disjoint guards:
/// the cell's candidate list routes by threshold, both directions
/// reachable, across every tier.
#[test]
fn sibling_transitions_with_disjoint_guards() {
    let mut b = HsmBuilder::new("siblings", ["go", "reset"]);
    let cutoff = b.add_param("cutoff");
    let v = b.add_var("v");
    let hub = b.add_state("Hub");
    let low = b.add_state("Low");
    let high = b.add_state("High");
    b.on_entry(low, vec![send("low_in")]);
    b.on_entry(high, vec![send("high_in")]);
    b.add_guarded_transition(
        hub,
        "go",
        Guard::when(LinExpr::var(v), CmpOp::Lt, LinExpr::param(cutoff)),
        vec![Update::Inc(v)],
        low,
        vec![],
    );
    b.add_guarded_transition(
        hub,
        "go",
        Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::param(cutoff)),
        vec![],
        high,
        vec![],
    );
    b.add_transition(low, "reset", hub, vec![]);
    b.add_transition(high, "reset", hub, vec![]);
    let hsm = b.build(hub);

    let log = all_tiers_agree(
        &hsm,
        vec![2],
        &["go", "reset", "go", "reset", "go", "reset"],
    );
    // v = 0, 1: below the cutoff — routed to Low (incrementing v);
    // v = 2: the disjoint sibling wins — routed to High.
    assert_eq!(log[0], vec![send("low_in")]);
    assert_eq!(log[2], vec![send("low_in")]);
    assert_eq!(log[4], vec![send("high_in")]);
}

/// Update ordering across a synthesized exit/transition/entry sequence:
/// the updates stage against pre-transition values (no matter how many
/// exit and entry actions the flattener wraps around the transition's
/// own), and the action order stays exits ++ actions ++ entries.
#[test]
fn update_ordering_across_exit_entry_sequences() {
    let mut b = HsmBuilder::new("staged", ["hop"]);
    let x = b.add_var("x");
    let y = b.add_var("y");
    let a = b.add_state("A");
    let a1 = b.add_child(a, "A1");
    let z = b.add_state("Z");
    let z1 = b.add_child(z, "Z1");
    b.on_exit(a1, vec![send("x_a1")]);
    b.on_exit(a, vec![send("x_a")]);
    b.on_entry(z, vec![send("e_z")]);
    b.on_entry(z1, vec![send("e_z1")]);
    // A swap-with-offset across a cross-level hop: both Sets must read
    // the pre-transition registers even though the flattened transition
    // carries four synthesized actions around the hop's own.
    b.add_guarded_transition(
        a,
        "hop",
        Guard::always(),
        vec![
            Update::Set(x, LinExpr::var(y).plus_const(1)),
            Update::Set(y, LinExpr::var(x).plus_const(5)),
        ],
        z1,
        vec![send("hop")],
    );
    let hsm = b.build(a);

    let log = all_tiers_agree(&hsm, vec![], &["hop"]);
    assert_eq!(
        log[0],
        vec![
            send("x_a1"),
            send("x_a"),
            send("hop"),
            send("e_z"),
            send("e_z1"),
        ]
    );
    // Staged from (x, y) = (0, 0): x := y+1 = 1, y := x+5 = 5 — the new
    // x must not leak into y's expression on any tier (they all agreed
    // with the reference above).
    let mut reference = hsm.instance_with(vec![]);
    reference.deliver_ref("hop").unwrap();
    assert_eq!(reference.vars(), &[1, 5]);
}

/// An identical guard re-declared on an enclosing state is dead code in
/// the cells where the inner one applies — the flattener must drop it
/// (the compiler would reject the duplicate) while keeping it live for
/// leaves that only inherit the outer declaration.
#[test]
fn inherited_identical_guard_is_dropped_not_rejected() {
    let mut b = HsmBuilder::new("shadowed", ["go"]);
    let p = b.add_param("p");
    let v = b.add_var("v");
    let top = b.add_state("Top");
    let inner = b.add_child(top, "Inner");
    let plain = b.add_child(top, "Plain");
    let won = b.add_state("InnerWon");
    let outer = b.add_state("OuterWon");
    let g = Guard::when(LinExpr::var(v), CmpOp::Lt, LinExpr::param(p));
    b.add_guarded_transition(inner, "go", g.clone(), vec![Update::Inc(v)], won, vec![]);
    b.add_guarded_transition(top, "go", g, vec![Update::Inc(v)], outer, vec![]);
    b.add_transition(won, "go", plain, vec![]);
    let hsm = b.build(top);

    // From Inner the inner declaration wins; from Plain (which only
    // inherits the outer one) the outer fires. Both lower and agree.
    let log = all_tiers_agree(&hsm, vec![3], &["go", "go", "go"]);
    assert_eq!(log.len(), 3);
    let mut reference = hsm.instance_with(vec![3]);
    reference.deliver_ref("go").unwrap();
    assert_eq!(reference.state_name(), "InnerWon");
    reference.deliver_ref("go").unwrap(); // InnerWon -> Top.Plain
    assert_eq!(reference.state_name(), "Top.Plain");
    reference.deliver_ref("go").unwrap(); // inherited outer declaration
    assert_eq!(reference.state_name(), "OuterWon");
}

/// The guarded worked model rides the whole pipeline: the retry-budget
/// session lifecycle agrees across every tier on a trace that spends
/// the budget, escalates, recovers and closes.
#[test]
fn guarded_session_lifecycle_rides_the_whole_pipeline() {
    let hsm = stategen_models::session_lifecycle_guarded();
    let trace = [
        "connect", "update", "ping", "abort", "update", "vote", "suspend", "resume", "vote",
        "commit", "update", "abort", "update", "abort", "recover", "update", "vote", "commit",
        "close", "connect",
    ];
    for budget in 1..4 {
        all_tiers_agree(&hsm, vec![budget], &trace);
    }
    // And the unguarded lifecycle still lowers to the dense tier.
    let plain = Engine::compile(Spec::hierarchical(stategen_models::session_lifecycle()))
        .expect("unguarded statechart compiles");
    assert_eq!(plain.tier(), Tier::Compiled);
}
