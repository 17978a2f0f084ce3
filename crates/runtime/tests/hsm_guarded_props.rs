//! The *guarded* statechart pipeline. On random guarded charts
//! (`oracle::RandomChart`, the one hierarchical recipe `hsm_props.rs`
//! draws unguarded) the direct statechart interpreter and the
//! interpreted flat IR are decided one protocol —
//!
//! ```text
//! HsmInstance (guarded) ≡ IrInstance(flatten_ir)
//! ```
//!
//! by `stategen_core::equivalent` over every reachable pair of
//! configurations, with equal configuration names and registers over
//! the pairs. That proves the guarded run-to-completion kernel
//! (innermost handler with guard fall-through, staged pre-transition
//! updates) and the candidate enumeration the flattener emits per
//! `(configuration, message)` cell implement *one* semantics. The
//! `Runtime`-served charts, compiled (unfolded) and interpreted, are
//! the operation oracle's: `guarded_batch_dispatch_matches_reference`
//! runs random charts, guarded and not, through `oracle::check`. The
//! statechart guard semantics themselves (inherited guarded transitions
//! across levels, disjoint sibling guards, update ordering around
//! exit/entry sequences) are pinned by the closed-form units at the
//! bottom.

mod oracle;

use oracle::support::decide;
use oracle::{check, flattens_exactly, random_chart, script, shards, Subject};
use proptest::prelude::*;
use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
use stategen_core::{Action, HierarchicalMachine, HsmBuilder, ProtocolEngine};
use stategen_runtime::{Engine, Spec, Tier};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The chart and its flattening are one protocol, configuration
    /// name and registers alike; both engines of the spec are one
    /// machine, and the compiled one does not walk the IR.
    #[test]
    fn guarded_flattening_preserves_behaviour(chart in random_chart(true)) {
        let (hsm, params) = (chart.build(), chart.params());
        prop_assert!(hsm.is_guarded());
        let spec = Spec::hsm_with_params(hsm.clone(), params.clone());
        let engine = Engine::compile(spec.clone())
            .expect("flattened candidate lists carry no duplicate guards");
        let lowering = format!("{engine:?}");
        prop_assert!(!lowering.contains("walked as it stands"), "{}", lowering);
        let walking = Engine::interpret(spec).expect("guarded statechart interprets");
        prop_assert_eq!(walking.tier(), Tier::Interpreted);
        prop_assert_eq!(walking.fingerprint(), engine.fingerprint());
        flattens_exactly(&hsm, &params);
    }

    /// A message outside the alphabet errors identically through the
    /// chart and its flattening, and moves neither.
    #[test]
    fn guarded_unknown_messages_agree(chart in random_chart(true)) {
        let (hsm, params) = (chart.build(), chart.params());
        let ir = hsm.flatten_ir();
        let pairs = decide(hsm.instance_with(params.clone()), ir.instance(params), &["zap"]);
        prop_assert_eq!(pairs.len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random charts, guarded (unfolded) and unguarded (dense), served
    /// every way the runtime serves a machine, against the reference.
    #[test]
    fn guarded_batch_dispatch_matches_reference(
        guarded in any::<bool>(),
        mut chart in random_chart(true),
        shards in shards(),
        ops in script(),
    ) {
        chart.budget = chart.budget.filter(|_| guarded);
        check(&Subject::hsm(chart.build(), chart.params()), shards, &ops)?;
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
