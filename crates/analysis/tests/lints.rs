//! The seeded defect corpus: for every lint in the catalog, at least
//! one machine that triggers it and one near-miss that must not — the
//! analyzer's false-positive/false-negative pinning suite.

use stategen_analysis::{analyze, analyze_bound, minimize, Analysis, AnalysisConfig};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    Action, FlatIr, FlatState, FlatTransition, HierarchicalMachine, HsmBuilder, Level, Lint,
    StateMachineBuilder, StateRole,
};

fn run(ir: &FlatIr) -> Analysis {
    analyze(ir, &AnalysisConfig::new())
}

/// Builds an unguarded IR from explicit states (full control over the
/// shapes `StateMachineBuilder` refuses to produce).
fn raw(messages: &[&str], states: Vec<FlatState>, start: u32) -> FlatIr {
    FlatIr::from_parts(
        "defect",
        messages.iter().map(|m| m.to_string()).collect(),
        vec![],
        vec![],
        states,
        start,
    )
}

fn t(message: usize, target: u32) -> FlatTransition {
    FlatTransition::new(message, Guard::always(), vec![], vec![], target)
}

fn t_act(message: usize, action: &str, target: u32) -> FlatTransition {
    FlatTransition::new(
        message,
        Guard::always(),
        vec![],
        vec![Action::send(action)],
        target,
    )
}

// ---- final-with-outgoing ------------------------------------------------

#[test]
fn final_with_outgoing_triggers() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![t(0, 0)]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(analysis.has(Lint::FinalWithOutgoing));
    // Deny by default: the gate rejects the machine.
    assert!(!analysis.is_clean());
    assert!(analysis.check().is_err());
    // The impossible transition is also dead.
    assert!(analysis.has(Lint::DeadTransition));
}

#[test]
fn final_without_outgoing_does_not_trigger() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(!analysis.has(Lint::FinalWithOutgoing));
    assert!(analysis.is_clean());
    assert!(analysis.check().is_ok());
}

// ---- unreachable-state --------------------------------------------------

#[test]
fn unreachable_state_triggers() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
            FlatState::new("orphan", StateRole::Normal, vec![t(0, 1)]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert_eq!(analysis.count(Lint::UnreachableState), 1);
    assert!(!analysis.reachable[2]);
    // Its transitions are dead too.
    assert!(analysis.has(Lint::DeadTransition));
    // Warn by default: reported, not gated.
    assert!(analysis.is_clean());
}

#[test]
fn reachable_states_do_not_trigger() {
    let ir = raw(
        &["a", "b"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1), t(1, 2)]),
            FlatState::new("s1", StateRole::Normal, vec![t(0, 2)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(!analysis.has(Lint::UnreachableState));
    assert!(analysis.reachable.iter().all(|&r| r));
}

// ---- dead-end-state -----------------------------------------------------

#[test]
fn dead_end_state_triggers() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("stuck", StateRole::Normal, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(analysis.has(Lint::DeadEndState));
}

#[test]
fn final_dead_end_does_not_trigger() {
    // The same shape marked final is the *correct* absorbing end.
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("done", StateRole::Finish, vec![]),
        ],
        0,
    );
    assert!(!run(&ir).has(Lint::DeadEndState));
}

// ---- duplicate-state-name -----------------------------------------------

#[test]
fn duplicate_state_name_triggers() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("dup", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("dup", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert_eq!(analysis.count(Lint::DuplicateStateName), 1);
}

#[test]
fn distinct_state_names_do_not_trigger() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("s1", StateRole::Finish, vec![]),
        ],
        0,
    );
    assert!(!run(&ir).has(Lint::DuplicateStateName));
}

// ---- dead-transition ----------------------------------------------------

#[test]
fn shadowed_transition_triggers() {
    // The unconditional first transition on `a` wins every match; the
    // second can never fire.
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1), t_act(0, "x", 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(analysis.has(Lint::DeadTransition));
}

#[test]
fn guarded_first_transition_does_not_shadow() {
    let mut b = EfsmBuilder::new("defect", ["a"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Lt, LinExpr::constant(1)),
        vec![Update::Inc(v)],
        vec![],
        s0,
    );
    b.add_transition(s0, "a", Guard::always(), vec![], vec![], s1);
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    assert!(!run(&ir).has(Lint::DeadTransition));
}

// ---- unhandled-message --------------------------------------------------

#[test]
fn unhandled_message_triggers() {
    let ir = raw(
        &["a", "ghost"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert_eq!(analysis.count(Lint::UnhandledMessage), 1);
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::UnhandledMessage && d.message.contains("ghost")));
}

#[test]
fn handled_messages_do_not_trigger() {
    let ir = raw(
        &["a", "b"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1), t(1, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    assert!(!run(&ir).has(Lint::UnhandledMessage));
}

// ---- absorbing-sink -----------------------------------------------------

#[test]
fn absorbing_sink_triggers() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("trap", StateRole::Normal, vec![t_act(0, "echo", 1)]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(analysis.has(Lint::AbsorbingSink));
}

#[test]
fn state_with_an_exit_does_not_trigger() {
    let ir = raw(
        &["a", "quit"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new(
                "busy",
                StateRole::Normal,
                vec![t_act(0, "echo", 1), t(1, 2)],
            ),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    assert!(!run(&ir).has(Lint::AbsorbingSink));
}

// ---- unsatisfiable-guard ------------------------------------------------

/// `v + 1 < b  ∧  v + 1 ≥ b`: contradictory for every binding.
#[test]
fn contradictory_guard_triggers() {
    let mut b = EfsmBuilder::new("defect", ["a"]);
    let p = b.add_param("b");
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    let contradiction = Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(p))
        .and(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(p));
    b.add_transition(s0, "a", contradiction, vec![], vec![], s1);
    b.add_transition(s0, "a", Guard::always(), vec![], vec![], s1);
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    let analysis = run(&ir);
    assert!(analysis.has(Lint::UnsatisfiableGuard));
}

/// `v < 0` where `v` starts at zero and only grows: satisfiable in the
/// abstract, dead under the ranges the fixpoint proves.
#[test]
fn context_unsatisfiable_guard_triggers() {
    let mut b = EfsmBuilder::new("defect", ["inc", "neg"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(s0, "inc", Guard::always(), vec![Update::Inc(v)], vec![], s0);
    b.add_transition(
        s0,
        "neg",
        Guard::when(LinExpr::var(v), CmpOp::Lt, LinExpr::constant(0)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    let analysis = run(&ir);
    assert!(analysis.has(Lint::UnsatisfiableGuard));
}

#[test]
fn satisfiable_guard_does_not_trigger() {
    let mut b = EfsmBuilder::new("ok", ["a"]);
    let p = b.add_param("b");
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(p)),
        vec![Update::Inc(v)],
        vec![],
        s0,
    );
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(p)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    assert!(!run(&ir).has(Lint::UnsatisfiableGuard));
    assert!(!analyze_bound(&ir, &[3], &AnalysisConfig::new()).has(Lint::UnsatisfiableGuard));
}

// ---- vacuous-guard ------------------------------------------------------

#[test]
fn vacuous_guard_triggers() {
    // `v >= 0` can only be true: v starts at 0 and only grows.
    let mut b = EfsmBuilder::new("defect", ["a"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(0)),
        vec![Update::Inc(v)],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    assert!(run(&ir).has(Lint::VacuousGuard));
}

#[test]
fn guard_that_can_fail_does_not_trigger() {
    // `v >= 1` is false at first and true later: neither vacuous nor
    // unsatisfiable.
    let mut b = EfsmBuilder::new("ok", ["inc", "go"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(s0, "inc", Guard::always(), vec![Update::Inc(v)], vec![], s0);
    b.add_transition(
        s0,
        "go",
        Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(1)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    let analysis = run(&ir);
    assert!(!analysis.has(Lint::VacuousGuard));
    assert!(!analysis.has(Lint::UnsatisfiableGuard));
}

// ---- overlapping-guards -------------------------------------------------

#[test]
fn overlapping_guards_trigger_with_witness() {
    // `v <= 5` and `v >= 3` both hold on v ∈ [3, 5]; with the (empty)
    // binding in hand the witness search finds a concrete assignment
    // and the finding lands at its default Deny.
    let mut b = EfsmBuilder::new("defect", ["a"]);
    let v = b.add_var("v");
    let r0 = b.add_state("s0");
    let r1 = b.add_state("s1");
    let r2 = b.add_state("s2");
    b.add_transition(
        r0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Le, LinExpr::constant(5)),
        vec![Update::Inc(v)],
        vec![],
        r1,
    );
    b.add_transition(
        r0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(3)),
        vec![],
        vec![],
        r2,
    );
    b.add_transition(r1, "a", Guard::always(), vec![], vec![], r0);
    b.add_transition(r2, "a", Guard::always(), vec![], vec![], r0);
    let ir = FlatIr::from_efsm(&b.build(r0, None));
    let analysis = analyze_bound(&ir, &[], &AnalysisConfig::new());
    let finding = analysis
        .diagnostics
        .iter()
        .find(|d| d.lint == Lint::OverlappingGuards)
        .expect("overlap reported");
    assert_eq!(finding.level, Level::Deny);
    assert!(finding.message.contains("both hold"));
    assert!(!analysis.is_clean());

    // The same defect declared on a statechart state: `v >= 0` and
    // `v >= 1` on one message, found through the flattened IR.
    let mut b = HsmBuilder::new("overlap", ["m"]);
    let v = b.add_var("v");
    let s = b.add_state("S");
    let t = b.add_state("T");
    let at_least = |k| Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(k));
    b.add_guarded_transition(s, "m", at_least(0), vec![], t, vec![]);
    b.add_guarded_transition(s, "m", at_least(1), vec![], s, vec![]);
    let analysis = analyze_bound(&b.build(s).flatten_ir(), &[], &AnalysisConfig::new());
    let finding = analysis
        .diagnostics
        .iter()
        .find(|d| d.lint == Lint::OverlappingGuards)
        .expect("statechart overlap reported");
    assert_eq!(finding.level, Level::Deny);
    assert!(finding.message.contains("both hold at v=1"), "{finding}");
}

#[test]
fn unproven_overlap_is_capped_at_warn() {
    // Binding-free analysis cannot run the witness search; the finding
    // drops to Warn ("not proved disjoint") instead of rejecting.
    let mut b = EfsmBuilder::new("suspect", ["a"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Le, LinExpr::constant(5)),
        vec![],
        vec![],
        s1,
    );
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(3)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    let analysis = analyze(&ir, &AnalysisConfig::new());
    let finding = analysis
        .diagnostics
        .iter()
        .find(|d| d.lint == Lint::OverlappingGuards)
        .expect("overlap reported");
    assert_eq!(finding.level, Level::Warn);
    assert!(analysis.is_clean());
}

#[test]
fn disjoint_guards_do_not_trigger() {
    // The complementary retry pair: proved disjoint without a binding.
    let mut b = EfsmBuilder::new("ok", ["a"]);
    let p = b.add_param("b");
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(p)),
        vec![Update::Inc(v)],
        vec![],
        s0,
    );
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(p)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    assert!(!analyze_bound(&ir, &[4], &AnalysisConfig::new()).has(Lint::OverlappingGuards));
    assert!(!analyze(&ir, &AnalysisConfig::new()).has(Lint::OverlappingGuards));

    // The same pair on a nested statechart state, at budget 3.
    let ir = retrying().flatten_ir();
    assert!(!analyze_bound(&ir, &[3], &AnalysisConfig::new()).has(Lint::OverlappingGuards));
}

/// A statechart whose `Up.Busy` retries `fail` until `tries + 1`
/// reaches the `budget` parameter, then escalates to `Down.Probe`.
fn retrying() -> HierarchicalMachine {
    let mut b = HsmBuilder::new("retrying", ["go", "fail", "done", "reset"]);
    let budget = b.add_param("budget");
    let tries = b.add_var("tries");
    let idle = b.add_state("Idle");
    let up = b.add_state("Up");
    let busy = b.add_child(up, "Busy");
    let down = b.add_state("Down");
    let probe = b.add_child(down, "Probe");
    b.on_entry(up, vec![Action::send("up_in")]);
    b.on_exit(up, vec![Action::send("up_out")]);
    b.on_entry(busy, vec![Action::send("busy_in")]);
    b.on_entry(down, vec![Action::send("alarm")]);
    b.on_entry(probe, vec![Action::send("probe")]);
    let next = LinExpr::var(tries).plus_const(1);
    b.add_transition(idle, "go", busy, vec![]);
    b.add_guarded_transition(
        busy,
        "fail",
        Guard::when(next.clone(), CmpOp::Lt, LinExpr::param(budget)),
        vec![Update::Inc(tries)],
        busy,
        vec![Action::send("retry")],
    );
    b.add_guarded_transition(
        busy,
        "fail",
        Guard::when(next, CmpOp::Ge, LinExpr::param(budget)),
        vec![Update::Inc(tries)],
        down,
        vec![Action::send("give_up")],
    );
    b.add_transition(busy, "done", idle, vec![]);
    b.add_transition(down, "reset", idle, vec![]);
    b.build(idle)
}

// ---- possible-overflow --------------------------------------------------

#[test]
fn unbounded_growth_triggers() {
    // An unguarded `Inc` in a cycle: the widened range hits +∞.
    let mut b = EfsmBuilder::new("defect", ["a"]);
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    b.add_transition(s0, "a", Guard::always(), vec![Update::Inc(v)], vec![], s0);
    let ir = FlatIr::from_efsm(&b.build(s0, None));
    let analysis = run(&ir);
    assert!(analysis.has(Lint::PossibleOverflow));
}

#[test]
fn guard_bounded_growth_does_not_trigger() {
    // The retry-budget shape: the increment only fires below the bound,
    // so the narrowed range stays finite under a concrete binding.
    let mut b = EfsmBuilder::new("ok", ["a"]);
    let p = b.add_param("b");
    let v = b.add_var("v");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(p)),
        vec![Update::Inc(v)],
        vec![],
        s0,
    );
    b.add_transition(
        s0,
        "a",
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(p)),
        vec![],
        vec![],
        s1,
    );
    let ir = FlatIr::from_efsm(&b.build(s0, Some(s1)));
    assert!(!analyze_bound(&ir, &[5], &AnalysisConfig::new()).has(Lint::PossibleOverflow));
}

// ---- equivalent-states --------------------------------------------------

#[test]
fn equivalent_states_trigger_and_minimize() {
    // `twin-a` and `twin-b` behave identically.
    let ir = raw(
        &["go", "stop"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1), t(1, 3)]),
            FlatState::new("twin-a", StateRole::Normal, vec![t_act(0, "x", 2), t(1, 3)]),
            FlatState::new("twin-b", StateRole::Normal, vec![t_act(0, "x", 1), t(1, 3)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(analysis.has(Lint::EquivalentStates));
    // Allow by default: informational, not gating.
    assert!(analysis.is_clean());
    let (smaller, stats) = minimize(&ir);
    assert_eq!(stats.states_before, 4);
    assert_eq!(stats.states_after, 3);
    assert_eq!(smaller.state_count(), 3);
    // Escalating the lint makes redundancy a hard failure.
    let strict = analyze(&ir, &AnalysisConfig::new().deny(Lint::EquivalentStates));
    assert!(!strict.is_clean());
}

#[test]
fn behaviourally_distinct_states_do_not_trigger() {
    // Same shape, but the twins emit different actions.
    let ir = raw(
        &["go", "stop"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1), t(1, 3)]),
            FlatState::new("twin-a", StateRole::Normal, vec![t_act(0, "x", 2), t(1, 3)]),
            FlatState::new("twin-b", StateRole::Normal, vec![t_act(0, "y", 1), t(1, 3)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
        ],
        0,
    );
    let analysis = run(&ir);
    assert!(!analysis.has(Lint::EquivalentStates));
    let (_, stats) = minimize(&ir);
    assert_eq!(stats.merged(), 0);
}

// ---- configuration plumbing --------------------------------------------

#[test]
fn config_overrides_change_gating() {
    let ir = raw(
        &["a"],
        vec![
            FlatState::new("s0", StateRole::Normal, vec![t(0, 1)]),
            FlatState::new("fin", StateRole::Finish, vec![]),
            FlatState::new("orphan", StateRole::Normal, vec![]),
        ],
        0,
    );
    // Default: unreachable-state is Warn — clean.
    assert!(run(&ir).is_clean());
    // Escalated: the same machine is rejected, and the error carries
    // the finding.
    let strict = analyze(&ir, &AnalysisConfig::new().deny(Lint::UnreachableState));
    let err = strict.check().unwrap_err();
    assert!(err.to_string().contains("unreachable-state"), "{err}");
    // Silenced: the finding is still recorded, at Allow.
    let lax = analyze(&ir, &AnalysisConfig::new().allow(Lint::UnreachableState));
    assert!(lax.has(Lint::UnreachableState));
    assert_eq!(lax.worst(), Some(Level::Allow));
}

#[test]
fn builder_machines_flow_through_the_ir() {
    // The analyzer consumes any front-end's lowering; a plain
    // StateMachine round-trips with no findings.
    let mut b = StateMachineBuilder::new("ok", ["a", "b"]);
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    let fin = b.add_state_full("fin", None, StateRole::Finish, vec![]);
    b.add_transition(s0, "a", s1, vec![Action::send("x")]);
    b.add_transition(s1, "b", fin, vec![]);
    let ir = FlatIr::from_machine(&b.build(s0));
    let analysis = run(&ir);
    assert!(
        analysis.diagnostics.is_empty(),
        "{:?}",
        analysis.diagnostics
    );
}
