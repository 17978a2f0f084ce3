//! `stategen_analysis::minimize` decided: the quotient is the machine,
//! by `stategen_core::equivalent` over every reachable pair of
//! configurations —
//!
//! ```text
//! IrInstance(ir) ≡ IrInstance(minimize(ir))        (random unguarded, random guarded under a binding)
//! HsmInstance(hsm) ≡ IrInstance(minimize(flatten_ir(hsm)))   (the redundant ring)
//! ```
//!
//! — and minimization is idempotent: a second pass over the quotient
//! merges nothing and returns the identical IR. The random machines
//! are the operation oracle's (`oracle::RandomMachine`,
//! `oracle::RandomEfsm`), so adversarial shapes (duplicate targets,
//! absorbing regions, redundant twins, complementary guard pairs) arise
//! from the seeds; serving a quotient is the oracle's job too.
//!
//! The deterministic tests at the bottom pin the `Spec::analyzed()`
//! gate: deny-level findings reject the spec before compilation, clean
//! machines pass through untouched, and configuration overrides move
//! the line.

mod oracle;

use oracle::support::decide;
use oracle::{random_efsm, random_machine, RandomEfsm, RandomMachine};
use proptest::prelude::*;
use stategen_analysis::minimize;
use stategen_core::{
    unfold, CompiledMachine, FlatIr, Level, Lint, StateMachineBuilder, StateRole, StategenError,
};
use stategen_models::redundant_ring;
use stategen_runtime::{AnalysisConfig, Spec};

/// A random machine's unguarded IR: its statechart of top-level leaves,
/// flattened.
fn unguarded(machine: &RandomMachine) -> FlatIr {
    machine.hsm(false).flatten_ir()
}

/// A random EFSM's IR, without the runaway counter.
fn guarded(mut efsm: RandomEfsm) -> FlatIr {
    efsm.runaway = false;
    FlatIr::from_efsm(&efsm.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The quotient of a random unguarded IR keeps one transition per
    /// cell, so it compiles onto the dense table, and is the IR.
    #[test]
    fn minimize_preserves_unguarded_behaviour(machine in random_machine()) {
        let ir = unguarded(&machine);
        let (small, stats) = minimize(&ir);
        prop_assert!(stats.states_after <= stats.states_before);
        CompiledMachine::compile_ir(&small).expect("the quotient keeps one transition per cell");
        decide(ir.instance(vec![]), small.instance(vec![]), &["a", "b"]);
    }

    /// The quotient of a random guarded EFSM is the EFSM under every
    /// threshold binding whose configuration space is finite (the one
    /// `unfold` lowers); the others cannot be decided, and are drawn
    /// again.
    #[test]
    fn minimize_preserves_guarded_behaviour(efsm in random_efsm(), t in 1i64..=3) {
        let ir = guarded(efsm);
        prop_assume!(unfold(&ir, &[t]).is_ok());
        let (small, _) = minimize(&ir);
        decide(ir.instance(vec![t]), small.instance(vec![t]), &["a", "b", "c"]);
    }

    /// Idempotence: on every random shape, minimizing the quotient
    /// merges nothing and reproduces it exactly.
    #[test]
    fn minimize_is_idempotent(
        machine in random_machine(),
        efsm in random_efsm(),
        guarded_shape in any::<bool>(),
    ) {
        let ir = if guarded_shape { guarded(efsm) } else { unguarded(&machine) };
        let (once, _) = minimize(&ir);
        let (twice, stats) = minimize(&once);
        prop_assert_eq!(stats.merged(), 0);
        prop_assert_eq!(twice, once);
    }
}

/// The flattened statechart: the *hierarchical* interpreter is the
/// reference for its flattening's quotient, which on the ring family is
/// always exactly three states however wide the ring was.
#[test]
fn minimize_preserves_statechart_behaviour() {
    for k in 1..=9 {
        let hsm = redundant_ring(k);
        let (small, stats) = minimize(&hsm.flatten_ir());
        assert_eq!((stats.states_before, stats.states_after), (k + 2, 3));
        CompiledMachine::compile_ir(&small).expect("unguarded quotient");
        decide(
            hsm.instance(),
            small.instance(vec![]),
            &["go", "step", "stop"],
        );
    }
}

/// A machine with a deny-level defect: a final state with outgoing
/// transitions.
fn defective_machine() -> stategen_core::StateMachine {
    let mut b = StateMachineBuilder::new("defective", ["a"]);
    let s0 = b.add_state("s0");
    let fin = b.add_state_full("fin", None, StateRole::Finish, vec![]);
    b.add_transition(s0, "a", fin, vec![]);
    b.add_transition(fin, "a", s0, vec![]);
    b.build(s0)
}

#[test]
fn analyzed_gate_rejects_deny_findings() {
    let err = Spec::machine(defective_machine()).analyzed().unwrap_err();
    match &err {
        StategenError::Analysis { diagnostics } => {
            assert!(diagnostics
                .iter()
                .any(|d| d.lint == Lint::FinalWithOutgoing && d.level == Level::Deny));
        }
        other => panic!("expected an analysis rejection, got {other}"),
    }
    assert!(err.to_string().contains("final-with-outgoing"), "{err}");
}

#[test]
fn analyzed_gate_passes_clean_specs_through() {
    // The statechart lifecycle and the ring family are deny-clean; the
    // gate hands the spec back so compilation chains directly.
    let engine = Spec::hierarchical(stategen_models::session_lifecycle())
        .analyzed()
        .expect("lifecycle is deny-clean")
        .compile()
        .expect("and still compiles");
    assert_eq!(engine.name(), "session-lifecycle");
    Spec::hierarchical(redundant_ring(4))
        .analyzed()
        .expect("redundancy is informational, not a defect");
}

#[test]
fn analyzed_gate_honours_config_overrides() {
    // Downgraded, the same defect passes the gate (and would then be
    // caught by the compile-time validator instead — the gate is an
    // *additional* line of defence, not a replacement).
    let relaxed = AnalysisConfig::new().allow(Lint::FinalWithOutgoing);
    assert!(Spec::machine(defective_machine())
        .analyzed_with(&relaxed)
        .is_ok());
    // And escalation turns an informational finding into a rejection.
    let strict = AnalysisConfig::new().deny(Lint::EquivalentStates);
    let err = Spec::hierarchical(redundant_ring(4))
        .analyzed_with(&strict)
        .unwrap_err();
    assert!(err.to_string().contains("equivalent-states"), "{err}");
}
