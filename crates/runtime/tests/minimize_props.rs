//! Property suite for `stategen_analysis::minimize`: the quotient
//! machine must be observation-equivalent to the original on **every
//! execution tier** —
//!
//! ```text
//! IrInstance(ir) ≡ IrInstance(minimize(ir))                 (interpreted)
//!                ≡ Runtime(minimize(ir))                    (dense tables)
//!                ≡ Runtime(minimize(ir), binding)           (guarded, unfolded)
//! HsmInstance(hsm) ≡ minimize(hsm.flatten_ir())             (flattened statechart)
//! ```
//!
//! and minimization must be idempotent: a second pass over the quotient
//! merges nothing and returns the identical IR. The machines are random
//! — adversarial shapes (duplicate targets, absorbing regions, redundant
//! twins, complementary guard pairs) arise from the seeds rather than
//! being hand-picked, so the partition refinement is exercised well away
//! from the tidy corpus machines.
//!
//! The deterministic tests at the bottom pin the `Spec::analyzed()`
//! gate: deny-level findings reject the spec before compilation, clean
//! machines pass through untouched, and configuration overrides move
//! the line.

use proptest::prelude::*;

use stategen_analysis::minimize;
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    Action, Artifact, CompiledMachine, FlatIr, FlatState, FlatTransition, Level, Lint,
    ProtocolEngine, StateMachineBuilder, StateRole, StategenError,
};
use stategen_models::redundant_ring;
use stategen_runtime::{AnalysisConfig, Engine, Runtime, SessionId, Spec};

const ALPHABET: [&str; 3] = ["m0", "m1", "m2"];

/// Materialises a random *unguarded* flat IR: up to 8 states, a
/// sprinkling of finish roles, at most one transition per
/// `(state, message)` cell (the dense tier's well-formedness condition),
/// and deliberately reused names/actions so behavioural twins are
/// common.
fn build_random_ir(states: &[u64], start: u64) -> FlatIr {
    let n = states.len();
    let flat: Vec<FlatState> = states
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            // Roughly one state in eight is a finish state (never the
            // only state, so something is reachable and live).
            let role = if seed % 8 == 0 && n > 1 {
                StateRole::Finish
            } else {
                StateRole::Normal
            };
            let transitions = (0..ALPHABET.len())
                .filter(|m| seed >> (8 + 2 * m) & 3 != 0)
                .map(|m| {
                    let target = (seed >> (16 + 4 * m)) % n as u64;
                    let actions = if seed >> (32 + m) & 1 != 0 {
                        vec![Action::send(format!("a{}", seed >> (40 + m) & 1))]
                    } else {
                        vec![]
                    };
                    FlatTransition::new(m, Guard::always(), vec![], actions, target as u32)
                })
                .collect();
            FlatState::new(format!("s{}", i % 3), role, transitions)
        })
        .collect();
    FlatIr::from_parts(
        "random-flat",
        ALPHABET.iter().map(|m| m.to_string()).collect(),
        vec![],
        vec![],
        flat,
        (start % n as u64) as u32,
    )
}

/// Materialises a random *guarded* EFSM: one `budget` parameter, two
/// variables, and per `(state, message)` cell either nothing, an
/// unguarded transition, or a complementary threshold pair — with no
/// duplicate guards for the lowering to reject.
fn build_random_efsm(states: &[u64], start: u64) -> stategen_core::Efsm {
    let n = states.len();
    let mut b = EfsmBuilder::new("random-efsm", ALPHABET);
    let budget = b.add_param("budget");
    let vars = [b.add_var("x"), b.add_var("y")];
    let ids: Vec<_> = (0..n).map(|i| b.add_state(format!("s{}", i % 3))).collect();
    for (i, &seed) in states.iter().enumerate() {
        for (m, message) in ALPHABET.iter().enumerate() {
            let v = vars[(seed >> (4 + m) & 1) as usize];
            let to_low = ids[((seed >> (8 + 4 * m)) % n as u64) as usize];
            let to_high = ids[((seed >> (20 + 4 * m)) % n as u64) as usize];
            let actions: Vec<Action> = (0..(seed >> (32 + m)) & 1)
                .map(|k| Action::send(format!("a{k}")))
                .collect();
            match seed >> (40 + 2 * m) & 3 {
                0 => {}
                1 => b.add_transition(ids[i], message, Guard::always(), vec![], actions, to_low),
                _ => {
                    b.add_transition(
                        ids[i],
                        message,
                        Guard::when(
                            LinExpr::var(v).plus_const(1),
                            CmpOp::Lt,
                            LinExpr::param(budget),
                        ),
                        vec![Update::Inc(v)],
                        actions.clone(),
                        to_low,
                    );
                    b.add_transition(
                        ids[i],
                        message,
                        Guard::when(
                            LinExpr::var(v).plus_const(1),
                            CmpOp::Ge,
                            LinExpr::param(budget),
                        ),
                        vec![Update::Set(v, LinExpr::constant(0))],
                        actions,
                        to_high,
                    );
                }
            }
        }
    }
    let fin = ids[((start >> 8) % n as u64) as usize];
    let fin = (start & 1 == 0 && fin.index() != (start % n as u64) as usize).then_some(fin);
    b.build(ids[(start % n as u64) as usize], fin)
}

/// One served session of `ir` bound to `params`, lowered exactly as
/// `Engine::compile` lowers a spec.
fn served(ir: &FlatIr, params: &[i64]) -> (Runtime, SessionId) {
    let artifact = Artifact::new(ir.clone(), params.to_vec()).expect("binding arity");
    let mut rt = Engine::from_artifact(&artifact)
        .expect("the quotient lowers")
        .runtime();
    let session = rt.spawn();
    (rt, session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Interpreted + dense tiers: the quotient of a random unguarded IR
    /// emits the same actions and agrees on completion at every step of
    /// a random trace, both under the direct interpreter and compiled
    /// into the dense tables.
    #[test]
    fn minimize_preserves_unguarded_behaviour(
        states in prop::collection::vec(any::<u64>(), 1..=8),
        start in any::<u64>(),
        trace in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let ir = build_random_ir(&states, start);
        let (small, stats) = minimize(&ir);
        prop_assert!(stats.states_after <= stats.states_before);
        CompiledMachine::compile_ir(&small).expect("the quotient keeps one transition per cell");
        let mut reference = ir.instance(vec![]);
        let mut interp = small.instance(vec![]);
        let (mut rt, session) = served(&small, &[]);
        let mut dense = rt.session(session);
        for (step, &mi) in trace.iter().enumerate() {
            let want = reference.deliver_ref(ALPHABET[mi]).unwrap().to_vec();
            prop_assert_eq!(
                interp.deliver_ref(ALPHABET[mi]).unwrap(), want.as_slice(),
                "interpreted tier diverged at step {}", step
            );
            prop_assert_eq!(
                dense.deliver_ref(ALPHABET[mi]).unwrap(), want.as_slice(),
                "dense tier diverged at step {}", step
            );
            prop_assert_eq!(reference.is_finished(), interp.is_finished(), "step {}", step);
            prop_assert_eq!(reference.is_finished(), dense.is_finished(), "step {}", step);
        }
    }

    /// Guarded machines: the quotient of a random guarded EFSM, bound and
    /// compiled as `Engine::compile` lowers it, tracks the original
    /// interpreter under every budget binding.
    #[test]
    fn minimize_preserves_guarded_behaviour(
        states in prop::collection::vec(any::<u64>(), 1..=6),
        start in any::<u64>(),
        budget in 1i64..=3,
        trace in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let efsm = build_random_efsm(&states, start);
        let ir = FlatIr::from_efsm(&efsm);
        let (small, _) = minimize(&ir);
        let params = vec![budget];
        let mut reference = ir.instance(params.clone());
        let mut interp = small.instance(params.clone());
        let (mut rt, session) = served(&small, &params);
        let mut fast = rt.session(session);
        for (step, &mi) in trace.iter().enumerate() {
            let want = reference.deliver_ref(ALPHABET[mi]).unwrap().to_vec();
            prop_assert_eq!(
                interp.deliver_ref(ALPHABET[mi]).unwrap(), want.as_slice(),
                "interpreted tier diverged at step {}", step
            );
            prop_assert_eq!(
                fast.deliver_ref(ALPHABET[mi]).unwrap(), want.as_slice(),
                "compiled tier diverged at step {}", step
            );
            prop_assert_eq!(reference.is_finished(), interp.is_finished(), "step {}", step);
            prop_assert_eq!(reference.is_finished(), fast.is_finished(), "step {}", step);
        }
    }

    /// Flattened-statechart tier: the *hierarchical* interpreter is the
    /// reference; its flattening, minimized and compiled dense, must
    /// reproduce every trace. On the ring family the quotient is always
    /// exactly three states however wide the ring was.
    #[test]
    fn minimize_preserves_statechart_behaviour(
        k in 1usize..=9,
        trace in prop::collection::vec(0usize..3, 0..40),
    ) {
        let hsm = redundant_ring(k);
        let (small, stats) = minimize(&hsm.flatten_ir());
        prop_assert_eq!(stats.states_before, k + 2);
        prop_assert_eq!(stats.states_after, 3);
        CompiledMachine::compile_ir(&small).expect("unguarded quotient");
        let mut reference = hsm.instance();
        let (mut rt, session) = served(&small, &[]);
        let mut dense = rt.session(session);
        for (step, &mi) in trace.iter().enumerate() {
            let m = ["go", "step", "stop"][mi];
            let want = reference.deliver_ref(m).unwrap().to_vec();
            prop_assert_eq!(
                dense.deliver_ref(m).unwrap(), want.as_slice(),
                "flattened tier diverged at step {}", step
            );
            prop_assert_eq!(reference.is_finished(), dense.is_finished(), "step {}", step);
        }
    }

    /// Idempotence: on every random shape, minimizing the quotient
    /// merges nothing and reproduces it exactly.
    #[test]
    fn minimize_is_idempotent(
        states in prop::collection::vec(any::<u64>(), 1..=8),
        start in any::<u64>(),
        guarded in any::<bool>(),
    ) {
        let ir = if guarded {
            FlatIr::from_efsm(&build_random_efsm(&states[..states.len().min(6)], start))
        } else {
            build_random_ir(&states, start)
        };
        let (once, _) = minimize(&ir);
        let (twice, stats) = minimize(&once);
        prop_assert_eq!(stats.merged(), 0);
        prop_assert_eq!(twice, once);
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
