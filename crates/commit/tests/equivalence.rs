//! Cross-implementation equivalence (paper §3.2's spectrum):
//!
//! * the generated FSM (interpreted) — many states, no variables;
//! * the hand-written reference algorithm — one state, many variables;
//! * the EFSM — few states, counter variables;
//!
//! (both machines interpreted by `IrInstance`, the reference
//! interpreter of the lowered IR)
//!
//! must all emit identical action traces and agree on completion for any
//! message sequence, for every family member. This is the property that
//! makes the generative approach trustworthy: the generated artefacts
//! really implement the algorithm.
//!
//! The compiled checks additionally drive the `stategen-runtime` facade
//! (`Spec → Engine → Runtime`, two sessions of one runtime) in lock-step
//! with the references and the bare compiled table, so the served
//! engines are proven observationally identical to the machines they
//! were lowered from.

use std::sync::OnceLock;

use proptest::prelude::*;

use stategen_analysis::minimize;
use stategen_commit::{
    commit_efsm, commit_efsm_params, CommitConfig, CommitModel, ReferenceCommit, MESSAGE_NAMES,
};
use stategen_core::efsm::Guard;
use stategen_core::{
    generate, CompiledMachine, FlatIr, FlatState, FlatTransition, IrInstance, ProtocolEngine,
    StateMachine,
};
use stategen_runtime::{Engine, Spec, Tier};

/// Family members exercised by the equivalence suites: every machine up
/// to r = 6, plus two larger representatives.
const FAMILY: [u32; 7] = [2, 3, 4, 5, 6, 7, 13];

fn machine(r: u32) -> &'static StateMachine {
    static MACHINES: OnceLock<Vec<(u32, StateMachine)>> = OnceLock::new();
    let machines = MACHINES.get_or_init(|| {
        FAMILY
            .iter()
            .map(|&r| {
                let model = CommitModel::new(CommitConfig::new(r).unwrap());
                (r, generate(&model).unwrap().machine)
            })
            .collect()
    });
    &machines
        .iter()
        .find(|(mr, _)| *mr == r)
        .expect("prebuilt r")
        .1
}

/// The generated machine of family member `r`, lifted onto the IR.
fn machine_ir(r: u32) -> &'static FlatIr {
    static IRS: OnceLock<Vec<(u32, FlatIr)>> = OnceLock::new();
    let irs = IRS.get_or_init(|| {
        FAMILY
            .iter()
            .map(|&r| (r, FlatIr::from_machine(machine(r))))
            .collect()
    });
    &irs.iter().find(|(ir, _)| *ir == r).expect("prebuilt r").1
}

fn compiled(r: u32) -> &'static CompiledMachine {
    static COMPILED: OnceLock<Vec<(u32, CompiledMachine)>> = OnceLock::new();
    let compiled = COMPILED.get_or_init(|| {
        FAMILY
            .iter()
            .map(|&r| (r, CompiledMachine::compile_ir(machine_ir(r)).unwrap()))
            .collect()
    });
    &compiled
        .iter()
        .find(|(cr, _)| *cr == r)
        .expect("prebuilt r")
        .1
}

/// The commit EFSM, lifted onto the IR.
fn efsm_ir() -> &'static FlatIr {
    static IR: OnceLock<FlatIr> = OnceLock::new();
    IR.get_or_init(|| FlatIr::from_efsm(&commit_efsm()))
}

/// The reference interpreter of the EFSM bound to `config`.
fn efsm_instance(config: &CommitConfig) -> IrInstance<'static> {
    efsm_ir().instance(commit_efsm_params(config))
}

fn facade_engine(r: u32) -> &'static Engine {
    static ENGINES: OnceLock<Vec<(u32, Engine)>> = OnceLock::new();
    let engines = ENGINES.get_or_init(|| {
        FAMILY
            .iter()
            .map(|&r| {
                (
                    r,
                    Engine::compile(Spec::machine(machine(r).clone())).unwrap(),
                )
            })
            .collect()
    });
    &engines
        .iter()
        .find(|(er, _)| *er == r)
        .expect("prebuilt r")
        .1
}

fn facade_efsm_engine(r: u32) -> &'static Engine {
    static ENGINES: OnceLock<Vec<(u32, Engine)>> = OnceLock::new();
    let engines = ENGINES.get_or_init(|| {
        FAMILY
            .iter()
            .map(|&r| {
                let config = CommitConfig::new(r).unwrap();
                let spec = Spec::efsm(commit_efsm(), commit_efsm_params(&config));
                (r, Engine::compile(spec).unwrap())
            })
            .collect()
    });
    &engines
        .iter()
        .find(|(er, _)| *er == r)
        .expect("prebuilt r")
        .1
}

/// Drives the interpreted EFSM and two sessions of a runtime over the
/// compiled EFSM (unfolded onto the dense table) with the same
/// messages, checking actions, variables and completion agree after
/// every delivery (the compiled engine must be observationally
/// indistinguishable from the enum-tree interpreter).
fn check_compiled_efsm_equivalence(r: u32, messages: &[usize]) {
    let config = CommitConfig::new(r).unwrap();
    let mut interp = efsm_instance(&config);
    let mut facade = facade_efsm_engine(r).runtime();
    let (single, other) = (facade.spawn(), facade.spawn());
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGE_NAMES[mi % MESSAGE_NAMES.len()];
        let a_interp = interp.deliver(name).unwrap();
        let mid = facade.message_id(name).unwrap();
        let a_single = facade.deliver(single, mid).to_vec();
        assert_eq!(
            a_interp,
            a_single,
            "r={r} step {step} ({name}): interpreted {a_interp:?} vs compiled {a_single:?} \
             (interp state {}, compiled state {})",
            interp.state_name(),
            facade.state_name(single)
        );
        assert_eq!(
            a_interp,
            facade.deliver(other, mid),
            "r={r} step {step} ({name}): second session diverged"
        );
        assert_eq!(
            interp.vars(),
            facade.vars(single),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            facade.vars(single),
            facade.vars(other),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            interp.current_state(),
            facade.state(single),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            interp.state_name_str(),
            facade.state_name(single),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            interp.is_finished(),
            facade.is_finished(single),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            facade.is_finished(single),
            facade.is_finished(other),
            "r={r} step {step} ({name})"
        );
    }
}

/// Drives all three engines with the same messages, checking actions and
/// completion agree after every delivery.
fn check_equivalence(r: u32, messages: &[usize]) {
    let config = CommitConfig::new(r).unwrap();
    let mut fsm = machine_ir(r).instance(vec![]);
    let mut reference = ReferenceCommit::new(config);
    let mut efsm_i = efsm_instance(&config);
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGE_NAMES[mi % MESSAGE_NAMES.len()];
        let a_fsm = fsm.deliver(name).unwrap();
        let a_ref = reference.deliver(name).unwrap();
        let a_efsm = efsm_i.deliver(name).unwrap();
        assert_eq!(
            a_fsm,
            a_ref,
            "r={r} step {step} ({name}): FSM {a_fsm:?} vs reference {a_ref:?} \
             (fsm state {}, ref state {})",
            fsm.state_name(),
            reference.state_name()
        );
        assert_eq!(
            a_fsm,
            a_efsm,
            "r={r} step {step} ({name}): FSM {a_fsm:?} vs EFSM {a_efsm:?} \
             (fsm state {}, efsm state {})",
            fsm.state_name(),
            efsm_i.state_name()
        );
        assert_eq!(
            fsm.is_finished(),
            reference.is_finished(),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            fsm.is_finished(),
            efsm_i.is_finished(),
            "r={r} step {step} ({name})"
        );
    }
}

/// Drives the interpreted engine, the compiled table and two sessions
/// of a runtime over it with the same messages, checking actions, state
/// and completion agree after every delivery (the compiled tier must be
/// observationally indistinguishable from the machine it flattened).
fn check_compiled_equivalence(r: u32, messages: &[usize]) {
    let compiled = compiled(r);
    let mut fsm = machine_ir(r).instance(vec![]);
    let mut table = compiled.start();
    let mut facade = facade_engine(r).runtime();
    let (single, other) = (facade.spawn(), facade.spawn());
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGE_NAMES[mi % MESSAGE_NAMES.len()];
        let a_fsm = fsm.deliver(name).unwrap();
        let mid = compiled.message_id(name).unwrap();
        let a_table = match compiled.step(table, mid) {
            Some((to, actions)) => {
                table = to;
                actions.to_vec()
            }
            None => Vec::new(),
        };
        assert_eq!(
            a_fsm,
            a_table,
            "r={r} step {step} ({name}): FSM {a_fsm:?} vs compiled {a_table:?} \
             (fsm state {}, compiled state {})",
            fsm.state_name_str(),
            compiled.state_name(table)
        );
        assert_eq!(
            a_fsm,
            facade.deliver(single, mid),
            "r={r} step {step} ({name}): facade session diverged"
        );
        assert_eq!(
            a_fsm,
            facade.deliver(other, mid),
            "r={r} step {step} ({name}): second session diverged"
        );
        assert_eq!(
            fsm.state_name_str(),
            compiled.state_name(table),
            "r={r} step {step} ({name})"
        );
        assert_eq!(table, facade.state(single), "r={r} step {step}");
        assert_eq!(
            facade.state(single),
            facade.state(other),
            "r={r} step {step}"
        );
        assert_eq!(
            fsm.state_name_str(),
            facade.state_name(single),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            fsm.is_finished(),
            compiled.is_finish_state(table),
            "r={r} step {step} ({name})"
        );
        assert_eq!(
            fsm.is_finished(),
            facade.is_finished(single),
            "r={r} step {step} ({name})"
        );
    }
    assert_eq!(2 * fsm.steps(), facade.steps(), "r={r}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_equivalence_r4(messages in prop::collection::vec(0usize..5, 0..80)) {
        check_equivalence(4, &messages);
    }

    #[test]
    fn trace_equivalence_r7(messages in prop::collection::vec(0usize..5, 0..120)) {
        check_equivalence(7, &messages);
    }

    #[test]
    fn trace_equivalence_r13(messages in prop::collection::vec(0usize..5, 0..200)) {
        check_equivalence(13, &messages);
    }

    /// Seeded random traces through every family member up to r = 6,
    /// cross-checking the interpreted engine, the compiled table and
    /// the served runtime.
    #[test]
    fn compiled_trace_equivalence_to_r6(r in 2u32..=6, messages in prop::collection::vec(0usize..5, 0..200)) {
        check_compiled_equivalence(r, &messages);
    }

    #[test]
    fn compiled_trace_equivalence_r13(messages in prop::collection::vec(0usize..5, 0..200)) {
        check_compiled_equivalence(13, &messages);
    }

    /// Seeded random traces cross-checking the interpreted EFSM against
    /// the compiled engine (two sessions of one runtime) for every
    /// family member up to r = 6.
    #[test]
    fn compiled_efsm_trace_equivalence_to_r6(r in 2u32..=6, messages in prop::collection::vec(0usize..5, 0..200)) {
        check_compiled_efsm_equivalence(r, &messages);
    }

    #[test]
    fn compiled_efsm_trace_equivalence_r13(messages in prop::collection::vec(0usize..5, 0..200)) {
        check_compiled_efsm_equivalence(13, &messages);
    }
}

/// Exhaustive equivalence over all short message sequences for r = 4:
/// every sequence of up to 6 messages (5^6 = 15625 sequences).
#[test]
fn exhaustive_short_traces_r4() {
    let mut sequence = Vec::new();
    fn recurse(sequence: &mut Vec<usize>, depth: usize) {
        check_equivalence(4, sequence);
        check_compiled_equivalence(4, sequence);
        check_compiled_efsm_equivalence(4, sequence);
        if depth == 0 {
            return;
        }
        for m in 0..5 {
            sequence.push(m);
            recurse(sequence, depth - 1);
            sequence.pop();
        }
    }
    recurse(&mut sequence, 6);
}

/// A canonical happy-path trace: update, two votes, two commits.
#[test]
fn canonical_commit_trace() {
    let config = CommitConfig::new(4).unwrap();
    let mut fsm = machine_ir(4).instance(vec![]);
    let mut reference = ReferenceCommit::new(config);
    for name in ["update", "vote", "vote", "commit", "commit"] {
        let a = fsm.deliver(name).unwrap();
        let b = reference.deliver(name).unwrap();
        assert_eq!(a, b);
    }
    assert!(fsm.is_finished());
    assert!(reference.is_finished());
}

/// The commit EFSM bound to replication factor `r`, unfolded by hand:
/// its reachable `(state, variables)` configurations, breadth-first by
/// [`FlatIr::step`], as an unguarded IR of one state per configuration.
fn unfolded_efsm(r: u32) -> FlatIr {
    let ir = efsm_ir();
    let params = commit_efsm_params(&CommitConfig::new(r).unwrap());
    let mut configs = vec![(ir.start(), vec![0; ir.variables().len()])];
    let mut states = Vec::new();
    while states.len() < configs.len() {
        let (state, vars) = configs[states.len()].clone();
        let mut transitions = Vec::new();
        for (m, name) in ir.messages().iter().enumerate() {
            let (id, mut after) = (ir.message_id(name).unwrap(), vars.clone());
            let mut scratch = vec![0; after.len()];
            let Some((to, actions)) = ir.step(state, id, &params, &mut after, &mut scratch) else {
                continue;
            };
            let reached = (to, after);
            let known = configs.iter().position(|c| *c == reached);
            let target = known.unwrap_or_else(|| {
                configs.push(reached);
                configs.len() - 1
            });
            let (always, actions) = (Guard::always(), actions.to_vec());
            transitions.push(FlatTransition::new(
                m,
                always,
                vec![],
                actions,
                target as u32,
            ));
        }
        let source = &ir.states()[state as usize];
        let name = format!("{}{vars:?}", source.name());
        states.push(FlatState::new(name, source.role(), transitions));
    }
    FlatIr::from_parts(
        "unfolded",
        ir.messages().to_vec(),
        vec![],
        vec![],
        states,
        0,
    )
}

/// The paper's spectrum (§3.2/§5.3) closed from the EFSM end: binding
/// the replication factor and unfolding the 9-state EFSM yields 36 /
/// 91 / 273 / 925 configurations where Table 1's generated FSMs have
/// 33 / 85 / 261 / 901 states — `Engine::compile` serves exactly those
/// configurations from the dense table — and the two machines are one
/// up to `minimize` (`docs/ANALYSIS.md`).
#[test]
fn unfolded_efsm_is_the_generated_fsm_up_to_minimization() {
    for (r, configurations) in [(4, 36), (7, 91), (13, 273), (25, 925)] {
        assert_eq!(unfolded_efsm(r).state_count(), configurations, "r = {r}");
        let params = commit_efsm_params(&CommitConfig::new(r).unwrap());
        let engine = Engine::compile(Spec::efsm(commit_efsm(), params)).unwrap();
        assert_eq!(engine.tier(), Tier::Compiled);
        let lowering = format!("unfolded: 9 states × 2 vars → {configurations} configurations");
        assert!(format!("{engine:?}").contains(&lowering), "{engine:?}");
    }
    for (r, generated, minimal) in [(4, 33, 27), (7, 85, 64)] {
        assert_eq!(machine_ir(r).state_count(), generated);
        let (from_efsm, _) = minimize(&unfolded_efsm(r));
        let (from_fsm, _) = minimize(machine_ir(r));
        assert_eq!(
            (from_efsm.state_count(), from_fsm.state_count()),
            (minimal, minimal),
            "r = {r}"
        );
    }
}
