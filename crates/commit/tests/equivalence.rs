//! The paper's spectrum (§3.2, §5.3), decided per family member:
//!
//! * the generated FSM — many states, no variables;
//! * the EFSM — few states, counter variables;
//! * the hand-written reference algorithm — one state, many variables;
//!
//! are one protocol, for r = 2..=13 and, EFSM against algorithm, at
//! r = 25 and 46; and so are the dense tables the first two lower onto,
//! `CompiledMachine::compile_ir` of the FSM and `unfold` of the bound
//! EFSM. Each check is `stategen_core::equivalent`: a breadth-first
//! search over the reachable pairs of configurations that either proves
//! agreement on every trace or fails with a shortest trace that tells
//! the two apart. That the served runtime steps these tables as
//! `IrInstance` steps the IR is the runtime's operation oracle's job
//! (`stategen-runtime`'s `tests/oracle`).

use std::ops::RangeInclusive;
use std::sync::OnceLock;

use stategen_analysis::minimize;
use stategen_commit::{
    commit_efsm, commit_efsm_params, CommitConfig, CommitModel, ReferenceCommit, MESSAGE_NAMES,
};
use stategen_core::efsm::Guard;
use stategen_core::{
    equivalent, generate, unfold, CompiledMachine, FlatIr, FlatState, FlatTransition, IrInstance,
    ProtocolEngine, Verdict,
};
use stategen_runtime::{Engine, Spec, Tier};

#[path = "../../core/tests/support/mod.rs"]
mod support;

use support::{decide, Table, BUDGET};

fn config(r: u32) -> CommitConfig {
    CommitConfig::new(r).unwrap()
}

/// The generated machine of family member `r`, lifted onto the IR.
fn fsm(r: u32) -> FlatIr {
    FlatIr::from_machine(&generate(&CommitModel::new(config(r))).unwrap().machine)
}

/// The commit EFSM, lifted onto the IR.
fn efsm_ir() -> &'static FlatIr {
    static IR: OnceLock<FlatIr> = OnceLock::new();
    IR.get_or_init(|| FlatIr::from_efsm(&commit_efsm()))
}

/// The reference interpreter of the EFSM bound to member `r`.
fn efsm(r: u32) -> IrInstance<'static> {
    efsm_ir().instance(commit_efsm_params(&config(r)))
}

/// Generated FSM ≡ EFSM ≡ reference algorithm, for every member.
fn spectrum(members: RangeInclusive<u32>) {
    for r in members {
        decide(fsm(r).instance(vec![]), efsm(r), &MESSAGE_NAMES);
        decide(efsm(r), ReferenceCommit::new(config(r)), &MESSAGE_NAMES);
    }
}

/// The generated FSM ≡ its dense table, state for state.
fn compiled(members: RangeInclusive<u32>) {
    for r in members {
        let fsm = fsm(r);
        let table = CompiledMachine::compile_ir(&fsm).unwrap();
        for (ir, t) in decide(fsm.instance(vec![]), Table::new(&table), &MESSAGE_NAMES) {
            assert_eq!(ir.state_name_str(), table.state_name(t.state), "r={r}");
        }
    }
}

/// The bound EFSM ≡ its unfolded table, one table state per reachable
/// configuration, named by its source state.
fn unfolded(members: RangeInclusive<u32>) {
    for r in members {
        let (table, _) = unfold(efsm_ir(), &commit_efsm_params(&config(r))).unwrap();
        let pairs = decide(efsm(r), Table::new(&table), &MESSAGE_NAMES);
        assert_eq!(pairs.len(), table.state_count(), "r={r}");
        for (ir, t) in pairs {
            assert_eq!(ir.state_name_str(), table.state_name(t.state), "r={r}");
        }
    }
}

#[test]
fn trace_equivalence_r4() {
    spectrum(2..=4);
}

#[test]
fn trace_equivalence_r7() {
    spectrum(5..=7);
}

#[test]
fn trace_equivalence_r13() {
    spectrum(8..=13);
}

#[test]
fn compiled_trace_equivalence_to_r6() {
    compiled(2..=6);
}

#[test]
fn compiled_trace_equivalence_r13() {
    compiled(7..=13);
}

#[test]
fn compiled_efsm_trace_equivalence_to_r6() {
    unfolded(2..=6);
}

#[test]
fn compiled_efsm_trace_equivalence_r13() {
    unfolded(7..=13);
}

/// The EFSM's genericity (§5.3) past the members worth generating:
/// checked against the algorithm, also generic, without the FSM.
#[test]
fn efsm_matches_reference_r25() {
    decide(efsm(25), ReferenceCommit::new(config(25)), &MESSAGE_NAMES);
}

#[test]
fn efsm_matches_reference_r46() {
    decide(efsm(46), ReferenceCommit::new(config(46)), &MESSAGE_NAMES);
}

/// The search tells neighbouring members apart by a shortest trace —
/// two external commits finish r = 4 but not r = 7 — and a budget too
/// small for r = 46 says where it stopped instead of passing.
#[test]
fn exhaustive_short_traces_r4() {
    let (four, seven) = (fsm(4), fsm(7));
    let (four, seven) = (four.instance(vec![]), seven.instance(vec![]));
    assert_eq!(
        equivalent(four, seven, &MESSAGE_NAMES, BUDGET),
        Verdict::Distinguished(vec!["commit".into(), "commit".into()])
    );
    let reference = ReferenceCommit::new(config(46));
    assert_eq!(
        equivalent(efsm(46), reference, &MESSAGE_NAMES, 100),
        Verdict::Bounded(6)
    );
}

/// A canonical happy-path trace: update, two votes, two commits.
#[test]
fn canonical_commit_trace() {
    let config = CommitConfig::new(4).unwrap();
    let machine = fsm(4);
    let mut fsm = machine.instance(vec![]);
    let mut reference = ReferenceCommit::new(config);
    for name in ["update", "vote", "vote", "commit", "commit"] {
        let a = fsm.deliver(name).unwrap();
        let b = reference.deliver(name).unwrap();
        assert_eq!(a, b);
    }
    assert!(fsm.is_finished());
    assert!(reference.is_finished());
}

/// A long biased trace that actually commits at r = 46: the vote
/// threshold (31) and commit threshold (16) must both be crossed.
#[test]
fn r46_commits_on_canonical_trace() {
    let config = CommitConfig::new(46).unwrap();
    let mut reference = ReferenceCommit::new(config);
    let mut e = efsm(46);
    let mut trace: Vec<&str> = vec!["update"];
    trace.extend(std::iter::repeat_n("vote", 30)); // total votes 31 = threshold
    trace.extend(std::iter::repeat_n("commit", 16)); // external commits 16 = f+1
    for m in trace {
        let a = reference.deliver(m).unwrap();
        let b = e.deliver(m).unwrap();
        assert_eq!(a, b);
    }
    assert!(reference.is_finished());
    assert!(e.is_finished());
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
        let fsm = fsm(r);
        assert_eq!(fsm.state_count(), generated);
        let (from_efsm, _) = minimize(&unfolded_efsm(r));
        let (from_fsm, _) = minimize(&fsm);
        assert_eq!(
            (from_efsm.state_count(), from_fsm.state_count()),
            (minimal, minimal),
            "r = {r}"
        );
    }
}
