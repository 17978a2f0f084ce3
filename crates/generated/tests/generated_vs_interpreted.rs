//! The central §4.3 guarantee, decided: the *compiled generated code*
//! is the interpreted machine and the hand-written algorithm, checked by
//! `stategen_core::equivalent` over every reachable pair of
//! configurations rather than on sampled traces.

use std::hash::Hash;

use stategen_commit::{CommitConfig, CommitModel, ReferenceCommit, MESSAGE_NAMES};
use stategen_core::{generate, FlatIr, ProtocolEngine};
use stategen_generated::{GeneratedCommitR4, GeneratedCommitR7};

#[path = "../../core/tests/support/mod.rs"]
mod support;

use support::decide;

/// The generated engine `G` at member `r` against the interpreted
/// machine, state for state, and against the reference algorithm.
/// Returns the number of states the generated engine reached.
fn check<G>(r: u32) -> usize
where
    G: ProtocolEngine + Clone + Eq + Hash + Default,
{
    let config = CommitConfig::new(r).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    let pairs = decide(G::default(), machine.instance(vec![]), &MESSAGE_NAMES);
    for (generated, interpreted) in &pairs {
        assert_eq!(generated.state_name(), interpreted.state_name(), "r={r}");
    }
    decide(G::default(), ReferenceCommit::new(config), &MESSAGE_NAMES);
    pairs.len()
}

#[test]
fn generated_r4_equivalent() {
    check::<GeneratedCommitR4>(4);
}

#[test]
fn generated_r7_equivalent() {
    check::<GeneratedCommitR7>(7);
}

/// The generated state enum covers exactly the merged machine: the
/// generated and interpreted engines pair up one state each, all 33.
#[test]
fn exhaustive_lockstep_r4() {
    assert_eq!(check::<GeneratedCommitR4>(4), 33);
}

/// Duplicate-delivery safety on the build-time generated tier: in every
/// finished state the engine reaches, every further delivery is
/// absorbed — no actions, no state change. (The two runtime-served
/// tiers have the matching check in `stategen-runtime`'s conformance
/// suite.)
#[test]
fn finished_generated_engine_absorbs_duplicate_deliveries() {
    let config = CommitConfig::new(4).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    let pairs = decide(
        GeneratedCommitR4::new(),
        machine.instance(vec![]),
        &MESSAGE_NAMES,
    );
    let finished: Vec<_> = pairs.into_iter().filter(|(g, _)| g.is_finished()).collect();
    assert!(!finished.is_empty(), "the commit protocol finishes");
    for (parked, _) in finished {
        for name in MESSAGE_NAMES {
            let mut generated = parked.clone();
            let actions = generated.deliver(name).unwrap();
            assert!(
                actions.is_empty(),
                "finished engine emitted {actions:?} on {name}"
            );
            assert_eq!(generated, parked, "state moved on {name}");
        }
    }
}
