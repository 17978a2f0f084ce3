//! The central §4.3 guarantee: the *compiled generated code* behaves
//! identically to the interpreted machine and the hand-written algorithm.

use proptest::prelude::*;

use stategen_commit::{CommitConfig, CommitModel, ReferenceCommit, MESSAGE_NAMES};
use stategen_core::{generate, FlatIr, ProtocolEngine};
use stategen_generated::{GeneratedCommitR4, GeneratedCommitR7};

fn check(r: u32, mut generated: impl ProtocolEngine, messages: &[usize]) {
    let config = CommitConfig::new(r).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    let mut interpreted = machine.instance(vec![]);
    let mut reference = ReferenceCommit::new(config);
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGE_NAMES[mi % MESSAGE_NAMES.len()];
        let a = generated.deliver(name).unwrap();
        let b = interpreted.deliver(name).unwrap();
        let c = reference.deliver(name).unwrap();
        assert_eq!(a, b, "r={r} step {step} ({name}): generated vs interpreted");
        assert_eq!(a, c, "r={r} step {step} ({name}): generated vs reference");
        assert_eq!(
            generated.is_finished(),
            interpreted.is_finished(),
            "r={r} step {step}"
        );
        assert_eq!(
            generated.state_name(),
            interpreted.state_name(),
            "r={r} step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_r4_equivalent(messages in prop::collection::vec(0usize..5, 0..80)) {
        check(4, GeneratedCommitR4::new(), &messages);
    }

    #[test]
    fn generated_r7_equivalent(messages in prop::collection::vec(0usize..5, 0..140)) {
        check(7, GeneratedCommitR7::new(), &messages);
    }
}

/// The generated state enum covers exactly the merged machine: every
/// interpreted state name is reachable by the generated engine too, and
/// the two walk in lock-step through an exhaustive breadth-first
/// exploration.
#[test]
fn exhaustive_lockstep_r4() {
    let config = CommitConfig::new(4).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    // BFS over message sequences up to depth 5 (5^5 = 3125 sequences).
    let mut sequences: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..5 {
        let mut next = Vec::new();
        for s in &sequences {
            for m in 0..5 {
                let mut t = s.clone();
                t.push(m);
                next.push(t);
            }
        }
        sequences = next;
        for s in &sequences {
            let mut generated = GeneratedCommitR4::new();
            let mut interpreted = machine.instance(vec![]);
            for &mi in s {
                let name = MESSAGE_NAMES[mi];
                let a = generated.deliver(name).unwrap();
                let b = interpreted.deliver(name).unwrap();
                assert_eq!(a, b);
            }
            assert_eq!(generated.state_name(), interpreted.state_name());
        }
    }
}

/// Duplicate-delivery safety on the build-time generated tier: once the
/// engine reports finished, every further delivery is absorbed — no
/// actions, no state change, still finished. (The three runtime-served
/// tiers have the matching check in `stategen-runtime`'s conformance
/// suite.)
#[test]
fn finished_generated_engine_absorbs_duplicate_deliveries() {
    // Find a finishing trace by BFS on the interpreted machine, so the
    // test does not hard-code protocol thresholds.
    let config = CommitConfig::new(4).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    let finishing_trace = {
        let mut frontier: Vec<Vec<&str>> = vec![Vec::new()];
        let mut found: Option<Vec<&str>> = None;
        'search: while let Some(trace) = frontier.pop() {
            for &name in MESSAGE_NAMES.iter() {
                let mut next = trace.clone();
                next.push(name);
                let mut probe = machine.instance(vec![]);
                for m in &next {
                    probe.deliver(m).unwrap();
                }
                if probe.is_finished() {
                    found = Some(next);
                    break 'search;
                }
                if next.len() < 6 {
                    frontier.push(next);
                }
            }
        }
        found.expect("commit protocol has a finishing trace within 6 steps")
    };

    let mut generated = GeneratedCommitR4::new();
    for m in &finishing_trace {
        generated.deliver(m).unwrap();
    }
    assert!(generated.is_finished(), "trace must finish the engine");
    let parked = generated.state_name().into_owned();
    for _round in 0..2 {
        for &name in MESSAGE_NAMES.iter() {
            let actions = generated.deliver(name).unwrap();
            assert!(
                actions.is_empty(),
                "finished engine emitted {actions:?} on {name}"
            );
            assert_eq!(generated.state_name(), parked, "state moved on {name}");
            assert!(generated.is_finished(), "un-finished by {name}");
        }
    }
}
