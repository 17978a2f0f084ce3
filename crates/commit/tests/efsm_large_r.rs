//! The EFSM's genericity (paper §5.3) extended to family members too
//! large to enumerate comfortably in debug builds: for r = 25 and r = 46
//! the parameter-generic EFSM is checked against the hand-written
//! algorithm (also generic), without generating the FSM at all.

use proptest::prelude::*;

use stategen_commit::{
    commit_efsm, commit_efsm_params, CommitConfig, ReferenceCommit, MESSAGE_NAMES,
};
use stategen_core::{FlatIr, ProtocolEngine};

use std::sync::OnceLock;

/// The commit EFSM's lowered IR, walked by the interpreter reference.
fn ir() -> &'static FlatIr {
    static IR: OnceLock<FlatIr> = OnceLock::new();
    IR.get_or_init(|| FlatIr::from_efsm(&commit_efsm()))
}

fn check(r: u32, messages: &[usize]) {
    let config = CommitConfig::new(r).unwrap();
    let mut reference = ReferenceCommit::new(config);
    let mut e = ir().instance(commit_efsm_params(&config));
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGE_NAMES[mi % MESSAGE_NAMES.len()];
        let a = reference.deliver(name).unwrap();
        let b = e.deliver(name).unwrap();
        assert_eq!(a, b, "r={r} step {step} ({name})");
        assert_eq!(
            reference.is_finished(),
            e.is_finished(),
            "r={r} step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn efsm_matches_reference_r25(messages in prop::collection::vec(0usize..5, 0..400)) {
        check(25, &messages);
    }

    #[test]
    fn efsm_matches_reference_r46(messages in prop::collection::vec(0usize..5, 0..700)) {
        check(46, &messages);
    }
}

/// A long biased trace that actually commits at r = 46: the vote
/// threshold (31) and commit threshold (16) must both be crossed.
#[test]
fn r46_commits_on_canonical_trace() {
    let config = CommitConfig::new(46).unwrap();
    let mut reference = ReferenceCommit::new(config);
    let mut e = ir().instance(commit_efsm_params(&config));
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
