//! Scaling without a wall clock: two inputs on which a refinement round
//! that costs more than O(live transitions) shows as seconds in release
//! and minutes in a debug build, so a regression to the quadratic round
//! is felt in tier-1 rather than discovered by a user with a large
//! machine.

use stategen_analysis::{analyze_bound, equivalence_classes, minimize, AnalysisConfig};
use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::efsm::Guard;
use stategen_core::{generate, FlatIr, FlatState, FlatTransition, StateRole};

#[test]
fn commit_r49_reaches_2262_deny_clean_classes() {
    let model = CommitModel::new(CommitConfig::new(49).unwrap());
    let ir = FlatIr::from_machine(&generate(&model).unwrap().machine);
    assert_eq!(ir.state_count(), 3333);
    let config = AnalysisConfig::new();
    assert!(analyze_bound(&ir, &[], &config).is_clean());
    let (quotient, stats) = minimize(&ir);
    assert_eq!(stats.states_after, 2262);
    assert_eq!(quotient.state_count(), 2262);
    let analysis = analyze_bound(&quotient, &[], &config);
    assert!(analysis.is_clean(), "{:?}", analysis.deny());
}

/// The worst case the refinement keeps: `s0 → s1 → … → finish` on one
/// message. States differ only in their distance to the finish, and a
/// round can tell apart only the state nearest the part already split,
/// so `n` states take `n` rounds of `n` transitions each —
/// O(rounds × transitions), quadratic on this shape and nothing worse.
#[test]
fn a_chain_takes_one_round_per_state() {
    const N: u32 = 1024;
    let step = |target| FlatTransition::new(0, Guard::always(), vec![], vec![], target);
    let mut states: Vec<FlatState> = (0..N)
        .map(|i| FlatState::new(format!("s{i}"), StateRole::Normal, vec![step(i + 1)]))
        .collect();
    states.push(FlatState::new("done", StateRole::Finish, vec![]));
    let ir = FlatIr::from_parts("chain", vec!["a".to_string()], vec![], vec![], states, 0);

    let classes = equivalence_classes(&ir);
    assert_eq!(classes.len(), N as usize + 1);
    assert!(classes.iter().all(|class| class.len() == 1));
    let (quotient, stats) = minimize(&ir);
    assert_eq!(stats.merged(), 0);
    assert_eq!(quotient, ir);
}
