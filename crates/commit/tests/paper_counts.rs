//! Oracle tests: the generation pipeline must reproduce every state count
//! the paper reports (§3.4, Figs 12/13, Table 1, §5.3).

use stategen_analysis::{analyze, AnalysisConfig};
use stategen_commit::{commit_efsm, CommitConfig, CommitModel};
use stategen_core::{generate, generate_with, FlatIr, GenerateOptions, Lint};

/// Paper Table 1: f, r, initial states, final states.
const TABLE1: [(u32, u32, u64, usize); 5] = [
    (1, 4, 512, 33),
    (2, 7, 1568, 85),
    (4, 13, 5408, 261),
    (8, 25, 20000, 901),
    (15, 46, 67712, 2945),
];

#[test]
fn table1_state_counts() {
    for (f, r, initial, final_states) in TABLE1 {
        let config = CommitConfig::new(r).expect("valid r");
        assert_eq!(config.max_faulty(), f, "f for r={r}");
        let g = generate(&CommitModel::new(config)).expect("generation succeeds");
        assert_eq!(g.report.initial_states, initial, "initial states for r={r}");
        assert_eq!(
            g.report.final_states, final_states,
            "final states for r={r}"
        );
    }
}

/// The generator elaborates only what the start state reaches: every
/// message against every reached state that has not completed, never the
/// rest of the Table 1 product.
#[test]
fn table1_elaborates_only_reached_states() {
    let unmerged = GenerateOptions {
        merge: false,
        ..Default::default()
    };
    for (_, r, _, _) in TABLE1 {
        let model = CommitModel::new(CommitConfig::new(r).unwrap());
        let g = generate_with(&model, &unmerged).unwrap();
        let active = g
            .machine
            .states()
            .iter()
            .filter(|s| s.role() == stategen_core::StateRole::Normal)
            .count() as u64;
        let messages = g.machine.messages().len() as u64;
        assert_eq!(g.report.elaborations, messages * active, "r={r}");
    }
}

/// Paper §3.4 / Figs 12–13: for r = 4, pruning reduces 512 states to 48
/// and combining equivalent states reduces 48 to 33. Only the 32 reached
/// states that have not completed are elaborated, against 5 messages.
#[test]
fn fig12_fig13_pipeline_counts_r4() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    assert_eq!(g.report.initial_states, 512);
    assert_eq!(g.report.reachable_states, 48);
    assert_eq!(g.report.elaborations, 5 * 32);
    assert_eq!(g.report.final_states, 33);
}

/// Paper §3.1 characterises the r = 4 FSM as "33 states with 3-4
/// transitions from each". That description fits the authors' original
/// hand diagram; in the generated machine the out-degree ranges 1–4
/// (corner states with exhausted counters and a sent vote accept fewer
/// messages) with at least half the states at 3–4, and every message not
/// listed is simply inapplicable.
#[test]
fn fig3_transition_degree_r4() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let mut with_3_or_4 = 0usize;
    let mut active = 0usize;
    for state in g.machine.states() {
        let n = state.transition_count();
        if state.role() == stategen_core::StateRole::Finish {
            assert_eq!(n, 0);
            continue;
        }
        active += 1;
        assert!(
            (1..=4).contains(&n),
            "state {} has {} transitions, expected 1-4",
            state.name(),
            n
        );
        if (3..=4).contains(&n) {
            with_3_or_4 += 1;
        }
    }
    assert_eq!(active, 32);
    assert!(
        with_3_or_4 * 2 >= active,
        "only {with_3_or_4} of {active} states have 3-4 transitions"
    );
}

/// Every generated family member is well-formed: no structural lint
/// fires at any level. (The analyzer may still report allow-level
/// `equivalent-states`: the generator's merge is not `minimize`'s
/// relation.)
#[test]
fn generated_machines_validate() {
    for r in [4u32, 7, 13] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        let analysis = analyze(&FlatIr::from_machine(&g.machine), &AnalysisConfig::new());
        assert!(analysis.is_clean(), "r={r}: {:?}", analysis.diagnostics);
        for lint in [
            Lint::FinalWithOutgoing,
            Lint::UnreachableState,
            Lint::DeadEndState,
            Lint::DuplicateStateName,
        ] {
            assert!(!analysis.has(lint), "r={r}: {:?}", analysis.diagnostics);
        }
    }
}

/// The merged machine still has exactly one final state, and the merge is
/// idempotent.
#[test]
fn merge_is_idempotent() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    assert!(g.machine.unique_final().is_some());
    let (again, _rounds) = stategen_core::merge_equivalent_states(&g.machine);
    assert_eq!(again.state_count(), g.machine.state_count());
}

/// Without merging, the machine is the 48-state pruned machine; without
/// pruning, the full 512-state product survives.
#[test]
fn pipeline_stage_options() {
    let model = CommitModel::new(CommitConfig::new(4).unwrap());
    let no_merge = GenerateOptions {
        merge: false,
        ..Default::default()
    };
    let g = generate_with(&model, &no_merge).unwrap();
    assert_eq!(g.machine.state_count(), 48);

    let no_prune = GenerateOptions {
        prune: false,
        merge: false,
    };
    let g = generate_with(&model, &no_prune).unwrap();
    assert_eq!(g.machine.state_count(), 512);
}

/// Paper §5.3: the EFSM has 9 states for every replication factor.
#[test]
fn efsm_has_nine_states() {
    assert_eq!(commit_efsm().state_count(), 9);
}

/// The initial state space is 2^5 * r^2 (paper §3.4).
#[test]
fn initial_space_formula() {
    for r in [4u32, 7, 13, 25, 46] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        assert_eq!(g.report.initial_states, 32 * u64::from(r) * u64::from(r));
    }
}

/// The paper's Fig 14 state survives pruning and merging as its own state.
#[test]
fn fig14_state_survives() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let (_, state) = g
        .machine
        .state_by_name("T/2/F/0/F/F/F")
        .expect("state exists");
    assert_eq!(state.transition_count(), 3); // VOTE, COMMIT, FREE
}
