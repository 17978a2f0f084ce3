//! The paper-reproduction oracle: every headline number and artefact the
//! paper reports, asserted in one place through the facade crate.

use stategen::commit::{commit_efsm, CommitConfig, CommitModel, EarlyCommitModel};
use stategen::fsm::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, AbstractModel, FlatIr,
    GenerateOptions, Notes, Outcome,
};
use stategen::models::{BroadcastModel, RoundsModel, TerminationModel};
use stategen::render::render_state_text;

/// Paper Table 1 (plus the §3.4 pruning count for r = 4).
#[test]
fn table1_and_pipeline_counts() {
    let rows: [(u32, u32, u64, Option<usize>, usize); 5] = [
        (1, 4, 512, Some(48), 33),
        (2, 7, 1568, None, 85),
        (4, 13, 5408, None, 261),
        (8, 25, 20000, None, 901),
        (15, 46, 67712, None, 2945),
    ];
    for (f, r, initial, reachable, final_states) in rows {
        let config = CommitConfig::new(r).expect("valid");
        assert_eq!(config.max_faulty(), f);
        let g = generate(&CommitModel::new(config)).expect("generates");
        assert_eq!(g.report.initial_states, initial, "r={r} initial");
        if let Some(want) = reachable {
            assert_eq!(g.report.reachable_states, want, "r={r} reachable");
        }
        assert_eq!(g.report.final_states, final_states, "r={r} final");
    }
}

/// Paper §3.1: the r = 4 FSM the authors drew by hand had 33 states; the
/// generated machine reproduces that count with a unique final state.
#[test]
fn r4_machine_shape() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    assert_eq!(g.machine.state_count(), 33);
    assert!(g.machine.unique_final().is_some());
    assert_eq!(g.machine.messages().len(), 5);
}

/// Paper Fig 14: header, commentary and all three transitions.
#[test]
fn fig14_text() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let (id, _) = g.machine.state_by_name("T/2/F/0/F/F/F").expect("exists");
    let ir = FlatIr::from_machine(&g.machine);
    let notes = Notes::from_machine(&g.machine);
    let text = render_state_text(&ir, Some(&notes), id.index());
    for needle in [
        "state: T/2/F/0/F/F/F",
        "Have received initial update from client.",
        "Have not sent a commit since neither the vote threshold (3) nor the external commit threshold (2) has been reached.",
        "Waiting for 1 further vote (including local vote if any) before sending commit.",
        "Waiting for 2 further external commits to finish.",
        " message: VOTE",
        "  transition to: T/3/T/0/T/F/F",
        " message: COMMIT",
        "  transition to: T/2/F/1/F/F/F",
        " message: FREE",
        "  action: ->not free",
        "  transition to: T/2/T/0/T/T/T",
    ] {
        assert!(text.contains(needle), "missing: {needle}\nin:\n{text}");
    }
}

/// Paper §5.3: the EFSM has 9 states, for every replication factor.
#[test]
fn efsm_nine_states() {
    assert_eq!(commit_efsm().state_count(), 9);
}

/// Paper Fig 3: the early model's labelled transition.
#[test]
fn fig3_early_transition() {
    let model = EarlyCommitModel::new(CommitConfig::new(4).unwrap());
    let space = model.state_space().unwrap();
    let s = space.parse_name("1/0/1/0").unwrap();
    match model.transition(&s, "vote") {
        Outcome::Transition(spec) => {
            assert_eq!(space.name_of(&spec.target), "2/1/1/1");
            assert_eq!(spec.actions.len(), 2); // ->vote, ->commit
        }
        Outcome::Ignored => panic!("Fig 3 transition must exist"),
    }
}

/// Paper Fig 16: the generated code's example branch
/// `case (T-1-T-1-F-T-T): sendCommit(); setState(T-2-T-1-T-T-T)`.
#[test]
fn fig16_generated_branch() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let ir = FlatIr::from_machine(&g.machine);
    let handlers = stategen::render::java_src::render_handlers(&ir).unwrap();
    assert!(handlers.contains("void receiveVote() {"));
    assert!(handlers.contains("case (T-1-T-1-F-T-T) : {"));
    let branch = handlers
        .split("case (T-1-T-1-F-T-T) : {")
        .nth(1)
        .expect("branch exists")
        .split('}')
        .next()
        .expect("branch body");
    assert!(branch.contains("sendCommit();"));
    assert!(branch.contains("setState(T-2-T-1-T-T-T);"));
}

/// Paper §3.4: the initial state space is 2^5 · r² for every r.
#[test]
fn state_space_formula() {
    for r in 4..32u32 {
        let model = CommitModel::new(CommitConfig::new(r).unwrap());
        let space = model.state_space().unwrap();
        assert_eq!(space.state_count(), 32 * u64::from(r) * u64::from(r));
    }
}

/// Paper §3.4's steps in their literal order — enumerate and elaborate
/// the whole product, prune, merge — build exactly the machine the
/// generator builds by exploring from the start state: same ids, names,
/// vectors, annotations and actions, on every generated corpus model.
#[test]
fn generation_matches_enumerate_prune_merge() {
    let mut corpus: Vec<Box<dyn AbstractModel>> = [4, 7, 13, 25]
        .into_iter()
        .map(|r| -> Box<dyn AbstractModel> {
            Box::new(CommitModel::new(CommitConfig::new(r).unwrap()))
        })
        .collect();
    corpus.push(Box::new(BroadcastModel::new(7)));
    corpus.push(Box::new(RoundsModel::new(5, 3)));
    corpus.push(Box::new(TerminationModel::new(3)));
    let everything = GenerateOptions {
        prune: false,
        merge: false,
    };
    for model in &corpus {
        let full = generate_with(model.as_ref(), &everything).unwrap().machine;
        let (reference, _) = merge_equivalent_states(&prune_unreachable(&full));
        let generated = generate(model.as_ref()).unwrap().machine;
        assert!(generated == reference, "{}", model.machine_name());
    }
}

/// Paper Fig 20: the generic abstract model is configured from component
/// and message descriptors.
#[test]
fn fig20_component_configuration() {
    let model = CommitModel::new(CommitConfig::new(4).unwrap());
    let space = model.state_space().unwrap();
    let names: Vec<&str> = space.components().iter().map(|c| c.name()).collect();
    assert_eq!(
        names,
        vec![
            "update_received",
            "votes_received",
            "vote_sent",
            "commits_received",
            "commit_sent",
            "could_choose",
            "has_chosen"
        ]
    );
    assert_eq!(
        model.messages(),
        vec!["update", "vote", "commit", "free", "not_free"]
    );
}
