//! Cross-crate integration: the whole stack exercised together through
//! the facade — generation, rendering, generated code, simulation,
//! storage and routing.

use stategen::analysis::{analyze, AnalysisConfig};
use stategen::chord::{Key, Overlay};
use stategen::commit::{
    commit_efsm, commit_efsm_params, CommitConfig, CommitModel, ReferenceCommit,
};
use stategen::fsm::{
    generate, merge_equivalent_states, Artifact, FlatIr, Lint, Notes, ProtocolEngine,
};
use stategen::generated::GeneratedCommitR7;
use stategen::render::{render_dot, render_mermaid, render_xml};
use stategen::simnet::SimConfig;
use stategen::storage::{
    peer_set, pid_key, run_harness, DataBlock, DataService, HarnessConfig, NodeBehaviour,
    PeerBehaviour, Pid,
};

/// Generate → validate → render: every artefact is well-formed for every
/// small family member.
#[test]
fn generate_validate_render() {
    for r in [4u32, 7] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let analysis = analyze(&ir, &AnalysisConfig::new());
        assert!(analysis.is_clean(), "r={r}: {:?}", analysis.diagnostics);
        for lint in [
            Lint::FinalWithOutgoing,
            Lint::UnreachableState,
            Lint::DeadEndState,
            Lint::DuplicateStateName,
        ] {
            assert!(!analysis.has(lint), "r={r}: {:?}", analysis.diagnostics);
        }

        let dot = render_dot(&ir);
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        assert!(dot.contains(&format!("digraph \"commit@r={r}\"")));

        let xml = render_xml(&ir, Some(&Notes::from_machine(&g.machine)));
        assert!(xml.contains(&format!("states=\"{}\"", g.machine.state_count())));
        assert!(xml.trim_end().ends_with("</statemachine>"));

        let mermaid = render_mermaid(&ir);
        assert!(mermaid.starts_with("stateDiagram-v2"));
        assert_eq!(
            mermaid.matches(" --> ").count(),
            // one edge per transition + [*] start edge + final edge
            g.machine.transition_count() + 2
        );
    }
}

/// An artifact draws without its model: the loaded IR renders the same
/// DOT as the machine it was saved from, and a bound guarded machine
/// keeps its guards on the edge labels.
#[test]
fn artifacts_render_without_their_model() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let ir = FlatIr::from_machine(&g.machine);
    let bytes = Artifact::new(ir.clone(), vec![]).unwrap().save();
    let loaded = Artifact::load(&bytes).unwrap();
    assert_eq!(render_dot(loaded.ir()), render_dot(&ir));

    let efsm = commit_efsm();
    let params = commit_efsm_params(&CommitConfig::new(4).unwrap());
    let bytes = Artifact::from_efsm(&efsm, params).unwrap().save();
    let dot = render_dot(Artifact::load(&bytes).unwrap().ir());
    assert_eq!(dot, render_dot(&FlatIr::from_efsm(&efsm)));
    assert!(
        dot.contains("\\n[votes_received+1 >= vote_threshold"),
        "{dot}"
    );
    assert!(dot.contains("\\n/ votes_received+=1"), "{dot}");
}

/// The build-time generated code, the interpreter and the hand-written
/// algorithm walk a nontrivial r = 7 trace in lock-step.
#[test]
fn generated_code_in_the_stack() {
    let config = CommitConfig::new(7).unwrap();
    let machine = FlatIr::from_machine(&generate(&CommitModel::new(config)).unwrap().machine);
    let mut generated = GeneratedCommitR7::new();
    let mut interpreted = machine.instance(vec![]);
    let mut reference = ReferenceCommit::new(config);
    let trace = [
        "vote", "update", "vote", "not_free", "vote", "vote", "free", "commit", "vote", "commit",
        "commit",
    ];
    for m in trace {
        let a = generated.deliver(m).unwrap();
        let b = interpreted.deliver(m).unwrap();
        let c = reference.deliver(m).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
    assert!(generated.is_finished());
    assert!(interpreted.is_finished());
    assert!(reference.is_finished());
}

/// Storage over routing: blocks placed via the overlay's ownership are
/// found again after overlay churn plus repair.
#[test]
fn storage_over_churning_overlay() {
    let overlay = Overlay::with_nodes((0..64u64).map(|i| Key::hash(&i.to_be_bytes())), 4);
    let mut service = DataService::new(overlay, 4, 99);
    let blocks: Vec<DataBlock> = (0..10)
        .map(|i| DataBlock::new(format!("payload {i}").into_bytes()))
        .collect();
    let mut pids = Vec::new();
    for b in &blocks {
        pids.push(service.store(b).unwrap());
    }
    // Knock out one replica holder per block (fail-stop), then verify
    // retrieval still succeeds from the remaining replicas.
    for pid in &pids {
        let peers = peer_set(service.overlay(), pid_key(pid), 4).unwrap();
        service.set_behaviour(peers[0], NodeBehaviour::FailStop);
    }
    for (pid, block) in pids.iter().zip(&blocks) {
        assert_eq!(&service.retrieve(*pid).unwrap(), block);
    }
}

/// The version-history harness driven by the facade: Byzantine peer,
/// lossy network, retries — safety and liveness hold.
#[test]
fn version_history_full_stack() {
    let config = HarnessConfig {
        replication_factor: 7,
        behaviours: vec![PeerBehaviour::Equivocator, PeerBehaviour::Silent],
        client_updates: vec![vec![Pid::of(b"fs-1"), Pid::of(b"fs-2")]],
        timeout: 3_000,
        net: SimConfig {
            seed: 7,
            min_delay: 1,
            max_delay: 15,
            drop_probability: 0.02,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = run_harness(&config);
    assert!(
        report.all_committed,
        "updates commit despite 1 equivocator + 1 crash + loss"
    );
    assert!(report.sets_agree());
    let history = report.read_consistent(2).expect("f+1 consistent read");
    assert_eq!(history.len(), 2);
}

/// Merging the generated machine again is a no-op at every size
/// (the pipeline reaches a fixpoint).
#[test]
fn merge_fixpoint_stability() {
    for r in [4u32, 7, 13] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        let (again, _) = merge_equivalent_states(&g.machine);
        assert_eq!(again.state_count(), g.machine.state_count(), "r={r}");
    }
}

/// The facade prelude suffices for the quickstart workflow.
#[test]
fn prelude_workflow() {
    use stategen::prelude::*;
    let generated = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let ir = FlatIr::from_machine(&generated.machine);
    let text = render_text(&ir, Some(&Notes::from_machine(&generated.machine)));
    assert!(text.contains("machine: commit@r=4"));
    let mut instance = ir.instance(vec![]);
    instance.deliver("update").unwrap();
    assert_eq!(instance.state_name(), "T/0/T/0/F/T/T");
}
