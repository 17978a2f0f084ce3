//! The paper's running example end to end: generate the BFT commit FSM
//! family, inspect the Fig 14 state, compare the spectrum of
//! implementations, and simulate a Byzantine peer set agreeing on a
//! version history.
//!
//! Run with: `cargo run --example commit_protocol`

use stategen::commit::{CommitConfig, CommitModel, ReferenceCommit};
use stategen::fsm::{generate, FlatIr, Notes, ProtocolEngine};
use stategen::render::render_state_text;
use stategen::runtime::{Engine, Spec};
use stategen::simnet::SimConfig;
use stategen::storage::{run_harness, HarnessConfig, PeerBehaviour, Pid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- Generate the family (paper Table 1). ------------------------------
    for r in [4u32, 7, 13] {
        let generated = generate(&CommitModel::new(CommitConfig::new(r)?))?;
        println!(
            "commit@r={r}: {} -> {} -> {} states in {:?}",
            generated.report.initial_states,
            generated.report.reachable_states,
            generated.report.final_states,
            generated.report.total,
        );
    }

    // -- The Fig 14 state, with generated commentary. -----------------------
    let generated = generate(&CommitModel::new(CommitConfig::new(4)?))?;
    let (fig14, _) = generated
        .machine
        .state_by_name("T/2/F/0/F/F/F")
        .expect("exists");
    let ir = FlatIr::from_machine(&generated.machine);
    let notes = Notes::from_machine(&generated.machine);
    println!("\n{}", render_state_text(&ir, Some(&notes), fig14.index()));

    // -- The spectrum (paper §3.2): FSM vs hand-written algorithm. The
    // generated machine runs behind the `Spec → Engine → Runtime`
    // pipeline; the reference stays a plain hand-written struct.
    let mut rt = Engine::compile(Spec::machine(generated.machine.clone()))?.runtime();
    let session = rt.spawn();
    let mut reference = ReferenceCommit::new(CommitConfig::new(4)?);
    for message in ["update", "vote", "vote", "commit", "commit"] {
        let mid = rt.message_id(message).expect("commit alphabet");
        let a = rt.deliver(session, mid).to_vec();
        let b = reference.deliver(message)?;
        assert_eq!(a, b, "both ends of the spectrum behave identically");
    }
    assert!(rt.is_finished(session) && reference.is_finished());
    println!("FSM and hand-written algorithm agree on the canonical trace\n");

    // -- Simulated peer set with one Byzantine member (paper §2.2). ---------
    let config = HarnessConfig {
        behaviours: vec![PeerBehaviour::Equivocator],
        client_updates: vec![vec![Pid::of(b"version 1"), Pid::of(b"version 2")]],
        net: SimConfig {
            seed: 3,
            min_delay: 1,
            max_delay: 10,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = run_harness(&config);
    assert!(report.all_committed && report.orders_agree());
    println!(
        "simulated r=4 peer set with 1 equivocator: {} versions committed, histories agree",
        report.correct_histories()[0].len()
    );
    Ok(())
}
