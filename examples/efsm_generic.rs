//! The EFSM end of the spectrum (paper §5.3): one 9-state machine,
//! generic in the replication factor, trace-equivalent to every FSM
//! family member.
//!
//! Run with: `cargo run --example efsm_generic`

use stategen::commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen::fsm::{generate, FlatIr, Notes};
use stategen::render::render_text;
use stategen::runtime::{Engine, Spec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let efsm = commit_efsm();
    let notes = Notes::from_efsm(&efsm);
    println!("{}", render_text(&FlatIr::from_efsm(&efsm), Some(&notes)));
    assert_eq!(efsm.state_count(), 9, "paper §5.3");

    // One EFSM vs three generated FSMs: identical behaviour, both
    // served through the same `Spec → Engine → Runtime` pipeline — only
    // the `Spec` variant differs.
    for r in [4u32, 7, 13] {
        let config = CommitConfig::new(r)?;
        let machine = generate(&CommitModel::new(config))?.machine;
        let state_count = machine.state_count();
        let mut fsm_rt = Engine::compile(Spec::machine(machine))?.runtime();
        let mut efsm_rt =
            Engine::compile(Spec::efsm(efsm.clone(), commit_efsm_params(&config)))?.runtime();
        let (fsm_session, efsm_session) = (fsm_rt.spawn(), efsm_rt.spawn());
        let trace = ["update", "vote", "vote", "vote", "commit", "commit", "vote"];
        for message in trace {
            let a = fsm_rt
                .deliver(fsm_session, fsm_rt.message_id(message).unwrap())
                .to_vec();
            let b = efsm_rt.deliver(efsm_session, efsm_rt.message_id(message).unwrap());
            assert_eq!(a, b, "r={r}: EFSM must match the FSM");
        }
        println!("r={r}: EFSM (9 states) trace-equivalent to generated FSM ({state_count} states)");
    }
    Ok(())
}
