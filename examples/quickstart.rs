//! Quickstart: define an abstract model, then run the whole pipeline —
//! `Spec` (generate a family member) → `Engine` (pick an execution
//! tier) → `Runtime` (serve sessions) — plus a rendered artefact. The
//! complete paper workflow: design once, deploy under any execution
//! policy.
//!
//! Run with: `cargo run --example quickstart`

use stategen::prelude::*;
use stategen_core::TransitionSpec;

/// An "acknowledgement quorum" model: the machine counts acks and fires
/// `proceed` when the quorum is reached — a miniature message-counting
/// algorithm in the paper's sense, parameterised by the quorum size.
struct AckQuorum {
    quorum: u32,
}

impl AbstractModel for AckQuorum {
    fn machine_name(&self) -> String {
        format!("ack-quorum@{}", self.quorum)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::int("acks_received", self.quorum),
            StateComponent::boolean("proceed_sent"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["ack".into()]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("valid schema").zero_vector()
    }

    fn transition(&self, state: &StateVector, _message: &str) -> Outcome {
        if state.get(0) == self.quorum {
            return Outcome::Ignored;
        }
        let mut target = state.clone();
        target.set(0, state.get(0) + 1);
        let mut actions = Vec::new();
        if target.get(0) == self.quorum && !target.flag(1) {
            target.set_flag(1, true);
            actions.push(Action::send("proceed"));
        }
        Outcome::Transition(TransitionSpec {
            target,
            actions,
            annotations: vec![],
        })
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        state.flag(1)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One abstract model, three family members (paper §3.3): `Spec`
    // ingests anything the generation pipeline produces.
    for quorum in [2u32, 3, 5] {
        let generated = generate(&AckQuorum { quorum })?;
        println!(
            "{}: {} -> {} -> {} states",
            generated.machine.name(),
            generated.report.initial_states,
            generated.report.reachable_states,
            generated.report.final_states,
        );
    }

    // Render the quorum-3 member (generation also feeds the renderers).
    let generated = generate(&AckQuorum { quorum: 3 })?;
    let notes = Notes::from_machine(&generated.machine);
    let ir = FlatIr::from_machine(&generated.machine);
    println!("\n{}", render_text(&ir, Some(&notes)));

    // The pipeline: Spec -> Engine -> Runtime. `Spec::generated` runs
    // the model through the generator; `Engine::compile` picks the
    // dense-table serving tier (swap in `Engine::interpret` while
    // debugging a model — same Runtime API, no other change); the
    // engine is owned and `Send`, so it can move into servers freely.
    let engine = Engine::compile(Spec::generated(&AckQuorum { quorum: 3 })?)?;
    println!("engine: {} on the `{}` tier", engine.name(), engine.tier());

    // Serve one session and watch it reach the quorum.
    let mut rt = engine.runtime();
    let session = rt.spawn();
    let ack = rt.message_id("ack").expect("declared message");
    let mut fired = Vec::new();
    for _ in 0..3 {
        fired.extend(rt.deliver(session, ack).to_vec());
    }
    println!(
        "after 3 acks: state {}, actions fired: {fired:?}",
        rt.state_name(session)
    );
    assert!(rt.is_finished(session));

    // The same engine serves ten thousand concurrent sessions with the
    // same vocabulary — batching is the same API, not a different type.
    let mut many = engine.runtime_with(10_000);
    for _ in 0..3 {
        many.deliver_all(ack);
    }
    assert!(many.all_finished());
    println!(
        "10k sessions reached quorum in {} transitions",
        many.steps()
    );
    Ok(())
}
