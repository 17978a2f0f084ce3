//! Regenerates paper Fig 3: the early four-variable FSM excerpt. The
//! figure's labelled transition — state 1/0/1/0 receiving a vote, firing
//! the commit threshold, moving to 2/1/1/1 — is reproduced from the
//! reconstructed early model.

use stategen_commit::{CommitConfig, EarlyCommitModel};
use stategen_core::{generate, AbstractModel, FlatIr, Outcome};
use stategen_render::render_text;

fn main() {
    let model = EarlyCommitModel::new(CommitConfig::new(4).expect("valid"));
    let space = model.state_space().expect("schema");
    let s = space.parse_name("1/0/1/0").expect("state name");
    match model.transition(&s, "vote") {
        Outcome::Transition(spec) => {
            println!(
                "Fig 3 transition: 1/0/1/0 --<-vote--> {}   actions: {:?}",
                space.name_of(&spec.target),
                spec.actions
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
            );
        }
        Outcome::Ignored => unreachable!("the Fig 3 transition exists"),
    }
    let g = generate(&model).expect("generation succeeds");
    println!(
        "\nearly model at r=4: {} -> {} -> {} states\n",
        g.report.initial_states, g.report.reachable_states, g.report.final_states
    );
    print!("{}", render_text(&FlatIr::from_machine(&g.machine), None));
}
