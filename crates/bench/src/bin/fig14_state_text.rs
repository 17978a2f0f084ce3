//! Regenerates paper Fig 14: the generated textual description of state
//! T/2/F/0/F/F/F of the r = 4 commit machine, commentary included.

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::render_state_text;

fn main() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).expect("valid")))
        .expect("generation succeeds");
    let (id, _) = g
        .machine
        .state_by_name("T/2/F/0/F/F/F")
        .expect("the Fig 14 state survives pruning and merging");
    let ir = FlatIr::from_machine(&g.machine);
    let notes = Notes::from_machine(&g.machine);
    print!("{}", render_state_text(&ir, Some(&notes), id.index()));
}
