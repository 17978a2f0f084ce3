//! Regenerates the paper's Figs 7/11/12/13 pipeline story for r = 4:
//! a 512-state space, of which the start state reaches 48 (each of their
//! 32 non-final states elaborated against the 5 messages), 33 after
//! combining equivalent states — with per-stage timings.

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::generate;
use stategen_render::render_generation_report;

fn main() {
    let model = CommitModel::new(CommitConfig::new(4).expect("valid"));
    let g = generate(&model).expect("generation succeeds");
    print!("{}", render_generation_report(&g.report));
    println!();
    assert_eq!(g.report.initial_states, 512, "step 1 (Fig 7)");
    assert_eq!(g.report.reachable_states, 48, "step 3 (Fig 12)");
    assert_eq!(g.report.elaborations, 160, "step 2, reached states only");
    assert_eq!(g.report.final_states, 33, "step 4 (Fig 13)");
    println!("512 -> 48 -> 33: matches paper §3.4 and Figs 12/13");
}
