//! Golden test: the textual rendering of state `T/2/F/0/F/F/F` of the
//! r = 4 commit machine reproduces paper Fig 14 — header, generated
//! commentary, and all three transitions with their actions — line for
//! line (the paper's extra blank lines between blocks are collapsed).

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::{render_state_text, render_text};

/// Paper Fig 14, with consecutive blank lines collapsed.
const FIG14: &str = "\
state: T/2/F/0/F/F/F
--------------------
Description:
Have received initial update from client.
Have not voted since another update has already been voted for.
Have received 2 votes and no commits.
Have not sent a commit since neither the vote threshold (3) nor the external commit threshold (2) has been reached.
May not choose since another ongoing update has been voted for.
Have not chosen this update since another ongoing update has been chosen.
Waiting for 1 further vote (including local vote if any) before sending commit.
Waiting for 2 further external commits to finish.
Transitions:
 message: VOTE
  action: ->vote
  action: ->commit
  transition to: T/3/T/0/T/F/F
 message: COMMIT
  transition to: T/2/F/1/F/F/F
 message: FREE
  action: ->vote
  action: ->commit
  action: ->not free
  transition to: T/2/T/0/T/T/T
";

fn collapse_blank_lines(s: &str) -> String {
    let mut out = String::new();
    for line in s.lines() {
        if line.trim().is_empty() {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn fig14_state_rendering_matches_paper() {
    let model = CommitModel::new(CommitConfig::new(4).expect("valid"));
    let generated = generate(&model).expect("generation succeeds");
    let (id, _) = generated
        .machine
        .state_by_name("T/2/F/0/F/F/F")
        .expect("Fig 14 state survives pruning and merging");
    let ir = FlatIr::from_machine(&generated.machine);
    let notes = Notes::from_machine(&generated.machine);
    let text = render_state_text(&ir, Some(&notes), id.index());
    assert_eq!(collapse_blank_lines(&text), collapse_blank_lines(FIG14));
}

#[test]
fn whole_machine_rendering_contains_every_state() {
    let model = CommitModel::new(CommitConfig::new(4).expect("valid"));
    let generated = generate(&model).expect("generation succeeds");
    let ir = FlatIr::from_machine(&generated.machine);
    let notes = Notes::from_machine(&generated.machine);
    let text = render_text(&ir, Some(&notes));
    assert!(text.starts_with("machine: commit@r=4\n"));
    assert!(text.contains("messages: UPDATE, VOTE, COMMIT, FREE, NOT FREE\n"));
    assert!(text.contains("states: 33\n"));
    for state in generated.machine.states() {
        assert!(
            text.contains(&format!("state: {}", state.name())),
            "missing state {}",
            state.name()
        );
    }
}
