//! Diagnostics over the generated commit machines: which messages are
//! inapplicable where, and structural facts about the family.

use stategen_commit::{CommitConfig, CommitModel, CommitStateExt};
use stategen_core::{generate, StateRole};

/// In the r = 4 machine, every missing transition — a `(state, message)`
/// pair of a non-final state with no transition, a message the generator
/// found "not applicable" there — has an explanation: `update` is missing
/// exactly when the update was already received, and `vote`/`commit` are
/// missing exactly when the respective counter is exhausted;
/// `free`/`not_free` are missing when they would be no-ops or the
/// instance has voted/chosen.
#[test]
fn missing_transitions_are_explained_r4() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    let machine = &g.machine;
    for state in machine.states() {
        // Final states ignore every message by design.
        if state.role() == StateRole::Finish {
            continue;
        }
        let vector = state.vector().expect("generated states carry vectors");
        for name in machine.messages() {
            let mid = machine.message_id(name).expect("the machine's own message");
            if state.transition(mid).is_some() {
                continue;
            }
            match name.as_str() {
                "update" => assert!(vector.update_received(), "state {}", state.name()),
                "vote" => assert_eq!(vector.votes_received(), 3, "state {}", state.name()),
                "commit" => assert_eq!(vector.commits_received(), 3, "state {}", state.name()),
                "free" => assert!(
                    vector.vote_sent() || vector.has_chosen() || vector.could_choose(),
                    "state {}",
                    state.name()
                ),
                "not_free" => assert!(
                    vector.vote_sent() || vector.has_chosen() || !vector.could_choose(),
                    "state {}",
                    state.name()
                ),
                other => panic!("unexpected message {other}"),
            }
        }
    }
}

/// Every non-final state of every small family member can still reach
/// the final state (no livelock pockets in the generated machine).
#[test]
fn final_state_reachable_from_everywhere() {
    for r in [4u32, 7] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        let machine = &g.machine;
        let finish = machine.unique_final().expect("unique final");
        // Reverse reachability from the final state.
        let n = machine.state_count();
        let mut reaches = vec![false; n];
        reaches[finish.index()] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for (id, state) in machine.states_with_ids() {
                if reaches[id.index()] {
                    continue;
                }
                if state
                    .transitions()
                    .any(|(_, t)| reaches[t.target().index()])
                {
                    reaches[id.index()] = true;
                    changed = true;
                }
            }
        }
        for (id, state) in machine.states_with_ids() {
            assert!(
                reaches[id.index()],
                "r={r}: state {} cannot finish",
                state.name()
            );
        }
    }
}

/// The family grows monotonically in r, and the per-member structure is
/// consistent: exactly one start, one final, five messages.
#[test]
fn family_structure_monotone() {
    let mut previous = 0usize;
    for r in [4u32, 7, 13] {
        let g = generate(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        assert!(g.machine.state_count() > previous, "family grows with r");
        previous = g.machine.state_count();
        assert_eq!(g.machine.messages().len(), 5);
        assert_eq!(g.machine.final_state_ids().len(), 1);
        assert_eq!(
            g.machine
                .states()
                .iter()
                .filter(|s| s.role() == StateRole::Finish)
                .count(),
            1
        );
    }
}

/// Every phase transition of the r = 4 machine sends at least one peer
/// message (vote or commit) — `free`/`not_free` only ever accompany them
/// or a state change.
#[test]
fn phase_transitions_send_peer_messages() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap();
    for state in g.machine.states() {
        for (_mid, t) in state.transitions() {
            if t.is_phase_transition() {
                let sends_peer = t
                    .actions()
                    .iter()
                    .any(|a| matches!(a.message(), "vote" | "commit"));
                let only_signal = t
                    .actions()
                    .iter()
                    .all(|a| matches!(a.message(), "free" | "not_free"));
                assert!(
                    sends_peer || only_signal,
                    "state {}: unexpected action mix {:?}",
                    state.name(),
                    t.actions()
                );
            }
        }
    }
}
