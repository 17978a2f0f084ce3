//! Distributed termination detection as an FSM family.
//!
//! Paper §5.2: "a distributed computation may be defined as being
//! terminated when each process in it has locally terminated and no
//! messages are in transit ... most distributed termination algorithms
//! are based upon message counting" (citing Mattern, reference 16, and
//! the derivations between termination detection and garbage collection,
//! references 17 and 18). This model is a Dijkstra–Scholten-style node:
//! work received while active is delegated (growing the
//! outstanding-children count); a node reports `done` to its parent once
//! it is passive and all children have reported.

use stategen_core::{
    AbstractModel, Action, Outcome, StateComponent, StateSpace, StateVector, TransitionSpec,
};

const ACTIVE: usize = 0;
const OUTSTANDING: usize = 1;
const DONE: usize = 2;

/// Termination-detection abstract model for a node with at most
/// `max_children` concurrently outstanding delegations.
#[derive(Debug, Clone, Copy)]
pub struct TerminationModel {
    max_children: u32,
}

impl TerminationModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `max_children == 0`.
    pub fn new(max_children: u32) -> Self {
        assert!(max_children >= 1, "need at least one delegation slot");
        TerminationModel { max_children }
    }
}

impl AbstractModel for TerminationModel {
    fn machine_name(&self) -> String {
        format!("termination@c={}", self.max_children)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::boolean("active"),
            StateComponent::int("outstanding", self.max_children),
            StateComponent::boolean("done"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["task".into(), "child_done".into(), "finish_work".into()]
    }

    fn start_state(&self) -> StateVector {
        // A node enters the computation on its first task.
        self.state_space().expect("schema is valid").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let mut v = state.clone();
        let mut actions = Vec::new();
        match message {
            "task" => {
                if !v.flag(ACTIVE) {
                    // First (or re-)engagement: become active.
                    v.set_flag(ACTIVE, true);
                } else {
                    // Busy: delegate to a child.
                    if v.get(OUTSTANDING) == self.max_children {
                        return Outcome::Ignored;
                    }
                    v.set(OUTSTANDING, v.get(OUTSTANDING) + 1);
                    actions.push(Action::send("task"));
                }
            }
            "child_done" => {
                if v.get(OUTSTANDING) == 0 {
                    return Outcome::Ignored;
                }
                v.set(OUTSTANDING, v.get(OUTSTANDING) - 1);
                if v.get(OUTSTANDING) == 0 && !v.flag(ACTIVE) {
                    // Passive with an empty subtree: report termination.
                    v.set_flag(DONE, true);
                    actions.push(Action::send("done"));
                }
            }
            "finish_work" => {
                if !v.flag(ACTIVE) {
                    return Outcome::Ignored;
                }
                v.set_flag(ACTIVE, false);
                if v.get(OUTSTANDING) == 0 {
                    v.set_flag(DONE, true);
                    actions.push(Action::send("done"));
                }
            }
            _ => return Outcome::Ignored,
        }
        Outcome::Transition(TransitionSpec {
            target: v,
            actions,
            annotations: Vec::new(),
        })
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        state.flag(DONE)
    }

    fn describe_state(&self, state: &StateVector) -> Vec<String> {
        vec![format!(
            "{}; {} outstanding delegation(s).",
            if state.flag(ACTIVE) {
                "Active"
            } else {
                "Passive"
            },
            state.get(OUTSTANDING)
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze, AnalysisConfig};
    use stategen_core::{generate, FlatIr, Lint, ProtocolEngine};

    #[test]
    fn generates_and_validates() {
        for c in [1u32, 3, 8] {
            let g = generate(&TerminationModel::new(c)).unwrap();
            assert_eq!(g.report.initial_states, 4 * (u64::from(c) + 1));
            let analysis = analyze(&FlatIr::from_machine(&g.machine), &AnalysisConfig::new());
            assert!(analysis.is_clean(), "c={c}: {:?}", analysis.diagnostics);
            for lint in [
                Lint::FinalWithOutgoing,
                Lint::UnreachableState,
                Lint::DeadEndState,
                Lint::DuplicateStateName,
            ] {
                assert!(!analysis.has(lint), "c={c}: {:?}", analysis.diagnostics);
            }
            assert!(g.machine.unique_final().is_some());
        }
    }

    #[test]
    fn termination_requires_passivity_and_empty_subtree() {
        let g = generate(&TerminationModel::new(3)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("task").unwrap(); // active
        assert_eq!(node.deliver("task").unwrap(), vec![Action::send("task")]); // delegate
        node.deliver("finish_work").unwrap(); // passive, child outstanding
        assert!(!node.is_finished());
        let actions = node.deliver("child_done").unwrap();
        assert_eq!(actions, vec![Action::send("done")]);
        assert!(node.is_finished());
    }

    #[test]
    fn finish_with_no_children_reports_immediately() {
        let g = generate(&TerminationModel::new(2)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("task").unwrap();
        assert_eq!(
            node.deliver("finish_work").unwrap(),
            vec![Action::send("done")]
        );
        assert!(node.is_finished());
    }

    #[test]
    fn spurious_child_done_ignored() {
        let g = generate(&TerminationModel::new(2)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("task").unwrap();
        assert!(node.deliver("child_done").unwrap().is_empty());
        assert_eq!(node.state_name(), "T/0/F");
    }

    #[test]
    fn delegation_bounded() {
        let g = generate(&TerminationModel::new(1)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("task").unwrap();
        node.deliver("task").unwrap(); // delegate (1 outstanding)
        assert!(node.deliver("task").unwrap().is_empty(), "slots exhausted");
    }
}
