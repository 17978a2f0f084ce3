//! Rotating-coordinator round consensus as an FSM family.
//!
//! Paper §5.2 names the Chandra–Toueg consensus algorithm (reference 15) as a
//! natural fit: "each of n processes counts rounds with a rotating
//! coordinator ... the state held at each node and the messages
//! themselves are relatively simple and amenable to being processed by a
//! FSM". This model captures the round structure of one participant: in
//! each round the coordinator's proposal is acknowledged or rejected;
//! a majority of positive acknowledgements decides, a rejection advances
//! the round (rotating the coordinator); running out of rounds aborts.

use stategen_core::{
    AbstractModel, Action, Outcome, StateComponent, StateSpace, StateVector, TransitionSpec,
};

const ROUND: usize = 0;
const PROPOSAL_RECEIVED: usize = 1;
const ACKS_RECEIVED: usize = 2;
const DECIDED: usize = 3;

/// Round-consensus abstract model for `n` participants and up to
/// `max_rounds` coordinator rotations.
#[derive(Debug, Clone, Copy)]
pub struct RoundsModel {
    n: u32,
    max_rounds: u32,
}

impl RoundsModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `max_rounds == 0`.
    pub fn new(n: u32, max_rounds: u32) -> Self {
        assert!(n >= 2, "consensus needs at least two processes");
        assert!(max_rounds >= 1, "need at least one round");
        RoundsModel { n, max_rounds }
    }

    /// Majority threshold (external acks counted; the proposer's own
    /// vote is implicit in the proposal).
    pub fn majority(&self) -> u32 {
        self.n / 2 + 1
    }
}

impl AbstractModel for RoundsModel {
    fn machine_name(&self) -> String {
        format!("rounds@n={},rmax={}", self.n, self.max_rounds)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::int("round", self.max_rounds - 1),
            StateComponent::boolean("proposal_received"),
            StateComponent::int("acks_received", self.n - 1),
            StateComponent::boolean("decided"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec![
            "propose".into(),
            "ack".into(),
            "nack".into(),
            "decide".into(),
        ]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("schema is valid").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let mut v = state.clone();
        let mut actions = Vec::new();
        match message {
            "propose" => {
                if v.flag(PROPOSAL_RECEIVED) {
                    return Outcome::Ignored;
                }
                v.set_flag(PROPOSAL_RECEIVED, true);
                actions.push(Action::send("ack"));
            }
            "ack" => {
                if !v.flag(PROPOSAL_RECEIVED) || v.get(ACKS_RECEIVED) == self.n - 1 {
                    return Outcome::Ignored;
                }
                v.set(ACKS_RECEIVED, v.get(ACKS_RECEIVED) + 1);
                if v.get(ACKS_RECEIVED) >= self.majority() {
                    // Phase transition: the round's proposal is decided.
                    v.set_flag(DECIDED, true);
                    actions.push(Action::send("decide"));
                }
            }
            "nack" => {
                // The coordinator's proposal failed: rotate to the next
                // round, clearing per-round state.
                if v.get(ROUND) + 1 == self.max_rounds {
                    return Outcome::Ignored; // no rounds left: stay put
                }
                v.set(ROUND, v.get(ROUND) + 1);
                v.set_flag(PROPOSAL_RECEIVED, false);
                v.set(ACKS_RECEIVED, 0);
            }
            "decide" => {
                // Someone else observed the majority first.
                v.set_flag(DECIDED, true);
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
        state.flag(DECIDED)
    }

    fn describe_state(&self, state: &StateVector) -> Vec<String> {
        vec![format!(
            "Round {} of {}; proposal {}; {} acks (majority {}).",
            state.get(ROUND) + 1,
            self.max_rounds,
            if state.flag(PROPOSAL_RECEIVED) {
                "received"
            } else {
                "pending"
            },
            state.get(ACKS_RECEIVED),
            self.majority()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze, AnalysisConfig};
    use stategen_core::{generate, FlatIr, Lint, ProtocolEngine};

    #[test]
    fn family_scales_with_parameters() {
        let small = generate(&RoundsModel::new(3, 2)).unwrap();
        let large = generate(&RoundsModel::new(7, 5)).unwrap();
        assert!(large.report.final_states > small.report.final_states);
        for g in [&small, &large] {
            let analysis = analyze(&FlatIr::from_machine(&g.machine), &AnalysisConfig::new());
            assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
            for lint in [
                Lint::FinalWithOutgoing,
                Lint::UnreachableState,
                Lint::DeadEndState,
                Lint::DuplicateStateName,
            ] {
                assert!(!analysis.has(lint), "{:?}", analysis.diagnostics);
            }
        }
    }

    #[test]
    fn decide_on_majority() {
        let g = generate(&RoundsModel::new(4, 3)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        assert_eq!(node.deliver("propose").unwrap(), vec![Action::send("ack")]);
        assert!(node.deliver("ack").unwrap().is_empty());
        assert!(node.deliver("ack").unwrap().is_empty());
        // Third ack reaches majority (n/2+1 = 3): decide.
        assert_eq!(node.deliver("ack").unwrap(), vec![Action::send("decide")]);
        assert!(node.is_finished());
    }

    #[test]
    fn nack_rotates_round_and_resets() {
        let g = generate(&RoundsModel::new(4, 3)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("propose").unwrap();
        node.deliver("ack").unwrap();
        node.deliver("nack").unwrap();
        assert_eq!(node.state_name(), "1/F/0/F", "round 2, cleared state");
        // A new proposal starts the new round.
        assert_eq!(node.deliver("propose").unwrap(), vec![Action::send("ack")]);
    }

    #[test]
    fn decide_message_short_circuits() {
        let g = generate(&RoundsModel::new(5, 2)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        assert!(node.deliver("decide").unwrap().is_empty());
        assert!(node.is_finished());
    }

    #[test]
    fn acks_require_proposal() {
        let g = generate(&RoundsModel::new(4, 2)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        assert!(node.deliver("ack").unwrap().is_empty());
        assert_eq!(node.state_name(), "0/F/0/F", "ack without proposal ignored");
    }

    #[test]
    fn last_round_nack_is_ignored() {
        let g = generate(&RoundsModel::new(3, 1)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("propose").unwrap();
        assert!(node.deliver("nack").unwrap().is_empty());
        assert_eq!(node.state_name(), "0/T/0/F");
    }
}
