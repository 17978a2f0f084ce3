//! Byzantine reliable broadcast as a message-counting FSM family.
//!
//! Paper §5.2 argues the methodology "is applicable to a range of
//! distributed applications that can be broadly characterised as message
//! counting algorithms", naming consensus and threshold algorithms. This
//! model is a Bracha-style reliable broadcast for one broadcast instance:
//! a node echoes the initial value, sends `ready` once enough echoes (or
//! enough readies) accumulate, and delivers once the external ready count
//! reaches the delivery threshold. The thresholds depend on `n`, so —
//! exactly as with the commit protocol — the states encode counts bounded
//! by `n` and the algorithm maps to a *family* of FSMs.

use stategen_core::{
    AbstractModel, Action, Outcome, StateComponent, StateSpace, StateVector, TransitionSpec,
};

const INITIAL_RECEIVED: usize = 0;
const ECHOES_RECEIVED: usize = 1;
const ECHO_SENT: usize = 2;
const READIES_RECEIVED: usize = 3;
const READY_SENT: usize = 4;

/// Reliable-broadcast abstract model for `n` participants tolerating
/// `f = floor((n-1)/3)` Byzantine peers.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastModel {
    n: u32,
}

impl BroadcastModel {
    /// Creates the model for `n ≥ 4` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (no Byzantine tolerance below 3f+1 with f ≥ 1).
    pub fn new(n: u32) -> Self {
        assert!(n >= 4, "reliable broadcast needs n >= 4");
        BroadcastModel { n }
    }

    /// Participants.
    pub fn participants(&self) -> u32 {
        self.n
    }

    /// Tolerated Byzantine peers.
    pub fn max_faulty(&self) -> u32 {
        (self.n - 1) / 3
    }

    /// Echo count (own echo included) required before sending `ready`.
    pub fn echo_threshold(&self) -> u32 {
        2 * self.max_faulty() + 1
    }

    /// External ready count that *amplifies* (forces our own `ready`).
    pub fn ready_amplify_threshold(&self) -> u32 {
        self.max_faulty() + 1
    }

    /// External ready count at which the value is delivered.
    pub fn delivery_threshold(&self) -> u32 {
        2 * self.max_faulty() + 1
    }

    fn total_echoes(v: &StateVector) -> u32 {
        v.get(ECHOES_RECEIVED) + u32::from(v.flag(ECHO_SENT))
    }

    /// Sends `ready` once, plus delivery bookkeeping.
    fn maybe_ready(&self, v: &mut StateVector, actions: &mut Vec<Action>) {
        if !v.flag(READY_SENT)
            && (Self::total_echoes(v) >= self.echo_threshold()
                || v.get(READIES_RECEIVED) >= self.ready_amplify_threshold())
        {
            v.set_flag(READY_SENT, true);
            actions.push(Action::send("ready"));
        }
    }
}

impl AbstractModel for BroadcastModel {
    fn machine_name(&self) -> String {
        format!("broadcast@n={}", self.n)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        let max = self.n - 1;
        StateSpace::new(vec![
            StateComponent::boolean("initial_received"),
            StateComponent::int("echoes_received", max),
            StateComponent::boolean("echo_sent"),
            StateComponent::int("readies_received", max),
            StateComponent::boolean("ready_sent"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["initial".into(), "echo".into(), "ready".into()]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("schema is valid").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let mut v = state.clone();
        let mut actions = Vec::new();
        match message {
            "initial" => {
                if v.flag(INITIAL_RECEIVED) {
                    return Outcome::Ignored;
                }
                v.set_flag(INITIAL_RECEIVED, true);
                if !v.flag(ECHO_SENT) {
                    v.set_flag(ECHO_SENT, true);
                    actions.push(Action::send("echo"));
                }
                self.maybe_ready(&mut v, &mut actions);
            }
            "echo" => {
                if v.get(ECHOES_RECEIVED) == self.n - 1 {
                    return Outcome::Ignored;
                }
                v.set(ECHOES_RECEIVED, v.get(ECHOES_RECEIVED) + 1);
                self.maybe_ready(&mut v, &mut actions);
            }
            "ready" => {
                if v.get(READIES_RECEIVED) == self.n - 1 {
                    return Outcome::Ignored;
                }
                v.set(READIES_RECEIVED, v.get(READIES_RECEIVED) + 1);
                self.maybe_ready(&mut v, &mut actions);
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
        state.get(READIES_RECEIVED) >= self.delivery_threshold()
    }

    fn describe_state(&self, state: &StateVector) -> Vec<String> {
        let mut lines = Vec::new();
        if self.is_final_state(state) {
            lines.push("The value has been delivered.".to_string());
        }
        lines.push(if state.flag(INITIAL_RECEIVED) {
            "Have received the initial value from the broadcaster.".to_string()
        } else {
            "Have not yet received the initial value.".to_string()
        });
        lines.push(format!(
            "Have received {} echoes and {} readies.",
            state.get(ECHOES_RECEIVED),
            state.get(READIES_RECEIVED)
        ));
        if state.flag(READY_SENT) {
            lines.push("Have sent ready.".to_string());
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze, AnalysisConfig};
    use stategen_core::{generate, FlatIr, Lint, ProtocolEngine};

    #[test]
    fn generates_family_members() {
        for n in [4u32, 7, 10] {
            let g = generate(&BroadcastModel::new(n)).expect("generates");
            // 2^3 * n^2 product states.
            assert_eq!(g.report.initial_states, 8 * u64::from(n) * u64::from(n));
            assert!(g.report.final_states < g.report.reachable_states);
            let analysis = analyze(&FlatIr::from_machine(&g.machine), &AnalysisConfig::new());
            assert!(analysis.is_clean(), "n={n}: {:?}", analysis.diagnostics);
            for lint in [
                Lint::FinalWithOutgoing,
                Lint::UnreachableState,
                Lint::DeadEndState,
                Lint::DuplicateStateName,
            ] {
                assert!(!analysis.has(lint), "n={n}: {:?}", analysis.diagnostics);
            }
            assert!(g.machine.unique_final().is_some(), "n={n}");
        }
    }

    #[test]
    fn happy_path_delivers() {
        let g = generate(&BroadcastModel::new(4)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        // Initial → echo; two more echoes (total 3 = 2f+1) → ready.
        assert_eq!(node.deliver("initial").unwrap(), vec![Action::send("echo")]);
        assert!(node.deliver("echo").unwrap().is_empty());
        assert_eq!(node.deliver("echo").unwrap(), vec![Action::send("ready")]);
        // Three external readies deliver.
        assert!(node.deliver("ready").unwrap().is_empty());
        assert!(node.deliver("ready").unwrap().is_empty());
        assert!(!node.is_finished());
        assert!(node.deliver("ready").unwrap().is_empty());
        assert!(node.is_finished());
    }

    #[test]
    fn ready_amplification_without_initial() {
        // A node that never saw the initial value still joins once f+1
        // readies arrive (so correct nodes converge).
        let g = generate(&BroadcastModel::new(4)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        assert!(node.deliver("ready").unwrap().is_empty());
        let actions = node.deliver("ready").unwrap();
        assert_eq!(
            actions,
            vec![Action::send("ready")],
            "f+1 = 2 readies amplify"
        );
    }

    #[test]
    fn echo_sent_only_once() {
        let g = generate(&BroadcastModel::new(4)).unwrap();
        let ir = FlatIr::from_machine(&g.machine);
        let mut node = ir.instance(vec![]);
        node.deliver("initial").unwrap();
        // The duplicate initial is not applicable.
        assert!(node.deliver("initial").unwrap().is_empty());
    }

    #[test]
    fn thresholds_match_bracha() {
        let m = BroadcastModel::new(7);
        assert_eq!(m.max_faulty(), 2);
        assert_eq!(m.echo_threshold(), 5);
        assert_eq!(m.ready_amplify_threshold(), 3);
        assert_eq!(m.delivery_threshold(), 5);
    }

    #[test]
    #[should_panic(expected = "n >= 4")]
    fn small_n_rejected() {
        BroadcastModel::new(3);
    }
}
