//! The generation engine: executes an [`AbstractModel`] to produce one
//! member of its FSM family.
//!
//! Paper §3.4 describes four steps; the engine runs the first three as
//! one search and builds the machine once:
//!
//! 1. **enumerate**, 2. **transitions** and 3. **prune** are one
//!    breadth-first search over state codes (the crate's one explorer),
//!    seeded with the start state. Each
//!    reached state has the effect of every message elaborated once via
//!    [`AbstractModel::transition`], and a target is enqueued the first
//!    time it is seen; states where the protocol has completed
//!    ([`AbstractModel::is_final_state`]) process no messages. What the
//!    start state cannot reach is never elaborated, so pruning is what
//!    the search leaves out (48 of the 512 states of the commit protocol
//!    at replication factor 4), and the full component product is
//!    counted, not built ([`GenerationReport::initial_states`]). The
//!    reached states are numbered in encoding order, as enumerating the
//!    whole product would number them.
//! 4. **merge** — combine equivalent states, i.e. states whose outgoing
//!    transitions perform the same actions and lead to the same target
//!    (48 → 33 at r = 4; in particular all completed states — which have
//!    no outgoing transitions — merge into the single conceptual finish
//!    state).
//!
//! The engine reports per-stage counts and timings in a
//! [`GenerationReport`], which is the data behind the paper's Table 1.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::component::StateVector;
use crate::error::GenerateError;
use crate::explore::explore;
use crate::machine::{
    check_alphabet, Action, AlphabetError, MessageId, State, StateId, StateMachine, StateRole,
    Transition,
};
use crate::model::{AbstractModel, Outcome};

/// Options controlling the generation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Explore from the start state only, so unreachable states are never
    /// elaborated (paper step 3). Default `true`. With `false` the
    /// search is seeded with every state of the space, in code order: the whole
    /// product is elaborated and held, which a large, sparsely reached
    /// space (up to `u32::MAX` states) cannot afford.
    pub prune: bool,
    /// Combine equivalent states (paper step 4), repeating the grouping
    /// until a fixpoint: states merged in one round can make further
    /// states equivalent in the next. Default `true`.
    pub merge: bool,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        GenerateOptions {
            prune: true,
            merge: true,
        }
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Steps 1–3: exploring the reached states, elaborating each against
    /// every message, and building the machine from them.
    pub explore: Duration,
    /// Step 4: equivalent-state merging.
    pub merge: Duration,
    /// Attaching generated documentation to surviving states.
    pub annotate: Duration,
}

/// Counts and timings from one run of the generation pipeline — the data
/// behind the paper's Table 1 and Figs 12/13.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// Name of the generated machine.
    pub machine_name: String,
    /// States in the full component product (Table 1 "initial states"):
    /// the product of the component ranges, computed, not enumerated.
    pub initial_states: u64,
    /// `(state, message)` pairs elaborated: every message against every
    /// reached state that is not final (160 for the commit protocol at
    /// r = 4; with pruning off, every non-final state of the space).
    pub elaborations: u64,
    /// Transitions recorded out of reached states (excludes ignored
    /// messages and no-op self loops).
    pub transitions_recorded: u64,
    /// Elaborated pairs the model declared not applicable.
    pub ignored: u64,
    /// No-op self loops out of reached states, dropped by the engine.
    pub self_loops_dropped: u64,
    /// States reached from the start state (48 for the commit protocol
    /// at r = 4, paper Fig 12; the whole space with pruning off).
    pub reachable_states: usize,
    /// States after equivalent-state merging (Table 1 "final states";
    /// 33 for the commit protocol at r = 4).
    pub final_states: usize,
    /// Grouping rounds performed by the merge step (including the final
    /// pass that confirms the fixpoint).
    pub merge_rounds: usize,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Total wall-clock generation time (Table 1 "generation time").
    pub total: Duration,
}

/// A generated machine together with its generation report.
#[derive(Debug, Clone)]
pub struct GeneratedMachine {
    /// The generated finite state machine.
    pub machine: StateMachine,
    /// Pipeline statistics.
    pub report: GenerationReport,
}

/// Executes `model` with default [`GenerateOptions`].
///
/// # Errors
///
/// Returns [`GenerateError`] if the model's schema, messages, start state
/// or produced vectors are malformed.
///
/// # Examples
///
/// ```
/// use stategen_core::{generate, AbstractModel, Outcome, StateComponent,
///     StateSpace, StateVector};
///
/// struct Count3;
/// impl AbstractModel for Count3 {
///     fn machine_name(&self) -> String { "count3".into() }
///     fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
///         StateSpace::new(vec![StateComponent::int("n", 3)])
///     }
///     fn messages(&self) -> Vec<String> { vec!["tick".into()] }
///     fn start_state(&self) -> StateVector {
///         self.state_space().unwrap().zero_vector()
///     }
///     fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
///         let mut t = s.clone();
///         t.set(0, s.get(0) + 1);
///         Outcome::to(t, vec![])
///     }
///     fn is_final_state(&self, s: &StateVector) -> bool { s.get(0) == 3 }
/// }
///
/// let generated = generate(&Count3)?;
/// assert_eq!(generated.report.initial_states, 4);
/// assert_eq!(generated.machine.final_state_ids().len(), 1);
/// # Ok::<(), stategen_core::GenerateError>(())
/// ```
pub fn generate(model: &dyn AbstractModel) -> Result<GeneratedMachine, GenerateError> {
    generate_with(model, &GenerateOptions::default())
}

/// Executes `model` with explicit options.
///
/// # Errors
///
/// As for [`generate`].
pub fn generate_with(
    model: &dyn AbstractModel,
    options: &GenerateOptions,
) -> Result<GeneratedMachine, GenerateError> {
    let overall = Instant::now();
    let mut timings = StageTimings::default();

    // -- Validate the model interface. ------------------------------------
    let space = model.state_space()?;
    let messages = model.messages();
    match check_alphabet(&messages) {
        Err(AlphabetError::Empty) => return Err(GenerateError::NoMessages),
        Err(AlphabetError::Duplicate(m)) => return Err(GenerateError::DuplicateMessage(m.into())),
        Ok(()) => {}
    }
    let start_vector = model.start_state();
    if !space.contains(&start_vector) {
        return Err(GenerateError::InvalidStart(format!("{start_vector}")));
    }

    // -- Steps 1–3: elaborate each reached state once. --------------------
    let stage = Instant::now();
    let new_state = |vector: StateVector| {
        let role = if model.is_final_state(&vector) {
            StateRole::Finish
        } else {
            StateRole::Normal
        };
        State::new(space.name_of(&vector), Some(vector), role, Vec::new())
    };
    let roots: Vec<StateVector> = if options.prune {
        vec![start_vector.clone()]
    } else {
        space.iter().collect()
    };
    // A state is explored as its code, the bits kept in a one-word row.
    let code = |vector: &StateVector| [space.encode(vector) as i64];
    let root_codes: Vec<_> = roots.iter().map(|v| (0, code(v))).collect();
    // The reached states in discovery order, their targets numbered so.
    let mut states: Vec<State> = roots.into_iter().map(new_state).collect();
    let (mut elaborations, mut transitions_recorded) = (0u64, 0u64);
    let (mut ignored, mut self_loops_dropped) = (0u64, 0u64);
    let codes = explore(1, root_codes, usize::MAX, |codes, at| {
        let at = at as usize;
        if states[at].role() == StateRole::Finish {
            // A completed instance processes no further messages.
            return Ok(());
        }
        for (mid, message) in messages.iter().enumerate() {
            elaborations += 1;
            let vector = states[at]
                .vector()
                .expect("a generated state has its vector");
            let Outcome::Transition(spec) = model.transition(vector, message) else {
                ignored += 1;
                continue;
            };
            if !space.contains(&spec.target) {
                return Err(GenerateError::InvalidVector {
                    vector: format!("{}", spec.target),
                    context: "transition elaboration",
                });
            }
            // The paper's generator omits a transition that neither
            // changes state nor acts: the message is not applicable there.
            if spec.target == *vector && spec.actions.is_empty() {
                self_loops_dropped += 1;
                continue;
            }
            transitions_recorded += 1;
            let (target, new) = codes
                .visit(0, &code(&spec.target))
                .expect("fewer reached states than u32 ids");
            if new {
                states.push(new_state(spec.target));
            }
            let transition = Transition::new(StateId(target), spec.actions, spec.annotations);
            states[at].insert_transition(MessageId(mid as u16), transition);
        }
        Ok(())
    })?;

    // Number the reached states in code order, as enumerating the whole
    // space would.
    let start = StateId(codes.find(0, &code(&start_vector)).expect("reached"));
    let mut machine = StateMachine::from_parts(model.machine_name(), messages, states, start);
    let keys: Vec<_> = codes.rows().iter().map(|&code| Some(code as u64)).collect();
    machine.renumber(&keys);
    let reachable_states = machine.state_count();
    timings.explore = stage.elapsed();

    // -- Step 4: combine equivalent states. -------------------------------
    let stage = Instant::now();
    let (mut machine, merge_rounds) = if options.merge {
        merge_states(machine)
    } else {
        (machine, 0)
    };
    timings.merge = stage.elapsed();
    let final_states = machine.state_count();

    // -- Attach generated documentation (paper footnote 3). ---------------
    let stage = Instant::now();
    machine.annotate(|v| model.describe_state(v));
    timings.annotate = stage.elapsed();

    let report = GenerationReport {
        machine_name: machine.name().to_string(),
        initial_states: space.state_count(),
        elaborations,
        transitions_recorded,
        ignored,
        self_loops_dropped,
        reachable_states,
        final_states,
        merge_rounds,
        timings,
        total: overall.elapsed(),
    };
    Ok(GeneratedMachine { machine, report })
}

/// Removes states unreachable from the start state (paper §3.4 step 3),
/// returning the pruned machine.
///
/// This is the generator's reference: the pipeline never builds an
/// unreachable state, and its search is checked against enumerating the
/// whole space, then this, then merging.
pub fn prune_unreachable(machine: &StateMachine) -> StateMachine {
    let mut seen = vec![false; machine.state_count()];
    let mut queue = VecDeque::new();
    seen[machine.start().index()] = true;
    queue.push_back(machine.start());
    while let Some(id) = queue.pop_front() {
        for (_m, t) in machine.state(id).transitions() {
            if !seen[t.target().index()] {
                seen[t.target().index()] = true;
                queue.push_back(t.target());
            }
        }
    }
    let keys: Vec<_> = (0..)
        .zip(seen)
        .map(|(at, kept)| kept.then_some(at))
        .collect();
    let mut pruned = machine.clone();
    pruned.renumber(&keys);
    pruned
}

/// Combines equivalent states (paper §3.4 step 4): states are equivalent
/// when their outgoing transitions fire on the same messages, perform the
/// same actions and lead to the same destination, compared up to the
/// equivalence computed so far; grouping repeats until stable.
///
/// Returns the merged machine and the number of grouping rounds performed
/// (including the final pass that confirms the fixpoint). The
/// representative (and name) of each merged group is its lowest-numbered
/// member. Completed states only merge with completed states.
pub fn merge_equivalent_states(machine: &StateMachine) -> (StateMachine, usize) {
    merge_states(machine.clone())
}

/// [`merge_equivalent_states`] on a machine the caller gives up.
fn merge_states(mut machine: StateMachine) -> (StateMachine, usize) {
    let n = machine.state_count();
    // Every transition's action list, interned, in transition order.
    let lists: Vec<u32> = {
        let mut ids: HashMap<&[Action], u32> = HashMap::new();
        let transitions = machine.states().iter().flat_map(State::transitions);
        transitions
            .map(|(_, t)| {
                let fresh = ids.len() as u32;
                *ids.entry(t.actions()).or_insert(fresh)
            })
            .collect()
    };
    // class[i] = lowest state index in i's equivalence group.
    let mut class: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0usize;
    let (mut sigs, mut ends) = (Vec::new(), Vec::with_capacity(n));
    loop {
        rounds += 1;
        // Signature: the role, so finish states only group with finish
        // states, then per transition its message, action list and target
        // class. States are visited in index order, so the first member
        // of a group is its lowest.
        sigs.clear();
        ends.clear();
        let mut list = lists.iter();
        for state in machine.states() {
            sigs.push(u32::from(state.role() == StateRole::Finish));
            for (m, t) in state.transitions() {
                let actions = *list.next().expect("one list per transition");
                sigs.extend([m.index() as u32, actions, class[t.target().index()]]);
            }
            ends.push(sigs.len());
        }
        let mut groups: HashMap<&[u32], u32> = HashMap::with_capacity(n);
        let mut begin = 0;
        let next_class: Vec<u32> = (0..n as u32)
            .zip(&ends)
            .map(|(i, &end)| {
                let sig = &sigs[begin..end];
                begin = end;
                *groups.entry(sig).or_insert(i)
            })
            .collect();
        let changed = next_class != class;
        class = next_class;
        if !changed {
            break;
        }
    }
    // Keep one state per class, numbered in representative order.
    let keys: Vec<_> = class.iter().map(|&rep| Some(u64::from(rep))).collect();
    machine.renumber(&keys);
    (machine, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{StateComponent, StateSpace};

    /// Counter that completes at `max` and emits a "fire" action at
    /// `threshold` (a miniature phase transition).
    struct ThresholdCounter {
        max: u32,
        threshold: u32,
    }

    impl AbstractModel for ThresholdCounter {
        fn machine_name(&self) -> String {
            format!("threshold@{}/{}", self.threshold, self.max)
        }

        fn state_space(&self) -> Result<StateSpace, crate::SchemaError> {
            StateSpace::new(vec![
                StateComponent::int("n", self.max),
                StateComponent::boolean("fired"),
            ])
        }

        fn messages(&self) -> Vec<String> {
            vec!["tick".into(), "noop".into()]
        }

        fn start_state(&self) -> StateVector {
            self.state_space().expect("schema").zero_vector()
        }

        fn transition(&self, state: &StateVector, message: &str) -> Outcome {
            match message {
                "noop" => Outcome::to(state.clone(), vec![]),
                "tick" => {
                    let mut t = state.clone();
                    t.set(0, state.get(0) + 1);
                    let mut actions = Vec::new();
                    if t.get(0) == self.threshold && !t.flag(1) {
                        t.set_flag(1, true);
                        actions.push(Action::send("fire"));
                    }
                    Outcome::to(t, actions)
                }
                other => panic!("unknown message {other}"),
            }
        }

        fn is_final_state(&self, state: &StateVector) -> bool {
            state.get(0) == self.max
        }
    }

    #[test]
    fn pipeline_counts() {
        let model = ThresholdCounter {
            max: 3,
            threshold: 2,
        };
        let g = generate(&model).expect("generate");
        // 4 counter values x 2 flag values, counted, not enumerated.
        assert_eq!(g.report.initial_states, 8);
        // Reachable: (0,F) (1,F) (2,T) (3,T).
        assert_eq!(g.report.reachable_states, 4);
        // Only reached states are elaborated, and the final one (3,T) is
        // not: 3 states x 2 messages. (1,T), (2,F) and (0,T) are never
        // reached, so never elaborated.
        assert_eq!(g.report.elaborations, 6);
        // No two distinct reachable states are equivalent here.
        assert_eq!(g.report.final_states, 4);
        assert_eq!(g.machine.final_state_ids().len(), 1);
        // noop self-loops dropped for each of the 3 elaborated states.
        assert_eq!(g.report.self_loops_dropped, 3);
    }

    /// A thermometer counter over 31 flags: the product has 2³¹ states,
    /// the start state reaches 10 of them.
    struct Thermometer;

    impl AbstractModel for Thermometer {
        fn machine_name(&self) -> String {
            "thermometer".into()
        }

        fn state_space(&self) -> Result<StateSpace, crate::SchemaError> {
            StateSpace::new(
                (0..31)
                    .map(|i| StateComponent::boolean(format!("f{i}")))
                    .collect(),
            )
        }

        fn messages(&self) -> Vec<String> {
            vec!["up".into()]
        }

        fn start_state(&self) -> StateVector {
            self.state_space().expect("schema").zero_vector()
        }

        fn transition(&self, state: &StateVector, _message: &str) -> Outcome {
            let mut t = state.clone();
            let level = state.values().iter().filter(|&&v| v != 0).count();
            t.set_flag(level, true);
            Outcome::to(t, vec![Action::send("tick")])
        }

        fn is_final_state(&self, state: &StateVector) -> bool {
            state.flag(8)
        }
    }

    #[test]
    fn sparse_product_generates_what_it_reaches() {
        let g = generate(&Thermometer).expect("generate");
        assert_eq!(g.report.initial_states, 1 << 31);
        assert_eq!(g.report.reachable_states, 10);
        assert_eq!(g.report.elaborations, 9);
        assert_eq!(g.report.final_states, 10);
        assert!(
            g.report.total < Duration::from_secs(1),
            "{:?}",
            g.report.total
        );
    }

    #[test]
    fn no_prune_keeps_full_space() {
        let model = ThresholdCounter {
            max: 3,
            threshold: 2,
        };
        let options = GenerateOptions {
            prune: false,
            merge: false,
        };
        let g = generate_with(&model, &options).expect("generate");
        assert_eq!(g.machine.state_count(), 8);
        // Both (3,F) and (3,T) are final in the unpruned machine.
        assert_eq!(g.machine.final_state_ids().len(), 2);
    }

    #[test]
    fn equivalent_finals_merge_to_one() {
        let model = ThresholdCounter {
            max: 3,
            threshold: 2,
        };
        let options = GenerateOptions {
            prune: false,
            ..Default::default()
        };
        let g = generate_with(&model, &options).expect("generate");
        // Merging combines the two final states even without pruning.
        assert_eq!(g.machine.final_state_ids().len(), 1);
        assert!(g.machine.unique_final().is_some());
    }

    #[test]
    fn phase_transition_detected() {
        let model = ThresholdCounter {
            max: 3,
            threshold: 2,
        };
        let g = generate(&model).expect("generate");
        let phases = g.machine.states().iter().flat_map(|s| s.transitions());
        assert_eq!(phases.filter(|(_, t)| t.is_phase_transition()).count(), 1);
        let tick = g.machine.message_id("tick").unwrap();
        let s1 = g
            .machine
            .state(g.machine.start())
            .transition(tick)
            .unwrap()
            .target();
        let t = g.machine.state(s1).transition(tick).unwrap();
        assert_eq!(t.actions(), &[Action::send("fire")]);
    }

    #[test]
    fn final_state_is_terminal() {
        let model = ThresholdCounter {
            max: 3,
            threshold: 2,
        };
        let g = generate(&model).expect("generate");
        let finish = g.machine.unique_final().expect("unique final state");
        let state = g.machine.state(finish);
        assert_eq!(state.role(), StateRole::Finish);
        assert_eq!(state.transition_count(), 0);
        assert_eq!(state.name(), "3/T");
    }

    /// Two chains that do the same thing should merge into one under
    /// fixpoint merging.
    #[test]
    fn merge_collapses_parallel_chains() {
        use crate::machine::StateMachineBuilder;
        let mut b = StateMachineBuilder::new("twin", ["go"]);
        let s0 = b.add_state("s0");
        let a1 = b.add_state("a1");
        let b1 = b.add_state("b1");
        let end = b.add_state("end");
        // Two distinct intermediate states with identical behaviour.
        b.add_transition(s0, "go", a1, vec![Action::send("x")]);
        b.add_transition(a1, "go", end, vec![]);
        b.add_transition(b1, "go", end, vec![]);
        let m = b.build(s0);
        let (merged, _rounds) = merge_equivalent_states(&m);
        // a1 and b1 merge; s0 and end stay distinct.
        assert_eq!(merged.state_count(), 3);
    }

    #[test]
    fn merge_cascades_to_fixpoint() {
        use crate::machine::StateMachineBuilder;
        // Chain pairs: (a2,b2) merge only after (a1,b1) merged.
        let mut b = StateMachineBuilder::new("chain", ["go"]);
        let s0 = b.add_state("s0");
        let a2 = b.add_state("a2");
        let b2 = b.add_state("b2");
        let a1 = b.add_state("a1");
        let b1 = b.add_state("b1");
        let end = b.add_state("end");
        b.add_transition(s0, "go", a2, vec![Action::send("x")]);
        b.add_transition(a2, "go", a1, vec![]);
        b.add_transition(b2, "go", b1, vec![]);
        b.add_transition(a1, "go", end, vec![]);
        b.add_transition(b1, "go", end, vec![]);
        let m = b.build(s0);
        let (fix, rounds) = merge_equivalent_states(&m);
        assert_eq!(fix.state_count(), 4); // both pairs merged
                                          // (a1,b1) in the first round, (a2,b2) in the second, and a third
                                          // that changes nothing.
        assert_eq!(rounds, 3);
    }

    #[test]
    fn merge_respects_roles() {
        use crate::machine::StateMachineBuilder;
        // A dead-end normal state must not merge with a final state.
        let mut b = StateMachineBuilder::new("roles", ["go"]);
        let s0 = b.add_state("s0");
        let dead = b.add_state("dead");
        let fin = b.add_state_full("fin", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "go", dead, vec![]);
        b.add_transition(dead, "go", fin, vec![]);
        let m = b.build(s0);
        let (merged, _) = merge_equivalent_states(&m);
        assert_eq!(merged.state_count(), 3);
    }

    #[test]
    fn prune_standalone() {
        use crate::machine::StateMachineBuilder;
        let mut b = StateMachineBuilder::new("m", ["go"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let orphan = b.add_state("orphan");
        b.add_transition(s0, "go", s1, vec![]);
        b.add_transition(orphan, "go", s1, vec![]);
        let m = b.build(s0);
        let pruned = prune_unreachable(&m);
        assert_eq!(pruned.state_count(), 2);
        assert!(pruned.state_by_name("orphan").is_none());
        assert_eq!(pruned.state(pruned.start()).name(), "s0");
    }

    #[test]
    fn invalid_start_rejected() {
        struct BadStart;
        impl AbstractModel for BadStart {
            fn machine_name(&self) -> String {
                "bad".into()
            }
            fn state_space(&self) -> Result<StateSpace, crate::SchemaError> {
                StateSpace::new(vec![StateComponent::int("n", 1)])
            }
            fn messages(&self) -> Vec<String> {
                vec!["tick".into()]
            }
            fn start_state(&self) -> StateVector {
                let mut v = self.state_space().unwrap().zero_vector();
                v.set(0, 9); // out of range
                v
            }
            fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
                Outcome::to(s.clone(), vec![])
            }
        }
        assert!(matches!(
            generate(&BadStart),
            Err(GenerateError::InvalidStart(_))
        ));
    }

    #[test]
    fn invalid_target_rejected() {
        struct BadTarget;
        impl AbstractModel for BadTarget {
            fn machine_name(&self) -> String {
                "bad".into()
            }
            fn state_space(&self) -> Result<StateSpace, crate::SchemaError> {
                StateSpace::new(vec![StateComponent::int("n", 1)])
            }
            fn messages(&self) -> Vec<String> {
                vec!["tick".into()]
            }
            fn start_state(&self) -> StateVector {
                self.state_space().unwrap().zero_vector()
            }
            fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
                let mut t = s.clone();
                t.set(0, 9);
                Outcome::to(t, vec![])
            }
        }
        assert!(matches!(
            generate(&BadTarget),
            Err(GenerateError::InvalidVector { .. })
        ));
    }

    #[test]
    fn duplicate_messages_rejected() {
        struct DupMsg;
        impl AbstractModel for DupMsg {
            fn machine_name(&self) -> String {
                "dup".into()
            }
            fn state_space(&self) -> Result<StateSpace, crate::SchemaError> {
                StateSpace::new(vec![StateComponent::boolean("f")])
            }
            fn messages(&self) -> Vec<String> {
                vec!["a".into(), "a".into()]
            }
            fn start_state(&self) -> StateVector {
                self.state_space().unwrap().zero_vector()
            }
            fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
                Outcome::to(s.clone(), vec![])
            }
        }
        assert!(matches!(
            generate(&DupMsg),
            Err(GenerateError::DuplicateMessage(_))
        ));
    }
}
