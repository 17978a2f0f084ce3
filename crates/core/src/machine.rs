//! Concrete finite-state-machine representation.
//!
//! These types mirror the paper's `StateMachine` / `State` / `Transition`
//! classes (Fig 5): a machine is a collection of named states linked by
//! message-labelled transitions; transitions carry the actions to perform
//! (outgoing messages to send) and both states and transitions may carry
//! documentation annotations.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::component::StateVector;
use crate::error::{CompileError, InterpError};
use crate::ir::FlatIr;

/// Identifier of a message within a [`StateMachine`] (index into
/// [`StateMachine::messages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub(crate) u16);

impl MessageId {
    /// The index into the machine's message table.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Most messages one alphabet may declare: every [`MessageId`] fits a
/// `u16`. The artifact loader's limit too.
pub(crate) const MAX_MESSAGES: usize = 1 << 16;

/// Why [`check_alphabet`] refuses an alphabet; `Display` gives the
/// builders' panic text.
pub(crate) enum AlphabetError<'a> {
    Empty,
    Duplicate(&'a str),
}

impl fmt::Display for AlphabetError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphabetError::Empty => write!(f, "machine must declare at least one message"),
            AlphabetError::Duplicate(m) => write!(f, "duplicate message `{m}` in machine alphabet"),
        }
    }
}

/// The one alphabet check, run by every builder and the generator in
/// one pass: non-empty and no name twice (reported at its second
/// occurrence). Panics past [`MAX_MESSAGES`] messages.
pub(crate) fn check_alphabet(messages: &[String]) -> Result<(), AlphabetError<'_>> {
    let count = messages.len();
    assert!(
        count <= MAX_MESSAGES,
        "too many messages: {count} > {MAX_MESSAGES}"
    );
    let mut seen = HashSet::with_capacity(count);
    match messages.iter().find(|m| !seen.insert(m.as_str())) {
        Some(m) => Err(AlphabetError::Duplicate(m)),
        None if count == 0 => Err(AlphabetError::Empty),
        None => Ok(()),
    }
}

/// Identifier of a state within a [`StateMachine`] (index into
/// [`StateMachine::states`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The index into the machine's state table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An action attached to a transition: an outgoing message to send when the
/// transition fires (a *phase transition* in the paper's terminology).
///
/// The paper renders actions as `->vote`, `->commit`, `->free`,
/// `->not free`; the action name here is the bare message name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action(String);

impl Action {
    /// Creates an action that sends the named message.
    pub fn send(message: impl Into<String>) -> Self {
        Action(message.into())
    }

    /// The name of the message this action sends.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "->{}", self.0)
    }
}

/// A transition out of a state, triggered by the receipt of one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    target: StateId,
    actions: Vec<Action>,
    annotations: Vec<String>,
}

impl Transition {
    /// Creates a transition to `target` performing `actions`.
    pub fn new(target: StateId, actions: Vec<Action>, annotations: Vec<String>) -> Self {
        Transition {
            target,
            actions,
            annotations,
        }
    }

    /// The state reached after this transition.
    pub fn target(&self) -> StateId {
        self.target
    }

    /// Actions (messages sent) when this transition fires. Empty for
    /// *simple* transitions; non-empty for *phase* transitions.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// `true` if this transition performs actions (paper: phase transition).
    pub fn is_phase_transition(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Documentation annotations generated alongside the transition.
    pub fn annotations(&self) -> &[String] {
        &self.annotations
    }
}

/// Role of a state within the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateRole {
    /// An ordinary state drawn from the model's state space.
    Normal,
    /// The distinguished finish state: the protocol instance has completed
    /// and ignores all further messages.
    Finish,
}

/// One state of a generated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    name: String,
    vector: Option<StateVector>,
    role: StateRole,
    transitions: BTreeMap<u16, Transition>,
    annotations: Vec<String>,
}

impl State {
    /// Creates a state.
    ///
    /// `vector` is the underlying state-space point for states generated
    /// from an abstract model, and `None` for synthetic states (finish).
    pub fn new(
        name: impl Into<String>,
        vector: Option<StateVector>,
        role: StateRole,
        annotations: Vec<String>,
    ) -> Self {
        State {
            name: name.into(),
            vector,
            role,
            transitions: BTreeMap::new(),
            annotations,
        }
    }

    /// The state's display name (e.g. `T/2/F/0/F/F/F`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state-space point this state encodes, if it is not synthetic.
    pub fn vector(&self) -> Option<&StateVector> {
        self.vector.as_ref()
    }

    /// The state's role.
    pub fn role(&self) -> StateRole {
        self.role
    }

    /// The transition taken on receipt of `message`, if the message is
    /// applicable in this state.
    pub fn transition(&self, message: MessageId) -> Option<&Transition> {
        self.transitions.get(&message.0)
    }

    /// All transitions, keyed by message, in message-id order.
    pub fn transitions(&self) -> impl Iterator<Item = (MessageId, &Transition)> {
        self.transitions.iter().map(|(&m, t)| (MessageId(m), t))
    }

    /// Number of outgoing transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Documentation annotations describing this state.
    pub fn annotations(&self) -> &[String] {
        &self.annotations
    }

    pub(crate) fn insert_transition(&mut self, message: MessageId, transition: Transition) {
        self.transitions.insert(message.0, transition);
    }
}

/// A complete generated finite state machine (paper Fig 5).
///
/// Machines are deterministic by construction: each state has at most one
/// transition per message. Messages not applicable in a state are simply
/// absent (the paper's generator ignores `InvalidStateException`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMachine {
    name: String,
    messages: Vec<String>,
    /// Prebuilt name→id lookup so [`StateMachine::message_id`] is O(1)
    /// instead of a linear scan over the alphabet.
    message_lookup: HashMap<String, u16>,
    states: Vec<State>,
    start: StateId,
}

impl StateMachine {
    pub(crate) fn from_parts(
        name: String,
        messages: Vec<String>,
        states: Vec<State>,
        start: StateId,
    ) -> Self {
        StateMachine {
            name,
            message_lookup: FlatIr::build_lookup(&messages),
            messages,
            states,
            start,
        }
    }

    /// The machine's name (usually `<model>@r=<parameter>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_lookup.get(name).copied().map(MessageId)
    }

    /// All states, in generation order (start state first is *not*
    /// guaranteed; use [`StateMachine::start`]).
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Iterates over `(id, state)` pairs.
    pub fn states_with_ids(&self) -> impl Iterator<Item = (StateId, &State)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId(i as u32), s))
    }

    /// Finds a state by display name.
    pub fn state_by_name(&self, name: &str) -> Option<(StateId, &State)> {
        self.states_with_ids().find(|(_, s)| s.name() == name)
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Ids of all states with the [`StateRole::Finish`] role.
    ///
    /// An unmerged machine may contain several final states (one per
    /// combination of the remaining variables when the completion
    /// threshold is reached); equivalent-state merging combines them into
    /// one, retrievable via [`StateMachine::unique_final`].
    pub fn final_state_ids(&self) -> Vec<StateId> {
        self.states_with_ids()
            .filter(|(_, s)| s.role() == StateRole::Finish)
            .map(|(id, _)| id)
            .collect()
    }

    /// The single final state, if the machine has exactly one.
    pub fn unique_final(&self) -> Option<StateId> {
        let finals = self.final_state_ids();
        match finals.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// Total number of transitions in the machine.
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(State::transition_count).sum()
    }

    /// Renumbers the states in the order of their keys: states sharing
    /// a key become one, the first of them in state order, and states
    /// keyed `None` go; every transition target and the start state
    /// follow their state (`None` only for states nothing kept points at).
    pub(crate) fn renumber(&mut self, keys: &[Option<u64>]) {
        let states = std::mem::take(&mut self.states).into_iter().enumerate();
        let mut keyed: Vec<_> = states
            .filter_map(|(at, s)| Some((keys[at]?, at, s)))
            .collect();
        keyed.sort_unstable_by_key(|&(key, at, _)| (key, at));
        let (mut remap, mut last) = (vec![None; keys.len()], None);
        for (key, at, state) in keyed {
            if last != Some(key) {
                self.states.push(state);
                last = Some(key);
            }
            remap[at] = Some(StateId(self.states.len() as u32 - 1));
        }
        let to = |id: StateId| remap[id.index()].expect("a surviving state's target survives");
        for state in &mut self.states {
            for t in state.transitions.values_mut() {
                t.target = to(t.target);
            }
        }
        self.start = to(self.start);
    }

    /// Replaces the annotations of every state that has a vector with
    /// `describe(vector)`.
    pub(crate) fn annotate(&mut self, describe: impl Fn(&StateVector) -> Vec<String>) {
        for state in &mut self.states {
            if let Some(v) = &state.vector {
                state.annotations = describe(v);
            }
        }
    }
}

/// Incremental builder for hand-constructed machines (tests, examples and
/// models that are not generated from an abstract model).
///
/// # Examples
///
/// ```
/// use stategen_core::{Action, StateMachineBuilder};
///
/// let mut b = StateMachineBuilder::new("toggle", ["flip"]);
/// let off = b.add_state("off");
/// let on = b.add_state("on");
/// b.add_transition(off, "flip", on, vec![Action::send("ping")]);
/// b.add_transition(on, "flip", off, vec![]);
/// let machine = b.build(off);
/// assert_eq!(machine.state_count(), 2);
/// assert_eq!(machine.transition_count(), 2);
/// ```
#[derive(Debug)]
pub struct StateMachineBuilder {
    name: String,
    messages: Vec<String>,
    states: Vec<State>,
}

impl StateMachineBuilder {
    /// Starts a builder for a machine with the given message alphabet.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty, has more than 65 536 entries or
    /// contains duplicates.
    pub fn new<I, S>(name: impl Into<String>, messages: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let messages: Vec<String> = messages.into_iter().map(Into::into).collect();
        if let Err(e) = check_alphabet(&messages) {
            panic!("{e}");
        }
        StateMachineBuilder {
            name: name.into(),
            messages,
            states: Vec::new(),
        }
    }

    /// Adds a normal state and returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        self.add_state_full(name, None, StateRole::Normal, Vec::new())
    }

    /// Adds a state with full control over vector, role and annotations.
    pub fn add_state_full(
        &mut self,
        name: impl Into<String>,
        vector: Option<StateVector>,
        role: StateRole,
        annotations: Vec<String>,
    ) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states
            .push(State::new(name, vector, role, annotations));
        id
    }

    /// Adds a transition from `from` on `message` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the message is unknown, a transition for `(from, message)`
    /// already exists (machines are deterministic), or an id is invalid.
    pub fn add_transition(
        &mut self,
        from: StateId,
        message: &str,
        to: StateId,
        actions: Vec<Action>,
    ) {
        self.add_transition_annotated(from, message, to, actions, Vec::new());
    }

    /// Adds an annotated transition.
    ///
    /// # Panics
    ///
    /// As for [`StateMachineBuilder::add_transition`].
    pub fn add_transition_annotated(
        &mut self,
        from: StateId,
        message: &str,
        to: StateId,
        actions: Vec<Action>,
        annotations: Vec<String>,
    ) {
        if let Err(e) = self.try_add_transition_annotated(from, message, to, actions, annotations) {
            panic!("{e}");
        }
    }

    /// Adds a transition, reporting violations of the machine's
    /// determinism and range invariants as a [`CompileError`] instead of
    /// panicking — for callers constructing machines from untrusted or
    /// generated input.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownMessage`] if the message is not in the
    /// alphabet; [`CompileError::StateOutOfRange`] if a state id is
    /// invalid; [`CompileError::DuplicateTransition`] if `(from, message)`
    /// already has a transition (machines are deterministic — a second
    /// transition would silently lose to the first in the dense table).
    pub fn try_add_transition(
        &mut self,
        from: StateId,
        message: &str,
        to: StateId,
        actions: Vec<Action>,
    ) -> Result<(), CompileError> {
        self.try_add_transition_annotated(from, message, to, actions, Vec::new())
    }

    /// Adds an annotated transition, reporting invariant violations as a
    /// [`CompileError`].
    ///
    /// # Errors
    ///
    /// As for [`StateMachineBuilder::try_add_transition`].
    pub fn try_add_transition_annotated(
        &mut self,
        from: StateId,
        message: &str,
        to: StateId,
        actions: Vec<Action>,
        annotations: Vec<String>,
    ) -> Result<(), CompileError> {
        let mid = self
            .messages
            .iter()
            .position(|m| m == message)
            .ok_or_else(|| CompileError::UnknownMessage(message.to_string()))?;
        for id in [from, to] {
            if id.index() >= self.states.len() {
                return Err(CompileError::StateOutOfRange {
                    index: id.index(),
                    states: self.states.len(),
                });
            }
        }
        let state = &mut self.states[from.index()];
        if state.transitions.contains_key(&(mid as u16)) {
            return Err(CompileError::DuplicateTransition {
                state: state.name.clone(),
                message: message.to_string(),
            });
        }
        state
            .transitions
            .insert(mid as u16, Transition::new(to, actions, annotations));
        Ok(())
    }

    /// Finalises the machine.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn build(self, start: StateId) -> StateMachine {
        assert!(
            start.index() < self.states.len(),
            "start state out of range"
        );
        StateMachine::from_parts(self.name, self.messages, self.states, start)
    }
}

/// A common interface over the different ways of executing a protocol
/// (interpreted FSM, generated source code, hand-written algorithm, EFSM),
/// used by the equivalence test-suites and the network simulator.
pub trait ProtocolEngine {
    /// Delivers `message`; returns the actions (outgoing messages)
    /// triggered by it as a borrowed slice.
    ///
    /// This is the zero-copy fast path shared by the interpreted,
    /// compiled and generated engines: implementations return a slice
    /// borrowed from the machine representation (or from an internal
    /// scratch buffer reused across deliveries), so callers that only
    /// inspect the actions pay no per-message allocation.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::UnknownMessage`] if the message is not part
    /// of the protocol alphabet. Messages that are valid but not applicable
    /// in the current state are ignored (empty action list), matching the
    /// generated code's behaviour of having no `case` arm for them.
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError>;

    /// Delivers `message`; returns the triggered actions as an owned
    /// vector (allocating convenience form of
    /// [`ProtocolEngine::deliver_ref`]).
    ///
    /// # Errors
    ///
    /// As for [`ProtocolEngine::deliver_ref`].
    fn deliver(&mut self, message: &str) -> Result<Vec<Action>, InterpError> {
        self.deliver_ref(message).map(<[Action]>::to_vec)
    }

    /// `true` once the protocol instance has completed.
    fn is_finished(&self) -> bool;

    /// Display name of the current state.
    ///
    /// Borrowed from the machine representation wherever possible, so
    /// introspection on hot paths is allocation-free; engines whose
    /// state names are synthesized on the fly (e.g. hierarchical
    /// configurations) return an owned [`Cow::Owned`] instead.
    fn state_name(&self) -> Cow<'_, str>;

    /// Resets the engine to its start state.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "b", s0, vec![]);
        b.build(s0)
    }

    #[test]
    fn action_display_matches_paper() {
        assert_eq!(Action::send("not_free").to_string(), "->not_free");
        assert_eq!(Action::send("vote").message(), "vote");
    }

    #[test]
    fn transition_classification() {
        let m = two_state_machine();
        let a = m.message_id("a").unwrap();
        let b = m.message_id("b").unwrap();
        let s0 = m.start();
        let t = m.state(s0).transition(a).unwrap();
        assert!(t.is_phase_transition());
        let s1 = t.target();
        assert!(!m.state(s1).transition(b).unwrap().is_phase_transition());
        assert_eq!(m.transition_count(), 2);
    }

    #[test]
    fn message_lookup() {
        let m = two_state_machine();
        assert_eq!(m.message_id("a"), Some(MessageId(0)));
        assert_eq!(m.message_id("zap"), None);
        assert_eq!(m.messages()[1], "b");
    }

    #[test]
    fn state_lookup_by_name() {
        let m = two_state_machine();
        let (id, s) = m.state_by_name("s1").unwrap();
        assert_eq!(id.index(), 1);
        assert_eq!(s.name(), "s1");
        assert!(m.state_by_name("zap").is_none());
    }

    #[test]
    fn missing_transition_is_none() {
        let m = two_state_machine();
        let b = m.message_id("b").unwrap();
        assert!(m.state(m.start()).transition(b).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate transition")]
    fn duplicate_transition_panics() {
        let mut b = StateMachineBuilder::new("m", ["a"]);
        let s0 = b.add_state("s0");
        b.add_transition(s0, "a", s0, vec![]);
        b.add_transition(s0, "a", s0, vec![]);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn unknown_message_panics() {
        let mut b = StateMachineBuilder::new("m", ["a"]);
        let s0 = b.add_state("s0");
        b.add_transition(s0, "zap", s0, vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn duplicate_message_alphabet_panics() {
        StateMachineBuilder::new("m", ["a", "a"]);
    }

    #[test]
    fn try_add_transition_reports_errors() {
        let mut b = StateMachineBuilder::new("m", ["a"]);
        let s0 = b.add_state("s0");
        assert!(b.try_add_transition(s0, "a", s0, vec![]).is_ok());
        assert_eq!(
            b.try_add_transition(s0, "a", s0, vec![]),
            Err(CompileError::DuplicateTransition {
                state: "s0".into(),
                message: "a".into()
            })
        );
        assert_eq!(
            b.try_add_transition(s0, "zap", s0, vec![]),
            Err(CompileError::UnknownMessage("zap".into()))
        );
        assert_eq!(
            b.try_add_transition(s0, "a", StateId(7), vec![]),
            Err(CompileError::StateOutOfRange {
                index: 7,
                states: 1
            })
        );
        // The machine still builds with the one accepted transition.
        let m = b.build(s0);
        assert_eq!(m.transition_count(), 1);
    }

    #[test]
    fn transitions_iterate_in_message_order() {
        let mut b = StateMachineBuilder::new("m", ["a", "b", "c"]);
        let s0 = b.add_state("s0");
        b.add_transition(s0, "c", s0, vec![]);
        b.add_transition(s0, "a", s0, vec![]);
        let m = b.build(s0);
        let order: Vec<usize> = m
            .state(s0)
            .transitions()
            .map(|(mid, _)| mid.index())
            .collect();
        assert_eq!(order, vec![0, 2]);
    }
}
