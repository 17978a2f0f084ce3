//! The unified flat lowering IR: one target for every front-end, one
//! source for every compiler.
//!
//! The toolkit's front-ends produce three machine shapes — generated
//! flat [`StateMachine`]s, parameter-generic [`Efsm`]s, and hierarchical
//! statecharts ([`HierarchicalMachine`](crate::HierarchicalMachine)) —
//! and its execution tiers historically consumed two *different*
//! input types: the dense-table compiler took `StateMachine`, the
//! guarded tiers took `Efsm`, and the statechart flattener could only
//! reach the first. [`FlatIr`] closes that split: a
//! flat machine whose transitions carry *optional* guards and variable
//! updates, so an unguarded FSM is simply the degenerate case of an
//! EFSM. Every front-end lowers onto it —
//!
//! * [`FlatIr::from_machine`] lifts a flat [`StateMachine`] (trivially:
//!   every guard is the always-true conjunction, no updates);
//! * [`FlatIr::from_efsm`] lifts an [`Efsm`] (states keep their guarded
//!   transition lists in declaration/priority order);
//! * [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir)
//!   lowers a statechart — guarded or not — by enumerating reachable
//!   configurations;
//!
//! — and both execution tiers consume it. An unguarded IR compiles onto
//! the dense `states × messages` table
//! ([`CompiledMachine::compile_ir`](crate::CompiledMachine::compile_ir));
//! a guarded one, bound to its parameters, is [`unfold`](crate::unfold)ed
//! onto the same dense table when it reaches at most 4 096 `(state,
//! variables)` configurations, and runs on the interpreter
//! ([`FlatIr::step`]) otherwise; `stategen-runtime`'s `Engine::compile`
//! makes that choice. The duplicate-transition rule every guarded
//! lowering applies lives here, once.
//!
//! [`FlatIr::step`] is the one definition of a flat transition —
//! priority-ordered guard evaluation, then staged updates — that the
//! runtime's interpreted tier and [`IrInstance`], the semantic
//! reference every suite pins the compiled tiers against, both
//! execute.
//!
//! The IR carries no commentary. [`Notes`] is the documentation side
//! table the renderers print beside it (paper Fig 14's `Description:`),
//! built from the same front-end a [`FlatIr::from_machine`] or
//! [`FlatIr::from_efsm`] lowering reads, and indexed in the state and
//! transition order those two functions fix.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::efsm::{
    apply_staged_updates, check_operands, Efsm, EfsmState, Guard, LinExpr, Operand, Update,
};
use crate::error::{CompileError, InterpError};
use crate::fingerprint::Fnv64;
use crate::machine::{Action, MessageId, ProtocolEngine, State, StateMachine, StateRole};

/// Absorbs a linear expression into the canonical fingerprint stream
/// (also mirrored by the artifact format's expression encoding).
fn hash_lin(h: &mut Fnv64, expr: &LinExpr) {
    h.u64(expr.constant_part() as u64);
    h.u64(expr.terms().len() as u64);
    for &(coeff, operand) in expr.terms() {
        h.u64(coeff as u64);
        match operand {
            Operand::Var(v) => {
                h.u64(0);
                h.u64(v.index() as u64);
            }
            Operand::Param(p) => {
                h.u64(1);
                h.u64(p.index() as u64);
            }
        }
    }
}

/// One transition of the unified flat IR: a (possibly trivial) guard, a
/// (possibly empty) update list, the actions to emit, and the dense
/// target state id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTransition {
    pub(crate) message: u16,
    pub(crate) guard: Guard,
    pub(crate) updates: Vec<Update>,
    pub(crate) actions: Vec<Action>,
    pub(crate) target: u32,
}

impl FlatTransition {
    /// Builds a transition from its parts. Range validity against the
    /// owning machine (message index, target state, guard/update
    /// operands) is checked when the transition is assembled into an IR
    /// by [`FlatIr::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `message` does not fit the IR's `u16` message index.
    pub fn new(
        message: usize,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
        target: u32,
    ) -> FlatTransition {
        FlatTransition {
            message: u16::try_from(message).expect("message index fits u16"),
            guard,
            updates,
            actions,
            target,
        }
    }

    /// Index of the triggering message (into [`FlatIr::messages`]).
    pub fn message_index(&self) -> usize {
        usize::from(self.message)
    }

    /// The guard that must hold for this transition to fire (the empty
    /// conjunction — always true — for unguarded transitions).
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Variable updates applied when firing (empty for FSM-shaped IRs).
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Actions (messages sent) when firing.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Dense id of the destination state.
    pub fn target(&self) -> u32 {
        self.target
    }
}

/// One state of the unified flat IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatState {
    pub(crate) name: String,
    pub(crate) role: StateRole,
    /// Transitions in priority order (earlier wins when guards overlap);
    /// a state may carry several per message iff their guards differ.
    pub(crate) transitions: Vec<FlatTransition>,
}

impl FlatState {
    /// Builds a state from its parts (see [`FlatIr::from_parts`]).
    pub fn new(name: impl Into<String>, role: StateRole, transitions: Vec<FlatTransition>) -> Self {
        FlatState {
            name: name.into(),
            role,
            transitions,
        }
    }

    /// The state's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state's role; [`StateRole::Finish`] states absorb every
    /// message.
    pub fn role(&self) -> StateRole {
        self.role
    }

    /// All transitions out of this state, in priority order.
    pub fn transitions(&self) -> &[FlatTransition] {
        &self.transitions
    }
}

/// A flat machine with optional guards and updates per transition — the
/// unified lowering IR every front-end targets and both execution tiers
/// consume (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatIr {
    pub(crate) name: String,
    pub(crate) messages: Vec<String>,
    /// Prebuilt name→id map so [`FlatIr::message_id`] is O(1), like
    /// every other machine shape (see [`FlatIr::build_lookup`]).
    pub(crate) message_lookup: HashMap<String, u16>,
    pub(crate) params: Vec<String>,
    pub(crate) variables: Vec<String>,
    pub(crate) states: Vec<FlatState>,
    pub(crate) start: u32,
}

impl FlatIr {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Parameter names (bound when an engine is built for the IR).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Variable names (per-session registers, all initialised to zero).
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// All states, in dense-id order.
    pub fn states(&self) -> &[FlatState] {
        &self.states
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The start state's dense id.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_lookup.get(name).copied().map(MessageId)
    }

    /// Builds the name→id map of an alphabet, for every machine shape.
    pub(crate) fn build_lookup(messages: &[String]) -> HashMap<String, u16> {
        messages
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i as u16))
            .collect()
    }

    /// `true` if this IR actually uses the extended-machine features:
    /// any variable or parameter declared, any non-trivial guard, or any
    /// update. This says what the machine is, not where it runs:
    /// `stategen-runtime`'s `Engine::compile` puts an unguarded IR on the
    /// dense table, and a guarded one there too — [`unfold`](crate::unfold)ed
    /// — when its bound configuration space is within budget, on the
    /// interpreter otherwise.
    pub fn is_guarded(&self) -> bool {
        !self.variables.is_empty()
            || !self.params.is_empty()
            || self.states.iter().any(|s| {
                s.transitions
                    .iter()
                    .any(|t| !t.guard.conditions().is_empty() || !t.updates.is_empty())
            })
    }

    /// Registers one session of this machine occupies, on every tier: a
    /// guarded IR's declared variables plus one always-zero register
    /// (kept so that snapshot and artifact layouts stay fixed), nothing
    /// for an unguarded one. A function of the IR alone, so a snapshot's
    /// register file fits every engine of the same fingerprint.
    pub fn reg_count(&self) -> usize {
        if self.is_guarded() {
            self.variables.len() + 1
        } else {
            0
        }
    }

    /// The one reason a guarded IR is refused, checked before any tier
    /// is chosen so that acceptance depends neither on the binding nor
    /// on whether the machine unfolds: a live state declaring two
    /// transitions on one message with identical guards — the second
    /// can never fire, a specification bug rather than a priority
    /// choice ([`CompileError::DuplicateTransition`]; reported for the
    /// first such state and, within it, message).
    ///
    /// # Errors
    ///
    /// [`CompileError::DuplicateTransition`] naming the first such pair.
    pub fn reject_duplicates(&self) -> Result<(), CompileError> {
        let live = |s: &&FlatState| s.role != StateRole::Finish;
        for state in self.states.iter().filter(live) {
            let ts = &state.transitions;
            for mid in 0..self.messages.len() {
                let on_mid = |t: &FlatTransition| t.message_index() == mid;
                for (ti, t) in ts.iter().enumerate().filter(|(_, t)| on_mid(t)) {
                    let same = |prev: &FlatTransition| on_mid(prev) && prev.guard == t.guard;
                    if ts[..ti].iter().any(same) {
                        return Err(CompileError::DuplicateTransition {
                            state: state.name.clone(),
                            message: self.messages[mid].clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes one transition — the definition of a step that every
    /// tier must agree with: in a non-finish `state`, the first
    /// transition on `message` (declaration order is priority) whose
    /// guard holds fires, its updates applied with every expression
    /// reading the pre-transition values. Returns the target and the
    /// borrowed actions, or `None` if nothing fires.
    ///
    /// `vars` holds at least the declared variables (further registers
    /// are left alone) and `scratch` as many slots, which receive the
    /// pre-transition copy; `params` is the binding. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or a slice is too short.
    #[inline]
    pub fn step(
        &self,
        state: u32,
        message: MessageId,
        params: &[i64],
        vars: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        let from = &self.states[state as usize];
        if from.role == StateRole::Finish {
            return None;
        }
        let vars = &mut vars[..self.variables.len()];
        let fired = from
            .transitions
            .iter()
            .find(|t| t.message == message.0 && t.guard.eval(vars, params))?;
        apply_staged_updates(&fired.updates, vars, &mut scratch[..vars.len()], params);
        Some((fired.target, &fired.actions))
    }

    /// A 64-bit behavioural fingerprint of the IR: an FNV-1a hash over a
    /// canonical encoding of everything that determines execution —
    /// messages, parameter and variable declarations, state names and
    /// roles, every transition's trigger, guard, updates, actions and
    /// target, and the start state. The machine's display name is
    /// deliberately excluded (renaming a machine does not change its
    /// behaviour).
    ///
    /// Two IRs with equal fingerprints step identically on every input
    /// (up to hash collision), whatever front-end produced them — this
    /// is what lets a serialized session snapshot be validated against
    /// the engine it is restored into (see
    /// `stategen_runtime::Runtime::restore`): state ids and variable
    /// registers are only meaningful relative to a behaviourally
    /// identical machine.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.strs(&self.messages);
        h.strs(&self.params);
        h.strs(&self.variables);
        h.u64(self.states.len() as u64);
        for state in &self.states {
            h.str(&state.name);
            h.u64(state.role as u64);
            h.u64(state.transitions.len() as u64);
            for t in &state.transitions {
                h.u64(u64::from(t.message));
                h.u64(t.guard.conditions().len() as u64);
                for cond in t.guard.conditions() {
                    hash_lin(&mut h, &cond.lhs);
                    h.u64(cond.op as u64);
                    hash_lin(&mut h, &cond.rhs);
                }
                h.u64(t.updates.len() as u64);
                for update in &t.updates {
                    match update {
                        Update::Set(var, expr) => {
                            h.u64(0);
                            h.u64(var.index() as u64);
                            hash_lin(&mut h, expr);
                        }
                        Update::Inc(var) => {
                            h.u64(1);
                            h.u64(var.index() as u64);
                        }
                    }
                }
                h.u64(t.actions.len() as u64);
                for action in &t.actions {
                    h.str(action.message());
                }
                h.u64(u64::from(t.target));
            }
        }
        h.u64(u64::from(self.start));
        h.finish()
    }

    /// Lifts a flat [`StateMachine`] into the IR: every transition gets
    /// the always-true guard and an empty update list.
    pub fn from_machine(machine: &StateMachine) -> FlatIr {
        let states = machine
            .states()
            .iter()
            .map(|s| FlatState {
                name: s.name().to_string(),
                role: s.role(),
                transitions: s
                    .transitions()
                    .map(|(mid, t)| FlatTransition {
                        message: mid.0,
                        guard: Guard::always(),
                        updates: Vec::new(),
                        actions: t.actions().to_vec(),
                        target: t.target().index() as u32,
                    })
                    .collect(),
            })
            .collect();
        FlatIr {
            name: machine.name().to_string(),
            message_lookup: FlatIr::build_lookup(machine.messages()),
            messages: machine.messages().to_vec(),
            params: Vec::new(),
            variables: Vec::new(),
            states,
            start: machine.start().index() as u32,
        }
    }

    /// Lifts an [`Efsm`] into the IR: guarded transition lists keep
    /// their declaration (priority) order, and the EFSM's single finish
    /// state becomes a [`StateRole::Finish`] state.
    pub fn from_efsm(efsm: &Efsm) -> FlatIr {
        let finish = efsm.finish().map(|f| f.index());
        let states = efsm
            .states()
            .iter()
            .enumerate()
            .map(|(i, s)| FlatState {
                name: s.name().to_string(),
                role: if Some(i) == finish {
                    StateRole::Finish
                } else {
                    StateRole::Normal
                },
                transitions: s
                    .transitions()
                    .iter()
                    .map(|t| FlatTransition {
                        message: t.message_index() as u16,
                        guard: t.guard().clone(),
                        updates: t.updates().to_vec(),
                        actions: t.actions().to_vec(),
                        target: t.target().index() as u32,
                    })
                    .collect(),
            })
            .collect();
        FlatIr {
            name: efsm.name().to_string(),
            message_lookup: FlatIr::build_lookup(efsm.messages()),
            messages: efsm.messages().to_vec(),
            params: efsm.params().to_vec(),
            variables: efsm.variables().to_vec(),
            states,
            start: efsm.start().index() as u32,
        }
    }

    /// Assembles an IR from its parts, validating the cross-references
    /// the interpreters and compilers rely on. This is the programmatic
    /// construction path used by IR-to-IR transforms (above all
    /// `stategen_analysis::minimize`); the front-end lowerings
    /// ([`FlatIr::from_machine`], [`FlatIr::from_efsm`],
    /// [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir))
    /// remain the normal entry points.
    ///
    /// # Panics
    ///
    /// Panics if the IR would be malformed: no states, a start id or
    /// transition target out of range, a message index outside the
    /// alphabet, or a guard/update operand referencing an undeclared
    /// variable or parameter.
    pub fn from_parts(
        name: impl Into<String>,
        messages: Vec<String>,
        params: Vec<String>,
        variables: Vec<String>,
        states: Vec<FlatState>,
        start: u32,
    ) -> FlatIr {
        assert!(!states.is_empty(), "IR must have at least one state");
        assert!(
            (start as usize) < states.len(),
            "start state {start} is out of range ({} states)",
            states.len()
        );
        for state in &states {
            for t in &state.transitions {
                assert!(
                    t.message_index() < messages.len(),
                    "state `{}`: message index {} is out of range ({} messages)",
                    state.name,
                    t.message_index(),
                    messages.len()
                );
                assert!(
                    (t.target as usize) < states.len(),
                    "state `{}`: target {} is out of range ({} states)",
                    state.name,
                    t.target,
                    states.len()
                );
                if let Err(operand) =
                    check_operands(&t.guard, &t.updates, variables.len(), params.len())
                {
                    panic!(
                        "state `{}`: a guard or update names undeclared {operand:?}",
                        state.name
                    );
                }
            }
        }
        FlatIr {
            name: name.into(),
            message_lookup: FlatIr::build_lookup(&messages),
            messages,
            params,
            variables,
            states,
            start,
        }
    }

    /// Creates a direct-interpretation instance with the given parameter
    /// binding — the no-preparation execution of the IR, and the mid-tier
    /// semantic reference of the guarded-statechart property suites.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the IR's
    /// declaration.
    pub fn instance(&self, params: Vec<i64>) -> IrInstance<'_> {
        IrInstance::new(self, params)
    }
}

/// The commentary of a lowered machine (paper §3.5: "commentary on
/// states and transitions"), kept beside the [`FlatIr`] rather than in
/// it: execution, fingerprints and artifacts never read it. Lines are
/// indexed by dense state id and, within a state, by position in
/// [`FlatState::transitions`] — the order [`FlatIr::from_machine`] and
/// [`FlatIr::from_efsm`] give the same front-end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Notes {
    /// Per state: its own lines, then one list per transition.
    states: Vec<(Vec<String>, Vec<Vec<String>>)>,
}

impl Notes {
    /// The annotations of a flat [`StateMachine`], in
    /// [`FlatIr::from_machine`]'s order.
    pub fn from_machine(machine: &StateMachine) -> Notes {
        let notes = |s: &State| {
            let transitions = s.transitions().map(|(_, t)| t.annotations().to_vec());
            (s.annotations().to_vec(), transitions.collect())
        };
        Notes {
            states: machine.states().iter().map(notes).collect(),
        }
    }

    /// The annotations of an [`Efsm`], in [`FlatIr::from_efsm`]'s order.
    pub fn from_efsm(efsm: &Efsm) -> Notes {
        let notes = |s: &EfsmState| {
            let transitions = s.transitions().iter().map(|t| t.annotations().to_vec());
            (s.annotations().to_vec(), transitions.collect())
        };
        Notes {
            states: efsm.states().iter().map(notes).collect(),
        }
    }

    /// The lines describing state `state` (none if it has no notes).
    pub fn state(&self, state: usize) -> &[String] {
        self.states.get(state).map_or(&[], |(lines, _)| lines)
    }

    /// The lines describing the `index`-th transition out of `state`.
    pub fn transition(&self, state: usize, index: usize) -> &[String] {
        let lines = self.states.get(state).and_then(|(_, ts)| ts.get(index));
        lines.map_or(&[], Vec::as_slice)
    }
}

/// One executing instance of a [`FlatIr`]: a dense state id plus
/// variable registers, stepped by [`FlatIr::step`] — the semantic
/// reference for flat machines, EFSMs ([`FlatIr::from_efsm`]) and
/// flattened statecharts alike.
#[derive(Debug, Clone)]
pub struct IrInstance<'i> {
    ir: &'i FlatIr,
    params: Vec<i64>,
    vars: Vec<i64>,
    /// Pre-transition snapshot, reused so the hot path never allocates.
    old_vars: Vec<i64>,
    current: u32,
    steps: u64,
}

impl<'i> IrInstance<'i> {
    /// Creates an instance at the start state with all variables zero.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the IR's
    /// declaration.
    pub fn new(ir: &'i FlatIr, params: Vec<i64>) -> Self {
        assert_eq!(params.len(), ir.params.len(), "wrong parameter count");
        IrInstance {
            ir,
            params,
            vars: vec![0; ir.variables.len()],
            old_vars: vec![0; ir.variables.len()],
            current: ir.start,
            steps: 0,
        }
    }

    /// The IR this instance executes.
    pub fn ir(&self) -> &'i FlatIr {
        self.ir
    }

    /// Current variable values, in declaration order.
    pub fn vars(&self) -> &[i64] {
        &self.vars
    }

    /// The current state's dense id.
    pub fn current_state(&self) -> u32 {
        self.current
    }

    /// Number of transitions taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Display name of the current state, borrowed from the IR.
    pub fn state_name_str(&self) -> &'i str {
        &self.ir.states[self.current as usize].name
    }

    /// Delivers a message by id; returns the triggered actions, borrowed
    /// from the IR (valid across further deliveries).
    pub fn deliver_id(&mut self, message: MessageId) -> &'i [Action] {
        let (vars, scratch) = (&mut self.vars, &mut self.old_vars);
        match self
            .ir
            .step(self.current, message, &self.params, vars, scratch)
        {
            Some((target, actions)) => {
                self.current = target;
                self.steps += 1;
                actions
            }
            None => &[],
        }
    }
}

/// Two instances are equal when they are in one configuration: the
/// same state and registers. The step count is not part of it.
impl PartialEq for IrInstance<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.current, &self.vars) == (other.current, &other.vars)
    }
}

impl Eq for IrInstance<'_> {}

impl std::hash::Hash for IrInstance<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.current, &self.vars).hash(state);
    }
}

impl ProtocolEngine for IrInstance<'_> {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = self
            .ir
            .message_id(message)
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        Ok(self.deliver_id(id))
    }

    fn is_finished(&self) -> bool {
        self.ir.states[self.current as usize].role == StateRole::Finish
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.state_name_str())
    }

    fn reset(&mut self) {
        self.current = self.ir.start;
        self.vars.fill(0);
        self.steps = 0;
    }
}

/// `(offset, len)` interning arena for action lists, behind the dense
/// table (`compiled::DenseRows`): each distinct list is stored once and transitions
/// reference it by range, so delivering a message returns a borrowed
/// `&[Action]` without copying or allocating.
#[derive(Debug, Default)]
pub(crate) struct ActionArena {
    arena: Vec<Action>,
    interned: HashMap<Vec<Action>, (u32, u32)>,
}

impl ActionArena {
    /// Interns `actions`, returning its `(offset, len)` range (the empty
    /// list is always `(0, 0)`).
    pub(crate) fn intern(&mut self, actions: &[Action]) -> (u32, u32) {
        if actions.is_empty() {
            return (0, 0);
        }
        match self.interned.get(actions) {
            Some(&range) => range,
            None => {
                let range = (self.arena.len() as u32, actions.len() as u32);
                self.arena.extend_from_slice(actions);
                self.interned.insert(actions.to_vec(), range);
                range
            }
        }
    }

    /// Number of distinct non-empty lists interned so far.
    pub(crate) fn interned_lists(&self) -> usize {
        self.interned.len()
    }

    /// Finalises into the backing arena.
    pub(crate) fn into_arena(self) -> Box<[Action]> {
        self.arena.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{CmpOp, EfsmBuilder, LinExpr};
    use crate::machine::StateMachineBuilder;

    fn counter_efsm() -> Efsm {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![],
            counting,
        );
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![Action::send("done")],
            done,
        );
        b.build(counting, Some(done))
    }

    #[test]
    fn machine_roundtrips_through_the_ir() {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("fin", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "b", fin, vec![]);
        let machine = b.build(s0);

        let ir = FlatIr::from_machine(&machine);
        assert!(!ir.is_guarded());
        assert_eq!(ir.state_count(), 3);
        assert_eq!(ir.start(), machine.start().index() as u32);
        for (state, lowered) in machine.states().iter().zip(ir.states()) {
            assert_eq!(
                (state.name(), state.role()),
                (lowered.name(), lowered.role())
            );
            let lifted = lowered.transitions().iter().map(|t| {
                assert!(t.guard().conditions().is_empty() && t.updates().is_empty());
                (t.message_index(), t.target() as usize, t.actions())
            });
            let source = state
                .transitions()
                .map(|(mid, t)| (mid.index(), t.target().index(), t.actions()));
            assert!(lifted.eq(source));
        }
    }

    #[test]
    fn notes_follow_the_lowering_order() {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state_full("s0", None, StateRole::Normal, vec!["first".into()]);
        let s1 = b.add_state("s1");
        b.add_transition_annotated(s0, "b", s1, vec![], vec!["on b".into()]);
        b.add_transition_annotated(s0, "a", s1, vec![], vec!["on a".into()]);
        let machine = b.build(s0);
        let ir = FlatIr::from_machine(&machine);
        let notes = Notes::from_machine(&machine);
        assert_eq!(notes.state(0), ["first"]);
        assert!(notes.state(1).is_empty() && notes.state(9).is_empty());
        for (i, t) in ir.states()[0].transitions().iter().enumerate() {
            let on = format!("on {}", ir.messages()[t.message_index()]);
            assert_eq!(notes.transition(0, i), [on]);
        }
        assert!(notes.transition(0, 2).is_empty());

        let mut b = EfsmBuilder::new("e", ["a"]);
        let s0 = b.add_state_annotated("s0", vec!["idle".into()]);
        let (always, note) = (Guard::always(), vec!["loops".into()]);
        b.add_transition_annotated(s0, "a", always, vec![], vec![], s0, note);
        let notes = Notes::from_efsm(&b.build(s0, None));
        assert_eq!(notes.state(0), ["idle"]);
        assert_eq!(notes.transition(0, 0), ["loops"]);
    }

    #[test]
    fn efsm_lifts_guarded() {
        let ir = FlatIr::from_efsm(&counter_efsm());
        assert!(ir.is_guarded());
        assert_eq!(ir.params(), ["limit"]);
        assert_eq!(ir.variables(), ["n"]);
        assert_eq!(ir.states()[1].role(), StateRole::Finish);
        assert_eq!(ir.states()[0].transitions().len(), 2);
        assert_eq!(ir.states()[0].transitions()[0].message_index(), 0);
        assert_eq!(ir.states()[0].transitions()[1].target(), 1);
        assert_eq!(ir.states()[0].transitions()[0].updates().len(), 1);
        assert!(!ir.states()[0].transitions()[0]
            .guard()
            .conditions()
            .is_empty());
    }

    /// The EFSM interpreter is [`FlatIr::step`] over the lifted IR:
    /// pinned to the counter's closed form, and to the same machine
    /// unfolded onto a dense table, read back through the side table.
    #[test]
    fn ir_instance_matches_the_efsm_interpreter() {
        let ir = FlatIr::from_efsm(&counter_efsm());
        let tick = ir.message_id("tick").unwrap();
        for limit in 1..5 {
            let mut instance = ir.instance(vec![limit]);
            let (table, unfolded) = crate::unfold(&ir, &[limit]).unwrap();
            let mut config = table.start();
            for n in 1..=limit + 2 {
                let want: &[Action] = if n == limit {
                    &[Action::send("done")]
                } else {
                    &[]
                };
                assert_eq!(instance.deliver_ref("tick").unwrap(), want);
                assert_eq!(instance.vars(), &[n.min(limit)]);
                assert_eq!(instance.is_finished(), n >= limit);
                let actions = match table.step(config, tick) {
                    Some((to, actions)) => {
                        config = to;
                        actions
                    }
                    None => &[],
                };
                assert_eq!(actions, want);
                assert_eq!(&unfolded.row(config)[..1], instance.vars());
                assert_eq!(table.is_finish_state(config), instance.is_finished());
                let state = unfolded.state_of(config);
                assert_eq!(
                    &*unfolded.state_names()[state as usize],
                    instance.state_name()
                );
            }
            instance.reset();
            assert_eq!(instance.vars(), &[0]);
            assert_eq!(instance.state_name_str(), "counting");
            assert_eq!(instance.steps(), 0);
        }
    }

    #[test]
    fn ir_instance_rejects_unknown_messages() {
        let ir = FlatIr::from_efsm(&counter_efsm());
        let mut i = ir.instance(vec![2]);
        assert!(matches!(
            i.deliver_ref("zap"),
            Err(InterpError::UnknownMessage(_))
        ));
        assert_eq!(ir.message_id("tick"), Some(MessageId(0)));
    }

    #[test]
    fn arena_interns_duplicate_lists() {
        let mut arena = ActionArena::default();
        assert_eq!(arena.intern(&[]), (0, 0));
        let a = arena.intern(&[Action::send("x")]);
        let b = arena.intern(&[Action::send("x")]);
        assert_eq!(a, b);
        assert_eq!(arena.interned_lists(), 1);
        assert_eq!(arena.into_arena().len(), 1);
    }
}
