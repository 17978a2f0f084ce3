//! Single-session execution: the [`ProtocolEngine`] vocabulary and
//! [`Instance`], the one owned view of one protocol execution.
//!
//! The paper deploys FSMs by rendering them to source code (§3.5) — covered
//! by the `stategen-render` and `stategen-generated` crates — but also
//! discusses generating implementations *on the fly* (§4.2). An
//! [`Instance`] over [`StepEngine::interpreted`] is that policy: the
//! lowered machine is walked as generated, one instance per ongoing
//! protocol execution. The same type over a compiled engine is the
//! deployed single-session form — there is one step
//! ([`StepEngine::step`]) and one cursor around it, whatever the tier.
//! The semantic references it is tested against are
//! [`IrInstance`](crate::IrInstance) and
//! [`HsmInstance`](crate::HsmInstance).

use std::borrow::Cow;

use crate::error::InterpError;
use crate::machine::{Action, MessageId};
use crate::step::StepEngine;

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

/// One executing session of a [`StepEngine`], on whichever tier the
/// engine resolved onto: the current state, one register row, the
/// step's scratch and a step count — what one slot of a
/// [`SessionStore`](crate::SessionStore) holds, and like it an unfolded
/// engine's whole configuration in one id. Owned (`'static`; the engine
/// is a bundle of `Arc`s), and allocation-free after construction.
///
/// # Examples
///
/// ```
/// use stategen_core::{Action, FlatIr, Instance, ProtocolEngine, StateMachineBuilder, StepEngine};
///
/// let mut b = StateMachineBuilder::new("ping", ["ping"]);
/// let idle = b.add_state("idle");
/// let done = b.add_state("done");
/// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
/// let ir = FlatIr::from_machine(&b.build(idle));
///
/// // Interpreted and compiled: the same view, the same answers.
/// for engine in [StepEngine::interpreted(ir.clone(), &[])?, StepEngine::compile_ir(&ir, &[])?] {
///     let mut fsm = Instance::new(engine);
///     assert_eq!(fsm.deliver("ping")?, vec![Action::send("pong")]);
///     assert_eq!(fsm.state_name(), "done");
/// }
/// # Ok::<(), stategen_core::StategenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    engine: StepEngine,
    /// The engine's configuration id: the state id, unless unfolded.
    current: u32,
    regs: Vec<i64>,
    scratch: Vec<i64>,
    steps: u64,
}

impl Instance {
    /// Creates an instance at the engine's start state, registers zero.
    pub fn new(engine: StepEngine) -> Self {
        Instance {
            current: engine.start_config(),
            regs: vec![0; engine.stored_regs()],
            scratch: vec![0; engine.scratch_len()],
            engine,
            steps: 0,
        }
    }

    /// The engine this instance executes.
    pub fn engine(&self) -> &StepEngine {
        &self.engine
    }

    /// The current state's dense id.
    pub fn current_state(&self) -> u32 {
        self.engine.state_of(self.current)
    }

    /// Current variable values, in declaration order (empty for an
    /// unguarded machine).
    pub fn vars(&self) -> &[i64] {
        let row = self.engine.config_row(self.current).unwrap_or(&self.regs);
        &row[..self.engine.var_count()]
    }

    /// Number of transitions taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Display name of the current state, borrowed from the engine
    /// (non-allocating form of [`ProtocolEngine::state_name`]).
    pub fn state_name_str(&self) -> &str {
        self.engine.state_name(self.current_state())
    }

    /// Delivers a message by id (avoids the name lookup of
    /// [`ProtocolEngine::deliver`]); returns the triggered actions,
    /// borrowed from the engine. `message` must come from this
    /// instance's engine. No heap allocation occurs on this path.
    #[inline]
    pub fn deliver_id(&mut self, message: MessageId) -> &[Action] {
        let (regs, scratch) = (&mut self.regs, &mut self.scratch);
        match self
            .engine
            .step_config(self.current, message, regs, scratch)
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

impl ProtocolEngine for Instance {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = self
            .engine
            .message_id(message)
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        Ok(self.deliver_id(id))
    }

    fn is_finished(&self) -> bool {
        self.engine.config_finishes(self.current)
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.state_name_str())
    }

    fn reset(&mut self) {
        self.current = self.engine.start_config();
        self.regs.fill(0);
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FlatIr;
    use crate::machine::{StateMachineBuilder, StateRole};

    /// `s0 -a-> s1 -a-> FINISHED`, on the interpreted and the dense
    /// tier: every test below holds for both.
    fn instances() -> [Instance; 2] {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        let ir = FlatIr::from_machine(&b.build(s0));
        [
            StepEngine::interpreted(ir.clone(), &[]).unwrap(),
            StepEngine::compile_ir(&ir, &[]).unwrap(),
        ]
        .map(Instance::new)
    }

    #[test]
    fn walk_to_finish() {
        for mut i in instances() {
            assert!(!i.is_finished());
            assert_eq!(i.deliver("a").unwrap(), vec![Action::send("x")]);
            assert_eq!(i.state_name(), "s1");
            assert!(i.deliver("a").unwrap().is_empty());
            assert!(i.is_finished());
            assert_eq!(i.steps(), 2);
        }
    }

    #[test]
    fn inapplicable_message_ignored() {
        for mut i in instances() {
            assert!(i.deliver("b").unwrap().is_empty());
            assert_eq!(i.state_name(), "s0");
            assert_eq!(i.steps(), 0);
        }
    }

    #[test]
    fn unknown_message_is_error() {
        for mut i in instances() {
            assert_eq!(
                i.deliver("zap"),
                Err(InterpError::UnknownMessage("zap".to_string()))
            );
        }
    }

    #[test]
    fn messages_after_finish_ignored() {
        for mut i in instances() {
            i.deliver("a").unwrap();
            i.deliver("a").unwrap();
            assert!(i.is_finished());
            assert!(i.deliver("a").unwrap().is_empty());
            assert_eq!(i.state_name(), "FINISHED");
            assert_eq!(i.steps(), 2);
        }
    }

    #[test]
    fn reset_returns_to_start() {
        for mut i in instances() {
            i.deliver("a").unwrap();
            i.reset();
            assert_eq!(i.state_name(), "s0");
            assert_eq!(i.steps(), 0);
        }
    }
}
