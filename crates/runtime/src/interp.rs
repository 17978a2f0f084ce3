//! Single-session execution: [`Session`], the one served view of one
//! protocol execution in the [`ProtocolEngine`] vocabulary.
//!
//! The paper deploys FSMs by rendering them to source code (§3.5) —
//! covered by the `stategen-render` and `stategen-generated` crates —
//! but also discusses generating implementations *on the fly* (§4.2). A
//! [`Session`] of a runtime over [`Engine::interpret`] is that policy:
//! the lowered machine is walked as generated, one session per ongoing
//! protocol execution. The same view over [`Engine::compile`] is the
//! deployed single-session form — one runtime, one step, whatever the
//! tier. The semantic references it is tested against are core's
//! [`IrInstance`](stategen_core::IrInstance) and
//! [`HsmInstance`](stategen_core::HsmInstance).
//!
//! [`Engine::interpret`]: crate::Engine::interpret
//! [`Engine::compile`]: crate::Engine::compile

use std::borrow::Cow;

use stategen_core::{Action, InterpError, ProtocolEngine};

use crate::runtime::{Runtime, SessionId};

/// A borrowed [`ProtocolEngine`] view of one [`Runtime`] session (see
/// [`Runtime::session`]).
///
/// # Examples
///
/// ```
/// use stategen_core::{Action, ProtocolEngine, StateMachineBuilder};
/// use stategen_runtime::{Engine, Spec};
///
/// let mut b = StateMachineBuilder::new("ping", ["ping"]);
/// let idle = b.add_state("idle");
/// let done = b.add_state("done");
/// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
/// let spec = Spec::machine(b.build(idle));
///
/// // Interpreted and compiled: the same view, the same answers.
/// for engine in [Engine::interpret(spec.clone())?, Engine::compile(spec)?] {
///     let mut rt = engine.runtime();
///     let id = rt.spawn();
///     let mut fsm = rt.session(id);
///     assert_eq!(fsm.deliver("ping")?, vec![Action::send("pong")]);
///     assert_eq!(fsm.state_name(), "done");
/// }
/// # Ok::<(), stategen_runtime::StategenError>(())
/// ```
#[derive(Debug)]
pub struct Session<'r> {
    pub(crate) runtime: &'r mut Runtime,
    pub(crate) id: SessionId,
}

impl Session<'_> {
    /// The handle this view addresses.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

impl ProtocolEngine for Session<'_> {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = self
            .runtime
            .message_id(message)
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        Ok(self.runtime.deliver(self.id, id))
    }

    fn is_finished(&self) -> bool {
        self.runtime.is_finished(self.id)
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.runtime.state_name(self.id))
    }

    fn reset(&mut self) {
        self.runtime.reset(self.id);
    }
}

#[cfg(test)]
mod tests {
    use stategen_core::{StateMachineBuilder, StateRole};

    use super::*;
    use crate::engine::Engine;
    use crate::spec::Spec;

    /// One session of `s0 -a-> s1 -a-> FINISHED`, on the interpreted and
    /// the dense tier: every test below holds for both.
    fn runtimes() -> [(Runtime, SessionId); 2] {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        let spec = Spec::machine(b.build(s0));
        [Engine::interpret(spec.clone()), Engine::compile(spec)].map(|engine| {
            let mut rt = engine.unwrap().runtime();
            let id = rt.spawn();
            (rt, id)
        })
    }

    #[test]
    fn walk_to_finish() {
        for (mut rt, id) in runtimes() {
            let mut i = rt.session(id);
            assert!(!i.is_finished());
            assert_eq!(i.deliver("a").unwrap(), vec![Action::send("x")]);
            assert_eq!(i.state_name(), "s1");
            assert!(i.deliver("a").unwrap().is_empty());
            assert!(i.is_finished());
            assert_eq!(rt.steps(), 2);
        }
    }

    #[test]
    fn inapplicable_message_ignored() {
        for (mut rt, id) in runtimes() {
            let mut i = rt.session(id);
            assert!(i.deliver("b").unwrap().is_empty());
            assert_eq!(i.state_name(), "s0");
            assert_eq!(rt.steps(), 0);
        }
    }

    #[test]
    fn unknown_message_is_error() {
        for (mut rt, id) in runtimes() {
            assert_eq!(
                rt.session(id).deliver("zap"),
                Err(InterpError::UnknownMessage("zap".to_string()))
            );
        }
    }

    #[test]
    fn messages_after_finish_ignored() {
        for (mut rt, id) in runtimes() {
            let mut i = rt.session(id);
            i.deliver("a").unwrap();
            i.deliver("a").unwrap();
            assert!(i.is_finished());
            assert!(i.deliver("a").unwrap().is_empty());
            assert_eq!(i.state_name(), "FINISHED");
            assert_eq!(rt.steps(), 2);
        }
    }

    #[test]
    fn reset_returns_to_start() {
        for (mut rt, id) in runtimes() {
            let mut i = rt.session(id);
            i.deliver("a").unwrap();
            i.reset();
            assert_eq!(i.state_name(), "s0");
            assert!(!i.is_finished());
        }
    }
}
