//! # stategen-generated
//!
//! The paper's "incorporation of generated code" deployment (§4.2/§4.3):
//! the commit-protocol FSMs for the default replication factors are
//! generated *at build time* by executing the abstract model in
//! `build.rs`, rendered to Rust source, and compiled into this crate.
//! The result is the Fig 16 artefact as running code: one `match`-based
//! handler per message, no interpretation overhead.
//!
//! [`GeneratedCommitR4`] and [`GeneratedCommitR7`] wrap the generated
//! modules in the common [`ProtocolEngine`] interface so the test-suites
//! can cross-check them against the interpreted machine, the hand-written
//! algorithm and the EFSM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stategen_core::{Action, InterpError, ProtocolEngine};

/// The generated module for replication factor 4 (33 states).
#[allow(missing_docs)]
pub mod commit_r4 {
    include!(concat!(env!("OUT_DIR"), "/commit_r4.rs"));
}

/// The generated module for replication factor 7 (85 states).
#[allow(missing_docs)]
pub mod commit_r7 {
    include!(concat!(env!("OUT_DIR"), "/commit_r7.rs"));
}

macro_rules! engine_wrapper {
    ($(#[$doc:meta])* $name:ident, $module:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            state: $module::State,
            /// Action buffer reused across deliveries for the borrowing
            /// [`ProtocolEngine::deliver_ref`] path.
            scratch: Vec<Action>,
        }

        impl $name {
            /// Creates an instance positioned at the generated start state.
            pub fn new() -> Self {
                $name { state: $module::START, scratch: Vec::new() }
            }

            /// The current generated state.
            pub fn state(&self) -> $module::State {
                self.state
            }

            /// Display name of the current state (borrowed from the
            /// generated module's static tables).
            pub fn state_name_str(&self) -> &'static str {
                $module::state_name(self.state)
            }

            /// The raw generated sends for `message`, without wrapping
            /// them in [`Action`] values: `None` when the message is not
            /// applicable in the current state.
            ///
            /// `message` must belong to the protocol alphabet (debug
            /// builds assert); use [`ProtocolEngine::deliver_ref`] for
            /// the checked, erroring path.
            pub fn deliver_raw(&mut self, message: &str) -> Option<&'static [&'static str]> {
                debug_assert!(
                    $module::MESSAGES.contains(&message),
                    "message `{message}` is not in the protocol alphabet"
                );
                let (next, sends) = $module::receive(self.state, message)?;
                self.state = next;
                Some(sends)
            }
        }

        /// Two engines are equal when they are in the same generated
        /// state; the action buffer is not part of it.
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.state == other.state
            }
        }

        impl Eq for $name {}

        impl ::std::hash::Hash for $name {
            fn hash<H: ::std::hash::Hasher>(&self, state: &mut H) {
                self.state.hash(state);
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl ProtocolEngine for $name {
            fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
                if !$module::MESSAGES.contains(&message) {
                    return Err(InterpError::UnknownMessage(message.to_string()));
                }
                self.scratch.clear();
                if let Some(sends) = self.deliver_raw(message) {
                    self.scratch.extend(sends.iter().map(|s| Action::send(*s)));
                }
                Ok(&self.scratch)
            }

            fn is_finished(&self) -> bool {
                $module::is_final(self.state)
            }

            fn state_name(&self) -> ::std::borrow::Cow<'_, str> {
                ::std::borrow::Cow::Borrowed(self.state_name_str())
            }

            fn reset(&mut self) {
                self.state = $module::START;
                self.scratch.clear();
            }
        }
    };
}

engine_wrapper!(
    /// The build-time generated commit protocol for replication factor 4,
    /// wrapped as a [`ProtocolEngine`].
    GeneratedCommitR4,
    commit_r4
);

engine_wrapper!(
    /// The build-time generated commit protocol for replication factor 7,
    /// wrapped as a [`ProtocolEngine`].
    GeneratedCommitR7,
    commit_r7
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_state_matches_model() {
        let e = GeneratedCommitR4::new();
        assert_eq!(e.state_name(), "F/0/F/0/F/T/F");
        assert!(!e.is_finished());
    }

    #[test]
    fn generated_constants() {
        assert_eq!(commit_r4::MACHINE_NAME, "commit@r=4");
        assert_eq!(commit_r7::MACHINE_NAME, "commit@r=7");
        assert_eq!(
            commit_r4::MESSAGES,
            &["update", "vote", "commit", "free", "not_free"]
        );
    }

    #[test]
    fn canonical_trace_runs() {
        let mut e = GeneratedCommitR4::new();
        assert_eq!(
            e.deliver("update").unwrap(),
            vec![Action::send("vote"), Action::send("not_free")]
        );
        assert!(e.deliver("vote").unwrap().is_empty());
        assert_eq!(e.deliver("vote").unwrap(), vec![Action::send("commit")]);
        assert!(e.deliver("commit").unwrap().is_empty());
        assert_eq!(e.deliver("commit").unwrap(), vec![Action::send("free")]);
        assert!(e.is_finished());
    }

    #[test]
    fn unknown_message_is_error() {
        let mut e = GeneratedCommitR4::new();
        assert!(matches!(
            e.deliver("zap"),
            Err(InterpError::UnknownMessage(_))
        ));
    }

    #[test]
    fn reset_restores_start() {
        let mut e = GeneratedCommitR7::new();
        e.deliver("update").unwrap();
        e.reset();
        assert_eq!(e.state_name(), "F/0/F/0/F/T/F");
    }

    #[test]
    fn messages_after_finish_ignored() {
        let mut e = GeneratedCommitR4::new();
        for m in ["commit", "commit"] {
            e.deliver(m).unwrap();
        }
        assert!(e.is_finished());
        assert!(e.deliver("vote").unwrap().is_empty());
        assert!(e.is_finished());
    }
}
