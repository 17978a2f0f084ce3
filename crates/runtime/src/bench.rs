//! Measurement access for the `engine_tiers` gates, and nothing else.
//!
//! The batch-kernel gates compare the dense kernels behind
//! [`Runtime::deliver_all`](crate::Runtime::deliver_all) with the scalar
//! per-session walk they must match, on one bare session store — no
//! handles, counters or recorder — so the ratio is the kernel's alone.
//! [`Pool`] is that store, and the only door into this crate's private
//! serving layer. Not part of the supported API.

use stategen_core::{Action, MessageId};

use crate::engine::Engine;
use crate::session::SessionStore;

/// One bare session store over an engine.
#[derive(Debug)]
pub struct Pool {
    store: SessionStore,
}

impl Pool {
    /// `sessions` sessions of `engine`, all at the start state.
    pub fn new(engine: &Engine, sessions: usize) -> Pool {
        Pool {
            store: SessionStore::new(engine.step.clone(), sessions),
        }
    }

    /// Delivers `message` to session `session`; returns its actions.
    pub fn deliver(&mut self, session: usize, message: MessageId) -> &[Action] {
        self.store.deliver(session, message)
    }

    /// Delivers `message` to every session through the tier's batch
    /// kernel; returns the transitions taken.
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        self.store.deliver_all(message)
    }

    /// The same batch as [`Pool::deliver_all`], by the scalar walk.
    pub fn deliver_all_scalar(&mut self, message: MessageId) -> u64 {
        self.store.deliver_all_scalar(message)
    }

    /// Returns every session to the start state.
    pub fn reset_all(&mut self) {
        self.store.reset_all();
    }

    /// Sessions in a finish state.
    pub fn finished_count(&self) -> usize {
        self.store.finished_count()
    }

    /// Every session's state and register row, as a snapshot reads them.
    pub fn image(&self) -> (Vec<u32>, Vec<i64>) {
        let (mut states, mut registers) = (Vec::new(), Vec::new());
        self.store.states_into(&mut states);
        self.store.registers_into(&mut registers);
        (states, registers)
    }
}
