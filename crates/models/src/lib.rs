//! # stategen-models
//!
//! Further *message-counting* abstract models, demonstrating the paper's
//! §5.2 claim that the generative FSM methodology applies beyond the
//! motivating commit protocol:
//!
//! * [`BroadcastModel`] — Byzantine reliable broadcast (threshold
//!   echo/ready counting);
//! * [`RoundsModel`] — rotating-coordinator round consensus in the style
//!   the paper attributes to Chandra & Toueg (reference 15);
//! * [`TerminationModel`] — Dijkstra–Scholten-style distributed
//!   termination detection (message counting per Mattern, reference 16);
//! * [`session_lifecycle`] — a *hierarchical* session-lifecycle
//!   statechart wrapping the commit protocol with suspend/resume and
//!   failure superstates (shallow history), flattened onto the same
//!   execution tiers by `stategen-core`'s `hsm` layer;
//! * [`session_lifecycle_guarded`] — the same statechart with a
//!   parameter-bound *retry budget* (guards and variable updates on
//!   hierarchical transitions), the worked model of the guarded
//!   statechart pipeline (bound, it unfolds onto the dense tier);
//! * [`redundant_ring`] — a deliberately redundant statechart family
//!   whose flattened work states are all behaviourally equivalent, the
//!   worked input of `stategen-analysis`' provably-safe state
//!   minimization (and its `hsm_minimized` bench row).
//!
//! Each is an ordinary [`AbstractModel`](stategen_core::AbstractModel):
//! the same generation pipeline, renderers and interpreters apply without
//! any new generative code (paper §5.1: "it is possible to apply the
//! methodology to new algorithms without writing any new generative
//! code").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod broadcast_efsm;
pub mod lifecycle;
pub mod redundant;
pub mod rounds;
pub mod termination;

pub use broadcast::BroadcastModel;
pub use broadcast_efsm::{broadcast_efsm, broadcast_efsm_params};
pub use lifecycle::{session_lifecycle, session_lifecycle_guarded};
pub use redundant::redundant_ring;
pub use rounds::RoundsModel;
pub use termination::TerminationModel;
