//! # stategen-core
//!
//! Core of a generative state-machine toolkit, reproducing *"Design,
//! Implementation and Deployment of State Machines Using a Generative
//! Approach"* (Kirby, Dearle & Norcross, DSN 2007).
//!
//! A distributed algorithm whose state space depends on a parameter (such
//! as the replication factor of a BFT commit protocol) cannot be expressed
//! as a single finite state machine. Instead it is captured once as an
//! [`AbstractModel`]; executing the model for a concrete parameter value
//! (via [`generate`]) produces one member of a *family* of FSMs as a
//! [`StateMachine`] value. That authoring type is lowered once, by
//! [`FlatIr::from_machine`], onto the one machine every back end reads:
//! the renderers (see the `stategen-render` crate) produce diagrams,
//! documentation and source-level protocol implementations from the
//! [`FlatIr`] and its [`Notes`] commentary.
//!
//! The generation pipeline follows the paper's four steps: enumerate all
//! possible states, elaborate the transitions for every message, prune
//! unreachable states, and combine equivalent states. The first three
//! run as one search from the start state, so only reached states are
//! ever elaborated. Per-stage counts and timings are reported in a
//! [`GenerationReport`].
//!
//! The crate also provides:
//!
//! * [`ir`] — the unified lowering IR ([`FlatIr`]): a flat machine with
//!   *optional* guards/updates per transition, the one target every
//!   front-end lowers onto (a plain FSM is the degenerate EFSM), and —
//!   through [`FlatIr::step`] — the one definition of a transition: the
//!   paper's "generate on the fly" deployment policy (§4.2) walks it as
//!   it stands;
//! * [`CompiledMachine`] — the dense `states × messages` transition
//!   table an unguarded IR compiles onto, with zero-allocation dispatch;
//! * [`unfold`] — the lowering of a guarded IR under a parameter
//!   binding (the paper's "generate the FSM for one binding"): a dense
//!   table over its reachable `(state, registers)` configurations plus
//!   the [`Unfolded`] side table that maps them back to source states
//!   and registers, or the [`Fallback`] reason it stays on the
//!   interpreter;
//! * [`efsm`] — extended finite state machines, the intermediate points on
//!   the paper's algorithm↔FSM spectrum (§3.2, §5.3);
//! * [`hsm`] — hierarchical statecharts (composite states, entry/exit
//!   actions, inherited/internal/cross-level transitions, shallow
//!   history, and guarded/updating transitions over declared variables
//!   and parameters) with a flattening compiler onto the unified flat
//!   IR, so hierarchical specs — guarded or not — lower exactly as flat
//!   machines and EFSMs do;
//! * [`artifact`] — deployable machine artifacts: the versioned,
//!   checksummed, canonical binary encoding of a lowered machine plus
//!   its parameter binding, with a paranoid loader that survives
//!   truncation, bit-flips, version skew and hostile bytes (byte layout
//!   and trust model specified in `docs/ARTIFACT_FORMAT.md`);
//! * [`diag`] — the diagnostic vocabulary ([`Lint`], [`Level`],
//!   [`Diagnostic`]) of the semantic analyzer (`stategen-analysis`),
//!   the workspace's one well-formedness and guard-determinism checker;
//! * [`interval`] — the interval abstract domain over the EFSM guard
//!   language, used by the analyzer's guard passes, the flattener's
//!   guard-aware reachability pruning.
//!
//! ## What a machine is, and where it runs
//!
//! This crate says what a machine is; `stategen-runtime` says how it
//! runs. Below the front-ends there is one machine, [`FlatIr`], and two
//! lowerings of it, the paper's two deployment policies (§4.2): walk the
//! IR as it stands ([`FlatIr::step`]), or compile it to a dense table
//! ([`CompiledMachine::compile_ir`] when unguarded, [`unfold`] when
//! guarded and bound). `stategen-runtime`'s `Engine::compile` picks
//! between them and its `Runtime` serves thousands of sessions over the
//! result; a machine known at *build* time can instead be rendered to
//! source (`stategen-generated`).
//!
//! Two *semantic references* stand beside the lowerings, deliberately
//! naive and deliberately separate: [`IrInstance`] (one session of a
//! [`FlatIr`] — flat machines via [`FlatIr::from_machine`], EFSMs via
//! [`FlatIr::from_efsm`]) and [`HsmInstance`] (one session of a
//! statechart, unflattened). Both speak the [`ProtocolEngine`]
//! vocabulary. [`equivalent`] decides that two such engines are one
//! protocol, by a search over their reachable pairs of configurations,
//! or returns a shortest trace that tells them apart.
//!
//! Hierarchical statecharts sit *in front of* the lowerings rather than
//! adding a third: author a [`HierarchicalMachine`] (composite states,
//! entry/exit actions, shallow history, optionally guards and variable
//! updates on any transition), debug it on the direct [`HsmInstance`]
//! interpreter, then lower it through
//! [`flatten_ir`](HierarchicalMachine::flatten_ir) — reachable
//! configurations become flat states, and inherited transitions plus
//! synthesized exit/entry action sequences become ordinary (possibly
//! guarded) transitions of the unified [`FlatIr`]. `stategen-runtime`'s
//! `hsm_props` and `hsm_guarded_props` decide `HsmInstance ≡
//! IrInstance(flatten_ir)` with [`equivalent`] on random statecharts,
//! guarded and unguarded.
//!
//! ## Example
//!
//! ```
//! use stategen_core::{generate, AbstractModel, Outcome,
//!     StateComponent, StateSpace, StateVector};
//!
//! /// Waits for `quorum` acknowledgements, then completes.
//! struct AckQuorum { quorum: u32 }
//!
//! impl AbstractModel for AckQuorum {
//!     fn machine_name(&self) -> String { format!("acks@{}", self.quorum) }
//!     fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
//!         StateSpace::new(vec![StateComponent::int("acks", self.quorum)])
//!     }
//!     fn messages(&self) -> Vec<String> { vec!["ack".into()] }
//!     fn start_state(&self) -> StateVector {
//!         self.state_space().unwrap().zero_vector()
//!     }
//!     fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
//!         let mut t = s.clone();
//!         t.set(0, s.get(0) + 1);
//!         Outcome::to(t, vec![])
//!     }
//!     fn is_final_state(&self, s: &StateVector) -> bool {
//!         s.get(0) == self.quorum
//!     }
//! }
//!
//! let generated = generate(&AckQuorum { quorum: 3 })?;
//! // acks ∈ {0,1,2,3}; the acks=3 state is final.
//! assert_eq!(generated.machine.state_count(), 4);
//! assert!(generated.machine.unique_final().is_some());
//! # Ok::<(), stategen_core::GenerateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compiled;
pub mod component;
pub mod diag;
pub mod efsm;
pub mod error;
mod explore;
pub mod fingerprint;
pub mod generator;
pub mod hsm;
pub mod interval;
pub mod ir;
pub mod machine;
pub mod model;
mod unfold;

pub use artifact::Artifact;
pub use compiled::CompiledMachine;
pub use component::{ComponentKind, StateComponent, StateSpace, StateVector};
pub use diag::{Diagnostic, Level, Lint};
pub use efsm::{Efsm, EfsmBuilder};
pub use error::{
    ArtifactError, CompileError, GenerateError, HsmError, InterpError, ParseNameError, SchemaError,
    StategenError, SwapError,
};
pub use explore::{equivalent, Verdict};
pub use fingerprint::{fnv1a, fold_params, Fnv64};
pub use generator::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, GenerateOptions,
    GeneratedMachine, GenerationReport, StageTimings,
};
pub use hsm::{
    HierarchicalMachine, HsmBuilder, HsmInstance, HsmState, HsmStateId, HsmTarget, HsmTransition,
};
pub use interval::{
    cond_status, eval_lin, guard_status, guard_unsat, guards_disjoint, CondStatus, Interval,
};
pub use ir::{FlatIr, FlatState, FlatTransition, IrInstance, Notes};
pub use machine::{
    Action, MessageId, ProtocolEngine, State, StateId, StateMachine, StateMachineBuilder,
    StateRole, Transition,
};
pub use model::{AbstractModel, Outcome, TransitionSpec};
pub use unfold::{unfold, Fallback, Unfolded};
