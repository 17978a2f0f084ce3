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
//! [`StateMachine`] value, from which renderers (see the `stategen-render`
//! crate) produce diagrams, documentation and source-level protocol
//! implementations.
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
//!   front-end lowers onto, the one source both execution tiers consume
//!   (a plain FSM is the degenerate EFSM), and — through
//!   [`FlatIr::step`], which the interpreted tier runs as it stands —
//!   the one definition of a transition (the paper's "generate on the
//!   fly" deployment policy, §4.2);
//! * [`CompiledMachine`] — the compiler: dense transition tables with
//!   zero-allocation dispatch, for unguarded machines and for guarded
//!   ones unfolded under a binding (the paper's "generate the FSM for
//!   one binding");
//! * [`StepEngine`] / [`SessionStore`] / [`Instance`] — one machine
//!   resolved onto one tier (interpreted or dense), the one
//!   struct-of-arrays store that steps thousands of sessions over it,
//!   and the one single-session view;
//! * [`efsm`] — extended finite state machines, the intermediate points on
//!   the paper's algorithm↔FSM spectrum (§3.2, §5.3);
//! * [`hsm`] — hierarchical statecharts (composite states, entry/exit
//!   actions, inherited/internal/cross-level transitions, shallow
//!   history, and guarded/updating transitions over declared variables
//!   and parameters) with a flattening compiler onto the unified flat
//!   IR, so hierarchical specs — guarded or not — run on the flat
//!   execution tiers unchanged;
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
//! ## Engine tiers
//!
//! Below the front-ends there is one machine, [`FlatIr`], and one step:
//! [`StepEngine::step`]. A machine can be executed three ways, all
//! behaviourally equivalent (asserted by the cross-engine property
//! suites) and — the two runtime tiers — both behind the same three
//! types, [`StepEngine`], [`SessionStore`] and [`Instance`]:
//!
//! | tier | built by | dispatch cost | use when |
//! |---|---|---|---|
//! | interpreted | [`StepEngine::interpreted`] (any IR, guarded or not); [`StepEngine::compile_ir`] on a guarded IR whose configuration space is unbounded or over budget | transition-list scan, guard/update enum-tree walk per message, zero allocation | exploring freshly generated machines; debugging; guarded machines the dense table cannot hold |
//! | compiled | [`StepEngine::compile_ir`] on an unguarded IR, or on a guarded IR whose bound configuration space is finite and within budget — *unfolded* ([`CompiledMachine`]) | dense-table indexed load, zero allocation | serving traffic at runtime: many instances, hot dispatch, machine known at startup |
//! | generated | `stategen-generated` (build-time rendered source) | `match` over enum states | machine known at *build* time; maximum specialisation, no machine data at runtime |
//!
//! The interpreted tier needs no preparation; the compiled tier pays a
//! one-time compile (or unfolding) pass and then dispatches in a few
//! nanoseconds; the generated tier moves that specialisation to the
//! build. Both runtime tiers give a session the same register row
//! ([`FlatIr::reg_count`]), so state moves freely between them.
//!
//! Two *semantic references* stand beside the tiers, deliberately naive
//! and deliberately separate: [`IrInstance`] (one session of a
//! [`FlatIr`] — flat machines via [`FlatIr::from_machine`], EFSMs via
//! [`FlatIr::from_efsm`]) and [`HsmInstance`] (one session of a
//! statechart, unflattened). Every suite pins the tiers to them.
//!
//! Hierarchical statecharts sit *in front of* these tiers rather than
//! adding a fourth: author a [`HierarchicalMachine`] (composite states,
//! entry/exit actions, shallow history, optionally guards and variable
//! updates on any transition), debug it on the direct
//! [`HsmInstance`] interpreter, then lower it through
//! [`flatten_ir`](HierarchicalMachine::flatten_ir) — reachable
//! configurations become flat states, and inherited transitions plus
//! synthesized exit/entry action sequences become ordinary (possibly
//! guarded) transitions of the unified [`FlatIr`] — and run it on the
//! matching tier above: unguarded statecharts land on the dense-table
//! tier, and so do guarded ones once their parameters are bound and
//! their reachable `(state, variables)` configurations enumerated
//! (the interpreter takes those that are unbounded or over budget). The
//! property suites assert `HsmInstance ≡ IrInstance(flatten_ir) ≡
//! Instance(compiled)` over random statecharts and traces (and the
//! guarded four-way equivalence in `stategen-runtime`'s
//! `hsm_guarded_props`). Use the direct interpreter while iterating on
//! a spec (it reports hierarchical positions via [`HsmInstance::is_in`]
//! and needs no compile step); flatten + compile for serving traffic,
//! where dispatch cost and allocation behaviour are identical to any
//! other compiled machine.
//! [`SessionStore`] extends every tier to thousands of concurrent
//! protocol instances stored struct-of-arrays (one `u32` — plus, on
//! the interpreted tier, the variable registers of a guarded machine —
//! per session) over one
//! [`StepEngine`], stepped with no per-event allocation, and
//! [`ShardedPool`] partitions stores into shards, stepped by one
//! fork-join of scoped threads per batch — for capacity and isolation
//! (sessions are independent, so sharded results are identical to
//! single-threaded stepping).
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
pub mod interp;
pub mod interval;
pub mod ir;
pub mod kernel;
pub mod machine;
pub mod model;
pub mod session;
pub mod step;

pub use artifact::Artifact;
pub use compiled::CompiledMachine;
pub use component::{ComponentKind, StateComponent, StateSpace, StateVector};
pub use diag::{Diagnostic, Level, Lint};
pub use efsm::{Efsm, EfsmBuilder};
pub use error::{
    ArtifactError, CompileError, GenerateError, HsmError, InterpError, ParseNameError, SchemaError,
    StategenError, SwapError,
};
pub use fingerprint::{fnv1a, fold_params, Fnv64};
pub use generator::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, GenerateOptions,
    GeneratedMachine, GenerationReport, MergeStrategy, StageTimings,
};
pub use hsm::{
    HierarchicalMachine, HsmBuilder, HsmInstance, HsmState, HsmStateId, HsmTarget, HsmTransition,
};
pub use interp::{Instance, ProtocolEngine};
pub use interval::{
    cond_status, eval_lin, guard_status, guard_unsat, guards_disjoint, CondStatus, Interval,
};
pub use ir::{FlatIr, FlatState, FlatTransition, IrInstance};
pub use kernel::BatchTally;
pub use machine::{
    Action, MessageId, State, StateId, StateMachine, StateMachineBuilder, StateRole, Transition,
};
pub use model::{AbstractModel, Outcome, TransitionSpec};
pub use session::{BatchEngine, SessionStore, ShardedPool, Taken};
pub use step::{StepEngine, Tier};
