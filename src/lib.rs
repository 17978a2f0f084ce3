//! # stategen
//!
//! A generative state-machine toolkit reproducing *"Design,
//! Implementation and Deployment of State Machines Using a Generative
//! Approach"* (Kirby, Dearle & Norcross, DSN 2007) — the facade crate
//! tying the workspace together.
//!
//! The idea: a distributed algorithm whose state space depends on a
//! parameter (the replication factor of a BFT commit protocol) is written
//! once as an **abstract model**; executing the model generates one
//! member of a *family* of finite state machines, from which renderers
//! produce diagrams, documentation and source-level implementations.
//!
//! ```
//! use stategen::commit::{CommitConfig, CommitModel};
//! use stategen::fsm::{generate, FlatIr, Notes};
//! use stategen::render::render_text;
//!
//! let model = CommitModel::new(CommitConfig::new(4)?);
//! let generated = generate(&model)?;
//! assert_eq!(generated.report.initial_states, 512); // paper §3.4
//! assert_eq!(generated.report.reachable_states, 48); // after pruning
//! assert_eq!(generated.report.final_states, 33);     // after merging
//! let ir = FlatIr::from_machine(&generated.machine); // the one machine every back end reads
//! let text = render_text(&ir, Some(&Notes::from_machine(&generated.machine)));
//! assert!(text.contains("state: T/2/F/0/F/F/F"));    // paper Fig 14
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fsm`] | `stategen-core` | state spaces, machines, generation pipeline, the flat IR and its dense-table lowerings |
//! | [`analysis`] | `stategen-analysis` | semantic lints, interval abstract interpretation, provably-safe state minimization (see `docs/ANALYSIS.md`) |
//! | [`runtime`] | `stategen-runtime` | the deployment pipeline: `Spec → Engine → Runtime`, typed session handles, uniform across every execution tier; the step engine, session store and batch kernels |
//! | [`commit`] | `stategen-commit` | the BFT commit protocol: abstract model, EFSM, reference algorithm |
//! | [`render`] | `stategen-render` | text/diagram/source-code renderers |
//! | [`generated`] | `stategen-generated` | build-time generated commit handlers |
//! | [`models`] | `stategen-models` | further message-counting models (§5.2) |
//! | [`sha1`] | `asa-sha1` | SHA-1 (RFC 3174) for PIDs |
//! | [`simnet`] | `asa-simnet` | deterministic discrete-event network simulator |
//! | [`chord`] | `asa-chord` | Chord key-based routing overlay |
//! | [`storage`] | `asa-storage` | ASA data-storage and version-history services |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asa_chord as chord;
pub use asa_sha1 as sha1;
pub use asa_simnet as simnet;
pub use asa_storage as storage;
pub use stategen_analysis as analysis;
pub use stategen_commit as commit;
pub use stategen_core as fsm;
pub use stategen_generated as generated;
pub use stategen_models as models;
pub use stategen_render as render;
pub use stategen_runtime as runtime;

/// The most frequently used items, for glob import.
pub mod prelude {
    pub use stategen_analysis::{analyze, minimize, Analysis, AnalysisConfig};
    pub use stategen_commit::{CommitConfig, CommitModel};
    pub use stategen_core::{
        generate, generate_with, AbstractModel, Action, FlatIr, GenerateOptions, GeneratedMachine,
        HierarchicalMachine, HsmBuilder, HsmInstance, Notes, Outcome, ProtocolEngine,
        StateComponent, StateMachine, StateSpace, StateVector, StategenError,
    };
    pub use stategen_render::{render_dot, render_mermaid, render_text, render_xml};
    pub use stategen_runtime::{Engine, Runtime, SessionId, Spec, Tier};
}
