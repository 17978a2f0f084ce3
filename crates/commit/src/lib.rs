//! # stategen-commit
//!
//! The running example of the DSN 2007 paper: a leaderless
//! Byzantine-fault-tolerant commit protocol used by the ASA distributed
//! storage system to serialise updates to a GUID's version history
//! (paper §2.2), expressed as an [`AbstractModel`](stategen_core::AbstractModel)
//! and generated into a *family* of finite state machines — one per
//! replication factor.
//!
//! ```
//! use stategen_commit::{CommitConfig, CommitModel};
//! use stategen_core::generate;
//!
//! let model = CommitModel::new(CommitConfig::new(4)?);
//! let generated = generate(&model)?;
//! assert_eq!(generated.report.initial_states, 512); // paper §3.4
//! assert_eq!(generated.report.final_states, 33);    // paper Table 1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod early_model;
pub mod efsm;
pub mod messages;
pub mod model;
pub mod reference;
pub mod vars;

pub use config::{CommitConfig, ConfigError};
pub use early_model::EarlyCommitModel;
pub use efsm::{commit_efsm, commit_efsm_params, commit_efsm_state_flags};
pub use messages::{CommitMessage, ParseMessageError, MESSAGE_NAMES};
pub use model::CommitModel;
pub use reference::ReferenceCommit;
pub use vars::{commit_state_space, CommitStateExt};
