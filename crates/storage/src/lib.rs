//! # asa-storage
//!
//! The ASA generic storage layer (paper §2): a Byzantine-fault-tolerant,
//! append-only storage infrastructure built on a P2P key-based routing
//! overlay, providing
//!
//! * the **data storage service** ([`DataService`]) mapping PIDs to
//!   immutable replicated blocks, with `r − f` store quorums and
//!   hash-verified retrieval (§2.1);
//! * the **version-history service** ([`version_service`]) mapping a GUID
//!   to a growing sequence of PIDs, serialised by the paper's BFT commit
//!   protocol — executed here by the *generated* state machines over a
//!   deterministic network simulation, with endpoint timeout/retry and
//!   back-off (§2.2);
//! * replica placement via the globally known key-generation function
//!   ([`placement`]);
//! * fault injection: fail-stop and Byzantine behaviour at both layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asa_store;
pub mod backoff;
pub mod data_service;
pub mod entities;
pub mod placement;
pub mod version_service;

pub use asa_store::{AsaStore, StoreConfig, StoreError};
pub use backoff::{RetryScheme, ServerOrdering};
pub use data_service::{DataService, DataServiceError, DataServiceStats, NodeBehaviour};
pub use entities::{DataBlock, Guid, Pid};
pub use placement::{guid_key, peer_set, pid_key, replica_keys};
pub use stategen_telemetry::{LogHistogram, MetricsSnapshot};
pub use version_service::{
    run_harness, AttemptId, ClientEndpoint, CommitPeer, HarnessConfig, HarnessReport,
    PeerBehaviour, PeerEngine, PeerGcStats, UpdateOutcome, VhMsg, VhNode, WakeStats,
};
