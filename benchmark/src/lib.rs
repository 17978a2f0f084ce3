//! The repository's benchmark: seven workloads over the public surface
//! of the stategen crates, four end-to-end metrics with bounds, and a
//! per-layer trace taken from outside the crates. `README.md` has the
//! glossary, the reasons for each workload and the API surface manifest.

pub mod alloc;
pub mod gen;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
