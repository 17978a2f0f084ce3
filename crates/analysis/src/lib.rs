//! Semantic analysis over the unified flat IR: lints, interval abstract
//! interpretation, and provably-safe state minimization.
//!
//! The generative toolkit lowers every front-end — generated flat
//! machines, parameter-generic EFSMs, hierarchical statecharts — onto
//! one IR ([`FlatIr`](stategen_core::FlatIr)). This crate is the
//! semantic companion to that IR: [`analyze`] (or [`analyze_bound`]
//! when a concrete parameter binding is in hand) runs three pass
//! groups and reports every finding as a
//! [`Diagnostic`](stategen_core::Diagnostic) under the shared lint
//! vocabulary ([`Lint`](stategen_core::Lint),
//! [`Level`](stategen_core::Level)):
//!
//! 1. **Reachability and dead code** — unreachable states, dead
//!    transitions, messages no reachable state handles, absorbing
//!    non-final sinks, dead ends, final states with outgoing
//!    transitions and duplicate names — the workspace's one
//!    well-formedness check.
//! 2. **Guard analysis** — an interval abstract interpretation
//!    computes, per state, a sound range for every variable
//!    (saturating-toward-infinity arithmetic, widening after a
//!    configurable number of joins), and the guard lints read it:
//!    unsatisfiable guards (intrinsically, by the binding-independent
//!    canonical-difference proof, or under the proved ranges), vacuous
//!    guards, overlapping sibling guards (sound disjointness proof
//!    first, concrete witness enumeration as refinement when
//!    parameters are bound — the workspace's one guard-determinism
//!    check), and possible `i64` register overflow.
//! 3. **Behavioural equivalence** — [`equivalence_classes`] partitions
//!    the live states by Moore-style partition refinement and
//!    [`minimize`] rebuilds the quotient machine, dropping unreachable
//!    states and provably-dead transitions. The transform relies only
//!    on binding-independent facts, so the quotient is
//!    observation-equivalent on every execution tier for every
//!    parameter binding (see the soundness argument in
//!    `docs/ANALYSIS.md` and the four-tier property suite in
//!    `stategen-runtime`).
//!
//! Findings gate through [`Analysis::check`]: a
//! [`Level::Deny`](stategen_core::Level::Deny) finding turns into
//! [`StategenError::Analysis`](stategen_core::StategenError), which is
//! what `Spec::analyzed` in `stategen-runtime` surfaces before an
//! engine is built. Levels are configurable per lint via
//! [`AnalysisConfig`].
//!
//! # Quickstart
//!
//! ```
//! use stategen_analysis::{analyze, minimize, AnalysisConfig};
//! use stategen_core::{FlatIr, Lint};
//!
//! let machine = stategen_models::session_lifecycle();
//! let ir = machine.flatten_ir();
//! let report = analyze(&ir, &AnalysisConfig::new());
//! assert!(report.is_clean(), "no deny-level findings");
//!
//! let (smaller, stats) = minimize(&ir);
//! assert!(stats.states_after <= stats.states_before);
//! assert_eq!(smaller.messages(), ir.messages());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyze;
mod lint;
mod minimize;
#[cfg(test)]
mod reference;

pub use analyze::{analyze, analyze_bound, Analysis};
pub use lint::AnalysisConfig;
pub use minimize::{equivalence_classes, minimize, MinimizeReport};
