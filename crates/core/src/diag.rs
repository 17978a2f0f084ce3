//! The diagnostic vocabulary of the semantic analyzer (the
//! `stategen-analysis` crate), the workspace's one checker of
//! well-formedness and guard determinism.
//!
//! Every finding — structural or semantic — is a [`Diagnostic`]: a
//! [`Lint`] identifying *what kind* of fact was found, a [`Level`]
//! saying how the reporting configuration treats it, a human-readable
//! message, and (when meaningful) the dense id of the state the finding
//! anchors to. One vocabulary means one rendering path and one gating
//! rule: a `Deny`-level diagnostic rejects the machine (see
//! `stategen_analysis::Analysis::deny` and the `Spec::analyzed` gate in
//! `stategen-runtime`), `Warn` is reported but does not gate, and
//! `Allow` findings are recorded for the report only.

use std::fmt;

/// How a reported finding is treated, mirroring the compiler-lint
/// convention. Ordered: `Allow < Warn < Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Recorded in the report, never rendered as a problem or gated on.
    Allow,
    /// Reported as suspicious; does not reject the machine.
    Warn,
    /// Rejects the machine when a gate (such as `Spec::analyzed`) is in
    /// force.
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

/// Identity of a lint: one variant per distinct kind of finding, each
/// with a stable kebab-case id (used in reports and per-lint
/// configuration) and a default [`Level`].
///
/// The first four are the *structural* lints (well-formedness); the
/// rest are the *semantic* lints of the `stategen-analysis` passes
/// (reachability and dead code, interval-based guard analysis,
/// behavioural equivalence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// A [`StateRole::Finish`](crate::StateRole::Finish) state has
    /// outgoing transitions; finish states absorb every message, so the
    /// transitions can never fire and the machine's shape lies about
    /// its behaviour.
    FinalWithOutgoing,
    /// A state is unreachable from the start state.
    UnreachableState,
    /// A reachable non-final state has no outgoing transitions at all:
    /// it absorbs every message forever without being marked final.
    DeadEndState,
    /// Two states share a display name, making reports and rendered
    /// diagrams ambiguous.
    DuplicateStateName,
    /// A transition can never fire: its source state is unreachable, it
    /// leaves a finish state, or it is shadowed by an earlier
    /// unconditional transition on the same message.
    DeadTransition,
    /// A message is handled in *no* reachable state — it is declared in
    /// the alphabet but every delivery of it is silently absorbed.
    UnhandledMessage,
    /// A reachable non-final state whose live transitions all loop back
    /// to itself: once entered, the session can never make progress
    /// again, yet the state is not marked final.
    AbsorbingSink,
    /// A transition's guard is unsatisfiable (it contradicts itself or
    /// the value ranges the analysis proved for the variables), so the
    /// transition can never fire.
    UnsatisfiableGuard,
    /// A non-empty guard that is *always* true under every value the
    /// analysis proved reachable — the guard is noise, and if every
    /// guard in the machine is vacuous the machine could drop to the
    /// dense-table tier.
    VacuousGuard,
    /// Two sibling transitions on the same `(state, message)` can be
    /// enabled simultaneously. Execution stays deterministic (earlier
    /// declaration wins), but the spec relies on declaration order
    /// where it probably intended disjoint guards.
    OverlappingGuards,
    /// A variable's value range widens without bound (an `Inc` in a
    /// cycle with no limiting guard, or a `Set` that grows past any
    /// bound), so long executions can overflow the `i64` register.
    PossibleOverflow,
    /// Two or more reachable states are behaviourally equivalent; the
    /// machine can be minimized (`stategen_analysis::minimize`) without
    /// changing any observable behaviour.
    EquivalentStates,
}

impl Lint {
    /// Every lint, in a stable order (the order of the catalog in
    /// `docs/ANALYSIS.md`).
    pub const ALL: [Lint; 12] = [
        Lint::FinalWithOutgoing,
        Lint::UnreachableState,
        Lint::DeadEndState,
        Lint::DuplicateStateName,
        Lint::DeadTransition,
        Lint::UnhandledMessage,
        Lint::AbsorbingSink,
        Lint::UnsatisfiableGuard,
        Lint::VacuousGuard,
        Lint::OverlappingGuards,
        Lint::PossibleOverflow,
        Lint::EquivalentStates,
    ];

    /// The lint's stable kebab-case id.
    pub fn id(self) -> &'static str {
        match self {
            Lint::FinalWithOutgoing => "final-with-outgoing",
            Lint::UnreachableState => "unreachable-state",
            Lint::DeadEndState => "dead-end-state",
            Lint::DuplicateStateName => "duplicate-state-name",
            Lint::DeadTransition => "dead-transition",
            Lint::UnhandledMessage => "unhandled-message",
            Lint::AbsorbingSink => "absorbing-sink",
            Lint::UnsatisfiableGuard => "unsatisfiable-guard",
            Lint::VacuousGuard => "vacuous-guard",
            Lint::OverlappingGuards => "overlapping-guards",
            Lint::PossibleOverflow => "possible-overflow",
            Lint::EquivalentStates => "equivalent-states",
        }
    }

    /// Looks a lint up by its stable id.
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.id() == id)
    }

    /// The level a lint reports at when the configuration does not
    /// override it.
    ///
    /// `final-with-outgoing` (a structural contradiction) and
    /// `overlapping-guards` (witnessed nondeterminism in the spec)
    /// default to [`Level::Deny`]; `equivalent-states` is informational
    /// (redundancy is *expected* on flattened statecharts and handled
    /// by minimization) and defaults to [`Level::Allow`]; everything
    /// else defaults to [`Level::Warn`].
    pub fn default_level(self) -> Level {
        match self {
            Lint::FinalWithOutgoing | Lint::OverlappingGuards => Level::Deny,
            Lint::EquivalentStates => Level::Allow,
            _ => Level::Warn,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A single finding: lint identity, effective level, message, and the
/// dense id of the state it anchors to (when the finding is about one
/// state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// The effective level the finding reports at (the lint's default,
    /// unless the analysis configuration overrode it).
    pub level: Level,
    /// Human-readable description of the finding.
    pub message: String,
    /// Dense id of the state the finding anchors to, if any.
    pub state: Option<u32>,
}

impl Diagnostic {
    /// Builds a diagnostic at the lint's default level.
    pub fn new(lint: Lint, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            level: lint.default_level(),
            message: message.into(),
            state: None,
        }
    }

    /// Sets the anchoring state id.
    #[must_use]
    pub fn at_state(mut self, state: u32) -> Diagnostic {
        self.state = Some(state);
        self
    }

    /// Sets the effective level.
    #[must_use]
    pub fn with_level(mut self, level: Level) -> Diagnostic {
        self.level = level;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.level, self.lint.id(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(Level::Allow < Level::Warn);
        assert!(Level::Warn < Level::Deny);
        assert_eq!(Level::Deny.to_string(), "deny");
    }

    #[test]
    fn lint_ids_roundtrip_and_are_unique() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_id(lint.id()), Some(lint));
        }
        let mut ids: Vec<_> = Lint::ALL.iter().map(|l| l.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Lint::ALL.len());
        assert_eq!(Lint::from_id("no-such-lint"), None);
    }

    #[test]
    fn diagnostic_display_and_builders() {
        let d = Diagnostic::new(Lint::UnreachableState, "state `x` is unreachable")
            .at_state(3)
            .with_level(Level::Deny);
        assert_eq!(d.state, Some(3));
        assert_eq!(
            d.to_string(),
            "deny[unreachable-state]: state `x` is unreachable"
        );
        assert_eq!(
            Diagnostic::new(Lint::EquivalentStates, "x").level,
            Level::Allow
        );
    }
}
