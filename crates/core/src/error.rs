//! Error types for the generative state-machine toolkit.

use std::error::Error;
use std::fmt;

/// An error constructing a [`StateSpace`](crate::StateSpace) from component
/// declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No components were supplied; a state space must be non-empty.
    Empty,
    /// Two components share the same name.
    DuplicateComponent(String),
    /// A component name is empty or contains the `/` separator used in
    /// rendered state names.
    InvalidComponentName(String),
    /// The product of component cardinalities exceeds the supported maximum
    /// (`u32::MAX` states).
    TooManyStates(u128),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Empty => write!(f, "state space has no components"),
            SchemaError::DuplicateComponent(name) => {
                write!(f, "duplicate state component name `{name}`")
            }
            SchemaError::InvalidComponentName(name) => {
                write!(f, "invalid state component name `{name}`")
            }
            SchemaError::TooManyStates(n) => {
                write!(f, "state space of {n} states exceeds the supported maximum")
            }
        }
    }
}

impl Error for SchemaError {}

/// An error raised while executing an abstract model to generate a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The model declared no messages.
    NoMessages,
    /// The model declared two messages with the same name.
    DuplicateMessage(String),
    /// The schema supplied by the model was invalid.
    Schema(SchemaError),
    /// A state vector produced by the model does not fit the declared
    /// state space (wrong arity or out-of-range component value).
    InvalidVector {
        /// Description of the offending vector.
        vector: String,
        /// Which step produced it.
        context: &'static str,
    },
    /// The start state declared by the model is not inside the state space.
    InvalidStart(String),
    /// Pruning removed every state (the start state was invalid).
    EmptyMachine,
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::NoMessages => write!(f, "abstract model declares no messages"),
            GenerateError::DuplicateMessage(name) => {
                write!(f, "duplicate message name `{name}`")
            }
            GenerateError::Schema(e) => write!(f, "invalid state space: {e}"),
            GenerateError::InvalidVector { vector, context } => {
                write!(
                    f,
                    "model produced state vector {vector} outside the state space during {context}"
                )
            }
            GenerateError::InvalidStart(name) => {
                write!(f, "start state {name} is outside the state space")
            }
            GenerateError::EmptyMachine => write!(f, "generated machine has no states"),
        }
    }
}

impl Error for GenerateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenerateError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for GenerateError {
    fn from(e: SchemaError) -> Self {
        GenerateError::Schema(e)
    }
}

/// An error raised while flattening a machine for execution (building a
/// transition into a dense table, or checking a guarded IR before it is
/// unfolded).
///
/// The dense-table runtimes admit exactly one transition per
/// `(state, message)` cell (per guard, for EFSMs); a duplicate would
/// silently lose to the first match, so it is reported as an error
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Two transitions leave the same state on the same message (with
    /// identical guards, for EFSMs); the second could never fire.
    DuplicateTransition {
        /// Display name of the offending state.
        state: String,
        /// The message both transitions claim.
        message: String,
    },
    /// The transition names a message outside the machine's alphabet.
    UnknownMessage(String),
    /// A state id is out of range for the machine under construction.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of states declared so far.
        states: usize,
    },
    /// A guarded IR was handed to the dense-table compiler, which has no
    /// variable registers; guarded machines lower through
    /// `stategen-runtime`'s `Engine::compile`, which binds the
    /// parameters and [`unfold`](crate::unfold)s them onto the dense
    /// table or runs them on the interpreter.
    GuardedMachine(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::DuplicateTransition { state, message } => {
                write!(
                    f,
                    "duplicate transition from state `{state}` on message `{message}`"
                )
            }
            CompileError::UnknownMessage(name) => {
                write!(f, "unknown message `{name}`")
            }
            CompileError::StateOutOfRange { index, states } => {
                write!(
                    f,
                    "state id {index} is out of range ({states} states declared)"
                )
            }
            CompileError::GuardedMachine(name) => {
                write!(
                    f,
                    "machine `{name}` carries guards, updates or variables; compile it with its \
                     parameters through Engine::compile instead of the dense-table compiler"
                )
            }
        }
    }
}

impl Error for CompileError {}

/// An error raised while constructing a
/// [`HierarchicalMachine`](crate::HierarchicalMachine) or adding
/// transitions to its builder.
///
/// The hierarchical layer enforces the same determinism invariants as the
/// flat builder (one transition per `(state, message)`), plus the tree
/// invariants the flattening compiler relies on: composites carry an
/// initial child drawn from their own children, shallow history lives on
/// composites only, final states are leaves, and state names stay free of
/// the `.`/`~`/`=` separators used in synthesized flat-state names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HsmError {
    /// The transition names a message outside the machine's alphabet.
    UnknownMessage(String),
    /// A state id is out of range for the machine under construction.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of states declared so far.
        states: usize,
    },
    /// Two transitions leave the same state on the same message; the
    /// inner-state-overrides-outer resolution rule leaves no way for the
    /// second to ever fire.
    DuplicateTransition {
        /// Display name of the offending state.
        state: String,
        /// The message both transitions claim.
        message: String,
    },
    /// A state name is empty or contains one of the reserved separators
    /// (`.`, `~`, `=`) used in flattened configuration names.
    InvalidStateName(String),
    /// Two siblings (or two top-level states) share a name, which would
    /// make flattened configuration names ambiguous.
    DuplicateSiblingName(String),
    /// A composite's declared initial state is not one of its direct
    /// children.
    InitialNotChild {
        /// The composite state's name.
        composite: String,
        /// The declared initial state's name.
        initial: String,
    },
    /// Shallow history was enabled on a state without children.
    HistoryOnLeaf(String),
    /// A state with children was marked final; only leaves can be final.
    FinalNotLeaf(String),
    /// A transition targets the history pseudostate of a state that is
    /// not a composite with shallow history enabled.
    InvalidHistoryTarget(String),
    /// A guard or update references a variable index the machine never
    /// declared.
    VariableOutOfRange {
        /// The offending variable index.
        index: usize,
        /// Number of variables declared so far.
        variables: usize,
    },
    /// A guard or update references a parameter index the machine never
    /// declared.
    ParamOutOfRange {
        /// The offending parameter index.
        index: usize,
        /// Number of parameters declared so far.
        params: usize,
    },
    /// A transition was declared after an *unconditional* transition on
    /// the same `(state, message)` pair; declaration order is firing
    /// priority, so it could never fire.
    ShadowedTransition {
        /// Display name of the offending state.
        state: String,
        /// The message both transitions claim.
        message: String,
    },
}

impl fmt::Display for HsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HsmError::UnknownMessage(name) => write!(f, "unknown message `{name}`"),
            HsmError::StateOutOfRange { index, states } => {
                write!(
                    f,
                    "state id {index} is out of range ({states} states declared)"
                )
            }
            HsmError::DuplicateTransition { state, message } => {
                write!(
                    f,
                    "duplicate transition from state `{state}` on message `{message}`"
                )
            }
            HsmError::InvalidStateName(name) => {
                write!(
                    f,
                    "invalid state name `{name}` (empty or contains `.`, `~` or `=`)"
                )
            }
            HsmError::DuplicateSiblingName(name) => {
                write!(f, "duplicate sibling state name `{name}`")
            }
            HsmError::InitialNotChild { composite, initial } => {
                write!(
                    f,
                    "initial state `{initial}` is not a child of composite `{composite}`"
                )
            }
            HsmError::HistoryOnLeaf(name) => {
                write!(f, "shallow history enabled on leaf state `{name}`")
            }
            HsmError::FinalNotLeaf(name) => {
                write!(
                    f,
                    "final state `{name}` has children; only leaves can be final"
                )
            }
            HsmError::InvalidHistoryTarget(name) => {
                write!(
                    f,
                    "history transition targets `{name}`, which is not a composite with \
                     shallow history enabled"
                )
            }
            HsmError::VariableOutOfRange { index, variables } => {
                write!(
                    f,
                    "variable id {index} is out of range ({variables} variable(s) declared)"
                )
            }
            HsmError::ParamOutOfRange { index, params } => {
                write!(
                    f,
                    "parameter id {index} is out of range ({params} parameter(s) declared)"
                )
            }
            HsmError::ShadowedTransition { state, message } => {
                write!(
                    f,
                    "transition from state `{state}` on message `{message}` is declared after \
                     an unconditional transition and could never fire"
                )
            }
        }
    }
}

impl Error for HsmError {}

/// An error rejecting a deployable machine artifact (see
/// [`crate::artifact::Artifact::load`]).
///
/// The loader treats its input as hostile: every count, offset, index
/// and checksum is validated before any derived structure is built, and
/// the error names what failed and where so a corrupt fleet rollout can
/// be diagnosed from the rejection alone. Marked `#[non_exhaustive]`:
/// future format revisions may reject in new ways.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The bytes do not begin with the artifact magic (or are shorter
    /// than a header) — not an artifact at all.
    NotAnArtifact,
    /// The artifact declares a format version this loader does not
    /// implement. Version skew is rejected up front, never papered
    /// over: re-save the machine with a matching toolchain.
    UnsupportedVersion {
        /// The format version the artifact declares.
        found: u32,
        /// The format version this loader implements.
        supported: u32,
    },
    /// The input ended before a declared structure was complete
    /// (truncation, or a length field inflated past the file).
    Truncated {
        /// The section being read.
        section: &'static str,
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A stored checksum does not match the bytes it covers (bit rot,
    /// splicing, or tampering).
    ChecksumMismatch {
        /// The section whose checksum failed (`"file"` for the
        /// whole-file footer checksum).
        section: &'static str,
    },
    /// A field's value is structurally impossible: an index out of
    /// range, an unknown tag, an over-large count, a non-UTF-8 string.
    Malformed {
        /// The section the field lives in.
        section: &'static str,
        /// What was wrong.
        detail: &'static str,
    },
    /// The decoded machine does not hash to the content fingerprint the
    /// footer declares — the payload and footer disagree about what
    /// machine this is.
    FingerprintMismatch {
        /// Fingerprint declared by the footer.
        declared: u64,
        /// Fingerprint of the decoded machine.
        actual: u64,
    },
    /// The bytes decode to a valid machine but are not the canonical
    /// encoding of it ([`crate::artifact::Artifact::save`] is
    /// deterministic; accepting non-canonical spellings would break
    /// byte-identity re-save and content addressing).
    NotCanonical,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::NotAnArtifact => {
                write!(f, "not a stategen artifact (bad magic or too short)")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} is not supported (this loader implements \
                     version {supported})"
                )
            }
            ArtifactError::Truncated { section, offset } => {
                write!(
                    f,
                    "artifact truncated in the {section} section (needed more bytes at offset \
                     {offset})"
                )
            }
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "artifact {section} checksum mismatch")
            }
            ArtifactError::Malformed { section, detail } => {
                write!(f, "malformed artifact {section} section: {detail}")
            }
            ArtifactError::FingerprintMismatch { declared, actual } => {
                write!(
                    f,
                    "artifact content fingerprint mismatch: footer declares {declared:#018x}, \
                     decoded machine hashes to {actual:#018x}"
                )
            }
            ArtifactError::NotCanonical => {
                write!(
                    f,
                    "artifact bytes are not the canonical encoding of the machine they decode to"
                )
            }
        }
    }
}

impl Error for ArtifactError {}

/// An error from the runtime's drain-and-switch hot-swap state machine
/// (`Runtime::begin_swap` / `finish_swap` / `abort_swap`).
///
/// Incompatibility is always rejected *before* any session moves, so a
/// failed swap attempt leaves the runtime exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SwapError {
    /// A swap is already in progress; finish or abort it first.
    AlreadyInProgress,
    /// The incoming engine's message alphabet differs from the serving
    /// engine's. During a drain both engines serve concurrently from
    /// the same message ids, so the alphabets must be identical —
    /// protocol revisions that change the alphabet deploy by draining
    /// the whole runtime, not by hot-swap.
    AlphabetMismatch {
        /// Messages the serving engine declares.
        serving: usize,
        /// Messages the incoming engine declares.
        incoming: usize,
    },
    /// The swap cannot complete yet: sessions are still live on the
    /// outgoing engine.
    Draining {
        /// Sessions still live on the outgoing engine.
        remaining: usize,
    },
    /// `finish_swap`/`abort_swap` was called with no swap in progress.
    NotInProgress,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::AlreadyInProgress => {
                write!(
                    f,
                    "a hot-swap is already in progress; finish or abort it first"
                )
            }
            SwapError::AlphabetMismatch { serving, incoming } => {
                write!(
                    f,
                    "incoming engine's message alphabet ({incoming} message(s)) differs from \
                     the serving engine's ({serving} message(s)); hot-swap requires identical \
                     alphabets"
                )
            }
            SwapError::Draining { remaining } => {
                write!(
                    f,
                    "swap cannot complete: {remaining} session(s) still live on the outgoing \
                     engine"
                )
            }
            SwapError::NotInProgress => write!(f, "no hot-swap is in progress"),
        }
    }
}

impl Error for SwapError {}

/// The unified error of the whole toolkit, wrapping every stage-specific
/// error (`SchemaError`, `GenerateError`, `CompileError`, `HsmError`,
/// `InterpError`, `ArtifactError`, `SwapError`) behind one type.
///
/// The staged APIs keep returning their precise error types; anything
/// that spans stages — above all the `stategen-runtime` pipeline
/// (`Spec` ingest → `Engine` compile → `Runtime` serving) — returns
/// `StategenError` so callers hold a single error surface for the whole
/// `Spec → Engine → Runtime` path. Marked `#[non_exhaustive]`: future
/// pipeline stages may add variants without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StategenError {
    /// A state-space declaration was invalid.
    Schema(SchemaError),
    /// Executing an abstract model failed.
    Generate(GenerateError),
    /// Flattening a machine for execution failed.
    Compile(CompileError),
    /// Constructing a hierarchical machine failed.
    Hsm(HsmError),
    /// Driving an engine failed.
    Interp(InterpError),
    /// A parameter binding does not match the EFSM's declaration.
    ParamCountMismatch {
        /// Parameters the EFSM declares.
        expected: usize,
        /// Parameters supplied.
        found: usize,
    },
    /// A session handle addressed a released (and possibly recycled)
    /// runtime slot — the non-panicking form of the generational
    /// use-after-recycle guard, returned by fallible handle-taking APIs
    /// such as `Runtime::try_deliver`.
    StaleSession {
        /// The shard the handle pointed into.
        shard: usize,
        /// The slot within the shard.
        slot: usize,
        /// The generation the handle carried.
        generation: u32,
    },
    /// A message id is out of range for the engine's alphabet (it was
    /// minted by a different machine) — returned by fallible
    /// untrusted-input APIs such as `Runtime::try_deliver` instead of
    /// silently dispatching from the wrong table cell.
    MessageOutOfRange {
        /// The offending message index.
        index: usize,
        /// Messages the engine declares.
        messages: usize,
    },
    /// A runtime snapshot was restored into an engine whose behavioural
    /// fingerprint differs from the one the snapshot was taken under.
    /// Snapshot state ids and variable registers are only meaningful
    /// relative to a behaviourally identical machine, so the restore is
    /// refused instead of silently resuming sessions in the wrong
    /// machine.
    SnapshotMismatch {
        /// Fingerprint of the engine the restore targeted.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A snapshot (or an in-place swap migration) put a session in a
    /// `(state, registers)` pair that the target engine's machine
    /// cannot reach from its start state. Only an engine that
    /// enumerated its machine's reachable configurations can tell —
    /// one that unfolded a guarded machine onto the dense table — and
    /// it refuses the whole restore, nothing changed, rather than
    /// resume the session from some other configuration.
    UnreachableConfiguration {
        /// The slot (within its shard) holding the pair.
        slot: usize,
        /// The state id the snapshot recorded for it.
        state: u32,
    },
    /// A deployable machine artifact was rejected by the loader.
    Artifact(ArtifactError),
    /// A runtime hot-swap was rejected or cannot proceed.
    Swap(SwapError),
    /// The semantic analyzer found deny-level diagnostics (the
    /// `Spec::analyzed` gate in `stategen-runtime` rejects the machine
    /// before it compiles; see the `stategen-analysis` crate).
    Analysis {
        /// The deny-level findings, in report order.
        diagnostics: Vec<crate::diag::Diagnostic>,
    },
}

impl fmt::Display for StategenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StategenError::Schema(e) => write!(f, "invalid state space: {e}"),
            StategenError::Generate(e) => write!(f, "generation failed: {e}"),
            StategenError::Compile(e) => write!(f, "compilation failed: {e}"),
            StategenError::Hsm(e) => write!(f, "invalid statechart: {e}"),
            StategenError::Interp(e) => write!(f, "delivery failed: {e}"),
            StategenError::ParamCountMismatch { expected, found } => {
                write!(
                    f,
                    "EFSM declares {expected} parameter(s), binding supplies {found}"
                )
            }
            StategenError::StaleSession {
                shard,
                slot,
                generation,
            } => {
                write!(
                    f,
                    "stale session handle s{shard}:{slot}#{generation}: the slot was released \
                     and possibly recycled"
                )
            }
            StategenError::MessageOutOfRange { index, messages } => {
                write!(
                    f,
                    "message id {index} is out of range ({messages} message(s) declared); it \
                     was minted by a different machine"
                )
            }
            StategenError::SnapshotMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot fingerprint {found:#018x} does not match the engine's \
                     {expected:#018x}: snapshots restore only into behaviourally identical \
                     machines"
                )
            }
            StategenError::UnreachableConfiguration { slot, state } => {
                write!(
                    f,
                    "slot {slot}: state {state} with the recorded registers is not a reachable \
                     configuration of the engine's machine"
                )
            }
            StategenError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            StategenError::Swap(e) => write!(f, "hot-swap failed: {e}"),
            StategenError::Analysis { diagnostics } => {
                write!(
                    f,
                    "analysis rejected the machine: {} deny-level finding(s)",
                    diagnostics.len()
                )?;
                if let Some(first) = diagnostics.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for StategenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StategenError::Schema(e) => Some(e),
            StategenError::Generate(e) => Some(e),
            StategenError::Compile(e) => Some(e),
            StategenError::Hsm(e) => Some(e),
            StategenError::Interp(e) => Some(e),
            StategenError::Artifact(e) => Some(e),
            StategenError::Swap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for StategenError {
    fn from(e: SchemaError) -> Self {
        StategenError::Schema(e)
    }
}

impl From<GenerateError> for StategenError {
    fn from(e: GenerateError) -> Self {
        StategenError::Generate(e)
    }
}

impl From<CompileError> for StategenError {
    fn from(e: CompileError) -> Self {
        StategenError::Compile(e)
    }
}

impl From<HsmError> for StategenError {
    fn from(e: HsmError) -> Self {
        StategenError::Hsm(e)
    }
}

impl From<InterpError> for StategenError {
    fn from(e: InterpError) -> Self {
        StategenError::Interp(e)
    }
}

impl From<ArtifactError> for StategenError {
    fn from(e: ArtifactError) -> Self {
        StategenError::Artifact(e)
    }
}

impl From<SwapError> for StategenError {
    fn from(e: SwapError) -> Self {
        StategenError::Swap(e)
    }
}

/// An error raised when driving a machine interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The message name is not one of the machine's declared messages.
    UnknownMessage(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownMessage(name) => {
                write!(f, "message `{name}` is not declared by this machine")
            }
        }
    }
}

impl Error for InterpError {}

/// An error raised when parsing a rendered state name back into a vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNameError {
    /// The name has a different number of `/`-separated fields than the
    /// state space has components.
    WrongArity {
        /// Fields found in the name.
        found: usize,
        /// Components in the state space.
        expected: usize,
    },
    /// A field could not be parsed for its component kind.
    BadField {
        /// Index of the offending field.
        index: usize,
        /// The raw field text.
        text: String,
    },
    /// A parsed integer exceeds the component's maximum.
    OutOfRange {
        /// Index of the offending field.
        index: usize,
        /// Parsed value.
        value: u32,
        /// Component maximum.
        max: u32,
    },
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::WrongArity { found, expected } => {
                write!(f, "state name has {found} fields, expected {expected}")
            }
            ParseNameError::BadField { index, text } => {
                write!(f, "field {index} (`{text}`) cannot be parsed")
            }
            ParseNameError::OutOfRange { index, value, max } => {
                write!(f, "field {index} value {value} exceeds maximum {max}")
            }
        }
    }
}

impl Error for ParseNameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_error_display() {
        assert_eq!(
            SchemaError::DuplicateComponent("votes".into()).to_string(),
            "duplicate state component name `votes`"
        );
        assert_eq!(
            SchemaError::Empty.to_string(),
            "state space has no components"
        );
    }

    #[test]
    fn generate_error_display_and_source() {
        let e = GenerateError::from(SchemaError::Empty);
        assert!(e.to_string().contains("invalid state space"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&GenerateError::NoMessages).is_none());
    }

    #[test]
    fn compile_error_display() {
        let e = CompileError::DuplicateTransition {
            state: "s0".into(),
            message: "vote".into(),
        };
        assert_eq!(
            e.to_string(),
            "duplicate transition from state `s0` on message `vote`"
        );
        assert!(CompileError::UnknownMessage("zap".into())
            .to_string()
            .contains("zap"));
        let e = CompileError::StateOutOfRange {
            index: 9,
            states: 3,
        };
        assert!(e.to_string().contains("out of range"));
        assert_eq!(
            CompileError::GuardedMachine("commit".into()).to_string(),
            "machine `commit` carries guards, updates or variables; compile it with its \
             parameters through Engine::compile instead of the dense-table compiler"
        );
    }

    #[test]
    fn interp_error_display() {
        assert_eq!(
            InterpError::UnknownMessage("zap".into()).to_string(),
            "message `zap` is not declared by this machine"
        );
    }

    #[test]
    fn parse_name_error_display() {
        let e = ParseNameError::WrongArity {
            found: 3,
            expected: 7,
        };
        assert_eq!(e.to_string(), "state name has 3 fields, expected 7");
    }
}
