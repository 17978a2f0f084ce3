//! The owned, tier-agnostic execution artifact.

pub use stategen_core::Tier;
use stategen_core::{
    fold_params, Artifact, CompiledEfsm, CompiledMachine, FlatIr, MessageId, StategenError,
    StepEngine,
};

use crate::runtime::Runtime;
use crate::spec::Spec;

/// An owned, `Send + Sync + 'static` execution artifact: one [`Spec`]
/// resolved onto one tier.
///
/// Compile once (startup, generation time), clone freely — clones share
/// the underlying tables via `Arc` — and create any number of
/// [`Runtime`]s to serve sessions from it.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The tier-resolved machine every session steps through.
    pub(crate) step: StepEngine,
    name: String,
    /// Behavioural identity: [`FlatIr::fingerprint`] of the ingested
    /// spec with the bound parameter values folded in. Equal
    /// fingerprints ⇒ behaviourally identical engines, whatever tier
    /// they resolved onto — the validity criterion for restoring a
    /// [`RuntimeSnapshot`](crate::RuntimeSnapshot).
    fingerprint: u64,
}

impl Engine {
    /// Compiles a spec onto its deployment tier through the unified
    /// lowering IR: flat machines and unguarded flattened statecharts
    /// onto the dense-table tier, EFSMs and *guarded* statecharts onto
    /// the fused-bytecode tier with the parameters bound.
    ///
    /// This is the serving configuration — pay one flattening pass at
    /// ingest, then dispatch in a few nanoseconds with zero allocation
    /// per delivered message.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the machine cannot be lowered
    /// (e.g. duplicate `(state, message)` transitions with identical
    /// guards); [`StategenError::ParamCountMismatch`] if the EFSM
    /// binding has the wrong arity.
    pub fn compile(spec: Spec) -> Result<Engine, StategenError> {
        let name = spec.name().to_string();
        match spec {
            Spec::Machine(machine) => Ok(Engine {
                fingerprint: FlatIr::from_machine(&machine).fingerprint(),
                step: StepEngine::dense(CompiledMachine::compile(&machine)),
                name,
            }),
            Spec::Efsm { machine, params } => Ok(Engine {
                fingerprint: fold_params(FlatIr::from_efsm(&machine).fingerprint(), &params),
                step: StepEngine::register(CompiledEfsm::compile(&machine)?, &params)?,
                name,
            }),
            Spec::Hierarchical { machine, params } => {
                let ir = machine.flatten_ir();
                Engine::lower(&ir, &params, name, fold_params(ir.fingerprint(), &params))
            }
        }
    }

    /// The one lowered-IR → engine path ([`StepEngine::compile_ir`]),
    /// shared by statechart specs and artifacts.
    fn lower(
        ir: &FlatIr,
        params: &[i64],
        name: String,
        fingerprint: u64,
    ) -> Result<Engine, StategenError> {
        Ok(Engine {
            step: StepEngine::compile_ir(ir, params)?,
            name,
            fingerprint,
        })
    }

    /// Compiles a deployable [`Artifact`] — typically just
    /// [`Artifact::load`]ed from bytes shipped to this host — onto its
    /// serving tier: guarded machines onto the fused-bytecode tier with
    /// the artifact's parameter binding applied, unguarded ones onto the
    /// dense table. This is the paper's deployment end game: the model
    /// is generated and verified once, and a peer boots from the
    /// artifact bytes alone — no model, no generator, no spec.
    ///
    /// The resulting engine's [`Engine::fingerprint`] equals
    /// [`Artifact::fingerprint`], and equals the fingerprint — and the
    /// [`Engine::tier`] — of an engine compiled in-process from the same
    /// spec, so snapshots, hot-swap compatibility checks and operator
    /// tooling treat artifact-loaded and spec-compiled engines
    /// interchangeably.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the artifact's IR cannot be lowered
    /// (e.g. duplicate `(state, message)` transitions with identical
    /// guards — possible, since artifacts are authored externally);
    /// [`StategenError::ParamCountMismatch`] if the binding arity
    /// disagrees with the compiled machine.
    pub fn from_artifact(artifact: &Artifact) -> Result<Engine, StategenError> {
        let ir = artifact.ir();
        Engine::lower(
            ir,
            artifact.params(),
            ir.name().to_string(),
            artifact.fingerprint(),
        )
    }

    /// Resolves a spec onto the no-preparation tier: flat machines (and
    /// flattened statecharts) are walked directly instead of being
    /// compiled into dense tables. Use while authoring or debugging a
    /// machine; switch the one call to [`Engine::compile`] to serve
    /// traffic.
    ///
    /// EFSMs have no separate interpreted runtime configuration — the
    /// runtime serves per-session variable registers from the lowered
    /// form either way (the lowering is proven behaviourally equivalent
    /// to the tree-walking interpreter by the core property suites), so
    /// an EFSM spec resolves to [`Tier::CompiledEfsm`] here too. The
    /// same applies to *guarded* statecharts (paying the flatten +
    /// compile pass at ingest); only unguarded statecharts get a
    /// genuinely interpreted flat walk. For truly no-preparation
    /// guarded-statechart execution, drive
    /// [`HsmInstance`](stategen_core::HsmInstance) directly.
    ///
    /// # Errors
    ///
    /// As for [`Engine::compile`].
    pub fn interpret(spec: Spec) -> Result<Engine, StategenError> {
        let name = spec.name().to_string();
        match spec {
            Spec::Machine(machine) => Ok(Engine {
                fingerprint: FlatIr::from_machine(&machine).fingerprint(),
                step: StepEngine::interpreted(machine),
                name,
            }),
            efsm @ Spec::Efsm { .. } => Engine::compile(efsm),
            Spec::Hierarchical { machine, params } => {
                // The already-built IR is reused either way — flattening
                // is the one expensive ingest step.
                let ir = machine.flatten_ir();
                if ir.is_guarded() {
                    let fingerprint = fold_params(ir.fingerprint(), &params);
                    return Engine::lower(&ir, &params, name, fingerprint);
                }
                if !params.is_empty() {
                    return Err(StategenError::ParamCountMismatch {
                        expected: 0,
                        found: params.len(),
                    });
                }
                Ok(Engine {
                    fingerprint: ir.fingerprint(),
                    step: StepEngine::interpreted(ir.to_machine()),
                    name,
                })
            }
        }
    }

    /// The tier this engine executes on.
    pub fn tier(&self) -> Tier {
        self.step.tier()
    }

    /// The machine's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine's behavioural fingerprint: a hash of the lowered IR
    /// with the bound parameter values folded in
    /// ([`FlatIr::fingerprint`] + [`fold_params`] — one definition in
    /// `stategen_core::fingerprint`, shared with the artifact format).
    /// Two engines with equal fingerprints are behaviourally identical
    /// regardless of tier or provenance, so a
    /// [`RuntimeSnapshot`](crate::RuntimeSnapshot) taken under one can
    /// be restored under the other.
    ///
    /// Operators use this to compare a *running* engine against an
    /// artifact *on disk* before attempting a rollout: an
    /// [`Artifact::fingerprint`] (also stored in the artifact's footer,
    /// so it can be read without compiling anything) equal to the
    /// serving engine's means [`Runtime::begin_swap`] will migrate every
    /// live session in place instead of draining — and a snapshot taken
    /// under this engine restores into an engine loaded from that
    /// artifact, and vice versa.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of (flat) states in the resolved machine.
    pub fn state_count(&self) -> usize {
        self.step.state_count()
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        self.step.messages()
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.step.message_id(name)
    }

    /// The parameter values bound at ingest (empty for non-EFSM tiers).
    pub fn params(&self) -> &[i64] {
        self.step.params()
    }

    /// Creates a serving runtime over this engine: one shard, no
    /// sessions. Configure with [`Runtime::sharded`], then populate
    /// with [`Runtime::spawn`] / [`Runtime::spawn_many`].
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.clone())
    }

    /// Creates a single-shard runtime pre-populated with `sessions`
    /// sessions at the start state.
    pub fn runtime_with(&self, sessions: usize) -> Runtime {
        let mut rt = self.runtime();
        rt.spawn_many(sessions);
        rt
    }
}
